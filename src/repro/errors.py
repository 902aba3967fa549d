"""Exception hierarchy for the simbcast library.

Every error raised by the library derives from :class:`SimbcastError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing the layer that failed (crypto, network, protocol, ...).
"""

from __future__ import annotations


class SimbcastError(Exception):
    """Base class for all simbcast errors."""


class CryptoError(SimbcastError):
    """A cryptographic operation failed (bad parameters, invalid proof, ...)."""


class InvalidParameterError(CryptoError):
    """Cryptographic parameters are malformed or out of range."""


class CommitmentError(CryptoError):
    """A commitment failed to verify against its claimed opening."""


class ShareError(CryptoError):
    """A secret share is inconsistent or reconstruction is impossible."""


class SignatureError(CryptoError):
    """A signature failed to verify."""


class NetworkError(SimbcastError):
    """The network simulation was driven into an invalid state."""


class ProtocolError(SimbcastError):
    """A protocol invariant was violated during execution."""


class ConsistencyError(ProtocolError):
    """Honest parties disagree on an output that must be consistent."""


class DistributionError(SimbcastError):
    """An input distribution ensemble is malformed or unsupported."""


class ExperimentError(SimbcastError):
    """An experiment harness failed to produce a verdict."""


class ScenarioError(SimbcastError):
    """A declarative scenario (or fault-plan) spec failed schema validation."""
