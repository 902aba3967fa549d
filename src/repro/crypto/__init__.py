"""Cryptographic substrate: fields, groups, commitments, sharing, VSS, signatures.

Everything is implemented from scratch on top of ``hashlib`` and Python
integers.  Parameters are deterministic per security level ``k`` so runs
are reproducible; see :mod:`repro.crypto.group`.
"""

from .commitment import Opening, PedersenCommitment, PedersenParameters, TrapdoorCommitment
from .field import PrimeField, is_probable_prime, next_prime
from .group import GroupElement, SchnorrGroup, safe_prime_parameters
from .prg import random_oracle, random_oracle_int
from .secret_sharing import ShamirSharing, Share, lagrange_coefficients_at_zero
from .sigma import OpeningProof, prove_opening, verify_opening
from .signatures import KeyDirectory, KeyPair, Signature, sign, verify
from .vss import FeldmanDealing, FeldmanVSS, PedersenDealing, PedersenShare, PedersenVSS

__all__ = [
    "PrimeField",
    "is_probable_prime",
    "next_prime",
    "GroupElement",
    "SchnorrGroup",
    "safe_prime_parameters",
    "random_oracle",
    "random_oracle_int",
    "Opening",
    "PedersenCommitment",
    "PedersenParameters",
    "TrapdoorCommitment",
    "ShamirSharing",
    "Share",
    "lagrange_coefficients_at_zero",
    "KeyDirectory",
    "KeyPair",
    "Signature",
    "sign",
    "verify",
    "OpeningProof",
    "prove_opening",
    "verify_opening",
    "FeldmanVSS",
    "FeldmanDealing",
    "PedersenVSS",
    "PedersenDealing",
    "PedersenShare",
]
