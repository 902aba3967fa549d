"""Hash-based random oracle.

All symmetric-style randomness in the library flows through these helpers,
which are deterministic functions of their inputs.  They are built on
SHA-256 in counter mode — a simulation-grade construction that keeps the
whole system reproducible.
"""

from __future__ import annotations

import hashlib
from typing import Any

from .. import serialization
from ..errors import InvalidParameterError
from ..obs import runtime as _obs


def random_oracle(*values: Any, length: int = 32) -> bytes:
    """A domain-separated random oracle over canonically encoded inputs."""
    if length <= 0:
        raise InvalidParameterError("length must be positive")
    seed = serialization.encode_many(*values)
    output = bytearray()
    counter = 0
    while len(output) < length:
        block = hashlib.sha256(
            b"simbcast-ro:" + counter.to_bytes(8, "big") + seed
        ).digest()
        output.extend(block)
        counter += 1
    if _obs.metrics is not None:
        _obs.metrics.inc("crypto.ro.calls")
        _obs.metrics.inc("crypto.hash.blocks", counter)
    return bytes(output[:length])


def random_oracle_int(*values: Any, modulus: int) -> int:
    """Random-oracle output reduced into ``range(modulus)``.

    Uses 64 extra bits before reduction so the bias is below 2^-64.
    """
    if modulus <= 0:
        raise InvalidParameterError("modulus must be positive")
    width = (modulus.bit_length() + 7) // 8 + 8
    return int.from_bytes(random_oracle(*values, length=width), "big") % modulus
