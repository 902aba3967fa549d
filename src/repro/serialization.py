"""Canonical, deterministic byte encoding used throughout the library.

Protocol messages, commitment inputs, Fiat--Shamir challenges and transcript
hashes all need a stable byte representation.  Python's ``repr`` and
``pickle`` are unsuitable (version dependent, not injective across types),
so we define a tiny canonical encoding:

* ``int``    -> ``b"i" + len + two's-complement-free sign byte + magnitude``
* ``str``    -> ``b"s" + len + utf-8 bytes``
* ``bytes``  -> ``b"b" + len + bytes``
* ``bool``   -> ``b"t"`` / ``b"f"``
* ``None``   -> ``b"n"``
* ``tuple``/``list`` -> ``b"l" + count + encoded items``
* ``dict``   -> ``b"d" + count + encoded (key, value) pairs, keys sorted``

The encoding is injective on the supported types, which is what makes it
safe to hash for commitments and challenges.
"""

from __future__ import annotations

from typing import Any

_LEN_BYTES = 8


def _encode_length(value: int) -> bytes:
    return value.to_bytes(_LEN_BYTES, "big")


def encode(value: Any) -> bytes:
    """Return the canonical byte encoding of ``value``.

    Raises:
        TypeError: if ``value`` (or a nested element) has an unsupported type.
    """
    # bool must be tested before int (bool is a subclass of int).
    if value is None:
        return b"n"
    if value is True:
        return b"t"
    if value is False:
        return b"f"
    if isinstance(value, int):
        sign = b"-" if value < 0 else b"+"
        magnitude = abs(value)
        width = max(1, (magnitude.bit_length() + 7) // 8)
        body = magnitude.to_bytes(width, "big")
        return b"i" + _encode_length(len(body)) + sign + body
    if isinstance(value, str):
        body = value.encode("utf-8")
        return b"s" + _encode_length(len(body)) + body
    if isinstance(value, (bytes, bytearray)):
        body = bytes(value)
        return b"b" + _encode_length(len(body)) + body
    if isinstance(value, (tuple, list)):
        parts = [b"l", _encode_length(len(value))]
        parts.extend(encode(item) for item in value)
        return b"".join(parts)
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: encode(kv[0]))
        parts = [b"d", _encode_length(len(items))]
        for key, val in items:
            parts.append(encode(key))
            parts.append(encode(val))
        return b"".join(parts)
    raise TypeError(f"cannot canonically encode value of type {type(value).__name__}")


def encoded_size(value: Any) -> int:
    """``len(encode(value))``, computed without building the bytes.

    Byte accounting needs only the length of every message's encoding;
    this walks the value once and builds no bytes, except to measure
    non-ASCII text (its UTF-8 length is taken from the encoded form).

    Raises:
        TypeError: on exactly the values :func:`encode` rejects.
    """
    if value is None or value is True or value is False:
        return 1
    if isinstance(value, int):
        return 2 + _LEN_BYTES + max(1, (value.bit_length() + 7) // 8)
    if isinstance(value, str):
        length = len(value) if value.isascii() else len(value.encode("utf-8"))
        return 1 + _LEN_BYTES + length
    if isinstance(value, (bytes, bytearray)):
        return 1 + _LEN_BYTES + len(value)
    if isinstance(value, (tuple, list)):
        return 1 + _LEN_BYTES + sum(map(encoded_size, value))
    if isinstance(value, dict):
        return 1 + _LEN_BYTES + sum(
            encoded_size(key) + encoded_size(val) for key, val in value.items()
        )
    raise TypeError(f"cannot canonically encode value of type {type(value).__name__}")


def encode_many(*values: Any) -> bytes:
    """Encode several values as a single canonical tuple."""
    return encode(tuple(values))
