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

from itertools import chain
from typing import Any

_LEN_BYTES = 8
#: Tag and length prefix of a str, bytes, list or dict; an int adds its sign byte.
_HEAD = 1 + _LEN_BYTES
_INT_HEAD = _HEAD + 1
_CLOSE = object()  # marks the end of a list's or dict's pending items


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

    Byte accounting needs only the length of every message's encoding.
    The shapes measured on the wire are sized flat, in one loop with no
    function call per item: an int, and a tuple or list whose items are
    ints, ASCII strings, or tuples and lists of ints (BGW's
    ``(gate, share)`` pairs).  An int's magnitude takes
    ``ceil(bit_length / 8)`` bytes, and zero one.  Only an exact ``int``
    or ``str`` counts there, so ``bool`` and ``IntEnum`` values take the
    general path.  Every other value goes to :func:`_walked_size`, which
    sizes any depth.

    Raises:
        TypeError: on exactly the values :func:`encode` rejects for their type.
        ValueError: on a cyclic value (``encode`` recurses until
            ``RecursionError``) and on text with no UTF-8 encoding.
    """
    kind = type(value)
    if kind is int:
        return _INT_HEAD + ((value.bit_length() + 7) >> 3 or 1)
    if kind is tuple or kind is list:
        size = _HEAD
        for item in value:
            kind = type(item)
            if kind is int:
                size += _INT_HEAD + ((item.bit_length() + 7) >> 3 or 1)
            elif kind is str and item.isascii():
                size += _HEAD + len(item)
            elif kind is tuple or kind is list:
                size += _HEAD
                for leaf in item:
                    if type(leaf) is not int:
                        return _walked_size(value)
                    size += _INT_HEAD + ((leaf.bit_length() + 7) >> 3 or 1)
            else:
                return _walked_size(value)
        return size
    return _walked_size(value)


def _walked_size(value: Any) -> int:
    """``len(encode(value))`` by an explicit-stack walk: any depth, and it ends.

    Only a list or dict can close a cycle (a tuple cannot contain itself),
    so only those are tracked while their items are pending; meeting one
    again then is a cycle, which has no finite encoding.
    """
    size = 0
    pending = [value]
    walking = set()  # ids of the lists and dicts whose items are still pending
    while pending:
        item = pending.pop()
        kind = type(item)
        if kind is int:
            size += _INT_HEAD + ((item.bit_length() + 7) >> 3 or 1)
        elif kind is tuple:
            size += _HEAD
            pending.extend(item)
        elif item is _CLOSE:
            walking.discard(pending.pop())
        elif item is None or item is True or item is False:
            size += 1
        elif isinstance(item, int):
            size += _INT_HEAD + ((item.bit_length() + 7) >> 3 or 1)
        elif isinstance(item, str):
            size += _HEAD + (len(item) if item.isascii() else len(item.encode("utf-8")))
        elif isinstance(item, (bytes, bytearray)):
            size += _HEAD + len(item)
        elif isinstance(item, (tuple, list, dict)):
            key = id(item)
            if key in walking:
                raise ValueError("cannot canonically encode a cyclic value")
            walking.add(key)
            pending.append(key)
            pending.append(_CLOSE)
            size += _HEAD
            pending.extend(chain.from_iterable(item.items()) if isinstance(item, dict) else item)
        else:
            raise TypeError(f"cannot canonically encode value of type {type(item).__name__}")
    return size


def encode_many(*values: Any) -> bytes:
    """Encode several values as a single canonical tuple."""
    return encode(tuple(values))
