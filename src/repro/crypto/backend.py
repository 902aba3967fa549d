"""The modular-arithmetic primitives under the fastpath kernels.

One implementation: CPython's built-in three-argument ``pow``.  The
kernels reach it through :func:`active` at call time rather than binding
``pow`` directly, so instrumentation installed on :class:`CryptoBackend`
(the layer-attributed benchmark times ``powmod`` this way) sees every
call.  DESIGN.md §12 records why there is no second implementation.
"""

from __future__ import annotations


class CryptoBackend:
    """Big-int modular exponentiation and inversion on CPython integers."""

    name = "python"

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        return pow(base, exponent, modulus)

    def invert(self, value: int, modulus: int) -> int:
        return pow(value, -1, modulus)


_ACTIVE = CryptoBackend()


def active() -> CryptoBackend:
    """The backend every kernel call in this process routes through."""
    return _ACTIVE
