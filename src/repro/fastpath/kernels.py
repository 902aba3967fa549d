"""The arithmetic kernels behind :mod:`repro.fastpath`.

Every kernel is an *exact integer identity* with the textbook formula it
implements — no approximation, no probabilistic shortcut — so a kernel
can never change a computed value (``tests/crypto_oracles.py`` holds the
textbook loops the property tests compare against):

* **windowed fixed-base exponentiation** (:func:`pow_mod`): for a base
  ``b`` that keeps recurring (the group generator, the Pedersen ``h``),
  precompute ``b ** (d << (w * i)) mod p`` for every window position
  ``i`` and digit ``d``; then ``b ** e`` is a product of one table entry
  per nonzero base-``2**w`` digit of ``e``.  The identity
  ``b**x * b**y == b**(x+y) (mod p)`` holds for *any* integer ``b``, so
  the table path equals ``pow(b, e, p)`` unconditionally.
* **simultaneous multi-exponentiation** (:func:`multi_pow`): Shamir's
  trick — one shared square-and-multiply ladder over all bases, with
  precomputed subset products when the base count is small.  Again exact
  for arbitrary bases and exponents.
* **Horner's rule in the exponent** (:func:`vss_expected`): the VSS
  share check needs ``prod_j c_j ** (x**j mod q)``.  When ``x**t < q``
  the reductions are the identity and the product telescopes to
  ``(((c_t)**x * c_{t-1})**x ... )**x * c_0`` — ``t`` *tiny*-exponent
  pows instead of ``t+1`` full-width ones.  When ``x**t`` might reach
  ``q`` (or a base might lie outside the order-``q`` subgroup, where
  reduction is no longer harmless) the kernel falls back to
  :func:`multi_pow` over the explicitly reduced exponents, which follows
  the textbook product digit for digit.
* **Horner's rule on field ints** (:func:`shamir_points`): a Shamir
  dealing evaluates its polynomial at ``x = 1..n``, each point by
  Horner's rule (``acc = acc * x + c``, reduced mod ``p`` after each
  step), which is the textbook per-point evaluation step for step.

Cache policy: tables are built per ``(p, base)`` after a base has been
seen :data:`PROMOTION_THRESHOLD` times (or eagerly via
:func:`ensure_table`, used by the pool-worker warm start), capped at
:data:`MAX_TABLES` per process.  Caches never need invalidation — a
``(p, base)`` pair fully determines the table contents.

Telemetry lives in a dedicated process-local registry (``STATS``, a
:class:`repro.obs.Metrics`): cache hit rates depend on process topology
(a pool worker's caches are colder than the coordinator's), so recording
them into the ambient deterministic registry would break the
serial-vs-parallel artifact equality that CI gates on.

Full-width exponentiations that miss the tables go through
:func:`repro.crypto.backend.active`, looked up per call.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..crypto import backend as _backend
from ..obs import Metrics

#: Process-local fastpath telemetry (fastpath.* counters).  Deliberately
#: separate from :data:`repro.obs.runtime.metrics` — see module docstring.
STATS = Metrics()

#: Window width in bits for fixed-base tables (measured best at 4--64 bit
#: exponents on CPython: ~3-5x over built-in ``pow``).
WINDOW = 6

#: Build a fixed-base table once a base has been exponentiated this often.
PROMOTION_THRESHOLD = 3

#: Hard cap on resident fixed-base tables (a 48-bit table is ~500 ints).
MAX_TABLES = 128

#: Hard cap on memoized Lagrange coefficient sets.
MAX_LAGRANGE_SETS = 4096

_TABLES: Dict[Tuple[int, int], List[List[int]]] = {}
_USE_COUNTS: Dict[Tuple[int, int], int] = {}
_LAGRANGE: Dict[Tuple[int, Tuple[int, ...]], Tuple[int, ...]] = {}


def clear_caches() -> None:
    """Drop every per-process cache (tables, use counts, Lagrange sets)."""
    _TABLES.clear()
    _USE_COUNTS.clear()
    _LAGRANGE.clear()


def install_table(p: int, base: int, rows: Sequence[Sequence[int]]) -> bool:
    """Adopt a prebuilt fixed-base table (shared-memory warm start).

    Returns ``False`` without touching anything when the table is already
    resident or the cache is full — a fork-inherited table wins over a
    replayed one.
    """
    key = (p, base % p)
    if key in _TABLES or len(_TABLES) >= MAX_TABLES:
        return False
    _TABLES[key] = [list(row) for row in rows]
    _USE_COUNTS.pop(key, None)
    STATS.inc("fastpath.table.installs")
    return True


def export_tables() -> Dict[Tuple[int, int], List[List[int]]]:
    """Copies of every resident table (the inverse of :func:`install_table`)."""
    return {key: [list(row) for row in rows] for key, rows in _TABLES.items()}


def cache_sizes() -> Dict[str, int]:
    return {
        "tables": len(_TABLES),
        "use_counts": len(_USE_COUNTS),
        "lagrange_sets": len(_LAGRANGE),
    }


# -- fixed-base windowed exponentiation ---------------------------------------------


def _build_table(p: int, base: int, exponent_bits: int) -> List[List[int]]:
    """Rows of ``base ** (d << (WINDOW * i)) mod p`` for all digits d."""
    size = 1 << WINDOW
    digits = (exponent_bits + WINDOW - 1) // WINDOW
    table: List[List[int]] = []
    b = base % p
    for _ in range(digits):
        row = [1] * size
        acc = 1
        for d in range(1, size):
            acc = acc * b % p
            row[d] = acc
        table.append(row)
        b = row[size - 1] * b % p  # b ** (2 ** WINDOW)
    return table


def ensure_table(p: int, q: int, base: int) -> None:
    """Eagerly build the fixed-base table for ``(p, base)`` (warm start)."""
    key = (p, base % p)
    if key not in _TABLES and len(_TABLES) < MAX_TABLES:
        _TABLES[key] = _build_table(p, key[1], q.bit_length())
        STATS.inc("fastpath.table.builds")


def cached_table_keys() -> List[Tuple[int, int]]:
    """The ``(p, base)`` pairs with resident tables (for warm-state export)."""
    return list(_TABLES)


def pow_mod(p: int, q: int, base: int, exponent: int) -> int:
    """``pow(base, exponent, p)`` through the fixed-base table cache.

    ``exponent`` must already be normalized to ``[0, q)`` by the caller
    (:meth:`repro.crypto.group.SchnorrGroup.normalize_exponent`).
    """
    key = (p, base)
    table = _TABLES.get(key)
    if table is None:
        STATS.inc("fastpath.pow.table_misses")
        count = _USE_COUNTS.get(key, 0) + 1
        if count >= PROMOTION_THRESHOLD and len(_TABLES) < MAX_TABLES:
            _USE_COUNTS.pop(key, None)
            table = _TABLES[key] = _build_table(p, base, q.bit_length())
            STATS.inc("fastpath.table.builds")
        else:
            if len(_USE_COUNTS) > 4 * MAX_TABLES:
                _USE_COUNTS.clear()
            _USE_COUNTS[key] = count
            return _backend.active().powmod(base, exponent, p)
    else:
        STATS.inc("fastpath.pow.table_hits")
    acc = 1
    mask = (1 << WINDOW) - 1
    i = 0
    while exponent:
        digit = exponent & mask
        if digit:
            acc = acc * table[i][digit] % p
        exponent >>= WINDOW
        i += 1
    return acc


# -- simultaneous multi-exponentiation (Shamir's trick) -----------------------------

#: Subset-product precomputation is worthwhile only for a handful of bases
#: (the table has ``2**k - 1`` entries).
_MAX_SUBSET_BASES = 4

#: Digit-window width for the many-base bucket multi-exp.  4 bits is the
#: measured sweet spot for 64-point batches at simulation-grade moduli:
#: wider windows pay quadratically more bucket-aggregation
#: multiplications, narrower ones pay more windows of digit bookkeeping.
_BUCKET_WINDOW = 4


def _bucket_multi_pow(p: int, pairs: Sequence[Tuple[int, int]]) -> int:
    """Yao's bucket method over ``pairs`` of ``(base, exponent)``.

    For each :data:`_BUCKET_WINDOW`-bit digit window (most significant
    first) every base is multiplied into the bucket named by its digit;
    the window's contribution ``prod_d bucket[d]**d`` falls out of a
    running suffix product, and successive windows are glued with
    ``_BUCKET_WINDOW`` squarings.
    """
    width = _BUCKET_WINDOW
    digit_mask = (1 << width) - 1
    top = ((max(e.bit_length() for _, e in pairs) - 1) // width) * width
    acc = 1
    for shift in range(top, -width, -width):
        if shift != top:
            for _ in range(width):
                acc = acc * acc % p
        buckets = [1] * (digit_mask + 1)
        for base, exponent in pairs:
            digit = (exponent >> shift) & digit_mask
            if digit:
                buckets[digit] = buckets[digit] * base % p
        suffix = 1
        window = 1
        for digit in range(digit_mask, 0, -1):
            suffix = suffix * buckets[digit] % p
            window = window * suffix % p
        acc = acc * window % p
    return acc


def multi_pow(p: int, bases: Sequence[int], exponents: Sequence[int]) -> int:
    """``prod_i bases[i] ** exponents[i] mod p`` — exactly, two strategies.

    Exact for arbitrary integer bases and non-negative exponents.  Up to
    :data:`_MAX_SUBSET_BASES` bases use Shamir's trick: one subset-product
    table and a single shared square-and-multiply ladder.  Larger batches
    (the RLC batch-verification path: many bases, short combiner
    exponents) use Yao's bucket method with :data:`_BUCKET_WINDOW`-bit
    digit windows — per window every base lands in one digit bucket (one
    multiplication), the 15 buckets aggregate with a running suffix
    product, and only the window boundaries pay squarings.  The digit
    bookkeeping is O(bases · windows) interpreter operations, an order
    less than any per-bit shared ladder over the same batch.
    """
    if len(bases) != len(exponents):
        raise ValueError("bases and exponents must have equal length")
    STATS.inc("fastpath.multiexp.calls")
    pairs = [(b % p, e) for b, e in zip(bases, exponents, strict=True) if e > 0]
    if not pairs:
        return 1 % p
    if len(pairs) > _MAX_SUBSET_BASES:
        return _bucket_multi_pow(p, pairs)
    k = len(pairs)
    # Product of every base subset; each ladder step then costs at most
    # one multiplication on top of the shared squaring.
    products = [1] * (1 << k)
    for i, (b, _) in enumerate(pairs):
        bit = 1 << i
        for mask in range(bit):
            products[bit | mask] = products[mask] * b % p
    exps = [e for _, e in pairs]
    acc = 1
    for bit in range(max(e.bit_length() for e in exps) - 1, -1, -1):
        acc = acc * acc % p
        mask = 0
        for i, e in enumerate(exps):
            if (e >> bit) & 1:
                mask |= 1 << i
        if mask:
            acc = acc * products[mask] % p
    return acc


# -- VSS share-check product --------------------------------------------------------


def vss_expected(p: int, q: int, commitment_values: Sequence[int], x: int) -> int:
    """``prod_j commitment_values[j] ** (x**j mod q) mod p`` — exactly.

    Equals the textbook ``expected * commitment ** x_power`` loop for
    every input, including commitment values an adversary injects from
    outside the order-``q`` subgroup (where the ``mod q`` reduction of
    the exponent is *not* harmless and Horner's rule would diverge —
    those take the reduced-exponent ladder instead).
    """
    values = [c % p for c in commitment_values]
    if not values:
        return 1 % p
    degree = len(values) - 1
    if degree == 0:
        return values[0]
    x = int(x)
    if 0 <= x and x.bit_length() * degree < q.bit_length():
        # x**degree < q, so every exponent x**j mod q == x**j and the
        # product telescopes via Horner's rule in the exponent.
        STATS.inc("fastpath.vss.horner")
        backend = _backend.active()
        acc = values[degree]
        for value in reversed(values[:degree]):
            acc = backend.powmod(acc, x, p) * value % p
        return acc
    STATS.inc("fastpath.vss.ladder")
    exponents = []
    x_power = 1
    for _ in values:
        exponents.append(x_power)
        x_power = x_power * x % q
    return multi_pow(p, values, exponents)


# -- Pedersen commitment kernel -----------------------------------------------------


def pedersen_commit(p: int, q: int, g: int, h: int, value: int, randomness: int) -> int:
    """``g**value * h**randomness mod p`` via the fixed-base tables.

    Callers pass exponents already reduced to ``[0, q)``; ``g`` and ``h``
    are hot bases (every commit/verify reuses them), so both promote to
    tables almost immediately.
    """
    return pow_mod(p, q, g, value) * pow_mod(p, q, h, randomness) % p


# -- Shamir share evaluation --------------------------------------------------------


def shamir_points(modulus: int, coefficients: Sequence[int], count: int) -> List[int]:
    """``[f(1), ..., f(count)]`` mod ``modulus`` for ``f(x) = sum_j coefficients[j] * x**j``.

    Horner's rule on ints, reducing after every step; coefficients are
    residues in ``[0, modulus)``, lowest degree first.  No coefficients
    (the zero polynomial) gives all zeros.
    """
    highest_first = coefficients[::-1]
    points = []
    for x in range(1, count + 1):
        acc = 0
        for coefficient in highest_first:
            acc = (acc * x + coefficient) % modulus
        points.append(acc)
    return points


# -- memoized Lagrange coefficient sets ---------------------------------------------


def lagrange_cache_get(modulus: int, xs: Tuple[int, ...]):
    """The cached coefficient tuple for evaluation points ``xs``, or None."""
    entry = _LAGRANGE.get((modulus, xs))
    if entry is None:
        STATS.inc("fastpath.lagrange.misses")
    else:
        STATS.inc("fastpath.lagrange.hits")
    return entry


def lagrange_cache_put(modulus: int, xs: Tuple[int, ...], coefficients: Tuple[int, ...]) -> None:
    if len(_LAGRANGE) >= MAX_LAGRANGE_SETS:
        _LAGRANGE.clear()
    _LAGRANGE[(modulus, xs)] = coefficients
