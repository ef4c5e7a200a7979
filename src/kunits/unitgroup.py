"""Structure of the unit group of Z_n and k-unit counting.

A k-unit modulo n is a unit a with a^k = 1.  The closed forms here rest on
two facts: the k-units of a cyclic group of order r number gcd(k, r), and
the count is multiplicative over a direct product of cyclic factors.  The
group U(Z_n) itself decomposes per prime power: trivial for 2^0 and 2^1,
C_2 for 4, C_2 x C_{2^(a-2)} for 2^a with a >= 3, and cyclic of order
phi(p^a) for odd p.

The exponent of U(Z_n), the lcm of its cyclic factor orders, is
Carmichael's lambda(n); every unit is a k-unit exactly when lambda(n)
divides k.  The lambda-divisibility sets, the n with lambda(n) | e(n) for
an exponent e(n) linear in n, live here beside lambda as ``_LambdaSet``
values: ``_rdu_one(k)`` holds the n with rdu_k(n) = 1, for ``solver``,
and ``classify`` builds the Carmichael, Knodel and C_k sets.
``lambda_range`` sieves lambda over a whole range, segment by segment,
for the range tooling in ``classify``.

``enumerate_k_units`` lists U_k(n) itself, the product over the cyclic
factors C_r of their subgroups of order gcd(k, r), built from a
generator of each factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import count
from math import gcd, isqrt, lcm, prod
from typing import Iterator, NamedTuple

import numpy as np

from .arith import (
    _BOUND,
    SUPPORTED_BOUND,
    Factorization,
    _as_factorization,
    _Budget,
    _cofactor_primes,
    _gate,
    _shown,
    factorize,
)
from .errors import CapabilityError

__all__ = [
    "ENUMERATION_BOUND",
    "CyclicDecomposition",
    "KUnitStats",
    "LambdaSegment",
    "RANGE_BOUND",
    "unit_group_structure",
    "euler_phi",
    "carmichael_lambda",
    "lambda_range",
    "du_k_product",
    "k_unit_stats",
    "enumerate_k_units",
]

ENUMERATION_BOUND = 10**7
# lambda_range refuses a range of more n; its docstring gives the cost at the bound.
RANGE_BOUND = 10**9
_INT64_MAX = (1 << 63) - 1
# Products per int64 pass of the k-unit construction.
_SLICE = 1 << 14


@dataclass(frozen=True)
class CyclicDecomposition:
    """An abelian unit group given as an ordered product of cyclic factors."""

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        orders = tuple(self.orders)
        if not all(type(r) is int and r >= 1 for r in orders):  # the gate's own test, for all
            orders = tuple(_gate("cyclic factor orders must be >= 1", 1, r) for r in orders)
        object.__setattr__(self, "orders", orders)

    @property
    def group_order(self) -> int:
        return prod(self.orders)


@dataclass(frozen=True)
class KUnitStats:
    """The k-unit census of Z_n: count du, proportion pdu, ratio rdu.

    Invariants: du divides phi(n), rdu * du == phi(n), and pdu is the
    exact reduced fraction du / phi(n).
    """

    n: int
    k: int
    du: int
    pdu: Fraction
    rdu: int

    @property
    def phi(self) -> int:
        return self.du * self.rdu


def _prime_power_orders(p: int, e: int) -> tuple[int, ...]:
    """Cyclic factor orders of U(Z_{p^e}) for a prime p and e >= 1."""
    if p == 2:
        return () if e == 1 else (2,) if e == 2 else (2, 1 << (e - 2))
    return ((p - 1) * p ** (e - 1),)


def unit_group_structure(n: Factorization | int) -> CyclicDecomposition:
    """Cyclic decomposition of U(Z_n), prime power by prime power.

    Factors appear in ascending order of the underlying prime, with the
    2-power contributing [2, 2^(a-2)] in that order; n = 1 and n = 2 give
    the empty (trivial) decomposition.  Accepts any integer or a Factorization.
    """
    f = _as_factorization(n, n)
    orders: tuple[int, ...] = ()
    for p, e in f.factors:
        orders += _prime_power_orders(p, e)
    return CyclicDecomposition(orders)


def euler_phi(f: Factorization | int) -> int:
    """Euler's phi(n), the order of U(Z_n): the product of its cyclic factor
    orders.  Accepts any integer or a Factorization."""
    return unit_group_structure(f).group_order


def carmichael_lambda(n: Factorization | int) -> int:
    """Carmichael's lambda(n), the exponent of U(Z_n): the lcm of its cyclic factor orders."""
    return lcm(*unit_group_structure(n).orders)


class _LambdaSet(NamedTuple):
    """The n >= least, only composite or squarefree ones if asked, with lambda(n) | e(n)."""

    slope: int  # e(n) = slope * n + offset, which is >= 1 from least on
    offset: int
    least: int
    composite: bool = False
    squarefree: bool = False

    def failure(
        self, n: Factorization | int, m: int, lam: int | None = None
    ) -> tuple[str, Factorization | None] | None:
        """None for a member n, which the gate read as m, else the first clause n fails and the
        factorization read for it (None if it failed before factoring).  The clauses: "least";
        "parity", from m alone: e(m) is odd at m >= 3, where lambda(m) is even, or m = 2 is not
        composite; "lambda" (lam, or lambda(m), does not divide e(m)); "composite"; "squarefree"."""
        if m < self.least:
            return "least", None
        e = self.slope * m + self.offset
        if (m >= 3 and e % 2) or (m == 2 and self.composite):
            return "parity", None
        f = _as_factorization(n, m)
        if e % (carmichael_lambda(f) if lam is None else lam):
            return "lambda", f
        if self.composite and not f.is_composite:
            return "composite", f
        if self.squarefree and not f.is_squarefree:
            return "squarefree", f
        return None


def _rdu_one(k: int) -> _LambdaSet:
    """The n with rdu_k(n) = 1, that is lambda(n) | k: every unit modulo n is a k-unit."""
    return _LambdaSet(0, _gate("the rdu-one predicate requires K >= 1, got {}", 1, k), 1)


def du_k_product(k: int, decomposition: CyclicDecomposition) -> int:
    """Number of k-units in a product of cyclic groups: prod of gcd(k, r_i)."""
    return _du(_gate("k must be >= 1, got {}", 1, k), decomposition)


def _du(k: int, decomposition: CyclicDecomposition) -> int:
    """``du_k_product`` of a k that the gate has read."""
    return prod(gcd(k, r) for r in decomposition.orders)


def k_unit_stats(n: Factorization | int, k: int) -> KUnitStats:
    """du, pdu and rdu for (n, k) from the cyclic decomposition of U(Z_n).

    du is the product of gcd(k, r_i) over the cyclic factor orders r_i,
    and phi(n) is the order of the group.
    """
    m, k = _gate("k_unit_stats requires n >= 1 and k >= 1, got n={}, k={}", 1, n, k)
    group = unit_group_structure(_as_factorization(n, m))
    du = _du(k, group)
    phi = group.group_order
    return KUnitStats(n=m, k=k, du=du, pdu=Fraction(du, phi), rdu=phi // du)


def _cyclic_generators(p: int, e: int) -> tuple[tuple[int, int], ...]:
    """(generator, order) of each cyclic factor of U(Z_{p^e}), as ordered by
    ``_prime_power_orders``: -1 and 5 for 2^e; for odd p, the least primitive
    root g mod p, or g + p when e > 1 and g^(p-1) = 1 mod p^2 (Cohen, A Course
    in Computational Algebraic Number Theory, 1.4)."""
    if p == 2:
        generators: tuple[int, ...] = ((1 << e) - 1, 5)
    else:
        qs = [q for q, _ in factorize(p - 1).factors]
        g = next(g for g in count(2) if all(pow(g, (p - 1) // q, p) != 1 for q in qs))
        generators = (g + p if e > 1 and pow(g, p - 1, p * p) == 1 else g,)
    return tuple(zip(generators, _prime_power_orders(p, e)))


def _k_units(n: int, k: int, bound: int) -> np.ndarray:
    """``enumerate_k_units`` as a uint32 array.

    The k-units of a cyclic factor <g> of order r are its subgroup of order
    d = gcd(k, r), generated by h = g^(r/d).  Each h, lifted by the CRT to
    h mod p^e and 1 mod n/p^e, grows the array built so far into d cosets,
    by doubling in place; one in-place sort ends it.  The refusal of
    (n - 1)^2 > 2^63 - 1 keeps n below 2^32, so each residue fits uint32 and
    each product of two fits int64, where it is formed and reduced, one
    ``_SLICE`` at a time; x - x // n * n is x mod n, as numpy divides by a
    scalar without a hardware division, and ``%`` made the construction a
    third slower.
    """
    n, k = _gate("enumerate_k_units requires n >= 1 and k >= 1, got n={}, k={}", 1, n, k)
    if n > _gate(_BOUND, 1, bound):
        raise CapabilityError(f"n = {_shown(n)} exceeds the enumeration bound {_shown(bound)}")
    if (n - 1) ** 2 > _INT64_MAX:
        raise CapabilityError(
            f"n = {_shown(n)} is too large for the int64 residue scan: (n - 1)^2 > 2^63 - 1"
        )
    f = factorize(n)
    du = _du(k, unit_group_structure(f))
    try:
        units = np.empty(du, dtype=np.uint32)
    except MemoryError:
        raise CapabilityError(f"the {du} k-units modulo {n} do not fit in memory") from None
    wide = np.empty(min(du, _SLICE), dtype=np.int64)
    units[0] = 1 % n
    size = 1
    for p, e in f.factors:
        q = p**e
        rest = n // q
        for g, r in _cyclic_generators(p, e):
            d = gcd(k, r)
            h = 1 + rest * ((pow(g, r // d, q) - 1) * pow(rest, -1, q) % q)
            coset, grown = size, size * d
            while size < grown:
                step = min(size, grown - size)
                factor = pow(h, size // coset, n)
                for i in range(0, step, _SLICE):
                    products = wide[: min(_SLICE, step - i)]
                    np.multiply(units[i : i + len(products)], factor, out=products, dtype=np.int64)
                    products -= products // n * n
                    units[size + i : size + i + len(products)] = products
                size += step
    units.sort()
    return units


def enumerate_k_units(n: int, k: int, *, bound: int = ENUMERATION_BOUND) -> list[int]:
    """The k-units modulo n, ascending: U_k(n), the product over the cyclic
    factors of U(Z_n) of their subgroups of order gcd(k, r).

    n = 1 returns [0], the single trivial unit of Z_1.  Refuses with
    CapabilityError n > bound; n with (n - 1)^2 > 2**63 - 1 (n > 3037000500),
    as a product of two residues must fit int64; and du values that cannot
    be allocated, 4 bytes a k-unit, as the residues, below 2^32, are built
    in uint32.
    """
    return _k_units(n, k, bound).tolist()


# Values per segment of lambda_range; its memory is O(segment), not O(hi).
_SEGMENT = 1 << 14
# The prime powers up to this one are sieved in strides, the others gathered.
_STRIDE_LIMIT = isqrt(_SEGMENT)


@cache
def _primes_below(bits: int) -> np.ndarray:
    """Every prime below 2**bits (bits >= 2), ascending, in a read-only int64
    array cached per bits for the life of the process (below 2**24, 1,077,871
    primes in 8.6 MB, sieved in 33-55 ms): a sieve of Eratosthenes over the
    odd numbers, where index i stands for 2i + 1 and the 1 at index 0 becomes
    the even prime 2."""
    odd = np.ones(1 << (bits - 1), dtype=bool)
    for p in range(3, isqrt(1 << bits) + 1, 2):
        if odd[p // 2]:
            odd[p * p // 2 :: p] = False
    primes = np.flatnonzero(odd)
    primes *= 2
    primes += 1
    primes[0] = 2
    primes.flags.writeable = False
    return primes


@cache
def _lcm_table(r: int) -> np.ndarray:
    """r // gcd(x, r) at x in [0, r), read-only, so that lcm(v, r) = v * table[v % r]."""
    table = r // np.gcd(np.arange(r), r)
    table.flags.writeable = False
    return table


class LambdaSegment(NamedTuple):
    """One segment of lambda_range: consecutive n with lambda(n) and two flags.

    n and lam are int64 arrays while every n of the segment fits, else
    object arrays of Python ints; squarefree and composite are bool.
    """

    n: np.ndarray
    lam: np.ndarray
    squarefree: np.ndarray
    composite: np.ndarray


def lambda_range(
    lo: int, hi: int, *, bound: int = SUPPORTED_BOUND, odd_only: bool = False
) -> Iterator[LambdaSegment]:
    """Carmichael's lambda over [lo, hi] by a segmented sieve, ascending.

    Each segment holds up to 2**14 consecutive n, or with odd_only up to
    2**14 consecutive odd n (the even n are not sieved at all).  It takes
    out every prime up to L = min(isqrt(hi), 2**24), all in the table
    ``_primes_below(b)`` of the least b >= 2 with 2**b >= L, as 2**b is not
    prime.  The cofactor left is 1 or a prime below (L + 1)**2, so for
    every n up to hi = 2**48 + 2**25; a larger one goes to ``factorize``'s
    splitting steps (p - 1, then one Brent run and ECM), which certify its primes or raise
    CapabilityError.  They charge one work budget per call, made from hi
    and ``bound`` as ``factorize`` makes its own, so a range has one total.
    The gathered powers and sparse primes are built once per call, in int64
    (the powers up to 2**63 - 1) and, for a hi past that, in Python ints.

    CPU time per n on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4): about
    0.08-0.09 us to 10**6 and near 10**7, 0.11-0.14 us for the 2**20 n
    below 10**8, and 0.34-0.36 us in a window of 2**14 n at 2**40, with
    no rho (its table, the primes below 2**20, takes 3 ms once).
    odd_only halves the cost of a range: [3, 10**6] took 39-45 ms against 78-83 ms.

    Refuses with DomainError a range without 1 <= lo <= hi or a bound below
    1, and with CapabilityError one of more than RANGE_BOUND = 10**9 n, all
    before any work.  At [1, 10**9] that took 2.4 min of CPU (1.2 min with
    odd_only), and 10**9 n near 2**40 would take about 6 min.
    """
    words = "lambda_range requires 1 <= lo <= hi, got [{}, {}]"
    lo, hi = _gate(words, 1, lo, hi)
    _gate(words, lo, lo, hi)  # and hi >= lo
    bound = _gate(_BOUND, 1, bound)
    _check_range(lo, hi)
    limit = min(isqrt(hi), 1 << 24)
    primes = _primes_below(max(2, (limit - 1).bit_length()))
    primes = primes[: np.searchsorted(primes, limit, side="right")]
    split = np.searchsorted(primes, _STRIDE_LIMIT, side="right")
    # (q, p, lambda(q)) for each power q = p^e <= hi of a dense prime p; 2 divides no odd n
    powers = [
        (p**e, p, max(_prime_power_orders(p, e), default=1))
        for p in primes[:split].tolist()
        if not (odd_only and p == 2)
        for e in range(1, hi.bit_length())
        if p**e <= hi
    ]
    strided = [power for power in powers if power[0] <= _STRIDE_LIMIT]
    gathered = [power for power in powers if power[0] > _STRIDE_LIMIT]
    sparse, step = primes[split:], 2 if odd_only else 1
    # the gathered powers and the sparse primes in each dtype a segment's n can take
    fits = [power for power in gathered if power[0] <= _INT64_MAX]
    tables = {np.dtype(np.int64): (np.array(fits, dtype=np.int64).reshape(-1, 3).T, sparse)}
    if hi > _INT64_MAX:
        gathered = np.array(gathered, dtype=object).reshape(-1, 3).T
        tables[np.dtype(object)] = gathered, sparse.astype(object)
    width = step * _SEGMENT  # the span of n one segment covers
    budget = _Budget(hi, bound)
    return (
        _lambda_segment(range(a, min(a + width, hi + 1), step), strided, tables, limit, budget)
        for a in range(lo | 1 if odd_only else lo, hi + 1, width)
    )


def _check_range(lo: int, hi: int) -> None:
    """Refuse with CapabilityError a range [lo, hi] of more than RANGE_BOUND n."""
    if hi - lo + 1 > RANGE_BOUND:
        raise CapabilityError(
            f"[{_shown(lo)}, {_shown(hi)}] holds {_shown(hi - lo + 1)} n, "
            f"above the range bound {RANGE_BOUND}"
        )


def _first_multiple(a: int, q, step: int):
    """The index in a, a + step, a + 2 * step, ... of the first multiple of q,
    for step 1, or step 2 and odd q; q may be an array.

    With f = -a mod q, that index is f at step 1.  At step 2 it is f / 2
    for even f and (f + q) / 2 for odd f, written so that no term exceeds
    q: an int64 q cannot overflow.
    """
    f = -a % q
    return f if step == 1 else f // 2 + f % 2 * (q // 2 + 1)


def _runs(a: int, q: np.ndarray, step: int, size: int) -> tuple[np.ndarray, ...]:
    """Which q have a multiple in the segment, and the first index and count of those (int64)."""
    first = _first_multiple(a, q, step)
    counts = (size - 1 - first) // q + 1
    hit = counts > 0
    return hit, first[hit].astype(np.int64, copy=False), counts[hit].astype(np.int64, copy=False)


def _gathered_multiples(
    span: range, gathered: np.ndarray, sparse: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Every multiple in span of each gathered power q = p^e, with p and
    lambda(q), and how many are multiples of a sparse p itself (they come
    first).  A dense power above _STRIDE_LIMIT or a sparse prime can have
    many multiples: their indices come from one ``repeat`` and ``cumsum``.
    A sparse p^e with e >= 2 has at most one, and is tried only if p^(e-1)
    hit, which keeps a window at 2**48 from trying every p^2.
    """
    a, step, size, largest = span.start, span.step, len(span), span[-1]
    hit, first, counts = _runs(a, sparse, step, size)
    dense_hit, dense_first, dense_counts = _runs(a, gathered[0], step, size)
    p, (q, dense_p, dense_orders) = sparse[hit], gathered[:, dense_hit]
    first, counts = np.concatenate((first, dense_first)), np.concatenate((counts, dense_counts))
    # a run of one multiple needs no stride, and that of a q past 2**63 would not fit
    stride = np.minimum(np.concatenate((p, q)), size).astype(np.int64, copy=False)
    steps = np.repeat(stride, counts)
    last = first + (counts - 1) * stride
    steps[np.cumsum(counts[:-1])] = first[1:] - last[:-1]
    steps[:1] = first[:1]
    indices = [np.cumsum(steps)]
    primes = [np.repeat(np.concatenate((p, dense_p)), counts)]
    orders = [np.repeat(np.concatenate((p - 1, dense_orders)), counts)]
    prime_multiples = int(counts[: len(p)].sum())
    p = p[p <= largest // p]
    q = p * p
    while len(p):
        first = _first_multiple(a, q, step)
        hit = first < size
        p, q = p[hit], q[hit]
        indices.append(first[hit].astype(np.int64, copy=False))
        primes.append(p)
        orders.append(q - q // p)
        more = q <= largest // p
        p = p[more]
        q = q[more] * p
    return np.concatenate(indices), np.concatenate(primes), np.concatenate(orders), prime_multiples


def _lambda_segment(
    span: range,
    strided: list[tuple[int, int, int]],
    tables: dict[np.dtype, tuple[np.ndarray, np.ndarray]],
    limit: int,
    budget: _Budget,
) -> LambdaSegment:
    """lambda(n) and the flags for the n of span (consecutive, or
    consecutive odd at step 2, where 2 is left out and each odd q = p^e
    steps by q in the index too), sieved by every prime up to limit.
    The n are int64 while the largest fits, else Python ints, and
    ``tables`` holds the gathered powers and sparse primes in each dtype.

    The dense powers up to _STRIDE_LIMIT stride: 30 odd primes, 9, 27, 81,
    25, 125, 49 and 121, and 2, 4, ..., 128 at step 1.  Every other power
    is gathered (``_gathered_multiples``) and applied by ``multiply.at``
    and ``lcm.at``, which apply each of two powers that hit one n.

    The first pass takes out every prime power and checks that their
    product times the cofactor gives back n.  The cofactor has no prime
    factor up to limit, so below (limit + 1)**2 it is 1 or a prime r; a
    larger one is factored.  The second pass starts lam at lambda of the
    cofactor (r - 1 for a prime) and folds in lambda(q) for each q | n, in
    any order, keeping lam the lcm of what it has folded.  A strided fold
    is lam * table[lam mod lambda(q)] (``_lcm_table``), which multiplies
    only where lambda(q) does not divide lam, since r - 1 can hold any part
    of p; the remainder is x - x // m * m, as numpy divides by a scalar
    without a hardware division.  Over [3, 10**6] the strided folds take
    about 35-40% of the time, ``lcm.at`` 25%, the gathered index 11-13%,
    the strided first pass 10% and the check 7%; below 10**8, ``lcm.at``
    takes 37% and the strided folds 28%.

    The composite flag is read from lambda itself: for n >= 2, lambda(n)
    divides phi(n) <= n - 1, with equality exactly when n is prime.
    """
    a, size, largest = span.start, len(span), span[-1]
    if largest <= _INT64_MAX:
        n = np.arange(a, span.stop, span.step, dtype=np.int64)
    else:
        n = np.array(span, dtype=object)
    index, primes, orders, prime_multiples = _gathered_multiples(span, *tables[n.dtype])
    firsts = [_first_multiple(a, q, span.step) for q, _, _ in strided]
    taken = np.ones(size, dtype=n.dtype)  # product of the prime powers taken out
    squarefree = np.ones(size, dtype=bool)
    for (q, p, _), first in zip(strided, firsts):
        view = taken[first::q]
        view *= p
        if q == p * p:
            squarefree[first::q] = False
    np.multiply.at(taken, index, primes)
    squarefree[index[prime_multiples:]] = False
    rem = n // taken
    if not np.array_equal(taken * rem, n):
        raise ArithmeticError(f"sieve factors do not multiply back on [{_shown(a)}, {_shown(largest)}]")
    lam = np.maximum(rem - 1, 1)
    # The cofactor is 1, a prime, or (from (limit + 1)**2 on) a number to factor.
    for i in np.flatnonzero(rem > limit * (limit + 2)):
        c = int(rem[i])
        f = Factorization._from_sorted(c, tuple(sorted(_cofactor_primes(c, int(n[i]), budget).items())))
        lam[i] = carmichael_lambda(f)
        squarefree[i] &= f.is_squarefree
    for (q, _, order), first in zip(strided, firsts):
        if order > 1:
            x = lam[first::q].copy()  # numpy divides a contiguous array 3 times as fast
            x *= _lcm_table(order)[(x - x // order * order).astype(np.intp, copy=False)]
            lam[first::q] = x
    np.lcm.at(lam, index, orders)
    return LambdaSegment(n, lam, squarefree, (n > 1) & (lam != n - 1))
