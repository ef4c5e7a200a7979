"""Structure of the unit group of Z_n and k-unit counting.

A k-unit modulo n is a unit a with a^k = 1.  The closed forms here rest on
two facts: the k-units of a cyclic group of order r number gcd(k, r), and
the count is multiplicative over a direct product of cyclic factors.  The
group U(Z_n) itself decomposes per prime power: trivial for 2^0 and 2^1,
C_2 for 4, C_2 x C_{2^(a-2)} for 2^a with a >= 3, and cyclic of order
phi(p^a) for odd p.

The exponent of U(Z_n), the lcm of its cyclic factor orders, is
Carmichael's lambda(n); every unit is a k-unit exactly when lambda(n)
divides k.  ``lambda_range`` sieves lambda over a whole range, segment by
segment, for the range tooling in ``classify``.

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
    _TRIAL_LIMIT,
    SUPPORTED_BOUND,
    Factorization,
    _as_factorization,
    _cofactor_primes,
    _small_primes,
    factorize,
)
from .errors import CapabilityError, DomainError

__all__ = [
    "ENUMERATION_BOUND",
    "CyclicDecomposition",
    "KUnitStats",
    "LambdaSegment",
    "unit_group_structure",
    "euler_phi",
    "carmichael_lambda",
    "lambda_range",
    "du_k_product",
    "k_unit_stats",
    "enumerate_k_units",
]

ENUMERATION_BOUND = 10**7
_INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class CyclicDecomposition:
    """An abelian unit group given as an ordered product of cyclic factors."""

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "orders", tuple(self.orders))
        if any(r < 1 for r in self.orders):
            raise DomainError("cyclic factor orders must be >= 1")

    @classmethod
    def _from_valid(cls, orders: tuple[int, ...]) -> CyclicDecomposition:
        """An instance from a tuple of orders already known to be >= 1,
        without the check of ``__post_init__``."""
        group = object.__new__(cls)
        object.__setattr__(group, "orders", orders)
        return group

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


def unit_group_structure(
    n: Factorization | int, *, bound: int = SUPPORTED_BOUND
) -> CyclicDecomposition:
    """Cyclic decomposition of U(Z_n), prime power by prime power.

    Factors appear in ascending order of the underlying prime, with the
    2-power contributing [2, 2^(a-2)] in that order; n = 1 and n = 2 give
    the empty (trivial) decomposition.  Accepts an int or a Factorization.
    """
    f = _as_factorization(n, bound=bound)
    orders: tuple[int, ...] = ()
    for p, e in f.factors:
        orders += _prime_power_orders(p, e)
    # each order is p - 1 >= 1 times a prime power, or a power of 2
    return CyclicDecomposition._from_valid(orders)


def euler_phi(f: Factorization | int) -> int:
    """Euler's phi(n), the order of U(Z_n): the product of its cyclic factor
    orders.  Accepts an int or a Factorization."""
    return unit_group_structure(f).group_order


def carmichael_lambda(n: Factorization | int, *, bound: int = SUPPORTED_BOUND) -> int:
    """Carmichael's lambda(n), the exponent of U(Z_n): the lcm of its cyclic factor orders."""
    return lcm(*unit_group_structure(n, bound=bound).orders)


def du_k_product(k: int, decomposition: CyclicDecomposition) -> int:
    """Number of k-units in a product of cyclic groups: prod of gcd(k, r_i)."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    return prod(gcd(k, r) for r in decomposition.orders)


def k_unit_stats(n: int, k: int, *, bound: int = SUPPORTED_BOUND) -> KUnitStats:
    """du, pdu and rdu for (n, k) from the cyclic decomposition of U(Z_n).

    du is the product of gcd(k, r_i) over the cyclic factor orders r_i,
    and phi(n) is the order of the group.
    """
    if n < 1 or k < 1:
        raise DomainError(f"k_unit_stats requires n >= 1 and k >= 1, got n={n}, k={k}")
    group = unit_group_structure(n, bound=bound)
    du = du_k_product(k, group)
    phi = group.group_order
    return KUnitStats(n=n, k=k, du=du, pdu=Fraction(du, phi), rdu=phi // du)


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
    """``enumerate_k_units`` as an int64 array.

    The k-units of a cyclic factor <g> of order r are its subgroup of order
    d = gcd(k, r), generated by h = g^(r/d).  Each h, lifted by the CRT to
    h mod p^e and 1 mod n/p^e, grows the array built so far into d cosets,
    by doubling in place; one in-place sort ends it.
    """
    if n < 1 or k < 1:
        raise DomainError(f"enumerate_k_units requires n >= 1 and k >= 1, got n={n}, k={k}")
    if n > bound:
        raise CapabilityError(f"n = {n} exceeds the enumeration bound {bound}")
    if (n - 1) ** 2 > _INT64_MAX:
        raise CapabilityError(
            f"n = {n} is too large for the int64 residue scan: (n - 1)^2 > 2^63 - 1"
        )
    f = factorize(n)
    du = du_k_product(k, unit_group_structure(f))
    try:
        units = np.empty(du, dtype=np.int64)
    except MemoryError:
        raise CapabilityError(f"the {du} k-units modulo {n} do not fit in memory") from None
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
                view = units[size : size + step]
                np.multiply(units[:step], pow(h, size // coset, n), out=view)
                np.remainder(view, n, out=view)
                size += step
    units.sort()
    return units


# 10, 100, ..., 10^18: a non-negative int64 v has 1 + #{p <= v} digits.
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


@cache
def _digit_quads() -> np.ndarray:
    """The four ASCII digits of ``"%04d" % i``, read as one native uint32, at i.

    The digits of i are its index in a 10x10x10x10 array.  Built on first
    use, so that only ``units`` pays for it.
    """
    digits = np.moveaxis(np.indices((10, 10, 10, 10), dtype=np.uint8), 0, -1) + ord("0")
    return np.ascontiguousarray(digits).reshape(10000, 4).view(np.uint32).ravel()


def _decimal_text(values: np.ndarray, quote: str, sep: str) -> str:
    """``sep.join(quote + str(v) + quote for v in values)`` for ascending
    non-negative int64 values, built in numpy without a Python str per
    value.

    Each value becomes the row sep, quote, digits, quote.  The values with
    the same digit count form one run, bounded by where each power of ten
    falls among the ascending values (18 searches, not one per value), and
    filled as a (rows, width) uint8 block of the output: the fixed columns
    from one template row, the digits four at a time from
    ``divmod(·, 10000)`` and ``_digit_quads``.  The leading sep is cut off.
    """
    if not len(values):
        return ""
    if values[0] < 0 or (values[1:] < values[:-1]).any():
        raise ValueError("_decimal_text takes ascending non-negative values")
    head, tail = (sep + quote).encode("ascii"), quote.encode("ascii")
    cuts = [0, *np.searchsorted(values, _POWERS_OF_TEN).tolist(), len(values)]
    runs = [
        (a, b, len(head) + d + len(tail))
        for d, (a, b) in enumerate(zip(cuts, cuts[1:]), 1)
        if a < b
    ]
    out = np.empty(sum((b - a) * width for a, b, width in runs), dtype=np.uint8)
    quad_text = _digit_quads()
    at = 0
    for a, b, width in runs:
        d = width - len(head) - len(tail)
        rows = out[at : at + (b - a) * width].reshape(b - a, width)
        at += rows.size
        rows[:] = np.frombuffer(head + b"0" * d + tail, dtype=np.uint8)
        quads = np.empty((b - a, -(-d // 4)), dtype=np.uint32)
        rest = values[a:b]
        for j in reversed(range(quads.shape[1])):
            rest, low = np.divmod(rest, 10000)
            quads[:, j] = quad_text[low]
        rows[:, len(head) : len(head) + d] = quads.view(np.uint8)[:, -d:]
    return out[len(sep) :].tobytes().decode("ascii")


def enumerate_k_units(n: int, k: int, *, bound: int = ENUMERATION_BOUND) -> list[int]:
    """The k-units modulo n, ascending: U_k(n), the product over the cyclic
    factors of U(Z_n) of their subgroups of order gcd(k, r).

    n = 1 returns [0], the single trivial unit of Z_1.  Refuses with
    CapabilityError n > bound; n with (n - 1)^2 > 2**63 - 1 (n > 3037000500),
    as a product of two residues must fit int64; and du values that cannot
    be allocated.
    """
    return _k_units(n, k, bound).tolist()


# Values per segment of lambda_range; its memory is O(segment), not O(hi).
_SEGMENT = 1 << 14
# The sieve takes out every prime up to min(isqrt(hi), _SIEVE_LIMIT).
_SIEVE_LIMIT = 1 << 24


@cache
def _prime_table() -> np.ndarray:
    """Every prime below 2**24, ascending, as int64: 1,077,871 primes in
    8.6 MB, kept for the life of the process.

    A sieve of Eratosthenes over the odd numbers, crossed off by
    ``_small_primes()``; index i stands for 2i + 1, and the 1 at index 0
    becomes the even prime 2.
    """
    odd = np.ones(_SIEVE_LIMIT // 2, dtype=bool)
    for p in _small_primes()[1:]:
        if p * p >= _SIEVE_LIMIT:
            break
        odd[p * p // 2 :: p] = False
    primes = np.flatnonzero(odd)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


@cache
def _lcm_table(r: int) -> np.ndarray:
    """r // gcd(x, r) at x in [0, r), so that lcm(v, r) = v * table[v % r]."""
    return r // np.gcd(np.arange(r), r)


class LambdaSegment(NamedTuple):
    """One segment of lambda_range: consecutive n with lambda(n) and two flags.

    n and lam are int64 arrays while every n of the segment fits, else
    object arrays of Python ints; squarefree and composite are bool.
    """

    n: np.ndarray
    lam: np.ndarray
    squarefree: np.ndarray
    composite: np.ndarray


def lambda_range(lo: int, hi: int, *, bound: int = SUPPORTED_BOUND) -> Iterator[LambdaSegment]:
    """Carmichael's lambda over [lo, hi] by a segmented sieve, ascending.

    Each segment takes out every prime up to L = min(isqrt(hi), 2**24)
    with its multiplicity and checks that the prime powers taken out
    times the cofactor left give back n.  The cofactor has no prime
    factor up to L, so below (L + 1)**2 it is 1 or a prime: that holds
    for every n while L = isqrt(hi), up to hi = 2**48 + 2**25.  A larger
    cofactor goes to ``factorize``'s step after trial division, which
    certifies its primes (Brent's rho) or raises CapabilityError.  The
    primes above 2**16 come from ``_prime_table``, built on first use.

    CPU time per n on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4): about
    0.10 us over [3, 10**6], 0.11-0.12 us over [9 * 10**6, 10**7], and
    0.13-0.14 us over the 2**20 n below 10**8; 0.35-0.5 us in a window of
    2**14 n at 2**40, with no rho, after 60 ms to build the prime table.
    """
    if lo < 1 or hi < lo:
        raise DomainError(f"lambda_range requires 1 <= lo <= hi, got [{lo}, {hi}]")
    limit = min(isqrt(hi), _SIEVE_LIMIT)
    # only a range past 2**32 needs the table
    if limit < _TRIAL_LIMIT:
        primes = np.array(_small_primes(), dtype=np.int64)
    else:
        primes = _prime_table()
    primes = primes[: np.searchsorted(primes, limit, side="right")]
    split = np.searchsorted(primes, isqrt(_SEGMENT), side="right")
    # each dense prime with lambda(p^e) for every p^e <= hi
    powers = range(1, hi.bit_length())
    dense = [
        (p, [max(_prime_power_orders(p, e), default=1) for e in powers if p**e <= hi])
        for p in primes[:split].tolist()
    ]
    sparse = primes[split:]
    return (
        _lambda_segment(a, min(a + _SEGMENT, hi + 1), dense, sparse, limit, bound)
        for a in range(lo, hi + 1, _SEGMENT)
    )


def _lambda_segment(
    a: int,
    b: int,
    dense: list[tuple[int, list[int]]],
    sparse: np.ndarray,
    limit: int,
    bound: int,
) -> LambdaSegment:
    """lambda(n) and the flags for n in [a, b), sieved by the dense primes
    (p * p <= _SEGMENT) and the sparse ones (up to limit).

    A dense prime p walks its powers p^e in strides.  At e = 1, lcm(lam,
    p - 1) is lam * table[lam % (p - 1)] (``_lcm_table``).  From e = 2 on
    it is one multiply: the dense primes run in ascending order, and no
    smaller prime p' has p | p' - 1, so lam holds exactly the p-part of
    lambda(p^(e-1)) and lcm(lam, lambda(p^e)) = lam * lambda(p^e) /
    lambda(p^(e-1)).

    The sparse primes have p^2 > _SEGMENT, so each p^e (e >= 2) has at
    most one multiple here.  They are gathered one level e at a time: the
    index of every multiple at once, then ``multiply.at`` and ``lcm.at``,
    which apply each of two primes that hit the same n (131 * 137), where
    a fancy assignment would keep one.  These keep an lcm: every level-1
    step runs before any level-2 step, so at 131^2 * 263 (262 = 2 * 131)
    lam already holds a 131.

    Of the 0.10 us per n over [3, 10**6] (see ``lambda_range``), the dense
    primes take about 45%, the sparse ones 25% and the closing lcm with
    the prime cofactor's p - 1 the other 30%.

    The composite flag is read from lambda itself: for n >= 2, lambda(n)
    divides phi(n) <= n - 1, with equality exactly when n is prime.
    """
    size = b - a
    if b - 1 <= _INT64_MAX:
        n = np.arange(a, b, dtype=np.int64)
    else:
        n = np.array(range(a, b), dtype=object)
    taken = np.ones(size, dtype=n.dtype)  # product of the prime powers taken out
    lam = np.ones(size, dtype=n.dtype)
    squarefree = np.ones(size, dtype=bool)
    for p, orders in dense:
        q = p
        for e, order in enumerate(orders, 1):
            if q >= b or (first := -a % q) >= size:
                break
            view = taken[first::q]
            view *= p
            view = lam[first::q]
            if e == 1:
                if order > 1:
                    view *= _lcm_table(order)[(view % order).astype(np.intp, copy=False)]
            elif order > orders[e - 2]:
                view *= order // orders[e - 2]
            if e == 2:
                squarefree[first::q] = False
            q *= p
    p = sparse.astype(n.dtype, copy=False)
    q, e = p, 1
    while len(p):
        first = -a % q
        counts = ((size - 1 - first) // q + 1).astype(np.int64, copy=False)
        hit = counts > 0
        p, q, counts = p[hit], q[hit], counts[hit]
        first = first[hit].astype(np.int64, copy=False)
        if e == 1:
            # each prime's run of multiples: first, then steps of p
            stride = p.astype(np.int64, copy=False)
            steps = np.repeat(stride, counts)
            last = first + (counts - 1) * stride
            steps[np.cumsum(counts[:-1])] = first[1:] - last[:-1]
            steps[:1] = first[:1]
            index = np.cumsum(steps)
        else:
            index = first
        np.multiply.at(taken, index, np.repeat(p, counts))
        np.lcm.at(lam, index, np.repeat(q - q // p, counts))
        if e > 1:
            squarefree[index] = False
        more = q <= (b - 1) // p
        p = p[more]
        q = q[more] * p
        e += 1
    rem = n // taken
    if not np.array_equal(taken * rem, n):
        raise ArithmeticError(f"sieve factors do not multiply back on [{a}, {b})")
    # The cofactor is 1, a prime, or (from (limit + 1)**2 on) a number to factor.
    for i in np.flatnonzero(rem > limit * (limit + 2)):
        c = int(rem[i])
        f = Factorization(c, tuple(sorted(_cofactor_primes(c, c, bound).items())))
        lam[i] = lcm(int(lam[i]), carmichael_lambda(f))
        squarefree[i] &= f.is_squarefree
        rem[i] = 1
    np.lcm(lam, rem - 1, out=lam, where=rem > 1)
    return LambdaSegment(n, lam, squarefree, (n > 1) & (lam != n - 1))
