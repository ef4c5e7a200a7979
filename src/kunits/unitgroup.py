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

``enumerate_k_units`` is the brute-force oracle every closed form is
tested against: a residue scan in bounded memory that uses no
factorization.
"""

from __future__ import annotations

import mmap
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain
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
)
from .errors import CapabilityError, DomainError

__all__ = [
    "ENUMERATION_BOUND",
    "CyclicDecomposition",
    "KUnitStats",
    "LambdaSegment",
    "unit_group_structure",
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


def _prime_power_lambda(p: int, e: int) -> int:
    """The exponent lambda(p^e) of U(Z_{p^e}): its largest cyclic factor order."""
    return max(_prime_power_orders(p, e), default=1)


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


def carmichael_lambda(n: Factorization | int, *, bound: int = SUPPORTED_BOUND) -> int:
    """Carmichael's lambda(n), the exponent of U(Z_n): the lcm of lambda(p^e)."""
    f = _as_factorization(n, bound=bound)
    return lcm(*(_prime_power_lambda(p, e) for p, e in f.factors))


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


# Residues per step of the scan; its memory is O(chunk), not O(n).
_CHUNK = 1 << 16
_WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)


def _scan_k_units(n: int, k: int) -> Iterator[np.ndarray]:
    """Vectorized residue scan: a^k mod n for a in [0, n), chunk by chunk.

    Yields, per chunk, the ascending int64 array of its residues with
    a^k = 1.  Residues sharing a wheel prime with n are skipped (they are
    not units, so a^k != 1); the rest are the spokes coprime to the wheel
    w, tiled by multiples of w, which divides n.  a^k is taken left to
    right over the bits of k; 0, scanned when w = 1, gives 0, which is
    1 mod n only for n = 1.  int64 holds every product below n^2, which
    the caller has checked.
    """
    wheel = [p for p in _WHEEL_PRIMES if n % p == 0]
    w = prod(wheel)
    spokes = np.arange(w, dtype=np.int64)
    for p in wheel:
        spokes = spokes[spokes % p != 0]
    turns = min(max(1, _CHUNK // len(spokes)), n // w)
    block = (np.arange(0, turns * w, w, dtype=np.int64)[:, None] + spokes).ravel()
    bits = bin(k)[3:]
    for start in range(0, n, turns * w):
        a = block[: (n - start) // w * len(spokes)] + start
        acc = a.copy()
        for bit in bits:
            acc *= acc
            acc %= n
            if bit == "1":
                acc *= a
                acc %= n
        yield a[acc == 1 % n]


def _k_unit_chunks(n: int, k: int, bound: int) -> Iterator[np.ndarray]:
    """The k-units modulo n, ascending, as int64 chunks of the scan.

    Checks the arguments before it returns, so a refusal comes before any
    chunk; held chunks cost 8 bytes a k-unit.
    """
    if n < 1 or k < 1:
        raise DomainError(f"enumerate_k_units requires n >= 1 and k >= 1, got n={n}, k={k}")
    if n > bound:
        raise CapabilityError(f"n = {n} exceeds the enumeration bound {bound}")
    if (n - 1) ** 2 > _INT64_MAX:
        raise CapabilityError(
            f"n = {n} is too large for the int64 residue scan: (n - 1)^2 > 2^63 - 1"
        )
    return _scan_k_units(n, k)


def _gather(chunks: Iterator[np.ndarray], capacity: int) -> np.ndarray:
    """The int64 chunks end to end in one array, backed by an anonymous
    memory map of ``capacity`` values (and copied out of it when the
    chunks hold more).

    Chunks kept in a list lie on the allocator's heap among the scan's
    freed temporaries, and whether their memory goes back to the system
    once they are freed depends on what else the process allocated in
    the meantime.  The map is unmapped when the last view of it is freed.
    """
    held = np.frombuffer(mmap.mmap(-1, 8 * max(capacity, 1)), dtype=np.int64)
    end = 0
    overflow = []
    for chunk in chunks:
        take = min(len(chunk), capacity - end)
        held[end : end + take] = chunk[:take]
        end += take
        if take < len(chunk):
            overflow.append(chunk[take:])
    return np.concatenate([held[:end], *overflow]) if overflow else held[:end]


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
    """``sep.join(quote + str(v) + quote for v in values)`` for non-negative
    int64 values, built in numpy without a Python str per value.

    Each value becomes the row sep, quote, digits, quote.  Consecutive
    values with the same digit count form one run, filled as a (rows,
    width) uint8 block of the output: the fixed columns from one template
    row, the digits four at a time from ``divmod(·, 10000)`` and
    ``_digit_quads``.  Ascending values make at most 19 runs.  The
    leading sep is cut off.
    """
    if not len(values):
        return ""
    if values.min() < 0:
        raise ValueError("_decimal_text takes non-negative values")
    head, tail = (sep + quote).encode("ascii"), quote.encode("ascii")
    digits = np.searchsorted(_POWERS_OF_TEN, values, side="right") + 1
    bounds = [0, *(np.flatnonzero(np.diff(digits)) + 1).tolist(), len(values)]
    runs = [(a, b, len(head) + int(digits[a]) + len(tail)) for a, b in zip(bounds, bounds[1:])]
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
    """Brute-force list of the k-units modulo n, ascending.

    Scans the residues and keeps those with a^k = 1 (such a is a unit
    automatically: a * a^(k-1) = 1); n = 1 returns [0], the single trivial
    unit of Z_1.  Independent of the closed forms above, which makes it
    the oracle they are tested against.  The vectorized scan refuses n
    with (n - 1)^2 > 2**63 - 1 (n > 3037000500) with CapabilityError.
    """
    return list(chain.from_iterable(c.tolist() for c in _k_unit_chunks(n, k, bound)))


# Values per segment of lambda_range; its memory is O(segment), not O(hi).
_SEGMENT = 1 << 14


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

    Each segment takes out the primes up to min(isqrt(hi), 2**16) with
    their multiplicities and checks that the prime powers taken out times
    the cofactor left give back n.  A cofactor below 2**32 is then 1 or a
    prime; a larger one goes to ``factorize``'s step after trial division,
    which certifies its primes or raises CapabilityError.
    """
    if lo < 1 or hi < lo:
        raise DomainError(f"lambda_range requires 1 <= lo <= hi, got [{lo}, {hi}]")
    primes = _small_primes()
    primes = primes[: bisect_right(primes, isqrt(hi))]
    return (
        _lambda_segment(a, min(a + _SEGMENT, hi + 1), primes, bound)
        for a in range(lo, hi + 1, _SEGMENT)
    )


def _lambda_segment(a: int, b: int, primes: tuple[int, ...], bound: int) -> LambdaSegment:
    """lambda(n) and the flags for n in [a, b)."""
    size = b - a
    if b - 1 <= _INT64_MAX:
        n = np.arange(a, b, dtype=np.int64)
    else:
        n = np.array(range(a, b), dtype=object)
    taken = np.ones(size, dtype=n.dtype)  # product of the prime powers taken out
    lam = np.ones(size, dtype=n.dtype)
    squarefree = np.ones(size, dtype=bool)
    prime = np.zeros(size, dtype=bool)
    for p in primes:
        if a <= p < b:
            prime[p - a] = True
        q, e = p, 1
        while q < b and (first := -a % q) < size:
            view = taken[first::q]
            view *= p
            order = _prime_power_lambda(p, e)
            if order > 1:
                view = lam[first::q]
                np.lcm(view, order, out=view)
            if e == 2:
                squarefree[first::q] = False
            q *= p
            e += 1
    rem = n // taken
    if not np.array_equal(taken * rem, n):
        raise ArithmeticError(f"sieve factors do not multiply back on [{a}, {b})")
    # The cofactor is 1, a prime, or (from 2**32 on) a number to factor.
    for i in np.flatnonzero(rem >= _TRIAL_LIMIT * _TRIAL_LIMIT):
        c = int(rem[i])
        f = Factorization(c, tuple(sorted(_cofactor_primes(c, c, bound).items())))
        for p, e in f.factors:
            lam[i] = lcm(int(lam[i]), _prime_power_lambda(p, e))
        squarefree[i] &= f.is_squarefree
        prime[i] = f.is_prime and taken[i] == 1
        rem[i] = 1
    cofactor = rem > 1
    prime |= cofactor & (taken == 1)
    rem -= 1
    np.lcm(lam, rem, out=lam, where=cofactor)
    return LambdaSegment(n, lam, squarefree, (n > 1) & ~prime)
