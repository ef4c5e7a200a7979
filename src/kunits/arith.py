"""Exact integer primitives: primality, factorization, divisors.

Everything here is arbitrary precision and deterministic.  Factorization
is trial division below 2**16, then, on what is left, a perfect-power test,
Pollard's p - 1, one run of Brent's rho and Lenstra's elliptic-curve method
(ECM), whose curves run on a fixed schedule until the call's work budget ends
them: below 2**62 a short run goes first, from it on the curves go first and
the run after them gets the rest of the budget.  One ladder forms each
multiple of a point, one routine steps the two chains of baby steps, j = 1
and 5 mod 6, and the giant steps, one batch inversion brings them to Z = 1,
and a pair costs one product.  Every step is charged to that budget, so the
same n always takes the same path.  Primality is
Miller-Rabin on the first t prime bases, t chosen by the size of n: the
smallest t with n below psi_t, the least odd composite that passes all of
the first t (OEIS A014233).  The 13 bases 2..41 prove every verdict below
psi_13 = 3317044064679887385961981, about 3.3e24 (Sorenson & Webster), and
a composite verdict at any size, so there are no probabilistic false
positives anywhere in the toolkit; inputs the backend cannot certify raise
:class:`~kunits.errors.CapabilityError` rather than guessing.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, compress, count, repeat, takewhile
from math import gcd, isqrt, prod
from operator import index
from typing import Any, Iterator, NamedTuple

from .errors import CapabilityError, DomainError

__all__ = [
    "SUPPORTED_BOUND",
    "Factorization",
    "is_prime",
    "factorize",
    "divisors",
]

# Default gate for the primality / factorization fast paths.  Another work budget
# is chosen by factoring n with factorize(n, bound=B) and passing that on.
SUPPORTED_BOUND = 2**64 - 1

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_t (OEIS A014233): the least odd composite that is a strong probable
# prime to each of the first t bases above, so for n < psi_t those t bases
# decide primality.  The tiers: 4 bases below 3.2e9, 9 below 3.8e18, 12
# below 3.2e23 and all 13 below psi_13.
_MR_PSI = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)
# Every verdict for n below psi_13 is a proof, not a probable-prime answer;
# from psi_13 on, a composite verdict still is, and a probable prime is refused.
_CERTIFIED_LIMIT = _MR_PSI[-1]

_TRIAL_LIMIT = 1 << 16
# Modular multiplications per factoring call at most, whatever the bound: about 10 s of CPU.
_WORK_CAP = 3 << 23
# Primes per block of trial division; one gcd with the block's product
# rules out all of them.
_BLOCK = 64
# Stage 1 bound of Pollard's p - 1; stage 2 takes the primes above it below _TRIAL_LIMIT.
_PM1_B1 = 1 << 12
# Modular multiplications of the Brent run at c = 1 that goes before ECM on a cofactor below
# _RHO_FIRST, for the small primes.  It is 3 * 2**11: rounds r = 1, 2, ..., 1024 charge 3 * r
# each, 3 * (2**11 - 1) in all, and the round of 2048 does not fit.
_RHO_LEG = 3 << 11
# What that run charges when it finds nothing; ECM before the Brent run keeps this much for it.
_RHO_KEPT = _RHO_LEG - 3
# The least cofactor on which ECM goes before the Brent run.  Of the thresholds measured from 0
# (ECM first on every cofactor) to 2**64, this one charges the cofactors of point_queries'
# random n the fewest multiplications, 10% fewer than 0, and its products of two 32-bit primes
# are all past it (bench/layers.py counts each step's charge).
_RHO_FIRST = 1 << 62
# ECM's stage 2 giant step, 2 * 3 * 5 * 7 * 11: every prime above 11 is k * D +- j for one
# k and one of the 240 odd j < D / 2 prime to D.
_ECM_D = 2310
# The most values a list answer may hold: the divisors of n, and (re-exported by solver) the
# solutions of rdu_k(n) = 1.
SOLUTION_CAP = 10**6
_BOUND = "bound must be >= 1, got {}"  # the refusal of a bound below 1, wherever one is taken
_ONE = object()  # _gate's default k: one value is read
_SHOWN_CHARS = 320  # the longest repr a message writes: a 1024-bit int has at most 309 digits


def _gate(words: str, least: int | None, n: Any, k: Any = _ONE) -> Any:
    """n, or n and k, as Python ints: the one check of the library's integer parameters.  A
    Factorization reads as its n, any other value by ``operator.index``; one that does not read,
    or is below ``least`` (None: no least), raises DomainError with the values in ``words``."""
    if type(n) is int and (least is None or n >= least):
        if k is _ONE or type(k) is int and (least is None or k >= least):
            return n if k is _ONE else (n, k)
    values = (n,) if k is _ONE else (n, k)
    try:
        read = [v.n if isinstance(v, Factorization) else index(v) for v in values]
    except TypeError as exc:
        raise DomainError(f"{words.format(*map(_shown, values))}: {exc}") from None
    if least is not None and min(read) < least:
        raise DomainError(words.format(*map(_shown, read)))
    return read[0] if k is _ONE else tuple(read)


def _shown(v: Any) -> int | str:
    """v as a message names it, short and inside the int-to-str digit limit: an int past 1024
    bits by its size, any other value by its repr when that can be written in at most
    _SHOWN_CHARS characters, else by its type."""
    if isinstance(v, int):
        bits = v.bit_length()
        return v if bits <= 1024 else f"a {'negative ' * (v < 0)}{bits}-bit integer"
    try:
        text = repr(v)
    except ValueError:  # an int inside v past the digit limit
        text = ""
    return text if 0 < len(text) <= _SHOWN_CHARS else f"a {type(v).__name__}"


def _sieve(limit: int) -> bytearray:
    """Flags at 0..limit - 1, set exactly at the primes: a sieve of Eratosthenes."""
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit, p)))
    return sieve


@lru_cache(maxsize=1)
def _small_primes() -> tuple[int, ...]:
    """Primes below 2**16."""
    return tuple(i for i, flag in enumerate(_sieve(_TRIAL_LIMIT)) if flag)


@lru_cache(maxsize=1)
def _prime_blocks() -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """_small_primes() in consecutive runs of _BLOCK, as (first prime, product, primes)."""
    primes = _small_primes()
    runs = (primes[i : i + _BLOCK] for i in range(0, len(primes), _BLOCK))
    return tuple((run[0], prod(run), run) for run in runs)


def _prime_power(p: int, b1: int) -> int:
    """The largest power of the prime p <= b1 that is at most b1: the part of a stage 1
    exponent that p gives, in p - 1 and in ECM alike."""
    q = p
    while q * p <= b1:
        q *= p
    return q


class _Pm1Plan(NamedTuple):
    """The fixed tables of Pollard's p - 1, the same for every n."""

    exponents: tuple[int, ...]  # stage 1: one per block, the largest p^k <= B1 of its p <= B1
    base: int  # stage 2 starts from x^base, base the largest prime <= B1
    gaps: tuple[tuple[int, ...], ...]  # stage 2: per block, each prime above B1 less the one before
    widest: int  # the largest of the gaps
    cost: int  # modular multiplications: the stage 1 exponent bits plus the stage 2 primes


@lru_cache(maxsize=1)
def _pm1_plan() -> _Pm1Plan:
    """The p - 1 tables for B1 = _PM1_B1 and the primes below _TRIAL_LIMIT, built on first use."""
    exponents, gaps = [], []
    base = previous = 1
    for _, _, block in _prime_blocks():
        powers, run = [], []
        for p in block:
            if p <= _PM1_B1:
                powers.append(_prime_power(p, _PM1_B1))
                base = p
            else:
                run.append(p - previous)
            previous = p
        if powers:
            exponents.append(prod(powers))
        if run:
            gaps.append(tuple(run))
    cost = sum(e.bit_length() for e in exponents) + sum(map(len, gaps))
    return _Pm1Plan(tuple(exponents), base, tuple(gaps), max(map(max, gaps)), cost)


@dataclass(frozen=True)
class Factorization:
    """A positive integer with its sorted prime-power decomposition.

    ``factors`` is a tuple of ``(prime, exponent)`` pairs with strictly
    increasing primes and exponents >= 1; it is empty exactly for n = 1.
    A composite "prime" raises DomainError, and a probable prime from psi_13 on CapabilityError.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _gate("Factorization requires n >= 1, got {}", 1, self.n))
        factors, previous = [], 1
        for p, e in self.factors:
            previous = _gate("factor primes must be strictly increasing", previous + 1, p)
            factors.append((previous, _gate("factor exponents must be >= 1", 1, e)))
        object.__setattr__(self, "factors", tuple(factors))
        if any(e > self.n.bit_length() for _, e in factors):  # p^e >= 2^e > n: refused unbuilt
            raise DomainError(f"factors do not multiply back to {_shown(self.n)}")
        _check_product(self.n, self.factors)
        for p, _ in self.factors:
            if not _certified_prime(p, self.n):
                raise DomainError(f"factor {_shown(p)} of {_shown(self.n)} is not prime")

    @classmethod
    def _from_sorted(cls, n: int, factors: tuple[tuple[int, int], ...]) -> Factorization:
        """An instance from a tuple of (prime, exponent) pairs already sorted
        with exponents >= 1, without re-normalising or re-ordering them; only
        the multiply-back check of ``__post_init__`` is kept."""
        _check_product(n, factors)
        f = object.__new__(cls)
        object.__setattr__(f, "n", n)
        object.__setattr__(f, "factors", factors)
        return f

    @property
    def is_prime(self) -> bool:
        return len(self.factors) == 1 and self.factors[0][1] == 1

    @property
    def is_composite(self) -> bool:
        return self.n > 1 and not self.is_prime

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)


def _check_product(n: int, factors: tuple[tuple[int, int], ...]) -> None:
    if prod(p**e for p, e in factors) != n:
        raise DomainError(f"factors do not multiply back to {_shown(n)}")


def _nu2(k: int) -> int:
    """The exponent of 2 in k >= 1."""
    return (k & -k).bit_length() - 1


def _miller_rabin(n: int) -> bool:
    """Miller-Rabin for odd n > 41 on the first t bases, for the least t with
    n < psi_t (all 13 from psi_13 on); a True is a proof only below _CERTIFIED_LIMIT."""
    s = _nu2(n - 1)
    d = (n - 1) >> s
    for a in _MR_BASES[: bisect_right(_MR_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _certified_prime(m: int, n: int | None = None) -> bool:
    """Whether m is prime: trial division by the 13 bases, then Miller-Rabin on them.

    This is the one place a Miller-Rabin verdict becomes an answer.  Composite
    is a proof at any size, prime only below psi_13, so a probable prime from
    psi_13 on raises CapabilityError naming it (and n, when m is a factor of n).
    """
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    if not _miller_rabin(m):
        return False
    if m >= _CERTIFIED_LIMIT:
        subject = _shown(m) if n is None else f"cofactor {_shown(m)} of {_shown(n)}"
        raise CapabilityError(
            f"{subject} is a probable prime at or beyond the certified bound {_CERTIFIED_LIMIT}"
        )
    return True


def is_prime(n: int, *, bound: int = SUPPORTED_BOUND) -> bool:
    """Deterministic primality test for 0 <= n <= bound.

    Raises CapabilityError above the bound, and for a probable prime at or
    above the certified Miller-Rabin limit psi_13, instead of answering
    probabilistically; a composite is answered False at any size.
    """
    if not (type(n) is int and type(bound) is int and n >= 0 and bound >= 1):
        n, bound = _gate("primality is defined for n >= 0, got {}", 0, n), _gate(_BOUND, 1, bound)
    if n > bound:
        raise CapabilityError(
            f"cannot certify primality of {_shown(n)}: exceeds the supported bound {_shown(bound)}"
        )
    return _certified_prime(n)


class _Budget:
    """The work limit of one call of factorize or lambda_range, charged by every cofactor it
    splits: ``limit`` and ``used``, in modular multiplications.  A composite m <= bound has
    a prime factor p <= sqrt(bound), which rho alone finds in about sqrt(p) <= bound^(1/4)
    steps of 1.5 multiplications; p - 1 and ECM often find it in fewer.  A call whose
    cofactors may pass the bound gets 16 times that rho figure, 24 * bound^(1/4), and no
    call more than _WORK_CAP.  ECM's last B1 runs until the budget ends it: at the cap, after
    p - 1 and the first 140 curves, 42 curves at B1 = 11,000, whether a Brent run of
    _RHO_LEG went before them or _RHO_KEPT is left for one after them.  Every cofactor of
    the call charges the same budget, so what one split spends the next cannot.  Every
    factoring refusal is built here.
    """

    def __init__(self, top: int, bound: int):
        """The budget of a call whose cofactors are at most top."""
        self.used, self.limit, self.stop = 0, _WORK_CAP, "the limit is the cap per call"
        if top > bound and 24 * isqrt(isqrt(bound)) < _WORK_CAP:
            self.limit = 24 * isqrt(isqrt(bound))
            self.stop = f"the supported factorization bound is {_shown(bound)}"

    def take(self, cost: int, keep: int = 0) -> bool:
        """Charge cost if what is left covers it and keep more, and say whether it did."""
        if self.used + cost + keep > self.limit:
            return False
        self.used += cost
        return True

    def refusal(self, m: int, n: int) -> CapabilityError:
        """The refusal of the composite cofactor m of n, which this budget did not split."""
        return CapabilityError(
            f"cannot split the composite cofactor {_shown(m)} of {_shown(n)} after {self.used} of "
            f"{self.limit} modular multiplications; {self.stop}",
            limit=self.limit,
            used=self.used,
        )


def _brent_cycle(n: int, budget: _Budget, cap: int) -> int:
    """One run of Brent's cycle finder on x -> x^2 + 1 mod n, charging the budget at most cap:
    a gcd, or 1 when the budget or the cap runs out.

    A step that only advances y costs one modular multiplication, and a
    batched step two, y and the product of the x - y.  Each round's run
    of r steps and each batch of up to 128 is charged before it is taken,
    so neither the budget nor the cap is ever overrun.
    """
    end = min(budget.limit, budget.used + cap)

    def take(cost: int) -> bool:  # budget.take, inside this run's cap
        return budget.used + cost <= end and budget.take(cost)

    y, r, q = 2, 1, 1
    g = 1
    x = ys = y
    while g == 1:
        if not take(r):
            return 1
        x = y
        for _ in range(r):
            y = (y * y + 1) % n
        k = 0
        while k < r and g == 1:
            ys = y
            steps = min(128, r - k)
            if not take(2 * steps):
                return 1
            for _ in range(steps):
                y = (y * y + 1) % n
                q = q * (x - y) % n
            g = gcd(q, n)
            k += 128
        r <<= 1
    if g == n:
        g = 1
        y = ys
        while g == 1 and take(1):
            y = (y * y + 1) % n
            g = gcd(x - y, n)
    return g


def _pm1(n: int) -> int | None:
    """A nontrivial divisor of the odd composite n by Pollard's p - 1 on base 2,
    or None.

    Stage 1 raises x to each block's exponent of ``_pm1_plan()`` and takes
    gcd(x - 1, n) after each.  Stage 2 (Montgomery's prime-gap continuation)
    steps y = x^q from prime to prime q above B1 by one multiplication with a
    table of x^d for the even gaps d, and takes the gcd of the product of the
    y - 1 after each block.  So it finds a prime p | n whose p - 1 is made of
    prime powers <= B1 and at most one prime between B1 and 2**16, unless
    every prime of n is found at once: a gcd of n gives None, as does the
    end of the tables.
    """
    plan = _pm1_plan()
    x = 2
    for e in plan.exponents:
        x = pow(x, e, n)
        g = gcd(x - 1, n)
        if g > 1:
            return g if g < n else None
    square = x * x % n
    table = [1] * (plan.widest + 1)  # x^d mod n at each even d; no gap is odd
    for d in range(2, plan.widest + 1, 2):
        table[d] = table[d - 2] * square % n
    y = pow(x, plan.base, n)
    acc = 1
    for gaps in plan.gaps:
        for d in gaps:
            y = y * table[d] % n
            acc = acc * (y - 1) % n
        g = gcd(acc, n)
        if g > 1:
            return g if g < n else None
    return None


class _EcmPlan(NamedTuple):
    """The fixed tables of one tier of ECM's schedule, the same for every n and curve."""

    scalar: int  # stage 1: the product of the prime powers <= B1
    kept: bytes  # per j = 1, 5, 7, 11, ..., 1157, the j = +-1 mod 6 ascending, the two baby
    # chains' points interleaved: 1 where j < D / 2 is prime to D, the 240 baby steps stage 2 tests
    first: int  # stage 2 starts at the giant step first * D
    steps: tuple[bytes, ...]  # per giant step k from first on: the baby steps j, by their index
    # among the odd j < D / 2 prime to D, with k * D + j or k * D - j a prime in (B1, B2]
    cost: int  # modular multiplications of one curve


@lru_cache(maxsize=None)
def _ecm_plan(b1: int) -> _EcmPlan:
    """The ECM tables for B1 = b1 and B2 = 100 * b1, built on first use.

    A curve's cost counts 11 multiplications per bit of each ladder's scalar (stage 1's and
    the two that reach stage 2's first giant steps), 6 per baby and per giant step, and 3
    per pair (k, j) tested: never fewer than the curve does.  Of the 3,462 charged for the
    577 odd j, the two baby chains take 2,331, with the ladder to 5Q and 6Q; the batch
    inversion takes one inverse (counted as one) and 4 per Z of the 240 baby and the giant
    steps (3 for Montgomery's trick, 1 to normalise an X); and a pair takes 1 of its 3.  That
    leaves 7,943, 27,580 and 135,674 at the three B1.
    """
    b2, half = 100 * b1, _ECM_D // 2
    flags = _sieve(b2 + 1)
    chains = [j for m in range(1, half, 6) for j in (m, m + 4)]
    kept = bytes(j < half and gcd(j, _ECM_D) == 1 for j in chains)
    index = {j: i for i, j in enumerate(compress(chains, kept))}
    width = len(index)
    marks = bytearray(width * (b2 // _ECM_D + 2))  # marks[width * k + i] for k * D +- (j of index i)
    for p in compress(range(b1 + 1, b2 + 1), flags[b1 + 1 :]):
        k = (p + half) // _ECM_D
        marks[width * k + index[abs(p - k * _ECM_D)]] = 1
    first, last = ((p + half) // _ECM_D for p in (flags.index(1, b1 + 1), flags.rindex(1)))
    rows = (marks[width * k : width * (k + 1)] for k in range(first, last + 1))
    steps = tuple(bytes(compress(range(width), row)) for row in rows)
    scalar = prod(_prime_power(p, b1) for p in compress(range(b1 + 1), flags))
    ladders = scalar.bit_length() + _ECM_D.bit_length() + first.bit_length()
    cost = 11 * ladders + 6 * (len(range(1, half, 2)) + len(steps)) + 3 * sum(map(len, steps))
    return _EcmPlan(scalar, kept, first, steps, cost)


def _ladder(m: int, x: int, z: int, a24: int, n: int) -> tuple[int, int, int, int]:
    """m * P and (m + 1) * P for P = (x : z), m >= 1, on the curve of a24 = (A + 2) / 4, by
    Montgomery's ladder: 2P, then per further bit of m the differential addition of the two
    points (their difference is P), 6 multiplications, and the doubling of one, 5."""
    s, d = (x + z) ** 2 % n, (x - z) ** 2 % n
    x0, z0, x1, z1 = x, z, s * d % n, (s - d) * (d + a24 * (s - d)) % n
    for bit in bin(m)[3:]:
        s0, d0, s1, d1 = x0 + z0, x0 - z0, x1 + z1, x1 - z1
        u, v = d1 * s0, s1 * d0
        xs, zs = z * (u + v) ** 2 % n, x * (u - v) ** 2 % n
        s, d = (s1 * s1 % n, d1 * d1 % n) if bit == "1" else (s0 * s0 % n, d0 * d0 % n)
        xd, zd = s * d % n, (s - d) * (d + a24 * (s - d)) % n
        x0, z0, x1, z1 = (xs, zs, xd, zd) if bit == "1" else (xd, zd, xs, zs)
    return x0, z0, x1, z1


def _progression(
    prev: tuple[int, int], point: tuple[int, int], step: tuple[int, int], count: int, n: int
) -> tuple[list[int], list[int]]:
    """The X's and the Z's of point + i * step for i < count, from prev = point - step: each
    after the first by the differential addition of step to the one before, 6 multiplications."""
    (xp, zp), (x, z), (xq, zq) = prev, point, step
    sq, dq = xq + zq, xq - zq
    xs, zs = [x], [z]
    for _ in range(count - 1):
        u, v = (x - z) * sq, (x + z) * dq
        x, z, xp, zp = zp * (u + v) ** 2 % n, xp * (u - v) ** 2 % n, x, z
        xs.append(x)
        zs.append(z)
    return xs, zs


def _ecm_curve(n: int, sigma: int, plan: _EcmPlan) -> int:
    """gcd(n, what one curve of ECM found): 1 or n when it found no divisor of n.

    The curve is Suyama's of sigma, a Montgomery curve whose order is a multiple of 12,
    in x-only coordinates (X : Z).  Stage 1 multiplies its point by plan.scalar, to Q.
    Stage 2 (baby-step giant-step) tests the primes q in (B1, B2] at once, a pair
    k * D +- j by one product: the x-coordinates of k * D * Q and j * Q agree mod a
    prime p of n exactly when (k * D + j) * Q or (k * D - j) * Q is zero mod p.  ``_ladder``
    gives 5Q, 6Q, D * Q and two giant steps, ``_progression`` the baby chains j = +-1 mod 6 by
    6Q and the giant steps by D * Q; one batch inversion brings all to Z = 1, so a pair costs
    one multiplication by x_k - x_j.  A Z that shares a prime with n is itself a find, and
    the curve returns gcd(n, the product of the Z's) at once; that product stands for the
    k = 0 row, whose pairs test only the Z_j.
    """
    u, v = sigma * sigma - 5, 4 * sigma
    den = 16 * u**3 * v
    # A guard for pow(den, -1, n) that _split never reaches: its n has no prime below 2**16,
    # and at most 182 curves fit in _WORK_CAP, so sigma <= 187 and every prime of den is
    # below 2**16 (the largest is 34,591).
    g = gcd(den, n)
    if g > 1:
        return g
    a24 = (v - u) ** 3 * (3 * u + v) * pow(den, -1, n) % n
    x, z, _, _ = _ladder(plan.scalar, u**3 % n, v**3 % n, a24, n)
    g = gcd(z, n)
    if g > 1:
        return g
    x5, z5, x6, z6 = _ladder(5, x, z, a24, n)
    # chain a at j = 1 mod 6 from Q after -5Q and chain b at j = 5 mod 6 from 5Q after -Q
    # (the x of -P is that of P), both stepped by 6Q, interleaved in ascending j
    a = _progression((x5, z5), (x, z), (x6, z6), len(plan.kept) // 2, n)
    b = _progression((x, z), (x5, z5), (x6, z6), len(plan.kept) // 2, n)
    xs, zs = (list(compress(chain.from_iterable(zip(*ab)), plan.kept)) for ab in zip(a, b))
    babies = len(xs)
    xg, zg, _, _ = _ladder(_ECM_D, x, z, a24, n)
    start = plan.first or 1  # the k = 0 row is the product of the Z_j
    rows = plan.steps[start - plan.first :]
    xa, za, xb, zb = _ladder(start, xg, zg, a24, n)
    xks, zks = _progression((xa, za), (xb, zb), (xg, zg), len(rows) - 1, n)
    xs += [xa, *xks]
    zs += [za, *zks]
    ends = list(accumulate(zs, lambda c, zi: c * zi % n, initial=1))  # ends[i]: prod(zs[:i])
    g = gcd(ends[-1], n)
    if g > 1:
        return g
    t = pow(ends[-1], -1, n)  # 1 / prod(zs[: i + 1]), from the last i down
    for i in range(len(zs) - 1, -1, -1):
        xs[i] = xs[i] * ends[i] % n * t % n
        t = t * zs[i] % n
    acc = 1
    for xk, step in zip(xs[babies:], rows):
        for i in step:
            acc = acc * (xk - xs[i]) % n
    return gcd(acc, n)


def _ecm_b1s() -> Iterator[int]:
    """ECM's B1 per curve from sigma = 6 on: 500 for 40 curves, 2000 for 100, then 11,000."""
    return chain(repeat(500, 40), repeat(2_000, 100), repeat(11_000))


def _ecm(n: int, budget: _Budget, keep: int) -> int | None:
    """A nontrivial divisor of the odd composite n by Lenstra's elliptic-curve method, or None.

    The curves run at sigma = 6, 7, 8, ..., with B1 = 500 for the first 40, 2000 for the
    next 100 and 11,000 for every one after, each stage 2 taking the primes up to
    B2 = 100 * B1.  Each curve is charged before it runs, so the loop ends only on a split
    or on a curve the budget cannot cover with keep multiplications left over.
    """
    for sigma, b1 in zip(count(6), _ecm_b1s()):
        plan = _ecm_plan(b1)
        if not budget.take(plan.cost, keep):
            return None
        g = _ecm_curve(n, sigma, plan)
        if 1 < g < n:
            return g


def _iroot(m: int, k: int) -> int:
    """The largest r with r**k <= m, for m >= 1: Newton's method from above."""
    r = 1 << -(-m.bit_length() // k)
    while True:
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _split(n: int, budget: _Budget) -> int | None:
    """A nontrivial divisor of the odd composite n, whose primes are all above 2**16, or None.

    A perfect power n = r**k gives r; k is a prime at most log2(n) / 16.  Then, each
    charged to the budget before it runs, Pollard's p - 1, when what is left covers its
    fixed cost, and one Brent run and the curves of ECM, in the order that costs fewer
    multiplications per split:

    - below _RHO_FIRST, where a cofactor of two primes has one below 2**31, a Brent run of
      at most _RHO_LEG for the small primes, then the curves until a split or a curve the
      budget cannot cover;
    - from it on, the curves until a split or a curve the budget cannot cover with
      _RHO_KEPT left over, what that run charges when it finds nothing, then a Brent run
      with all that is left;
    - at any size, when what is left covers no curve beside _RHO_KEPT, a Brent run with
      all of it.

    So on a fresh budget this call splits every n that the fixed order (p - 1, the leg, then
    the curves) split: its curves are those that follow a leg that found nothing, and its run
    is never shorter than the leg, save a leg that backtracks to a split in its last 3
    multiplications.  A budget shared by several splits promises no such thing: a split that
    costs a curve here where the leg took a few hundred multiplications leaves less for the
    next cofactor.
    """
    for k in takewhile(lambda k: k <= n.bit_length() // 16, _small_primes()):
        root = _iroot(n, k)
        if root**k == n:
            return root
    if budget.take(_pm1_plan().cost):
        d = _pm1(n)
        if d is not None:
            return d
    curve = _ecm_plan(next(_ecm_b1s())).cost
    if n < _RHO_FIRST and budget.used + _RHO_KEPT + curve <= budget.limit:
        g = _brent_cycle(n, budget, _RHO_LEG)
        return g if 1 < g < n else _ecm(n, budget, 0)
    d = _ecm(n, budget, _RHO_KEPT)
    if d is None:
        g = _brent_cycle(n, budget, budget.limit)
        d = g if 1 < g < n else None
    return d


def factorize(n: int, *, bound: int = SUPPORTED_BOUND) -> Factorization:
    """Prime-power decomposition of n >= 1.

    Trial division by the primes below 2**16, a block of them at a time
    (a block whose product is coprime to n is ruled out by one gcd), then
    each composite cofactor is split as ``_split`` says (a perfect power by
    its root, else Pollard's p - 1, then one Brent run and ECM: below 2**62 a
    short run before the curves, from it on the curves before a run that gets
    the rest of the budget), with deterministic
    primality certification of every reported prime.  The splitting steps
    charge one work budget per call (``_Budget``), set by ``bound`` when the
    cofactor left by trial division is above it and capped whatever the bound:
    the one place it is chosen, as every function that reads n's factorization
    accepts one.  A cofactor the backend cannot split inside it (the
    CapabilityError carries ``limit`` and ``used``) or certify raises
    CapabilityError; a wrong factorization is never returned.
    """
    original = n = _gate("factorization requires n >= 1, got {}", 1, n)
    bound = _gate(_BOUND, 1, bound)
    counts: dict[int, int] = {}
    # Every prime p with p * p <= n is tried, so a cofactor left below
    # 2**32 has no prime factor below its square root.
    for first, product, block in _prime_blocks():
        if first * first > n:
            break
        if gcd(n, product) == 1:
            continue
        for p in block:
            if p * p > n:
                break
            while n % p == 0:
                counts[p] = counts.get(p, 0) + 1
                n //= p
    if n >= _TRIAL_LIMIT * _TRIAL_LIMIT:
        counts.update(_cofactor_primes(n, original, _Budget(n, bound)))
    elif n > 1:
        # no prime factor below sqrt(n), so n itself is prime
        counts[n] = counts.get(n, 0) + 1
    return Factorization._from_sorted(original, tuple(sorted(counts.items())))


def _cofactor_primes(n: int, original: int, budget: _Budget) -> dict[int, int]:
    """The prime multiplicities of a cofactor n >= 2**32 left by trial division, in budget."""
    counts: dict[int, int] = {}
    stack = [n]
    while stack:
        m = stack.pop()
        if _certified_prime(m, original):
            counts[m] = counts.get(m, 0) + 1
            continue
        d = _split(m, budget)
        if d is None:
            raise budget.refusal(m, original)
        stack += [d, m // d]
    return counts


def _as_factorization(n: Any, m: Any) -> Factorization:
    """n when it is a Factorization, else ``factorize(m)``: m is n as the gate read it, or n."""
    return n if isinstance(n, Factorization) else factorize(m)


def _read_int(text: str, noun: str) -> int | None:
    """The int that ``text`` writes as ASCII [+-]?[0-9]+, else None: every integer from outside is
    read here.  Past the int-to-str digit limit, DomainError names the noun and the digit count."""
    digits = text[1:] if text[:1] in "+-" else text
    try:
        return int(text) if digits.isascii() and digits.isdigit() else None
    except ValueError:
        raise DomainError(f"{noun} of {len(digits)} digits exceeds the digit limit") from None


def _smallest_divisors(f: Factorization) -> list[int]:
    """The divisors of f.n ascending.

    Prime power by prime power: the divisors so far, d ascending, give the
    ascending runs of d*p, ..., of d*p^e; ``list.sort`` merges these
    sorted runs (Timsort).  The runs are appended to the one list in
    place, with no copy of it.
    """
    out = [1]
    for p, e in f.factors:
        run = out
        for _ in range(e):
            run = [d * p for d in run]
            out += run
        out.sort()
    return out


def divisors(f: Factorization | int) -> list[int]:
    """All divisors of n in ascending order; accepts any integer or a Factorization.

    Raises CapabilityError, before any divisor is built, when n has more than SOLUTION_CAP.
    """
    f = _as_factorization(f, f)
    total = prod(e + 1 for _, e in f.factors)
    if total > SOLUTION_CAP:
        raise CapabilityError(
            f"{_shown(f.n)} has {_shown(total)} divisors, above the enumeration cap {SOLUTION_CAP}"
        )
    return _smallest_divisors(f)

