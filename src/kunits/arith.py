"""Exact integer primitives: primality, factorization, divisors.

Everything here is arbitrary precision and deterministic.  Factorization
is trial division below 2**16, then Pollard's p - 1 and Brent's rho on
what is left, each on a fixed schedule, so the same n always takes the
same path.  Primality is Miller-Rabin on the first t prime bases, t chosen
by the size of n: the smallest t with n below psi_t, the least odd
composite that passes all of the first t (OEIS A014233).  The 13 bases
2..41 are a proof for every n below psi_13 = 3317044064679887385961981,
about 3.3e24 (Sorenson & Webster), so there are no probabilistic false
positives anywhere in the toolkit; inputs the backend cannot certify raise
:class:`~kunits.errors.CapabilityError` rather than guessing.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, prod
from typing import NamedTuple

from .errors import CapabilityError, DomainError

__all__ = [
    "SUPPORTED_BOUND",
    "Factorization",
    "is_prime",
    "factorize",
    "nu",
    "divisors",
    "pow_mod",
]

# Default gate for the primality / factorization fast paths.  Another rho budget
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
# from psi_13 on, primality is refused.
_CERTIFIED_LIMIT = _MR_PSI[-1]

_TRIAL_LIMIT = 1 << 16
_RHO_CAP = 1 << 24  # rho evaluations per cofactor at most, whatever the bound: about 10 s of CPU
# Primes per block of trial division; one gcd with the block's product
# rules out all of them.
_BLOCK = 64
# Stage 1 bound of Pollard's p - 1; stage 2 takes the primes above it below _TRIAL_LIMIT.
_PM1_B1 = 1 << 12


@lru_cache(maxsize=1)
def _small_primes() -> tuple[int, ...]:
    """Primes below 2**16 by a sieve of Eratosthenes."""
    limit = _TRIAL_LIMIT
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit, p)))
    return tuple(i for i, flag in enumerate(sieve) if flag)


@lru_cache(maxsize=1)
def _prime_blocks() -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """_small_primes() in consecutive runs of _BLOCK, as (first prime, product, primes)."""
    primes = _small_primes()
    runs = (primes[i : i + _BLOCK] for i in range(0, len(primes), _BLOCK))
    return tuple((run[0], prod(run), run) for run in runs)


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
                q = p
                while q * p <= _PM1_B1:
                    q *= p
                powers.append(q)
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
    A composite "prime" raises DomainError, and one from psi_13 on CapabilityError.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"Factorization requires n >= 1, got {self.n}")
        object.__setattr__(self, "factors", tuple(tuple(pe) for pe in self.factors))
        previous = 1
        for p, e in self.factors:
            if p <= previous:
                raise DomainError("factor primes must be strictly increasing")
            if e < 1:
                raise DomainError("factor exponents must be >= 1")
            previous = p
        _check_product(self.n, self.factors)
        for p, _ in self.factors:
            if not _certified_prime(p, self.n):
                raise DomainError(f"factor {p} of {self.n} is not prime")

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
        raise DomainError(f"factors do not multiply back to {n}")


def _certified_prime(m: int, n: int) -> bool:
    """Whether the factor m of n is prime; CapabilityError for a probable prime from psi_13 on."""
    prime = _is_prime_unchecked(m)
    if prime and m >= _CERTIFIED_LIMIT:
        raise CapabilityError(
            f"cofactor {m} of {n} is a probable prime but lies "
            f"beyond the certified bound {_CERTIFIED_LIMIT}"
        )
    return prime


def _miller_rabin(n: int) -> bool:
    """Miller-Rabin for odd n > 41 on the first t bases, for the least t with
    n < psi_t (all 13 from psi_13 on); a proof only below _CERTIFIED_LIMIT."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
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


def _is_prime_unchecked(n: int) -> bool:
    """Primality without the bound gate; 'composite' verdicts are always certain."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    return _miller_rabin(n)


def is_prime(n: int, *, bound: int = SUPPORTED_BOUND) -> bool:
    """Deterministic primality test for 0 <= n <= bound.

    Raises CapabilityError above the bound, or at or above the certified
    Miller-Rabin limit psi_13, instead of answering probabilistically.
    """
    if n < 0:
        raise DomainError(f"primality is defined for n >= 0, got {n}")
    limit = min(bound, _CERTIFIED_LIMIT)
    if n > limit:
        raise CapabilityError(
            f"cannot certify primality of {n}: exceeds the supported bound {limit}"
        )
    if n == _CERTIFIED_LIMIT:
        raise CapabilityError(
            f"cannot certify primality of {n}: the Miller-Rabin bases are a proof "
            f"only below it"
        )
    return _is_prime_unchecked(n)


def _brent_cycle(n: int, c: int, budget: float) -> tuple[int, int]:
    """One run of Brent's cycle finder on x -> x^2 + c mod n.

    Returns a gcd and the evaluations of x^2 + c it took.  The budget is
    checked before each round's run of r steps and after each batch of up
    to 128; a run that would pass it stops with gcd 1, so it overruns the
    budget by less than one batch.
    """
    y, r, q = 2, 1, 1
    g = 1
    used = 0
    x = ys = y
    while g == 1:
        if used + r > budget:
            return 1, used
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        used += r
        k = 0
        while k < r and g == 1:
            ys = y
            steps = min(128, r - k)
            for _ in range(steps):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = gcd(q, n)
            k += 128
            used += steps
            if g == 1 and used >= budget:
                return 1, used
        r <<= 1
    if g == n:
        g = 1
        y = ys
        while g == 1:
            y = (y * y + c) % n
            g = gcd(x - y, n)
            used += 1
    return g, used


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


def _split(n: int, budget: float) -> tuple[int | None, int]:
    """A nontrivial divisor of the odd composite n, or None; and the rho
    evaluations used.

    Pollard's p - 1 goes first when the budget covers its cost in modular
    multiplications, which are not counted as rho evaluations.  When it
    fails, the deterministic schedule of Brent runs follows, until a split
    or until the schedule or the budget of evaluations runs out.
    """
    s = isqrt(n)
    if s * s == n:
        return s, 0
    if budget >= _pm1_plan().cost:
        d = _pm1(n)
        if d is not None:
            return d, 0
    used = 0
    for c in range(1, 64):
        g, steps = _brent_cycle(n, c, budget - used)
        used += steps
        if 1 < g < n:
            return g, used
        if used >= budget:
            break
    return None, used


def factorize(n: int, *, bound: int = SUPPORTED_BOUND) -> Factorization:
    """Prime-power decomposition of n >= 1.

    Trial division by the primes below 2**16, a block of them at a time
    (a block whose product is coprime to n is ruled out by one gcd), then
    each composite cofactor is split by Pollard's p - 1 and, where that
    fails, by Brent's rho, with deterministic primality certification of
    every reported prime.  Rho work on a composite cofactor above ``bound``
    is budgeted, and on any cofactor capped; p - 1 runs only when that
    budget covers its fixed cost.  This is the one place that budget is
    chosen, as every function that reads n's factorization accepts one.
    Inputs with a cofactor the backend cannot split (within that budget)
    or certify raise CapabilityError; a wrong factorization is never returned.
    """
    if n < 1:
        raise DomainError(f"factorization requires n >= 1, got {n}")
    original = n
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
        counts.update(_cofactor_primes(n, original, bound))
    elif n > 1:
        # no prime factor below sqrt(n), so n itself is prime
        counts[n] = counts.get(n, 0) + 1
    return Factorization._from_sorted(original, tuple(sorted(counts.items())))


def _cofactor_primes(n: int, original: int, bound: int) -> dict[int, int]:
    """The prime multiplicities of a cofactor n >= 2**32 left by trial division."""
    counts: dict[int, int] = {}
    stack = [n]
    while stack:
        m = stack.pop()
        if _certified_prime(m, original):
            counts[m] = counts.get(m, 0) + 1
            continue
        # A composite m <= bound has a prime factor p <= sqrt(bound), which rho finds in
        # about sqrt(p) <= bound^(1/4) steps.  A cofactor above the bound gets 16 times that
        # (2**20 steps for the default bound); at or below it rho runs up to _RHO_CAP steps.
        budget = min(16 * isqrt(isqrt(bound)), _RHO_CAP) if m > bound else _RHO_CAP
        d, used = _split(m, budget)
        if d is None:
            stop = f"the supported factorization bound is {bound}"
            if budget == _RHO_CAP:
                stop = f"the rho cap is {_RHO_CAP} iterations per cofactor"
            raise CapabilityError(
                f"cannot split the composite cofactor {m} of {original} "
                f"after {used} rho iterations; {stop}"
            )
        stack += [d, m // d]
    return counts


def _as_factorization(f: Factorization | int) -> Factorization:
    return factorize(f) if isinstance(f, int) else f


def _value(f: Factorization | int) -> int:
    """The integer n of an int or a Factorization, without factoring it."""
    return f.n if isinstance(f, Factorization) else f


def _read_int(text: str, noun: str) -> int | None:
    """The int that ``text`` writes as ASCII [+-]?[0-9]+, else None: every integer from outside is
    read here.  Past the int-to-str digit limit, DomainError names the noun and the digit count."""
    digits = text[1:] if text[:1] in "+-" else text
    try:
        return int(text) if digits.isascii() and digits.isdigit() else None
    except ValueError:
        raise DomainError(f"{noun} of {len(digits)} digits exceeds the digit limit") from None


def nu(p: int, n: int) -> int:
    """Exponent of the greatest power of the prime p dividing n >= 1.

    p is certified prime below the Miller-Rabin limit, as in factorize;
    a p at or above it raises CapabilityError.
    """
    if not is_prime(p, bound=_CERTIFIED_LIMIT):
        raise DomainError(f"nu requires a prime first argument, got {p}")
    if n < 1:
        raise DomainError(f"nu requires n >= 1, got {n}")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _smallest_divisors(f: Factorization, stop: int | None = None) -> list[int]:
    """The ``stop`` smallest divisors of f.n ascending (all when stop is None).

    Prime power by prime power: the divisors so far, d ascending, give the
    ascending runs of d*p, ..., of d*p^e; ``list.sort`` merges these
    sorted runs (Timsort), and the list is cut to ``stop``.  A divisor
    past the cut only has larger multiples, so the cut loses none of the
    smallest, and the list never holds more than stop * (e + 1) values.
    The runs are appended to the one list in place, with no copy of it.
    """
    out = [1][:stop]
    for p, e in f.factors:
        run = out
        for _ in range(e):
            run = [d * p for d in run]
            out += run
        out.sort()
        if stop is not None:
            del out[stop:]
    return out


def divisors(f: Factorization | int) -> list[int]:
    """All divisors of n in ascending order; accepts an int or Factorization."""
    return _smallest_divisors(_as_factorization(f))


def pow_mod(a: int, e: int, n: int) -> int:
    """a**e reduced mod n >= 1, with a**0 == 1 mod n."""
    if a < 0 or e < 0:
        raise DomainError("pow_mod requires a >= 0 and e >= 0")
    if n < 1:
        raise DomainError(f"pow_mod requires a positive modulus, got {n}")
    return pow(a, e, n)
