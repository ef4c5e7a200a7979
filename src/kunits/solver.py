"""Complete solution of rdu_k(n) = 1 for a fixed exponent k.

rdu_k(n) = 1 says every unit modulo n is a k-unit, that is lambda(n) | k,
so the solutions are exactly the divisors of n_max, the product of the
largest p^e with lambda(p^e) | k, and they number prod(e + 1).  For odd
k, n_max = 2, as lambda(n) is even for n >= 3.  For even k = 2^beta * M
(M odd) the 2-part is 2^(beta+2), and an odd prime p enters exactly when
p - 1 | k, with exponent nu_p(k) + 1: A holds the primes with exponent 1
(those not dividing M), B the others.  The membership tests read the
lambda-divisibility set ``_rdu_one(k)`` of ``unitgroup``, beside lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

import numpy as np

from .arith import (
    _BOUND,
    SOLUTION_CAP,
    SUPPORTED_BOUND,
    Factorization,
    _as_factorization,
    _certified_prime,
    _gate,
    _nu2,
    _shown,
    divisors,
    factorize,
)
from .errors import CapabilityError, DomainError
from .unitgroup import _INT64_MAX, _rdu_one

__all__ = [
    "SOLUTION_CAP",
    "RduOneSolution",
    "solve_rdu_one",
    "enumerate_rdu_one_solutions",
    "is_rdu_one",
    "check_korselt_general",
]

# Candidates d + 1 are at most k + 1, so an even k below 2^256 keeps each
# Miller-Rabin proof to 256 bits.  Without the cap, k = 2^beta alone needs beta / 8
# proofs of up to beta bits, a time that grows like beta^4.
_CANDIDATE_BITS = 256


@dataclass(frozen=True)
class RduOneSolution:
    """Everything known about the solution set of rdu_k(n) = 1.

    k = 2^beta * m with m odd; set_a holds the qualifying primes not
    dividing m, set_b the qualifying primes dividing m paired with their
    exponent nu_q(m) + 1 in n_max.  Odd k is the degenerate case
    beta = 0 with empty sets, n_max = 2 and count = 2.
    """

    k: int
    k_parity: str
    beta: int
    m: int
    set_a: tuple[int, ...]
    set_b: tuple[tuple[int, int], ...]
    n_max: int
    count: int

    def n_max_factorization(self) -> Factorization:
        """Prime-power form of n_max from the solution parts, whose primes the solver certified."""
        pairs = [(2, _nu2(self.n_max)), *((p, 1) for p in self.set_a), *self.set_b]
        return Factorization._from_sorted(self.n_max, tuple(sorted(pairs)))


def solve_rdu_one(k: int, *, bound: int = SUPPORTED_BOUND) -> RduOneSolution:
    """Solve rdu_k(n) = 1 in closed form.

    The candidates are d + 1 for the even divisors d of k, walked ascending
    from ``divisors``, and each candidate p that is prime enters n_max with
    exponent nu_p(k) + 1; n_max, the count, A and B are all read from this
    one list of the largest p^e with lambda(p^e) | k.  A composite candidate is ruled
    out at any size.  CapabilityError refuses an even k of more than
    _CANDIDATE_BITS bits, which would have candidates that long, a k of more
    than SOLUTION_CAP divisors, before any is built, and the least probable
    prime candidate at or above the certified Miller-Rabin limit psi_13.
    """
    k = _gate("solve_rdu_one requires k >= 1, got {}", 1, k)
    bound = _gate(_BOUND, 1, bound)
    beta = _nu2(k)
    m = k >> beta
    pairs = [(2, beta + 2 if beta else 1)]
    if beta:
        if k.bit_length() > _CANDIDATE_BITS:
            raise CapabilityError(
                f"cannot solve for a k of {k.bit_length()} bits: solve_rdu_one proves "
                f"candidates d + 1 (d | k) of at most {_CANDIDATE_BITS} bits"
            )
        f = factorize(k, bound=bound)
        nu = dict(f.factors)
        for d in divisors(f):
            if d % 2 == 0 and _certified_prime(d + 1):
                pairs.append((d + 1, nu.get(d + 1, 0) + 1))
    return RduOneSolution(
        k=k,
        k_parity="even" if beta else "odd",
        beta=beta,
        m=m,
        set_a=tuple(p for p, e in pairs[1:] if e == 1),
        set_b=tuple((p, e) for p, e in pairs[1:] if e > 1),
        n_max=prod(p**e for p, e in pairs),
        count=prod(e + 1 for _, e in pairs),
    )


def enumerate_rdu_one_solutions(
    k: int,
    limit: int | None = None,
    *,
    bound: int = SUPPORTED_BOUND,
) -> list[int]:
    """All solutions of rdu_k(n) = 1 ascending, i.e. the divisors of n_max.

    Truncates to the first ``limit`` values when given.  Refuses
    (CapabilityError) a list of more than ``SOLUTION_CAP`` values, the
    count or the limit whichever is smaller, since the count grows
    exponentially in |A|.
    """
    low, high = _solutions(solve_rdu_one(k, bound=bound), limit)
    return low.tolist() + high


def _solutions(sol: RduOneSolution, limit: int | None) -> tuple[np.ndarray, list[int]]:
    """``enumerate_rdu_one_solutions`` from a solution already solved, in the
    two ascending parts of ``_divisors``: an int64 array of the solutions
    below 2^63 and a list of the Python ints at or above it.  The cap is
    checked before either part is built.
    """
    if limit is not None:
        limit = _gate("limit must be >= 0, got {}", 0, limit)
    if sol.count > SOLUTION_CAP and (limit is None or limit > SOLUTION_CAP):
        raise CapabilityError(
            f"rdu_{sol.k}(n) = 1 has {sol.count} solutions, above the enumeration "
            f"cap {SOLUTION_CAP}; pass a limit of at most {SOLUTION_CAP} to truncate"
        )
    return _divisors(sol.n_max_factorization(), limit)


def _divisors(f: Factorization, stop: int | None) -> tuple[np.ndarray, list[int]]:
    """The ``stop`` smallest divisors of f.n (all when stop is None) in two
    ascending parts: an int64 array of those below 2^63 and a list of the
    Python ints at or above it.

    Prime power by prime power, each q = p^j multiplies the divisors so far.
    The products d*q that fit in int64 come from the prefix d <= (2^63 - 1) // q
    of the array, found by one ``searchsorted`` per prime, so nothing wraps;
    the rest of the array, and the whole list, give their products in Python
    ints.  A stable sort (Timsort) merges the array's runs and ``sorted``
    the list's, and both parts are cut to ``stop`` together.  Once the array
    holds ``stop`` values, a product past its last one cannot be among the
    smallest: the prefix is cut at that value instead, and nothing spills.
    """
    low, high = np.ones(1, dtype=np.int64)[:stop], []
    for p, e in f.factors:
        powers = [p**j for j in range(1, e + 1)]
        full = 0 < len(low) == stop
        top = int(low[-1]) if full else _INT64_MAX
        fits = np.searchsorted(low, [top // q for q in powers], side="right").tolist()
        if not full:
            start = fits[-1]  # the largest q spills the longest tail
            tail = low[start:].tolist()
            runs = ((*tail[n - start :], *high) for n in fits)
            high = sorted([*high, *(d * q for q, run in zip(powers, runs) for d in run)])
        low = np.concatenate([low, *(low[:n] * q for n, q in zip(fits, powers) if n)])
        low.sort(kind="stable")
        low = low[:stop]
        if stop is not None:
            del high[stop - len(low) :]
    return low, high


def is_rdu_one(n: Factorization | int, k: int) -> bool:
    """Fast membership test for rdu_k(n) = 1, without touching the k-units:
    every unit is a k-unit exactly when lambda(n) | k.  Decided by the set
    ``unitgroup._rdu_one(k)``, so an odd k with n >= 3 is answered False
    without factoring, as lambda(n) is even.  Accepts any integer or a Factorization.
    """
    m, k = _gate("is_rdu_one requires n >= 1 and k >= 1, got n={}, k={}", 1, n, k)
    return _rdu_one(k).failure(n, m) is None


def check_korselt_general(n: Factorization | int, k: int) -> bool:
    """Squarefree-and-(p-1 | k) test for odd composite n with gcd(k, n) = 1.

    Under those preconditions the verdict is is_rdu_one(n, k): lambda(n) | k
    already forces n to be squarefree, since p^2 | n puts p in lambda(n)
    and so in k.  Violated preconditions raise DomainError naming the
    clause rather than silently extending the equivalence.
    """
    m, k = _gate("check_korselt_general requires n >= 1 and k >= 1, got n={}, k={}", 1, n, k)
    if m % 2 == 0:
        raise DomainError(f"precondition violated: n = {_shown(m)} is not odd")
    f = _as_factorization(n, m)
    if not f.is_composite:
        raise DomainError(f"precondition violated: n = {_shown(m)} is not composite")
    if gcd(k, m) != 1:
        raise DomainError(
            f"precondition violated: k = {_shown(k)} is not relatively prime to n = {_shown(m)}"
        )
    return _rdu_one(k).failure(f, m) is None
