"""Complete solution of rdu_k(n) = 1 for a fixed exponent k.

rdu_k(n) = 1 says every unit modulo n is a k-unit, that is lambda(n) | k,
so the solutions are exactly the divisors of n_max, the product of the
largest p^e with lambda(p^e) | k, and they number prod(e + 1).  For odd
k, n_max = 2, as lambda(n) is even for n >= 3.  For even k = 2^beta * M
(M odd) the 2-part is 2^(beta+2), and an odd prime p enters exactly when
p - 1 = 2^l * d with 0 < l <= beta and d | M, with exponent nu_p(M) + 1:
A holds the primes with exponent 1 (those not dividing M), B the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

from .arith import (
    _CERTIFIED_LIMIT,
    SUPPORTED_BOUND,
    Factorization,
    _as_factorization,
    _smallest_divisors,
    _value,
    divisors,
    factorize,
    is_prime,
)
from .errors import CapabilityError, DomainError
from .classify import _rdu_one

__all__ = [
    "SOLUTION_CAP",
    "RduOneSolution",
    "solve_rdu_one",
    "enumerate_rdu_one_solutions",
    "is_rdu_one",
    "check_korselt_general",
]

SOLUTION_CAP = 10**6


def _nu2(k: int) -> int:
    return (k & -k).bit_length() - 1


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
        """Prime-power form of n_max, assembled from the solution parts."""
        pairs = [(2, _nu2(self.n_max)), *((p, 1) for p in self.set_a), *self.set_b]
        return Factorization(self.n_max, tuple(sorted(pairs)))


def solve_rdu_one(k: int, *, bound: int = SUPPORTED_BOUND) -> RduOneSolution:
    """Solve rdu_k(n) = 1 in closed form.

    Candidates 2^l * d + 1 (d | M ascending, l = 1..beta, each arising
    once) are kept when prime, with their exponent in n_max; n_max, the
    count, A and B are all read from this one sorted list of the largest
    p^e with lambda(p^e) | k.  A candidate above the certified
    Miller-Rabin limit raises CapabilityError.
    """
    if k < 1:
        raise DomainError(f"solve_rdu_one requires k >= 1, got {k}")
    if k % 2:
        return RduOneSolution(
            k=k, k_parity="odd", beta=0, m=k, set_a=(), set_b=(), n_max=2, count=2
        )
    beta = _nu2(k)
    m = k >> beta
    fm = factorize(m, bound=bound)
    nu = dict(fm.factors)
    pairs = [(2, beta + 2)]
    for d in divisors(fm):
        for l in range(1, beta + 1):
            c = (1 << l) * d + 1
            if is_prime(c, bound=_CERTIFIED_LIMIT):
                pairs.append((c, nu.get(c, 0) + 1))
    pairs.sort()
    return RduOneSolution(
        k=k,
        k_parity="even",
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
    return _solutions(solve_rdu_one(k, bound=bound), limit)


def _solutions(sol: RduOneSolution, limit: int | None) -> list[int]:
    """``enumerate_rdu_one_solutions`` from a solution already solved."""
    if limit is not None and limit < 0:
        raise DomainError(f"limit must be >= 0, got {limit}")
    if sol.count > SOLUTION_CAP and (limit is None or limit > SOLUTION_CAP):
        raise CapabilityError(
            f"rdu_{sol.k}(n) = 1 has {sol.count} solutions, above the enumeration "
            f"cap {SOLUTION_CAP}; pass a limit of at most {SOLUTION_CAP} to truncate"
        )
    return _smallest_divisors(sol.n_max_factorization(), limit)


def is_rdu_one(n: Factorization | int, k: int) -> bool:
    """Fast membership test for rdu_k(n) = 1, without touching the k-units:
    every unit is a k-unit exactly when lambda(n) | k.  Decided by the set
    ``classify._rdu_one(k)``, so an odd k with n >= 3 is answered False
    without factoring, as lambda(n) is even.

    Accepts an int or a Factorization.
    """
    if _value(n) < 1 or k < 1:
        raise DomainError(f"is_rdu_one requires n >= 1 and k >= 1, got n={_value(n)}, k={k}")
    return _rdu_one(k).failure(n) is None


def check_korselt_general(n: Factorization | int, k: int) -> bool:
    """Squarefree-and-(p-1 | k) test for odd composite n with gcd(k, n) = 1.

    Under those preconditions the verdict is is_rdu_one(n, k): lambda(n) | k
    already forces n to be squarefree, since p^2 | n puts p in lambda(n)
    and so in k.  Violated preconditions raise DomainError naming the
    clause rather than silently extending the equivalence.
    """
    m = _value(n)
    if m < 1 or k < 1:
        raise DomainError(f"check_korselt_general requires n >= 1 and k >= 1, got n={m}, k={k}")
    if m % 2 == 0:
        raise DomainError(f"precondition violated: n = {m} is not odd")
    f = _as_factorization(n)
    if not f.is_composite:
        raise DomainError(f"precondition violated: n = {m} is not composite")
    if gcd(k, m) != 1:
        raise DomainError(f"precondition violated: k = {k} is not relatively prime to n = {m}")
    return is_rdu_one(f, k)
