"""Classifiers built on the k-unit machinery.

Fermat-liar counting, Carmichael numbers via the Korselt criterion,
i-Knodel sets, the generalized Carmichael sets C_k, and sweep tooling for
exponent rules that depend on n (n-i, n+i, a*n+b, arbitrary integer
polynomials).

The point classifiers factor one n; ``sweep`` instead reads lambda(n) for a
whole range from one sieve (``lambda_range``), since rdu_k(n) = 1 exactly when
lambda(n) divides k.  Each set is a value built by its own constructor, every
point verdict is its ``_LambdaSet.failure``, and only oeis-check names a set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from .arith import SUPPORTED_BOUND, Factorization, _as_factorization, _read_int, _value
from .errors import CapabilityError, DomainError
from .unitgroup import carmichael_lambda, du_k_product, lambda_range, unit_group_structure

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BRUTE_FORCE_BOUND",
    "ClassificationReport",
    "ExponentRule",
    "SweepResult",
    "count_fermat_liars",
    "is_carmichael",
    "korselt_failure",
    "is_knodel",
    "is_generalized_carmichael",
    "classify",
    "parse_rule",
    "sweep",
]

BRUTE_FORCE_BOUND = 10**7
_PREDICATE_HELP = "carmichael | knodel:I | gen-carmichael:K | rdu-one:K"


def count_fermat_liars(n: Factorization | int) -> int:
    """Number of units a modulo odd n with a^(n-1) = 1: the (n-1)-units.

    For odd n no prime p | n divides n - 1, so the count is the product
    of gcd(n-1, p-1).  For prime n this is n - 1 (every unit); for
    composite n it counts the bases for which n is a Fermat probable
    prime.  Accepts an int or a Factorization.
    """
    m = _value(n)
    if m < 3 or m % 2 == 0:
        raise DomainError(f"count_fermat_liars requires odd n >= 3, got {m}")
    return du_k_product(m - 1, unit_group_structure(n))


def korselt_failure(n: Factorization | int) -> str | None:
    """Why n >= 1 fails to be a Carmichael number, or None when it is one."""
    m = _value(n)
    if m < 1:
        raise DomainError(f"korselt_failure requires n >= 1, got {m}")
    return _korselt_reason(_CARMICHAEL.failure(n), m)


def _korselt_reason(failed: tuple[str, Factorization | None] | None, n: int) -> str | None:
    """Korselt's wording of the clause of the Carmichael set that n failed."""
    if failed is None:
        return None
    clause, f = failed
    if clause == "least":
        return f"{n} is not composite"
    if clause == "parity":
        return f"{n} is even"
    if clause == "composite":
        return f"{n} is prime"
    # lambda(n) does not divide n - 1: a square p^2 | n puts p into lambda(n)
    # but not into n - 1; for squarefree n, lambda(n) = lcm(p - 1)
    for p, e in f.factors:
        if e > 1:
            return f"not squarefree: {p}^{e} divides {n}"
    for p, _ in f.factors:
        if (n - 1) % (p - 1):
            return f"{p} - 1 does not divide {n} - 1"


def is_carmichael(n: Factorization | int) -> bool:
    """Korselt test: n odd, composite, squarefree, and p-1 | n-1 for all p | n."""
    if _value(n) < 1:
        raise DomainError(f"is_carmichael requires n >= 1, got {_value(n)}")
    return _CARMICHAEL.failure(n) is None


def is_knodel(n: Factorization | int, i: int) -> bool:
    """Membership of n in the i-Knodel set: composite n > i whose every unit
    satisfies a^(n-i) = 1.  The 1-Knodel numbers are the Carmichael numbers.
    Accepts an int or a Factorization."""
    s = _knodel(i)
    if _value(n) < 1:
        raise DomainError(f"is_knodel requires n >= 1, got {_value(n)}")
    return s.failure(n) is None


def is_generalized_carmichael(
    n: Factorization | int, k: int, *, bound: int = BRUTE_FORCE_BOUND
) -> bool:
    """Membership of n in C_k: min(n, n+k) > 1 and a^(n+k) = a mod n for ALL a.

    Decided by Korselt's closed form, ``_gen_carmichael(k)``; k may be
    negative; n > bound is refused."""
    m = _value(n)
    if m < 1:
        raise DomainError(f"is_generalized_carmichael requires n >= 1, got {m}")
    if m > bound:
        raise CapabilityError(f"n = {m} exceeds the brute-force bound {bound}")
    return _gen_carmichael(k).failure(n) is None


_RULE_CONST = re.compile(r"const:([0-9]+)\Z")
_RULE_SHIFT = re.compile(r"n(?:([+-])([0-9]+))?\Z")
_RULE_LINEAR = re.compile(r"([0-9]+)\*n([+-][0-9]+)?\Z")
_RULE_POLY = re.compile(r"poly:(-?[0-9]+(?:,-?[0-9]+)*)\Z")


@dataclass(frozen=True)
class ExponentRule:
    """An integer exponent as a function of n, kept as a polynomial.

    ``coeffs`` is constant-term first, so f(n) = sum(c_j * n^j).  ``kind``
    remembers the surface syntax (const, shift, linear, poly) for display.
    """

    kind: str
    coeffs: tuple[int, ...]

    def __call__(self, n: int) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * n + c
        return value

    def over(self, n: np.ndarray) -> np.ndarray:
        """The exponents of the ascending array n, by Horner's rule.

        Evaluated in int64 when sum(|c_j| * max(n)^j), a bound on every
        Horner step, stays below 2**63; otherwise on Python ints.
        """
        top = int(n[-1])
        if sum(abs(c) * top**j for j, c in enumerate(self.coeffs)) >= 1 << 63:
            n = n.astype(object)
        return self(n)

    @property
    def text(self) -> str:
        if self.kind == "const":
            return f"const:{self.coeffs[0]}"
        if self.kind == "shift":
            b = self.coeffs[0]
            return "n" if b == 0 else f"n{b:+d}"
        if self.kind == "linear":
            a, b = self.coeffs[1], self.coeffs[0]
            return f"{a}*n" if b == 0 else f"{a}*n{b:+d}"
        return "poly:" + ",".join(str(c) for c in self.coeffs)


def parse_rule(text: str) -> ExponentRule:
    """Parse an exponent rule: const:K, n, n-I, n+I, A*n+B, or poly:c0,c1,...

    Shift offsets obey n-I with I >= 1 and n+I with I >= 0; linear rules
    need A >= 1.  Polynomial coefficients are unrestricted integers (the
    sweep skips any n where the exponent comes out below 1).
    """
    text = text.strip()
    if m := _RULE_CONST.match(text):
        k = _read_int(m.group(1), "rule integer")
        if k < 1:
            raise DomainError(f"constant exponent must be >= 1, got {k}")
        return ExponentRule("const", (k,))
    if m := _RULE_SHIFT.match(text):
        sign = m.group(1)
        if sign is None:
            return ExponentRule("shift", (0, 1))
        offset = _read_int(m.group(2), "rule integer")
        if sign == "-" and offset < 1:
            raise DomainError("rule n-I requires I >= 1")
        return ExponentRule("shift", (offset if sign == "+" else -offset, 1))
    if m := _RULE_LINEAR.match(text):
        a = _read_int(m.group(1), "rule integer")
        if a < 1:
            raise DomainError(f"rule A*n+B requires A >= 1, got A={a}")
        b = _read_int(m.group(2) or "0", "rule integer")
        return ExponentRule("linear", (b, a))
    if m := _RULE_POLY.match(text):
        coeffs = tuple(_read_int(c, "rule integer") for c in m.group(1).split(","))
        return ExponentRule("poly", coeffs)
    raise DomainError(
        f"malformed exponent rule {text!r}; expected const:K, n, n-I, n+I, "
        f"A*n+B, or poly:c0,c1,..."
    )


@dataclass(frozen=True)
class SweepResult:
    """Hits (n with rdu_f(n)(n) = 1) and the n skipped for exponent < 1."""

    hits: tuple[int, ...]
    skipped: tuple[int, ...]


def sweep(
    lo: int,
    hi: int,
    rule: ExponentRule,
    *,
    composite_only: bool = False,
    odd_only: bool = False,
    squarefree_only: bool = False,
    bound: int = SUPPORTED_BOUND,
) -> SweepResult:
    """Scan [lo, hi] for n with rdu_f(n)(n) = 1, f the rule, in ascending order.

    rdu_k(n) = 1 exactly when lambda(n) divides k, so the range is sieved
    once by ``lambda_range`` rather than factored n by n; its DomainError
    refuses a range without 1 <= lo <= hi, and its CapabilityError one of
    more than RANGE_BOUND n, before any work.  Filters narrow the candidate
    set before the exponent is looked at (odd_only by sieving the odd n
    alone); an n that survives the filters but has exponent f(n) < 1 is
    recorded as skipped rather than silently dropped.
    """
    hits: list[int] = []
    skipped: list[int] = []
    for segment in lambda_range(lo, hi, bound=bound, odd_only=odd_only):
        n = segment.n
        keep = segment.composite if composite_only else True
        if squarefree_only:
            keep = keep & segment.squarefree
        e = rule.over(n)
        low = e < 1
        skipped += n[keep & low].tolist()
        hits += n[keep & ~low & (e % segment.lam == 0)].tolist()
    return SweepResult(hits=tuple(hits), skipped=tuple(skipped))


class _LambdaSet(NamedTuple):
    """The n >= least, only composite or squarefree ones if asked, with lambda(n) | e(n)."""

    slope: int  # e(n) = slope * n + offset, which is >= 1 from least on
    offset: int
    least: int
    composite: bool = False
    squarefree: bool = False

    def failure(
        self, n: Factorization | int, lam: int | None = None
    ) -> tuple[str, Factorization | None] | None:
        """None for a member, else the first clause n fails and the factorization
        read for it (None if it failed before factoring).  The clauses: "least";
        "parity", from n alone: e(n) is odd at n >= 3, where lambda(n) is even,
        or n = 2 is not composite; "lambda" (lam, or lambda(n), does not divide
        e(n)); "composite"; "squarefree"."""
        m = _value(n)
        if m < self.least:
            return "least", None
        e = self.slope * m + self.offset
        if (m >= 3 and e % 2) or (m == 2 and self.composite):
            return "parity", None
        f = _as_factorization(n)
        if e % (carmichael_lambda(f) if lam is None else lam):
            return "lambda", f
        if self.composite and not f.is_composite:
            return "composite", f
        if self.squarefree and not f.is_squarefree:
            return "squarefree", f
        return None


def _knodel(i: int) -> _LambdaSet:
    """The i-Knodel set: the composite n > i with lambda(n) | n - i."""
    if i < 1:
        raise DomainError(f"is_knodel requires i >= 1, got {i}")
    return _LambdaSet(1, -i, i + 1, True)  # composite=True; by position, as keywords build slower


def _gen_carmichael(k: int) -> _LambdaSet:
    """Korselt's form of C_k: the squarefree n with n, n + k >= 2 and lambda(n) | n + k - 1."""
    return _LambdaSet(1, k - 1, max(2, 2 - k), False, True)  # squarefree=True


def _rdu_one(k: int) -> _LambdaSet:
    """The n with rdu_k(n) = 1, that is lambda(n) | k."""
    if k < 1:
        raise DomainError(f"the rdu-one predicate requires K >= 1, got {k}")
    return _LambdaSet(0, k, 1)


_CARMICHAEL = _knodel(1)  # lambda(n) is even for n >= 3, so only odd n are 1-Knodel


def _lambda_set(name: str) -> _LambdaSet:
    """The set oeis-check calls ``name``, built by its family's constructor."""
    base, _, text = name.partition(":")
    if base == "carmichael":
        if text:
            raise DomainError("the carmichael predicate takes no parameter")
        return _CARMICHAEL
    families = {"knodel": _knodel, "gen-carmichael": _gen_carmichael, "rdu-one": _rdu_one}
    if base not in families:
        raise DomainError(f"unknown predicate {name!r}; expected {_PREDICATE_HELP}")
    parameter = _read_int(text, "predicate parameter")
    if parameter is None:
        raise DomainError(f"predicate {name!r} needs an integer parameter")
    return families[base](parameter)


def _predicate(name: str, top: int, *, bound: int = SUPPORTED_BOUND) -> frozenset[int]:
    """The members in [1, top] of the named set, from at most one sweep after the name is checked.

    ``failure`` decides n = 1 and 2, and the sweep [3, top], where lambda(n)
    is even: only the odd n when the offset is odd, and no n when the slope
    is even too.  An odd slope with an even offset, whose odd n >= 3 are
    all out, is still sieved in full."""
    s = _lambda_set(name)
    members = {n for n in (1, 2) if n <= top and s.failure(n) is None}
    lo = max(s.least, 3)
    odd_offset = s.offset % 2 == 1
    if lo <= top and not (odd_offset and s.slope % 2 == 0):
        rule = ExponentRule("poly", (s.offset, s.slope))
        filters = {
            "composite_only": s.composite,
            "odd_only": odd_offset,
            "squarefree_only": s.squarefree,
        }
        members.update(sweep(lo, top, rule, **filters, bound=bound).hits)
    return frozenset(members)


@dataclass(frozen=True)
class ClassificationReport:
    """Per-n classifier verdicts with the factorization used as evidence."""

    n: int
    is_composite: bool
    fermat_liar_count: int | None
    carmichael: bool
    knodel_for: tuple[tuple[int, bool], ...]
    gen_carmichael_for: tuple[tuple[int, bool], ...]
    evidence: Factorization
    carmichael_reason: str | None = field(default=None, compare=False)


def classify(
    n: Factorization | int,
    *,
    liars: bool = False,
    knodel_indices: tuple[int, ...] = (),
    gen_carmichael_ks: tuple[int, ...] = (),
) -> ClassificationReport:
    """Assemble the requested classifier verdicts for n into one report.

    Each verdict, and Korselt's reason, is ``_LambdaSet.failure`` of its set
    on the one factorization of n and the one lambda(n)."""
    if _value(n) < 1:
        raise DomainError(f"classify requires n >= 1, got {_value(n)}")
    knodel = [(i, _knodel(i)) for i in knodel_indices]
    gen_carmichael = [(k, _gen_carmichael(k)) for k in gen_carmichael_ks]
    f = _as_factorization(n)
    liar_count = count_fermat_liars(f) if liars and f.n % 2 and f.n >= 3 else None
    lam = carmichael_lambda(f)
    reason = _korselt_reason(_CARMICHAEL.failure(f, lam), f.n)
    return ClassificationReport(
        n=f.n,
        is_composite=f.is_composite,
        fermat_liar_count=liar_count,
        carmichael=reason is None,
        knodel_for=tuple((i, s.failure(f, lam) is None) for i, s in knodel),
        gen_carmichael_for=tuple((k, s.failure(f, lam) is None) for k, s in gen_carmichael),
        evidence=f,
        carmichael_reason=reason,
    )
