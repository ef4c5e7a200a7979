"""k-units modulo n.

A unit a of Z_n is a k-unit when a^k = 1.  This package computes the
k-unit census (du, pdu, rdu) in closed form from the cyclic decomposition
of U(Z_n), solves rdu_k(n) = 1 completely for any fixed k, classifies
integers as Carmichael / i-Knodel / generalized-Carmichael numbers, and
ships the brute-force oracles every closed form is verified against.
"""

from .arith import (
    SUPPORTED_BOUND,
    Factorization,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    nu,
    pow_mod,
)
from .bfile import BFile, BFileParseError, ComparisonReport, compare_bfile
from .classify import (
    BRUTE_FORCE_BOUND,
    ClassificationReport,
    ExponentRule,
    SweepResult,
    SweepSpec,
    classify,
    count_fermat_liars,
    is_carmichael,
    is_generalized_carmichael,
    is_knodel,
    korselt_failure,
    parse_rule,
    sweep,
)
from .errors import CapabilityError, DomainError
from .solver import (
    SOLUTION_CAP,
    RduOneSolution,
    check_korselt_general,
    enumerate_rdu_one_solutions,
    is_rdu_one,
    solve_rdu_one,
)
from .unitgroup import (
    ENUMERATION_BOUND,
    CyclicDecomposition,
    KUnitStats,
    LambdaSegment,
    carmichael_lambda,
    du_k_product,
    enumerate_k_units,
    is_rdu_one_product,
    k_unit_stats,
    lambda_range,
    unit_group_structure,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SUPPORTED_BOUND",
    "ENUMERATION_BOUND",
    "SOLUTION_CAP",
    "BRUTE_FORCE_BOUND",
    "DomainError",
    "CapabilityError",
    "Factorization",
    "is_prime",
    "factorize",
    "euler_phi",
    "nu",
    "divisors",
    "pow_mod",
    "CyclicDecomposition",
    "KUnitStats",
    "unit_group_structure",
    "carmichael_lambda",
    "LambdaSegment",
    "lambda_range",
    "du_k_product",
    "k_unit_stats",
    "enumerate_k_units",
    "is_rdu_one_product",
    "RduOneSolution",
    "solve_rdu_one",
    "enumerate_rdu_one_solutions",
    "is_rdu_one",
    "check_korselt_general",
    "ClassificationReport",
    "ExponentRule",
    "SweepSpec",
    "SweepResult",
    "count_fermat_liars",
    "is_carmichael",
    "korselt_failure",
    "is_knodel",
    "is_generalized_carmichael",
    "classify",
    "parse_rule",
    "sweep",
    "BFile",
    "BFileParseError",
    "ComparisonReport",
    "compare_bfile",
]
