import importlib
import inspect
from fractions import Fraction

import numpy as np
import pytest

import kunits

LAYERS = ["arith", "unitgroup", "solver", "classify", "bfile", "cli"]


def test_package_names_resolve():
    for name in kunits.__all__:
        assert hasattr(kunits, name), name


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_names_resolve_and_are_reexported(layer):
    module = importlib.import_module(f"kunits.{layer}")
    for name in module.__all__:
        obj = getattr(module, name)
        if layer == "cli" and name == "main":
            continue  # the console entry point, not library API
        assert name in kunits.__all__, f"kunits.{layer}.{name} is not re-exported"
        assert getattr(kunits, name) is obj, name


def test_package_names_are_listed_once():
    assert len(kunits.__all__) == len(set(kunits.__all__))


def test_every_library_name_has_exactly_one_layer():
    own = {"__version__", "DomainError", "CapabilityError"}
    layers = [importlib.import_module(f"kunits.{layer}") for layer in LAYERS if layer != "cli"]
    for name in set(kunits.__all__) - own:
        homes = [m.__name__ for m in layers if name in m.__all__]
        assert len(homes) == 1, (name, homes)


def test_euler_phi_has_one_home():
    # phi(n) is the order of U(Z_n), so it lives beside the cyclic decomposition
    unitgroup = importlib.import_module("kunits.unitgroup")
    assert kunits.euler_phi is unitgroup.euler_phi
    assert "euler_phi" not in vars(importlib.import_module("kunits.arith"))


def test_classify_names_the_function():
    # the star import rebinds the submodule's name to its function
    assert kunits.classify is importlib.import_module("kunits.classify").classify


def test_classify_holds_no_numpy():
    # classify reads its arrays from unitgroup and names numpy only for type checkers
    module = importlib.import_module("kunits.classify")
    assert not {"np", "numpy"} & set(vars(module))


def test_arith_holds_no_numpy():
    # arith stays pure integer code, so that a cold start without numpy can import it alone
    module = importlib.import_module("kunits.arith")
    assert not {"np", "numpy"} & set(vars(module))


def test_solver_holds_nothing_of_classify():
    # the rdu = 1 set lives beside lambda in unitgroup: arith -> unitgroup -> {classify, solver}
    classify = importlib.import_module("kunits.classify")
    held = [
        name
        for name, v in vars(importlib.import_module("kunits.solver")).items()
        if v is classify or getattr(v, "__module__", None) == classify.__name__
    ]
    assert held == []


# The functions for which bound is their own decision: a refusal limit, the rho
# budget, the enumeration bound, or the rho budget of a number they factor
# themselves (k, the sieve's cofactors).  The others read n's factorization and
# take a Factorization from a caller who wants another budget.
BOUND_TAKERS = {
    "is_prime",
    "factorize",
    "enumerate_k_units",
    "is_generalized_carmichael",
    "solve_rdu_one",
    "enumerate_rdu_one_solutions",
    "lambda_range",
    "sweep",
}


def test_bound_is_a_parameter_only_where_it_is_the_functions_own():
    takers = set()
    for name in kunits.__all__:
        obj = getattr(kunits, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, Exception):
            continue  # the errors are builtin subclasses without a signature
        if "bound" in inspect.signature(obj).parameters:
            takers.add(name)
    assert takers == BOUND_TAKERS


# One call of each bound taker that is answered at a bound of 10, with only the bound to vary.
BOUND_CALLS = {
    "is_prime": lambda bound: kunits.is_prime(5, bound=bound),
    "factorize": lambda bound: kunits.factorize(5, bound=bound),
    "enumerate_k_units": lambda bound: kunits.enumerate_k_units(5, 2, bound=bound),
    "is_generalized_carmichael": lambda bound: kunits.is_generalized_carmichael(5, 1, bound=bound),
    "solve_rdu_one": lambda bound: kunits.solve_rdu_one(3, bound=bound),
    "enumerate_rdu_one_solutions": lambda bound: kunits.enumerate_rdu_one_solutions(3, bound=bound),
    "lambda_range": lambda bound: list(kunits.lambda_range(1, 5, bound=bound)),
    "sweep": lambda bound: kunits.sweep(1, 5, kunits.parse_rule("n-1"), bound=bound),
}


@pytest.mark.parametrize("name", sorted(BOUND_TAKERS))
def test_a_bound_below_1_is_a_domain_error_in_every_bound_taker(name):
    # is_generalized_carmichael(5, 1, bound=0) was a CapabilityError: n = 5 exceeds 0
    assert sorted(BOUND_CALLS) == sorted(BOUND_TAKERS)
    BOUND_CALLS[name](10)  # answered at a bound of 10
    for bound in (0, -1, np.int64(0)):
        with pytest.raises(kunits.DomainError) as excinfo:
            BOUND_CALLS[name](bound)
        assert str(excinfo.value) == f"bound must be >= 1, got {bound}"


# One call of each entry point that wrote a caller's 5001-digit number into a message in full,
# past the interpreter's int-to-str digit limit (4300 digits by default, 640 at the least), and
# what it gives now: None for an answer, else the error it raises.
HUGE = 10**5000
HUGE_CALLS = {
    "is_prime": (lambda: kunits.is_prime(HUGE), kunits.CapabilityError),
    "Factorization": (lambda: kunits.Factorization(HUGE, ((2, 1),)), kunits.DomainError),
    "divisors": (
        lambda: kunits.divisors(kunits.factorize(2**20000 * 3**100)),
        kunits.CapabilityError,
    ),
    "enumerate_k_units": (lambda: kunits.enumerate_k_units(HUGE, 2), kunits.CapabilityError),
    "lambda_range": (lambda: kunits.lambda_range(1, HUGE), kunits.CapabilityError),
    "sweep": (lambda: kunits.sweep(1, HUGE, kunits.parse_rule("n-1")), kunits.CapabilityError),
    "count_fermat_liars": (lambda: kunits.count_fermat_liars(HUGE), kunits.DomainError),
    "korselt_failure": (lambda: kunits.korselt_failure(HUGE), None),
    "classify": (lambda: kunits.classify(HUGE).carmichael_reason, None),
    "is_generalized_carmichael": (
        lambda: kunits.is_generalized_carmichael(HUGE, 0),
        kunits.CapabilityError,
    ),
    "check_korselt_general": (lambda: kunits.check_korselt_general(HUGE, 3), kunits.DomainError),
    "factorize": (lambda: kunits.factorize(Fraction(HUGE, 3)), kunits.DomainError),
}


@pytest.mark.parametrize("name", sorted(HUGE_CALLS))
def test_a_number_past_the_digit_limit_is_answered_or_refused_in_a_short_message(name):
    # a message names a value past 1024 bits by its size; CI runs this at the least digit limit
    call, error = HUGE_CALLS[name]
    if error is None:
        answer = call()
        assert len(answer) < 1024 and answer.startswith("a 16610-bit integer ")
        return
    with pytest.raises(error) as refused:
        call()
    assert len(str(refused.value)) < 1024
