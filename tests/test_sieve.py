"""The range layer: lambda_range and the sweep built on it, against the point path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kunits import (
    DomainError,
    carmichael_lambda,
    classify,
    factorize,
    is_rdu_one,
    lambda_range,
    parse_rule,
    sweep,
)
from kunits import arith
from kunits.classify import _predicate
from kunits.unitgroup import _SEGMENT

from oracles import brute_gen_carmichael, brute_is_prime, brute_rdu_is_one, brute_unit_exponent

SEMIPRIME_ABOVE_2_32 = 65537 * 65539


def sieved(lo, hi):
    """(n, lambda(n), squarefree, composite) for each n, from lambda_range."""
    rows = []
    for segment in lambda_range(lo, hi):
        assert len(segment.n) <= _SEGMENT
        rows += zip(*(column.tolist() for column in segment))
    return rows


def factored(lo, hi):
    """The same rows from factorize, n by n."""
    rows = []
    for n in range(lo, hi + 1):
        f = factorize(n)
        rows.append((n, carmichael_lambda(f), f.is_squarefree, f.is_composite))
    return rows


def point_sweep(lo, hi, rule, composite_only=False, odd_only=False):
    """The sweep n by n: factorize, then is_rdu_one at the rule's exponent."""
    hits, skipped = [], []
    for n in range(lo, hi + 1):
        if odd_only and n % 2 == 0:
            continue
        if composite_only and not factorize(n).is_composite:
            continue
        e = rule(n)
        if e < 1:
            skipped.append(n)
        elif is_rdu_one(n, e):
            hits.append(n)
    return tuple(hits), tuple(skipped)


class TestCarmichaelLambda:
    def test_small_values(self):
        expected = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 8: 2, 16: 4, 32: 8, 15: 4, 24: 2, 561: 80}
        for n, lam in expected.items():
            assert carmichael_lambda(n) == lam, n

    def test_matches_the_unit_orders_by_brute_force(self):
        for n in range(1, 200):
            assert carmichael_lambda(n) == brute_unit_exponent(n), n

    def test_accepts_a_factorization(self):
        assert carmichael_lambda(factorize(2**7 * 3**3 * 7)) == carmichael_lambda(2**7 * 3**3 * 7) == 288

    def test_divides_k_exactly_when_rdu_is_one(self):
        for n in range(1, 400):
            for k in (1, 2, 4, 6, 10, 12, 24, 60, 720):
                assert (k % carmichael_lambda(n) == 0) == brute_rdu_is_one(n, k), (n, k)


class TestLambdaRange:
    def test_matches_factorize_to_20000(self):
        assert sieved(1, 20000) == factored(1, 20000)

    @pytest.mark.parametrize(
        "lo,hi",
        [
            (_SEGMENT - 37, _SEGMENT + 50),
            (3 * _SEGMENT - 5, 5 * _SEGMENT + 3),
            (12345, 12345),
            (1, 1),
            (2, 3),
        ],
    )
    def test_unaligned_windows(self, lo, hi):
        assert sieved(lo, hi) == factored(lo, hi)

    def test_composite_cofactor_above_2_32_takes_rho(self):
        n = SEMIPRIME_ABOVE_2_32
        assert factorize(n).factors == ((65537, 1), (65539, 1))
        rows = sieved(n - 150, n + 150)
        assert rows == factored(n - 150, n + 150)
        assert (n, 65536 * 65538 // 2, True, True) in rows

    def test_window_above_2_40_skips_trial_division(self, monkeypatch):
        # The sieve has taken out every prime below 2**16, so its cofactors
        # go straight to certification and rho.
        lo, hi = 2**40, 2**40 + _SEGMENT - 1
        expected = factored(lo, hi)

        def refuse():
            raise AssertionError("trial division was entered")

        monkeypatch.setattr(arith, "_prime_blocks", refuse)
        assert sieved(lo, hi) == expected

    def test_square_of_a_prime_above_2_16(self):
        n = 65537**2
        rows = sieved(n - 20, n + 20)
        assert rows == factored(n - 20, n + 20)
        assert (n, 65536 * 65537, False, True) in rows

    def test_window_above_2_63_uses_python_ints(self):
        lo, hi = 2**63 - 30, 2**63 + 30
        segments = list(lambda_range(lo, hi))
        assert segments[0].n.dtype == object
        assert sieved(lo, hi) == factored(lo, hi)
        assert next(lambda_range(lo, 2**63 - 1)).n.dtype == np.int64

    def test_bad_range_is_refused_before_iteration(self):
        with pytest.raises(DomainError):
            lambda_range(0, 5)
        with pytest.raises(DomainError):
            lambda_range(10, 9)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@given(st.integers(1, 10**12), st.integers(0, 40))
@settings(max_examples=80, deadline=None)
def test_lambda_matches_sympy_reduced_totient(sympy, lo, width):
    rows = sieved(lo, lo + width)
    assert [lam for _, lam, _, _ in rows] == [int(sympy.reduced_totient(n)) for n in range(lo, lo + width + 1)]
    assert [c for *_, c in rows] == [n > 1 and not sympy.isprime(n) for n in range(lo, lo + width + 1)]


class TestSweepOnTheSieve:
    @pytest.mark.parametrize("rule", ["n-1", "n", "const:12", "n+3", "2*n-1", "poly:-7,0,1", "poly:50,-1"])
    @pytest.mark.parametrize("composite_only,odd_only", [(False, False), (True, False), (True, True)])
    def test_matches_the_point_path_across_a_segment_boundary(self, rule, composite_only, odd_only):
        args = _SEGMENT - 700, _SEGMENT + 300, parse_rule(rule)
        result = sweep(*args, composite_only=composite_only, odd_only=odd_only)
        assert (result.hits, result.skipped) == point_sweep(*args, composite_only, odd_only)

    def test_matches_the_point_path_above_2_32(self):
        n = SEMIPRIME_ABOVE_2_32
        args = n - 300, n + 300, parse_rule("n-1")
        result = sweep(*args)
        assert (result.hits, result.skipped) == point_sweep(*args)

    def test_matches_the_point_path_above_2_63(self):
        args = 2**63 - 30, 2**63 + 30, parse_rule("n+1")
        result = sweep(*args, odd_only=True)
        assert (result.hits, result.skipped) == point_sweep(*args, odd_only=True)

    def test_cubic_rule_leaves_int64(self):
        rule = parse_rule("poly:0,0,0,1")
        lo, hi = 2**21, 2**21 + 2000
        assert rule(lo) >= 2**63
        assert rule.over(np.arange(lo, hi + 1, dtype=np.int64)).dtype == object
        result = sweep(lo, hi, rule)
        assert result.hits == tuple(n for n in range(lo, hi + 1) if is_rdu_one(n, rule(n)))
        assert result.hits  # e.g. every prime p with p - 1 | p^3

    def test_rule_values_in_int64_match_the_scalar_rule(self):
        n = np.arange(1, 5000, dtype=np.int64)
        for text in ("n-1", "3*n+2", "poly:-7,0,1", "poly:50,-1", "const:9"):
            rule = parse_rule(text)
            values = rule.over(n)
            assert values.dtype == np.int64
            assert values.tolist() == [rule(m) for m in range(1, 5000)]

    def test_pinch_carmichael_count_to_10_6(self):
        # Pinch, "The Carmichael numbers up to 10^21": C(10^6) = 43.
        hits = sweep(3, 10**6, parse_rule("n-1"), composite_only=True, odd_only=True).hits
        assert len(hits) == 43
        assert hits[:5] == (561, 1105, 1729, 2465, 2821)
        assert hits[-1] == 997633


class TestGeneralizedCarmichaelSieve:
    """oeis-check's C_K: n squarefree with lambda(n) | n + K - 1, by Korselt."""

    @pytest.mark.parametrize("k", range(-5, 6))
    def test_matches_the_brute_force_oracle(self, k):
        members = _predicate(f"gen-carmichael:{k}", 3000)
        assert members == {n for n in range(1, 3001) if brute_gen_carmichael(n, k)}
        # classify's point verdict reads the same definition
        verdicts = {n for n in range(1, 3001) if classify(n, gen_carmichael_ks=(k,)).gen_carmichael_for[0][1]}
        assert verdicts == members

    def test_c0_across_a_segment_boundary(self):
        lo, hi = 15800, 17000
        assert lo < 2 + _SEGMENT < hi  # the C_0 sieve starts at n = 2
        members = {n for n in _predicate("gen-carmichael:0", hi) if n >= lo}
        primes = {n for n in range(lo, hi + 1) if brute_is_prime(n)}
        carmichael = {n for n in range(lo, hi + 1) if not brute_is_prime(n) and brute_rdu_is_one(n, n - 1)}
        assert carmichael == {15841}
        assert members == primes | carmichael
