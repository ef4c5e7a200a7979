"""The range layer: lambda_range and the sweep built on it, against the point path."""

import functools
import importlib
import random
import time
import tracemalloc
from math import isqrt, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kunits import (
    RANGE_BOUND,
    CapabilityError,
    DomainError,
    carmichael_lambda,
    classify,
    factorize,
    is_prime,
    is_rdu_one,
    lambda_range,
    parse_rule,
    sweep,
)
from kunits import arith, unitgroup
from kunits.classify import _lambda_set, _predicate
from kunits.cli import main
from kunits.unitgroup import _SEGMENT, _STRIDE_LIMIT, _primes_below

from oracles import (
    brute_gen_carmichael,
    brute_is_prime,
    brute_korselt,
    brute_rdu_is_one,
    brute_unit_exponent,
)

SEMIPRIME_ABOVE_2_32 = 65537 * 65539
# The two least primes above 2**24, the sieve's largest prime: their product,
# just above 2**48, is a cofactor the sieve leaves to factorize's splitting path.
SEMIPRIME_ABOVE_2_48 = 16777259 * 16777289
# The two least primes above 2**24 whose p - 1 has a prime factor above 2**16
SEMIPRIME_ABOVE_2_48_PAST_PM1 = 16777291 * 16777331
# Divisors whose least multiple above 2**63 puts sparse prime powers in an object segment
DIVISORS_ABOVE_2_63 = [131**2 * 263, 131**3 * 137, 127**2 * 131 * 137]


def above_2_63(divisor):
    """The least multiple of divisor at or above 2**63."""
    return -(-(2**63) // divisor) * divisor


def sieved(lo, hi, odd_only=False):
    """(n, lambda(n), squarefree, composite) for each n, from lambda_range."""
    rows = []
    for segment in lambda_range(lo, hi, odd_only=odd_only):
        assert len(segment.n) <= _SEGMENT
        rows += zip(*(column.tolist() for column in segment))
    return rows


def odd_rows(rows):
    return [row for row in rows if row[0] % 2]


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

    def test_semiprime_above_2_32_is_sieved(self):
        n = SEMIPRIME_ABOVE_2_32
        assert factorize(n).factors == ((65537, 1), (65539, 1))
        rows = sieved(n - 150, n + 150)
        assert rows == factored(n - 150, n + 150)
        assert (n, 65536 * 65538 // 2, True, True) in rows

    def test_window_above_2_40_skips_trial_division(self, monkeypatch):
        # The sieve has taken out every prime up to isqrt(hi) = 2**20, so each
        # cofactor is 1 or a prime, and factorize is never entered.
        lo, hi = 2**40, 2**40 + _SEGMENT - 1
        expected = factored(lo, hi)

        def refuse():
            raise AssertionError("trial division was entered")

        monkeypatch.setattr(arith, "_prime_blocks", refuse)
        assert sieved(lo, hi) == expected

    def test_window_above_2_40_takes_no_rho(self, monkeypatch):
        lo, hi = 2**40, 2**40 + _SEGMENT - 1
        expected = factored(lo, hi)

        def refuse(*args):
            raise AssertionError("rho was entered")

        monkeypatch.setattr(arith, "_brent_cycle", refuse)
        assert sieved(lo, hi) == expected

    def test_cofactor_above_the_largest_sieving_prime_squared_is_split(self, monkeypatch):
        n = SEMIPRIME_ABOVE_2_48
        expected = factored(n - 100, n + 100)
        calls = []
        real = arith._split

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(arith, "_split", counted)
        rows = sieved(n - 100, n + 100)
        assert rows == expected
        assert (n, lcm(16777258, 16777288), True, True) in rows
        assert calls

    def test_cofactor_that_p_minus_1_misses_takes_the_first_ecm_curve(self, monkeypatch):
        # 16777290 = 2 * 3 * 5 * 559243 and 16777330 = 2 * 5 * 1677733: each p - 1 has a
        # prime above 2**16, so p - 1 leaves this cofactor to ECM, whose first curve splits it
        # before the Brent run is reached
        n = SEMIPRIME_ABOVE_2_48_PAST_PM1
        expected = factored(n - 100, n + 100)
        steps = []
        brent, curve = arith._brent_cycle, arith._ecm_curve

        def run(m, budget):
            steps.append(("rho", m, brent(m, budget)))
            return steps[-1][-1]

        def ran(m, sigma, plan):
            steps.append(("ecm", m, sigma, curve(m, sigma, plan)))
            return steps[-1][-1]

        monkeypatch.setattr(arith, "_brent_cycle", run)
        monkeypatch.setattr(arith, "_ecm_curve", ran)
        rows = sieved(n - 100, n + 100)
        assert rows == expected
        assert (n, lcm(16777290, 16777330), True, True) in rows
        assert steps == [("ecm", n, 6, 16777291)]

    @pytest.mark.parametrize(
        "n, lam, squarefree",
        [
            # 131^2 * 263 with 263 - 1 = 2 * 131: the sparse square keeps an lcm
            (4513343, 17030, False),
            # 131 * 137: two sparse primes at the same level
            (17947, 8840, True),
        ],
    )
    def test_sparse_prime_traps(self, n, lam, squarefree):
        rows = sieved(n - 300, n + 300)
        assert rows == factored(n - 300, n + 300)
        assert (n, lam, squarefree, True) in rows

    @pytest.mark.parametrize("divisor", DIVISORS_ABOVE_2_63)
    def test_sparse_powers_above_2_63(self, divisor):
        n = above_2_63(divisor)
        segments = list(lambda_range(n - 10, n + 10))
        assert segments[0].n.dtype == object
        assert sieved(n - 10, n + 10) == factored(n - 10, n + 10)

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

    def test_rho_refusal_names_the_n_sieved(self, monkeypatch, capsys):
        # the sieve takes out 3 and leaves the cofactor 536870923 * 536870951 to rho
        n = 3 * 536870923 * 536870951
        monkeypatch.setattr(arith, "_WORK_CAP", 768)
        named = f"cofactor 288230402995257773 of {n} after 765 of 768 modular multiplications"
        for call in (lambda: list(lambda_range(n, n)), lambda: sweep(n, n, parse_rule("n-1"))):
            with pytest.raises(CapabilityError, match=named) as refused:
                call()
            assert (refused.value.limit, refused.value.used) == (768, 765)
        code = main(["sweep", "--from", str(n), "--to", str(n), "--rule", "n-1"])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert named in err

    def test_one_budget_covers_the_whole_range(self, monkeypatch):
        # the 365 cofactors of this window take at most 111,271 modular multiplications each
        # and 1,629,792 in all: each fits in 2**18, their total does not
        monkeypatch.setattr(arith, "_WORK_CAP", 1 << 18)
        with pytest.raises(CapabilityError, match="the limit is the cap per call") as refused:
            list(lambda_range(2**62, 2**62 + 1023))
        assert refused.value.limit == 1 << 18
        assert 0 < refused.value.used <= refused.value.limit
        with pytest.raises(CapabilityError) as refused:
            sweep(2**62, 2**62 + 1023, parse_rule("n-1"))
        assert 0 < refused.value.used <= refused.value.limit == 1 << 18

    def test_factors_that_do_not_multiply_back_are_refused(self, monkeypatch):
        # one prime power moved to the next n: the segment's check refuses it, never a wrong lambda
        real = unitgroup._gathered_multiples

        def shifted(*args):
            index, *rest = real(*args)
            index = index.copy()
            index[0] += 1
            return (index, *rest)

        monkeypatch.setattr(unitgroup, "_gathered_multiples", shifted)
        with pytest.raises(ArithmeticError) as refused:
            list(lambda_range(1, 20000))
        assert str(refused.value) == "sieve factors do not multiply back on [1, 16384]"

    def test_range_bound_is_refused_before_iteration(self):
        with pytest.raises(CapabilityError, match="range bound"):
            lambda_range(1, RANGE_BOUND + 1)
        with pytest.raises(CapabilityError, match="range bound"):
            lambda_range(2**64, 2**64 + RANGE_BOUND, odd_only=True)
        # the bound counts n, not how high they are; the opt-in sweep to 1e8 stays under it
        lambda_range(1, RANGE_BOUND)
        lambda_range(2**64, 2**64 + RANGE_BOUND - 1)
        lambda_range(3, 10**8, odd_only=True)


class TestPrimeSieve:
    """lambda_range reads its primes from one cached sieve, below the least power of 2 at or past L."""

    def test_primes_below_2_16_match_the_trial_division_primes(self):
        # two independent sieves
        assert _primes_below(16).tolist() == list(arith._small_primes())

    def test_primes_below_2_24(self, sympy):
        primes = _primes_below(24)
        assert primes.dtype == np.int64
        assert len(primes) == 1077871 and primes[-1] == 16777213
        head = primes[: 2**16].tolist()
        assert head == list(sympy.primerange(2, head[-1] + 1))

    @pytest.mark.parametrize("hi, bits", [(2**32 - 1, 16), (2**32 + 5, 24), (2**20 - 1, 10)])
    def test_the_cached_primes_are_read_only(self, hi, bits):
        # every call shares the one array, so no caller can write to it
        primes = _primes_below(bits)
        with pytest.raises(ValueError, match="read-only"):
            primes[0] = 4
        with pytest.raises(ValueError, match="read-only"):
            primes[1:3] += 1  # nor through a view
        assert primes[:3].tolist() == [2, 3, 5]
        assert sieved(hi - 300, hi) == factored(hi - 300, hi)

    def test_the_other_cached_tables_are_read_only(self):
        # the lcm tables of the strided folds and the digit tables of the decimal writer are
        # shared by every call as well
        import kunits.cli as cli_module

        tables = [unitgroup._lcm_table(r) for r in (2, 12, 180)] + [*cli_module._digit_tables()]
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 7
            with pytest.raises(ValueError, match="read-only"):
                table[1:3] += 1  # nor through a view
        assert unitgroup._lcm_table(12).tolist() == [1, 12, 6, 4, 3, 12, 2, 12, 3, 4, 6, 12]
        assert sieved(3, 10**4) == factored(3, 10**4)

    # hi = 2**48 + 2**25 has L = 2**24, the cap, and reads the table below 2**24, not 2**25
    TABLES = [(2**32 - 1, 16), (2**32 + 5, 16), (2**40 + 5, 20), (2**48 + 2**25, 24)]
    TABLES += [(1, 2), (3, 2), (4, 2), (8, 2), (9, 2), (25, 3)]

    @pytest.mark.parametrize("hi, bits", TABLES)
    def test_one_table_of_the_least_size_that_holds_the_primes_up_to_L(self, monkeypatch, hi, bits):
        # L = min(isqrt(hi), 2**24); 2**b >= L is never prime, so the table below it holds them all
        limit = min(isqrt(hi), 2**24)
        assert bits == max(2, (limit - 1).bit_length())
        asked = []

        def recorded(b):
            asked.append(b)
            return _primes_below(b)

        monkeypatch.setattr(unitgroup, "_primes_below", recorded)
        lo = max(1, hi - 300)
        expected = factored(lo, hi)
        assert sieved(lo, hi) == expected
        assert sieved(lo, hi, odd_only=True) == odd_rows(expected)
        assert asked == [bits, bits]


@pytest.mark.parametrize("odd_only", [False, True])
def test_one_call_straddles_2_63(monkeypatch, odd_only):
    # segments of 16 n: the int64 ones below 2**63 and the object ones above
    # read the gathered powers and sparse primes built once for their dtype
    monkeypatch.setattr(unitgroup, "_SEGMENT", 16)
    lo, hi = 2**63 - 40, 2**63 + 40
    segments = list(lambda_range(lo, hi, odd_only=odd_only))
    dtypes = [segment.n.dtype for segment in segments]
    switch = dtypes.index(np.dtype(object))
    assert 0 < switch and set(dtypes[:switch]) == {np.dtype(np.int64)}
    assert set(dtypes[switch:]) == {np.dtype(object)}
    rows = [row for segment in segments for row in zip(*(column.tolist() for column in segment))]
    expected = factored(lo, hi)
    assert rows == (odd_rows(expected) if odd_only else expected)


# (p, e) for every prime power p^e the sieve strides rather than gathers
STRIDED = [
    (p, e) for p in range(2, _STRIDE_LIMIT + 1) if brute_is_prime(p) for e in range(1, 8) if p**e <= _STRIDE_LIMIT
]


def cofactor_trap(p, e, floor):
    """(q * r, r) for q = p^e and the least prime r > floor with r = 1 (mod q * p):
    r is the cofactor, and r - 1 holds more of p than lambda(q) does."""
    m = p ** (e + 1)
    r = (floor // m + 1) * m + 1
    while not is_prime(r):
        r += m
    return p**e * r, r


class TestCofactorTraps:
    """lambda starts from the cofactor r, whose r - 1 may already hold any part of p."""

    @pytest.mark.parametrize("floor", [1000, 2**32])
    @pytest.mark.parametrize("p, e", STRIDED, ids=[f"{p}^{e}" for p, e in STRIDED])
    def test_strided_power_times_a_cofactor_with_more_of_p(self, p, e, floor):
        n, r = cofactor_trap(p, e, floor)
        assert factorize(n).factors == ((p, e), (r, 1))
        expected = factored(n - 20, n + 20)
        rows = sieved(n - 20, n + 20)
        assert rows == expected
        assert (n, lcm(brute_unit_exponent(p**e), r - 1), e == 1, True) in rows
        if p > 2:
            assert sieved(n - 20, n + 20, odd_only=True) == odd_rows(expected)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _seeded_windows():
    """[1, 2**16] and one window of 256 n at each of 20, 34, 40, 50 and 63 bits."""
    rng = random.Random(16)
    windows = [(1, 2**16)]
    for bits in (20, 34, 40, 50, 63):
        lo = rng.randrange(2 ** (bits - 1), 2**bits - 256)
        windows.append((lo, lo + 255))
    return windows


@pytest.mark.parametrize("lo, hi", _seeded_windows())
def test_matches_the_point_path_on_seeded_windows(lo, hi):
    rows = sieved(lo, hi)
    assert rows == factored(lo, hi)
    sympy = pytest.importorskip("sympy")
    # sympy takes 6 s for all of [1, 2**16]; its first 2**12 suffice
    checked = range(lo, min(hi, lo + 2**12) + 1)
    lams = [lam for _, lam, _, _ in rows[: len(checked)]]
    assert lams == [int(sympy.reduced_totient(n)) for n in checked]


@given(st.integers(1, 10**12), st.integers(0, 40))
@settings(max_examples=80, deadline=None)
def test_lambda_matches_sympy_reduced_totient(sympy, lo, width):
    expected = [
        (n, int(sympy.reduced_totient(n)), n > 1 and not sympy.isprime(n)) for n in range(lo, lo + width + 1)
    ]
    rows = sieved(lo, lo + width)
    assert [(n, lam, c) for n, lam, _, c in rows] == expected
    rows = sieved(lo, lo + width, odd_only=True)
    assert [(n, lam, c) for n, lam, _, c in rows] == odd_rows(expected)


def _odd_only_windows():
    """Windows whose odd rows the odd-only sieve must give back."""
    n = SEMIPRIME_ABOVE_2_32
    return [
        *_seeded_windows(),
        (2**40, 2**40 + _SEGMENT - 1),
        *((above_2_63(d) - 10, above_2_63(d) + 10) for d in DIVISORS_ABOVE_2_63),
        (3 * _SEGMENT - 5, 5 * _SEGMENT + 3),  # an odd lo, two odd-only segments
        (3 * _SEGMENT - 4, 5 * _SEGMENT + 3),  # an even lo
        (n - 150, n + 150),
        (1, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (10, 11),
        (2**63 - 1, 2**63),
    ]


class TestOddOnly:
    """lambda_range(..., odd_only=True) holds the odd rows of the full sieve."""

    @pytest.mark.parametrize("lo, hi", _odd_only_windows())
    def test_matches_the_odd_rows_of_the_full_sieve(self, lo, hi):
        rows = sieved(lo, hi, odd_only=True)
        assert rows == odd_rows(sieved(lo, hi))
        assert len(rows) == len(range(lo | 1, hi + 1, 2))

    def test_segments_hold_2_14_consecutive_odd_n(self):
        lo, hi = 3 * _SEGMENT - 5, 5 * _SEGMENT + 3
        segments = list(lambda_range(lo, hi, odd_only=True))
        assert [len(s.n) for s in segments] == [_SEGMENT, 5]
        assert segments[0].n[0] == lo and segments[1].n[0] == lo + 2 * _SEGMENT
        assert all((np.diff(s.n) == 2).all() for s in segments)

    def test_even_lo_equal_to_hi_gives_no_segment(self):
        assert list(lambda_range(2, 2, odd_only=True)) == []
        assert list(lambda_range(2**64, 2**64, odd_only=True)) == []


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

    @pytest.mark.slow
    def test_pinch_carmichael_count_to_10_8_in_bounded_memory(self):
        # Pinch, "The Carmichael numbers up to 10^21": C(10^8) = 255.  The
        # sieve holds one segment at a time: its peak stays far below the
        # 800 MB of one int64 per n.
        started = time.perf_counter()
        tracemalloc.start()
        try:
            hits = sweep(3, 10**8, parse_rule("n-1"), composite_only=True, odd_only=True).hits
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(f"C(10^8) in {time.perf_counter() - started:.1f} s, peak {peak / 2**20:.2f} MiB")
        assert len(hits) == 255
        assert hits[:3] == (561, 1105, 1729)
        assert hits[-1] == 99861985
        assert peak < 4 * 2**20

    @pytest.mark.slow
    def test_pinch_carmichael_count_to_10_9(self):
        # Pinch, "The Carmichael numbers up to 10^21": C(10^9) = 646, at the range bound.
        # About a minute of CPU, holding one segment at a time.
        hits = sweep(3, 10**9, parse_rule("n-1"), composite_only=True, odd_only=True).hits
        assert len(hits) == 646
        assert hits[:3] == (561, 1105, 1729)
        assert hits[-1] == 993905641

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


def _knodel(i):
    return lambda n: n > i and not brute_is_prime(n) and brute_rdu_is_one(n, n - i)


# The sets whose offset is odd, so that no even n >= 3 is a member.
ODD_OFFSET_ORACLES = {
    "carmichael": brute_korselt,
    "knodel:1": _knodel(1),
    "knodel:3": _knodel(3),
    "gen-carmichael:0": lambda n: brute_gen_carmichael(n, 0),
    "gen-carmichael:2": lambda n: brute_gen_carmichael(n, 2),
    "gen-carmichael:-2": lambda n: brute_gen_carmichael(n, -2),
    "rdu-one:7": lambda n: brute_rdu_is_one(n, 7),
}


@functools.cache
def _brute_members(name, top=3000):
    return frozenset(n for n in range(1, top + 1) if ODD_OFFSET_ORACLES[name](n))


class TestPredicateOnOddN:
    """_predicate sieves the odd n only for a set whose offset is odd, and decides n = 2 alone."""

    @pytest.mark.parametrize("top", [0, 1, 2, 3, 3000])
    @pytest.mark.parametrize("name", ODD_OFFSET_ORACLES)
    def test_matches_the_brute_force_oracle(self, name, top):
        assert _predicate(name, top) == {n for n in _brute_members(name) if n <= top}

    @pytest.mark.parametrize(
        "name, odd_only",
        [
            ("carmichael", True),
            ("knodel:1", True),
            ("gen-carmichael:0", True),
            ("knodel:2", False),
            ("rdu-one:720", False),
        ],
    )
    def test_asks_the_sieve_for_odd_n_exactly_when_the_offset_is_odd(self, monkeypatch, name, odd_only):
        module = importlib.import_module("kunits.classify")
        real, asked = module.lambda_range, []

        def recorded(*args, **kwargs):
            asked.append(kwargs.get("odd_only", False))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "lambda_range", recorded)
        _predicate(name, 1000)
        assert asked == [odd_only]

    @pytest.mark.parametrize("top", [0, 1, 2, 3, 10**6])
    @pytest.mark.parametrize("k", [1, 3, 15, 720721])
    def test_odd_constant_exponent_sieves_no_n_above_2(self, monkeypatch, k, top):
        # e(n) = k is odd at every n, and lambda(n) is even from 3 on
        module = importlib.import_module("kunits.classify")
        real, asked = module.lambda_range, []

        def recorded(lo, hi, **kwargs):
            asked.append(hi)
            return real(lo, hi, **kwargs)

        monkeypatch.setattr(module, "lambda_range", recorded)
        assert _predicate(f"rdu-one:{k}", top) == {1, 2} & set(range(1, top + 1))
        assert all(hi <= 2 for hi in asked)


POINT_SETS = [
    "carmichael",
    *(f"knodel:{i}" for i in range(1, 7)),
    *(f"gen-carmichael:{k}" for k in range(-6, 7)),
    *(f"rdu-one:{k}" for k in (*range(1, 13), 720)),
]


def test_every_point_set_name_parses_to_the_set_its_constructor_builds():
    module = importlib.import_module("kunits.classify")
    constructed = {
        "carmichael": module._CARMICHAEL,
        **{f"knodel:{i}": module._knodel(i) for i in range(1, 7)},
        **{f"gen-carmichael:{k}": module._gen_carmichael(k) for k in range(-6, 7)},
        **{f"rdu-one:{k}": module._rdu_one(k) for k in (*range(1, 13), 720)},
    }
    assert sorted(constructed) == sorted(POINT_SETS)
    for name in POINT_SETS:
        assert _lambda_set(name) == constructed[name], name


@functools.cache
def _point_members(name, top=1000):
    s = _lambda_set(name)
    return frozenset(n for n in range(1, top + 1) if s.failure(n, n) is None)


@pytest.mark.parametrize("top", [0, 1, 2, 3, 4, 1000])
@pytest.mark.parametrize("name", POINT_SETS)
def test_predicate_matches_the_point_verdicts(name, top):
    # every parity of slope and offset, and the tops where n = 1 and n = 2 are decided alone
    assert _predicate(name, top) == {n for n in _point_members(name) if n <= top}
