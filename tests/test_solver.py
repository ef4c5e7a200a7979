import os
import random
import subprocess
import sys
from math import isqrt, lcm, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kunits
from kunits import (
    CapabilityError,
    CyclicDecomposition,
    DomainError,
    Factorization,
    check_korselt_general,
    divisors,
    du_k_product,
    enumerate_rdu_one_solutions,
    euler_phi,
    factorize,
    is_prime,
    is_rdu_one,
    k_unit_stats,
    solve_rdu_one,
)
from oracles import brute_divisors, brute_rdu_is_one, scan_k_units, smallest_divisors
from test_cli import deadline


def _wide_ks(seed: int, count: int) -> list[int]:
    """Seeded even k below 2^80 with 8 to 12 odd primes: thousands of divisors d of k,
    each d + 1 a candidate of the solver's walk."""
    rng = random.Random(seed)
    odd = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
    ks = []
    while len(ks) < count:
        k = 2 ** rng.randint(1, 4) * prod(rng.sample(odd, rng.randint(8, 12)))
        if k < 2**80:
            ks.append(k)
    return ks


class TestSolveRduOne:
    def test_k2_diagonal(self):
        sol = solve_rdu_one(2)
        assert (sol.beta, sol.m) == (1, 1)
        assert sol.set_a == (3,)
        assert sol.set_b == ()
        assert sol.n_max == 24
        assert sol.count == 8

    def test_k10(self):
        sol = solve_rdu_one(10)
        assert sol.set_a == (3, 11)
        assert sol.set_b == ()
        assert sol.n_max == 264
        assert sol.count == 16

    def test_k252(self):
        sol = solve_rdu_one(252)
        assert (sol.beta, sol.m) == (2, 63)
        assert sol.set_a == (5, 13, 19, 29, 37, 43, 127)
        assert sol.set_b == ((3, 3), (7, 2))
        assert sol.n_max == 153185861359440
        assert sol.count == 7680

    def test_odd_k(self):
        for k in (1, 3, 99, 1001):
            sol = solve_rdu_one(k)
            assert sol.k_parity == "odd"
            assert (sol.beta, sol.m) == (0, k)
            assert sol.set_a == () and sol.set_b == ()
            assert (sol.n_max, sol.count) == (2, 2)

    def test_domain(self):
        with pytest.raises(DomainError):
            solve_rdu_one(0)

    @given(st.integers(1, 5000))
    @settings(max_examples=300)
    def test_structural_invariants(self, k):
        sol = solve_rdu_one(k)
        assert sol.k == k
        assert sol.k_parity == ("even" if k % 2 == 0 else "odd")
        assert sol.m % 2 == 1
        assert (1 << sol.beta) * sol.m == k
        a_set = set(sol.set_a)
        b_primes = {q for q, _ in sol.set_b}
        assert not (a_set & b_primes)
        for p in sol.set_a:
            assert is_prime(p)
            assert sol.m % p != 0
            assert self._has_qualifying_form(p, sol.beta, sol.m)
        for q, e in sol.set_b:
            assert is_prime(q)
            assert sol.m % q == 0
            assert self._has_qualifying_form(q, sol.beta, sol.m)
            nu_q = 0
            m = sol.m
            while m % q == 0:
                m //= q
                nu_q += 1
            assert e == nu_q + 1
        if sol.k_parity == "even":
            n_max = 1 << (sol.beta + 2)
            for p in sol.set_a:
                n_max *= p
            for q, e in sol.set_b:
                n_max *= q**e
            assert sol.n_max == n_max
            count = (sol.beta + 3) * (1 << len(sol.set_a))
            for _, e in sol.set_b:
                count *= e + 1
            assert sol.count == count

    @staticmethod
    def _has_qualifying_form(p: int, beta: int, m: int) -> bool:
        # p - 1 = 2^l * d with 0 < l <= beta and d | m
        return any(
            (p - 1) % (1 << l) == 0 and m % ((p - 1) >> l) == 0
            for l in range(1, beta + 1)
            if (p - 1) >> l >= 1
        )

    def test_candidates_never_include_two(self):
        for k in range(1, 200):
            sol = solve_rdu_one(k)
            assert 2 not in sol.set_a
            assert all(q != 2 for q, _ in sol.set_b)

    def test_hard_cofactor_above_the_bound_is_refused(self):
        # c and 2c + 1 are primes just above 2**64: rho would need about
        # 2**32 steps on c * (2c + 1); its budget refuses it within seconds
        c = 18446744073709552109
        src = str(Path(kunits.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        script = (
            "from kunits import CapabilityError, solve_rdu_one\n"
            "try:\n"
            f"    solve_rdu_one({2 * c * (2 * c + 1)})\n"
            "except CapabilityError as exc:\n"
            "    print(exc)\n"
            "    print(exc.limit, exc.used)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=30
        )
        assert proc.returncode == 0, proc.stderr
        assert f"cofactor {c * (2 * c + 1)} " in proc.stdout
        assert "modular multiplications" in proc.stdout
        limit, used = map(int, proc.stdout.split("\n")[-2].split())
        assert 0 < used <= limit == 24 * isqrt(isqrt(2**64 - 1))
        # pinned: any change to how _split charges its steps moves the time of this refusal,
        # which perfbench's point_queries tail and its deadline test rest on.  The curves go
        # first and the Brent run after them takes the rest
        assert used == 1_572_631

    def test_odd_k_past_the_rho_budget_needs_no_factorization(self, monkeypatch):
        # lambda(n) is even for n >= 3, so an odd k gives n_max = 2 whatever
        # its factors: c * (2c + 1) is the cofactor factorize refuses above
        from importlib import import_module

        calls = []

        def counting(n, **kwargs):
            calls.append(n)
            return factorize(n, **kwargs)

        for name in ("arith", "solver", "unitgroup"):
            monkeypatch.setattr(import_module(f"kunits.{name}"), "factorize", counting)
        c = 18446744073709552109
        sol = solve_rdu_one(c * (2 * c + 1))
        assert (sol.n_max, sol.count) == (2, 2)
        assert calls == []

    def test_n_max_matches_the_sympy_lambda(self):
        # n_max is the product of the largest p^e with lambda(p^e) | k, and an
        # odd prime qualifies exactly when p - 1 | k; lambda from sympy
        sympy = pytest.importorskip("sympy")
        top = 2000
        primes = list(sympy.primerange(2, top + 2))
        # lambda(p^e) >= p^(e - 2), so larger e never divide k <= top
        lam = {
            p: [(e, int(sympy.reduced_totient(p**e))) for e in range(1, 14) if p ** (e - 2) <= top]
            for p in primes
        }
        for k in range(1, top + 1):
            sol = solve_rdu_one(k)
            within = [p for p in primes if p <= k + 1]
            n_max = prod(p ** max((e for e, r in lam[p] if k % r == 0), default=0) for p in within)
            assert sol.n_max == n_max, k
            odd = {p for p in within[1:] if k % (p - 1) == 0}
            assert set(sol.set_a) | {q for q, _ in sol.set_b} == odd, k

    def test_candidate_above_the_certified_limit_is_refused(self):
        # each named candidate is a prime above the Miller-Rabin limit, whatever the bound;
        # the walk is ascending, so it is the least such candidate (both checked with sympy)
        for k, least in (
            (9 * 2**81, 9 * 2**81 + 1),
            (2**200 * 3**3 * 5 * 7 * 11 * 13, 3323734347200987010170881),
        ):
            words = f"^{least} is a probable prime at or beyond the certified bound 3317044064679887385961981$"
            for bound in (kunits.SUPPORTED_BOUND, 10**30):
                with pytest.raises(CapabilityError, match=words):
                    solve_rdu_one(k, bound=bound)

    @pytest.mark.parametrize(
        "k, count",
        [
            (prod(p for p in range(2, 72) if is_prime(p)), 2**20),
            (prod(p for p in range(2, 128) if is_prime(p)), 2**31),
            (3284987174500756508784000, 1_572_864),  # below psi_13
        ],
    )
    def test_k_of_more_divisors_than_the_cap_is_refused_at_once(self, k, count):
        # the walk takes its candidates from divisors(k), which refuses the list before
        # building any of it, so no candidate is tested
        words = f"{k} has {count} divisors, above the enumeration cap {kunits.SOLUTION_CAP}"
        with deadline(5):
            with pytest.raises(CapabilityError, match=words):
                solve_rdu_one(k)
            with pytest.raises(CapabilityError, match=words):
                enumerate_rdu_one_solutions(k, limit=5)

    def test_the_divisor_cap_bounds_the_walk(self, monkeypatch):
        # 720720 = 2^4 * 3^2 * 5 * 7 * 11 * 13 has 240 divisors
        expected = solve_rdu_one(720720)
        monkeypatch.setattr(kunits.arith, "SOLUTION_CAP", 240)
        assert solve_rdu_one(720720) == expected
        monkeypatch.setattr(kunits.arith, "SOLUTION_CAP", 239)
        with pytest.raises(CapabilityError, match="720720 has 240 divisors, above the enumeration cap 239"):
            solve_rdu_one(720720)

    def test_k_past_the_candidate_cap_is_refused_before_factoring(self, monkeypatch):
        # 2**255 has candidates of up to 256 bits; 2**256 and 3 * 2**4000 would have longer ones
        assert solve_rdu_one(2**255).set_a == (3, 5, 17, 257, 65537)
        monkeypatch.setattr(kunits.solver, "factorize", None)
        for k in (2**256, 3 * 2**4000):
            with pytest.raises(CapabilityError, match=f"a k of {k.bit_length()} bits"):
                solve_rdu_one(k)
        assert solve_rdu_one(2**4000 + 1).count == 2  # an odd k has no candidates

    @pytest.mark.parametrize("k", [3 * 2**80, 2**100, *_wide_ks(33, 3)])
    def test_composite_candidates_above_the_certified_limit_are_ruled_out(self, k):
        # every candidate from psi_13 on is composite, so each k is answered; the seeded
        # k below 2^80 have no candidate that large, but thousands of divisors to walk
        sympy = pytest.importorskip("sympy")
        exponents = {
            p: max(
                e
                for e in range(1, k.bit_length() + 3)
                if p ** (e - 2) <= k and k % sympy.reduced_totient(p**e) == 0
            )
            for p in (d + 1 for d in sympy.divisors(k) if sympy.isprime(d + 1))
        }
        sol = solve_rdu_one(k)
        assert sol.n_max == prod(p**e for p, e in exponents.items())
        assert sol.count == prod(e + 1 for e in exponents.values())
        if k == 2**100:
            assert (sol.set_a, sol.count) == ((3, 5, 17, 257, 65537), 3296)

    def test_n_max_factorization_helper(self):
        for k in (1, 2, 10, 24, 252):
            sol = solve_rdu_one(k)
            f = sol.n_max_factorization()
            assert f.n == sol.n_max
            assert f.factors == factorize(sol.n_max).factors


class TestCountSolutions:
    def test_examples(self):
        assert solve_rdu_one(2).count == 8
        assert solve_rdu_one(252).count == 7680
        for k in (1, 3, 5, 77):
            assert solve_rdu_one(k).count == 2

    def test_count_is_divisor_count_of_n_max_up_to_5000(self):
        # independent route: factor n_max from scratch and multiply (e+1)
        for k in range(1, 5001):
            sol = solve_rdu_one(k)
            tau = 1
            for _, e in factorize(sol.n_max).factors:
                tau *= e + 1
            assert sol.count == tau, k


class TestEnumerateSolutions:
    def test_k2(self):
        assert enumerate_rdu_one_solutions(2) == [1, 2, 3, 4, 6, 8, 12, 24]

    def test_k1(self):
        assert enumerate_rdu_one_solutions(1) == [1, 2]

    def test_k10(self):
        sols = enumerate_rdu_one_solutions(10)
        assert len(sols) == 16
        assert sols[:7] == [1, 2, 3, 4, 6, 8, 11]
        assert sols == divisors(264)

    def test_matches_divisors_for_various_k(self):
        for k in (2, 4, 6, 12, 24, 100, 252):
            sol = solve_rdu_one(k)
            assert enumerate_rdu_one_solutions(k) == divisors(sol.n_max_factorization())

    def test_matches_brute_force_divisors_of_n_max(self):
        for k in (2, 4, 6, 10, 12):
            n_max = solve_rdu_one(k).n_max
            assert n_max <= 10**5
            assert enumerate_rdu_one_solutions(k) == brute_divisors(n_max), k

    @pytest.mark.parametrize("k", [2, 10, 252, 720])
    def test_every_limit_gives_the_prefix_of_the_divisors(self, k):
        sol = solve_rdu_one(k)
        everything = divisors(sol.n_max)
        assert len(everything) == sol.count
        for limit in (0, 1, 10, sol.count, sol.count + 1):
            assert enumerate_rdu_one_solutions(k, limit=limit) == everything[:limit], limit

    def test_limit_truncates_ascending_prefix(self):
        full = enumerate_rdu_one_solutions(252)
        assert len(full) == 7680
        assert enumerate_rdu_one_solutions(252, limit=10) == full[:10]
        assert enumerate_rdu_one_solutions(252, limit=0) == []

    def test_cap_exceeded_is_capability_error_naming_count(self):
        sol = solve_rdu_one(30030)
        assert sol.count > 10**6
        with pytest.raises(CapabilityError) as err:
            enumerate_rdu_one_solutions(30030)
        assert str(sol.count) in str(err.value)
        # a limit of at most the cap truncates the list instead
        assert enumerate_rdu_one_solutions(30030, limit=5) == [1, 2, 3, 4, 6]

    def test_limit_above_the_cap_is_refused(self, monkeypatch):
        sol = solve_rdu_one(30030)
        with pytest.raises(CapabilityError, match=str(sol.count)):
            enumerate_rdu_one_solutions(30030, limit=kunits.SOLUTION_CAP + 1)
        # the cap bounds min(limit, count), the length of the list returned
        monkeypatch.setattr(kunits.solver, "SOLUTION_CAP", 10)
        with pytest.raises(CapabilityError, match="7680"):
            enumerate_rdu_one_solutions(252, limit=11)
        assert len(enumerate_rdu_one_solutions(252, limit=10)) == 10
        assert enumerate_rdu_one_solutions(2, limit=100) == [1, 2, 3, 4, 6, 8, 12, 24]
        # a negative limit is refused first
        with pytest.raises(DomainError):
            enumerate_rdu_one_solutions(252, limit=-1)

    def test_negative_limit_rejected(self):
        with pytest.raises(DomainError):
            enumerate_rdu_one_solutions(2, limit=-1)


# perfbench's SOLVABLE_KS, two highly composite k, the int64 edge (2^61's n_max
# has the solution 2^63), a prime of n_max past 2^63 (2^64 + 13), and solutions
# past 2^63 that are products of two others past 2^63 (2^93 and 2^100)
_ENUMERATED_KS = (
    *(2, 12, 24, 252, 720, 5040, 720720),
    *(2**60, 2**61, 2**64 + 12, 2**92, 2**93, 2**100),
)


def _two_parts(k, limit):
    """_solutions of k in its two parts, each checked against 2^63."""
    low, high = kunits.solver._solutions(solve_rdu_one(k), limit)
    assert low.dtype == np.int64
    assert all(d < 2**63 for d in low.tolist()) and all(d >= 2**63 for d in high)
    return low.tolist() + high


class TestTwoPartSolutions:
    def test_matches_the_python_int_divisors_for_k_to_2000(self):
        for k in range(1, 2001):
            sol = solve_rdu_one(k)
            if sol.count <= kunits.SOLUTION_CAP:
                assert _two_parts(k, None) == smallest_divisors(sol.n_max_factorization()), k

    @pytest.mark.parametrize("k", _ENUMERATED_KS)
    def test_every_limit_matches_the_python_int_divisors(self, k):
        sol = solve_rdu_one(k)
        f = sol.n_max_factorization()
        for limit in (0, 1, 7, sol.count - 1, sol.count, sol.count + 1, 10**6):
            if sol.count > kunits.SOLUTION_CAP and limit > kunits.SOLUTION_CAP:
                with pytest.raises(CapabilityError):
                    _two_parts(k, limit)
            else:
                assert _two_parts(k, limit) == smallest_divisors(f, limit), (k, limit)

    def test_the_int64_edge(self):
        assert 2**63 not in _two_parts(2**60, None)
        assert solve_rdu_one(2**61).n_max % 2**63 == 0
        low, high = kunits.solver._solutions(solve_rdu_one(2**61), None)
        assert low[-1] < 2**63 == high[0]
        # a prime of n_max past 2^63 adds no run to the int64 part
        assert 2**64 + 13 in solve_rdu_one(2**64 + 12).set_a
        assert _two_parts(2**64 + 12, None)[-1] == solve_rdu_one(2**64 + 12).n_max
        # past 2^126 a solution above 2^63 can be the product of two others above it;
        # the two parts split at the same place
        assert solve_rdu_one(2**92).n_max < 2**126 <= solve_rdu_one(2**93).n_max
        for k in (2**93, 2**100):
            low, high = kunits.solver._solutions(solve_rdu_one(k), None)
            assert low[-1] < 2**63 <= high[0]

    def test_the_int64_builder_reaches_2_63_minus_1(self):
        # 2^63 - 1 = 7^2 * 73 * 127 * 337 * 92737 * 649657 is the last run's
        # d * p for d = (2^63 - 1) // p exactly
        for n in (2**63 - 1, 2 * (2**63 - 1)):
            f = factorize(n)
            below = [d for d in divisors(f) if d < 2**63]
            low, high = kunits.solver._divisors(f, None)
            assert low.tolist() == below, n
            assert high == divisors(f)[len(below) :], n

    @pytest.mark.parametrize("k", [720, 2**61, 2**93, 2**100])
    def test_a_limit_that_ends_at_the_last_int64_value(self, k):
        sol = solve_rdu_one(k)
        everything = smallest_divisors(sol.n_max_factorization())
        below = sum(d < 2**63 for d in everything)
        assert 0 < below < sol.count
        for limit in (below - 1, below, below + 1):
            low, high = kunits.solver._solutions(sol, limit)
            assert (len(low), len(high)) == (min(limit, below), limit - min(limit, below))
            assert low.tolist() + high == everything[:limit], limit

    @given(
        st.dictionaries(
            st.sampled_from([3, 65537, 2**31 - 1, 2**61 - 1, 2**64 + 13]),
            st.integers(1, 3),
            min_size=1,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_divisors_of_lists_that_cross_2_63_and_2_126(self, powers):
        # later primes multiply the list part, which no k above is sure to do
        factors = tuple(sorted(powers.items()))
        f = Factorization(prod(p**e for p, e in factors), factors)
        everything = smallest_divisors(f)
        for stop in range(len(everything) + 2):
            low, high = kunits.solver._divisors(f, stop)
            assert low.dtype == np.int64
            assert all(d < 2**63 for d in low.tolist()) and all(d >= 2**63 for d in high)
            assert low.tolist() + high == smallest_divisors(f, stop), stop

    def test_the_library_list_holds_python_ints(self):
        for k in (720, 2**61, 2**100):
            assert all(type(d) is int for d in enumerate_rdu_one_solutions(k)), k

    def test_agrees_with_sympy_divisors(self):
        sympy = pytest.importorskip("sympy")
        for k in (12, 720, 2**60, 2**61, 2**100):
            n_max = solve_rdu_one(k).n_max
            assert enumerate_rdu_one_solutions(k) == sympy.divisors(n_max), k

    def test_the_cap_refuses_before_any_divisor_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a divisor list was built")

        monkeypatch.setattr(kunits.solver, "_divisors", refuse)
        with pytest.raises(CapabilityError):
            enumerate_rdu_one_solutions(720720)
        with pytest.raises(CapabilityError):
            enumerate_rdu_one_solutions(720720, limit=kunits.SOLUTION_CAP + 1)


class TestIsRduOne:
    def test_examples(self):
        assert is_rdu_one(24, 2)
        assert not is_rdu_one(16, 2)
        assert is_rdu_one(2, 3)
        assert is_rdu_one(1, 17)

    def test_domain_errors_name_is_rdu_one(self):
        # its own check runs before the rdu-one:K set is asked for
        for n, k in ((0, 2), (5, 0), (0, 0)):
            with pytest.raises(DomainError, match="is_rdu_one requires n >= 1 and k >= 1"):
                is_rdu_one(n, k)

    def test_odd_exponent_past_the_rho_budget(self, monkeypatch):
        # lambda(n) is even for n >= 3, so no odd k is a multiple of it: two
        # 50-bit primes, which factorize cannot split within the default budget, need no split
        from importlib import import_module

        calls = []

        def counting(n, **kwargs):
            calls.append(n)
            return factorize(n, **kwargs)

        for name in ("arith", "solver", "unitgroup"):
            monkeypatch.setattr(import_module(f"kunits.{name}"), "factorize", counting)
        assert not is_rdu_one(1125899906842597 * 1125899906842589, 3)
        assert not is_rdu_one(4294967291 * 4294967279, 3)
        assert calls == []

    def test_two_factor_group(self):
        # U(Z_15) = C2 x C4, so lambda(15) = 4; U(Z_2) is trivial
        assert is_rdu_one(15, 4)
        assert not is_rdu_one(15, 2)
        assert is_rdu_one(2, 17)

    @given(st.integers(1, 64), st.lists(st.integers(1, 12), max_size=4))
    def test_exponent_test_equals_full_product(self, k, orders):
        # every unit is a k-unit exactly when the exponent lcm(r_i) divides k
        dec = CyclicDecomposition(tuple(orders))
        assert (k % lcm(*orders) == 0) == (du_k_product(k, dec) == prod(orders))

    def test_agrees_with_stats_full_grid(self):
        for n in range(1, 2001):
            for k in range(1, 65):
                assert is_rdu_one(n, k) == (k_unit_stats(n, k).rdu == 1), (n, k)

    @given(st.integers(1, 1500), st.integers(1, 64))
    @settings(max_examples=200)
    def test_agrees_with_brute_force(self, n, k):
        assert is_rdu_one(n, k) == brute_rdu_is_one(n, k)

    def test_divisor_closedness(self):
        for k in (2, 10, 24):
            for n in enumerate_rdu_one_solutions(k):
                for d in divisors(n):
                    assert is_rdu_one(d, k), (k, n, d)

    def test_solution_sets_are_complete_at_small_scale(self):
        for k in (2, 4, 6, 10):
            expected = set(enumerate_rdu_one_solutions(k))
            found = {n for n in range(1, 2001) if brute_rdu_is_one(n, k)}
            assert found == {n for n in expected if n <= 2000}


class TestCheckKorseltGeneral:
    def test_561(self):
        assert check_korselt_general(561, 560)
        assert check_korselt_general(561, 80)  # lcm(2, 10, 16)
        assert len(scan_k_units(561, 80)) == euler_phi(561) == 320

    def test_45_never_passes(self):
        for k in (1, 2, 4, 7, 8, 11):  # coprime to 45
            assert not check_korselt_general(45, k)

    def test_matches_is_rdu_one_under_preconditions(self):
        from math import gcd

        checked = 0
        for n in range(9, 2000, 2):
            if factorize(n).is_prime:
                continue
            for k in (2, 4, 8, 16, 80, 560):
                if gcd(k, n) != 1:
                    continue
                verdict = check_korselt_general(n, k)
                assert verdict == is_rdu_one(n, k), (n, k)
                assert verdict == brute_rdu_is_one(n, k), (n, k)
                checked += 1
        assert checked > 1000

    def test_precondition_errors_name_the_clause(self):
        with pytest.raises(DomainError, match="odd"):
            check_korselt_general(10, 3)
        with pytest.raises(DomainError, match="composite"):
            check_korselt_general(13, 4)
        with pytest.raises(DomainError, match="relatively prime"):
            check_korselt_general(45, 3)
