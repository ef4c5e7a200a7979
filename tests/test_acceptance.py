"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[criterion NN] PASS/FAIL` line (visible with
`pytest -s`) and asserts, so the suite is green exactly when every
criterion holds.  Expected values were derived with the brute-force
oracles in oracles.py or verified by hand before being frozen here.
"""

import random
import time
from math import gcd

from kunits import (
    count_fermat_liars,
    enumerate_k_units,
    enumerate_rdu_one_solutions,
    euler_phi,
    factorize,
    is_carmichael,
    is_generalized_carmichael,
    is_rdu_one,
    k_unit_stats,
    solve_rdu_one,
)

from oracles import brute_k_units_by_order, brute_liar_count, brute_rdu_is_one, scan_k_units


def check(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:2d}] {status}  {description}" + (f"  ({detail})" if detail else ""))
    assert passed, f"criterion {number}: {description} {detail}"


def best_of(runs: int, fn):
    """Best wall-clock of several runs; damps scheduler jitter."""
    best = float("inf")
    result = None
    for _ in range(runs):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def test_criterion_01_diagonal_property():
    solve_rdu_one(2)  # warm the prime sieve before timing
    sol, elapsed = best_of(5, lambda: solve_rdu_one(2))
    exact = (
        sol.n_max == 24
        and sol.set_a == (3,)
        and sol.set_b == ()
        and sol.count == 8
        and enumerate_rdu_one_solutions(2) == [1, 2, 3, 4, 6, 8, 12, 24]
    )
    check(1, "k=2 solves to the divisors of 24", exact and elapsed < 0.001, f"{elapsed*1e6:.0f}us")


def test_criterion_02_k10_example():
    sol, elapsed = best_of(5, lambda: solve_rdu_one(10))
    exact = sol.n_max == 264 and sol.set_a == (3, 11) and sol.count == 16
    check(2, "k=10 solves to the divisors of 264", exact and elapsed < 0.001, f"{elapsed*1e6:.0f}us")


def test_criterion_03_k252_example():
    sol, elapsed = best_of(5, lambda: solve_rdu_one(252))
    exact = (
        sol.n_max == 153185861359440
        and sol.set_a == (5, 13, 19, 29, 37, 43, 127)
        and sol.set_b == ((3, 3), (7, 2))
        and sol.count == 7680
    )
    check(3, "k=252 example is exact", exact and elapsed < 0.010, f"{elapsed*1e6:.0f}us")


def test_criterion_04_closed_form_vs_enumeration():
    t0 = time.perf_counter()
    mismatches = 0
    ks = tuple(range(1, 65))
    for n in range(1, 2001):
        for k, units in zip(ks, brute_k_units_by_order(n, ks)):
            if k_unit_stats(n, k).du != len(units) or enumerate_k_units(n, k) != units:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    check(
        4,
        "du closed form equals the enumerated count for n<=2000, k<=64",
        mismatches == 0 and elapsed < 60.0,
        f"{elapsed:.1f}s, {mismatches} mismatches",
    )


def test_criterion_05_solution_sets_complete_to_1e5():
    t0 = time.perf_counter()
    failures = []
    for k in (2, 4, 6, 10, 12, 24):
        expected = {n for n in enumerate_rdu_one_solutions(k) if n <= 10**5}
        found = {n for n in range(1, 10**5 + 1) if brute_rdu_is_one(n, k)}
        if found != expected:
            failures.append(k)
    elapsed = time.perf_counter() - t0
    check(
        5,
        "brute-force solution sets below 1e5 equal the divisors of n_max",
        not failures and elapsed < 120.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_06_multiplicativity():
    rng = random.Random(0x5EED)
    failures = 0
    checked = 0
    while checked < 1000:
        s = rng.randrange(1, 10**4 + 1)
        t = rng.randrange(1, 10**4 + 1)
        if gcd(s, t) != 1 or s * t > 10**6:
            continue
        k = rng.randrange(1, 65)
        if k_unit_stats(s * t, k).du != k_unit_stats(s, k).du * k_unit_stats(t, k).du:
            failures += 1
        checked += 1
    check(6, "du is multiplicative on 1000 random coprime pairs", failures == 0)


def test_criterion_07_liar_count_formula():
    t0 = time.perf_counter()
    mismatches = 0
    for n in range(3, 5001, 2):
        if not factorize(n).is_composite:
            continue
        if count_fermat_liars(n) != brute_liar_count(n):
            mismatches += 1
    spot = count_fermat_liars(561)
    elapsed = time.perf_counter() - t0
    check(
        7,
        "liar-count formula matches brute force for odd composite n<=5000",
        mismatches == 0 and spot == 320 and elapsed < 30.0,
        f"{elapsed:.1f}s, liars(561)={spot}",
    )


def test_criterion_08_carmichael_sweep():
    t0 = time.perf_counter()
    found = [n for n in range(1, 10**5 + 1) if is_carmichael(n)]
    fermat_confirmed = all(brute_rdu_is_one(n, n - 1) for n in found)
    three_factors = all(len(factorize(n).factors) >= 3 for n in found)
    elapsed = time.perf_counter() - t0
    check(
        8,
        "exactly 16 Carmichael numbers below 1e5, smallest 561, all with >=3 prime factors",
        len(found) == 16
        and found[0] == 561
        and fermat_confirmed
        and three_factors
        and elapsed < 30.0,
        f"{elapsed:.1f}s, found {len(found)}",
    )


def test_criterion_09_c1_exactness():
    t0 = time.perf_counter()
    members = [n for n in range(1, 2001) if is_generalized_carmichael(n, 1)]
    elapsed = time.perf_counter() - t0
    check(
        9,
        "C_1 members below 2000 are exactly {2, 6, 42, 1806}",
        members == [2, 6, 42, 1806] and elapsed < 30.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_10_containment_and_strictness():
    t0 = time.perf_counter()
    violations = 0
    for k in range(-3, 4):
        for n in range(1, 5001):
            if is_generalized_carmichael(n, k):
                exponent = n + k - 1
                if exponent >= 1 and not is_rdu_one(n, exponent):
                    violations += 1
    strict = is_rdu_one(4, 4) and not is_generalized_carmichael(4, 1)
    elapsed = time.perf_counter() - t0
    check(
        10,
        "C_k membership implies rdu_{n+k-1}(n)=1; n=4, k=1 shows strictness",
        violations == 0 and strict and elapsed < 60.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_11_exponent_reduction():
    rng = random.Random(0xBEEF)
    mismatches = 0
    for _ in range(1000):
        n = rng.randrange(1, 5001)
        k = rng.randrange(1, 10**4 + 1)
        d = gcd(k, euler_phi(n))
        if enumerate_k_units(n, k) != scan_k_units(n, d):
            mismatches += 1
    check(11, "k-units equal gcd(k, phi(n))-units on 1000 random pairs", mismatches == 0)


def test_criterion_12_odd_k_collapse():
    ok = all(enumerate_rdu_one_solutions(k) == [1, 2] for k in range(1, 100, 2))
    check(12, "every odd k <= 99 has solution set exactly [1, 2]", ok)
