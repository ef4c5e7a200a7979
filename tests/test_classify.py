import random
from importlib import import_module
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kunits import (
    CapabilityError,
    DomainError,
    carmichael_lambda,
    check_korselt_general,
    classify,
    count_fermat_liars,
    divisors,
    euler_phi,
    factorize,
    is_carmichael,
    is_generalized_carmichael,
    is_knodel,
    is_prime,
    is_rdu_one,
    k_unit_stats,
    korselt_failure,
    parse_rule,
    solve_rdu_one,
    sweep,
    unit_group_structure,
)

from oracles import (
    brute_gen_carmichael,
    brute_is_prime,
    brute_korselt,
    brute_liar_count,
    brute_rdu_is_one,
    erdos_carmichaels,
    korselt_least_failure,
)

CARMICHAELS_BELOW_3000 = [561, 1105, 1729, 2465, 2821]


class TestCountFermatLiars:
    def test_primes_have_every_unit_as_liar(self):
        for p in (3, 7, 13, 101):
            assert count_fermat_liars(p) == p - 1

    def test_examples(self):
        assert count_fermat_liars(9) == 2
        assert count_fermat_liars(561) == 320

    def test_even_or_small_is_domain_error(self):
        with pytest.raises(DomainError):
            count_fermat_liars(8)
        with pytest.raises(DomainError):
            count_fermat_liars(1)

    def test_matches_brute_force_below_1500(self):
        for n in range(3, 1500, 2):
            assert count_fermat_liars(n) == brute_liar_count(n), n


class TestIsCarmichael:
    def test_known_members(self):
        for n in CARMICHAELS_BELOW_3000:
            assert is_carmichael(n), n

    def test_known_non_members(self):
        assert not is_carmichael(9)  # not squarefree
        assert not is_carmichael(15)  # 5 - 1 does not divide 14
        assert not is_carmichael(1)
        assert not is_carmichael(2)
        assert not is_carmichael(561 * 3)  # 3^2 divides it
        for p in (3, 5, 561 + 2):
            if is_prime(p):
                assert not is_carmichael(p)

    def test_561_by_full_fermat_check(self):
        from math import gcd

        n = 561
        assert all(pow(a, n - 1, n) == 1 for a in range(1, n) if gcd(a, n) == 1)

    def test_failure_reasons(self):
        assert korselt_failure(561) is None
        assert "not composite" in korselt_failure(1)
        assert "even" in korselt_failure(10)
        assert "prime" in korselt_failure(13)
        assert "squarefree" in korselt_failure(45)
        assert "does not divide" in korselt_failure(15)

    @pytest.mark.parametrize("n", [0, -7])
    def test_failure_refuses_n_below_1(self, n):
        with pytest.raises(DomainError, match="korselt_failure requires n >= 1"):
            korselt_failure(n)
        with pytest.raises(DomainError):
            is_carmichael(n)
        with pytest.raises(DomainError, match=rf"\Aclassify requires n >= 1, got {n}\Z"):
            classify(n)

    def test_korselt_equals_rdu_route_up_to_10_5(self):
        hits = 0
        for n in range(1, 100001):
            expected = brute_korselt(n)
            assert is_carmichael(n) == expected, n
            hits += expected
        assert hits == 16

    def test_domain(self):
        with pytest.raises(DomainError):
            is_carmichael(0)


class TestIsKnodel:
    def test_carmichaels_are_1_knodel(self):
        for n in CARMICHAELS_BELOW_3000:
            assert is_knodel(n, 1)

    def test_examples(self):
        assert is_knodel(4, 2)
        assert not is_knodel(13, 1)  # prime
        assert not is_knodel(4, 4)  # needs n > i
        assert not is_knodel(3, 2)

    def test_k1_equals_carmichael_up_to_10_5(self):
        for n in range(1, 100001):
            assert (is_knodel(n, 1) and n % 2 == 1) == brute_korselt(n), n

    def test_small_knodel_sets_by_brute_force(self):
        for i in (1, 2, 3):
            expected = [
                n
                for n in range(i + 1, 400)
                if factorize(n).is_composite and brute_rdu_is_one(n, n - i)
            ]
            assert [n for n in range(1, 400) if is_knodel(n, i)] == expected, i

    @pytest.mark.parametrize("p,q", [(4294967291, 4294967279), (4294967231, 4294967197)])
    def test_odd_exponent_is_answered_without_factoring(self, monkeypatch, p, q):
        # n - 2 is odd and lambda(n) is even, so n is not 2-Knodel
        calls = []

        def counting(n, **kwargs):
            calls.append(n)
            return factorize(n, **kwargs)

        monkeypatch.setattr(import_module("kunits.arith"), "factorize", counting)
        assert (p * q).bit_length() == 64
        assert not is_knodel(p * q, 2)
        assert calls == []

    def test_odd_exponent_past_the_rho_budget(self):
        # two 50-bit primes: factorize cannot split n within the default budget, and need not
        n = 1125899906842597 * 1125899906842589
        with pytest.raises(CapabilityError):
            factorize(n)
        assert not is_knodel(n, 2)

    def test_domain(self):
        with pytest.raises(DomainError):
            is_knodel(561, 0)
        with pytest.raises(DomainError):
            is_knodel(0, 1)


class TestIsGeneralizedCarmichael:
    def test_c1_members(self):
        for n in (2, 6, 42, 1806):
            assert is_generalized_carmichael(n, 1)

    def test_c1_exactness_to_2000(self):
        assert [n for n in range(1, 2001) if is_generalized_carmichael(n, 1)] == [2, 6, 42, 1806]

    def test_4_is_not_in_c1(self):
        assert not is_generalized_carmichael(4, 1)

    def test_min_guard(self):
        assert not is_generalized_carmichael(1, 5)
        assert not is_generalized_carmichael(2, -1)
        assert not is_generalized_carmichael(5, -4)

    @given(st.integers(1, 400), st.integers(-3, 3))
    @settings(max_examples=200)
    def test_matches_direct_definition(self, n, k):
        assert is_generalized_carmichael(n, k) == brute_gen_carmichael(n, k)

    def test_containment_in_rdu_predicate(self):
        for k in range(-3, 4):
            for n in range(1, 1200):
                if is_generalized_carmichael(n, k) and n + k - 1 >= 1:
                    assert is_rdu_one(n, n + k - 1), (n, k)

    def test_bound(self):
        with pytest.raises(CapabilityError):
            is_generalized_carmichael(10**7 + 1, 1)

    def test_domain(self):
        with pytest.raises(DomainError):
            is_generalized_carmichael(0, 1)


class TestParityGate:
    """lambda(n) is even for n >= 3, so no set holds an n >= 3 with odd e(n)."""

    FAMILIES = [
        ("carmichael", lambda n: n - 1, is_carmichael, brute_korselt),
        *[
            (f"knodel:{i}", lambda n, i=i: n - i, lambda n, i=i: is_knodel(n, i),
             lambda n, i=i: n > i and brute_rdu_is_one(n, n - i))
            for i in (1, 2, 3)
        ],
        *[
            (f"gen-carmichael:{k}", lambda n, k=k: n + k - 1,
             lambda n, k=k: is_generalized_carmichael(n, k),
             lambda n, k=k: brute_gen_carmichael(n, k))
            for k in (-2, -1, 0, 1, 2)
        ],
        *[
            (f"rdu-one:{k}", lambda n, k=k: k, lambda n, k=k: is_rdu_one(n, k),
             lambda n, k=k: brute_rdu_is_one(n, k))
            for k in (1, 3, 15)
        ],
    ]

    @pytest.mark.parametrize("name,exponent,member,oracle", FAMILIES, ids=[f[0] for f in FAMILIES])
    def test_odd_exponent_is_never_a_member_up_to_10_4(self, name, exponent, member, oracle):
        odd = [n for n in range(3, 10**4 + 1) if exponent(n) % 2]
        assert odd
        for n in odd:
            assert not member(n), (name, n)
            assert not oracle(n), (name, n)


class TestExponentRules:
    @pytest.mark.parametrize(
        "text,at_10",
        [
            ("const:2", 2),
            ("n", 10),
            ("n-1", 9),
            ("n+0", 10),
            ("n+7", 17),
            ("3*n+2", 32),
            ("3*n-2", 28),
            ("1*n", 10),
            ("1*n-0", 10),
            ("2*n-0", 20),
            ("007*n+3", 73),
            ("poly:0,1", 10),
            ("poly:-1,1", 9),
            ("poly:1,0,2", 201),
        ],
    )
    def test_parse_and_evaluate(self, text, at_10):
        assert parse_rule(text)(10) == at_10

    def test_round_trip_text(self):
        for text in ("const:2", "n", "n-1", "n+7", "3*n+2", "poly:1,0,2"):
            rule = parse_rule(text)
            assert parse_rule(rule.text)(13) == rule(13)

    @pytest.mark.parametrize(
        "text, shown", [("n+0", "n"), ("1*n-0", "1*n"), ("2*n-0", "2*n"), ("007*n+3", "7*n+3")]
    )
    def test_text(self, text, shown):
        assert parse_rule(text).text == shown

    @pytest.mark.parametrize(
        "bad",
        [
            "const:0",
            "n-0",
            "0*n+3",
            "foo",
            "poly:",
            "n*2",
            "poly:1.5",
            "n+",
            "*n",
            "+n",
            "2*n+-1",
        ],
    )
    def test_malformed_rules_rejected(self, bad):
        with pytest.raises(DomainError):
            parse_rule(bad)

    @pytest.mark.parametrize(
        "bad, message",
        [("n-0", "rule n-I requires I >= 1"), ("0*n+1", "rule A*n+B requires A >= 1, got A=0")],
    )
    def test_refusal_words(self, bad, message):
        with pytest.raises(DomainError) as refused:
            parse_rule(bad)
        assert str(refused.value) == message


class TestSweep:
    def test_const_rule_reproduces_the_divisors_of_24(self):
        result = sweep(1, 2000, parse_rule("const:2"))
        assert result.hits == (1, 2, 3, 4, 6, 8, 12, 24)
        assert result.skipped == ()

    def test_n_minus_1_rule_matches_brute_force(self):
        result = sweep(3, 2000, parse_rule("n-1"))
        expected = tuple(n for n in range(3, 2001) if brute_rdu_is_one(n, n - 1))
        assert result.hits == expected
        assert 561 in result.hits
        # primes always qualify; the composite hits are the Carmichaels
        composites = [n for n in result.hits if factorize(n).is_composite]
        assert composites == [561, 1105, 1729]

    def test_exponent_n_rule(self):
        result = sweep(1, 2000, parse_rule("poly:0,1"))
        for expected in (1, 2, 4, 6, 8, 16, 32, 42, 1806):
            assert expected in result.hits
        brute = tuple(n for n in range(1, 2001) if brute_rdu_is_one(n, n))
        assert result.hits == brute

    def test_skip_recording(self):
        result = sweep(1, 10, parse_rule("n-5"))
        assert result.skipped == (1, 2, 3, 4, 5)
        # n = 6 gets exponent 1: only n with trivial unit group qualify
        assert 6 not in result.hits

    def test_filters(self):
        result = sweep(3, 3000, parse_rule("n-1"), composite_only=True, odd_only=True)
        assert result.hits == (561, 1105, 1729, 2465, 2821)

    def test_bad_range(self):
        with pytest.raises(DomainError):
            sweep(10, 5, parse_rule("n"))
        with pytest.raises(DomainError):
            sweep(0, 5, parse_rule("n"))

    def test_unknown_predicate_rejected(self):
        # a sweep tests one predicate, so sweep takes no predicate argument
        with pytest.raises(TypeError, match="predicate"):
            sweep(1, 5, parse_rule("n"), predicate="something_else")


class TestClassifyReport:
    def test_561_full_report(self):
        report = classify(561, liars=True, knodel_indices=(1, 2), gen_carmichael_ks=(1,))
        assert report.is_composite
        assert report.carmichael
        assert report.carmichael_reason is None
        assert report.fermat_liar_count == 320
        assert report.knodel_for == ((1, True), (2, False))
        assert report.gen_carmichael_for == ((1, False),)
        assert report.evidence.factors == ((3, 1), (11, 1), (17, 1))

    def test_carmichael_reports_have_three_prime_factors(self):
        for n in CARMICHAELS_BELOW_3000:
            report = classify(n)
            assert len(report.evidence.factors) >= 3
            assert report.evidence.is_squarefree

    def test_liars_left_out_for_even_n(self):
        report = classify(10, liars=True)
        assert report.fermat_liar_count is None

    def test_1806(self):
        report = classify(1806, gen_carmichael_ks=(1, 2))
        assert report.gen_carmichael_for == ((1, True), (2, False))
        assert not report.carmichael  # even, so never Carmichael

    @pytest.mark.parametrize("n", [211 * 421 * 631, 271 * 541 * 811])
    def test_chernick_numbers_above_10_7(self, n):
        # (6m + 1)(12m + 1)(18m + 1) with all three prime is a Carmichael number
        assert n > 10**7
        report = classify(n, gen_carmichael_ks=(0, 1))
        assert report.gen_carmichael_for == ((0, True), (1, False))

    def test_factors_n_once(self, monkeypatch):
        calls = []
        real = factorize

        def counting(n, **kwargs):
            calls.append(n)
            return real(n, **kwargs)

        for name in ("arith", "solver"):
            monkeypatch.setattr(import_module(f"kunits.{name}"), "factorize", counting)
        report = classify(561, liars=True, knodel_indices=(1, 2))
        assert calls == [561]
        assert report.knodel_for == ((1, True), (2, False))

    def test_takes_lambda_once(self, monkeypatch):
        calls = []
        real = carmichael_lambda

        def counting(n, **kwargs):
            calls.append(n)
            return real(n, **kwargs)

        for name in ("classify", "unitgroup"):
            monkeypatch.setattr(import_module(f"kunits.{name}"), "carmichael_lambda", counting)
        for n in (561, 1105, 15, 13, 4):
            calls.clear()
            report = classify(n, liars=True, knodel_indices=(1, 2))
            assert len(calls) == 1, n
            expected = tuple(
                (i, report.is_composite and brute_rdu_is_one(n, n - i)) for i in (1, 2)
            )
            assert report.knodel_for == expected

    def test_bad_knodel_index_is_domain_error(self):
        with pytest.raises(DomainError, match="i >= 1"):
            classify(561, knodel_indices=(1, 0))


def test_point_verdicts_build_their_sets_without_parsing_a_name(monkeypatch):
    # only oeis-check names a set; a point verdict builds its set by value
    def refuse(name):
        raise AssertionError(f"parsed the predicate name {name!r}")

    for name in ("classify", "solver"):
        monkeypatch.setattr(import_module(f"kunits.{name}"), "_lambda_set", refuse, raising=False)
    assert is_carmichael(561) and not is_carmichael(563)
    assert korselt_failure(561) is None
    assert korselt_failure(15) == "5 - 1 does not divide 15 - 1"
    assert is_knodel(561, 1) and is_knodel(6, 2) and not is_knodel(9, 2)
    assert is_generalized_carmichael(1806, 1) and not is_generalized_carmichael(1806, 2)
    assert is_rdu_one(561, 80) and not is_rdu_one(561, 40)
    assert check_korselt_general(561, 80)
    report = classify(561, liars=True, knodel_indices=(1, 2), gen_carmichael_ks=(0, 1))
    assert report.carmichael
    assert report.knodel_for == ((1, True), (2, False))
    assert report.gen_carmichael_for == ((0, True), (1, False))


class TestExactMessages:
    """Domain refusals of the point verdicts, byte for byte."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: is_knodel(5, 0), "is_knodel requires i >= 1, got 0"),
            (lambda: classify(5, knodel_indices=(0,)), "is_knodel requires i >= 1, got 0"),
            (lambda: is_rdu_one(5, 0), "is_rdu_one requires n >= 1 and k >= 1, got n=5, k=0"),
            (lambda: is_generalized_carmichael(0, 1), "is_generalized_carmichael requires n >= 1, got 0"),
            (lambda: korselt_failure(0), "korselt_failure requires n >= 1, got 0"),
            (lambda: is_carmichael(-1), "is_carmichael requires n >= 1, got -1"),
            (lambda: is_knodel(0, 1), "is_knodel requires n >= 1, got 0"),
            # i is refused before n, and n before the bound
            (lambda: is_knodel(0, 0), "is_knodel requires i >= 1, got 0"),
            (
                lambda: is_generalized_carmichael(0, 1, bound=0),
                "is_generalized_carmichael requires n >= 1, got 0",
            ),
        ],
    )
    def test_domain_messages(self, call, message):
        with pytest.raises(DomainError) as excinfo:
            call()
        assert str(excinfo.value) == message


def _classify_with_reason(n):
    # the report's equality leaves out Korselt's reason
    report = classify(n, liars=True, knodel_indices=(1, 2), gen_carmichael_ks=(0, 1))
    return report, report.carmichael_reason


class TestFactorizationArguments:
    def test_point_classifiers_accept_a_factorization(self):
        for n in (9, 15, 561, 1105, 2821, 4, 13):
            f = factorize(n)
            assert korselt_failure(f) == korselt_failure(n)
            assert is_knodel(f, 1) == is_knodel(n, 1)
            assert is_knodel(f, 2) == is_knodel(n, 2)
            assert is_rdu_one(f, n - 1) == is_rdu_one(n, n - 1)
            if n % 2:
                assert count_fermat_liars(f) == count_fermat_liars(n)

    def test_domain_checks_see_the_value(self):
        with pytest.raises(DomainError):
            count_fermat_liars(factorize(8))
        with pytest.raises(DomainError):
            is_knodel(factorize(561), 0)
        assert "even" in korselt_failure(factorize(10))
        assert "not composite" in korselt_failure(factorize(1))

    # Each point function with the extra arguments it is called with: k, i or K.
    POINT_FUNCTIONS = [
        ("unit_group_structure", unit_group_structure, [()]),
        ("euler_phi", euler_phi, [()]),
        ("carmichael_lambda", carmichael_lambda, [()]),
        ("k_unit_stats", k_unit_stats, [(0,), (1,), (2,), (12,)]),
        ("count_fermat_liars", count_fermat_liars, [()]),
        ("korselt_failure", korselt_failure, [()]),
        ("is_carmichael", is_carmichael, [()]),
        ("is_knodel", is_knodel, [(0,), (1,), (2,), (3,)]),
        ("is_generalized_carmichael", is_generalized_carmichael, [(-2,), (0,), (1,)]),
        (
            "is_generalized_carmichael_unrefused",
            lambda n, k: is_generalized_carmichael(n, k, bound=2**64),
            [(-2,), (0,), (1,)],
        ),
        ("classify", _classify_with_reason, [()]),
        ("is_rdu_one", is_rdu_one, [(0,), (1,), (2,), (12,), (720,)]),
        ("check_korselt_general", check_korselt_general, [(0,), (2,), (80,), (720,)]),
        ("divisors", divisors, [()]),
    ]
    # three seeded n each of 40 and 64 bits, besides every n <= 2000
    LARGE_N = [
        random.Random(seed).getrandbits(bits) | 1 << (bits - 1)
        for bits in (40, 64)
        for seed in range(3)
    ]

    @pytest.mark.parametrize(
        "call,extras", [f[1:] for f in POINT_FUNCTIONS], ids=[f[0] for f in POINT_FUNCTIONS]
    )
    def test_an_int_and_its_factorization_give_the_same_answer(self, call, extras):
        def outcome(n, extra):
            try:
                return call(n, *extra)
            except (DomainError, CapabilityError) as exc:
                return type(exc), str(exc)

        for n in [*range(1, 2001), *self.LARGE_N]:
            f = factorize(n)
            for extra in extras:
                assert outcome(f, extra) == outcome(n, extra), (n, extra)


class TestSolverCarmichaelAnchors:
    """Carmichael numbers past 2**64 built from the solver's set A for L = 720720 (Erdos's
    construction), where rho and the upper Miller-Rabin tiers run: the paper's two halves
    check each other."""

    L = 720720
    # primes dividing no anchor: 3 divides L, and 2**61 - 1 exceeds L + 1, the largest p of A
    Q = (3, 2**61 - 1)

    @classmethod
    def anchors(cls):
        primes = solve_rdu_one(cls.L).set_a
        big = erdos_carmichaels(primes, cls.L, 30, 5, (10**100, 10**120), seed=1)
        small = erdos_carmichaels(primes, cls.L, 2, 10, (2**64, 2**65), seed=2)
        return big + small

    def test_set_a_is_the_primes_p_with_p_minus_1_dividing_L(self):
        L = self.L
        direct = [d + 1 for d in range(1, L + 1) if L % d == 0 and L % (d + 1) and brute_is_prime(d + 1)]
        assert solve_rdu_one(L).set_a == tuple(direct)

    def test_anchor_primes_agree_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        for ps in self.anchors():
            assert all(sympy.isprime(p) for p in ps), ps
        assert all(map(sympy.isprime, self.Q))

    def test_anchors_are_carmichael_numbers(self):
        sol = solve_rdu_one(self.L)
        anchors = self.anchors()
        assert sum(prod(ps) > 10**100 for ps in anchors) >= 5
        assert sum(2**64 < prod(ps) < 2**65 for ps in anchors) >= 3
        for ps in anchors:
            n = prod(ps)
            assert is_carmichael(n) and is_knodel(n, 1), ps
            assert not is_knodel(n, 2), ps
            report = classify(n)
            assert (report.carmichael, report.carmichael_reason) == (True, None), ps
            assert report.evidence.factors == tuple((p, 1) for p in ps)
            assert classify(n, gen_carmichael_ks=(0,)).gen_carmichael_for == ((0, True),)
            assert is_rdu_one(n, self.L), ps
            assert sol.n_max % n == 0, ps
            if n < 2**65:  # Miller-Rabin's tier of 12 bases proves it composite
                assert not is_prime(n, bound=n), ps

    def test_korselt_reason_of_an_anchor_times_a_prime(self):
        for ps in self.anchors():
            for q in self.Q:
                nq = prod(ps) * q
                p = korselt_least_failure((*ps, q))
                expected = None if p is None else f"{p} - 1 does not divide {nq} - 1"
                assert korselt_failure(nq) == expected == classify(nq).carmichael_reason, (ps, q)
            n, p = prod(ps), ps[0]
            assert korselt_failure(n * p) == f"not squarefree: {p}^2 divides {n * p}"


# A002997 below 10^6: Pinch's C(10^6) = 43
CARMICHAELS_BELOW_10_6 = (
    *(561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657, 52633, 62745),
    *(63973, 75361, 101101, 115921, 126217, 162401, 172081, 188461, 252601, 278545, 294409),
    *(314821, 334153, 340561, 399001, 410041, 449065, 488881, 512461, 530881, 552721, 656601),
    *(658801, 670033, 748657, 825265, 838201, 852841, 997633),
)


class TestClosingTheorem:
    """The paper's closing theorem as a second route to every verdict, through the solver: n is
    i-Knodel (Carmichael for i = 1) exactly when n is composite, n > i and n | n_max(n - i),
    and n is in C_k exactly when n is squarefree, min(n, n + k) > 1 and n | n_max(n + k - 1).
    Composite and squarefree are read from sympy.factorint."""

    I = tuple(range(1, 9))
    K = tuple(range(-8, 9))

    def check(self, n):
        exponents = pytest.importorskip("sympy").factorint(n).values()
        composite, squarefree = sum(exponents) > 1, max(exponents, default=1) == 1
        knodel = [composite and n > i and solve_rdu_one(n - i).n_max % n == 0 for i in self.I]
        gen = [
            squarefree and min(n, n + k) > 1 and solve_rdu_one(n + k - 1).n_max % n == 0
            for k in self.K
        ]
        assert [is_knodel(n, i) for i in self.I] == knodel, n
        assert is_carmichael(n) == knodel[0], n
        assert [is_generalized_carmichael(n, k) for k in self.K] == gen, n
        report = classify(n, knodel_indices=self.I, gen_carmichael_ks=self.K)
        assert report.carmichael == knodel[0], n
        assert report.knodel_for == tuple(zip(self.I, knodel)), n
        assert report.gen_carmichael_for == tuple(zip(self.K, gen)), n
        return knodel, gen

    @given(n=st.integers(1, 2**20 - 1))
    @settings(max_examples=400, deadline=None)
    def test_every_classifier_agrees_with_the_solver_below_2_20(self, n):
        self.check(n)

    def test_every_carmichael_number_below_10_6_is_found_by_the_solver(self):
        assert len(CARMICHAELS_BELOW_10_6) == 43
        for n in CARMICHAELS_BELOW_10_6:
            knodel, gen = self.check(n)
            assert knodel[0] and gen[self.K.index(0)], n
