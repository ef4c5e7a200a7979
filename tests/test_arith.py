import random
import time
from unittest import mock
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kunits
from kunits import (
    CapabilityError,
    DomainError,
    Factorization,
    divisors,
    euler_phi,
    factorize,
    is_prime,
)
from kunits import arith
from kunits.arith import (
    _BLOCK,
    _CERTIFIED_LIMIT,
    _MR_PSI,
    _prime_blocks,
    _read_int,
    _small_primes,
)

from oracles import (
    brute_divisors,
    brute_factor_map,
    brute_is_prime,
    brute_phi,
    brute_pow_mod,
    smallest_divisors,
)


class TestIsPrime:
    def test_small_values(self):
        assert is_prime(2)
        assert not is_prime(1)
        assert not is_prime(0)
        assert is_prime(127)

    def test_agrees_with_trial_division_below_2000(self):
        for n in range(2000):
            assert is_prime(n) == brute_is_prime(n), n

    def test_large_prime_and_composite(self):
        assert is_prime(2**61 - 1)  # Mersenne prime
        assert not is_prime(2**62 - 1)

    def test_negative_is_domain_error(self):
        with pytest.raises(DomainError):
            is_prime(-7)

    def test_above_bound_is_capability_error(self):
        with pytest.raises(CapabilityError) as err:
            is_prime(2**70)
        assert str(2**64 - 1) in str(err.value)

    def test_custom_bound(self):
        with pytest.raises(CapabilityError):
            is_prime(1000, bound=100)
        assert is_prime(2**70 + 249, bound=2**80) in (True, False)
        with pytest.raises(CapabilityError, match=f"supported bound {10**25}$"):
            is_prime(10**25 + 1, bound=10**25)  # the bound is named even past psi_13

    def test_arguments_past_the_fast_path_keep_their_words(self):
        # n is read before the bound, each by the library's one integer gate
        words = "primality is defined for n >= 0, got "
        not_int = "'float' object cannot be interpreted as an integer"
        for call, message in (
            (lambda: is_prime(-7), words + "-7"),
            (lambda: is_prime(-7, bound=0), words + "-7"),
            (lambda: is_prime(5, bound=0), "bound must be >= 1, got 0"),
            (lambda: is_prime(2.0), f"{words}2.0: {not_int}"),
            (lambda: is_prime(5, bound=2.5), f"bound must be >= 1, got 2.5: {not_int}"),
        ):
            with pytest.raises(DomainError) as refused:
                call()
            assert str(refused.value) == message
        assert is_prime(True) is False and is_prime(7, bound=True + 6) is True

    def test_certified_limit_is_a_hard_gate(self):
        with pytest.raises(CapabilityError) as err:
            is_prime(2**89 - 1, bound=2**100)
        assert str(_CERTIFIED_LIMIT) in str(err.value)

    def test_psi12_is_composite(self):
        # psi_12 passes all of the bases 2..37; base 41 catches it
        psi12 = 318665857834031151167461
        assert _MR_PSI[11] == psi12
        assert not is_prime(psi12, bound=10**25)
        assert not is_prime(psi12 + 2, bound=10**25)  # divisible by 3
        with pytest.raises(DomainError, match="is not prime"):
            Factorization(psi12**2, ((psi12, 2),))

    def test_psi13_itself_is_refused(self):
        assert _MR_PSI[12] == _CERTIFIED_LIMIT
        with pytest.raises(CapabilityError) as err:
            is_prime(_CERTIFIED_LIMIT, bound=10**25)
        assert str(err.value) == (
            f"{_CERTIFIED_LIMIT} is a probable prime at or beyond the certified bound {_CERTIFIED_LIMIT}"
        )
        assert not is_prime(_CERTIFIED_LIMIT - 1, bound=10**25)
        # a bound at psi_13 refuses it as a probable prime, and psi_13 + 2 as past the bound
        with pytest.raises(CapabilityError, match="certified bound"):
            is_prime(_CERTIFIED_LIMIT, bound=_CERTIFIED_LIMIT)
        with pytest.raises(CapabilityError, match=f"supported bound {_CERTIFIED_LIMIT}$"):
            is_prime(_CERTIFIED_LIMIT + 2, bound=_CERTIFIED_LIMIT)

    def test_agrees_with_sympy_around_every_psi(self):
        sympy = pytest.importorskip("sympy")
        for psi in sorted(set(_MR_PSI)):
            for n in range(max(0, psi - 200), psi + 201):
                if n == _CERTIFIED_LIMIT or (n > _CERTIFIED_LIMIT and sympy.isprime(n)):
                    # these pass all 13 bases: psi_13 itself and the primes
                    with pytest.raises(CapabilityError):
                        is_prime(n, bound=10**25)
                else:
                    assert is_prime(n, bound=10**25) == sympy.isprime(n), n

    @given(st.integers(8, 81).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1)))
    @settings(max_examples=300)
    def test_agrees_with_sympy_on_odd_n_of_8_to_81_bits(self, n):
        sympy = pytest.importorskip("sympy")
        n |= 1
        assert is_prime(n, bound=_CERTIFIED_LIMIT) == sympy.isprime(n)


class TestFactorize:
    def test_examples(self):
        assert factorize(24).factors == ((2, 3), (3, 1))
        assert factorize(1).factors == ()
        assert factorize(561).factors == ((3, 1), (11, 1), (17, 1))

    def test_zero_is_domain_error(self):
        with pytest.raises(DomainError):
            factorize(0)

    def test_reconstructs_and_certifies_up_to_10_to_6(self):
        # every factorization multiplies back and lists only primes
        known_primes: set[int] = set()
        for n in range(1, 10**6 + 1):
            f = factorize(n)
            product = 1
            for p, e in f.factors:
                product *= p**e
                if p not in known_primes:
                    assert is_prime(p), (n, p)
                    known_primes.add(p)
            assert product == n

    def test_rho_path_on_semiprime(self):
        f = factorize(1000003 * 1000033)
        assert f.factors == ((1000003, 1), (1000033, 1))

    def test_rho_path_on_square(self):
        f = factorize(1000003**2)
        assert f.factors == ((1000003, 2),)

    def test_full_64_bit_value(self):
        f = factorize(2**64 - 1)
        assert f.factors == (
            (3, 1),
            (5, 1),
            (17, 1),
            (257, 1),
            (641, 1),
            (65537, 1),
            (6700417, 1),
        )

    def test_psi12_splits(self):
        # a strong pseudoprime to the bases 2..37, so once taken for a prime
        f = factorize(318665857834031151167461)
        assert f.factors == ((399165290221, 1), (798330580441, 1))

    def test_cofactor_psi13_is_refused(self):
        with pytest.raises(CapabilityError, match="3317044064679887385961981"):
            factorize(2 * _CERTIFIED_LIMIT, bound=10**25)

    def test_prime_blocks_partition_the_small_primes(self):
        blocks = _prime_blocks()
        assert sum((block for _, _, block in blocks), ()) == _small_primes()
        assert all(len(block) == _BLOCK for _, _, block in blocks[:-1])
        for first, product, block in blocks:
            assert first == block[0]
            assert product == prod(block)

    def test_block_edges(self):
        # 65521 is the largest prime below 2**16 and 4294967291 the
        # largest below 2**32; the 40-bit prime pairs with primes on
        # either side of every block boundary
        q40 = 1099511627689
        assert is_prime(q40) and q40.bit_length() == 40
        cases = [(65521, 65521), (65519, 65521), (65521, 4294967291)]
        blocks = _prime_blocks()
        for _, _, block in blocks:
            cases.append((block[0], block[-1]))
        for (_, _, left), (_, _, right) in zip(blocks, blocks[1:]):
            cases += [(left[-1], q40), (right[0], q40)]
        for p, q in cases:
            expected = ((p, 2),) if p == q else ((p, 1), (q, 1))
            assert factorize(p * q).factors == expected, (p, q)
        assert factorize(2).factors == ((2, 1),)
        assert factorize(65521).factors == ((65521, 1),)
        assert factorize(65537**2).factors == ((65537, 2),)

    @given(st.integers(16, 80).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1)))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_sympy_factorint_16_to_80_bits(self, n):
        sympy = pytest.importorskip("sympy")
        assert dict(factorize(n, bound=1 << 80).factors) == sympy.factorint(n)

    @given(
        st.integers(30, 50).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1)),
        st.integers(30, 50).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1)),
    )
    @settings(max_examples=20, deadline=None)
    def test_agrees_with_sympy_on_two_primes_of_30_to_50_bits(self, a, b):
        # past the Brent run, what p - 1 misses of these goes to ECM's curves
        sympy = pytest.importorskip("sympy")
        p, q = sympy.nextprime(a), sympy.nextprime(b)
        assert dict(factorize(p * q, bound=2**200).factors) == sympy.factorint(p * q)

    @pytest.mark.parametrize(
        "p, q", [(903222754563353827, 754168423976864867), (841230429087304537, 1133906334942643909)]
    )
    def test_ecm_splits_two_60_bit_primes(self, p, q):
        # rho would need about 2**30 steps; ECM's schedule splits each within the cap in seconds
        sympy = pytest.importorskip("sympy")
        assert p.bit_length() == q.bit_length() == 60
        assert dict(factorize(p * q, bound=2**200).factors) == sympy.factorint(p * q)

    def test_two_90_bit_primes_are_refused_within_the_budget(self):
        # the default bound gives n, far above it, 24 * bound^(1/4) multiplications
        n = 773712524553362671811952653 * 928455029464035206174343241
        start = time.perf_counter()
        with pytest.raises(CapabilityError) as refused:
            factorize(n)
        assert time.perf_counter() - start < 2
        assert 0 < refused.value.used <= refused.value.limit == 24 * 65535

    def test_uncertifiable_prime_is_capability_error(self):
        with pytest.raises(CapabilityError):
            factorize(2**89 - 1)

    def test_rho_budget_above_the_bound(self):
        # rho splits 1000003 * 1000033 after about 1000 steps: inside the budget of
        # 24 * bound^(1/4) modular multiplications for bound = 2**32 (6144), past it
        # for 2**20 (768), where the 255 steps of the rounds up to r = 128 take 765
        n = 1000003 * 1000033
        assert factorize(n, bound=2**32).factors == ((1000003, 1), (1000033, 1))
        with pytest.raises(CapabilityError, match="after 765 of 768 modular multiplications"):
            factorize(n, bound=2**20)

    def test_rho_cap_holds_below_the_bound(self, monkeypatch):
        # at or below the bound rho gets no tighter budget, but never more than the cap
        monkeypatch.setattr(arith, "_WORK_CAP", 768)
        with pytest.raises(CapabilityError, match="after 765 of 768 modular multiplications"):
            factorize(1000003 * 1000033, bound=2**64)

    def test_rho_refusal_names_the_limit_that_stopped_it(self, monkeypatch):
        monkeypatch.setattr(arith, "_WORK_CAP", 768)
        n = 1000003 * 1000033
        with pytest.raises(CapabilityError) as capped:
            factorize(n, bound=2**64)
        assert str(capped.value).endswith("of 768 modular multiplications; the limit is the cap per call")
        assert str(2**64) not in str(capped.value)
        # a bound below n sets a smaller budget, and the refusal names the bound
        with pytest.raises(CapabilityError) as bounded:
            factorize(n, bound=2**16)
        assert str(bounded.value).endswith("the supported factorization bound is 65536")
        assert "of 384 modular multiplications" in str(bounded.value)
        assert "the cap" not in str(bounded.value)

    def test_refusals_carry_the_budget(self, monkeypatch):
        # a budget's refusal carries its limit and what it used; any other refusal None
        n = 1000003 * 1000033
        for bound, limit in ((2**20, 768), (2**16, 384)):
            with pytest.raises(CapabilityError) as refused:
                factorize(n, bound=bound)
            assert (refused.value.limit, refused.value.used) == (limit, limit - 3)
        monkeypatch.setattr(arith, "_WORK_CAP", 1 << 12)
        with pytest.raises(CapabilityError) as refused:
            factorize(562949953433657 * 562950941075639, bound=2**200)
        assert refused.value.limit == 1 << 12
        assert 0 < refused.value.used <= refused.value.limit
        for call in (lambda: is_prime(2**65), lambda: factorize(2 * _CERTIFIED_LIMIT, bound=10**25)):
            with pytest.raises(CapabilityError) as refused:
                call()
            assert (refused.value.limit, refused.value.used) == (None, None)

    @given(st.integers(1, 20000))
    @settings(max_examples=60, deadline=None)
    def test_the_budget_is_never_overrun(self, limit):
        # every charge is taken before its work, whatever the limit: p - 1 (below 20000
        # it costs 11,906), rho's runs and batches, and the backtrack of a batch
        n = 1000003 * 1000033 * 536870923 * 536870951
        with mock.patch.object(arith, "_WORK_CAP", limit):
            try:
                f = factorize(n)
            except CapabilityError as exc:
                assert (exc.limit, 0 <= exc.used <= limit) == (limit, True)
            else:
                assert f.factors == ((1000003, 1), (1000033, 1), (536870923, 1), (536870951, 1))

    @pytest.mark.parametrize("limit", [50_000, 100_000, 150_000])
    def test_each_ecm_curve_is_charged_before_it_runs(self, monkeypatch, limit):
        # two 50-bit primes that p - 1 misses: after p - 1 and the Brent run, only the curves
        # the budget covers run, and nothing but the Brent run is charged beside them
        curves = []
        real = arith._ecm_curve

        def counted(n, sigma, plan):
            curves.append(sigma)
            return real(n, sigma, plan)

        monkeypatch.setattr(arith, "_ecm_curve", counted)
        monkeypatch.setattr(arith, "_WORK_CAP", limit)
        with pytest.raises(CapabilityError) as refused:
            factorize(562949953433657 * 562950941075639, bound=2**200)
        fit = (limit - arith._pm1_plan().cost - arith._RHO_LEG) // arith._ecm_plan(500).cost
        assert curves == list(range(6, 6 + fit)) and fit > 0
        assert refused.value.used <= refused.value.limit == limit
        spent = refused.value.used - arith._pm1_plan().cost - fit * arith._ecm_plan(500).cost
        assert spent <= arith._RHO_LEG

    def test_an_ecm_curve_whose_denominator_shares_a_prime_returns_it(self):
        # sigma = 6 gives 16 * u^3 * v = 2^7 * 3 * 31^3, so the inverse of it mod n is never taken
        assert arith._ecm_curve(31 * 1000003, 6, arith._ecm_plan(500)) == 31

    def test_the_ecm_schedule_outlasts_the_cap(self, monkeypatch):
        # a refusal at any budget ends on the budget, as the schedule has no end: with every
        # curve a miss, even a cap of 2**26 is left with less than one curve at B1 = 11,000
        monkeypatch.setattr(arith, "_ecm_curve", lambda n, sigma, plan: 1)
        monkeypatch.setattr(arith, "_WORK_CAP", 2**26)
        with pytest.raises(CapabilityError) as refused:
            factorize(562949953433657 * 562950941075639, bound=2**200)
        assert refused.value.limit == 2**26
        assert refused.value.limit - refused.value.used < arith._ecm_plan(11_000).cost

    def test_no_ecm_curve_within_the_cap_reaches_its_guard(self, monkeypatch):
        # the premise of _ecm_curve's guard: after p - 1 and a Brent run that spends anything
        # from nothing to _RHO_LEG, the cap covers the curves up to sigma = 187, and every prime
        # of their 16 * u^3 * v is below 2**16, where _split's n has none
        sympy = pytest.importorskip("sympy")
        sigmas = []
        monkeypatch.setattr(arith, "_ecm_curve", lambda n, sigma, plan: sigmas.append(sigma) or 1)
        for brent in (0, arith._RHO_LEG):
            sigmas.clear()
            budget = arith._Budget(1, 1)
            budget.used = arith._pm1_plan().cost + brent
            assert arith._ecm(1000003 * 1000033, budget) is None
            assert budget.limit == arith._WORK_CAP and sigmas == list(range(6, 188))
        for sigma in sigmas:
            u, v = sigma * sigma - 5, 4 * sigma
            assert max(sympy.primefactors(16 * u**3 * v)) < 1 << 16, sigma

    @pytest.mark.parametrize("b1", [500, 2_000, 11_000])
    def test_a_curve_is_charged_no_fewer_multiplications_than_it_does(self, b1):
        # _ecm_curve's work, step by step: a ladder over m is one doubling (5) and 11 per
        # further bit; 5Q and 6Q by the ladder over 5, then one addition per further j of the
        # two chains; one addition per further giant step; 4 per Z of the batch inversion
        # and its one inverse; 1 per pair, the k = 0 row left out
        plan = arith._ecm_plan(b1)
        start = plan.first or 1
        rows = plan.steps[start - plan.first :]

        def ladder(m):
            return 5 + 11 * (m.bit_length() - 1)

        ladders = ladder(plan.scalar) + ladder(arith._ECM_D) + ladder(start)
        babies = ladder(5) + 6 * (len(plan.kept) - 2)
        giants = 6 * (len(rows) - 2)
        inversion = 4 * (sum(plan.kept) + len(rows)) + 1
        pairs = sum(map(len, rows))
        assert sum(plan.kept) == 240 and len(plan.kept) == 386
        assert ladders + babies + giants + inversion + pairs <= plan.cost
        # the charge itself is the one of every odd j and three multiplications a pair
        assert (arith._ecm_plan(500).cost, arith._ecm_plan(2_000).cost) == (23_306, 77_377)
        assert arith._ecm_plan(11_000).cost == 387_138

    def test_the_ladder_over_5_is_the_walk_to_5q_and_6q(self):
        # 2Q by doubling, 3Q = 2Q + Q, 5Q = 3Q + 2Q and 6Q by doubling 3Q, through the
        # reference formulas, bit for bit on seeded curves and points
        from oracles import _xadd, _xdbl

        rng = random.Random(41)
        for _ in range(50):
            n = rng.getrandbits(rng.randint(40, 128)) | 1
            x, z, a24 = (rng.randrange(n) for _ in range(3))
            x2, z2 = _xdbl(x, z, a24, n)
            x3, z3 = _xadd(x2, z2, x, z, x, z, n)
            x5, z5 = _xadd(x3, z3, x2, z2, x, z, n)
            assert arith._ladder(5, x, z, a24, n) == (x5, z5, *_xdbl(x3, z3, a24, n))

    def test_a_progression_is_repeated_differential_addition(self):
        # point + i * step from prev = point - step, each by the reference addition of step
        # to the point before, whose difference is the one before that
        from oracles import _xadd

        rng = random.Random(42)
        for count in (1, 2, 3, 40):
            n = rng.getrandbits(rng.randint(40, 128)) | 1
            prev, point, step = ((rng.randrange(n), rng.randrange(n)) for _ in range(3))
            points = [prev, point]
            while len(points) < count + 1:
                points.append(_xadd(*points[-1], *step, *points[-2], n))
            xs, zs = arith._progression(prev, point, step, count, n)
            assert list(zip(xs, zs)) == points[1:]

    def test_the_curve_splits_whatever_the_reference_curve_splits(self):
        # the curve of un-normalised stage 2 over every odd j, as it stood before, on seeded
        # products of two primes of 20 to 40 bits: every n it splits, the normalised curve
        # splits too, and what either returns between 1 and n divides n
        from oracles import reference_ecm_curve

        rng = random.Random(32)

        def prime(bits):
            while True:
                p = rng.getrandbits(bits) | 1 << (bits - 1) | 1
                if is_prime(p):
                    return p

        gained = 0
        for b1, count in ((500, 300), (2_000, 20), (11_000, 3)):
            plan = arith._ecm_plan(b1)
            for _ in range(count):
                n = prime(rng.randint(20, 40)) * prime(rng.randint(20, 40))
                sigma = rng.randrange(6, 188)
                before = reference_ecm_curve(n, sigma, plan)
                after = arith._ecm_curve(n, sigma, plan)
                assert n % before == 0 and n % after == 0, (n, sigma, b1)
                assert after not in (1, n) or before in (1, n), (n, sigma, b1)
                gained += after not in (1, n) and before in (1, n)
        assert gained > 0

    def test_a_curve_whose_z_product_is_zero_mod_n_is_a_miss(self):
        # a Z of the batch inversion is zero mod both primes of n: the curve returns n,
        # and the un-normalised curve found both primes at once too
        from oracles import reference_ecm_curve

        n, plan = 10055579657792821279, arith._ecm_plan(500)
        assert arith._ecm_curve(n, 9, plan) == n == reference_ecm_curve(n, 9, plan)

    def test_one_budget_covers_every_cofactor_of_a_call(self, monkeypatch):
        # the square splits for free into two copies of 1000003 * 1000033, each of which
        # p - 1 splits for its whole cost; past one cost, the second copy is left to rho
        n = (1000003 * 1000033) ** 2
        cost = arith._pm1_plan().cost
        monkeypatch.setattr(arith, "_WORK_CAP", 2 * cost)
        assert factorize(n).factors == ((1000003, 2), (1000033, 2))
        monkeypatch.setattr(arith, "_WORK_CAP", cost + 768)
        with pytest.raises(CapabilityError) as refused:
            factorize(n)
        assert refused.value.limit == cost + 768
        assert cost < refused.value.used <= refused.value.limit

    def test_p_minus_1_splits_before_rho(self, monkeypatch):
        # 1000033 - 1 = 2^5 * 3 * 11 * 947, so p - 1 splits n without a rho evaluation
        def refuse(*args):
            raise AssertionError("rho was entered")

        monkeypatch.setattr(arith, "_brent_cycle", refuse)
        assert factorize(1000003 * 1000033).factors == ((1000003, 1), (1000033, 1))

    @pytest.mark.parametrize("bound", [{}, {"bound": 2**200}])
    def test_smooth_p_minus_1_answers_where_rho_is_refused(self, bound):
        # 3488667409721572847 - 1 = 2 * 1123 * 2287 * 2897 * 4057 * 57787; rho alone runs
        # out of the default budget on this 122-bit n, and takes 10 s to its cap
        n = 3488667409721572847 * 1152921504606847009
        start = time.perf_counter()
        f = factorize(n, **bound)
        assert time.perf_counter() - start < 1
        assert f.factors == ((1152921504606847009, 1), (3488667409721572847, 1))

    def test_p_minus_1_leaves_the_refused_cofactors_to_rho(self):
        # Each has a prime above 2**16 in both p - 1 (the largest named), so p - 1 leaves the
        # refusals that tests and the benchmark expect of them, and the answers, to the later steps
        c = 18446744073709552109  # 330441535519 | c - 1, and c | 2c = (2c + 1) - 1
        assert arith._pm1(c * (2 * c + 1)) is None
        assert arith._pm1(562949953433657 * 562950941075639) is None  # 2749745777, 3524920423
        assert arith._pm1(621334231200341 * 1084074551536477) is None  # 4125899, 9587939
        # p - 1 splits these two at once, so their refusal tests, run at budgets of 768 and
        # 6144 modular multiplications, check that p - 1 stays out of a budget below its cost
        assert arith._pm1(1000003 * 1000033) == 1000033
        assert arith._pm1(536870923 * 536870951) == 536870951
        assert 6144 < arith._pm1_plan().cost

    def test_smooth_numbers_above_the_bound_still_factor(self):
        f = factorize(2**100 * 3**5)
        assert f.factors == ((2, 100), (3, 5))

    def test_invalid_construction_rejected(self):
        with pytest.raises(DomainError):
            Factorization(12, ((3, 1), (2, 2)))  # primes out of order
        with pytest.raises(DomainError):
            Factorization(12, ((2, 2), (5, 1)))  # wrong product
        with pytest.raises(DomainError):
            Factorization(12, ((2, 0), (3, 1)))  # zero exponent
        with pytest.raises(DomainError, match=r"\AFactorization requires n >= 1, got 0\Z"):
            Factorization(0, ())
        with pytest.raises(DomainError, match="do not multiply back to 12"):
            Factorization._from_sorted(12, ((2, 2), (5, 1)))
        # the "primes" are certified as factorize certifies a cofactor
        with pytest.raises(DomainError, match=r"\Afactor 561 of 561 is not prime\Z"):
            Factorization(561, ((561, 1),))  # a Carmichael number
        with pytest.raises(DomainError, match=r"\Afactor 4 of 16 is not prime\Z"):
            Factorization(16, ((4, 2),))
        q = 9118249094292696600751  # a prime past 2**64, so 3q is a composite past it
        with pytest.raises(DomainError, match=f"factor {3 * q} of {9 * q} is not prime"):
            Factorization(9 * q, ((3, 1), (3 * q, 1)))
        with pytest.raises(DomainError, match="is not prime"):
            Factorization(3 * _MR_PSI[11], ((3, 1), (_MR_PSI[11], 1)))  # base 41 catches psi_12
        with pytest.raises(CapabilityError, match="beyond the certified bound"):
            Factorization(_MR_PSI[12], ((_MR_PSI[12], 1),))  # passes all 13 bases

    def test_predicates(self):
        assert factorize(1).factors == ()
        assert factorize(7).is_prime
        assert factorize(561).is_composite
        assert factorize(561).is_squarefree
        assert not factorize(45).is_squarefree


class TestEulerPhi:
    def test_examples(self):
        assert euler_phi(5) == 4
        assert euler_phi(24) == 8
        assert euler_phi(1) == 1

    def test_matches_coprime_count_to_300(self):
        for n in range(1, 301):
            assert euler_phi(n) == brute_phi(n), n

    def test_accepts_factorization(self):
        assert euler_phi(factorize(24)) == 8

    def test_multiplicative_on_random_coprime_pairs(self):
        rng = random.Random(0xC0FFEE)
        checked = 0
        while checked < 300:
            s, t = rng.randrange(1, 10**3), rng.randrange(1, 10**3)
            from math import gcd

            if gcd(s, t) != 1 or s * t > 10**6:
                continue
            assert euler_phi(s * t) == euler_phi(s) * euler_phi(t)
            checked += 1


class TestPrimeExponent:
    """The exponent of a prime p in n, read from factorize as dict(factorize(n).factors).get(p, 0)."""

    def test_examples(self):
        for p, n, e in ((2, 252, 2), (3, 252, 2), (5, 7, 0), (3, 45, 2), (7, 45, 0)):
            assert dict(factorize(n).factors).get(p, 0) == e, (p, n)

    def test_prime_above_64_bits_is_certified(self):
        # factorize certifies this q up to the Miller-Rabin limit, and splits a power
        # of it at once by its integer root
        q = 9118249094292696600751
        assert q > 2**64 and factorize(q, bound=_CERTIFIED_LIMIT).is_prime
        for n, e in ((3 * q, 1), (5 * q**2, 2), (5 * q**3, 3), (q + 1, 0)):
            assert dict(factorize(n, bound=_CERTIFIED_LIMIT).factors).get(q, 0) == e, n


class TestDivisors:
    def test_examples(self):
        assert divisors(24) == [1, 2, 3, 4, 6, 8, 12, 24]
        assert divisors(1) == [1]
        assert divisors(13) == [1, 13]

    @given(st.integers(min_value=1, max_value=5000))
    def test_matches_brute_force(self, n):
        assert divisors(n) == brute_divisors(n)

    def test_720720_is_unchanged(self):
        assert divisors(720720) == brute_divisors(720720)
        assert len(divisors(720720)) == 240

    def test_more_divisors_than_the_cap_are_refused_before_any_is_built(self, monkeypatch):
        # the product of the first 20 primes has 2^20 divisors, above SOLUTION_CAP = 10^6
        primorial = prod(_small_primes()[:20])
        monkeypatch.setattr(arith, "_smallest_divisors", lambda *args: pytest.fail("built"))
        start = time.perf_counter()
        with pytest.raises(CapabilityError, match=f"^{primorial} has 1048576 divisors, above"):
            divisors(primorial)
        assert time.perf_counter() - start < 0.1
        assert kunits.solver.SOLUTION_CAP is arith.SOLUTION_CAP == 10**6

    def test_matches_brute_force_up_to_3000(self):
        for n in range(1, 3001):
            assert divisors(n) == brute_divisors(n), n

    @given(
        st.dictionaries(st.sampled_from([2, 3, 5, 7, 11, 13, 101, 65537]), st.integers(1, 5), max_size=5),
        st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=150)
    def test_smallest_divisors_of_small_factorizations(self, powers, stop):
        factors = tuple(sorted(powers.items()))
        # every choice of exponents, then one sort: no merging, no cut
        expected = sorted(
            prod(p**i for (p, _), i in zip(factors, exponents))
            for exponents in product(*(range(e + 1) for _, e in factors))
        )
        f = Factorization(prod(p**e for p, e in factors), factors)
        assert smallest_divisors(f, stop) == expected[:stop]
        assert smallest_divisors(f) == arith._smallest_divisors(f) == divisors(f) == expected
        low, high = kunits.solver._divisors(f, stop)
        assert low.tolist() + high == expected[:stop]

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=200)
    def test_count_and_divisibility(self, n):
        f = factorize(n)
        ds = divisors(f)
        expected_count = 1
        for _, e in f.factors:
            expected_count *= e + 1
        assert len(ds) == expected_count
        assert all(n % d == 0 for d in ds)
        assert ds == sorted(ds)


class TestPow:
    """The builtin pow, which the library calls for a**e mod n."""

    def test_examples(self):
        assert pow(2, 2, 5) == 4
        assert pow(4, 2, 5) == 1
        assert pow(9, 0, 7) == 1

    def test_modulus_one(self):
        assert pow(5, 0, 1) == 0

    def test_agrees_with_iterated_multiplication(self):
        # the full grid: a, n <= 50, e <= 20
        for n in range(1, 51):
            for a in range(0, 51):
                for e in range(0, 21):
                    assert pow(a, e, n) == brute_pow_mod(a, e, n)


class TestReadInt:
    """The one reader of integers from outside: ASCII [+-]?[0-9]+, else None."""

    @pytest.mark.parametrize("text, value", [("0", 0), ("-7", -7), ("+5", 5), ("007", 7)])
    def test_accepted(self, text, value):
        assert _read_int(text, "n") == value

    @pytest.mark.parametrize(
        "text", ["", "+", "-", "+-5", "5.0", "1_0", "\u0663", "\u00b2", " 5", "5 ", "5\n", "0x10"]
    )
    def test_other_text_is_none(self, text):
        assert _read_int(text, "n") is None

    @pytest.mark.parametrize("sign", ["", "+", "-"])
    def test_past_the_digit_limit_is_refused_by_its_digit_count(self, sign):
        with pytest.raises(DomainError) as exc:
            _read_int(sign + "9" * 4301, "n")
        assert str(exc.value) == "n of 4301 digits exceeds the digit limit"


class TestGate:
    """The one check of the integer parameters names a refused value in full up to 1024 bits."""

    @pytest.mark.parametrize(
        "k, shown",
        [
            (2**1024 - 1, str(2**1024 - 1)),
            (2**4000, "a 4001-bit integer"),
            (10**5000, "a 16610-bit integer"),
        ],
        ids=["1024 bits", "4001 bits", "past the digit limit"],
    )
    def test_a_long_value_is_named_by_its_size(self, k, shown):
        # 10**5000 is past the int-to-str digit limit, where formatting it raised ValueError
        with pytest.raises(DomainError) as exc:
            kunits.k_unit_stats(0, k)
        assert str(exc.value) == f"k_unit_stats requires n >= 1 and k >= 1, got n=0, k={shown}"

    def test_a_long_negative_value_is_named_by_its_size(self):
        with pytest.raises(DomainError, match="got a negative 4001-bit integer$"):
            kunits.is_prime(-(2**4000))

    @pytest.mark.parametrize(
        "n, shown",
        [
            (Fraction(1, 3), "Fraction(1, 3)"),
            (Fraction(2**4000, 3), "a Fraction"),
            (Fraction(10**5000, 3), "a Fraction"),
        ],
        ids=["short", "long", "past the digit limit"],
    )
    def test_a_non_integer_is_named_by_its_repr_or_its_type(self, n, shown):
        # a repr longer than that of a 1024-bit int, or one that cannot be written, gives the type
        with pytest.raises(DomainError) as exc:
            factorize(n)
        assert str(exc.value) == (
            f"factorization requires n >= 1, got {shown}: "
            "'Fraction' object cannot be interpreted as an integer"
        )


def test_factor_map_oracle_agreement_sampled():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randrange(1, 10**6)
        assert {p: e for p, e in factorize(n).factors} == brute_factor_map(n)
