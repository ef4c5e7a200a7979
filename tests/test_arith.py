import random
import time
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kunits import (
    CapabilityError,
    DomainError,
    Factorization,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    nu,
    pow_mod,
)
from kunits import arith
from kunits.arith import (
    _BLOCK,
    _CERTIFIED_LIMIT,
    _MR_PSI,
    _prime_blocks,
    _read_int,
    _small_primes,
    _smallest_divisors,
)

from oracles import brute_divisors, brute_factor_map, brute_is_prime, brute_phi, brute_pow_mod


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

    def test_psi13_itself_is_refused(self):
        assert _MR_PSI[12] == _CERTIFIED_LIMIT
        with pytest.raises(CapabilityError) as err:
            is_prime(_CERTIFIED_LIMIT, bound=10**25)
        assert str(_CERTIFIED_LIMIT) in str(err.value)
        assert not is_prime(_CERTIFIED_LIMIT - 1, bound=10**25)

    def test_agrees_with_sympy_around_every_psi(self):
        sympy = pytest.importorskip("sympy")
        for psi in sorted(set(_MR_PSI)):
            for n in range(max(0, psi - 200), psi + 201):
                if n >= _CERTIFIED_LIMIT:
                    with pytest.raises(CapabilityError):
                        is_prime(n, bound=10**25)
                else:
                    assert is_prime(n, bound=_CERTIFIED_LIMIT) == sympy.isprime(n), n

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

    def test_uncertifiable_prime_is_capability_error(self):
        with pytest.raises(CapabilityError):
            factorize(2**89 - 1)

    def test_rho_budget_above_the_bound(self):
        # rho splits 1000003 * 1000033 after about 1000 steps: inside the
        # budget 16 * bound^(1/4) for bound = 2**32, past it for 2**20
        n = 1000003 * 1000033
        assert factorize(n, bound=2**32).factors == ((1000003, 1), (1000033, 1))
        with pytest.raises(CapabilityError, match="after 512 rho iterations"):
            factorize(n, bound=2**20)

    def test_rho_cap_holds_below_the_bound(self, monkeypatch):
        # at or below the bound rho gets no tighter budget, but never more than the cap
        monkeypatch.setattr(arith, "_RHO_CAP", 512)
        with pytest.raises(CapabilityError, match="after 512 rho iterations"):
            factorize(1000003 * 1000033, bound=2**64)

    def test_rho_refusal_names_the_limit_that_stopped_it(self, monkeypatch):
        monkeypatch.setattr(arith, "_RHO_CAP", 512)
        n = 1000003 * 1000033
        with pytest.raises(CapabilityError) as capped:
            factorize(n, bound=2**64)
        assert "the rho cap is 512 iterations" in str(capped.value)
        assert str(2**64) not in str(capped.value)
        # a bound below n sets a smaller budget, and the refusal names the bound
        with pytest.raises(CapabilityError) as bounded:
            factorize(n, bound=2**16)
        assert str(bounded.value).endswith("the supported factorization bound is 65536")
        assert "rho cap" not in str(bounded.value)

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
        # Each has a prime above 2**16 in both p - 1 (the largest named), so the refusals that
        # tests and the benchmark expect of them stay rho's
        c = 18446744073709552109  # 330441535519 | c - 1, and c | 2c = (2c + 1) - 1
        assert arith._pm1(c * (2 * c + 1)) is None
        assert arith._pm1(562949953433657 * 562950941075639) is None  # 2749745777, 3524920423
        assert arith._pm1(621334231200341 * 1084074551536477) is None  # 4125899, 9587939
        # p - 1 splits these two at once, so their refusal tests, run at budgets of 512 and
        # 4096, check the gate that keeps p - 1 out below its cost
        assert arith._pm1(1000003 * 1000033) == 1000033
        assert arith._pm1(536870923 * 536870951) == 536870951
        assert 4096 < arith._pm1_plan().cost

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
        assert nu(3, 45) == 2
        assert nu(7, 45) == 0


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


class TestNu:
    def test_examples(self):
        assert nu(2, 252) == 2
        assert nu(3, 252) == 2
        assert nu(5, 7) == 0

    def test_non_prime_p_is_domain_error(self):
        with pytest.raises(DomainError):
            nu(4, 252)

    def test_n_zero_is_domain_error(self):
        with pytest.raises(DomainError):
            nu(2, 0)

    def test_prime_above_64_bits_is_certified(self):
        # factorize certifies this q up to the Miller-Rabin limit; so does nu
        q = 9118249094292696600751
        assert q > 2**64 and factorize(q, bound=_CERTIFIED_LIMIT).is_prime
        assert nu(q, 3 * q) == 1
        assert nu(q, 5 * q**3) == 3
        assert nu(q, q + 1) == 0
        with pytest.raises(DomainError):
            nu(q * 3, 9 * q)

    def test_p_beyond_the_certified_limit_is_refused(self):
        with pytest.raises(CapabilityError):
            nu(_CERTIFIED_LIMIT + 2, 7)
        with pytest.raises(CapabilityError):
            nu(_CERTIFIED_LIMIT, 7)

    def test_psi12_is_not_a_prime_argument(self):
        psi12 = 318665857834031151167461
        with pytest.raises(DomainError):
            nu(psi12, psi12**2)


class TestDivisors:
    def test_examples(self):
        assert divisors(24) == [1, 2, 3, 4, 6, 8, 12, 24]
        assert divisors(1) == [1]
        assert divisors(13) == [1, 13]

    @given(st.integers(min_value=1, max_value=5000))
    def test_matches_brute_force(self, n):
        assert divisors(n) == brute_divisors(n)

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
        assert _smallest_divisors(f, stop) == expected[:stop]
        assert _smallest_divisors(f) == divisors(f) == expected

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


class TestPowMod:
    def test_examples(self):
        assert pow_mod(2, 2, 5) == 4
        assert pow_mod(4, 2, 5) == 1
        assert pow_mod(9, 0, 7) == 1

    def test_modulus_one(self):
        assert pow_mod(5, 0, 1) == 0

    def test_modulus_zero_is_domain_error(self):
        with pytest.raises(DomainError):
            pow_mod(2, 3, 0)

    def test_negative_arguments_rejected(self):
        with pytest.raises(DomainError):
            pow_mod(-2, 3, 5)
        with pytest.raises(DomainError):
            pow_mod(2, -3, 5)

    def test_agrees_with_iterated_multiplication(self):
        # the full grid the contract promises: a, n <= 50, e <= 20
        for n in range(1, 51):
            for a in range(0, 51):
                for e in range(0, 21):
                    assert pow_mod(a, e, n) == brute_pow_mod(a, e, n)


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


def test_factor_map_oracle_agreement_sampled():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randrange(1, 10**6)
        assert {p: e for p, e in factorize(n).factors} == brute_factor_map(n)
