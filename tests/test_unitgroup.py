import random
import tracemalloc
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kunits import (
    CapabilityError,
    CyclicDecomposition,
    DomainError,
    du_k_product,
    enumerate_k_units,
    euler_phi,
    k_unit_stats,
    unit_group_structure,
    unitgroup,
)

from oracles import (
    brute_cyclic_product_k_units,
    brute_du_crt,
    brute_k_units,
    brute_k_units_by_order,
    brute_phi,
    scan_k_units,
)


class TestUnitGroupStructure:
    @pytest.mark.parametrize(
        "n,orders",
        [
            (1, ()),
            (2, ()),
            (4, (2,)),
            (8, (2, 2)),
            (16, (2, 4)),
            (5, (4,)),
            (9, (6,)),
            (15, (2, 4)),
            (24, (2, 2, 2)),
            (560, (2, 4, 4, 6)),  # 2^4 * 5 * 7
        ],
    )
    def test_canonical_form(self, n, orders):
        d = unit_group_structure(n)
        assert d.orders == orders

    def test_group_order_is_phi(self):
        for n in range(1, 2001):
            assert unit_group_structure(n).group_order == brute_phi(n), n

    def test_bad_orders_rejected(self):
        with pytest.raises(DomainError):
            CyclicDecomposition((2, 0))
        with pytest.raises(DomainError):
            CyclicDecomposition((0,))

    def test_equals_the_checked_decomposition(self):
        group = unit_group_structure(560)
        assert group == CyclicDecomposition((2, 4, 4, 6))
        assert hash(group) == hash(CyclicDecomposition((2, 4, 4, 6)))


def cyclic(r: int) -> CyclicDecomposition:
    return CyclicDecomposition((r,))


class TestDuKProductOnOneCyclicFactor:
    def test_examples(self):
        assert du_k_product(2, cyclic(4)) == 2
        assert du_k_product(1, cyclic(17)) == 1
        assert du_k_product(6, cyclic(4)) == 2

    @given(st.integers(1, 300), st.integers(1, 300))
    def test_matches_congruence_count(self, k, r):
        # elements g^i with (g^i)^k = 1, i.e. ki = 0 mod r
        assert du_k_product(k, cyclic(r)) == sum(1 for i in range(r) if (k * i) % r == 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            du_k_product(0, cyclic(4))
        with pytest.raises(DomainError):
            cyclic(0)


class TestDuKProduct:
    def test_examples(self):
        assert du_k_product(2, CyclicDecomposition((2, 2))) == 4
        assert du_k_product(17, CyclicDecomposition(())) == 1
        assert du_k_product(252, CyclicDecomposition((2, 4))) == 8

    @given(
        st.integers(1, 64),
        st.lists(st.integers(1, 12), min_size=0, max_size=4),
    )
    def test_matches_tuple_scan(self, k, orders):
        dec = CyclicDecomposition(tuple(orders))
        assert du_k_product(k, dec) == brute_cyclic_product_k_units(tuple(orders), k)


def du_two_power(k: int, alpha: int) -> int:
    return du_k_product(k, unit_group_structure(1 << alpha))


class TestDuKTwoPower:
    def test_examples(self):
        assert du_two_power(2, 3) == 4
        assert du_two_power(3, 5) == 1
        assert du_two_power(4, 4) == 8  # phi(16)

    def test_matches_enumeration(self):
        # alpha < 3 included: 1, 2 and 4 have the trivial group and C_2
        for alpha in range(10):
            for k in range(1, 33):
                assert du_two_power(k, alpha) == len(brute_k_units(1 << alpha, k))


class TestKUnitStats:
    def test_half_the_units_mod_5_square_to_one(self):
        s = k_unit_stats(5, 2)
        assert (s.du, s.pdu, s.rdu) == (2, Fraction(1, 2), 2)

    def test_divisor_of_24(self):
        s = k_unit_stats(24, 2)
        assert (s.du, s.rdu) == (8, 1)

    def test_sixteen(self):
        s = k_unit_stats(16, 2)
        assert (s.du, s.rdu) == (4, 2)
        assert enumerate_k_units(16, 2) == [1, 7, 9, 15]

    def test_trivial_moduli(self):
        for n in (1, 2):
            for k in (1, 2, 7, 100):
                s = k_unit_stats(n, k)
                assert (s.du, s.pdu, s.rdu) == (1, Fraction(1, 1), 1)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            k_unit_stats(0, 2)
        with pytest.raises(DomainError):
            k_unit_stats(5, 0)

    def test_agrees_with_product_formula_full_grid(self):
        # closed form vs unit orders from iterated multiplication, per prime power
        ks = range(1, 65)
        for n in range(1, 2001):
            for k, du in zip(ks, brute_du_crt(n, ks)):
                assert k_unit_stats(n, k).du == du, (n, k)
        # and vs the brute-force count, which shares no code with either
        for n in range(1, 301):
            for k in range(1, 65):
                assert k_unit_stats(n, k).du == len(brute_k_units(n, k)), (n, k)

    @given(st.integers(1, 400), st.integers(1, 64))
    @settings(max_examples=150)
    def test_du_divides_phi_and_rdu_exact(self, n, k):
        s = k_unit_stats(n, k)
        phi = brute_phi(n)
        assert phi % s.du == 0
        assert s.rdu * s.du == phi
        assert s.pdu == Fraction(s.du, phi)
        assert s.phi == phi

    def test_multiplicative_on_coprime_pairs(self):
        rng = random.Random(20260810)
        checked = 0
        while checked < 200:
            s, t = rng.randrange(1, 10**4), rng.randrange(1, 10**4)
            if gcd(s, t) != 1:
                continue
            k = rng.randrange(1, 65)
            a, b, c = k_unit_stats(s, k), k_unit_stats(t, k), k_unit_stats(s * t, k)
            assert c.du == a.du * b.du
            assert c.rdu == a.rdu * b.rdu
            assert c.pdu == a.pdu * b.pdu
            checked += 1


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@given(st.integers(1 << 19, (1 << 40) - 1), st.sampled_from([2, 12, 252, 720720]))
@settings(max_examples=100, deadline=None)
def test_k_unit_stats_matches_sympy_totients(sympy, n, k):
    stats = k_unit_stats(n, k)
    assert stats.phi == sympy.totient(n)
    assert (stats.rdu == 1) == (k % sympy.reduced_totient(n) == 0)
    assert stats.du * stats.rdu == stats.phi


class TestEnumerateKUnits:
    def test_examples(self):
        assert enumerate_k_units(5, 2) == [1, 4]
        assert enumerate_k_units(8, 2) == [1, 3, 5, 7]
        assert enumerate_k_units(1, 7) == [0]
        for n in (2, 3, 10, 97):
            assert enumerate_k_units(n, 1) == [1]

    @given(st.integers(1, 600), st.integers(1, 48))
    @settings(max_examples=200)
    def test_matches_iterated_multiplication_oracle(self, n, k):
        assert enumerate_k_units(n, k) == brute_k_units(n, k)

    def test_small_moduli_match_the_oracle(self):
        # the construction serves every n >= 1; n = 1 gives 0, as 0 = 1 mod 1
        for n in range(1, 136):
            for k in (1, 2, 6, 63):
                assert enumerate_k_units(n, k) == brute_k_units(n, k)

    def test_matches_unit_orders_grid(self):
        ks = (1, 2, 3, 6, 12, 720)
        for n in range(1, 2001):
            for k, units in zip(ks, brute_k_units_by_order(n, ks)):
                assert enumerate_k_units(n, k) == units, (n, k)

    @pytest.mark.parametrize("n", [30030, 60060, 2 * 30030 + 1])
    def test_every_wheel_prime(self, n):
        # 30030 = 2*3*5*7*11*13 and 60060 have six prime factors, of which
        # 2 twice; 60061 = 17 * 3533
        ks = (1, 2, 720)
        for k, units in zip(ks, brute_k_units_by_order(n, ks)):
            assert enumerate_k_units(n, k) == units, (n, k)

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_chunk_boundaries(self, chunk):
        # the oracle scan steps by the chunk for n coprime to 30030 and by
        # twice the chunk for n = 2 * odd coprime to 15015; a small chunk puts
        # such edges, just above 128, within reach of the brute-force oracle
        for step in (chunk, 2 * chunk):
            edge = max(2, 128 // step + 1) * step
            for n in range(edge - 2, edge + 3):
                for k in (1, 2, 720):
                    expected = brute_k_units(n, k)
                    assert enumerate_k_units(n, k) == expected, (chunk, n, k)
                    assert scan_k_units(n, k, chunk) == expected, (chunk, n, k)

    @pytest.mark.parametrize("n", [(1 << 16) + 1, (1 << 17) - 1])
    def test_full_size_chunk_boundary(self, n):
        # n coprime to the oracle scan's wheel, one residue past or short of
        # its chunk edge
        for k in (1, 2, 720):
            units = enumerate_k_units(n, k)
            assert len(units) == len(set(units)) == k_unit_stats(n, k).du
            assert units == sorted(units)
            assert all(pow(a, k, n) == 1 for a in units)
            assert units == scan_k_units(n, k)
            if k < 3:
                assert units == brute_k_units(n, k)

    def test_int64_overflow_is_refused(self):
        # (n - 1)^2 wraps in int64 past n = 3037000500; the construction
        # refuses before it allocates anything
        with pytest.raises(CapabilityError, match="int64"):
            enumerate_k_units(4 * 10**9 + 7, 2, bound=5 * 10**9)
        with pytest.raises(CapabilityError, match="int64"):
            enumerate_k_units(3037000501, 1, bound=10**10)
        # below the edge it answers: the products of 2 * 7^2 * 31 * 999671's
        # residues reach (n - 1)^2, near 2^63
        n, k = 3037000498, 720
        units = enumerate_k_units(n, k, bound=n)
        assert len(set(units)) == len(units) == k_unit_stats(n, k).du == 1800
        assert units == sorted(units) and units[-1] == n - 1
        assert all(pow(a, k, n) == 1 for a in units)

    def test_memory_is_bounded_by_the_count(self):
        # numpy reports its buffers to tracemalloc; a scan of the residues in
        # chunks of 2^16 peaked at 2 MB here, and one holding n values would
        # peak near 240 MB
        tracemalloc.start()
        try:
            units = enumerate_k_units(9999991, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert units == [1, 9999990]
        assert peak < 2**20

    @pytest.mark.parametrize("n, k", [(1, 7), (24, 2), (561, 80), (1001, 720), (9999990, 720)])
    def test_k_units_is_one_uint32_array_of_its_own(self, n, k):
        units = unitgroup._k_units(n, k, 10**7)
        assert units.dtype == np.uint32 and units.base is None
        assert units.flags.c_contiguous
        if n < 10**4:
            assert units.tolist() == brute_k_units(n, k)
        else:
            assert units.tolist() == scan_k_units(n, k)

    @pytest.mark.parametrize("k", [2, 40486, 40487, 80974])
    def test_prime_square_whose_least_root_does_not_lift(self, k):
        # 5 is the least primitive root mod 40487, and 5^40486 = 1 mod
        # 40487^2, so 5 does not generate U(Z_{40487^2}) and 5 + 40487 does
        p = 40487
        n = p * p
        assert 2 * 31 * 653 == p - 1
        roots = [g for g in range(2, 6) if all(pow(g, (p - 1) // q, p) != 1 for q in (2, 31, 653))]
        assert roots == [5] and pow(5, p - 1, n) == 1
        units = enumerate_k_units(n, k, bound=n)
        assert len(set(units)) == len(units) == k_unit_stats(n, k).du
        assert units == sorted(units)
        assert all(pow(a, k, n) == 1 for a in units)

    def test_powers_of_two(self):
        # U(Z_{2^e}) = <-1> x <5>: every e up to 2^31 < 3037000500
        for e in range(1, 32):
            n = 1 << e
            for k in (1, 2, 4, 12, 720, 1 << 10):
                units = enumerate_k_units(n, k, bound=n)
                assert len(set(units)) == len(units) == k_unit_stats(n, k).du, (e, k)
                assert units == sorted(units)
                assert all(pow(a, k, n) == 1 for a in units), (e, k)
                if e <= 12:
                    assert units == brute_k_units(n, k), (e, k)

    @given(st.integers(2, 300), st.integers(1, 32))
    @settings(max_examples=100)
    def test_subgroup_closure(self, n, k):
        units = enumerate_k_units(n, k)
        members = set(units)
        assert 1 in members
        for a in units:
            assert pow(a, -1, n) in members
            for b in units:
                assert a * b % n in members

    def test_count_matches_closed_form_sampled(self):
        rng = random.Random(99)
        for _ in range(300):
            n, k = rng.randrange(1, 3000), rng.randrange(1, 65)
            units = scan_k_units(n, k)
            assert len(units) == k_unit_stats(n, k).du
            assert enumerate_k_units(n, k) == units

    def test_enumeration_bound(self):
        with pytest.raises(CapabilityError):
            enumerate_k_units(10**7 + 1, 2)
        with pytest.raises(CapabilityError):
            enumerate_k_units(1000, 2, bound=999)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            enumerate_k_units(0, 1)
        with pytest.raises(DomainError):
            enumerate_k_units(5, 0)


class TestReducedExponent:
    """The k-units equal the d-units for d = gcd(k, phi(n))."""

    def test_examples(self):
        assert gcd(6, euler_phi(5)) == 2
        assert enumerate_k_units(5, 6) == scan_k_units(5, 2)
        assert gcd(7, euler_phi(5)) == 1
        assert gcd(10, euler_phi(24)) == 2
        assert enumerate_k_units(24, 10) == scan_k_units(24, 2)

    @given(st.integers(1, 500), st.integers(1, 10**4))
    @settings(max_examples=150)
    def test_reduction_preserves_the_set(self, n, k):
        d = gcd(k, euler_phi(n))
        assert d == gcd(k, brute_phi(n))
        assert enumerate_k_units(n, k) == scan_k_units(n, d)
