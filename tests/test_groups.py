"""Subgroup lattice: membership, sum, intersection, rank, normalization.

Expected values for the derived cases are computed by finite enumeration
oracles, never by the operations under test.
"""

import time
from fractions import Fraction
from math import inf, isqrt, prod

import pytest
from hypothesis import given, settings, strategies as st

from hvir import (
    FULL_Q,
    INTEGERS,
    TRIVIAL,
    Cyclic,
    Supernatural,
    contains,
    cyclic,
    finitely_generated,
    is_subgroup,
    normalize_alpha,
    qk,
    rank,
    subgroup_intersect,
    subgroup_sum,
    supernatural,
)
from hvir.groups import (
    MAX_FACTORIAL_ORDER,
    _SPRP_EXACT_BELOW,
    _is_prime,
)
from helpers import (
    reference_from_profile as _from_profile,
    reference_profile as _profile,
    reference_subgroup_intersect,
    reference_subgroup_sum,
)

F = Fraction


def cyclic_members(generator, count=60):
    """Enumeration oracle: the first multiples of the generator."""
    return {n * generator for n in range(-count, count + 1)}


def smallest_positive_combination(a, b, span=40):
    """Enumeration oracle for the sum of two cyclic groups."""
    values = {
        m * a + n * b
        for m in range(-span, span + 1)
        for n in range(-span, span + 1)
    }
    return min(v for v in values if v > 0)


def smallest_positive_common(a, b, count=600):
    """Enumeration oracle for the intersection of two cyclic groups."""
    common = cyclic_members(a, count) & cyclic_members(b, count)
    return min(v for v in common if v > 0)


small_rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)
positive_rationals = st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8)
cyclic_groups = positive_rationals.map(cyclic)


class TestContains:
    def test_cyclic_member(self):
        assert contains(cyclic(F(1, 2)), F(3, 2))

    def test_cyclic_non_member_matches_enumeration(self):
        assert F(1, 3) not in cyclic_members(F(1, 2))
        assert not contains(cyclic(F(1, 2)), F(1, 3))

    def test_supernatural_membership(self):
        two_adic = supernatural({2: inf})
        # oracle: some power of 2 clears the denominator
        assert any((F(5, 8) * 2 ** k).denominator == 1 for k in range(20))
        assert not any((F(1, 3) * 2 ** k).denominator == 1 for k in range(20))
        assert contains(two_adic, F(5, 8))
        assert not contains(two_adic, F(1, 3))

    def test_full_q(self):
        assert contains(FULL_Q, F(-7, 5))

    def test_trivial(self):
        assert contains(TRIVIAL, 0)
        assert not contains(TRIVIAL, F(1, 5))

    def test_bounded_supernatural_exponent(self):
        spec = supernatural({2: 2, 3: inf})
        assert contains(spec, F(1, 4))
        assert contains(spec, F(7, 36))
        assert not contains(spec, F(1, 8))

    @given(cyclic_groups, st.integers(-30, 30), st.integers(-30, 30))
    def test_difference_closure(self, group, m, n):
        x = m * group.generator
        y = n * group.generator
        assert contains(group, x) and contains(group, y)
        assert contains(group, x - y)


class TestSumIntersect:
    def test_sum_halves_thirds(self):
        expected = smallest_positive_combination(F(1, 2), F(1, 3))
        assert expected == F(1, 6)
        assert subgroup_sum(cyclic(F(1, 2)), cyclic(F(1, 3))) == cyclic(expected)

    def test_sum_with_trivial(self):
        assert subgroup_sum(cyclic(F(5, 7)), TRIVIAL) == cyclic(F(5, 7))

    def test_sum_with_full(self):
        assert subgroup_sum(cyclic(F(1, 2)), FULL_Q) == FULL_Q

    def test_intersect_halves_thirds(self):
        expected = smallest_positive_common(F(1, 2), F(1, 3))
        assert expected == F(1)
        assert subgroup_intersect(cyclic(F(1, 2)), cyclic(F(1, 3))) == cyclic(expected)

    def test_intersect_with_full(self):
        assert subgroup_intersect(cyclic(F(1, 2)), FULL_Q) == cyclic(F(1, 2))

    def test_intersect_two_thirds_one_half(self):
        expected = smallest_positive_common(F(2, 3), F(1, 2))
        assert expected == F(2)
        assert subgroup_intersect(cyclic(F(2, 3)), cyclic(F(1, 2))) == cyclic(expected)

    def test_supernatural_meets_and_joins(self):
        two = supernatural({2: inf})
        three = supernatural({3: inf})
        assert subgroup_intersect(two, three) == INTEGERS
        joined = subgroup_sum(two, three)
        assert joined == Supernatural(((2, inf), (3, inf)))
        assert contains(joined, F(5, 12))

    def test_sum_cyclic_supernatural(self):
        result = subgroup_sum(cyclic(F(1, 3)), supernatural({2: inf}))
        assert result == Supernatural(((2, inf), (3, 1)))

    def test_intersect_cyclic_supernatural(self):
        result = subgroup_intersect(cyclic(F(1, 4)), supernatural({2: 1, 3: inf}))
        assert result == cyclic(F(1, 2))

    @given(cyclic_groups, cyclic_groups)
    def test_sum_commutes(self, g, h):
        assert subgroup_sum(g, h) == subgroup_sum(h, g)

    @given(cyclic_groups, cyclic_groups)
    def test_intersect_commutes(self, g, h):
        assert subgroup_intersect(g, h) == subgroup_intersect(h, g)

    @given(cyclic_groups, cyclic_groups, cyclic_groups)
    def test_sum_associates(self, g, h, k):
        assert subgroup_sum(subgroup_sum(g, h), k) == subgroup_sum(g, subgroup_sum(h, k))

    @given(cyclic_groups, cyclic_groups, cyclic_groups)
    def test_intersect_associates(self, g, h, k):
        assert subgroup_intersect(subgroup_intersect(g, h), k) == subgroup_intersect(
            g, subgroup_intersect(h, k)
        )

    @given(cyclic_groups)
    def test_idempotent(self, g):
        assert subgroup_sum(g, g) == g
        assert subgroup_intersect(g, g) == g

    @given(cyclic_groups, cyclic_groups, st.integers(-20, 20))
    def test_sum_contains_both(self, g, h, n):
        total = subgroup_sum(g, h)
        assert contains(total, n * g.generator)
        assert contains(total, n * h.generator)

    @given(cyclic_groups, cyclic_groups)
    def test_intersect_inside_both(self, g, h):
        meet = subgroup_intersect(g, h)
        assert is_subgroup(meet, g) and is_subgroup(meet, h)

    @given(cyclic_groups, cyclic_groups)
    def test_cyclic_gcd_lcm_match_valuation_profiles(self, g, h):
        pg, ph = _profile(g), _profile(h)
        primes = set(pg) | set(ph)
        assert subgroup_sum(g, h) == _from_profile(
            {p: min(pg.get(p, 0), ph.get(p, 0)) for p in primes})
        assert subgroup_intersect(g, h) == _from_profile(
            {p: max(pg.get(p, 0), ph.get(p, 0)) for p in primes})

    def test_cyclic_sum_needs_no_factoring(self):
        # the denominator is a product of two Mersenne primes, far beyond
        # trial division
        big = (2 ** 61 - 1) * (2 ** 89 - 1)
        start = time.perf_counter()
        assert subgroup_sum(cyclic(F(1, big)), cyclic(F(1, 3))) == cyclic(F(1, 3 * big))
        assert subgroup_intersect(cyclic(F(1, big)), cyclic(F(1, 3))) == INTEGERS
        assert time.perf_counter() - start < 1.0


class TestQkChain:
    def test_qk_is_cyclic_inverse_factorial(self):
        assert qk(3) == Cyclic(F(1, 6))
        assert qk(0) == INTEGERS == Cyclic(F(1))

    @given(st.integers(1, 8), st.integers(-200, 200))
    def test_chain_inclusion(self, k, n):
        q = n * qk(k).generator
        assert contains(qk(k), q)
        assert contains(qk(k + 1), q)

    def test_order_cap(self):
        assert qk(MAX_FACTORIAL_ORDER).generator.denominator > 0
        with pytest.raises(ValueError, match="cap of %d" % MAX_FACTORIAL_ORDER):
            qk(MAX_FACTORIAL_ORDER + 1)

    def test_chain_is_strict(self):
        for k in range(1, 6):
            step = qk(k + 1).generator
            assert contains(qk(k + 1), step)
            assert not contains(qk(k), step)


class TestRankAndGeneration:
    def test_rank_values(self):
        assert rank(TRIVIAL) == 0
        assert rank(cyclic(F(1, 2))) == 1
        assert rank(FULL_Q) == 1
        assert rank(supernatural({5: inf})) == 1

    @given(
        st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool),
        st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool),
    )
    def test_any_two_rationals_integrally_dependent(self, x, y):
        # the witness behind rank 1: (den(x)*num(y))*x == (num(x)*den(y))*y
        m = x.denominator * y.numerator
        n = x.numerator * y.denominator
        assert (m, n) != (0, 0)
        assert m * x == n * y

    def test_finitely_generated(self):
        assert finitely_generated(cyclic(F(1, 6)))
        assert finitely_generated(TRIVIAL)
        assert not finitely_generated(supernatural({2: inf}))
        assert not finitely_generated(FULL_Q)

    def test_two_adic_chain_is_strictly_increasing(self):
        # oracle behind infinite generation: <1/2^k> keeps growing
        two_adic = supernatural({2: inf})
        for k in range(1, 10):
            step = F(1, 2 ** k)
            assert contains(two_adic, step)
            assert not contains(cyclic(F(1, 2 ** (k - 1))), step)


class TestNormalizeAlpha:
    def test_member_resets(self):
        assert normalize_alpha(F(3, 2), cyclic(F(1, 2))) == 0

    def test_non_member_unchanged(self):
        assert normalize_alpha(F(1, 3), cyclic(F(1, 2))) == F(1, 3)

    def test_zero_fixed(self):
        assert normalize_alpha(F(0), FULL_Q) == 0
        assert normalize_alpha(F(0), cyclic(F(2, 7))) == 0

    @given(small_rationals, cyclic_groups)
    def test_idempotent_and_group_difference(self, alpha, group):
        once = normalize_alpha(alpha, group)
        assert normalize_alpha(once, group) == once
        assert contains(group, alpha - once)


class TestCanonicalForms:
    def test_all_finite_supernatural_collapses(self):
        assert supernatural({2: 3, 3: 1}) == cyclic(F(1, 24))

    def test_direct_all_finite_construction_rejected(self):
        with pytest.raises(ValueError):
            Supernatural(((2, 3), (3, 1)))

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            supernatural({4: inf})

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError):
            supernatural({2: 0})

    def test_nonpositive_generator_rejected(self):
        with pytest.raises(ValueError):
            cyclic(F(0))
        with pytest.raises(ValueError):
            cyclic(F(-1, 2))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            contains(FULL_Q, 0.5)

    @pytest.mark.parametrize("exponents", [{2.0: inf}, {2.0: 3}, {2: 1, 3.0: inf}])
    def test_float_primes_rejected(self, exponents):
        with pytest.raises(TypeError):
            supernatural(exponents)

    def test_direct_float_prime_rejected(self):
        with pytest.raises(TypeError):
            Supernatural(((2.0, inf),))

    def test_is_subgroup_shapes(self):
        assert is_subgroup(TRIVIAL, cyclic(F(1, 2)))
        assert is_subgroup(cyclic(F(1, 2)), supernatural({2: inf}))
        assert not is_subgroup(supernatural({2: inf}), cyclic(F(1, 1024)))
        # a prime that the outer group lacks: 1/3 is not in sn:2^inf
        assert not is_subgroup(supernatural({2: inf, 3: 1}), supernatural({2: inf}))
        assert is_subgroup(supernatural({2: 1, 3: inf}), supernatural({2: inf, 3: inf}))
        assert not is_subgroup(FULL_Q, supernatural({2: inf}))
        assert is_subgroup(supernatural({2: inf}), FULL_Q)


def trial_division_is_prime(n):
    """Oracle: the smallest divisor of n above 1 is n itself."""
    return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))


# composites that fool weaker tests, each with its factorization: Carmichael
# numbers, and strong pseudoprimes to every prime base up to 2, 3, 5, 7,
# 11, 13, 17, 23 and 37 in turn (the last one is caught only by base 41)
TRICKY_COMPOSITES = {
    561: [3, 11, 17],
    41041: [7, 11, 13, 41],
    825265: [5, 7, 17, 19, 73],
    321197185: [5, 19, 23, 29, 37, 137],
    5394826801: [7, 13, 17, 23, 31, 67, 73],
    232250619601: [7, 11, 13, 17, 31, 37, 73, 163],
    9746347772161: [7, 11, 13, 17, 19, 31, 37, 41, 641],
    2047: [23, 89],
    1373653: [829, 1657],
    25326001: [2251, 11251],
    3215031751: [151, 751, 28351],
    2152302898747: [6763, 10627, 29947],
    3474749660383: [1303, 16927, 157543],
    341550071728321: [10670053, 32010157],
    3825123056546413051: [149491, 747451, 34233211],
    318665857834031151167461: [399165290221, 798330580441],
}


class TestPrimality:
    def test_agrees_with_trial_division_below_1e5(self):
        assert [n for n in range(-5, 10 ** 5) if _is_prime(n) != trial_division_is_prime(n)] == []

    @pytest.mark.parametrize("n", sorted(TRICKY_COMPOSITES))
    def test_pseudoprimes_rejected(self, n):
        assert prod(TRICKY_COMPOSITES[n]) == n
        assert not _is_prime(n)

    @pytest.mark.parametrize("n", [2 ** 31 - 1, 2 ** 61 - 1, 10 ** 9 + 7, 998244353])
    def test_large_primes_accepted(self, n):
        assert _is_prime(n)

    def test_large_prime_in_supernatural_spec(self):
        group = supernatural({2 ** 61 - 1: inf})
        assert contains(group, F(1, (2 ** 61 - 1) ** 3))

    @pytest.mark.parametrize("n", [_SPRP_EXACT_BELOW, 3317044064679887385962123, 2 ** 89 - 1])
    def test_numbers_at_or_above_psi_13_rejected(self, n):
        began = time.perf_counter()
        with pytest.raises(ValueError, match="psi_13 = 3317044064679887385961981"):
            _is_prime(n)
        with pytest.raises(ValueError, match="the cap for supernatural primes"):
            supernatural({n: inf})
        with pytest.raises(ValueError, match="the cap for supernatural primes"):
            supernatural({n: 2})
        assert time.perf_counter() - began < 1.0

    def test_largest_prime_below_the_cap_accepted(self):
        # psi_13 - 1 is even; the largest prime below psi_13 is found by search
        n = _SPRP_EXACT_BELOW - 2
        while not _is_prime(n):
            n -= 2
        assert supernatural({n: inf}).exponent_map() == {n: inf}


# generators built from the primes 2, 3, 5, 7 and 11 so that the listed
# primes of a supernatural group both divide and miss them
lattice_primes = st.sampled_from([2, 3, 5, 7, 11])
lattice_generators = st.builds(
    lambda num, den: F(prod(num), prod(den)),
    st.lists(lattice_primes, max_size=4),
    st.lists(lattice_primes, max_size=4),
)
supernatural_groups = st.builds(
    lambda p, rest: supernatural({p: inf, **rest}),
    lattice_primes,
    st.dictionaries(lattice_primes, st.sampled_from([1, 2, 3, inf]), max_size=3),
)
all_shapes = st.one_of(
    st.just(TRIVIAL), st.just(FULL_Q), lattice_generators.map(cyclic), supernatural_groups
)


class TestLatticeFromExponentMaps:
    @settings(max_examples=500, deadline=None)
    @given(all_shapes, all_shapes)
    def test_matches_valuation_profiles(self, g, h):
        assert subgroup_sum(g, h) == reference_subgroup_sum(g, h)
        assert subgroup_intersect(g, h) == reference_subgroup_intersect(g, h)

    @settings(max_examples=200, deadline=None)
    @given(supernatural_groups, lattice_generators, st.integers(-30, 30))
    def test_mixed_results_against_membership(self, s, gen, n):
        total = subgroup_sum(s, cyclic(gen))
        meet = subgroup_intersect(cyclic(gen), s)
        assert contains(total, n * gen) and is_subgroup(s, total)
        assert contains(meet, n * gen) == contains(s, n * gen)

    def test_intersection_factors_no_numerator(self):
        # the numerator is a product of two primes near 10^10; trial
        # division of it would take hours
        big = 10000000019 * 10000000033
        began = time.perf_counter()
        assert subgroup_intersect(cyclic(F(big, 3)), supernatural({2: inf})) == cyclic(big)
        assert subgroup_intersect(supernatural({3: inf}), cyclic(F(big, 3))) == cyclic(F(big, 3))
        assert subgroup_sum(cyclic(F(big, 3)), supernatural({2: inf})) == supernatural(
            {2: inf, 3: 1})
        assert time.perf_counter() - began < 1.0

    def test_sum_factors_only_the_leftover_denominator(self):
        s = supernatural({2: inf, 3: 2})
        assert subgroup_sum(s, cyclic(F(7, 2 ** 200 * 27 * 5))) == supernatural(
            {2: inf, 3: 3, 5: 1})

    def test_disjoint_supernatural_meet_is_the_integers(self):
        assert subgroup_intersect(supernatural({2: inf}), supernatural({3: inf})) == INTEGERS
        assert subgroup_intersect(
            supernatural({2: inf, 3: 2}), supernatural({3: inf, 5: inf})) == cyclic(F(1, 9))


class TestCollapsedDenominatorCap:
    def test_cap_is_4300_digits(self):
        assert len(str(supernatural({2: 14284}).generator.denominator)) == 4300
        with pytest.raises(ValueError, match="exceeds the cap of 4300 digits"):
            supernatural({2: 14285})
        with pytest.raises(ValueError, match="exceeds the cap of 4300 digits"):
            supernatural({2: 7000, 3: 5000})

    def test_huge_exponent_fails_at_once(self):
        began = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds the cap of 4300 digits"):
            supernatural({3: 10 ** 4000})
        with pytest.raises(ValueError, match="exceeds the cap of 4300 digits"):
            subgroup_intersect(supernatural({2: 10 ** 4000, 3: inf}), supernatural({2: inf}))
        assert time.perf_counter() - began < 1.0
        assert supernatural({2: 10 ** 4000, 3: inf}).exponent_map()[2] == 10 ** 4000
