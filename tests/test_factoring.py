"""Bounded factoring of the leftover of a cyclic-plus-supernatural sum."""

import time
from fractions import Fraction as F
from math import inf, prod

import pytest
from hypothesis import given, settings, strategies as st

from hvir import cyclic, subgroup_sum, supernatural
from hvir import groups
from hvir.groups import (
    _SPRP_BASES,
    MAX_FACTOR_WORK,
    _Budget,
    _exact_root,
    _factorint,
    _is_prime,
    _probable_prime,
)

# below and above the trial-division bound of 10**5
SMALL_PRIMES = [2, 3, 5, 997, 1009, 65537, 99991]
LARGE_PRIMES = [100003, 1000003, 10000019]
# all 1061 primes between 1000 and 10**4
MIDDLE_PRIMES = [p for p in range(1001, 10 ** 4, 2) if _is_prime(p)]


class TestBoundedFactoring:
    """The leftover of a cyclic-plus-supernatural sum is factored by trial
    division, perfect-power roots and Pollard-Brent under one work budget,
    and fails with a named error past it."""

    def test_product_of_two_eight_digit_primes(self):
        began = time.perf_counter()
        total = subgroup_sum(supernatural({2: inf}), cyclic(F(1, 10000019 * 10000079)))
        assert time.perf_counter() - began < 0.1
        assert total == supernatural({2: inf, 10000019: 1, 10000079: 1})

    @pytest.mark.parametrize("power", [2, 112])
    def test_huge_prime_power_fails_with_psi_13(self, power):
        # the probable-prime test runs on the perfect-power root
        began = time.perf_counter()
        with pytest.raises(ValueError) as info:
            _factorint((2 ** 127 - 1) ** power)
        assert time.perf_counter() - began < 0.5
        assert str(info.value) == (
            "%d is at or above psi_13 = 3317044064679887385961981, the cap for "
            "supernatural primes" % (2 ** 127 - 1)
        )

    def test_hard_composite_fails_with_the_budget(self):
        leftover = (2 ** 89 - 1) * (2 ** 107 - 1)
        began = time.perf_counter()
        with pytest.raises(ValueError) as info:
            _factorint(leftover)
        assert time.perf_counter() - began < 2.0
        assert str(info.value) == (
            "factoring a %d-bit denominator exceeds the budget of %d work units"
            % (leftover.bit_length(), MAX_FACTOR_WORK)
        )

    def test_probable_prime_test_that_the_budget_cannot_pay_never_runs(self, monkeypatch):
        m = 2 ** 127 - 1
        budget = _Budget(m)
        budget.left = len(_SPRP_BASES) * budget.cost(m, steps=m.bit_length()) - 1
        left = budget.left

        def never(m, a):
            raise AssertionError("a strong-probable-prime test ran")

        monkeypatch.setattr(groups, "_is_strong_probable_prime", never)
        assert _probable_prime(m, budget) is False
        assert budget.left == left

    def test_probable_prime_above_psi_13_fails_at_once(self):
        began = time.perf_counter()
        with pytest.raises(ValueError) as info:
            subgroup_sum(supernatural({2: inf}), cyclic(F(1, 2 ** 127 - 1)))
        assert time.perf_counter() - began < 0.05
        assert str(info.value) == (
            "%d is at or above psi_13 = 3317044064679887385961981, the cap for "
            "supernatural primes" % (2 ** 127 - 1)
        )

    def test_composite_above_psi_13_still_factors(self):
        p, q = 2 ** 61 - 1, 10000019
        assert _factorint(p * q) == {p: 1, q: 1}

    @pytest.mark.parametrize("p,q", [
        (100000000003, 100000000019),
        (999999999989, 999999999959),
    ])
    def test_twelve_digit_prime_pair_ends_within_a_second(self, p, q):
        began = time.perf_counter()
        try:
            assert _factorint(p * q) == {p: 1, q: 1}
        except ValueError as exc:
            assert "exceeds the budget of %d" % MAX_FACTOR_WORK in str(exc)
        assert time.perf_counter() - began < 1.0

    @pytest.mark.parametrize("factors", [
        {1009: 1400},
        dict.fromkeys(MIDDLE_PRIMES, 1),
        {100003: 800},
        {100003: 300, 100019: 300},
        {7: 5, 100003: 800},
        {3: 1, 2 ** 61 - 1: 50},
        {100003: 40, 100019: 3},
    ], ids=["1009^1400", "primes-1000-10^4", "100003^800", "(100003*100019)^300",
            "7^5*100003^800", "3*(2^61-1)^50", "100003^40*100019^3"])
    def test_large_leftovers_factor_within_a_second(self, factors):
        began = time.perf_counter()
        assert _factorint(prod(p ** e for p, e in factors.items())) == factors
        assert time.perf_counter() - began < 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 2 ** 200), st.sampled_from([2, 3, 5, 7, 11, 13, 31, 101]))
    def test_exact_root(self, r, q):
        m = r ** q
        assert _exact_root(m, q, _Budget(m)) == r
        assert _exact_root(m - 1, q, _Budget(m)) is None
        assert _exact_root(m + 1, q, _Budget(m)) is None

    @settings(max_examples=150, deadline=None)
    @given(
        st.dictionaries(st.sampled_from(SMALL_PRIMES), st.integers(1, 60)),
        st.dictionaries(st.sampled_from(LARGE_PRIMES), st.integers(1, 8)),
    )
    def test_factors_products_of_known_prime_powers(self, small, large):
        expected = {**small, **large}
        assert _factorint(prod(p ** e for p, e in expected.items())) == expected
