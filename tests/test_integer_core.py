"""Differential tests of the integer-backed ``WeightVector``, ``act`` and
``Subspace`` against the Fraction-dict oracles in ``helpers``."""

import copy
from fractions import Fraction
from itertools import combinations
from math import inf

import pytest
from hypothesis import example, given, settings, strategies as st

from hvir import (
    CD,
    CDI,
    FULL_Q,
    AlgebraElement,
    GroupMismatchError,
    I,
    ModuleParams,
    SubalgebraError,
    Subspace,
    WeightVector,
    act,
    act_word,
    bracket,
    contains,
    cyclic,
    d,
    qk,
    supernatural,
)
from hvir import algebra, intermediate
from hvir.intermediate import _integer_action, _set_canonical, d_coefficient
from helpers import (
    ReferenceSubspace,
    ReferenceVector,
    reference_act,
    reference_act_word,
    reference_contains,
    small_fractions,
)

F = Fraction

# Z, 1/2 Z, 1/6 Z, sn:2^inf and Q
CORE_GROUPS = (qk(0), cyclic(F(1, 2)), cyclic(F(1, 6)), supernatural({2: inf}), FULL_Q)


def group_indices(group):
    """Indices in the group with mixed denominators."""
    if group == FULL_Q:
        return st.builds(F, st.integers(-12, 12), st.integers(1, 12))
    if group == CORE_GROUPS[3]:
        return st.builds(lambda n, e: F(n, 2 ** e), st.integers(-12, 12), st.integers(0, 4))
    return st.integers(-8, 8).map(lambda n: n * group.generator)


def any_indices():
    """Indices that may lie outside the group."""
    return st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 5, 6, 7, 12]))


@st.composite
def params_and_indices(draw):
    group = draw(st.sampled_from(CORE_GROUPS))
    f = draw(st.one_of(st.just(F(0)), small_fractions))
    beta = draw(st.one_of(st.sampled_from([F(0), F(1)]), small_fractions))
    params = ModuleParams(draw(small_fractions), beta, f, group)
    return params, group_indices(group)


@st.composite
def entry_lists(draw, indices, max_size=4):
    """(index, coefficient) pairs; repeated indices, zero coefficients
    and pairs that cancel to zero all occur."""
    pairs = draw(st.lists(st.tuples(indices, small_fractions), max_size=max_size))
    if pairs and draw(st.booleans()):
        q, c = draw(st.sampled_from(pairs))
        pairs.append((q, -c))
    return draw(st.permutations(pairs))


@st.composite
def vector_pairs(draw, count=2):
    params, indices = draw(params_and_indices())
    lists = [draw(entry_lists(indices)) for _ in range(count)]
    return params, indices, lists


@st.composite
def elements(draw, indices, min_size=0):
    """Elements of up to three terms, central symbols included."""
    keys = st.one_of(indices.map(d), indices.map(I), st.sampled_from([CD, CDI]))
    terms = draw(st.lists(st.tuples(keys, small_fractions), min_size=min_size, max_size=3))
    return AlgebraElement(terms)


def assert_same(vector, reference):
    assert vector.entries == reference.entries
    # the canonical form, which == compares: what the constructor gives
    canonical = WeightVector(vector.params, reference.entries)
    assert (vector._L, vector._D, vector._num) == (canonical._L, canonical._D, canonical._num)
    assert list(vector._num) == sorted(vector._num)
    assert all(type(q) is F and type(c) is F for q, c in vector.entries.items())
    assert str(vector) == str(reference)
    assert vector.is_zero() == reference.is_zero()
    assert bool(vector) == (not reference.is_zero())
    for q in list(reference.entries) + [F(0), F(1, 7), F(5, 4), 3]:
        assert vector.coefficient(q) == reference.coefficient(q)


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(vector_pairs(count=1))
    def test_constructor(self, case):
        params, _, (items,) = case
        assert_same(WeightVector(params, items), ReferenceVector(params, items))

    @settings(max_examples=200, deadline=None)
    @given(params_and_indices(), st.lists(st.tuples(any_indices(), small_fractions),
                                          max_size=4))
    def test_constructor_membership(self, case, items):
        params, _ = case
        try:
            reference = ReferenceVector(params, items)
        except SubalgebraError:
            with pytest.raises(SubalgebraError):
                WeightVector(params, items)
        else:
            assert_same(WeightVector(params, items), reference)

    @settings(max_examples=400, deadline=None)
    @given(vector_pairs(), st.one_of(small_fractions, st.integers(-3, 3)))
    def test_linear_operations(self, case, scalar):
        params, _, (a_items, b_items) = case
        a, b = WeightVector(params, a_items), WeightVector(params, b_items)
        ra, rb = ReferenceVector(params, a_items), ReferenceVector(params, b_items)
        assert_same(a + b, ra + rb)
        assert_same(a - b, ra - rb)
        assert_same(-a, -ra)
        assert_same(a * scalar, ra * scalar)
        assert_same(scalar * b, scalar * rb)
        assert (a == b) == (ra == rb)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_act(self, data):
        params, indices, (items,) = data.draw(vector_pairs(count=1))
        x = data.draw(elements(st.one_of(indices, any_indices())))
        v, rv = WeightVector(params, items), ReferenceVector(params, items)
        try:
            expected = reference_act(params, x, rv)
        except SubalgebraError:
            with pytest.raises(SubalgebraError):
                act(params, x, v)
            return
        assert_same(act(params, x, v), expected)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_act_word(self, data):
        params, indices, (items,) = data.draw(vector_pairs(count=1))
        word = data.draw(st.lists(elements(indices), max_size=3))
        v, rv = WeightVector(params, items), ReferenceVector(params, items)
        assert_same(act_word(params, word, v), reference_act_word(params, word, rv))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(CORE_GROUPS), any_indices())
    def test_contains(self, group, q):
        assert contains(group, q) == reference_contains(group, q)


def reference_outcome(params, x, rv):
    try:
        return reference_act(params, x, rv)
    except SubalgebraError:
        return SubalgebraError


def assert_same_outcome(params, x, v, expected):
    if expected is SubalgebraError:
        with pytest.raises(SubalgebraError):
            act(params, x, v)
    else:
        assert_same(act(params, x, v), expected)


class TestReusedElements:
    """``act`` remembers on each element the last group object that held
    its indices; these tests reuse elements across modules, as the rep
    workload does, so that the memo meets every case it must not skip."""

    def test_membership_memo_cannot_leak(self):
        x = AlgebraElement.basis(d(F(1, 2)))
        half = ModuleParams(F(1, 3), F(1), F(2), cyclic(F(1, 2)))
        ints = ModuleParams(F(1, 3), F(1), F(2), qk(0))
        v, u = WeightVector(half, {F(1, 2): 1}), WeightVector(ints, {1: 1})
        assert act(half, x, v) == WeightVector(half, {1: F(4, 3)})
        with pytest.raises(SubalgebraError):
            act(ints, x, u)
        # an element that raised once raises again on the same group
        with pytest.raises(SubalgebraError):
            act(ints, x, u)
        # an equal group built afresh is tested in full, and passes
        again = ModuleParams(F(1, 3), F(1), F(2), cyclic(F(1, 2)))
        assert again.group is not half.group
        assert act(again, x, WeightVector(again, {F(1, 2): 1})) == \
            WeightVector(again, {1: F(4, 3)})
        with pytest.raises(SubalgebraError):
            act(ints, x, u)

    def test_bracket_keeps_a_shared_memo(self):
        # x and y passed one group object, so their bracket starts out
        # remembering it, and its act still matches the oracle
        group = cyclic(F(1, 2))
        params = ModuleParams(F(1, 3), F(2), F(5), group)
        v, rv = WeightVector(params, {F(1, 2): 3}), ReferenceVector(params, {F(1, 2): 3})
        x = AlgebraElement({d(F(1, 2)): 2, I(F(-3, 2)): F(1, 3), CD: 1})
        y = AlgebraElement({d(-1): F(1, 4), I(F(1, 2)): 5})
        act(params, x, v), act(params, y, v)
        xy = bracket(x, y)
        assert xy._group is group
        assert_same(act(params, xy, v), reference_act(params, xy, rv))
        # operands that remember equal but distinct group objects pass on none
        twin = ModuleParams(F(1, 3), F(2), F(5), copy.deepcopy(group))
        act(twin, y, WeightVector(twin, {1: 1}))
        assert bracket(x, y)._group is None

    def test_bracket_of_different_memos_is_tested_in_full(self):
        # [d(1/2), d(1/3)] = -1/6 d(5/6) lies off 1/2 Z although d(1/2) passed it
        half = ModuleParams(F(1, 3), F(1), F(2), cyclic(F(1, 2)))
        third = ModuleParams(F(1, 5), F(1), F(2), cyclic(F(1, 3)))
        x = AlgebraElement.basis(d(F(1, 2)))
        act(half, x, WeightVector(half, {0: 1}))
        for checked in (True, False):
            y = AlgebraElement.basis(d(F(1, 3)))
            if checked:
                act(third, y, WeightVector(third, {0: 1}))
            xy = bracket(x, y)
            assert xy._group is None
            with pytest.raises(SubalgebraError):
                act(half, xy, WeightVector(half, {F(1, 2): 1}))

    def test_a_shared_memo_and_a_one_term_difference_build_no_fraction(self, monkeypatch):
        # the first act of a bracket of two group-checked elements runs no
        # membership test, and a one-term difference at one index skips the
        # canonical-form pass; here x.(y.v) and y.(x.v) are 45/8 v(0) and 45/4 v(0)
        params = ModuleParams(F(1, 3), F(2), F(5), cyclic(F(1, 6)))
        v, rv = WeightVector(params, {F(1, 3): F(3, 4)}), ReferenceVector(params, {F(1, 3): F(3, 4)})
        x, y = AlgebraElement.basis(d(F(1, 6))), AlgebraElement.basis(I(F(-1, 2)), 3)
        xyv, yxv = act(params, x, act(params, y, v)), act(params, y, act(params, x, v))
        expected = WeightVector(params, reference_act(params, bracket(x, y), rv).entries)
        assert expected == WeightVector(params, {0: F(-45, 8)})

        def refuse(*args):
            raise AssertionError("called with %r" % (args,))

        monkeypatch.setattr(algebra, "Fraction", refuse)
        monkeypatch.setattr(intermediate, "_set_canonical", refuse)
        assert act(params, bracket(x, y), v) == expected
        assert xyv - yxv == expected

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_pool_of_elements_over_several_modules(self, data):
        # one pool of elements, some off each group, acts on every module
        # in turn, twice over, and twice in a row as x.(y.v); each module
        # also has a twin over an equal group object built afresh.  Once
        # the pool has acted on a module, its pairwise brackets join it
        # there: they inherit the group object that both operands passed
        base = data.draw(st.lists(elements(any_indices(), 1), min_size=1, max_size=4))
        modules = data.draw(st.lists(params_and_indices(), min_size=2, max_size=3))
        modules += [(ModuleParams(p.alpha, p.beta, p.f, copy.deepcopy(p.group)), indices)
                    for p, indices in modules]
        for params, indices in modules * 2:
            items = data.draw(entry_lists(indices))
            v, rv = WeightVector(params, items), ReferenceVector(params, items)
            for y in base:
                assert_same_outcome(params, y, v, reference_outcome(params, y, rv))
            pool = base + [bracket(x, y) for x, y in combinations(base, 2)]
            for y in pool:
                first = reference_outcome(params, y, rv)
                assert_same_outcome(params, y, v, first)
                if first is SubalgebraError:
                    continue
                for x in pool:
                    assert_same_outcome(params, x, act(params, y, v),
                                        reference_outcome(params, x, first))


class TestOneTermCanonicalForm:
    """One-term vectors are reduced by gcd(L, k) and gcd(D, c) alone."""

    @pytest.mark.parametrize("L, D, k, c", [
        (3, 5, 7, 0),  # zero coefficient: the zero vector
        (3, 5, 0, 4),  # index 0: L reduces to 1
        (1, 1, 2, -3),  # negative coefficient
        (7, 2, -3, -5),  # already reduced, both signs negative
        (6, 1, 4, 1),  # L and k share 2
        (1, 10, 3, -4),  # D and c share 2
        (12, 18, -8, -27),  # both pairs share a factor
    ])
    def test_against_the_reference(self, L, D, k, c):
        params = ModuleParams(F(1, 5), F(2), F(3), FULL_Q)
        v = WeightVector._canonical(params, L, D, {k: c})
        assert_same(v, ReferenceVector(params, {F(k, L): F(c, D)}))
        q, coeff = F(k, L), F(c, D)
        if c:
            assert (v._L, v._D, v._num) == (q.denominator, coeff.denominator,
                                             {q.numerator: coeff.numerator})
        else:
            assert (v._L, v._D, v._num) == (1, 1, {})
        # the same form as the multi-term path gives once a second term cancels
        two = WeightVector._canonical(params, L, D, {k: c, k + 1: 0})
        assert (two._L, two._D, two._num) == (v._L, v._D, v._num)


@st.composite
def direct_cases(draw):
    """The shapes ``act`` builds without the canonical-form pass: at most
    one d/I term (central terms may ride along) on at most one term."""
    params, indices = draw(params_and_indices())
    generators = st.one_of(indices.map(d), indices.map(I))
    terms = draw(st.lists(st.tuples(generators, small_fractions), max_size=1))
    terms += draw(st.lists(st.tuples(st.sampled_from([CD, CDI]), small_fractions), max_size=1))
    items = draw(st.lists(st.tuples(indices, small_fractions), max_size=1))
    return params, AlgebraElement(terms), items


class TestDirectResults:
    """Zero and one-term results are written straight into a vector, and
    a zero operand of + or - returns the other operand; each matches the
    Fraction oracles, canonical form included."""

    @settings(max_examples=300, deadline=None)
    @given(direct_cases())
    # d with a vanishing coefficient: alpha + q + g*beta = 1/3 + 0 - 1/3
    @example((ModuleParams(F(1, 3), F(1, 3), F(2), qk(0)),
              AlgebraElement({d(-1): F(3, 4)}), [(0, F(5, 2))]))
    # I with f == 0
    @example((ModuleParams(F(1, 3), F(2), F(0), qk(0)), AlgebraElement({I(1): 2}), [(2, 1)]))
    # the target index is 0, so L reduces to 1
    @example((ModuleParams(F(1, 5), F(1, 3), F(1), cyclic(F(1, 2))),
              AlgebraElement({d(F(1, 2)): 1}), [(F(-1, 2), F(1, 3))]))
    # the coefficient 3/2 * 9/4 * 4/9 shares factors with D
    @example((ModuleParams(F(1, 2), F(3), F(4, 9), cyclic(F(1, 6))),
              AlgebraElement({I(F(1, 6)): F(3, 2)}), [(F(1, 3), F(9, 4))]))
    # a central-only element
    @example((ModuleParams(F(1, 2), F(3), F(1), qk(0)),
              AlgebraElement({CD: 2, CDI: 1}), [(1, 1)]))
    # the zero vector
    @example((ModuleParams(F(1, 2), F(3), F(1), qk(0)), AlgebraElement({d(1): 1}), []))
    def test_against_the_reference(self, case):
        params, x, items = case
        v, rv = WeightVector(params, items), ReferenceVector(params, items)
        result, expected = act(params, x, v), reference_act(params, x, rv)
        assert_same(result, expected)
        # v + 0, 0 + v, v - 0 and 0 - v, for the input and for the result
        zero, rzero = WeightVector(params), ReferenceVector(params)
        for u, ru in ((v, rv), (result, expected)):
            assert_same(u + zero, ru + rzero)
            assert_same(zero + u, rzero + ru)
            assert_same(u - zero, ru - rzero)
            assert_same(zero - u, rzero - ru)

    def test_a_zero_operand_of_another_module_is_refused(self):
        params = ModuleParams(F(1, 3), F(2), F(1), qk(0))
        other = ModuleParams(F(1, 3), F(2), F(2), qk(0))
        v, zero = WeightVector(params, {1: F(1, 2)}), WeightVector(params)
        other_zero = WeightVector(other)
        for a, b in ((v, other_zero), (other_zero, v), (zero, other_zero), (other_zero, zero)):
            with pytest.raises(GroupMismatchError):
                a + b
            with pytest.raises(GroupMismatchError):
                a - b

    def test_negation_builds_no_fraction(self, monkeypatch):
        # -v, -x and 0 - v flip the integer numerators; the scalar path
        # v * -1 reads its scalar through algebra.as_fraction
        params = ModuleParams(F(1, 3), F(2), F(1), cyclic(F(1, 6)))
        zero = WeightVector(params)
        vectors = [zero, WeightVector(params, {F(1, 3): F(3, 4)}),
                   WeightVector(params, {F(-1, 2): F(1, 6), 1: F(-5, 2), F(5, 6): 7})]
        elements = [AlgebraElement(), AlgebraElement({d(F(1, 2)): F(2, 3)}),
                    AlgebraElement({I(-3): F(-1, 4), d(F(1, 6)): 2, CD: F(5, 6)})]
        expected = [u * -1 for u in vectors + elements]

        def as_fraction(value):
            raise AssertionError("a Fraction was built from %r" % (value,))

        monkeypatch.setattr(algebra, "as_fraction", as_fraction)
        for u, negated in zip(vectors + elements, expected):
            for result in [-u] + ([zero - u] if isinstance(u, WeightVector) else []):
                assert result.__class__ is negated.__class__
                assert (result._L, result._D, result._num) == \
                    (negated._L, negated._D, negated._num)
                assert list(result._num) == sorted(result._num)

    def test_checks_run_before_the_direct_results(self):
        # the params check and the membership test come first, also where
        # the result is zero or one term
        params = ModuleParams(F(1, 3), F(2), F(1), qk(0))
        other = ModuleParams(F(1, 3), F(2), F(2), qk(0))
        for v in (WeightVector(other), WeightVector(other, {1: 1})):
            with pytest.raises(GroupMismatchError):
                act(params, AlgebraElement({d(1): 1}), v)
            with pytest.raises(GroupMismatchError):
                act(params, AlgebraElement({CD: 1}), v)
        off = AlgebraElement({d(F(1, 2)): 1})
        for v in (WeightVector(params), WeightVector(params, {1: 1})):
            with pytest.raises(SubalgebraError):
                act(params, off, v)


@st.composite
def one_term_pairs(draw):
    """Two one-term vectors of one module, at one index or, less often, at two."""
    params, indices = draw(params_and_indices())
    q = draw(indices)
    r = draw(st.one_of(st.just(q), indices))
    a, b = draw(small_fractions.filter(bool)), draw(small_fractions.filter(bool))
    return params, [(q, a)], [(r, b)]


class TestOneTermPairs:
    """``u + w`` and ``u - w`` of one-term vectors at one index are summed
    and reduced by gcd(D, c) straight into a new vector; any other pair
    of nonzero vectors takes the merge loop and the canonical-form pass."""

    @pytest.mark.parametrize("u, w", [
        ({F(1, 2): F(3, 4)}, {F(1, 2): F(3, 4)}),  # u - w cancels to the zero vector
        ({0: F(2, 3)}, {0: F(-5, 3)}),  # index 0, where L is 1
        ({F(5, 6): F(1, 6)}, {F(5, 6): F(1, 4)}),  # different D
        ({F(1, 3): F(1, 6)}, {F(1, 3): F(1, 6)}),  # u + w = 2/6: c shares 2 with D
        ({F(-7, 6): 3}, {F(-7, 6): F(-9, 2)}),  # D of 1 and 2: the sum -3/2, the difference 15/2
        ({F(1, 2): 1}, {F(1, 3): 1}),  # different indices and L
        ({F(1, 6): F(1, 2)}, {F(5, 6): F(1, 2)}),  # equal L, different keys
        ({F(1, 6): 1}, {F(1, 6): 1, F(1, 2): 1}),  # one index shared, two terms
    ])
    def test_against_the_reference(self, monkeypatch, u, w):
        params = ModuleParams(F(1, 5), F(2), F(3), cyclic(F(1, 6)))
        a, b = WeightVector(params, u), WeightVector(params, w)
        ra, rb = ReferenceVector(params, u), ReferenceVector(params, w)
        passes = []
        monkeypatch.setattr(intermediate, "_set_canonical",
                            lambda *args: passes.append(args) or _set_canonical(*args))
        results = [a + b, a - b, b - a]
        monkeypatch.undo()
        one_index = len(u) == len(w) == 1 and u.keys() == w.keys()
        assert len(passes) == (0 if one_index else 3)
        for result, expected in zip(results, (ra + rb, ra - rb, rb - ra)):
            assert_same(result, expected)

    @settings(max_examples=300, deadline=None)
    @given(one_term_pairs())
    def test_random_pairs(self, case):
        params, u, w = case
        a, b = WeightVector(params, u), WeightVector(params, w)
        ra, rb = ReferenceVector(params, u), ReferenceVector(params, w)
        assert_same(a + b, ra + rb)
        assert_same(a - b, ra - rb)
        assert (a == b) == (ra == rb)


class TestCoefficientHasOneHome:
    def test_act_evaluates_d_coefficient(self, monkeypatch):
        # a wrong formula in d_coefficient must change act's answer on the
        # one-term path and on the summing path alike
        params = ModuleParams(F(1, 3), F(2), F(1), qk(0))
        cases = [(AlgebraElement({d(1): 1}), {2: 1}),
                 (AlgebraElement({d(1): 1, d(2): F(1, 2)}), {0: 1, 1: F(1, 3)})]
        right = []
        for x, items in cases:
            right.append(act(params, x, WeightVector(params, items)))
            assert_same(right[-1], reference_act(params, x, ReferenceVector(params, items)))
        monkeypatch.setattr(intermediate, "d_coefficient",
                            lambda alpha, beta, q, g: alpha + q - g * beta)
        for (x, items), expected in zip(cases, right):
            assert act(params, x, WeightVector(params, items)) != expected


class TestRepresentationIdentity:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bracket_acts_as_the_commutator(self, data):
        # act([x,y], v) = x.(y.v) - y.(x.v) for multi-term elements and
        # vectors with mixed denominators over 1/6 Z, sn:2^inf and Q
        group = data.draw(st.sampled_from(CORE_GROUPS[2:]))
        indices = group_indices(group)
        f = data.draw(st.one_of(st.just(F(0)), small_fractions))
        params = ModuleParams(data.draw(small_fractions), data.draw(small_fractions), f, group)
        x, y = data.draw(elements(indices, 2)), data.draw(elements(indices, 2))
        v = WeightVector(params, data.draw(entry_lists(indices)))
        commutator = act(params, x, act(params, y, v)) - act(params, y, act(params, x, v))
        assert act(params, bracket(x, y), v) == commutator


class TestIntegerAction:
    @settings(max_examples=300, deadline=None)
    @given(st.builds(F, st.integers(-50, 50), st.integers(1, 50)),
           st.one_of(st.just(F(0)), st.builds(F, st.integers(-50, 50), st.integers(1, 50))),
           st.one_of(st.just(1), st.builds(F, st.integers(1, 50), st.integers(1, 50))),
           st.integers(-60, 60), st.integers(-60, 60))
    def test_scaled_coefficient_is_the_integer_coefficient(self, alpha, beta, step, n, j):
        # P * d_coefficient(alpha, beta, n*step, j*step) is the coefficient
        # evaluated on the four ints, for a unit step as ModuleParams uses too
        form = _integer_action(alpha, beta, step)
        assert all(type(x) is int for x in form)
        P, alpha_P, beta_P, Q = form
        assert P > 0
        assert P * d_coefficient(alpha, beta, n * step, j * step) == \
            d_coefficient(alpha_P, beta_P, n * Q, j)


class TestCanonicalForm:
    @settings(max_examples=200, deadline=None)
    @given(vector_pairs(count=1))
    def test_scaling_round_trip(self, case):
        params, _, (items,) = case
        v = WeightVector(params, items)
        assert v * 2 * F(1, 2) == v
        assert v * F(3, 7) * F(7, 3) == v

    @settings(max_examples=200, deadline=None)
    @given(vector_pairs(count=2))
    def test_cancellation_is_the_zero_vector(self, case):
        params, _, (a_items, b_items) = case
        v, w = WeightVector(params, a_items), WeightVector(params, b_items)
        zero = v - v
        assert zero.is_zero() and str(zero) == "0"
        assert zero == WeightVector(params) == v * 0
        # equality is structural, whichever denominators the operands had
        assert (v + w) - w == v
        assert w + (v - w) == v

    def test_mixed_denominators_reduce(self):
        p = ModuleParams(F(1, 5), F(2), F(3), FULL_Q)
        v = WeightVector(p, {F(1, 2): F(1, 3), F(1, 3): F(1, 4)})
        w = WeightVector(p, {F(1, 3): F(1, 4)})
        assert v - w == WeightVector(p, {F(1, 2): F(1, 3)})
        assert str(v - w) == "1/3*v(1/2)"

    def test_inexact_input_rejected(self):
        p = ModuleParams(F(0), F(1), F(1), qk(0))
        with pytest.raises(TypeError):
            WeightVector(p, {1: 0.5})
        with pytest.raises(TypeError):
            WeightVector(p, {0.5: 1})
        with pytest.raises(TypeError):
            WeightVector(p, {1: 1}) * 0.5


@st.composite
def subspace_inputs(draw):
    """Module parameters and a list of Subspace inputs: WeightVectors,
    plain dicts (some with indices outside the group or with float
    values), vectors of other parameters, and combinations of earlier
    inputs, which cancel to zero in the span."""
    params, indices = draw(params_and_indices())
    inputs, valid = [], []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["vector", "dict", "dict", "combination", "bad"]))
        if kind == "combination" and valid:
            picked = draw(st.lists(st.sampled_from(valid), min_size=1, max_size=3))
            scalars = draw(st.lists(small_fractions, min_size=len(picked),
                                    max_size=len(picked)))
            value = WeightVector(params)
            for vector, c in zip(picked, scalars):
                value = value + c * vector
            if draw(st.booleans()):
                value = value.entries
        elif kind == "bad":
            q = draw(indices)
            value = draw(st.sampled_from([
                {q: 0.5},
                {float(q): 1},
                WeightVector(ModuleParams(params.alpha, params.beta + 1, params.f,
                                          params.group), {q: 1}),
            ]))
        else:
            items = draw(entry_lists(indices))
            if kind == "vector":
                value = WeightVector(params, items)
            else:
                # int and Fraction coefficients, zeros, and sometimes an
                # index outside the group
                value = {q: c.numerator if c.denominator == 1 and draw(st.booleans()) else c
                         for q, c in items}
                if draw(st.integers(0, 3)) == 0:
                    value[draw(any_indices())] = draw(small_fractions)
        inputs.append(value)
        if kind == "bad":
            continue
        try:
            valid.append(WeightVector(params, value) if isinstance(value, dict) else value)
        except SubalgebraError:
            pass
    return params, inputs


def outcome(call, *args):
    try:
        return call(*args)
    except (TypeError, SubalgebraError, GroupMismatchError) as exc:
        return type(exc)


def assert_same_span(sub, ref):
    assert sub.dimension == ref.dimension
    assert sub.pivots() == ref.pivots()
    assert sub.row_entries() == ref.row_entries()
    assert all(type(q) is F and type(c) is F for row in sub.row_entries()
               for q, c in row.items())
    assert [str(v) for v in sub.echelon_basis] == [str(v) for v in ref.echelon_basis]
    assert sub.is_pure_basis() == ref.is_pure_basis()


class TestSubspaceAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(subspace_inputs(), st.data())
    def test_insert_and_contains(self, case, data):
        params, inputs = case
        sub, ref = Subspace(params), ReferenceSubspace(params)
        for value in inputs:
            assert outcome(sub.contains, value) == outcome(ref.contains, value)
            assert outcome(sub.insert, value) == outcome(ref.insert, value)
            assert_same_span(sub, ref)
            assert outcome(sub.contains, value) == outcome(ref.contains, value)
        # the echelon form does not depend on the insertion order
        shuffled = data.draw(st.permutations(inputs))
        prefix = data.draw(st.integers(0, len(shuffled)))
        other, other_ref = Subspace(params), ReferenceSubspace(params)
        for value in shuffled[:prefix]:
            outcome(other.insert, value)
            outcome(other_ref.insert, value)
        assert (sub == other) == (ref == other_ref)
        for value in shuffled[prefix:]:
            outcome(other.insert, value)
        assert sub == other
