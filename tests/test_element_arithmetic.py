"""Differential tests of ``AlgebraElement`` arithmetic, ``bracket``,
``jacobiator`` and ``apply_phi`` against the accumulator-per-operation
oracle in ``helpers``, and of ``align_extension`` against the entry-dict
proportionality test."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hvir import (
    CD,
    CDI,
    CENTERLESS,
    CI,
    EXACT_CENTRAL,
    AlgebraElement,
    CentralTermError,
    I,
    IndexDomainError,
    ModuleParams,
    NonConstantScalingError,
    RescalingMap,
    WeightVector,
    Window,
    ZERO,
    apply_phi,
    align_extension,
    basis_vector,
    bracket,
    closure,
    d,
    intermediate_series_table,
    jacobiator,
    qk,
    weight_components,
)
from hvir.analysis import _proportionality
from helpers import (
    ReferenceElement,
    reference_align_extension,
    reference_apply_phi,
    reference_bracket,
    reference_jacobiator,
    reference_proportionality,
    small_fractions,
)

F = Fraction

# mixed denominators: integers, halves, thirds, sixths and sevenths
mixed_indices = st.builds(F, st.integers(-8, 8), st.sampled_from([1, 1, 2, 3, 6, 7]))
integer_indices = st.integers(-4, 4).map(F)
central = st.sampled_from([CD, CDI, CI])

PRINT_RANK = ("d", "I", "CD", "CDI", "CI")


@st.composite
def term_lists(draw, indices=mixed_indices, max_size=5):
    """(key, coefficient) pairs with repeated keys, zero coefficients and
    pairs that cancel to zero."""
    keys = st.one_of(indices.map(d), indices.map(I), central)
    pairs = draw(st.lists(st.tuples(keys, small_fractions), max_size=max_size))
    if pairs and draw(st.booleans()):
        key, c = draw(st.sampled_from(pairs))
        pairs.append((key, -c))
    return draw(st.permutations(pairs))


def both(terms):
    return AlgebraElement(terms), ReferenceElement(terms)


def assert_same(element, reference):
    assert element.terms == reference.terms
    assert hash(element) == hash(reference)
    assert str(element) == str(reference)
    assert element.is_zero() == (not reference.terms)
    assert_print_order(element)


def assert_print_order(element):
    keys = list(element.terms)
    assert keys == sorted(keys, key=lambda k: (PRINT_RANK.index(k.kind), k.index or 0))


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (CentralTermError, IndexDomainError) as exc:
        return type(exc), str(exc)


class TestArithmeticAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(term_lists())
    def test_constructor(self, terms):
        assert_same(*both(terms))

    @settings(max_examples=300, deadline=None)
    @given(term_lists(), term_lists())
    def test_add_sub_and_equality(self, left, right):
        (x, rx), (y, ry) = both(left), both(right)
        assert_same(x + y, rx + ry)
        assert_same(x - y, rx - ry)
        assert_same(y - x, ry - rx)
        assert (x == y) == (rx == ry)
        assert (x + y == y + x) and (x - x).is_zero()

    @settings(max_examples=200, deadline=None)
    @given(term_lists(), st.one_of(small_fractions, st.integers(-3, 3)))
    def test_negation_and_scalar(self, terms, scalar):
        x, rx = both(terms)
        assert_same(-x, -rx)
        assert_same(x * scalar, rx * scalar)
        assert_same(scalar * x, rx * scalar)

    @settings(max_examples=300, deadline=None)
    @given(term_lists(), term_lists())
    def test_bracket(self, left, right):
        (x, rx), (y, ry) = both(left), both(right)
        assert_same(bracket(x, y), reference_bracket(rx, ry))

    @settings(max_examples=150, deadline=None)
    @given(term_lists(max_size=3), term_lists(max_size=3), term_lists(max_size=3))
    def test_jacobiator(self, a, b, c):
        (x, rx), (y, ry), (z, rz) = both(a), both(b), both(c)
        value = jacobiator(x, y, z)
        assert_same(value, reference_jacobiator(rx, ry, rz))
        assert value.is_zero()

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(term_lists(integer_indices), term_lists()),
           st.integers(1, 4), st.sampled_from([EXACT_CENTRAL, CENTERLESS]))
    def test_apply_phi(self, terms, m, variant):
        # central symbols under the centerless variant and non-integer
        # indices both raise; when both occur, the central error wins
        x, rx = both(terms)
        rescaling = RescalingMap(m, variant)
        got = outcome(apply_phi, rescaling, x)
        expected = outcome(reference_apply_phi, rescaling, rx)
        assert got[0] == expected[0]
        if got[0] == "ok":
            assert_same(got[1], expected[1])
        else:
            assert got[1] == expected[1]

    def test_both_errors_central_first(self):
        x = AlgebraElement([(d(F(1, 2)), 1), (CI, 1)])
        with pytest.raises(CentralTermError):
            apply_phi(RescalingMap(2, CENTERLESS), x)
        with pytest.raises(IndexDomainError, match="got 1/2$"):
            apply_phi(RescalingMap(2, EXACT_CENTRAL), x)


class TestCanonicalForm:
    @settings(max_examples=300, deadline=None)
    @given(term_lists(), term_lists(), small_fractions)
    def test_equal_elements_have_equal_fields(self, left, right, scalar):
        # whatever operation built it, an element's integer form is the one
        # its own terms give, with both denominators gcd-reduced
        x, y = AlgebraElement(left), AlgebraElement(right)
        for value in (x, x + y, x - y, x * scalar, bracket(x, y), x.central_part(),
                      x.without_central(), *weight_components(x).values()):
            rebuilt = AlgebraElement(value.terms)
            assert (value._L, value._D, value._num) == (rebuilt._L, rebuilt._D, rebuilt._num)
            assert math.gcd(value._L, *(k for _, k in value._num)) == 1 or not value._num
            assert math.gcd(value._D, *value._num.values()) == 1
            assert list(value._num) == sorted(value._num) and 0 not in value._num.values()
            assert hash(value) == hash(rebuilt)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(mixed_indices.map(d), mixed_indices.map(I), central),
           st.one_of(small_fractions, st.integers(-9, 9)))
    def test_basis_is_the_one_term_element(self, key, coeff):
        # basis builds its integer form directly, without the summing
        # constructor
        x, y = AlgebraElement.basis(key, coeff), AlgebraElement([(key, coeff)])
        assert (x._L, x._D, x._num) == (y._L, y._D, y._num)
        assert_same(x, ReferenceElement([(key, coeff)]))

    @pytest.mark.parametrize("key,coeff,message", [
        ("d(1)", 1, "term keys must be BasisKey, got 'd(1)'"),
        (d(1), 0.5, "expected an exact rational, got 0.5"),
    ])
    def test_basis_refuses_what_the_constructor_refuses(self, key, coeff, message):
        for build in (lambda: AlgebraElement.basis(key, coeff),
                      lambda: AlgebraElement([(key, coeff)])):
            with pytest.raises(TypeError) as exc:
                build()
            assert str(exc.value) == message

    def test_mixed_denominators_reduce(self):
        x = AlgebraElement([(d(F(1, 2)), F(1, 3)), (I(F(1, 3)), F(1, 4)), (CD, 1)])
        y = AlgebraElement([(I(F(1, 3)), F(1, 4)), (CD, 1)])
        assert (x - y)._L == 2 and (x - y)._D == 3
        assert x - y == AlgebraElement.basis(d(F(1, 2)), F(1, 3))
        assert (x - x)._L == (x - x)._D == 1 and x - x == ZERO


class TestTermOrder:
    def test_terms_iterate_in_print_order(self):
        x = AlgebraElement([(CI, 1), (I(-1), 2), (CD, 3), (d(F(1, 2)), 1), (CDI, -1),
                            (d(-2), 5), (I(F(1, 3)), 1)])
        assert list(x.terms) == [d(-2), d(F(1, 2)), I(-1), I(F(1, 3)), CD, CDI, CI]
        assert str(x) == "5*d(-2) + d(1/2) + 2*I(-1) + I(1/3) + 3*CD - CDI + CI"

    def test_operations_keep_print_order(self):
        x = AlgebraElement([(CD, 1), (d(3), 1), (I(1), 2)])
        y = AlgebraElement([(CI, 1), (d(-3), 1), (I(-1), 1)])
        for value in (x + y, x - y, -x, x * 3, bracket(x, y), x.central_part(),
                      x.without_central(), apply_phi(RescalingMap(2), x)):
            assert_print_order(value)


params_f = ModuleParams(F(1, 3), F(1, 2), F(2), qk(0))
params_other = ModuleParams(F(1, 3), F(1, 2), F(3), qk(0))


@st.composite
def vectors(draw, params=params_f):
    pairs = draw(st.lists(st.tuples(st.integers(-4, 4), small_fractions), max_size=3))
    return WeightVector(params, pairs)


class TestProportionality:
    @settings(max_examples=300, deadline=None)
    @given(vectors(), st.one_of(vectors(), vectors().map(lambda v: v * 3),
                                st.just(None)), small_fractions)
    def test_against_entry_ratios(self, reference, candidate, scale):
        # proportional, non-proportional, different-support and zero candidates
        if candidate is None:
            candidate = reference * scale
        got = _proportionality(candidate, reference)
        expected = reference_proportionality(candidate, reference)
        if candidate.is_zero() and not reference.is_zero():
            # a zero candidate is 0 * reference; both forms are rejected
            assert got == 0 and expected is None
        else:
            assert got == expected

    def test_other_module_is_not_proportional(self):
        v = basis_vector(params_f, 1)
        assert _proportionality(basis_vector(params_other, 1), v) is None


def align_outcome(align, reference, candidate):
    try:
        return "ok", align(reference, candidate)
    except (NonConstantScalingError, ValueError) as exc:
        return type(exc), str(exc)


class TestAlignExtension:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(small_fractions.filter(bool), min_size=5, max_size=5),
           st.sampled_from(["proportional", "skewed", "support", "zero"]),
           st.integers(-2, 2))
    def test_against_reference(self, scales, shape, where):
        indices = [F(n) for n in range(-2, 3)]
        reference = {q: basis_vector(params_f, q) * scales[0] for q in indices}
        candidate = {q: reference[q] * scales[1] for q in indices}
        candidate[F(3)] = basis_vector(params_f, 3) * scales[0] * scales[1]
        q = F(where)
        if shape == "skewed":
            candidate[q] = candidate[q] * scales[2] * 2
        elif shape == "support":
            candidate[q] = candidate[q] + basis_vector(params_f, q + 1) * scales[3]
        elif shape == "zero":
            candidate[q] = candidate[q] * 0
        got = align_outcome(align_extension, reference, candidate)
        assert got == align_outcome(reference_align_extension, reference, candidate)
        if shape == "proportional":
            assert got[0] == "ok"
        elif shape in ("support", "zero"):
            assert got[0] is NonConstantScalingError

    def test_divides_out_the_constant(self):
        reference = {F(n): basis_vector(params_f, n) for n in range(3)}
        candidate = {F(n): basis_vector(params_f, n) * F(5, 2) for n in range(4)}
        aligned = align_extension(reference, candidate)
        assert aligned == {F(n): basis_vector(params_f, n) for n in range(4)}


# v(1) over Z with alpha = 0, beta = 1 spans every line but v(0)
unit = ModuleParams(0, 1, 0, qk(0))
span = closure(unit, Window(qk(0), 2), [basis_vector(unit, 1)])


@pytest.mark.parametrize("fn, expected", [
    (lambda: AlgebraElement([(d(1), 1)]) == object(), False),
    (lambda: basis_vector(unit, 1) == object(), False),
    (lambda: span == object(), False),
    (lambda: intermediate_series_table(unit, Window(qk(0), 1)) == object(), False),
    (lambda: AlgebraElement([(d(1), 1)]) + 1, TypeError),
    (lambda: AlgebraElement([(d(1), 1)]) - 1, TypeError),
    (lambda: basis_vector(unit, 1) + 1, TypeError),
    (lambda: basis_vector(unit, 1) - 1, TypeError),
    (lambda: repr(basis_vector(unit, 1)), "WeightVector(v(1) | 0,1,0@cyclic:1)"),
    (lambda: repr(span),
     "Subspace(dim=4, pivots=[Fraction(-2, 1), Fraction(-1, 1), Fraction(1, 1), Fraction(2, 1)])"),
], ids=["element-eq", "vector-eq", "subspace-eq", "table-eq", "element-add", "element-sub",
        "vector-add", "vector-sub", "vector-repr", "subspace-repr"])
def test_foreign_operands_and_reprs(fn, expected):
    # a foreign operand gets NotImplemented, so == falls back to identity
    # and + and - raise TypeError
    if expected is TypeError:
        with pytest.raises(TypeError):
            fn()
    else:
        got = fn()
        assert got == expected and type(got) is type(expected)
