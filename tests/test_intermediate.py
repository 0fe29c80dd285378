"""Module actions, classification, isomorphism and parameter transport."""

from fractions import Fraction

import pytest

from hvir import (
    AlgebraElement,
    CD,
    FULL_Q,
    GroupMismatchError,
    I,
    ModuleParams,
    SubalgebraError,
    TRIVIAL,
    VERDICT_CODIM_ONE,
    VERDICT_IRREDUCIBLE,
    VERDICT_TRIVIAL_SUB,
    WeightVector,
    act,
    act_word,
    basis_vector,
    bracket,
    classify,
    cyclic,
    d,
    iso_check,
    pullback_params,
    qk,
    submodule_basis,
)
from helpers import rand_params, rng

F = Fraction
Z = qk(0)


class TestParams:
    def test_alpha_normalized_at_construction(self):
        p = ModuleParams(F(3, 2), F(1), F(0), cyclic(F(1, 2)))
        assert p.alpha == 0

    def test_alpha_kept_when_outside(self):
        p = ModuleParams(F(1, 3), F(1), F(0), cyclic(F(1, 2)))
        assert p.alpha == F(1, 3)

    def test_trivial_group_rejected(self):
        with pytest.raises(ValueError):
            ModuleParams(F(0), F(0), F(0), TRIVIAL)

    def test_text_form(self):
        p = ModuleParams(F(1, 5), F(2), F(3), cyclic(F(1, 6)))
        assert str(p) == "1/5,2,3@cyclic:1/6"

    def test_member_alpha_text_form_shows_normalized_value(self):
        p = ModuleParams(F(1, 2), F(2), F(3), cyclic(F(1, 6)))
        assert str(p) == "0,2,3@cyclic:1/6"


class TestAct:
    def test_zero_coefficient(self):
        p = ModuleParams(F(0), F(0), F(0), Z)
        assert act(p, d(5), basis_vector(p, 0)).is_zero()

    def test_d_action_coefficient(self):
        # alpha = 1/5 stays outside {n/6}: coefficient 1/5 + 1/6 + (1/3)*2
        p = ModuleParams(F(1, 5), F(2), F(3), cyclic(F(1, 6)))
        assert p.alpha + F(1, 6) + F(1, 3) * p.beta == F(31, 30)
        result = act(p, d(F(1, 3)), basis_vector(p, F(1, 6)))
        assert result == F(31, 30) * basis_vector(p, F(1, 2))

    def test_i_action_coefficient(self):
        p = ModuleParams(F(1, 5), F(2), F(3), cyclic(F(1, 6)))
        result = act(p, I(F(1, 3)), basis_vector(p, F(1, 6)))
        assert result == 3 * basis_vector(p, F(1, 2))

    def test_central_acts_as_zero(self):
        p = ModuleParams(F(1, 5), F(2), F(3), Z)
        v = basis_vector(p, 4)
        assert act(p, AlgebraElement.basis(CD), v).is_zero()

    def test_subalgebra_violation(self):
        p = ModuleParams(F(0), F(1), F(2), Z)
        with pytest.raises(SubalgebraError):
            act(p, d(F(1, 2)), basis_vector(p, 0))

    def test_foreign_vector_rejected(self):
        p1 = ModuleParams(F(0), F(1), F(2), Z)
        p2 = ModuleParams(F(0), F(1), F(3), Z)
        with pytest.raises(GroupMismatchError):
            act(p1, d(1), basis_vector(p2, 0))

    def test_d0_eigenvalue(self):
        r = rng(201)
        for _ in range(30):
            p = rand_params(r, Z)
            q = F(r.randint(-6, 6))
            v = basis_vector(p, q)
            assert act(p, d(0), v) == (p.alpha + q) * v

    def test_representation_property_small(self):
        r = rng(202)
        keys = [d(n) for n in range(-4, 5)] + [I(n) for n in range(-4, 5)]
        for _ in range(10):
            p = rand_params(r, Z)
            for x in keys:
                for y in keys:
                    xy = bracket(x, y)
                    for q in range(-4, 5):
                        v = basis_vector(p, q)
                        lhs = act(p, xy, v)
                        rhs = act(p, x, act(p, y, v)) - act(p, y, act(p, x, v))
                        assert lhs == rhs

    def test_representation_property_on_half_integer_group(self):
        r = rng(205)
        half = cyclic(F(1, 2))
        keys = [d(F(n, 2)) for n in range(-4, 5)] + [I(F(n, 2)) for n in range(-4, 5)]
        for _ in range(5):
            p = rand_params(r, half)
            for x in keys:
                for y in keys:
                    xy = bracket(x, y)
                    v = basis_vector(p, F(r.randint(-4, 4), 2))
                    lhs = act(p, xy, v)
                    rhs = act(p, x, act(p, y, v)) - act(p, y, act(p, x, v))
                    assert lhs == rhs


class TestActWord:
    def test_empty_word_is_identity(self):
        p = ModuleParams(F(1, 3), F(2), F(1), Z)
        v = basis_vector(p, 2) - 3 * basis_vector(p, -1)
        assert act_word(p, [], v) == v

    def test_two_step_annihilation(self):
        p = ModuleParams(F(0), F(1), F(0), Z)
        v = basis_vector(p, 0)
        # d(-1) v(0) = -v(-1), then d(1)(-v(-1)) = -(0 - 1 + 1) v(0) = 0
        assert act(p, d(-1), v) == -basis_vector(p, -1)
        assert act_word(p, [d(1), d(-1)], v).is_zero()

    def test_i_actions_commute(self):
        r = rng(203)
        for _ in range(20):
            p = rand_params(r, Z)
            q = F(r.randint(-3, 3))
            a, b = r.randint(-4, 4), r.randint(-4, 4)
            v = basis_vector(p, q)
            left = act_word(p, [I(a), I(b)], v)
            right = act_word(p, [I(b), I(a)], v)
            assert left == right


class TestClassify:
    def test_trivial_sub(self):
        assert classify(ModuleParams(F(0), F(0), F(0), FULL_Q)).verdict == VERDICT_TRIVIAL_SUB

    def test_codim_one(self):
        assert classify(ModuleParams(F(0), F(1), F(0), FULL_Q)).verdict == VERDICT_CODIM_ONE

    def test_alpha_outside_group(self):
        assert classify(ModuleParams(F(1, 2), F(0), F(0), Z)).verdict == VERDICT_IRREDUCIBLE

    def test_nonzero_f(self):
        assert classify(ModuleParams(F(0), F(0), F(2), Z)).verdict == VERDICT_IRREDUCIBLE

    def test_normalization_feeds_criterion(self):
        p = ModuleParams(F(3, 2), F(1), F(0), cyclic(F(1, 2)))
        assert classify(p).verdict == VERDICT_CODIM_ONE

    def test_generic_beta(self):
        assert classify(ModuleParams(F(0), F(2), F(0), Z)).verdict == VERDICT_IRREDUCIBLE


class TestSubmoduleBasis:
    def test_trivial_sub_predicate(self):
        pred = submodule_basis(ModuleParams(F(0), F(0), F(0), Z))
        assert pred is not None
        assert pred(0) and not pred(1)

    def test_codim_one_predicate(self):
        pred = submodule_basis(ModuleParams(F(0), F(1), F(0), Z))
        assert pred is not None
        assert pred(3) and pred(-2) and not pred(0)

    def test_irreducible_gives_none(self):
        assert submodule_basis(ModuleParams(F(0), F(0), F(5), Z)) is None

    @pytest.mark.parametrize("beta", [F(0), F(1)])
    def test_predicate_is_invariant_under_window_actions(self, beta):
        p = ModuleParams(F(0), beta, F(0), Z)
        pred = submodule_basis(p)
        for q in range(-6, 7):
            if not pred(q):
                continue
            v = basis_vector(p, q)
            for g in range(-6, 7):
                for key in (d(g), I(g)):
                    image = act(p, key, v)
                    assert all(pred(t) for t in image.entries)


class TestIsoCheck:
    def test_shift_witness(self):
        p1 = ModuleParams(F(1, 3), F(2), F(3), Z)
        p2 = ModuleParams(F(4, 3), F(2), F(3), Z)
        flag, shift = iso_check(p1, p2)
        assert flag and shift == F(1)

    def test_normalized_equal_params(self):
        # both stored forms of "alpha differs by a group element" coincide
        p1 = ModuleParams(F(0), F(2), F(3), Z)
        p2 = ModuleParams(F(5), F(2), F(3), Z)
        assert p2.alpha == 0
        flag, shift = iso_check(p1, p2)
        assert flag and shift == 0

    def test_exceptional_subquotient_pair(self):
        p1 = ModuleParams(F(0), F(0), F(0), FULL_Q)
        p2 = ModuleParams(F(0), F(1), F(0), FULL_Q)
        flag, shift = iso_check(p1, p2)
        assert flag and shift == 0

    def test_f_must_match(self):
        p1 = ModuleParams(F(0), F(2), F(3), Z)
        p2 = ModuleParams(F(0), F(2), F(4), Z)
        assert iso_check(p1, p2) == (False, None)

    def test_alpha_difference_outside_group(self):
        p1 = ModuleParams(F(1, 3), F(2), F(3), Z)
        p2 = ModuleParams(F(0), F(2), F(3), Z)
        assert iso_check(p1, p2) == (False, None)

    def test_beta_swap_holds_off_the_group(self):
        # for f == 0 the rescaling v(q) -> (alpha + q) u(q) identifies the
        # beta-0 and beta-1 modules when alpha + q is never 0
        p1 = ModuleParams(F(1, 3), F(0), F(0), Z)
        p2 = ModuleParams(F(1, 3), F(1), F(0), Z)
        assert iso_check(p1, p2) == (True, 0)
        assert iso_check(p2, p1) == (True, 0)
        assert iso_check(p1, ModuleParams(F(4, 3), F(1), F(0), Z)) == (True, 1)
        assert iso_check(p1, ModuleParams(F(1, 3), F(1), F(2), Z)) == (False, None)

    def test_group_mismatch_raises(self):
        p1 = ModuleParams(F(0), F(2), F(3), Z)
        p2 = ModuleParams(F(0), F(2), F(3), cyclic(F(1, 2)))
        with pytest.raises(GroupMismatchError):
            iso_check(p1, p2)

    def test_equivalence_relation_on_sample(self):
        r = rng(204)
        sample = []
        for _ in range(8):
            sample.append(rand_params(r, Z))
        sample.append(ModuleParams(F(0), F(0), F(0), Z))
        sample.append(ModuleParams(F(0), F(1), F(0), Z))
        sample.append(ModuleParams(F(1, 3), F(2), F(3), Z))
        sample.append(ModuleParams(F(4, 3), F(2), F(3), Z))
        for a in sample:
            assert iso_check(a, a)[0]
            for b in sample:
                assert iso_check(a, b)[0] == iso_check(b, a)[0]
                for c in sample:
                    if iso_check(a, b)[0] and iso_check(b, c)[0]:
                        assert iso_check(a, c)[0]


class TestPullback:
    def test_formula_visible_case(self):
        p = ModuleParams(F(1, 5), F(3), F(1), qk(3))
        out = pullback_params(p, 3)
        assert (out.alpha, out.beta, out.f, out.group) == (F(6, 5), F(3), F(6), Z)

    def test_fixed_point(self):
        p = ModuleParams(F(0), F(7, 2), F(0), qk(2))
        out = pullback_params(p, 2)
        assert (out.alpha, out.beta, out.f) == (F(0), F(7, 2), F(0))

    def test_member_alpha_normalizes_before_transport(self):
        # 1/2 lies in {n/6}, so it is stored as 0 and transports to 0
        p = ModuleParams(F(1, 2), F(3), F(1), qk(3))
        assert p.alpha == 0
        out = pullback_params(p, 3)
        assert (out.alpha, out.beta, out.f) == (F(0), F(3), F(6))

    def test_group_mismatch(self):
        p = ModuleParams(F(0), F(1), F(1), qk(2))
        with pytest.raises(GroupMismatchError):
            pullback_params(p, 3)


class TestWeightVector:
    def test_entries_prune(self):
        p = ModuleParams(F(0), F(1), F(1), Z)
        v = WeightVector(p, {F(1): F(2), F(2): F(0)})
        assert v.entries == {F(1): F(2)}

    def test_index_outside_group_rejected(self):
        p = ModuleParams(F(0), F(1), F(1), Z)
        with pytest.raises(SubalgebraError):
            WeightVector(p, {F(1, 2): F(1)})

    def test_linear_structure(self):
        p = ModuleParams(F(0), F(1), F(1), Z)
        v = basis_vector(p, 1)
        w = basis_vector(p, 2)
        assert (v + w) - v == w
        assert (2 * v).coefficient(1) == 2
        assert (v - v).is_zero()

    def test_str(self):
        p = ModuleParams(F(0), F(1), F(1), Z)
        v = 2 * basis_vector(p, 1) - basis_vector(p, -1)
        assert str(v) == "-v(-1) + 2*v(1)"
