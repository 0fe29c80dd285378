"""Window engine: closure, scan, restriction, intertwiners, recovery."""

import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hvir import (
    ActionTable,
    AmbiguousTableError,
    DisjointOverlapError,
    GroupMismatchError,
    HvirError,
    I,
    ModuleParams,
    NonConstantScalingError,
    NotIntermediateSeriesError,
    SubalgebraError,
    Subspace,
    VERDICT_CODIM_ONE,
    VERDICT_IRREDUCIBLE,
    VERDICT_TRIVIAL_SUB,
    WeightVector,
    Window,
    act,
    align_extension,
    basis_vector,
    classify,
    closure,
    cyclic,
    d,
    intermediate_series_table,
    intertwiner_check,
    pullback_params,
    qk,
    recover_params,
    reducibility_scan,
    restriction_report,
    scan_details,
    supernatural,
    transported_table,
)
import hvir.groups
from hvir import analysis
from hvir.analysis import MAX_TABLE_BOUND, MAX_WINDOW_BOUND, _adjacency
from helpers import (
    rand_fraction,
    rand_nonzero_fraction,
    rand_params,
    reference_closure,
    reference_scan,
    rng,
    small_fractions,
    stray_i_entry_table,
)

F = Fraction
Z = qk(0)


def window_z(bound):
    return Window(Z, bound)


class TestWindow:
    def test_indices_and_size(self):
        w = Window(cyclic(F(1, 2)), 2)
        assert w.indices() == [F(-1), F(-1, 2), F(0), F(1, 2), F(1)]
        assert w.size == 5

    def test_membership(self):
        w = window_z(3)
        assert F(3) in w and F(-3) in w and F(0) in w
        assert F(4) not in w and F(1, 2) not in w

    def test_requires_cyclic(self):
        from hvir import FULL_Q

        with pytest.raises(ValueError):
            Window(FULL_Q, 3)
        with pytest.raises(ValueError):
            Window(supernatural({2: float("inf")}), 3)

    def test_cyclic_message_names_the_group(self):
        from hvir import FULL_Q

        with pytest.raises(ValueError, match="^windows require a cyclic index group, got Q$"):
            Window(FULL_Q, 3)

    def test_steps_cover_all_differences(self):
        w = window_z(2)
        diffs = {a - b for a in w.indices() for b in w.indices()}
        assert diffs == set(w.steps())

    @pytest.mark.parametrize("step", [F(1), F(1, 2), F(2, 3), F(1, 6)])
    def test_indices_and_steps_are_multiples_of_the_step(self, step):
        w = Window(cyclic(step), 4)
        assert w.indices() == [n * w.step for n in range(-4, 5)]
        assert w.steps() == [n * w.step for n in range(-8, 9)]


class TestSubspace:
    def params(self):
        return ModuleParams(F(0), F(2), F(1), Z)

    def test_canonical_echelon(self):
        p = self.params()
        sub = Subspace(p)
        sub.insert(WeightVector(p, {F(1): F(2), F(2): F(2)}))
        sub.insert(WeightVector(p, {F(2): F(3)}))
        assert sub.pivots() == [F(1), F(2)]
        rows = sub.row_entries()
        assert rows == [{F(1): F(1)}, {F(2): F(1)}]

    def test_insertion_order_irrelevant(self):
        p = self.params()
        vectors = [
            WeightVector(p, {F(0): F(1), F(1): F(1)}),
            WeightVector(p, {F(1): F(2), F(2): F(5)}),
            WeightVector(p, {F(0): F(3), F(2): F(-1)}),
        ]
        a = Subspace(p)
        b = Subspace(p)
        for v in vectors:
            a.insert(v)
        for v in reversed(vectors):
            b.insert(v)
        assert a == b

    def test_dependent_vector_rejected(self):
        p = self.params()
        sub = Subspace(p)
        v = WeightVector(p, {F(0): F(1), F(1): F(1)})
        assert sub.insert(v)
        assert not sub.insert(2 * v)
        assert sub.dimension == 1
        assert sub.contains(-3 * v)

    def test_pure_basis_detection(self):
        p = self.params()
        sub = Subspace(p)
        sub.insert(basis_vector(p, 1))
        sub.insert(basis_vector(p, -1))
        assert sub.is_pure_basis()
        sub.insert(WeightVector(p, {F(0): F(1), F(2): F(1)}))
        assert not sub.is_pure_basis()


class TestClosure:
    def test_trivial_submodule(self):
        p = ModuleParams(F(0), F(0), F(0), Z)
        sub = closure(p, window_z(4), [basis_vector(p, 0)])
        assert sub.dimension == 1
        assert sub.pivots() == [F(0)]

    def test_codim_one_submodule(self):
        p = ModuleParams(F(0), F(1), F(0), Z)
        sub = closure(p, window_z(4), [basis_vector(p, 1)])
        assert sub.dimension == 8
        assert sub.pivots() == [F(n) for n in range(-4, 5) if n != 0]

    def test_nonzero_f_fills_window(self):
        p = ModuleParams(F(0), F(0), F(5), Z)
        sub = closure(p, window_z(4), [basis_vector(p, 0)])
        assert sub.dimension == 9

    def test_seed_off_the_fixed_line_fills_window(self):
        p = ModuleParams(F(0), F(0), F(0), Z)
        sub = closure(p, window_z(4), [basis_vector(p, 1)])
        assert sub.dimension == 9

    def test_monotone_in_seeds(self):
        p = ModuleParams(F(0), F(1), F(0), Z)
        w = window_z(4)
        small = closure(p, w, [basis_vector(p, 1)])
        large = closure(p, w, [basis_vector(p, 1), basis_vector(p, 0)])
        for row in small.echelon_basis:
            assert large.contains(row)

    def test_idempotent(self):
        p = ModuleParams(F(0), F(1), F(0), Z)
        w = window_z(4)
        once = closure(p, w, [basis_vector(p, 1)])
        twice = closure(p, w, once.echelon_basis)
        assert once == twice

    def test_invariant_under_window_generators(self):
        r = rng(301)
        w = window_z(4)
        for _ in range(5):
            p = rand_params(r, Z)
            seed_index = r.randint(-4, 4)
            sub = closure(p, w, [basis_vector(p, seed_index)])
            for row in sub.echelon_basis:
                for g in w.steps():
                    for key in (d(g), I(g)):
                        image = act(p, key, row)
                        clipped = {q: c for q, c in image.entries.items() if q in w}
                        assert sub.contains(WeightVector(p, clipped))

    def test_mixed_seed_splits_into_weight_lines(self):
        p = ModuleParams(F(1, 3), F(2), F(0), Z)
        w = window_z(3)
        seed = WeightVector(p, {F(1): F(1), F(2): F(1)})
        sub = closure(p, w, [seed])
        assert sub.contains(basis_vector(p, 1))
        assert sub.contains(basis_vector(p, 2))

    def test_window_group_must_sit_inside_module_group(self):
        p = ModuleParams(F(0), F(1), F(0), cyclic(F(1, 2)))
        with pytest.raises(GroupMismatchError):
            closure(p, Window(cyclic(F(1, 3)), 2), [])

    def test_seed_outside_window_rejected(self):
        p = ModuleParams(F(0), F(1), F(0), Z)
        with pytest.raises(ValueError):
            closure(p, window_z(2), [basis_vector(p, 5)])


class TestScan:
    def test_reducible_points(self):
        w = window_z(4)
        assert reducibility_scan(ModuleParams(F(0), F(0), F(0), Z), w).verdict == VERDICT_TRIVIAL_SUB
        assert reducibility_scan(ModuleParams(F(0), F(1), F(0), Z), w).verdict == VERDICT_CODIM_ONE

    def test_irreducible_point(self):
        w = window_z(4)
        assert reducibility_scan(ModuleParams(F(1, 3), F(1), F(0), Z), w).verdict == VERDICT_IRREDUCIBLE

    def test_matches_classify_on_small_grid(self):
        w = window_z(4)
        for alpha in (F(0), F(1, 2)):
            for beta in (F(0), F(1), F(2)):
                for f in (F(0), F(1)):
                    p = ModuleParams(alpha, beta, f, Z)
                    assert reducibility_scan(p, w).verdict == classify(p).verdict

    def test_details_expose_dimensions(self):
        p = ModuleParams(F(0), F(1), F(0), Z)
        w = window_z(3)
        _, dims, proper = scan_details(p, w)
        assert dims[F(0)] == w.size
        assert all(dims[F(n)] == w.size - 1 for n in range(1, 4))
        assert proper == [F(n) for n in range(-3, 4) if n != 0]

    def test_tiny_window_rejected(self):
        p = ModuleParams(F(0), F(1), F(0), Z)
        with pytest.raises(ValueError):
            reducibility_scan(p, window_z(1))

    def test_reducible_locus_stable_across_bounds(self):
        for bound in range(2, 7):
            w = window_z(bound)
            assert (
                reducibility_scan(ModuleParams(F(0), F(0), F(0), Z), w).verdict
                == VERDICT_TRIVIAL_SUB
            )
            assert (
                reducibility_scan(ModuleParams(F(0), F(1), F(0), Z), w).verdict
                == VERDICT_CODIM_ONE
            )

    def test_hundred_points_outside_locus_are_fully_reachable(self):
        # every singleton seed generates the full bound-8 window span for
        # 100 parameter points away from the two reducible ones
        r = rng(304)
        w = window_z(8)
        points = []
        while len(points) < 100:
            p = rand_params(r, Z)
            if p.f == 0 and p.alpha == 0 and p.beta in (0, 1):
                continue
            points.append(p)
        for p in points:
            _, dims, _ = scan_details(p, w)
            assert set(dims.values()) == {w.size}


class _FractionGuard(type):
    def __instancecheck__(cls, value):
        return isinstance(value, Fraction)

    def __call__(cls, *args):
        raise AssertionError("built a Fraction")


class _Unbuildable(metaclass=_FractionGuard):
    """Stands in for ``Fraction`` in ``hvir.groups``: isinstance checks
    still pass, and building one fails."""


# one point of each verdict on each group
VERDICT_POINTS = [
    (ModuleParams(F(1, 3), F(1, 2), F(0), Z), VERDICT_IRREDUCIBLE),
    (ModuleParams(F(0), F(1), F(0), Z), VERDICT_CODIM_ONE),
    (ModuleParams(F(0), F(0), F(0), Z), VERDICT_TRIVIAL_SUB),
    (ModuleParams(F(0), F(0), F(1), cyclic(F(1, 2))), VERDICT_IRREDUCIBLE),
    (ModuleParams(F(1, 2), F(1), F(0), cyclic(F(1, 2))), VERDICT_CODIM_ONE),
    (ModuleParams(F(-1, 6), F(0), F(0), cyclic(F(1, 6))), VERDICT_TRIVIAL_SUB),
]


class TestScanOnABuiltWindow:
    """A window stores its indices with their hashes when it is built, so
    a scan on it neither builds a Fraction nor hashes more than one."""

    def test_no_fraction_is_built(self, monkeypatch):
        for params, verdict in VERDICT_POINTS:
            w = Window(params.group, 5)
            expected = [n * w.step for n in range(-5, 6)]
            with monkeypatch.context() as patch:
                patch.setattr(hvir.groups, "Fraction", _Unbuildable)
                indices = w.indices()
                classification, dims, _ = scan_details(params, w)
            assert indices == expected and list(dims) == expected
            assert classification.verdict == verdict

    @pytest.mark.parametrize("params, verdict", VERDICT_POINTS)
    def test_at_most_one_index_is_hashed(self, monkeypatch, params, verdict):
        w = Window(params.group, 6)
        hashed = []
        plain_hash = Fraction.__hash__

        def counting_hash(q):
            hashed.append(q)
            return plain_hash(q)

        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__hash__", counting_hash)
            classification, dims, _ = scan_details(params, w)
        assert classification.verdict == verdict
        # a reducible window has one seed whose closure dimension differs
        # from all the others', and only its index is hashed
        assert len(hashed) == (0 if verdict == VERDICT_IRREDUCIBLE else 1)
        assert list(dims) == w.indices()

    def test_one_window_scans_a_sweep_as_fresh_ones_do(self):
        # the oracles draw a fresh window per example; here each group's
        # one window is scanned again and again, and must answer as a
        # fresh window does every time
        values = (F(0), F(1, 2), F(1), F(-1, 6), F(1, 3))
        for group in (Z, cyclic(F(1, 2)), cyclic(F(1, 6))):
            w = Window(group, 3)
            verdicts = set()
            for alpha in values:
                for beta in (F(0), F(1), F(2, 3)):
                    for f in (F(0), F(1)):
                        params = ModuleParams(alpha, beta, f, group)
                        classification, dims, proper = scan_details(params, w)
                        fresh = Window(group, 3)
                        assert (classification.verdict, dims, proper) == \
                            reference_scan(params, fresh)
                        assert list(dims) == fresh.indices() == w.indices()
                        verdicts.add(classification.verdict)
            assert verdicts == {VERDICT_IRREDUCIBLE, VERDICT_CODIM_ONE, VERDICT_TRIVIAL_SUB}

    def test_tabulate_matches_a_zip(self):
        # any mix of values, ties for the most frequent one included
        w = Window(cyclic(F(1, 6)), 3)
        for values in ([1] * 7, [5, 1, 1, 2, 1, 1, 5], [3, 3, 4, 4, 5, 6, 7], list(range(7))):
            table = w._tabulate(values)
            assert table == dict(zip(w.indices(), values))
            assert list(table) == w.indices()


class TestRestriction:
    def test_halves_over_integers(self):
        p = ModuleParams(F(1, 5), F(2), F(3), cyclic(F(1, 2)))
        w = Window(cyclic(F(1, 2)), 4)
        report = restriction_report(p, Z, w)
        assert [(rep, rp.alpha, rp.group) for rep, rp in report] == [
            (F(0), F(1, 5), Z),
            (F(1, 2), F(1, 5) + F(1, 2), Z),
        ]
        assert all(rp.beta == F(2) and rp.f == F(3) for _, rp in report)

    def test_same_group_single_coset(self):
        p = ModuleParams(F(1, 5), F(2), F(3), Z)
        report = restriction_report(p, Z, window_z(4))
        assert report == [(F(0), p)]

    def test_sixths_into_halves(self):
        p = ModuleParams(F(0), F(1), F(0), cyclic(F(1, 6)))
        w = Window(cyclic(F(1, 6)), 6)
        report = restriction_report(p, cyclic(F(1, 2)), w)
        assert [rep for rep, _ in report] == [F(0), F(1, 6), F(1, 3)]
        assert [rp.alpha for _, rp in report] == [F(0), F(1, 6), F(1, 3)]

    def test_reassembly_reproduces_action_table(self):
        p = ModuleParams(F(1, 5), F(2), F(3), cyclic(F(1, 2)))
        w = Window(cyclic(F(1, 2)), 4)
        ambient = intermediate_series_table(p, w)
        report = restriction_report(p, Z, w)
        rep_of = {}
        for rep, _ in report:
            for q in w.indices():
                if (q - rep).denominator == 1:
                    rep_of[q] = rep
        params_of = dict(report)
        # every ambient entry along a subgroup generator reappears in the
        # matching coset module after shifting indices by the representative
        checked = 0
        for (key, src), (tgt, coeff) in ambient.entries.items():
            if key.index.denominator != 1:
                continue  # generator outside the subgroup
            rep = rep_of[src]
            assert rep_of[tgt] == rep
            rp = params_of[rep]
            image = act(rp, key, basis_vector(rp, src - rep))
            assert image.coefficient(tgt - rep) == coeff
            checked += 1
        assert checked > 0

    def test_non_subgroup_rejected(self):
        p = ModuleParams(F(0), F(1), F(0), cyclic(F(1, 2)))
        w = Window(cyclic(F(1, 2)), 4)
        with pytest.raises(GroupMismatchError):
            restriction_report(p, cyclic(F(1, 3)), w)


class TestIntertwiner:
    def test_shift_between_alpha_offsets(self):
        p1 = ModuleParams(F(1, 3), F(2), F(3), Z)
        p2 = ModuleParams(F(4, 3), F(2), F(3), Z)
        assert intertwiner_check(p1, p2, F(1), window_z(8))

    def test_identity_map(self):
        p = ModuleParams(F(1, 3), F(2), F(3), Z)
        assert intertwiner_check(p, p, F(0), window_z(4))

    def test_f_mismatch_fails(self):
        p1 = ModuleParams(F(0), F(2), F(3), Z)
        p2 = ModuleParams(F(0), F(2), F(4), Z)
        assert not intertwiner_check(p1, p2, F(0), window_z(8))

    def test_beta_mismatch_fails_for_every_window_shift(self):
        p1 = ModuleParams(F(1, 3), F(0), F(0), Z)
        p2 = ModuleParams(F(1, 3), F(1), F(0), Z)
        w = window_z(6)
        for g in w.indices():
            assert not intertwiner_check(p1, p2, g, w)

    def test_wrong_shift_fails(self):
        p1 = ModuleParams(F(1, 3), F(2), F(3), Z)
        p2 = ModuleParams(F(4, 3), F(2), F(3), Z)
        assert not intertwiner_check(p1, p2, F(2), window_z(8))

    def test_shift_outside_group_rejected(self):
        p = ModuleParams(F(1, 3), F(2), F(3), Z)
        with pytest.raises(SubalgebraError):
            intertwiner_check(p, p, F(1, 2), window_z(4))


class TestActionTables:
    def test_builder_matches_direct_action(self):
        p = ModuleParams(F(1, 5), F(2), F(3), Z)
        w = window_z(3)
        table = intermediate_series_table(p, w)
        for (key, src), (tgt, coeff) in table.entries.items():
            image = act(p, key, basis_vector(p, src))
            assert image.coefficient(tgt) == coeff

    def test_table_equality_and_scaling(self):
        p = ModuleParams(F(1, 5), F(2), F(3), Z)
        w = window_z(3)
        plain = intermediate_series_table(p, w)
        scaled_const = intermediate_series_table(
            p, w, scales={q: F(7) for q in w.indices()}
        )
        assert plain == scaled_const  # a constant rescaling is invisible
        skewed = intermediate_series_table(
            p, w, scales={q: F(1) + abs(q) for q in w.indices()}
        )
        assert plain != skewed

    def test_zero_scale_rejected(self):
        p = ModuleParams(F(1, 5), F(2), F(3), Z)
        w = window_z(2)
        with pytest.raises(ValueError):
            intermediate_series_table(p, w, scales={q: F(0) for q in w.indices()})

    def test_incomplete_scales_rejected(self):
        p = ModuleParams(F(1, 5), F(2), F(3), Z)
        w = window_z(2)
        with pytest.raises(ValueError):
            intermediate_series_table(p, w, scales={F(0): F(1)})

    def test_central_generator_rejected(self):
        from hvir import CD

        w = window_z(2)
        with pytest.raises(ValueError):
            ActionTable(w, {(CD, F(0)): (F(0), F(1))})

    def test_transport_matches_pullback(self):
        r = rng(302)
        for m in (2, 3):
            for _ in range(5):
                p = ModuleParams(
                    rand_fraction(r, 9, 7), rand_fraction(r), rand_fraction(r), qk(m)
                )
                transported = transported_table(p, m, 4)
                direct = intermediate_series_table(pullback_params(p, m), window_z(4))
                assert transported == direct

    def test_builders_stop_past_the_table_cap(self):
        # both builders do O(B^2) work, so they refuse a bound past the cap
        # before building anything; a table read from entries is not capped
        bound = MAX_TABLE_BOUND + 1
        text = "table window bound %d exceeds the cap of %d" % (bound, MAX_TABLE_BOUND)
        p = ModuleParams(F(1, 5), F(2), F(3), qk(2))
        began = time.perf_counter()
        with pytest.raises(ValueError) as info:
            intermediate_series_table(p, window_z(bound))
        assert str(info.value) == text
        with pytest.raises(ValueError) as info:
            transported_table(p, 2, bound)
        assert str(info.value) == text
        assert time.perf_counter() - began < 0.5
        assert len(ActionTable(window_z(bound), {(d(0), F(0)): (F(0), F(1))})) == 1


class TestRecover:
    def test_pristine_table(self):
        p = ModuleParams(F(0), F(0), F(1), Z)
        table = intermediate_series_table(p, window_z(4))
        out, scales = recover_params(table)
        assert out == p
        assert set(scales.values()) == {F(1)}

    def test_constant_scramble(self):
        p = ModuleParams(F(1, 2), F(2), F(3), Z)
        w = window_z(5)
        table = intermediate_series_table(p, w, scales={q: F(7) for q in w.indices()})
        out, scales = recover_params(table)
        assert out == p
        assert len(set(scales.values())) == 1

    def test_nonconstant_scramble_recovers_chain(self):
        p = ModuleParams(F(1, 2), F(2), F(3), Z)
        w = window_z(4)
        scramble = {q: F(2) + abs(q) for q in w.indices()}
        table = intermediate_series_table(p, w, scales=scramble)
        out, scales = recover_params(table)
        assert out == p
        base = min(w.indices())
        expected = {q: scramble[q] / scramble[base] for q in w.indices()}
        assert scales == expected

    def test_corrupted_entry_detected(self):
        p = ModuleParams(F(1, 2), F(2), F(3), Z)
        w = window_z(4)
        entries = intermediate_series_table(p, w).entries
        key = (I(1), F(0))
        tgt, coeff = entries[key]
        entries[key] = (tgt, coeff + 1)
        with pytest.raises(NotIntermediateSeriesError):
            recover_params(ActionTable(w, entries))

    def test_grading_violation_detected(self):
        p = ModuleParams(F(1, 2), F(2), F(3), Z)
        w = window_z(3)
        entries = intermediate_series_table(p, w).entries
        entries[(d(1), F(0))] = (F(2), F(1))
        with pytest.raises(NotIntermediateSeriesError):
            recover_params(ActionTable(w, entries))

    @pytest.mark.parametrize("changes,expected", [
        ({(I(1), F(0)): (F(1), F(4)), (I(-2), F(1)): (F(-1), F(4))},
         "inconsistent scale chain at index 0"),
        ({(d(1), F(-1)): (F(0), F(8, 15)), (d(-2), F(2)): (F(0), F(38, 15))},
         "inconsistent scale chain at index 0"),
        ({(d(1), F(0)): (F(2), F(8, 15)), (I(-1), F(1)): (F(-1), F(2))},
         "entry I(-1) at 1 lands at -1; the grading requires 0"),
    ], ids=["I", "d", "grading"])
    def test_insertion_order_does_not_change_the_error(self, changes, expected):
        # two I coefficients doubled, two d coefficients raised by 1, or
        # two entries retargeted: equal tables get one answer, whatever
        # order their entries came in
        entries = intermediate_series_table(ModuleParams(F(1, 5), F(1, 3), 2, Z),
                                            window_z(3)).entries
        entries.update(changes)
        items = list(entries.items())
        for seed in range(20):
            rng(seed).shuffle(items)
            with pytest.raises(NotIntermediateSeriesError) as exc:
                recover_params(ActionTable(window_z(3), dict(items)))
            assert str(exc.value) == expected

    def test_f_zero_generic_beta(self):
        p = ModuleParams(F(1, 3), F(2), F(0), Z)
        w = window_z(4)
        table = intermediate_series_table(p, w, scales={q: F(5) for q in w.indices()})
        out, scales = recover_params(table)
        assert out == p
        assert len(set(scales.values())) == 1

    def test_f_zero_beta_one_with_alpha_in_group(self):
        p = ModuleParams(F(0), F(1), F(0), Z)
        table = intermediate_series_table(p, window_z(4))
        out, _ = recover_params(table)
        assert out == p

    def test_f_zero_beta_swap_gauge_ambiguity(self):
        # for alpha outside the group the tables of beta 0 and beta 1 are
        # the same up to index-dependent rescaling, so recovery settles on
        # the smaller slope and a non-constant chain
        p = ModuleParams(F(1, 3), F(1), F(0), Z)
        table = intermediate_series_table(p, window_z(4))
        out, scales = recover_params(table)
        assert (out.alpha, out.beta, out.f) == (F(1, 3), F(0), F(0))
        assert len(set(scales.values())) > 1

    def test_missing_d0_is_ambiguous(self):
        p = ModuleParams(F(1, 2), F(2), F(3), Z)
        w = window_z(3)
        entries = {
            key: value
            for key, value in intermediate_series_table(p, w).entries.items()
            if not (key[0].kind == "d" and key[0].index == 0)
        }
        with pytest.raises(AmbiguousTableError):
            recover_params(ActionTable(w, entries))

    def test_disconnected_window_is_ambiguous(self):
        p = ModuleParams(F(1, 2), F(2), F(3), Z)
        w = window_z(3)
        entries = {
            key: value
            for key, value in intermediate_series_table(p, w).entries.items()
            if key[0].index == 0
        }
        with pytest.raises(AmbiguousTableError):
            recover_params(ActionTable(w, entries))

    def test_wrong_i_entry_under_a_d_entry_is_inconsistent(self):
        # the I(1) entry at -1 and the d(1) entry at -1 are both chain
        # edges, so their disagreement is found though index 1 is
        # unreachable
        with pytest.raises(NotIntermediateSeriesError):
            recover_params(stray_i_entry_table())

    def test_wrong_i_entry_on_a_disconnected_i_chain(self):
        # the I entries alone do not connect the window, so the loop path
        # compares I(1) at 0 with the d(1) entry on the same pair
        p = ModuleParams(F(1, 5), F(2), F(3), Z)
        w = window_z(3)
        entries = {
            (key, src): value
            for (key, src), value in intermediate_series_table(p, w).entries.items()
            if key.kind == "d" or key.index == 0 or (key, src) == (I(1), 0)
        }
        assert entries[(I(1), F(0))] == (F(1), F(3))
        entries[(I(1), F(0))] = (F(1), F(4))
        with pytest.raises(NotIntermediateSeriesError):
            recover_params(ActionTable(w, entries))

    def test_raw_alpha_in_the_group(self):
        # d(0) reads alpha = 2, which ModuleParams normalizes to 0; the
        # entries are checked against the raw offset they are labelled by
        w = window_z(3)
        entries = {
            (key, src): (tgt, coeff + 2 if key.kind == "d" else coeff)
            for (key, src), (tgt, coeff) in intermediate_series_table(
                ModuleParams(F(0), F(2), F(3), Z), w
            ).entries.items()
        }
        out, scales = recover_params(ActionTable(w, entries))
        assert str(out) == "0,2,3@cyclic:1"
        assert scales == {q: F(1) for q in w.indices()}

    def test_random_round_trips_with_scrambles(self):
        r = rng(303)
        w = window_z(4)
        for _ in range(15):
            p = rand_params(r, Z, nonzero_f=True)
            scramble = {q: rand_nonzero_fraction(r) for q in w.indices()}
            table = intermediate_series_table(p, w, scales=scramble)
            out, scales = recover_params(table)
            assert out == p
            base = min(w.indices())
            assert scales == {q: scramble[q] / scramble[base] for q in w.indices()}


class TestAlign:
    def setup_pair(self, scale=F(7), super_bound=4, sub_bound=2):
        p = ModuleParams(F(1, 5), F(2), F(3), Z)
        reference = {F(n): basis_vector(p, n) for n in range(-sub_bound, sub_bound + 1)}
        candidate = {
            F(n): scale * basis_vector(p, n)
            for n in range(-super_bound, super_bound + 1)
        }
        return p, reference, candidate

    def test_constant_recovered_and_divided_out(self):
        p, reference, candidate = self.setup_pair()
        aligned = align_extension(reference, candidate)
        assert set(aligned) == set(candidate)
        for q, vec in reference.items():
            assert aligned[q] == vec
        assert aligned[F(4)] == basis_vector(p, 4)

    def test_identity_unchanged(self):
        _, reference, _ = self.setup_pair()
        aligned = align_extension(reference, dict(reference))
        assert aligned == reference

    def test_index_dependent_scaling_rejected(self):
        p, reference, candidate = self.setup_pair()
        skewed = {q: (F(1) + abs(q)) * vec for q, vec in candidate.items()}
        with pytest.raises(NonConstantScalingError):
            align_extension(reference, skewed)

    def test_tiny_overlap_rejected(self):
        p, reference, candidate = self.setup_pair()
        with pytest.raises(DisjointOverlapError):
            align_extension({F(0): reference[F(0)]}, candidate)

    def test_f_zero_rejected(self):
        p = ModuleParams(F(1, 5), F(2), F(0), Z)
        reference = {F(n): basis_vector(p, n) for n in range(-2, 3)}
        candidate = {F(n): basis_vector(p, n) for n in range(-3, 4)}
        with pytest.raises(ValueError):
            align_extension(reference, candidate)

    def test_output_satisfies_relations(self):
        p, reference, candidate = self.setup_pair(scale=F(3, 2))
        aligned = align_extension(reference, candidate)
        for q, vec in aligned.items():
            for t in aligned:
                g = t - q
                assert act(p, d(g), vec) == (p.alpha + q + g * p.beta) * aligned[t]
                assert act(p, I(g), vec) == p.f * aligned[t]


class TestSubquotientMap:
    def test_explicit_intertwiner(self):
        # the quotient of the beta=0 module by its index-0 line matches the
        # codimension-1 submodule of the beta=1 module through v(h) -> h*w(h)
        source = ModuleParams(F(0), F(0), F(0), Z)
        target = ModuleParams(F(0), F(1), F(0), Z)
        w = window_z(6)

        def project_quotient(vec):
            return WeightVector(
                source, {q: c for q, c in vec.entries.items() if q != 0}
            )

        def phi(vec):
            return WeightVector(target, {q: q * c for q, c in vec.entries.items()})

        for h in w.indices():
            if h == 0:
                continue
            vbar = basis_vector(source, h)
            for g in w.steps():
                if (h + g) not in w:
                    continue
                for key in (d(g), I(g)):
                    lhs = phi(project_quotient(act(source, key, vbar)))
                    rhs = act(target, key, phi(vbar))
                    assert lhs == rhs


# Z, 1/2 Z, 1/6 Z and 3Z form a chain, so a module group drawn from the
# list may contain the window group or miss it.
ORACLE_GROUPS = [Z, cyclic(F(1, 2)), qk(3), cyclic(3)]


@st.composite
def oracle_cases(draw):
    window = Window(draw(st.sampled_from(ORACLE_GROUPS)), draw(st.integers(1, 6)))
    group = draw(st.one_of(st.just(window.group), st.sampled_from(ORACLE_GROUPS)))
    kind = draw(st.sampled_from(["codim", "trivial", "random"]))
    if kind == "codim":
        params = ModuleParams(F(0), F(1), F(0), group)
    elif kind == "trivial":
        params = ModuleParams(F(0), F(0), F(0), group)
    else:
        f = draw(st.one_of(st.just(F(0)), small_fractions))
        params = ModuleParams(draw(small_fractions), draw(small_fractions), f, group)
    return params, window


@st.composite
def window_seeds(draw, window):
    positions = st.integers(-window.bound, window.bound)
    seed = st.dictionaries(
        positions.map(lambda n: n * window.step), st.integers(-2, 2), min_size=1, max_size=3
    )
    return draw(st.lists(seed, min_size=1, max_size=2))


def outcome(fn, *args):
    try:
        return fn(*args)
    except (HvirError, ValueError) as exc:
        return type(exc)


class TestSubspaceReduction:
    def test_new_row_reduced_against_existing_pivots(self):
        p = ModuleParams(F(0), F(1), F(0), Z)
        vectors = [basis_vector(p, 1), WeightVector(p, {F(0): F(1), F(1): F(1)})]
        a = Subspace(p)
        b = Subspace(p)
        for v in vectors:
            a.insert(v)
        for v in reversed(vectors):
            b.insert(v)
        assert a == b
        assert a.row_entries() == [{F(0): F(1)}, {F(1): F(1)}]

    def test_plain_dicts_stay_exact(self):
        p = ModuleParams(F(0), F(1), F(0), Z)
        sub = Subspace(p)
        assert sub.insert({F(1): 2, F(2): 1})
        assert sub.row_entries() == [{F(1): F(1), F(2): F(1, 2)}]
        assert all(type(c) is F for c in sub.row_entries()[0].values())
        assert sub.contains({1: 4, 2: 2})
        assert not sub.contains({1: 1})

    def test_inexact_dicts_rejected(self):
        sub = Subspace(ModuleParams(F(0), F(1), F(0), Z))
        with pytest.raises(TypeError):
            sub.insert({F(1): 0.5})
        with pytest.raises(TypeError):
            sub.insert({1.0: 1})
        with pytest.raises(TypeError):
            sub.contains({F(1): 0.5})

    def test_indices_outside_the_group_rejected(self):
        p = ModuleParams(F(0), F(1), F(0), Z)
        sub = Subspace(p)
        for entries in ({F(1, 2): 1}, {F(1): 1, F(1, 3): 2}):
            with pytest.raises(SubalgebraError):
                WeightVector(p, entries)
            with pytest.raises(SubalgebraError):
                sub.insert(entries)
            with pytest.raises(SubalgebraError):
                sub.contains(entries)
        assert sub.dimension == 0
        # a zero coefficient carries no index, as in WeightVector
        assert not sub.insert({F(1, 2): 0})
        with pytest.raises(ValueError):
            closure(p, window_z(2), [{F(1, 2): 1}])

    def test_vectors_of_other_parameters_rejected(self):
        # a vector of other parameters is not checked against this group,
        # so it must not enter the span: v(1/2) is no vector over Z
        sub = Subspace(ModuleParams(F(0), F(1), F(0), Z))
        for params, index in ((ModuleParams(F(1, 2), F(0), F(1), cyclic(F(1, 2))), F(1, 2)),
                              (ModuleParams(F(0), F(2), F(0), Z), F(1))):
            foreign = basis_vector(params, index)
            with pytest.raises(GroupMismatchError):
                sub.insert(foreign)
            with pytest.raises(GroupMismatchError):
                sub.contains(foreign)
        assert sub.dimension == 0 and sub.echelon_basis == []


class TestClosureOracle:
    """Reachability against exact elimination to a fixpoint."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_closure_matches_reference(self, data):
        params, window = data.draw(oracle_cases())
        seeds = data.draw(window_seeds(window))
        fast = outcome(closure, params, window, seeds)
        slow = outcome(reference_closure, params, window, seeds)
        if isinstance(slow, type):
            assert fast is slow
            return
        assert fast.pivots() == slow.pivots()
        assert fast.row_entries() == slow.row_entries()

    @settings(max_examples=60, deadline=None)
    @given(oracle_cases())
    def test_scan_matches_reference(self, case):
        params, window = case
        fast = outcome(scan_details, params, window)
        slow = outcome(reference_scan, params, window)
        if isinstance(slow, type):
            assert fast is slow
            return
        classification, dims, proper = fast
        assert (classification.verdict, dims, proper) == slow
        # the CLI prints the dimensions as they come
        assert list(dims) == window.indices()

    @settings(max_examples=300, deadline=None)
    @given(oracle_cases())
    # alpha off the lattice: gcd(Q, beta_P) does not divide alpha_P, so no
    # row loses a target
    @example((ModuleParams(F(1, 7), F(1, 3), F(0), Z), Window(Z, 4)))
    # beta = 1/2 at alpha = 0: the row at n loses the target -n
    @example((ModuleParams(F(0), F(1, 2), F(0), Z), Window(Z, 4)))
    def test_adjacency_matches_edge_definition(self, case):
        # q -> t (t != q) exactly when f != 0 or alpha + q + (t-q)*beta != 0
        params, window = case
        indices = window.indices()
        rows = _adjacency(params, window)
        for i, q in enumerate(indices):
            for j, t in enumerate(indices):
                if j != i:
                    edge = bool(params.f or params.alpha + q + (t - q) * params.beta)
                    assert bool(rows[i] >> j & 1) == edge

    def test_window_group_outside_module_group(self):
        p = ModuleParams(F(0), F(1), F(0), Z)
        for bound in (2, 3):
            w = Window(cyclic(F(1, 2)), bound)
            with pytest.raises(GroupMismatchError):
                scan_details(p, w)
            with pytest.raises(GroupMismatchError):
                closure(p, w, [{F(1): 1}])

    def test_stray_closure_names_the_last_stray_seed(self, monkeypatch):
        # closures of sizes 2 and 3 in a window of size 5 match no verdict
        rows = [0b00011, 0b00011, 0b11100, 0b11100, 0b11100]
        monkeypatch.setattr(analysis, "_adjacency", lambda params, window: rows)
        with pytest.raises(NotIntermediateSeriesError) as info:
            scan_details(ModuleParams(F(0), F(1), F(0), qk(0)), Window(qk(0), 2))
        assert str(info.value) == "closure of the seed at index 2 matches no known verdict"

    def test_large_codim_one_scan(self):
        p = ModuleParams(F(0), F(1), F(0), qk(3))
        w = Window(qk(3), 64)
        began = time.perf_counter()
        classification, dims, proper = scan_details(p, w)
        elapsed = time.perf_counter() - began
        assert classification.verdict == VERDICT_CODIM_ONE
        assert dims[F(0)] == w.size
        assert proper == [q for q in w.indices() if q != 0]
        assert elapsed < 1.0

    @pytest.mark.parametrize("beta,verdict,dim_at_zero,dim_elsewhere", [
        (F(1), VERDICT_CODIM_ONE, 4097, 4096),
        (F(0), VERDICT_TRIVIAL_SUB, 1, 4097),
        (F(2), VERDICT_IRREDUCIBLE, 4097, 4097),
        (F(1, 2), VERDICT_IRREDUCIBLE, 4097, 4097),
    ])
    def test_scans_at_the_window_cap(self, beta, verdict, dim_at_zero, dim_elsewhere):
        # with alpha = f = 0 every adjacency row misses one target (beta
        # 1, 2 and 1/2) or position 0 reaches nothing (beta 0): the
        # costliest reachability shapes at the largest window
        p = ModuleParams(F(0), beta, F(0), Z)
        w = Window(Z, MAX_WINDOW_BOUND)
        began = time.perf_counter()
        classification, dims, _ = scan_details(p, w)
        elapsed = time.perf_counter() - began
        assert classification.verdict == verdict
        assert dims.pop(F(0)) == dim_at_zero
        assert set(dims.values()) == {dim_elsewhere} and len(dims) == w.size - 1
        assert elapsed < 1.0
