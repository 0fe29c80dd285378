"""Differential tests of the action-table path of ``hvir.analysis``
(table builders, recovery, intertwiners, restriction, window membership)
against the one-pass-per-entry oracles in ``helpers``."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import hvir.analysis as analysis
from hvir import (
    ActionTable,
    HvirError,
    I,
    ModuleParams,
    TRIVIAL,
    Window,
    cyclic,
    d,
    intermediate_series_table,
    intertwiner_check,
    qk,
    recover_params,
    restriction_report,
    transported_table,
)
from helpers import (
    reference_intertwiner_check,
    reference_recover_params,
    reference_restriction_report,
    reference_series_table,
    reference_transported_table,
    reference_window_contains,
    stray_i_entry_table,
)

F = Fraction

# Z, 1/2 Z and 1/3 Z
TABLE_GROUPS = (qk(0), cyclic(F(1, 2)), cyclic(F(1, 3)))
small_fractions = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
nonzero_fractions = small_fractions.filter(bool)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (HvirError, ValueError) as exc:
        return type(exc)


def entry_order(key):
    return str(key[0]), key[1]


def builder_order(table):
    """The items of a table in the builders' insertion order: by source,
    then target, with d before I."""
    return sorted(table.entries.items(),
                  key=lambda item: (item[0][1], item[1][0], item[0][0].kind != "d"))


def assert_built_like(fast, slow):
    """``fast`` equals the oracle's table item for item and in the
    builders' order, and the checking constructor admits it unchanged."""
    assert fast == slow
    assert list(fast.entries.items()) == builder_order(slow)
    assert ActionTable(fast.window, fast.entries) == fast


@st.composite
def module_params(draw, group):
    """alpha on the group (normalized to 0) or off it, beta in {0, 1, 1/2}
    or random, f zero or not."""
    alpha = draw(st.one_of(
        st.integers(-3, 3).map(lambda n: n * group.generator),
        small_fractions,
        st.builds(F, st.integers(-9, 9), st.sampled_from([5, 7])),
    ))
    beta = draw(st.one_of(st.sampled_from([F(0), F(1), F(1, 2)]), small_fractions))
    f = draw(st.one_of(st.just(F(0)), nonzero_fractions))
    return ModuleParams(alpha, beta, f, group)


@st.composite
def table_cases(draw):
    """A table of a module over Z, 1/2 Z or 1/3 Z with bound 1-4: full,
    rescaled, sparse, of one generator kind, or corrupted.  Choices are
    drawn against the sorted entry keys, so they do not depend on the
    builder's entry order."""
    group = draw(st.sampled_from(TABLE_GROUPS))
    window = Window(group, draw(st.integers(1, 4)))
    params = draw(module_params(group))
    scales = None
    if draw(st.booleans()):
        scales = {q: draw(nonzero_fractions) for q in window.indices()}
    entries = reference_series_table(params, window, scales).entries
    keys = sorted(entries, key=entry_order)
    shape = draw(st.sampled_from(["full", "sparse", "d only", "I only", "corrupted"]))
    if shape == "sparse" and keys:
        dropped = draw(st.sets(st.sampled_from(keys), max_size=len(keys)))
        keys = [k for k in keys if k not in dropped]
    elif shape in ("d only", "I only"):
        keys = [k for k in keys if k[0].kind == shape[0]]
    chosen = {k: entries[k] for k in keys}
    if shape == "corrupted" and keys:
        for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3)):
            tgt, coeff = chosen[key]
            if draw(st.integers(0, 4)) == 0:
                tgt = draw(st.sampled_from(window.indices()))
            chosen[key] = (tgt, coeff + draw(nonzero_fractions))
    return params, window, scales, ActionTable(window, chosen)


class TestRecoverOracle:
    @settings(max_examples=600, deadline=None)
    @given(table_cases())
    # an I and a d entry on one pair are two edges of the chain
    @example((None, None, None, stray_i_entry_table()))
    def test_recover_matches_reference(self, case):
        _, _, _, table = case
        fast = outcome(recover_params, table)
        slow = outcome(reference_recover_params, table)
        if isinstance(slow, type):
            assert fast is slow
        else:
            assert fast == slow
            # the CLI prints the scales as they come
            assert list(fast[1]) == table.window.indices()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_loop_path_matches_reference(self, data):
        # f = 0 tables reach beta only through the loop product
        group = data.draw(st.sampled_from(TABLE_GROUPS))
        window = Window(group, data.draw(st.integers(1, 4)))
        params = data.draw(module_params(group))
        params = ModuleParams(params.alpha, params.beta, F(0), group)
        scales = {q: data.draw(nonzero_fractions) for q in window.indices()}
        table = reference_series_table(params, window, scales)
        fast = outcome(recover_params, table)
        slow = outcome(reference_recover_params, table)
        if isinstance(slow, type):
            assert fast is slow
        else:
            assert fast == slow

    def test_one_scale_chain_on_a_connected_f_table(self, monkeypatch):
        params = ModuleParams(F(1, 3), F(2), F(5), qk(0))
        window = Window(qk(0), 4)
        table = intermediate_series_table(
            params, window, {q: 1 + abs(q) for q in window.indices()}
        )
        calls = []
        chain = analysis._chain_scales
        monkeypatch.setattr(
            analysis, "_chain_scales", lambda *args: calls.append(1) or chain(*args)
        )
        assert recover_params(table)[0] == params
        assert len(calls) == 1


class TestBuilderOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_series_table_matches_reference(self, data):
        window = Window(data.draw(st.sampled_from(TABLE_GROUPS)), data.draw(st.integers(1, 4)))
        params = data.draw(module_params(data.draw(st.sampled_from(TABLE_GROUPS))))
        scales = None
        if data.draw(st.booleans()):
            scales = {q: data.draw(nonzero_fractions) for q in window.indices()}
        fast = outcome(intermediate_series_table, params, window, scales)
        slow = outcome(reference_series_table, params, window, scales)
        if isinstance(slow, type):
            assert fast is slow
        else:
            assert_built_like(fast, slow)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_transported_table_matches_reference(self, m, bound, data):
        params = data.draw(module_params(qk(m)))
        assert_built_like(
            transported_table(params, m, bound), reference_transported_table(params, m, bound)
        )

    @pytest.mark.parametrize("m,bound", [(1, 1), (2, 3), (3, 5)])
    def test_transport_acts_once_per_step(self, monkeypatch, m, bound):
        # d(g) and I(g) for each of the 4B+1 steps g, whatever the bound
        params = ModuleParams(F(1, 7) * qk(m).generator, F(2, 3), F(5), qk(m))
        calls = []
        act = analysis.act
        monkeypatch.setattr(analysis, "act", lambda *args: calls.append(1) or act(*args))
        fast = transported_table(params, m, bound)
        assert len(calls) == 2 * (4 * bound + 1)
        assert_built_like(fast, reference_transported_table(params, m, bound))


class TestIntertwinerOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_intertwiner_matches_reference(self, data):
        group = data.draw(st.sampled_from(TABLE_GROUPS))
        window = Window(data.draw(st.sampled_from(TABLE_GROUPS)), data.draw(st.integers(1, 4)))
        p1 = data.draw(module_params(group))
        shift = data.draw(st.one_of(
            st.integers(-9, 9).map(lambda n: n * group.generator), small_fractions
        ))
        kind = data.draw(st.sampled_from(["shifted", "same", "random"]))
        if kind == "shifted":
            p2 = ModuleParams(p1.alpha + shift, p1.beta, p1.f, group)
        elif kind == "same":
            p2 = p1
        else:
            p2 = data.draw(module_params(group))
        fast = outcome(intertwiner_check, p1, p2, shift, window)
        slow = outcome(reference_intertwiner_check, p1, p2, shift, window)
        assert fast == slow

    @pytest.mark.parametrize("shift,expected", [
        (F(5), True), (F(-5), True),
        # |s| = 2B leaves one source and no step; past it, or off the
        # window's step, no source is left
        (F(6), False), (F(7), False), (F(1, 2), False),
    ])
    def test_reach_at_its_edges(self, shift, expected):
        # the shift's step count s leaves the steps |n| <= 2B - |s|
        group = cyclic(F(1, 2))
        p1 = ModuleParams(F(1, 3), F(1, 2), 2, group)
        p2 = ModuleParams(p1.alpha + shift, p1.beta, p1.f, group)
        window = Window(qk(0), 3)
        assert intertwiner_check(p1, p2, shift, window) is expected
        assert reference_intertwiner_check(p1, p2, shift, window) is expected


class TestRestrictionOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_restriction_matches_bucket_definition(self, data):
        group = data.draw(st.sampled_from(TABLE_GROUPS))
        window = Window(group, data.draw(st.integers(1, 6)))
        params = data.draw(module_params(group))
        subgroup = data.draw(st.one_of(
            st.integers(1, 16).map(lambda k: cyclic(k * group.generator)),
            st.sampled_from([cyclic(group.generator / 2), TRIVIAL]),
        ))
        fast = outcome(restriction_report, params, subgroup, window)
        slow = outcome(reference_restriction_report, params, subgroup, window)
        assert fast == slow

    def test_subgroup_much_coarser_than_the_window(self):
        window = Window(qk(0), 2)
        params = ModuleParams(F(1, 3), F(1), F(0), qk(0))
        reps = [rep for rep, _ in restriction_report(params, cyclic(10 ** 30), window)]
        assert reps == [-2, -1, 0, 1, 2]


class TestWindowMembership:
    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_contains_matches_fraction_division(self, data):
        window = Window(
            data.draw(st.sampled_from(TABLE_GROUPS + (cyclic(F(3, 2)), cyclic(4)))),
            data.draw(st.integers(1, 6)),
        )
        q = data.draw(st.one_of(
            # multiples at and around the edges, |n| = bound - 1, bound, bound + 1
            st.builds(lambda n, s: s * n * window.step,
                      st.sampled_from([window.bound - 1, window.bound, window.bound + 1]),
                      st.sampled_from([-1, 1])),
            st.integers(-20, 20).map(lambda n: n * window.step),
            # non-multiples
            st.builds(lambda n, k: n * window.step / k, st.integers(-20, 20),
                      st.integers(2, 7)),
            st.builds(F, st.integers(-30, 30), st.integers(1, 12)),
        ))
        assert (q in window) == reference_window_contains(window, q)

    def test_edges(self):
        window = Window(cyclic(F(2, 3)), 3)
        assert F(2) in window and F(-2) in window
        assert F(8, 3) not in window and F(-8, 3) not in window
        assert F(1, 3) not in window and 0 in window and 2 in window


class TestTableCheck:
    def test_first_bad_entry_after_valid_repeats_is_reported(self):
        # every index of the bad entry but its target has passed the check
        # many times before it; the entry that leaves the window is named
        window = Window(qk(0), 3)
        entries = {(key(g), F(s)): (F(s + g), F(1)) for key in (d, I)
                   for s in range(-3, 4) for g in range(-3 - s, 4 - s)}
        entries[(d(1), F(3))] = (F(4), F(0))
        entries[(I(-5), F(-3))] = (F(-8), F(1))
        with pytest.raises(ValueError) as exc:
            ActionTable(window, entries)
        assert str(exc.value) == "table entry d(1): 3 -> 4 leaves the window"
        del entries[(d(1), F(3))]
        with pytest.raises(ValueError) as exc:
            ActionTable(window, entries)
        assert str(exc.value) == "table entry I(-5): -3 -> -8 leaves the window"


def test_table_keys_cover_both_generators():
    # the builder keys every entry by (generator, source) whatever its order
    table = intermediate_series_table(ModuleParams(F(1, 2), F(2), F(3), qk(0)), Window(qk(0), 1))
    assert set(table.entries) == {
        (key, F(s)) for s in (-1, 0, 1) for t in (-1, 0, 1) for key in (d(t - s), I(t - s))
    }
