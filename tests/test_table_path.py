"""Differential tests of the action-table path of ``hvir.analysis``
(table builders, recovery, intertwiners, restriction, window membership)
against the one-pass-per-entry oracles in ``helpers``."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

import hvir.analysis as analysis
from hvir import (
    ActionTable,
    HvirError,
    I,
    NotIntermediateSeriesError,
    ModuleParams,
    TRIVIAL,
    Window,
    cyclic,
    d,
    format_table,
    intermediate_series_table,
    intertwiner_check,
    iso_check,
    parse_table,
    pullback_params,
    qk,
    recover_params,
    restriction_report,
    transported_table,
)
from hvir.intermediate import _rescaling_power
from helpers import (
    chain_iso_scales,
    reference_intertwiner_check,
    reference_recover_params,
    reference_restriction_report,
    reference_series_table,
    reference_transported_table,
    reference_format_table,
    reference_window_contains,
    small_fractions,
    stray_i_entry_table,
)

F = Fraction

# Z, 1/2 Z and 1/3 Z
TABLE_GROUPS = (qk(0), cyclic(F(1, 2)), cyclic(F(1, 3)))
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


# Z, 1/2 Z and qk(3)
ISO_GROUPS = (qk(0), cyclic(F(1, 2)), qk(3))


@st.composite
def iso_pairs(draw):
    """Two modules over one of ISO_GROUPS with the window over it: alpha
    on the group or off it, f = 0 and beta in {0, 1} drawn more often,
    and p2 a shifted copy of p1 with its beta kept or redrawn, the beta
    0/1 swap of a shifted copy, or drawn afresh."""
    group = draw(st.sampled_from(ISO_GROUPS))
    window = Window(group, draw(st.integers(2, 4)))
    step = group.generator
    alpha = draw(st.one_of(
        st.integers(-3, 3).map(lambda n: n * step),
        st.builds(F, st.integers(-9, 9), st.sampled_from([5, 7])).map(lambda a: a * step),
    ))
    betas = st.one_of(st.sampled_from([F(0), F(1)]), small_fractions)
    fs = st.one_of(st.just(F(0)), st.just(F(0)), nonzero_fractions)
    shifted = alpha + draw(st.integers(-3, 3)) * step
    kind = draw(st.sampled_from(["shifted", "swapped", "fresh"]))
    if kind == "swapped":
        p1 = ModuleParams(alpha, draw(st.sampled_from([F(0), F(1)])), F(0), group)
        return p1, ModuleParams(shifted, 1 - p1.beta, F(0), group), window
    p1 = ModuleParams(alpha, draw(betas), draw(fs), group)
    if kind == "shifted":
        beta = draw(st.one_of(st.just(p1.beta), st.just(1 - p1.beta), betas))
        return p1, ModuleParams(shifted, beta, p1.f, group), window
    return p1, ModuleParams(draw(small_fractions) * step, draw(betas), draw(fs), group), window


class TestIsoWitnessOracle:
    @settings(max_examples=400, deadline=None)
    @given(iso_pairs())
    def test_chain_oracle_agrees_with_iso_check(self, case):
        p1, p2, window = case
        step = window.step
        flag, shift = iso_check(p1, p2)
        if not flag:
            # no shift of the window carries p1 onto p2
            for k in range(-2 * window.bound + 1, 2 * window.bound):
                assert chain_iso_scales(p1, p2, k * step, window) is None, k
            return
        scales = chain_iso_scales(p1, p2, shift, window)
        if p1.beta != p2.beta and p1.alpha == 0:
            # on the group only the irreducible subquotients agree
            assert scales is None
            return
        # the witness is v(q) -> (alpha + q)**e u(q - shift), up to a constant
        power = _rescaling_power(p1, p2)
        witness = {q: (p1.alpha + q) ** power for q in window.indices()}
        assert scales is not None
        constant = scales[window.indices()[0]] / witness[window.indices()[0]]
        assert scales == {q: constant * c for q, c in witness.items()}
        assert intertwiner_check(p1, p2, shift, window, scales=witness)
        assert intertwiner_check(p1, p2, shift, window) is (power == 0)

    def test_i_actions_pin_the_scales(self):
        # alpha + q rescales the d actions of the slope swap into each
        # other, but not f: with f != 0 the scales must be constant
        window = Window(qk(0), 4)
        scales = {q: F(1, 7) + q for q in window.indices()}
        for f, expected in ((F(0), True), (F(2), False)):
            p1 = ModuleParams(F(1, 7), F(0), f, qk(0))
            p2 = ModuleParams(F(1, 7), F(1), f, qk(0))
            assert intertwiner_check(p1, p2, 0, window, scales=scales) is expected

    def test_slope_swap_scales_are_alpha_plus_q(self):
        p1 = ModuleParams(F(1, 7), F(0), F(0), qk(0))
        p2 = ModuleParams(F(1, 7), F(1), F(0), qk(0))
        window = Window(qk(0), 6)
        scales = chain_iso_scales(p1, p2, 0, window)
        assert scales == {q: (F(1, 7) + q) / F(-41, 7) for q in window.indices()}


@st.composite
def builder_tables(draw):
    """The tables of one module over Z, 1/2 Z or qk(3) from every builder:
    unscaled, scaled (negative scales and scales whose ratios reduce,
    such as 2/4, drawn often), scaled by a constant multiple of those
    scales, transported from qk(m) with its direct twin, and each table
    read back from its text."""
    m = draw(st.sampled_from([1, 2, 3]))
    group = qk(m)
    bound = draw(st.integers(1, 3))
    window = Window(group, bound)
    params = ModuleParams(
        draw(small_fractions), draw(st.one_of(st.sampled_from([F(0), F(1)]), small_fractions)),
        draw(st.one_of(st.just(F(0)), nonzero_fractions)), group)
    factors = st.one_of(st.sampled_from([F(2), F(4), F(-2), F(-4), F(6), F(-1, 2)]),
                        nonzero_fractions)
    scales = {q: draw(factors) for q in window.indices()}
    constant = draw(factors)
    direct = intermediate_series_table(pullback_params(params, m), Window(qk(0), bound))
    tables = [
        intermediate_series_table(params, window),
        intermediate_series_table(params, window, scales),
        intermediate_series_table(params, window, {q: constant * c for q, c in scales.items()}),
        transported_table(params, m, bound),
        direct,
    ]
    return tables + [parse_table(format_table(t)) for t in tables]


class TestCanonicalPairs:
    @settings(max_examples=150, deadline=None)
    @given(builder_tables())
    def test_every_builder_gives_the_canonical_form(self, tables):
        for t in tables:
            assert all(den > 0 and gcd(num, den) == 1
                       for _, (num, den) in t._entries.values())
            assert ActionTable(t.window, t.entries) == t
            assert parse_table(format_table(t)) == t
            # each coefficient written with numerator and denominator doubled
            lines = [line.split() for line in format_table(t).splitlines()]
            doubled = [fields[:3] + ["%d/%d" % (2 * F(fields[3]).numerator,
                                                2 * F(fields[3]).denominator)]
                       for fields in lines[1:]]
            assert parse_table("\n".join(map(" ".join, lines[:1] + doubled))) == t
        for t1 in tables:
            for t2 in tables:
                assert (t1 == t2) is (t1.entries == t2.entries)
        # a constant rescaling, transport and a round trip change nothing
        assert tables[1] == tables[2] and tables[3] == tables[4]
        assert tables[5:] == tables[:5]


class TestBoundedEntryCost:
    def test_pairwise_coprime_denominators(self):
        # 1860 coefficients 1/(A*i + 1) of about 1000 digits, pairwise
        # coprime because every prime below 2001 divides A: one common
        # denominator would have about 1.9 million digits, and every entry
        # would be as long.  Each entry keeps its own denominator instead.
        A = lcm(*range(1, 2001)) * 10 ** 130
        bound = 15
        lines = ["window cyclic:1 %d" % bound]
        i = 0
        for n in range(-bound, bound + 1):
            lines.append("d(0) %d %d %s" % (n, n, F(1, 3) + n))
            lines.append("I(0) %d %d 2" % (n, n))
            for m in range(-bound, bound + 1):
                for key in ("d", "I") if m != n else ():
                    i += 1
                    lines.append("%s(%d) %d %d 1/%d" % (key, m - n, n, m, A * i + 1))
        assert i == 1860
        table = parse_table("\n".join(lines) + "\n")
        assert max(den for _, (_, den) in table._entries.values()).bit_length() < 3400
        text = format_table(table)
        assert sorted(text.splitlines()) == sorted(lines)
        assert parse_table(text) == table
        with pytest.raises(NotIntermediateSeriesError) as exc:
            recover_params(table)
        assert exc.value.code == "not-intermediate-series"
        assert str(exc.value) == "inconsistent scale chain at index -14"


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


@st.composite
def off_step_tables(draw):
    """A table built by ``ActionTable(window, entries)`` whose generator
    indices may lie off the step's multiples (d(1/3) on a qk:0 window) and
    whose entries need not be graded; zero coefficients are dropped."""
    window = Window(draw(st.sampled_from(TABLE_GROUPS)), draw(st.integers(1, 3)))
    indices = st.sampled_from(window.indices())
    generators = st.builds(lambda kind, q: kind(q), st.sampled_from([d, I]),
                           st.one_of(st.sampled_from(window.steps()), small_fractions))
    entries = draw(st.dictionaries(st.tuples(generators, indices),
                                   st.tuples(indices, small_fractions), max_size=12))
    return ActionTable(window, entries)


class TestOffStepRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(off_step_tables())
    @example(ActionTable(Window(qk(0), 2), {
        (d(F(1, 3)), F(0)): (F(1), F(2)),
        (I(F(-1, 2)), F(1)): (F(-2), F(1, 3)),
        (d(F(1)), F(1)): (F(1), F(-4, 6)),
    }))
    def test_round_trip(self, table):
        assert ActionTable(table.window, table.entries) == table
        text = format_table(table)
        assert text == reference_format_table(table)
        assert parse_table(text) == table


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
