"""Exact messages of error paths that no other test reaches."""

from fractions import Fraction

import pytest

import hvir.cli
from hvir import (
    CD,
    ActionTable,
    AlgebraElement,
    AmbiguousTableError,
    FULL_Q,
    GroupMismatchError,
    ModuleParams,
    NotIntermediateSeriesError,
    ParseError,
    WeightVector,
    Window,
    act,
    align_extension,
    basis_vector,
    closure,
    contains,
    cyclic,
    d,
    finitely_generated,
    format_table,
    in_subalgebra,
    intermediate_series_table,
    intertwiner_check,
    is_subgroup,
    iso_check,
    parse_element,
    parse_table,
    qk,
    rank,
    recover_params,
    restriction_report,
    scan_details,
    subgroup_intersect,
    subgroup_sum,
    transported_table,
)
from hvir.cli import main

F = Fraction


def message(exc_type, fn, *args):
    with pytest.raises(exc_type) as info:
        fn(*args)
    return str(info.value)


class TestAnalysis:
    def test_transport_needs_qk(self):
        params = ModuleParams(0, 1, 2, cyclic(F(1, 3)))
        assert message(GroupMismatchError, transported_table, params, 3, 2) == (
            "transport of order 3 needs index group cyclic:1/6, got cyclic:1/3"
        )

    def test_closure_seed_of_other_params(self):
        params = ModuleParams(0, 1, 2, qk(0))
        other = ModuleParams(0, 1, 3, qk(0))
        seed = basis_vector(other, 0)
        assert message(GroupMismatchError, closure, params, Window(qk(0), 3), [seed]) == (
            "seed belongs to different module parameters"
        )

    @pytest.mark.parametrize("index", [F(1, 2), F(3)], ids=["off-step", "past-bound"])
    def test_closure_seed_outside_the_window(self, index):
        params = ModuleParams(0, 1, 2, qk(0))
        assert message(ValueError, closure, params, Window(qk(0), 2), [{index: 1}]) == (
            "seed index %s lies outside the window" % index
        )

    @pytest.mark.parametrize("lines,expected", [
        ("d(0) 0 0 1\nI(0) 0 0 2\nI(0) 1 1 3\n", "I(0) eigenvalues disagree"),
        ("d(0) 0 0 1\nI(1) 0 1 3\n",
         "I entries present although the I(0) eigenvalue is absent"),
    ], ids=["two-f", "no-f"])
    def test_recover_f(self, lines, expected):
        table = parse_table("window qk:0 1\n" + lines)
        assert message(NotIntermediateSeriesError, recover_params, table) == expected

    def test_recover_d_entry_where_the_action_vanishes(self):
        # the I entries fix every scale to 1 and d(-1) at 0 fixes beta = 1,
        # so d(1) acts on v(-1) by alpha - 1 + beta = 0
        table = parse_table(
            "window qk:0 1\nd(0) -1 -1 -1\nd(0) 1 1 1\n"
            "I(0) -1 -1 1\nI(0) 0 0 1\nI(0) 1 1 1\nI(1) -1 0 1\nI(1) 0 1 1\n"
            "d(-1) 0 -1 -1\nd(1) -1 0 3\n"
        )
        assert message(NotIntermediateSeriesError, recover_params, table) == (
            "entry d(1) at -1 is nonzero where the action must vanish"
        )

    def test_recover_vanishing_entry_on_a_half_step_window(self):
        # d(-3/2) acts on v(1/2) by alpha + 1/2 - 3/2*beta = 0; the message
        # names the source by its index 1/2: window position 1 times the step
        params = ModuleParams(0, F(1, 3), 1, cyclic(F(1, 2)))
        text = format_table(intermediate_series_table(params, Window(params.group, 3)))
        table = parse_table(text + "d(-3/2) 1/2 -1 1\n")
        assert message(NotIntermediateSeriesError, recover_params, table) == (
            "entry d(-3/2) at 1/2 is nonzero where the action must vanish"
        )

    def test_recover_unreachable_index(self):
        # V(1/5, 2, 0) on the bound-1 window with d steps between 0 and 1 only
        table = parse_table(
            "window qk:0 1\nd(0) -1 -1 -4/5\nd(0) 0 0 1/5\nd(0) 1 1 6/5\n"
            "d(1) 0 1 11/5\nd(-1) 1 0 -4/5\n"
        )
        assert message(AmbiguousTableError, recover_params, table) == (
            "entries do not connect the window; index 0 is unreachable"
        )

    def test_restriction_window_on_another_group(self):
        params = ModuleParams(F(1, 3), F(1, 2), 0, qk(0))
        window = Window(cyclic(F(1, 2)), 2)
        assert message(GroupMismatchError, restriction_report, params, qk(0), window) == (
            "window must live on the module's index group"
        )

    def test_align_mixed_params(self):
        reference = {q: basis_vector(ModuleParams(0, 1, 1, qk(0)), q) for q in (0, 1)}
        candidate = {q: basis_vector(ModuleParams(0, 1, 2, qk(0)), q) for q in (0, 1)}
        assert message(GroupMismatchError, align_extension, reference, candidate) == (
            "reference and candidate mix module parameters"
        )

    @staticmethod
    def _candidate(params):
        # agrees with the reference on indices 0 and 1, but v(2) is doubled
        reference = {q: basis_vector(params, q) for q in (0, 1)}
        candidate = dict(reference)
        candidate[2] = basis_vector(params, 2) * 2
        return reference, candidate

    def test_align_d_relation(self):
        # d(2) maps v(0) to (alpha + 0 + 2*beta) v(2) = v(2), not to v(2)/2
        params = ModuleParams(0, F(1, 2), 1, qk(0))
        assert message(ValueError, align_extension, *self._candidate(params)) == (
            "candidate violates the d-action relation from 0 to 2"
        )

    def test_align_i_relation(self):
        # with alpha = beta = 0, d(2) kills v(0), so the d relation holds
        # from 0 to 2 and the I relation is the one that fails
        params = ModuleParams(0, 0, 1, qk(0))
        assert message(ValueError, align_extension, *self._candidate(params)) == (
            "candidate violates the I-action relation from 0 to 2"
        )


class TestWindowInsideModuleGroup:
    # the one check every window function shares
    PARAMS = ModuleParams(F(1, 3), F(1, 2), 0, qk(0))
    WINDOW = Window(cyclic(F(1, 2)), 3)
    TEXT = "window group cyclic:1/2 is not inside the module group cyclic:1"

    @pytest.mark.parametrize("call", [
        lambda p, w: closure(p, w, []),
        lambda p, w: scan_details(p, w),
        lambda p, w: intermediate_series_table(p, w),
        lambda p, w: intertwiner_check(p, p, 0, w),
    ], ids=["closure", "scan_details", "intermediate_series_table", "intertwiner_check"])
    def test_message(self, call):
        assert message(GroupMismatchError, call, self.PARAMS, self.WINDOW) == self.TEXT


class TestSameGroup:
    # the one check both module-pair comparisons share
    PAIR = (ModuleParams(0, 1, 0, cyclic(1)), ModuleParams(0, 1, 0, FULL_Q))
    TEXT = "cannot compare modules over different groups"

    def test_iso_check(self):
        assert message(GroupMismatchError, iso_check, *self.PAIR) == self.TEXT

    def test_intertwiner_check(self):
        window = Window(cyclic(1), 3)
        assert message(GroupMismatchError, intertwiner_check, *self.PAIR, 0, window) == self.TEXT

    def test_cli(self, capsys):
        assert main(["iso", "0,1,0@Q", "0,1,0@cyclic:1"]) == 1
        assert capsys.readouterr().err == "error[group-mismatch]: %s\n" % self.TEXT


class TestWeightVector:
    @pytest.mark.parametrize("op,verb", [
        (lambda v, w: v + w, "add"),
        (lambda v, w: v - w, "subtract"),
    ])
    def test_other_module(self, op, verb):
        v = basis_vector(ModuleParams(0, 1, 2, qk(0)), 0)
        w = basis_vector(ModuleParams(0, 1, 3, qk(0)), 0)
        assert message(GroupMismatchError, op, v, w) == (
            "cannot %s vectors of different modules" % verb
        )


class TestParser:
    @pytest.mark.parametrize("text,expected", [
        ("", "empty element at offset 1"),
        ("   ", "empty element at offset 4"),
        ("d(1) d(2)", "expected '+' or '-' between terms at offset 6"),
        ("2*CD CI", "expected '+' or '-' between terms at offset 6"),
    ])
    def test_element(self, text, expected):
        assert message(ParseError, parse_element, text) == expected

    @pytest.mark.parametrize("text,expected", [
        ("", "empty table"),
        (" \n\t\n", "empty table"),
        ("window Q 2\n", "table windows require a cyclic group spec"),
        ("window sn:2^inf 2\n", "table windows require a cyclic group spec"),
        ("window qk:0 2\nd(0) 0 0\n", "table line needs 4 fields, got 'd(0) 0 0'"),
        # the header bound is read before qk:501 meets its cap
        ("window qk:501 x\nd(0) 0 0 1\n", "expected a digit at offset 1"),
        ("window qk:0 2\nd(0)x 0 0 1\n", "trailing input after generator at offset 5"),
        ("window qk:0 2\nI(1)) 0 1 1\n", "trailing input after generator at offset 5"),
        ("window qk:0 2\nCD 0 0 1\n", "table generators must be d(...) or I(...) symbols"),
        # ActionTable checks the generators once every line has parsed
        ("window qk:0 2\nCD 0 0 1\nd(0) 0 0\n", "table line needs 4 fields, got 'd(0) 0 0'"),
        # a bad field after its generator and neighbours parsed fine
        ("window qk:0 2\nd(1) 0 1 2\nd(1) 0x 1 2\n",
         "trailing input after rational at offset 2"),
        ("window qk:0 2\nd(1) 0 1 2\nd(1) 0 1/0 2\n",
         "denominator must be positive at offset 3"),
        ("window qk:0 2\nd(1) 0 1 2\nd(1)) 0 1 2\n",
         "trailing input after generator at offset 5"),
        # a text that parsed as a generator is still no rational
        ("window qk:0 2\nd(1) 0 1 2\nd(1) d(1) 1 2\n", "expected a digit at offset 1"),
        # every field of the duplicate was parsed on an earlier line
        ("window qk:0 2\nd(1) 0 1 2\nd(-1) 1 0 2\nd(1) 0 1 2\n",
         "duplicate table entry for d(1) at 0"),
        # two spellings of one source are one window position
        ("window qk:0 2\nd(1) 0 1 2\nd(1) 0/3 1 2\n", "duplicate table entry for d(1) at 0"),
        ("window cyclic:1/2 2\nd(1) 1/2 3/2 2\nd(1) 2/4 3/2 2\n",
         "duplicate table entry for d(1) at 1/2"),
        # a source off the step's multiples is still compared by value
        ("window qk:0 2\nd(1) 1/2 3/2 2\nd(1) 2/4 3/2 2\n",
         "duplicate table entry for d(1) at 1/2"),
    ])
    def test_table(self, text, expected):
        assert message(ParseError, parse_table, text) == expected

    def test_generator_off_the_step_multiples(self):
        # d(1/2) is no multiple of the window's step 1, so no target of
        # the window grades it
        table = parse_table("window qk:0 2\nd(1/2) 0 1 2\nd(0) 0 0 1\n")
        assert message(NotIntermediateSeriesError, recover_params, table) == (
            "entry d(1/2) at 0 lands at 1; the grading requires 1/2"
        )


class TestArgumentChecks:
    # the type and range checks of the library's entry points
    PARAMS = ModuleParams(0, 1, 2, qk(0))

    @pytest.mark.parametrize("call,exc_type,expected", [
        (lambda p: act(p, "d(1)", basis_vector(p, 0)), TypeError,
         "expected an algebra element, got 'd(1)'"),
        (lambda p: in_subalgebra(d(1), "Q"), TypeError, "expected a subgroup spec, got 'Q'"),
        (lambda p: ActionTable(None, {}), TypeError, "expected a Window"),
        (lambda p: WeightVector(None), TypeError, "params must be ModuleParams"),
        (lambda p: qk(-1), ValueError, "qk index must be a non-negative integer"),
        (lambda p: contains("Q", 1), TypeError, "not a subgroup spec: 'Q'"),
        (lambda p: finitely_generated("Q"), TypeError, "not a subgroup spec: 'Q'"),
        (lambda p: rank("Q"), TypeError, "not a subgroup spec: 'Q'"),
        (lambda p: is_subgroup("Q", qk(0)), TypeError, "not a subgroup spec: 'Q'"),
        (lambda p: subgroup_sum("Q", qk(0)), TypeError, "not a subgroup spec: 'Q'"),
        (lambda p: subgroup_intersect(qk(0), "Q"), TypeError, "not a subgroup spec: 'Q'"),
    ], ids=["act-element", "in_subalgebra-group", "ActionTable-window", "WeightVector-params",
            "qk-negative", "contains-group", "finitely_generated-group", "rank-group",
            "is_subgroup-group", "subgroup_sum-group", "subgroup_intersect-group"])
    def test_message(self, call, exc_type, expected):
        assert message(exc_type, call, self.PARAMS) == expected


class TestCli:
    def test_jacobi_failure(self, capsys, monkeypatch):
        # the one report of a nonzero jacobiator, which the algebra never gives
        monkeypatch.setattr(hvir.cli, "jacobiator", lambda x, y, z: AlgebraElement.basis(CD))
        assert main(["jacobi", "--window", "0:1"]) == 1
        assert capsys.readouterr().out == "jacobi FAILED on (d(-1), d(0), d(1)): CD\n"

    @pytest.mark.parametrize("seed", ["1,,2", "1,", ",1", ""])
    def test_empty_seed_part(self, capsys, seed):
        argv = ["closure", "0,0,1@qk:0", "--window", "3", "--seed", seed]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error[syntax]: expected a digit at offset 1\n"
