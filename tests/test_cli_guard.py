"""The CLI ends every call with a status, never a traceback, in bounded time.

Arguments are drawn from the ten verbs and the alphabet of the text
grammars, non-ASCII digits included, and ``main`` runs in-process.  Drawn
work stays inside the budget: ``jacobi`` always gets ``--samples`` of at
most 50, since a full ``3:12`` sweep alone takes about 5.6 s.
"""

import contextlib
import io
import time
from fractions import Fraction as F

from hypothesis import HealthCheck, given, settings, strategies as st

from hvir import INTEGERS, ModuleParams, Window, format_table, intermediate_series_table
from hvir.cli import main

BUDGET_S = 2.0

# grammar tokens, then single characters: ASCII and non-ASCII digits, a
# superscript two and the punctuation of the grammars
TOKENS = [
    "d(", "I(", ")", "CD", "CDI", "CI", "*", "+", "-", "/", "0", "1", "2", "3", "7",
    "12", "1/2", "-1/3", "@", ",", "Q", "cyclic:", "qk:", "sn:", "^", "inf", ":",
    " ", "window", "\n",
]
CHARS = "0123456789/+-*() ,@:^\u0660\u0663\u06f5\u0966\u00b2\uff11"

text = st.lists(
    st.one_of(st.sampled_from(TOKENS), st.sampled_from(CHARS)), max_size=12
).map("".join)


def field(noisy, *good):
    """One of the given values, or under ``noisy`` also drawn text."""
    values = st.sampled_from(good)
    return st.one_of(values, text) if noisy else values


def verb_args(verb, noisy):
    """Arguments of one verb; without ``noisy`` every field is well-formed
    text, though not every combination is valid."""
    indices = field(noisy, "0", "1", "2", "3", "-1", "1/2", "1/6")
    rationals = field(noisy, "0", "1", "2", "-1", "1/2", "-2/3", "5/7", "7" * 60)
    groups = field(noisy, "Q", "0", "qk:0", "qk:1", "qk:3", "qk:500", "cyclic:1/2",
                   "cyclic:3", "sn:2^inf", "sn:2^inf,3^2", "sn:3^2", "qk:\u0663")
    params = st.builds(
        "{},{},{}@{}".format, field(noisy, "0", "1", "1/2", "4/3"), rationals,
        field(noisy, "0", "0", "1", "-3"), groups,
    )
    atoms = st.builds("{}({})".format, st.sampled_from(["d", "I"]), indices) | (
        st.sampled_from(["CD", "CDI", "CI"]))
    elements = st.lists(
        st.builds("{}*{}".format, rationals, atoms) | atoms, min_size=1, max_size=4
    ).map(" + ".join)
    bounds = st.integers(-2, 2048).map(str)
    if noisy:
        elements, bounds = elements | text, bounds | text
    if verb == "bracket":
        return st.tuples(elements, elements).map(list)
    if verb == "jacobi":
        window = st.builds("{}:{}".format, st.integers(0, 500), st.integers(0, 12))
        return st.builds(
            lambda w, n, seed: ["--window", w, "--samples", str(n), "--seed", str(seed)],
            window | text if noisy else window, st.integers(-1, 50), st.integers(0, 9),
        )
    if verb == "act":
        return st.builds(lambda p, x, q: [p, x, "--at", q], params, elements, indices)
    if verb == "classify":
        return st.builds(lambda p: [p], params)
    if verb == "iso":
        return st.tuples(params, params).map(list)
    if verb == "phi":
        return st.builds(
            lambda m, v, x: ["--m", str(m), "--variant", v, x],
            st.integers(-1, 501), st.sampled_from(["exact", "centerless"]), elements,
        )
    if verb == "closure":
        return st.builds(lambda p, b, s: [p, "--window", b, "--seed", s],
                         params, bounds, field(noisy, "0", "1,2", "0,-1,1", "1/2"))
    if verb == "scan":
        return st.builds(lambda p, b: [p, "--window", b], params, bounds)
    if verb == "restrict":
        return st.builds(lambda p, g, b: [p, "--subgroup", g, "--window", b],
                         params, groups, bounds)
    assert verb == "recover"
    # the table text is written to a file, whose path replaces the None
    entries = st.builds("{} {} {} {}".format, atoms, indices, indices, rationals)
    table = st.builds(
        lambda g, b, lines: "\n".join(["window %s %s" % (g, b)] + lines),
        groups, bounds, st.lists(entries | text if noisy else entries, max_size=8),
    )
    # and tables of real modules, with some lines left out
    module_table = st.builds(
        lambda a, b, f, bound, keep: "\n".join(
            line for i, line in enumerate(format_table(intermediate_series_table(
                ModuleParams(a, b, f, INTEGERS), Window(INTEGERS, bound))).splitlines())
            if i == 0 or keep.random() < 0.8
        ),
        st.sampled_from([0, 1, F(1, 2)]), st.sampled_from([0, 1, 2, F(1, 2)]),
        st.sampled_from([0, 1, -3]), st.integers(1, 4), st.randoms(use_true_random=False),
    )
    if noisy:
        table = table | text
    return st.tuples(st.just(["--table", None]), table | module_table)


VERBS = ["bracket", "jacobi", "act", "classify", "iso", "phi", "closure", "scan",
         "restrict", "recover"]


@st.composite
def invocations(draw):
    verb = draw(st.sampled_from(VERBS))
    noisy = draw(st.integers(0, 3)) == 0
    args = draw(verb_args(verb, noisy))
    args, table = args if verb == "recover" else (args, None)
    argv = [verb] + args
    if draw(st.booleans()):
        argv.insert(0, "--structured")
    if noisy and draw(st.booleans()):
        # a stray token reaches argparse itself
        argv.insert(draw(st.integers(0, len(argv))), draw(text))
    return argv, table


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_every_call_ends_with_a_status(tmp_path_factory, invocation):
    argv, table = invocation
    if table is not None:
        path = tmp_path_factory.getbasetemp() / "guard-table.txt"
        path.write_text(table, encoding="utf-8")
        argv = [str(path) if arg is None else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    began = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            # argparse rejects the command line with status 2
            assert exc.code == 2, argv
            status = 2
        else:
            assert status in (0, 1), argv
    elapsed = time.perf_counter() - began
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if status == 1:
        assert err.getvalue().startswith("error[") or "FAILED" in out.getvalue(), argv
    assert elapsed < BUDGET_S, (argv, elapsed)
