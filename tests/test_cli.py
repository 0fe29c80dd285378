"""CLI behavior: golden outputs, determinism, structured reports, errors."""

import json
import os
import random
import subprocess
import sys
import time
from itertools import combinations

import pytest
from fractions import Fraction

import hvir.cli
from hvir import (ModuleParams, Window, format_table, intermediate_series_table, qk,
                  transported_table)
from hvir.cli import _basis_keys, _sample_ranks, _unrank_triple, main

# the directory this run imported hvir from, for child processes to import
# the same copy: the checkout's src/ or an installed package
HVIR_PATH = os.path.dirname(os.path.dirname(hvir.cli.__file__))


# run in a fresh interpreter: import the CLI, run main on the arguments if
# there are any, and print whether hvir.analysis got loaded
STARTUP_PROBE = """
import sys
import hvir.cli
assert set(hvir.__all__) <= set(dir(hvir))
if sys.argv[1:]:
    assert hvir.cli.main(sys.argv[1:]) == 0
print("hvir.analysis" in sys.modules)
"""


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestGoldenOutputs:
    # the README's classify, bracket and phi goldens are pinned byte for
    # byte by test_readme.py and test_c11_cli_golden
    @pytest.mark.parametrize("argv,expected", [
        # the integer bracket over mixed index denominators, with the CD cube term
        (["bracket", "d(1/2)+I(-1/2)", "d(-1/2)"], "-d(0) + 1/2*I(-1) - 1/32*CD\n"),
        # closure reads the scan's reachability: beta = 1 drops the line at 0,
        # beta = 0 keeps it alone
        (["closure", "0,1,0@qk:0", "--window", "2", "--seed", "1"],
         "dimension: 4\nwindow size: 5\nindices: -2, -1, 1, 2\n"),
        (["closure", "0,0,0@qk:0", "--window", "2", "--seed", "0"],
         "dimension: 1\nwindow size: 5\nindices: 0\n"),
        # a sweep and a sample both walk the triples through one unranking
        (["jacobi", "--window", "0:2"], "jacobi: OK (286 triples checked)\n"),
        (["jacobi", "--window", "1:2", "--samples", "7", "--seed", "3"],
         "jacobi: OK (7 triples checked)\n"),
        (["restrict", "0,1,0@cyclic:1/2", "--subgroup", "cyclic:1", "--window", "4"],
         "0 -> 0,1,0@cyclic:1\n1/2 -> 1/2,1,0@cyclic:1\n"),
    ], ids=["bracket-mixed-denominators", "closure-codim-one", "closure-trivial",
            "jacobi-sweep", "jacobi-sample", "restrict"])
    def test_golden(self, capsys, argv, expected):
        assert run_cli(capsys, *argv) == (0, expected, "")

    @pytest.mark.parametrize("params,verdict,note,dims,pivots", [
        ("0,0,0@qk:0", "ReducibleTrivialSub",
         "closure of the seed at index 0 stays one-dimensional inside a window of size 5",
         "-2:5, -1:5, 0:1, 1:5, 2:5", ["0"]),
        ("0,1,0@qk:0", "ReducibleCodimOne",
         "closure of the seed at index -2 spans all but one basis line of a window of size 5",
         "-2:4, -1:4, 0:5, 1:4, 2:4", ["-2", "-1", "1", "2"]),
        ("1/3,1/2,0@qk:0", "Irreducible",
         "every singleton seed generates the full window span",
         "-2:5, -1:5, 0:5, 1:5, 2:5", None),
    ])
    def test_scan(self, capsys, params, verdict, note, dims, pivots):
        status, out, err = run_cli(capsys, "scan", params, "--window", "2")
        assert status == 0 and err == ""
        assert out == "verdict: %s\nnote: %s\ndimensions: %s\n" % (verdict, note, dims)
        status, out, _ = run_cli(capsys, "--structured", "scan", params, "--window", "2")
        assert status == 0
        assert json.loads(out)["basisIndices"] == pivots


class TestDeterminism:
    CASES = [
        ("bracket", "d(2) + 3*I(-1/2)", "d(-2) - CI"),
        ("classify", "1/3,2,0@cyclic:1/3"),
        ("scan", "0,1,0@cyclic:1", "--window", "3"),
        ("closure", "0,0,5@cyclic:1", "--window", "3", "--seed", "0"),
        ("restrict", "1/5,1,2@cyclic:1/2", "--subgroup", "cyclic:1", "--window", "4"),
        ("iso", "1/3,2,3@cyclic:1", "4/3,2,3@cyclic:1"),
    ]

    @pytest.mark.parametrize("argv", CASES, ids=[c[0] for c in CASES])
    def test_repeat_runs_identical(self, capsys, argv):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second
        assert first[0] == 0

    @pytest.mark.parametrize("argv", CASES, ids=[c[0] for c in CASES])
    def test_structured_repeat_runs_identical(self, capsys, argv):
        first = run_cli(capsys, "--structured", *argv)
        second = run_cli(capsys, "--structured", *argv)
        assert first == second
        assert first[0] == 0


class TestStructuredReports:
    def test_base_keys_in_fixed_order(self, capsys):
        status, out, _ = run_cli(
            capsys, "--structured", "closure", "0,0,5@cyclic:1",
            "--window", "3", "--seed", "0",
        )
        assert status == 0
        report = json.loads(out)
        assert list(report)[:6] == [
            "params", "window", "verdict", "dimensions", "basisIndices", "cosets",
        ]
        assert report["dimensions"] == {"span": 7, "window": 7}
        assert report["basisIndices"] == ["-3", "-2", "-1", "0", "1", "2", "3"]

    def test_scan_report(self, capsys):
        status, out, _ = run_cli(
            capsys, "--structured", "scan", "0,0,0@cyclic:1", "--window", "2"
        )
        assert status == 0
        report = json.loads(out)
        assert report["verdict"] == "ReducibleTrivialSub"
        assert report["dimensions"]["0"] == 1
        assert report["basisIndices"] == ["0"]

    def test_restrict_report(self, capsys):
        status, out, _ = run_cli(
            capsys, "--structured", "restrict", "0,1,0@cyclic:1/2",
            "--subgroup", "cyclic:1", "--window", "4",
        )
        assert status == 0
        report = json.loads(out)
        assert report["cosets"] == [
            {"rep": "0", "params": "0,1,0@cyclic:1"},
            {"rep": "1/2", "params": "1/2,1,0@cyclic:1"},
        ]


UNIT_SCALES = "scales: -3=1, -2=1, -1=1, 0=1, 1=1, 2=1, 3=1\n"
RISING_SCALES = "scales: -3=1, -2=3/4, -1=1/2, 0=1/4, 1=1/2, 2=3/4, 3=1\n"


def scaled_table(alpha, beta, f, scale):
    """The table of V(alpha, beta, f) over Z on the bound-3 window, with the
    basis vector at q rescaled by ``scale(q)``."""
    window = Window(qk(0), 3)
    return intermediate_series_table(ModuleParams(alpha, beta, f, qk(0)), window,
                                     {q: scale(q) for q in window.indices()})


class TestVerbs:
    def test_act(self, capsys):
        status, out, _ = run_cli(
            capsys, "act", "1/5,2,3@qk:3", "d(1/3)", "--at", "1/6"
        )
        assert status == 0
        assert out == "31/30*v(1/2)\n"

    def test_jacobi_full_sweep_small(self, capsys):
        # 9 basis symbols on the window give C(9,3) = 84 triples, and a
        # sample of more than that checks each of them once
        for window, extra in (("1:1", ()), ("0:1", ("--samples", "1000"))):
            status, out, _ = run_cli(capsys, "jacobi", "--window", window, *extra)
            assert status == 0
            assert out == "jacobi: OK (84 triples checked)\n"

    def test_jacobi_sampled(self, capsys):
        status, out, _ = run_cli(
            capsys, "jacobi", "--window", "3:4", "--samples", "50", "--seed", "7"
        )
        assert status == 0
        assert out == "jacobi: OK (50 triples checked)\n"

    def test_iso_false(self, capsys):
        status, out, _ = run_cli(capsys, "iso", "0,2,3@cyclic:1", "0,2,4@cyclic:1")
        assert status == 0
        assert out == "isomorphic: false\n"

    def test_iso_true_with_witness(self, capsys):
        status, out, _ = run_cli(capsys, "iso", "1/3,2,3@cyclic:1", "4/3,2,3@cyclic:1")
        assert status == 0
        assert out == "isomorphic: true\nwitness: 1\n"

    def test_iso_slope_swap_off_the_group(self, capsys):
        # the shift composed with the rescaling is the whole isomorphism
        status, out, _ = run_cli(capsys, "iso", "1/7,0,0@qk:0", "1/7,1,0@qk:0")
        assert status == 0
        assert out == "isomorphic: true\nwitness: 0\nrescaling: v(q) -> (1/7 + q) u(q)\n"

    def test_iso_slope_swap_on_the_group(self, capsys):
        # alpha lies in the group, so only the subquotients are isomorphic:
        # no rescaling is printed, since v(q) -> (0 + q) u(q) kills v(0)
        assert run_cli(capsys, "iso", "0,0,0@qk:0", "0,1,0@qk:0") == (
            0, "isomorphic: true\nwitness: 0\n", "")

    def test_iso_slope_swap_back_with_a_shift(self, capsys):
        status, out, _ = run_cli(capsys, "--structured", "iso", "-1/7,1,0@qk:0", "13/7,0,0@qk:0")
        assert status == 0
        report = json.loads(out)
        assert list(report)[-3:] == ["isomorphic", "witness", "rescaling"]
        assert (report["witness"], report["rescaling"]) == ("2", "v(q) -> u(q)/(-1/7 + q)")

    @pytest.mark.parametrize("argv,expected", [
        (["classify", "--", "-1/3,1,0@Q"], "verdict: ReducibleCodimOne\n"),
        (["act", "0,1,1@qk:0", "--at", "0", "--", "-2*d(1)"], "-2*v(1)\n"),
        (["closure", "0,0,1@qk:0", "--window", "3", "--seed=-1,0"], "dimension: 7\n"),
    ])
    def test_values_that_begin_with_a_minus(self, capsys, argv, expected):
        # values after '--' and in the --name=value form
        status, out, err = run_cli(capsys, *argv)
        assert status == 0 and err == ""
        assert out.startswith(expected)

    @pytest.mark.parametrize("argv,expected", [
        (["classify", "-1/3,1,0@Q"],
         "verdict: ReducibleCodimOne\nsubquotient: the span of the nonzero indices "
         "is an irreducible submodule of codimension 1\n"),
        (["act", "0,1,1@qk:0", "-2*d(1)", "--at", "0"], "-2*v(1)\n"),
        (["closure", "0,0,1@qk:0", "--window", "3", "--seed", "-1,0"],
         "dimension: 7\nwindow size: 7\nindices: -3, -2, -1, 0, 1, 2, 3\n"),
        (["bracket", "-d(1)", "-I(-1)"], "-I(0) + 2*CDI\n"),
        (["iso", "-1/3,2,3@cyclic:1", "-4/3,2,3@cyclic:1"], "isomorphic: true\nwitness: -1\n"),
        (["phi", "--m", "2", "--variant", "exact", "-d(0)"], "-2*d(0) - 1/16*CD\n"),
    ])
    def test_positional_values_that_begin_with_a_minus(self, capsys, argv, expected):
        # a word that begins with one '-' and names no option of its verb
        # is a value, wherever it stands
        status, out, err = run_cli(capsys, *argv)
        assert (status, out, err) == (0, expected, "")

    @pytest.mark.parametrize("argv", [
        ["classify"],
        ["classify", "0,1,0@Q", "--bogus"],
        ["closure", "0,0,1@qk:0", "--window", "3", "--seed"],
        ["act", "0,1,1@qk:0", "-2*d(1)"],
        ["bracket", "d(1)", "d(2)", "-d(3)"],
    ])
    def test_usage_errors_still_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_cli_import_loads_no_module_of_its_own(self):
        # every module hvir.cli imports is loaded by argparse, hvir or
        # the standard modules it names, so it adds only itself
        probe = ("import sys, argparse, bisect, itertools, math, os, random, hvir; "
                 "before = set(sys.modules); import hvir.cli; "
                 "print(' '.join(sorted(set(sys.modules) - before)))")
        env = dict(os.environ, PYTHONPATH=HVIR_PATH)
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.split() == ["hvir.cli"]

    @pytest.mark.parametrize("argv,loaded", [
        ([], False),
        (["bracket", "d(1)", "d(2)"], False),
        (["act", "0,1,0@qk:0", "d(1)", "--at", "0"], False),
        (["classify", "0,1,0@Q"], False),
        (["iso", "0,0,0@qk:0", "0,1,0@qk:0"], False),
        (["phi", "--m", "2", "--variant", "exact", "d(1)"], False),
        (["jacobi", "--window", "0:1"], False),
        (["jacobi", "--window", "1:2", "--samples", "7", "--seed", "3"], False),
        (["closure", "0,1,0@qk:0", "--window", "2", "--seed", "1"], True),
        (["scan", "0,1,0@qk:0", "--window", "2"], True),
        (["restrict", "0,1,0@cyclic:1/2", "--subgroup", "cyclic:1", "--window", "4"], True),
    ], ids=["import", "bracket", "act", "classify", "iso", "phi", "jacobi-sweep", "jacobi-sample",
            "closure", "scan", "restrict"])
    def test_only_window_verbs_load_analysis(self, argv, loaded):
        # a process without cached bytecode compiles every module it loads,
        # so the verbs that run no engine function, jacobi's window
        # included, leave the engine unloaded; the package lists the
        # engine's names before it loads
        env = dict(os.environ, PYTHONPATH=HVIR_PATH)
        out = subprocess.run([sys.executable, "-c", STARTUP_PROBE, *argv], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.splitlines()[-1] == str(loaded)

    @pytest.mark.parametrize("table,expected", [
        (lambda: scaled_table(Fraction(1, 5), 2, 3, lambda q: Fraction(3, 4)),
         "params: 1/5,2,3@cyclic:1\n" + UNIT_SCALES),
        # negative, non-constant scales: the signs of the integer pairs in the scale chain
        (lambda: scaled_table(Fraction(1, 5), Fraction(-2, 3), 3, lambda q: -1 - abs(q)),
         "params: 1/5,-2/3,3@cyclic:1\n" + RISING_SCALES),
        # an f = 0 table reaches beta through the loop product of two d steps
        (lambda: scaled_table(Fraction(1, 5), 2, 0, lambda q: 1 + abs(q)),
         "params: 1/5,2,0@cyclic:1\n" + RISING_SCALES),
        # a table transported from qk(2) recovers the pulled-back parameters
        (lambda: transported_table(ModuleParams(Fraction(1, 14), Fraction(1, 3), 2, qk(2)), 2, 3),
         "params: 1/7,1/3,4@cyclic:1\n" + UNIT_SCALES),
    ], ids=["constant-scale", "negative-scales", "loop-product", "transported"])
    def test_recover_from_file(self, capsys, tmp_path, table, expected):
        # a table written by the library is read back by recover
        path = tmp_path / "table.txt"
        path.write_text(format_table(table()), encoding="utf-8")
        assert run_cli(capsys, "recover", "--table", str(path)) == (0, expected, "")


class TestErrors:
    def test_parse_error_code(self, capsys):
        status, out, err = run_cli(capsys, "bracket", "d(1/2", "d(0)")
        assert status == 1 and out == ""
        assert err.startswith("error[syntax]:")
        assert "offset 6" in err

    def test_domain_error_code(self, capsys):
        status, _, err = run_cli(
            capsys, "phi", "--m", "2", "--variant", "centerless", "CD"
        )
        assert status == 1
        assert err.startswith("error[central-term]:")

    def test_group_mismatch_code(self, capsys):
        status, _, err = run_cli(capsys, "iso", "0,1,0@Q", "0,1,0@cyclic:1")
        assert status == 1
        assert err.startswith("error[group-mismatch]:")

    def test_subalgebra_error_code(self, capsys):
        status, _, err = run_cli(
            capsys, "act", "0,1,0@cyclic:1", "d(1/2)", "--at", "0"
        )
        assert status == 1
        assert err.startswith("error[subalgebra-violation]:")

    @pytest.mark.parametrize("text,expected", [
        # two I(0) eigenvalues make a table no intermediate-series module has
        ("window qk:0 1\nd(0) 0 0 1\nI(0) 0 0 2\nI(0) 1 1 3\n",
         "error[not-intermediate-series]: I(0) eigenvalues disagree\n"),
        # a generator off the step's multiples fails the grading
        ("window qk:0 2\nd(1/2) 0 1 1\n", "error[not-intermediate-series]: "
         "entry d(1/2) at 0 lands at 1; the grading requires 1/2\n"),
        # a central generator is refused once the table has parsed
        ("window qk:0 2\nCD 0 0 1\n",
         "error[syntax]: table generators must be d(...) or I(...) symbols\n"),
    ], ids=["two-f", "off-step", "central"])
    def test_recover_refuses(self, capsys, tmp_path, text, expected):
        path = tmp_path / "table.txt"
        path.write_text(text, encoding="utf-8")
        assert run_cli(capsys, "recover", "--table", str(path)) == (1, "", expected)

    def test_missing_table_file(self, capsys):
        status, _, err = run_cli(capsys, "recover", "--table", "/nonexistent/t.txt")
        assert status == 1
        assert err.startswith("error[invalid-input]:")

    @pytest.mark.parametrize("argv", [
        ["--structured", "scan", "0,0,0@qk:0", "--window", "300"],
        ["classify", "0,1,0@Q"],
    ], ids=["long", "short"])
    def test_closed_stdout_is_no_input_error(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the child writes a byte
        path = os.pathsep.join(filter(None, [HVIR_PATH, os.environ.get("PYTHONPATH")]))
        try:
            child = subprocess.run(
                [sys.executable, "-m", "hvir.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, timeout=60,
                env=dict(os.environ, PYTHONPATH=path),
            )
        finally:
            os.close(write_end)
        assert child.returncode == 1
        assert child.stderr == b""

    def test_window_on_non_cyclic_group(self, capsys):
        status, _, err = run_cli(capsys, "scan", "0,1,0@Q", "--window", "3")
        assert status == 1
        assert err.startswith("error[invalid-input]:")


class TestCaps:
    @pytest.mark.parametrize("argv,message", [
        (["classify", "1/7,1,0@qk:20000"], "qk index 20000 exceeds the cap of 500"),
        (["scan", "--window", "100000000", "0,1,0@qk:0"],
         "window bound 100000000 exceeds the cap of 2048"),
        (["closure", "0,1,0@qk:0", "--window", "2049", "--seed", "0"],
         "window bound 2049 exceeds the cap of 2048"),
        (["restrict", "0,1,0@qk:0", "--subgroup", "qk:0", "--window", "5000"],
         "window bound 5000 exceeds the cap of 2048"),
        (["jacobi", "--window", "0:100000000"],
         "window bound 100000000 exceeds the cap of 2048"),
        (["jacobi", "--window", "501:2"], "qk index 501 exceeds the cap of 500"),
        (["phi", "--m", "100000", "--variant", "exact", "d(0)"],
         "rescaling order 100000 exceeds the cap of 500"),
    ])
    def test_oversize_input_names_the_cap(self, capsys, argv, message):
        began = time.perf_counter()
        status, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - began < 2.0
        assert status == 1 and out == ""
        assert err == "error[invalid-input]: %s\n" % message

    @pytest.mark.parametrize("argv,message", [
        (["jacobi", "--window", "0:16"], "jacobi check of 52394 triples exceeds the cap of 25000"),
        (["jacobi", "--window", "0:2048", "--samples", "100000000"],
         "jacobi check of 100000000 triples exceeds the cap of 25000"),
        (["jacobi", "--window", "0:2", "--samples", "-1"],
         "--samples must be non-negative, got -1"),
    ])
    def test_jacobi_triple_cap(self, capsys, argv, message):
        began = time.perf_counter()
        status, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - began < 1.0
        assert status == 1 and out == ""
        assert err == "error[invalid-input]: %s\n" % message

    def test_table_header_bound(self, capsys, tmp_path):
        table = tmp_path / "big.txt"
        table.write_text("window qk:0 100000000\nd(0) 0 0 1\n")
        status, _, err = run_cli(capsys, "recover", "--table", str(table))
        assert status == 1
        assert err == "error[invalid-input]: window bound 100000000 exceeds the cap of 2048\n"

    def test_supernatural_prime_cap(self, capsys):
        began = time.perf_counter()
        status, out, err = run_cli(capsys, "classify", "0,0,1@sn:3317044064679887385962123^inf")
        assert time.perf_counter() - began < 2.0
        assert status == 1 and out == ""
        assert err == (
            "error[syntax]: bad supernatural spec 'sn:3317044064679887385962123^inf': "
            "3317044064679887385962123 is at or above psi_13 = 3317044064679887385961981, "
            "the cap for supernatural primes\n"
        )

    @pytest.mark.parametrize("argv,digits,offset", [
        (["classify", "1" + "0" * 5000 + ",1,0@Q"], 5001, 1),
        (["classify", "0,1/" + "7" * 4301 + ",0@Q"], 4301, 3),
        (["bracket", "1" * 5000 + "*d(1)", "d(2)"], 5000, 1),
        (["act", "0,1,0@Q", "d(1)", "--at", "-" + "9" * 4301], 4301, 2),
    ])
    def test_literal_digit_cap(self, capsys, argv, digits, offset):
        status, out, err = run_cli(capsys, *argv)
        assert status == 1 and out == ""
        assert err == (
            "error[syntax]: literal of %d digits exceeds the cap of 4300 digits "
            "at offset %d\n" % (digits, offset)
        )

    def test_window_needs_a_cyclic_group(self, capsys):
        status, out, err = run_cli(capsys, "scan", "0,1,0@Q", "--window", "4")
        assert status == 1 and out == ""
        assert err == "error[invalid-input]: windows require a cyclic index group, got Q\n"

    def test_values_at_the_caps_are_accepted(self, capsys):
        status, out, _ = run_cli(capsys, "phi", "--m", "500", "--variant", "exact", "d(0)")
        assert status == 0 and "*CD" in out
        status, out, _ = run_cli(capsys, "classify", "1/7,1,0@qk:500")
        assert status == 0 and out.startswith("verdict: ReducibleCodimOne")
        status, out, _ = run_cli(
            capsys, "jacobi", "--window", "500:2048", "--samples", "3", "--seed", "2")
        assert status == 0 and out == "jacobi: OK (3 triples checked)\n"
        status, out, _ = run_cli(capsys, "classify", "1" + "0" * 4299 + ",1,0@Q")
        assert status == 0 and out.startswith("verdict: ")


class TestJacobiSampling:
    def test_unrank_follows_combinations_order(self):
        for size in range(3, 12):
            expected = list(combinations(range(size), 3))
            assert [tuple(_unrank_triple(r, size)) for r in range(len(expected))] == expected

    @pytest.mark.parametrize("size,samples,seed", [(15, 40, 3), (27, 5, 1), (12, 500, 0)])
    def test_same_triples_as_sampling_the_full_pool(self, size, samples, seed):
        pool = list(combinations(range(size), 3))
        expected = random.Random(seed).sample(pool, min(samples, len(pool)))
        ranks = _sample_ranks(size, samples, seed)
        assert [tuple(_unrank_triple(r, size)) for r in ranks] == expected

    @staticmethod
    def visited_triples(monkeypatch, *argv):
        """The triples ``hvir jacobi`` checks, in the order it checks them."""
        visited = []
        jacobiator = hvir.cli.jacobiator

        def record(x, y, z):
            visited.append((x, y, z))
            return jacobiator(x, y, z)

        monkeypatch.setattr(hvir.cli, "jacobiator", record)
        assert main(["jacobi", *argv]) == 0
        return visited

    def test_sweep_visits_combinations_in_order(self, capsys, monkeypatch):
        keys = _basis_keys(Window(qk(1), 1))
        visited = self.visited_triples(monkeypatch, "--window", "1:1")
        assert len(visited) == 84
        assert visited == list(combinations(keys, 3))

    def test_samples_visit_the_unranked_sample(self, capsys, monkeypatch):
        keys = _basis_keys(Window(qk(3), 4))
        visited = self.visited_triples(
            monkeypatch, "--window", "3:4", "--samples", "50", "--seed", "7")
        expected = [tuple(keys[i] for i in _unrank_triple(rank, len(keys)))
                    for rank in _sample_ranks(len(keys), 50, 7)]
        assert len(visited) == 50
        assert visited == expected

    def test_huge_window_builds_no_pool(self, capsys):
        began = time.perf_counter()
        status, out, err = run_cli(
            capsys, "--structured", "jacobi", "--window", "0:2000", "--samples", "5", "--seed", "1"
        )
        assert time.perf_counter() - began < 5.0
        assert status == 0 and err == ""
        assert json.loads(out)["checked"] == 5


def lifted_int_digits(fn, *args):
    """``fn(*args)`` with Python's int-string limit lifted, to build the
    expected text of numbers longer than 4300 digits."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return fn(*args)
    finally:
        sys.set_int_max_str_digits(limit)


# each integer option: a call with its value at the "%s", the name its
# errors give the value, and whether the value may carry a sign
OPTION_USES = [
    (["scan", "0,1,0@qk:0", "--window", "%s"], "window bound", False),
    (["closure", "0,1,0@qk:0", "--window", "%s", "--seed", "0"], "window bound", False),
    (["restrict", "0,1,0@qk:0", "--subgroup", "qk:0", "--window", "%s"], "window bound", False),
    (["phi", "--m", "%s", "--variant", "exact", "d(0)"], "rescaling order", False),
    (["jacobi", "--window", "1:1", "--samples", "%s"], "sample count", True),
    (["jacobi", "--window", "1:1", "--samples", "3", "--seed", "%s"], "seed", True),
]
BAD_OPTION_VALUES = [
    ([arg.replace("%s", value) for arg in argv], message)
    for argv, what, signed in OPTION_USES
    for value, message in [
        ("\u0663", "expected a digit at offset 1"),
        ("1_0", "trailing input after %s at offset 2" % what),
    ] + ([] if signed else [("+3", "expected a digit at offset 1")])
]


class TestIntegerFields:
    """Every integer of the input, the CLI's integer options included, is
    read by one digit reader: ASCII 0-9 only, at most 4300 digits, with the
    offset in the error."""

    @pytest.mark.parametrize("argv,message", [
        (["classify", "1/7,1,0@qk:" + "1" * 5000],
         "literal of 5000 digits exceeds the cap of 4300 digits at offset 4"),
        (["classify", "0,0,1@sn:2^" + "1" * 5000],
         "literal of 5000 digits exceeds the cap of 4300 digits at offset 6"),
        (["classify", "0,0,1@sn:" + "3" * 4301 + "^inf"],
         "literal of 4301 digits exceeds the cap of 4300 digits at offset 4"),
        (["classify", "0,1\u00b2,0@Q"], "trailing input after rational at offset 2"),
        (["classify", "0,\u0661,0@Q"], "expected a digit at offset 1"),
        (["classify", "0,1,0@qk:\u0663"], "expected a digit at offset 4"),
        (["classify", "0,1,0@sn:2^\u0663"], "expected a digit or 'inf' at offset 6"),
        (["bracket", "\u0663*d(1)", "d(2)"], "expected a basis symbol at offset 1"),
        (["bracket", "d(\u0663)", "d(2)"], "expected a digit at offset 3"),
        (["jacobi", "--window", " 1:\u0663"], "expected a digit at offset 4"),
        (["jacobi", "--window", "1:" + "2" * 4301],
         "literal of 4301 digits exceeds the cap of 4300 digits at offset 3"),
        (["jacobi", "--window=-1:2"], "expected a digit at offset 1"),
        (["jacobi", "--window", "1:2:3"], "trailing input after window bound at offset 4"),
        (["scan", "0,1,0@qk:0", "--window", "1" * 4301],
         "literal of 4301 digits exceeds the cap of 4300 digits at offset 1"),
    ] + BAD_OPTION_VALUES + [
        # the bound is read before qk:501 meets its cap
        (["jacobi", "--window", "501:x"], "expected a digit at offset 5"),
    ])
    def test_bad_integers_are_syntax_errors(self, capsys, argv, message):
        began = time.perf_counter()
        status, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - began < 1.0
        assert status == 1 and out == ""
        assert err == "error[syntax]: %s\n" % message

    @pytest.mark.parametrize("bound,message", [
        ("\u0662", "expected a digit at offset 1"),
        ("2x", "trailing input after table window bound at offset 2"),
        ("9" * 5000, "literal of 5000 digits exceeds the cap of 4300 digits at offset 1"),
    ])
    def test_table_header_bound(self, capsys, tmp_path, bound, message):
        table = tmp_path / "table.txt"
        table.write_text("window qk:0 %s\nd(0) 0 0 1\n" % bound, encoding="utf-8")
        status, _, err = run_cli(capsys, "recover", "--table", str(table))
        assert status == 1
        assert err == "error[syntax]: %s\n" % message

    def test_integer_fields_still_parse(self, capsys):
        status, out, _ = run_cli(capsys, "jacobi", "--window", " 1:3 ")
        assert status == 0 and out == "jacobi: OK (680 triples checked)\n"
        status, out, _ = run_cli(capsys, "--structured", "classify", "0,1,0@sn:2^inf,3^2")
        assert status == 0 and json.loads(out)["params"] == "0,1,0@sn:2^inf,3^2"
        status, out, _ = run_cli(
            capsys, "jacobi", "--window", "1:1", "--samples", " +3", "--seed", "-5")
        assert status == 0 and out == "jacobi: OK (3 triples checked)\n"
        assert run_cli(capsys, "scan", "0,1,0@qk:0", "--window", " 2 ") == run_cli(
            capsys, "scan", "0,1,0@qk:0", "--window", "2")

    def test_collapsed_supernatural_cap(self, capsys):
        began = time.perf_counter()
        status, out, err = run_cli(capsys, "classify", "0,1,0@sn:2^10000000")
        assert time.perf_counter() - began < 1.0
        assert status == 1 and out == ""
        assert err == (
            "error[syntax]: bad supernatural spec 'sn:2^10000000': the denominator "
            "of an all-finite map exceeds the cap of 4300 digits\n"
        )


class TestLongOutputs:
    """Inputs are capped, so the CLI prints every value in full."""

    def test_product_of_two_long_literals(self, capsys):
        sevens = "7" * 3000
        began = time.perf_counter()
        status, out, err = run_cli(capsys, "bracket", sevens + "*d(1)", sevens + "*d(2)")
        assert time.perf_counter() - began < 1.0
        assert status == 0 and err == ""
        assert out == lifted_int_digits(str, int(sevens) ** 2) + "*d(3)\n"

    def test_largest_bracket_of_literals_at_the_cap(self, capsys):
        r = random.Random(4300)
        a, num, den = ("".join(r.choice("123456789") for _ in range(4300)) for _ in range(3))
        g = "%s/%s" % (num, den)
        status, out, err = run_cli(capsys, "bracket", "%s*d(%s)" % (a, g), "%s*d(-%s)" % (a, g))
        assert status == 0 and err == ""
        gf = Fraction(int(num), int(den))
        c = int(a) ** 2
        expected = lifted_int_digits(
            lambda: "%s*d(0) + %s*CD\n" % (-2 * gf * c, (gf ** 3 - gf) / 12 * c))
        assert out == expected and len(out) > 34000

    @pytest.mark.parametrize("argv", [
        ["bracket", "7" * 4300 + "*d(1)", "7" * 4300 + "*I(-1)"],
        ["--structured", "bracket", "7" * 4300 + "*d(1)", "7" * 4300 + "*d(2)"],
        ["phi", "--m", "500", "--variant", "exact", "9" * 4300 + "*d(0) + " + "9" * 4300 + "*CI"],
        ["act", "%s,%s,%s@Q" % ("7" * 4300, "8" * 4300, "9" * 4300), "9" * 4300 + "*d(1)",
         "--at", "1/" + "3" * 4300],
        ["--structured", "classify", "0,1,0@sn:2^14284"],
    ])
    def test_no_int_string_limit_message(self, capsys, argv):
        limit = sys.get_int_max_str_digits()
        status, out, err = run_cli(capsys, *argv)
        assert sys.get_int_max_str_digits() == limit
        assert "set_int_max_str_digits" not in err
        assert status == 0 and err == "" and len(out) > 4300
