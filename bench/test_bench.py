"""Tests of the benchmark itself: run with ``python -m pytest bench -q``.

They check that wrong answers count as failed, that times are scaled by
the host slowdown measured around them, that every metric named in
BENCHMARK.json prints with its unit, that the traced layer split is the
one each in-process workload is built for, and that the benchmark
refuses to run without the hvir sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

run.load_hvir()

import hvir.intermediate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def one_block(workload):
    """Run exactly one block untraced; returns (requests, failed)."""
    _, _, _, executed, failed = run.run_phase(
        workload, tracing.NullTracer(), 0, 1, run.fraction_ref)
    return len(executed), failed


def test_rep_answers_pass_on_the_library(tmp_path):
    attempted, failed = one_block(workloads.Rep(3, str(tmp_path)))
    assert attempted > 0 and failed == 0


def test_rep_wrong_action_coefficient_counts_as_failed(tmp_path, monkeypatch):
    real_act = hvir.intermediate.act

    def perturbed_act(params, x, v):
        result = real_act(params, x, v)
        # one coefficient of one image is off by one
        if str(x) == "d(0)" and result.coefficient(0):
            entries = result.entries
            entries[0] += 1
            return hvir.intermediate.WeightVector(params, entries)
        return result

    monkeypatch.setattr(hvir.intermediate, "act", perturbed_act)
    attempted, failed = one_block(workloads.Rep(3, str(tmp_path)))
    assert failed / attempted > 0


def test_cli_exit_status_and_error_code_are_checked(tmp_path):
    cli = workloads.Cli(5, str(tmp_path / "cli"))
    malformed = [req for block in cli.blocks for req in block if req.kind == "malformed"]
    req = malformed[0]
    proc = cli.execute(tracing.NullTracer(), req)
    assert cli.verify(req, proc)
    argv, structured, (status, code), key = req.args
    wrong_code = req._replace(args=(argv, structured, (status, "no-such-code"), key))
    wrong_status = req._replace(args=(argv, structured, (3 - status, code), key))
    assert not cli.verify(wrong_code, proc)
    assert not cli.verify(wrong_status, proc)


def test_cli_wrong_answer_counts_as_failed(tmp_path):
    cli = workloads.Cli(5, str(tmp_path / "cli"))
    req = next(r for block in cli.blocks for r in block if r.kind == "classify")
    proc = cli.execute(tracing.NullTracer(), req)
    assert cli.verify(req, proc)
    proc.stdout = proc.stdout.replace("Irreducible", "ReducibleCodimOne") \
        if "Irreducible" in proc.stdout else proc.stdout.replace("Reducible", "Irreducible")
    assert not cli.verify(req, proc)


def test_self_time_excludes_child_spans():
    tr = tracing.Tracer()

    def outer():
        return tr.call("algebra.bracket", sum, range(10))

    tr.request(0, tr.call, "analysis.closure", outer)
    metrics = tr.layer_metrics()
    assert metrics["analysis.calls"][0] == 1 and metrics["algebra.calls"][0] == 1
    (outer_time, _), = tr.durations("analysis.closure")
    total = metrics["analysis.busy_s"][0] + metrics["algebra.busy_s"][0]
    assert total == pytest.approx(outer_time)


def test_times_are_divided_by_the_slowdown_around_them():
    # the host runs at half speed for the last three requests
    slowdowns = [1.0] * 7 + [2.0] * 3
    scaled = run.scale_to_nominal([0.2] * 10, slowdowns)
    assert scaled[0] == 0.2  # neighbours 0..4 are all at full speed
    assert scaled[-1] == 0.1  # neighbours 5..9 are mostly at half speed


@pytest.mark.parametrize("name", ["rep", "scan", "tables", "cli"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(name, trace):
    result, lines = run.run(name, 7, 0.0, trace, min_requests=1)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == wanted
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {line.split()[0]: line.split()[-1] for line in lines[1:] if len(line.split()) == 3}
    for metric, unit in wanted.items():
        assert printed[metric] == unit
    assert printed["failed_frac"] == "ratio"
    if trace and name in ("rep", "scan"):
        assert "layer mix as designed" in lines


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
