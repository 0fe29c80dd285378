"""hvir benchmark: one closed-loop client drives one workload.

    python3 bench/run.py --workload {rep,scan,tables,cli} --seed N \
        --seconds S --trace {0,1}

The client sends its next request only after the previous one has
returned.  Inputs come from the seed alone, and every answer is checked
after the request, outside the timed interval.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
same numbers as ``name value unit``.

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json
with tracing off.  The shared host this runs on changes speed by up to
a factor of two over seconds to minutes, so every time in them is
scaled to a nominal host speed.  After each request, outside the timed
interval, the benchmark times a fixed reference that does the same kind
of work without calling hvir: Fraction arithmetic on sparse vectors for
the in-process workloads, a bare interpreter start for ``cli`` and for
the set-up probes.  Each time is divided by the host's slowdown, the
median over the references around it of reference time over nominal
reference time.  The unscaled wall-clock figures print beside them as
``wall.*``.

``--trace 1`` spends half the time untraced and half traced, derives
the per-layer metrics from the spans, and writes the spans to
``bench/out/trace-<workload>.csv``.

The program under test is the ``hvir`` package in ``src/`` beside this
directory; the benchmark exits with status 1 when it is missing.
"""

import argparse
import json
import math
import os
import resource
import shutil
import sys
import traceback
from fractions import Fraction
from statistics import median
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT = os.path.join(BENCH_DIR, "out")

MIN_REQUESTS = 100  # the p90 needs at least 10 samples beyond it
SETUP_PROBES = 5
IMPORT_PROBES = 5

# The references do not call hvir, so no change to the program can move
# them.  Their nominal times are about their medians within a run on the
# baseline host.
REF_INDICES = tuple(Fraction(n, 6) for n in range(-10, 11))
FRACTION_REF_S = 0.005
INTERPRETER_REF_S = 0.064
REF_WINDOW = 4  # a time is scaled by the references of the 2 * 4 + 1 requests around it


def load_hvir():
    """Import hvir from ``src/`` beside the benchmark, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "hvir", "__init__.py")):
        raise SystemExit("bench: no hvir sources at %s" % SRC)
    sys.path.insert(0, SRC)
    import hvir

    if os.path.dirname(os.path.dirname(os.path.abspath(hvir.__file__))) != SRC:
        raise SystemExit("bench: imported hvir from %s, not %s" % (hvir.__file__, SRC))


def fraction_ref():
    """Host slowdown for in-process work: the time to add, scale and
    prune sparse vectors of Fractions keyed by Fraction indices, over
    FRACTION_REF_S."""
    start = perf_counter()
    acc = {}
    for k in range(16):
        c = Fraction(k % 7 - 3, 1 + k % 5)
        shift = Fraction(k % 3, 2)
        for q in REF_INDICES:
            key = q + shift
            acc[key] = acc.get(key, 0) + c * (q + 1)
        acc = {q: v for q, v in acc.items() if v}
    return (perf_counter() - start) / FRACTION_REF_S


def interpreter_ref():
    """Host slowdown for a fresh process: the time of ``python -c pass``
    over INTERPRETER_REF_S."""
    from workloads import run_child

    start = perf_counter()
    run_child([sys.executable, "-c", "pass"])
    return (perf_counter() - start) / INTERPRETER_REF_S


def run_phase(workload, tracer, seconds, min_requests, reference):
    """Closed loop with one client over whole blocks, until ``seconds``
    have passed and at least ``min_requests`` requests have completed.

    A request fails when it raises or its answer does not verify; the
    first exception seen is printed to stderr at the end.  After each
    request the host slowdown is measured with ``reference``, and the
    latencies are scaled by the slowdowns around them.
    Returns (wall latencies, scaled latencies, slowdowns, requests, failed).
    """
    wall = []
    slowdowns = []
    executed = []
    failed = 0
    first_error = None
    start = perf_counter()
    b = 0
    while perf_counter() - start < seconds or len(executed) < min_requests:
        for req in workload.blocks[b % len(workload.blocks)]:
            t0 = perf_counter()
            try:
                result = tracer.request(len(executed), workload.execute, tracer, req)
            except Exception as exc:
                result = exc
            wall.append(perf_counter() - t0)
            executed.append(req)
            try:
                ok = not isinstance(result, Exception) and workload.verify(req, result)
            except Exception as exc:
                result, ok = exc, False
            if not ok:
                failed += 1
                if first_error is None and isinstance(result, Exception):
                    first_error = result
            slowdowns.append(reference())
        b += 1
    if first_error is not None:
        traceback.print_exception(first_error)
    return wall, scale_to_nominal(wall, slowdowns), slowdowns, executed, failed


def scale_to_nominal(times, slowdowns):
    """Divide each time by the median slowdown measured around it."""
    return [
        t / median(slowdowns[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
        for i, t in enumerate(times)
    ]


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p * len(sorted_values)))
    return sorted_values[rank - 1]


def probe_s(argv, env=None, reps=1):
    """Wall times of ``reps`` fresh subprocesses in seconds, and the host
    slowdown for a fresh process measured after each."""
    from workloads import run_child

    times = []
    slowdowns = []
    for _ in range(reps):
        t0 = perf_counter()
        proc = run_child(argv, env)
        times.append(perf_counter() - t0)
        if proc.returncode:
            raise SystemExit("bench: %s exited with status %d" % (argv, proc.returncode))
        slowdowns.append(interpreter_ref())
    return times, slowdowns


def growth_exponent(tracer, executed, verdict):
    """Least-squares slope of log latency against log B for scans of the
    given verdict."""
    points = [
        (math.log(executed[rid].bound), math.log(dur))
        for dur, rid in tracer.durations("analysis.scan_details")
        if executed[rid].kind == verdict
    ]
    if len({x for x, _ in points}) < 2:
        return 0.0
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    sxy = sum((x - mx) * (y - my) for x, y in points)
    return sxy / sxx


def layer_mix(name, metrics):
    """The split each in-process workload is built for, or None where
    no split is claimed."""
    from tracing import LAYERS

    shares = {layer: metrics[layer + ".share"][0] for layer in LAYERS}
    top = max(shares, key=shares.get)
    if name == "rep":
        return top == "intermediate" and metrics["analysis.calls"][0] == 0
    if name == "scan":
        return top == "analysis"
    return None


def latency_metrics(latencies, prefix=""):
    """Throughput and latency percentiles of one closed-loop phase."""
    ordered = sorted(latencies)
    return {
        prefix + "req_per_s": (len(ordered) / sum(ordered), "1/s"),
        prefix + "latency_p50_ms": (median(ordered) * 1e3, "ms"),
        prefix + "latency_p90_ms": (percentile(ordered, 0.9) * 1e3, "ms"),
    }


def run(name, seed, seconds, trace, min_requests=MIN_REQUESTS):
    """Run one workload; returns (result, printed lines)."""
    from hvir.intermediate import VERDICT_CODIM_ONE
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    metrics = {}
    try:
        workload = WORKLOADS[name](seed, workdir)
        reference = interpreter_ref if name == "cli" else fraction_ref
        if trace:
            plain, plain_scaled, slowdowns, _, plain_failed = run_phase(
                workload, NullTracer(), seconds / 2, 1, reference)
            tracer = Tracer()
            _, traced_scaled, traced_slowdowns, executed, traced_failed = run_phase(
                workload, tracer, seconds / 2, 1, reference)
            slowdowns += traced_slowdowns
            attempted = len(plain) + len(executed)
            failed = plain_failed + traced_failed
            metrics.update(tracer.layer_metrics())
            metrics["analysis.scan_details.growth_exp"] = (
                growth_exponent(tracer, executed, VERDICT_CODIM_ONE), "1")
            metrics["trace.overhead_frac"] = (
                1 - (len(traced_scaled) / sum(traced_scaled))
                / (len(plain_scaled) / sum(plain_scaled)), "ratio")
            import_ms = 0.0
            if name == "cli":
                times, _ = probe_s([sys.executable, "-c", "import hvir.cli"],
                                   env=workload.env, reps=IMPORT_PROBES)
                import_ms = median(times) * 1e3
            metrics["cli.import_ms"] = (import_ms, "ms")
            metrics.update(latency_metrics(plain, "wall."))
            os.makedirs(OUT, exist_ok=True)
            tracer.write(os.path.join(OUT, "trace-%s.csv" % name))
        else:
            wall, scaled, slowdowns, _, failed = run_phase(
                workload, NullTracer(), seconds, min_requests, reference)
            attempted = len(wall)
            # cli: the largest child; a bare interpreter start (the reference)
            # is smaller than any hvir call
            usage = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
            peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
            metrics.update(latency_metrics(scaled))
            # after the run, so no probe counts towards the children's peak
            setup_wall, setup_slowdowns = probe_s(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--setup-only"],
                reps=SETUP_PROBES,
            )
            metrics["setup_s"] = (median(scale_to_nominal(setup_wall, setup_slowdowns)), "s")
            metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    extra = {"failed_frac": (failed / attempted, "ratio"),
             "host.slowdown": (median(slowdowns), "ratio")}
    if trace:
        metrics.update(extra)
    else:
        extra.update(latency_metrics(wall, "wall."))
        extra["wall.setup_s"] = (median(setup_wall), "s")
    lines = ["workload %s seed %d: %d requests, %d failed" % (name, seed, attempted, failed)]
    lines += ["%s %r %s" % (k, v, u) for k, (v, u) in {**metrics, **extra}.items()]
    if trace and name in ("rep", "scan"):
        lines.append("layer mix %s" % ("as designed" if layer_mix(name, metrics) else
                                       "NOT as designed"))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def setup_only(name, seed):
    """What a request waits for in a fresh process: importing hvir and
    building the seeded inputs (cli: also writing the table files)."""
    from workloads import WORKLOADS

    workdir = os.path.join(OUT, "setup-%d" % os.getpid())
    try:
        WORKLOADS[name](seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("rep", "scan", "tables", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_hvir()
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
