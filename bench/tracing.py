"""In-memory spans around the benchmark's calls into each hvir layer.

A span is (name, start, end, parent, request).  The name is
``<layer>.<function>``; the layer is one of :data:`LAYERS`.  Spans are
kept in flat arrays while the run lasts and written out once, after the
timed part of the run.
"""

from array import array
from collections import defaultdict
from statistics import median
from time import perf_counter

LAYERS = ("groups", "algebra", "intermediate", "analysis", "parsing", "cli")

# Every public function the benchmark calls under a span, by layer.  The
# cli layer records one span per subprocess, named after the verb.
FUNCTIONS = (
    "groups.subgroup_sum",
    "groups.subgroup_intersect",
    "groups.is_subgroup",
    "algebra.bracket",
    "algebra.apply_phi",
    "intermediate.act",
    "intermediate.vector_ops",
    "intermediate.basis_vector",
    "intermediate.pullback_params",
    "analysis.scan_details",
    "analysis.closure",
    "analysis.transported_table",
    "analysis.intermediate_series_table",
    "analysis.recover_params",
    "analysis.intertwiner_check",
    "analysis.restriction_report",
    "parsing.format_table",
    "parsing.parse_table",
)

CLI_VERBS = (
    "bracket", "jacobi", "act", "classify", "iso",
    "phi", "closure", "scan", "restrict", "recover",
)

REQUEST = "request"
NO_PARENT = -1


class NullTracer:
    """Calls straight through; used for the untraced, measured runs."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def request(self, rid, fn, *args):
        return fn(*args)


class Tracer:
    """Records one span per call, in columns, with its parent span and
    the id of the request it belongs to."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_col = array("H")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("q")
        self.request_col = array("q")
        self._stack = []
        self._rid = NO_PARENT

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name, fn, *args, **kwargs):
        sid = len(self.start_col)
        self.name_col.append(self._name_id(name))
        self.parent_col.append(self._stack[-1] if self._stack else NO_PARENT)
        self.request_col.append(self._rid)
        self.end_col.append(0.0)
        self._stack.append(sid)
        self.start_col.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end_col[sid] = perf_counter()
            self._stack.pop()

    def request(self, rid, fn, *args):
        self._rid = rid
        try:
            return self.call(REQUEST, fn, *args)
        finally:
            self._rid = NO_PARENT

    def __len__(self):
        return len(self.start_col)

    def write(self, path):
        """Write every span as one CSV line; times are microseconds from
        the first span."""
        t0 = self.start_col[0] if len(self) else 0.0
        names = self.names
        with open(path, "w", encoding="ascii") as out:
            out.write("name,start_us,end_us,parent,request\n")
            for i in range(len(self)):
                out.write("%s,%.1f,%.1f,%d,%d\n" % (
                    names[self.name_col[i]],
                    (self.start_col[i] - t0) * 1e6,
                    (self.end_col[i] - t0) * 1e6,
                    self.parent_col[i],
                    self.request_col[i],
                ))

    def durations(self, name):
        """Durations in seconds of every span with this name, with the
        request id of each."""
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        return [
            (self.end_col[i] - self.start_col[i], self.request_col[i])
            for i in range(len(self))
            if self.name_col[i] == nid
        ]

    def layer_metrics(self):
        """Per-layer and per-function counts, self times and medians.

        A span's self time is its duration minus the durations of its
        child spans; children of one span never overlap because the
        benchmark runs one request at a time on one thread.
        """
        n = len(self)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent_col[i]
            if p != NO_PARENT:
                child[p] += self.end_col[i] - self.start_col[i]
        durations = defaultdict(list)
        self_time = defaultdict(float)
        request_time = 0.0
        for i in range(n):
            dur = self.end_col[i] - self.start_col[i]
            name = self.names[self.name_col[i]]
            if name == REQUEST:
                request_time += dur
            else:
                durations[name].append(dur)
                self_time[name] += dur - child[i]

        metrics = {}
        for layer in LAYERS:
            names = [name for name in durations if name.split(".", 1)[0] == layer]
            busy = sum(self_time[name] for name in names)
            metrics[layer + ".calls"] = (sum(len(durations[name]) for name in names), "count")
            metrics[layer + ".busy_s"] = (busy, "s")
            metrics[layer + ".share"] = (busy / request_time if request_time else 0.0, "ratio")
        for name in FUNCTIONS:
            durs = durations.get(name, [])
            metrics[name + ".calls"] = (len(durs), "count")
            metrics[name + ".busy_s"] = (self_time.get(name, 0.0), "s")
            metrics[name + ".p50_us"] = (median(durs) * 1e6 if durs else 0.0, "us")
        for verb in CLI_VERBS:
            durs = durations.get("cli." + verb, [])
            metrics["cli.%s.p50_ms" % verb] = (median(durs) * 1e3 if durs else 0.0, "ms")
        return metrics
