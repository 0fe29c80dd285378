"""Seeded inputs, requests and answer checks for the four workloads.

Each workload builds its inputs from one seed as a list of blocks.  A
block holds a fixed mix of request kinds in a seeded order, and a run
always ends on a block boundary, so every run sees the same mix and only
the drawn values change with the seed.

``execute`` is the timed request: every call it makes into hvir goes
through ``tr.call`` under the name ``<layer>.<function>``.  ``verify``
checks the answer afterwards, outside the timed interval; the checks
use the public library and small oracles of the benchmark's own.

The hvir modules are looked up at call time (``intermediate.act``, not a
bound name), so a test can patch one of them and see the answer fail.
"""

import json
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction as F
from itertools import combinations
from math import comb, factorial, inf, prod
from operator import eq, sub
from typing import NamedTuple

import hvir
from hvir import algebra, analysis, groups, intermediate, parsing
from hvir.errors import HvirError, NotIntermediateSeriesError

from tracing import CLI_VERBS

# the index groups Z, 1/2 Z and 1/6 Z
GROUPS = (groups.qk(0), groups.cyclic(F(1, 2)), groups.cyclic(F(1, 6)))
Z = GROUPS[0]


CHILD_TIMEOUT = 120


def run_child(argv, env=None, capture=False):
    """Run a subprocess to its end; a watchdog kills it after
    CHILD_TIMEOUT seconds.  (``subprocess.run(timeout=...)`` polls for the
    exit in steps of up to 50 ms, which would quantize the timings.)"""
    pipe = subprocess.PIPE if capture else subprocess.DEVNULL
    with subprocess.Popen(argv, env=env, stdout=pipe, stderr=pipe if capture else None,
                          text=True) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            out, err = proc.communicate()
        finally:
            watchdog.cancel()
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


class Request(NamedTuple):
    kind: str
    bound: int
    args: tuple


def rand_fraction(r, num=6, den=4):
    return F(r.randint(-num, num), r.randint(1, den))


def rand_nonzero(r, num=6, den=4):
    while True:
        value = rand_fraction(r, num, den)
        if value:
            return value


def _is_prime(n):
    """Deterministic Miller-Rabin; exact for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def rand_prime(r, lo, hi):
    while True:
        n = r.randrange(lo, hi) | 1
        if _is_prime(n):
            return n


def _small_factors(n):
    out = {}
    p = 2
    while n > 1:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    return out


def reachable(params, window, support):
    """Basis lines reachable from ``support`` along nonzero window actions.

    Since d(0) separates the basis lines, the closure of any seed is the
    span of these lines; this is the oracle the closure answers are
    checked against.
    """
    indices = window.indices()
    alpha, beta, f = params.alpha, params.beta, params.f
    seen = set(support)
    stack = list(support)
    while stack:
        q = stack.pop()
        for t in indices:
            if t not in seen and (f or alpha + q + (t - q) * beta):
                seen.add(t)
                stack.append(t)
    return sorted(seen)


class Workload:
    """Base: a cycle over seeded blocks of requests."""

    blocks_per_setup = 16

    def __init__(self, seed, workdir):
        self.workdir = workdir
        r = random.Random("%s:%d" % (self.name, seed))
        self.blocks = [self.block(r, b) for b in range(self.blocks_per_setup)]


class Rep(Workload):
    """Representation identity act([x,y],v) == x.(y.v) - y.(x.v) on a window."""

    name = "rep"
    blocks_per_setup = 64

    def __init__(self, seed, workdir):
        self._basis = {}
        super().__init__(seed, workdir)

    def _window_basis(self, group, bound):
        key = (group, bound)
        if key not in self._basis:
            step = group.generator
            indices = [n * step for n in range(-bound, bound + 1)]
            keys = [algebra.d(q) for q in indices] + [algebra.I(q) for q in indices]
            keys += [algebra.CD, algebra.CDI, algebra.CI]
            elems = tuple(algebra.AlgebraElement.basis(k) for k in keys)
            self._basis[key] = (elems, tuple(indices))
        return self._basis[key]

    def block(self, r, b):
        # per bound, one request per group; f = 0 on one of the three, the
        # group taking turns from block to block
        reqs = []
        for bound in (2, 3, 4):
            for k, group in enumerate(GROUPS):
                f = F(0) if (b + bound) % len(GROUPS) == k else rand_nonzero(r)
                params = intermediate.ModuleParams(rand_fraction(r), rand_fraction(r), f, group)
                elems, indices = self._window_basis(group, bound)
                reqs.append(Request("rep", bound, (params, elems, indices)))
        r.shuffle(reqs)
        return reqs

    def execute(self, tr, req):
        params, elems, indices = req.args
        call = tr.call
        act = intermediate.act
        vectors = [
            call("intermediate.basis_vector", intermediate.basis_vector, params, q)
            for q in indices
        ]
        first = [[call("intermediate.act", act, params, e, v) for v in vectors] for e in elems]
        wrong = 0
        for i, j in combinations(range(len(elems)), 2):
            br = call("algebra.bracket", algebra.bracket, elems[i], elems[j])
            for n, v in enumerate(vectors):
                lhs = call("intermediate.act", act, params, br, v)
                rhs = call(
                    "intermediate.vector_ops", sub,
                    call("intermediate.act", act, params, elems[i], first[j][n]),
                    call("intermediate.act", act, params, elems[j], first[i][n]),
                )
                if not call("intermediate.vector_ops", eq, lhs, rhs):
                    wrong += 1
        return wrong

    def verify(self, req, wrong):
        return wrong == 0


def _codim_params(r, group):
    # alpha in the group normalizes to 0, so these are all the point (0,1,0)
    return intermediate.ModuleParams(r.randint(-3, 3) * group.generator, 1, 0, group)


def _trivial_params(r, group):
    return intermediate.ModuleParams(r.randint(-3, 3) * group.generator, 0, 0, group)


def _irreducible_params(r, group, zero_f=None):
    if zero_f is None:
        zero_f = r.random() < 0.5
    while True:
        f = F(0) if zero_f else rand_nonzero(r)
        p = intermediate.ModuleParams(rand_fraction(r), rand_fraction(r), f, group)
        if intermediate.classify(p).verdict == intermediate.VERDICT_IRREDUCIBLE:
            return p


SCAN_BOUNDS = (6, 8, 10)

# codimension-1 scans per block as (group, B): one per bound, plus the
# largest bound on every group, so the p90 falls inside the B = 10 group
CODIM_SCANS = ((GROUPS[2], 6), (GROUPS[1], 8)) + tuple((g, 10) for g in GROUPS)


class Scan(Workload):
    """Window reducibility scans plus closures of multi-entry seeds."""

    name = "scan"

    def block(self, r, b):
        # 17 requests: the 5 codimension-1 scans above, and at every bound
        # one trivial-sub scan, two irreducible scans (f = 0 and f != 0)
        # and one closure, with index groups rotating from block to block
        def group(k):
            return GROUPS[(b + k) % len(GROUPS)]

        reqs = [self._scan(_codim_params(r, g), bound) for g, bound in CODIM_SCANS]
        makers = (_codim_params, _trivial_params, _irreducible_params)
        for k, bound in enumerate(SCAN_BOUNDS):
            reqs.append(self._scan(_trivial_params(r, group(k)), bound))
            reqs.append(self._scan(_irreducible_params(r, group(k + 1), True), bound))
            reqs.append(self._scan(_irreducible_params(r, group(k + 2), False), bound))
            params = makers[(b + k) % len(makers)](r, group(k))
            window = analysis.Window(params.group, bound)
            support = r.sample(window.indices(), r.choice((2, 3)))
            seed = {q: rand_nonzero(r) for q in support}
            reqs.append(Request("closure", bound, (params, window, seed)))
        r.shuffle(reqs)
        return reqs

    @staticmethod
    def _scan(params, bound):
        kind = intermediate.classify(params).verdict
        return Request(kind, bound, (params, analysis.Window(params.group, bound)))

    def execute(self, tr, req):
        if req.kind == "closure":
            params, window, seed = req.args
            return tr.call("analysis.closure", analysis.closure, params, window, [seed])
        params, window = req.args
        return tr.call("analysis.scan_details", analysis.scan_details, params, window)

    def verify(self, req, result):
        if req.kind == "closure":
            params, window, seed = req.args
            expected = reachable(params, window, list(seed))
            return result.pivots() == expected and result.dimension == len(expected)
        params, window = req.args
        classification, dims, proper = result
        if classification.verdict != intermediate.classify(params).verdict:
            return False
        if sorted(dims) != window.indices():
            return False
        predicate = intermediate.submodule_basis(params)
        if predicate is None:
            return proper is None
        return proper is not None and sorted(proper) == [
            q for q in window.indices() if predicate(q)
        ]


def _profile_of(fraction, big_prime):
    """p-adic valuations of a positive fraction whose only large prime
    factor is ``big_prime``."""
    num, den = fraction.numerator, fraction.denominator
    prof = {}
    for part, sign in ((num, 1), (den, -1)):
        e = 0
        while part % big_prime == 0:
            part //= big_prime
            e += 1
        if e:
            prof[big_prime] = sign * e
        for p, k in _small_factors(part).items():
            prof[p] = sign * k
    return prof


def _group_of(profile):
    bounds = {p: v for p, v in profile.items() if v}
    if all(v != -inf for v in bounds.values()):
        return groups.cyclic(prod((F(p) ** v for p, v in bounds.items()), start=F(1)))
    return groups.supernatural({p: inf if v == -inf else -v for p, v in bounds.items()})


class TableCase(NamedTuple):
    params: object  # module over qk(m), alpha off the group
    m: int
    shifted: object  # params with alpha moved by a group element
    mismatched: object  # shifted, with beta + 1
    window: object
    subgroup: object
    scale: F  # constant basis rescaling of the recovery table
    line: object  # table line to perturb, or None
    phi: object
    pairs: tuple  # generator pairs for the rescaling homomorphism check
    lattice: tuple  # (g1, g2, valuation profile of g1, of g2)


def _perturb_line(text, line):
    """Double the coefficient on one entry line of a table file."""
    rows = text.splitlines()
    fields = rows[line].split()
    fields[3] = str(2 * F(fields[3]))
    rows[line] = " ".join(fields)
    return "\n".join(rows) + "\n"


class Tables(Workload):
    """Transport, recovery, intertwiners, restriction and the group lattice."""

    name = "tables"
    blocks_per_setup = 64

    def block(self, r, _):
        # 10 requests: m = 1, 2, 3 and bounds 4..6 in a seeded mix; one
        # request per block perturbs a table coefficient
        perturbed = r.randrange(10)
        return [self._request(r, r.choice((1, 2, 3)), r.randint(4, 6), k == perturbed)
                for k in range(10)]

    def _request(self, r, m, bound, perturbed):
        group = groups.qk(m)
        step = group.generator
        # alpha off the group, so a shifted copy is a different module
        alpha = F(r.choice((1, 2, 3, 4)), r.choice((5, 7))) * step
        params = intermediate.ModuleParams(alpha, rand_fraction(r), rand_nonzero(r), group)
        shift = r.choice((-2, -1, 1, 2)) * step
        big = rand_prime(r, 10**5, 10**9)
        g1 = F(r.randint(1, 9), r.randint(1, 12) * big)
        if r.random() < 0.5:
            g2 = groups.cyclic(F(r.randint(1, 12), r.randint(1, 12) * big ** r.randint(0, 1)))
            prof2 = _profile_of(g2.generator, big)
        else:
            exps = {big: inf, r.choice((2, 3, 5)): r.choice((1, 2, inf))}
            g2 = groups.supernatural(exps)
            prof2 = {p: -e for p, e in exps.items()}
        case = TableCase(
            params=params,
            m=m,
            shifted=intermediate.ModuleParams(alpha + shift, params.beta, params.f, group),
            mismatched=intermediate.ModuleParams(alpha + shift, params.beta + 1, params.f,
                                                 group),
            window=analysis.Window(group, bound),
            subgroup=groups.cyclic(r.choice((2, 3)) * step),
            scale=rand_nonzero(r),
            # f != 0, so the table has an I entry for each of the (2B+1)^2
            # (source, target) pairs; line 0 is the header
            line=r.randrange(1, (2 * bound + 1) ** 2) if perturbed else None,
            phi=algebra.RescalingMap(m, algebra.EXACT_CENTRAL),
            pairs=tuple(
                tuple(r.choice((algebra.d, algebra.I))(r.randint(-3, 3)) for _ in range(2))
                for _ in range(2)
            ),
            lattice=(groups.cyclic(g1), g2, _profile_of(g1, big), prof2),
        )
        return Request("perturbed" if perturbed else "table", bound, case)

    def execute(self, tr, req):
        c = req.args
        call = tr.call
        window_z = analysis.Window(Z, req.bound)
        transported = call("analysis.transported_table", analysis.transported_table,
                           c.params, c.m, req.bound)
        pulled = call("intermediate.pullback_params", intermediate.pullback_params,
                      c.params, c.m)
        direct = call("analysis.intermediate_series_table", analysis.intermediate_series_table,
                      pulled, window_z)
        transport_ok = transported == direct

        scaled = call("analysis.intermediate_series_table", analysis.intermediate_series_table,
                      pulled, window_z, {q: c.scale for q in window_z.indices()})
        text = call("parsing.format_table", parsing.format_table, scaled)
        if c.line is not None:
            text = _perturb_line(text, c.line)
        table = call("parsing.parse_table", parsing.parse_table, text)
        try:
            recovered = call("analysis.recover_params", analysis.recover_params, table)
        except HvirError as exc:
            recovered = exc

        phi_ok = [
            call("algebra.apply_phi", algebra.apply_phi, c.phi,
                 call("algebra.bracket", algebra.bracket, x, y))
            == call("algebra.bracket", algebra.bracket,
                    call("algebra.apply_phi", algebra.apply_phi, c.phi, x),
                    call("algebra.apply_phi", algebra.apply_phi, c.phi, y))
            for x, y in c.pairs
        ]
        shift = c.shifted.alpha - c.params.alpha
        same = call("analysis.intertwiner_check", analysis.intertwiner_check,
                    c.params, c.shifted, shift, c.window)
        differ = call("analysis.intertwiner_check", analysis.intertwiner_check,
                      c.params, c.mismatched, shift, c.window)
        cosets = call("analysis.restriction_report", analysis.restriction_report,
                      c.params, c.subgroup, c.window)

        g1, g2 = c.lattice[:2]
        total = call("groups.subgroup_sum", groups.subgroup_sum, g1, g2)
        meet = call("groups.subgroup_intersect", groups.subgroup_intersect, g1, g2)
        inclusions = (
            call("groups.is_subgroup", groups.is_subgroup, g1, total),
            call("groups.is_subgroup", groups.is_subgroup, meet, g2),
        )
        return (transport_ok, pulled, recovered, phi_ok, same, differ, cosets, total, meet,
                inclusions)

    def verify(self, req, result):
        c = req.args
        (transport_ok, pulled, recovered, phi_ok, same, differ, cosets, total, meet,
         inclusions) = result
        M = factorial(c.m)
        if req.kind == "perturbed":
            recovery_ok = isinstance(recovered, NotIntermediateSeriesError)
        else:
            recovery_ok = (
                isinstance(recovered, tuple)
                and recovered[0] == pulled
                and set(recovered[1].values()) == {1}
            )
        step = c.window.step
        k = int(c.subgroup.generator / step)
        cosets_ok = (
            sorted(int(rep / step) % k for rep, _ in cosets) == list(range(k))
            and all(
                rep in c.window and sub_params == intermediate.ModuleParams(
                    c.params.alpha + rep, c.params.beta, c.params.f, c.subgroup)
                for rep, sub_params in cosets
            )
        )
        prof1, prof2 = c.lattice[2:]
        primes = set(prof1) | set(prof2)
        want_total = _group_of({p: min(prof1.get(p, 0), prof2.get(p, 0)) for p in primes})
        want_meet = _group_of({p: max(prof1.get(p, 0), prof2.get(p, 0)) for p in primes})
        return (
            transport_ok
            and pulled == intermediate.ModuleParams(
                M * c.params.alpha, c.params.beta, M * c.params.f, Z)
            and recovery_ok
            and all(phi_ok)
            and same is True
            and differ is False
            and cosets_ok
            and total == want_total
            and meet == want_meet
            and inclusions == (True, True)
        )


REPORT_KEYS = ("params", "window", "verdict", "dimensions", "basisIndices", "cosets")


def _rand_element(r, indices, central=True, terms=(1, 3)):
    keys = [algebra.d, algebra.I]
    acc = []
    for _ in range(r.randint(*terms)):
        if central and r.random() < 0.2:
            key = r.choice((algebra.CD, algebra.CDI, algebra.CI))
        else:
            key = r.choice(keys)(r.choice(indices))
        acc.append((key, rand_nonzero(r, 5, 3)))
    return algebra.AlgebraElement(acc)


def _argv(verb, options, positionals):
    """Command words as a shell user writes them when values may start
    with '-': options as --name=value, positionals after '--'."""
    argv = [verb] + ["--%s=%s" % (k, v) for k, v in options]
    return argv + (["--"] + [str(p) for p in positionals] if positionals else [])


def _params_any(r, group):
    make = r.choice((_codim_params, _trivial_params, _irreducible_params))
    return make(r, group)


class Cli(Workload):
    """One-shot ``python -m hvir.cli`` calls over all ten verbs."""

    name = "cli"
    blocks_per_setup = 12

    def __init__(self, seed, workdir):
        os.makedirs(workdir, exist_ok=True)
        self._files = 0
        # the children import the same hvir sources as this process
        self.env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hvir.__file__)))
        self._expected = {}
        super().__init__(seed, workdir)

    def _write_table(self, text):
        path = os.path.join(self.workdir, "table-%d.txt" % self._files)
        self._files += 1
        with open(path, "w", encoding="utf-8") as out:
            out.write(text)
        return path

    def block(self, r, b):
        # 22 requests: each verb once in text form and once structured,
        # plus two malformed calls
        reqs = []
        for verb in CLI_VERBS:
            for structured in (False, True):
                argv, data = getattr(self, "_make_" + verb)(r)
                if structured:
                    argv = ["--structured"] + argv
                reqs.append(Request(verb, 0, (tuple(argv), structured, data, (b, len(reqs)))))
        for _ in range(2):
            argv, status, code = self._make_malformed(r)
            reqs.append(Request("malformed", 0, (tuple(argv), False, (status, code),
                                                 (b, len(reqs)))))
        r.shuffle(reqs)
        return reqs

    # -- input makers: argv plus the library objects the answer comes from

    def _make_bracket(self, r):
        indices = [F(n, k) for n in range(-6, 7) for k in (1, 2, 3, 6)]
        x, y = _rand_element(r, indices), _rand_element(r, indices)
        return _argv("bracket", [], [x, y]), (x, y)

    def _make_jacobi(self, r):
        k, bound, samples = r.randint(0, 2), r.randint(3, 6), r.randint(50, 150)
        seed = r.randint(0, 999)
        argv = _argv("jacobi", [("window", "%d:%d" % (k, bound)), ("samples", samples),
                                ("seed", seed)], [])
        return argv, (k, bound, samples)

    def _make_act(self, r):
        group = r.choice(GROUPS)
        params = _params_any(r, group)
        step = group.generator
        element = _rand_element(r, [n * step for n in range(-4, 5)])
        at = r.randint(-4, 4) * step
        return _argv("act", [("at", at)], [params, element]), (params, element, at)

    def _make_classify(self, r):
        big = rand_prime(r, 10**6, 10**10)
        group = groups.supernatural({big: inf})
        if r.random() < 0.5:
            params = intermediate.ModuleParams(F(r.randint(-3, 3)), r.choice((0, 1)), 0, group)
        else:
            params = intermediate.ModuleParams(
                F(1, r.choice((2, 3))), rand_fraction(r), rand_fraction(r), group)
        return _argv("classify", [], [params]), (params,)

    def _make_iso(self, r):
        group = r.choice(GROUPS)
        kind = r.randrange(3)
        if kind == 0:  # alpha moved by a group element: isomorphic
            p1 = _params_any(r, group)
            p2 = intermediate.ModuleParams(p1.alpha + r.randint(-3, 3) * group.generator,
                                           p1.beta, p1.f, group)
        elif kind == 1:  # beta 0 against beta 1 at f = 0: the subquotients agree
            p1, p2 = _trivial_params(r, group), _codim_params(r, group)
        else:
            p1, p2 = _params_any(r, group), _params_any(r, group)
        return _argv("iso", [], [p1, p2]), (p1, p2)

    def _make_phi(self, r):
        m = r.randint(1, 3)
        exact = r.random() < 0.5
        element = _rand_element(r, [F(n) for n in range(-5, 6)], central=exact)
        argv = _argv("phi", [("m", m), ("variant", "exact" if exact else "centerless")],
                     [element])
        variant = algebra.EXACT_CENTRAL if exact else algebra.CENTERLESS
        return argv, (algebra.RescalingMap(m, variant), element)

    def _make_closure(self, r):
        group = r.choice(GROUPS)
        params = _params_any(r, group)
        bound = r.randint(3, 6)
        seeds = sorted(r.sample(range(-bound, bound + 1), r.choice((1, 2))))
        seed_idx = [n * group.generator for n in seeds]
        argv = _argv("closure", [("window", bound), ("seed", ",".join(map(str, seed_idx)))],
                     [params])
        return argv, (params, bound, seed_idx)

    def _make_scan(self, r):
        group = r.choice(GROUPS)
        params = _params_any(r, group)
        bound = r.randint(4, 6)
        return _argv("scan", [("window", bound)], [params]), (params, bound)

    def _make_restrict(self, r):
        group = r.choice(GROUPS)
        params = _params_any(r, group)
        bound = r.randint(3, 6)
        subgroup = groups.cyclic(r.choice((1, 2, 3)) * group.generator)
        argv = _argv("restrict", [("subgroup", subgroup), ("window", bound)], [params])
        return argv, (params, subgroup, bound)

    def _table_text(self, r, bound, perturb=False):
        params = intermediate.ModuleParams(rand_fraction(r), rand_fraction(r), rand_nonzero(r), Z)
        window = analysis.Window(Z, bound)
        scale = rand_nonzero(r)
        table = analysis.intermediate_series_table(
            params, window, {q: scale for q in window.indices()})
        text = parsing.format_table(table)
        if perturb:
            text = _perturb_line(text, r.randrange(1, len(text.splitlines())))
        return text

    def _make_recover(self, r):
        text = self._table_text(r, r.randint(2, 4))
        return _argv("recover", [("table", self._write_table(text))], []), (text,)

    def _make_malformed(self, r):
        """A bad call with its exit status and error code (None: usage)."""
        kind = r.randrange(8)
        q = r.randint(1, 9)
        odd_half = "d(%d/2)" % (2 * q - 1)
        if kind == 0:
            return _argv("classify", [], ["%d/2,1@Q" % q]), 1, "syntax"
        if kind == 1:
            return _argv("scan", [("window", 4)], ["%d/2,1,0@Q" % q]), 1, "invalid-input"
        if kind == 2:
            return _argv("restrict", [("subgroup", "cyclic:1/3"), ("window", 4)],
                         ["1/%d,1,0@cyclic:1/2" % (q + 2)]), 1, "group-mismatch"
        if kind == 3:
            return _argv("act", [("at", 0)], ["0,1,0@qk:0", odd_half]), \
                1, "subalgebra-violation"
        if kind == 4:
            return _argv("phi", [("m", 2), ("variant", "centerless")], ["%d*CD" % q]), \
                1, "central-term"
        if kind == 5:
            return _argv("phi", [("m", 2), ("variant", "exact")], [odd_half]), \
                1, "index-domain"
        if kind == 6:
            path = self._write_table(self._table_text(r, r.randint(2, 4), perturb=True))
            return _argv("recover", [("table", path)], []), 1, "not-intermediate-series"
        return _argv("scan", [], ["0,1,0@qk:%d" % (q % 4)]), 2, None

    # -- request and answer

    def execute(self, tr, req):
        argv = req.args[0]
        verb = argv[1] if argv[0] == "--structured" else argv[0]
        return tr.call("cli." + verb, run_child, [sys.executable, "-m", "hvir.cli", *argv],
                       self.env, True)

    def verify(self, req, proc):
        argv, structured, data, key = req.args
        if req.kind == "malformed":
            status, code = data
            if proc.returncode != status or proc.stdout:
                return False
            marker = "usage:" if code is None else "error[%s]:" % code
            return marker in proc.stderr
        if proc.returncode != 0 or proc.stderr:
            return False
        if key not in self._expected:
            self._expected[key] = getattr(self, "_expect_" + req.kind)(*data)
        lines, fields = self._expected[key]
        if not structured:
            return proc.stdout.splitlines() == lines
        try:
            report = json.loads(proc.stdout)
        except ValueError:
            return False
        return tuple(report)[:len(REPORT_KEYS)] == REPORT_KEYS and all(
            report.get(k, object()) == v for k, v in fields.items()
        )

    # -- expected answers from the library, as (text lines, JSON fields)

    def _expect_bracket(self, x, y):
        res = str(algebra.bracket(x, y))
        return [res], {"element": res}

    def _expect_jacobi(self, k, bound, samples):
        window = analysis.Window(groups.qk(k), bound)
        keys = 2 * window.size + 3
        checked = min(samples, comb(keys, 3))
        return ["jacobi: OK (%d triples checked)" % checked], {
            "window": str(window), "checked": checked}

    def _expect_act(self, params, element, at):
        res = str(intermediate.act(params, element, intermediate.basis_vector(params, at)))
        return [res], {"params": str(params), "vector": res}

    def _expect_classify(self, params):
        c = intermediate.classify(params)
        return ["verdict: %s" % c.verdict, "subquotient: %s" % c.subquotient_note], {
            "params": str(params), "verdict": c.verdict, "note": c.subquotient_note}

    def _expect_iso(self, p1, p2):
        flag, shift = intermediate.iso_check(p1, p2)
        lines = ["isomorphic: %s" % ("true" if flag else "false")]
        if flag:
            lines.append("witness: %s" % shift)
        return lines, {"params": str(p1), "other": str(p2), "isomorphic": flag,
                       "witness": str(shift) if flag else None}

    def _expect_phi(self, rescaling, element):
        res = str(algebra.apply_phi(rescaling, element))
        return [res], {"element": res}

    def _expect_closure(self, params, bound, seed_idx):
        window = analysis.Window(params.group, bound)
        span = analysis.closure(params, window,
                                [intermediate.basis_vector(params, q) for q in seed_idx])
        pivots = [str(p) for p in span.pivots()]
        lines = ["dimension: %d" % span.dimension, "window size: %d" % window.size,
                 "indices: %s" % ", ".join(pivots)]
        return lines, {"params": str(params), "window": str(window),
                       "dimensions": {"span": span.dimension, "window": window.size},
                       "basisIndices": pivots}

    def _expect_scan(self, params, bound):
        window = analysis.Window(params.group, bound)
        c, dims, proper = analysis.scan_details(params, window)
        dims_text = ", ".join("%s:%d" % (q, dim) for q, dim in sorted(dims.items()))
        lines = ["verdict: %s" % c.verdict, "note: %s" % c.subquotient_note,
                 "dimensions: %s" % dims_text]
        return lines, {
            "params": str(params), "window": str(window), "verdict": c.verdict,
            "dimensions": {str(q): dim for q, dim in sorted(dims.items())},
            "basisIndices": None if proper is None else [str(p) for p in proper],
            "note": c.subquotient_note,
        }

    def _expect_restrict(self, params, subgroup, bound):
        window = analysis.Window(params.group, bound)
        report = analysis.restriction_report(params, subgroup, window)
        return ["%s -> %s" % (rep, p) for rep, p in report], {
            "params": str(params), "window": str(window),
            "cosets": [{"rep": str(rep), "params": str(p)} for rep, p in report]}

    def _expect_recover(self, text):
        table = parsing.parse_table(text)
        params, scales = analysis.recover_params(table)
        items = sorted(scales.items())
        return ["params: %s" % params,
                "scales: %s" % ", ".join("%s=%s" % (q, c) for q, c in items)], {
            "params": str(params), "window": str(table.window),
            "scales": {str(q): str(c) for q, c in items}}


WORKLOADS = {w.name: w for w in (Rep, Scan, Tables, Cli)}
