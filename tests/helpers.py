"""Shared test utilities: seeded random rationals and module parameters,
the Fraction-dict oracles for weight vectors, the module action and
exact spans, the exact-elimination oracle for the window engine, the
one-pass-per-entry oracles for the action-table path with a table
that is both inconsistent and disconnected, the scale-chain oracle for
a rescaled shift isomorphism, the per-character
scanner, the accumulator-per-operation oracle for algebra elements with
its own Fraction basis bracket, the entry-dict proportionality test, the
valuation-profile oracle for the subgroup lattice, the dataclass
oracles for the value classes, and the small-rationals hypothesis
strategy."""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import inf, isqrt

from hypothesis import strategies as st

from hvir import (
    CD,
    CDI,
    CENTERLESS,
    CI,
    EXACT_CENTRAL,
    FULL_Q,
    TRIVIAL,
    ActionTable,
    BasisKey,
    CentralTermError,
    DisjointOverlapError,
    IndexDomainError,
    NonConstantScalingError,
    AmbiguousTableError,
    Cyclic,
    FullQ,
    GroupMismatchError,
    I,
    ModuleParams,
    NotIntermediateSeriesError,
    RescalingMap,
    SubalgebraError,
    SubgroupSpec,
    Trivial,
    VERDICT_CODIM_ONE,
    VERDICT_IRREDUCIBLE,
    VERDICT_TRIVIAL_SUB,
    WeightVector,
    Window,
    act,
    apply_phi,
    as_fraction,
    basis_vector,
    contains,
    d,
    intermediate_series_table,
    is_subgroup,
    normalize_alpha,
    qk,
    supernatural,
)
from hvir.algebra import _CENTRAL_KINDS, _as_element, _signed_terms
from hvir.analysis import MAX_WINDOW_BOUND, _chain_scales
from hvir.groups import MAX_DIGITS, MAX_FACTORIAL_ORDER, _check_prime_powers, _factorint
from hvir.intermediate import d_coefficient
from hvir.parsing import _Scanner


# n/k with |n| <= 6 and 1 <= k <= 6, drawn by the property tests
small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def rng(seed):
    return random.Random(seed)


def rand_fraction(r, num=6, den=4):
    return Fraction(r.randint(-num, num), r.randint(1, den))


def rand_nonzero_fraction(r, num=6, den=4):
    while True:
        value = rand_fraction(r, num, den)
        if value != 0:
            return value


def rand_params(r, group, nonzero_f=False):
    f = rand_nonzero_fraction(r) if nonzero_f else rand_fraction(r)
    return ModuleParams(rand_fraction(r), rand_fraction(r), f, group)


def reference_contains(group, q):
    """Membership with a Fraction division for cyclic groups, the test
    that ``contains`` replaced by integer cross-multiplication."""
    q = as_fraction(q)
    if isinstance(group, Cyclic):
        return (q / group.generator).denominator == 1
    return contains(group, q)


class ReferenceVector:
    """Oracle for ``WeightVector``: a dict of index -> coefficient
    Fractions, sorted by index, with zero coefficients pruned."""

    def __init__(self, params, entries=()):
        if not isinstance(params, ModuleParams):
            raise TypeError("params must be ModuleParams")
        items = entries.items() if isinstance(entries, dict) else entries
        acc = {}
        for index, coeff in items:
            index = as_fraction(index)
            coeff = as_fraction(coeff)
            if coeff == 0:
                continue
            if not reference_contains(params.group, index):
                raise SubalgebraError("index %s lies outside the module's group" % index)
            total = acc.get(index, 0) + coeff
            if total == 0:
                acc.pop(index, None)
            else:
                acc[index] = total
        self.params = params
        self._entries = {q: acc[q] for q in sorted(acc)}

    @classmethod
    def _raw(cls, params, entries):
        self = object.__new__(cls)
        self.params = params
        self._entries = {q: entries[q] for q in sorted(entries) if entries[q] != 0}
        return self

    @property
    def entries(self):
        return dict(self._entries)

    def coefficient(self, index):
        return self._entries.get(as_fraction(index), Fraction(0))

    def is_zero(self):
        return not self._entries

    def __eq__(self, other):
        if not isinstance(other, ReferenceVector):
            return NotImplemented
        return self.params == other.params and self._entries == other._entries

    def __add__(self, other):
        merged = dict(self._entries)
        for q, c in other._entries.items():
            merged[q] = merged.get(q, 0) + c
        return ReferenceVector._raw(self.params, merged)

    def __sub__(self, other):
        merged = dict(self._entries)
        for q, c in other._entries.items():
            merged[q] = merged.get(q, 0) - c
        return ReferenceVector._raw(self.params, merged)

    def __neg__(self):
        return ReferenceVector._raw(self.params, {q: -c for q, c in self._entries.items()})

    def __mul__(self, scalar):
        scalar = as_fraction(scalar)
        return ReferenceVector._raw(
            self.params, {q: scalar * c for q, c in self._entries.items()}
        )

    __rmul__ = __mul__

    def __str__(self):
        if not self._entries:
            return "0"
        parts = []
        for q, coeff in self._entries.items():
            mag = -coeff if coeff < 0 else coeff
            body = "v(%s)" % q if mag == 1 else "%s*v(%s)" % (mag, q)
            if not parts:
                parts.append("-" + body if coeff < 0 else body)
            else:
                parts.append((" - " if coeff < 0 else " + ") + body)
        return "".join(parts)


def reference_act(params, x, v):
    """Oracle for ``act`` on a ``ReferenceVector``, in Fractions."""
    x = _as_element(x)
    group = params.group
    alpha, beta, f = params.alpha, params.beta, params.f
    acc = {}
    for key, c in x.terms.items():
        g = key.index
        if g is None:
            continue
        if not reference_contains(group, g):
            raise SubalgebraError("element %s has indices outside the group" % x)
        if key.kind == "d":
            for h, cv in v._entries.items():
                w = alpha + h + g * beta
                if w:
                    t = g + h
                    acc[t] = acc.get(t, 0) + c * cv * w
        elif f:
            for h, cv in v._entries.items():
                t = g + h
                acc[t] = acc.get(t, 0) + c * cv * f
    return ReferenceVector._raw(params, acc)


def reference_act_word(params, word, v):
    for x in reversed(list(word)):
        v = reference_act(params, x, v)
    return v


class ReferenceSubspace:
    """Oracle for ``Subspace``: reduced row echelon form on dicts of
    index -> coefficient Fractions, one row per pivot index.

    Input follows ``Subspace``'s rule: a ``WeightVector`` must carry the
    same parameters, and anything else is checked as a ``ReferenceVector``.
    """

    def __init__(self, params):
        self.params = params
        self._rows = {}  # pivot index -> {index: coefficient}

    @property
    def dimension(self):
        return len(self._rows)

    def pivots(self):
        return sorted(self._rows)

    def _entries(self, vector):
        if isinstance(vector, WeightVector):
            if vector.params != self.params:
                raise GroupMismatchError("vector belongs to different module parameters")
            return vector.entries
        return ReferenceVector(self.params, dict(vector)).entries

    def _reduce(self, entries):
        entries = {q: c for q, c in entries.items() if c != 0}
        # each row is zero at every other pivot, so subtracting one row
        # never brings back an entry at another pivot
        for pivot in sorted(q for q in entries if q in self._rows):
            c = entries[pivot]
            for q, v in self._rows[pivot].items():
                total = entries.get(q, 0) - c * v
                if total == 0:
                    entries.pop(q, None)
                else:
                    entries[q] = total
        return entries

    def insert(self, vector):
        remainder = self._reduce(self._entries(vector))
        if not remainder:
            return False
        pivot = min(remainder)
        lead = remainder[pivot]
        row = {q: c / lead for q, c in remainder.items()}
        for other in self._rows.values():
            c = other.get(pivot)
            if c is None:
                continue
            for q, v in row.items():
                total = other.get(q, 0) - c * v
                if total == 0:
                    other.pop(q, None)
                else:
                    other[q] = total
        self._rows[pivot] = row
        return True

    def contains(self, vector):
        return not self._reduce(self._entries(vector))

    @property
    def echelon_basis(self):
        return [ReferenceVector(self.params, self._rows[p]) for p in self.pivots()]

    def row_entries(self):
        return [dict(self._rows[p]) for p in self.pivots()]

    def is_pure_basis(self):
        return all(row == {p: Fraction(1)} for p, row in self._rows.items())

    def __eq__(self, other):
        if not isinstance(other, ReferenceSubspace):
            return NotImplemented
        return self.params == other.params and self._rows == other._rows


def reference_closure(params, window, seeds):
    """Oracle for ``closure`` by exact elimination, with no use of d(0)
    separating the basis lines.

    Inserts the seeds (index -> coefficient maps) into a
    ``ReferenceSubspace``, then applies every d(g) and I(g) with g in
    ``window.steps()`` to every echelon row through ``reference_act``,
    clips each image to the window and inserts it, until no insertion
    grows the span.
    """
    if not is_subgroup(window.group, params.group):
        raise GroupMismatchError("window group is not inside the module group")
    sub = ReferenceSubspace(params)
    for seed in seeds:
        entries = {Fraction(q): Fraction(c) for q, c in seed.items()}
        if any(q not in window for q in entries):
            raise ValueError("seed index outside the window")
        sub.insert(entries)
    generators = [key for g in window.steps() for key in (d(g), I(g))]
    changed = True
    while changed:
        changed = False
        for row in sub.row_entries():
            vector = ReferenceVector(params, row)
            for key in generators:
                image = reference_act(params, key, vector)
                if sub.insert({q: c for q, c in image.entries.items() if q in window}):
                    changed = True
    return sub


def reference_scan(params, window):
    """Oracle for ``scan_details``: ``(verdict, dims, proper_pivots)`` from
    the ``reference_closure`` of every singleton seed."""
    if window.bound < 2:
        raise ValueError("scan windows need bound >= 2")
    size = window.size
    dims = {}
    trivial = codim_pivots = stray = None
    for q in window.indices():
        sub = reference_closure(params, window, [{q: 1}])
        dims[q] = sub.dimension
        if sub.dimension == size:
            continue
        if sub.dimension == 1:
            if trivial is None:
                trivial = q
        elif sub.dimension == size - 1 and sub.is_pure_basis():
            if codim_pivots is None:
                codim_pivots = sub.pivots()
        else:
            stray = q
    if trivial is not None:
        return VERDICT_TRIVIAL_SUB, dims, [trivial]
    if codim_pivots is not None:
        return VERDICT_CODIM_ONE, dims, codim_pivots
    if stray is not None:
        raise NotIntermediateSeriesError("seed at %s matches no verdict" % stray)
    return VERDICT_IRREDUCIBLE, dims, None


class ReferenceScanner(_Scanner):
    """``_Scanner`` with the per-character ``skip_ws`` and ``digits`` that
    its local index loops replaced: three method calls per character."""

    def skip_ws(self):
        while not self.at_end() and self.text[self.pos] in " \t":
            self.pos += 1

    def digits(self, what="a digit"):
        start = self.pos
        while not self.at_end() and "0" <= self.peek() <= "9":
            self.pos += 1
        if self.pos == start:
            self.error("expected %s" % what)
        if self.pos - start > MAX_DIGITS:
            self.error(
                "literal of %d digits exceeds the cap of %d digits"
                % (self.pos - start, MAX_DIGITS),
                start,
            )
        return int(self.text[start:self.pos])


def reference_window_contains(window, q):
    """Window membership with a Fraction division, the test that
    ``Window.__contains__`` replaced by one integer divmod."""
    ratio = as_fraction(q) / window.step
    return ratio.denominator == 1 and abs(ratio) <= window.bound


def reference_series_table(params, window, scales=None):
    """Oracle for ``intermediate_series_table``: every generator index of
    ``window.steps()`` applied to every source, keeping the targets that
    stay inside the window."""
    if not is_subgroup(window.group, params.group):
        raise GroupMismatchError("window group is not inside the module group")
    indices = window.indices()
    c = None
    if scales is not None:
        c = {as_fraction(q): as_fraction(v) for q, v in dict(scales).items()}
        if any(v == 0 for v in c.values()) or any(q not in c for q in indices):
            raise ValueError("scale factors must be nonzero and complete")
    entries = {}
    for p in window.steps():
        for src in indices:
            tgt = src + p
            if not reference_window_contains(window, tgt):
                continue
            ratio = c[src] / c[tgt] if c is not None else 1
            coeff_d = d_coefficient(params.alpha, params.beta, src, p)
            if coeff_d:
                entries[(d(p), src)] = (tgt, coeff_d * ratio)
            if params.f:
                entries[(I(p), src)] = (tgt, params.f * ratio)
    return ActionTable(window, entries)


def reference_transported_table(params, m, bound):
    """Oracle for ``transported_table``: one basis vector per table entry."""
    if params.group != qk(m):
        raise GroupMismatchError("transport needs the index group qk(m)")
    window_z = Window(qk(0), bound)
    phi = RescalingMap(m, CENTERLESS)
    M = phi.scale
    entries = {}
    for n in window_z.steps():
        for key in (d(n), I(n)):
            image = apply_phi(phi, key)
            for src in window_z.indices():
                tgt = src + n
                if not reference_window_contains(window_z, tgt):
                    continue
                result = act(params, image, basis_vector(params, src / M))
                coeff = result.coefficient(tgt / M)
                if coeff:
                    entries[(key, src)] = (tgt, coeff)
    return ActionTable(window_z, entries)


def reference_format_table(table):
    """Oracle for ``format_table``: the table's ``Fraction``-keyed
    ``entries``, one line each, sorted by the printed generator and then
    by the source, every field printed by ``str``."""
    window = table.window
    rows = sorted(table.entries.items(), key=lambda item: (str(item[0][0]), item[0][1]))
    lines = ["window %s %d\n" % (window.group, window.bound)]
    lines += ["%s %s %s %s\n" % (key, src, tgt, coeff) for (key, src), (tgt, coeff) in rows]
    return "".join(lines)


def reference_intertwiner_check(p1, p2, shift, window):
    """Oracle for ``intertwiner_check``: every generator index of
    ``window.steps()`` at every source, counting off-diagonal comparisons."""
    if p1.group != p2.group:
        raise GroupMismatchError("cannot compare modules over different groups")
    if not is_subgroup(window.group, p1.group):
        raise GroupMismatchError("window group is not inside the module group")
    shift = as_fraction(shift)
    if not contains(p1.group, shift):
        raise SubalgebraError("shift outside the group")
    if p1.f != p2.f:
        return False

    def inside(q):
        return reference_window_contains(window, q)

    off_diagonal = 0
    for q in window.indices():
        if not inside(q - shift):
            continue
        for p in window.steps():
            if not inside(q + p) or not inside(q - shift + p):
                continue
            if d_coefficient(p1.alpha, p1.beta, q, p) != d_coefficient(
                p2.alpha, p2.beta, q - shift, p
            ):
                return False
            if p != 0:
                off_diagonal += 1
    return off_diagonal > 0


def reference_restriction_report(params, subgroup, window):
    """Oracle for ``restriction_report`` from the definition: bucket the
    window positions by residue mod k and take the smallest non-negative
    member of each bucket, else its largest member."""
    if window.group != params.group or not isinstance(subgroup, Cyclic):
        raise GroupMismatchError("restriction needs a cyclic subgroup on the window group")
    if not is_subgroup(subgroup, params.group):
        raise GroupMismatchError("not a subgroup")
    a = window.step
    k = int(subgroup.generator / a)
    buckets = {}
    for n in range(-window.bound, window.bound + 1):
        buckets.setdefault(n % k, []).append(n)
    report = []
    for members in buckets.values():
        non_negative = [n for n in members if n >= 0]
        rep = (min(non_negative) if non_negative else max(members)) * a
        report.append((rep, ModuleParams(params.alpha + rep, params.beta, params.f, subgroup)))
    return sorted(report, key=lambda item: item[0])


def _reference_sqrt(x):
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def _reference_chain_scales(window, edges, base):
    adjacency = {}
    for src, tgt, ratio in edges:
        adjacency.setdefault(src, []).append((tgt, ratio))
        adjacency.setdefault(tgt, []).append((src, 1 / ratio))
    scales = {base: Fraction(1)}
    frontier = [base]
    while frontier:
        new_frontier = []
        for src in frontier:
            for tgt, ratio in sorted(adjacency.get(src, [])):
                value = scales[src] / ratio
                if tgt in scales:
                    if scales[tgt] != value:
                        raise NotIntermediateSeriesError("inconsistent scale chain")
                    continue
                scales[tgt] = value
                new_frontier.append(tgt)
        frontier = new_frontier
    if any(q not in scales for q in window.indices()):
        raise AmbiguousTableError("entries do not connect the window")
    return scales


def _reference_verify_table(table, alpha, beta, f, scales):
    for (key, src), (tgt, coeff) in table.entries.items():
        expected = f if key.kind == "I" else d_coefficient(alpha, beta, src, key.index)
        if expected == 0:
            raise NotIntermediateSeriesError("entry where the action must vanish")
        if coeff != expected * scales[src] / scales[tgt]:
            raise NotIntermediateSeriesError("entry with the wrong coefficient")


def _reference_try_chain_and_verify(table, alpha, beta, f, i_edges, base):
    # every entry is its own edge: an I and a d entry on one pair both count
    edges = list(i_edges)
    for (key, src), (tgt, coeff) in table.entries.items():
        if key.kind != "d" or key.index == 0:
            continue
        expected = d_coefficient(alpha, beta, src, key.index)
        if expected == 0:
            raise NotIntermediateSeriesError("entry where the action must vanish")
        edges.append((src, tgt, coeff / expected))
    scales = _reference_chain_scales(table.window, edges, base)
    _reference_verify_table(table, alpha, beta, f, scales)
    return scales


def reference_recover_params(table):
    """Oracle for ``recover_params``: the I-chain first, then beta from the
    first d-entry, and the scale chain rebuilt from the I- and d-edges for
    every candidate slope before the entries are verified."""
    window = table.window
    entries = table.entries
    for (key, src), (tgt, _) in entries.items():
        if tgt != src + key.index:
            raise NotIntermediateSeriesError("grading violated")
    d_zero = {src: coeff for (key, src), (_, coeff) in entries.items()
              if key.kind == "d" and key.index == 0}
    if not d_zero:
        raise AmbiguousTableError("no d(0) entries")
    alphas = {coeff - src for src, coeff in d_zero.items()}
    if len(alphas) != 1:
        raise NotIntermediateSeriesError("d(0) eigenvalues disagree")
    alpha = alphas.pop()
    fs = {coeff for (key, _), (_, coeff) in entries.items()
          if key.kind == "I" and key.index == 0}
    if len(fs) > 1:
        raise NotIntermediateSeriesError("I(0) eigenvalues disagree")
    f = fs.pop() if fs else Fraction(0)
    if f == 0 and any(key.kind == "I" for (key, _) in entries):
        raise NotIntermediateSeriesError("I entries without an I(0) eigenvalue")
    base = min(window.indices())
    i_edges = []
    if f:
        for (key, src), (tgt, coeff) in entries.items():
            if key.kind == "I" and key.index != 0:
                i_edges.append((src, tgt, coeff / f))
    ordered = sorted(entries.items(), key=lambda item: (str(item[0][0]), item[0][1]))
    candidates = []
    if f:
        try:
            scales = _reference_chain_scales(window, i_edges, base)
        except AmbiguousTableError:
            scales = None
        if scales is not None:
            for (key, src), (tgt, coeff) in ordered:
                if key.kind == "d" and key.index != 0:
                    candidates.append(
                        (coeff * scales[tgt] / scales[src] - alpha - src) / key.index
                    )
                    break
    if not candidates:
        loop = None
        for (key, src), (tgt, coeff) in ordered:
            if key.kind != "d" or key.index == 0:
                continue
            partner = entries.get((d(-key.index), tgt))
            if partner is not None and partner[0] == src:
                loop = (key.index, src, coeff * partner[1])
                break
        if loop is None:
            raise AmbiguousTableError("no d-generator data determines the slope")
        p, q, product = loop
        a_q = alpha + q
        disc = _reference_sqrt(1 - 4 * (product - a_q * a_q - p * a_q) / (p * p))
        if disc is None:
            raise NotIntermediateSeriesError("no rational coefficient slope")
        candidates = sorted({(1 - disc) / 2, (1 + disc) / 2})
    last_error = None
    for beta in candidates:
        try:
            scales = _reference_try_chain_and_verify(table, alpha, beta, f, i_edges, base)
        except (NotIntermediateSeriesError, AmbiguousTableError) as exc:
            last_error = exc
            continue
        return ModuleParams(alpha, beta, f, window.group), scales
    raise last_error


def stray_i_entry_table():
    """A table that is both inconsistent and disconnected: V(1/5, 2, 3)
    on Z with bound 1 cut to its d(0) and I(0) entries, d(1) at -1 and
    d(-1) at 0, plus I(1) at -1 with coefficient 7 where the module has 3.
    The wrong I entry sits on the pair of the d(1) entry, and nothing
    reaches index 1."""
    window = Window(qk(0), 1)
    params = ModuleParams(Fraction(1, 5), Fraction(2), Fraction(3), qk(0))
    entries = reference_series_table(params, window).entries
    kept = {(key, src): value for (key, src), value in entries.items()
            if key.index == 0 or (key, src) in ((d(1), -1), (d(-1), 0))}
    kept[(I(1), Fraction(-1))] = (Fraction(0), Fraction(7))
    return ActionTable(window, kept)


def chain_iso_scales(p1, p2, shift, window):
    """Oracle for a rescaled shift isomorphism on a window, independent
    of ``iso_check``: the scales c with v(q) -> c(q) u(q - shift)
    intertwining every window action, as a dict over the window, or None.

    p1's table on ``window`` is paired entry by entry with p2's entry on
    the same generator at the shifted source, read off p2's table on a
    window wide enough to hold every q - shift.  An entry on one side
    only refutes the pair.  Every other pair is an edge of the scale
    chain from source q to target t with ratio c(q)/c(t) = coeff1/coeff2,
    and the pair is isomorphic on the window exactly when the chain is
    consistent and connects the window.  ``shift`` is a multiple of the
    window step."""
    shift = Fraction(shift)
    wide = Window(window.group, window.bound + abs(int(shift / window.step)))
    ones = intermediate_series_table(p1, window).entries
    twos = intermediate_series_table(p2, wide).entries
    # p2's entries relabelled by the shift, kept where both ends stay inside
    relabelled = {(key, q + shift): (t + shift, coeff) for (key, q), (t, coeff) in twos.items()
                  if q + shift in window and t + shift in window}
    if set(ones) != set(relabelled):
        return None
    at = window._position
    edges = []
    for (key, q), (t, coeff) in ones.items():
        t2, coeff2 = relabelled[key, q]
        assert t2 == t
        edges.append((at(q), at(t), (coeff / coeff2).as_integer_ratio()))
    try:
        scales = _chain_scales(window, edges)
    except (NotIntermediateSeriesError, AmbiguousTableError):
        return None
    return {q: Fraction(*c) for q, c in zip(window.indices(), scales)}


# storage order of the oracle: central symbols, then d(g) and I(g) by index
_REFERENCE_CANONICAL_RANK = {"CD": 0, "CDI": 1, "CI": 2, "d": 3, "I": 4}
# print order of the oracle: d(g), I(g), then central symbols
_REFERENCE_DISPLAY_RANK = {"d": 0, "I": 1, "CD": 2, "CDI": 3, "CI": 4}


class ReferenceElement:
    """Oracle for ``AlgebraElement``: every operation sums into its own
    dict, terms are stored central symbols first and sorted again for
    printing."""

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        acc = {}
        for key, coeff in items:
            if not isinstance(key, BasisKey):
                raise TypeError("term keys must be BasisKey, got %r" % (key,))
            coeff = as_fraction(coeff)
            if coeff == 0:
                continue
            total = acc.get(key, 0) + coeff
            if total == 0:
                acc.pop(key, None)
            else:
                acc[key] = total
        order = sorted(acc, key=lambda k: (_REFERENCE_CANONICAL_RANK[k.kind], k.index or 0))
        self._terms = {key: acc[key] for key in order}

    @property
    def terms(self):
        return dict(self._terms)

    def __eq__(self, other):
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        merged = dict(self._terms)
        for key, coeff in other._terms.items():
            merged[key] = merged.get(key, 0) + coeff
        return ReferenceElement(merged)

    def __sub__(self, other):
        merged = dict(self._terms)
        for key, coeff in other._terms.items():
            merged[key] = merged.get(key, 0) - coeff
        return ReferenceElement(merged)

    def __neg__(self):
        return ReferenceElement({k: -c for k, c in self._terms.items()})

    def __mul__(self, scalar):
        scalar = as_fraction(scalar)
        return ReferenceElement({k: scalar * c for k, c in self._terms.items()})

    def __str__(self):
        keys = sorted(self._terms, key=lambda k: (_REFERENCE_DISPLAY_RANK[k.kind], k.index or 0))
        return _signed_terms((str(key), self._terms[key]) for key in keys)


def reference_basis_bracket(a, b):
    """The bracket of two non-central basis symbols as (key, coefficient)
    pairs, read off the three formulas of the paper in Fractions:

        [d(g), d(h)] = (h - g) d(g+h) + delta(g, -h) (g^3 - g)/12 CD
        [d(g), I(h)] = h I(g+h)       + delta(g, -h) (g^2 + g)    CDI
        [I(g), I(h)] = g delta(g, -h) CI
    """
    g, h = a.index, b.index
    delta = g + h == 0
    if a.kind == "d" and b.kind == "d":
        return [(d(g + h), h - g)] + ([(CD, (g ** 3 - g) / 12)] if delta else [])
    if a.kind == "d":
        return [(I(g + h), h)] + ([(CDI, g ** 2 + g)] if delta else [])
    if b.kind == "d":
        return [(key, -c) for key, c in reference_basis_bracket(b, a)]
    return [(CI, g)] if delta else []


def reference_bracket(x, y):
    """Oracle for ``bracket`` on ``ReferenceElement``s, summing
    ``reference_basis_bracket`` into a dict."""
    acc = {}
    for k1, c1 in x._terms.items():
        if k1.is_central:
            continue
        for k2, c2 in y._terms.items():
            if k2.is_central:
                continue
            scale = c1 * c2
            for key, coeff in reference_basis_bracket(k1, k2):
                acc[key] = acc.get(key, 0) + scale * coeff
    return ReferenceElement(acc)


def reference_jacobiator(x, y, z):
    return (reference_bracket(x, reference_bracket(y, z))
            + reference_bracket(y, reference_bracket(z, x))
            + reference_bracket(z, reference_bracket(x, y)))


def reference_apply_phi(rescaling, x):
    """Oracle for ``apply_phi`` on a ``ReferenceElement``: one pass in
    storage order (central symbols first) through an ``add`` closure."""
    M = rescaling.scale
    exact = rescaling.variant == EXACT_CENTRAL
    acc = {}

    def add(key, coeff):
        acc[key] = acc.get(key, 0) + coeff

    for key, coeff in x._terms.items():
        if key.is_central:
            if not exact:
                raise CentralTermError(
                    "the centerless rescaling is undefined on central elements"
                )
            if key.kind == "CD":
                add(CD, coeff / M)
            elif key.kind == "CDI":
                add(CDI, coeff)
            else:
                add(CI, coeff * M)
            continue
        n = key.index
        if n.denominator != 1:
            raise IndexDomainError(
                "rescaling domain is integer indices, got %s" % n
            )
        if key.kind == "d":
            add(d(n / M), coeff * M)
            if exact and n == 0:
                add(CD, coeff * (M * M - 1) / (24 * M))
        else:
            add(I(n / M), coeff * M)
            if exact and n == 0:
                add(CDI, coeff * (1 - M))
    return ReferenceElement(acc)


def reference_proportionality(candidate, reference):
    """Oracle for ``_proportionality``: the ratio of every pair of entries
    over equal supports, in Fractions."""
    ce = candidate.entries
    re = reference.entries
    if not re or set(ce) != set(re):
        return None
    ratio = None
    for q, rv in re.items():
        r = ce[q] / rv
        if ratio is None:
            ratio = r
        elif ratio != r:
            return None
    return ratio


def reference_align_extension(reference, candidate):
    """Oracle for ``align_extension`` through ``reference_proportionality``."""
    reference = dict(reference)
    candidate = dict(candidate)
    overlap = sorted(set(reference) & set(candidate))
    if len(overlap) < 2:
        raise DisjointOverlapError(
            "need at least 2 shared indices to attest a constant, got %d" % len(overlap)
        )
    params_set = {v.params for v in candidate.values()} | {
        reference[q].params for q in overlap
    }
    if len(params_set) != 1:
        raise GroupMismatchError("reference and candidate mix module parameters")
    params = params_set.pop()
    if params.f == 0:
        raise ValueError("alignment requires a nonzero I-eigenvalue")
    constant = None
    for q in overlap:
        ratio = reference_proportionality(candidate[q], reference[q])
        if ratio is None or ratio == 0:
            raise NonConstantScalingError(
                "candidate at index %s is not a rescaling of the reference" % q
            )
        if constant is None:
            constant = ratio
        elif ratio != constant:
            raise NonConstantScalingError(
                "scale at index %s is %s, expected the constant %s"
                % (q, ratio, constant)
            )
    rescaled = {q: candidate[q] * (1 / constant) for q in sorted(candidate)}
    indices = sorted(rescaled)
    for q in indices:
        for t in indices:
            p = t - q
            expected_d = d_coefficient(params.alpha, params.beta, q, p)
            if act(params, d(p), rescaled[q]) != expected_d * rescaled[t]:
                raise ValueError(
                    "candidate violates the d-action relation from %s to %s" % (q, t)
                )
            if act(params, I(p), rescaled[q]) != params.f * rescaled[t]:
                raise ValueError(
                    "candidate violates the I-action relation from %s to %s" % (q, t)
                )
    return rescaled


def reference_profile(group):
    """Lower bounds on p-adic valuations of the nonzero elements, from a
    full factorization of a cyclic generator.

    Primes absent from the map are bounded by 0; a bound of -inf means the
    denominator exponent at that prime is unrestricted.
    """
    if isinstance(group, Cyclic):
        a = group.generator
        prof = dict(_factorint(a.numerator))
        for p, e in _factorint(a.denominator).items():
            prof[p] = -e
        return prof
    return {p: (-inf if e == inf else -e) for p, e in group.exponents}


def reference_from_profile(profile):
    bounds = {p: b for p, b in profile.items() if b != 0}
    if all(b != -inf for b in bounds.values()):
        gen = Fraction(1)
        for p, b in bounds.items():
            gen *= Fraction(p) ** b
        return Cyclic(gen)
    # a bound of -inf only survives when both operands allow it, and then
    # every other bound is <= 0, so the supernatural form is always legal
    assert all(b <= 0 for b in bounds.values())
    return supernatural({p: (inf if b == -inf else -b) for p, b in bounds.items()})


def reference_subgroup_sum(g, h):
    """Oracle for ``subgroup_sum``: the pointwise minimum of the valuation
    profiles of cyclic and supernatural groups."""
    if isinstance(g, FullQ) or isinstance(h, FullQ):
        return FULL_Q
    if isinstance(g, Trivial):
        return h
    if isinstance(h, Trivial):
        return g
    pg, ph = reference_profile(g), reference_profile(h)
    return reference_from_profile(
        {p: min(pg.get(p, 0), ph.get(p, 0)) for p in set(pg) | set(ph)})


def reference_subgroup_intersect(g, h):
    """Oracle for ``subgroup_intersect``: the pointwise maximum of the
    valuation profiles of cyclic and supernatural groups."""
    if isinstance(g, Trivial) or isinstance(h, Trivial):
        return TRIVIAL
    if isinstance(g, FullQ):
        return h
    if isinstance(h, FullQ):
        return g
    pg, ph = reference_profile(g), reference_profile(h)
    return reference_from_profile(
        {p: max(pg.get(p, 0), ph.get(p, 0)) for p in set(pg) | set(ph)})


# The value classes as they were written with dataclasses: the oracles
# for equality, hash, repr, str, validation, immutability and pickling of
# the __slots__ classes that replaced them.  Each keeps its fields, its
# checks and its str; a Reference prefix on the class name is all that
# tells their repr apart.


class ReferenceSubgroupSpec:
    __slots__ = ()


@dataclass(frozen=True)
class ReferenceTrivial(ReferenceSubgroupSpec):
    def __str__(self):
        return "0"


@dataclass(frozen=True)
class ReferenceCyclic(ReferenceSubgroupSpec):
    generator: Fraction

    def __post_init__(self):
        gen = as_fraction(self.generator)
        if gen <= 0:
            raise ValueError("cyclic generator must be positive")
        object.__setattr__(self, "generator", gen)

    def __str__(self):
        return "cyclic:%s" % self.generator


@dataclass(frozen=True)
class ReferenceSupernatural(ReferenceSubgroupSpec):
    exponents: tuple

    def __post_init__(self):
        items = tuple(self.exponents)
        if not items:
            raise ValueError("supernatural spec needs at least one prime")
        primes = [p for p, _ in items]
        if primes != sorted(set(primes)):
            raise ValueError("supernatural primes must be distinct and sorted")
        _check_prime_powers(items)
        if all(e != inf for _, e in items):
            raise ValueError("all-finite exponent maps are cyclic; use supernatural()")
        object.__setattr__(self, "exponents", items)

    def __str__(self):
        parts = ["%d^%s" % (p, "inf" if e == inf else e) for p, e in self.exponents]
        return "sn:" + ",".join(parts)


@dataclass(frozen=True)
class ReferenceFullQ(ReferenceSubgroupSpec):
    def __str__(self):
        return "Q"


@dataclass(frozen=True)
class ReferenceBasisKey:
    kind: str
    index: Fraction = None

    def __post_init__(self):
        if self.kind in _CENTRAL_KINDS:
            if self.index is not None:
                raise ValueError("central symbols carry no index")
        elif self.kind in ("d", "I"):
            object.__setattr__(self, "index", as_fraction(self.index))
        else:
            raise ValueError("unknown basis symbol kind %r" % (self.kind,))

    def __str__(self):
        if self.index is None:
            return self.kind
        return "%s(%s)" % (self.kind, self.index)


@dataclass(frozen=True)
class ReferenceRescalingMap:
    m: int
    variant: str = EXACT_CENTRAL

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError("rescaling order must be a positive integer")
        if self.m > MAX_FACTORIAL_ORDER:
            raise ValueError(
                "rescaling order %d exceeds the cap of %d" % (self.m, MAX_FACTORIAL_ORDER)
            )
        if self.variant not in (CENTERLESS, EXACT_CENTRAL):
            raise ValueError("variant must be %r or %r" % (EXACT_CENTRAL, CENTERLESS))


@dataclass(frozen=True)
class ReferenceModuleParams:
    alpha: Fraction
    beta: Fraction
    f: Fraction
    group: SubgroupSpec

    def __post_init__(self):
        if not isinstance(self.group, SubgroupSpec):
            raise TypeError("group must be a subgroup spec")
        if isinstance(self.group, Trivial):
            raise ValueError("module index group must be nonzero")
        object.__setattr__(self, "alpha", normalize_alpha(self.alpha, self.group))
        object.__setattr__(self, "beta", as_fraction(self.beta))
        object.__setattr__(self, "f", as_fraction(self.f))

    def __str__(self):
        return "%s,%s,%s@%s" % (self.alpha, self.beta, self.f, self.group)


@dataclass(frozen=True)
class ReferenceClassification:
    verdict: str
    subquotient_note: str


@dataclass(frozen=True)
class ReferenceIndexPredicate:
    kind: str  # "zero-only" or "nonzero"

    def __post_init__(self):
        if self.kind not in ("zero-only", "nonzero"):
            raise ValueError("unknown predicate kind %r" % (self.kind,))

    def __str__(self):
        return "index = 0" if self.kind == "zero-only" else "index != 0"


@dataclass(frozen=True)
class ReferenceWindow:
    group: Cyclic
    bound: int

    def __post_init__(self):
        if not isinstance(self.group, Cyclic):
            raise ValueError("windows require a cyclic index group, got %s" % self.group)
        if not isinstance(self.bound, int) or self.bound < 1:
            raise ValueError("window bound must be a positive integer")
        if self.bound > MAX_WINDOW_BOUND:
            raise ValueError(
                "window bound %d exceeds the cap of %d" % (self.bound, MAX_WINDOW_BOUND)
            )

    def __str__(self):
        return "%s:%d" % (self.group, self.bound)
