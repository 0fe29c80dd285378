"""Shared test utilities: seeded random rationals and module parameters,
the Fraction-dict oracle for weight vectors and the module action, and
the exact-elimination oracle for the window engine."""

import random
from fractions import Fraction

from hvir import (
    Cyclic,
    GroupMismatchError,
    I,
    ModuleParams,
    NotIntermediateSeriesError,
    SubalgebraError,
    Subspace,
    VERDICT_CODIM_ONE,
    VERDICT_IRREDUCIBLE,
    VERDICT_TRIVIAL_SUB,
    as_fraction,
    contains,
    d,
    is_subgroup,
)
from hvir.algebra import _as_element


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

    def __init__(self, params, entries=(), _trusted=False):
        if not isinstance(params, ModuleParams):
            raise TypeError("params must be ModuleParams")
        items = entries.items() if isinstance(entries, dict) else entries
        acc = {}
        for index, coeff in items:
            index = as_fraction(index)
            coeff = as_fraction(coeff)
            if coeff == 0:
                continue
            if not _trusted and not reference_contains(params.group, index):
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
    for key, c in x._terms.items():
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


def reference_closure(params, window, seeds):
    """Oracle for ``closure`` by exact elimination, with no use of d(0)
    separating the basis lines.

    Inserts the seeds (index -> coefficient maps) into a ``Subspace``,
    then applies every d(g) and I(g) with g in ``window.steps()`` to every
    echelon row through ``reference_act``, clips each image to the window
    and inserts it, until no insertion grows the span.
    """
    if not is_subgroup(window.group, params.group):
        raise GroupMismatchError("window group is not inside the module group")
    sub = Subspace(params)
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
