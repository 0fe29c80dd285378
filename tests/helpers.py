"""Shared test utilities: seeded random rationals and module parameters,
plus the exact-elimination oracle for the window engine."""

import random
from fractions import Fraction

from hvir import (
    GroupMismatchError,
    I,
    ModuleParams,
    NotIntermediateSeriesError,
    Subspace,
    VERDICT_CODIM_ONE,
    VERDICT_IRREDUCIBLE,
    VERDICT_TRIVIAL_SUB,
    WeightVector,
    act,
    d,
    is_subgroup,
)


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


def reference_closure(params, window, seeds):
    """Oracle for ``closure`` by exact elimination, with no use of d(0)
    separating the basis lines.

    Inserts the seeds (index -> coefficient maps) into a ``Subspace``,
    then applies every d(g) and I(g) with g in ``window.steps()`` to every
    echelon row, clips each image to the window and inserts it, until no
    insertion grows the span.
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
            vector = WeightVector(params, row)
            for key in generators:
                image = act(params, key, vector)
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
