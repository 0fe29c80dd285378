"""Finite-window analysis of the intermediate-series modules.

A window is a symmetric slice {n*a : |n| <= bound} of a cyclic index
group: a ``Window``, defined in ``hvir.groups`` beside its cap
``MAX_WINDOW_BOUND`` and exported here.  Within a window the engine
computes exact submodule closures as the basis lines reachable from the
seeds, scans for reducibility, decomposes restrictions into cosets,
checks shift intertwiners, recovers module parameters from abstract
action tables, and aligns rescaled bases.  Action tables are keyed by
ints: the entry (r, g, n) -> (m, (num, den)) says that d(g*step) (r = 0)
or I(g*step) (r = 1) sends the basis vector at n*step to num/den times
the one at m*step, with the coefficient a reduced integer pair, den > 0.
``BasisKey`` and ``Fraction`` appear only at the edges: in a table's
input and its ``entries``, and in printed names and messages.  Every
integer evaluation of the d-action, in the scan's reachability, the
table builder, the intertwiner check and recovery, calls
``d_coefficient`` on the integer form of
:func:`hvir.intermediate._integer_action`.  Table builders walk (source,
target) pairs of window positions, and the series table computes the
coefficient at source 0 of each of the 4B+1 steps once.
Recovery first grades every entry as m - n == g and names the ungraded
entry that comes first in printed order, then sorts the entries in one
pass and compares each once, as an edge of a scale chain of integer
pairs; intertwiner checks compare each pair of window positions once, in
integers.

Generator applications are truncated to the window: a term whose target
index leaves the window is dropped, so truncation never invents
reachability.  d(0) acts diagonally with the distinct eigenvalues
alpha + q, so an invariant subspace is the span of the basis lines it
meets.  A closure is therefore the span of the lines reachable from the
seeds' supports along nonzero window actions, and on such a span the
truncated and exact actions agree.  ``Subspace`` keeps exact reduced
row echelon spans of arbitrary vectors, with integer-form
``WeightVector`` rows and ``WeightVector`` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, product
from math import gcd, isqrt

from . import _ANALYSIS_NAMES
from .algebra import _KINDS, _RANK, CENTERLESS, BasisKey, I, RescalingMap, apply_phi, d
from .errors import (
    AmbiguousTableError,
    DisjointOverlapError,
    GroupMismatchError,
    NonConstantScalingError,
    NotIntermediateSeriesError,
    SubalgebraError,
)
from .groups import (INTEGERS, MAX_WINDOW_BOUND, Cyclic, Trivial, Window, _multiple, _reduced,
                     _require_count, as_fraction, contains, is_subgroup)
from .intermediate import (
    Classification,
    ModuleParams,
    VERDICT_CODIM_ONE,
    VERDICT_IRREDUCIBLE,
    VERDICT_TRIVIAL_SUB,
    WeightVector,
    _integer_action,
    _require_qk,
    _require_same_group,
    act,
    d_coefficient,
)

__all__ = list(_ANALYSIS_NAMES)


# Largest window bound of a built action table.  The table builders do
# O(B^2) work and make O(B^2) entries: at B = 64 a transported table
# takes about 0.7 s and 12 MB, a quarter of its cost at B = 128, on a
# 2-vCPU host under Python 3.11.  Tables read from text are bounded by
# their input instead.
MAX_TABLE_BOUND = 64


class Subspace:
    """Exact span of weight vectors in reduced row echelon form.

    Rows are the canonical integer-form ``WeightVector``s of the span,
    keyed by their pivot index (the smallest index with a nonzero
    coefficient).  Pivots are normalized to 1 and eliminated from every
    other row, so the stored basis is the canonical one for the span
    regardless of insertion order.

    ``insert`` and ``contains`` take a ``WeightVector`` of the same
    module parameters, or a plain dict, which is checked as
    ``WeightVector(params, ...)`` checks it.
    """

    def __init__(self, params):
        self.params = params
        self._rows = {}  # pivot index -> WeightVector, 1 at its pivot

    @property
    def dimension(self):
        return len(self._rows)

    def pivots(self):
        return sorted(self._rows)

    def _vector(self, vector):
        if not isinstance(vector, WeightVector):
            return WeightVector(self.params, dict(vector))
        if vector.params != self.params:
            raise GroupMismatchError("vector belongs to different module parameters")
        return vector

    def _reduce(self, vector):
        # each row is zero at every other pivot, so subtracting one row
        # leaves the coefficients at the other pivots as they were
        for q, c in vector.entries.items():
            row = self._rows.get(q)
            if row is not None:
                vector = vector - c * row
        return vector

    def insert(self, vector):
        """Add a vector to the span; returns True when the dimension grew."""
        remainder = self._reduce(self._vector(vector))
        if not remainder:
            return False
        # entries are sorted by index, so the first one is the pivot
        pivot, lead = next(iter(remainder.entries.items()))
        row = remainder * (1 / lead)
        for q, other in self._rows.items():
            c = other.coefficient(pivot)
            if c:
                self._rows[q] = other - c * row
        self._rows[pivot] = row
        return True

    def contains(self, vector):
        return not self._reduce(self._vector(vector))

    @property
    def echelon_basis(self):
        return [self._rows[p] for p in self.pivots()]

    def row_entries(self):
        return [self._rows[p].entries for p in self.pivots()]

    def is_pure_basis(self):
        """True when every row is a single basis vector."""
        return all(row.entries == {p: 1} for p, row in self._rows.items())

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.params == other.params and self._rows == other._rows

    def __repr__(self):
        return "Subspace(dim=%d, pivots=%s)" % (self.dimension, self.pivots())


def _require_window_inside(params, window):
    if not is_subgroup(window.group, params.group):
        raise GroupMismatchError(
            "window group %s is not inside the module group %s"
            % (window.group, params.group)
        )


def _adjacency(params, window):
    """One-step reachability between window positions, one bitmask each.

    Position n + bound holds the index n*step.  From it, I reaches every
    position when f != 0, and d reaches the position m unless the
    coefficient vanishes.  P times that coefficient is
    d_coefficient(alpha_P, beta_P, n*Q, m - n) (see
    :func:`_integer_action`), which is linear in m with slope beta_P, so
    each row loses at most one target, or all of them when beta_P == 0
    and the value is 0.  By Bezout no row loses a target unless
    gcd(Q, beta_P) divides alpha_P.
    """
    bound = window.bound
    full = (1 << window.size) - 1
    rows = [full] * window.size
    _, alpha_P, beta_P, Q = _integer_action(params.alpha, params.beta, window.step)
    if params.f or alpha_P % gcd(Q, beta_P):
        return rows
    for n in range(-bound, bound + 1):
        # the value at m = 0; the zero lies at m = value / -beta_P
        value = d_coefficient(alpha_P, beta_P, n * Q, -n)
        if beta_P:
            m, r = divmod(value, -beta_P)
            if not r and -bound <= m <= bound:
                rows[n + bound] ^= 1 << (m + bound)
        elif not value:
            rows[n + bound] = 0
    return rows


def _reach(adjacency, start):
    """Bitmask of the positions reachable from the positions in ``start``."""
    full = (1 << len(adjacency)) - 1
    reached = frontier = start
    while frontier and reached != full:
        grown = reached
        # stop as soon as everything is reached: rows that each miss one
        # target fill the window after a few of them
        while frontier and grown != full:
            low = frontier & -frontier
            grown |= adjacency[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & ~reached
        reached = grown
    return reached


def closure(params, window, seeds):
    """Smallest window-truncated invariant subspace containing the seeds.

    d(0) acts diagonally with the distinct eigenvalues alpha + q, so every
    invariant subspace is the span of the basis lines it meets, and it
    contains each basis line in the support of each seed.  The closure is
    therefore the span of the lines reachable from the seeds' supports
    along nonzero generator actions whose source and target both stay
    inside the window; its echelon rows are those pure basis vectors.
    """
    _require_window_inside(params, window)
    bound = window.bound
    span = range(-bound, bound + 1)
    start = 0
    for seed in seeds:
        if isinstance(seed, WeightVector):
            if seed.params != params:
                raise GroupMismatchError("seed belongs to different module parameters")
            entries = seed.entries
        else:
            entries = {as_fraction(q): as_fraction(c) for q, c in dict(seed).items()}
        for q, c in entries.items():
            # an index off the step's multiples has a non-integer position
            n = window._position(q)
            if n not in span:
                raise ValueError("seed index %s lies outside the window" % q)
            if c:
                start |= 1 << (n + bound)
    reached = _reach(_adjacency(params, window), start)
    sub = Subspace(params)
    # the line at position n is v(n*step), in integer form
    L, k = window.step.denominator, window.step.numerator
    for n, q in zip(span, window.indices()):
        if reached >> (n + bound) & 1:
            sub._rows[q] = WeightVector._canonical(params, L, 1, {n * k: 1})
    return sub


def scan_details(params, window):
    """Closure dimensions from every singleton seed plus the verdict.

    Returns ``(classification, dims, proper_pivots)`` where ``dims`` maps
    each window index to the dimension of the closure of its basis vector,
    in window order (the CLI prints it as it comes), and ``proper_pivots``
    lists the basis indices of the distinguished proper closure when one
    exists: that of the first seed whose closure is one line, else of the
    first whose closure misses one line.  Each closure is the set of basis
    lines reachable from the seed (see :func:`closure`); the window's
    reachability is built once and shared by all seeds.  ``dims`` is
    built from the indices the window stored when it was built (see
    ``Window._tabulate``), so a scan constructs no ``Fraction`` and hashes
    only the indices whose closure dimension is not the most frequent
    one.  Only a window scanned more than once gains from this: building
    the window does that index work once.
    """
    if window.bound < 2:
        raise ValueError("scan windows need bound >= 2 to distinguish verdicts")
    _require_window_inside(params, window)
    indices = window.indices()
    size = window.size
    adjacency = _adjacency(params, window)
    # a seed reaches itself and what its adjacency row reaches, and the
    # rows take few distinct values (one, in the codimension-1 case)
    reaches = {}
    masks = []
    for i, row in enumerate(adjacency):
        if row not in reaches:
            reaches[row] = _reach(adjacency, row)
        masks.append(reaches[row] | 1 << i)
    sizes = list(map(int.bit_count, masks))
    dims = window._tabulate(sizes)
    for verdict, dim, wording in (
        (VERDICT_TRIVIAL_SUB, 1, "stays one-dimensional inside"),
        (VERDICT_CODIM_ONE, size - 1, "spans all but one basis line of"),
    ):
        if dim in sizes:
            i = sizes.index(dim)
            mask = masks[i]
            note = "closure of the seed at index %s %s a window of size %d" % (
                indices[i], wording, size)
            pivots = [q for j, q in enumerate(indices) if mask >> j & 1]
            return Classification(verdict, note), dims, pivots
    if sizes.count(size) != size:
        last = max(i for i, dim in enumerate(sizes) if dim != size)
        raise NotIntermediateSeriesError(
            "closure of the seed at index %s matches no known verdict" % indices[last]
        )
    note = "every singleton seed generates the full window span"
    return Classification(VERDICT_IRREDUCIBLE, note), dims, None


def reducibility_scan(params, window):
    """Empirical reducibility verdict from singleton-seed closures."""
    classification, _, _ = scan_details(params, window)
    return classification


def restriction_report(params, subgroup, window):
    """Partition the window into cosets of a cyclic subgroup.

    Each coset with representative q carries the restricted module with
    parameters (alpha + q, beta, f) over the subgroup.  Representatives
    are the smallest non-negative members of the coset within the window
    (falling back to the largest negative member when the window misses
    the non-negative part).
    """
    if window.group != params.group:
        raise GroupMismatchError("window must live on the module's index group")
    if isinstance(subgroup, Trivial):
        raise GroupMismatchError("restriction needs a nonzero subgroup")
    if not is_subgroup(subgroup, params.group):
        raise GroupMismatchError(
            "%s is not a subgroup of %s" % (subgroup, params.group)
        )
    # a nonzero subgroup of a cyclic group is cyclic
    assert isinstance(subgroup, Cyclic)
    a, bound = window.step, window.bound
    k = _multiple(subgroup.generator, a)
    # residue r mod k is represented by r when r <= bound and by r - k
    # otherwise; the representatives of the residues the window meets
    # form one range of n
    report = []
    for n in range(min(0, max(-bound, bound + 1 - k)), min(bound, k - 1) + 1):
        rep = n * a
        report.append(
            (rep, ModuleParams(params.alpha + rep, params.beta, params.f, subgroup))
        )
    return report


def intertwiner_check(p1, p2, shift, window, scales=None):
    """Whether mapping the basis vector at q to c(q) times the target
    basis vector at q - shift commutes with every window generator action.

    ``scales`` maps each window index q to the nonzero c(q), as in
    :func:`intermediate_series_table`; without it c is 1.  The check
    covers all pairs of sources q and targets t whose shifted images
    q - shift and t - shift also lie inside the window and compares the
    exact coefficients of d(t - q) and I(t - q) on both sides, as
    integers over the denominators of :func:`_integer_action`; the
    I-coefficients force the I-eigenvalues to agree.  Returns False when
    fewer than two such indices exist, since no off-diagonal comparison
    can then attest anything.
    """
    _require_same_group(p1, p2)
    _require_window_inside(p1, window)
    shift = as_fraction(shift)
    if not contains(p1.group, shift):
        raise SubalgebraError("shift %s lies outside the group %s" % (shift, p1.group))
    c = _scale_factors(window, scales)
    # with shift = s*step, the sources q with q - shift in the window are
    # a run of 2B + 1 - |s| positions; no source exists otherwise
    s = _multiple(shift, window.step)
    bound = window.bound
    if p1.f != p2.f or s is None or abs(s) >= 2 * bound:
        return False
    run = range(max(-bound, s - bound), min(bound, s + bound) + 1)
    P1, alpha1, beta1, Q1 = _integer_action(p1.alpha, p1.beta, window.step)
    P2, alpha2, beta2, Q2 = _integer_action(p2.alpha, p2.beta, window.step)
    for n, m in product(run, run):
        # from q = n*step to t = m*step: coeff1 * c(t) == c(q) * coeff2
        (an, ad), (bn, bd) = c[n + bound], c[m + bound]
        if (d_coefficient(alpha1, beta1, n * Q1, m - n) * P2 * bn * ad
                != d_coefficient(alpha2, beta2, (n - s) * Q2, m - n) * P1 * an * bd
                or p1.f and bn * ad != an * bd):
            return False
    return True


class ActionTable:
    """Sparse window presentation of a weight-graded action.

    Entries map ``(generator, source index)`` to ``(target index,
    coefficient)``; at most one target per pair, matching modules whose
    weight spaces are one-dimensional.  Zero coefficients are dropped on
    input, and an absent entry is unknown, not 0: :func:`recover_params`
    accepts partial tables on purpose and fits only the entries present,
    so a coefficient given as 0 constrains nothing.

    Entries are held in ints, by window position, each coefficient as a
    reduced integer pair: ``{(r, g, n): (m, (num, den))}`` for the
    generator d(g*step) (r = 0) or I(g*step) (r = 1) at the source
    n*step, with the target m*step, gcd(num, den) == 1 and den > 0, so
    equal tables have equal entries and the table path hashes and
    compares ints.  A generator index off the step's multiples has the
    non-integer ``Fraction`` position g, as a source does in
    :meth:`Window._position`.  ``BasisKey``s and ``Fraction`` indices
    and coefficients appear only at the edges: in the input to
    ``ActionTable(window, entries)``, which converts each entry's
    generator, in ``entries``, and in printed names and messages.
    Each coefficient keeps its own denominator: a common one would make
    every entry as long as the product of all of them.

    ``ActionTable(window, entries)`` checks every entry with
    :func:`_checked_entries`; the internal constructor ``_trusted`` takes
    int-keyed entries with reduced pairs and checks nothing, and is for
    the table builders, whose entries are valid by construction, and for
    ``parse_table``, which checks its entries with the same function.
    """

    def __init__(self, window, entries):
        if not isinstance(window, Window):
            raise TypeError("expected a Window")
        at = window._position
        self.window = window
        self._entries = _checked_entries(window, (
            ((*_generator(window, key), at(src)), (at(tgt), as_fraction(coeff).as_integer_ratio()))
            for (key, src), (tgt, coeff) in dict(entries).items()
        ))

    @classmethod
    def _trusted(cls, window, entries):
        self = object.__new__(cls)
        self.window = window
        self._entries = entries
        return self

    @property
    def entries(self):
        indices, bound = self.window.indices(), self.window.bound
        keys = cache(lambda r, g: _generator_key(self.window, r, g))
        return {(keys(r, g), indices[n + bound]): (indices[m + bound], Fraction(*coeff))
                for (r, g, n), (m, coeff) in self._entries.items()}

    def __len__(self):
        return len(self._entries)

    def __eq__(self, other):
        if not isinstance(other, ActionTable):
            return NotImplemented
        return self.window == other.window and self._entries == other._entries

    def __repr__(self):
        return "ActionTable(%s, %d entries)" % (self.window, len(self._entries))


def _generator(window, key):
    """The (r, g) of a table generator: r = 0 for d(g*step) and r = 1 for
    I(g*step), with g the window position of the index.  Any other key
    gets r = 2 and g = the key itself, which :func:`_checked_entries`
    refuses."""
    if isinstance(key, BasisKey) and not key.is_central:
        return _RANK[key.kind], window._position(key.index)
    return 2, key


def _generator_key(window, r, g):
    """The key of the generator (r, g), for names and messages; the index
    is built as in :meth:`Window._multiples`, also for a non-integer g."""
    num, den = window.step.numerator, window.step.denominator
    return BasisKey(_KINDS[r], Fraction(g * num, den)) if r < 2 else g


def _checked_entries(window, items):
    """The one check of table entries, as ``((r, g, n), (m, (num, den)))``
    items (see :func:`_generator`): the generator is a d or I symbol,
    source and target lie in the window, and zero coefficients are
    dropped.  Returns the int-keyed entries."""
    span = range(-window.bound, window.bound + 1)
    data = {}
    for (r, g, n), (m, coeff) in items:
        if r > 1:
            raise ValueError("table generators must be d(...) or I(...) symbols")
        # a position off the step's multiples is a non-integer Fraction,
        # which no int of the span equals
        if n not in span or m not in span:
            raise ValueError("table entry %s: %s -> %s leaves the window"
                             % (_generator_key(window, r, g), n * window.step, m * window.step))
        if coeff[0]:
            data[r, g, n] = (m, coeff)
    return data


def _printed_order(window, items):
    """``(name, g, source, target, coefficient)`` rows of int-keyed table
    items, sorted by the printed generator ``name``, then the source
    position; a per-call ``functools.cache`` prints each distinct
    generator once, through ``BasisKey.__str__``."""
    names = cache(lambda r, g: str(_generator_key(window, r, g)))
    # one name is one generator, so rows differ by the source at the latest
    return sorted((names(r, g), g, n, m, coeff) for (r, g, n), (m, coeff) in items)


def _scale_factors(window, scales):
    """The scale c(q) of each window position as a reduced integer pair,
    in a list indexed by position + bound; every c(q) is 1 when
    ``scales`` is None."""
    if scales is None:
        return [(1, 1)] * window.size
    c = {as_fraction(q): as_fraction(v) for q, v in dict(scales).items()}
    if any(v == 0 for v in c.values()):
        raise ValueError("scale factors must be nonzero")
    indices = window.indices()
    missing = [q for q in indices if q not in c]
    if missing:
        raise ValueError("scale factor missing for index %s" % missing[0])
    return [c[q].as_integer_ratio() for q in indices]


def intermediate_series_table(params, window, scales=None):
    """Action table of the module on a window of its own index group.

    ``scales`` optionally rescales the basis: with u(q) = c(q) v(q) the
    entry coefficients become coeff * c(source) / c(target).  The
    d-coefficient at source 0 of each of the 4B+1 steps g is computed
    once, as an integer over one denominator P; an entry adds its source
    to that base, multiplies by the scale ratio as a pair of integers and
    reduces the pair with one gcd.
    """
    _require_window_inside(params, window)
    bound = window.bound
    _require_count(bound, 1, MAX_TABLE_BOUND, "table window bound")
    c = _scale_factors(window, scales)
    fn, fd = params.f.as_integer_ratio()
    positions = range(-bound, bound + 1)
    P, alpha_P, beta_P, Q = _integer_action(params.alpha, params.beta, window.step)
    # steps[2B + g] is the step g = m - n from position n to position m,
    # with P times its coefficient at position 0
    steps = [(g, d_coefficient(alpha_P, beta_P, 0, g)) for g in range(-2 * bound, 2 * bound + 1)]
    entries = {}
    for n, (an, ad) in zip(positions, c):
        for m, (g, coeff), (bn, bd) in zip(positions, steps[bound - n:], c):
            # the scale ratio c(n)/c(m) is rn/rd
            rn, rd = an * bd, ad * bn
            num = (coeff + n * Q) * rn
            if num:
                entries[(0, g, n)] = (m, _reduced(num, P * rd))
            if fn:
                entries[(1, g, n)] = (m, _reduced(fn * rn, fd * rd))
    return ActionTable._trusted(window, entries)


def transported_table(params, m, bound):
    """Integer-indexed action table of a module over {n/m!} seen through
    the centerless rescaling of order m.

    The basis vector relabelled n is the module's vector at n/m!.  Each
    of the 2(4B+1) rescaled generators d(g), I(g) is applied exactly, once,
    to the sum of the window's basis vectors: its image at (n + g)/m!
    holds the coefficient from source n alone, read off the image's
    integer form as a numerator over the image's denominator and reduced
    with one gcd.
    """
    _require_qk(params, m, "transport")
    window_z = Window(INTEGERS, bound)
    _require_count(bound, 1, MAX_TABLE_BOUND, "table window bound")
    phi = RescalingMap(m, CENTERLESS)
    M = phi.scale.numerator
    positions = range(-bound, bound + 1)
    vector = WeightVector(params, {Fraction(n, M): 1 for n in positions})
    # images[r][2B + t - n] acts from position n to position t: for d(g)
    # (r = 0) and I(g) (r = 1), the numerators {source: c} and their
    # denominator
    images = ([], [])
    for g in range(-2 * bound, 2 * bound + 1):
        for r, key in enumerate((d(g), I(g))):
            image = act(params, apply_phi(phi, key), vector)
            # the image's index k/L is the target t/M, and L divides M
            scale = M // image._L
            images[r].append(({k * scale - g: c for k, c in image._num.items()}, image._D))
    entries = {}
    for n in positions:
        for t, *pair in zip(positions, images[0][bound - n:], images[1][bound - n:]):
            for r, (coeffs, D) in enumerate(pair):
                c = coeffs.get(n)
                if c:
                    entries[(r, t - n, n)] = (t, _reduced(c, D))
    return ActionTable._trusted(window_z, entries)


def _rational_sqrt(x):
    """The rational square root of x, or None when it has none."""
    if x >= 0:
        root = Fraction(isqrt(x.numerator), isqrt(x.denominator))
        if root * root == x:
            return root
    return None


def _chain_scales(window, edges):
    """Propagate scale factors along ratio edges from the window's first
    position, whose scale is 1; returns the scales as reduced integer
    pairs (num, den), den > 0, in a list indexed by position + bound.

    ``edges`` lists (source, target, ratio) triples of positions, ratio
    being c(source)/c(target) as a pair of nonzero integers (num, den)
    of either sign.  Each scale is gcd-reduced when it is first reached;
    every further edge is compared with it by cross-multiplication, so
    two entries on one pair of positions must agree.  Raises when the
    present edges do not connect the whole window.
    """
    bound = window.bound
    # adjacency[i] lists flat triples j, a, b with c(j) = c(i) * a/b
    adjacency = [[] for _ in range(window.size)]
    for n, m, (rn, rd) in edges:
        adjacency[n + bound] += m + bound, rd, rn
        adjacency[m + bound] += n + bound, rn, rd
    scales = [None] * window.size
    scales[0] = (1, 1)
    stack = [0]
    while stack:
        i = stack.pop()
        num, den = scales[i]
        for j, a, b in zip(*[iter(adjacency[i])] * 3):
            # c(j) = c(i) * a/b
            known = scales[j]
            if known is None:
                scales[j] = _reduced(num * a, den * b)
                stack.append(j)
            elif known[0] * den * b != known[1] * num * a:
                raise NotIntermediateSeriesError(
                    "inconsistent scale chain at index %s" % ((j - bound) * window.step)
                )
    if None in scales:
        raise AmbiguousTableError(
            "entries do not connect the window; index %s is unreachable"
            % ((scales.index(None) - bound) * window.step)
        )
    return scales


def _i_edges(i_steps, f):
    """The (source, target, ratio) edge of each I step: its coefficient
    over f, as a pair of integers.  The edges are made as the chain reads
    them, so a chain that raises leaves no list of them in the frames its
    traceback keeps alive."""
    fn, fd = f.as_integer_ratio()
    return ((n, m, (num * fd, den * fn)) for n, m, (num, den) in i_steps)


def _d_edges(d_steps, window, alpha, beta):
    """The (source, target, ratio) edge of each d step for the slope beta:
    its coefficient over the unscaled one, as a pair of integers.  P times
    the unscaled coefficient is d_coefficient(alpha_P, beta_P, n*Q, g)
    (see :func:`_integer_action`)."""
    P, alpha_P, beta_P, Q = _integer_action(alpha, beta, window.step)
    edges = []
    for g, n, m, (num, den) in d_steps:
        expected = d_coefficient(alpha_P, beta_P, n * Q, g)
        if expected == 0:
            raise NotIntermediateSeriesError(
                "entry %s at %s is nonzero where the action must vanish"
                % (_generator_key(window, 0, g), n * window.step)
            )
        edges.append((n, m, (num * P, den * expected)))
    return edges


def recover_params(table):
    """Read (alpha, beta, f) and per-index scale factors off an abstract
    action table with one-dimensional weight spaces.

    One pass checks the grading and a second sorts the entries: alpha
    comes from any d(0) eigenvalue minus its index, f from the I(0)
    eigenvalue, and every other entry is an edge of the scale chain whose
    ratio is its coefficient over the unscaled one.  The passes read
    window positions: an entry at source n is graded when its target is
    n plus the step multiple of its generator.  When f is
    nonzero and the I edges connect the window, they fix the scales, the
    first d step in printed order fixes beta, and each d edge is compared
    with the scales.  Otherwise beta is a root of the loop product of two
    opposite d steps, and each candidate root builds one chain over the I
    and d edges.  Both slope solves take the beta-free part of a
    coefficient from ``d_coefficient`` at beta = 0, so the action is
    written only there; the chain starts at the window's first index,
    with scale 1.  Either way the chain compares each entry once, also an
    I and a d entry on one pair of indices.

    The entries are keyed by ints, so an entry (r, g, n) -> m is graded
    when m - n == g, and the loop path finds the reverse step at
    (0, -g, m).  The edge ratios and the chain's scales are integer
    pairs: alpha is compared across the d(0) entries as a reduced pair,
    and ``Fraction`` is used only for the scalars alpha, beta and f, the
    loop path's discriminant, and the returned ``ModuleParams`` and
    scales dict.  The scales dict comes in window order, which the CLI
    prints as it comes.  Inconsistent tables raise
    NotIntermediateSeriesError, tables too sparse to determine the data
    raise AmbiguousTableError.  Equal tables raise the same error,
    whatever order their entries were inserted in: the grading error
    names the ungraded entry that comes first in printed order, and the
    I edges are chained in sorted order.
    """
    window = table.window
    entries = table._entries
    bound, step = window.bound, window.step
    index = dict(enumerate(window.indices(), -bound))
    sn, sd = step.as_integer_ratio()
    ungraded = min(((str(_generator_key(window, r, g)), n, m, g)
                    for (r, g, n), (m, _) in entries.items() if m - n != g), default=None)
    if ungraded is not None:
        name, n, m, g = ungraded
        raise NotIntermediateSeriesError(
            "entry %s at %s lands at %s; the grading requires %s"
            % (name, index[n], index[m], index[n] + g * step)
        )
    alphas, fs, i_steps, d_items = set(), set(), [], []
    for item in entries.items():
        (r, g, n), (m, coeff) = item
        if not r:
            if g:
                d_items.append(item)
            else:
                # alpha = num/den - n*sn/sd
                alphas.add(_reduced(coeff[0] * sd - n * sn * coeff[1], coeff[1] * sd))
        elif g:
            i_steps.append((n, m, coeff))
        else:
            fs.add(coeff)
    if not alphas:
        raise AmbiguousTableError("no d(0) entries; weight labels cannot be anchored")
    if len(alphas) != 1:
        raise NotIntermediateSeriesError("d(0) eigenvalues disagree about alpha")
    alpha = Fraction(*alphas.pop())
    if len(fs) > 1:
        raise NotIntermediateSeriesError("I(0) eigenvalues disagree")
    f = Fraction(*fs.pop()) if fs else Fraction(0)
    if f == 0 and i_steps:
        raise NotIntermediateSeriesError(
            "I entries present although the I(0) eigenvalue is absent"
        )

    i_steps.sort()
    try:
        scales = _chain_scales(window, _i_edges(i_steps, f)) if f else None
    except AmbiguousTableError:
        scales = None
    d_steps = [row[1:] for row in _printed_order(window, d_items)]
    if scales is not None and d_steps:
        g, n, m, coeff = d_steps[0]
        unscaled = Fraction(*coeff) * Fraction(*scales[m + bound]) / Fraction(*scales[n + bound])
        beta = (unscaled - d_coefficient(alpha, 0, index[n], g * step)) / (g * step)
        for n, m, (rn, rd) in _d_edges(d_steps, window, alpha, beta):
            # c(m) must be c(n) * rd/rn
            (an, ad), (bn, bd) = scales[n + bound], scales[m + bound]
            if bn * ad * rn != bd * an * rd:
                raise NotIntermediateSeriesError("inconsistent scale chain at index %s" % index[m])
        return ModuleParams(alpha, beta, f, window.group), _scales_dict(index, scales)

    # beta from a scale-free loop product of two opposite d steps; the
    # grading check makes the reverse step land back on the source
    for g, n, m, coeff in d_steps:
        back = entries.get((0, -g, m))
        if back is not None:
            break
    else:
        raise AmbiguousTableError("no d-generator data determines the coefficient slope")
    # the loop product is (a + p*beta)(a + p - p*beta) with a = alpha + q,
    # its beta-free part the product of the two coefficients at beta = 0
    p, q = g * step, index[n]
    loop = d_coefficient(alpha, 0, q, p) * d_coefficient(alpha, 0, q + p, -p)
    curvature = (Fraction(*coeff) * Fraction(*back[1]) - loop) / (p * p)
    disc = _rational_sqrt(1 - 4 * curvature)
    if disc is None:
        raise NotIntermediateSeriesError("loop products admit no rational coefficient slope")
    for beta in sorted({(1 - disc) / 2, (1 + disc) / 2}):
        try:
            edges = chain(_i_edges(i_steps, f), _d_edges(d_steps, window, alpha, beta))
            scales = _chain_scales(window, edges)
        except (NotIntermediateSeriesError, AmbiguousTableError) as exc:
            error = exc
            continue
        return ModuleParams(alpha, beta, f, window.group), _scales_dict(index, scales)
    raise error


def _scales_dict(index, scales):
    return {q: Fraction(*c) for q, c in zip(index.values(), scales)}


def _proportionality(candidate, reference):
    """The constant c with candidate == c * reference, if one exists."""
    if reference.is_zero():
        return None
    q, rv = next(iter(reference.entries.items()))
    ratio = candidate.coefficient(q) / rv
    return ratio if candidate == reference * ratio else None


def align_extension(reference, candidate):
    """Rescale a candidate basis to agree with a reference on the overlap.

    ``reference`` and ``candidate`` map indices to weight vectors of the
    same module, the candidate on a larger index set.  The scale factors
    candidate(q) = c(q) * reference(q) on the overlap must be one
    constant; the candidate divided by that constant is returned and its
    module relations are re-verified on the whole candidate index set.
    """
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
        ratio = _proportionality(candidate[q], reference[q])
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
    for q in rescaled:
        for t in rescaled:
            for key, coeff in ((d(t - q), d_coefficient(params.alpha, params.beta, q, t - q)),
                               (I(t - q), params.f)):
                if act(params, key, rescaled[q]) != coeff * rescaled[t]:
                    raise ValueError(
                        "candidate violates the %s-action relation from %s to %s"
                        % (key.kind, q, t)
                    )
    return rescaled
