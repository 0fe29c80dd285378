"""Sparse elements of the rational Heisenberg-Virasoro algebras.

The algebra indexed by an additive subgroup G of the rationals has basis
symbols ``d(g)`` and ``I(g)`` for g in G together with three central
elements ``CD``, ``CDI`` and ``CI``, and bracket

    [d(g), d(h)] = (h - g) d(g+h)  +  delta(g, -h) (g^3 - g)/12 CD
    [d(g), I(h)] = h I(g+h)        +  delta(g, -h) (g^2 + g)    CDI
    [I(g), I(h)] = g delta(g, -h) CI

with CD, CDI, CI bracketing to zero against everything.  Keeping only the
``d`` and ``CD`` symbols gives the Virasoro subalgebra; no separate code
path is needed for it.

An element is held in integers, as a ``WeightVector`` is, with no zero
coefficients, so equality is structural; its arithmetic, :func:`bracket`
and :func:`apply_phi` run on these integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm

from ._frozen import Frozen, set_field
from .errors import CentralTermError, IndexDomainError
from .groups import MAX_FACTORIAL_ORDER, SubgroupSpec, _require_count, as_fraction, contains

__all__ = [
    "BasisKey",
    "d",
    "I",
    "CD",
    "CDI",
    "CI",
    "AlgebraElement",
    "ZERO",
    "bracket",
    "jacobiator",
    "weight_components",
    "in_subalgebra",
    "RescalingMap",
    "CENTERLESS",
    "EXACT_CENTRAL",
    "apply_phi",
]

# the symbols by rank: sorted (rank, index) pairs give the one term
# order, used both to store and to print: d(g) by index, I(g) by index,
# then CD, CDI, CI
_KINDS = ("d", "I", "CD", "CDI", "CI")
_RANK = {kind: r for r, kind in enumerate(_KINDS)}
_CENTRAL_KINDS = _KINDS[2:]


class BasisKey(Frozen):
    __slots__ = ("kind", "index")

    def __init__(self, kind, index=None):
        if kind in _CENTRAL_KINDS:
            if index is not None:
                raise ValueError("central symbols carry no index")
        elif kind in ("d", "I"):
            index = as_fraction(index)
        else:
            raise ValueError("unknown basis symbol kind %r" % (kind,))
        set_field(self, "kind", kind)
        set_field(self, "index", index)

    @property
    def is_central(self):
        return self.index is None

    def __str__(self):
        if self.is_central:
            return self.kind
        return "%s(%s)" % (self.kind, self.index)


def d(g):
    return BasisKey("d", g)


def I(g):  # noqa: E743 - matches the element grammar atom I(...)
    return BasisKey("I", g)


CD = BasisKey("CD")
CDI = BasisKey("CDI")
CI = BasisKey("CI")


def _signed_terms(terms):
    """Print ``(symbol, coefficient)`` pairs as a signed sum such as
    ``-v(-1) + 2*v(1)``: a coefficient of magnitude 1 is left out, the
    first term carries its own sign, and an empty sum prints as ``0``."""
    parts = []
    for symbol, coeff in terms:
        mag = -coeff if coeff < 0 else coeff
        body = symbol if mag == 1 else "%s*%s" % (mag, symbol)
        if not parts:
            parts.append("-" + body if coeff < 0 else body)
        else:
            parts.append((" - " if coeff < 0 else " + ") + body)
    return "".join(parts) or "0"


class _IntegerSum:
    """A finite sum of terms (c/D) at indices k/L, held as ``_L``, ``_D``
    and a sorted dict ``_num`` from keys built on the numerators k (k
    itself for a vector, (rank, k) for an element) to the nonzero
    numerators c, gcd-reduced (zero has L = D = 1).

    The base of ``AlgebraElement`` and ``WeightVector``.  It holds the
    methods that never read a key: ``is_zero``, ``__bool__``,
    ``__neg__``, ``__mul__`` and ``__rmul__``.  Each subclass builds its
    own kind from an unreduced integer form with ``_like(L, D, num)``.
    """

    __slots__ = ("_L", "_D", "_num")

    def is_zero(self):
        return not self._num

    def __bool__(self):
        return bool(self._num)

    def __neg__(self):
        return self._like(self._L, self._D, {key: -c for key, c in self._num.items()})

    def __mul__(self, scalar):
        scalar = as_fraction(scalar)
        sn = scalar.numerator
        return self._like(self._L, self._D * scalar.denominator,
                          {key: sn * c for key, c in self._num.items()})

    __rmul__ = __mul__


class AlgebraElement(_IntegerSum):
    """Finite linear combination of basis symbols, held in integers as a
    ``WeightVector`` is, on the shared base ``_IntegerSum``, which holds
    ``is_zero``, ``__bool__``, ``__neg__`` and the scalar multiples.

    The term (c/D) at the symbol of rank r (0 to 4 for d, I, CD, CDI, CI)
    and index k/L, with k = 0 for central symbols, is the entry (r, k): c
    of a dict sorted in the term order.  No c is zero and L and D are
    gcd-reduced (the zero element has L = D = 1), so equal elements have
    equal fields.  Fractions appear only at the boundary: the
    constructor's input, ``terms``, ``coefficient`` and ``str``.
    """

    # _gens: the lazy generators below; _group: the last group object
    # found to hold all of the d and I indices (act's membership memo)
    __slots__ = ("_gens", "_group")

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        acc = {}
        for key, coeff in items:
            if not isinstance(key, BasisKey):
                raise TypeError("term keys must be BasisKey, got %r" % (key,))
            term = _RANK[key.kind], key.index or 0
            acc[term] = acc.get(term, 0) + as_fraction(coeff)
        L = lcm(*(q.denominator for _, q in acc))
        D = lcm(*(c.denominator for c in acc.values()))
        num = {(r, q.numerator * (L // q.denominator)): c.numerator * (D // c.denominator)
               for (r, q), c in acc.items()}
        self._set_canonical(L, D, num)

    @classmethod
    def _canonical(cls, L, D, num):
        # internal constructor from an unreduced integer form
        self = object.__new__(cls)
        self._set_canonical(L, D, num)
        return self

    def _like(self, L, D, num):
        return AlgebraElement._canonical(L, D, num)

    def _set_canonical(self, L, D, num):
        if 0 in num.values():
            num = {key: c for key, c in num.items() if c}
        if not num:
            L = D = 1
        else:
            gl = gcd(L, *(k for _, k in num))
            gc = gcd(D, *num.values())
            if gl != 1 or gc != 1 or len(num) > 1:
                L //= gl
                D //= gc
                num = {(r, k // gl): num[r, k] // gc for r, k in sorted(num)}
        self._L, self._D, self._num, self._gens, self._group = L, D, num, None, None

    def _generators(self):
        """``(gcd(k)/L, [(r, k, c) for each d and I term])``, made once: a
        subgroup holds all the indices k/L exactly when it holds gcd(k)/L."""
        if self._gens is None:
            gens = [(r, k, c) for (r, k), c in self._num.items() if r < 2]
            self._gens = Fraction(gcd(*(k for _, k, _ in gens)), self._L), gens
        return self._gens

    @classmethod
    def basis(cls, key, coeff=1):
        """coeff times one basis symbol, built directly in integer form."""
        if not isinstance(key, BasisKey):
            raise TypeError("term keys must be BasisKey, got %r" % (key,))
        q, c = key.index or 0, as_fraction(coeff)
        num = {(_RANK[key.kind], q.numerator): c.numerator}
        return cls._canonical(q.denominator, c.denominator, num)

    @property
    def terms(self):
        L, D = self._L, self._D
        return {BasisKey(_KINDS[r], Fraction(k, L) if r < 2 else None): Fraction(c, D)
                for (r, k), c in self._num.items()}

    def coefficient(self, key):
        return self.terms.get(key, Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self._L == other._L and self._D == other._D and self._num == other._num

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        L, D = lcm(self._L, other._L), lcm(self._D, other._D)
        acc = {}
        for x in (self, other):
            ks, cs = L // x._L, D // x._D
            for (r, k), c in x._num.items():
                acc[r, k * ks] = acc.get((r, k * ks), 0) + c * cs
        return AlgebraElement._canonical(L, D, acc)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + -other

    def central_part(self):
        num = {key: c for key, c in self._num.items() if key[0] > 1}
        return AlgebraElement._canonical(self._L, self._D, num)

    def without_central(self):
        num = {key: c for key, c in self._num.items() if key[0] < 2}
        return AlgebraElement._canonical(self._L, self._D, num)

    def __str__(self):
        return _signed_terms((str(key), c) for key, c in self.terms.items())

    def __repr__(self):
        return "AlgebraElement(%s)" % self


ZERO = AlgebraElement()


def _as_element(x):
    if isinstance(x, AlgebraElement):
        return x
    if isinstance(x, BasisKey):
        return AlgebraElement.basis(x)
    raise TypeError("expected an algebra element, got %r" % (x,))


def bracket(x, y):
    """Bilinear extension of the basis bracket; central terms die.

    It runs on integers over the common index denominator L.  With
    g = a/L and h = b/L, each formula of the module docstring times
    12 L^3 has integer coefficients, and [I(g), d(h)] is -[d(h), I(g)].
    """
    x, y = _as_element(x), _as_element(y)
    L = lcm(x._L, y._L)
    sx, sy = L // x._L, L // y._L
    T = 12 * L * L
    right = y._gens or y._generators()
    acc = {}
    for r, a, cx in (x._gens or x._generators())[1]:
        a *= sx
        for s, h, c in right[1]:
            g, h, c = a, h * sy, c * cx
            if r > s:
                g, h, c = h, g, -c
            # the coefficient at the rank-max(r,s) term of index g+h, and
            # at the central term of rank r+s+2 when g+h is 0
            if r != s:  # h I(g+h) + delta(g,-h) (g^2+g) CDI
                main, central = h * T, 12 * L * (g * g + g * L)
            elif r:  # g delta(g,-h) CI
                main, central = 0, g * T
            else:  # (h-g) d(g+h) + delta(g,-h) (g^3-g)/12 CD
                main, central = (h - g) * T, g * (g * g - L * L)
            if main:
                key = 1 if r or s else 0, g + h
                acc[key] = acc.get(key, 0) + c * main
            if central and g == -h:
                key = r + s + 2, 0
                acc[key] = acc.get(key, 0) + c * central
    return AlgebraElement._canonical(L, x._D * y._D * T * L, acc)


def jacobiator(x, y, z):
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]]; zero for every input."""
    return bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))


def weight_components(x):
    """Split an element into homogeneous pieces keyed by weight.

    ``d(g)`` and ``I(g)`` sit in weight g and central symbols in weight 0,
    so each component c at weight q satisfies bracket(d(0), c) == q*c.
    """
    x = _as_element(x)
    buckets = {}
    for (r, k), c in x._num.items():
        buckets.setdefault(k, {})[r, k] = c
    return {Fraction(k, x._L): AlgebraElement._canonical(x._L, x._D, num)
            for k, num in sorted(buckets.items())}


def in_subalgebra(x, group):
    """Whether every d/I index of ``x`` lies in ``group``.

    Central symbols belong to every subalgebra in the family.
    """
    if not isinstance(group, SubgroupSpec):
        raise TypeError("expected a subgroup spec, got %r" % (group,))
    return contains(group, _as_element(x)._generators()[0])


CENTERLESS = "centerless"
EXACT_CENTRAL = "exact"


class RescalingMap(Frozen):
    """Identification of the integer-indexed algebra with the one indexed
    by multiples of 1/m!, sending d(n) to m!*d(n/m!) and I(n) to
    m!*I(n/m!).

    The bare index rescaling fails to match the central cocycles, so two
    variants are provided: ``exact`` adds the unique central corrections
    that make the map a Lie homomorphism on the nose, while
    ``centerless`` applies the rescaling verbatim and is undefined on
    central elements (it is a homomorphism modulo the center).
    """

    __slots__ = ("m", "variant")

    def __init__(self, m, variant=EXACT_CENTRAL):
        _require_count(m, 1, MAX_FACTORIAL_ORDER, "rescaling order")
        if variant not in (CENTERLESS, EXACT_CENTRAL):
            raise ValueError("variant must be %r or %r" % (EXACT_CENTRAL, CENTERLESS))
        set_field(self, "m", m)
        set_field(self, "variant", variant)

    @property
    def scale(self):
        return Fraction(factorial(self.m))


def apply_phi(rescaling, x):
    """Apply a rescaling map to an integer-indexed element.

    Exact-central corrections: d(0) picks up (M^2-1)/(24M) CD and I(0)
    picks up (1-M) CDI with M = m!, while CD, CDI, CI map to CD/M, CDI
    and M*CI respectively.  These are the unique coefficients for which
    the rescaled bracket matches the bracket of the rescaled arguments,
    which the test suite checks exhaustively on basis pairs.
    """
    x = _as_element(x)
    exact = rescaling.variant == EXACT_CENTRAL
    # checked first: a central term is reported before any index error
    if not exact and any(r > 1 for r, _ in x._num):
        raise CentralTermError("the centerless rescaling is undefined on central elements")
    if x._L != 1:
        k = next(k for _, k in x._num if k % x._L)
        raise IndexDomainError("rescaling domain is integer indices, got %s" % Fraction(k, x._L))
    # times 24M, the index n goes to n/M and all coefficients are integers
    M = factorial(rescaling.m)
    scale = (24 * M * M, 24 * M * M, 24, 24 * M, 24 * M * M)
    corrections = (M * M - 1, 24 * M * (1 - M))
    acc = {}
    for (r, k), c in x._num.items():
        acc[r, k] = acc.get((r, k), 0) + c * scale[r]
        if exact and r < 2 and not k:
            acc[r + 2, 0] = acc.get((r + 2, 0), 0) + c * corrections[r]
    return AlgebraElement._canonical(M, x._D * 24 * M, acc)
