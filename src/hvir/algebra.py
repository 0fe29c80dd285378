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

Elements are sparse maps from basis symbols to exact rational
coefficients; zero coefficients are never stored, so equality is
structural.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from ._frozen import Frozen, set_field
from .errors import CentralTermError, IndexDomainError
from .groups import MAX_FACTORIAL_ORDER, SubgroupSpec, as_fraction, contains

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

_CENTRAL_KINDS = ("CD", "CDI", "CI")
# the one term order, used both to store and to print: d(g) by index,
# I(g) by index, then CD, CDI, CI
_RANK = {"d": 0, "I": 1, "CD": 2, "CDI": 3, "CI": 4}


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


class AlgebraElement:
    """Finite linear combination of basis symbols, stored without zeros
    and in the term order, which is also the print order.

    The constructor is the one place that sums terms, drops zeros and
    orders keys; every operation below hands it its terms.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        acc = {}
        for key, coeff in items:
            if not isinstance(key, BasisKey):
                raise TypeError("term keys must be BasisKey, got %r" % (key,))
            coeff = as_fraction(coeff)
            if coeff:
                acc[key] = acc.get(key, 0) + coeff
        order = sorted(acc, key=lambda k: (_RANK[k.kind], k.index or 0))
        self._terms = {key: acc[key] for key in order if acc[key]}

    @classmethod
    def basis(cls, key, coeff=1):
        return cls([(key, coeff)])

    @property
    def terms(self):
        return dict(self._terms)

    def coefficient(self, key):
        return self._terms.get(key, Fraction(0))

    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return AlgebraElement([*self._terms.items(), *other._terms.items()])

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return self * -1

    def __mul__(self, scalar):
        scalar = as_fraction(scalar)
        return AlgebraElement({k: scalar * c for k, c in self._terms.items()})

    __rmul__ = __mul__

    def central_part(self):
        return AlgebraElement({k: c for k, c in self._terms.items() if k.is_central})

    def without_central(self):
        return AlgebraElement({k: c for k, c in self._terms.items() if not k.is_central})

    def __str__(self):
        return _signed_terms((str(key), c) for key, c in self._terms.items())

    def __repr__(self):
        return "AlgebraElement(%s)" % self


ZERO = AlgebraElement()


def _as_element(x):
    if isinstance(x, AlgebraElement):
        return x
    if isinstance(x, BasisKey):
        return AlgebraElement.basis(x)
    raise TypeError("expected an algebra element, got %r" % (x,))


def _basis_bracket(a, b):
    """Bracket of two non-central basis symbols as (key, coefficient) pairs."""
    g, h = a.index, b.index
    if a.kind == "d" and b.kind == "d":
        out = []
        if g != h:
            out.append((d(g + h), h - g))
        if g == -h:
            c = (g * g * g - g) / 12
            if c:
                out.append((CD, c))
        return out
    if a.kind == "d" and b.kind == "I":
        out = []
        if h:
            out.append((I(g + h), h))
        if g == -h:
            c = g * g + g
            if c:
                out.append((CDI, c))
        return out
    if a.kind == "I" and b.kind == "d":
        return [(key, -coeff) for key, coeff in _basis_bracket(b, a)]
    # I against I
    if g == -h and g:
        return [(CI, g)]
    return []


def bracket(x, y):
    """Bilinear extension of the basis bracket; central terms die."""
    x = _as_element(x)
    y = _as_element(y)
    return AlgebraElement(
        (key, c1 * c2 * coeff)
        for k1, c1 in x._terms.items() if not k1.is_central
        for k2, c2 in y._terms.items() if not k2.is_central
        for key, coeff in _basis_bracket(k1, k2)
    )


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
    for key, coeff in x._terms.items():
        weight = Fraction(0) if key.is_central else key.index
        buckets.setdefault(weight, []).append((key, coeff))
    return {w: AlgebraElement(items) for w, items in sorted(buckets.items())}


def in_subalgebra(x, group):
    """Whether every d/I index of ``x`` lies in ``group``.

    Central symbols belong to every subalgebra in the family.
    """
    if not isinstance(group, SubgroupSpec):
        raise TypeError("expected a subgroup spec, got %r" % (group,))
    x = _as_element(x)
    return all(key.is_central or contains(group, key.index) for key in x._terms)


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
        if not isinstance(m, int) or m < 1:
            raise ValueError("rescaling order must be a positive integer")
        if m > MAX_FACTORIAL_ORDER:
            raise ValueError(
                "rescaling order %d exceeds the cap of %d" % (m, MAX_FACTORIAL_ORDER)
            )
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
    if not exact and any(key.is_central for key in x._terms):
        raise CentralTermError("the centerless rescaling is undefined on central elements")
    return AlgebraElement(_phi_terms(x, rescaling.scale, exact))


def _phi_terms(x, M, exact):
    """The (key, coefficient) pairs of the rescaled image of ``x``."""
    central_scale = {"CD": 1 / M, "CDI": 1, "CI": M}
    for key, coeff in x._terms.items():
        n = key.index
        if n is None:
            yield key, coeff * central_scale[key.kind]
        elif n.denominator != 1:
            raise IndexDomainError("rescaling domain is integer indices, got %s" % n)
        elif key.kind == "d":
            yield d(n / M), coeff * M
            if exact and n == 0:
                yield CD, coeff * (M * M - 1) / (24 * M)
        else:
            yield I(n / M), coeff * M
            if exact and n == 0:
                yield CDI, coeff * (1 - M)
