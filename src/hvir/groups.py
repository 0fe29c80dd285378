"""Additive subgroups of the rationals with decidable membership.

Four canonical shapes cover everything this library needs:

* ``Trivial``       -- the zero group,
* ``Cyclic(a)``     -- all integer multiples of a positive rational ``a``,
* ``Supernatural``  -- all ``n/d`` whose denominator's prime powers are
                       bounded by a finite map ``prime -> exponent`` in
                       which at least one exponent is infinite,
* ``FullQ``         -- every rational.

A supernatural map whose exponents are all finite describes the cyclic
group generated by ``1/(prod p**e)`` and is collapsed to that form by the
:func:`supernatural` factory, so equal subgroups always compare equal.

All scalars are exact; floats are rejected everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, inf, lcm, prod

__all__ = [
    "SubgroupSpec",
    "Trivial",
    "Cyclic",
    "Supernatural",
    "FullQ",
    "TRIVIAL",
    "FULL_Q",
    "INTEGERS",
    "as_fraction",
    "cyclic",
    "supernatural",
    "qk",
    "contains",
    "subgroup_sum",
    "subgroup_intersect",
    "is_subgroup",
    "rank",
    "finitely_generated",
    "normalize_alpha",
]


def as_fraction(value):
    """Coerce an int or Fraction to Fraction; reject anything inexact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError("expected an exact rational, got %r" % (value,))


# Strong-probable-prime tests to the first 13 prime bases decide primality
# exactly below psi_13 (Sorenson and Webster, Math. Comp. 86, 2017); larger
# numbers are rejected, so no input falls back to trial division.
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SPRP_EXACT_BELOW = 3317044064679887385961981


def _is_strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _is_prime(n):
    """Exact primality by strong-probable-prime tests; numbers at or above
    psi_13 raise ValueError."""
    if n >= _SPRP_EXACT_BELOW:
        raise ValueError(
            "%d is at or above psi_13 = %d, the cap for supernatural primes"
            % (n, _SPRP_EXACT_BELOW)
        )
    if n <= _SPRP_BASES[-1]:
        return n in _SPRP_BASES
    return all(_is_strong_probable_prime(n, a) for a in _SPRP_BASES)


def _factorint(n):
    """Prime factorization by trial division, used only for the part of a
    cyclic denominator that a supernatural sum has not divided out."""
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _check_prime_powers(items):
    """Every ``(prime, exponent)`` pair needs an int prime and a positive
    int or infinite exponent."""
    for p, e in items:
        if not isinstance(p, int):
            raise TypeError("supernatural primes must be ints, got %r" % (p,))
        if not _is_prime(p):
            raise ValueError("%d is not prime" % p)
        if e != inf and not (isinstance(e, int) and e >= 1):
            raise ValueError("exponent for %d must be a positive integer or inf" % p)


class SubgroupSpec:
    """Common base for the four subgroup shapes."""

    __slots__ = ()


@dataclass(frozen=True)
class Trivial(SubgroupSpec):
    def __str__(self):
        return "0"


@dataclass(frozen=True)
class Cyclic(SubgroupSpec):
    generator: Fraction

    def __post_init__(self):
        gen = as_fraction(self.generator)
        if gen <= 0:
            raise ValueError("cyclic generator must be positive")
        object.__setattr__(self, "generator", gen)

    def __str__(self):
        return "cyclic:%s" % self.generator


@dataclass(frozen=True)
class Supernatural(SubgroupSpec):
    # ((prime, exponent), ...) sorted by prime; exponent is a positive int
    # or math.inf, and at least one exponent is infinite (otherwise the
    # group is cyclic and must be built through the factory below).
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

    def exponent_map(self):
        return dict(self.exponents)

    def __str__(self):
        parts = ["%d^%s" % (p, "inf" if e == inf else e) for p, e in self.exponents]
        return "sn:" + ",".join(parts)


@dataclass(frozen=True)
class FullQ(SubgroupSpec):
    def __str__(self):
        return "Q"


TRIVIAL = Trivial()
FULL_Q = FullQ()


def cyclic(generator):
    return Cyclic(as_fraction(generator))


# An all-finite supernatural map collapses to the cyclic group of 1/prod(p**e),
# whose denominator, like a rational literal, has at most 4300 digits.
MAX_DENOMINATOR_DIGITS = 4300
_DENOMINATOR_LIMIT = 10 ** MAX_DENOMINATOR_DIGITS


def supernatural(exponents):
    """Build the subgroup of rationals whose denominators are bounded by
    the given prime-exponent map, collapsing all-finite maps to cyclic form."""
    items = sorted(dict(exponents).items())
    if any(e == inf for _, e in items):
        return Supernatural(tuple(items))
    _check_prime_powers(items)
    denom = 1
    for p, e in items:
        # p**e >= 2**e, so a larger e overshoots the cap before it is raised
        if e >= _DENOMINATOR_LIMIT.bit_length() or denom * p ** e >= _DENOMINATOR_LIMIT:
            raise ValueError("the denominator of an all-finite map exceeds the cap of "
                             "%d digits" % MAX_DENOMINATOR_DIGITS)
        denom *= p ** e
    return Cyclic(Fraction(1, denom))


# Largest k accepted for qk:<k> and for the rescaling order m: 500! has
# 1135 digits, so the m!^2 in the rescaled central terms still prints.
MAX_FACTORIAL_ORDER = 500


def qk(k):
    """The subgroup {n/k! : n integer}, written qk:<k> in group specs."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("qk index must be a non-negative integer")
    if k > MAX_FACTORIAL_ORDER:
        raise ValueError(
            "qk index %d exceeds the cap of %d" % (k, MAX_FACTORIAL_ORDER)
        )
    return Cyclic(Fraction(1, factorial(k)))


INTEGERS = qk(0)


def contains(group, q):
    """Exact membership test for each subgroup shape."""
    q = as_fraction(q)
    if isinstance(group, Trivial):
        return q == 0
    if isinstance(group, Cyclic):
        # q / a is an integer exactly when q.den * a.num divides q.num * a.den
        a = group.generator
        return q.numerator * a.denominator % (q.denominator * a.numerator) == 0
    if isinstance(group, Supernatural):
        den = q.denominator
        for p, e in group.exponents:
            count = 0
            while den % p == 0:
                den //= p
                count += 1
            if e != inf and count > e:
                return False
        return den == 1
    if isinstance(group, FullQ):
        return True
    raise TypeError("not a subgroup spec: %r" % (group,))


def _valuations(n, primes):
    """``{p: v_p(n)}`` at the given primes, and n with them divided out."""
    vals = dict.fromkeys(primes, 0)
    for p in vals:
        while n % p == 0:
            n //= p
            vals[p] += 1
    return vals, n


def subgroup_sum(g, h):
    """Smallest subgroup containing both arguments.

    On cyclic groups this is the rational gcd of the generators, and on
    supernatural groups the pointwise maximum of the exponent maps.  A
    supernatural S contains Z, so S + Z*n/d = S + Z/d for n/d in lowest
    terms: only d is factored, and only after S's primes are divided out.
    """
    if isinstance(g, FullQ) or isinstance(h, FullQ):
        return FULL_Q
    if isinstance(g, Trivial):
        return h
    if isinstance(h, Trivial):
        return g
    if isinstance(g, Cyclic) and isinstance(h, Cyclic):
        a, b = g.generator, h.generator
        return Cyclic(Fraction(gcd(a.numerator, b.numerator),
                               lcm(a.denominator, b.denominator)))
    if isinstance(g, Cyclic):
        g, h = h, g
    merged = g.exponent_map()
    if isinstance(h, Cyclic):
        vals, rest = _valuations(h.generator.denominator, merged)
        merged = {p: max(e, vals[p]) for p, e in merged.items()}
        merged.update(_factorint(rest))
    else:
        for p, e in h.exponents:
            merged[p] = max(merged.get(p, 0), e)
    return supernatural(merged)


def subgroup_intersect(g, h):
    """Set intersection: rational lcm on cyclic generators, pointwise
    minimum of the exponent maps on supernatural groups.  For n/d in
    lowest terms, a supernatural S meets Z*n/d in Z*n/a, where a is the
    part of d that S's exponents allow; nothing is factored."""
    if isinstance(g, Trivial) or isinstance(h, Trivial):
        return TRIVIAL
    if isinstance(g, FullQ):
        return h
    if isinstance(h, FullQ):
        return g
    if isinstance(g, Cyclic) and isinstance(h, Cyclic):
        a, b = g.generator, h.generator
        return Cyclic(Fraction(lcm(a.numerator, b.numerator),
                               gcd(a.denominator, b.denominator)))
    if isinstance(g, Cyclic):
        g, h = h, g
    exponents = g.exponent_map()
    if isinstance(h, Cyclic):
        vals, _ = _valuations(h.generator.denominator, exponents)
        allowed = prod(p ** min(e, vals[p]) for p, e in exponents.items())
        return Cyclic(Fraction(h.generator.numerator, allowed))
    return supernatural(
        {p: min(e, exponents[p]) for p, e in h.exponents if p in exponents}
    )


def is_subgroup(inner, outer):
    """Whether every element of ``inner`` lies in ``outer``."""
    if isinstance(inner, Trivial) or isinstance(outer, FullQ):
        return True
    if isinstance(inner, Cyclic):
        return contains(outer, inner.generator)
    if isinstance(outer, (Trivial, Cyclic)):
        return False  # inner is infinitely generated here
    if isinstance(inner, FullQ):
        return False  # outer is supernatural, so some prime is capped
    oe = outer.exponent_map()
    return all(e <= oe.get(p, 0) for p, e in inner.exponents)


def rank(group):
    """0 for the zero group, 1 otherwise: any two nonzero rationals are
    integrally dependent, so no subgroup of Q exceeds rank 1."""
    return 0 if isinstance(group, Trivial) else 1


def finitely_generated(group):
    if isinstance(group, (Trivial, Cyclic)):
        return True
    if isinstance(group, (Supernatural, FullQ)):
        return False
    raise TypeError("not a subgroup spec: %r" % (group,))


def normalize_alpha(alpha, group):
    """Reduce a weight offset to 0 when it lies in the index group,
    leaving it untouched otherwise."""
    alpha = as_fraction(alpha)
    return Fraction(0) if contains(group, alpha) else alpha
