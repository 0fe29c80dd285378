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

A ``Window`` is the finite slice {n*a : |n| <= bound} of one cyclic
group, the set on which ``hvir.analysis`` checks a restriction; that
module exports it, so ``Window`` stays out of this module's ``__all__``.

All scalars are exact; floats are rejected everywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import compress, count
from math import factorial, gcd, inf, isqrt, lcm, log2, prod

from ._frozen import Frozen, set_field

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


def _require_count(value, least, cap, what):
    """Refuse a count that is not an int from ``least`` (0 or 1) to ``cap``."""
    if not isinstance(value, int) or value < least:
        raise ValueError("%s must be a %s integer"
                         % (what, "positive" if least else "non-negative"))
    if value > cap:
        raise ValueError("%s %d exceeds the cap of %d" % (what, value, cap))


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


def _above_psi_13(n):
    return ValueError(
        "%d is at or above psi_13 = %d, the cap for supernatural primes"
        % (n, _SPRP_EXACT_BELOW)
    )


def _is_prime(n):
    """Exact primality by strong-probable-prime tests; numbers at or above
    psi_13 raise ValueError."""
    if n >= _SPRP_EXACT_BELOW:
        raise _above_psi_13(n)
    if n <= _SPRP_BASES[-1]:
        return n in _SPRP_BASES
    return all(_is_strong_probable_prime(n, a) for a in _SPRP_BASES)


_TRIAL_BOUND = 10 ** 5
# Work budget for factoring one leftover denominator.  On a b-bit number a
# division by a small prime counts 1 + b // 512 units and a Pollard-Brent
# or Newton step 1 + (b // 256)**2, since its products grow with the square
# of the size.  Both come to roughly 0.2-1 us a unit on a 2-vCPU host
# under Python 3.11, so the budget is 0.1-0.5 s at any size.
MAX_FACTOR_WORK = 500_000


class _Budget:
    """The work units left for factoring one denominator."""

    def __init__(self, n):
        self.left, self.bits = MAX_FACTOR_WORK, n.bit_length()

    @staticmethod
    def cost(m, divisions=0, steps=0):
        b = m.bit_length()
        return divisions * (1 + b // 512) + steps * (1 + (b // 256) ** 2)

    def spend(self, m, divisions=0, steps=0):
        self.left -= self.cost(m, divisions, steps)
        if self.left < 0:
            raise ValueError(
                "factoring a %d-bit denominator exceeds the budget of %d "
                "work units" % (self.bits, MAX_FACTOR_WORK)
            )


@cache
def _prime_flags():
    """A byte per number below ``_TRIAL_BOUND``, set at the primes (sieve
    of Eratosthenes)."""
    sieve = bytearray([1]) * _TRIAL_BOUND
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(_TRIAL_BOUND) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, _TRIAL_BOUND, p)))
    return sieve


def _small_primes():
    """The primes below ``_TRIAL_BOUND``, in order."""
    return compress(range(_TRIAL_BOUND), _prime_flags())


def _factorint(n):
    """Prime factorization of the part of a cyclic denominator that a
    supernatural sum has not divided out.

    Trial division takes the primes below ``_TRIAL_BOUND``.  Each part
    left is reduced to its largest perfect-power root.  A root at or
    above psi_13 that passes the strong-probable-prime tests, where they
    fit the budget, raises the psi_13 ValueError at once; any other root
    is certified by ``_is_prime`` or split by Pollard-Brent, and a
    certified prime is divided out of every pending part.  All of it is
    charged to one ``MAX_FACTOR_WORK`` budget, past which it raises
    ValueError.
    """
    budget = _Budget(n)
    factors = {}
    for p in _small_primes():
        if p * p > n:
            break
        budget.spend(n, divisions=1)
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
            budget.spend(n, divisions=1)
    pending = [(n, 1)] if n > 1 else []
    while pending:
        m, e = pending.pop()
        m, k = _perfect_power(m, budget)
        if m >= _SPRP_EXACT_BELOW and _probable_prime(m, budget):
            raise _above_psi_13(m)
        if m < _SPRP_EXACT_BELOW and _is_prime(m):
            factors[m] = k * e
            left = []
            for rest, f in pending:
                vals, rest = _valuations(rest, [m])
                factors[m] += vals[m] * f
                if rest > 1:
                    left.append((rest, f))
            pending = left
        else:
            d = _pollard_brent(m, budget)
            pending += [(d, k * e), (m // d, k * e)]
    return factors


def _probable_prime(m, budget):
    """Whether m passes the strong-probable-prime test to every base in
    ``_SPRP_BASES``, charging b squarings on b bits to each base.  Where
    the budget left cannot pay for all of them, no test runs and the
    answer is False."""
    squarings = m.bit_length()
    if len(_SPRP_BASES) * budget.cost(m, steps=squarings) > budget.left:
        return False
    for a in _SPRP_BASES:
        budget.spend(m, steps=squarings)
        if not _is_strong_probable_prime(m, a):
            return False
    return True


@cache
def _residue_prime(q):
    """The least prime l = 1 (mod q); modulo l only one nonzero residue
    in q is a q-th power."""
    return next(l for l in count(q + 1, q) if _is_prime(l))


def _perfect_power(m, budget):
    """``(r, k)`` with ``r**k == m`` and k as large as possible, for an m
    with no prime factor below ``_TRIAL_BOUND``: such an r is at least
    ``_TRIAL_BOUND``, so only exponents q with ``_TRIAL_BOUND**q <= m``
    are tried."""
    low = _TRIAL_BOUND.bit_length() - 1
    k = 1
    for q in _small_primes():
        if q * low >= m.bit_length():
            break
        while (r := _exact_root(m, q, budget)) is not None:
            m, k = r, k * q
    return m, k


def _exact_root(m, q, budget):
    """The r with ``r**q == m``, or None if m is no q-th power.

    One residue test modulo ``_residue_prime(q)`` rules out most m; the
    rest get Newton's method.
    """
    l = _residue_prime(q)
    budget.spend(m, divisions=1)
    if m % l and pow(m % l, (l - 1) // q, l) != 1:
        return None

    def newton(x):
        budget.spend(m, steps=1)
        return ((q - 1) * x + m // x ** (q - 1)) // q

    # by the AM-GM inequality one step from any x > 0 lands at or above the
    # integer root, and from there the steps fall until they reach it
    shift = max(m.bit_length() // q - 32, 0)
    x = newton(int(2 ** (log2(m) / q - shift)) + 1 << shift)
    while (y := newton(x)) < x:
        x = y
    return x if x ** q == m else None


def _pollard_brent(n, budget):
    """A proper factor of the composite n, which has no factor below
    ``_TRIAL_BOUND`` (Brent, BIT 20, 1980)."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            budget.spend(n, steps=r)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys, batch = y, min(128, r - k)
                budget.spend(n, steps=batch)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            # the last batch overshot: redo it one gcd at a time
            g = 1
            while g == 1:
                budget.spend(n, steps=1)
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


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


class SubgroupSpec(Frozen):
    """Common base for the four subgroup shapes."""

    __slots__ = ()


class Trivial(SubgroupSpec):
    __slots__ = ()

    def __str__(self):
        return "0"


class Cyclic(SubgroupSpec):
    __slots__ = ("generator",)

    def __init__(self, generator):
        gen = as_fraction(generator)
        if gen <= 0:
            raise ValueError("cyclic generator must be positive")
        set_field(self, "generator", gen)

    def __str__(self):
        return "cyclic:%s" % self.generator


class Supernatural(SubgroupSpec):
    # ((prime, exponent), ...) sorted by prime; exponent is a positive int
    # or math.inf, and at least one exponent is infinite (otherwise the
    # group is cyclic and must be built through the factory below).
    __slots__ = ("exponents",)

    def __init__(self, exponents):
        items = tuple(exponents)
        if not items:
            raise ValueError("supernatural spec needs at least one prime")
        primes = [p for p, _ in items]
        if primes != sorted(set(primes)):
            raise ValueError("supernatural primes must be distinct and sorted")
        _check_prime_powers(items)
        if all(e != inf for _, e in items):
            raise ValueError("all-finite exponent maps are cyclic; use supernatural()")
        set_field(self, "exponents", items)

    def exponent_map(self):
        return dict(self.exponents)

    def __str__(self):
        parts = ["%d^%s" % (p, "inf" if e == inf else e) for p, e in self.exponents]
        return "sn:" + ",".join(parts)


class FullQ(SubgroupSpec):
    __slots__ = ()

    def __str__(self):
        return "Q"


TRIVIAL = Trivial()
FULL_Q = FullQ()


def _require_groups(*groups):
    """Refuse any argument that is not one of the four subgroup shapes."""
    for group in groups:
        if not isinstance(group, (Trivial, Cyclic, Supernatural, FullQ)):
            raise TypeError("not a subgroup spec: %r" % (group,))


def cyclic(generator):
    return Cyclic(generator)


# Most decimal digits of one integer of the input, and of the denominator
# 1/prod(p**e) that an all-finite supernatural map collapses to: Python's
# default limit for int-string conversion, so every literal it converts parses.
MAX_DIGITS = 4300
_DENOMINATOR_LIMIT = 10 ** MAX_DIGITS


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
                             "%d digits" % MAX_DIGITS)
        denom *= p ** e
    return Cyclic(Fraction(1, denom))


# Largest k accepted for qk:<k> and for the rescaling order m: 500! has
# 1135 digits, so the m!^2 in the rescaled central terms still prints.
MAX_FACTORIAL_ORDER = 500


def qk(k):
    """The subgroup {n/k! : n integer}, written qk:<k> in group specs."""
    _require_count(k, 0, MAX_FACTORIAL_ORDER, "qk index")
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
        vals, rest = _valuations(q.denominator, group.exponent_map())
        return rest == 1 and all(vals[p] <= e for p, e in group.exponents)
    _require_groups(group)
    return True  # FullQ


def _multiple(q, a):
    """The integer n with q == n*a for a rational a > 0, or None."""
    n, r = divmod(q.numerator * a.denominator, q.denominator * a.numerator)
    return None if r else n


def _reduced(num, den):
    """num/den, for a nonzero den, as a reduced pair with den > 0."""
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // g, den // g


# Largest accepted window bound.  Here building a Window (its 4097
# indices) takes about 4 ms, a scan 5-38 ms (the most at beta = 1/2, where
# every row misses a different target) and a closure 5-10 ms, on a 2-vCPU
# host under Python 3.11: each distinct adjacency row is expanded once,
# and an expansion stops when the whole window is reached.
MAX_WINDOW_BOUND = 2048


class Window(Frozen):
    """The finite index set {n*step : |n| <= bound} of a cyclic group.

    The constructor also fills ``_indices``, the indices in window order
    as the keys of a dict, which keeps each Fraction's hash; building a
    window thus builds and hashes its 2B+1 indices, which only pays off
    for a window indexed more than once.  ``indices()`` returns a fresh
    list of them, and ``_tabulate``, with which a scan builds its
    ``dims``, builds no index and hashes at most the few whose value is
    not the most frequent.
    """

    __slots__ = ("group", "bound", "_indices")

    def __init__(self, group, bound):
        if not isinstance(group, Cyclic):
            raise ValueError("windows require a cyclic index group, got %s" % group)
        _require_count(bound, 1, MAX_WINDOW_BOUND, "window bound")
        set_field(self, "group", group)
        set_field(self, "bound", bound)
        set_field(self, "_indices", dict.fromkeys(self._multiples(bound)))

    @property
    def step(self):
        return self.group.generator

    @property
    def size(self):
        return 2 * self.bound + 1

    def indices(self):
        return list(self._indices)

    def _tabulate(self, values):
        """Map each index, in window order, to the item of the list
        ``values`` at its position.  The dict starts as ``dict.fromkeys``
        of the stored indices at the most frequent value, which on CPython
        reuses their stored hashes; only the indices whose value differs
        are hashed again."""
        common = max(set(values), key=values.count)
        table = dict.fromkeys(self._indices, common)
        for q, value in zip(self._indices, values):
            if value != common:
                table[q] = value
        return table

    def __contains__(self, q):
        n = self._position(q)
        return isinstance(n, int) and abs(n) <= self.bound

    def _position(self, q):
        """The position q/step: the int n with q == n*step, and otherwise
        the non-integer Fraction q/step, so equal indices share one."""
        q = as_fraction(q)
        n = _multiple(q, self.step)
        return q / self.step if n is None else n

    def steps(self):
        """Every generator index that can connect two window indices."""
        return self._multiples(2 * self.bound)

    def _multiples(self, reach):
        """n*step for |n| <= reach; Fraction(n*num, den) costs less than n*step."""
        num, den = self.step.numerator, self.step.denominator
        return [Fraction(n * num, den) for n in range(-reach, reach + 1)]

    def __str__(self):
        return "%s:%d" % (self.group, self.bound)


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
    _require_groups(g, h)
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
    _require_groups(g, h)
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
    _require_groups(inner, outer)
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
    _require_groups(group)
    return 0 if isinstance(group, Trivial) else 1


def finitely_generated(group):
    _require_groups(group)
    return isinstance(group, (Trivial, Cyclic))


def normalize_alpha(alpha, group):
    """Reduce a weight offset to 0 when it lies in the index group,
    leaving it untouched otherwise."""
    alpha = as_fraction(alpha)
    return Fraction(0) if contains(group, alpha) else alpha
