"""Weight modules with one-dimensional weight spaces.

``ModuleParams(alpha, beta, f, group)`` names the module with basis
vectors ``v(h)`` for h in the index group and actions

    d(g) . v(h) = (alpha + h + g*beta) v(g+h)
    I(g) . v(h) = f v(g+h)
    CD = CDI = CI = 0 on everything.

Shifting alpha by a group element gives an isomorphic module, so alpha
is reduced to 0 at construction whenever it lies in the group.  After
that reduction the module is reducible exactly when f == 0, alpha == 0
and beta is 0 or 1; these two reducible points and the isomorphism rules
between irreducible subquotients are what :func:`classify` and
:func:`iso_check` encode.

A :class:`WeightVector` is held in integers: one index denominator L,
one coefficient denominator D and a sorted dict from index numerators
to coefficient numerators, gcd-reduced so that equal vectors have equal
fields.  Sums, differences, scalar multiples, equality and :func:`act`
run on these integers; ``Fraction`` appears only at the boundary, in the
constructor's input and in ``entries``, ``coefficient`` and ``str``.
:func:`act` writes a zero or one-term result straight into its slots,
reduced by one gcd pair.  A sum or difference with a zero operand
returns the other operand (negated when it is subtracted), and one of
two one-term vectors at one index is summed at lcm(D) and written the
same way, reduced by gcd(D, c) alone.
The coefficient alpha + h + g*beta is evaluated only by :func:`d_coefficient`.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm

from ._frozen import Frozen, set_field
from .algebra import AlgebraElement, _as_element, _IntegerSum, _signed_terms
from .errors import GroupMismatchError, SubalgebraError
from .groups import (
    SubgroupSpec,
    Trivial,
    as_fraction,
    contains,
    normalize_alpha,
    qk,
)

__all__ = [
    "ModuleParams",
    "WeightVector",
    "basis_vector",
    "act",
    "act_word",
    "Classification",
    "VERDICT_IRREDUCIBLE",
    "VERDICT_TRIVIAL_SUB",
    "VERDICT_CODIM_ONE",
    "classify",
    "IndexPredicate",
    "submodule_basis",
    "iso_check",
    "pullback_params",
]


class ModuleParams(Frozen):
    # _ints is a cache, not a field: the unit-step integer form
    # (S, alpha_S, beta_S, Q) of the d-action (see _integer_action) and
    # the numerator and denominator of f, which act reads
    __slots__ = ("alpha", "beta", "f", "group", "_ints")

    def __init__(self, alpha, beta, f, group):
        if not isinstance(group, SubgroupSpec):
            raise TypeError("group must be a subgroup spec")
        if isinstance(group, Trivial):
            raise ValueError("module index group must be nonzero")
        alpha = normalize_alpha(alpha, group)
        beta, f = as_fraction(beta), as_fraction(f)
        set_field(self, "alpha", alpha)
        set_field(self, "beta", beta)
        set_field(self, "f", f)
        set_field(self, "group", group)
        set_field(self, "_ints", (*_integer_action(alpha, beta, 1), f.numerator, f.denominator))

    def __str__(self):
        return "%s,%s,%s@%s" % (self.alpha, self.beta, self.f, self.group)


def d_coefficient(alpha, beta, q, g):
    """Coefficient of d(g) from v(q) to v(q+g): alpha + q + g*beta.

    It is linear in (alpha, q, g*beta): scaling alpha, q and the product
    g*beta by one common factor scales the coefficient by it, which lets
    every integer evaluation run on the form of :func:`_integer_action`.
    It is also alpha + g*beta plus q, so the table builder evaluates it
    at q = 0 once per step and adds each source.
    """
    return alpha + q + g * beta


def _integer_action(alpha, beta, step):
    """The d-action in integers: ``(P, alpha_P, beta_P, Q)`` with P > 0 and
    P * d_coefficient(alpha, beta, n*step, j*step) ==
    d_coefficient(alpha_P, beta_P, n*Q, j) for all ints n and j.

    Times P = ad*bd*sd, alpha, the index n*step and j*step*beta are the
    integers alpha_P, n*Q and j*beta_P, so the linearity of
    :func:`d_coefficient` gives the identity."""
    an, ad = alpha.numerator, alpha.denominator
    bn, bd = beta.numerator, beta.denominator
    sn, sd = step.numerator, step.denominator
    return ad * bd * sd, an * bd * sd, sn * bn * ad, sn * ad * bd


class WeightVector(_IntegerSum):
    """Sparse vector over the module's basis indices.

    The basis vector at index q is a d(0)-eigenvector with eigenvalue
    alpha + q; entries with zero coefficient are never stored.

    The vector sum (c/D) v(k/L) is held in integers: a positive index
    denominator L, a positive coefficient denominator D, and a dict
    ``{k: c}`` sorted by k with no zero c.  The form is canonical (L is
    coprime to the gcd of all k and D to the gcd of all c; the zero
    vector has L = D = 1), so equal vectors have equal fields.  Fractions
    appear only at the boundary: the constructor's input, ``entries``,
    ``coefficient`` and ``str``.  The key-free methods ``is_zero``,
    ``__bool__``, ``__neg__`` and the scalar multiples come from the
    integer-sum base ``_IntegerSum`` it shares with ``AlgebraElement``.
    """

    __slots__ = ("params",)

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
            if not contains(params.group, index):
                raise SubalgebraError(
                    "index %s lies outside the module's group %s" % (index, params.group)
                )
            acc[index] = acc.get(index, 0) + coeff
        L = lcm(*(q.denominator for q in acc))
        D = lcm(*(c.denominator for c in acc.values()))
        num = {}
        for q, c in acc.items():
            num[q.numerator * (L // q.denominator)] = c.numerator * (D // c.denominator)
        _set_canonical(self, params, L, D, num)

    @classmethod
    def _canonical(cls, params, L, D, num):
        # internal constructor from an unreduced integer form: indices
        # are already known to lie in the group
        self = object.__new__(cls)
        _set_canonical(self, params, L, D, num)
        return self

    def _like(self, L, D, num):
        return WeightVector._canonical(self.params, L, D, num)

    @property
    def entries(self):
        L, D = self._L, self._D
        return {Fraction(k, L): Fraction(c, D) for k, c in self._num.items()}

    def coefficient(self, index):
        index = as_fraction(index)
        if self._L % index.denominator:
            return Fraction(0)
        k = index.numerator * (self._L // index.denominator)
        return Fraction(self._num.get(k, 0), self._D)

    def __eq__(self, other):
        if not isinstance(other, WeightVector):
            return NotImplemented
        if self.params is not other.params and self.params != other.params:
            return False
        return self._L == other._L and self._D == other._D and self._num == other._num

    def _combine(self, other, sign, verb):
        if not isinstance(other, WeightVector):
            return NotImplemented
        if self.params is not other.params and self.params != other.params:
            raise GroupMismatchError("cannot %s vectors of different modules" % verb)
        if not other._num:
            return self
        if not self._num:
            return other if sign == 1 else -other
        a, b = self._num, other._num
        if self._L == other._L and len(a) == 1 and a.keys() == b.keys():
            # one term at one index k/L, k already coprime to L: summed at
            # lcm(D), and canonical once gcd(D, c) is divided out, as act
            # writes its one-term results
            (k, c), = a.items()
            D = lcm(self._D, other._D)
            c = c * (D // self._D) + sign * (D // other._D) * b[k]
            out = object.__new__(WeightVector)
            out.params = self.params
            if c:
                g = gcd(D, c)
                out._L, out._D, out._num = self._L, D // g, {k: c // g}
            else:
                out._L = out._D = 1
                out._num = {}
            return out
        # sum both at the common denominators lcm(L) and lcm(D); a loop
        # fills acc, since a comprehension costs a call under Python 3.11
        L, D = lcm(self._L, other._L), lcm(self._D, other._D)
        ks, cs = L // self._L, D // self._D
        acc = {}
        for k, c in self._num.items():
            acc[k * ks] = c * cs
        ks, cs = L // other._L, sign * (D // other._D)
        for k, c in other._num.items():
            k *= ks
            acc[k] = acc.get(k, 0) + c * cs
        return WeightVector._canonical(self.params, L, D, acc)

    def __add__(self, other):
        return self._combine(other, 1, "add")

    def __sub__(self, other):
        return self._combine(other, -1, "subtract")

    def __str__(self):
        return _signed_terms(("v(%s)" % q, c) for q, c in self.entries.items())

    def __repr__(self):
        return "WeightVector(%s | %s)" % (self, self.params)


def _set_canonical(self, params, L, D, num):
    """Fill a vector's fields with the canonical form of (L, D, num):
    zeros dropped, keys sorted, both denominators gcd-reduced."""
    if len(num) == 1:
        # one term, as a basis vector and its multiples have: reduced directly
        (k, c), = num.items()
        if not c:
            L = D = 1
            num = {}
        else:
            gl, gc = gcd(L, k), gcd(D, c)
            if gl != 1 or gc != 1:
                L //= gl
                D //= gc
                num = {k // gl: c // gc}
    else:
        if 0 in num.values():
            num = {k: c for k, c in num.items() if c}
        if not num:
            L = D = 1
        else:
            gl = gcd(L, *num)
            gc = gcd(D, *num.values())
            if gl != 1 or gc != 1 or len(num) > 1:
                L //= gl
                D //= gc
                num = {k // gl: num[k] // gc for k in sorted(num)}
    self.params = params
    self._L = L
    self._D = D
    self._num = num


def basis_vector(params, index):
    return WeightVector(params, {index: 1})


def act(params, x, v):
    """Exact action of an algebra element on a weight vector.

    Every d/I index of ``x`` must lie in the module's group; central
    symbols act as zero.  The result lives in the full module, with no
    window truncation.

    The work is done on the integers of ``x``, ``v`` and the module,
    whose integer form is read off ``params`` once per ``ModuleParams``.
    One membership test covers all of the indices of ``x``, and it runs
    once per element per group object: ``x`` remembers the last group
    that passed it, by identity, and any other group is tested in full,
    on the one ``Fraction`` gcd(k)/L, built only then.  A bracket of two
    elements that remember one group object remembers it too, since a
    group holds g+h whenever it holds g and h.

    After those checks, the two commonest results skip the canonical-form
    pass.  An element with no d/I generator, or the zero vector, gives
    the zero vector; one generator on a one-term vector gives one term
    (or zero), which is made canonical by dividing out gcd(L, t) from
    its index and gcd(D, c) from its coefficient.  Both are written
    straight into a new vector's slots.  Every other shape sums its
    terms and goes through the canonical form as sums do.
    """
    if not isinstance(x, AlgebraElement):
        x = _as_element(x)
    if v.params is not params and v.params != params:
        raise GroupMismatchError("vector belongs to %s, not %s" % (v.params, params))
    group = params.group
    gens = x._gens or x._generators()
    if x._group is not group:
        if gens and not contains(group, x._span()):
            raise SubalgebraError("element %s has indices outside the group %s" % (x, group))
        x._group = group
    source = v._num
    c = 0  # the coefficient of a one-term result; 0 for the zero vector
    if gens and source:
        L = lcm(v._L, x._L)
        sv, sx = L // v._L, L // x._L
        S, alpha_S, beta_P, Q, fn, fd = params._ints
        # the unit-step form taken to the step 1/L: by linearity P times the
        # coefficient of d(gk/L) at v(k/L) is d_coefficient(alpha_P, beta_P, k*Q, gk)
        P, alpha_P = S * L, alpha_S * L
        D = x._D * v._D * P * fd
        if len(gens) > 1 or len(source) > 1:
            if sv != 1:
                source = {k * sv: c for k, c in source.items()}
            acc = {}
            for r, gk, c in gens:
                gk *= sx
                if r == 0:
                    c *= fd
                    for k, cv in source.items():
                        w = d_coefficient(alpha_P, beta_P, k * Q, gk)
                        if w:
                            t = k + gk
                            acc[t] = acc.get(t, 0) + c * cv * w
                elif fn:
                    c *= fn * P
                    for k, cv in source.items():
                        t = k + gk
                        acc[t] = acc.get(t, 0) + c * cv
            return WeightVector._canonical(params, L, D, acc)
        # one generator on one term
        (r, gk, c), = gens
        (k, cv), = source.items()
        k, gk = k * sv, gk * sx
        c *= cv * (fd * d_coefficient(alpha_P, beta_P, k * Q, gk) if r == 0 else fn * P)
    # a zero or one-term result: canonical once its one gcd pair is divided out
    out = object.__new__(WeightVector)
    out.params = params
    if c:
        t = k + gk
        gl, gc = gcd(L, t), gcd(D, c)
        out._L, out._D, out._num = L // gl, D // gc, {t // gl: c // gc}
    else:
        out._L = out._D = 1
        out._num = {}
    return out


def act_word(params, word, v):
    """Compose actions right to left: the last factor acts first, so the
    word behaves like a product in the enveloping algebra."""
    for x in reversed(list(word)):
        v = act(params, x, v)
    return v


VERDICT_IRREDUCIBLE = "Irreducible"
VERDICT_TRIVIAL_SUB = "ReducibleTrivialSub"
VERDICT_CODIM_ONE = "ReducibleCodimOne"


class Classification(Frozen):
    __slots__ = ("verdict", "subquotient_note")

    def __init__(self, verdict, subquotient_note):
        set_field(self, "verdict", verdict)
        set_field(self, "subquotient_note", subquotient_note)


def classify(params):
    """Reducibility verdict; alpha is already normalized by construction,
    so the test is a literal comparison with zero."""
    if params.f == 0 and params.alpha == 0 and params.beta in (0, 1):
        if params.beta == 0:
            return Classification(
                VERDICT_TRIVIAL_SUB,
                "the index-0 line is a trivial submodule; the irreducible "
                "subquotient is the quotient by it",
            )
        return Classification(
            VERDICT_CODIM_ONE,
            "the span of the nonzero indices is an irreducible submodule "
            "of codimension 1",
        )
    return Classification(VERDICT_IRREDUCIBLE, "the module itself is irreducible")


class IndexPredicate(Frozen):
    """Decidable predicate picking out the basis indices of a submodule."""

    __slots__ = ("kind",)

    def __init__(self, kind):
        # "zero-only" or "nonzero"
        if kind not in ("zero-only", "nonzero"):
            raise ValueError("unknown predicate kind %r" % (kind,))
        set_field(self, "kind", kind)

    def __call__(self, index):
        index = as_fraction(index)
        return index == 0 if self.kind == "zero-only" else index != 0

    def __str__(self):
        return "index = 0" if self.kind == "zero-only" else "index != 0"


def submodule_basis(params):
    """Index predicate spanning the proper nonzero submodule, or None for
    irreducible parameters."""
    verdict = classify(params).verdict
    if verdict == VERDICT_TRIVIAL_SUB:
        return IndexPredicate("zero-only")
    if verdict == VERDICT_CODIM_ONE:
        return IndexPredicate("nonzero")
    return None


def iso_check(p1, p2):
    """Whether the irreducible subquotients of two modules over the same
    group are isomorphic.

    Returns ``(flag, shift)`` where ``shift = p2.alpha - p1.alpha`` when
    the flag is true.  The criterion: the I-eigenvalues agree, the alpha
    difference lies in the group, and either the betas agree or f == 0
    and both betas lie in {0, 1}.  The witness is the shift v(q) ->
    u(q - shift) when the betas agree.  When they differ and alpha lies
    in the group, both modules are reducible and share their irreducible
    subquotient.  When alpha lies off the group, alpha + q is never 0,
    and the shift composed with the rescaling v(q) -> (alpha + q) u(q)
    carries the beta-0 module onto the beta-1 module.
    """
    _require_same_group(p1, p2)
    if p1.f != p2.f or not contains(p1.group, p1.alpha - p2.alpha):
        return False, None
    if p1.beta == p2.beta or (p1.f == 0 and {p1.beta, p2.beta} <= {0, 1}):
        return True, p2.alpha - p1.alpha
    return False, None


def _rescaling_power(p1, p2):
    """For a pair that :func:`iso_check` accepts, the power e of the
    rescaling v(q) -> (alpha + q)**e u(q), alpha = p1.alpha, that the
    isomorphism composes with its shift, so that it maps v(q) to
    (alpha + q)**e u(q - shift): 1 from beta 0 to beta 1 off the group,
    -1 from beta 1 to beta 0, and 0 when the shift alone is the map (or,
    on the group, when only the subquotients are isomorphic)."""
    if p1.beta == p2.beta or p1.alpha == 0:
        return 0
    return 1 if p1.beta == 0 else -1


def pullback_params(params, m):
    """Parameters of the same module seen through the order-m rescaling.

    A module over {n/m!} becomes a module over the integers with alpha
    and f multiplied by m! and beta unchanged.
    """
    _require_qk(params, m, "pullback")
    M = Fraction(factorial(m))
    return ModuleParams(M * params.alpha, params.beta, M * params.f, qk(0))


def _require_same_group(p1, p2):
    """Modules are compared only over one index group."""
    if p1.group != p2.group:
        raise GroupMismatchError("cannot compare modules over different groups")


def _require_qk(params, m, what):
    """The order-m rescaling is defined on modules over qk(m) only."""
    if params.group != qk(m):
        raise GroupMismatchError(
            "%s of order %d needs index group %s, got %s" % (what, m, qk(m), params.group)
        )
