"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is property-based with tolerance zero.  Each test prints one
PASS line; run with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import time
from fractions import Fraction
from itertools import combinations
from math import inf

from hvir import (
    CD,
    CDI,
    CENTERLESS,
    CI,
    EXACT_CENTRAL,
    AlgebraElement,
    I,
    ModuleParams,
    RescalingMap,
    WeightVector,
    Window,
    act,
    apply_phi,
    align_extension,
    basis_vector,
    bracket,
    classify,
    closure,
    contains,
    cyclic,
    d,
    finitely_generated,
    intermediate_series_table,
    intertwiner_check,
    iso_check,
    jacobiator,
    normalize_alpha,
    parse_element,
    pullback_params,
    qk,
    rank,
    recover_params,
    reducibility_scan,
    subgroup_intersect,
    subgroup_sum,
    supernatural,
    transported_table,
    NonConstantScalingError,
)
from hvir.cli import main as cli_main
from hvir.intermediate import _rescaling_power
from helpers import rand_fraction, rand_nonzero_fraction, rng

F = Fraction
Z = qk(0)

VERDICTS = {}


def test_c01_jacobi_suite():
    """Criterion 1: the jacobiator vanishes on every basis triple with
    indices n/6, |n| <= 12, in under 30 seconds."""
    start = time.time()
    indices = [F(n, 6) for n in range(-12, 13)]
    keys = [d(q) for q in indices] + [I(q) for q in indices] + [CD, CDI, CI]
    checked = 0
    for x, y, z in combinations(keys, 3):
        assert jacobiator(x, y, z).is_zero(), (x, y, z)
        checked += 1
    elapsed = time.time() - start
    assert checked == len(keys) * (len(keys) - 1) * (len(keys) - 2) // 6
    assert elapsed < 30.0
    print("ACCEPTANCE 1 PASS: Jacobi identity on %d basis triples in %.1fs"
          % (checked, elapsed))


def test_c02_representation_suite():
    """Criterion 2: act([x,y],v) == act(x,act(y,v)) - act(y,act(x,v)) for
    all basis pairs with |n| <= 8 over the integers, all window basis
    vectors, and 100 seeded rational parameter triples."""
    r = rng(20250810)
    keys = [d(n) for n in range(-8, 9)] + [I(n) for n in range(-8, 9)] + [CD, CDI, CI]
    elems = [AlgebraElement.basis(k) for k in keys]
    pairs = [(i, j, bracket(elems[i], elems[j]))
             for i, j in combinations(range(len(elems)), 2)]
    window_indices = list(range(-8, 9))
    checked = 0
    for _ in range(100):
        p = ModuleParams(rand_fraction(r), rand_fraction(r), rand_fraction(r), Z)
        vectors = [basis_vector(p, q) for q in window_indices]
        first_level = [[act(p, e, v) for v in vectors] for e in elems]
        for i, j, br in pairs:
            for n, v in enumerate(vectors):
                lhs = act(p, br, v)
                rhs = act(p, elems[i], first_level[j][n]) - act(
                    p, elems[j], first_level[i][n]
                )
                assert lhs == rhs
                checked += 1
    print("ACCEPTANCE 2 PASS: representation identity on %d exact checks" % checked)


def test_c03_reducibility_locus():
    """Criterion 3: on the 36-point grid the window scan matches the
    criterion verdict everywhere, and reducible points are exactly
    (0,0,0) and (0,1,0)."""
    window = Window(Z, 8)
    reducible_points = set()
    checked = 0
    for alpha in (F(0), F(1, 2), F(1, 3)):
        for beta in (F(0), F(1, 2), F(1), F(2)):
            for f in (F(0), F(1), F(3)):
                p = ModuleParams(alpha, beta, f, Z)
                scanned = reducibility_scan(p, window)
                assert scanned.verdict == classify(p).verdict, (alpha, beta, f)
                if scanned.verdict != "Irreducible":
                    reducible_points.add((alpha, beta, f))
                checked += 1
    assert reducible_points == {(F(0), F(0), F(0)), (F(0), F(1), F(0))}
    assert checked == 36
    print("ACCEPTANCE 3 PASS: scan matches classify on %d grid points; "
          "reducible locus is exactly {(0,0,0), (0,1,0)}" % checked)


def _assert_window_invariant(params, window, span):
    for row in span.echelon_basis:
        for g in window.steps():
            for key in (d(g), I(g)):
                image = act(params, key, row)
                clipped = WeightVector(
                    params, {q: c for q, c in image.entries.items() if q in window}
                )
                assert span.contains(clipped)


def test_c04_submodule_geometry():
    """Criterion 4: closure dimensions 1 and 16 at bound 8, both spans
    invariant under every window generator application."""
    window = Window(Z, 8)
    p_trivial = ModuleParams(F(0), F(0), F(0), Z)
    span_t = closure(p_trivial, window, [basis_vector(p_trivial, 0)])
    assert span_t.dimension == 1
    _assert_window_invariant(p_trivial, window, span_t)

    p_codim = ModuleParams(F(0), F(1), F(0), Z)
    span_c = closure(p_codim, window, [basis_vector(p_codim, 1)])
    assert span_c.dimension == 16
    assert span_c.pivots() == [F(n) for n in range(-8, 9) if n != 0]
    _assert_window_invariant(p_codim, window, span_c)
    print("ACCEPTANCE 4 PASS: closures have dimensions 1 and 16 at bound 8 "
          "and are generator-invariant")


def _subquotient_intertwines(bound):
    source = ModuleParams(F(0), F(0), F(0), Z)
    target = ModuleParams(F(0), F(1), F(0), Z)
    window = Window(Z, bound)

    def project(vec):
        return WeightVector(source, {q: c for q, c in vec.entries.items() if q != 0})

    def phi(vec):
        return WeightVector(target, {q: q * c for q, c in vec.entries.items()})

    checked = 0
    for h in window.indices():
        if h == 0:
            continue
        vbar = basis_vector(source, h)
        image = phi(vbar)
        assert image.coefficient(h) == h  # lands in the nonzero-index span
        for g in window.steps():
            if (h + g) not in window:
                continue
            for key in (d(g), I(g)):
                lhs = phi(project(act(source, key, vbar)))
                rhs = act(target, key, image)
                assert lhs == rhs
                checked += 1
    return checked


def test_c05_subquotient_isomorphism():
    """Criterion 5: v(h) -> h*w(h) intertwines the quotient of the
    (0,0,0) module with the codimension-1 submodule of (0,1,0) on the
    bound-10 window, exactly."""
    checked = _subquotient_intertwines(10)
    assert checked > 0
    print("ACCEPTANCE 5 PASS: subquotient intertwiner verified on %d "
          "window actions at bound 10" % checked)


def test_c06_phi_homomorphism():
    """Criterion 6: the exact-central rescaling preserves brackets on all
    basis pairs with |n| <= 10 for m in {2,3}; the centerless rescaling
    preserves them modulo the central span."""
    checked_exact = 0
    checked_centerless = 0
    for m in (2, 3):
        phi_exact = RescalingMap(m, EXACT_CENTRAL)
        phi_plain = RescalingMap(m, CENTERLESS)
        keys = [d(n) for n in range(-10, 11)] + [I(n) for n in range(-10, 11)]
        all_keys = keys + [CD, CDI, CI]
        for a, b in combinations(all_keys, 2):
            lhs = apply_phi(phi_exact, bracket(a, b))
            rhs = bracket(apply_phi(phi_exact, a), apply_phi(phi_exact, b))
            assert lhs == rhs, (m, a, b)
            checked_exact += 1
        for a, b in combinations(keys, 2):
            lhs = apply_phi(phi_plain, bracket(a, b).without_central())
            rhs = bracket(apply_phi(phi_plain, a), apply_phi(phi_plain, b))
            diff = lhs - rhs
            assert diff.without_central().is_zero(), (m, a, b)
            checked_centerless += 1
    print("ACCEPTANCE 6 PASS: exact rescaling is a bracket homomorphism on "
          "%d pairs; centerless variant matches modulo center on %d pairs"
          % (checked_exact, checked_centerless))


def test_c07_parameter_transport():
    """Criterion 7: for 50 seeded parameter triples over {n/m!} with m in
    {2,3}, the rescaling-transported action tables equal the tables of
    the (m! alpha, beta, m! f) module over the integers at bound 6."""
    r = rng(77)
    checked = 0
    for _ in range(50):
        for m in (2, 3):
            p = ModuleParams(
                rand_fraction(r, 9, 7), rand_fraction(r), rand_fraction(r), qk(m)
            )
            transported = transported_table(p, m, 6)
            direct = intermediate_series_table(pullback_params(p, m), Window(Z, 6))
            assert transported == direct
            checked += 1
    print("ACCEPTANCE 7 PASS: transported tables equal the rescaled-parameter "
          "tables on %d instances" % checked)


def test_c08_recovery_and_alignment():
    """Criterion 8: parameter recovery inverts table construction under
    constant basis scrambling on 50 seeded instances; alignment recovers
    the constant and rejects injected index-dependent scalings."""
    r = rng(88)
    window = Window(Z, 4)
    for _ in range(50):
        p = ModuleParams(
            rand_fraction(r), rand_fraction(r), rand_nonzero_fraction(r), Z
        )
        constant = rand_nonzero_fraction(r)
        table = intermediate_series_table(
            p, window, scales={q: constant for q in window.indices()}
        )
        recovered, scales = recover_params(table)
        assert recovered == p
        assert set(scales.values()) == {F(1)}

    aligned_count = 0
    rejected_count = 0
    for _ in range(20):
        p = ModuleParams(
            rand_fraction(r), rand_fraction(r), rand_nonzero_fraction(r), Z
        )
        constant = rand_nonzero_fraction(r)
        reference = {F(n): basis_vector(p, n) for n in range(-2, 3)}
        candidate = {F(n): constant * basis_vector(p, n) for n in range(-4, 5)}
        aligned = align_extension(reference, candidate)
        assert all(aligned[q] == reference[q] for q in reference)
        assert aligned[F(4)] == basis_vector(p, 4)
        aligned_count += 1

        skewed = {q: (F(1) + abs(q)) * vec for q, vec in candidate.items()}
        try:
            align_extension(reference, skewed)
        except NonConstantScalingError:
            rejected_count += 1
    assert aligned_count == 20 and rejected_count == 20
    print("ACCEPTANCE 8 PASS: 50 recoveries inverted construction; %d "
          "alignments recovered the constant and %d non-constant scalings "
          "were rejected" % (aligned_count, rejected_count))


def test_c09_isomorphism_criterion():
    """Criterion 9: iso_check and the window intertwiner agree on a
    20-pair sample: true verdicts carry a verified witness, false verdicts
    fail at every candidate window shift."""
    window = Window(Z, 8)
    r = rng(99)
    pairs = []
    # shifted copies, nonzero I-eigenvalue
    for _ in range(5):
        alpha = rand_fraction(r, 5, 7)
        beta, f = rand_fraction(r), rand_nonzero_fraction(r)
        shift = F(r.randint(-4, 4))
        pairs.append(
            (ModuleParams(alpha, beta, f, Z), ModuleParams(alpha + shift, beta, f, Z))
        )
    # shifted copies with f == 0
    for shift in (F(2), F(-3)):
        pairs.append(
            (
                ModuleParams(F(1, 5), F(3), F(0), Z),
                ModuleParams(F(1, 5) + shift, F(3), F(0), Z),
            )
        )
    # the exceptional subquotient identification, and the slope swap off
    # the group
    pairs.append((ModuleParams(F(0), F(0), F(0), Z), ModuleParams(F(0), F(1), F(0), Z)))
    pairs.append((ModuleParams(F(1, 3), F(0), F(0), Z), ModuleParams(F(1, 3), F(1), F(0), Z)))
    # mismatches: I-eigenvalue, slope, offset coset
    pairs.append((ModuleParams(F(0), F(2), F(3), Z), ModuleParams(F(0), F(2), F(4), Z)))
    pairs.append((ModuleParams(F(0), F(2), F(3), Z), ModuleParams(F(0), F(5), F(3), Z)))
    pairs.append((ModuleParams(F(1, 3), F(2), F(3), Z), ModuleParams(F(1, 2), F(2), F(3), Z)))
    for _ in range(8):
        p1 = ModuleParams(rand_fraction(r, 5, 7), rand_fraction(r), rand_fraction(r), Z)
        p2 = ModuleParams(rand_fraction(r, 5, 7), rand_fraction(r), rand_fraction(r), Z)
        pairs.append((p1, p2))
    assert len(pairs) == 20

    true_count = 0
    false_count = 0
    for p1, p2 in pairs:
        flag, shift = iso_check(p1, p2)
        if flag:
            true_count += 1
            if p1.beta == p2.beta:
                assert intertwiner_check(p1, p2, shift, window), (p1, p2)
            elif p1.alpha == 0:
                # the beta-swap identification lives on the subquotients;
                # its explicit intertwiner is the criterion-5 map
                assert p1.f == 0
                assert _subquotient_intertwines(8) > 0
            else:
                # off the group the modules themselves are isomorphic: the
                # rescaling v(q) -> (alpha + q) u(q) turns beta 0 into beta 1
                assert (shift, p1.f, p1.beta, p2.beta) == (0, 0, 0, 1)
                scales = {q: 1 / (p1.alpha + q) for q in window.indices()}
                assert intermediate_series_table(p1, window, scales) == \
                    intermediate_series_table(p2, window)
                # the witness the CLI prints: v(q) -> (alpha + q) u(q - shift)
                assert _rescaling_power(p1, p2) == 1
                scales = {q: p1.alpha + q for q in window.indices()}
                assert intertwiner_check(p1, p2, shift, window, scales=scales)
                assert not intertwiner_check(p1, p2, shift, window)
        else:
            false_count += 1
            for g in window.indices():
                assert not intertwiner_check(p1, p2, g, window), (p1, p2, g)
    assert true_count >= 8 and false_count >= 4
    print("ACCEPTANCE 9 PASS: iso_check and window intertwiners agree on "
          "%d true and %d false pairs" % (true_count, false_count))


def test_c10_group_algebra():
    """Criterion 10: randomized lattice properties of the subgroup
    operations, including the factorial-denominator chain inclusions."""
    r = rng(1010)
    groups = [cyclic(F(r.randint(1, 9), r.randint(1, 9))) for _ in range(12)]
    groups += [qk(k) for k in range(5)]
    groups += [supernatural({2: inf}), supernatural({2: 2, 3: inf})]

    def sample_member(g):
        if hasattr(g, "generator"):
            return r.randint(-20, 20) * g.generator
        den = 1
        for p, e in g.exponents:
            cap = 4 if e == inf else e
            den *= p ** r.randint(0, cap)
        return F(r.randint(-20, 20), den)

    checked = 0
    for g in groups:
        assert subgroup_sum(g, g) == g and subgroup_intersect(g, g) == g
        for h in groups:
            total = subgroup_sum(g, h)
            meet = subgroup_intersect(g, h)
            assert total == subgroup_sum(h, g)
            assert meet == subgroup_intersect(h, g)
            # absorption
            assert subgroup_sum(g, meet) == g
            assert subgroup_intersect(g, total) == g
            for _ in range(3):
                x = sample_member(g)
                assert contains(g, x)
                assert contains(total, x)
            checked += 1
    for g in groups:
        for h in groups:
            for k in groups[:6]:
                assert subgroup_sum(subgroup_sum(g, h), k) == subgroup_sum(
                    g, subgroup_sum(h, k)
                )
                assert subgroup_intersect(
                    subgroup_intersect(g, h), k
                ) == subgroup_intersect(g, subgroup_intersect(h, k))
    # the factorial-denominator chain
    for k in range(1, 9):
        for n in range(-60, 61):
            q = F(n) * qk(k).generator
            assert contains(qk(k), q)
            assert contains(qk(k + 1), q)
        assert not contains(qk(k), qk(k + 1).generator)
    # rank and finite generation
    from hvir import FULL_Q, TRIVIAL

    assert rank(TRIVIAL) == 0
    for g in groups + [FULL_Q]:
        assert rank(g) == 1
    assert finitely_generated(qk(3)) and not finitely_generated(FULL_Q)
    assert not finitely_generated(supernatural({2: inf}))
    # normalization
    for _ in range(200):
        alpha = rand_fraction(r, 12, 9)
        g = groups[r.randrange(len(groups))]
        once = normalize_alpha(alpha, g)
        assert normalize_alpha(once, g) == once
        assert contains(g, alpha - once)
    print("ACCEPTANCE 10 PASS: lattice, chain, rank and normalization "
          "properties hold on %d group pairs" % checked)


def test_c11_cli_golden(capsys):
    """Criterion 11: the three documented CLI outputs are byte-identical,
    and printing then parsing 200 seeded elements round-trips."""
    cases = [
        (["classify", "0,1,0@Q"],
         "verdict: ReducibleCodimOne\n"
         "subquotient: the span of the nonzero indices is an irreducible "
         "submodule of codimension 1\n"),
        (["bracket", "d(2)", "d(-2)"], "-4*d(0) + 1/2*CD\n"),
        (["phi", "--m", "2", "--variant", "exact", "d(0)"], "2*d(0) + 1/16*CD\n"),
    ]
    for argv, expected in cases:
        status = cli_main(argv)
        captured = capsys.readouterr()
        assert status == 0
        assert captured.out == expected
        assert captured.err == ""

    r = rng(1111)
    indices = [F(n, k) for n in range(-12, 13) for k in (1, 2, 3, 6)]
    keys = [d, I]
    for _ in range(200):
        terms = []
        for _ in range(r.randint(0, 6)):
            which = r.randint(0, 4)
            if which < 2:
                key = keys[which](r.choice(indices))
            else:
                key = (CD, CDI, CI)[which - 2]
            terms.append((key, rand_fraction(r, 9, 9)))
        element = AlgebraElement(terms)
        assert parse_element(str(element)) == element
    print("ACCEPTANCE 11 PASS: 3 golden CLI outputs byte-identical; 200 "
          "element round-trips exact")
