import itertools
import random
from fractions import Fraction

import pytest

from affine_insertion import symfunc
from affine_insertion.affperm import (
    dynkin_flip,
    from_reduced_word,
    identity,
    rotate,
)
from affine_insertion.cores import (
    conjugate,
    core_of_bounded,
    grassmannian_of,
    grassmannians_by_length,
    k_conjugate,
    partitions,
)
from affine_insertion.symfunc import (
    NotSymmetric,
    SingularSystem,
    SymPolynomial,
    WeightPolynomial,
    cauchy_check,
    compositions,
    count_matrices,
    e_poly,
    expand_in_basis,
    h_poly,
    k_schur,
    k_schur_spin,
    pieri_checks,
    strong_schur,
    structure_constants,
    weak_schur,
    weak_weight_function,
)


def c0m(n, m):
    return from_reduced_word(n, list(range(m - 1, -1, -1)))


def test_compositions_and_matrices():
    assert sorted(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert count_matrices((2, 1), (1, 1, 1)) == 3
    assert count_matrices((1,), (2,)) == 0
    assert count_matrices((), ()) == 1


def test_sym_polynomial_arithmetic():
    h2 = h_poly(2)
    assert h2.coeffs == {(2,): 1, (1, 1): 1}
    e2 = e_poly(2)
    assert e2.coeffs == {(1, 1): 1}
    # h2 * e2 = s_31 + s_211 = m_31 + m_22 + 3 m_211 + 6 m_1111
    assert (h2 * e2).coeffs == {(3, 1): 1, (2, 2): 1, (2, 1, 1): 3, (1, 1, 1, 1): 6}
    assert h2 * e2 == e2 * h2
    assert (h2 + e2) * e2 == h2 * e2 + e2 * e2
    # [x^comp] reads the partition that sorts comp, zeros dropped
    p = SymPolynomial(4, {(2, 1, 1): 7, (): 2})
    assert p[(0, 1, 2, 0, 1)] == p[(1, 1, 2)] == 7
    assert p[(0, 0)] == p[()] == 2
    assert p[(2, 2)] == 0


def _product_in_variables(f, g):
    """Reference product: expand both factors in deg variables, multiply
    monomial by monomial and read each m_lam off its decreasing exponent."""
    deg = f.degree + g.degree
    nvars = max(deg, 1)

    def expand(p):
        out = {}
        for lam, c in p.coeffs.items():
            for expo in set(itertools.permutations(lam + (0,) * (nvars - len(lam)))):
                out[expo] = out.get(expo, 0) + c
        return out

    acc = {}
    for ea, ca in expand(f).items():
        for eb, cb in expand(g).items():
            key = tuple(a + b for a, b in zip(ea, eb))
            acc[key] = acc.get(key, 0) + ca * cb
    return SymPolynomial(
        deg, {tuple(x for x in e if x): c for e, c in acc.items() if list(e) == sorted(e, reverse=True)}
    )


def test_product_matches_expansion_in_variables():
    pairs = [
        (SymPolynomial(a, {lam: 2}), SymPolynomial(b, {mu: 3}))
        for a in range(5)
        for lam in partitions(a)
        for b in range(8 - a)
        for mu in partitions(b)
    ]
    assert len(pairs) == 184
    for f, g in pairs:
        assert f * g == _product_in_variables(f, g)
    f = SymPolynomial(3, {(): 1, (1,): -2, (2, 1): 5})
    g = SymPolynomial(3, {(1,): 3, (2,): 1, (1, 1, 1): -1})
    assert f * g == _product_in_variables(f, g)
    assert (f * g)[()] == 0 and (f * g)[(1,)] == 3


def test_h_times_h_is_matrix_count():
    # independent oracle: [m_lam] h_mu = #matrices with margins mu, lam
    lhs = h_poly(2) * h_poly(2)
    for lam in partitions(4):
        assert lhs.coeffs.get(lam, 0) == count_matrices((2, 2), lam)


def test_strong_schur_of_c0m_is_h():
    for n in (3, 4):
        for m in range(0, n):
            poly, report = strong_schur(c0m(n, m), identity(n), 0)
            assert report.symmetric
            assert poly == h_poly(m)


def test_strong_schur_trivial_and_zero():
    e = identity(3)
    poly, _ = strong_schur(e, e, 0)
    assert poly.coeffs == {(): 1}
    s1 = from_reduced_word(3, [1])
    poly, _ = strong_schur(s1, e, 0)  # not Grassmannian: no tableaux
    assert poly.coeffs == {}


def test_weak_schur_of_c0m():
    for n in (3, 4):
        for m in range(0, n + 1):
            poly = weak_schur(c0m(n, m), identity(n))
            assert poly == h_poly(m).truncate_bounded(n)


def test_weak_schur_skew_factors():
    # Weak_{u/v} = Weak_{u v^{-1}} when v is weakly below u
    from affine_insertion.weak import weak_order_lower

    for d in range(0, 5):
        for u in grassmannians_by_length(3, d):
            for v in weak_order_lower(u):
                assert weak_schur(u, v) == weak_schur(u * v.inverse(), identity(3))


def test_weak_conjugacy_and_rotation():
    # the inverse and the Dynkin flip share one weak Schur function (the
    # omega+ image of Weak_w), and the rotation fixes it outright
    for d in range(0, 5):
        for w in grassmannians_by_length(3, d):
            base = weak_schur(w, identity(3))
            flipped = weak_schur(dynkin_flip(w), identity(3))
            assert weak_schur(w.inverse(), identity(3)) == flipped
            assert weak_schur(rotate(w), identity(3)) == base


def test_k_schur_h_special_case():
    for n in (3, 4):
        for m in range(1, n):
            assert k_schur((m,), n) == h_poly(m)


def test_k_schur_spin_collapse():
    for size in range(0, 6):
        for b in partitions(size, 2):
            sp = k_schur_spin(b, 3)
            assert sp.collapse() == k_schur(b, 3)
            assert all(spin >= 0 for (_, spin), _ in sp.coeffs.items())


def test_k_schur_spin_has_t2_term():
    # the worked strong tableau of spin 2 contributes to its shape
    sp = k_schur_spin((2, 2, 1), 3)
    assert any(spin == 2 and c for (lam, spin), c in sp.coeffs.items())


def test_pieri_printed_example():
    # h2 * Weak_{s2 s0} = 2 Weak_{s2s1s2s0} + Weak_{s0s1s2s0} + Weak_{s0s2s1s0}
    w = from_reduced_word(3, [2, 0])
    lhs = (h_poly(2) * weak_schur(w, identity(3))).truncate_bounded(3)
    rhs_terms = [
        (2, from_reduced_word(3, [2, 1, 2, 0])),
        (1, from_reduced_word(3, [0, 1, 2, 0])),
        (1, from_reduced_word(3, [0, 2, 1, 0])),
    ]
    rhs = SymPolynomial(4, {})
    for mult, z in rhs_terms:
        term = weak_schur(z, identity(3))
        rhs = rhs + SymPolynomial(term.degree, {k: mult * v for k, v in term.coeffs.items()})
    assert lhs == rhs.truncate_bounded(3)
    reports = pieri_checks(3, 0, w, 2)
    assert all(rep.ok for rep in reports.values())


def test_pieri_no_strips_edge():
    # r = n-1 from a long enough element can have empty strip sets; both
    # sides must then agree on emptiness
    for d in range(0, 4):
        for w in grassmannians_by_length(2, d):
            for name, rep in pieri_checks(2, 0, w, 1).items():
                assert rep.ok, (name, rep.mismatches[:2])


def test_cauchy_identity_small():
    assert cauchy_check(2, 0, dx=3, vy=2).ok
    assert cauchy_check(3, 0, dx=3, vy=2).ok
    rep = cauchy_check(3, 0, dx=0, vy=1)
    assert rep.ok  # degree-0 coefficient is 1 = 1


def test_generalized_cauchy():
    u = from_reduced_word(3, [0])
    v = from_reduced_word(3, [1, 0])
    assert cauchy_check(3, 0, dx=2, vy=2, u=u, v=v).ok
    assert cauchy_check(3, 0, dx=2, vy=2, u=v, v=u).ok


def test_expand_h_in_strong_basis():
    exp = expand_in_basis(h_poly(2), "strong", 3)
    assert exp == {c0m(3, 2): 1}
    exp = expand_in_basis(h_poly(1) * h_poly(1), "strong", 3)
    assert all(v >= 0 for v in exp.values())


def test_structure_constants_match_pieri():
    # multiplying by the basis element of a one-row shape reproduces the
    # weak-strip expansion of the strong Pieri rule
    n, m = 3, 2
    u = c0m(n, m)
    for d in range(0, 3):
        for w in grassmannians_by_length(n, d):
            consts = structure_constants(u, w, "strong", n)
            from affine_insertion.weak import weak_strips_from
            from collections import Counter

            expected = Counter(
                s.outside for s in weak_strips_from(w, m) if s.outside.is_grassmannian(0)
            )
            assert consts == dict(expected)
            assert all(v >= 0 for v in consts.values())


def test_weak_structure_constants_nonnegative():
    n = 3
    for d1 in (1, 2):
        for u in grassmannians_by_length(n, d1):
            for v in grassmannians_by_length(n, 2):
                assert all(x >= 0 for x in structure_constants(u, v, "weak", n).values())


def test_duality_pairing_is_identity():
    # Hall pairing of strong against weak Schur functions, via the
    # h-expansion of the strong side solved from matrix counts
    n = 3
    for d in range(0, 5):
        elements = grassmannians_by_length(n, d)
        bounded = sorted(partitions(d, n - 1))
        # solve Strong_w = sum_mu c_mu h_mu over bounded mu
        for w in elements:
            strong, _ = strong_schur(w, identity(n), 0)
            coeffs = _h_expand(strong, d, bounded)
            for v in elements:
                weak = weak_schur(v, identity(n))
                pairing = sum(
                    c * weak.coeffs.get(mu, 0) for mu, c in zip(bounded, coeffs)
                )
                assert pairing == (1 if v == w else 0)


def _h_expand(poly, d, basis):
    keys = sorted(partitions(d))
    rows = [[count_matrices(mu, lam) for mu in basis] for lam in keys]
    rhs = [poly.coeffs.get(lam, 0) for lam in keys]
    m, k = len(rows), len(basis)
    a = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(rows, rhs)]
    piv = []
    r = 0
    for c in range(k):
        p = next((i for i in range(r, m) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv.append(c)
        r += 1
    sol = [Fraction(0)] * k
    for i, c in enumerate(piv):
        sol[c] = a[i][k]
    assert all(not a[i][k] for i in range(r, m))
    return [int(x) for x in sol]


def test_kschur_matches_duality_oracle():
    # independent oracle: the dual basis to the weak Schur functions under
    # the Hall pairing, solved degreewise by linear algebra, coincides with
    # the strong Schur functions of Grassmannian shape
    n, d = 3, 4
    elements = grassmannians_by_length(n, d)
    bounded = sorted(partitions(d, n - 1))
    keys = sorted(partitions(d))
    weak_rows = {v: weak_schur(v, identity(n)) for v in elements}
    for w in elements:
        # solve for g = sum c_mu h_mu with <g, Weak_v> = delta_{vw}
        mat = [[weak_rows[v].coeffs.get(mu, 0) for mu in bounded] for v in elements]
        rhs = [1 if v == w else 0 for v in elements]
        coeffs = _solve_square(mat, rhs)
        g = {lam: sum(c * count_matrices(mu, lam) for mu, c in zip(bounded, coeffs)) for lam in keys}
        g = {lam: v for lam, v in g.items() if v}
        strong, _ = strong_schur(w, identity(n), 0)
        assert g == strong.coeffs


def _solve_square(mat, rhs):
    k = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(mat, rhs)]
    for c in range(k):
        p = next(i for i in range(c, k) if a[i][c])
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(k):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    sol = [int(a[i][k]) for i in range(k)]
    return sol


def test_singular_system_reported():
    # m_2 lies outside the span of h_1^2 inside the n=2 strong subring
    with pytest.raises(SingularSystem):
        expand_in_basis(SymPolynomial(2, {(2,): 1}), "strong", 2)


@pytest.mark.parametrize("n", [3, 4])
def test_basis_functions_lead_with_coefficient_one(n):
    # the leading terms the basis expansion reduces by, read against cores:
    # k-Schur of b leads with m of the conjugate of b's k-conjugate, the
    # weak Schur function of b's Grassmannian element leads with m_b
    for d in range(7):
        for b in partitions(d, n - 1):
            strong = k_schur(b, n).coeffs
            weak = weak_schur(grassmannian_of(core_of_bounded(b, n), n), identity(n)).coeffs
            assert max(strong) == conjugate(k_conjugate(b, n)) and strong[max(strong)] == 1
            assert max(weak) == b and weak[b] == 1


def _scaled(c, poly):
    return SymPolynomial(poly.degree, {lam: c * x for lam, x in poly.coeffs.items()})


@pytest.mark.parametrize("basis, n", [("strong", 3), ("strong", 4), ("weak", 3), ("weak", 4)])
def test_expansion_recovers_random_combinations(basis, n):
    rng = random.Random(n)
    schur = symfunc._basis_function(basis, n, 0)
    elements = [w for d in range(6) for w in grassmannians_by_length(n, d)]
    for _ in range(10):
        combo = {w: rng.choice([-3, -2, -1, 1, 2, 3]) for w in rng.sample(elements, 4)}
        f = SymPolynomial(0, {})
        for w, c in combo.items():
            f = f + _scaled(c, schur(w))
        assert expand_in_basis(f, basis, n) == combo


@pytest.mark.parametrize("basis", ["strong", "weak"])
@pytest.mark.parametrize("planted", [
    lambda full, w: _scaled(2, full(w)),  # leading coefficient 2
    lambda full, w: h_poly(w.length),  # every function at a degree leads with m_(d)
], ids=["leading-coefficient-2", "shared-leading-term"])
def test_planted_non_unitriangular_basis_raises(monkeypatch, basis, planted):
    # 2 h_2 is twice one basis function, so with every function doubled it
    # still expands in integers; only the leading-term check refuses it
    f = h_poly(2) + h_poly(2)
    assert expand_in_basis(f, basis, 3) == {c0m(3, 2): 2}
    full = symfunc._basis_function(basis, 3, 0)
    monkeypatch.setattr(symfunc, "_basis_function", lambda *args: lambda w: planted(full, w))
    with pytest.raises(SingularSystem):
        expand_in_basis(f, basis, 3)


def test_zero_basis_function_raises():
    # the strong Schur functions at l = 1 include zero functions
    with pytest.raises(SingularSystem):
        expand_in_basis(h_poly(2), "strong", 3, l=1)


def test_weight_function_zero_parts():
    w = from_reduced_word(3, [1, 0])
    wf = weak_weight_function(w, identity(3))
    assert wf[(1, 0, 1)] == wf[(1, 1)] == 1


def test_k_rectangle_product_identity():
    # the 2-Schur function of the 2x2 rectangle is the square of h_2, and
    # the square of the one-row basis element expands into it alone
    assert k_schur((2, 2), 3) == h_poly(2) * h_poly(2)
    u = c0m(3, 2)
    from affine_insertion.cores import bounded_of, core_of

    (z, c), = structure_constants(u, u, "strong", 3).items()
    assert c == 1 and bounded_of(core_of(z), 3) == (2, 2)


def test_distinct_perms_are_the_rearrangements():
    for d in range(8):
        for lam in partitions(d):
            perms = list(symfunc._distinct_perms(lam))
            assert len(perms) == len(set(perms))
            assert set(perms) == set(itertools.permutations(lam))


def test_symmetry_report_matches_brute_force_on_planted_asymmetry():
    # symmetric counts of degree 5, then three rearrangements and one
    # partition disturbed
    coeffs = {comp: 1 for comp in compositions(5)}
    coeffs[(3, 2)] = 2
    coeffs[(2, 1, 2)] = 4
    coeffs[(1, 1, 3)] = 0
    del coeffs[(1, 4)]
    wf = WeightPolynomial(5, coeffs)
    expected = {
        (lam, comp, coeffs.get(lam, 0), coeffs.get(comp, 0))
        for lam in partitions(5)
        for comp in set(itertools.permutations(lam))
        if coeffs.get(comp, 0) != coeffs.get(lam, 0)
    }
    report = wf.symmetry_report()
    assert not report.symmetric
    assert len(report.failures) == len(expected) == 4
    assert set(report.failures) == expected


def test_symmetry_gate_raises_not_symmetric(monkeypatch):
    # a raise, unlike an assert, still fires under python -O
    lopsided = WeightPolynomial(3, {(2, 1): 1})
    assert not lopsided.symmetry_report().symmetric
    monkeypatch.setattr(symfunc, "weak_weight_function", lambda u, v: lopsided)
    monkeypatch.setattr(symfunc, "strong_weight_function", lambda u, v, l: lopsided)
    with pytest.raises(NotSymmetric, match="weak Schur"):
        weak_schur(c0m(3, 2), identity(3))
    with pytest.raises(NotSymmetric, match="k-Schur"):
        k_schur((2,), 3)
    assert issubclass(NotSymmetric, ValueError)


@pytest.mark.parametrize("call", [
    lambda: expand_in_basis(h_poly(1), "dual", 3),
    lambda: structure_constants(identity(3), identity(3), "dual", 3),
])
def test_unknown_basis_rejected(call):
    with pytest.raises(ValueError, match="unknown basis 'dual'"):
        call()


@pytest.mark.parametrize("enumerator, failing", [
    ("weak_strips_from", {"strong"}),
    ("dual_weak_strips_from", {"dual_strong"}),
    ("strong_strips_from", {"weak", "dual_weak"}),
])
def test_pieri_dropped_strip_fails_only_its_rules(monkeypatch, enumerator, failing):
    w = c0m(3, 2)
    assert all(rep.ok for rep in pieri_checks(3, 0, w, 1).values())
    full = getattr(symfunc, enumerator)
    monkeypatch.setattr(symfunc, enumerator, lambda *args: full(*args)[:-1])
    reports = pieri_checks(3, 0, w, 1)
    assert list(reports) == ["strong", "dual_strong", "weak", "dual_weak"]
    assert {name for name, rep in reports.items() if not rep.ok} == failing
