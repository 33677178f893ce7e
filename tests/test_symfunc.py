import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_insertion import clear_caches, symfunc
from affine_insertion.affperm import (
    AffinePermutation,
    RankMismatch,
    dynkin_flip,
    elements_by_length,
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
    spin_tableau,
)
from affine_insertion.strong import (
    MarkedStrongCover,
    StrongTableau,
    _strong_table,
    strong_strips_from,
    strong_weight_table,
)
from affine_insertion.symfunc import (
    NotSymmetric,
    SingularSystem,
    SpinPolynomial,
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
    strong_weight_function,
    structure_constants,
    weak_schur,
    weak_weight_function,
)
from affine_insertion.oracles import cyclically_increasing


def c0m(n, m):
    return from_reduced_word(n, list(range(m - 1, -1, -1)))


def test_compositions_and_matrices():
    assert sorted(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert count_matrices((2, 1), (1, 1, 1)) == 3
    assert count_matrices((1,), (2,)) == 0
    assert count_matrices((), ()) == 1


def _brute_count_matrices(rows, cols):
    cells = [range(min(r, c) + 1) for r in rows for c in cols]
    width = len(cols)
    return sum(
        1
        for entries in itertools.product(*cells)
        if all(sum(entries[i * width:(i + 1) * width]) == r for i, r in enumerate(rows))
        and all(sum(entries[j::width]) == c for j, c in enumerate(cols))
    )


def test_count_matrices_on_permuted_and_zero_padded_columns():
    # the memo key sorts the remaining columns and drops zeros; every
    # arrangement of the same columns must still count the same matrices
    for rows in [(1,), (2, 1), (1, 2), (0, 3), (2, 0, 1), (1, 1, 1)]:
        for cols in [(3,), (2, 1), (1, 1, 1), (2, 2), (3, 1), (1, 1, 2)]:
            for padded in {cols, cols + (0,), (0,) + cols, (cols[0], 0) + cols[1:]}:
                for perm in set(itertools.permutations(padded)):
                    assert count_matrices(rows, perm) == _brute_count_matrices(rows, perm), (rows, perm)


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


def _reference_coefficient(g, f, alpha):
    """[x^alpha] (g * f) the backward way, f read by composition: every
    exponent vector gamma <= alpha of g, each part capped by g's largest part."""
    top = max((lam[0] for lam in g.coeffs if lam), default=0)
    caps = tuple(min(a, top) for a in alpha)
    total = 0
    for d in {sum(lam) for lam in g.coeffs}:
        for gamma in symfunc._bounded_vectors(caps, d):
            if c := g[gamma]:
                total += c * f[tuple(a - x for a, x in zip(alpha, gamma))]
    return total


def test_merged_product_equals_the_backward_reference():
    # every element of length <= 4 at n = 3 and <= 3 at n = 4, every l,
    # both weight functions, every r, both h_r and e_r
    checked = 0
    for n, max_length in ((3, 4), (4, 3)):
        e = identity(n)
        for w in itertools.chain.from_iterable(elements_by_length(n, max_length)):
            for l in range(n):
                for f in (strong_weight_function(w, e, l), weak_weight_function(w, e)):
                    for r in range(1, n):
                        for g in (h_poly(r), e_poly(r)):
                            alphas = list(compositions(w.length + r))
                            got = symfunc._merged_product(g, f)
                            assert set(got) <= set(alphas)
                            assert [got.get(a, 0) for a in alphas] == [_reference_coefficient(g, f, a) for a in alphas]
                            checked += len(alphas)
    assert checked == 34_028
    # SymPolynomial products, read by partition: mixed degrees and a constant term
    polys = [
        h_poly(2),
        e_poly(3),
        h_poly(1) + e_poly(2),
        SymPolynomial(4, {(2, 1, 1): 7, (): 2}),
        k_schur((2, 1), 3),
        k_schur((2, 2, 1), 3),
        k_schur((3, 1), 4),
        k_schur((2, 2, 1), 4),
    ]
    for f, g in itertools.product(polys, repeat=2):
        deg = f.degree + g.degree
        expected = {lam: c for d in range(deg + 1) for lam in partitions(d) if (c := _reference_coefficient(f, g, lam))}
        assert (f * g).coeffs == expected


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


def _walking_k_schur_spin(b, n):
    """k_schur_spin by walking: every strong tableau of each partition
    weight, built strip by strip and graded by spin_tableau."""
    u, e = symfunc._grassmannian_from_bounded(b, n), identity(n)

    def walk(chain, cur, weight):
        if not weight:
            if cur == u:
                yield StrongTableau(e, chain)
            return
        for strip in strong_strips_from(cur, weight[0], 0):
            yield from walk(chain + (strip,), strip.outside, weight[1:])

    out = {}
    for lam in partitions(u.length):
        for t in walk((), e, lam):
            key = (lam, spin_tableau(t))
            out[key] = out.get(key, 0) + 1
    return SpinPolynomial(u.length, out)


@pytest.mark.parametrize("n", [3, 4])
def test_k_schur_spin_equals_the_walk(n):
    shapes = [b for d in range(9) for b in partitions(d, n - 1)]
    assert len(shapes) == {3: 25, 4: 41}[n]
    for b in shapes:
        assert k_schur_spin(b, n) == _walking_k_schur_spin(b, n), b


@pytest.mark.parametrize("n", [3, 4, 5])
def test_spin_table_collapses_to_the_weight_table(n):
    e = identity(n)
    for d in range(8):
        for u in grassmannians_by_length(n, d):
            plain = strong_weight_table(e, u, 0)
            slot = sum(plain.values()).bit_length()  # wider than any count per (weight, spin)
            graded = _strong_table(e, u, slot)
            digit = (1 << slot) - 1
            collapsed = {comp: sum(c >> s & digit for s in range(0, c.bit_length(), slot)) for comp, c in graded.items()}
            assert collapsed == plain, u


# REPORT pinned, not a theorem asserted: (n, top degree) -> Grassmannian shapes of degree
# 0 to top, and how many of them are symmetric in every t-degree
SPIN_SYMMETRY = {(3, 14): (64, 64), (4, 11): (83, 83), (5, 9): (71, 71), (6, 8): (60, 60)}
# MarkedStrongCover.spin = c(h - 1) + p planted two ways: +1 when p > 0, and p dropped
SPIN_PLANTS = {
    "+1 when p > 0": (lambda ch, p: ch + p + (p > 0), {(3, 10): (36, 6), (4, 8): (41, 11)}),
    "p dropped": (lambda ch, p: ch, {(3, 10): (36, 6), (4, 8): (41, 11)}),
}


def _spin_symmetry_counts(n, top):
    # equal packed ints are equal t-polynomials, so one symmetry_report on the packed
    # table checks every t-degree at once
    e, shapes, symmetric = identity(n), 0, 0
    for d in range(top + 1):
        for u in grassmannians_by_length(n, d):
            slot = max(strong_weight_table(e, u, 0).values()).bit_length()
            shapes += 1
            symmetric += WeightPolynomial(d, _strong_table(e, u, slot)).symmetry_report().symmetric
    return shapes, symmetric


@pytest.mark.parametrize("n, top", SPIN_SYMMETRY)
def test_spin_tables_are_symmetric_in_every_t_degree(n, top):
    assert _spin_symmetry_counts(n, top) == SPIN_SYMMETRY[n, top]


def _planted_spin(plant):
    def spin(c):
        w, i, n = c.inside, c.i, c.inside.n
        p = (c.j - c.l - 1) // n
        h_1 = sum(1 for v in range(w(i) + 1, c.mark) if w.position_of(v) < i)
        return plant(((c.l - i) // n + p + 1) * h_1, p)

    return property(spin)  # a data descriptor, so no spin cached on a cover answers instead


@pytest.mark.parametrize("plant", SPIN_PLANTS)
def test_a_spin_plant_breaks_the_t_degree_symmetry(monkeypatch, plant):
    formula, counts = SPIN_PLANTS[plant]
    clear_caches()  # no memo may answer from before the plant, nor keep its answers after
    monkeypatch.setattr(MarkedStrongCover, "spin", _planted_spin(formula))
    try:
        assert {key: _spin_symmetry_counts(*key) for key in counts} == counts
    finally:
        monkeypatch.undo()
        clear_caches()


def test_k_schur_spin_at_degree_11_builds_no_strip():
    clear_caches()
    sp = k_schur_spin((3, 3, 2, 2, 1), 4)
    assert sp.collapse() == k_schur((3, 3, 2, 2, 1), 4)
    assert all(spin >= 0 for (_, spin) in sp.coeffs)
    assert strong_strips_from.cache_info().misses == 0  # spin is carried through the mark DP


# (sha256, number of terms) of the sorted terms of k_schur(b, n) at degree 16,
# beyond the degree-11 shapes of perfbench/kschur_digests.json
DEGREE_16_DIGESTS = {
    ((3, 3, 3, 2, 2, 2, 1), 4): ("b5a23ac4a2e071142ed814742279cd46c8984b8b5db0227d9cd8fa990ba8ea48", 227),
    ((4, 4, 3, 2, 2, 1), 5): ("91f68f6ecc5de96847c2768ad676092ea8a01599afd5c244ccd8c193ed62e247", 221),
}


@pytest.mark.parametrize("b, n", DEGREE_16_DIGESTS)
def test_k_schur_at_degree_16_matches_its_digest(b, n):
    terms = sorted([list(lam), c] for lam, c in k_schur(b, n).coeffs.items())
    digest = hashlib.sha256(json.dumps(terms, separators=(",", ":")).encode()).hexdigest()
    assert (digest, len(terms)) == DEGREE_16_DIGESTS[b, n]


def _spin_terms(b, n):
    return sorted([list(lam), spin, c] for (lam, spin), c in k_schur_spin(b, n).coeffs.items())


def _sha256(doc):
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


def test_k_schur_spin_matches_its_digests():
    # recorded from the unpacked {spin: {composition: count}} tables: one sha256 over
    # [n, b, sorted terms [partition, spin, count]] for the 305 shapes of degree 1 to
    # 12, 11, 10 and 9 at n = 3, 4, 5 and 6, and one (with the term count) at degree 16
    tops = {3: 12, 4: 11, 5: 10, 6: 9}
    shapes = [(n, b) for n, top in tops.items() for d in range(1, top + 1) for b in partitions(d, n - 1)]
    assert len(shapes) == 305
    sweep = _sha256([[n, list(b), _spin_terms(b, n)] for n, b in shapes])
    assert sweep == "bf9ae858bf7ac7d00b7de0cc5d6b5f8c69fab12e0f6d9b46d40ef572b4b1c380"
    terms = _spin_terms((2,) * 8, 3)
    assert (_sha256(terms), len(terms)) == ("33245e477dfc4ac11caefe8c487955a290113c82a69eda9942f46343beab203d", 10593)


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


def _cauchy_reference(n, l=0, dx=3, vy=2, u=None, v=None):
    """cauchy_check as one loop per (alpha, beta) over all lhs terms and all z."""
    u = u if u is not None else identity(n)
    v = v if v is not None else identity(n)
    px = max(dx, 1)
    bounded = symfunc._bounded_vectors
    alphas = [a for total in range(dx + 1) for a in bounded((total,) * px, total)]
    betas = [b for total in range(vy * (n - 1) + 1) for b in bounded((n - 1,) * vy, total)]
    f_coeffs = {}
    for w in (w for w in symfunc.weak_order_lower(v) if w.length <= u.length):
        da, db = u.length - w.length, v.length - w.length
        if da < 0 or da > dx or db > vy * (n - 1):
            continue
        for alpha in (a for a in alphas if sum(a) == da):
            if ca := symfunc.count_strong_tableaux(w, u, alpha, l):
                for beta in (b for b in betas if sum(b) == db):
                    if cb := symfunc.count_weak_tableaux(w, v, beta):
                        f_coeffs[(alpha, beta)] = f_coeffs.get((alpha, beta), 0) + ca * cb
    max_z = min(v.length + dx, u.length + vy * (n - 1))
    zs = [z for z in symfunc.weak_order_upper(u, max(0, max_z - u.length)) if z.length >= v.length]
    checked, mismatches = 0, []
    for alpha in alphas:
        for beta in betas:
            lhs = 0
            for (a1, b1), cf in f_coeffs.items():
                if all(x >= y for x, y in zip(alpha, a1)) and all(x >= y for x, y in zip(beta, b1)):
                    a2 = tuple(x - y for x, y in zip(alpha, a1))
                    b2 = tuple(x - y for x, y in zip(beta, b1))
                    lhs += cf * symfunc._omega_coefficient(n, a2, b2)
            rhs = 0
            for z in zs:
                if z.length - v.length == sum(alpha) and z.length - u.length == sum(beta):
                    if cs := symfunc.count_strong_tableaux(v, z, alpha, l):
                        rhs += cs * symfunc.count_weak_tableaux(u, z, beta)
            checked += 1
            if lhs != rhs:
                mismatches.append((alpha, beta, lhs, rhs))
    return symfunc.CauchyReport(not mismatches, checked, tuple(mismatches))


CAUCHY_BORDERS = {
    "plain": (None, None),
    "[0,1,5]/[-1,1,6]": ([0, 1, 5], [-1, 1, 6]),
    "[0,2,4]/[0,2,4]": ([0, 2, 4], [0, 2, 4]),
}


@pytest.mark.parametrize("l", [0, 1])
@pytest.mark.parametrize("border", CAUCHY_BORDERS)
def test_cauchy_check_matches_the_reference_loop(border, l):
    u, v = (w and AffinePermutation(3, w) for w in CAUCHY_BORDERS[border])
    for dx in range(6):
        for vy in range(3):
            got = cauchy_check(3, l, dx=dx, vy=vy, u=u, v=v)
            assert got == _cauchy_reference(3, l, dx=dx, vy=vy, u=u, v=v), (dx, vy)


def test_cauchy_check_matches_the_reference_loop_at_n4():
    assert cauchy_check(4, 0, dx=3, vy=1) == _cauchy_reference(4, 0, dx=3, vy=1)


def test_cauchy_planted_omega_gives_the_reference_mismatches(monkeypatch):
    omega = symfunc._omega_coefficient
    monkeypatch.setattr(symfunc, "_omega_coefficient", lambda n, a, b: omega(n, a, b) + (sum(a) == 1 and sum(b) == 2))
    u, v = AffinePermutation(3, [0, 1, 5]), AffinePermutation(3, [-1, 1, 6])
    for args in [dict(dx=3, vy=2), dict(dx=4, vy=2, u=u, v=v)]:
        got = cauchy_check(3, 0, **args)
        assert not got.ok and got == _cauchy_reference(3, 0, **args), args


def _short_elements(n):
    """The elements of length <= 3 at rank n, shortest first."""
    return list(itertools.chain.from_iterable(elements_by_length(n, 3)))


@st.composite
def _cauchy_inputs(draw):
    n = draw(st.sampled_from((3, 4)))
    elements = st.sampled_from(_short_elements(n))
    u, v = draw(elements), draw(elements)
    return dict(n=n, l=draw(st.integers(0, n - 1)), dx=draw(st.integers(0, 4)), vy=draw(st.integers(0, 2)), u=u, v=v)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_cauchy_inputs())
def test_cauchy_check_equals_the_reference_loop_on_random_borders(args):
    assert cauchy_check(**args) == _cauchy_reference(**args)


def test_cauchy_sweep_at_n3_passes_on_every_border_pair():
    elements = _short_elements(3)
    reports = [cauchy_check(3, l, 3, 2, u, v) for u in elements for v in elements for l in range(3)]
    assert len(reports) == 1083
    assert all(rep.ok for rep in reports)
    assert sum(rep.checked for rep in reports) == 1083 * 180


@pytest.mark.parametrize(
    "args, error",
    [
        (dict(n=1), ValueError),
        (dict(n=3, dx=-1), ValueError),
        (dict(n=3, vy=-1), ValueError),
        (dict(n=3, dx=2, vy=1, u=identity(4), v=identity(4)), RankMismatch),
        (dict(n=3, u=identity(4)), RankMismatch),
        (dict(n=3, v=identity(2)), RankMismatch),
    ],
    ids=["n<2", "dx<0", "vy<0", "both ranks", "u rank", "v rank"],
)
def test_cauchy_check_rejects_bad_arguments(args, error):
    with pytest.raises(error):
        cauchy_check(**args)


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


def _enumerated_symmetry_report(wf):
    """symmetry_report by enumeration alone: every rearrangement of every
    partition of the degree against the count at the partition."""
    failures = []
    for lam in partitions(wf.degree):
        base = wf.coeffs.get(lam, 0)
        for comp in symfunc._distinct_perms(lam):
            got = wf.coeffs.get(comp, 0)
            if got != base:
                failures.append((lam, comp, base, got))
    return symfunc.SymmetryReport(not failures, tuple(failures))


def test_symmetry_report_equals_the_enumeration_on_the_gated_tables():
    # every table behind k_schur at n = 3, 4 up to degree 8 and behind
    # weak_schur at n = 3 up to length 5; all symmetric, as theorems say
    tables = [
        strong_weight_function(symfunc._grassmannian_from_bounded(b, n), identity(n), 0)
        for n in (3, 4)
        for d in range(9)
        for b in partitions(d)
        if not b or b[0] < n
    ]
    tables += [weak_weight_function(u, identity(3)) for level in elements_by_length(3, 5) for u in level]
    assert [wf.symmetry_report() for wf in tables] == [_enumerated_symmetry_report(wf) for wf in tables]
    assert len(tables) == 112


@st.composite
def _planted_tables(draw):
    """A symmetric table of degree <= 7, in a drawn key order, then up to
    three faults: a changed value, a deleted key, an explicit zero, a key
    of another degree or a key with a zero part."""
    d = draw(st.integers(0, 7))
    coeffs = {}
    for lam in partitions(d):
        if c := draw(st.integers(0, 3)):
            coeffs.update(dict.fromkeys(symfunc._distinct_perms(lam), c))
    comps = list(compositions(d))
    for fault in draw(st.lists(st.sampled_from(("value", "delete", "zero", "degree", "zero part")), max_size=3)):
        comp = draw(st.sampled_from(comps))
        if fault == "value":
            coeffs[comp] = draw(st.integers(-1, 4).filter(lambda c: c != coeffs.get(comp, 0)))
        elif fault == "delete":
            coeffs.pop(comp, None)
        elif fault == "zero":
            coeffs[comp] = 0
        elif fault == "degree":
            other = comp[:-1] if draw(st.booleans()) else comp + (draw(st.integers(1, 2)),)
            coeffs[other] = draw(st.integers(1, 3))
        else:
            k = draw(st.integers(0, len(comp)))
            coeffs[comp[:k] + (0,) + comp[k:]] = draw(st.integers(1, 3))
    return WeightPolynomial(d, dict(draw(st.permutations(list(coeffs.items())))))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_planted_tables())
def test_symmetry_report_equals_the_enumeration_on_planted_faults(wf):
    assert wf.symmetry_report() == _enumerated_symmetry_report(wf)


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
    ("weak_strips_from", {"strong", "dual_strong"}),
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
    # the dual strong rule reads the weak strips from the flip of w, so it loses
    # the flip of the last one's outside
    lost = [dynkin_flip(full(dynkin_flip(w), 1)[-1].outside)] if enumerator == "weak_strips_from" else []
    assert all(v in _dual_strip_outsides(w, 1) for v in lost)
    # each report lists exactly the mismatches of the backward check, in its order
    assert {name: rep.mismatches for name, rep in reports.items()} == _reference_pieri_mismatches(3, 0, w, 1, lost)
    assert all(max(alpha) < 3 for name in ("weak", "dual_weak") for alpha, _, _ in reports[name].mismatches)


def _dual_strip_outsides(w, r):
    """Brute force: the c~_A * w over r-subsets A of Z/nZ, c~_A cyclically
    increasing, whose length is additive."""
    outs = (cyclically_increasing(w.n, a) * w for a in itertools.combinations(range(w.n), r))
    return [v for v in outs if v.length == w.length + r]


def _reference_pieri_mismatches(n, l, w, r, lost_duals=()):
    """The mismatches of each Pieri rule the backward way: coefficient by
    coefficient over compositions(d), the weak rules in the bounded quotient,
    the dual strong rule over the brute-force dual strips less lost_duals."""
    e = identity(n)
    strong, weak = symfunc.strong_weight_function, symfunc.weak_weight_function
    duals = [v for v in _dual_strip_outsides(w, r) if v not in lost_duals]
    rules = {
        "strong": (strong(w, e, l), h_poly(r), False, [strong(s.outside, e, l) for s in symfunc.weak_strips_from(w, r)]),
        "dual_strong": (strong(w, e, l), e_poly(r), False, [strong(v, e, l) for v in duals]),
        "weak": (weak(w, e), h_poly(r), True, [weak(s.outside, e) for s in symfunc.strong_strips_from(w, r, l)]),
        "dual_weak": (
            weak(w, e), e_poly(r), True, [weak(s.outside.inverse(), e) for s in symfunc.strong_strips_from(w.inverse(), r, l)]
        ),
    }
    out = {}
    for name, (base, g, bounded, targets) in rules.items():
        rows = [
            (alpha, _reference_coefficient(g, base, alpha), sum(t[alpha] for t in targets))
            for alpha in compositions(w.length + r)
            if not (bounded and any(a >= n for a in alpha))
        ]
        out[name] = tuple(row for row in rows if row[1] != row[2])
    return out


@pytest.mark.parametrize("planted", [-1, 1])
def test_pieri_planted_key_fails_the_strong_rules_whatever_its_sign(monkeypatch, planted):
    # every strong-rule target gains the key (9, 9); the right-hand side must
    # keep its sum even when that is negative, so both strong rules fail on it
    w = grassmannians_by_length(3, 2)[0]
    real = symfunc.strong_weight_function

    def plant(u, v, l):
        wf = real(u, v, l)
        return wf if u == w else WeightPolynomial(wf.degree, {**wf.coeffs, (9, 9): planted})

    monkeypatch.setattr(symfunc, "strong_weight_function", plant)
    targets = {"strong": symfunc.weak_strips_from(w, 1), "dual_strong": symfunc.weak_strips_from(dynkin_flip(w), 1)}
    assert all(targets.values())
    reports = pieri_checks(3, 0, w, 1)
    assert {name: rep.mismatches for name, rep in reports.items() if not rep.ok} == {
        name: (((9, 9), 0, planted * len(strips)),) for name, strips in targets.items()
    }


@pytest.mark.parametrize("plant, failures", [
    # the dual strong rule then sums the h-rule's strips, which e_1 = h_1 hides at r = 1
    (lambda w: w, {(3, 1): 0, (3, 2): 6, (4, 1): 0, (4, 2): 7, (4, 3): 7}),
    (AffinePermutation.inverse, {(3, 1): 12, (3, 2): 10, (4, 1): 15, (4, 2): 15, (4, 3): 12}),
], ids=["identity", "inverse"])
def test_pieri_with_a_planted_flip_fails_only_the_dual_strong_rule(monkeypatch, plant, failures):
    monkeypatch.setattr(symfunc, "dynkin_flip", plant)
    got = {}
    for n, r in failures:
        failing = [
            {name for name, rep in pieri_checks(n, 0, w, r).items() if not rep.ok}
            for level in elements_by_length(n, 3)
            for w in level
        ]
        assert set().union(*failing) <= {"dual_strong"}
        got[n, r] = sum(map(bool, failing))
    assert got == failures
