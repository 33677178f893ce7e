"""Acceptance criteria, one test per numbered criterion.

Run `pytest tests/test_acceptance.py -v` for the pass/fail line of each
criterion (or -s for the explicit AC-nn lines).  Bounds follow the stated
desk-scale limits; everything is exact integer arithmetic.
"""

import math
import random

from fixtures_standard_table import STANDARD_TABLE

from affine_insertion.affperm import (
    code,
    elements_by_length,
    from_reduced_word,
    from_window,
    identity,
    inversions,
    simple_reflection,
)
from affine_insertion.cores import (
    bounded_of,
    core_of,
    core_of_bounded,
    grassmannian_of,
    grassmannians_by_length,
    k_conjugate,
    offsets,
    partitions,
    spin_tableau,
    strong_tableau_filling,
    weak_tableau_filling,
    is_core,
    conjugate,
)
from affine_insertion.insertion import (
    BoundedMatrix,
    affine_uninsert,
    grassmannian_rsk,
)
from affine_insertion.localrule import (
    CaseTag,
    FinalPair,
    InitialPair,
    InitialTriple,
    external_insert,
    internal_insert,
    phi_with_audit,
    psi_with_audit,
    reverse_insert,
)
from affine_insertion.oracles import (
    addable_corners,
    contains,
    cyclic_components,
    removable_corners,
    strong_cover_cores,
    strong_strips_ending_at,
    weak_strip_between,
    weak_strip_is_valid,
    weak_strip_length_check,
)
from affine_insertion.strong import (
    MarkedStrongCover,
    StrongStrip,
    count_standard_strong,
    marked_covers_above,
    strong_strips_from,
)
from affine_insertion.symfunc import cauchy_check, pieri_checks, strong_schur, weak_schur
from affine_insertion.verify import (
    _bounded_matrices,
    _random_triple,
    verify_rsk_limit,
)
from affine_insertion.weak import (
    WeakStrip,
    count_standard_weak,
    weak_strips_from,
)

W = from_window


def done(num, text):
    print(f"AC-{num:02d} PASS: {text}")


def test_ac01_length_inversion_agreement():
    for n in (2, 3, 4):
        for level in elements_by_length(n, 6):
            for w in level:
                assert w.length == len(inversions(w))
    assert W(4, [-7, -1, 4, 14]).length == 14
    done(1, "Shi formula equals inversion count, length <= 6, n in {2,3,4}")


def test_ac02_core_bijection_fixtures():
    lam = (10, 7, 4, 3, 2, 1, 1, 1)
    assert offsets(lam, 4) == (-2, 3, -1, 0)
    assert bounded_of(lam, 4) == (3, 3, 2, 2, 1, 1, 1, 1)
    assert k_conjugate((3, 3, 2, 2, 1, 1, 1, 1), 4) == (3, 2, 2, 1, 1, 1, 1, 1, 1, 1)
    assert code(W(4, [-7, -1, 4, 14])) == (0, 1, 3, 10)
    for n in (3, 4):
        seen = 0
        for level in elements_by_length(n, 8):
            for w in level:
                if w.is_grassmannian(0):
                    assert sum(bounded_of(core_of(w), n)) == w.length
                    seen += 1
        # the partition-side enumeration produces the same graded counts
        for m in range(0, 9):
            count = sum(1 for _ in partitions(m, n - 1))
            assert len(grassmannians_by_length(n, m)) == count
        assert seen == sum(len(grassmannians_by_length(n, m)) for m in range(0, 9))
    done(2, "core/bounded/code fixtures and |b(c(w))| = ell(w) through length 8")


def _wstrip(n, inside, members, outside):
    return WeakStrip(W(n, inside), frozenset(members), W(n, outside))


def _cover(n, inside, i, j, outside):
    return MarkedStrongCover(W(n, inside), i, j, W(n, outside), 0)


def test_ac03_local_rule_fixtures():
    # Case A
    out, tag = internal_insert(
        FinalPair(_wstrip(4, [3, 5, -2, 4], {3}, [4, 5, -2, 3]), StrongStrip(W(4, [4, 5, -2, 3]), ())),
        _cover(4, [3, 5, -2, 4], -2, 1, [1, 7, -2, 4]),
        0,
    )
    assert tag is CaseTag.A
    assert out.weak == _wstrip(4, [1, 7, -2, 4], {3}, [1, 8, -2, 3])
    assert out.strong.covers == (_cover(4, [4, 5, -2, 3], -2, 1, [1, 8, -2, 3]),)
    # Case B
    out, tag = internal_insert(
        FinalPair(
            _wstrip(6, [5, 0, 1, 9, -2, 8], {3, 4, 5}, [4, -1, 1, 12, -3, 8]),
            StrongStrip(W(6, [4, -1, 1, 12, -3, 8]), ()),
        ),
        _cover(6, [5, 0, 1, 9, -2, 8], -2, 1, [3, 0, 1, 11, -2, 8]),
        0,
    )
    assert tag is CaseTag.B
    assert out.weak == _wstrip(6, [3, 0, 1, 11, -2, 8], {2, 3, 5}, [2, -1, 1, 12, -3, 10])
    assert out.strong.covers == (_cover(6, [4, -1, 1, 12, -3, 8], 0, 1, [2, -1, 1, 12, -3, 10]),)
    # Case C
    out, tag = internal_insert(
        FinalPair(
            _wstrip(4, [1, 7, -2, 4], {3}, [1, 8, -2, 3]),
            StrongStrip(W(4, [4, 5, -2, 3]), (_cover(4, [4, 5, -2, 3], -2, 1, [1, 8, -2, 3]),)),
        ),
        _cover(4, [1, 7, -2, 4], -2, 4, [1, 8, -2, 3]),
        0,
    )
    assert tag is CaseTag.C
    assert out.strong.covers == (
        _cover(4, [4, 5, -2, 3], -2, 7, [4, 6, -3, 3]),
        _cover(4, [4, 6, -3, 3], -2, 1, [2, 8, -3, 3]),
    )
    assert out.weak == _wstrip(4, [1, 8, -2, 3], {1}, [2, 8, -3, 3])
    # Case X
    out = external_insert(
        FinalPair(_wstrip(5, [2, -4, 5, 8, 4], {3, 5}, [2, -5, 6, 9, 3]), StrongStrip(W(5, [2, -5, 6, 9, 3]), ())),
        0,
    )
    assert out.weak == _wstrip(5, [2, -4, 5, 8, 4], {3, 4, 5}, [2, -5, 4, 11, 3])
    assert out.strong.covers == (_cover(5, [2, -5, 6, 9, 3], -1, 3, [2, -5, 4, 11, 3]),)
    # Case RA
    out, tag = reverse_insert(
        InitialPair(_wstrip(4, [1, 8, -2, 3], {1}, [2, 8, -3, 3]), StrongStrip(W(4, [1, 8, -2, 3]), ())),
        _cover(4, [4, 6, -3, 3], -2, 1, [2, 8, -3, 3]),
        0,
    )
    assert tag is CaseTag.RA
    assert out.weak == _wstrip(4, [4, 5, -2, 3], {1}, [4, 6, -3, 3])
    assert out.strong.covers == (_cover(4, [4, 5, -2, 3], -2, 1, [1, 8, -2, 3]),)
    # Case RB
    out, tag = reverse_insert(
        InitialPair(
            _wstrip(6, [3, 0, 1, 11, -2, 8], {2, 3, 5}, [2, -1, 1, 12, -3, 10]),
            StrongStrip(W(6, [3, 0, 1, 11, -2, 8]), ()),
        ),
        _cover(6, [4, -1, 1, 12, -3, 8], 0, 1, [2, -1, 1, 12, -3, 10]),
        0,
    )
    assert tag is CaseTag.RB
    assert out.weak == _wstrip(6, [5, 0, 1, 9, -2, 8], {3, 4, 5}, [4, -1, 1, 12, -3, 8])
    assert out.strong.covers == (_cover(6, [5, 0, 1, 9, -2, 8], -2, 1, [3, 0, 1, 11, -2, 8]),)
    # Case RC
    out, tag = reverse_insert(
        InitialPair(
            _wstrip(4, [4, 5, -2, 3], {1}, [4, 6, -3, 3]),
            StrongStrip(W(4, [4, 5, -2, 3]), (_cover(4, [4, 5, -2, 3], -2, 1, [1, 8, -2, 3]),)),
        ),
        _cover(4, [4, 5, -2, 3], -2, 7, [4, 6, -3, 3]),
        0,
    )
    assert tag is CaseTag.RC
    assert out.weak == _wstrip(4, [3, 5, -2, 4], {3}, [4, 5, -2, 3])
    assert out.strong.covers == (
        _cover(4, [3, 5, -2, 4], -2, 1, [1, 7, -2, 4]),
        _cover(4, [1, 7, -2, 4], -2, 4, [1, 8, -2, 3]),
    )
    # Case RX
    out, tag = reverse_insert(
        InitialPair(
            _wstrip(5, [2, -4, 5, 8, 4], {3, 4, 5}, [2, -5, 4, 11, 3]),
            StrongStrip(W(5, [2, -4, 5, 8, 4]), ()),
        ),
        _cover(5, [2, -5, 6, 9, 3], -1, 3, [2, -5, 4, 11, 3]),
        0,
    )
    assert tag is CaseTag.RX
    assert out.weak == _wstrip(5, [2, -4, 5, 8, 4], {3, 5}, [2, -5, 6, 9, 3])
    done(3, "worked local-rule examples A/B/C/X and RA/RB/RC/RX, bit for bit")


def test_ac04_local_roundtrip():
    n, l = 3, 0
    total = 0
    for level in elements_by_length(n, 4):
        for w in level:
            weaks = [s for r in (0, 1, 2) for s in weak_strips_from(w, r)]
            strongs = [s for r in (0, 1, 2) for s in strong_strips_from(w, r, l)]
            for wk in weaks:
                for st in strongs:
                    for e in range(3):
                        if wk.size + e >= n:
                            continue
                        triple = InitialTriple(wk, st, e)
                        assert psi_with_audit(phi_with_audit(triple, l)[0], l)[0] == triple
                        total += 1
    # the reverse composition over independently enumerated final pairs
    rev = 0
    for level in elements_by_length(n, 4):
        for u in level:
            for r in (0, 1, 2):
                for wp in weak_strips_from(u, r):
                    for rs in range(0, 5):
                        for sp in strong_strips_ending_at(wp.outside, rs, l):
                            final = FinalPair(wp, sp)
                            back, _ = psi_with_audit(final, l)
                            again, _ = phi_with_audit(back, l)
                            assert again == final
                            rev += 1
    # seeded sampling at n = 4
    rng = random.Random(20260808)
    for _ in range(10_000):
        triple = _random_triple(4, 0, rng, 5, 2, 2)
        assert psi_with_audit(phi_with_audit(triple, 0)[0], 0)[0] == triple
    done(4, f"roundtrips: {total} exhaustive triples, {rev} final pairs, 10000 sampled at n=4")


def test_ac05_global_bijection():
    n = 3
    count = 0
    for m in _bounded_matrices(n, 3, 4):
        p, q = grassmannian_rsk(m, n)  # weight identities asserted inside
        t, u, m2 = affine_uninsert(p, q, 0)
        assert m2 == m and not t.strips and not u.strips
        count += 1
    done(5, f"affine_uninsert inverts affine_insert on {count} matrices")


def test_ac06_factorial_identity():
    for n, max_m in ((2, 6), (3, 6), (4, 5)):
        for m in range(1, max_m + 1):
            total = sum(
                count_standard_strong(w, 0) * count_standard_weak(w)
                for w in grassmannians_by_length(n, m)
            )
            assert total == math.factorial(m), (n, m, total)
    done(6, "sum of f_strong * f_weak = m! for n=2,3 (m<=6) and n=4 (m<=5)")


def test_ac07_n3_closed_forms():
    for m in range(1, 9):
        for el in range(m // 2 + 1):
            b = (2,) * el + (1,) * (m - 2 * el)
            w = grassmannian_of(core_of_bounded(b, 3), 3)
            assert count_standard_weak(w) == math.comb(m // 2, el)
            assert count_standard_strong(w, 0) == math.factorial(m) // 2 ** (m // 2)
    done(7, "n=3 closed forms: binom(floor(m/2), l) and m!/2^floor(m/2), m <= 8")


def test_ac08_standard_bijection_table():
    for word, (p_exp, q_exp) in STANDARD_TABLE.items():
        perm = [int(c) for c in word]
        m = BoundedMatrix({(i, v): 1 for i, v in enumerate(perm, 1)})
        p, q = grassmannian_rsk(m, 3)
        pf = strong_tableau_filling(p)
        shape_p = core_of(p.outside)
        p_rows = [
            [f"{pf[(i, j)][0]}{'*' if pf[(i, j)][2] else ''}" for j in range(1, shape_p[i - 1] + 1)]
            for i in range(1, len(shape_p) + 1)
        ]
        qf = weak_tableau_filling(q)
        shape_q = core_of(q.outside)
        q_rows = [[qf[(i, j)] for j in range(1, shape_q[i - 1] + 1)] for i in range(1, len(shape_q) + 1)]
        assert p_rows == p_exp and q_rows == q_exp, word
    done(8, "all 24 standard (P, Q) pairs at n=3, m=4 match the printed table")


def test_ac09_growth_fixture():
    m = BoundedMatrix.from_rows([[0, 1, 0], [0, 0, 2], [1, 0, 1]])
    p, q = grassmannian_rsk(m, 3)
    assert core_of(p.outside) == (5, 3, 1)
    assert spin_tableau(p) == 2
    chain = [core_of(p.inside)] + [core_of(c.outside) for c in p.covers()]
    assert chain == [(), (1,), (1, 1), (2, 1, 1), (3, 1, 1), (5, 3, 1)]
    assert [c.mark for c in p.covers()] == [1, 0, 2, 3, 5]
    rows = {}
    for (i, j), letter in sorted(weak_tableau_filling(q).items()):
        rows.setdefault(i, []).append(letter)
    assert rows == {1: [1, 2, 2, 3, 3], 2: [2, 3, 3], 3: [3]}
    done(9, "the worked 3x3 growth diagram yields the printed P (spin 2) and Q")


def test_ac10_affine_cauchy():
    rep = cauchy_check(2, 0, dx=3, vy=2)
    assert rep.ok, rep.mismatches[:3]
    rep = cauchy_check(3, 0, dx=4, vy=2)
    assert rep.ok, rep.mismatches[:3]
    done(10, f"affine Cauchy identity, coefficientwise (n=2 dx=3; n=3 dx=4)")


def test_ac11_pieri_rules():
    w = from_reduced_word(3, [2, 0])
    reports = pieri_checks(3, 0, w, 2)
    assert all(rep.ok for rep in reports.values())
    # the printed expansion h2 * Weak_{s2s0}: multiplicities 2, 1, 1
    from collections import Counter

    outs = Counter(tuple(s.outside.window) for s in strong_strips_from(w, 2, 0))
    assert sorted(outs.values()) == [1, 1, 2]
    for d in range(0, 5):
        for u in grassmannians_by_length(3, d):
            for r in (1, 2):
                for name, rep in pieri_checks(3, 0, u, r).items():
                    assert rep.ok, (u, r, name, rep.mismatches[:3])
    done(11, "four Pieri rules, all Grassmannian w with length <= 4, r in {1,2}")


def test_ac12_rsk_limit():
    res = verify_rsk_limit(20, entries=2, dim=3)
    assert res.ok, res.counterexample
    done(12, "n=20 insertion equals classical RSK on all 3x3 matrices, entries <= 2")


def test_ac13_property_suites():
    # weak/strong Schur symmetry at Grassmannian shapes
    for d in range(0, 5):
        for w in grassmannians_by_length(3, d):
            weak_schur(w, identity(3))  # asserts symmetry internally
            _, rep = strong_schur(w, identity(3), 0)
            assert rep.symmetric

    # markneq: consecutive covers in any chain never share a mark
    for level in elements_by_length(3, 3):
        for w in level:
            for c1 in marked_covers_above(w, 0):
                for c2 in marked_covers_above(c1.outside, 0):
                    assert c1.mark != c2.mark

    # weaknoinv and weakGrass over all strips, and strongGrass over covers
    for level in elements_by_length(3, 5):
        for w in level:
            w_inv = inversions(w)
            for r in (1, 2):
                for strip in weak_strips_from(w, r):
                    v = strip.outside
                    assert all(not v(i) < v(j) for i, j in w_inv)
                    if v.is_grassmannian(0):
                        assert w.is_grassmannian(0)
            if w.is_grassmannian(0):
                for c in marked_covers_above(w, 0):
                    assert c.outside.is_grassmannian(0)

    # coreres: cores never carry addable and removable cells of one residue
    for n in (3, 4):
        for size in range(0, 9):
            for lam in partitions(size):
                if is_core(lam, n):
                    add = {(j - i) % n for i, j in addable_corners(lam)}
                    rem = {(j - i) % n for i, j in removable_corners(lam)}
                    assert not add & rem

    # weakktab, both directions, at small size
    for d in range(0, 5):
        for w in grassmannians_by_length(3, d):
            from affine_insertion.weak import weak_tableaux

            for t in weak_tableaux(identity(3), w):
                fill = weak_tableau_filling(t)
                for (i, j), letter in fill.items():
                    assert fill.get((i, j + 1), letter) >= letter
                    assert fill.get((i + 1, j), letter + 1) > letter
        for v in grassmannians_by_length(3, d):
            for r in (1, 2):
                for u in grassmannians_by_length(3, d + r):
                    if (u * v.inverse()).length != r:
                        continue
                    if _horizontal(core_of(u), core_of(v)):
                        assert weak_strip_between(v, u) is not None

    # enumeration oracle: window scan with explicit length computation
    for level in elements_by_length(3, 4):
        for w in level:
            got = sorted((c.i, c.j, c.mark) for c in marked_covers_above(w, 0))
            assert got == _brute_covers(w, 0)

    # offset-based vs permutation-based cover detection
    for d in range(0, 5):
        for w in grassmannians_by_length(3, d):
            mu = core_of(w)
            by_out = {}
            for c in marked_covers_above(w, 0):
                if c.outside.is_grassmannian(0):
                    by_out.setdefault(c.outside, []).append(c)
            for u, cs in by_out.items():
                desc = strong_cover_cores(mu, core_of(u), 3)
                assert desc.n_components == len(cs)
                assert sorted(c.mark for c in cs) == sorted(desc.mark_options)

    # weak strip criterion equals brute-force length additivity and the
    # reference criterion built on products, for v = c_A * w and for a
    # wrong v per (w, A)
    import itertools

    rng = random.Random(13)
    checks = valid = 0
    for n, max_length in ((2, 6), (3, 6), (4, 4), (5, 3), (6, 3)):
        for level in elements_by_length(n, max_length):
            for w in level:
                for r in range(n):
                    for members in itertools.combinations(range(n), r):
                        members = frozenset(members)
                        v = _decreasing_product(n, members) * w
                        wrong = v * simple_reflection(n, rng.randrange(n))
                        for x in (v, wrong):
                            expected = weak_strip_length_check(w, members, x)
                            assert weak_strip_is_valid(w, members, x) == expected, (w, members, x)
                            assert _weak_strip_test_by_products(w, members, x) == expected
                            checks += 1
                            valid += expected
    assert 0 < valid < checks  # 5,054 of 17,100
    done(13, "order and tableau property suites and oracle equivalences")


def _decreasing_product(n, members):
    """c_A as the product s_b ... s_a over the cyclic components [a, b] of A."""
    word = []
    for a, b in cyclic_components(n, members):
        word += reversed([(a + k) % n for k in range((b - a) % n + 1)])
    return from_reduced_word(n, word)


def _weak_strip_test_by_products(w, members, v):
    """Reference strip test: v = c_A * w as a product, then for every pair of
    consecutive A-nice integers a < b, w^{-1}(a) precedes w^{-1}(a+1..b-1)."""
    n = w.n
    if _decreasing_product(n, members) * w != v:
        return False
    nice = [x for x in range(n) if (x - 1) % n not in members]
    for a, b in zip(nice, nice[1:] + [nice[0] + n]):
        if any(w.position_of(x) < w.position_of(a) for x in range(a + 1, b)):
            return False
    return True


def _horizontal(lam, mu):
    if not contains(lam, mu):
        return False
    cl, cm = conjugate(lam), conjugate(mu)
    cm = cm + (0,) * (len(cl) - len(cm))
    return all(a - b <= 1 for a, b in zip(cl, cm))


def _brute_covers(w, l):
    from affine_insertion.affperm import right_mult_transposition

    n = w.n
    span = ((max(w.window) - min(w.window)) // n + 3) * n
    out = []
    for i in range(l - span, l + 1):
        for j in range(l + 1, l + span + 1):
            if (i - j) % n == 0:
                continue
            u = right_mult_transposition(w, i, j)
            if w(i) < w(j) and u.length == w.length + 1:
                out.append((i, j, w(j)))
    return sorted(out)
