import itertools

import pytest

from affine_insertion.affperm import (
    elements_by_length,
    from_window,
    identity,
    simple_reflection,
)
from affine_insertion.cores import (
    NotACore,
    NotBounded,
    NotGrassmannianChain,
    bounded_of,
    cells,
    conjugate,
    core_from_offsets,
    core_of,
    core_of_bounded,
    edge_sequence,
    format_partition,
    grassmannian_of,
    grassmannians_by_length,
    is_core,
    k_conjugate,
    offsets,
    parse_partition,
    partitions,
    render_strong_tableau,
    render_weak_tableau,
    spin_tableau,
    strong_tableau_filling,
    weak_tableau_filling,
)
from affine_insertion.insertion import BoundedMatrix, grassmannian_rsk
from affine_insertion.oracles import (
    act_on_partition,
    addable_corners,
    apply_simple,
    contains,
    removable_corners,
    spin_of_marked_cover,
    strong_cover_cores,
    weak_strip_between,
)
from affine_insertion.strong import NotACover, StrongStrip, StrongTableau, marked_covers_above
from affine_insertion.weak import WeakStrip, WeakTableau

LAM = (10, 7, 4, 3, 2, 1, 1, 1)
PAPER_WORD = [1, 2, 3, 0, 3, 2, 1, 0, 3, 2, 0, 3, 1, 0]


def test_edge_sequence_fixture():
    # ...11|0111|0101.0100|0100|0100|... around the zero diagonal
    assert edge_sequence(LAM, -10, 11) == [1, 1, 0, 1, 1, 1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0]
    assert edge_sequence((), -3, 2) == [1, 1, 1, 0, 0, 0]


def test_is_core():
    assert is_core(LAM, 4)
    assert not is_core((2,), 2)
    assert is_core((), 3)
    assert is_core((3, 1, 1), 3)


def test_corners():
    assert addable_corners((2, 1)) == [(1, 3), (2, 2), (3, 1)]
    assert removable_corners((2, 1)) == [(1, 2), (2, 1)]
    assert addable_corners(()) == [(1, 1)]


def test_action_chain_fixture():
    chain = [()]
    for r in reversed(PAPER_WORD):
        chain.append(apply_simple(chain[-1], r, 4))
    assert chain[-1] == LAM
    assert chain[1:5] == [(1,), (2,), (2, 1), (2, 2)]


def test_apply_simple_is_involution():
    for lam in [(), (1,), (3, 1), (2, 2, 1)]:
        for n in (2, 3, 4):
            for r in range(n):
                assert apply_simple(apply_simple(lam, r, n), r, n) == lam


def test_coreres_no_addable_and_removable_same_residue():
    for n in (3, 4):
        for size in range(0, 10):
            for lam in partitions(size):
                if not is_core(lam, n):
                    continue
                add = {(j - i) % n for i, j in addable_corners(lam)}
                rem = {(j - i) % n for i, j in removable_corners(lam)}
                assert not add & rem


def test_offsets_fixture_and_roundtrip():
    assert offsets(LAM, 4) == (-2, 3, -1, 0)
    assert core_from_offsets((-2, 3, -1, 0)) == LAM
    assert offsets((), 4) == (0, 0, 0, 0)
    for size in range(0, 13):
        for lam in partitions(size):
            if is_core(lam, 4):
                assert core_from_offsets(offsets(lam, 4)) == lam
    with pytest.raises(NotACore):
        offsets((2,), 2)


def test_core_of_and_grassmannian_of():
    w = from_window(4, [-7, -1, 4, 14])
    assert core_of(w) == LAM
    assert grassmannian_of(LAM, 4) == w
    assert core_of(identity(3)) == ()
    for d in range(0, 7):
        for w in grassmannians_by_length(3, d):
            assert grassmannian_of(core_of(w), 3) == w


def test_equivariance_of_offset_action():
    # d(s_i . lam) = s_i . d(lam) through the window action on offsets
    for n in (3, 4):
        for size in range(0, 12):
            for lam in partitions(size):
                if not is_core(lam, n):
                    continue
                for r in range(n):
                    s = simple_reflection(n, r)
                    moved = apply_simple(lam, r, n)
                    assert is_core(moved, n)
                    assert act_on_partition(s, lam) == moved
                    assert offsets(moved, n) == _act_offsets(s, offsets(lam, n))


def _act_offsets(w, d):
    n = w.n
    winv = w.inverse()

    def ext(x):
        q, r = divmod(x - 1, n)
        return d[r] - q

    return tuple(ext(winv(i)) for i in range(1, n + 1))


def test_strong_order_is_containment():
    # on Grassmannian elements, v <= w in strong order iff core(v) is
    # contained in core(w); tested through the cover relation
    for n in (3,):
        levels = elements_by_length(n, 6)
        for lvl in levels:
            for w in lvl:
                if not w.is_grassmannian(0):
                    continue
                cw = core_of(w)
                for c in marked_covers_above(w, 0):
                    if c.outside.is_grassmannian(0):
                        assert contains(core_of(c.outside), cw)
        # and conversely, single-box growth of the bounded partition only
        for d in range(0, 6):
            for w in grassmannians_by_length(n, d):
                ups = {c.outside for c in marked_covers_above(w, 0)}
                for u in grassmannians_by_length(n, d + 1):
                    if contains(core_of(u), core_of(w)):
                        assert u in ups


def test_bounded_fixture_and_involution():
    assert bounded_of(LAM, 4) == (3, 3, 2, 2, 1, 1, 1, 1)
    # the minimal erased shape is (7,4,2,1,1): hook-computed, which settles
    # the paper prose/figure discrepancy in favor of the figure
    assert tuple(l - b for l, b in zip(LAM, bounded_of(LAM, 4))) == (7, 4, 2, 1, 1, 0, 0, 0)
    assert core_of_bounded((3, 3, 2, 2, 1, 1, 1, 1), 4) == LAM
    assert k_conjugate((3, 3, 2, 2, 1, 1, 1, 1), 4) == (3, 2, 2, 1, 1, 1, 1, 1, 1, 1)
    for n in (3, 4):
        for size in range(0, 9):
            for b in partitions(size, n - 1):
                lam = core_of_bounded(b, n)
                assert bounded_of(lam, n) == b
                assert k_conjugate(k_conjugate(b, n), n) == b
    with pytest.raises(NotBounded):
        core_of_bounded((4, 1), 4)


def test_shapetrans_composite():
    # b(c(w)) = k-conjugate of the transpose of the reversed code, and its
    # size is the length
    from affine_insertion.affperm import code

    for n in (3, 4):
        for d in range(0, 7):
            for w in grassmannians_by_length(n, d):
                b = bounded_of(core_of(w), n)
                assert sum(b) == w.length
                rev = tuple(sorted((x for x in code(w) if x), reverse=True))
                assert k_conjugate(conjugate(rev), n) == b


def test_strong_cover_cores_fixture():
    mu = (11, 8, 5, 5, 3, 3, 1, 1, 1)
    lam = (11, 8, 7, 6, 5, 4, 3, 2, 1)
    desc = strong_cover_cores(mu, lam, 4)
    assert (desc.r, desc.s) == (2, 5)
    assert desc.n_components == 3
    assert desc.ribbon_size == 3
    assert desc.head_diagonals == (-4, 0, 4)
    assert desc.mark_options == (-3, 1, 5)
    single = strong_cover_cores((), (1,), 3)
    assert single.n_components == 1 and single.head_diagonals == (0,)
    with pytest.raises(NotACover):
        strong_cover_cores((), (1, 1), 3)  # length 2, not a cover


def test_cover_cores_vs_permutation_covers():
    # two-path equivalence: covers computed on windows match the core
    # picture, including the Chevalley count d_r - d_s
    for n in (3, 4):
        for d in range(0, 6):
            for w in grassmannians_by_length(n, d):
                mu = core_of(w)
                by_outside = {}
                for c in marked_covers_above(w, 0):
                    if c.outside.is_grassmannian(0):
                        by_outside.setdefault(c.outside, []).append(c)
                for u, covers in by_outside.items():
                    desc = strong_cover_cores(mu, core_of(u), n)
                    assert desc.n_components == len(covers)
                    assert sorted(c.mark for c in covers) == sorted(desc.mark_options)


def test_spin():
    pairs = [((), (1,), 1), ((1,), (1, 1), 0), ((1, 1), (2, 1, 1), 2), ((2, 1, 1), (3, 1, 1), 3), ((3, 1, 1), (5, 3, 1), 5)]
    assert [spin_of_marked_cover(a, b, 3, m) for a, b, m in pairs] == [0, 0, 1, 0, 1]
    # single component of height h has spin h - 1
    assert spin_of_marked_cover((1,), (1, 1), 3, 0) == 0
    desc = strong_cover_cores((2,), (2, 1, 1), 3)  # one ribbon of height 2
    assert desc.ribbon_height == 2 and desc.n_components == 1
    assert spin_of_marked_cover((2,), (2, 1, 1), 3, desc.mark_options[0]) == 1


def test_closed_form_cover_spin_equals_the_ribbon_spin():
    # MarkedStrongCover.spin reads the window; spin_of_marked_cover reads the ribbons of the cores
    checked = 0
    for n, max_len in [(3, 20), (4, 16), (5, 13), (6, 11)]:
        for d in range(max_len + 1):
            for w in grassmannians_by_length(n, d):
                for c in marked_covers_above(w, 0):
                    assert c.outside.is_grassmannian(0), c  # level-0 covers stay Grassmannian
                    assert c.spin == spin_of_marked_cover(core_of(w), core_of(c.outside), n, c.mark), c
                    checked += 1
    assert checked == 4976


def test_spin_tableau_fixture():
    from affine_insertion.insertion import BoundedMatrix, grassmannian_rsk

    p, _ = grassmannian_rsk(BoundedMatrix.from_rows([[0, 1, 0], [0, 0, 2], [1, 0, 1]]), 3)
    assert spin_tableau(p) == 2


@pytest.mark.parametrize("window, ij, l, ribbon_spin", [([0, 1, 5], (0, 4), 1, 1), ([0, 2, 4], (2, 4), 2, None)])
def test_spin_tableau_off_level_zero_reads_the_window(window, ij, l, ribbon_spin):
    # the ribbon oracle reads a mark as a level-0 head diagonal: off level 0 it
    # gives another number, or finds no ribbon head there and raises
    w = from_window(3, window)
    (c,) = [c for c in marked_covers_above(w, l) if (c.i, c.j) == ij]
    assert c.outside.is_grassmannian(0)
    assert spin_tableau(StrongTableau(w, (StrongStrip(w, (c,)),))) == c.spin == 0
    if ribbon_spin is None:
        with pytest.raises(NotACover, match="no ribbon head"):
            spin_of_marked_cover(core_of(w), core_of(c.outside), 3, c.mark)
    else:
        assert spin_of_marked_cover(core_of(w), core_of(c.outside), 3, c.mark) == ribbon_spin


def test_chain_leaving_the_grassmannian_rejected():
    # with l = 1 the first cover from the identity is s_1, not 0-Grassmannian
    e = identity(3)
    (cover,) = marked_covers_above(e, 1)
    assert not cover.outside.is_grassmannian(0)
    t = StrongTableau(e, (StrongStrip(e, (cover,)),))
    for fn in (strong_tableau_filling, spin_tableau, render_strong_tableau):
        with pytest.raises(NotGrassmannianChain):
            fn(t)


def test_weak_tableaux_are_semistandard_and_conversely():
    # k-tableaux are semistandard; semistandard weak-order chains are strips
    for n in (3, 4):
        for d in range(0, 6):
            for w in grassmannians_by_length(n, d):
                for t in _weak_tableaux_to(w, n):
                    fill = weak_tableau_filling(t)
                    shape = core_of(w)
                    for (i, j), letter in fill.items():
                        if (i, j + 1) in fill:
                            assert fill[(i, j + 1)] >= letter
                        if (i + 1, j) in fill:
                            assert fill[(i + 1, j)] > letter
    for n in (3, 4):
        for d in range(0, 6):
            for v in grassmannians_by_length(n, d):
                for r in range(1, n):
                    for u in grassmannians_by_length(n, d + r):
                        if (u * v.inverse()).length != r:
                            continue  # not weakly above
                        if _is_horizontal_strip(core_of(u), core_of(v)):
                            assert weak_strip_between(v, u) is not None


def _weak_tableaux_to(w, n):
    from affine_insertion.weak import weak_tableaux

    return weak_tableaux(identity(n), w)


def _is_horizontal_strip(lam, mu):
    if not contains(lam, mu):
        return False
    conj_l, conj_m = conjugate(lam), conjugate(mu)
    conj_m = conj_m + (0,) * (len(conj_l) - len(conj_m))
    return all(a - b <= 1 for a, b in zip(conj_l, conj_m))


def test_render_weak_ktab_fixture():
    # the n=4 k-tableau built from the paper's cyclically decreasing
    # factorization of [-7,-1,4,14]
    n = 4
    groups = [[1, 0], [0, 3], [0, 3, 2], [3, 2, 1], [0], [3], [2], [1]]
    cur = identity(n)
    strips = []
    for residues in groups:
        from affine_insertion.weak import cyclically_decreasing

        nxt = cyclically_decreasing(n, frozenset(residues)) * cur
        strips.append(WeakStrip(cur, frozenset(residues), nxt))
        cur = nxt
    u_tab = WeakTableau(identity(n), tuple(strips))
    assert core_of(u_tab.outside) == LAM
    expected = "\n".join(
        [
            "8",
            "7",
            "6",
            "5 8",
            "4 4 6",
            "3 3 5 8",
            "2 2 4 4 4 5 8",
            "1 1 3 3 3 4 4 4 5 8",
        ]
    )
    assert render_weak_tableau(u_tab) == expected


def test_render_strong_tableau_fixture():
    from affine_insertion.insertion import BoundedMatrix, grassmannian_rsk

    p, q = grassmannian_rsk(BoundedMatrix.from_rows([[0, 1, 0], [0, 0, 2], [1, 0, 1]]), 3)
    assert render_strong_tableau(p) == "\n".join(
        [
            "3_1",
            "2_1* 3_3  3_3",
            "1_1* 3_1* 3_2* 3_3  3_3*",
        ]
    )
    assert render_weak_tableau(q) == "\n".join(["3", "2 3 3", "1 2 2 3 3"])
    assert render_weak_tableau(WeakTableau(identity(3), ())) == "(empty)"


def test_partition_text_forms():
    assert format_partition(LAM) == "(10,7,4,3,2,1,1,1)"
    assert parse_partition("(10,7,4,3,2,1,1,1)") == LAM
    assert parse_partition("()") == ()
    with pytest.raises(ValueError):
        parse_partition("(1,2)")
    with pytest.raises(ValueError):
        parse_partition("10,7")


def test_skew_cells_equal_the_set_difference():
    shapes = [lam for size in range(9) for lam in partitions(size)]
    for lam in shapes:
        for mu in shapes:  # mu need not lie inside lam
            got = cells(lam, mu)
            assert len(got) == len(set(got)) and got == sorted(got)
            assert set(got) == set(cells(lam)) - set(cells(mu)), (lam, mu)


def _weak_filling_by_difference(u_tab):
    chain = [core_of(u_tab.inside)] + [core_of(s.outside) for s in u_tab.strips]
    return {cell: k for k in range(1, len(chain)) for cell in set(cells(chain[k])) - set(cells(chain[k - 1]))}


def _strong_filling_by_difference(t_tab):
    covers = [(k, idx, c) for k, strip in enumerate(t_tab.strips, 1) for idx, c in enumerate(strip.covers, 1)]
    chain = [core_of(t_tab.inside)] + [core_of(c.outside) for _, _, c in covers]
    fill = {}
    for (k, idx, c), mu, lam in zip(covers, chain, chain[1:]):
        for i, j in set(cells(lam)) - set(cells(mu)):
            fill[i, j] = (k, idx, j - i == c.mark - 1)
    return fill


def test_fillings_equal_the_set_difference_fillings():
    for entries in itertools.product((0, 1), repeat=9):
        m = BoundedMatrix.from_rows([entries[0:3], entries[3:6], entries[6:9]])
        p, q = grassmannian_rsk(m, 20)
        assert strong_tableau_filling(p) == _strong_filling_by_difference(p), entries
        assert weak_tableau_filling(q) == _weak_filling_by_difference(q), entries
