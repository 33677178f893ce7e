import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_insertion.affperm import (
    elements_by_length,
    from_reduced_word,
    from_window,
    identity,
    right_mult_transposition,
    simple_reflection,
)
from affine_insertion.oracles import is_strong_cover, strong_strips_ending_at
from affine_insertion.strong import (
    InvalidStrongStrip,
    MarkedStrongCover,
    NotACover,
    StrongStrip,
    count_standard_strong,
    count_strong_tableaux,
    is_cover_pair,
    marked_covers_above,
    marked_covers_below,
    strong_strips_from,
    strong_tableaux,
)


def brute_marked_covers_above(w, l):
    """Independent oracle: scan a window wide enough for the value spread
    and keep straddling pairs that raise length by exactly one."""
    n = w.n
    span = ((max(w.window) - min(w.window)) // n + 3) * n
    out = []
    for i in range(l - span, l + 1):
        for j in range(l + 1, l + span + 1):
            if (i - j) % n == 0:
                continue
            u = right_mult_transposition(w, i, j)
            if w(i) < w(j) and u.length == w.length + 1:
                out.append((i, j, w(j), u.window))
    return sorted(out)


def test_cover_examples():
    assert is_strong_cover(identity(3), simple_reflection(3, 0))
    w = from_window(3, [10, 2, -6])
    u = right_mult_transposition(w, 1, 5)
    assert u.window == (5, 7, -6)
    assert not is_strong_cover(u, w)  # interval criterion fails despite the value drop
    assert is_strong_cover(from_window(4, [-8, -3, 6, 15]), from_window(4, [-8, -6, 9, 15]))


def test_enumeration_matches_brute_force():
    for n in (2, 3, 4):
        for level in elements_by_length(n, 6):
            for w in level:
                got = sorted((c.i, c.j, c.mark, c.outside.window) for c in marked_covers_above(w, 0))
                assert got == brute_marked_covers_above(w, 0), w
    # and off the default parabolic
    for w in elements_by_length(3, 3)[3]:
        got = sorted((c.i, c.j, c.mark, c.outside.window) for c in marked_covers_above(w, 2))
        assert got == brute_marked_covers_above(w, 2)


def test_covers_above_identity():
    # brute force gives a single straddling cover at l=0 (the spec's sketch
    # of three covers double-counts reflections that are not covers)
    covers = marked_covers_above(identity(3), 0)
    assert [(c.i, c.j, c.mark) for c in covers] == [(0, 1, 1)]
    assert covers[0].outside == simple_reflection(3, 0)


def test_offsetcover_marked_translates():
    w = from_window(4, [-8, -3, 6, 15])
    u = from_window(4, [-8, -6, 9, 15])
    match = [c for c in marked_covers_above(w, 0) if c.outside == u]
    assert [(c.i, c.j, c.mark) for c in match] == [(-9, 2, -3), (-5, 6, 1), (-1, 10, 5)]


def test_covers_below_duality():
    for level in elements_by_length(3, 4):
        for w in level:
            for c in marked_covers_above(w, 0):
                assert (c.i, c.j) in [
                    (b.i, b.j) for b in marked_covers_below(c.outside, 0) if b.inside == w
                ]
            for c in marked_covers_below(w, 0):
                assert (c.i, c.j) in [
                    (a.i, a.j) for a in marked_covers_above(c.inside, 0) if a.outside == w
                ]


def test_grassmannian_preserved_by_covers():
    for level in elements_by_length(3, 5):
        for w in level:
            if not w.is_grassmannian(0):
                continue
            for c in marked_covers_above(w, 0):
                assert c.outside.is_grassmannian(0)


def test_unique_cover_to_c0m():
    # the only marked cover from c_{0,m-1} with outside c_{0,m} is (0, m)
    for n in (3, 4, 5):
        for m in range(1, n):
            w = from_reduced_word(n, list(range(m - 2, -1, -1)))
            u = from_reduced_word(n, list(range(m - 1, -1, -1)))
            hits = [(c.i, c.j, c.mark) for c in marked_covers_above(w, 0) if c.outside == u]
            assert hits == [(0, m, m)]


def test_strips_from_s2s0():
    strips = strong_strips_from(from_reduced_word(3, [2, 0]), 2, 0)
    assert len(strips) == 4
    outs = Counter(tuple(s.outside.window) for s in strips)
    assert outs == {
        tuple(from_reduced_word(3, [2, 1, 2, 0]).window): 2,
        tuple(from_reduced_word(3, [0, 1, 2, 0]).window): 1,
        tuple(from_reduced_word(3, [0, 2, 1, 0]).window): 1,
    }
    assert [s.size for s in strong_strips_from(identity(3), 0, 0)] == [0]


def test_marks_strictly_increase_in_strips():
    for level in elements_by_length(3, 3):
        for w in level:
            for r in (1, 2, 3):
                for s in strong_strips_from(w, r, 0):
                    marks = [c.mark for c in s.covers]
                    assert marks == sorted(set(marks))


def test_consecutive_marks_never_equal_in_tuples():
    # Lemma: even without the increasing condition, adjacent covers in a
    # chain cannot carry equal marks
    for level in elements_by_length(3, 3):
        for w in level:
            for c1 in marked_covers_above(w, 0):
                for c2 in marked_covers_above(c1.outside, 0):
                    assert c1.mark != c2.mark


@pytest.mark.parametrize("n, max_len", [(3, 6), (4, 5)])
def test_covers_above_are_sorted_by_their_stored_mark(n, max_len):
    # strong_strip_outsides bisects these tuples by mark for the covers
    # above the last mark, so they must be sorted by the mark they store
    for level in elements_by_length(n, max_len):
        for w in level:
            for l in range(-1, n + 1):
                covers = marked_covers_above(w, l)
                marks = [c.mark for c in covers]
                assert marks == sorted(marks), (w, l)
                assert all(c.mark == c.inside(c.j) for c in covers), (w, l)
    compared = set(MarkedStrongCover._fields)
    assert compared == {"inside", "i", "j", "outside", "l"}


def test_strip_validation():
    c = marked_covers_above(identity(3), 0)[0]
    with pytest.raises(InvalidStrongStrip):
        StrongStrip(simple_reflection(3, 1), (c,))
    with pytest.raises(NotACover):
        MarkedStrongCover(identity(3), 1, 2, simple_reflection(3, 1), 0)  # not straddling


def test_grown_strips_check_their_new_junction():
    # appended and prepended check the junction they add: a planted cover
    # that does not chain, or whose mark is out of order, raises; a valid
    # one gives the strip the constructor builds from the same covers
    planted = Counter()
    for level in elements_by_length(3, 3):
        for w in level:
            for c1 in marked_covers_above(w, 0):
                lower = StrongStrip(w, (c1,))
                for c2 in marked_covers_above(c1.outside, 0):
                    upper = StrongStrip(c1.outside, (c2,))
                    if c2.mark > c1.mark:
                        built = StrongStrip(w, (c1, c2))
                        from_empty = StrongStrip(w, ()).appended(c1).appended(c2)
                        for grown in (lower.appended(c2), upper.prepended(c1), from_empty):
                            assert grown == built and hash(grown) == hash(built)
                            assert type(grown.covers) is tuple
                        continue
                    planted["mark"] += 1
                    with pytest.raises(InvalidStrongStrip, match="marks"):
                        lower.appended(c2)
                    with pytest.raises(InvalidStrongStrip, match="marks"):
                        upper.prepended(c1)
                for c in marked_covers_above(w, 0):  # starts at w, ends above it
                    planted["chain"] += 1
                    empty_above, empty_at_w = StrongStrip(c1.outside, ()), StrongStrip(w, ())
                    for grow in (lower.appended, empty_above.appended, lower.prepended, empty_at_w.prepended):
                        with pytest.raises(InvalidStrongStrip, match="chain"):
                            grow(c)
    assert planted["mark"] > 0 and planted["chain"] > 0
    # the enumerated strips, grown by appended, equal their constructor copies
    strips = [s for w in elements_by_length(3, 2)[2] for s in strong_strips_from(w, 2, 0)]
    assert strips and all(StrongStrip(s.inside, list(s.covers)) == s for s in strips)


def test_strips_ending_at_inverts_strips_from():
    for level in elements_by_length(3, 3):
        for w in level:
            for r in (1, 2):
                forward = {
                    (s.outside, tuple((c.i, c.j) for c in s.covers))
                    for s in strong_strips_from(w, r, 0)
                }
                for outside, refl in forward:
                    backward = {
                        tuple((c.i, c.j) for c in s.covers)
                        for s in strong_strips_ending_at(outside, r, 0)
                        if s.inside == w
                    }
                    assert refl in backward


def test_strong_tableaux_and_counts():
    e = identity(3)
    assert [t.weight() for t in strong_tableaux(e, e, 0)] == [()]
    u = from_reduced_word(3, [1, 0])
    ts = strong_tableaux(e, u, 0)
    assert sorted(t.weight() for t in ts) == [(1, 1), (2,)]
    assert count_strong_tableaux(e, u, (1, 1), 0) == 1
    assert count_strong_tableaux(e, u, (0, 2), 0) == 1


def test_standard_strong_counts_n2():
    # f_strong = m! for the unique Grassmannian element of each length
    from affine_insertion.cores import grassmannians_by_length

    for m in range(1, 6):
        (w,) = grassmannians_by_length(2, m)
        assert count_standard_strong(w, 0) == math.factorial(m)


def test_strip_render():
    s = strong_strips_from(identity(3), 1, 0)[0]
    assert s.render() == "[1,2,3] --(0,1)@1--> [0,2,4]"


def _cover_pair_by_evaluation(w, i, j):
    """Reference for is_cover_pair: evaluate w at every position between i and
    j, the scan it makes when those positions are fewer than the values."""
    if i >= j or (i - j) % w.n == 0:
        return False
    wi, wj = w(i), w(j)
    if wi >= wj:
        return False
    return all(not wi <= w(k) <= wj for k in range(i + 1, j))


def test_cover_pair_window_scan_equals_evaluation():
    # at n = 3 and 4 also against is_strong_cover; both scans are reached
    triples, scans = 0, Counter()
    for n, max_len in ((2, 5), (3, 5), (4, 5), (5, 4)):
        for w in (w for level in elements_by_length(n, max_len) for w in level):
            for i in range(-n, n + 1):
                for j in range(i + 1, i + 4 * n):
                    got = is_cover_pair(w, i, j)
                    assert got == _cover_pair_by_evaluation(w, i, j), (w, i, j)
                    if n in (3, 4) and (j - i) % n:
                        assert got == is_strong_cover(w, right_mult_transposition(w, i, j)), (w, i, j)
                    if w(i) < w(j):
                        scans["values" if w(j) - w(i) < j - i else "positions"] += got
                    triples += 1
    assert triples == 46596
    assert scans["values"] and scans["positions"]


def test_cover_pair_scans_agree_up_to_n9():
    scans = set()

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.integers(2, 9).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, n - 1), max_size=40).map(lambda word: from_reduced_word(n, word)),
        st.integers(-2 * n, 2 * n),
        st.integers(1, 10 * n),
        st.booleans(),
    )))
    def check(case):
        # j is i + d, or the position of the value w(i) + d
        w, i, d, by_value = case
        j = w.position_of(w(i) + d) if by_value else i + d
        i, j = min(i, j), max(i, j)
        got = is_cover_pair(w, i, j)
        assert got == _cover_pair_by_evaluation(w, i, j)
        if got:
            scans.add(w(j) - w(i) < j - i)

    check()
    assert scans == {True, False}


@pytest.mark.parametrize("n, max_len", [(3, 5), (4, 5)])
def test_cover_derived_from_its_outside(n, max_len):
    # MarkedStrongCover(None, i, j, u, l) derives its inside u * t_ij and
    # equals the cover built with it; a pair that is no cover still raises
    l, derived, refused = 0, 0, 0
    for u in (u for level in elements_by_length(n, max_len) for u in level):
        for c in marked_covers_below(u, l):
            d = MarkedStrongCover(None, c.i, c.j, u, l)
            assert d == c and (d.inside, d.mark, d.spin) == (c.inside, c.mark, c.spin)
            derived += 1
        for i in range(l - n + 1, l + 1):
            for j in range(i + 1, i + 3 * n + 1):
                if j <= l or not is_cover_pair(right_mult_transposition(u, i, j), i, j):
                    with pytest.raises(NotACover):
                        MarkedStrongCover(None, i, j, u, l)
                    refused += 1
    assert derived and refused
