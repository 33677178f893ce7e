import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_insertion.affperm import (
    dynkin_flip,
    elements_by_length,
    from_reduced_word,
    from_window,
    identity,
    reduced_word,
    simple_reflection,
    transposition,
)
from affine_insertion.oracles import (
    apply_cA,
    cyclic_components,
    cyclically_increasing,
    weak_strip_between,
    weak_strip_is_valid,
    weak_strip_length_check,
)
from affine_insertion.weak import (
    FullSet,
    InvalidStrip,
    WeakStrip,
    WeakTableau,
    count_standard_weak,
    count_weak_tableaux,
    cyclically_decreasing,
    normalize_residues,
    weak_strips_from,
    weak_tableaux,
)

A10 = frozenset({0, 1, 3, 4, 6, 9})


def test_cyclic_components():
    assert cyclic_components(10, A10) == [(9, 1), (3, 4), (6, 6)]
    assert cyclic_components(3, set()) == []
    assert cyclic_components(3, {2}) == [(2, 2)]
    with pytest.raises(FullSet):
        cyclic_components(3, {0, 1, 2})


def test_normalize_residues():
    for n in (3, 5):
        normal = frozenset(range(1, n))
        assert normalize_residues(n, normal) is normal  # already normal: returned as it is
        assert normalize_residues(n, frozenset()) == frozenset()
        assert normalize_residues(n, frozenset({-1, n})) == frozenset({0, n - 1})
        assert normalize_residues(n, [n + 1, 1, -2 * n]) == frozenset({0, 1})
        for full in (frozenset(range(n)), frozenset(range(n, 2 * n)), list(range(-n, 0))):
            with pytest.raises(FullSet):
                normalize_residues(n, full)


def test_cyclically_decreasing_element():
    c = cyclically_decreasing(10, A10)
    assert c.length == 6
    # window action from the paper: 12->11, 5->4, 7->6, 8->8
    for i, out in [(12, 11), (5, 4), (7, 6), (8, 8), (9, 12)]:
        assert c(i) == out
    assert cyclically_decreasing(4, set()).is_identity


def _component_product(n, members, decreasing):
    """The product of simple reflections over the cyclic components [a, b]
    of A: s_b ... s_a for each when decreasing, s_a ... s_b otherwise."""
    word = []
    for a, b in cyclic_components(n, members):
        letters = [(a + k) % n for k in range((b - a) % n + 1)]
        word += reversed(letters) if decreasing else letters
    return from_reduced_word(n, word)


def _proper_subsets(max_n):
    for n in range(2, max_n + 1):
        for r in range(n):
            for members in itertools.combinations(range(n), r):
                yield n, members


def test_apply_cA_closed_form():
    assert all(apply_cA(5, set(), i) == i for i in range(-3, 9))
    assert apply_cA(10, A10, 12) == 11
    # exhaustive agreement with the full product, and length additivity
    for n, members in _proper_subsets(6):
        c = _component_product(n, members, decreasing=True)
        assert c.length == len(members)
        assert cyclically_decreasing(n, members) == c
        for i in range(1, 3 * n + 1):
            assert apply_cA(n, members, i) == c(i)


def test_nicebad_order_preserving_bijection():
    # c_A restricted to A-nice integers is an order-preserving bijection
    # onto the A-bad integers, checked on windows of 3n consecutive integers
    def bad(n, members, x):
        return x % n not in members

    for n in (3, 4, 5):
        for r in range(n):
            for members in itertools.combinations(range(n), r):
                nice = [i for i in range(3 * n) if (i - 1) % n not in members]
                images = [apply_cA(n, members, i) for i in nice]
                assert all(a < b for a, b in zip(images, images[1:]))
                assert all(bad(n, members, y) for y in images)
                # onto: no bad integer is skipped between consecutive images
                for y1, y2 in zip(images, images[1:]):
                    assert not any(bad(n, members, y) for y in range(y1 + 1, y2))


def test_weak_strip_between_paper_cases():
    s = weak_strip_between(from_window(4, [3, 5, -2, 4]), from_window(4, [4, 5, -2, 3]))
    assert s is not None and s.residues == frozenset({3})
    s = weak_strip_between(from_window(6, [5, 0, 1, 9, -2, 8]), from_window(6, [4, -1, 1, 12, -3, 8]))
    assert s is not None and s.residues == frozenset({3, 4, 5})
    w = from_window(3, [-1, 3, 4])
    assert weak_strip_between(w, w).size == 0
    assert weak_strip_between(w, identity(3)) is None


def test_weak_strip_validation():
    w = from_reduced_word(3, [2, 0])
    with pytest.raises(InvalidStrip):
        WeakStrip(w, frozenset({0, 2}), identity(3))


def test_weak_strips_from_counts():
    # brute-force subset enumeration; outsides derived independently above
    strips = weak_strips_from(from_reduced_word(3, [2, 0]), 2)
    outs = sorted(tuple(s.outside.window) for s in strips)
    assert outs == [(-2, 2, 6), (-2, 5, 3)]
    assert len(weak_strips_from(identity(3), 2)) == 3
    assert [s.size for s in weak_strips_from(identity(3), 0)] == [0]


def test_criterion_matches_length_check():
    # Lemma equivalence: the O(n) consecutive-nice criterion agrees with
    # brute-force length additivity on every instance
    for n in (3, 4):
        for level in elements_by_length(n, 4):
            for w in level:
                for r in range(n):
                    for members in itertools.combinations(range(n), r):
                        members = frozenset(members)
                        v = cyclically_decreasing(n, members) * w
                        assert weak_strip_is_valid(w, members, v) == weak_strip_length_check(
                            w, members, v
                        )


@st.composite
def _strip_candidates(draw):
    """(w, residues, v): v is c_A * w, or that one transposition off, on the
    left or the right; residues is A, or translates of its members as a
    frozenset or a list."""
    n = draw(st.integers(2, 12))
    w = from_reduced_word(n, draw(st.lists(st.integers(0, n - 1), max_size=3 * n)))
    members = draw(st.frozensets(st.integers(0, n - 1), max_size=n - 1))
    v = cyclically_decreasing(n, members) * w
    off = draw(st.sampled_from(["none", "left", "right"]))
    if off != "none":
        a = draw(st.integers(-n, n))
        b = draw(st.integers(-n, 2 * n).filter(lambda b: (b - a) % n))
        t = transposition(n, a, b)
        v = t * v if off == "left" else v * t
    form = draw(st.sampled_from([frozenset, list, None]))
    if form is not None:  # translates of the residues, as a frozenset or a list
        members = form(x + n * draw(st.integers(-2, 2)) for x in sorted(members))
    return w, members, v


@settings(derandomize=True, deadline=None, max_examples=600)
@given(_strip_candidates())
def test_weak_strip_accepts_what_the_length_check_accepts(case):
    # the constructor's strip test against length additivity, near misses included
    w, members, v = case
    if weak_strip_length_check(w, members, v):
        strip = WeakStrip(w, members, v)
        assert strip.residues == normalize_residues(w.n, members) and strip.outside == v
    else:
        with pytest.raises(InvalidStrip, match="is not a weak strip"):
            WeakStrip(w, members, v)


def test_weak_strip_refuses_a_full_residue_set():
    for n in (2, 3, 5):
        w = from_reduced_word(n, [0, 1])
        for full in (frozenset(range(n)), frozenset(range(n, 2 * n)), list(range(-n, 0))):
            with pytest.raises(FullSet, match=f"proper subset of Z/{n}Z"):
                WeakStrip(w, full, w)


def test_weaknoinv_property():
    # no positions i < j with w(i) > w(j) but v(i) < v(j), over all strips
    from affine_insertion.affperm import inversions

    for n in (3, 4):
        for level in elements_by_length(n, 5):
            for w in level:
                for r in range(1, n):
                    for strip in weak_strips_from(w, r):
                        v = strip.outside
                        for i, j in inversions(w):
                            assert not v(i) < v(j)


def test_weak_grassmannian_inheritance():
    for level in elements_by_length(3, 5):
        for w in level:
            for r in range(1, 3):
                for strip in weak_strips_from(w, r):
                    if strip.outside.is_grassmannian(0):
                        assert w.is_grassmannian(0)


def _dual_strips(w, r):
    """Brute force: the (A, c~_A * w) over r-subsets A of Z/nZ, c~_A cyclically
    increasing, whose length is additive."""
    n = w.n
    pairs = ((a, cyclically_increasing(n, a) * w) for a in map(frozenset, itertools.combinations(range(n), r)))
    return [(a, v) for a, v in pairs if v.length == w.length + r]


def test_dual_strips_flip_equivalence():
    # at n=2 both singleton residue sets add length one, so id has two dual
    # strips of size one (s_0 and s_1)
    assert len(_dual_strips(identity(2), 1)) == 2
    cases = 0
    for n, max_len in [(2, 6), (3, 6), (4, 5), (5, 4)]:
        for w in (w for level in elements_by_length(n, max_len) for w in level):
            for r in range(n):
                flipped = [
                    (frozenset((-a) % n for a in s.residues), dynkin_flip(s.outside))
                    for s in weak_strips_from(dynkin_flip(w), r)
                ]
                assert Counter(_dual_strips(w, r)) == Counter(flipped), (w, r)
                cases += 1
    assert cases == 1332


def test_cyclically_increasing():
    c = cyclically_increasing(4, {0, 1})
    assert c == simple_reflection(4, 0) * simple_reflection(4, 1)
    assert c.length == 2
    for n, members in _proper_subsets(6):
        assert cyclically_increasing(n, members) == _component_product(n, members, decreasing=False)


def test_cyclically_increasing_is_the_inverse_of_c_A():
    # the run-by-run closed form against inverting c_A, on all 501 proper A
    # at n = 2..8
    subsets = list(_proper_subsets(8))
    assert len(subsets) == 501
    for n, members in subsets:
        assert cyclically_increasing(n, members) == cyclically_decreasing(n, members).inverse(), (n, members)


def _reduced_word_strip_between(w, v):
    # through a reduced word of c = v w^{-1}: c must be c_A for the set A of
    # its letters, with |A| = l(v) - l(w) distinct letters
    n = w.n
    r = v.length - w.length
    if r == 0:
        return WeakStrip(w, frozenset(), v) if w == v else None
    if r < 0 or r >= n:
        return None
    c = v * w.inverse()
    word = reduced_word(c)
    members = frozenset(word)
    if len(word) != r or len(members) != r or cyclically_decreasing(n, members) != c:
        return None
    return WeakStrip(w, members, v)


def test_weak_strip_between_equals_reduced_word_version():
    # every pair (w, v) of length <= 4 at n = 3 and 4
    pairs = 0
    for n in (3, 4):
        elements = [w for level in elements_by_length(n, 4) for w in level]
        for w, v in itertools.product(elements, repeat=2):
            assert weak_strip_between(w, v) == _reduced_word_strip_between(w, v), (w, v)
            pairs += 1
    assert pairs == 5722


def test_weak_tableaux_enumeration():
    e = identity(3)
    ts = weak_tableaux(e, e)
    assert len(ts) == 1 and ts[0].weight() == ()
    w = from_reduced_word(3, [1, 0])
    ts = weak_tableaux(e, w)
    weights = sorted(t.weight() for t in ts)
    assert weights == [(1, 1), (2,)]
    assert count_weak_tableaux(e, w, (1, 1)) == 1
    assert count_weak_tableaux(e, w, (1, 0, 1)) == 1  # zero parts are trivial strips
    assert count_weak_tableaux(e, w, (2,)) == 1
    assert count_weak_tableaux(e, w, (3,)) == 0


def test_standard_weak_counts_low_rank():
    # n=2: the alternating word is the unique reduced word at every length
    from affine_insertion.cores import grassmannians_by_length

    for m in range(1, 7):
        (w,) = grassmannians_by_length(2, m)
        assert count_standard_weak(w) == 1


def test_weak_tableau_chain_validation():
    e = identity(3)
    strip = weak_strips_from(e, 1)[0]
    with pytest.raises(InvalidStrip):
        WeakTableau(simple_reflection(3, 0), (strip,))

