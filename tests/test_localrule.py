import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_insertion import localrule, strong
from affine_insertion.affperm import (
    AffinePermutation,
    elements_by_length,
    from_reduced_word,
    from_window,
    identity,
    rotate,
    simple_reflection,
)
from affine_insertion.localrule import (
    CaseTag,
    EndpointMismatch,
    FinalPair,
    InitialPair,
    InitialTriple,
    InvalidPair,
    PreconditionViolation,
    StripFull,
    external_insert,
    internal_insert,
    phi,
    phi_with_audit,
    psi,
    psi_with_audit,
    reverse_insert,
)
from affine_insertion.oracles import commutes_final, commutes_initial
from affine_insertion.strong import MarkedStrongCover, NotACover, StrongStrip, marked_covers_above, strong_strips_from
from affine_insertion.weak import InvalidStrip, WeakStrip, is_bad, is_nice, weak_strips_from

W = from_window


def wstrip(n, inside, members, outside):
    return WeakStrip(W(n, inside), frozenset(members), W(n, outside))


def cover(n, inside, i, j, outside, l=0):
    return MarkedStrongCover(W(n, inside), i, j, W(n, outside), l)


def empty_strip(n, window):
    return StrongStrip(W(n, window), ())


def test_case_a_example():
    c = cover(4, [3, 5, -2, 4], -2, 1, [1, 7, -2, 4])
    pair = FinalPair(wstrip(4, [3, 5, -2, 4], {3}, [4, 5, -2, 3]), empty_strip(4, [4, 5, -2, 3]))
    assert commutes_initial(pair.weak, c)
    out, tag = internal_insert(pair, c, 0)
    assert tag is CaseTag.A
    assert out.weak == wstrip(4, [1, 7, -2, 4], {3}, [1, 8, -2, 3])
    assert out.strong.covers == (cover(4, [4, 5, -2, 3], -2, 1, [1, 8, -2, 3]),)


def test_case_b_example():
    c = cover(6, [5, 0, 1, 9, -2, 8], -2, 1, [3, 0, 1, 11, -2, 8])
    weak = wstrip(6, [5, 0, 1, 9, -2, 8], {3, 4, 5}, [4, -1, 1, 12, -3, 8])
    assert not commutes_initial(weak, c)
    out, tag = internal_insert(FinalPair(weak, empty_strip(6, [4, -1, 1, 12, -3, 8])), c, 0)
    assert tag is CaseTag.B
    assert out.weak == wstrip(6, [3, 0, 1, 11, -2, 8], {2, 3, 5}, [2, -1, 1, 12, -3, 10])
    assert out.strong.covers == (cover(6, [4, -1, 1, 12, -3, 8], 0, 1, [2, -1, 1, 12, -3, 10]),)


def test_case_c_example():
    c = cover(4, [1, 7, -2, 4], -2, 4, [1, 8, -2, 3])
    s1 = StrongStrip(W(4, [4, 5, -2, 3]), (cover(4, [4, 5, -2, 3], -2, 1, [1, 8, -2, 3]),))
    pair = FinalPair(wstrip(4, [1, 7, -2, 4], {3}, [1, 8, -2, 3]), s1)
    out, tag = internal_insert(pair, c, 0)
    assert tag is CaseTag.C
    assert out.strong.covers == (
        cover(4, [4, 5, -2, 3], -2, 7, [4, 6, -3, 3]),
        cover(4, [4, 6, -3, 3], -2, 1, [2, 8, -3, 3]),
    )
    assert out.weak == wstrip(4, [1, 8, -2, 3], {1}, [2, 8, -3, 3])


def test_case_x_example():
    pair = FinalPair(
        wstrip(5, [2, -4, 5, 8, 4], {3, 5}, [2, -5, 6, 9, 3]), empty_strip(5, [2, -5, 6, 9, 3])
    )
    out = external_insert(pair, 0)
    assert out.weak == wstrip(5, [2, -4, 5, 8, 4], {3, 4, 5}, [2, -5, 4, 11, 3])
    assert out.strong.covers == (cover(5, [2, -5, 6, 9, 3], -1, 3, [2, -5, 4, 11, 3]),)


def test_case_x_from_identity():
    # the first square of the worked growth diagram: just adds residue 0
    e = identity(3)
    pair = FinalPair(WeakStrip(e, frozenset(), e), StrongStrip(e, ()))
    out = external_insert(pair, 0)
    assert out.weak.residues == frozenset({0})
    from affine_insertion.cores import core_of

    assert core_of(out.weak.outside) == (1,)


def test_case_ra_example():
    cp = cover(4, [4, 6, -3, 3], -2, 1, [2, 8, -3, 3])
    pair = InitialPair(wstrip(4, [1, 8, -2, 3], {1}, [2, 8, -3, 3]), empty_strip(4, [1, 8, -2, 3]))
    out, tag = reverse_insert(pair, cp, 0)
    assert tag is CaseTag.RA
    assert out.weak == wstrip(4, [4, 5, -2, 3], {1}, [4, 6, -3, 3])
    assert out.strong.covers == (cover(4, [4, 5, -2, 3], -2, 1, [1, 8, -2, 3]),)


def test_case_rb_example():
    cp = cover(6, [4, -1, 1, 12, -3, 8], 0, 1, [2, -1, 1, 12, -3, 10])
    pair = InitialPair(
        wstrip(6, [3, 0, 1, 11, -2, 8], {2, 3, 5}, [2, -1, 1, 12, -3, 10]),
        empty_strip(6, [3, 0, 1, 11, -2, 8]),
    )
    out, tag = reverse_insert(pair, cp, 0)
    assert tag is CaseTag.RB
    assert out.weak == wstrip(6, [5, 0, 1, 9, -2, 8], {3, 4, 5}, [4, -1, 1, 12, -3, 8])
    assert out.strong.covers == (cover(6, [5, 0, 1, 9, -2, 8], -2, 1, [3, 0, 1, 11, -2, 8]),)


def test_case_rc_example():
    cp = cover(4, [4, 5, -2, 3], -2, 7, [4, 6, -3, 3])
    s1 = StrongStrip(W(4, [4, 5, -2, 3]), (cover(4, [4, 5, -2, 3], -2, 1, [1, 8, -2, 3]),))
    pair = InitialPair(wstrip(4, [4, 5, -2, 3], {1}, [4, 6, -3, 3]), s1)
    out, tag = reverse_insert(pair, cp, 0)
    assert tag is CaseTag.RC
    assert out.weak == wstrip(4, [3, 5, -2, 4], {3}, [4, 5, -2, 3])
    assert out.strong.covers == (
        cover(4, [3, 5, -2, 4], -2, 1, [1, 7, -2, 4]),
        cover(4, [1, 7, -2, 4], -2, 4, [1, 8, -2, 3]),
    )


def test_case_rx_example():
    cp = cover(5, [2, -5, 6, 9, 3], -1, 3, [2, -5, 4, 11, 3])
    pair = InitialPair(
        wstrip(5, [2, -4, 5, 8, 4], {3, 4, 5}, [2, -5, 4, 11, 3]),
        empty_strip(5, [2, -4, 5, 8, 4]),
    )
    out, tag = reverse_insert(pair, cp, 0)
    assert tag is CaseTag.RX
    assert out.weak == wstrip(5, [2, -4, 5, 8, 4], {3, 5}, [2, -5, 6, 9, 3])
    assert out.strong.size == 0


def test_initfincommute_equivalence():
    # a commuting initial pair is exactly one whose pushed-out final square
    # closes up into a genuine weak strip and strong cover (and then the
    # final pair commutes as well)
    from affine_insertion.strong import is_cover_pair, marked_covers_above
    from affine_insertion.oracles import weak_strip_is_valid
    from affine_insertion.weak import cyclically_decreasing

    for level in elements_by_length(3, 4):
        for w in level:
            for strip in (s for r in (0, 1, 2) for s in weak_strips_from(w, r)):
                v = strip.outside
                for c in marked_covers_above(w, 0):
                    x = cyclically_decreasing(3, strip.residues) * c.outside
                    closes = weak_strip_is_valid(c.outside, strip.residues, x) and is_cover_pair(
                        v, c.i, c.j
                    )
                    assert commutes_initial(strip, c) == closes
                    if closes:
                        final = FinalPair(
                            WeakStrip(c.outside, strip.residues, x),
                            StrongStrip(v, ()).appended(MarkedStrongCover(v, c.i, c.j, x, 0)),
                        )
                        assert commutes_final(final.weak, final.strong.last)


def test_phi_identity_case():
    e = identity(3)
    triple = InitialTriple(WeakStrip(e, frozenset(), e), StrongStrip(e, ()), 0)
    out = phi(triple, 0)
    assert out.weak.size == 0 and out.strong.size == 0


def test_triple_membership_validation():
    e = identity(3)
    big = weak_strips_from(e, 2)[0]
    with pytest.raises(PreconditionViolation):
        InitialTriple(big, StrongStrip(e, ()), 1)  # size(W) + e = n


def test_external_insert_strip_full():
    e = identity(3)
    strip = next(s for s in weak_strips_from(e, 2))
    pair = FinalPair(strip, StrongStrip(strip.outside, ()))
    with pytest.raises(StripFull):
        external_insert(pair, 0)


def test_endpoint_mismatch():
    e = identity(3)
    c = strong_strips_from(e, 1, 0)[0].covers[0]
    bad = weak_strips_from(c.outside, 0)[0]
    with pytest.raises(EndpointMismatch):
        commutes_initial(bad, c)


def _small_triples(n, l):
    """Every initial triple from an element of length <= 3, weak and strong
    strips of size <= 2 and e <= 2, with size(W) + e < n."""
    for level in elements_by_length(n, 3):
        for w in level:
            weaks = [s for r in (0, 1, 2) for s in weak_strips_from(w, r)]
            strongs = [s for r in (0, 1, 2) for s in strong_strips_from(w, r, l)]
            for wk in weaks:
                for st in strongs:
                    for e in range(3):
                        if wk.size + e < n:
                            yield InitialTriple(wk, st, e)


def test_roundtrip_exhaustive_small():
    n, l = 3, 0
    sizes = 0
    for triple in _small_triples(n, l):
        out, steps = phi_with_audit(triple, l)
        assert out.strong.size == triple.strong.size + triple.e  # size identity
        back, rsteps = psi_with_audit(out, l)
        assert back == triple
        assert len(steps) == len(rsteps)
        sizes += 1
    assert sizes > 1000


@pytest.mark.parametrize("n", [3, 4])
def test_steps_build_no_product(monkeypatch, n):
    # every corner is read off a cover (w * t_ij) and every square checked
    # by WeakStrip's closed form, so no c_A and no product is built
    l = 0
    triples = list(_small_triples(n, l))

    def refuse(*args):
        raise AssertionError("the local rule built a product")

    monkeypatch.setattr(AffinePermutation, "__mul__", refuse)
    monkeypatch.setattr(localrule, "cyclically_decreasing", refuse, raising=False)
    for triple in triples:
        assert psi(phi(triple, l), l) == triple
    assert len(triples) > 1000


def test_audit_tags_factorize():
    # Case C never appears at the start of a run and never directly after B
    n, l = 3, 0
    for level in elements_by_length(n, 3):
        for w in level:
            for wk in (s for r in (0, 1, 2) for s in weak_strips_from(w, r)):
                for st in (s for r in (0, 1, 2) for s in strong_strips_from(w, r, l)):
                    if wk.size >= n:
                        continue
                    _, steps = phi_with_audit(InitialTriple(wk, st, 0), l)
                    tags = [s_.case for s_ in steps]
                    for prev, cur in zip(tags, tags[1:]):
                        if cur is CaseTag.C:
                            assert prev in (CaseTag.A, CaseTag.C)
                    if tags:
                        assert tags[0] is not CaseTag.C
                    for s_ in steps:
                        assert s_.before.weak.inside != s_.after.weak.inside or s_.case is CaseTag.X


def test_roundtrip_sampled_higher_rank_and_shifted_slot():
    # seeded samples at ranks 5 and 6 and at nonzero parabolic slots
    import random

    from affine_insertion.verify import _random_triple

    rng = random.Random(99)
    for n, l, cases in [(5, 0, 250), (6, 0, 150), (4, 1, 250), (3, -2, 250)]:
        for _ in range(cases):
            triple = _random_triple(n, l, rng, 5, min(3, n - 1), 2)
            out, _ = phi_with_audit(triple, l)
            back, _ = psi_with_audit(out, l)
            assert back == triple, (n, l, triple)


@st.composite
def _triples(draw, levels):
    """(l, triple): an initial triple at level l, 3 <= n <= 6, from an element of
    length <= 5, strips of size <= 3 and any admissible e."""
    n = draw(st.integers(3, 6))
    l = draw(levels)
    w = from_reduced_word(n, draw(st.lists(st.integers(0, n - 1), max_size=5)))
    sizes = range(min(3, n - 1) + 1)
    weak = draw(st.sampled_from([s for r in sizes for s in weak_strips_from(w, r)]))
    strong = draw(st.sampled_from([s for r in sizes for s in strong_strips_from(w, r, l)]))
    return l, InitialTriple(weak, strong, draw(st.integers(0, n - 1 - weak.size)))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_triples(st.integers(-6, 6).filter(bool)))
def test_psi_inverts_phi_off_level_zero(case):
    l, triple = case
    assert psi(phi(triple, l), l) == triple


def _rotated_cover(c, k):
    return MarkedStrongCover(rotate(c.inside, k), c.i + k, c.j + k, rotate(c.outside, k), c.l + k)


def _rotated_strips(weak, strong, k):
    n = weak.inside.n
    return (
        WeakStrip(rotate(weak.inside, k), frozenset((a + k) % n for a in weak.residues), rotate(weak.outside, k)),
        StrongStrip(rotate(strong.inside, k), tuple(_rotated_cover(c, k) for c in strong.covers)),
    )


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_triples(st.integers(-3, 5)), st.integers(-6, 6))
def test_phi_and_psi_commute_with_rotate(case, k):
    # rotate(., k) sends s_i to s_{i+k}: residues, cover positions and the
    # level all move by k, so the rule at l + k is the rotated rule at l
    l, triple = case
    final = phi(triple, l)
    rotated_triple = InitialTriple(*_rotated_strips(triple.weak, triple.strong, k), triple.e)
    rotated_final = FinalPair(*_rotated_strips(final.weak, final.strong, k))
    assert phi(rotated_triple, l + k) == rotated_final
    assert psi(rotated_final, l + k) == rotated_triple


def _brute_max(perm, pred, a_set, l, bound):
    n = perm.n
    qs = [q for q in map(perm, range(l - 3 * n + 1, l + 1)) if pred(n, a_set, q) and (bound is None or q < bound)]
    return max(qs, default=None)


def _brute_min_nice_above(perm, a_set, l, bound):
    n = perm.n
    return min((q for q in map(perm, range(l - 3 * n + 1, l + 1)) if q > bound and is_nice(n, a_set, q)), default=None)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, n - 1), max_size=30).map(lambda word: from_reduced_word(n, word)),
    st.frozensets(st.integers(0, n - 1)),
    st.integers(-6, 6),
    st.integers(-2 * n + 1, 2 * n),
    st.booleans(),
)))
def test_low_position_scanners_match_brute_force(case):
    # a bound above max(perm(m), m in (l - n, l]) - 2n keeps every candidate's
    # position in (l - 3n, l], where the brute force searches
    perm, a_set, l, d, bounded = case
    bound = max(map(perm, range(l - perm.n + 1, l + 1))) + d
    max_bound = bound if bounded else None
    for pred in (is_nice, is_bad):
        expected = _brute_max(perm, pred, a_set, l, max_bound)
        if expected is None:  # only a full a_set admits no integer
            with pytest.raises(PreconditionViolation, match=pred.__name__):
                localrule._max_at_low_position(perm, pred, a_set, l, max_bound)
        else:
            assert localrule._max_at_low_position(perm, pred, a_set, l, max_bound) == expected
    assert localrule._min_nice_above_at_low_position(perm, a_set, l, bound) == _brute_min_nice_above(
        perm, a_set, l, bound
    )


# The Case B, C and X fixtures above, as steps with thunks for their
# inputs, for the planted-error test, each with the neighbour of its bumped
# integer p that still yields a genuine weak strip and straddling cover, so
# that only the square identity fails.
SQUARE_CASES = {
    "B": (1, internal_insert, lambda: (
        FinalPair(
            wstrip(6, [5, 0, 1, 9, -2, 8], {3, 4, 5}, [4, -1, 1, 12, -3, 8]),
            empty_strip(6, [4, -1, 1, 12, -3, 8]),
        ),
        cover(6, [5, 0, 1, 9, -2, 8], -2, 1, [3, 0, 1, 11, -2, 8]),
        0,
    )),
    "C": (1, internal_insert, lambda: (
        FinalPair(
            wstrip(4, [1, 7, -2, 4], {3}, [1, 8, -2, 3]),
            StrongStrip(W(4, [4, 5, -2, 3]), (cover(4, [4, 5, -2, 3], -2, 1, [1, 8, -2, 3]),)),
        ),
        cover(4, [1, 7, -2, 4], -2, 4, [1, 8, -2, 3]),
        0,
    )),
    "X": (-1, external_insert, lambda: (
        FinalPair(
            wstrip(5, [2, -4, 5, 8, 4], {3, 5}, [2, -5, 6, 9, 3]), empty_strip(5, [2, -5, 6, 9, 3])
        ),
        0,
    )),
}


# Case C derives two covers, y -> v' and v' -> x; the corner x is the
# second one's outside, so only that product is planted.
CORNER_CALL = {"B": 0, "C": 1, "X": 0}


def _wrong_bump(real, case):
    # p + shift instead of p: the new cover gets the wrong partner
    shift = SQUARE_CASES[case][0]

    def planted(n, a_set, x, pred, step=1):
        return real(n, a_set, x, pred, step) + shift

    return planted


def _wrong_corner(real, case):
    # x = v * t_ab * s_0 instead of v * t_ab: the new corner is wrong
    calls = itertools.count()

    def planted(w, i, j):
        out = real(w, i, j)
        return out * simple_reflection(w.n, 0) if next(calls) == CORNER_CALL[case] else out

    return planted


@pytest.mark.parametrize("case", sorted(SQUARE_CASES))
@pytest.mark.parametrize("owner, helper, plant", [
    pytest.param(localrule, "step_to", _wrong_bump, id="step_to-_wrong_bump"),
    pytest.param(strong, "right_mult_transposition", _wrong_corner, id="right_mult_transposition-_wrong_corner"),
])
def test_planted_wrong_square_raises(monkeypatch, case, owner, helper, plant):
    _, step, inputs = SQUARE_CASES[case]
    args = inputs()
    step(*args)  # the unplanted step succeeds
    monkeypatch.setattr(owner, helper, plant(getattr(owner, helper), case))
    # the inputs were built unplanted, so the raise is the step's own square check
    with pytest.raises(InvalidStrip):
        step(*args)


# The Case RA, RB and RC fixtures above, each with a nonempty A', as thunks
# for their inputs, with the error the step's own check raises when the
# product its new covers derive their insides from is planted wrong.
REVERSE_SQUARE_CASES = {
    "RA": (NotACover, lambda: (
        InitialPair(wstrip(4, [1, 8, -2, 3], {1}, [2, 8, -3, 3]), empty_strip(4, [1, 8, -2, 3])),
        cover(4, [4, 6, -3, 3], -2, 1, [2, 8, -3, 3]),
        0,
    )),
    "RB": (NotACover, lambda: (
        InitialPair(
            wstrip(6, [3, 0, 1, 11, -2, 8], {2, 3, 5}, [2, -1, 1, 12, -3, 10]),
            empty_strip(6, [3, 0, 1, 11, -2, 8]),
        ),
        cover(6, [4, -1, 1, 12, -3, 8], 0, 1, [2, -1, 1, 12, -3, 10]),
        0,
    )),
    "RC": (InvalidStrip, lambda: (
        InitialPair(
            wstrip(4, [4, 5, -2, 3], {1}, [4, 6, -3, 3]),
            StrongStrip(W(4, [4, 5, -2, 3]), (cover(4, [4, 5, -2, 3], -2, 1, [1, 8, -2, 3]),)),
        ),
        cover(4, [4, 5, -2, 3], -2, 7, [4, 6, -3, 3]),
        0,
    )),
}


@pytest.mark.parametrize("case", sorted(REVERSE_SQUARE_CASES))
def test_planted_wrong_reverse_square_raises(monkeypatch, case):
    error, inputs = REVERSE_SQUARE_CASES[case]
    args = inputs()
    assert reverse_insert(*args)[1].value == case  # the unplanted step succeeds
    real = strong.right_mult_transposition
    # u * t_ij * s_0 instead of u * t_ij: the new inside corner is wrong
    monkeypatch.setattr(strong, "right_mult_transposition", lambda w, i, j: real(w, i, j) * simple_reflection(w.n, 0))
    # the inputs were built unplanted, so the raise is the step's own check
    with pytest.raises(error):
        reverse_insert(*args)


@pytest.mark.parametrize("n", [3, 4])
def test_reverse_steps_derive_each_inside_once(monkeypatch, n):
    # a new reverse cover derives its inside from its outside: one product
    # per new cover (RA and RB one, RC two), none for a reused cover or RX
    l, calls, seen = 0, [], set()
    real_product, real_step = strong.right_mult_transposition, localrule.reverse_insert

    def counted_product(w, i, j):
        calls.append(1)
        return real_product(w, i, j)

    def counted_step(pair, cover, l):
        calls.clear()
        out, tag = real_step(pair, cover, l)
        reused = tag is CaseTag.RA and out.strong.first is cover
        expected = {CaseTag.RA: 0 if reused else 1, CaseTag.RB: 1, CaseTag.RC: 2, CaseTag.RX: 0}[tag]
        assert len(calls) == expected, (tag, pair, cover)
        seen.add((tag, reused))
        return out, tag

    finals = [phi(triple, l) for triple in _small_triples(n, l)]
    monkeypatch.setattr(strong, "right_mult_transposition", counted_product)
    monkeypatch.setattr(localrule, "reverse_insert", counted_step)
    for final in finals:
        psi(final, l)
    assert {tag for tag, _ in seen} == {CaseTag.RA, CaseTag.RB, CaseTag.RC, CaseTag.RX}
    assert (CaseTag.RA, True) in seen and (CaseTag.RA, False) in seen


def _exhaustive_empty_strip_triples(n, l):
    """Every initial triple with an empty weak strip, from an element of length
    <= 3, a strong strip of size <= 2 and any admissible e."""
    for level in elements_by_length(n, 3):
        for w in level:
            empty = WeakStrip(w, frozenset(), w)
            for r in (0, 1, 2):
                for st_ in strong_strips_from(w, r, l):
                    for e in range(n):
                        yield InitialTriple(empty, st_, e)


@pytest.mark.parametrize("n", [3, 4])
def test_empty_strip_steps_pass_covers_through(n):
    # with A = {} Cases A and RA hand on the cover objects they were given
    l, count = 0, 0
    for triple in _exhaustive_empty_strip_triples(n, l):
        final = phi(triple, l)
        assert all(a is b for a, b in zip(final.strong.covers, triple.strong.covers))
        back = psi(final, l)
        assert back == triple
        assert all(a is b for a, b in zip(back.strong.covers, final.strong.covers))
        count += 1
    assert count > 500


def test_pass_through_rebuilds_covers_marked_at_another_level():
    # a cover marked at level 1 is rebuilt at l = 0, or refused if it does
    # not straddle 0
    rebuilt = refused = 0
    for level in elements_by_length(3, 3):
        for w in level:
            for c in marked_covers_above(w, 1):
                steps = (
                    lambda: internal_insert(FinalPair(WeakStrip(w, frozenset(), w), StrongStrip(w, ())), c, 0),
                    lambda: reverse_insert(
                        InitialPair(WeakStrip(c.outside, frozenset(), c.outside), StrongStrip(c.outside, ())), c, 0
                    ),
                )
                for step in steps:
                    if c.i <= 0 < c.j:
                        out, tag = step()
                        new = out.strong.covers[0]
                        assert tag in (CaseTag.A, CaseTag.RA) and new is not c and new.l == 0
                        assert (new.inside, new.i, new.j, new.outside) == (c.inside, c.i, c.j, c.outside)
                        rebuilt += 1
                    else:
                        with pytest.raises(NotACover):
                            step()
                        refused += 1
    assert rebuilt and refused


# Three n = 3 triples: one cover that passes through (forward A, reverse RA);
# two covers, bumped then passed through (forward B, A; reverse RA, RB); and
# one external step on empty strips (forward X, reverse RX).
E3 = identity(3)
A_ONE = InitialTriple(WeakStrip(E3, frozenset(), E3), StrongStrip(E3, (cover(3, [1, 2, 3], 0, 1, [0, 2, 4]),)), 0)
B_THEN_A = InitialTriple(
    wstrip(3, [1, 2, 3], {0}, [0, 2, 4]),
    StrongStrip(E3, (cover(3, [1, 2, 3], 0, 1, [0, 2, 4]), cover(3, [0, 2, 4], 0, 2, [0, 1, 5]))),
    0,
)
X_ONE = InitialTriple(WeakStrip(E3, frozenset(), E3), StrongStrip(E3, ()), 1)
PLANT_TRIPLES = {"A_ONE": (A_ONE, "A", "RA"), "B_THEN_A": (B_THEN_A, "BA", "RARB"), "X_ONE": (X_ONE, "X", "RX")}


def _relabelled(real, tags):
    """The step real, with the case tag of its k-th call replaced by tags[k]."""
    calls = itertools.count()

    def planted(*args):
        out, tag = real(*args)
        return out, tags.get(next(calls), tag)

    return planted


# (runner, triple, planted step, plant, the message the run must raise)
INVARIANT_PLANTS = {
    "markmove-after-B": ("phi", "B_THEN_A", "internal_insert", lambda real: _relabelled(real, {1: CaseTag.C}),
                         "Case C directly after Case B"),
    "markmove-first-index": ("phi", "A_ONE", "internal_insert", lambda real: _relabelled(real, {0: CaseTag.C}),
                             "Case C without repeated first index"),
    "commutation": ("phi", "A_ONE", "internal_insert", lambda real: _relabelled(real, {0: CaseTag.B}),
                    "commutation status wrong after Case B"),
    # external_insert returning its input pair: no cover is added
    "size": ("phi", "X_ONE", "external_insert", lambda real: lambda pair, l: pair,
             "output strong strip has the wrong size"),
    "reverse-markmove": ("psi", "B_THEN_A", "reverse_insert",
                         lambda real: _relabelled(real, {0: CaseTag.RB, 1: CaseTag.RC}),
                         "Case RC directly after Case RB"),
    # reverse_insert returning its input pair, with the case it found
    "landing": ("psi", "A_ONE", "reverse_insert", lambda real: lambda pair, c, l: (pair, real(pair, c, l)[1]),
                "reverse run did not land on inside(S')"),
    "tally": ("psi", "X_ONE", "reverse_insert", lambda real: _relabelled(real, {0: CaseTag.RA}),
              "external count disagrees with the RX tally"),
}


@pytest.mark.parametrize("runner, name, step, plant, message", [
    pytest.param(*plant, id=key) for key, plant in INVARIANT_PLANTS.items()
])
def test_planted_step_trips_its_run_invariant(monkeypatch, runner, name, step, plant, message):
    # each run-level check of phi and psi, which no unplanted run reaches
    triple, tags, rtags = PLANT_TRIPLES[name]
    final, steps = phi_with_audit(triple, 0)
    back, rsteps = psi_with_audit(final, 0)
    assert back == triple  # the unplanted runs succeed, with the fixture's cases
    assert "".join(s.case.value for s in steps) == tags and "".join(s.case.value for s in rsteps) == rtags
    monkeypatch.setattr(localrule, step, plant(getattr(localrule, step)))
    with pytest.raises(InvalidPair) as info:
        phi_with_audit(triple, 0) if runner == "phi" else psi_with_audit(final, 0)
    assert type(info.value) is InvalidPair and str(info.value) == message


# Run under python -O, where assert statements are stripped: the square
# identity, the strip test, the cover test and the run invariants of phi
# must still raise.
OPTIMIZED_CHECKS = """
from affine_insertion import localrule, strong
from affine_insertion.affperm import from_window as W, identity, right_mult_transposition, simple_reflection
from affine_insertion.localrule import (
    CaseTag, FinalPair, InitialPair, InitialTriple, InvalidPair, external_insert, phi, reverse_insert,
)
from affine_insertion.strong import MarkedStrongCover, NotACover, StrongStrip
from affine_insertion.weak import InvalidStrip, WeakStrip

if __debug__:
    raise SystemExit("not running under -O")


def raised(exc, thunk):
    try:
        thunk()
    except exc:
        return True
    return False


def case_x():
    inside, outside = W(5, [2, -4, 5, 8, 4]), W(5, [2, -5, 6, 9, 3])
    return external_insert(FinalPair(WeakStrip(inside, frozenset({3, 5}), outside), StrongStrip(outside, ())), 0)


case_x()  # the unplanted step succeeds
strong.right_mult_transposition = lambda w, i, j: right_mult_transposition(w, i, j) * simple_reflection(w.n, 0)
print("square", raised(InvalidStrip, case_x))
strong.right_mult_transposition = right_mult_transposition


inside, outside = W(4, [1, 8, -2, 3]), W(4, [2, 8, -3, 3])
ra_pair = InitialPair(WeakStrip(inside, frozenset({1}), outside), StrongStrip(inside, ()))
ra_cover = MarkedStrongCover(W(4, [4, 6, -3, 3]), -2, 1, outside, 0)
reverse_insert(ra_pair, ra_cover, 0)  # the unplanted step succeeds
strong.right_mult_transposition = lambda w, i, j: right_mult_transposition(w, i, j) * simple_reflection(w.n, 0)
print("reverse square", raised(NotACover, lambda: reverse_insert(ra_pair, ra_cover, 0)))
strong.right_mult_transposition = right_mult_transposition

e, s0 = identity(3), simple_reflection(3, 0)
print("strip product", raised(InvalidStrip, lambda: WeakStrip(e, frozenset({0}), e)))
print("strip length", raised(InvalidStrip, lambda: WeakStrip(s0, frozenset({0}), e)))
t02 = right_mult_transposition(e, 0, 2)
print("cover straddle", raised(NotACover, lambda: MarkedStrongCover(e, 1, 2, right_mult_transposition(e, 1, 2), 0)))
print("cover interval", raised(NotACover, lambda: MarkedStrongCover(e, 0, 2, t02, 0)))
print("cover square", raised(NotACover, lambda: MarkedStrongCover(e, 0, 1, t02, 0)))
print("derived cover straddle", raised(NotACover, lambda: MarkedStrongCover(None, 1, 2, t02, 0)))
print("derived cover interval", raised(NotACover, lambda: MarkedStrongCover(None, 0, 1, e, 0)))

a_one = InitialTriple(WeakStrip(e, frozenset(), e), StrongStrip(e, (MarkedStrongCover(e, 0, 1, None, 0),)), 0)
internal_insert = localrule.internal_insert
phi(a_one, 0)  # the unplanted run succeeds
for label, tag in (("markmove", CaseTag.C), ("commutation", CaseTag.B)):
    localrule.internal_insert = lambda pair, cover, l: (internal_insert(pair, cover, l)[0], tag)
    print(label, raised(InvalidPair, lambda: phi(a_one, 0)))
localrule.internal_insert = internal_insert
"""


def test_checks_survive_python_O():
    env = dict(os.environ)
    src = str(Path(localrule.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECKS], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "square True",
        "reverse square True",
        "strip product True",
        "strip length True",
        "cover straddle True",
        "cover interval True",
        "cover square True",
        "derived cover straddle True",
        "derived cover interval True",
        "markmove True",
        "commutation True",
        "",
    ]
