"""The strip-chain layer shared by strong and weak tableaux."""

from collections import Counter

import pytest

from affine_insertion import chains, clear_caches, weak
from affine_insertion.affperm import AffinePermutation, elements_by_length, identity
from affine_insertion.cores import grassmannians_by_length
from affine_insertion.strong import (
    InvalidStrongStrip,
    StrongStrip,
    StrongTableau,
    count_strong_tableaux,
    strong_strip_outsides,
    strong_strips_from,
    strong_tableaux,
    strong_weight_table,
)
from affine_insertion.symfunc import compositions, strong_weight_function, weak_weight_function
from affine_insertion.weak import (
    InvalidStrip,
    WeakStrip,
    WeakTableau,
    count_weak_tableaux,
    weak_strips_from,
    weak_tableaux,
    weak_weight_table,
)

# side -> (enumerate tableaux of shape v/u, count those of weight comp, weight function of v/u)
SIDES = {
    "strong l=0": (
        lambda u, v: strong_tableaux(u, v, 0),
        lambda u, v, c: count_strong_tableaux(u, v, c, 0),
        lambda u, v: strong_weight_function(v, u, 0),
    ),
    "strong l=1": (
        lambda u, v: strong_tableaux(u, v, 1),
        lambda u, v, c: count_strong_tableaux(u, v, c, 1),
        lambda u, v: strong_weight_function(v, u, 1),
    ),
    "weak": (weak_tableaux, count_weak_tableaux, lambda u, v: weak_weight_function(v, u)),
}


@pytest.mark.parametrize("n, max_len", [(3, 6), (4, 5)])
def test_outsides_count_the_enumerated_strips(n, max_len):
    # the mark DP against the strips themselves, grouped by outside
    for w in (w for level in elements_by_length(n, max_len) for w in level):
        for r in range(n + 1):
            for l in range(-1, n + 1):
                got = strong_strip_outsides(w, r, l)
                assert len({o for o, _ in got}) == len(got)
                assert dict(got) == Counter(s.outside for s in strong_strips_from(w, r, l)), (w, r, l)


def test_weak_tables_are_keyed_by_one_element():
    # v -> u has weak tableaux only when ell(u v^-1) = ell(u) - ell(v), and then it
    # shares the table of u v^-1 over the identity; the memo holds one table per element
    clear_caches()
    e = identity(3)
    elements = [w for level in elements_by_length(3, 5) for w in level]
    for v in elements:
        for u in elements:
            x = u * v.inverse()
            if x.length == u.length - v.length:
                assert weak_weight_table(v, u) is weak_weight_table(e, x), (v, u)
            else:
                assert weak_weight_table(v, u) == {}, (v, u)
    assert 0 < weak._weak_table.cache_info().currsize <= len(elements)


@pytest.mark.parametrize("n, max_len", [(3, 5), (4, 4)])
@pytest.mark.parametrize("side", SIDES)
def test_counts_match_enumerated_weights(side, n, max_len):
    tableaux, count, weight_function = SIDES[side]
    elements = [w for level in elements_by_length(n, max_len) for w in level]
    for inside in elements:
        for outside in elements:
            weights = Counter(t.weight() for t in tableaux(inside, outside))
            gap = outside.length - inside.length
            counted = {c: k for c in (compositions(gap) if gap >= 0 else ()) if (k := count(inside, outside, c))}
            assert counted == dict(weights), (inside, outside)
            # the whole table, keyed in lexicographic order (that of compositions)
            assert list(weight_function(inside, outside).coeffs.items()) == sorted(weights.items()), (inside, outside)


# per side, a shape at n = 4 whose memoised table is not in lexicographic key order
UNSORTED_TABLES = {
    "strong l=0": ([2, 1, 3, 4], [-3, 0, 6, 7], lambda u, v: strong_weight_table(u, v, 0)),
    "strong l=1": ([1, 3, 2, 4], [4, -2, 1, 7], lambda u, v: strong_weight_table(u, v, 1)),
    "weak": ([1, 2, 3, 4], [2, 0, 1, 7], weak_weight_table),
}


@pytest.mark.parametrize("side", SIDES)
def test_weight_function_is_a_fresh_sorted_copy_of_the_table(side):
    tableaux, _, weight_function = SIDES[side]
    *windows, table = UNSORTED_TABLES[side]
    inside, outside = (AffinePermutation(4, w) for w in windows)
    assert list(table(inside, outside)) != sorted(table(inside, outside))
    expected = sorted(Counter(t.weight() for t in tableaux(inside, outside)).items())
    first = weight_function(inside, outside)
    assert list(first.coeffs.items()) == expected
    first.coeffs.clear()
    first.coeffs[(99,)] = 1
    assert list(weight_function(inside, outside).coeffs.items()) == expected


def _strip(tableau, w):
    """A strip of size 1 from w in the order of the tableau type."""
    return strong_strips_from(w, 1, 0)[0] if tableau is StrongTableau else weak_strips_from(w, 1)[0]


@pytest.mark.parametrize("tableau, error, other", [
    (StrongTableau, InvalidStrongStrip, InvalidStrip),
    (WeakTableau, InvalidStrip, InvalidStrongStrip),
])
def test_broken_chain_raises_the_orders_own_error(tableau, error, other):
    e = identity(3)
    strip = _strip(tableau, e)
    for inside, strips in [(strip.outside, (strip,)), (e, (strip, strip))]:
        with pytest.raises(error, match="do not chain") as caught:
            tableau(inside, strips)
        assert not isinstance(caught.value, other)


def test_trailing_empty_strips_are_trimmed_and_types_stay_apart():
    e = identity(3)
    for tableau, empty in [
        (StrongTableau, lambda w: StrongStrip(w, ())),
        (WeakTableau, lambda w: WeakStrip(w, frozenset(), w)),
    ]:
        strip = _strip(tableau, e)
        t = tableau(e, (empty(e), strip, empty(strip.outside), empty(strip.outside)))
        assert t == tableau(e, (empty(e), strip)) and t.weight() == (0, 1)
        assert t.outside == strip.outside and repr(t).startswith(tableau.__name__ + "(inside=")
    assert StrongTableau(e, ()) != WeakTableau(e, ())


def test_impossible_weights_count_zero():
    # negative parts, weak parts of n or more and wrong totals are no key of any table
    e, u = identity(4), grassmannians_by_length(4, 3)[0]
    for count in (lambda c: count_strong_tableaux(e, u, c, 0), lambda c: count_weak_tableaux(e, u, c)):
        assert count((1, 1, 1)) > 0 and count((0, 1, 0, 1, 1)) == count((1, 1, 1))
        assert [count(c) for c in [(3, 1, -1), (2, -1, 2), (2,), (1, 1, 1, 1), (-3,)]] == [0] * 5
    # a strip of size 4 exists in the strong order only
    top = AffinePermutation(4, [-1, 1, 2, 8])
    assert count_strong_tableaux(e, top, (4,), 0) == 1 and count_weak_tableaux(e, top, (4,)) == 0


def test_repeated_counts_add_no_cache_entries():
    # each order passes one module-level enumerator, so a repeated count is all hits,
    # and the weight functions read the tables the counts built
    clear_caches()
    e, u = identity(4), grassmannians_by_length(4, 3)[0]
    count_strong_tableaux(e, u, (1, 2), 0)
    count_weak_tableaux(e, u, (2, 1))
    size = chains.weight_table.cache_info().currsize, weak._weak_table.cache_info().currsize
    assert count_strong_tableaux(e, u, (1, 2), 0) == count_strong_tableaux(e, u, (0, 1, 2), 0)
    assert count_weak_tableaux(e, u, (2, 1)) == count_weak_tableaux(e, u, (2, 0, 1))
    assert strong_weight_function(u, e, 0)[(1, 2)] == count_strong_tableaux(e, u, (1, 2), 0)
    assert weak_weight_function(u, e)[(2, 1)] == count_weak_tableaux(e, u, (2, 1))
    assert (chains.weight_table.cache_info().currsize, weak._weak_table.cache_info().currsize) == size
