"""The strip-chain layer shared by strong and weak tableaux."""

from collections import Counter

import pytest

from affine_insertion import chains
from affine_insertion.affperm import elements_by_length, identity
from affine_insertion.cores import grassmannians_by_length
from affine_insertion.strong import (
    InvalidStrongStrip,
    StrongStrip,
    StrongTableau,
    count_strong_tableaux,
    strong_strips_from,
    strong_tableaux,
)
from affine_insertion.symfunc import compositions
from affine_insertion.weak import (
    InvalidStrip,
    WeakStrip,
    WeakTableau,
    count_weak_tableaux,
    weak_strips_from,
    weak_tableaux,
)

# side -> (enumerate tableaux of shape v/u, count those of weight comp)
SIDES = {
    "strong l=0": (lambda u, v: strong_tableaux(u, v, 0), lambda u, v, c: count_strong_tableaux(u, v, c, 0)),
    "strong l=1": (lambda u, v: strong_tableaux(u, v, 1), lambda u, v, c: count_strong_tableaux(u, v, c, 1)),
    "weak": (weak_tableaux, count_weak_tableaux),
}


@pytest.mark.parametrize("n, max_len", [(3, 5), (4, 4)])
@pytest.mark.parametrize("side", SIDES)
def test_counts_match_enumerated_weights(side, n, max_len):
    tableaux, count = SIDES[side]
    elements = [w for level in elements_by_length(n, max_len) for w in level]
    for inside in elements:
        for outside in elements:
            weights = Counter(t.weight() for t in tableaux(inside, outside))
            gap = outside.length - inside.length
            counted = {c: k for c in (compositions(gap) if gap >= 0 else ()) if (k := count(inside, outside, c))}
            assert counted == dict(weights), (inside, outside)


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


def test_repeated_counts_add_no_cache_entries():
    # each order passes one module-level enumerator, so a repeated count is all hits
    e, u = identity(4), grassmannians_by_length(4, 3)[0]
    count_strong_tableaux(e, u, (1, 2), 0)
    count_weak_tableaux(e, u, (2, 1))
    size = chains._count.cache_info().currsize
    assert count_strong_tableaux(e, u, (1, 2), 0) == count_strong_tableaux(e, u, (0, 1, 2), 0)
    assert count_weak_tableaux(e, u, (2, 1)) == count_weak_tableaux(e, u, (2, 0, 1))
    assert chains._count.cache_info().currsize == size
