"""JSON roundtrip property: every serialized type comes back unchanged."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from affine_insertion.affperm import elements_by_length, identity
from affine_insertion.serialize import (
    dumps,
    pair_from_json,
    pair_to_json,
    strong_strip_from_json,
    strong_strip_to_json,
    strong_tableau_from_json,
    strong_tableau_to_json,
    weak_strip_from_json,
    weak_strip_to_json,
    weak_tableau_from_json,
    weak_tableau_to_json,
)
from affine_insertion.strong import StrongTableau, strong_strips_from
from affine_insertion.weak import weak_strips_from, weak_tableaux


def _through_text(doc):
    """The document as a reader gets it back from its JSON text."""
    return json.loads(dumps(doc))


@st.composite
def _cases(draw):
    """(n, l, element of length <= 3, strip size)."""
    n = draw(st.integers(2, 5))
    l = draw(st.integers(0, n - 1))
    w = draw(st.sampled_from([w for level in elements_by_length(n, 3) for w in level]))
    return n, l, w, draw(st.integers(0, n))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_cases(), st.randoms(use_true_random=False))
def test_every_serialized_type_survives_a_json_roundtrip(case, rnd):
    n, l, w, r = case
    for s in strong_strips_from(w, r, l):
        assert strong_strip_from_json(_through_text(strong_strip_to_json(s)), n, l) == s
    for s in weak_strips_from(w, r):
        assert weak_strip_from_json(_through_text(weak_strip_to_json(s)), n) == s
    # a strong tableau of up to three random strips from the identity, then a
    # weak tableau of the same shape (every element has one)
    e = identity(n)
    strips, cur = [], e
    for size in (rnd.randint(1, 2) for _ in range(rnd.randint(1, 3))):
        if choices := strong_strips_from(cur, size, l):
            strips.append(rnd.choice(choices))
            cur = strips[-1].outside
    p = StrongTableau(e, tuple(strips))
    q = rnd.choice(weak_tableaux(e, p.outside))
    assert strong_tableau_from_json(_through_text(strong_tableau_to_json(p)), n, l) == p
    assert weak_tableau_from_json(_through_text(weak_tableau_to_json(q)), n) == q
    doc = pair_to_json(p, q, n, l)
    assert pair_from_json(_through_text(doc)) == (p, q, n, l)
    assert pair_to_json(*pair_from_json(doc)[:2], n, l) == doc
