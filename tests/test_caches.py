"""The package's memos: cached enumerators agree with their bodies, every
memo is registered with clear_caches, and a k-Schur expansion computes each
neighbourhood once."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import affine_insertion
from affine_insertion import affperm, clear_caches
from affine_insertion.affperm import elements_by_length
from affine_insertion.chains import weight_table
from affine_insertion.cores import core_of, grassmannians_by_length
from affine_insertion.strong import count_standard_strong, marked_covers_above, strong_strips_from
from affine_insertion.symfunc import count_matrices, k_schur, pieri_checks
from affine_insertion.weak import count_standard_weak, dual_weak_strips_from, weak_strips_from

DIGESTS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "kschur_digests.json"


@pytest.mark.parametrize("n", [3, 4])
def test_cached_enumerators_equal_their_bodies(n):
    for w in (w for level in elements_by_length(n, 4) for w in level):
        for l in range(n):
            cases = [(marked_covers_above, (w, l))]
            cases += [(strong_strips_from, (w, r, l)) for r in range(-1, n + 2)]
            if l == 0:
                cases += [(enum, (w, r)) for enum in (weak_strips_from, dual_weak_strips_from) for r in range(-1, n + 1)]
            for enum, args in cases:
                got = enum(*args)
                assert type(got) is tuple, enum.__name__
                assert got == enum.__wrapped__(*args), (enum.__name__, args)
                assert enum(*args) is got  # a second call is served by the memo


@pytest.mark.parametrize("n", [3, 4])
def test_core_of_memo_equals_its_body(n):
    clear_caches()
    elements = [w for level in elements_by_length(n, 6) for w in level]
    for w in elements:
        got = core_of(w)
        assert got == core_of.__wrapped__(w), w
        assert core_of(w) is got  # a second call is served by the memo
    assert core_of.cache_info().currsize == len(elements)
    clear_caches()
    assert core_of.cache_info().currsize == 0


def _package_memos():
    found = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "affine_insertion" or name.startswith("affine_insertion."):
            for value in vars(mod).values():
                if hasattr(value, "cache_info"):
                    found[id(value)] = value
    return list(found.values())


def test_clear_caches_empties_every_memo():
    memos = _package_memos()
    # a memo that clear_caches does not know of fails here
    assert {id(m) for m in memos} == {id(m) for m in affine_insertion._CACHES}
    w = elements_by_length(3, 3)[3][0]
    k_schur((2, 1), 3)
    pieri_checks(3, 0, grassmannians_by_length(3, 2)[0], 1)
    count_matrices((2, 1), (1, 1, 1))
    count_standard_strong(w, 0)
    count_standard_weak(w)
    core_of(w)
    assert all(m.cache_info().currsize > 0 for m in memos), [m.__name__ for m in memos if not m.cache_info().currsize]
    assert affperm._length_cache
    clear_caches()
    assert [m.__name__ for m in memos if m.cache_info().currsize] == []
    assert not affperm._length_cache


def test_kschur_computes_each_neighbourhood_once():
    clear_caches()
    b = (3, 3, 2, 2, 1)
    terms = sorted([list(lam), c] for lam, c in k_schur(b, 4).coeffs.items())
    for memo in (marked_covers_above, strong_strips_from, weight_table):
        info = memo.cache_info()
        assert info.misses == info.currsize, memo.__name__  # nothing computed twice, nothing evicted
    # one table per shape asks each strip neighbourhood once; covers and tables are shared
    assert strong_strips_from.cache_info().hits == 0
    assert marked_covers_above.cache_info().hits > 0 and weight_table.cache_info().hits > 0
    digest = hashlib.sha256(json.dumps(terms, separators=(",", ":")).encode()).hexdigest()
    assert digest == json.loads(DIGESTS_PATH.read_text())["plain n=4 [3, 3, 2, 2, 1]"]
