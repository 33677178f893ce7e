"""The package's memos: cached enumerators agree with their bodies, every
memo is found by clear_caches and bounded by MEMO_SIZE, and a k-Schur
expansion computes each neighbourhood once."""

import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

import affine_insertion
import affine_insertion.cli  # noqa: F401  (loads the remaining submodules for _package_memos)
from affine_insertion import affperm, clear_caches
from affine_insertion.affperm import MEMO_SIZE, elements_by_length
from affine_insertion.chains import weight_table
from affine_insertion.cores import (
    NotACover,
    _spin_of_cover,
    core_of,
    grassmannians_by_length,
    spin_of_marked_cover,
)
from affine_insertion.strong import (
    count_standard_strong,
    marked_covers_above,
    strong_strip_outsides,
    strong_strips_from,
)
from affine_insertion.symfunc import count_matrices, k_schur, k_schur_spin, pieri_checks
from affine_insertion.weak import _cA_runs, count_standard_weak, dual_weak_strips_from, weak_strips_from

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


@pytest.mark.parametrize("n", [3, 4])
def test_cover_spin_memo_equals_its_body(n):
    clear_caches()
    covers = [
        (core_of(w), core_of(c.outside), n, c.mark)
        for d in range(5)
        for w in grassmannians_by_length(n, d)
        for c in marked_covers_above(w, 0)
        if c.outside.is_grassmannian(0)
    ]
    assert covers
    for args in covers:
        got = _spin_of_cover(*args)
        assert got == _spin_of_cover.__wrapped__(*args), args
        assert spin_of_marked_cover(*args) == got
    assert _spin_of_cover.cache_info().currsize == len(set(covers))


def test_cA_runs_memo_equals_its_body():
    for n in range(2, 7):
        for size in range(n):  # every proper subset of Z/nZ
            for members in itertools.combinations(range(n), size):
                a_set = frozenset(members)
                got = _cA_runs(n, a_set)
                assert type(got) is tuple and all(type(part) is tuple for part in got)
                runs, shifts = _cA_runs.__wrapped__(n, a_set)
                assert sorted(got[0]) == sorted(runs) and got[1] == shifts, (n, members)
                assert _cA_runs(n, a_set) is got  # a second call is served by the memo


def test_spin_of_marked_cover_takes_lists_and_caches_no_error():
    assert spin_of_marked_cover([2], [2, 1, 1], 3, 0) == spin_of_marked_cover((2,), (2, 1, 1), 3, 0) == 1
    for _ in range(2):  # the failure is raised again, not served from the memo
        with pytest.raises(NotACover):
            spin_of_marked_cover([1], [3, 1], 3, 0)


def _package_memos():
    found = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "affine_insertion" or name.startswith("affine_insertion."):
            for value in vars(mod).values():
                if hasattr(value, "cache_info"):
                    found[id(value)] = value
    return list(found.values())


MEMOS = {
    "affperm._length",
    "chains.weight_table",
    "cores._spin_of_cover",
    "cores.core_of",
    "cores.grassmannians_by_length",
    "strong.count_standard_strong",
    "strong.marked_covers_above",
    "strong.strong_strip_outsides",
    "strong.strong_strips_from",
    "symfunc.count_matrices",
    "weak._cA_runs",
    "weak._weak_table",
    "weak.count_standard_weak",
    "weak.dual_weak_strips_from",
    "weak.weak_strips_from",
}


def _name(memo):
    return memo.__module__.removeprefix("affine_insertion.") + "." + memo.__name__


def test_clear_caches_empties_every_memo():
    memos = _package_memos()
    # a memo added or lost, or one that clear_caches does not find, fails here
    assert {_name(m) for m in memos} == MEMOS
    assert {_name(m) for m in affine_insertion._CACHES} == MEMOS
    assert {m.cache_info().maxsize for m in memos} == {MEMO_SIZE}
    w = elements_by_length(3, 3)[3][0]
    k_schur((2, 1), 3)
    k_schur_spin((2, 1), 3)
    pieri_checks(3, 0, grassmannians_by_length(3, 2)[0], 1)
    count_matrices((2, 1), (1, 1, 1))
    count_standard_strong(w, 0)
    count_standard_weak(w)
    core_of(w)
    assert all(m.cache_info().currsize > 0 for m in memos), [m.__name__ for m in memos if not m.cache_info().currsize]
    assert affperm._length.cache_info().currsize > 0
    clear_caches()
    assert [m.__name__ for m in memos if m.cache_info().currsize] == []
    assert affperm._length.cache_info().currsize == 0


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


def test_kschur_counts_strips_by_outside_without_building_them():
    clear_caches()
    k_schur((3, 3, 2, 2, 1), 4)
    info = strong_strip_outsides.cache_info()
    assert info.hits == 0 and info.misses == info.currsize > 0  # one DP per (inside, r)
    assert strong_strips_from.cache_info().misses == 0
