"""
Cyclically decreasing elements, weak strips, and weak tableaux.

A proper subset A of Z/nZ determines the cyclically decreasing element
c_A; a weak strip from w is an interval w -> c_A * w in left weak order
with additive length.  The A-nice / A-bad calculus gives the window of
c_A and an O(n) strip test; enumeration goes by brute force over subsets
with a length check, and the two routes are compared in the test suite.
The dual strips w -> c~_A * w, c~_A the cyclically increasing element,
have no type of their own: the Dynkin flip maps them to weak strips
(symfunc.pieri_checks reads them so).
"""

from __future__ import annotations

import itertools

from functools import lru_cache

from .affperm import MEMO_SIZE, AffinePermutation, identity, simple_reflection
from .chains import StripChain, walk_chains
from .record import Record

__all__ = [
    "FullSet",
    "InvalidStrip",
    "normalize_residues",
    "cyclically_decreasing",
    "is_nice",
    "is_bad",
    "step_to",
    "WeakStrip",
    "weak_strips_from",
    "WeakTableau",
    "weak_tableaux",
    "count_weak_tableaux",
    "weak_weight_table",
    "count_standard_weak",
]


class FullSet(ValueError):
    """The residue subset must be proper."""


class InvalidStrip(ValueError):
    """Claimed strip fails the weak-order length condition."""


class _AllResidues(dict):
    """_ALL_RESIDUES[n] is Z/nZ as the frozenset {0, ..., n - 1}, made at the
    first use of rank n: one constant per rank, not a memo of results."""

    def __missing__(self, n: int) -> frozenset[int]:
        self[n] = out = frozenset(range(n))
        return out


_ALL_RESIDUES = _AllResidues()


def normalize_residues(n: int, members) -> frozenset[int]:
    """The residues of members mod n, a proper subset of Z/nZ (else FullSet); a
    frozenset that is already a proper subset of {0, ..., n - 1} is returned
    as it is, after one subset test."""
    if members.__class__ is frozenset and members < _ALL_RESIDUES[n]:
        return members
    out = frozenset(a % n for a in members)
    if len(out) >= n:
        raise FullSet(f"residue set must be a proper subset of Z/{n}Z")
    return out


def is_nice(n: int, a_set: frozenset[int], x: int) -> bool:
    return (x - 1) % n not in a_set


def is_bad(n: int, a_set: frozenset[int], x: int) -> bool:
    return x % n not in a_set


def step_to(n: int, a_set: frozenset[int], x: int, pred, step: int = 1) -> int:
    """The first x + k*step, k >= 1, with pred(n, a_set, .) true.

    A proper residue set leaves both nice and bad integers in every run of
    n consecutive integers, so at most n steps are taken.
    """
    for k in range(1, n + 1):
        if pred(n, a_set, x + k * step):
            return x + k * step
    raise FullSet(f"residue set {sorted(a_set)} admits no integer passing {pred.__name__}")


@lru_cache(maxsize=MEMO_SIZE)
def _cA_runs(n: int, a_set: frozenset[int]) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The closed form of c_A, read off the maximal cyclic runs of A; memoised.

    Returns the runs (s, k), s its lowest residue and k its length, and the
    table of c_A(i) - i by the residue of i: k at s, whose next A-nice
    integer is s + k + 1; -1 at s + 1, ..., s + k, which are not A-nice; and
    0 at every other residue, where i and i + 1 are both A-nice.
    """
    runs = []
    shifts = [0] * n
    for a in a_set:
        if (a - 1) % n not in a_set:
            k = 1
            while (a + k) % n in a_set:  # ends: A is proper
                k += 1
            runs.append((a, k))
            shifts[a] = k
        shifts[(a + 1) % n] = -1
    return tuple(runs), tuple(shifts)


def cyclically_decreasing(n: int, members) -> AffinePermutation:
    """c_A = product over cyclic components [a,b] of s_b s_{b-1} ... s_a.

    The window comes from the closed form of _cA_runs, one shift per residue.
    """
    a_set = normalize_residues(n, members)
    shifts = _cA_runs(n, a_set)[1]
    return AffinePermutation(n, [i + shifts[i % n] for i in range(1, n + 1)])


class WeakStrip(Record):
    """Interval w -> v = c_A * w in left weak order with ell(v) = ell(w) + |A|."""

    __slots__ = _fields = ("inside", "residues", "outside")

    def __init__(self, inside: AffinePermutation, residues: frozenset[int], outside: AffinePermutation):
        n = inside.n
        a_set = normalize_residues(n, residues)
        if outside.n != n:
            raise InvalidStrip("inside and outside rank differ")
        if not _is_weak_strip(inside, a_set, outside):
            raise InvalidStrip(f"{inside} -> {outside} is not a weak strip for A={sorted(a_set)}")
        self._set_inside(self, inside)
        self._set_residues(self, a_set)
        self._set_outside(self, outside)

    @property
    def size(self) -> int:
        return len(self.residues)

    def __repr__(self):
        return f"WeakStrip({self.inside} --{sorted(self.residues)}--> {self.outside})"


def _is_weak_strip(w: AffinePermutation, a_set: frozenset[int], v: AffinePermutation) -> bool:
    """oracles.weak_strip_is_valid on a residue set already normalized.  The
    positions of a run's members come off w's inverse index, fetched once."""
    n, win = w.n, w.window
    if not a_set:  # c_A = e
        return v.window == win
    runs, shifts = _cA_runs(n, a_set)
    if v.window != tuple([x + shifts[x % n] for x in win]):
        return False
    idx = w.inverse_index()
    for s, k in runs:
        # position_of(x) - 1, read off the index
        j = idx[s]
        p = j + (s - win[j]) // n * n
        for x in range(s + 1, s + k + 1):
            j = idx[x % n]
            if j + (x - win[j]) // n * n <= p:
                return False
    return True


@lru_cache(maxsize=MEMO_SIZE)
def weak_strips_from(w: AffinePermutation, r: int) -> tuple[WeakStrip, ...]:
    """All weak strips of size r with the given inside, by brute force over the
    r-subsets A of Z/nZ with a length check (r = 0 gives A = {} and c_A = e);
    memoised per (w, r)."""
    n = w.n
    if not 0 <= r <= n - 1:
        return ()
    return tuple(
        WeakStrip(w, a_set, v)
        for a_set in map(frozenset, itertools.combinations(range(n), r))
        if (v := cyclically_decreasing(n, a_set) * w).length == w.length + r
    )


class WeakTableau(StripChain):
    """Chain of weak strips; stored trimmed of trailing empty strips."""

    __slots__ = ()
    order = "weak"
    invalid = InvalidStrip


def weak_tableaux(inside: AffinePermutation, outside: AffinePermutation) -> list[WeakTableau]:
    """All weak tableaux from inside to outside with positive strip sizes.

    Weight compositions containing zeros correspond bijectively to these by
    deleting trivial strips, so enumeration is restricted to positive sizes.
    """
    return list(walk_chains(WeakTableau, weak_strips_from, inside, outside))


def count_weak_tableaux(inside: AffinePermutation, outside: AffinePermutation, weight) -> int:
    """Number of weak tableaux with the given weight composition.

    Zero parts are allowed (they force trivial strips) and are dropped.
    """
    return weak_weight_table(inside, outside).get(tuple(r for r in weight if r != 0), 0)


def weak_weight_table(inside: AffinePermutation, outside: AffinePermutation) -> dict:
    """Weak tableau counts per positive weight composition; the memo's own dict."""
    # A chain of strips c_A from v to u, moved right by v^-1, is one from e to x = u v^-1
    # with the same A: lengths add along the first iff ell(u) = ell(x) + ell(v) and they
    # add along the second, as prefixes of a length-additive product are length-additive.
    x = outside * inside.inverse()
    return _weak_table(x) if x.length == outside.length - inside.length else {}


@lru_cache(maxsize=MEMO_SIZE)
def _weak_table(x: AffinePermutation) -> dict:
    """Weak tableau counts of shape x/e, from the tables of x c_A^-1 over the first strips
    e -> c_A; one whose length is not ell(x) - |A| lies on no tableau and is dropped."""
    table: dict = {} if x.length else {(): 1}
    for r in range(1, min(x.n - 1, x.length) + 1):
        for strip in weak_strips_from(identity(x.n), r):
            y = x * strip.outside.inverse()
            if y.length == x.length - r:
                for comp, c in _weak_table(y).items():
                    key = (r,) + comp
                    table[key] = table.get(key, 0) + c
    return table


@lru_cache(maxsize=MEMO_SIZE)
def count_standard_weak(w: AffinePermutation) -> int:
    """Number of standard weak tableaux of shape w, i.e. reduced words of w."""
    if w.is_identity:
        return 1
    total = 0
    for r in range(w.n):
        if w.has_left_descent(r):
            total += count_standard_weak(simple_reflection(w.n, r) * w)
    return total


def weak_order_lower(v: AffinePermutation) -> set[AffinePermutation]:
    """All w with w <= v in left weak order, by stripping left descents."""
    seen = {v}
    frontier = [v]
    while frontier:
        cur = frontier.pop()
        for r in range(cur.n):
            if cur.has_left_descent(r):
                w = simple_reflection(cur.n, r) * cur
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
    return seen


def weak_order_upper(u: AffinePermutation, max_extra: int) -> set[AffinePermutation]:
    """All z with u <= z in left weak order and ell(z) <= ell(u) + max_extra."""
    seen = {u}
    frontier = [(u, 0)]
    while frontier:
        cur, d = frontier.pop()
        if d == max_extra:
            continue
        for r in range(cur.n):
            if not cur.has_left_descent(r):
                z = simple_reflection(cur.n, r) * cur
                if z not in seen:
                    seen.add(z)
                    frontier.append((z, d + 1))
    return seen
