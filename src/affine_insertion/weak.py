"""
Cyclically decreasing elements, weak strips, and weak tableaux.

A proper subset A of Z/nZ determines the cyclically decreasing element
c_A; a weak strip from w is an interval w -> c_A * w in left weak order
with additive length.  The A-nice / A-bad calculus gives the window of
c_A and an O(n) strip test; enumeration goes by brute force over subsets
with a length check, and the two routes are compared in the test suite.
"""

from __future__ import annotations

import itertools

from dataclasses import dataclass
from functools import lru_cache

from .affperm import MEMO_SIZE, AffinePermutation, identity, parse_ints, simple_reflection
from .chains import StripChain, walk_chains

__all__ = [
    "FullSet",
    "InvalidStrip",
    "normalize_residues",
    "cyclic_components",
    "cyclically_decreasing",
    "cyclically_increasing",
    "is_nice",
    "is_bad",
    "step_to",
    "apply_cA",
    "WeakStrip",
    "DualWeakStrip",
    "weak_strip_between",
    "weak_strip_is_valid",
    "weak_strip_length_check",
    "weak_strips_from",
    "dual_weak_strips_from",
    "WeakTableau",
    "weak_tableaux",
    "count_weak_tableaux",
    "weak_weight_table",
    "count_standard_weak",
    "parse_residue_set",
    "format_residue_set",
]


class FullSet(ValueError):
    """The residue subset must be proper."""


class InvalidStrip(ValueError):
    """Claimed strip fails the weak-order length condition."""


def normalize_residues(n: int, members) -> frozenset[int]:
    """The residues of members mod n, a proper subset of Z/nZ (else FullSet); a
    frozenset already inside [0, n) is returned as it is, after a min/max check."""
    if isinstance(members, frozenset) and (not members or (0 <= min(members) and max(members) < n)):
        out = members
    else:
        out = frozenset(a % n for a in members)
    if len(out) >= n:
        raise FullSet(f"residue set must be a proper subset of Z/{n}Z")
    return out


def cyclic_components(n: int, members) -> list[tuple[int, int]]:
    """Maximal cyclic intervals [a, b] of A, ordered by smallest member.

    >>> cyclic_components(10, {0, 1, 3, 4, 6, 9})
    [(9, 1), (3, 4), (6, 6)]
    """
    a_set = normalize_residues(n, members)
    comps = []
    for start in sorted(a_set):
        if (start - 1) % n in a_set:
            continue  # not the low end of its interval
        end = start
        while (end + 1) % n in a_set:
            end = (end + 1) % n
        comps.append((start, end))
    # an interval that wraps past n - 1 holds 0, its smallest member
    comps.sort(key=lambda c: 0 if c[0] > c[1] else c[0])
    return comps


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


def apply_cA(n: int, members, i: int) -> int:
    """Evaluate c_A at i by the closed form, without building the product.

    If i is A-nice the value is j - 1 for the next A-nice j > i;
    otherwise it is i - 1.
    """
    a_set = normalize_residues(n, members)
    return i + _cA_runs(n, a_set)[1][i % n]


def cyclically_decreasing(n: int, members) -> AffinePermutation:
    """c_A = product over cyclic components [a,b] of s_b s_{b-1} ... s_a.

    The window comes from the closed form of apply_cA, one shift per residue.
    """
    a_set = normalize_residues(n, members)
    shifts = _cA_runs(n, a_set)[1]
    return AffinePermutation(n, [i + shifts[i % n] for i in range(1, n + 1)])


def cyclically_increasing(n: int, members) -> AffinePermutation:
    """Same product with each interval taken in increasing order.

    Components are separated by a missing residue, so their factors
    commute and the increasing product is the inverse of c_A.  Its window
    comes from the runs (s, k) of _cA_runs: c_A^{-1}(i) - i is +1 at
    s, ..., s + k - 1 (the members of A), -k at s + k and 0 elsewhere.
    """
    a_set = normalize_residues(n, members)
    shifts = [1 if a in a_set else 0 for a in range(n)]
    for s, k in _cA_runs(n, a_set)[0]:
        shifts[(s + k) % n] = -k
    return AffinePermutation(n, [i + shifts[i % n] for i in range(1, n + 1)])


@dataclass(frozen=True)
class WeakStrip:
    """Interval w -> v = c_A * w in left weak order with ell(v) = ell(w) + |A|."""

    inside: AffinePermutation
    residues: frozenset[int]
    outside: AffinePermutation

    def __post_init__(self):
        n = self.inside.n
        object.__setattr__(self, "residues", normalize_residues(n, self.residues))
        if self.outside.n != n:
            raise InvalidStrip("inside and outside rank differ")
        if not weak_strip_is_valid(self.inside, self.residues, self.outside):
            raise InvalidStrip(
                f"{self.inside} -> {self.outside} is not a weak strip for A={sorted(self.residues)}"
            )

    @property
    def size(self) -> int:
        return len(self.residues)

    def __repr__(self):
        return f"WeakStrip({self.inside} --{sorted(self.residues)}--> {self.outside})"


def weak_strip_is_valid(w: AffinePermutation, members, v: AffinePermutation) -> bool:
    """O(n) strip test: v = c_A w and, for every pair of consecutive A-nice
    integers a < b, the position of a under w precedes those of a+1..b-1.

    The first test compares v's window with the closed form of c_A applied
    to w's window, so no product is built.  Consecutive nice integers
    a < b with b > a + 1 are a run (s, k) of A: a = s and b = s + k + 1.
    """
    n = w.n
    a_set = normalize_residues(n, members)
    runs, shifts = _cA_runs(n, a_set)
    if v.window != tuple([x + shifts[x % n] for x in w.window]):
        return False
    pos = w.position_of
    return all(min(map(pos, range(s + 1, s + k + 1))) > pos(s) for s, k in runs)


def weak_strip_length_check(w: AffinePermutation, members, v: AffinePermutation) -> bool:
    """Independent strip test by explicit length additivity."""
    n = w.n
    a_set = normalize_residues(n, members)
    return cyclically_decreasing(n, a_set) * w == v and v.length == w.length + len(a_set)


def weak_strip_between(w: AffinePermutation, v: AffinePermutation) -> WeakStrip | None:
    """The weak strip from w to v if one exists, else None.  A strip has
    v = c_A * w, and a is in A exactly when c_A(a + 1) = a: so A is read off
    c = v * w^{-1}, and the strip test decides."""
    if v.n != w.n:
        return None
    c = v * w.inverse()
    members = frozenset(a for a, x in enumerate(c.window) if x == a)
    return WeakStrip(w, members, v) if weak_strip_is_valid(w, members, v) else None


def _strips_from(w: AffinePermutation, r: int, element, strip_class) -> tuple:
    """Brute force over all r-subsets A of Z/nZ: the strips w -> element(n, A) * w
    whose length is additive."""
    n = w.n
    if not 0 <= r <= n - 1:
        return ()
    if r == 0:
        return (strip_class(w, frozenset(), w),)
    out = []
    for combo in itertools.combinations(range(n), r):
        members = frozenset(combo)
        v = element(n, members) * w
        if v.length == w.length + r:
            out.append(strip_class(w, members, v))
    return tuple(out)


@lru_cache(maxsize=MEMO_SIZE)
def weak_strips_from(w: AffinePermutation, r: int) -> tuple[WeakStrip, ...]:
    """All weak strips of size r with the given inside; memoised per (w, r)."""
    return _strips_from(w, r, cyclically_decreasing, WeakStrip)


@dataclass(frozen=True)
class DualWeakStrip:
    """Interval w -> v with v * w^{-1} cyclically increasing, length-additive."""

    inside: AffinePermutation
    residues: frozenset[int]
    outside: AffinePermutation

    def __post_init__(self):
        n = self.inside.n
        object.__setattr__(self, "residues", normalize_residues(n, self.residues))
        ok = (
            cyclically_increasing(n, self.residues) * self.inside == self.outside
            and self.outside.length == self.inside.length + len(self.residues)
        )
        if not ok:
            raise InvalidStrip(f"{self.inside} -> {self.outside} is not a dual weak strip")

    @property
    def size(self) -> int:
        return len(self.residues)


@lru_cache(maxsize=MEMO_SIZE)
def dual_weak_strips_from(w: AffinePermutation, r: int) -> tuple[DualWeakStrip, ...]:
    """All dual weak strips of size r with the given inside; memoised per (w, r)."""
    return _strips_from(w, r, cyclically_increasing, DualWeakStrip)


@dataclass(frozen=True)
class WeakTableau(StripChain):
    """Chain of weak strips; stored trimmed of trailing empty strips."""

    order = "weak"
    invalid = InvalidStrip


def weak_tableaux(inside: AffinePermutation, outside: AffinePermutation) -> list[WeakTableau]:
    """All weak tableaux from inside to outside with positive strip sizes.

    Weight compositions containing zeros correspond bijectively to these by
    deleting trivial strips, so enumeration is restricted to positive sizes.
    """
    return list(walk_chains(WeakTableau, weak_strips_from, (), inside, outside, max_size=inside.n - 1))


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


def format_residue_set(n: int, members) -> str:
    return "{" + ",".join(str(a) for a in sorted(normalize_residues(n, members))) + "}"


def parse_residue_set(text: str, n: int) -> frozenset[int]:
    """Parse '{0,1,3}' (the grammar of parse_ints) with residues in [0, n)."""
    members = parse_ints(text, "{}")
    if any(not 0 <= a < n for a in members):
        raise ValueError(f"residues must lie in [0, {n}): {text!r}")
    return normalize_residues(n, members)
