"""
Reference code that the tests and demos compare the package against.

Each definition here is a second route to something the package computes
another way: a cover found from its two ends instead of from its
reflection, a weak strip read off a quotient or checked by length
additivity instead of by the nice/bad calculus, strips enumerated from
their outside, the commutation tests of the local rule as functions, the
inverse of classical RSK, the group action on partitions corner by corner
through a reduced word, and strong covers on cores described by their
ribbons, with the spin read off those ribbons.  The closed form of c_A at
one integer and the weak strip test on an unnormalized residue set are
here too: the package runs both inline.  No module of the package imports
this one, so `import affine_insertion` does not load it.
"""

from __future__ import annotations

from .affperm import AffinePermutation, canonical_reflection, reduced_word, right_mult_transposition
from .cores import cells, check_partition, offsets
from .insertion import BoundedMatrix
from .localrule import EndpointMismatch
from .record import Record
from .strong import MarkedStrongCover, NotACover, StrongStrip, is_cover_pair, marked_covers_below
from .weak import WeakStrip, _cA_runs, _is_weak_strip, cyclically_decreasing, normalize_residues

__all__ = [
    "reflection_of_cover",
    "is_strong_cover",
    "strong_strips_ending_at",
    "commutes_initial",
    "commutes_final",
    "cyclic_components",
    "cyclically_increasing",
    "apply_cA",
    "weak_strip_is_valid",
    "weak_strip_length_check",
    "weak_strip_between",
    "classical_unrsk",
    "contains",
    "addable_corners",
    "removable_corners",
    "apply_simple",
    "act_on_partition",
    "StrongCoverOnCores",
    "strong_cover_cores",
    "spin_of_marked_cover",
]


def reflection_of_cover(w: AffinePermutation, u: AffinePermutation) -> tuple[int, int] | None:
    """Positions (i, j), canonical 1 <= i <= n, with u = w * t_{ij}, if any."""
    n = w.n
    diff = [x for x in range(1, n + 1) if w.window[x - 1] != u.window[x - 1]]
    if len(diff) != 2:
        return None
    a, b = diff
    # u must move a translate of the other class's value into position a
    j = w.position_of(u(a))
    if (j - b) % n != 0:
        return None
    if right_mult_transposition(w, a, j) != u:
        return None
    return canonical_reflection(n, a, j)


def is_strong_cover(w: AffinePermutation, u: AffinePermutation) -> bool:
    """True iff u covers w in strong order (length check deferred to the
    interval criterion, which is equivalent and cheaper)."""
    if w.n != u.n:
        return False
    refl = reflection_of_cover(w, u)
    if refl is None:
        return False
    i, j = refl
    return is_cover_pair(w, i, j)


def strong_strips_ending_at(x: AffinePermutation, r: int, l: int) -> list[StrongStrip]:
    """All strong strips of size r with the given outside."""
    if r < 0:
        return []
    strips = [StrongStrip(x, ())]
    for _ in range(r):
        nxt = []
        for s in strips:
            ceil = s.first.mark if s.covers else None
            for c in marked_covers_below(s.inside, l):
                if ceil is None or c.mark < ceil:
                    nxt.append(s.prepended(c))
        strips = nxt
    return strips


def commutes_initial(weak: WeakStrip, cover: MarkedStrongCover) -> bool:
    """The initial pair (W, C) commutes iff v(i) < v(j) for v = outside(W)."""
    if weak.inside != cover.inside:
        raise EndpointMismatch("initial pair must share its inside element")
    v = weak.outside
    return v(cover.i) < v(cover.j)


def commutes_final(weak: WeakStrip, cover: MarkedStrongCover) -> bool:
    """The final pair (W', C') commutes iff u(a) > u(b) for u = inside(W')."""
    if weak.outside != cover.outside:
        raise EndpointMismatch("final pair must share its outside element")
    u = weak.inside
    return u(cover.i) > u(cover.j)


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


def cyclically_increasing(n: int, members) -> AffinePermutation:
    """The product of cyclically_decreasing with each interval taken in
    increasing order.

    Components are separated by a missing residue, so their factors
    commute and the increasing product is the inverse of c_A.  Its window
    comes from the runs (s, k) of weak._cA_runs: c_A^{-1}(i) - i is +1 at
    s, ..., s + k - 1 (the members of A), -k at s + k and 0 elsewhere.
    """
    a_set = normalize_residues(n, members)
    shifts = [1 if a in a_set else 0 for a in range(n)]
    for s, k in _cA_runs(n, a_set)[0]:
        shifts[(s + k) % n] = -k
    return AffinePermutation(n, [i + shifts[i % n] for i in range(1, n + 1)])


def apply_cA(n: int, members, i: int) -> int:
    """Evaluate c_A at i by the closed form, without building the product.

    If i is A-nice the value is j - 1 for the next A-nice j > i;
    otherwise it is i - 1.
    """
    a_set = normalize_residues(n, members)
    return i + _cA_runs(n, a_set)[1][i % n]


def weak_strip_is_valid(w: AffinePermutation, members, v: AffinePermutation) -> bool:
    """O(n) strip test: v = c_A w and, for every pair of consecutive A-nice
    integers a < b, the position of a under w precedes those of a+1..b-1.

    The first test compares v's window with the closed form of c_A applied
    to w's window, so no product is built.  Consecutive nice integers
    a < b with b > a + 1 are a run (s, k) of A: a = s and b = s + k + 1.
    WeakStrip's constructor runs the same test, weak._is_weak_strip.
    """
    return _is_weak_strip(w, normalize_residues(w.n, members), v)


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


def classical_unrsk(p_rows, q_rows) -> BoundedMatrix:
    """Inverse of insertion.classical_rsk, reading the recording tableau backwards."""
    p = [list(r) for r in p_rows]
    q = [list(r) for r in q_rows]
    # undo in reverse biword order: descending record, then rightmost cell
    cells = sorted(
        ((rec, r, c) for r, row in enumerate(q) for c, rec in enumerate(row)),
        key=lambda t: (t[0], t[2]),
    )
    entries: dict[tuple[int, int], int] = {}
    while cells:
        rec, r, c = cells.pop()
        if c != len(q[r]) - 1:
            raise ValueError(f"not a recording tableau: {q_rows}")
        q[r].pop()
        val = p[r].pop(c)
        for rr in range(r - 1, -1, -1):
            row = p[rr]
            k = max(idx for idx, entry in enumerate(row) if entry < val)
            row[k], val = val, row[k]
        entries[(rec, val)] = entries.get((rec, val), 0) + 1
    return BoundedMatrix(entries)


def contains(lam, mu) -> bool:
    mu = tuple(mu)
    lam = tuple(lam)
    return len(mu) <= len(lam) and all(m <= l for m, l in zip(mu, lam))


def addable_corners(lam) -> list[tuple[int, int]]:
    lam = tuple(lam)
    out = [(1, lam[0] + 1)] if lam else [(1, 1)]
    for i in range(2, len(lam) + 1):
        if lam[i - 2] > lam[i - 1]:
            out.append((i, lam[i - 1] + 1))
    if lam:
        out.append((len(lam) + 1, 1))
    return out


def removable_corners(lam) -> list[tuple[int, int]]:
    lam = tuple(lam)
    return [
        (i, lam[i - 1])
        for i in range(1, len(lam) + 1)
        if i == len(lam) or lam[i] < lam[i - 1]
    ]


def apply_simple(lam, r: int, n: int) -> tuple[int, ...]:
    """Simultaneously add all addable and remove all removable corners of
    residue r; this is the generator action on partitions."""
    lam = check_partition(lam)
    rows = list(lam) + [0]
    for i, j in addable_corners(lam):
        if (j - i) % n == r % n:
            while len(rows) < i:
                rows.append(0)
            rows[i - 1] += 1
    for i, j in removable_corners(lam):
        if (j - i) % n == r % n:
            rows[i - 1] -= 1
    return tuple(a for a in rows if a)


def act_on_partition(w: AffinePermutation, lam) -> tuple[int, ...]:
    """Action of a group element through any reduced word, right to left."""
    out = check_partition(lam)
    for r in reversed(reduced_word(w)):
        out = apply_simple(out, r, w.n)
    return out


class StrongCoverOnCores(Record):
    """Partition-side description of a strong cover mu -> lam = t_{r,s} mu.
    The components are cell lists, heads ascending."""

    __slots__ = _fields = ("inside", "outside", "r", "s", "components", "head_diagonals")

    def __init__(self, inside: tuple[int, ...], outside: tuple[int, ...], r: int, s: int,
                 components: tuple[tuple[tuple[int, int], ...], ...], head_diagonals: tuple[int, ...]):
        Record.__init__(self, inside, outside, r, s, components, head_diagonals)

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def ribbon_size(self) -> int:
        return self.s - self.r

    @property
    def ribbon_height(self) -> int:
        comp = self.components[0]
        return len({i for i, _ in comp})

    @property
    def mark_options(self) -> tuple[int, ...]:
        """Legal marks; the marked ribbon's head sits on diagonal mark - 1."""
        return tuple(d + 1 for d in self.head_diagonals)


def _skew_components(lam, mu) -> list[list[tuple[int, int]]]:
    comps = []
    remaining = set(cells(lam, mu))
    while remaining:
        seed = remaining.pop()
        comp = {seed}
        frontier = [seed]
        while frontier:
            i, j = frontier.pop()
            for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if nb in remaining:
                    remaining.remove(nb)
                    comp.add(nb)
                    frontier.append(nb)
        comps.append(sorted(comp))
    comps.sort(key=lambda comp: max(j - i for i, j in comp))
    return comps


def strong_cover_cores(mu, lam, n: int) -> StrongCoverOnCores:
    """Detect the cover mu -> lam between n-cores and describe it.

    The reflection comes from the offset sequences, the ribbons from the
    diagrams; the two views are cross-checked against each other.
    """
    mu = check_partition(mu)
    lam = check_partition(lam)
    d_mu, d_lam = offsets(mu, n), offsets(lam, n)
    if not contains(lam, mu) or d_mu == d_lam:
        raise NotACover(f"{mu} -> {lam} is not a strong cover of {n}-cores")
    diff = [i for i in range(1, n + 1) if d_mu[i - 1] != d_lam[i - 1]]
    if len(diff) != 2:
        raise NotACover(f"{mu} -> {lam} moves more than one reflection")

    def ext(d, x):  # extended offsets: D(x + n) = D(x) - 1
        q, r = divmod(x - 1, n)
        return d[r] - q

    found = None
    for a, b in ((diff[0], diff[1]), (diff[1], diff[0])):
        k = d_mu[b - 1] - d_lam[a - 1]
        s = b + k * n
        if s <= a:
            continue
        if ext(d_lam, s) != d_mu[a - 1]:
            continue
        if not (ext(d_mu, a) > ext(d_mu, s) and s - a < n):
            continue
        # cover criterion on offsets: no intermediate class lands between
        if any(ext(d_mu, s) <= ext(d_mu, i) <= ext(d_mu, a) for i in range(a + 1, s)):
            continue
        found = (a, s)
        break
    if found is None:
        raise NotACover(f"{mu} -> {lam} is not a single strong cover")
    r, s = found

    comps = _skew_components(lam, mu)
    heads = tuple(max(j - i for i, j in comp) for comp in comps)
    n_comp = ext(d_mu, r) - ext(d_mu, s)
    if len(comps) != n_comp:
        raise NotACover("component count disagrees with the offset picture")
    sizes = {len(c) for c in comps}
    if sizes != {s - r}:
        raise NotACover("ribbon sizes disagree with the reflection")
    if any((h - (s - 1)) % n for h in heads):
        raise NotACover("ribbon heads off the expected residue diagonal")
    if list(heads) != [heads[0] + c * n for c in range(len(heads))]:
        raise NotACover("ribbon heads not on consecutive diagonals")
    return StrongCoverOnCores(mu, lam, r, s, tuple(tuple(c) for c in comps), heads)


def spin_of_marked_cover(mu, lam, n: int, mark: int) -> int:
    """spin = (components)*(height - 1) + (index of marked ribbon from top - 1).

    The marked ribbon is the one whose head lies on diagonal mark - 1;
    ribbons are counted from the top, i.e. ascending head diagonal.  This
    reads the mark as a level-0 head diagonal: for a cover marked at
    l != 0 it can differ from MarkedStrongCover.spin, or find no ribbon
    head there and raise NotACover.
    """
    desc = strong_cover_cores(mu, lam, n)
    if mark - 1 not in desc.head_diagonals:
        raise NotACover(f"no ribbon head on diagonal {mark - 1}")
    position = desc.head_diagonals.index(mark - 1)
    return desc.n_components * (desc.ribbon_height - 1) + position
