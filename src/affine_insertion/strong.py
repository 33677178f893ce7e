"""
Strong (Bruhat) covers, marked covers, strong strips and strong tableaux.

A cover w -> w*t_{ij} raises length by one; the cover criterion is the
interval test on window values.  A marked cover additionally fixes a
straddling translate i <= l < j of the reflection and carries the mark
m(C) = w(j).  Distinct straddling translates of one reflection are
distinct marked covers; their number is the affine Chevalley multiplicity.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter

from .affperm import MEMO_SIZE, AffinePermutation, canonical_reflection, right_mult_transposition
from .chains import StripChain, walk_chains, weight_table

__all__ = [
    "NotACover",
    "InvalidStrongStrip",
    "is_cover_pair",
    "is_strong_cover",
    "reflection_of_cover",
    "MarkedStrongCover",
    "marked_covers_above",
    "marked_covers_below",
    "chevalley_multiplicity",
    "StrongStrip",
    "strong_strips_from",
    "strong_strip_outsides",
    "strong_strips_ending_at",
    "StrongTableau",
    "strong_tableaux",
    "count_strong_tableaux",
    "strong_weight_table",
    "count_standard_strong",
]


class NotACover(ValueError):
    """The given pair is not a strong cover."""


class InvalidStrongStrip(ValueError):
    """Cover chain is broken or marks fail to increase."""


def is_cover_pair(w: AffinePermutation, i: int, j: int) -> bool:
    """True iff w is covered by w*t_{ij}: w(i) < w(j) and no window value
    in between sits at a position strictly between i and j."""
    n, win = w.n, w.window
    if i >= j or (i - j) % n == 0:
        return False
    wi, wj = w(i), w(j)
    if wi >= wj:
        return False
    for k in range(i, j - 1):  # w(k + 1) for k + 1 in (i, j), off the stored window
        q, r = divmod(k, n)
        if wi <= win[r] + q * n <= wj:
            return False
    return True


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


@dataclass(frozen=True)
class MarkedStrongCover:
    """Strong cover w -> u = w*t_{ij} with a straddling translate i <= l < j.

    The mark m(C) = w(j) is stored once the checks pass.  It is a function
    of the other fields, so it takes no part in equality, hashing or the
    dataclass repr."""

    inside: AffinePermutation
    i: int
    j: int
    outside: AffinePermutation
    l: int
    mark: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w, i, j = self.inside, self.i, self.j
        if not i <= self.l < j:
            raise NotACover(f"({i},{j}) does not straddle l={self.l}")
        if not is_cover_pair(w, i, j):
            raise NotACover(f"{w} -({i},{j})-> is not a strong cover")
        if right_mult_transposition(w, i, j) != self.outside:
            raise NotACover("outside element does not match w * t_ij")
        object.__setattr__(self, "mark", w(j))

    def __repr__(self):
        return f"MarkedStrongCover({self.inside} --({self.i},{self.j})@{self.mark}--> {self.outside})"


def _cover_candidates(w: AffinePermutation, i: int, upward: bool):
    """Candidate partners j > i for a cover at position i, using the bound
    that a cover has either j - i < n or window values within distance n."""
    n = w.n
    cands = set(range(i + 1, i + n))
    wi = w(i)
    vals = range(wi + 1, wi + n) if upward else range(wi - n + 1, wi)
    for v in vals:
        j = w.position_of(v)
        if j > i and (j - i) % n != 0:
            cands.add(j)
    return cands


@lru_cache(maxsize=MEMO_SIZE)
def marked_covers_above(w: AffinePermutation, l: int) -> tuple[MarkedStrongCover, ...]:
    """Every marked strong cover with the given inside, sorted by (mark, i);
    memoised per (w, l)."""
    n = w.n
    covers = []
    for i in range(l - n + 1, l + 1):
        for j in _cover_candidates(w, i, upward=True):
            if not is_cover_pair(w, i, j):
                continue
            u = right_mult_transposition(w, i, j)
            # straddling translates (i + kn, j + kn): k in [floor((l-j)/n)+1, 0]
            for k in range((l - j) // n + 1, 1):
                covers.append(MarkedStrongCover(w, i + k * n, j + k * n, u, l))
    return tuple(sorted(covers, key=lambda c: (c.mark, c.i)))


def marked_covers_below(w: AffinePermutation, l: int) -> list[MarkedStrongCover]:
    """Every marked strong cover with the given outside, sorted by (mark, i)."""
    n = w.n
    covers = []
    for i in range(l - n + 1, l + 1):
        for j in _cover_candidates(w, i, upward=False):
            v = right_mult_transposition(w, i, j)
            if not is_cover_pair(v, i, j):
                continue
            for k in range((l - j) // n + 1, 1):
                covers.append(MarkedStrongCover(v, i + k * n, j + k * n, w, l))
    covers.sort(key=lambda c: (c.mark, c.i))
    return covers


def chevalley_multiplicity(w: AffinePermutation, u: AffinePermutation, l: int) -> int:
    """Number of straddling pairs (i, j) realizing the cover w -> u."""
    hits = sum(1 for c in marked_covers_above(w, l) if c.outside == u)
    if hits == 0:
        raise NotACover(f"{u} does not cover {w}")
    return hits


@dataclass(frozen=True)
class StrongStrip:
    """Chain of marked strong covers with strictly increasing marks.

    The constructor checks every junction of the chain; appended and
    prepended extend a strip that is already valid, so they check only the
    junction they add."""

    inside: AffinePermutation
    covers: tuple[MarkedStrongCover, ...]

    def __post_init__(self):
        covers = tuple(self.covers)
        object.__setattr__(self, "covers", covers)
        cur, floor = self.inside, None
        for c in covers:
            _check_junction(cur, floor, c)
            cur, floor = c.outside, c.mark

    @classmethod
    def _checked(cls, inside: AffinePermutation, covers: tuple) -> StrongStrip:
        """A strip whose every junction the caller has already checked."""
        strip = object.__new__(cls)
        object.__setattr__(strip, "inside", inside)
        object.__setattr__(strip, "covers", covers)
        return strip

    @property
    def outside(self) -> AffinePermutation:
        return self.covers[-1].outside if self.covers else self.inside

    @property
    def size(self) -> int:
        return len(self.covers)

    @property
    def first(self) -> MarkedStrongCover:
        return self.covers[0]

    @property
    def last(self) -> MarkedStrongCover:
        return self.covers[-1]

    def appended(self, cover: MarkedStrongCover) -> StrongStrip:
        _check_junction(self.outside, self.last.mark if self.covers else None, cover)
        return self._checked(self.inside, self.covers + (cover,))

    def prepended(self, cover: MarkedStrongCover) -> StrongStrip:
        if self.covers:
            _check_junction(cover.outside, cover.mark, self.first)
        elif cover.outside != self.inside:
            raise InvalidStrongStrip("covers do not chain")
        return self._checked(cover.inside, (cover,) + self.covers)

    def render(self) -> str:
        """Text form 'w --(i,j)@m--> u --(i',j')@m'--> x'."""
        parts = [str(self.inside)]
        for c in self.covers:
            parts.append(f"--({c.i},{c.j})@{c.mark}-->")
            parts.append(str(c.outside))
        return " ".join(parts)

    def __repr__(self):
        return f"StrongStrip({self.render()})"


def _check_junction(below: AffinePermutation, floor: int | None, cover: MarkedStrongCover) -> None:
    """One junction of a strong strip: the cover starts at the element below
    it and, after a cover with mark floor, carries a larger mark."""
    if cover.inside != below:
        raise InvalidStrongStrip("covers do not chain")
    if floor is not None and cover.mark <= floor:
        raise InvalidStrongStrip(f"marks not increasing: {floor} then {cover.mark}")


@lru_cache(maxsize=MEMO_SIZE)
def strong_strips_from(w: AffinePermutation, r: int, l: int) -> tuple[StrongStrip, ...]:
    """All strong strips of size r with the given inside; memoised per (w, r, l)."""
    if r < 0:
        return ()
    strips = [StrongStrip(w, ())]
    for _ in range(r):
        nxt = []
        for s in strips:
            floor = s.last.mark if s.covers else None
            for c in marked_covers_above(s.outside, l):
                if floor is None or c.mark > floor:
                    nxt.append(s.appended(c))
        strips = nxt
    return tuple(strips)


_MARK = attrgetter("mark")


@lru_cache(maxsize=MEMO_SIZE)
def strong_strip_outsides(w: AffinePermutation, r: int, l: int) -> tuple[tuple[AffinePermutation, int], ...]:
    """The distinct outsides of the strong strips of size r with inside w,
    each with its number of strips; memoised per (w, r, l).  Builds no
    strip: counts chains per (element, last mark).  marked_covers_above
    sorts by mark, so the covers whose mark exceeds the last are a suffix
    of its tuple; bisection finds where it starts and only it is read.

    >>> from .affperm import from_window
    >>> [(o.window, m) for o, m in strong_strip_outsides(from_window(3, [0, 1, 5]), 1, 0)]
    [((-1, 1, 6), 2), ((-2, 3, 5), 1)]
    """
    if r < 0:
        return ()
    states = {(w, None): 1}
    for _ in range(r):
        nxt: dict = {}
        for (x, floor), m in states.items():
            covers = marked_covers_above(x, l)
            start = 0 if floor is None else bisect_right(covers, floor, key=_MARK)
            for c in covers[start:]:
                state = c.outside, c.mark
                nxt[state] = nxt.get(state, 0) + m
        states = nxt
    outs: dict = {}
    for (x, _), m in states.items():
        outs[x] = outs.get(x, 0) + m
    return tuple(outs.items())


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


@dataclass(frozen=True)
class StrongTableau(StripChain):
    """Chain of strong strips; stored trimmed of trailing empty strips."""

    order = "strong"
    invalid = InvalidStrongStrip

    def covers(self) -> list[MarkedStrongCover]:
        return [c for s in self.strips for c in s.covers]


def strong_tableaux(inside: AffinePermutation, outside: AffinePermutation, l: int) -> list[StrongTableau]:
    """All strong tableaux from inside to outside with positive strip sizes."""
    return list(walk_chains(StrongTableau, strong_strips_from, (l,), inside, outside))


def count_strong_tableaux(inside: AffinePermutation, outside: AffinePermutation, weight, l: int) -> int:
    """Number of strong tableaux with the given weight composition, zero parts dropped."""
    return strong_weight_table(inside, outside, l).get(tuple(r for r in weight if r != 0), 0)


def strong_weight_table(inside: AffinePermutation, outside: AffinePermutation, l: int) -> dict:
    """Strong tableau counts per positive weight composition; the memo's own dict."""
    return weight_table(strong_strip_outsides, (l,), inside, outside)


@lru_cache(maxsize=MEMO_SIZE)
def count_standard_strong(w: AffinePermutation, l: int) -> int:
    """Number of standard strong tableaux of shape w (all strips of size 1)."""
    if w.is_identity:
        return 1
    return sum(count_standard_strong(c.inside, l) for c in marked_covers_below(w, l))
