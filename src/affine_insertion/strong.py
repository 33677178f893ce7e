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
from functools import lru_cache
from operator import attrgetter

from .affperm import MEMO_SIZE, AffinePermutation, RankMismatch, rotate
from .affperm import right_mult_transposition
from .chains import StripChain, walk_chains
from .record import Record

__all__ = [
    "NotACover",
    "InvalidStrongStrip",
    "is_cover_pair",
    "MarkedStrongCover",
    "marked_covers_above",
    "marked_covers_below",
    "StrongStrip",
    "strong_strips_from",
    "strong_strip_outsides",
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
    wi = win[(i - 1) % n] + (i - 1) // n * n
    wj = win[(j - 1) % n] + (j - 1) // n * n
    if wi >= wj:
        return False
    if wj - wi < j - i:  # the shorter side: the values in (wi, wj), not the positions
        idx = w.inverse_index()
        for v in range(wi + 1, wj):
            k = idx[v % n]
            if i < k + 1 + (v - win[k]) // n * n < j:  # position_of(v)
                return False
        return True
    for k in range(i, j - 1):  # w(k + 1) for k + 1 in (i, j), off the stored window
        q, r = divmod(k, n)
        if wi <= win[r] + q * n <= wj:
            return False
    return True


class MarkedStrongCover(Record):
    """Strong cover w -> u = w*t_{ij} with a straddling translate i <= l < j.

    An outside of None is derived: it becomes w * t_ij, which a given
    outside must equal.  An inside of None is derived too: it becomes
    u * t_ij, and since t_ij is an involution that skips only the comparison
    w * t_ij = u; the straddle and the cover test still run.  The mark
    m(C) = w(j) is stored once the checks pass.  It is a function of the
    other fields, so it takes no part in equality or hashing; nor does the
    spin, stored when first read."""

    _fields = ("inside", "i", "j", "outside", "l")
    __slots__ = (*_fields, "mark", "_spin")

    def __init__(self, inside: AffinePermutation | None, i: int, j: int, outside: AffinePermutation | None, l: int):
        if not i <= l < j:
            raise NotACover(f"({i},{j}) does not straddle l={l}")
        w = right_mult_transposition(outside, i, j) if inside is None else inside
        if not is_cover_pair(w, i, j):
            raise NotACover(f"{w} -({i},{j})-> is not a strong cover")
        if inside is not None:
            u = right_mult_transposition(w, i, j)
            if outside is None:
                outside = u
            elif u != outside:
                raise NotACover("outside element does not match w * t_ij")
        self._set_inside(self, w)
        self._set_i(self, i)
        self._set_j(self, j)
        self._set_outside(self, outside)
        self._set_l(self, l)
        self._set_mark(self, w.window[(j - 1) % w.n] + (j - 1) // w.n * w.n)  # w(j)

    @property
    def spin(self) -> int:
        """c(h - 1) + p: c translates (i + kn, j + kn) straddle l, p of them
        with k < 0, and h - 1 values between w(i) and w(j) sit left of i.  On
        0-Grassmannian elements at level 0 that is oracles.spin_of_marked_cover:
        c ribbons of height h, the marked one (p + 1)-th from the top."""
        try:
            return self._spin
        except AttributeError:
            w, i, n = self.inside, self.i, self.inside.n
            p = (self.j - self.l - 1) // n
            h_1 = sum(1 for v in range(w(i) + 1, self.mark) if w.position_of(v) < i)
            self._set__spin(self, ((self.l - i) // n + p + 1) * h_1 + p)
            return self._spin

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


class StrongStrip(Record):
    """Chain of marked strong covers with strictly increasing marks.

    The constructor checks every junction of the chain; appended and
    prepended extend a strip that is already valid, so they check only the
    junction they add."""

    __slots__ = _fields = ("inside", "covers")

    def __init__(self, inside: AffinePermutation, covers: tuple[MarkedStrongCover, ...]):
        covers = tuple(covers)
        self._set_inside(self, inside)
        self._set_covers(self, covers)
        cur, floor = inside, None
        for c in covers:
            _check_junction(cur, floor, c)
            cur, floor = c.outside, c.mark

    @classmethod
    def _checked(cls, inside: AffinePermutation, covers: tuple) -> StrongStrip:
        """A strip whose every junction the caller has already checked."""
        strip = object.__new__(cls)
        strip._set_inside(strip, inside)
        strip._set_covers(strip, covers)
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
        covers = self.covers
        if covers:
            last = covers[-1]
            _check_junction(last.outside, last.mark, cover)
        else:
            _check_junction(self.inside, None, cover)
        return self._checked(self.inside, covers + (cover,))

    def prepended(self, cover: MarkedStrongCover) -> StrongStrip:
        covers = self.covers
        if covers:
            _check_junction(cover.outside, cover.mark, covers[0])
        elif cover.outside != self.inside:
            raise InvalidStrongStrip("covers do not chain")
        return self._checked(cover.inside, (cover,) + covers)

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
def strong_strip_outsides(w: AffinePermutation, r: int, l: int, slot: int) -> tuple[tuple, ...]:
    """The distinct outsides of the strong strips of size r with inside w, each
    with the sum over its strips of t^spin at t = 2^slot (slot 0: the number of
    strips), the spin of a strip being the sum of its covers'; memoised per
    argument tuple.  Builds no strip: counts chains per (element, last mark).
    marked_covers_above sorts by mark, so the covers whose mark exceeds the
    last are a suffix of its tuple; bisection finds where it starts.

    >>> from .affperm import from_window
    >>> w = from_window(3, [0, 1, 5])
    >>> [(o.window, m) for slot in (0, 4) for o, m in strong_strip_outsides(w, 1, 0, slot)]
    [((-1, 1, 6), 2), ((-2, 3, 5), 1), ((-1, 1, 6), 17), ((-2, 3, 5), 16)]
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
                nxt[state] = nxt.get(state, 0) + (m << slot * c.spin if slot else m)
        states = nxt
    outs: dict = {}
    for (x, _), m in states.items():
        outs[x] = outs.get(x, 0) + m
    return tuple(outs.items())


class StrongTableau(StripChain):
    """Chain of strong strips; stored trimmed of trailing empty strips."""

    __slots__ = ()
    order = "strong"
    invalid = InvalidStrongStrip

    def covers(self) -> list[MarkedStrongCover]:
        return [c for s in self.strips for c in s.covers]


def strong_tableaux(inside: AffinePermutation, outside: AffinePermutation, l: int) -> list[StrongTableau]:
    """All strong tableaux from inside to outside with positive strip sizes."""
    return list(walk_chains(StrongTableau, lambda w, r: strong_strips_from(w, r, l), inside, outside))


def count_strong_tableaux(inside: AffinePermutation, outside: AffinePermutation, weight, l: int) -> int:
    """Number of strong tableaux with the given weight composition, zero parts dropped."""
    return strong_weight_table(inside, outside, l).get(tuple(r for r in weight if r != 0), 0)


def strong_weight_table(inside: AffinePermutation, outside: AffinePermutation, l: int) -> dict:
    """Strong tableau counts per positive weight composition; the memo's own dict."""
    if inside.n != outside.n:
        raise RankMismatch(f"rank {inside.n} vs {outside.n}")
    # rotate(w, k) conjugates by x -> x + k, so it maps w * t_ij to rotate(w, k) * t_(i+k)(j+k):
    # the marked covers at l go to those at l + k, marks shifted by k and so kept in order.
    return _strong_table(rotate(inside, -l), rotate(outside, -l), 0)


@lru_cache(maxsize=MEMO_SIZE)
def _strong_table(inside: AffinePermutation, outside: AffinePermutation, slot: int) -> dict:
    """Sum of t^spin at t = 2^slot (slot 0: the count) over the strong tableaux of shape outside/inside
    at level 0, per positive weight composition: each first-strip outside's table, times its strips' sum."""
    budget = outside.length - inside.length
    if budget <= 0:
        return {(): 1} if inside == outside else {}
    table: dict = {}
    for r in range(1, budget + 1):
        for out, m in strong_strip_outsides(inside, r, 0, slot):
            for comp, c in _strong_table(out, outside, slot).items():
                key = (r,) + comp
                table[key] = table.get(key, 0) + m * c
    return table


@lru_cache(maxsize=MEMO_SIZE)
def count_standard_strong(w: AffinePermutation, l: int) -> int:
    """Number of standard strong tableaux of shape w (all strips of size 1)."""
    if w.is_identity:
        return 1
    return sum(count_standard_strong(c.inside, l) for c in marked_covers_below(w, l))
