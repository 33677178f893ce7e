"""
Tableaux as chains of strips, for the strong and the weak order alike.

A tableau of shape outside/inside is a chain of strips from inside to
outside; its weight is the sequence of strip sizes.  walk_chains follows
strips_from(w, r), an order's strips of size r with inside w (strong strips
at a fixed level l).  Counting needs no walk: strong.py and weak.py each
keep their own memoised weight tables.
"""

from __future__ import annotations

from .affperm import AffinePermutation
from .record import Record


class StripChain(Record):
    """Chain of strips; stored trimmed of trailing empty strips.  A subclass
    names its order and the error raised when its strips do not chain."""

    __slots__ = _fields = ("inside", "strips")
    order = "strip"
    invalid = ValueError

    def __init__(self, inside: AffinePermutation, strips: tuple):
        object.__setattr__(self, "inside", inside)
        strips = tuple(strips)
        cur = self.inside
        for s in strips:
            if s.inside != cur:
                raise self.invalid(f"{self.order} tableau strips do not chain")
            cur = s.outside
        while strips and strips[-1].size == 0:
            strips = strips[:-1]
        object.__setattr__(self, "strips", strips)

    @property
    def outside(self) -> AffinePermutation:
        return self.strips[-1].outside if self.strips else self.inside

    def weight(self) -> tuple[int, ...]:
        return tuple(s.size for s in self.strips)


def walk_chains(tableau, strips_from, inside, outside):
    """Yield the tableaux of shape outside/inside with positive strip sizes,
    depth first, smaller strips first."""

    def walk(chain, cur):
        if cur == outside:
            yield tableau(inside, chain)
        for r in range(1, outside.length - cur.length + 1):
            for strip in strips_from(cur, r):
                yield from walk(chain + (strip,), strip.outside)

    return walk((), inside)
