"""
Tableaux as chains of strips, for the strong and the weak order alike.

A tableau of shape outside/inside is a chain of strips from inside to
outside; its weight is the sequence of strip sizes.  Each order supplies
a hashable tuple extra, (l,) for strong strips and () for weak ones, and
two enumerators: strips_from(w, r, *extra), the strips of size r with
inside w, and outsides_from(w, r, *extra), the distinct outsides of those
strips each with its number of strips, which is all that counting reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .affperm import MEMO_SIZE, AffinePermutation


@dataclass(frozen=True)
class StripChain:
    """Chain of strips; stored trimmed of trailing empty strips.  A subclass
    names its order and the error raised when its strips do not chain."""

    inside: AffinePermutation
    strips: tuple

    order = "strip"
    invalid = ValueError

    def __post_init__(self):
        strips = tuple(self.strips)
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


def walk_chains(tableau, strips_from, extra, inside, outside, max_size=None):
    """Yield the tableaux of shape outside/inside with strip sizes
    1..max_size (unbounded when None), depth first, smaller strips first."""

    def walk(chain, cur):
        if cur == outside:
            yield tableau(inside, chain)
        budget = outside.length - cur.length
        for r in range(1, (budget if max_size is None else min(max_size, budget)) + 1):
            for strip in strips_from(cur, r, *extra):
                yield from walk(chain + (strip,), strip.outside)

    return walk((), inside)


def count_chains(outsides_from, extra, inside, outside, weight, max_size=None) -> int:
    """Number of tableaux of shape outside/inside and the given weight; zero
    parts force trivial strips and are dropped.  Weights with a negative
    part, a part over max_size or the wrong total are no key of the table."""
    comp = tuple(r for r in weight if r != 0)
    return weight_table(outsides_from, extra, inside, outside, max_size).get(comp, 0)


@lru_cache(maxsize=MEMO_SIZE)
def weight_table(strips_from, extra, inside, outside, max_size, grade=None) -> dict:
    """Number of tableaux of shape outside/inside per positive weight
    composition, with strip sizes 1..max_size (unbounded when None); only
    nonzero counts are keys.  Each shape is computed once, from the tables
    of the outsides of its first strips: strips_from is an order's
    outsides_from, so each outside's table counts once per strip reaching
    it and no strip is built.  With a grade, a function from a strip to an
    int, strips_from is the strip enumerator itself, since the grade is read
    per strip, and the keys are (composition, total grade) pairs instead:
    the grade of a tableau is the sum over its strips.  The dict is the
    memo's own: callers copy it rather than change it."""
    budget = outside.length - inside.length
    if budget <= 0:
        return {() if grade is None else ((), 0): 1} if inside == outside else {}
    table: dict = {}
    sizes = range(1, (budget if max_size is None else min(max_size, budget)) + 1)
    # graded or not is decided once per table: the ungraded loop, which the
    # counting checks run in bulk, does no per-strip work for the grading
    if grade is None:
        for r in sizes:
            for out, m in strips_from(inside, r, *extra):
                for comp, c in weight_table(strips_from, extra, out, outside, max_size).items():
                    key = (r,) + comp
                    table[key] = table.get(key, 0) + m * c
    else:
        for r in sizes:
            for strip in strips_from(inside, r, *extra):
                rest = weight_table(strips_from, extra, strip.outside, outside, max_size, grade)
                g = grade(strip) if rest else 0  # only strips that lie on a tableau are graded
                for (comp, total), c in rest.items():
                    key = ((r,) + comp, total + g)
                    table[key] = table.get(key, 0) + c
    return table
