"""
Tableaux as chains of strips, for the strong and the weak order alike.

A tableau of shape outside/inside is a chain of strips from inside to
outside; its weight is the sequence of strip sizes.  Each order supplies
only its strip enumerator strips_from(w, r, *extra), the strips of size r
with inside w, and a hashable tuple extra: (l,) for strong strips, () for
weak ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .affperm import AffinePermutation

# Bounds of the package's memos (affine_insertion.clear_caches empties them
# all).  Each is well above the working set of the perfbench workloads, so
# those runs evict nothing: at most 534 distinct arguments per strip or cover
# enumerator, and 67,254 weight-count states on pieri-cauchy.
NEIGHBOURHOODS = 1 << 12  # strip and cover enumerators
STANDARD_COUNTS = 1 << 14  # count_standard_strong, count_standard_weak
WEIGHT_COUNTS = 1 << 18  # _count below
MATRIX_COUNTS = 1 << 16  # symfunc.count_matrices
GRASSMANNIAN_LISTS = 1 << 8  # cores.grassmannians_by_length


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


def walk_chains(tableau, strips_from, extra, inside, outside, weight=None, max_size=None):
    """Yield the tableaux of shape outside/inside depth first, smaller strips
    first.  With a weight, only those of exactly that weight; otherwise all
    with strip sizes 1..max_size (unbounded when None)."""

    def walk(chain, cur):
        depth = len(chain)
        if (weight is None or depth == len(weight)) and cur == outside:
            yield tableau(inside, chain)
        if weight is not None:
            sizes = weight[depth : depth + 1]
        else:
            budget = outside.length - cur.length
            sizes = range(1, (budget if max_size is None else min(max_size, budget)) + 1)
        for r in sizes:
            for strip in strips_from(cur, r, *extra):
                yield from walk(chain + (strip,), strip.outside)

    return walk((), inside)


def count_chains(strips_from, extra, inside, outside, weight, max_size=None) -> int:
    """Number of tableaux of shape outside/inside and the given weight; zero
    parts force trivial strips and are dropped."""
    comp = tuple(r for r in weight if r != 0)
    if any(r < 0 or (max_size is not None and r > max_size) for r in comp):
        return 0
    if sum(comp) != outside.length - inside.length:
        return 0
    return _count(strips_from, extra, inside, outside, comp)


@lru_cache(maxsize=WEIGHT_COUNTS)
def _count(strips_from, extra, inside, outside, comp) -> int:
    if not comp:
        return 1 if inside == outside else 0
    r, rest = comp[0], comp[1:]
    total = 0
    for strip in strips_from(inside, r, *extra):
        total += _count(strips_from, extra, strip.outside, outside, rest)
    return total
