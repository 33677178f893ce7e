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
# enumerator, 25,137 weight tables on pieri-cauchy (2,199 on kschur-table),
# 188 gamma-vector keys, and a core working set of 107 elements on 900
# rsk-limit items (132 on a full 3,600-item batch, 23 on kschur-table).  A
# weight table is a dict, so its bound is kept near its working set.
NEIGHBOURHOODS = 1 << 12  # strip and cover enumerators
STANDARD_COUNTS = 1 << 14  # count_standard_strong, count_standard_weak
WEIGHT_TABLES = 1 << 15  # weight_table below
MATRIX_COUNTS = 1 << 16  # symfunc.count_matrices
GAMMA_VECTORS = 1 << 10  # symfunc._gamma_vectors
GRASSMANNIAN_LISTS = 1 << 8  # cores.grassmannians_by_length
CORES = 1 << 10  # cores.core_of


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
    parts force trivial strips and are dropped.  Weights with a negative
    part, a part over max_size or the wrong total are no key of the table."""
    comp = tuple(r for r in weight if r != 0)
    return weight_table(strips_from, extra, inside, outside, max_size).get(comp, 0)


@lru_cache(maxsize=WEIGHT_TABLES)
def weight_table(strips_from, extra, inside, outside, max_size) -> dict[tuple[int, ...], int]:
    """Number of tableaux of shape outside/inside per positive weight
    composition, with strip sizes 1..max_size (unbounded when None); only
    nonzero counts are keys.  Each shape is computed once, from the tables of
    the outsides of its first strips.  The dict is the memo's own: callers
    copy it rather than change it."""
    budget = outside.length - inside.length
    if budget <= 0:
        return {(): 1} if inside == outside else {}
    table: dict[tuple[int, ...], int] = {}
    for r in range(1, (budget if max_size is None else min(max_size, budget)) + 1):
        for strip in strips_from(inside, r, *extra):
            for comp, c in weight_table(strips_from, extra, strip.outside, outside, max_size).items():
                key = (r,) + comp
                table[key] = table.get(key, 0) + c
    return table
