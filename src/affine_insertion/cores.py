"""
Partition-side combinatorics: edge sequences, n-cores, offset sequences,
the core / Grassmannian / bounded-partition bijections, the spin of a
strong tableau, and tableau rendering.

Partitions are tuples of weakly decreasing positive integers.  The edge
sequence of a partition has bit 1 exactly at the diagonals lam_i - i; an
n-core is a partition whose edge sequence is monotone in every residue
class, and its offset sequence records the transition heights.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .affperm import MEMO_SIZE, AffinePermutation, parse_ints
from .strong import StrongTableau
from .weak import WeakTableau

__all__ = [
    "NotACore",
    "NotBounded",
    "NotGrassmannianChain",
    "check_partition",
    "conjugate",
    "cells",
    "hook_length",
    "edge_sequence",
    "is_core",
    "offsets",
    "core_from_offsets",
    "core_of",
    "grassmannian_of",
    "bounded_of",
    "core_of_bounded",
    "k_conjugate",
    "partitions",
    "grassmannians_by_length",
    "spin_tableau",
    "weak_tableau_filling",
    "strong_tableau_filling",
    "render_weak_tableau",
    "render_strong_tableau",
    "parse_partition",
    "format_partition",
]


class NotACore(ValueError):
    """Partition admits a removable n-ribbon."""


class NotBounded(ValueError):
    """Partition has a part of size n or larger."""


class NotGrassmannianChain(ValueError):
    """Tableau chain leaves the Grassmannian elements."""


def check_partition(lam) -> tuple[int, ...]:
    lam = tuple(lam)
    if any(a <= 0 for a in lam) or any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError(f"not a partition: {lam!r}")
    return lam


def conjugate(lam) -> tuple[int, ...]:
    lam = check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for a in lam if a >= j) for j in range(1, lam[0] + 1))


def cells(lam, mu=()) -> list[tuple[int, int]]:
    """Cells (row, col) of lam not in mu, 1-based, row by row: with mu inside
    lam, the skew shape lam/mu.  The diagonal index of (i, j) is j - i."""
    rows = itertools.zip_longest(lam, mu, fillvalue=0)
    return [(i, j) for i, (part, skip) in enumerate(rows, 1) for j in range(skip + 1, part + 1)]


def hook_length(lam, conj, i: int, j: int) -> int:
    return lam[i - 1] - j + conj[j - 1] - i + 1


def edge_sequence(lam, lo: int, hi: int) -> list[int]:
    """Bits p_lo .. p_hi inclusive.

    >>> edge_sequence((10, 7, 4, 3, 2, 1, 1, 1), -8, 3)
    [0, 1, 1, 1, 0, 1, 0, 1, 0, 1, 0, 0]
    """
    ones = {part - i for i, part in enumerate(lam, 1)}
    tail = -len(lam)  # every diagonal strictly below tail is a 1
    return [1 if (d in ones or d < tail) else 0 for d in range(lo, hi + 1)]


def is_core(lam, n: int) -> bool:
    """No removable n-ribbon: never bit 0 with bit 1 n places above."""
    lam = check_partition(lam)
    lo = -len(lam) - n - 1
    hi = (lam[0] if lam else 0) + n
    bits = edge_sequence(lam, lo, hi)
    return all(not (bits[k] == 0 and bits[k + n] == 1) for k in range(len(bits) - n))


def _class_maxima(lam, n: int) -> dict[int, int]:
    """Largest shifted bit-1 position lam_i - i + 1 in each class mod n."""
    lam = check_partition(lam)
    if not is_core(lam, n):
        raise NotACore(f"{lam} is not a {n}-core")
    best = {}
    for i in itertools.count(1):
        x = (lam[i - 1] if i <= len(lam) else 0) - i + 1
        best.setdefault(x % n, x)
        if len(best) == n:
            return best


def offsets(lam, n: int) -> tuple[int, ...]:
    """Offset sequence d(lam) of an n-core.

    >>> offsets((10, 7, 4, 3, 2, 1, 1, 1), 4)
    (-2, 3, -1, 0)
    """
    best = _class_maxima(lam, n)
    return tuple((best[i % n] - i) // n + 1 for i in range(1, n + 1))


def core_from_offsets(d) -> tuple[int, ...]:
    """Inverse bijection from offset sequences (sum zero) to n-cores.

    >>> core_from_offsets((-2, 3, -1, 0))
    (10, 7, 4, 3, 2, 1, 1, 1)
    """
    import heapq

    d = tuple(d)
    n = len(d)
    if sum(d) != 0:
        raise ValueError(f"offsets {d!r} must sum to 0")
    # largest shifted bit-1 position per class; the rest follow n apart below
    tops = [i + n * (d[i - 1] - 1) for i in range(1, n + 1)]
    hp = [(-t, t) for t in tops]
    heapq.heapify(hp)
    lam = []
    i = 0
    while True:
        _, t = heapq.heappop(hp)
        i += 1
        part = t + i - 1  # i-th largest position v gives row lam_i = v + i - 1
        if part <= 0:
            break
        lam.append(part)
        heapq.heappush(hp, (-(t - n), t - n))
    return tuple(lam)


@lru_cache(maxsize=MEMO_SIZE)
def core_of(w: AffinePermutation) -> tuple[int, ...]:
    """The core w . (empty partition), through the offset action; memoised
    per element, since the tableau fillings of a batch of insertions revisit
    the same few chain elements."""
    n = w.n
    winv = w.inverse()
    d = tuple(-((winv(i) - 1) // n) for i in range(1, n + 1))
    return core_from_offsets(d)


def grassmannian_of(lam, n: int) -> AffinePermutation:
    """The 0-Grassmannian element whose core is lam.

    The window values are the per-class maxima of the shifted bit-1
    positions, moved up one period and sorted increasingly.
    """
    maxima = _class_maxima(lam, n).values()
    return AffinePermutation(n, sorted(v + n for v in maxima))


def bounded_of(lam, n: int) -> tuple[int, ...]:
    """Row counts of cells with hook length below n; the bounded partition.

    >>> bounded_of((10, 7, 4, 3, 2, 1, 1, 1), 4)
    (3, 3, 2, 2, 1, 1, 1, 1)
    """
    lam = check_partition(lam)
    if not is_core(lam, n):
        raise NotACore(f"{lam} is not a {n}-core")
    conj = conjugate(lam)
    return tuple(
        sum(1 for j in range(1, lam[i - 1] + 1) if hook_length(lam, conj, i, j) < n)
        for i in range(1, len(lam) + 1)
    )


def core_of_bounded(b, n: int) -> tuple[int, ...]:
    """Inverse of bounded_of, built bottom row up.

    Row i is pushed right until the leftmost cell of the skew shape has
    hook length below n; hooks only shrink to its right.
    """
    b = check_partition(b)
    if b and b[0] >= n:
        raise NotBounded(f"{b} has a part of size >= {n}")
    lam: list[int] = []  # rows below the current one, bottom-up, lam[k] for row i+1+k
    mu_below = 0
    for i in range(len(b), 0, -1):
        width = b[i - 1]
        mu_i = mu_below
        while True:
            leg = sum(1 for part in lam if part > mu_i)
            if width + leg < n:
                break
            mu_i += 1
        lam.insert(0, mu_i + width)
        mu_below = mu_i
    out = tuple(lam)
    if not is_core(out, n):
        raise NotACore(f"reconstruction of {b} failed")
    return out


def k_conjugate(b, n: int) -> tuple[int, ...]:
    """Transpose conjugated through the core/bounded bijection.

    >>> k_conjugate((3, 3, 2, 2, 1, 1, 1, 1), 4)
    (3, 2, 2, 1, 1, 1, 1, 1, 1, 1)
    """
    return bounded_of(conjugate(core_of_bounded(b, n)), n)


def partitions(total: int, max_part: int | None = None):
    """All partitions of total with parts at most max_part, descending parts."""
    if max_part is None:
        max_part = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


@lru_cache(maxsize=MEMO_SIZE)
def grassmannians_by_length(n: int, length: int) -> tuple[AffinePermutation, ...]:
    """All 0-Grassmannian elements of the given length, via bounded partitions."""
    return tuple(
        grassmannian_of(core_of_bounded(b, n), n) for b in partitions(length, n - 1)
    )


def _check_grassmannian_chain(elements) -> None:
    for w in elements:
        if not w.is_grassmannian(0):
            raise NotGrassmannianChain(f"{w} is not 0-Grassmannian")


def _grassmannian_chain_cores(elements) -> list[tuple[int, ...]]:
    _check_grassmannian_chain(elements)
    return [core_of(w) for w in elements]


def spin_tableau(t: StrongTableau) -> int:
    """Total spin of a strong tableau over a Grassmannian chain: the sum of
    its covers' spins (MarkedStrongCover.spin, read off the window)."""
    covers = t.covers()
    _check_grassmannian_chain([t.inside] + [c.outside for c in covers])
    return sum(c.spin for c in covers)


def weak_tableau_filling(u_tab: WeakTableau) -> dict[tuple[int, int], int]:
    """Letter k on every cell the k-th weak strip adds to the core."""
    chain = _grassmannian_chain_cores(
        [u_tab.inside] + [s.outside for s in u_tab.strips]
    )
    fill = {}
    for k in range(1, len(chain)):
        for cell in cells(chain[k], chain[k - 1]):
            fill[cell] = k
    return fill


def strong_tableau_filling(t_tab: StrongTableau) -> dict[tuple[int, int], tuple[int, int, bool]]:
    """Cell -> (strip letter, cover index within strip, starred head)."""
    covers = [
        (k, idx, cover) for k, strip in enumerate(t_tab.strips, 1) for idx, cover in enumerate(strip.covers, 1)
    ]
    chain = _grassmannian_chain_cores([t_tab.inside] + [cover.outside for _, _, cover in covers])
    fill = {}
    for (k, idx, cover), mu, lam in zip(covers, chain, chain[1:]):
        for i, j in cells(lam, mu):
            fill[i, j] = (k, idx, j - i == cover.mark - 1)
    return fill


def _render_grid(shape, cell_text) -> str:
    """Rows printed top row = last row of the partition (French style)."""
    shape = tuple(shape)
    if not shape:
        return "(empty)"
    width = max(len(cell_text(c)) for c in cells(shape)) + 1
    lines = []
    for i in range(len(shape), 0, -1):
        lines.append("".join(cell_text((i, j)).ljust(width) for j in range(1, shape[i - 1] + 1)).rstrip())
    return "\n".join(lines)


def render_weak_tableau(u_tab: WeakTableau) -> str:
    """ASCII grid of the k-tableau letters; cells of a skew tableau's inner
    core print as '.'.

    >>> from .affperm import identity
    >>> print(render_weak_tableau(WeakTableau(identity(2), ())))
    (empty)
    """
    fill = weak_tableau_filling(u_tab)
    shape = core_of(u_tab.outside)
    return _render_grid(shape, lambda c: str(fill.get(c, ".")))


def render_strong_tableau(t_tab: StrongTableau) -> str:
    """ASCII grid with letters, cover subscripts, and stars on marked heads.

    Cover subscripts are dropped when every strip is a single cover, as in
    standard tableaux.  Cells of a skew tableau's inner core print as '.'.
    """
    fill = strong_tableau_filling(t_tab)
    shape = core_of(t_tab.outside)
    subscripts = any(s.size > 1 for s in t_tab.strips)

    def text(cell):
        if cell not in fill:
            return "."
        k, idx, star = fill[cell]
        body = f"{k}_{idx}" if subscripts else str(k)
        return body + ("*" if star else "")

    return _render_grid(shape, text)


def format_partition(lam) -> str:
    return "(" + ",".join(str(a) for a in lam) + ")"


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse '(10,7,4)' (the grammar of parse_ints); '()' is the empty partition."""
    return check_partition(parse_ints(text, "()"))
