"""
Partition-side combinatorics: edge sequences, n-cores, offset sequences,
the core / Grassmannian / bounded-partition bijections, strong covers on
cores, the spin statistic, and tableau rendering.

Partitions are tuples of weakly decreasing positive integers.  The edge
sequence of a partition has bit 1 exactly at the diagonals lam_i - i; an
n-core is a partition whose edge sequence is monotone in every residue
class, and its offset sequence records the transition heights.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .affperm import MEMO_SIZE, AffinePermutation, reduced_word
from .strong import NotACover, StrongTableau
from .weak import WeakTableau

__all__ = [
    "NotACore",
    "NotBounded",
    "NotACover",
    "NotGrassmannianChain",
    "check_partition",
    "conjugate",
    "contains",
    "cells",
    "hook_length",
    "edge_sequence",
    "is_core",
    "addable_corners",
    "removable_corners",
    "apply_simple",
    "act_on_partition",
    "offsets",
    "core_from_offsets",
    "core_of",
    "grassmannian_of",
    "bounded_of",
    "core_of_bounded",
    "k_conjugate",
    "partitions",
    "grassmannians_by_length",
    "StrongCoverOnCores",
    "strong_cover_cores",
    "spin_of_marked_cover",
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


def contains(lam, mu) -> bool:
    mu = tuple(mu)
    lam = tuple(lam)
    return len(mu) <= len(lam) and all(m <= l for m, l in zip(mu, lam))


def cells(lam) -> list[tuple[int, int]]:
    """Cells (row, col), 1-based; the diagonal index of (i, j) is j - i."""
    return [(i, j) for i, part in enumerate(lam, 1) for j in range(1, part + 1)]


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


@dataclass(frozen=True)
class StrongCoverOnCores:
    """Partition-side description of a strong cover mu -> lam = t_{r,s} mu."""

    inside: tuple[int, ...]
    outside: tuple[int, ...]
    r: int
    s: int
    components: tuple[tuple[tuple[int, int], ...], ...]  # cell lists, heads ascending
    head_diagonals: tuple[int, ...]

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
    cellset = set(cells(lam)) - set(cells(mu))
    comps = []
    remaining = set(cellset)
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
    ribbons are counted from the top, i.e. ascending head diagonal.
    """
    desc = strong_cover_cores(mu, lam, n)
    if mark - 1 not in desc.head_diagonals:
        raise NotACover(f"no ribbon head on diagonal {mark - 1}")
    position = desc.head_diagonals.index(mark - 1)
    return desc.n_components * (desc.ribbon_height - 1) + position


def _grassmannian_chain_cores(elements) -> list[tuple[int, ...]]:
    out = []
    for w in elements:
        if not w.is_grassmannian(0):
            raise NotGrassmannianChain(f"{w} is not 0-Grassmannian")
        out.append(core_of(w))
    return out


def spin_tableau(t: StrongTableau) -> int:
    """Total spin of a strong tableau over a Grassmannian chain."""
    covers = t.covers()
    chain = _grassmannian_chain_cores([t.inside] + [c.outside for c in covers])
    return sum(
        spin_of_marked_cover(mu, lam, t.inside.n, cover.mark)
        for cover, mu, lam in zip(covers, chain, chain[1:])
    )


def weak_tableau_filling(u_tab: WeakTableau) -> dict[tuple[int, int], int]:
    """Letter k on every cell the k-th weak strip adds to the core."""
    chain = _grassmannian_chain_cores(
        [u_tab.inside] + [s.outside for s in u_tab.strips]
    )
    fill = {}
    for k in range(1, len(chain)):
        for cell in set(cells(chain[k])) - set(cells(chain[k - 1])):
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
        for cell in set(cells(lam)) - set(cells(mu)):
            i, j = cell
            fill[cell] = (k, idx, j - i == cover.mark - 1)
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
    """Parse '(10,7,4)'; '()' is the empty partition."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"partition text must be parenthesized: {text!r}")
    inner = text[1:-1].strip().rstrip(",")
    parts = [int(p) for p in inner.split(",")] if inner else []
    return check_partition(parts)
