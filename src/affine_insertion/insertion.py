"""
Growth diagrams assembling the local rule into the global insertion map
between triples (T, U, m) and pairs (P, Q), plus the classical RSK oracle.

The diagram is a grid of group elements with strong-strip rows and weak-strip
columns; each cell applies the local rule to its north and west edges and m_ij
(1-based).  The maps keep one row at a time; return_diagram=True keeps the grid.
"""

from __future__ import annotations

from .affperm import AffinePermutation, identity
from .localrule import AuditStep, FinalPair, InitialTriple, InvalidPair, phi_with_audit, psi_with_audit
from .record import Record
from .strong import StrongStrip, StrongTableau
from .weak import WeakStrip, WeakTableau

__all__ = [
    "InputNotBounded",
    "WeightOverflow",
    "InvalidPair",
    "BoundedMatrix",
    "GrowthDiagram",
    "insert_row",
    "affine_insert",
    "affine_uninsert",
    "grassmannian_rsk",
    "classical_rsk",
]


class InputNotBounded(ValueError):
    """Matrix has a row sum of at least n."""


class WeightOverflow(ValueError):
    """wt(U) + rowsums(m) exceeds n-1 in some row."""


class BoundedMatrix(Record):
    """Nonnegative integer matrix with finite support, 1-based indices."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: dict[tuple[int, int], int]):
        cleaned = {}
        for (i, j), v in entries.items():
            if type(v) is not int or i < 1 or j < 1 or v < 0:
                raise ValueError(f"bad matrix entry {v!r} at ({i}, {j})")
            if v:
                cleaned[(i, j)] = v
        Record.__init__(self, cleaned)

    @classmethod
    def from_rows(cls, rows) -> BoundedMatrix:
        try:
            return cls({(i, j): v for i, row in enumerate(rows, 1) for j, v in enumerate(row, 1)})
        except TypeError as exc:
            raise ValueError(f"matrix rows must be lists of entries, got {rows!r}") from exc

    def to_rows(self) -> list[list[int]]:
        r, c = self.nrows, self.ncols
        return [[self.entries.get((i, j), 0) for j in range(1, c + 1)] for i in range(1, r + 1)]

    @property
    def nrows(self) -> int:
        return max((i for i, _ in self.entries), default=0)

    @property
    def ncols(self) -> int:
        return max((j for _, j in self.entries), default=0)

    def rowsums(self, upto: int | None = None) -> tuple[int, ...]:
        return self._line_sums(0, self.nrows if upto is None else upto)

    def colsums(self, upto: int | None = None) -> tuple[int, ...]:
        return self._line_sums(1, self.ncols if upto is None else upto)

    def _line_sums(self, axis: int, count: int) -> tuple[int, ...]:
        """Sums of rows (axis 0) or columns (axis 1) 1..count, in one pass over the entries."""
        sums = [0] * count
        for key, v in self.entries.items():
            if key[axis] <= count:
                sums[key[axis] - 1] += v
        return tuple(sums)


class GrowthDiagram:
    """Computed grid: strong rows, weak columns, entries, audits.

    Every vertex but the northwest corner is the outside of the strip that
    ends there, so the corner is the only vertex stored.
    """

    def __init__(self, nrows: int, ncols: int, corner: AffinePermutation, hstrips, vstrips, entries):
        self.nrows, self.ncols, self.corner = nrows, ncols, corner
        self.hstrips: dict[tuple[int, int], StrongStrip] = hstrips
        self.vstrips: dict[tuple[int, int], WeakStrip] = vstrips
        self.entries: dict[tuple[int, int], int] = entries
        self.audits: dict[tuple[int, int], tuple[AuditStep, ...]] = {}

    def row_tableau(self, i: int) -> StrongTableau:
        inside = self.vstrips[(i, 0)].outside if i else self.corner
        return StrongTableau(inside, tuple(self.hstrips[(i, j)] for j in range(1, self.ncols + 1)))

    def column_tableau(self, j: int) -> WeakTableau:
        inside = self.hstrips[(0, j)].outside if j else self.corner
        return WeakTableau(inside, tuple(self.vstrips[(i, j)] for i in range(1, self.nrows + 1)))


def _padded(seq, count: int, fill=0) -> tuple:
    """seq extended to length count by copies of fill."""
    seq = tuple(seq)
    return seq + (fill,) * (count - len(seq))


def insert_row(west: WeakStrip, north, entries, l: int, g: GrowthDiagram | None = None, i: int = 0):
    """One row step: (west weak, north strong strips, entries) -> (south strong strips, east weak); g keeps row i."""
    south = []
    for j, (s, e) in enumerate(zip(north, entries), 1):
        out, tags = phi_with_audit(InitialTriple(west, s, e), l)
        west = out.weak
        south.append(out.strong)
        if g is not None:
            g.vstrips[(i, j)], g.hstrips[(i, j)], g.audits[(i, j)] = west, out.strong, tags
    return south, west


def affine_insert(
    u: AffinePermutation,
    v: AffinePermutation,
    t_tab: StrongTableau,
    u_tab: WeakTableau,
    m: BoundedMatrix,
    l: int = 0,
    return_diagram: bool = False,
    prefix: dict | None = None,
):
    """Global forward map: triple (T, U, m) to the pair (P, Q).

    T is the zero-th row of the diagram ending at u, U the zero-th column
    ending at v; the stabilized bottom row and right column come back.
    A dict passed as prefix keeps one row state per depth for each border,
    level and width: a matrix reruns only the rows below those it shares.
    """
    n = u.n
    if t_tab.inside != u_tab.inside:
        raise InvalidPair("inside(T) must equal inside(U)")
    if t_tab.outside != u or u_tab.outside != v:
        raise InvalidPair("tableau outsides must be u and v")
    nrows = max(len(u_tab.strips), m.nrows)
    ncols = max(len(t_tab.strips), m.ncols)
    rowsums = m.rowsums(nrows)
    wt_u = _padded(u_tab.weight(), nrows)
    if any(r >= n for r in rowsums):
        raise InputNotBounded(f"row sums {rowsums} must be < n = {n}")
    if any(a + b > n - 1 for a, b in zip(wt_u, rowsums)):
        raise WeightOverflow(f"wt(U) + rowsums = {tuple(a+b for a,b in zip(wt_u, rowsums))} exceeds n-1")

    row = _padded(t_tab.strips, ncols, StrongStrip(u, ()))  # the strips north of the current row
    wests = _padded(u_tab.strips, nrows, WeakStrip(v, frozenset(), v))
    g = GrowthDiagram(nrows, ncols, t_tab.inside, {(0, j): s for j, s in enumerate(row, 1)},
                      {(i, 0): s for i, s in enumerate(wests, 1)}, dict(m.entries)) if return_diagram else None
    chain = None if prefix is None else prefix.setdefault((t_tab, u_tab, l, ncols), [])  # states of rows 1, 2, ...
    east, get, js = [], m.entries.get, range(1, ncols + 1)
    for i, west in enumerate(wests, 1):
        entries = [get((i, j), 0) for j in js]
        if g is None and i <= len(chain or ()) and chain[i - 1][0] == entries:
            row, west = chain[i - 1][1]
        else:
            row, west = insert_row(west, row, entries, l, g, i)
            if chain is not None:
                chain[i - 1:] = [(entries, (row, west))]
        east.append(west)
    p_tab, q_tab = StrongTableau(v, row), WeakTableau(u, east)  # P starts where U ends, Q where T ends
    # weight bookkeeping of the theorem, rechecked on every run
    wt_t = _padded(t_tab.weight(), ncols)
    cols = m.colsums(ncols)
    if _padded(p_tab.weight(), ncols) != tuple(a + b for a, b in zip(wt_t, cols)):
        raise InvalidPair(f"wt(P) = {p_tab.weight()} differs from wt(T) + colsums")
    if _padded(q_tab.weight(), nrows) != tuple(a + b for a, b in zip(wt_u, rowsums)):
        raise InvalidPair(f"wt(Q) = {q_tab.weight()} differs from wt(U) + rowsums")
    if return_diagram:
        return p_tab, q_tab, g
    return p_tab, q_tab


def affine_uninsert(
    p_tab: StrongTableau,
    q_tab: WeakTableau,
    l: int = 0,
    return_diagram: bool = False,
):
    """Global reverse map: pair (P, Q) back to the triple (T, U, m), row by row from the southeast corner."""
    if p_tab.outside != q_tab.outside:
        raise InvalidPair("P and Q must share their outside element")
    nrows = len(q_tab.strips)
    ncols = len(p_tab.strips)
    row, wests, entries = list(p_tab.strips), [], {}  # row: the strips south of the current row
    g = GrowthDiagram(nrows, ncols, p_tab.inside, {(nrows, j): s for j, s in enumerate(p_tab.strips, 1)},
                      {(i, ncols): s for i, s in enumerate(q_tab.strips, 1)}, entries) if return_diagram else None
    for i in range(nrows, 0, -1):
        west = q_tab.strips[i - 1]
        for j in range(ncols, 0, -1):
            try:
                triple, tags = psi_with_audit(FinalPair(west, row[j - 1]), l)
            except ValueError as exc:
                raise InvalidPair(f"cell ({i},{j}) is not reversible: {exc}") from exc
            west = triple.weak
            row[j - 1] = triple.strong
            if triple.e:
                entries[(i, j)] = triple.e
            if g is not None:
                g.vstrips[(i, j - 1)], g.hstrips[(i - 1, j)], g.audits[(i, j)] = west, triple.strong, tags
        wests.append(west)
    corner = wests[-1].inside if nrows else p_tab.inside  # with no rows, the corner is inside(P)
    t_tab, u_tab = StrongTableau(corner, row), WeakTableau(corner, wests[::-1])
    m = BoundedMatrix(entries)
    if return_diagram:
        g.corner = corner
        return t_tab, u_tab, m, g
    return t_tab, u_tab, m


def grassmannian_rsk(m: BoundedMatrix, n: int, l: int = 0, return_diagram: bool = False, prefix: dict | None = None):
    """Affine insertion of a bare matrix: u = v = id, empty border tableaux."""
    e = identity(n)
    return affine_insert(e, e, StrongTableau(e, ()), WeakTableau(e, ()), m, l, return_diagram, prefix)


def classical_rsk(m: BoundedMatrix) -> tuple[list[list[int]], list[list[int]]]:
    """Textbook row-insertion RSK on the biword of m; the limit oracle.

    >>> classical_rsk(BoundedMatrix.from_rows([[0, 1], [1, 0]]))
    ([[1], [2]], [[1], [2]])
    """
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for (i, j), mult in sorted(m.entries.items()):
        for _ in range(mult):
            _row_insert(p_rows, q_rows, i, j)
    return p_rows, q_rows


def _row_insert(p_rows, q_rows, rec: int, val: int) -> None:
    r = 0
    while True:
        if r == len(p_rows):
            p_rows.append([val])
            q_rows.append([rec])
            return
        row = p_rows[r]
        for k, entry in enumerate(row):
            if entry > val:
                row[k], val = val, entry
                break
        else:
            row.append(val)
            q_rows[r].append(rec)
            return
        r += 1
