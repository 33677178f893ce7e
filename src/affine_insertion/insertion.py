"""
Growth diagrams assembling the local rule into the global insertion map
between triples (T, U, m) and pairs (P, Q), plus the classical RSK oracle.

The diagram is a grid of group elements with strong-strip rows and weak-strip
columns; each cell applies the local rule to its north and west edges and m_ij
(1-based).  The maps run one row step at a time; return_diagram=True keeps the
grid.  MatrixWalk shares rows across matrices in both directions.
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
    "uninsert_row",
    "affine_insert",
    "affine_uninsert",
    "grassmannian_rsk",
    "MatrixWalk",
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


def uninsert_row(east: WeakStrip, south, l: int, g: GrowthDiagram | None = None, i: int = 0):
    """insert_row undone right to left: (east weak, south strong strips) -> (north strips, west weak, entries)."""
    west, north, entries = east, list(south), [0] * len(south)
    for j in range(len(north), 0, -1):
        try:
            triple, tags = psi_with_audit(FinalPair(west, north[j - 1]), l)
        except ValueError as exc:
            raise InvalidPair(f"cell ({i},{j}) is not reversible: {exc}") from exc
        west, north[j - 1], entries[j - 1] = triple.weak, triple.strong, triple.e
        if g is not None:
            g.vstrips[(i, j - 1)], g.hstrips[(i - 1, j)], g.audits[(i, j)] = west, triple.strong, tags
    return north, west, entries


def _check_rowsums(u_tab: WeakTableau, m: BoundedMatrix, nrows: int, n: int) -> None:
    """The theorem's input bounds: each row sum of m below n, and with wt(U) at most n - 1."""
    rowsums = m.rowsums(nrows)
    if any(r >= n for r in rowsums):
        raise InputNotBounded(f"row sums {rowsums} must be < n = {n}")
    sums = tuple(a + b for a, b in zip(_padded(u_tab.weight(), nrows), rowsums))
    if any(s > n - 1 for s in sums):
        raise WeightOverflow(f"wt(U) + rowsums = {sums} exceeds n-1")


def _checked_pair(t_tab: StrongTableau, u_tab: WeakTableau, m: BoundedMatrix, south, east):
    """(P, Q) from the strips south of the last row and east of each row, with the theorem's weights rechecked."""
    ncols, nrows = len(south), len(east)
    p_tab, q_tab = StrongTableau(u_tab.outside, south), WeakTableau(t_tab.outside, east)  # P starts where U ends
    wt_t, wt_u = _padded(t_tab.weight(), ncols), _padded(u_tab.weight(), nrows)
    if _padded(p_tab.weight(), ncols) != tuple(a + b for a, b in zip(wt_t, m.colsums(ncols))):
        raise InvalidPair(f"wt(P) = {p_tab.weight()} differs from wt(T) + colsums")
    if _padded(q_tab.weight(), nrows) != tuple(a + b for a, b in zip(wt_u, m.rowsums(nrows))):
        raise InvalidPair(f"wt(Q) = {q_tab.weight()} differs from wt(U) + rowsums")
    return p_tab, q_tab


def affine_insert(u: AffinePermutation, v: AffinePermutation, t_tab: StrongTableau, u_tab: WeakTableau,
                  m: BoundedMatrix, l: int = 0, return_diagram: bool = False):
    """Global forward map: triple (T, U, m) to the pair (P, Q).

    T is the zero-th row of the diagram ending at u, U the zero-th column
    ending at v; the stabilized bottom row and right column come back.
    """
    if t_tab.inside != u_tab.inside:
        raise InvalidPair("inside(T) must equal inside(U)")
    if t_tab.outside != u or u_tab.outside != v:
        raise InvalidPair("tableau outsides must be u and v")
    nrows, ncols = max(len(u_tab.strips), m.nrows), max(len(t_tab.strips), m.ncols)
    _check_rowsums(u_tab, m, nrows, u.n)
    row = _padded(t_tab.strips, ncols, StrongStrip(u, ()))  # the strips north of the current row
    wests = _padded(u_tab.strips, nrows, WeakStrip(v, frozenset(), v))
    g = GrowthDiagram(nrows, ncols, t_tab.inside, {(0, j): s for j, s in enumerate(row, 1)},
                      {(i, 0): s for i, s in enumerate(wests, 1)}, dict(m.entries)) if return_diagram else None
    east, get, js = [], m.entries.get, range(1, ncols + 1)
    for i, west in enumerate(wests, 1):
        row, west = insert_row(west, row, [get((i, j), 0) for j in js], l, g, i)
        east.append(west)
    p_tab, q_tab = _checked_pair(t_tab, u_tab, m, row, east)
    return (p_tab, q_tab, g) if return_diagram else (p_tab, q_tab)


def affine_uninsert(p_tab: StrongTableau, q_tab: WeakTableau, l: int = 0, return_diagram: bool = False):
    """Global reverse map: pair (P, Q) back to the triple (T, U, m), row by row from the southeast corner."""
    if p_tab.outside != q_tab.outside:
        raise InvalidPair("P and Q must share their outside element")
    nrows, ncols = len(q_tab.strips), len(p_tab.strips)
    row, wests, entries = p_tab.strips, [], {}  # row: the strips south of the current row
    g = GrowthDiagram(nrows, ncols, p_tab.inside, {(nrows, j): s for j, s in enumerate(p_tab.strips, 1)},
                      {(i, ncols): s for i, s in enumerate(q_tab.strips, 1)}, entries) if return_diagram else None
    for i in range(nrows, 0, -1):
        row, west, found = uninsert_row(q_tab.strips[i - 1], row, l, g, i)
        entries.update(((i, j), e) for j, e in enumerate(found, 1) if e)
        wests.append(west)
    corner = wests[-1].inside if nrows else p_tab.inside  # with no rows, the corner is inside(P)
    t_tab, u_tab = StrongTableau(corner, row), WeakTableau(corner, wests[::-1])
    m = BoundedMatrix(entries)
    if return_diagram:
        g.corner = corner
        return t_tab, u_tab, m, g
    return t_tab, u_tab, m


def grassmannian_rsk(m: BoundedMatrix, n: int, l: int = 0, return_diagram: bool = False):
    """Affine insertion of a bare matrix: u = v = id, empty border tableaux."""
    e = identity(n)
    return affine_insert(e, e, StrongTableau(e, ()), WeakTableau(e, ()), m, l, return_diagram)


class MatrixWalk:
    """grassmannian_rsk and its checked inverse at one n and l, for matrices taken in the order of their rows.

    Each width keeps the rows of its last matrix; insert reruns only the rows below those a matrix shares.
    uninsert undoes rows bottom up, checking the strips north of each, its west strip and its entries against
    the forward state.  Undoing rows i, ..., 1 reads only the strips south of row i and the east strips of
    rows 1..i, so it stops above the rows an earlier call has undone."""

    def __init__(self, n: int, l: int = 0):
        e = identity(n)
        self.l, self.north, self.west = l, StrongStrip(e, ()), WeakStrip(e, frozenset(), e)
        self.border = StrongTableau(e, ()), WeakTableau(e, ())
        self.widths: dict[int, list] = {}  # width -> [its rows, how many top rows are undone]

    def insert(self, m: BoundedMatrix) -> tuple[StrongTableau, WeakTableau]:
        """(P, Q) of m, as grassmannian_rsk gives them."""
        lines, nrows = m.to_rows(), m.nrows
        _check_rowsums(self.border[1], m, nrows, self.west.inside.n)
        width = self.widths.setdefault(m.ncols, [[(None, [self.north] * m.ncols, None)], 0])
        rows = width[0]
        for i, entries in enumerate(lines, 1):
            if len(rows) == i or rows[i][0] != entries:
                rows[i:] = [(entries, *insert_row(self.west, rows[i - 1][1], entries, self.l, None, i))]
                width[1] = min(width[1], i - 1)
        return _checked_pair(*self.border, m, rows[nrows][1], [east for _, _, east in rows[1 : nrows + 1]])

    def uninsert(self, p_tab: StrongTableau, q_tab: WeakTableau) -> None:
        """Undo the (P, Q) that insert gave; raise InvalidPair at a row that does not give back its forward state."""
        width = self.widths[len(p_tab.strips)]
        rows, south = width[0], p_tab.strips
        for i in range(len(q_tab.strips), width[1], -1):
            south, west, entries = uninsert_row(q_tab.strips[i - 1], south, self.l, None, i)
            if south != rows[i - 1][1] or west != self.west or entries != rows[i][0]:
                raise InvalidPair(f"row {i} does not uninsert to its forward state")
        width[1] = max(width[1], len(q_tab.strips))


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
