"""
Growth diagrams assembling the local rule into the global insertion map
between triples (T, U, m) and pairs (P, Q), plus the classical RSK oracle.

The diagram is a grid of group elements with strong-strip rows and
weak-strip columns; every cell is one application of the local rule to its
north and west edges with excitation m_ij.  Matrix indices are 1-based.
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

    def __init__(self, nrows: int, ncols: int, corner: AffinePermutation, hstrips=None, vstrips=None,
                 entries=None, audits=None):
        self.nrows, self.ncols, self.corner = nrows, ncols, corner
        self.hstrips: dict[tuple[int, int], StrongStrip] = {} if hstrips is None else hstrips
        self.vstrips: dict[tuple[int, int], WeakStrip] = {} if vstrips is None else vstrips
        self.entries: dict[tuple[int, int], int] = {} if entries is None else entries
        self.audits: dict[tuple[int, int], tuple[AuditStep, ...]] = {} if audits is None else audits

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


def affine_insert(
    u: AffinePermutation,
    v: AffinePermutation,
    t_tab: StrongTableau,
    u_tab: WeakTableau,
    m: BoundedMatrix,
    l: int = 0,
    return_diagram: bool = False,
):
    """Global forward map: triple (T, U, m) to the pair (P, Q).

    T is the zero-th row of the diagram ending at u, U the zero-th column
    ending at v; the stabilized bottom row and right column come back.
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

    g = GrowthDiagram(nrows, ncols, t_tab.inside, entries=dict(m.entries))
    row = list(_padded(t_tab.strips, ncols, StrongStrip(u, ())))  # the strips north of the current row
    for j, s in enumerate(row, 1):
        g.hstrips[(0, j)] = s
    for i, s in enumerate(_padded(u_tab.strips, nrows, WeakStrip(v, frozenset(), v)), 1):
        g.vstrips[(i, 0)] = s
    for i in range(1, nrows + 1):
        west = g.vstrips[(i, 0)]
        for j, north in enumerate(row, 1):
            out, tags = phi_with_audit(InitialTriple(west, north, g.entries.get((i, j), 0)), l)
            west = g.vstrips[(i, j)] = out.weak
            row[j - 1] = g.hstrips[(i, j)] = out.strong
            g.audits[(i, j)] = tags
    p_tab = g.row_tableau(nrows)
    q_tab = g.column_tableau(ncols)
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
    """Global reverse map: pair (P, Q) back to the triple (T, U, m)."""
    if p_tab.outside != q_tab.outside:
        raise InvalidPair("P and Q must share their outside element")
    nrows = len(q_tab.strips)
    ncols = len(p_tab.strips)
    g = GrowthDiagram(nrows, ncols, p_tab.inside)
    for j, s in enumerate(p_tab.strips, 1):
        g.hstrips[(nrows, j)] = s
    for i, s in enumerate(q_tab.strips, 1):
        g.vstrips[(i, ncols)] = s
    for i in range(nrows, 0, -1):
        for j in range(ncols, 0, -1):
            south = g.hstrips[(i, j)]
            east = g.vstrips[(i, j)]
            try:
                triple, tags = psi_with_audit(FinalPair(east, south), l)
            except ValueError as exc:
                raise InvalidPair(f"cell ({i},{j}) is not reversible: {exc}") from exc
            g.vstrips[(i, j - 1)] = triple.weak
            g.hstrips[(i - 1, j)] = triple.strong
            if triple.e:
                g.entries[(i, j)] = triple.e
            g.audits[(i, j)] = tags
    if nrows:  # with no rows, the corner is inside(P)
        g.corner = g.vstrips[(1, 0)].inside
    t_tab, u_tab = g.row_tableau(0), g.column_tableau(0)
    m = BoundedMatrix(g.entries)
    if return_diagram:
        return t_tab, u_tab, m, g
    return t_tab, u_tab, m


def grassmannian_rsk(m: BoundedMatrix, n: int, l: int = 0, return_diagram: bool = False):
    """Affine insertion of a bare matrix: u = v = id, empty border tableaux."""
    e = identity(n)
    return affine_insert(e, e, StrongTableau(e, ()), WeakTableau(e, ()), m, l, return_diagram)


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
