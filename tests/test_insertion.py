import ast
import json
import random
from hashlib import sha256
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_insertion import cores, insertion, localrule, strong, symfunc, verify
from affine_insertion.affperm import from_reduced_word, identity, rotate
from affine_insertion.cores import core_of, strong_tableau_filling, weak_tableau_filling
from affine_insertion.insertion import (
    BoundedMatrix,
    InputNotBounded,
    InvalidPair,
    MatrixWalk,
    WeightOverflow,
    affine_insert,
    affine_uninsert,
    classical_rsk,
    grassmannian_rsk,
)
from affine_insertion.localrule import InitialTriple, phi
from affine_insertion.oracles import classical_unrsk
from affine_insertion.serialize import audit_to_json, pair_to_json
from affine_insertion.strong import MarkedStrongCover, StrongStrip, StrongTableau, strong_strips_from
from affine_insertion.weak import WeakStrip, WeakTableau, weak_strips_from

GROWTH_MATRIX = BoundedMatrix.from_rows([[0, 1, 0], [0, 0, 2], [1, 0, 1]])


def test_bounded_matrix_basics():
    m = GROWTH_MATRIX
    assert m.rowsums() == (1, 2, 2)
    assert m.colsums() == (1, 1, 3)
    assert m.to_rows() == [[0, 1, 0], [0, 0, 2], [1, 0, 1]]
    assert BoundedMatrix.from_rows([[0, 0], [0, 0]]).entries == {}
    with pytest.raises(ValueError):
        BoundedMatrix({(0, 1): 1})


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.dictionaries(st.tuples(st.integers(1, 7), st.integers(1, 7)), st.integers(0, 4), max_size=20),
       st.integers(0, 9))
def test_line_sums_match_the_per_line_formula(entries, upto):
    # one pass over the entries equals summing every entry once per line,
    # with upto below, at and above the matrix size
    m = BoundedMatrix(entries)
    for sums, count, axis in ((m.rowsums, m.nrows, 0), (m.colsums, m.ncols, 1)):
        for limit in (None, upto):
            k = count if limit is None else limit
            expected = tuple(sum(v for key, v in m.entries.items() if key[axis] == line) for line in range(1, k + 1))
            assert sums(limit) == expected
    assert m.rowsums(m.nrows + 2)[m.nrows:] == (0, 0) and m.colsums(0) == ()


def test_growth_diagram_fixture():
    p, q = grassmannian_rsk(GROWTH_MATRIX, 3)
    assert core_of(p.outside) == (5, 3, 1) == core_of(q.outside)
    assert p.weight() == (1, 1, 3)
    assert q.weight() == (1, 2, 2)
    chain = [core_of(p.inside)] + [core_of(c.outside) for c in p.covers()]
    assert chain == [(), (1,), (1, 1), (2, 1, 1), (3, 1, 1), (5, 3, 1)]
    assert [c.mark for c in p.covers()] == [1, 0, 2, 3, 5]
    rows = {}
    for (i, j), letter in weak_tableau_filling(q).items():
        rows.setdefault(i, []).append(letter)
    assert {i: sorted(v) for i, v in rows.items()} == {1: [1, 2, 2, 3, 3], 2: [2, 3, 3], 3: [3]}


def test_growth_fixture_roundtrip():
    p, q = grassmannian_rsk(GROWTH_MATRIX, 3)
    t, u, m = affine_uninsert(p, q, 0)
    assert m == GROWTH_MATRIX
    assert t.strips == () and u.strips == ()


def test_zero_matrix():
    p, q = grassmannian_rsk(BoundedMatrix({}), 3)
    assert p.strips == () and q.strips == ()
    t, u, m = affine_uninsert(p, q, 0)
    assert m.entries == {}


def test_input_validation():
    with pytest.raises(InputNotBounded):
        grassmannian_rsk(BoundedMatrix.from_rows([[1, 1, 1]]), 3)
    e = identity(3)
    big = WeakTableau(e, (weak_strips_from(e, 2)[0],))
    with pytest.raises(WeightOverflow):
        affine_insert(
            e,
            big.outside,
            StrongTableau(e, ()),
            big,
            BoundedMatrix.from_rows([[1]]),
            0,
        )


def test_invalid_pair_rejected():
    # outsides must agree; everything consistent is in the bijection's range
    e = identity(3)
    p = StrongTableau(e, (strong_strips_from(e, 1, 0)[0],))
    q_wrong = WeakTableau(from_reduced_word(3, [1]), ())
    with pytest.raises(InvalidPair):
        affine_uninsert(p, q_wrong, 0)


def test_asymmetric_borders_roundtrip():
    # a pair with different inside elements is still a valid output: P from
    # id to s0 with an empty Q at s0 pulls back to (T=P, U empty, m=0)
    e = identity(3)
    p = StrongTableau(e, (strong_strips_from(e, 1, 0)[0],))
    q = WeakTableau(p.outside, ())
    t, u, m = affine_uninsert(p, q, 0)
    assert (t, u) == (p, WeakTableau(e, ())) and m.entries == {}
    back = affine_insert(p.outside, e, t, u, m, 0)
    assert back == (p, q)


def test_exhaustive_global_roundtrip_small():
    n = 3
    count = 0
    for m in _bounded_matrices(n, 2, 3):
        p, q = grassmannian_rsk(m, n)
        t, u, m2 = affine_uninsert(p, q, 0)
        assert m2 == m and not t.strips and not u.strips
        count += 1
    assert count == 27  # 2x2 rows summing <= 2, grand total <= 3


def test_verify_enumerates_bounded_matrices_in_cell_order():
    for n, dim, total in ((3, 2, 3), (2, 3, 2), (4, 3, 4)):
        assert list(verify._bounded_matrices(n, dim, total)) == list(_bounded_matrices(n, dim, total))


def _bounded_matrices(n, dim, total):
    def fill(idx, remaining, acc):
        if idx == dim * dim:
            yield BoundedMatrix.from_rows([acc[k * dim : (k + 1) * dim] for k in range(dim)])
            return
        row = idx // dim
        used = sum(acc[row * dim : idx])
        for v in range(min(remaining, n - 1 - used) + 1):
            yield from fill(idx + 1, remaining - v, acc + [v])

    yield from fill(0, total, [])


def test_skew_insert_roundtrip():
    # nonempty borders: T, U starting at a common inside element
    e = identity(3)
    for t_strip in strong_strips_from(e, 1, 0):
        t = StrongTableau(e, (t_strip,))
        for u_strip in weak_strips_from(e, 1):
            u = WeakTableau(e, (u_strip,))
            m = BoundedMatrix.from_rows([[0, 1], [1, 0]])
            p, q = affine_insert(t.outside, u.outside, t, u, m, 0)
            t2, u2, m2 = affine_uninsert(p, q, 0)
            assert (t2, u2, m2) == (t, u, m)


def test_weight_identities():
    m = BoundedMatrix.from_rows([[1, 0, 1], [0, 1, 0]])
    p, q = grassmannian_rsk(m, 4)
    assert p.weight() == m.colsums()
    assert q.weight() == m.rowsums()


def test_standard_case_context_free():
    # permutation-matrix insertions: each cell's output is reproduced by
    # running the local rule on that cell's edges in isolation
    perm = [3, 1, 4, 2]
    m = BoundedMatrix({(i, v): 1 for i, v in enumerate(perm, 1)})
    p, q, g = grassmannian_rsk(m, 3, return_diagram=True)
    for i in range(1, g.nrows + 1):
        for j in range(1, g.ncols + 1):
            west = g.vstrips[(i, j - 1)]
            north = g.hstrips[(i - 1, j)]
            out = phi(InitialTriple(west, north, g.entries.get((i, j), 0)), 0)
            assert out.weak == g.vstrips[(i, j)]
            assert out.strong == g.hstrips[(i, j)]


def test_row_stabilization():
    # a synthetic extra row below the diagram (empty west edge, no entries)
    # reproduces the bottom row, so the rows have stabilized
    from affine_insertion.weak import WeakStrip

    p, q, g = grassmannian_rsk(GROWTH_MATRIX, 3, return_diagram=True)
    cur_west = WeakStrip(p.inside, frozenset(), p.inside)
    strips = []
    for j in range(1, g.ncols + 1):
        out = phi(InitialTriple(cur_west, g.hstrips[(g.nrows, j)], 0), 0)
        strips.append(out.strong)
        cur_west = out.weak
    assert StrongTableau(p.inside, tuple(strips)) == p


def test_classical_rsk_known_values():
    p, q = classical_rsk(BoundedMatrix.from_rows([[0, 1], [1, 0]]))
    assert p == [[1], [2]] and q == [[1], [2]]
    p, q = classical_rsk(BoundedMatrix({(1, v): 1 for v in (1, 2, 3)}))
    assert p == [[1, 2, 3]] and q == [[1, 1, 1]]
    # Fulton's running example style check: permutation 4 2 5 3 1
    m = BoundedMatrix({(i, v): 1 for i, v in enumerate([4, 2, 5, 3, 1], 1)})
    p, q = classical_rsk(m)
    assert p == [[1, 3], [2, 5], [4]]
    assert q == [[1, 3], [2, 4], [5]]


def test_classical_rsk_roundtrip_random():
    rng = random.Random(11)
    for _ in range(60):
        rows = [[rng.randrange(3) for _ in range(rng.randrange(1, 4))] for _ in range(rng.randrange(1, 4))]
        m = BoundedMatrix.from_rows(rows)
        p, q = classical_rsk(m)
        assert classical_unrsk(p, q) == m


def test_classical_unrsk_rejects_bad_recording_tableau():
    # the recording tableau decreases along its row
    with pytest.raises(ValueError, match="not a recording tableau"):
        classical_unrsk([[1, 2]], [[2, 1]])


def test_rsk_limit_spot():
    # at n large the affine insertion letters match classical RSK
    for rows in ([[2, 0], [1, 1]], [[0, 2, 1], [1, 0, 0], [0, 1, 1]]):
        m = BoundedMatrix.from_rows(rows)
        p, q = grassmannian_rsk(m, 30)
        shape = core_of(p.outside)
        pf = strong_tableau_filling(p)
        qf = weak_tableau_filling(q)
        p_rows = [[pf[(i, j)][0] for j in range(1, shape[i - 1] + 1)] for i in range(1, len(shape) + 1)]
        q_rows = [[qf[(i, j)] for j in range(1, shape[i - 1] + 1)] for i in range(1, len(shape) + 1)]
        cp, cq = classical_rsk(m)
        assert p_rows == cp and q_rows == cq


def test_global_roundtrip_shifted_slot():
    # the growth diagram works at any parabolic slot, not just l = 0
    for n, l, dim, total in [(3, 2, 2, 3), (4, -1, 2, 3)]:
        for m in _bounded_matrices(n, dim, total):
            p, q = grassmannian_rsk(m, n, l)
            t, u, m2 = affine_uninsert(p, q, l)
            assert m2 == m and not t.strips and not u.strips


def test_exception_names_are_one_class_each():
    assert insertion.InvalidPair is localrule.InvalidPair
    assert symfunc.NotBounded is cores.NotBounded


@pytest.mark.parametrize("tableau", [StrongTableau, WeakTableau])
def test_weight_identity_failure_raises_invalid_pair(monkeypatch, tableau):
    # a raise, unlike an assert, still fires under python -O
    monkeypatch.setattr(tableau, "weight", lambda self: ())
    with pytest.raises(InvalidPair, match="differs"):
        grassmannian_rsk(GROWTH_MATRIX, 3)


def test_no_assert_statements_in_package():
    # an assert vanishes under python -O; library checks must raise
    src = Path(insertion.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_uninsert_with_one_empty_side():
    p, q = grassmannian_rsk(GROWTH_MATRIX, 3)
    for p_tab, q_tab, t_want, u_want in [
        (p, WeakTableau(p.outside, ()), p, WeakTableau(p.inside, ())),
        (StrongTableau(q.outside, ()), q, StrongTableau(q.inside, ()), q),
    ]:
        t, u, m, g = affine_uninsert(p_tab, q_tab, 0, return_diagram=True)
        assert (t, u, m) == (t_want, u_want, BoundedMatrix({}))
        assert (g.row_tableau(0), g.column_tableau(0)) == (t, u)


@st.composite
def _skew_insertion_inputs(draw):
    n = draw(st.integers(3, 5))
    l = draw(st.integers(-2, 2))
    u = from_reduced_word(n, draw(st.lists(st.integers(0, n - 1), max_size=3)))
    ncols = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row, room = [], n - 1  # row sums stay below n
        for _ in range(ncols):
            row.append(draw(st.integers(0, room)))
            room -= row[-1]
        rows.append(row)
    return n, l, u, BoundedMatrix.from_rows(rows)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_skew_insertion_inputs())
def test_uninsert_inverts_insert_property(case):
    n, l, u, m = case
    t_tab, u_tab = StrongTableau(u, ()), WeakTableau(u, ())
    p, q = affine_insert(u, u, t_tab, u_tab, m, l)
    assert affine_uninsert(p, q, l) == (t_tab, u_tab, m)


def _rotated_pair(p, q, k):
    """(P, Q) under rotate(., k), which sends s_i to s_{i+k}: elements, cover
    positions, levels and residues all move by k."""
    n = p.inside.n

    def covers(strip):
        return tuple(MarkedStrongCover(rotate(c.inside, k), c.i + k, c.j + k, rotate(c.outside, k), c.l + k) for c in strip.covers)

    return (
        StrongTableau(rotate(p.inside, k), tuple(StrongStrip(rotate(s.inside, k), covers(s)) for s in p.strips)),
        WeakTableau(
            rotate(q.inside, k),
            tuple(WeakStrip(rotate(s.inside, k), {(a + k) % n for a in s.residues}, rotate(s.outside, k)) for s in q.strips),
        ),
    )


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_skew_insertion_inputs(), st.integers(-6, 6))
def test_insert_commutes_with_rotate(case, k):
    # every cell's local rule at l + k is the rotated rule at l, so inserting
    # from the rotated border at level l + k gives the rotated pair
    n, l, u, m = case
    p, q = affine_insert(u, u, StrongTableau(u, ()), WeakTableau(u, ()), m, l)
    v = rotate(u, k)
    assert affine_insert(v, v, StrongTableau(v, ()), WeakTableau(v, ()), m, l + k) == _rotated_pair(p, q, k)


# sha256 of the canonical JSON of every diagram of _golden_growth_diagrams:
# the pair (P, Q) and every cell's audit, inserted and uninserted.
GROWTH_GOLDEN_SHA256 = "a1aa1f0d96864e3508b2df486b39fb468982414d523ba3f525ad48ea53c3652d"


def _golden_growth_diagrams():
    """Seeded matrices at n = 3, 4 and 8, levels 0, 1, -1, 2 and -3; each row
    sum below n lands on random columns."""
    rng = random.Random("growth-golden")
    for n, dim, count in ((3, 4, 6), (4, 5, 6), (8, 8, 3)):
        for l in (0, 1, -1, 2, -3):
            for _ in range(count):
                rows = [[0] * dim for _ in range(dim)]
                for row in rows:
                    for _ in range(rng.randint(0, n - 1)):
                        row[rng.randrange(dim)] += 1
                yield n, l, BoundedMatrix.from_rows(rows)


def test_growth_diagrams_match_golden_digest():
    def audits(g):
        return {f"{i},{j}": audit_to_json(steps) for (i, j), steps in sorted(g.audits.items())}

    digest, tags, diagrams = sha256(), set(), 0
    for n, l, m in _golden_growth_diagrams():
        p, q, g = grassmannian_rsk(m, n, l, return_diagram=True)
        t_tab, u_tab, back, h = affine_uninsert(p, q, l, return_diagram=True)
        assert back == m and not t_tab.strips and not u_tab.strips
        doc = {"matrix": m.to_rows(), "pair": pair_to_json(p, q, n, l), "insert": audits(g), "uninsert": audits(h)}
        digest.update(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        tags.update(step.case for grid in (g, h) for steps in grid.audits.values() for step in steps)
        diagrams += 1
    assert diagrams == 75
    assert tags == set(localrule.CaseTag)
    assert digest.hexdigest() == GROWTH_GOLDEN_SHA256


def test_border_checks_of_insert_raise_exactly():
    e = identity(3)
    s1 = from_reduced_word(3, [1])
    one = StrongTableau(s1, ())
    for args, message in [
        ((s1, e, one, WeakTableau(e, ()), GROWTH_MATRIX), "inside(T) must equal inside(U)"),
        ((e, e, one, WeakTableau(s1, ()), GROWTH_MATRIX), "tableau outsides must be u and v"),
        ((s1, e, one, WeakTableau(s1, ()), GROWTH_MATRIX), "tableau outsides must be u and v"),
    ]:
        with pytest.raises(InvalidPair) as info:
            affine_insert(*args)
        assert type(info.value) is InvalidPair and str(info.value) == message


def test_uninsert_wraps_an_irreversible_cell():
    # a pair of level 0 read at level 1: the bottom row's marks do not straddle 1
    p, q = grassmannian_rsk(GROWTH_MATRIX, 3, 0)
    with pytest.raises(InvalidPair) as info:
        affine_uninsert(p, q, 1)
    assert type(info.value) is InvalidPair
    assert str(info.value) == "cell (3,2) is not reversible: (0,1) does not straddle l=1"
    assert type(info.value.__cause__) is strong.NotACover


def test_diagram_free_paths_match_the_diagram():
    cases = list(_golden_growth_diagrams())
    for n, l, m in cases:
        p, q, g = grassmannian_rsk(m, n, l, return_diagram=True)
        assert grassmannian_rsk(m, n, l) == (p, q)
        assert (g.row_tableau(g.nrows), g.column_tableau(g.ncols)) == (p, q)
        t_tab, u_tab, back, h = affine_uninsert(p, q, l, return_diagram=True)
        assert affine_uninsert(p, q, l) == (t_tab, u_tab, back)
        assert (h.row_tableau(0), h.column_tableau(0), BoundedMatrix(h.entries)) == (t_tab, u_tab, back)
    assert len(cases) == 75
    p, q = grassmannian_rsk(GROWTH_MATRIX, 3)
    for p_tab, q_tab in [(p, WeakTableau(p.outside, ())), (StrongTableau(q.outside, ()), q)]:
        t, u, m, g = affine_uninsert(p_tab, q_tab, 0, return_diagram=True)
        assert affine_uninsert(p_tab, q_tab, 0) == (t, u, m)
        back = affine_insert(t.outside, u.outside, t, u, m, 0, return_diagram=True)
        assert affine_insert(t.outside, u.outside, t, u, m, 0) == back[:2] == (p_tab, q_tab)


@st.composite
def _matrices_sharing_top_rows(draw):
    """Matrices at one n and l whose rows are drawn from a few candidate
    rows, so that many share their top rows; listed in the order of their rows."""
    n = draw(st.integers(3, 5))
    l = draw(st.integers(-2, 2))
    ncols = draw(st.integers(1, 3))
    row = st.lists(st.integers(0, n - 1), min_size=ncols, max_size=ncols).filter(lambda r: sum(r) < n)
    rows = draw(st.lists(row, min_size=1, max_size=3, unique_by=tuple))
    matrices = draw(st.lists(st.lists(st.sampled_from(rows), min_size=1, max_size=3), min_size=1, max_size=8))
    return n, l, [BoundedMatrix.from_rows(m) for m in sorted(matrices)]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_matrices_sharing_top_rows())
def test_prefix_walk_matches_each_matrix(case):
    n, l, matrices = case
    walk = MatrixWalk(n, l)
    for m in matrices:
        p, q = walk.insert(m)
        assert (p, q) == grassmannian_rsk(m, n, l)
        walk.uninsert(p, q)  # raises at a row that does not give back its forward state
    # a diagram request runs every row, and a walk at another level or rank keeps rows of its own
    m = matrices[-1]
    p, q, g = grassmannian_rsk(m, n, l, True)
    assert (p, q) == grassmannian_rsk(m, n, l) and len(g.audits) == m.nrows * m.ncols
    assert MatrixWalk(n, l + 1).insert(m) == grassmannian_rsk(m, n, l + 1)
    assert MatrixWalk(n + 1, l).insert(m) == grassmannian_rsk(m, n + 1, l)


def test_prefix_walk_runs_only_the_rows_it_does_not_share(monkeypatch):
    rows, undone = [], []
    monkeypatch.setattr(insertion, "insert_row", lambda *args, real=insertion.insert_row: rows.append(args[2]) or real(*args))
    monkeypatch.setattr(insertion, "uninsert_row", lambda *args, real=insertion.uninsert_row: undone.append(args[4]) or real(*args))
    walk = MatrixWalk(4, 0)
    for m in ([[1, 0], [0, 1]], [[1, 0], [1, 1]], [[1, 0], [1, 1], [0, 2]], [[1], [1]], [[1, 0], [1, 1], [0, 1]],
              [[0, 1], [1, 1]]):
        walk.uninsert(*walk.insert(BoundedMatrix.from_rows(m)))
    # the one-column matrix keeps its own rows, and the two-column ones go on sharing theirs
    assert rows == [[1, 0], [0, 1], [1, 1], [0, 2], [1], [1], [0, 1], [0, 1], [1, 1]]
    assert len(walk.widths) == 2
    # each uninsertion undoes, bottom up, just the rows its insertion ran
    assert undone == [2, 1, 2, 3, 2, 1, 3, 2, 1]


@pytest.mark.parametrize("return_diagram", [False, True])
def test_each_cell_calls_the_local_rule_once_through_the_module(monkeypatch, return_diagram):
    # the benchmark's tracer counts cells by rebinding these module globals
    calls = []
    for name in ("phi_with_audit", "psi_with_audit"):
        real = getattr(insertion, name)
        monkeypatch.setattr(insertion, name, lambda pair, l, name=name, real=real: calls.append(name) or real(pair, l))
    for n, l, m in list(_golden_growth_diagrams())[::10]:
        calls.clear()
        p, q = grassmannian_rsk(m, n, l, return_diagram)[:2]
        cells = m.nrows * m.ncols
        assert calls == ["phi_with_audit"] * cells
        calls.clear()
        affine_uninsert(p, q, l, return_diagram)
        assert calls == ["psi_with_audit"] * (len(q.strips) * len(p.strips))
