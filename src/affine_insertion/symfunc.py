"""
Degree-truncated weight generating functions: strong and weak Schur
functions, k-Schur monomial expansions (plain and spin-graded), the affine
Cauchy identity, the four Pieri rules, and basis expansions.

Nothing here manipulates infinitely many variables.  A generating function
is held either as a WeightPolynomial (counts per positive weight
composition; zero parts force trivial strips and are stripped) or as a
SymPolynomial (integer coefficients on monomial symmetric functions).
Identity checks compare coefficients composition by composition, which is
exact power-series equality and needs no symmetry assumption.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod

from .affperm import MEMO_SIZE, AffinePermutation, identity
from .chains import weight_table
from .cores import NotBounded, core_of_bounded, grassmannian_of, grassmannians_by_length, partitions, spin_strip
from .strong import count_strong_tableaux, strong_strips_from, strong_weight_table
from .weak import (
    count_weak_tableaux,
    dual_weak_strips_from,
    weak_order_lower,
    weak_order_upper,
    weak_strips_from,
    weak_weight_table,
)

__all__ = [
    "SingularSystem",
    "DegreeOverflow",
    "NotBounded",
    "NotSymmetric",
    "compositions",
    "count_matrices",
    "WeightPolynomial",
    "SymmetryReport",
    "SymPolynomial",
    "SpinPolynomial",
    "h_poly",
    "e_poly",
    "strong_weight_function",
    "weak_weight_function",
    "strong_schur",
    "weak_schur",
    "k_schur",
    "k_schur_spin",
    "CauchyReport",
    "cauchy_check",
    "PieriReport",
    "pieri_checks",
    "expand_in_basis",
    "structure_constants",
]


class SingularSystem(ValueError):
    """Basis expansion hit a rank-deficient or inconsistent system."""


class DegreeOverflow(ValueError):
    """Requested computation exceeds the degree bound."""


class NotSymmetric(ValueError):
    """A generating function that must be symmetric is not."""


def compositions(total: int):
    """Positive integer compositions of total."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


@lru_cache(maxsize=MEMO_SIZE)
def count_matrices(rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    """Nonnegative integer matrices with the given row and column sums.

    The count does not change when the columns are permuted or empty ones
    dropped, so the recursion passes the remaining column sums sorted in
    decreasing order without zeros, and equal states share one memo entry.
    """
    if sum(rows) != sum(cols):
        return 0
    if not rows:
        return 1
    first, rest = rows[0], rows[1:]
    total = 0
    for split in _bounded_vectors(cols, first):
        left = sorted((c - g for c, g in zip(cols, split) if c != g), reverse=True)
        total += count_matrices(rest, tuple(left))
    return total


def _bounded_vectors(bounds: tuple[int, ...], total: int):
    """Nonnegative vectors below bounds componentwise with the given sum."""
    if not bounds:
        if total == 0:
            yield ()
        return
    for first in range(min(bounds[0], total) + 1):
        for rest in _bounded_vectors(bounds[1:], total - first):
            yield (first,) + rest


@dataclass(frozen=True)
class SymmetryReport:
    symmetric: bool
    failures: tuple[tuple[tuple[int, ...], tuple[int, ...], int, int], ...] = ()
    # each failure: (partition, offending composition, count at partition, count there)


@dataclass(frozen=True)
class WeightPolynomial:
    """Counts per positive weight composition, all of one total degree."""

    degree: int
    coeffs: dict[tuple[int, ...], int]

    def __getitem__(self, comp) -> int:
        key = tuple(c for c in comp if c)
        return self.coeffs.get(key, 0)

    def symmetry_report(self) -> SymmetryReport:
        """Does every composition of the degree carry the count of the
        partition it sorts to?  Checked key by key; the rearrangements of
        every partition are enumerated only when that check fails, to list
        each failure (partition, offending composition, count at partition,
        count there) in the order of partitions(degree) and _distinct_perms.
        Keys of another degree or with a zero part are ignored."""
        # Symmetric if every nonzero key carries the value of its sorted key
        # and each partition reached is reached by as many nonzero keys as it
        # has distinct rearrangements.  Those keys are distinct and share its
        # multiset, so every rearrangement of a reached partition is a
        # nonzero key holding the partition's value.  A partition reached by
        # no nonzero key has no nonzero rearrangement (such a key would have
        # reached it), so it and all its rearrangements read 0.  A key of
        # another degree or with a zero part reaches no partition of the
        # degree: it can only send the table to the enumeration, which
        # ignores it.
        coeffs, reached = self.coeffs, Counter()
        for key, c in coeffs.items():
            if c:
                lam = tuple(sorted(key, reverse=True))
                if coeffs.get(lam, 0) != c:
                    break
                reached[lam] += 1
        else:
            if all(k == _rearrangements(lam) for lam, k in reached.items()):
                return SymmetryReport(True)
        failures = []
        for lam in partitions(self.degree):
            base = self.coeffs.get(lam, 0)
            for comp in _distinct_perms(lam):
                got = self.coeffs.get(comp, 0)
                if got != base:
                    failures.append((lam, comp, base, got))
        return SymmetryReport(not failures, tuple(failures))

    def to_monomial(self) -> SymPolynomial:
        return SymPolynomial(
            self.degree,
            {lam: c for lam, c in self.coeffs.items() if tuple(sorted(lam, reverse=True)) == lam and c},
        )


@dataclass(frozen=True)
class SymPolynomial:
    """Integer combination of monomial symmetric functions up to a degree."""

    degree: int
    coeffs: dict[tuple[int, ...], int]

    def __post_init__(self):
        cleaned = {}
        for lam, c in self.coeffs.items():
            lam = tuple(lam)
            if sum(lam) > self.degree:
                raise DegreeOverflow(f"{lam} exceeds degree bound {self.degree}")
            if c:
                cleaned[lam] = c
        object.__setattr__(self, "coeffs", cleaned)

    def __add__(self, other: SymPolynomial) -> SymPolynomial:
        out = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            out[lam] = out.get(lam, 0) + c
        return SymPolynomial(max(self.degree, other.degree), out)

    def __getitem__(self, comp) -> int:
        """[x^comp]: the coefficient of the partition that sorts comp."""
        return self.coeffs.get(tuple(sorted((c for c in comp if c), reverse=True)), 0)

    def __mul__(self, other: SymPolynomial) -> SymPolynomial:
        """Product read off partition by partition: [m_lam] = [x^lam]."""
        return SymPolynomial(self.degree + other.degree, _merged_product(self, other))

    def truncate_bounded(self, n: int) -> SymPolynomial:
        """Image in the quotient dropping m_lam with lam_1 >= n."""
        return SymPolynomial(self.degree, {l: c for l, c in self.coeffs.items() if not l or l[0] < n})

    def homogeneous_piece(self, d: int) -> dict[tuple[int, ...], int]:
        return {l: c for l, c in self.coeffs.items() if sum(l) == d}

    def __eq__(self, other) -> bool:
        return isinstance(other, SymPolynomial) and self.coeffs == other.coeffs


def _rearrangements(lam: tuple[int, ...]) -> int:
    """Number of distinct rearrangements of lam: len(lam)! / prod(m_i!)."""
    return factorial(len(lam)) // prod(factorial(m) for m in Counter(lam).values())


def _distinct_perms(items: tuple[int, ...]):
    if not items:
        yield ()
        return
    seen = set()
    for k, x in enumerate(items):
        if x in seen:
            continue
        seen.add(x)
        for rest in _distinct_perms(items[:k] + items[k + 1 :]):
            yield (x,) + rest


def _merged_product(g: SymPolynomial, f: SymPolynomial | WeightPolynomial) -> Counter:
    """[x^alpha] (g * f) for every alpha reached.  Each part of alpha is the
    next part of a key beta of f, that part plus a part of a key mu of g, or
    a part of mu alone; parts of mu are drawn by value, so each alpha - beta'
    (beta' = beta with zeros inserted) is reached once.  A SymPolynomial f is
    read by partition, its parts drawn like mu's, and only partitions alpha
    are produced; equal states (alpha so far, parts left) merge as they grow."""
    symmetric, out = isinstance(f, SymPolynomial), Counter()
    level = {((), beta, mu): cf * cg for beta, cf in f.coeffs.items() for mu, cg in g.coeffs.items()}
    while level:
        grown = defaultdict(int)
        for (alpha, beta, mu), c in level.items():
            if not beta and not mu:
                out[alpha] = c
            for m, mu_rest in _draws(mu, len(mu)):
                for b, beta_rest in _draws(beta, len(beta) if symmetric else 1):
                    if b + m and not (symmetric and alpha and b + m > alpha[-1]):
                        grown[alpha + (b + m,), beta_rest, mu_rest] += c
        level = grown
    return out


def _draws(parts: tuple[int, ...], k: int) -> list[tuple[int, tuple[int, ...]]]:
    """(0, parts), then (x, parts less one x) for each distinct x of parts[:k]."""
    return [(0, parts)] + [(x, parts[:i] + parts[i + 1 :]) for i, x in enumerate(parts[:k]) if x not in parts[:i]]


def h_poly(r: int) -> SymPolynomial:
    """Complete homogeneous h_r = sum of all m_lam with |lam| = r."""
    return SymPolynomial(r, {lam: 1 for lam in partitions(r)})


def e_poly(r: int) -> SymPolynomial:
    """Elementary e_r = m_(1^r)."""
    return SymPolynomial(r, {(1,) * r: 1})


def _weight_function(table, u: AffinePermutation, v: AffinePermutation, *extra) -> WeightPolynomial:
    """Counts of tableaux of shape u/v per weight composition, in the
    lexicographic order of compositions(d), in a dict of its own (the
    table is the memo's)."""
    d = u.length - v.length
    if d < 0:
        return WeightPolynomial(0, {})
    return WeightPolynomial(d, dict(sorted(table(v, u, *extra).items())))


def strong_weight_function(u: AffinePermutation, v: AffinePermutation, l: int) -> WeightPolynomial:
    """Counts of strong tableaux of shape u/v per weight composition."""
    return _weight_function(strong_weight_table, u, v, l)


def weak_weight_function(u: AffinePermutation, v: AffinePermutation) -> WeightPolynomial:
    """Counts of weak tableaux of shape u/v per weight composition."""
    return _weight_function(weak_weight_table, u, v)


def strong_schur(
    u: AffinePermutation, v: AffinePermutation, l: int = 0
) -> tuple[SymPolynomial, SymmetryReport]:
    """Monomial expansion of the strong Schur function with symmetry report.

    Symmetry is a theorem for Grassmannian shapes over the identity and a
    conjecture in general, so the report is returned instead of asserted.
    """
    wf = strong_weight_function(u, v, l)
    return wf.to_monomial(), wf.symmetry_report()


def _symmetric_monomial(wf: WeightPolynomial, what: str) -> SymPolynomial:
    """Monomial expansion of a function whose symmetry is a theorem;
    raise NotSymmetric if the counts say otherwise."""
    report = wf.symmetry_report()
    if not report.symmetric:
        raise NotSymmetric(f"{what} is not symmetric; failures {report.failures[:3]}")
    return wf.to_monomial()


def weak_schur(u: AffinePermutation, v: AffinePermutation) -> SymPolynomial:
    """Monomial expansion of the weak Schur function; symmetry is checked."""
    return _symmetric_monomial(weak_weight_function(u, v), "weak Schur function")


def _grassmannian_from_bounded(b, n: int) -> AffinePermutation:
    b = tuple(b)
    if b and b[0] >= n:
        raise NotBounded(f"{b} is not {n}-bounded")
    return grassmannian_of(core_of_bounded(b, n), n)


def k_schur(b, n: int) -> SymPolynomial:
    """Monomial expansion of the k-Schur function of an n-bounded partition,
    as the strong Schur function of its Grassmannian element (k = n-1)."""
    u = _grassmannian_from_bounded(b, n)
    return _symmetric_monomial(strong_weight_function(u, identity(n), 0), f"k-Schur function of {b}")


@dataclass(frozen=True)
class SpinPolynomial:
    """Coefficients on pairs (partition, spin)."""

    degree: int
    coeffs: dict[tuple[tuple[int, ...], int], int]

    def collapse(self) -> SymPolynomial:
        """Set t = 1: forget the spin grading."""
        out: dict[tuple[int, ...], int] = {}
        for (lam, _spin), c in self.coeffs.items():
            out[lam] = out.get(lam, 0) + c
        return SymPolynomial(self.degree, out)


def k_schur_spin(b, n: int) -> SpinPolynomial:
    """Spin-graded monomial expansion: strong tableaux graded by spin."""
    u, e = _grassmannian_from_bounded(b, n), identity(n)
    table = weight_table(strong_strips_from, (0,), e, u, spin_strip)
    return SpinPolynomial(
        u.length, {(lam, spin): c for (lam, spin), c in table.items() if tuple(sorted(lam, reverse=True)) == lam}
    )


@dataclass(frozen=True)
class CauchyReport:
    ok: bool
    checked: int
    mismatches: tuple = ()


def _omega_coefficient(n: int, alpha: tuple[int, ...], beta: tuple[int, ...]) -> int:
    """[x^alpha y^beta] of the affine Cauchy kernel: matrices with row sums
    beta (each part < n forced by the kernel) and column sums alpha."""
    if any(b >= n for b in beta):
        return 0
    return count_matrices(beta, alpha)


def cauchy_check(
    n: int,
    l: int = 0,
    dx: int = 3,
    vy: int = 2,
    u: AffinePermutation | None = None,
    v: AffinePermutation | None = None,
) -> CauchyReport:
    """Coefficientwise check of the (generalized) affine Cauchy identity.

    Compares [x^alpha y^beta] of Omega_n(x,y) * sum_w Strong_{u/w} Weak_{v/w}
    against sum_z Strong_{z/v} Weak_{z/u}, for |alpha| <= dx over
    dx x-variables and vy y-variables.  u = v = id gives the plain identity.
    """
    u = u if u is not None else identity(n)
    v = v if v is not None else identity(n)
    px = max(dx, 1)

    alphas = [a for total in range(dx + 1) for a in _bounded_vectors((total,) * px, total)]
    betas = [b for total in range(vy * (n - 1) + 1) for b in _bounded_vectors((n - 1,) * vy, total)]

    ws = [w for w in weak_order_lower(v) if w.length <= u.length]
    f_coeffs: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for w in ws:
        da, db = u.length - w.length, v.length - w.length
        if da < 0 or da > dx or db > vy * (n - 1):
            continue
        for alpha in alphas:
            if sum(alpha) != da:
                continue
            ca = count_strong_tableaux(w, u, alpha, l)
            if not ca:
                continue
            for beta in betas:
                if sum(beta) != db:
                    continue
                cb = count_weak_tableaux(w, v, beta)
                if cb:
                    f_coeffs[(alpha, beta)] = f_coeffs.get((alpha, beta), 0) + ca * cb

    max_z = min(v.length + dx, u.length + vy * (n - 1))
    zs = [z for z in weak_order_upper(u, max(0, max_z - u.length)) if z.length >= v.length]

    # the lhs terms grouped by their alpha-part, the z's by their length gaps
    # over v and over u, so each alpha filters them once for all betas
    f_by_alpha: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for (a1, b1), cf in f_coeffs.items():
        f_by_alpha.setdefault(a1, []).append((b1, cf))
    zs_by_gaps: dict[tuple[int, int], list[AffinePermutation]] = {}
    for z in zs:
        zs_by_gaps.setdefault((z.length - v.length, z.length - u.length), []).append(z)

    checked = 0
    mismatches = []
    for alpha in alphas:
        da = sum(alpha)
        terms = [
            (tuple(x - y for x, y in zip(alpha, a1)), b1, cf)
            for a1, group in f_by_alpha.items()
            if all(x >= y for x, y in zip(alpha, a1))
            for b1, cf in group
        ]
        for beta in betas:
            lhs = 0
            for a2, b1, cf in terms:
                if all(x >= y for x, y in zip(beta, b1)):
                    lhs += cf * _omega_coefficient(n, a2, tuple(x - y for x, y in zip(beta, b1)))
            rhs = 0
            for z in zs_by_gaps.get((da, sum(beta)), ()):
                if cs := count_strong_tableaux(v, z, alpha, l):
                    rhs += cs * count_weak_tableaux(u, z, beta)
            checked += 1
            if lhs != rhs:
                mismatches.append((alpha, beta, lhs, rhs))
    return CauchyReport(not mismatches, checked, tuple(mismatches))


@dataclass(frozen=True)
class PieriReport:
    ok: bool
    variant: str
    degree: int
    mismatches: tuple = ()


def pieri_checks(n: int, l: int, w: AffinePermutation, r: int) -> dict[str, PieriReport]:
    """Verify all four Pieri rules at w for one r, composition by composition
    over the union of the keys of lhs and rhs, in lexicographic order.

    strong:      h_r * Strong_w = sum over weak strips w -> z of Strong_z
    dual strong: e_r * Strong_w = sum over dual weak strips
    weak:        h_r * Weak_w   = sum over strong strips from w   (in the
                 bounded quotient: compositions with all parts < n)
    dual weak:   e_r * Weak_w   = sum over strong strips from w^{-1},
                 outsides inverted (bounded quotient)
    """
    if not 1 <= r <= n - 1:
        raise ValueError(f"the Pieri rules need 1 <= r <= n - 1 = {n - 1}, got r = {r}")
    e = identity(n)
    d = w.length + r
    strong_w = strong_weight_function(w, e, l)
    weak_w = weak_weight_function(w, e)

    h_r, e_r = h_poly(r), e_poly(r)
    # (name, base, multiplier, bounded quotient, targets), in the order reported
    rules = [
        ("strong", strong_w, h_r, False,
         [strong_weight_function(s.outside, e, l) for s in weak_strips_from(w, r)]),
        ("dual_strong", strong_w, e_r, False,
         [strong_weight_function(s.outside, e, l) for s in dual_weak_strips_from(w, r)]),
        ("weak", weak_w, h_r, True,
         [weak_weight_function(s.outside, e) for s in strong_strips_from(w, r, l)]),
        ("dual_weak", weak_w, e_r, True,
         [weak_weight_function(s.outside.inverse(), e) for s in strong_strips_from(w.inverse(), r, l)]),
    ]
    reports = {}
    for name, base, g, bounded, targets in rules:
        lhs, rhs = _merged_product(g, base), sum((Counter(t.coeffs) for t in targets), Counter())
        keys = sorted(alpha for alpha in lhs.keys() | rhs.keys() if not (bounded and any(a >= n for a in alpha)))
        mism = tuple((alpha, lhs[alpha], rhs[alpha]) for alpha in keys if lhs[alpha] != rhs[alpha])
        reports[name] = PieriReport(not mism, name, d, mism)
    return reports


def _basis_function(basis: str, n: int, l: int):
    """w -> monomial expansion of the strong or the weak Schur function of w."""
    if basis == "strong":
        return lambda w: strong_schur(w, identity(n), l)[0]
    if basis == "weak":
        return lambda w: weak_schur(w, identity(n))
    raise ValueError(f"unknown basis {basis!r}")


def expand_in_basis(
    f: SymPolynomial, basis: str, n: int, l: int = 0
) -> dict[AffinePermutation, int]:
    """Expand f over the strong (k-Schur) or weak (affine Schur) basis.

    The strong basis spans the subring generated by h_1..h_{n-1}; the weak
    basis spans the bounded quotient, where f is first truncated.

    Both bases are unitriangular in monomials under lexicographic order, so
    f is reduced by leading terms in integers.  The weak Schur function of
    the Grassmannian element of lam is m_lam plus lex-smaller terms.  The
    k-Schur function of lam is s_lam plus Schur functions of partitions
    dominating lam, and omega maps it to the k-Schur function of the
    k-conjugate lam^{omega_k} (both Lapointe-Morse); so, applying omega,
    the k-Schur function of lam leads with m_{(lam^{omega_k})'}.  Each
    leading term is checked here rather than assumed: a zero function (the
    strong basis at l != 0), a leading coefficient other than 1, a shared
    leading partition, or an f outside the span raises SingularSystem.

    >>> expand_in_basis(h_poly(2), "strong", 3)
    {AffinePermutation(3, [0, 1, 5]): 1}
    """
    schur = _basis_function(basis, n, l)
    if basis == "weak":
        f = f.truncate_bounded(n)
    out: dict[AffinePermutation, int] = {}
    for d in sorted({sum(lam) for lam in f.coeffs}):
        elements = grassmannians_by_length(n, d)
        leaders: dict[tuple[int, ...], tuple[AffinePermutation, SymPolynomial]] = {}
        for w in elements:
            vec = schur(w)
            lead = max(vec.coeffs, default=None)
            if lead is None or vec.coeffs[lead] != 1 or lead in leaders:
                raise SingularSystem(f"the basis function of {w} has no unitriangular leading term")
            leaders[lead] = (w, vec)
        rest, coeffs = f.homogeneous_piece(d), {}
        while rest:
            lead = max(rest)
            if lead not in leaders:
                raise SingularSystem(f"input outside the span: m_{lead} leads no basis function")
            w, vec = leaders[lead]
            c = coeffs[w] = rest[lead]
            for lam, x in vec.coeffs.items():
                rest[lam] = rest.get(lam, 0) - c * x
            rest = {lam: x for lam, x in rest.items() if x}
        out.update((w, coeffs[w]) for w in elements if w in coeffs)
    return out


def structure_constants(
    u: AffinePermutation, v: AffinePermutation, basis: str, n: int, l: int = 0
) -> dict[AffinePermutation, int]:
    """Schubert structure constants by expanding a product of basis elements."""
    schur = _basis_function(basis, n, l)
    return expand_in_basis(schur(u) * schur(v), basis, n, l)
