"""
Verification suites behind the `verify` subcommand and the acceptance tests.

Each suite returns a VerifyResult whose `ok` reflects only theorem-backed
assertions; conjectural observations go into `reports` and never fail.

A suite's signature is its declaration: `affins verify <suite>` takes `--n`
and one flag per later parameter, with its default (`max_len` is `--max`).
"""

from __future__ import annotations

import inspect
import itertools
import math
import random
from dataclasses import dataclass, field

from .affperm import AffinePermutation, elements_by_length, identity, rotate, simple_reflection
from .insertion import BoundedMatrix, affine_uninsert, classical_rsk, grassmannian_rsk
from .localrule import InitialTriple, phi_with_audit, psi_with_audit
from .strong import count_standard_strong, strong_strips_from
from .cores import (
    core_of,
    core_of_bounded,
    grassmannian_of,
    grassmannians_by_length,
    strong_tableau_filling,
    weak_tableau_filling,
)



from .weak import count_standard_weak, weak_strips_from
from .symfunc import NotSymmetric, _bounded_vectors, cauchy_check, pieri_checks, strong_schur, weak_schur

__all__ = ["VerifyResult", "SUITES", "run_suite"]


@dataclass
class VerifyResult:
    ok: bool
    lines: list[str] = field(default_factory=list)
    reports: list[str] = field(default_factory=list)
    counterexample: str | None = None

    def fail(self, message: str) -> None:
        self.ok = False
        if self.counterexample is None:
            self.counterexample = message
        self.lines.append("FAIL " + message)


def _roundtrip_case(triple: InitialTriple, l: int) -> str | None:
    out, _ = phi_with_audit(triple, l)
    back, _ = psi_with_audit(out, l)
    if back != triple:
        return f"roundtrip broke at {triple}"
    return None


def verify_roundtrip(n: int, max_len: int = 3, l: int = 0, samples: int = 0, seed: int = 0) -> VerifyResult:
    """psi(phi(.)) = id exhaustively; optionally also on random samples."""
    strip_max = e_max = 2  # largest strip size and excitation in a triple
    res = VerifyResult(True)
    cases = []
    for lvl in elements_by_length(n, max_len):
        for w in lvl:
            weaks = [s for r in range(strip_max + 1) for s in weak_strips_from(w, r)]
            strongs = [s for r in range(strip_max + 1) for s in strong_strips_from(w, r, l)]
            for wk in weaks:
                for st in strongs:
                    for e in range(e_max + 1):
                        if wk.size + e < n:
                            cases.append(InitialTriple(wk, st, e))
    failures = [msg for t in cases if (msg := _roundtrip_case(t, l))]
    for msg in failures[:3]:
        res.fail(msg)
    res.lines.append(f"exhaustive roundtrip: {len(cases)} triples, n={n}, length<={max_len}")
    if samples:
        rng = random.Random(seed)
        sampled = [_random_triple(n, l, rng, max_len, strip_max, e_max) for _ in range(samples)]
        failures = [msg for t in sampled if (msg := _roundtrip_case(t, l))]
        for msg in failures[:3]:
            res.fail(msg)
        res.lines.append(f"sampled roundtrip: {samples} triples, seed={seed}")
    return res


def _random_element(n: int, rng: random.Random, max_len: int) -> AffinePermutation:
    w = identity(n)
    target = rng.randrange(max_len + 1)
    guard = 0
    while w.length < target and guard < 10 * max_len:
        r = rng.randrange(n)
        if not w.has_right_descent(r):
            w = w * simple_reflection(n, r)
        guard += 1
    return w


def _random_triple(n, l, rng, max_len, strip_max, e_max) -> InitialTriple:
    while True:
        w = _random_element(n, rng, max_len)
        weaks = [s for r in range(strip_max + 1) for s in weak_strips_from(w, r)]
        strongs = [s for r in range(strip_max + 1) for s in strong_strips_from(w, r, l)]
        wk = rng.choice(weaks)
        st = rng.choice(strongs)
        es = [e for e in range(e_max + 1) if wk.size + e < n]
        if es:
            return InitialTriple(wk, st, rng.choice(es))


def verify_global_roundtrip(n: int, dim: int = 2, total: int = 3, l: int = 0) -> VerifyResult:
    """Insert and uninsert every n-bounded dim x dim matrix with entry sum
    at most total; affine_insert itself checks the weight identities."""
    res = VerifyResult(True)
    count = 0
    for m in _bounded_matrices(n, dim, total):
        p, q = grassmannian_rsk(m, n, l)
        t, u, m2 = affine_uninsert(p, q, l)
        if m2 != m or t.strips or u.strips:
            res.fail(f"global roundtrip broke at {m.to_rows()}")
            break
        count += 1
    res.lines.append(f"global bijection: {count} matrices, n={n}, {dim}x{dim}, total<={total}")
    return res


def _bounded_matrices(n: int, dim: int, total: int):
    """dim x dim matrices with row sums below n and entry sum at most total,
    in lexicographic order of their rows."""

    def fill(rows, remaining):
        if len(rows) == dim:
            yield BoundedMatrix.from_rows(rows)
            return
        cap = min(remaining, n - 1)
        # a slack coordinate makes the row sums range over 0..cap
        for row in _bounded_vectors((cap,) * (dim + 1), cap):
            yield from fill(rows + [row[:-1]], remaining - cap + row[-1])

    yield from fill([], total)


def verify_counts(n: int, max_m: int = 4, l: int = 0) -> VerifyResult:
    """Factorial identity, and for n = 2, 3 the closed-form tableau counts, at l-Grassmannian w."""
    if max_m < 1:
        raise ValueError(f"counts needs --max-m >= 1, got {max_m}")
    res = VerifyResult(True)
    for m in range(1, max_m + 1):
        total = sum(
            count_standard_strong(w, l) * count_standard_weak(w)
            for w in (rotate(w0, l) for w0 in grassmannians_by_length(n, m))
        )
        ok = total == math.factorial(m)
        if not ok:
            res.fail(f"sum f_strong*f_weak = {total} != {m}! at m={m}")
        res.lines.append(f"m={m}: sum f_strong*f_weak = {total} {'=' if ok else '!='} {m}!")
    if n == 2:
        for m in range(1, max_m + 1):
            (w,) = (rotate(w0, l) for w0 in grassmannians_by_length(2, m))
            if count_standard_weak(w) != 1 or count_standard_strong(w, l) != math.factorial(m):
                res.fail(f"n=2 closed form broke at m={m}")
        res.lines.append("n=2 closed forms: f_weak = 1, f_strong = m!")
    if n == 3:
        for m in range(1, max_m + 1):
            for el in range(m // 2 + 1):
                b = (2,) * el + (1,) * (m - 2 * el)
                w = rotate(grassmannian_of(core_of_bounded(b, 3), 3), l)
                if count_standard_weak(w) != math.comb(m // 2, el):
                    res.fail(f"n=3 weak closed form broke at m={m}, l={el}")
                if count_standard_strong(w, l) != math.factorial(m) // 2 ** (m // 2):
                    res.fail(f"n=3 strong closed form broke at m={m}, l={el}")
        res.lines.append("n=3 closed forms: binom(floor(m/2), l) and m!/2^floor(m/2)")
    return res


def verify_cauchy(n: int, dx: int = 3, vy: int = 2, l: int = 0) -> VerifyResult:
    """The affine Cauchy identity, coefficientwise, for |alpha| <= dx and vy y-variables."""
    res = VerifyResult(True)
    rep = cauchy_check(n, l, dx, vy)
    if not rep.ok:
        res.fail(f"Cauchy identity mismatches: {rep.mismatches[:3]}")
    res.lines.append(f"plain Cauchy: {rep.checked} coefficients, n={n}, dx={dx}, vy={vy}")
    return res


def verify_pieri(n: int, l: int = 0, max_len: int = 3, rmax: int | None = None) -> VerifyResult:
    """The Pieri rules at each Grassmannian w of length <= max_len, r = 1..rmax (default min(2, n - 1))."""
    rmax = min(2, n - 1) if rmax is None else rmax
    if not 1 <= rmax <= n - 1:
        raise ValueError(f"the Pieri rules need 1 <= r <= n - 1 = {n - 1}, got rmax = {rmax}")
    res = VerifyResult(True)
    checked = 0
    for d in range(max_len + 1):
        for w in grassmannians_by_length(n, d):
            for r in range(1, rmax + 1):
                for name, rep in pieri_checks(n, l, w, r).items():
                    if not rep.ok:
                        res.fail(f"{name} Pieri broke at w={w}, r={r}: {rep.mismatches[:3]}")
                    checked += 1
    res.lines.append(f"pieri: {checked} (w, r, variant) checks, n={n}, lengths<={max_len}")
    return res


def verify_rsk_limit(n: int, entries: int = 1, dim: int = 2) -> VerifyResult:
    """grassmannian_rsk at large n equals classical row-insertion RSK.

    The limit is claimed where every shape is an n-core.  A matrix here has
    at most entries * dim**2 cells, and every partition with fewer than n
    cells is an n-core, so n must exceed entries * dim**2.
    """
    if entries < 1 or dim < 1:
        raise ValueError(f"rsk-limit needs --entries >= 1 and --dim >= 1, got {entries} and {dim}")
    if n <= entries * dim * dim:
        raise ValueError(f"rsk-limit needs --n > entries * dim^2 = {entries * dim * dim}, got {n}")
    res = VerifyResult(True)
    count = 0
    for values in itertools.product(range(entries + 1), repeat=dim * dim):
        m = BoundedMatrix.from_rows([values[k * dim : (k + 1) * dim] for k in range(dim)])
        if not m.entries:
            continue
        p, q = grassmannian_rsk(m, n, 0)
        p_rows = _filling_rows(strong_tableau_filling(p), core_of(p.outside), strong=True)
        q_rows = _filling_rows(weak_tableau_filling(q), core_of(q.outside), strong=False)
        cp, cq = classical_rsk(m)
        if p_rows != cp or q_rows != cq:
            res.fail(f"limit RSK broke at {m.to_rows()}")
            break
        count += 1
    res.lines.append(f"rsk-limit: {count} matrices, n={n}, {dim}x{dim}, entries<={entries}")
    return res


def _filling_rows(fill, shape, strong: bool) -> list[list[int]]:
    rows = []
    for i in range(1, len(shape) + 1):
        row = []
        for j in range(1, shape[i - 1] + 1):
            val = fill[(i, j)]
            row.append(val[0] if strong else val)
        rows.append(row)
    return rows


def verify_symmetry(n: int, max_len: int = 3, l: int = 0) -> VerifyResult:
    """Weak symmetry and Grassmannian strong symmetry are asserted; the
    symmetry of general skew strong Schur functions is only reported."""
    res = VerifyResult(True)
    for d in range(max_len + 1):
        for w in grassmannians_by_length(n, d):
            try:
                weak_schur(w, identity(n))
            except NotSymmetric:
                res.fail(f"weak Schur not symmetric at {w}")
            _, rep = strong_schur(w, identity(n), l)
            if not rep.symmetric:
                res.fail(f"Grassmannian strong Schur not symmetric at {w}")
    res.lines.append(f"weak + Grassmannian strong symmetry asserted through length {max_len}")
    sym = bad = zero = 0
    levels = elements_by_length(n, max_len)
    for lvl in levels:
        for u in lvl:
            if u.length < 2:
                continue
            for v in levels[u.length - 2]:
                poly, rep = strong_schur(u, v, l)
                if not rep.symmetric:
                    bad += 1
                elif poly.coeffs:
                    sym += 1
                else:  # symmetric with no partition coefficient: the zero function
                    zero += 1
    res.reports.append(
        f"REPORT conjectured symmetry of skew strong Schur functions: "
        f"{sym} symmetric, {bad} not symmetric, {zero} zero at n={n}, lengths<={max_len}"
    )
    return res


SUITES = {
    "roundtrip": verify_roundtrip,
    "cauchy": verify_cauchy,
    "pieri": verify_pieri,
    "counts": verify_counts,
    "rsk-limit": verify_rsk_limit,
    "symmetry": verify_symmetry,
    "global-roundtrip": verify_global_roundtrip,
}


def run_suite(name: str, args) -> VerifyResult:
    """Run suite `name` on the attributes of `args` that its signature names."""
    suite = SUITES[name]
    return suite(**{p: getattr(args, p) for p in inspect.signature(suite).parameters})
