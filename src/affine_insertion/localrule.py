"""
The forward local rule (internal insertion Cases A/B/C, external insertion
Case X) and its inverse (Cases RA/RB/RC/RX).

A forward run turns an initial triple (W, S, e) anchored at a common inside
element into a final pair (W', S'); the reverse run recovers the triple.
Every step rebuilds its output strips through the validating constructors,
so a violated invariant raises instead of propagating a wrong answer; the
square identity x = v * t_ab of each new cover is MarkedStrongCover's own
check, which raises NotACover.  Case tags are recorded in an audit trail
for debugging and for the roundtrip tests' factorization into irreducible
step sequences.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .affperm import AffinePermutation, right_mult_transposition
from .strong import MarkedStrongCover, StrongStrip
from .weak import WeakStrip, cyclically_decreasing, cyclically_increasing, is_bad, is_nice, step_to

__all__ = [
    "CaseTag",
    "AuditStep",
    "EndpointMismatch",
    "PreconditionViolation",
    "StripFull",
    "InvalidPair",
    "InitialPair",
    "FinalPair",
    "InitialTriple",
    "commutes_initial",
    "commutes_final",
    "internal_insert",
    "external_insert",
    "reverse_insert",
    "phi",
    "phi_with_audit",
    "psi",
    "psi_with_audit",
]


class CaseTag(enum.Enum):
    A = "A"
    B = "B"
    C = "C"
    X = "X"
    RA = "RA"
    RB = "RB"
    RC = "RC"
    RX = "RX"


@dataclass(frozen=True)
class AuditStep:
    """One insertion step: which case fired, and the pair before and after."""

    case: CaseTag
    before: "FinalPair | InitialPair"
    after: "FinalPair | InitialPair"


class EndpointMismatch(ValueError):
    """Weak and strong components do not share the required endpoint."""


class PreconditionViolation(ValueError):
    """Input outside the domain of the insertion step."""


class StripFull(PreconditionViolation):
    """External insertion on a weak strip of maximal size n-1."""


class InvalidPair(ValueError):
    """An insertion state the theory rules out, or a pair (P, Q) that
    bounds no growth diagram."""


@dataclass(frozen=True)
class InitialPair:
    """Weak strip and strong strip sharing their inside element."""

    weak: WeakStrip
    strong: StrongStrip

    def __post_init__(self):
        if self.weak.inside != self.strong.inside:
            raise EndpointMismatch("initial pair must share its inside element")


@dataclass(frozen=True)
class FinalPair:
    """Weak strip and strong strip sharing their outside element."""

    weak: WeakStrip
    strong: StrongStrip

    def __post_init__(self):
        if self.weak.outside != self.strong.outside:
            raise EndpointMismatch("final pair must share its outside element")


@dataclass(frozen=True)
class InitialTriple:
    """Member of the local rule's domain: initial pair plus e external steps."""

    weak: WeakStrip
    strong: StrongStrip
    e: int

    def __post_init__(self):
        if self.weak.inside != self.strong.inside:
            raise EndpointMismatch("initial triple must share its inside element")
        if self.e < 0 or self.weak.size + self.e >= self.weak.inside.n:
            raise PreconditionViolation(
                f"need size(W) + e < n, got {self.weak.size} + {self.e} vs n={self.weak.inside.n}"
            )


def commutes_initial(weak: WeakStrip, cover: MarkedStrongCover) -> bool:
    """The initial pair (W, C) commutes iff v(i) < v(j) for v = outside(W)."""
    if weak.inside != cover.inside:
        raise EndpointMismatch("initial pair must share its inside element")
    v = weak.outside
    return v(cover.i) < v(cover.j)


def commutes_final(weak: WeakStrip, cover: MarkedStrongCover) -> bool:
    """The final pair (W', C') commutes iff u(a) > u(b) for u = inside(W')."""
    if weak.outside != cover.outside:
        raise EndpointMismatch("final pair must share its outside element")
    u = weak.inside
    return u(cover.i) > u(cover.j)


def _low_window(perm: AffinePermutation, l: int) -> list[int]:
    """The values perm(m) at the n positions m in (l - n, l], read off the
    stored window shifted by multiples of n."""
    n, win = perm.n, perm.window
    q, r = divmod(l, n)
    return [x + (q - 1) * n for x in win[r:]] + [x + q * n for x in win[:r]]


def _largest_below(value: int, bound: int, n: int) -> int:
    """Largest value - kn (k >= 0) strictly below bound."""
    if value < bound:
        return value
    return value - ((value - bound) // n + 1) * n


def _smallest_above(value: int, bound: int, n: int) -> int | None:
    """Smallest value - kn (k >= 0) strictly above bound, or None."""
    if value <= bound:
        return None
    return value - (value - bound - 1) // n * n


def _max_at_low_position(perm: AffinePermutation, pred, a_set, l: int, bound: int | None) -> int:
    """Largest q with pred(n, a_set, q) and perm^{-1}(q) <= l (and q < bound if given).

    Candidates per residue class are the window values perm(m), m in
    (l-n, l], shifted below the bound; the shift keeps the position <= l.
    """
    n = perm.n
    best = None
    for q in _low_window(perm, l):
        if bound is not None:
            q = _largest_below(q, bound, n)
        if pred(n, a_set, q) and (best is None or q > best):
            best = q
    if best is None:
        raise PreconditionViolation(
            f"no admissible integer passing {pred.__name__}; input outside the rule's domain"
        )
    return best


def _min_nice_above_at_low_position(perm: AffinePermutation, a_set, l: int, bound: int) -> int | None:
    """Smallest A-nice q > bound with perm^{-1}(q) <= l, or None (condition B)."""
    n = perm.n
    best = None
    for value in _low_window(perm, l):
        q = _smallest_above(value, bound, n)
        if q is not None and is_nice(n, a_set, q) and (best is None or q < best):
            best = q
    return best


def internal_insert(pair: FinalPair, cover: MarkedStrongCover, l: int) -> tuple[FinalPair, CaseTag]:
    """Insert the marked cover into a final pair; one forward step.

    The weak strip advances along the cover keeping its size; the strong
    strip gains exactly one cover, appended in Cases A and B, spliced in
    before the final cover in Case C.
    """
    weak, s1 = pair.weak, pair.strong
    if weak.inside != cover.inside:
        raise PreconditionViolation("internal insertion needs inside(W) = inside(C)")
    n = weak.inside.n
    a_set = weak.residues
    u = cover.outside
    v = weak.outside
    i, j = cover.i, cover.j

    if commutes_initial(weak, cover):
        # Case A: the reflection passes through untouched.
        x = right_mult_transposition(v, i, j)
        new_cover = MarkedStrongCover(v, i, j, x, l)
        out = FinalPair(WeakStrip(u, a_set, x), s1.appended(new_cover))
        return out, CaseTag.A

    p0 = u(i) - 1
    if is_bad(n, a_set, p0):
        raise PreconditionViolation("noncommuting step requires the mark's residue in A")
    a_vee = a_set - {p0 % n}

    if s1.size == 0 or s1.last.i != i:
        # Case B: bump to the largest admissible nice integer below u(j).
        q = _max_at_low_position(u, is_nice, a_vee, l, bound=u(j))
        p = step_to(n, a_vee, q, is_nice)
        a_new = a_vee | {(p - 1) % n}
        a, b = u.position_of(q), u.position_of(p)
        x = cyclically_decreasing(n, a_new) * u
        out = FinalPair(WeakStrip(u, a_new, x), s1.appended(MarkedStrongCover(v, a, b, x, l)))
        return out, CaseTag.B

    # Case C: replacement bump just before the last produced cover.
    y = s1.last.inside
    b1 = s1.last.j
    q = _max_at_low_position(y, is_bad, a_vee, l, bound=p0)
    p = step_to(n, a_vee, q, is_bad)
    a_new = a_vee | {q % n}
    am, bm = y.position_of(q), y.position_of(p)
    v_prime = right_mult_transposition(y, am, bm)
    x = cyclically_decreasing(n, a_new) * u
    spliced = StrongStrip(
        s1.inside,
        s1.covers[:-1]
        + (MarkedStrongCover(y, am, bm, v_prime, l), MarkedStrongCover(v_prime, i, b1, x, l)),
    )
    out = FinalPair(WeakStrip(u, a_new, x), spliced)
    return out, CaseTag.C


def external_insert(pair: FinalPair, l: int) -> FinalPair:
    """Case X: grow the weak strip by the best addable bad residue."""
    weak, s1 = pair.weak, pair.strong
    n = weak.inside.n
    if weak.size >= n - 1:
        raise StripFull("external insertion needs size(W) < n - 1")
    w, v, a_set = weak.inside, weak.outside, weak.residues
    q = _max_at_low_position(v, is_bad, a_set, l, bound=None)
    p = step_to(n, a_set, q, is_bad)
    a_new = a_set | {q % n}
    a, b = v.position_of(q), v.position_of(p)
    x = cyclically_decreasing(n, a_new) * w
    return FinalPair(WeakStrip(w, a_new, x), s1.appended(MarkedStrongCover(v, a, b, x, l)))


def phi_with_audit(triple: InitialTriple, l: int) -> tuple[FinalPair, tuple[AuditStep, ...]]:
    """Forward local rule: all internal insertions, then e external ones."""
    weak, strong, e = triple.weak, triple.strong, triple.e
    v = weak.outside
    pair = FinalPair(weak, StrongStrip(v, ()))
    steps: list[AuditStep] = []
    prev_i = None
    for cover in strong.covers:
        before = pair
        pair, tag = internal_insert(pair, cover, l)
        # Property (markmove): C never directly follows B, and a Case C
        # cover repeats the first index of its predecessor in the strip.
        if tag is CaseTag.C:
            if steps and steps[-1].case is CaseTag.B:
                raise InvalidPair("Case C directly after Case B")
            if prev_i != cover.i:
                raise InvalidPair("Case C without repeated first index")
        expected_commute = tag is not CaseTag.B
        if commutes_final(pair.weak, pair.strong.last) != expected_commute:
            raise InvalidPair(f"commutation status wrong after Case {tag.value}")
        steps.append(AuditStep(tag, before, pair))
        prev_i = cover.i
    for _ in range(e):
        before = pair
        pair = external_insert(pair, l)
        steps.append(AuditStep(CaseTag.X, before, pair))
    if pair.strong.size != strong.size + e:
        raise InvalidPair("output strong strip has the wrong size")
    return pair, tuple(steps)


def phi(triple: InitialTriple, l: int) -> FinalPair:
    return phi_with_audit(triple, l)[0]


def reverse_insert(pair: InitialPair, cover: MarkedStrongCover, l: int) -> tuple[InitialPair, CaseTag]:
    """Undo one forward step at the marked cover C' = (v -> x)."""
    weak, s1 = pair.weak, pair.strong
    if weak.outside != cover.outside:
        raise PreconditionViolation("reverse insertion needs outside(W') = outside(C')")
    n = weak.inside.n
    u = weak.inside
    a_set = weak.residues
    v = cover.inside
    a, b = cover.i, cover.j

    if commutes_final(weak, cover):
        # Case RA
        w = cyclically_increasing(n, a_set) * v
        new_cover = MarkedStrongCover(w, a, b, u, l)
        return InitialPair(WeakStrip(w, a_set, v), s1.prepended(new_cover)), CaseTag.RA

    if is_nice(n, a_set, u(b)):
        raise InvalidPair("noncommuting reverse step requires the bumped residue in A'")
    a_vee = a_set - {(u(b) - 1) % n}

    q_b = _min_nice_above_at_low_position(u, a_vee, l, bound=u(b))
    q_c = None
    if s1.size > 0:
        j1 = s1.first.j
        if is_nice(n, a_vee, u(j1)):
            q_c = u(j1)
    if q_b is not None and q_c is not None and q_b == q_c:
        raise InvalidPair("conditions B and C cannot select the same integer")

    if q_b is None and s1.size == 0:
        # Case RX: strike the grown residue, leave the strong side alone.
        return InitialPair(WeakStrip(u, a_vee, v), s1), CaseTag.RX

    if q_b is not None and (q_c is None or q_b < q_c):
        # Case RB
        q = q_b
        p = step_to(n, a_vee, q, is_nice, -1)
        a_new = a_vee | {(q - 1) % n}
        i, j = u.position_of(q), u.position_of(p)
        w = cyclically_increasing(n, a_new) * v
        new_cover = MarkedStrongCover(w, i, j, u, l)
        return InitialPair(WeakStrip(w, a_new, v), s1.prepended(new_cover)), CaseTag.RB

    if q_c is not None:
        # Case RC
        q = q_c
        p = step_to(n, a_vee, q, is_nice, -1)
        a_new = a_vee | {(q - 1) % n}
        i1, j1 = s1.first.i, s1.first.j
        z = s1.first.outside
        j_plus = z.position_of(p)
        u_prime = right_mult_transposition(z, i1, j_plus)
        w = cyclically_increasing(n, a_new) * v
        spliced = StrongStrip(
            w,
            (MarkedStrongCover(w, i1, j1, u_prime, l), MarkedStrongCover(u_prime, i1, j_plus, z, l))
            + s1.covers[1:],
        )
        return InitialPair(WeakStrip(w, a_new, v), spliced), CaseTag.RC

    raise InvalidPair("neither condition B nor condition C holds with a nonempty strip")


def psi_with_audit(final: FinalPair, l: int) -> tuple[InitialTriple, tuple[AuditStep, ...]]:
    """Reverse local rule: process the covers of S' from last to first."""
    weak, strong = final.weak, final.strong
    u = weak.inside
    pair = InitialPair(weak, StrongStrip(u, ()))
    steps: list[AuditStep] = []
    for cover in reversed(strong.covers):
        before = pair
        pair, tag = reverse_insert(pair, cover, l)
        if tag is CaseTag.RC and steps and steps[-1].case is CaseTag.RB:
            raise InvalidPair("Case RC directly after Case RB")
        steps.append(AuditStep(tag, before, pair))
    if pair.weak.outside != strong.inside:
        raise InvalidPair("reverse run did not land on inside(S')")
    e = strong.size - pair.strong.size
    if e != sum(1 for s in steps if s.case is CaseTag.RX):
        raise InvalidPair("external count disagrees with the RX tally")
    triple = InitialTriple(pair.weak, pair.strong, e)
    return triple, tuple(steps)


def psi(final: FinalPair, l: int) -> InitialTriple:
    return psi_with_audit(final, l)[0]
