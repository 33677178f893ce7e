"""
The forward local rule (internal insertion Cases A/B/C, external insertion
Case X) and its inverse (Cases RA/RB/RC/RX).

A forward run turns an initial triple (W, S, e) anchored at a common inside
element into a final pair (W', S'); the reverse run recovers the triple.
Every step builds its new strips and covers through the validating
constructors, so a violated invariant raises instead of propagating a wrong
answer.  The one exception is a cover the step was given: with an empty
weak strip, Cases A and RA hand it on as it is when it is marked at l,
since the rebuilt cover would be equal field for field.  Both directions
read each new corner off the strong side, and the square identity is
WeakStrip's check (InvalidStrip).  Going forward a new cover derives its
outside x = v * t_ab (outside None), skipping only the comparison that is
true by construction, and the strip (u, A', x) checks c_A' * u = x.  Going
back a new cover derives its inside w = u * t_ab (inside None), skipping
only the comparison w * t_ab = u, true as t_ab is an involution; its
straddle and cover test still run, and (w, A', v) checks c_A' * w = v.
No product c_A' * u is built.  Case tags are recorded
in an audit trail for debugging and for the roundtrip tests' factorization
into irreducible step sequences.

A step reads the values it compares off the stored windows in place,
w(k) = window[(k - 1) % n] + (k - 1) // n * n, without calling w; the
low-position scanners walk the stored window the same way.  The records a
step builds store their fields through their slot setters (record.py).  A
run starts from an empty strong strip, which has no junction to check, and
reads a strip's covers once instead of its size, first, last and outside.
"""

from __future__ import annotations

import enum

from .affperm import AffinePermutation
from .record import Record
from .strong import MarkedStrongCover, StrongStrip
from .weak import WeakStrip, is_bad, is_nice, step_to

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


class AuditStep(Record):
    """One insertion step: which case fired, and the pair before and after."""

    __slots__ = _fields = ("case", "before", "after")

    def __init__(self, case: CaseTag, before: FinalPair | InitialPair, after: FinalPair | InitialPair):
        self._set_case(self, case)
        self._set_before(self, before)
        self._set_after(self, after)


class EndpointMismatch(ValueError):
    """Weak and strong components do not share the required endpoint."""


class PreconditionViolation(ValueError):
    """Input outside the domain of the insertion step."""


class StripFull(PreconditionViolation):
    """External insertion on a weak strip of maximal size n-1."""


class InvalidPair(ValueError):
    """An insertion state the theory rules out, or a pair (P, Q) that
    bounds no growth diagram."""


class InitialPair(Record):
    """Weak strip and strong strip sharing their inside element."""

    __slots__ = _fields = ("weak", "strong")

    def __init__(self, weak: WeakStrip, strong: StrongStrip):
        if weak.inside != strong.inside:
            raise EndpointMismatch("initial pair must share its inside element")
        self._set_weak(self, weak)
        self._set_strong(self, strong)


class FinalPair(Record):
    """Weak strip and strong strip sharing their outside element."""

    __slots__ = _fields = ("weak", "strong")

    def __init__(self, weak: WeakStrip, strong: StrongStrip):
        if weak.outside != strong.outside:
            raise EndpointMismatch("final pair must share its outside element")
        self._set_weak(self, weak)
        self._set_strong(self, strong)


class InitialTriple(Record):
    """Member of the local rule's domain: initial pair plus e external steps."""

    __slots__ = _fields = ("weak", "strong", "e")

    def __init__(self, weak: WeakStrip, strong: StrongStrip, e: int):
        if weak.inside != strong.inside:
            raise EndpointMismatch("initial triple must share its inside element")
        if e < 0 or len(weak.residues) + e >= weak.inside.n:
            raise PreconditionViolation(f"need size(W) + e < n, got {weak.size} + {e} vs n={weak.inside.n}")
        self._set_weak(self, weak)
        self._set_strong(self, strong)
        self._set_e(self, e)


def _max_at_low_position(perm: AffinePermutation, pred, a_set, l: int, bound: int | None) -> int:
    """Largest q with pred(n, a_set, q) and perm^{-1}(q) <= l (and q < bound if given).

    Candidates per residue class are the window values perm(m), m in
    (l-n, l], shifted down by multiples of n to the largest below the bound;
    the shift keeps the position <= l and the residue, so pred (is_nice
    tests the residue of q - 1, is_bad that of q) is read before it.  With
    l = qn + r, perm(m) for m in (l-n, l] is the stored window from slot r
    on, shifted by (q-1)n, then the slots before r, shifted by qn.
    """
    n, win = perm.n, perm.window
    off = 1 if pred is is_nice else 0
    lq, r = divmod(l, n)
    best = None
    for part, shift in ((win[r:], (lq - 1) * n), (win[:r], lq * n)):
        for q in part:
            if (q - off) % n in a_set:
                continue
            q += shift
            if bound is not None and q >= bound:
                q -= ((q - bound) // n + 1) * n
            if best is None or q > best:
                best = q
    if best is None:
        raise PreconditionViolation(
            f"no admissible integer passing {pred.__name__}; input outside the rule's domain"
        )
    return best


def _min_nice_above_at_low_position(perm: AffinePermutation, a_set, l: int, bound: int) -> int | None:
    """Smallest A-nice q > bound with perm^{-1}(q) <= l, or None (condition B):
    each window value above the bound, shifted down to the smallest above it.
    The window is read as in _max_at_low_position."""
    n, win = perm.n, perm.window
    lq, r = divmod(l, n)
    best = None
    for part, shift in ((win[r:], (lq - 1) * n), (win[:r], lq * n)):
        for q in part:
            q += shift
            if q <= bound or (q - 1) % n in a_set:
                continue
            q -= (q - bound - 1) // n * n
            if best is None or q < best:
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
    vwin, uwin = v.window, u.window

    # (W, C) commutes iff v(i) < v(j) (oracles.commutes_initial, whose endpoint check is the one above)
    if vwin[(i - 1) % n] + (i - 1) // n * n < vwin[(j - 1) % n] + (j - 1) // n * n:
        # Case A: the reflection passes through untouched.  With A empty,
        # v = inside(C) and v * t_ij = u, so a cover marked at l is reused.
        new_cover = cover if not a_set and cover.l == l else MarkedStrongCover(v, i, j, None, l)
        out = FinalPair(WeakStrip(u, a_set, new_cover.outside), s1.appended(new_cover))
        return out, CaseTag.A

    p0 = uwin[(i - 1) % n] + (i - 1) // n * n - 1  # u(i) - 1
    if is_bad(n, a_set, p0):
        raise PreconditionViolation("noncommuting step requires the mark's residue in A")
    a_vee = a_set - {p0 % n}
    covers = s1.covers

    if not covers or covers[-1].i != i:
        # Case B: bump to the largest admissible nice integer below u(j).
        q = _max_at_low_position(u, is_nice, a_vee, l, uwin[(j - 1) % n] + (j - 1) // n * n)
        p = step_to(n, a_vee, q, is_nice)
        a_new = a_vee | {(p - 1) % n}
        new_cover = MarkedStrongCover(v, u.position_of(q), u.position_of(p), None, l)
        out = FinalPair(WeakStrip(u, a_new, new_cover.outside), s1.appended(new_cover))
        return out, CaseTag.B

    # Case C: replacement bump just before the last produced cover.
    y = covers[-1].inside
    b1 = covers[-1].j
    q = _max_at_low_position(y, is_bad, a_vee, l, p0)
    p = step_to(n, a_vee, q, is_bad)
    a_new = a_vee | {q % n}
    bumped = MarkedStrongCover(y, y.position_of(q), y.position_of(p), None, l)
    new_last = MarkedStrongCover(bumped.outside, i, b1, None, l)
    spliced = StrongStrip(s1.inside, covers[:-1] + (bumped, new_last))
    out = FinalPair(WeakStrip(u, a_new, new_last.outside), spliced)
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
    new_cover = MarkedStrongCover(v, v.position_of(q), v.position_of(p), None, l)
    return FinalPair(WeakStrip(w, a_new, new_cover.outside), s1.appended(new_cover))


def phi_with_audit(triple: InitialTriple, l: int) -> tuple[FinalPair, tuple[AuditStep, ...]]:
    """Forward local rule: all internal insertions, then e external ones."""
    weak, strong, e = triple.weak, triple.strong, triple.e
    n = weak.inside.n
    pair = FinalPair(weak, StrongStrip._checked(weak.outside, ()))
    steps: list[AuditStep] = []
    prev_tag = prev_i = None
    for cover in strong.covers:
        before = pair
        pair, tag = internal_insert(pair, cover, l)
        # Property (markmove): C never directly follows B, and a Case C
        # cover repeats the first index of its predecessor in the strip.
        if tag is CaseTag.C:
            if prev_tag is CaseTag.B:
                raise InvalidPair("Case C directly after Case B")
            if prev_i != cover.i:
                raise InvalidPair("Case C without repeated first index")
        # (W', C') commutes iff u(a) > u(b) (oracles.commutes_final, whose endpoint check is FinalPair's)
        uwin, last = pair.weak.inside.window, pair.strong.covers[-1]
        a, b = last.i, last.j
        if (uwin[(a - 1) % n] + (a - 1) // n * n > uwin[(b - 1) % n] + (b - 1) // n * n) != (tag is not CaseTag.B):
            raise InvalidPair(f"commutation status wrong after Case {tag.value}")
        steps.append(AuditStep(tag, before, pair))
        prev_tag, prev_i = tag, cover.i
    for _ in range(e):
        before = pair
        pair = external_insert(pair, l)
        steps.append(AuditStep(CaseTag.X, before, pair))
    if len(pair.strong.covers) != len(strong.covers) + e:
        raise InvalidPair("output strong strip has the wrong size")
    return pair, tuple(steps)


def phi(triple: InitialTriple, l: int) -> FinalPair:
    return phi_with_audit(triple, l)[0]


def reverse_insert(pair: InitialPair, cover: MarkedStrongCover, l: int) -> tuple[InitialPair, CaseTag]:
    """Undo one forward step at the marked cover C' = (v -> x).

    The new cover ends at u = inside(W') in Cases RA and RB and at u' in
    Case RC; its inside w is that end times the cover's reflection, and the
    weak strip (w, A, v) checks the square c_A * w = v.  With A' empty,
    Case RA hands on C' itself when it is marked at l.
    """
    weak, s1 = pair.weak, pair.strong
    if weak.outside != cover.outside:
        raise PreconditionViolation("reverse insertion needs outside(W') = outside(C')")
    u = weak.inside
    n, uwin = u.n, u.window
    a_set = weak.residues
    v = cover.inside
    a, b = cover.i, cover.j
    ub = uwin[(b - 1) % n] + (b - 1) // n * n  # u(b)

    # (W', C') commutes iff u(a) > u(b) (oracles.commutes_final, whose endpoint check is the one above)
    if uwin[(a - 1) % n] + (a - 1) // n * n > ub:
        # Case RA: with A' empty, u = outside(C) and u * t_ab = v, so a cover
        # marked at l is reused.
        new_cover = cover if not a_set and cover.l == l else MarkedStrongCover(None, a, b, u, l)
        return InitialPair(WeakStrip(new_cover.inside, a_set, v), s1.prepended(new_cover)), CaseTag.RA

    if is_nice(n, a_set, ub):
        raise InvalidPair("noncommuting reverse step requires the bumped residue in A'")
    a_vee = a_set - {(ub - 1) % n}
    covers = s1.covers

    q_b = _min_nice_above_at_low_position(u, a_vee, l, ub)
    q_c = None
    if covers:
        j1 = covers[0].j
        uj1 = uwin[(j1 - 1) % n] + (j1 - 1) // n * n  # u(j1)
        if is_nice(n, a_vee, uj1):
            q_c = uj1
    if q_b is not None and q_c is not None and q_b == q_c:
        raise InvalidPair("conditions B and C cannot select the same integer")

    if q_b is None and not covers:
        # Case RX: strike the grown residue, leave the strong side alone.
        return InitialPair(WeakStrip(u, a_vee, v), s1), CaseTag.RX

    if q_b is not None and (q_c is None or q_b < q_c):
        # Case RB
        q = q_b
        p = step_to(n, a_vee, q, is_nice, -1)
        a_new = a_vee | {(q - 1) % n}
        new_cover = MarkedStrongCover(None, u.position_of(q), u.position_of(p), u, l)
        return InitialPair(WeakStrip(new_cover.inside, a_new, v), s1.prepended(new_cover)), CaseTag.RB

    if q_c is not None:
        # Case RC
        q = q_c
        p = step_to(n, a_vee, q, is_nice, -1)
        a_new = a_vee | {(q - 1) % n}
        i1, z = covers[0].i, covers[0].outside
        second = MarkedStrongCover(None, i1, z.position_of(p), z, l)  # u' -> z
        first = MarkedStrongCover(None, i1, j1, second.inside, l)  # w -> u'
        w = first.inside
        spliced = StrongStrip(w, (first, second) + covers[1:])
        return InitialPair(WeakStrip(w, a_new, v), spliced), CaseTag.RC

    raise InvalidPair("neither condition B nor condition C holds with a nonempty strip")


def psi_with_audit(final: FinalPair, l: int) -> tuple[InitialTriple, tuple[AuditStep, ...]]:
    """Reverse local rule: process the covers of S' from last to first."""
    weak, strong = final.weak, final.strong
    pair = InitialPair(weak, StrongStrip._checked(weak.inside, ()))
    steps: list[AuditStep] = []
    prev_tag = None
    for cover in reversed(strong.covers):
        before = pair
        pair, tag = reverse_insert(pair, cover, l)
        if tag is CaseTag.RC and prev_tag is CaseTag.RB:
            raise InvalidPair("Case RC directly after Case RB")
        steps.append(AuditStep(tag, before, pair))
        prev_tag = tag
    if pair.weak.outside != strong.inside:
        raise InvalidPair("reverse run did not land on inside(S')")
    e = len(strong.covers) - len(pair.strong.covers)
    if e != sum(1 for s in steps if s.case is CaseTag.RX):
        raise InvalidPair("external count disagrees with the RX tally")
    triple = InitialTriple(pair.weak, pair.strong, e)
    return triple, tuple(steps)


def psi(final: FinalPair, l: int) -> InitialTriple:
    return psi_with_audit(final, l)[0]
