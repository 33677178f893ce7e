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
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "before", before)
        object.__setattr__(self, "after", after)


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
        object.__setattr__(self, "weak", weak)
        object.__setattr__(self, "strong", strong)


class FinalPair(Record):
    """Weak strip and strong strip sharing their outside element."""

    __slots__ = _fields = ("weak", "strong")

    def __init__(self, weak: WeakStrip, strong: StrongStrip):
        if weak.outside != strong.outside:
            raise EndpointMismatch("final pair must share its outside element")
        object.__setattr__(self, "weak", weak)
        object.__setattr__(self, "strong", strong)


class InitialTriple(Record):
    """Member of the local rule's domain: initial pair plus e external steps."""

    __slots__ = _fields = ("weak", "strong", "e")

    def __init__(self, weak: WeakStrip, strong: StrongStrip, e: int):
        if weak.inside != strong.inside:
            raise EndpointMismatch("initial triple must share its inside element")
        if e < 0 or weak.size + e >= weak.inside.n:
            raise PreconditionViolation(f"need size(W) + e < n, got {weak.size} + {e} vs n={weak.inside.n}")
        object.__setattr__(self, "weak", weak)
        object.__setattr__(self, "strong", strong)
        object.__setattr__(self, "e", e)


def _low_window(perm: AffinePermutation, l: int) -> list[int]:
    """The values perm(m) at the n positions m in (l - n, l], read off the
    stored window shifted by multiples of n."""
    n, win = perm.n, perm.window
    q, r = divmod(l, n)
    return [x + (q - 1) * n for x in win[r:]] + [x + q * n for x in win[:r]]


def _max_at_low_position(perm: AffinePermutation, pred, a_set, l: int, bound: int | None) -> int:
    """Largest q with pred(n, a_set, q) and perm^{-1}(q) <= l (and q < bound if given).

    Candidates per residue class are the window values perm(m), m in
    (l-n, l], shifted down by multiples of n to the largest below the bound;
    the shift keeps the position <= l and the residue, so pred (is_nice
    tests the residue of q - 1, is_bad that of q) is read before it.
    """
    n = perm.n
    off = 1 if pred is is_nice else 0
    best = None
    for q in _low_window(perm, l):
        if (q - off) % n in a_set:
            continue
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
    each window value above the bound, shifted down to the smallest above it."""
    n = perm.n
    best = None
    for q in _low_window(perm, l):
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

    if v(i) < v(j):  # (W, C) commutes (oracles.commutes_initial, whose endpoint check is the one above)
        # Case A: the reflection passes through untouched.  With A empty,
        # v = inside(C) and v * t_ij = u, so a cover marked at l is reused.
        new_cover = cover if not a_set and cover.l == l else MarkedStrongCover(v, i, j, None, l)
        out = FinalPair(WeakStrip(u, a_set, new_cover.outside), s1.appended(new_cover))
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
        new_cover = MarkedStrongCover(v, u.position_of(q), u.position_of(p), None, l)
        out = FinalPair(WeakStrip(u, a_new, new_cover.outside), s1.appended(new_cover))
        return out, CaseTag.B

    # Case C: replacement bump just before the last produced cover.
    y = s1.last.inside
    b1 = s1.last.j
    q = _max_at_low_position(y, is_bad, a_vee, l, bound=p0)
    p = step_to(n, a_vee, q, is_bad)
    a_new = a_vee | {q % n}
    bumped = MarkedStrongCover(y, y.position_of(q), y.position_of(p), None, l)
    new_last = MarkedStrongCover(bumped.outside, i, b1, None, l)
    spliced = StrongStrip(s1.inside, s1.covers[:-1] + (bumped, new_last))
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
        # (W', C') commutes (oracles.commutes_final, whose endpoint check is FinalPair's)
        u, last = pair.weak.inside, pair.strong.last
        if (u(last.i) > u(last.j)) != (tag is not CaseTag.B):
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
    """Undo one forward step at the marked cover C' = (v -> x).

    The new cover ends at u = inside(W') in Cases RA and RB and at u' in
    Case RC; its inside w is that end times the cover's reflection, and the
    weak strip (w, A, v) checks the square c_A * w = v.  With A' empty,
    Case RA hands on C' itself when it is marked at l.
    """
    weak, s1 = pair.weak, pair.strong
    if weak.outside != cover.outside:
        raise PreconditionViolation("reverse insertion needs outside(W') = outside(C')")
    n = weak.inside.n
    u = weak.inside
    a_set = weak.residues
    v = cover.inside
    a, b = cover.i, cover.j

    if u(a) > u(b):  # (W', C') commutes (oracles.commutes_final, whose endpoint check is the one above)
        # Case RA: with A' empty, u = outside(C) and u * t_ab = v, so a cover
        # marked at l is reused.
        new_cover = cover if not a_set and cover.l == l else MarkedStrongCover(None, a, b, u, l)
        return InitialPair(WeakStrip(new_cover.inside, a_set, v), s1.prepended(new_cover)), CaseTag.RA

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
        new_cover = MarkedStrongCover(None, u.position_of(q), u.position_of(p), u, l)
        return InitialPair(WeakStrip(new_cover.inside, a_new, v), s1.prepended(new_cover)), CaseTag.RB

    if q_c is not None:
        # Case RC
        q = q_c
        p = step_to(n, a_vee, q, is_nice, -1)
        a_new = a_vee | {(q - 1) % n}
        i1, j1, z = s1.first.i, s1.first.j, s1.first.outside
        second = MarkedStrongCover(None, i1, z.position_of(p), z, l)  # u' -> z
        first = MarkedStrongCover(None, i1, j1, second.inside, l)  # w -> u'
        w = first.inside
        spliced = StrongStrip(w, (first, second) + s1.covers[1:])
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
