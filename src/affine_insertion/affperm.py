"""
Arithmetic of the affine symmetric group in window notation.

An element w is the periodic bijection of the integers with
w(i + n) = w(i) + n and normalized window sum; it is stored by its
window ``[w(1), ..., w(n)]``.  All values are plain Python integers,
so translation elements never overflow.

>>> w = from_window(3, [-3, 2, 7])
>>> w(4), w(0)
(0, 4)
>>> w.length
5
"""

from __future__ import annotations

from functools import lru_cache

__all__ = [
    "AffinePermutation",
    "ResidueCollision",
    "SumMismatch",
    "RankMismatch",
    "from_window",
    "identity",
    "simple_reflection",
    "transposition",
    "canonical_reflection",
    "right_mult_transposition",
    "inversions",
    "code",
    "from_reduced_word",
    "reduced_word",
    "dynkin_flip",
    "rotate",
    "translation",
    "coroot_decompose",
    "elements_by_length",
    "parse_ints",
    "parse_window",
    "format_window",
]


class ResidueCollision(ValueError):
    """Two window values share a residue class."""


class SumMismatch(ValueError):
    """Window values do not sum to 1 + 2 + ... + n."""


class RankMismatch(ValueError):
    """Operands live in affine symmetric groups of different rank."""


# The bound of every memo in the package.  It is above the working set of
# every perfbench workload, so they evict nothing: the largest is 2,515
# strong tables on kschur-table, then 2,201 matrix counts and 2,066 strong
# tables on pieri-cauchy, which holds 273 weak tables.  The strip outsides
# hold 501 on kschur-table and 134 on pieri-cauchy; the insertion workloads
# hold at most 453 c_A runs and 128 cores.  The products of monomial pairs
# hold 240 on pieri-cauchy and 192 on the n = 4 all-elements Pieri sweep.
MEMO_SIZE = 1 << 15


@lru_cache(maxsize=MEMO_SIZE)
def _length(window: tuple[int, ...]) -> int:
    """Coxeter length by the double-sum window formula, memoised per window:
    windows recur heavily in enumerations."""
    n = len(window)
    ell = 0
    for i in range(n):
        wi = window[i]
        for j in range(i + 1, n):
            ell += abs((window[j] - wi) // n)
    return ell


class AffinePermutation:
    """Element of the rank-n affine symmetric group, stored by its window.

    The constructor trusts its window; from_window validates one.
    """

    __slots__ = ("n", "window", "_hash", "_inv_idx")

    def __init__(self, n: int, window):
        window = tuple(window)
        self.n = n
        self.window = window
        self._hash = hash(window)
        self._inv_idx = None

    def __call__(self, i: int) -> int:
        q, r = divmod(i - 1, self.n)
        return self.window[r] + q * self.n

    def inverse_index(self):
        """The window slot of each residue, as a sequence idx: value x sits at
        position idx[x % n] + 1 + (x - window[idx[x % n]]) // n * n.  Built
        once, or handed on by right_mult_transposition; never edited."""
        if self._inv_idx is None:
            idx = [0] * self.n
            for j, v in enumerate(self.window):
                idx[v % self.n] = j
            self._inv_idx = tuple(idx)
        return self._inv_idx

    def position_of(self, value: int) -> int:
        """The position i with w(i) = value, i.e. the inverse applied to value."""
        j = (self._inv_idx or self.inverse_index())[value % self.n]
        return j + 1 + (value - self.window[j]) // self.n * self.n

    def inverse(self) -> AffinePermutation:
        return AffinePermutation(self.n, tuple(self.position_of(v) for v in range(1, self.n + 1)))

    def __mul__(self, other: AffinePermutation) -> AffinePermutation:
        """Function composition: (self * other)(i) = self(other(i))."""
        n, win = self.n, self.window
        if n != other.n:
            raise RankMismatch(f"rank {n} vs {other.n}")
        return AffinePermutation(n, [win[(v - 1) % n] + (v - 1) // n * n for v in other.window])

    def __eq__(self, other) -> bool:
        # equal windows have equal length, so they also have equal rank
        return self is other or (isinstance(other, AffinePermutation) and self.window == other.window)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"AffinePermutation({self.n}, {list(self.window)})"

    def __str__(self) -> str:
        return format_window(self)

    @property
    def is_identity(self) -> bool:
        return self.window == tuple(range(1, self.n + 1))

    @property
    def length(self) -> int:
        """Coxeter length, by the double-sum window formula.

        >>> from_window(4, [-7, -1, 4, 14]).length
        14
        """
        return _length(self.window)

    def is_grassmannian(self, l: int = 0) -> bool:
        """True iff the window on positions l+1, ..., l+n is increasing."""
        if l % self.n == 0:
            vals = self.window  # a shift of the stored window by a multiple of n
        else:
            vals = [self(l + m) for m in range(1, self.n + 1)]
        return sorted(vals) == list(vals)  # window values are distinct, so sorted means increasing

    def has_right_descent(self, r: int) -> bool:
        """ell(w * s_r) < ell(w), tested on window values."""
        return self(r) > self(r + 1)

    def has_left_descent(self, r: int) -> bool:
        """ell(s_r * w) < ell(w)."""
        return self.position_of(r) > self.position_of(r + 1)


def identity(n: int) -> AffinePermutation:
    return AffinePermutation(n, range(1, n + 1))


def canonical_reflection(n: int, r: int, s: int) -> tuple[int, int]:
    """Shift (r, s) by a common multiple of n so that 1 <= r <= n.

    >>> canonical_reflection(3, 0, 4)
    (3, 7)
    """
    if r > s:
        r, s = s, r
    if (r - s) % n == 0:
        raise ValueError(f"({r}, {s}) is not a reflection mod {n}")
    shift = -((r - 1) // n) * n
    return r + shift, s + shift


def transposition(n: int, r: int, s: int) -> AffinePermutation:
    """The reflection t_{r,s}: swaps r + kn with s + kn for all k.

    >>> transposition(3, 0, 4).window
    (-3, 2, 7)
    """
    if (r - s) % n == 0:
        raise ValueError(f"({r}, {s}) is not a reflection mod {n}")
    window = []
    for x in range(1, n + 1):
        if (x - r) % n == 0:
            window.append(s + (x - r))
        elif (x - s) % n == 0:
            window.append(r + (x - s))
        else:
            window.append(x)
    return AffinePermutation(n, window)


def simple_reflection(n: int, i: int) -> AffinePermutation:
    return transposition(n, i, i + 1)


def right_mult_transposition(w: AffinePermutation, i: int, j: int) -> AffinePermutation:
    """w * t_{ij}, swapping the entries in positions i + kn and j + kn.

    Only the window entries of the residue classes of i and j change; when
    i and j share a class, that entry becomes w(j + x - i) at its position x.
    An index w.inverse_index has built is handed on: the two classes swap
    their window slots, and a shared class keeps its slot.  The new index
    stays the list it was edited in.
    """
    n, win = w.n, w.window
    qi, ri = divmod(i - 1, n)
    qj, rj = divmod(j - 1, n)
    window = list(win)
    window[ri] = win[rj] + (qj - qi) * n
    idx = w._inv_idx
    if ri != rj:
        window[rj] = win[ri] + (qi - qj) * n
        if idx is not None:
            idx = list(idx)
            idx[win[ri] % n], idx[win[rj] % n] = rj, ri
    out = AffinePermutation(n, window)
    out._inv_idx = idx
    return out


def from_window(n: int, values) -> AffinePermutation:
    """Validated construction from a window.

    >>> from_window(3, [-3, 2, 7]) == transposition(3, 0, 4)
    True
    """
    window = tuple(values)
    if n < 2:
        raise ValueError(f"rank must be at least 2, got {n}")
    if len(window) != n:
        raise ValueError(f"window {window!r} has length {len(window)}, expected {n}")
    if len({v % n for v in window}) != n:
        raise ResidueCollision(f"window {window!r} repeats a residue mod {n}")
    if sum(window) != n * (n + 1) // 2:
        raise SumMismatch(f"window {window!r} has sum {sum(window)}, expected {n*(n+1)//2}")
    return AffinePermutation(n, window)


def inversions(w: AffinePermutation) -> list[tuple[int, int]]:
    """All pairs i < j with 1 <= i <= n, distinct residues, and w(i) > w(j).

    The enumeration is independent of the length formula; equality of the
    two counts is asserted in the test suite, not here.
    """
    n = w.n
    out = []
    for i in range(1, n + 1):
        wi = w.window[i - 1]
        for j0 in range(1, n + 1):
            if (j0 - i) % n == 0:
                continue
            wj0 = w.window[j0 - 1]
            lo = (i - j0) // n + 1          # least t with j0 + tn > i
            hi = (wi - wj0 - 1) // n        # greatest t with wj0 + tn < wi
            for t in range(lo, hi + 1):
                out.append((i, j0 + t * n))
    out.sort()
    return out


def code(w: AffinePermutation) -> tuple[int, ...]:
    """c_i = number of inversions whose first coordinate is i.

    >>> code(from_window(4, [-7, -1, 4, 14]))
    (0, 1, 3, 10)
    """
    counts = [0] * w.n
    for i, _ in inversions(w):
        counts[i - 1] += 1
    return tuple(counts)


def from_reduced_word(n: int, word) -> AffinePermutation:
    """Product s_{a_1} s_{a_2} ... s_{a_k} for word = (a_1, ..., a_k).

    Accepts non-reduced words too; only the product is guaranteed.
    """
    w = identity(n)
    for a in word:
        w = w * simple_reflection(n, a)
    return w


def reduced_word(w: AffinePermutation) -> tuple[int, ...]:
    """A reduced word for w, deterministic by smallest-right-descent stripping."""
    n = w.n
    letters = []
    cur = w
    while not cur.is_identity:
        r = next(i for i in range(n) if cur(i) > cur(i + 1))
        letters.append(r)
        cur = right_mult_transposition(cur, r, r + 1)
    letters.reverse()
    return tuple(letters)


def dynkin_flip(w: AffinePermutation, l: int = 0) -> AffinePermutation:
    """The involutive automorphism sending s_i to s_{l-i}: conjugation by the
    reflection x -> l + 1 - x of the integers, so x maps to l + 1 - w(l + 1 - x)."""
    return AffinePermutation(w.n, [l + 1 - w(l + 1 - x) for x in range(1, w.n + 1)])


def rotate(w: AffinePermutation, k: int = 1) -> AffinePermutation:
    """The automorphism sending s_i to s_{i+k}; on windows, w(x-k) + k.
    A multiple of n is the identity map, so w itself is returned."""
    if k % w.n == 0:
        return w
    return AffinePermutation(w.n, tuple(w(x - k) + k for x in range(1, w.n + 1)))


def translation(beta) -> AffinePermutation:
    """The translation element of a coroot vector: i maps to i + n*beta_i.

    >>> translation((0, 0, 0)).is_identity
    True
    """
    beta = tuple(beta)
    n = len(beta)
    if sum(beta) != 0:
        raise SumMismatch(f"coroot vector {beta!r} does not sum to 0")
    return AffinePermutation(n, tuple(i + n * b for i, b in enumerate(beta, start=1)))


def coroot_decompose(w: AffinePermutation) -> tuple[AffinePermutation, tuple[int, ...]]:
    """The unique factorization w = u * translation(beta) with u finite.

    For 0-Grassmannian w the resulting beta is antidominant and u is the
    minimal coset representative, giving ell(w) = ell(translation(beta)) - ell(u).

    >>> u, beta = coroot_decompose(from_window(4, [-7, -1, 4, 14]))
    >>> u.window, beta
    ((1, 3, 4, 2), (-2, -1, 0, 3))
    """
    n = w.n
    u = tuple((v - 1) % n + 1 for v in w.window)
    beta = tuple((v - ui) // n for v, ui in zip(w.window, u))
    return AffinePermutation(n, u), beta


def elements_by_length(n: int, max_length: int) -> list[list[AffinePermutation]]:
    """All group elements graded by length, for lengths 0..max_length."""
    levels = [[identity(n)]]
    seen = {identity(n)}
    for _ in range(max_length):
        nxt = []
        for w in levels[-1]:
            for r in range(n):
                if not w.has_right_descent(r):
                    u = right_mult_transposition(w, r, r + 1)
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
        levels.append(nxt)
    return levels


def format_window(w: AffinePermutation) -> str:
    """Text form of a window: '[a,b,c]' with signed decimal integers."""
    return "[" + ",".join(str(v) for v in w.window) + "]"


def parse_ints(text: str, brackets: str) -> list[int]:
    """The one grammar of integer lists: comma-separated integers inside the
    required ``brackets``, as in '[-3, 2, 7]', with whitespace and one trailing comma."""
    inner = text.strip()
    if inner[:1] != brackets[0] or inner[-1:] != brackets[1]:
        raise ValueError(f"expected integers inside {brackets}: {text!r}")
    body = inner[1:-1].strip()
    return [int(part) for part in body.removesuffix(",").split(",")] if body else []


def parse_window(text: str, n: int | None = None) -> AffinePermutation:
    """Parse '[a,b,c]' in the grammar of parse_ints.

    >>> parse_window("[-3, 2, 7]").window
    (-3, 2, 7)
    """
    values = parse_ints(text, "[]")
    if n is not None and len(values) != n:
        raise ValueError(f"expected {n} window entries, got {len(values)}")
    return from_window(len(values), values)
