import random

import pytest

from affine_insertion.affperm import (
    AffinePermutation,
    ResidueCollision,
    SumMismatch,
    RankMismatch,
    code,
    coroot_decompose,
    dynkin_flip,
    elements_by_length,
    format_window,
    from_reduced_word,
    from_window,
    identity,
    inversions,
    parse_window,
    reduced_word,
    rotate,
    simple_reflection,
    translation,
    transposition,
    right_mult_transposition,
)

PAPER_WORD = [1, 2, 3, 0, 3, 2, 1, 0, 3, 2, 0, 3, 1, 0]


def brute_length(w):
    """Independent oracle: count inversions by direct scanning."""
    n = w.n
    spread = (max(w.window) - min(w.window)) // n + 2
    count = 0
    for i in range(1, n + 1):
        for j in range(i + 1, i + 1 + spread * n + n):
            if (j - i) % n and w(i) > w(j):
                count += 1
    return count


def test_from_window_validation():
    w = from_window(3, [-3, 2, 7])
    assert w == transposition(3, 0, 4)
    assert from_window(4, [1, 2, 3, 4]).is_identity
    with pytest.raises(ResidueCollision):
        from_window(4, [1, 1, 3, 4])
    with pytest.raises(SumMismatch):
        from_window(3, [0, 2, 7])
    with pytest.raises(ValueError, match="rank must be at least 2, got 1"):
        from_window(1, [1])
    with pytest.raises(ValueError, match="has length 2, expected 3"):
        from_window(3, [1, 2])


def test_apply_periodicity():
    w = from_window(3, [-3, 2, 7])
    assert w(1) == -3
    assert w(4) == 0
    assert all(w(i + 3) == w(i) + 3 for i in range(-6, 7))
    v = from_window(4, [-7, -1, 4, 14])
    assert v(0) == 10


def test_multiply_and_inverse():
    w = from_window(3, [-3, 2, 7])
    assert (w * w).is_identity  # reflections are involutions
    assert identity(3) * w == w
    v = from_window(4, [-7, -1, 4, 14])
    assert v * v.inverse() == identity(4)
    with pytest.raises(RankMismatch):
        w * identity(4)


def test_equality_compares_windows_only():
    w = from_window(3, [-3, 2, 7])
    assert w == w and w == from_window(3, [-3, 2, 7])
    assert hash(w) == hash(from_window(3, [-3, 2, 7]))
    assert identity(3) != identity(4) and identity(4) != identity(3)
    assert from_window(3, [1, 2, 3]) != from_window(4, [1, 2, 3, 4])
    assert w != from_window(3, [2, 1, 3])
    for other in (None, (-3, 2, 7), [-3, 2, 7], "[-3,2,7]"):
        assert (w == other) is False and w != other


def test_paper_reduced_word_example():
    w = from_reduced_word(4, PAPER_WORD)
    assert w.window == (-7, -1, 4, 14)
    assert w.length == 14
    assert len(inversions(w)) == 14
    assert code(w) == (0, 1, 3, 10)
    assert w.is_grassmannian(0)


def test_inversions_fixture():
    w = from_window(4, [-7, -1, 4, 14])
    inv = inversions(w)
    for pair in [(2, 5), (3, 5), (4, 21)]:
        assert pair in inv
    assert inversions(identity(3)) == []
    assert len(inversions(simple_reflection(3, 0))) == 1


def test_length_equals_inversion_count_small():
    for n in (2, 3):
        for level in elements_by_length(n, 5):
            for w in level:
                assert w.length == len(inversions(w)) == brute_length(w)


def test_code_sums_to_length():
    for level in elements_by_length(3, 5):
        for w in level:
            assert sum(code(w)) == w.length
    s0 = simple_reflection(2, 0)
    assert sum(code(s0)) == 1


def test_reduced_word_roundtrip_exhaustive():
    for level in elements_by_length(3, 5):
        for w in level:
            word = reduced_word(w)
            assert len(word) == w.length
            assert from_reduced_word(3, word) == w


def test_from_reduced_word_accepts_nonreduced():
    assert from_reduced_word(3, [0, 0]).is_identity
    assert from_reduced_word(3, []).is_identity


def test_transposition_conjugation():
    # w t_{ij} w^{-1} = t_{w(i), w(j)} on seeded random triples
    rng = random.Random(7)
    for _ in range(50):
        n = rng.choice([2, 3, 4])
        w = identity(n)
        for _ in range(rng.randrange(8)):
            w = w * simple_reflection(n, rng.randrange(n))
        i = rng.randrange(-5, 5)
        j = i + rng.randrange(1, 6)
        if (i - j) % n == 0:
            continue
        lhs = w * transposition(n, i, j) * w.inverse()
        assert lhs == transposition(n, w(i), w(j))
        assert right_mult_transposition(w, i, j) == w * transposition(n, i, j)


def _loop_right_mult_transposition(w, i, j):
    """Reference w * t_{ij}: evaluate w on every position of the window."""
    n = w.n
    window = []
    for x in range(1, n + 1):
        if (x - i) % n == 0:
            window.append(w(j + (x - i)))
        elif (x - j) % n == 0:
            window.append(w(i + (x - j)))
        else:
            window.append(w(x))
    return window


def _small_elements():
    for n in range(2, 9):
        for level in elements_by_length(n, 5 if n <= 5 else 3):
            yield from level


def test_window_kernels_equal_loop_versions():
    # the closed-form kernels against evaluation through w(.), on every
    # element of length <= 5 (n = 2..5) and <= 3 (n = 6..8), with random
    # (i, j) of distinct and of equal residue
    rng = random.Random(16)
    elements = list(_small_elements())
    for w in elements:
        n = w.n
        pairs = [(rng.randrange(-3 * n, 3 * n), rng.randrange(-3 * n, 3 * n)) for _ in range(4)]
        i = rng.randrange(-3 * n, 3 * n)
        pairs.append((i, i + n * rng.randrange(-2, 3)))
        for i, j in pairs:
            got = right_mult_transposition(w, i, j)
            assert list(got.window) == _loop_right_mult_transposition(w, i, j), (w, i, j)
        u = rng.choice([x for x in elements if x.n == n])
        assert (w * u).window == tuple(w(v) for v in u.window)
        for l in (0, n, -2 * n):
            vals = [w(l + m) for m in range(1, n + 1)]
            assert w.is_grassmannian(l) == all(a < b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_right_mult_transposition_hands_on_the_index(n):
    # once w.position_of has built w's index, w * t_ij carries its own,
    # which must answer as one built from scratch, also for j = i mod n
    values = range(-2 * n, 3 * n + 1)
    for level in elements_by_length(n, 4):
        for w in level:
            w.position_of(1)
            for i in range(1, n + 1):
                for j in range(i + 1, i + 2 * n + 1):
                    got = right_mult_transposition(w, i, j)
                    assert got._inv_idx is not None
                    fresh = AffinePermutation(n, got.window)
                    assert [got.position_of(v) for v in values] == [fresh.position_of(v) for v in values], (w, i, j)
    # the product of an element without an index builds its own
    w = AffinePermutation(n, from_reduced_word(n, [0, 1, 2]).window)
    got = right_mult_transposition(w, 1, n + 2)
    assert w._inv_idx is None and got._inv_idx is None
    assert [got(got.position_of(v)) for v in values] == list(values)


def test_grassmannian_test():
    assert identity(4).is_grassmannian(0)
    assert identity(4).is_grassmannian(2)
    assert from_window(4, [-7, -1, 4, 14]).is_grassmannian(0)
    # s_i is minimal in its coset exactly when i matches the parabolic's slot
    assert not simple_reflection(3, 1).is_grassmannian(0)
    assert simple_reflection(3, 1).is_grassmannian(1)
    assert not simple_reflection(3, 1).is_grassmannian(2)
    assert simple_reflection(3, 0).is_grassmannian(0)


def test_dynkin_flip():
    assert dynkin_flip(identity(3)).is_identity
    assert dynkin_flip(simple_reflection(3, 1), l=0) == simple_reflection(3, 2)
    lhs = dynkin_flip(from_reduced_word(3, [2, 0]), l=0)
    assert lhs == from_reduced_word(3, [1, 0])
    for level in elements_by_length(3, 4):
        for w in level:
            flipped = dynkin_flip(w)
            assert flipped.length == w.length
            assert dynkin_flip(flipped) == w


def _reduced_word_flip(w, l):
    # the definition: send each letter s_a of a reduced word to s_{l-a}
    return from_reduced_word(w.n, [(l - a) % w.n for a in reduced_word(w)])


def test_dynkin_flip_equals_reduced_word_flip():
    # conjugation by x -> l + 1 - x against the definition, on every element
    # of length <= 5 (n = 2..4) and <= 4 (n = 5), with l in [-n, 2n)
    cases = 0
    for n, max_length in ((2, 5), (3, 5), (4, 5), (5, 4)):
        for w in (w for level in elements_by_length(n, max_length) for w in level):
            for l in range(-n, 2 * n):
                assert dynkin_flip(w, l) == _reduced_word_flip(w, l), (w, l)
                cases += 1
    assert cases == 3822


def test_rotate():
    assert rotate(identity(3)).is_identity
    assert rotate(simple_reflection(3, 0)) == simple_reflection(3, 1)
    for level in elements_by_length(3, 5):
        for w in level:
            assert rotate(w).length == w.length
            # rotate(w, k) is k rotations, for k of either sign and past n
            assert rotate(w, 2) == rotate(rotate(w)) == rotate(w, -1) == rotate(w, 5)
            assert rotate(w, 0) == w == rotate(w, 3)
    # rotate is an automorphism
    a, b = from_reduced_word(3, [0, 1]), from_reduced_word(3, [2, 0])
    assert rotate(a * b) == rotate(a) * rotate(b)


def test_translation_and_decompose():
    assert translation((0, 0, 0)).is_identity
    w = from_window(4, [-7, -1, 4, 14])
    u, beta = coroot_decompose(w)
    assert u.window == (1, 3, 4, 2)  # the finite part s2 s3
    assert beta == (-2, -1, 0, 3)
    assert u * translation(beta) == w
    assert translation(beta).length == 16
    # ell(tau_beta) = 2 * sum(i * beta_i) for antidominant beta
    assert translation((-1, 0, 1)).length == 2 * (1 * -1 + 3 * 1) == 4
    with pytest.raises(SumMismatch):
        translation((1, 0, 0))


def test_decompose_roundtrip_exhaustive():
    for level in elements_by_length(3, 5):
        for w in level:
            u, beta = coroot_decompose(w)
            assert u * translation(beta) == w
            assert set(u.window) == {1, 2, 3}


def test_window_text_form():
    w = from_window(4, [-7, -1, 4, 14])
    assert format_window(w) == "[-7,-1,4,14]"
    assert parse_window("[-7, -1, 4, 14]") == w
    assert parse_window(format_window(w), n=4) == w
    with pytest.raises(ValueError):
        parse_window("-7,-1,4,14")
    with pytest.raises(ValueError):
        parse_window("[1,2]", n=3)


def test_is_grassmannian_is_an_increasing_window_at_every_level():
    for n in (2, 3, 4):
        for level in elements_by_length(n, 5):
            for w in level:
                for l in range(-n, n + 1):
                    vals = [w(l + m) for m in range(1, n + 1)]
                    assert w.is_grassmannian(l) == all(a < b for a, b in zip(vals, vals[1:])), (w, l)
