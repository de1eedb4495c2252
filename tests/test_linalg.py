import random

import numpy as np
import pytest

from graphmub.fields import PolyZp
from graphmub.linalg import MatZp, congruence, eliminate_stack, rank_mod_p
from oracles import char_poly_cofactor, det_cofactor, rank_brute

# Worked three-qutrit fixtures (p = 3, n = 3, f = x^3 + x^2 + 2x + 1)
C3 = MatZp(3, [[0, 1, 0], [0, 0, 1], [2, 1, 2]])
Q3 = MatZp(3, [[1, 0, 2], [0, 0, 1], [2, 1, 1]])
Q3_SQ = MatZp(3, [[2, 2, 1], [2, 1, 1], [1, 1, 0]])
P3 = MatZp(3, [[0, 0, 1], [0, 1, 2], [1, 2, 2]])
P3_INV = MatZp(3, [[2, 1, 1], [1, 1, 0], [1, 0, 0]])
B0_3 = MatZp(3, [[0, 0, 1], [0, 1, 2], [1, 2, 2]])

# Three-qubit tridiagonal fixtures (p = 2, d = (1, 0, 0))
Q2 = MatZp(2, [[1, 1, 0], [1, 0, 1], [0, 1, 0]])


def random_mat(rng, p, n):
    return MatZp(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])


def random_invertible(rng, p, n):
    while True:
        m = random_mat(rng, p, n)
        if m.det() != 0:
            return m


def test_product_fixture_three_qutrits():
    assert Q3 @ Q3 == Q3_SQ


def test_additive_identity():
    rng = random.Random(3)
    for p in (2, 3, 5):
        z = MatZp.zeros(p, 3)
        for _ in range(10):
            a = random_mat(rng, p, 3)
            assert a + z == a


def test_difference_fixture_three_qubits():
    assert Q2 - MatZp.identity(2, 3) == MatZp(2, [[0, 1, 0], [1, 1, 1], [0, 1, 1]])


def test_det_trivial():
    for p in (2, 3, 7):
        for n in (1, 2, 4):
            assert MatZp.identity(p, n).det() == 1
            assert MatZp.zeros(p, n).det() == 0


def test_det_fixture_char2():
    assert MatZp(2, [[0, 1, 0], [1, 1, 1], [0, 1, 1]]).det() == 1


def test_det_matches_cofactor_oracle():
    rng = random.Random(17)
    for _ in range(120):
        p = rng.choice((2, 3, 5, 7))
        n = rng.randrange(1, 5)
        m = random_mat(rng, p, n)
        assert m.det() == det_cofactor(m.to_lists(), p)


def test_rank_trivial():
    assert MatZp.zeros(5, 3).rank() == 0
    assert rank_mod_p([[1, 0]], 2) == 1


def test_rank_matches_brute():
    rng = random.Random(19)
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        nr = rng.randrange(1, 4)
        nc = rng.randrange(1, 4)
        block = [[rng.randrange(p) for _ in range(nc)] for _ in range(nr)]
        assert rank_mod_p(block, p) == rank_brute(block, p)


def test_elimination_meets_oracles_on_unreduced_entries():
    # entries outside [0, p): negatives and multiples of p must reduce
    rng = random.Random(31)
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7))
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-2 * p, 3 * p) for _ in range(n)] for _ in range(n)]
        m = MatZp(p, rows)
        det = det_cofactor(rows, p)
        assert m.det() == det
        assert rank_mod_p(rows, p) == rank_brute(rows, p)
        ncols = rng.randrange(1, n + 1)
        block = [r[:ncols] for r in rows[: rng.randrange(1, n + 1)]]
        assert rank_mod_p(block, p) == rank_brute(block, p)
        if det:
            assert m.inverse() @ m == MatZp.identity(p, n)
            assert m @ m.inverse() == MatZp.identity(p, n)
        else:
            with pytest.raises(ZeroDivisionError):
                m.inverse()


def random_stack(rng, p, count, nrows, ncols):
    """Unreduced entries; about a third of the members get a repeated row
    or a zero column, so singular and rank-deficient members are common."""
    stack = []
    for _ in range(count):
        rows = [[rng.randrange(-2 * p, 3 * p) for _ in range(ncols)]
                for _ in range(nrows)]
        kind = rng.randrange(3)
        if kind == 1 and nrows > 1:
            rows[-1] = [v + p * rng.randrange(-1, 2) for v in rows[0]]
        elif kind == 2:
            col = rng.randrange(ncols)
            for r in rows:
                r[col] = p * rng.randrange(-1, 2)
        stack.append(rows)
    return stack


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_eliminate_stack_matches_scalar_and_oracles(p):
    # each member against the scalar oracles rank_brute and det_cofactor,
    # which share no code with the elimination
    rng = random.Random(53 + p)
    shapes = [(k, k) for k in range(1, 5)] + [(1, k) for k in range(2, 5)] \
        + [(k, 1) for k in range(2, 5)] + [(2, 3), (4, 2)]
    singular = 0
    for nrows, ncols in shapes:
        for count in (1, 17):
            stack = random_stack(rng, p, count, nrows, ncols)
            ranks, dets = eliminate_stack(np.array(stack), p)
            assert ranks.tolist() == [rank_brute(m, p) for m in stack]
            if nrows != ncols:
                assert dets is None
                continue
            assert dets.tolist() == [det_cofactor(m, p) for m in stack]
            singular += dets.tolist().count(0)
    assert singular >= 10


@pytest.mark.parametrize("nrows, ncols", [(3, 70), (1, 130), (70, 3)])
def test_gf2_kernel_on_multiword_and_tall_blocks(nrows, ncols):
    # p = 2 packs rows into ceil(c/64) uint64 words: 70 and 130 columns
    # take two and three words, 70 rows one word each; unreduced entries,
    # a member of rank <= 2 and a member that is zero mod 2 in each stack
    rng = random.Random(67 + ncols)
    stack = random_stack(rng, 2, 4, nrows, ncols)
    u, v = ([rng.randrange(2) for _ in range(ncols)] for _ in range(2))
    coef = [(rng.randrange(2), rng.randrange(2)) for _ in range(nrows)]
    stack.append([[a * s + b * t + 2 * rng.randrange(-2, 3) for s, t in zip(u, v)]
                  for a, b in coef])
    stack.append([[2 * rng.randrange(-2, 3) for _ in range(ncols)] for _ in range(nrows)])
    ranks, dets = eliminate_stack(np.array(stack), 2)
    assert dets is None
    expected = [rank_brute(m, 2) for m in stack]
    assert ranks.tolist() == expected
    assert expected[-2] <= 2 and expected[-1] == 0
    assert max(expected) == min(nrows, ncols)
    assert [rank_mod_p(m, 2) for m in stack] == expected
    # member j is odd only in column j, so every bit of every word must
    # be found: rank 1 each
    unit = [[[int(j == k) + 2 * rng.randrange(-2, 3) for k in range(ncols)]
             for _ in range(nrows)] for j in range(ncols)]
    assert eliminate_stack(np.array(unit), 2)[0].tolist() == [1] * ncols


def test_det_and_rank_at_p2_meet_oracles():
    # MatZp.det and rank_mod_p are the bit-packed path on a stack of one
    rng = random.Random(71)
    singular = 0
    for _ in range(200):
        n = rng.randrange(1, 7)
        rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        rank = rank_brute(rows, 2)
        assert MatZp(2, rows).det() == det_cofactor(rows, 2) == int(rank == n)
        assert rank_mod_p(rows, 2) == MatZp(2, rows).rank() == rank
        ncols = rng.randrange(1, n + 1)
        block = [r[:ncols] for r in rows[: rng.randrange(1, n + 1)]]
        assert rank_mod_p(block, 2) == rank_brute(block, 2)
        singular += rank < n
    assert singular >= 40


def test_eliminate_stack_near_the_modulus_bound():
    # p = 2^31 - 1 is the largest admitted prime: residues near p must
    # not overflow int64 in any product or sum
    p = 2**31 - 1
    rng = random.Random(59)
    stack = [[[p - 1 - rng.randrange(4) for _ in range(4)] for _ in range(4)]
             for _ in range(40)]
    stack.append([[p - 1] * 4] * 4)  # rank 1
    ranks, dets = eliminate_stack(np.array(stack), p)
    assert dets.tolist() == [det_cofactor(m, p) for m in stack]
    assert ranks.tolist() == [rank_brute(m, p) for m in stack]
    assert dets[-1] == 0 and ranks[-1] == 1
    assert MatZp(p, stack[0]).det() == dets[0]


def test_det_nonzero_iff_full_rank():
    rng = random.Random(23)
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7))
        n = rng.randrange(1, 6)
        m = random_mat(rng, p, n)
        assert (m.det() != 0) == (m.rank() == n)


def test_inverse_fixture():
    assert P3.inverse() == P3_INV


def test_inverse_roundtrip():
    rng = random.Random(29)
    for _ in range(60):
        p = rng.choice((2, 3, 5, 7))
        n = rng.randrange(1, 6)
        m = random_invertible(rng, p, n)
        assert m @ m.inverse() == MatZp.identity(p, n)


def test_inverse_singular_raises():
    with pytest.raises(ZeroDivisionError):
        MatZp.zeros(3, 2).inverse()


@pytest.mark.parametrize("p", [2, 3])
def test_inverse_and_det_when_p_is_at_most_n(p):
    # Cayley-Hamilton needs only c_0 = (-1)^n det to be a unit, so the
    # inverse holds for p <= n too; unreduced entries, n up to 5
    rng = random.Random(61 + p)
    singular = 0
    for _ in range(150):
        n = rng.randrange(p, 6)
        rows = [[rng.randrange(-3 * p, 4 * p) for _ in range(n)] for _ in range(n)]
        m = MatZp(p, rows)
        det = det_cofactor(rows, p)
        assert m.det() == det
        if det == 0:
            singular += 1
            with pytest.raises(ZeroDivisionError):
                m.inverse()
            continue
        assert m @ m.inverse() == MatZp.identity(p, n) == m.inverse() @ m
        assert det_cofactor(m.inverse().to_lists(), p) * det % p == 1
    assert singular >= 20


def test_companion_fixtures():
    f = PolyZp(3, [1, 2, 1, 1])  # x^3 + x^2 + 2x + 1
    assert MatZp.companion(f) == C3
    assert MatZp.companion(PolyZp(5, [3, 1])) == MatZp(5, [[2]])  # x + 3 -> (-3)
    assert MatZp.companion(PolyZp(2, [1, 1, 0, 1])) == MatZp(
        2, [[0, 1, 0], [0, 0, 1], [1, 1, 0]]
    )


def test_companion_rejects_nonmonic():
    with pytest.raises(ValueError):
        MatZp.companion(PolyZp(3, [1, 2]))


def test_char_poly_fixtures():
    assert Q2.char_poly() == PolyZp(2, [1, 0, 1, 1])  # x^3 + x^2 + 1
    assert MatZp(3, [[1, 1], [1, 0]]).char_poly() == PolyZp(3, [2, 2, 1])


def test_char_poly_of_companion_is_the_polynomial():
    rng = random.Random(31)
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7))
        n = rng.randrange(1, 9)
        f = PolyZp(p, [rng.randrange(p) for _ in range(n)] + [1])
        assert MatZp.companion(f).char_poly() == f


def test_char_poly_matches_cofactor_oracle():
    rng = random.Random(37)
    for _ in range(80):
        p = rng.choice((2, 3, 5, 7))
        n = rng.randrange(1, 6)
        m = random_mat(rng, p, n)
        assert m.char_poly() == char_poly_cofactor(m)


def test_char_poly_invariant_under_similarity():
    rng = random.Random(41)
    for _ in range(50):
        p = rng.choice((2, 3, 5))
        n = rng.randrange(1, 6)
        m = random_mat(rng, p, n)
        t = random_invertible(rng, p, n)
        assert (t @ m @ t.inverse()).char_poly() == m.char_poly()


def test_congruence_identity():
    rng = random.Random(43)
    for _ in range(10):
        b = random_mat(rng, 5, 4)
        assert congruence(MatZp.identity(5, 4), b) == b


def test_congruence_fixture_three_qutrits():
    assert congruence(P3, B0_3.scale(2)) == MatZp.identity(3, 3)


def test_congruence_empty_diagonal_block():
    # [[1,1],[1,-1]] applied to [[0,d],[d,0]] gives [[2d,0],[0,-2d]]
    for p in (3, 5, 7):
        omega = MatZp(p, [[1, 1], [1, -1]])
        for d in range(1, p):
            block = MatZp(p, [[0, d], [d, 0]])
            assert congruence(omega, block) == MatZp.diagonal(p, [2 * d, -2 * d])


def test_congruence_preserves_symmetry_and_nonsingularity():
    rng = random.Random(47)
    for _ in range(60):
        p = rng.choice((2, 3, 5, 7))
        n = rng.randrange(1, 6)
        b = random_mat(rng, p, n)
        b = b + b.transpose()  # symmetric
        t = random_invertible(rng, p, n)
        out = congruence(t, b)
        assert out.is_symmetric
        assert (out.det() != 0) == (b.det() != 0)


def test_matrix_power():
    assert Q3**2 == Q3_SQ
    assert Q3**0 == MatZp.identity(3, 3)
    assert Q3**-1 == Q3.inverse()


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        MatZp.identity(2, 2) @ MatZp.identity(2, 3)
    with pytest.raises(ValueError):
        MatZp.identity(2, 2) + MatZp.identity(3, 2)
