import random

import numpy as np
import pytest

from graphmub.fields import PolyZp
from graphmub.linalg import MatZp, congruence, eliminate_stack, rank_mod_p
from oracles import char_poly_cofactor, det_cofactor, rank_brute, rank_gf2_basis

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
    # which share no code with the elimination: a square member is
    # singular exactly when its rank is short, and MatZp.det (Berkowitz)
    # gives the determinant's value
    rng = random.Random(53 + p)
    shapes = [(k, k) for k in range(1, 5)] + [(1, k) for k in range(2, 5)] \
        + [(k, 1) for k in range(2, 5)] + [(2, 3), (4, 2)]
    singular = 0
    for nrows, ncols in shapes:
        for count in (1, 17):
            stack = random_stack(rng, p, count, nrows, ncols)
            ranks = eliminate_stack(np.array(stack), p)
            assert ranks.dtype == np.int64 and ranks.shape == (count,)
            assert ranks.tolist() == [rank_brute(m, p) for m in stack]
            if nrows != ncols:
                continue
            dets = [det_cofactor(m, p) for m in stack]
            assert [MatZp(p, m).det() for m in stack] == dets
            assert [r == nrows for r in ranks.tolist()] == [d != 0 for d in dets]
            singular += dets.count(0)
    assert singular >= 10


@pytest.mark.parametrize("nrows, ncols", [(3, 70), (1, 130), (70, 3)])
def test_gf2_kernel_on_multiword_and_tall_blocks(nrows, ncols):
    # p = 2 transposes each member to its narrow side: 3 x 70 and 70 x 3
    # both pack 21 three-bit rows per word (four words), 1 x 130 packs 64
    # one-bit rows per word (three words); unreduced entries, a member of
    # rank <= 2 and a member that is zero mod 2 in each stack
    rng = random.Random(67 + ncols)
    stack = random_stack(rng, 2, 4, nrows, ncols)
    u, v = ([rng.randrange(2) for _ in range(ncols)] for _ in range(2))
    coef = [(rng.randrange(2), rng.randrange(2)) for _ in range(nrows)]
    stack.append([[a * s + b * t + 2 * rng.randrange(-2, 3) for s, t in zip(u, v)]
                  for a, b in coef])
    stack.append([[2 * rng.randrange(-2, 3) for _ in range(ncols)] for _ in range(nrows)])
    ranks = eliminate_stack(np.array(stack), 2)
    assert ranks.dtype == np.int64 and ranks.shape == (len(stack),)
    expected = [rank_brute(m, 2) for m in stack]
    assert ranks.tolist() == expected
    assert expected[-2] <= 2 and expected[-1] == 0
    assert max(expected) == min(nrows, ncols)
    assert [rank_mod_p(m, 2) for m in stack] == expected
    # member j is odd only in column j, so every bit of every word must
    # be found: rank 1 each
    unit = [[[int(j == k) + 2 * rng.randrange(-2, 3) for k in range(ncols)]
             for _ in range(nrows)] for j in range(ncols)]
    assert eliminate_stack(np.array(unit), 2).tolist() == [1] * ncols


def known_rank(rng, p, nrows, ncols, k):
    """U V for U (nrows x k) and V (k x ncols) over Z_p, U holding the
    identity on k random rows and V on k random columns, so the rank is
    exactly k.  Entries are shifted by -p, 0 or p, so they arrive
    unreduced."""
    u = [[rng.randrange(p) for _ in range(k)] for _ in range(nrows)]
    for j, i in enumerate(rng.sample(range(nrows), k)):
        u[i] = [int(j == l) for l in range(k)]
    v = [[rng.randrange(p) for _ in range(ncols)] for _ in range(k)]
    for j, c in enumerate(rng.sample(range(ncols), k)):
        for l in range(k):
            v[l][c] = int(j == l)
    return [[sum(ur[l] * v[l][c] for l in range(k)) % p + p * rng.randrange(-1, 2)
             for c in range(ncols)] for ur in u]


@pytest.mark.parametrize("p", [3, 5, 13, 2**31 - 1])
@pytest.mark.parametrize("nrows, ncols", [(243, 15), (15, 243), (70, 3), (3, 70)])
def test_odd_kernel_on_tall_and_wide_blocks_of_known_rank(p, nrows, ncols):
    # 243 x 15 is the affine proof's block at (3,5); the ranks run from
    # 0 (an all-zero member) through full, each member built to its rank
    rng = random.Random(73 + nrows + p % 97)
    full = min(nrows, ncols)
    ks = [0, 1, 2, full // 2, full - 1, full]
    stack = [known_rank(rng, p, nrows, ncols, k) for k in ks]
    assert eliminate_stack(np.array(stack), p).tolist() == ks
    for m, k in zip(stack[:2], ks):  # N = 1
        assert eliminate_stack(np.array([m]), p).tolist() == [k]
    assert rank_mod_p(stack[-1], p) == full


@pytest.mark.parametrize("ncols", [1, 2, 7, 8, 9, 21, 22, 31, 32, 33, 63, 64, 65, 130])
def test_gf2_packed_fields_at_every_width(ncols):
    # p = 2 packs k = max(1, 64 // c) rows of c = min(r, c) bits into each
    # uint64 word, and a row of c > 64 bits into ceil(c/64) words (k = 1).
    # r = k - 1 and k + 1 leave a last word part full, r = c + 1 keeps c
    # the packed side; every stack is ranked transposed too, and built to
    # ranks 0, 1, half and full from unreduced entries
    rng = random.Random(83 + ncols)
    k = max(1, 64 // ncols)
    for nrows in sorted({max(1, k - 1), k + 1, ncols + 1}):
        full = min(nrows, ncols)
        ks = sorted({0, 1, full // 2, full})
        stack = np.array([known_rank(rng, 2, nrows, ncols, rank) for rank in ks])
        assert eliminate_stack(stack, 2).tolist() == ks
        assert eliminate_stack(stack.transpose(0, 2, 1), 2).tolist() == ks
        for m, rank in zip(stack, ks):  # N = 1
            assert eliminate_stack(m[None], 2).tolist() == [rank]
            assert rank_gf2_basis(m) == rank


@pytest.mark.parametrize("p", [2, 3, 5, 13, 2**31 - 1])
def test_eliminate_stack_pivot_edge_cases(p):
    rng = random.Random(79 + p % 97)

    def unit():
        return rng.randrange(1, p)

    # column 0 held by the last row alone; row 3 an unreduced multiple of row 1
    last_only = [[0] * 6 for _ in range(5)]
    last_only[1][2], last_only[1][4] = unit(), rng.randrange(p)
    last_only[3] = [2 * v - p for v in last_only[1]]
    last_only[4] = [unit()] + [rng.randrange(p) for _ in range(5)]
    # pivots at columns 1 and 3, columns 0 and 2 zero, a zero first row
    r1 = [0, unit(), 0, 0, rng.randrange(p), rng.randrange(p)]
    r3 = [0, 0, 0, unit(), rng.randrange(p), rng.randrange(p)]
    gap = [[0] * 6, r1, [2 * v - p for v in r1], r3,
           [a + b + p for a, b in zip(r1, r3)]]
    zero = [[p * rng.randrange(-2, 3) for _ in range(6)] for _ in range(5)]
    stack = [last_only, gap, zero]
    assert [rank_brute(m, p) for m in stack] == [2, 2, 0]
    assert eliminate_stack(np.array(stack), p).tolist() == [2, 2, 0]
    for m, k in zip(stack, (2, 2, 0)):  # N = 1
        assert eliminate_stack(np.array([m]), p).tolist() == [k]
        assert rank_mod_p(m, p) == k
    for shape in ((0, 5, 6), (0, 243, 15)):  # N = 0
        ranks = eliminate_stack(np.zeros(shape, dtype=np.int64), p)
        assert ranks.dtype == np.int64 and ranks.shape == (0,)
    for shape in ((3, 0, 4), (3, 4, 0)):  # no rows, or no columns
        ranks = eliminate_stack(np.zeros(shape, dtype=np.int64), p)
        assert ranks.dtype == np.int64 and ranks.tolist() == [0, 0, 0]
    assert rank_mod_p([], p) == rank_mod_p([[]], p) == 0


def test_det_and_rank_at_p2_meet_oracles():
    # rank_mod_p is the bit-packed path on a stack of one; MatZp.det is
    # Berkowitz, nonzero exactly at full rank
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
    ranks = eliminate_stack(np.array(stack), p).tolist()
    dets = [det_cofactor(m, p) for m in stack]
    assert [MatZp(p, m).det() for m in stack] == dets
    assert ranks == [rank_brute(m, p) for m in stack]
    assert [r == 4 for r in ranks] == [d != 0 for d in dets]
    assert dets[-1] == 0 and ranks[-1] == 1


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
