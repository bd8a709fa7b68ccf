import random

import pytest

from skewloci.errors import PreconditionError
from skewloci.fields import QQ, PrimeField
from skewloci.linalg import (
    PAIRS,
    det,
    identity,
    kernel,
    mat_mul,
    mat_vec,
    pairs_from_skew,
    pfaffian_field,
    rank,
    rref,
    skew_from_pairs,
    solve,
    sub_pfaffians_6_field,
    transpose,
    zeros,
)


def mat(field, rows):
    return [[field(x) for x in row] for row in rows]


def random_matrix(field, rng, m, n):
    return [[field.random(rng) for _ in range(n)] for _ in range(m)]


def test_rref_canonical_and_idempotent():
    F = PrimeField(7)
    rng = random.Random(3)
    for _ in range(20):
        A = random_matrix(F, rng, rng.randint(1, 5), rng.randint(1, 6))
        R, piv = rref(F, A)
        R2, piv2 = rref(F, R)
        assert R2 == R and piv2 == piv
        for r, p in enumerate(piv):
            assert R[r][p].v == 1
            for r2 in range(len(R)):
                if r2 != r:
                    assert R[r2][p].is_zero()


def test_rank_nullity():
    F = PrimeField(11)
    rng = random.Random(9)
    for _ in range(20):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = random_matrix(F, rng, m, n)
        r = rank(F, A)
        ker = kernel(F, A)
        assert r + len(ker) == n
        for v in ker:
            assert all(x.is_zero() for x in mat_vec(A, v))


def test_kernel_basis_is_rref_canonical():
    F = PrimeField(5)
    A = mat(F, [[1, 2, 3, 4], [2, 4, 1, 3]])
    ker = kernel(F, A)
    R, _ = rref(F, ker)
    assert R == ker


def test_solve_roundtrip_and_inconsistent():
    F = PrimeField(13)
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(1, 5)
        A = random_matrix(F, rng, n, n)
        x = [F.random(rng) for _ in range(n)]
        b = mat_vec(A, x)
        got = solve(F, A, b)
        assert got is not None
        assert mat_vec(A, got) == b
    A = mat(F, [[1, 0], [1, 0]])
    assert solve(F, A, [F(1), F(2)]) is None


def test_det_multiplicative():
    F = PrimeField(17)
    rng = random.Random(6)
    for _ in range(15):
        n = rng.randint(1, 5)
        A = random_matrix(F, rng, n, n)
        B = random_matrix(F, rng, n, n)
        assert det(F, mat_mul(A, B)) == det(F, A) * det(F, B)
    assert det(F, identity(F, 4)) == F.one


def test_pfaffian_two_by_two():
    F = PrimeField(7)
    A = mat(F, [[0, 3], [-3, 0]])
    assert pfaffian_field(F, A).v == 3


def test_pfaffian_four_by_four_formula():
    # Pf = a01*a23 - a02*a13 + a03*a12
    rng = random.Random(12)
    for _ in range(10):
        a = {}
        for i in range(4):
            for j in range(i + 1, 4):
                a[(i, j)] = rng.randint(-9, 9)
        A = zeros(QQ, 4, 4)
        for (i, j), v in a.items():
            A[i][j] = QQ(v)
            A[j][i] = QQ(-v)
        expected = a[(0, 1)] * a[(2, 3)] - a[(0, 2)] * a[(1, 3)] + a[(0, 3)] * a[(1, 2)]
        assert pfaffian_field(QQ, A) == QQ(expected)


def test_pfaffian_squares_to_determinant():
    F = PrimeField(101)
    rng = random.Random(4)
    for n in (2, 4, 6):
        for _ in range(8):
            coeffs = [rng.randrange(101) for _ in range(n * (n - 1) // 2)]
            A = zeros(F, n, n)
            k = 0
            for i in range(n):
                for j in range(i + 1, n):
                    A[i][j] = F(coeffs[k])
                    A[j][i] = -F(coeffs[k])
                    k += 1
            pf = pfaffian_field(F, A)
            assert pf * pf == det(F, A)


def test_pfaffian_block_diagonal():
    F = PrimeField(11)
    coeffs = [0] * 15
    coeffs[PAIRS.index((0, 1))] = 2
    coeffs[PAIRS.index((2, 3))] = 3
    coeffs[PAIRS.index((4, 5))] = 5
    A = skew_from_pairs(F, coeffs)
    assert pfaffian_field(F, A).v == 30 % 11


def test_pfaffian_rejects_odd_size():
    F = PrimeField(7)
    with pytest.raises(PreconditionError):
        pfaffian_field(F, zeros(F, 3, 3))


def test_skew_validation():
    F = PrimeField(7)
    A = zeros(F, 6, 6)
    A[0][1] = F(1)
    with pytest.raises(PreconditionError):
        pfaffian_field(F, A)


def test_skew_pairs_roundtrip():
    F = PrimeField(13)
    rng = random.Random(8)
    coeffs = [rng.randrange(13) for _ in range(15)]
    A = skew_from_pairs(F, coeffs)
    assert [x.v for x in pairs_from_skew(A)] == coeffs
    assert transpose(A) == [[-x for x in row] for row in A]


def test_sub_pfaffians_block_anchor():
    F = PrimeField(101)
    coeffs = [0] * 15
    coeffs[PAIRS.index((0, 1))] = 1
    coeffs[PAIRS.index((2, 3))] = 1
    A = skew_from_pairs(F, coeffs)
    s = sub_pfaffians_6_field(F, A)
    expected = [0] * 15
    expected[PAIRS.index((4, 5))] = -1
    assert [x.v for x in s] == [v % 101 for v in expected]


def test_sub_pfaffians_span_kernel_line():
    # for rank-4 skew matrices the signed sub-Pfaffian vector is proportional
    # to the Pluecker vector of the kernel plane
    F = PrimeField(101)
    rng = random.Random(77)
    checked = 0
    while checked < 25:
        vecs = [[F.random(rng) for _ in range(6)] for _ in range(4)]
        a, b, c, d = vecs
        A = zeros(F, 6, 6)
        for i in range(6):
            for j in range(6):
                A[i][j] = a[i] * b[j] - b[i] * a[j] + c[i] * d[j] - d[i] * c[j]
        if rank(F, A) != 4:
            continue
        u, v = kernel(F, A)
        plue = [u[i] * v[j] - u[j] * v[i] for i, j in PAIRS]
        s = sub_pfaffians_6_field(F, A)
        k0 = next(k for k in range(15) if not plue[k].is_zero())
        ratio = s[k0] / plue[k0]
        assert not ratio.is_zero()
        for k in range(15):
            assert s[k] == ratio * plue[k]
        B = skew_from_pairs(F, [x.v for x in s])
        assert all(x.is_zero() for row in mat_mul(A, B) for x in row)
        checked += 1
