"""Exact dense linear algebra over the scalar fields.

Matrices are plain lists of rows of FieldElement.  Row reduction always
produces the fully reduced echelon form with unit pivots, so row spaces and
kernels have canonical bases and can be compared entrywise.

The Pfaffian code is written against generic ring elements (anything with
+, -, * and is_zero) so the same recursion serves field matrices and
matrices of polynomials.
"""

from __future__ import annotations

from .errors import PreconditionError

# index pairs (i, j) with i < j for a 6x6 skew matrix, lexicographic
PAIRS = [(i, j) for i in range(6) for j in range(i + 1, 6)]
PAIR_INDEX = {p: k for k, p in enumerate(PAIRS)}


def mat(field, rows):
    return [[field(x) for x in row] for row in rows]


def zeros(field, m, n):
    return [[field.zero for _ in range(n)] for _ in range(m)]


def identity(field, n):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def mat_mul(A, B):
    Bt = transpose(B)
    return [[sum((x * y for x, y in zip(row, col)), start=row[0].field.zero) for col in Bt] for row in A]


def mat_vec(A, v):
    return [sum((x * y for x, y in zip(row, v)), start=row[0].field.zero) for row in A]


def rref(field, rows):
    """Reduced row echelon form.  Returns (nonzero rows, pivot column list)."""
    R = [list(r) for r in rows]
    m = len(R)
    n = len(R[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if not R[i][c].is_zero():
                pr = i
                break
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = R[r][c].inverse()
        R[r] = [x * inv for x in R[r]]
        for i in range(m):
            if i != r and not R[i][c].is_zero():
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return R[:r], pivots


def rank(field, rows) -> int:
    if not rows:
        return 0
    return len(rref(field, rows)[1])


def kernel(field, rows):
    """Canonical basis (RREF rows) of the right kernel of the matrix."""
    if not rows:
        return []
    n = len(rows[0])
    R, pivots = rref(field, rows)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for f in free:
        v = [field.zero] * n
        v[f] = field.one
        for r, p in enumerate(pivots):
            v[p] = -R[r][f]
        basis.append(v)
    if not basis:
        return []
    out, _ = rref(field, basis)
    return out


def det(field, rows):
    """Determinant by Gaussian elimination with swap tracking."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise PreconditionError("determinant needs a square matrix")
    R = [list(r) for r in rows]
    sign = field.one
    acc = field.one
    for c in range(n):
        pr = None
        for i in range(c, n):
            if not R[i][c].is_zero():
                pr = i
                break
        if pr is None:
            return field.zero
        if pr != c:
            R[c], R[pr] = R[pr], R[c]
            sign = -sign
        acc = acc * R[c][c]
        inv = R[c][c].inverse()
        for i in range(c + 1, n):
            if not R[i][c].is_zero():
                f = R[i][c] * inv
                R[i] = [x - f * y for x, y in zip(R[i], R[c])]
    return sign * acc


def solve(field, A, b):
    """One solution of A x = b, or None when inconsistent."""
    if not A:
        return None if any(not y.is_zero() for y in b) else []
    n = len(A[0])
    aug = [list(row) + [y] for row, y in zip(A, b)]
    R, pivots = rref(field, aug)
    for row in R:
        if all(x.is_zero() for x in row[:n]) and not row[n].is_zero():
            return None
    x = [field.zero] * n
    for r, p in enumerate(pivots):
        if p < n:
            x[p] = R[r][n]
    return x


def random_matrix(field, rng, m, n):
    return [[field.random(rng) for _ in range(n)] for _ in range(m)]


# ---------------------------------------------------------------------------
# skew forms


def check_skew(field, A):
    n = len(A)
    for row in A:
        if len(row) != n:
            raise PreconditionError("matrix is not square")
    for i in range(n):
        for j in range(i, n):
            if not (A[i][j] + A[j][i]).is_zero():
                raise PreconditionError(
                    f"matrix is not skew-symmetric at ({i},{j})"
                )


def skew_from_pairs(field, coeffs):
    """6x6 skew matrix from 15 upper-triangular coefficients in lex pair order."""
    if len(coeffs) != 15:
        raise PreconditionError("expected 15 coefficients")
    A = zeros(field, 6, 6)
    for (i, j), c in zip(PAIRS, coeffs):
        x = field(c)
        A[i][j] = x
        A[j][i] = -x
    return A


def pairs_from_skew(A):
    return [A[i][j] for i, j in PAIRS]


def pfaffian(A, zero, one):
    """Pfaffian of an even-size skew matrix over any commutative ring.

    First-row expansion: the term for column j carries sign (-1)^(j-1).
    """
    n = len(A)
    if n % 2 != 0:
        raise PreconditionError("pfaffian needs even size")

    def rec(idx):
        if not idx:
            return one
        i0 = idx[0]
        rest = idx[1:]
        total = zero
        for pos, j in enumerate(rest):
            a = A[i0][j]
            if a.is_zero():
                continue
            sub = rest[:pos] + rest[pos + 1 :]
            term = a * rec(sub)
            total = total + term if pos % 2 == 0 else total - term
        return total

    return rec(tuple(range(n)))


def pfaffian_field(field, A):
    check_skew(field, A)
    return pfaffian(A, field.zero, field.one)


def sub_pfaffians_6(A, zero, one):
    """The 15 signed principal sub-Pfaffians of a 6x6 skew matrix.

    Entry for the pair (i, j) is (-1)^(i+j) times the Pfaffian of the matrix
    with rows and columns i and j removed.  For a rank-4 matrix the resulting
    vector is proportional to the Pluecker vector of the 2-dimensional kernel.
    """
    if len(A) != 6:
        raise PreconditionError("expected a 6x6 matrix")
    out = []
    for i, j in PAIRS:
        idx = tuple(k for k in range(6) if k not in (i, j))
        sub = [[A[r][c] for c in idx] for r in idx]
        val = pfaffian(sub, zero, one)
        out.append(val if (i + j) % 2 == 0 else -val)
    return out


def sub_pfaffians_6_field(field, A):
    check_skew(field, A)
    return sub_pfaffians_6(A, field.zero, field.one)
