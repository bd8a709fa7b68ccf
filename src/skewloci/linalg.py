"""Exact dense linear algebra over the scalar fields.

Matrices are plain lists of rows of FieldElement.  Row reduction always
produces the fully reduced echelon form with unit pivots, so row spaces and
kernels have canonical bases and can be compared entrywise.

The scalar kernels (rref and the routines built on it, det, mat_vec,
mat_mul) read the entries' raw values once with Field._unwrap, which refuses
an entry of another field, run on whole raw rows through the field's vector
kernels (_dot for products, _scale and _axpy for row operations; each field
runs its own, with one normalization per output value), and build
FieldElements once for the result (_rref_raw and _kernel_raw serve callers
that already hold raw rows).

The one numeric Pfaffian, _pfaffian_raw, is skew elimination on the upper
parts of raw rows of any even order, cubic in the order; pfaffian_field and
sub_pfaffians_6_field check their input and call it.  The symbolic one is
complexes._matching_form.
"""

from __future__ import annotations

from .errors import PreconditionError
from .fields import FieldElement

# index pairs (i, j) with i < j for a 6x6 skew matrix, lexicographic
PAIRS = [(i, j) for i in range(6) for j in range(i + 1, 6)]
PAIR_INDEX = {p: k for k, p in enumerate(PAIRS)}


def zeros(field, m, n):
    return [[field.zero for _ in range(n)] for _ in range(m)]


def identity(field, n):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def _wrap(field, vals):
    return [FieldElement(field, v) for v in vals]


def mat_mul(A, B):
    if not A:
        return []
    field = A[0][0].field
    dot = field._dot
    Bt = [field._unwrap(col) for col in zip(*B)]
    return [
        _wrap(field, [dot(row, col) for col in Bt])
        for row in map(field._unwrap, A)
    ]


def mat_vec(A, v):
    if not A:
        return []
    field = A[0][0].field
    v = field._unwrap(v)
    return _wrap(field, [field._dot(field._unwrap(row), v) for row in A])


def _rref_raw(field, R):
    """Row-reduce the raw rows R in place; returns (R[:rank], pivots)."""
    axpy, scale, neg, inv, is_zero = (
        field._axpy, field._scale, field._neg, field._inv, field._is_zero,
    )
    m = len(R)
    n = len(R[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if not is_zero(R[i][c]):
                pr = i
                break
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        # rows r.. vanish left of column c, so only columns c.. change
        tail = scale(R[r][c:], inv(R[r][c]))
        R[r] = R[r][:c] + tail
        for i in range(m):
            if i != r:
                row = R[i]
                f = row[c]
                if not is_zero(f):
                    row[c:] = axpy(row[c:], neg(f), tail)
        pivots.append(c)
        r += 1
        if r == m:
            break
    return R[:r], pivots


def rref(field, rows):
    """Reduced row echelon form.  Returns (nonzero rows, pivot column list)."""
    R, pivots = _rref_raw(field, [field._unwrap(r) for r in rows])
    return [_wrap(field, row) for row in R], pivots


def rank(field, rows) -> int:
    if not rows:
        return 0
    return len(_rref_raw(field, [field._unwrap(r) for r in rows])[1])


def _kernel_raw(field, R):
    """Canonical raw basis (RREF rows) of the right kernel of the raw rows R.

    One elimination, of the columns in reverse order: each pivot then lies
    right of the free columns its row touches, so the kernel vectors in
    increasing free column are already in reduced echelon form.
    """
    if not R:
        return []
    n = len(R[0])
    R, pivots = _rref_raw(field, [r[::-1] for r in R])
    pivot_set = set(pivots)
    zero, one, neg = field.zero.v, field.one.v, field._neg
    basis = []
    for f in range(n - 1, -1, -1):  # reversed column f is original n - 1 - f
        if f in pivot_set:
            continue
        v = [zero] * n
        v[f] = one
        for r, p in enumerate(pivots):
            v[p] = neg(R[r][f])
        basis.append(v[::-1])
    return basis


def _matchings(idx):
    """(sign, pairs) for the perfect matchings of idx, signed by first-row expansion."""
    if not idx:
        return [(1, ())]
    return [((-1) ** pos * sign, ((idx[0], j),) + rest)
            for pos, j in enumerate(idx[1:])
            for sign, rest in _matchings(idx[1:pos + 1] + idx[pos + 2:])]


def _pfaffian_raw(field, A):
    """Pfaffian of the raw even-order skew rows A, by skew elimination.

    With a = A[0][1], Pf(A) = a * Pf(S) for the skew Schur complement
    S[i][l] = A[i][l] + (A[i][0] A[1][l] - A[i][1] A[0][l]) / a, i, l >= 2.
    Only the upper parts U[i] = A[i][i+1:] are built, the rest read as their
    negatives: each row of S is two _axpy calls.  If A[0][1] is zero, index
    1 is first swapped with the first j that has A[0][j] != 0 in rows and
    columns, which flips the sign; a zero first row gives 0.  A is not mutated.
    """
    axpy, mul, neg, inv, is_zero = field._axpy, field._mul, field._neg, field._inv, field._is_zero
    acc = field.one.v
    U = [row[i + 1:] for i, row in enumerate(A)]
    while len(U) > 1:
        top = U[0]
        if is_zero(top[0]):
            j = next((j for j in range(1, len(top)) if not is_zero(top[j])), None)
            if j is None:
                return field.zero.v
            perm = [0, j + 1, *range(2, j + 1), 1, *range(j + 2, len(U))]
            U = [[U[r][c - r - 1] if r < c else neg(U[c][r - c - 1])
                  for c in perm[i + 1:]] for i, r in enumerate(perm)]
            top, acc = U[0], neg(acc)
        acc, s = mul(acc, top[0]), inv(top[0])
        t, piv = neg(s), U[1]
        # the last row has nothing right of the diagonal, so it stays []
        U = [axpy(axpy(row, mul(top[i], t), piv[i:]), mul(piv[i - 1], s), top[i + 1:])
             for i, row in enumerate(U[2:-1], 1)] + U[-1:]
    return acc


def kernel(field, rows):
    """Canonical basis (RREF rows) of the right kernel of the matrix."""
    return [_wrap(field, v) for v in _kernel_raw(field, [field._unwrap(r) for r in rows])]


def det(field, rows):
    """Determinant by Gaussian elimination with swap tracking."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise PreconditionError("determinant needs a square matrix")
    axpy, mul, neg, inv, is_zero = (
        field._axpy, field._mul, field._neg, field._inv, field._is_zero,
    )
    R = [field._unwrap(r) for r in rows]
    acc = field.one.v
    for c in range(n):
        pr = None
        for i in range(c, n):
            if not is_zero(R[i][c]):
                pr = i
                break
        if pr is None:
            return field.zero
        if pr != c:
            R[c], R[pr] = R[pr], R[c]
            acc = neg(acc)
        piv = R[c][c]
        acc = mul(acc, piv)
        s = inv(piv)
        pivot_tail = R[c][c + 1:]
        # column c is not read again, so only columns c+1.. are updated
        for i in range(c + 1, n):
            row = R[i]
            if not is_zero(row[c]):
                f = neg(mul(row[c], s))
                row[c + 1:] = axpy(row[c + 1:], f, pivot_tail)
    return FieldElement(field, acc)


def solve(field, A, b):
    """One solution of A x = b, or None when inconsistent."""
    if not A:
        return None if any(not y.is_zero() for y in b) else []
    n = len(A[0])
    aug = [field._unwrap(row) + field._unwrap((y,)) for row, y in zip(A, b)]
    R, pivots = _rref_raw(field, aug)
    # the rows are reduced, so an inconsistent row has its pivot in column n
    if pivots and pivots[-1] == n:
        return None
    x = [field.zero.v] * n
    for r, p in enumerate(pivots):
        x[p] = R[r][n]
    return _wrap(field, x)


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


def pfaffian_field(field, A):
    check_skew(field, A)
    if len(A) % 2:
        raise PreconditionError("pfaffian needs even size")
    return FieldElement(field, _pfaffian_raw(field, [field._unwrap(r) for r in A]))


def sub_pfaffians_6_field(field, A):
    """The 15 signed principal sub-Pfaffians of a 6x6 skew matrix.

    Entry for the pair (i, j) is (-1)^(i+j) times the Pfaffian of the matrix
    with rows and columns i and j removed.  For a rank-4 matrix the resulting
    vector is proportional to the Pluecker vector of the 2-dimensional kernel.
    """
    check_skew(field, A)
    if len(A) != 6:
        raise PreconditionError("expected a 6x6 matrix")
    R = [field._unwrap(r) for r in A]
    out = []
    for i, j in PAIRS:
        idx = [k for k in range(6) if k not in (i, j)]
        val = _pfaffian_raw(field, [[R[r][c] for c in idx] for r in idx])
        out.append(val if (i + j) % 2 == 0 else field._neg(val))
    return _wrap(field, out)
