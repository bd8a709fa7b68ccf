"""Projective subspaces of P^5 and Pluecker coordinates of lines.

A Subspace stores the canonical reduced-echelon basis of a linear subspace of
k^6, so equality of subspaces is equality of stored rows.  Lines (vector
dimension 2) get Pluecker coordinates indexed by the 15 lexicographic index
pairs, and is_decomposable tells which 15-vectors are those of a line.
subspace_points, random_vector and pluecker_relations run on raw values.
count_common_zeros is the one numpy scan; complexes.fiber_rank2_count runs on it.
"""

from __future__ import annotations

import itertools

from .errors import PreconditionError, UnsupportedFieldError
from .fields import Field
from .linalg import PAIR_INDEX, _wrap, kernel, rref

# Prime fields up to this order are scanned exhaustively.  It also keeps the
# int64 scan exact: every entry it forms is below q <= 11, so a condition
# built from a few products of entries stays far inside 2^63.
EXHAUSTIVE_PRIME_CAP = 11
# points per slice in count_common_zeros
SCAN_CHUNK = 1 << 14


class Subspace:
    """Linear subspace of k^n with a canonical row-reduced basis."""

    __slots__ = ("field", "n", "rows")

    def __init__(self, field: Field, n: int, vectors):
        self.field = field
        self.n = n
        vs = [[field(x) for x in v] for v in vectors]
        for v in vs:
            if len(v) != n:
                raise PreconditionError("vector length does not match the ambient space")
        if vs:
            R, _ = rref(field, vs)
            self.rows = R
        else:
            self.rows = []

    @classmethod
    def zero(cls, field: Field, n: int) -> "Subspace":
        return cls(field, n, [])

    @classmethod
    def full(cls, field: Field, n: int) -> "Subspace":
        return cls(field, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def _reduced(cls, field: Field, n: int, rows) -> "Subspace":
        """The subspace whose canonical basis is rows, already reduced."""
        space = cls.__new__(cls)
        space.field, space.n, space.rows = field, n, rows
        return space

    @classmethod
    def from_kernel_of(cls, field: Field, matrix) -> "Subspace":
        if not matrix:
            raise PreconditionError("kernel of an empty matrix is ambiguous")
        return cls._reduced(field, len(matrix[0]), kernel(field, matrix))

    @property
    def dim(self) -> int:
        """Vector space dimension."""
        return len(self.rows)

    @property
    def proj_dim(self) -> int:
        """Projective dimension; -1 for the empty locus."""
        return len(self.rows) - 1

    def basis(self):
        return [list(r) for r in self.rows]

    def contains_vector(self, v) -> bool:
        vv = [self.field(x) for x in v]
        if not self.rows:
            return all(x.is_zero() for x in vv)
        R, piv = rref(self.field, self.rows + [vv])
        return len(piv) == self.dim

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(v) for v in other.rows)

    def annihilator(self) -> "Subspace":
        """The subspace of covectors vanishing on this subspace."""
        if not self.rows:
            return Subspace.full(self.field, self.n)
        return Subspace._reduced(self.field, self.n, kernel(self.field, self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash(
            (self.field, self.n, tuple(tuple(x.v for x in r) for r in self.rows))
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim} of k^{self.n})"


def join(a: Subspace, b: Subspace) -> Subspace:
    if a.field != b.field or a.n != b.n:
        raise PreconditionError("subspaces live in different ambient spaces")
    return Subspace(a.field, a.n, a.basis() + b.basis())


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection by one Zassenhaus elimination: the reduced rows of
    [a | a] over [b | 0] with a pivot in the right half are (0 | w), and
    their w are the intersection's canonical basis."""
    if a.field != b.field or a.n != b.n:
        raise PreconditionError("subspaces live in different ambient spaces")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.field, a.n)
    n, pad = a.n, [a.field.zero] * a.n
    R, pivots = rref(a.field, [r + r for r in a.rows] + [r + pad for r in b.rows])
    return Subspace._reduced(a.field, n, [r[n:] for r, p in zip(R, pivots) if p >= n])


def line_through(field: Field, p, q) -> Subspace:
    L = Subspace(field, len(p), [p, q])
    if L.dim != 2:
        raise PreconditionError("points do not span a line")
    return L


def pluecker_of_line(line: Subspace):
    """The 15 Pluecker coordinates of a line in P^5, lex pair order."""
    if line.n != 6 or line.dim != 2:
        raise PreconditionError("expected a line in P^5")
    field = line.field
    return _wrap(field, _wedge_raw(field, *map(field._unwrap, line.rows)))


def _wedge_raw(field: Field, x, y):
    """The raw x_i y_j - x_j y_i, (i, j) in PAIRS order: for each i, one
    vector over j > i."""
    axpy, scale, neg = field._axpy, field._scale, field._neg
    out = []
    for i in range(len(x) - 1):
        out += axpy(scale(y[i + 1:], x[i]), neg(y[i]), x[i + 1:])
    return out


def normalize_projective(vec):
    """Scale so the first nonzero entry is 1; rejects the zero vector."""
    first = next((x for x in vec if not x.is_zero()), None)
    if first is None:
        raise PreconditionError("zero vector has no projective normalization")
    inv = first.inverse()
    return [x * inv for x in vec]


def is_decomposable(field: Field, p15) -> bool:
    """Whether 15 coordinates lie on the Grassmannian of lines in P^5.

    The criterion is that the vector is nonzero and every three-term
    Pluecker relation vanishes: these are the 4x4 sub-Pfaffians of the
    associated skew matrix, so together they say its rank is exactly 2.
    """
    if all(field(c).is_zero() for c in p15):
        return False
    return all(r.is_zero() for r in pluecker_relations(field, p15))


def pluecker_relations(field: Field, p15):
    """Values of the quadratic three-term relations, one per 4-subset."""
    xs = [field(c).v for c in p15]
    add, mul, neg = field._add, field._mul, field._neg

    def x(i, j):
        return xs[PAIR_INDEX[(i, j)]]

    return _wrap(field, [
        add(add(mul(x(a, b), x(c, d)), neg(mul(x(a, c), x(b, d)))), mul(x(a, d), x(b, c)))
        for a, b, c, d in itertools.combinations(range(6), 4)
    ])


def projective_reps(field: Field, d: int):
    """Canonical representatives of P^(d-1) over a finite field.

    Tuples of length d whose first nonzero coordinate is 1, ordered with the
    leading position moving right.
    """
    if field.order is None:
        raise PreconditionError("cannot enumerate projective space over Q")
    for lead in range(d):
        tail = d - lead - 1

        def rec(k):
            if k == 0:
                yield ()
                return
            for x in field.elements():
                for rest in rec(k - 1):
                    yield (x,) + rest

        for rest in rec(tail):
            yield (field.zero,) * lead + (field.one,) + rest


def _span_points(field: Field, n: int, rows):
    """The raw points c * rows in k^n of raw rows, c in projective_reps order."""
    axpy, zero = field._axpy, field.zero.v
    for coeffs in projective_reps(field, len(rows)):
        v = [zero] * n
        for c, row in zip(coeffs, rows):
            if not c.is_zero():
                v = axpy(v, c.v, row)
        yield v


def subspace_points(space: Subspace):
    """The points c * rows of a subspace over a finite field, c in projective_reps
    order, on raw values; canonical representatives when the basis is canonical."""
    field = space.field
    rows = [field._unwrap(r) for r in space.rows]
    for v in _span_points(field, space.n, rows):
        yield _wrap(field, v)


def random_vector(space: Subspace, rng):
    """A nonzero vector of the subspace with seeded random coordinates."""
    field = space.field
    rows = [field._unwrap(r) for r in space.rows]
    while True:
        cs = [field.random(rng).v for _ in range(space.dim)]
        v = [field.zero.v] * space.n
        for c, row in zip(cs, rows):
            v = field._axpy(v, c, row)
        if not all(map(field._is_zero, v)):
            return _wrap(field, v)


def map_subspace(emb, space: Subspace) -> Subspace:
    """Extend scalars of a subspace along a field embedding."""
    return Subspace(emb.dst, space.n, [[emb(x) for x in r] for r in space.rows])


def is_exhaustive_prime(field: Field) -> bool:
    """Whether field is a prime field small enough for an exhaustive count."""
    return field.order is not None and field.degree == 1 and field.char <= EXHAUSTIVE_PRIME_CAP


def require_exhaustive_prime(field: Field) -> None:
    """Refuse a field that is_exhaustive_prime rejects, Q apart from the rest."""
    if field.order is None:
        raise UnsupportedFieldError("exhaustive counting needs a finite field")
    if not is_exhaustive_prime(field):
        raise PreconditionError(
            "field too large for exhaustive mode "
            f"(prime fields up to q = {EXHAUSTIVE_PRIME_CAP})"
        )


def _proj_reps_array(q: int, n: int):
    """projective_reps(F_q, n) as an int64 array, in the same order."""
    import numpy as np

    blocks = []
    for lead in range(n):
        free = n - lead - 1
        if free == 0:
            block = np.zeros((1, n), dtype=np.int64)
            block[0, lead] = 1
        else:
            grids = np.indices((q,) * free).reshape(free, -1).T
            block = np.zeros((len(grids), n), dtype=np.int64)
            block[:, lead] = 1
            block[:, lead + 1 :] = grids
        blocks.append(block)
    return np.vstack(blocks)


def count_common_zeros(field: Field, rows, conditions) -> int:
    """How many points c of P^(k-1)(F_q) have every condition vanish at c * rows.

    rows is a k x m matrix over a prime field with q <= EXHAUSTIVE_PRIME_CAP.
    Each condition maps an int64 array of images (one row per point, entries
    in [0, q)) to one integer per row; a point passes it when that is 0 mod q.
    The points go in SCAN_CHUNK slices, and each condition sees only the
    points that every earlier one kept.
    """
    import numpy as np

    require_exhaustive_prime(field)
    q = field.char
    basis = np.array([[x.v for x in row] for row in rows], dtype=np.int64)
    reps = _proj_reps_array(q, len(basis))
    count = 0
    for start in range(0, len(reps), SCAN_CHUNK):
        points = reps[start:start + SCAN_CHUNK] @ basis % q
        for cond in conditions:
            points = points[cond(points) % q == 0]
        count += len(points)
    return count
