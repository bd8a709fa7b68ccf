"""Linear complexes of lines in P^5 and their degeneration types.

A linear complex is the zero locus, on the Grassmannian of lines, of a skew
bilinear form on k^6.  The form's rank stratifies the complexes: rank 6 is
the general case, rank 4 is a first-type special complex (singular along a
line), rank 2 is a second-type special complex consisting of all lines that
meet a fixed 3-space.

m independent complexes define a morphism O^m -> Omega(2) on P^5
(ComplexSystem); pencils (m = 2) and nets (m = 3) are its two cases, and
pfaffian_form gives the Pfaffian of their combinations as one form in m
variables.
"""

from __future__ import annotations

from .errors import DegenerateInputError, PreconditionError
from .fields import Field, FieldElement
from .linalg import (
    PAIRS,
    check_skew,
    kernel,
    mat_vec,
    pairs_from_skew,
    pfaffian,
    pfaffian_field,
    rank,
    skew_from_pairs,
    zeros,
)
from .polys import MPoly
from .projective import Subspace, is_decomposable, join, meet, subspace_points

GENERAL = "general"
SPECIAL_FIRST = "special-first-type"
SPECIAL_SECOND = "special-second-type"


class LinearComplex:
    """A skew form on k^6 up to scale, acting on lines via the wedge pairing.

    The matrix is normalized so its first nonzero upper-triangular entry is 1,
    making equality of complexes projective equality.
    """

    __slots__ = ("field", "matrix")

    def __init__(self, field: Field, matrix):
        M = [[field(x) for x in row] for row in matrix]
        if len(M) != 6 or any(len(r) != 6 for r in M):
            raise PreconditionError("expected a 6x6 matrix")
        check_skew(field, M)
        lead = next(
            (M[i][j] for i, j in PAIRS if not M[i][j].is_zero()), None
        )
        if lead is not None and not (lead == field.one):
            inv = lead.inverse()
            M = [[x * inv for x in row] for row in M]
        self.field = field
        self.matrix = M

    @classmethod
    def from_pairs(cls, field: Field, coeffs):
        return cls(field, skew_from_pairs(field, coeffs))

    def coeffs(self):
        return pairs_from_skew(self.matrix)

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.coeffs())

    def rank(self) -> int:
        return rank(self.field, self.matrix)

    def pf(self) -> FieldElement:
        return pfaffian_field(self.field, self.matrix)

    def pairing(self, line: Subspace) -> FieldElement:
        """u^T A v for a basis u, v of the line; zero iff the line belongs."""
        if line.n != 6 or line.dim != 2:
            raise PreconditionError("expected a line in P^5")
        u, v = line.rows
        Av = mat_vec(self.matrix, v)
        return sum((x * y for x, y in zip(u, Av)), start=self.field.zero)

    def contains_line(self, line: Subspace) -> bool:
        return self.pairing(line).is_zero()

    def classify(self) -> str:
        r = self.rank()
        if r == 6:
            return GENERAL
        if r == 4:
            return SPECIAL_FIRST
        if r == 2:
            return SPECIAL_SECOND
        raise DegenerateInputError("zero form does not define a complex")

    def kernel_space(self) -> Subspace:
        """The singular locus source: a line for rank 4, a 3-space for rank 2."""
        return Subspace.from_kernel_of(self.field, self.matrix)

    def complex_class(self) -> "ComplexClass":
        kind = self.classify()
        if kind == GENERAL:
            singular = Subspace.zero(self.field, 6)
        else:
            singular = self.kernel_space()
        return ComplexClass(kind, singular, self.pf())

    def map(self, emb) -> "LinearComplex":
        """Extend scalars along a field embedding."""
        return LinearComplex(emb.dst, [[emb(x) for x in row] for row in self.matrix])

    def __eq__(self, other):
        return (
            isinstance(other, LinearComplex)
            and self.field == other.field
            and self.matrix == other.matrix
        )

    def __repr__(self):
        return f"LinearComplex({self.classify()})"


class ComplexClass:
    """Classification record: kind, singular subspace, and Pfaffian value."""

    __slots__ = ("kind", "singular_space", "pf")

    def __init__(self, kind: str, singular_space: Subspace, pf: FieldElement):
        self.kind = kind
        self.singular_space = singular_space
        self.pf = pf

    def __repr__(self):
        return f"ComplexClass({self.kind}, singular dim {self.singular_space.proj_dim})"


class GenericMorphism:
    """A tuple of independent skew matrices defining a morphism to twisted forms."""

    __slots__ = ("field", "n", "m", "matrices")

    def __init__(self, field, matrices):
        mats = []
        for M in matrices:
            rows = [[field(x) for x in row] for row in M]
            check_skew(field, rows)
            mats.append(rows)
        if not mats:
            raise PreconditionError("a morphism needs at least one matrix")
        size = len(mats[0])
        if any(len(M) != size for M in mats):
            raise PreconditionError("all matrices must share one size")
        self.field = field
        self.n = size - 1
        self.m = len(mats)
        if self.m > self.n:
            raise PreconditionError("the matrix count must not exceed the dimension")
        flat = [
            [M[i][j] for i in range(size) for j in range(i + 1, size)] for M in mats
        ]
        if rank(field, flat) != self.m:
            raise PreconditionError("the skew matrices are linearly dependent")
        self.matrices = mats

    def combination(self, lam):
        coeffs = [self.field(x) for x in lam]
        if len(coeffs) != self.m:
            raise PreconditionError("combination needs one scalar per matrix")
        size = self.n + 1
        out = [[self.field.zero] * size for _ in range(size)]
        for c, M in zip(coeffs, self.matrices):
            if c.is_zero():
                continue
            for i in range(size):
                for j in range(size):
                    out[i][j] = out[i][j] + c * M[i][j]
        return out

    def __repr__(self):
        return f"GenericMorphism(n={self.n}, m={self.m})"


class ComplexSystem(GenericMorphism):
    """The span of independent complexes: the morphism O^m -> Omega(2) on P^5
    of their normalized matrices.

    A subclass sets arity, the number of generators (a Pencil has 2, a Net
    has 3); the generators may be complexes or skew matrices over the field.
    """

    __slots__ = ("generators",)
    arity: int

    def __init__(self, field, *generators):
        if len(generators) != self.arity:
            raise PreconditionError(f"expected {self.arity} generators")
        gens = []
        for g in generators:
            if not isinstance(g, LinearComplex):
                g = LinearComplex(field, g)
            if g.field != field:
                raise PreconditionError("generators must live over the base field")
            gens.append(g)
        super().__init__(field, [g.matrix for g in gens])
        self.generators = tuple(gens)

    @classmethod
    def from_pair_vectors(cls, field, vectors):
        return cls(field, *(LinearComplex.from_pairs(field, v) for v in vectors))

    def member(self, lam) -> LinearComplex:
        cx = LinearComplex(self.field, self.combination(lam))
        if cx.is_zero():
            raise PreconditionError("the zero vector does not select a member")
        return cx

    def map(self, emb):
        """Extend scalars along a field embedding."""
        return type(self)(emb.dst, *(g.map(emb) for g in self.generators))

    def __repr__(self):
        return f"{type(self).__name__}(over {self.field.short()})"


def pfaffian_args(phi: GenericMorphism):
    """The combination matrix with linear-form entries in phi.m variables,
    with the zero and one it is reduced over."""
    field, m, size = phi.field, phi.m, phi.n + 1
    zero = MPoly.zero(field, m)
    entries = [[zero] * size for _ in range(size)]
    for k, M in enumerate(phi.matrices):
        exps = tuple(1 if t == k else 0 for t in range(m))
        for i in range(size):
            for j in range(size):
                if not M[i][j].is_zero():
                    entries[i][j] = entries[i][j] + MPoly(field, m, {exps: M[i][j]})
    return entries, zero, MPoly.constant(field, m, field.one)


def pfaffian_form(phi: GenericMorphism) -> MPoly:
    """Pf(lam_1 A_1 + ... + lam_m A_m) as a form of degree (n + 1) / 2 in lam:
    the binary cubic of a pencil, the ternary cubic of a net."""
    return pfaffian(*pfaffian_args(phi))


def second_type_complex(field: Field, space: Subspace) -> LinearComplex:
    """The rank-2 complex of all lines meeting a given 3-space.

    The form is a wedge of the two covectors cutting out the space, so its
    kernel is exactly the space and the pairing vanishes on a line precisely
    when the line intersects it.
    """
    if space.n != 6 or space.dim != 4:
        raise PreconditionError("expected a 3-space in P^5 (vector dimension 4)")
    ann = space.annihilator()
    a, b = ann.rows
    M = zeros(field, 6, 6)
    for i in range(6):
        for j in range(6):
            M[i][j] = a[i] * b[j] - b[i] * a[j]
    return LinearComplex(field, M)


def special_fiber(field: Field, line: Subspace) -> Subspace:
    """All skew forms whose kernel contains the line, in 15 coefficients.

    These are the forms induced from the 4-dimensional quotient by the line,
    so the result always has vector dimension 6.
    """
    if line.n != 6 or line.dim != 2:
        raise PreconditionError("expected a line in P^5")
    rows = []
    for v in line.rows:
        # (A v)_i = sum_j A[i][j] v_j as a linear form in the 15 coefficients
        for i in range(6):
            row = [field.zero] * 15
            for k, (a, b) in enumerate(PAIRS):
                if a == i:
                    row[k] = row[k] + v[b]
                elif b == i:
                    row[k] = row[k] - v[a]
            rows.append(row)
    fib = Subspace(field, 15, kernel(field, rows))
    if fib.dim != 6:
        raise PreconditionError("kernel constraints degenerated; input is not a line")
    return fib


def fiber_meet(field: Field, l1: Subspace, l2: Subspace) -> Subspace:
    """Intersection of the two coefficient-space fibers of a pair of lines."""
    return meet(special_fiber(field, l1), special_fiber(field, l2))


def fiber_meet_report(field: Field, l1: Subspace, l2: Subspace) -> dict:
    """Geometry of the common forms of two distinct lines.

    Skew lines share exactly one complex, the second-type complex of their
    join; meeting lines share a projective plane of complexes, every one of
    which has rank 2.
    """
    if l1 == l2:
        raise DegenerateInputError("the two lines coincide")
    lines_meet = meet(l1, l2).dim > 0
    common = fiber_meet(field, l1, l2)
    out = {
        "lines_meet": lines_meet,
        "common_dim": common.dim,
        "common": common,
    }
    if not lines_meet:
        span = join(l1, l2)
        out["join_complex"] = second_type_complex(field, span)
    return out


def fiber_rank2_points(field: Field, line: Subspace):
    """Rational points of the fiber whose skew form has rank exactly 2."""
    for coeffs in subspace_points(special_fiber(field, line)):
        if is_decomposable(field, coeffs):
            yield coeffs


def fiber_rank2_count(field: Field, line: Subspace) -> int:
    return sum(1 for _ in fiber_rank2_points(field, line))
