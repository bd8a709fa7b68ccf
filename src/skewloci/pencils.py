"""Pencils of linear complexes: singular members, line configurations, and
the map from a pencil to its triple of singular lines.

A pencil is a projective line of skew forms.  Its Pfaffian restricts to a
binary cubic whose roots mark the singular members; for a general pencil
these are three first-type complexes and their three singular lines are
pairwise skew and span P^5.  The configuration cases, the trisecant of a
degenerate triple, and the plane of second-type complexes spanned by the
pairwise joins are all computed exactly, extending the base field when roots
require it.
"""

from __future__ import annotations

import random

from .complexes import (
    SPECIAL_FIRST,
    SPECIAL_SECOND,
    ComplexSystem,
    LinearComplex,
    _skew_from_upper,
    pfaffian_form,
    second_type_complex,
    special_fiber,
)
from .errors import (
    DegenerateInputError,
    InconsistencyError,
    PreconditionError,
    UnsupportedFieldError,
)
from .fields import identity_embedding, roots
from .linalg import _wrap, rank
from .polys import binary_form_to_poly
from .projective import Subspace, join, map_subspace, meet, random_vector


class Pencil(ComplexSystem):
    """Span of two independent complexes, a line in the dual P^14."""

    __slots__ = ()
    arity = 2


class SingularMember:
    """One root of the binary Pfaffian with its complex and classification."""

    __slots__ = ("lam", "mu", "multiplicity", "complex", "kind", "embedding")

    def __init__(self, lam, mu, multiplicity, cx, kind, embedding):
        self.lam = lam
        self.mu = mu
        self.multiplicity = multiplicity
        self.complex = cx
        self.kind = kind
        self.embedding = embedding

    def __repr__(self):
        return (
            f"SingularMember(({self.lam!r}:{self.mu!r}), mult={self.multiplicity}, "
            f"{self.kind})"
        )


def pencil_singular_elements(pencil: Pencil, allow_extension: bool = False,
                             seed: int = 0):
    """Roots of the binary Pfaffian cubic with their complexes and classes.

    Each entry carries the parameter (lam : mu), the multiplicity, the member
    complex over the root's field, its classification, and the embedding of
    the pencil's field into the root's field; roots outside it are taken
    one Frobenius orbit at a time (_orbit_members).
    """
    F = pencil.field
    B = pfaffian_form(pencil)
    if B.is_zero():
        raise DegenerateInputError(
            "the Pfaffian vanishes identically: every member is special"
        )
    b, drop = binary_form_to_poly(B, 0, 1)
    out = []
    ident = identity_embedding(F)
    if drop > 0:
        member = pencil.member([0, 1])
        out.append(
            SingularMember(F.zero, F.one, drop, member, member.classify(), ident)
        )
    if b.degree >= 1:
        rr = roots(b, allow_extension=allow_extension, seed=seed)
        conjugates = {}
        for r, mult in rr.pairs:
            if r.field == F:
                member = pencil.member([F.one, r])
                emb = ident
            else:
                emb = rr.splitting[1]
                if r.v not in conjugates:
                    conjugates.update(_orbit_members(pencil, emb, r))
                member = conjugates[r.v]
            out.append(
                SingularMember(
                    emb(F.one), r, mult, member, member.classify(), emb
                )
            )
    return out


def _orbit_members(pencil: Pencil, emb, r):
    """{raw root: member} over the Frobenius orbit of the root r in emb.dst:
    the member at (1 : r) from the pencil's raw upper rows, with its kernel.
    x -> x^q fixes the pencil, 0 and 1, so it carries them, normalized and
    reduced, to the member at (1 : r^q); each carried kernel row k is
    checked to satisfy A k = 0."""
    F, E = pencil.field, emb.dst
    U0, U1 = ([emb(x).v for x in _wrap(F, U)] for U in pencil._upper)
    cx = LinearComplex._from_raw(E, _skew_from_upper(E, E._axpy(U0, r.v, U1), 6))
    R = [[x.v for x in row] for row in cx.matrix]
    K = [[x.v for x in row] for row in cx.kernel_space().rows]
    out, x, frob = {}, r.v, lambda xs: E._frob(xs, F.order)
    for _ in range(E.degree // F.degree):
        out[x] = cx
        (x,) = frob([x])
        if x in out:
            break
        R, K = [frob(row) for row in R], [frob(k) for k in K]
        if any(not E._is_zero(E._dot(row, k)) for row in R for k in K):
            raise InconsistencyError("a Frobenius conjugate kernel row misses its member")
        cx = LinearComplex._from_raw(E, R, K)
    return out


class ConfigurationReport:
    """Mutual position of three distinct lines in P^5."""

    __slots__ = ("case_id", "lines", "span_dim", "trisecant", "pairwise_meets")

    def __init__(self, case_id, lines, span_dim, trisecant, pairwise_meets):
        self.case_id = case_id
        self.lines = lines
        self.span_dim = span_dim
        self.trisecant = trisecant
        self.pairwise_meets = pairwise_meets

    def __repr__(self):
        return f"ConfigurationReport(case {self.case_id}, span {self.span_dim})"


def classify_configuration(l1: Subspace, l2: Subspace, l3: Subspace) -> ConfigurationReport:
    """Case 1: pairwise skew spanning P^5; Case 2: skew spanning a P^4 (with
    trisecant); Case 3: skew spanning a P^3; Case 4: some pair meets."""
    lines = [l1, l2, l3]
    for l in lines:
        if l.n != 6 or l.dim != 2:
            raise PreconditionError("expected lines in P^5")
    if l1 == l2 or l1 == l3 or l2 == l3:
        raise PreconditionError("the three lines must be distinct")
    # three lines spanning k^6 are pairwise skew: 2 + 2 + 2 = 6 is a direct sum
    span_dim = rank(l1.field, l1.rows + l2.rows + l3.rows) - 1
    meets = (False, False, False) if span_dim == 5 else (
        meet(l1, l2).dim > 0,
        meet(l1, l3).dim > 0,
        meet(l2, l3).dim > 0,
    )
    if any(meets):
        return ConfigurationReport(4, lines, span_dim, None, meets)
    if span_dim == 5:
        return ConfigurationReport(1, lines, span_dim, None, meets)
    if span_dim == 4:
        tri = trisecant(l1, l2, l3)
        return ConfigurationReport(2, lines, span_dim, tri, meets)
    if span_dim == 3:
        return ConfigurationReport(3, lines, span_dim, None, meets)
    raise InconsistencyError("three pairwise skew lines span at least a P^3")


def trisecant(l1: Subspace, l2: Subspace, l3: Subspace) -> Subspace:
    """The unique line meeting three pairwise skew lines that span a P^4.

    The join of the first two meets the third in one point P; the planes
    joining P to the first two lines intersect in the answer.
    """
    for a, b in ((l1, l2), (l1, l3), (l2, l3)):
        if meet(a, b).dim > 0:
            raise PreconditionError("lines must be pairwise skew")
    span = join(join(l1, l2), l3)
    if span.proj_dim != 4:
        raise PreconditionError("lines must span exactly a P^4")
    P = meet(join(l1, l2), l3)
    if P.dim != 1:
        raise InconsistencyError("expected a single intersection point")
    r = meet(join(P, l1), join(P, l2))
    if r.dim != 2:
        raise InconsistencyError("trisecant construction did not yield a line")
    for l in (l1, l2, l3):
        if meet(r, l).dim == 0:
            raise InconsistencyError("constructed line misses one of the inputs")
    return r


class SigmaFamily:
    """The plane of second-type complexes attached to a Case-1 triple."""

    __slots__ = ("h12", "h13", "h23", "sigma", "dual_lines")

    def __init__(self, h12, h13, h23, sigma, dual_lines):
        self.h12 = h12
        self.h13 = h13
        self.h23 = h23
        self.sigma = sigma
        self.dual_lines = dual_lines


def sigma_family(l1: Subspace, l2: Subspace, l3: Subspace) -> SigmaFamily:
    """Joins of pairs give three rank-2 complexes spanning a plane in the
    dual space; the plane meets each line's matrix fiber in a dual line."""
    field = l1.field
    rep = classify_configuration(l1, l2, l3)
    if rep.case_id != 1:
        raise PreconditionError("the sigma plane needs a Case-1 configuration")
    h12 = second_type_complex(field, join(l1, l2))
    h13 = second_type_complex(field, join(l1, l3))
    h23 = second_type_complex(field, join(l2, l3))
    sigma = Subspace(field, 15, [h12.coeffs(), h13.coeffs(), h23.coeffs()])
    if sigma.dim != 3:
        raise InconsistencyError("the three pairwise complexes do not span a plane")
    dual_lines = []
    for li, (ha, hb) in (
        (l1, (h12, h13)),
        (l2, (h12, h23)),
        (l3, (h13, h23)),
    ):
        L = Subspace(field, 15, [ha.coeffs(), hb.coeffs()])
        if L.dim != 2:
            raise InconsistencyError("two pairwise complexes coincide")
        expected = meet(sigma, special_fiber(field, li))
        if expected != L:
            raise InconsistencyError(
                "the fiber trace on sigma is not the line of the two joins"
            )
        dual_lines.append(L)
    return SigmaFamily(h12, h13, h23, sigma, dual_lines)


def pencils_with_singular_lines(l1: Subspace, l2: Subspace, l3: Subspace,
                                kind: str = "a", seed: int = 0) -> Pencil:
    """Sample a pencil whose singular behaviour is pinned by the triple.

    This states the paper's description of the fibre of alpha (pencil ->
    triple of singular lines) over a general triple: the pencils with
    exactly these singular lines are the lines of the plane sigma spanned
    by the three pairwise joins' complexes that avoid its three vertices.
    Kind "a" picks such a line, and _assert_type_a certifies that its
    singular lines are exactly the three inputs.  Kind "b" picks a line
    through one vertex and a point of the third line's fiber: it always
    contains a second-type member, the degenerate case of the paper.
    """
    field = l1.field
    fam = sigma_family(l1, l2, l3)
    rng = random.Random(seed)
    vertices = [fam.h12.coeffs(), fam.h13.coeffs(), fam.h23.coeffs()]
    if kind == "a":
        for _ in range(200):
            p = random_vector(fam.sigma, rng)
            q = random_vector(fam.sigma, rng)
            L = Subspace(field, 15, [p, q])
            if L.dim != 2:
                continue
            if any(L.contains_vector(v) for v in vertices):
                continue
            pen = Pencil.from_pair_vectors(field, [p, q])
            _assert_type_a(pen, (l1, l2, l3))
            return pen
        raise PreconditionError(
            "no line of the sigma plane avoiding the vertices was found; "
            "the field may be too small"
        )
    if kind == "b":
        fib = special_fiber(field, l3)
        for _ in range(200):
            p = fam.h12.coeffs()
            q = random_vector(fib, rng)
            L = Subspace(field, 15, [p, q])
            if L.dim != 2:
                continue
            pen = Pencil.from_pair_vectors(field, [p, q])
            try:
                sings = pencil_singular_elements(pen, seed=seed)
            except DegenerateInputError:
                continue
            if any(m.kind == SPECIAL_SECOND for m in sings):
                return pen
        raise PreconditionError("no suitable pencil through the vertex was found")
    raise PreconditionError("kind must be 'a' or 'b'")


def _assert_type_a(pen: Pencil, expected_lines):
    sings = pencil_singular_elements(pen)
    if len(sings) != 3 or any(m.multiplicity != 1 for m in sings):
        raise InconsistencyError("type-a pencil does not have three simple roots")
    got = set()
    for m in sings:
        if m.kind != SPECIAL_FIRST:
            raise InconsistencyError("type-a pencil has a member beyond first type")
        got.add(m.complex.kernel_space())
    if got != set(expected_lines):
        raise InconsistencyError("type-a pencil's singular lines differ from the triple")


class AlphaReport:
    """Result of sending a pencil to its triple of singular lines."""

    __slots__ = (
        "verdict", "members", "lines", "configuration", "second_type_witness",
    )

    def __init__(self, verdict, members, lines, configuration, second_type_witness):
        self.verdict = verdict
        self.members = members
        self.lines = lines
        self.configuration = configuration
        self.second_type_witness = second_type_witness

    def __repr__(self):
        return f"AlphaReport({self.verdict})"


def alpha(pencil: Pencil, seed: int = 0) -> AlphaReport:
    """The singular-line triple of a pencil with its degeneracy verdict.

    Verdict "expected-dim-1" certifies the general picture: three simple
    first-type members whose lines are pairwise skew and span P^5.  Repeated
    roots give "non-reduced"; a rank-2 member gives "second-type-present"
    with its singular 3-space as witness; other configurations are labelled
    by their case number.
    """
    F = pencil.field
    allow = F.order is not None
    members = pencil_singular_elements(pencil, allow_extension=allow, seed=seed)
    total = sum(m.multiplicity for m in members)
    if total < 3:
        raise UnsupportedFieldError(
            "some singular members are irrational and the base field does not "
            "support extensions"
        )
    # a rank-2 member forces a repeated root, so test for it before the
    # non-reduced fallback or the witness would never be reported
    second = next((m for m in members if m.kind == SPECIAL_SECOND), None)
    if second is not None:
        return AlphaReport(
            "second-type-present", members, None, None,
            second.complex.kernel_space(),
        )
    if any(m.multiplicity > 1 for m in members):
        return AlphaReport("non-reduced", members, None, None, None)
    # base-field roots come first, so the last member's embedding reaches
    # the one root field above the base, if there is one
    top = members[-1].embedding
    lines = [l if l.field == top.dst else map_subspace(top, l)
             for l in (m.complex.kernel_space() for m in members)]
    config = classify_configuration(*lines)
    if config.case_id == 1:
        return AlphaReport("expected-dim-1", members, lines, config, None)
    return AlphaReport(f"case-{config.case_id}", members, lines, config, None)
