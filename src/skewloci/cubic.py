"""Plane cubics with chord-tangent divisor arithmetic.

The curve lives in the projective plane with coordinates (l1 : l2 : l3) and
is stored through the ten coefficients of its ternary form, in the fixed
wire order

    l1^3, l1^2 l2, l1^2 l3, l1 l2^2, l1 l2 l3, l1 l3^2,
    l2^3,  l2^2 l3, l2 l3^2, l3^3.

Divisor classes are reduced with the classical chord-tangent law relative to
an arbitrary rational base point; no flex is required.  Smoothness is decided
exactly by eliminating the partial derivatives down to univariate data.
"""

from __future__ import annotations

import copy

from .errors import (
    DegenerateInputError,
    InconsistencyError,
    PreconditionError,
    UnsupportedFieldError,
)
from .fields import (
    Embedding,
    Poly,
    compose_embeddings,
    identity_embedding,
    roots,
)
from .linalg import _kernel_raw, _wrap, kernel, rank
from .polys import MPoly, binary_form_to_poly, common_projective_zero, points_by_lines
from .projective import normalize_projective

MONOMIALS = (
    (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
    (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
)

CONIC_MONOMIALS = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))


class PlaneCubic:
    """A ternary cubic form with an optional rational base point.

    The form and its three partial derivatives are built once, as MPolys,
    and do not depend on the base point; evaluate is MPoly.evaluate on the
    form, and gradient evaluates the three partials in one raw pass.
    """

    __slots__ = ("field", "coeffs", "base_point", "_form", "_partials", "_grad_rows",
                 "_smooth", "_points", "_sweep", "_tangent_third", "_two_torsion")

    def __init__(self, field, coeffs, base_point=None):
        if len(coeffs) != 10:
            raise PreconditionError("a plane cubic takes exactly 10 coefficients")
        self.field = field
        self._form = MPoly(field, 3, dict(zip(MONOMIALS, coeffs)))
        if self._form.is_zero():
            raise DegenerateInputError("the cubic form is identically zero")
        self.coeffs = tuple(self._form.coeff(exps) for exps in MONOMIALS)
        self._partials = tuple(self._form.partial(i) for i in range(3))
        self._grad_rows = [[dF.coeff(e).v for e in CONIC_MONOMIALS] for dF in self._partials]
        self._smooth = None
        self._points = None
        self._sweep = None
        self._tangent_third = None
        self._two_torsion = None
        self._set_base_point(base_point)

    def _set_base_point(self, base_point):
        """Set the base point, checked to be a nonzero point of the curve."""
        if base_point is None:
            self.base_point = None
            return
        field = self.field
        pt = tuple(field(x) for x in base_point)
        if len(pt) != 3 or all(x.is_zero() for x in pt):
            raise PreconditionError("base point must be a nonzero plane point")
        pt = tuple(normalize_projective(list(pt)))
        if not self.evaluate(pt).is_zero():
            raise PreconditionError("base point does not lie on the cubic")
        self.base_point = pt

    def evaluate(self, pt):
        return self._form.evaluate(pt)

    def gradient(self, pt):
        """The three partials at pt, on raw values."""
        return tuple(_wrap(self.field, self._gradient_raw(self.field._unwrap(pt))))

    def _gradient_raw(self, x):
        """The three partials at the raw point x: each is one dot product of
        its coefficients with x's six quadratic monomials."""
        field = self.field
        scale, dot = field._scale, field._dot
        mono = scale(x, x[0]) + scale(x[1:], x[1]) + [field._mul(x[2], x[2])]
        return [dot(row, mono) for row in self._grad_rows]

    def contains(self, pt):
        return self.evaluate(pt).is_zero()

    def as_mpoly(self):
        return self._form

    def partials(self):
        return self._partials

    @classmethod
    def from_mpoly(cls, P, base_point=None):
        if P.is_zero() or not P.is_homogeneous() or P.degree() != 3:
            raise PreconditionError("expected a nonzero homogeneous form of degree 3")
        coeffs = [P.coeff(exps) for exps in MONOMIALS]
        return cls(P.field, coeffs, base_point=base_point)

    def anchored(self, base_point):
        """The same curve with another base point.  The form, its partials,
        the point list and the smoothness verdict do not depend on the base
        point and are shared; the 2-torsion classes and the tangent's third
        point do, and are not.  A point sweep in progress is shared too."""
        C = copy.copy(self)
        C._tangent_third = None
        C._two_torsion = None
        C._set_base_point(base_point)
        return C

    def map(self, emb: Embedding):
        bp = None
        if self.base_point is not None:
            bp = tuple(emb(x) for x in self.base_point)
        return PlaneCubic(emb.dst, [emb(c) for c in self.coeffs], base_point=bp)

    def iter_points(self):
        """Yield the rational points in points_by_lines order.  All iterators
        share one lazy sweep, advanced only past the points found so far; its
        list is kept as the point list once it runs to its end."""
        if self._points is not None:
            yield from self._points
            return
        if self._sweep is None:
            self._sweep = ([], points_by_lines(self._form))
        found, sweep = self._sweep
        i = 0
        while True:
            if i == len(found):
                pt = next(sweep, None)
                if pt is None:
                    break
                found.append(pt)
            yield found[i]
            i += 1
        self._points, self._sweep = found, None

    def rational_points(self):
        return list(self.iter_points())

    def smoothness(self, seed=0):
        if self._smooth is None:
            self._smooth = _smoothness_search(self, seed)
        return self._smooth

    def __eq__(self, other):
        if not isinstance(other, PlaneCubic):
            return NotImplemented
        return (
            self.field == other.field
            and self.coeffs == other.coeffs
            and self.base_point == other.base_point
        )

    def __hash__(self):
        return hash((self.field, self.coeffs, self.base_point))

    def __repr__(self):
        return f"PlaneCubic(over {self.field.short()})"


class SmoothnessReport:
    """Outcome of the singular-point search for a cubic."""

    __slots__ = ("smooth", "witness", "field", "embedding", "certificate", "caveat")

    def __init__(self, smooth, witness=None, field=None, embedding=None,
                 certificate=None, caveat=None):
        self.smooth = smooth
        self.witness = witness
        self.field = field
        self.embedding = embedding
        self.certificate = certificate
        self.caveat = caveat

    def __bool__(self):
        return self.smooth

    def __repr__(self):
        return f"SmoothnessReport({'smooth' if self.smooth else 'singular'})"


def _smoothness_search(C: PlaneCubic, seed: int) -> SmoothnessReport:
    forms = [p for p in C.partials() if not p.is_zero()]
    if not forms:
        # only possible in characteristic 3, where the form is a cube of a
        # linear form and every curve point is singular
        pts = C.rational_points()
        if not pts:
            raise InconsistencyError("cubic with zero gradient has no visible point")
        return SmoothnessReport(
            False, witness=pts[0], field=C.field,
            embedding=identity_embedding(C.field),
            certificate="vanishing-gradient",
        )
    if C.field.char == 3:
        # the Euler identity degenerates, so membership in the curve must be
        # imposed explicitly alongside the critical equations
        forms = [C.as_mpoly()] + forms
    search = common_projective_zero(C.field, forms, seed=seed)
    if search.found:
        return SmoothnessReport(
            False, witness=search.point, field=search.point_field,
            embedding=search.embedding, certificate=search.certificate,
            caveat=search.caveat,
        )
    return SmoothnessReport(True, certificate=search.certificate)


class SectionPoint:
    """A point of an intersection divisor, tagged with its field of definition."""

    __slots__ = ("point", "multiplicity", "field", "embedding")

    def __init__(self, point, multiplicity, field, embedding):
        self.point = tuple(normalize_projective(list(point)))
        self.multiplicity = multiplicity
        self.field = field
        self.embedding = embedding

    def matches(self, base_pt) -> bool:
        """Whether this entry equals the given base-field point."""
        mapped = tuple(normalize_projective([self.embedding(x) for x in base_pt]))
        return mapped == self.point

    def __repr__(self):
        vals = ":".join(self.field.format(x.v) for x in self.point)
        return f"SectionPoint(({vals}) x{self.multiplicity})"


def _line_basis(field, covector):
    row = [field(x) for x in covector]
    if len(row) != 3 or all(x.is_zero() for x in row):
        raise PreconditionError("a line needs a nonzero covector of length 3")
    basis = kernel(field, [row])
    if len(basis) != 2:
        raise InconsistencyError("line covector kernel is not 2-dimensional")
    return basis


def line_section(C: PlaneCubic, line, seed: int = 0):
    """The degree-3 divisor cut on the cubic by a line, given as a covector.

    Points appearing over an extension carry the embedding from the curve
    field; multiplicities always sum to 3 over a finite field.
    """
    field = C.field
    u, v = _line_basis(field, line)
    c0 = C.evaluate(u)
    gu = C.gradient(u)
    gv = C.gradient(v)
    c1 = sum((g * x for g, x in zip(gu, v)), start=field.zero)
    c2 = sum((g * x for g, x in zip(gv, u)), start=field.zero)
    c3 = C.evaluate(v)
    p = Poly(field, [c0, c1, c2, c3])
    if p.is_zero():
        raise PreconditionError("the line is a component of the cubic")
    entries = []
    drop = 3 - p.degree
    if drop > 0:
        entries.append(SectionPoint(v, drop, field, identity_embedding(field)))
    if p.degree >= 1:
        rr = roots(p, allow_extension=field.order is not None, seed=seed)
        for r, m in rr.pairs:
            if r.field == field:
                pt = [a + r * b for a, b in zip(u, v)]
                entries.append(SectionPoint(pt, m, field, identity_embedding(field)))
            else:
                ext, emb = rr.splitting
                pt = [emb(a) + r * emb(b) for a, b in zip(u, v)]
                entries.append(SectionPoint(pt, m, ext, emb))
    total = sum(e.multiplicity for e in entries)
    if total != 3:
        raise UnsupportedFieldError(
            "the section has irrational points and the base field supports no extension"
        )
    return entries


def chord_line(P, Q):
    """Covector of the line through two distinct plane points."""
    a = [
        P[1] * Q[2] - P[2] * Q[1],
        P[2] * Q[0] - P[0] * Q[2],
        P[0] * Q[1] - P[1] * Q[0],
    ]
    if all(x.is_zero() for x in a):
        raise PreconditionError("chord needs two distinct points")
    return a


def _norm_point(C, pt):
    p = tuple(C.field(x) for x in pt)
    if len(p) != 3 or all(x.is_zero() for x in p):
        raise PreconditionError("expected a nonzero plane point")
    p = tuple(normalize_projective(list(p)))
    if not C.contains(p):
        raise PreconditionError("point not on curve")
    return p


def _normalized(field, v):
    """The raw nonzero vector v scaled so its first nonzero entry is 1, wrapped."""
    is_zero, mul = field._is_zero, field._mul
    s = field._inv(next(x for x in v if not is_zero(x)))
    return tuple(_wrap(field, [mul(x, s) for x in v]))


def third_point(C: PlaneCubic, P, Q):
    """Third intersection of the chord (or tangent when P = Q) with the cubic.

    On the line sP + uQ the form is s u (s c1 + u c2) for the chord (c1 =
    grad F(P).Q, c2 = grad F(Q).P), and u^2 (s c1 + u c2) for the tangent
    with any second point Q on it (c1 = grad F(Q).P, c2 = F(Q)).  The third
    point -c2 P + c1 Q is combined on raw values and normalized once.
    """
    return _chord(C, _norm_point(C, P), _norm_point(C, Q))


def _chord(C: PlaneCubic, P, Q):
    """third_point of points already normalized and on the curve: the base
    point, and what _norm_point or an earlier chord returned."""
    field = C.field
    add, mul, neg, is_zero = field._add, field._mul, field._neg, field._is_zero
    p = field._unwrap(P)
    if P != Q:
        q = field._unwrap(Q)
        c1 = field._dot(C._gradient_raw(p), q)
        c2 = field._dot(C._gradient_raw(q), p)
        if is_zero(c1) and is_zero(c2):
            raise InconsistencyError("the chord lies inside the cubic")
    else:
        g = C._gradient_raw(p)
        if all(map(is_zero, g)):
            raise PreconditionError("the cubic is singular at the tangency point")
        q = next((v for v in _kernel_raw(field, [g]) if _normalized(field, v) != P), None)
        if q is None:
            raise InconsistencyError("tangent line collapsed to a point")
        c1 = field._dot(C._gradient_raw(q), p)
        c2 = C.evaluate(_wrap(field, q)).v
        if is_zero(c1) and is_zero(c2):
            raise InconsistencyError("the tangent line lies inside the cubic")
    c2 = neg(c2)
    return _normalized(field, [add(mul(c2, x), mul(c1, y)) for x, y in zip(p, q)])


def _require_base(C: PlaneCubic):
    if C.base_point is None:
        raise PreconditionError("class arithmetic needs a base point on the curve")
    return C.base_point


def add_points(C: PlaneCubic, P, Q):
    """Chord-tangent sum with the curve's base point as identity."""
    O = _require_base(C)
    return _chord(C, third_point(C, P, Q), O)


def neg_point(C: PlaneCubic, P):
    O = _require_base(C)
    if C._tangent_third is None:
        C._tangent_third = _chord(C, O, O)
    return _chord(C, _norm_point(C, P), C._tangent_third)


class DivisorClass:
    """A linear-equivalence class, reduced to a canonical representative.

    A class of degree d is stored as (d, P) meaning [P] + (d-1)[O]; degree-0
    classes are exactly [P] - [O] and compare by their reduced point.
    """

    __slots__ = ("curve", "degree", "rep")

    def __init__(self, curve, degree, rep):
        self.curve = curve
        self.degree = degree
        self.rep = rep

    def is_zero(self):
        return self.degree == 0 and self.rep == self.curve.base_point

    def __repr__(self):
        vals = ":".join(self.curve.field.format(x.v) for x in self.rep)
        return f"DivisorClass(deg {self.degree}, ({vals}))"


def class_of(C: PlaneCubic, entries) -> DivisorClass:
    """Reduce a formal sum of rational points to a canonical class.

    entries: iterable of (point, integer multiplicity), negatives allowed.
    """
    O = _require_base(C)
    S = O
    degree = 0
    for pt, n in entries:
        P = _norm_point(C, pt)
        degree += n
        if n < 0:
            P = neg_point(C, P)
            n = -n
        for _ in range(n):
            S = add_points(C, S, P)
    return DivisorClass(C, degree, S)


def class_add(a: DivisorClass, b: DivisorClass) -> DivisorClass:
    if a.curve != b.curve:
        raise PreconditionError("classes live on different curves")
    return DivisorClass(a.curve, a.degree + b.degree, add_points(a.curve, a.rep, b.rep))


def class_eq(a: DivisorClass, b: DivisorClass) -> bool:
    if a.curve != b.curve:
        raise PreconditionError("classes live on different curves")
    return a.degree == b.degree and a.rep == b.rep


def hyperplane_class(C: PlaneCubic) -> DivisorClass:
    """The degree-3 class of every line section: the tangent at O cuts 2[O] + [O*O]."""
    O = _require_base(C)
    return DivisorClass(C, 3, _chord(C, O, O))


class TwoTorsionReport:
    """The rational classes killed by doubling."""

    __slots__ = ("classes", "full_rational")

    def __init__(self, classes, full_rational):
        self.classes = classes
        self.full_rational = full_rational

    def __repr__(self):
        return f"TwoTorsionReport({len(self.classes)} classes)"


def _halve(C: PlaneCubic, R):
    """All rational points P with 2P = R, sorted.

    2P = R exactly when the tangent at P passes through S = R*O.  The line
    through S and W = al e_ia + be e_ib (ia, ib off S's pivot) meets the
    curve again where a s^2 + b s u + d u^2 = 0 (a = grad F(S).W,
    b = grad F(W).S, d = F(W)), so it is tangent there at the base-field
    roots of the quartic b^2 - 4ad in t = be/al.  As W vanishes at the
    pivot, F(W) and the partials at W are the terms free of the pivot: the
    coefficients in t are read off on raw values, with no substitution.
    Each contact point P = 2a W - b S is certified by one chord, P*P = S.
    """
    field = C.field
    add, mul, neg = field._add, field._mul, field._neg
    zero, one, two = field.zero.v, field.one.v, field(2).v
    S = _chord(C, _norm_point(C, R), _require_base(C))
    s = field._unwrap(S)
    piv = _pivot(S)
    ia, ib = _other_indices(piv)
    gS = C._gradient_raw(s)
    a, b, d = [gS[ia], gS[ib]], [zero] * 3, [zero] * 4
    for cs, sk, form in [(d, one, C._form)] + [(b, sk, dF) for sk, dF in zip(s, C._partials)]:
        for e, c in form.terms.items():
            if not e[piv]:
                cs[e[ib]] = add(cs[e[ib]], mul(sk, c.v))
    disc = [zero] * 5
    for f, g, h in ((one, b, b), (field(-4).v, a, d)):
        for i, x in enumerate(g):
            for j, y in enumerate(h):
                disc[i + j] = add(disc[i + j], mul(f, mul(x, y)))
    p = Poly._from_raw(field, disc)
    if p.is_zero():
        raise InconsistencyError("every line through S is tangent to the cubic")
    # a degree below 4 is a root at infinity: the direction (0:1)
    directions = [(zero, one)] if p.degree < 4 else []
    if p.degree >= 1:
        directions += [(one, t.v) for t, _ in roots(p).pairs]
    out = set()
    for al, be in directions:
        w = [zero] * 3
        w[ia], w[ib] = al, be
        av = mul(two, field._dot(a, (al, be)))
        bv = neg(field._dot(b, (mul(al, al), mul(al, be), mul(be, be))))
        v = [add(mul(av, x), mul(bv, y)) for x, y in zip(w, s)]
        # v vanishes only where a = b = 0: a flex tangent at S, touching at S
        P = S if all(map(field._is_zero, v)) else _norm_point(C, _normalized(field, v))
        if _chord(C, P, P) == S:
            out.add(P)
    return sorted(out, key=lambda P: [field.sort_key(x.v) for x in P])


def two_torsion(C: PlaneCubic) -> TwoTorsionReport:
    """All rational 2-torsion divisor classes, from the tangents through O*O.

    The report is computed once per anchored curve and kept in C._two_torsion.
    """
    if C._two_torsion is None:
        classes = [DivisorClass(C, 0, P) for P in _halve(C, _require_base(C))]
        if len(classes) not in (1, 2, 4):
            raise InconsistencyError("2-torsion subgroup has impossible order")
        C._two_torsion = TwoTorsionReport(classes, len(classes) == 4)
    return C._two_torsion


def halvings(C: PlaneCubic, Q: DivisorClass):
    """All rational points P with 2([P] - [O]) = Q, sorted."""
    _require_base(C)
    if Q.degree != 0:
        raise PreconditionError("halving applies to degree-0 classes")
    out = _halve(C, Q.rep)
    if out and len(out) != len(two_torsion(C).classes):
        raise InconsistencyError("halving count does not match the torsion order")
    return out


class PolarContact:
    """Polar conic of a curve point with its contact divisor."""

    __slots__ = ("conic", "divisor", "residual")

    def __init__(self, conic, divisor, residual):
        self.conic = conic
        self.divisor = divisor
        self.residual = residual

    def __repr__(self):
        return f"PolarContact({len(self.residual)} residual entries)"


def _conic_matrix(field, conic_coeffs):
    c200, c110, c101, c020, c011, c002 = conic_coeffs
    half = (field.one + field.one).inverse()
    return [
        [c200, half * c110, half * c101],
        [half * c110, c020, half * c011],
        [half * c101, half * c011, c002],
    ]


def _bilinear(M, x, y):
    field = M[0][0].field
    out = field.zero
    for i in range(3):
        for j in range(3):
            out = out + x[i] * M[i][j] * y[j]
    return out


def _other_indices(pivot):
    return tuple(i for i in range(3) if i != pivot)


def _pivot(pt):
    for i, x in enumerate(pt):
        if not x.is_zero():
            return i
    raise PreconditionError("zero vector has no pivot")


def _deflate_double_root(p: Poly, t0):
    lin = Poly(p.field, [-t0, p.field.one])
    for _ in range(2):
        q, r = divmod(p, lin)
        if not r.is_zero():
            raise InconsistencyError("polar conic is not tangent at the anchor point")
        p = q
    return p


def _subtract_twice(C, entries, k):
    remaining = 2
    out = []
    for e in entries:
        m = e.multiplicity
        if remaining > 0 and e.matches(k):
            take = min(remaining, m)
            m -= take
            remaining -= take
        if m > 0:
            out.append(SectionPoint(e.point, m, e.field, e.embedding))
    if remaining != 0:
        raise InconsistencyError("polar conic meets the curve at its pole with multiplicity < 2")
    return out


def polar_contact(C: PlaneCubic, k, seed: int = 0) -> PolarContact:
    """Polar conic of k, its full contact divisor, and the residual after 2k.

    The full divisor has degree 6 and contains the pole twice; the residual
    degree-4 divisor consists of the contact points of the residual series.
    """
    field = C.field
    k = _norm_point(C, k)
    if not C.smoothness(seed=seed).smooth:
        raise PreconditionError("polar contact needs a smooth cubic")
    P3 = C.partials()
    polar = MPoly.zero(field, 3)
    for ki, dp in zip(k, P3):
        polar = polar + dp * MPoly.constant(field, 3, ki)
    conic = tuple(polar.coeff(e) for e in CONIC_MONOMIALS)
    if all(c.is_zero() for c in conic):
        raise InconsistencyError("polar conic vanished although the cubic is smooth")
    M = _conic_matrix(field, conic)
    r = rank(field, M)
    if r == 1:
        row = next(rw for rw in M if not all(x.is_zero() for x in rw))
        section = line_section(C, row, seed=seed)
        entries = [SectionPoint(e.point, 2 * e.multiplicity, e.field, e.embedding) for e in section]
    elif r == 2:
        entries = _rank2_contact(C, M, seed)
    else:
        entries = _rank3_contact(C, M, k, seed)
    total = sum(e.multiplicity for e in entries)
    if total != 6:
        raise InconsistencyError("contact divisor degree is not 6")
    residual = _subtract_twice(C, entries, k)
    return PolarContact(conic, entries, residual)


def _rank2_contact(C: PlaneCubic, M, seed):
    """Sections of the two lines of a rank-2 polar conic."""
    field = C.field
    s = kernel(field, M)
    if len(s) != 1:
        raise InconsistencyError("rank-2 conic with kernel dimension != 1")
    s = s[0]
    a, b = _other_indices(_pivot(s))
    ea = [field.zero] * 3
    eb = [field.zero] * 3
    ea[a] = field.one
    eb[b] = field.one
    q20 = _bilinear(M, ea, ea)
    q11 = (field.one + field.one) * _bilinear(M, ea, eb)
    q02 = _bilinear(M, eb, eb)
    p = Poly(field, [q20, q11, q02])
    if p.is_zero() or p.degree == 0:
        # the restriction must keep two distinct projective roots
        raise InconsistencyError("rank-2 conic restricted to a double root")
    params = []
    if p.degree == 1:
        params.append((eb, field, identity_embedding(field)))
    rr = roots(p, allow_extension=field.order is not None, seed=seed)
    for rt, m in rr.pairs:
        if m != 1 and p.degree == 2:
            raise InconsistencyError("rank-2 conic restricted to a double root")
        if rt.field == field:
            y = [x + rt * z for x, z in zip(ea, eb)]
            params.append((y, field, identity_embedding(field)))
        else:
            ext, emb = rr.splitting
            y = [emb(x) + rt * emb(z) for x, z in zip(ea, eb)]
            params.append((y, ext, emb))
    if len(params) != 2:
        raise UnsupportedFieldError(
            "the conic factors over an extension the base field cannot express"
        )
    entries = []
    for y, K, emb in params:
        CK = C.map(emb) if K != field else C
        sK = [emb(x) for x in s]
        cov = chord_line(sK, y)
        for e in line_section(CK, cov, seed=seed):
            entries.append(SectionPoint(
                e.point, e.multiplicity, e.field,
                compose_embeddings(emb, e.embedding) if K != field else e.embedding,
            ))
    return entries


def _stereographic_pullback(C: PlaneCubic, M, p):
    """Pull the cubic back through the stereographic map of the conic M from p.

    Returns the pulled-back sextic on the lines through p and W = al e_a +
    be e_b (a, b off p's pivot) as binary_form_to_poly gives it, the tangent
    covector pM on their two spanning points, and param_point(alpha, beta,
    emb=None): the conic point of parameter (alpha : beta) over alpha's
    field, reached by emb.
    """
    field = C.field
    a, b = _other_indices(_pivot(p))
    W = [MPoly.zero(field, 2)] * 3
    W[a] = MPoly.variable(field, 2, 0)
    W[b] = MPoly.variable(field, 2, 1)
    pM = [sum((p[i] * M[i][j] for i in range(3)), start=field.zero) for j in range(3)]
    ua, ub = pM[a], pM[b]
    if ua.is_zero() and ub.is_zero():
        raise InconsistencyError("tangent covector vanished on the complement line")
    al, be = W[a], W[b]
    waw = al * al * M[a][a] + al * be * (M[a][b] + M[a][b]) + be * be * M[b][b]
    pMw = al * ua + be * ub
    B = C.as_mpoly().substitute([waw * p[i] - pMw * W[i] * 2 for i in range(3)])
    if B.is_zero():
        raise InconsistencyError("stereographic pullback of the cubic vanished")

    def param_point(alpha, beta, emb=None):
        MK = M if emb is None else [[emb(x) for x in row] for row in M]
        pK = p if emb is None else [emb(x) for x in p]
        w = [alpha.field.zero] * 3
        w[a], w[b] = alpha, beta
        s1 = _bilinear(MK, w, w)
        s2 = _bilinear(MK, pK, w)
        return [s1 * pK[i] - (s2 + s2) * w[i] for i in range(3)]

    return binary_form_to_poly(B, 0, 1), (ua, ub), param_point


def _rank3_contact(C: PlaneCubic, M, k, seed):
    """Contact divisor via the stereographic parametrization from the pole."""
    field = C.field
    (p, drop), (ua, ub), param_point = _stereographic_pullback(C, M, k)
    # the pole's own parameter is the tangent direction; remove it twice
    if ub.is_zero():
        if drop < 2:
            raise InconsistencyError("polar conic is not tangent at the anchor point")
        drop -= 2
    else:
        tk = -ua / ub
        p = _deflate_double_root(p, tk)
    ident = identity_embedding(field)
    entries = [SectionPoint(k, 2, field, ident)]
    if drop > 0:
        entries.append(SectionPoint(param_point(field.zero, field.one), drop, field, ident))
    if p.degree >= 1:
        rr = roots(p, allow_extension=field.order is not None, seed=seed)
        for rt, m in rr.pairs:
            if rt.field == field:
                entries.append(SectionPoint(param_point(field.one, rt), m, field, ident))
            else:
                ext, emb = rr.splitting
                entries.append(SectionPoint(param_point(emb(field.one), rt, emb), m, ext, emb))
    got = sum(e.multiplicity for e in entries)
    if got != 6:
        raise UnsupportedFieldError(
            "part of the contact divisor is irrational and the base field supports no extension"
        )
    return entries
