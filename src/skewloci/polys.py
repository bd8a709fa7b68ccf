"""Multivariate polynomials, resultants, and common zeros of plane curves.

MPoly is a sparse multivariate polynomial over one of the exact fields.  The
geometric workhorse is common_projective_zero, which decides whether a system
of ternary forms has a common zero over the algebraic closure and produces an
explicit witness, extending the base field as needed.  Over the rationals the
search is restricted to rational candidates and reports honestly when a
decision would require algebraic number arithmetic.
"""

from __future__ import annotations

import operator
import random

from .errors import InconsistencyError, PreconditionError, UnsupportedFieldError
from .fields import (
    Embedding,
    ExtField,
    Field,
    FieldElement,
    Poly,
    PrimeField,
    compose_embeddings,
    extend_field,
    factor,
    frobenius_orbit,
    identity_embedding,
    poly_gcd,
    roots,
)
from .linalg import det as field_det, identity

# largest projective plane _enumeration_search scans
MAX_ENUM_POINTS = 200_000


class MPoly:
    """Sparse polynomial in n variables; terms map exponent tuples to scalars."""

    __slots__ = ("field", "n", "terms")

    def __init__(self, field: Field, n: int, terms=None):
        self.field = field
        self.n = n
        t = {}
        if terms:
            # ints and Fractions coerce; field(c) refuses an element of
            # another field
            is_zero = field._is_zero
            for e, c in zip(terms, map(field, terms.values())):
                if len(e) != n:
                    raise PreconditionError("exponent tuple has wrong length")
                if not is_zero(c.v):
                    t[tuple(int(k) for k in e)] = c
        self.terms = t

    @classmethod
    def zero(cls, field: Field, n: int) -> "MPoly":
        return cls(field, n)

    @classmethod
    def constant(cls, field: Field, n: int, c) -> "MPoly":
        return cls(field, n, {(0,) * n: c})

    @classmethod
    def variable(cls, field: Field, n: int, i: int) -> "MPoly":
        e = [0] * n
        e[i] = 1
        return cls(field, n, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coeff(self, exps) -> FieldElement:
        return self.terms.get(tuple(exps), self.field.zero)

    @classmethod
    def _from_raw(cls, field: Field, n: int, raw: dict) -> "MPoly":
        """The polynomial with these raw coefficients, already in field and nonzero."""
        out = object.__new__(cls)
        out.field = field
        out.n = n
        out.terms = {e: FieldElement(field, v) for e, v in raw.items()}
        return out

    def __add__(self, other: "MPoly") -> "MPoly":
        field = self.field
        if other.field != field or other.n != self.n:
            raise PreconditionError("mixed polynomial rings")
        add, is_zero, zero = field._add, field._is_zero, field.zero.v
        t = {e: c.v for e, c in self.terms.items()}
        for e, c in other.terms.items():
            s = add(t.get(e, zero), c.v)
            if is_zero(s):
                t.pop(e, None)
            else:
                t[e] = s
        return MPoly._from_raw(field, self.n, t)

    def __neg__(self) -> "MPoly":
        neg = self.field._neg
        return MPoly._from_raw(self.field, self.n, {e: neg(c.v) for e, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other):
        """The product with a scalar or a polynomial, on raw values."""
        field = self.field
        mul = field._mul
        if isinstance(other, (int, FieldElement)):
            c = field(other).v
            if field._is_zero(c):
                return MPoly(field, self.n)
            return MPoly._from_raw(field, self.n, {e: mul(x.v, c) for e, x in self.terms.items()})
        if other.field != field or other.n != self.n:
            raise PreconditionError("mixed polynomial rings")
        add, is_zero = field._add, field._is_zero
        right = [(e, c.v) for e, c in other.terms.items()]
        t = {}
        for e1, c1 in self.terms.items():
            c1 = c1.v
            for e2, c2 in right:
                e = tuple(map(operator.add, e1, e2))
                v = mul(c1, c2)
                t[e] = add(t[e], v) if e in t else v
        return MPoly._from_raw(field, self.n, {e: v for e, v in t.items() if not is_zero(v)})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise PreconditionError("negative power of a polynomial")
        out = MPoly.constant(self.field, self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and self.field == other.field
            and self.n == other.n
            and self.terms == other.terms
        )

    def evaluate(self, point) -> FieldElement:
        """The value at point, on raw values.

        The point is unwrapped once (a point of another field is refused),
        each coordinate's powers are built as the terms ask for them, and the
        value is wrapped once.
        """
        field = self.field
        add, mul = field._add, field._mul
        # powers[i][k] is the raw x_i^k; index 0 is never read
        powers = [[None, x] for x in field._unwrap(point)]
        acc = field.zero.v
        for e, c in self.terms.items():
            c = c.v
            for pw, k in zip(powers, e):
                if k:
                    while len(pw) <= k:
                        pw.append(mul(pw[-1], pw[1]))
                    c = mul(c, pw[k])
            acc = add(acc, c)
        return FieldElement(field, acc)

    def substitute(self, polys) -> "MPoly":
        """Plug polys[i] in for variable i; all polys share one target ring."""
        if len(polys) != self.n:
            raise PreconditionError("need one substitution per variable")
        if not polys:
            raise PreconditionError("empty substitution")
        tgt_n = polys[0].n
        field = polys[0].field
        pows = [{0: MPoly.constant(field, tgt_n, 1)} for _ in polys]

        def pw(i, k):
            d = pows[i]
            while k not in d:
                top = max(d)
                d[top + 1] = d[top] * polys[i]
            return d[k]

        out = MPoly.zero(field, tgt_n)
        for e, c in self.terms.items():
            term = MPoly.constant(field, tgt_n, c)
            for i, k in enumerate(e):
                if k:
                    term = term * pw(i, k)
            out = out + term
        return out

    def partial(self, i: int) -> "MPoly":
        t = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            c2 = c * e[i]
            if c2.is_zero():
                continue
            e2 = list(e)
            e2[i] -= 1
            t[tuple(e2)] = c2
        out = MPoly(self.field, self.n)
        out.terms = t
        return out

    def as_univariate_in(self, i: int):
        """Coefficients of powers of variable i, top degree stripped of zeros."""
        if not self.terms:
            return []
        top = max(e[i] for e in self.terms)
        # (e[i], e with x_i dropped) determines e, so no two terms collide
        coeffs = [MPoly(self.field, self.n) for _ in range(top + 1)]
        for e, c in self.terms.items():
            e2 = list(e)
            k = e2[i]
            e2[i] = 0
            coeffs[k].terms[tuple(e2)] = c
        return coeffs

    def map_coeffs(self, emb: Embedding) -> "MPoly":
        out = MPoly(emb.dst, self.n)
        out.terms = {e: emb(c) for e, c in self.terms.items()}
        return out

    def __repr__(self):
        if not self.terms:
            return "MPoly(0)"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mon = "*".join(f"x{i}^{k}" for i, k in enumerate(e) if k)
            parts.append(f"{self.field.format(c.v)}{'*' + mon if mon else ''}")
        return "MPoly(" + " + ".join(parts) + ")"


def ring_det(entries, zero, one):
    """Determinant over a commutative ring by column-subset dynamic programming."""
    n = len(entries)
    if n == 0:
        return one
    dp = {(): one}
    for r in range(n):
        ndp = {}
        for cols, val in dp.items():
            used = set(cols)
            for c in range(n):
                if c in used:
                    continue
                e = entries[r][c]
                if e.is_zero():
                    continue
                inv = sum(1 for x in cols if x > c)
                term = val * e
                if inv % 2:
                    term = -term
                key = tuple(sorted(cols + (c,)))
                if key in ndp:
                    ndp[key] = ndp[key] + term
                else:
                    ndp[key] = term
        dp = ndp
        if not dp:
            return zero
    return dp.get(tuple(range(n)), zero)


def resultant_wrt(F: MPoly, G: MPoly, var: int) -> MPoly:
    """Sylvester resultant of F and G with respect to one variable."""
    fc = F.as_univariate_in(var)
    gc = G.as_univariate_in(var)
    zero = MPoly.zero(F.field, F.n)
    one = MPoly.constant(F.field, F.n, 1)
    if not fc or not gc:
        return zero
    m, n = len(fc) - 1, len(gc) - 1
    if m == 0 and n == 0:
        return one
    if m == 0:
        return fc[0] ** n
    if n == 0:
        return gc[0] ** m
    size = m + n
    S = [[zero for _ in range(size)] for _ in range(size)]
    for i in range(n):
        for k in range(m + 1):
            S[i][i + k] = fc[m - k]
    for j in range(m):
        for k in range(n + 1):
            S[n + j][j + k] = gc[n - k]
    return ring_det(S, zero, one)


def binary_form_to_poly(B: MPoly, i: int, j: int):
    """A form in variables i, j as a univariate polynomial in x_j / x_i.

    Returns (poly, drop) where drop is the multiplicity of the root (0:1),
    recovered from the degree deficit.
    """
    D = B.degree()
    if D < 0:
        raise PreconditionError("zero form has no root structure")
    coeffs = [B.field.zero] * (D + 1)
    for e, c in B.terms.items():
        for k, exp in enumerate(e):
            if exp and k not in (i, j):
                raise PreconditionError("form involves variables beyond the requested pair")
        coeffs[e[j]] = coeffs[e[j]] + c
    p = Poly(B.field, coeffs)
    return p, D - p.degree


def specialize_last(H: MPoly, x0: FieldElement, y0: FieldElement, emb: Embedding) -> Poly:
    """H(x0, y0, z) as a univariate polynomial over the field of x0, y0.

    Runs on raw values; emb carries H's coefficients into that field, and a
    coefficient or coordinate of any other field is refused.
    """
    K = x0.field
    if not H.terms:
        return Poly(K, [])
    add, mul = K._add, K._mul
    # as in MPoly.evaluate, powers[i][k] is the raw k-th power of x0 or y0
    powers = [[None, x] for x in K._unwrap((x0, y0))]
    cs = H.terms.values()
    vals = K._unwrap(cs if emb.src == K and emb.dst == K else [emb(c) for c in cs])
    coeffs = [K.zero.v] * (max(e[2] for e in H.terms) + 1)
    for e, v in zip(H.terms, vals):
        for pw, k in zip(powers, e):
            if k:
                while len(pw) <= k:
                    pw.append(mul(pw[-1], pw[1]))
                v = mul(v, pw[k])
        coeffs[e[2]] = add(coeffs[e[2]], v)
    return Poly._from_raw(K, coeffs)


def points_by_lines(F: MPoly):
    """The rational points of a ternary form over a finite field, lazily.

    They come in projective_reps order, line by line: the roots in z of
    F(1, a, z) for each a in elements() order give the points (1:a:z), the
    roots of F(0, 1, z) give (0:1:z), and (0:0:1) comes last when F vanishes
    there.  A line on which F vanishes yields all of its points.  roots()
    sorts by sort_key, which is elements() order.  This is q + 1 univariate
    root-findings in place of the q^2 + q + 1 points of the plane.
    """
    field = F.field
    if field.order is None:
        raise UnsupportedFieldError("point enumeration needs a finite field")
    if F.n != 3:
        raise PreconditionError("expected a form in three variables")
    zero, one = field.zero, field.one
    ident = identity_embedding(field)

    def line(x0, y0):
        f = specialize_last(F, x0, y0, ident)
        if f.is_zero():
            return field.elements()
        if f.degree == 0:
            return ()
        return (r for r, _ in roots(f).pairs)

    for a in field.elements():
        for z in line(one, a):
            yield (one, a, z)
    for z in line(zero, one):
        yield (zero, one, z)
    if F.evaluate((zero, zero, one)).is_zero():
        yield (zero, zero, one)


def _search_scalar(field, rng):
    # over Q keep auxiliary scalars tiny so resultant coefficients stay tame
    if field.order is None:
        return field(rng.randint(-9, 9))
    return field.random(rng)


class ZeroSearch:
    """Outcome of a closure common-zero search for ternary forms.

    found is the closure-exact verdict when certificate is 'resultant';
    enumeration certificates carry an explicit caveat when the search space
    was truncated.  point, when present, is given over point_field together
    with an embedding of the base field into it.
    """

    def __init__(self, found, point=None, point_field=None, embedding=None,
                 certificate="resultant", caveat=None):
        self.found = found
        self.point = point
        self.point_field = point_field
        self.embedding = embedding
        self.certificate = certificate
        self.caveat = caveat

    def __repr__(self):
        return (
            f"ZeroSearch(found={self.found}, certificate={self.certificate!r}, "
            f"point={self.point!r})"
        )


def _root_with_leg(g: Poly, seed: int):
    """(root, extension leg or None) for some closure root of a nonconstant g."""
    K = g.field
    if K.order is None:
        rr = roots(g)
        if rr.pairs:
            return rr.pairs[0][0], None
        raise UnsupportedFieldError(
            "witness requires an algebraic number; not supported over Q"
        )
    facs = factor(g, seed=seed)
    lin = [f for f, _ in facs if f.degree == 1]
    if lin:
        f = lin[0]
        return -f.c[0] / f.c[1], None
    return _orbit_root(facs[0][0], seed)


def _orbit_root(f: Poly, seed: int):
    """(r, emb) for an irreducible f of degree d >= 2 over F_q: r is the first
    root in sort_key order, over F_{q^d}, and emb embeds F_q there."""
    ext, emb = extend_field(f.field, f.degree, seed=seed)
    orbit = frobenius_orbit(f, emb, random.Random(seed))
    return min(orbit, key=lambda x: ext.sort_key(x.v)), emb


def _slice_gcd(forms_H, x0, y0, emb) -> Poly:
    """The gcd of the slices H(x0, y0, z) over the field of x0; 0 if all vanish."""
    g = Poly(x0.field, [])
    for H in forms_H:
        s = specialize_last(H, x0, y0, emb)
        if s.is_zero():
            continue
        g = s if g.is_zero() else poly_gcd(g, s)
        if g.degree == 0:
            break
    return g


def _check_candidate(forms_H, x0, y0, emb, seed):
    """Try the slice x = x0, y = y0 with emb: base -> field of x0.

    Returns (found, point, total embedding); point is None when found is
    False.  The point satisfies every form and may live one extension leg
    above x0; over Q, UnsupportedFieldError means the slice holds a zero
    whose last coordinate is irrational.
    """
    g = _slice_gcd(forms_H, x0, y0, emb)
    if g.is_zero():
        return True, [x0, y0, x0.field.zero], emb
    if g.degree < 1:
        return False, None, emb
    z0, leg = _root_with_leg(g, seed)
    if leg is None:
        return True, [x0, y0, z0], emb
    return True, [leg(x0), leg(y0), z0], compose_embeddings(emb, leg)


def _factor_zero(forms_H, f: Poly, seed: int):
    """_check_candidate at (1 : r) for the roots r of an irreducible factor f
    of the eliminant.  Frobenius carries a common zero over one root to each
    conjugate, so the orbit's first root (_orbit_root) decides and carries the
    witness.  Over F_p, the residue field F_p[x]/(f) with root x decides
    first, so a root is built only for a witness."""
    field = f.field
    if f.degree == 1:
        ident = identity_embedding(field)
        return _check_candidate(forms_H, field.one, -f.c[0] / f.c[1], ident, seed)
    if isinstance(field, PrimeField):
        L = ExtField(field.char, tuple(c.v for c in f.c))
        if _slice_gcd(forms_H, L.one, L.gen(), Embedding(field, L, None)).degree == 0:
            return False, None, None
    r, emb = _orbit_root(f, seed)
    found = _check_candidate(forms_H, emb(field.one), r, emb, seed)
    if isinstance(field, PrimeField) and not found[0]:
        raise InconsistencyError("the residue field and the root disagree on a common zero")
    return found


def _enumeration_search(field, forms):
    """Search the base field and two extension steps for a common zero.

    Each level sweeps the points of the first form with points_by_lines and
    tests the others on them, in projective_reps order.  A tower level is
    only searched when its projective plane has at most MAX_ENUM_POINTS
    points, so the cost stays bounded.
    """
    towers = []
    if field.order is not None:
        for d in (1, 2, 3):
            q = field.order**d
            if q * q + q + 1 > MAX_ENUM_POINTS:
                break
            if d == 1:
                towers.append((field, identity_embedding(field)))
            else:
                towers.append(extend_field(field, d, seed=0))
    caveat = None
    if not towers:
        caveat = "enumeration skipped: base field too large"
    for K, emb in towers:
        lifted = [F.map_coeffs(emb) for F in forms]
        for p in points_by_lines(lifted[0]):
            if all(F.evaluate(p).is_zero() for F in lifted[1:]):
                return ZeroSearch(
                    True, list(p), K, emb, certificate="enumeration", caveat=None
                )
    if towers:
        caveat = f"enumeration exhausted {len(towers)} tower level(s) without a hit"
    return ZeroSearch(False, certificate="enumeration", caveat=caveat)


def common_projective_zero(
    field: Field,
    forms,
    seed: int = 0,
    _depth: int = 0,
) -> ZeroSearch:
    """Decide whether ternary forms share a zero over the algebraic closure.

    The primary route picks coordinates in which every form has full degree in
    the last variable, eliminates it with a resultant of one nondegenerate
    pair, and checks each projective root of that resultant against all the
    forms.  Extensions of any degree that appears are constructed explicitly.
    When every available pair and seeded combination has identically vanishing
    resultant, the forms share a positive-dimensional locus candidate and the
    routine falls back to point enumeration, reporting the certificate kind.
    """
    forms = [F for F in forms if not F.is_zero()]
    if any(F.n != 3 for F in forms):
        raise PreconditionError("expected forms in three variables")
    if any(not F.is_homogeneous() for F in forms):
        raise PreconditionError("expected homogeneous forms")
    if not forms:
        return ZeroSearch(
            True,
            [field.one, field.zero, field.zero],
            field,
            identity_embedding(field),
            certificate="vacuous",
        )
    if any(F.degree() == 0 for F in forms):
        return ZeroSearch(False, certificate="constant")

    rng = random.Random(seed)

    # coordinate change making each form z-regular; identity tried first
    T = None
    ident = identity(field, 3)
    queue = [ident]
    for _ in range(300):
        M = queue.pop(0) if queue else [
            [_search_scalar(field, rng) for _ in range(3)] for _ in range(3)
        ]
        if field_det(field, M).is_zero():
            continue
        col3 = [M[0][2], M[1][2], M[2][2]]
        if all(not F.evaluate(col3).is_zero() for F in forms):
            T = M
            break
    if T is None:
        # over a tiny field the curves can cover every rational point, so no
        # rational direction is regular; one or two quadratic extensions make
        # the plane larger than the union can reach
        if field.order is not None and field.order < 50 and _depth < 3:
            ext, emb = extend_field(field, 2, seed=seed)
            lifted = [F.map_coeffs(emb) for F in forms]
            res = common_projective_zero(ext, lifted, seed=seed, _depth=_depth + 1)
            if res.embedding is not None:
                res.embedding = compose_embeddings(emb, res.embedding)
            return res
        raise PreconditionError(
            "no coordinate change makes every form regular in the last variable"
        )
    xs = [MPoly.variable(field, 3, i) for i in range(3)]
    subs = [
        xs[0] * T[k][0] + xs[1] * T[k][1] + xs[2] * T[k][2] for k in range(3)
    ]
    H = forms if T is ident else [F.substitute(subs) for F in forms]

    if len(H) == 1:
        res = _single_form_zero(field, H[0], seed)
    else:
        res = _resultant_route(field, H, rng, seed, forms)
    if res.point is not None and res.certificate in ("resultant", "line"):
        # move the witness back through the coordinate change
        emb = res.embedding
        K = res.point_field
        Tk = [[emb(x) for x in row] for row in T]
        p = res.point
        res.point = [
            Tk[i][0] * p[0] + Tk[i][1] * p[1] + Tk[i][2] * p[2] for i in range(3)
        ]
        first = next((x for x in res.point if not x.is_zero()), None)
        if first is None:
            raise InconsistencyError("witness collapsed to the zero vector")
        inv = first.inverse()
        res.point = [x * inv for x in res.point]
    return res


def _single_form_zero(field, H, seed):
    # restrict to the line x = 0: a binary form in (y, z), nonzero at (0,0,1)
    slice_poly = specialize_last(H, field.zero, field.one, identity_embedding(field))
    if slice_poly.degree < 1:
        raise InconsistencyError("z-regular form restricted to a constant")
    try:
        z0, leg = _root_with_leg(slice_poly, seed)
    except UnsupportedFieldError:
        return ZeroSearch(True, certificate="resultant",
                          caveat="witness needs an algebraic number")
    emb = leg if leg is not None else identity_embedding(field)
    K = emb.dst
    return ZeroSearch(True, [K.zero, K.one, z0], K, emb, certificate="resultant")


def _resultant_route(field, H, rng, seed, original_forms):
    # find one pair (or combination) with nonvanishing resultant in z
    pair = None
    for i in range(len(H)):
        for j in range(i + 1, len(H)):
            R = resultant_wrt(H[i], H[j], 2)
            if not R.is_zero():
                pair = R
                break
        if pair is not None:
            break
    if pair is None:
        degs = {F.degree() for F in H}
        if len(degs) == 1:
            for _ in range(40):
                a = [_search_scalar(field, rng) for _ in H]
                b = [_search_scalar(field, rng) for _ in H]
                F1 = MPoly.zero(field, 3)
                F2 = MPoly.zero(field, 3)
                for c1, c2, Hk in zip(a, b, H):
                    F1 = F1 + Hk * c1
                    F2 = F2 + Hk * c2
                if F1.is_zero() or F2.is_zero():
                    continue
                R = resultant_wrt(F1, F2, 2)
                if not R.is_zero():
                    pair = R
                    break
    if pair is None:
        # every elimination degenerated: the forms look like they share a
        # positive-dimensional component, so hunt for an explicit point
        if field.order is None:
            raise UnsupportedFieldError(
                "degenerate eliminations over Q cannot be certified"
            )
        enum = _enumeration_search(field, original_forms)
        if enum.found:
            enum.certificate = "enumeration-shared-component"
            return enum
        raise InconsistencyError(
            "every elimination vanished identically yet no common point was "
            "found in the enumerated towers; the system cannot be certified"
        )

    b, drop = binary_form_to_poly(pair, 0, 1)
    ident = identity_embedding(field)
    candidates = []  # (x0, y0, embedding)
    if drop > 0:
        candidates.append((field.zero, field.one, ident))
    if field.order is None:
        pairs = roots(b).pairs if b.degree >= 1 else []
        for r, _ in pairs:
            candidates.append((field.one, r, ident))
        rational_part = Poly(field, [1])
        x = Poly.x(field)
        for r, m in pairs:
            for _ in range(m):
                rational_part = rational_part * (x - Poly(field, [r]))
        leftover = b.degree - rational_part.degree
        for x0, y0, emb in candidates:
            try:
                ok, pt, emb2 = _check_candidate(H, x0, y0, emb, seed)
            except UnsupportedFieldError:
                # the candidate is a common zero, but its last coordinate
                # is irrational
                return ZeroSearch(
                    True, certificate="resultant",
                    caveat="witness needs an algebraic number",
                )
            if ok:
                return ZeroSearch(True, pt, emb2.dst, emb2, certificate="resultant")
        if leftover > 0:
            raise UnsupportedFieldError(
                "remaining candidates are irrational; not searchable over Q"
            )
        return ZeroSearch(False, certificate="resultant")

    # finite field: the candidate at x = 0, then one decision per irreducible
    # factor of the eliminant
    for x0, y0, emb in candidates:
        ok, pt, emb2 = _check_candidate(H, x0, y0, emb, seed)
        if ok:
            return ZeroSearch(True, pt, emb2.dst, emb2, certificate="resultant")
    for f, _ in factor(b, seed=seed) if b.degree >= 1 else ():
        ok, pt, emb2 = _factor_zero(H, f, seed)
        if ok:
            return ZeroSearch(True, pt, emb2.dst, emb2, certificate="resultant")
    return ZeroSearch(False, certificate="resultant")
