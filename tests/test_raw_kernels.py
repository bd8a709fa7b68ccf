"""The raw-value scalar kernels against their FieldElement oracles.

rref (with kernel, rank, solve, det, mat_vec and mat_mul), MPoly.evaluate
(and through it PlaneCubic.evaluate), PlaneCubic.gradient, MPoly's __add__,
__neg__ and __mul__, specialize_last, Poly's __call__, __mul__ and __divmod__, the
root scan of small fields, the skew form value and plane pair covectors of
nets, the combinations of a morphism's matrices with their kernel (fiber)
and x_membership,
projective's random_vector and pluecker_relations, the cubic's chords
(third_point) and halvings (_halve), and the numeric Pfaffian (_pfaffian_raw,
skew elimination) unwrap their inputs once and loop on raw values.
The vector kernels of every field (_dot, _axpy, _scale; PrimeField's
_zeros too) are checked against the generic loops on the scalar _add and
_mul that they replaced (_dot_oracle, _axpy_oracle, _scale_oracle),
raw-coefficient Poly against the element-loop Poly, and the numeric
Pfaffian and the flat Pfaffian forms against the first-row recursion
(pfaffian_oracle).
The oracles below are the element-by-element loops they replaced, kept here
as the reference: every result must agree exactly, over prime fields,
extensions and Q.
"""

import itertools
import sys
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skewloci import cubic as cubic_module
from skewloci import linalg as linalg_module
from skewloci import nets as nets_module
from skewloci import selftest
from skewloci.complexes import GenericMorphism, pfaffian_form
from skewloci.cubic import (
    MONOMIALS,
    PlaneCubic,
    _halve,
    _norm_point,
    add_points,
    third_point,
)
from skewloci.errors import InconsistencyError, PreconditionError
from skewloci.fields import (
    PRIME_BOUND,
    QQ,
    ExtField,
    Field,
    Poly,
    PrimeField,
    _deflate,
    _is_probable_prime,
    _scan_roots,
    extend_field,
    identity_embedding,
    is_irreducible,
    poly_gcd,
    roots,
)
from skewloci.linalg import (
    PAIR_INDEX,
    PAIRS,
    _pfaffian_raw,
    _rref_raw,
    det,
    kernel,
    mat_mul,
    mat_vec,
    pfaffian_field,
    rank,
    rref,
    skew_from_pairs,
    solve,
    transpose,
)
from skewloci.fournets import _halving_target
from skewloci.nets import (
    Net,
    _fiber_triple,
    _form_value,
    count_scroll_points,
    net_pfaffian_cubic,
    plane_pair_covectors,
    rational_fibers,
    sub_pfaffian_forms,
    x_membership,
)
from skewloci.pencils import Pencil
from skewloci.polys import MPoly, binary_form_to_poly, points_by_lines, specialize_last
from skewloci.projective import (
    Subspace,
    meet,
    normalize_projective,
    pluecker_relations,
    random_vector,
)

FIELDS = (
    PrimeField(7), PrimeField(101), extend_field(PrimeField(7), 2)[0],
    extend_field(PrimeField(3), 3)[0], QQ,
)


# ---------------------------------------------------------------------------
# oracles: the FieldElement loops


def _rref_oracle(field, rows):
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


def _kernel_oracle(field, rows):
    n = len(rows[0])
    R, pivots = _rref_oracle(field, rows)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [field.zero] * n
        v[f] = field.one
        for r, p in enumerate(pivots):
            v[p] = -R[r][f]
        basis.append(v)
    return _rref_oracle(field, basis)[0] if basis else []


def _solve_oracle(field, A, b):
    n = len(A[0])
    R, pivots = _rref_oracle(field, [list(row) + [y] for row, y in zip(A, b)])
    for row in R:
        if all(x.is_zero() for x in row[:n]) and not row[n].is_zero():
            return None
    x = [field.zero] * n
    for r, p in enumerate(pivots):
        if p < n:
            x[p] = R[r][n]
    return x


def _det_oracle(field, rows):
    n = len(rows)
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


def _mat_mul_oracle(A, B):
    Bt = [list(col) for col in zip(*B)]
    return [[sum((x * y for x, y in zip(row, col)), start=row[0].field.zero) for col in Bt]
            for row in A]


def _monomial_value(pt, exps):
    out = pt[0].field.one
    for x, e in zip(pt, exps):
        for _ in range(e):
            out = out * x
    return out


def _evaluate_oracle(C, pt):
    out = C.field.zero
    for c, exps in zip(C.coeffs, MONOMIALS):
        if not c.is_zero():
            out = out + c * _monomial_value(pt, exps)
    return out


def _gradient_oracle(C, pt):
    out = []
    for i in range(3):
        acc = C.field.zero
        for c, exps in zip(C.coeffs, MONOMIALS):
            if c.is_zero() or exps[i] == 0:
                continue
            lowered = list(exps)
            lowered[i] -= 1
            acc = acc + c * C.field(exps[i]) * _monomial_value(pt, tuple(lowered))
        out.append(acc)
    return tuple(out)


def _poly_call_oracle(f, x):
    acc = f.field.zero
    for c in reversed(f.c):
        acc = acc * x + c
    return acc


def _poly_mul_oracle(f, g):
    if f.is_zero() or g.is_zero():
        return Poly(f.field, [])
    out = [f.field.zero] * (len(f.c) + len(g.c) - 1)
    for i, x in enumerate(f.c):
        if x.is_zero():
            continue
        for j, y in enumerate(g.c):
            out[i + j] = out[i + j] + x * y
    return Poly(f.field, out)


def _poly_divmod_oracle(f, g):
    if f.degree < g.degree:
        return Poly(f.field, []), f
    rem = list(f.c)
    dv = g.c
    inv = g.lead().inverse()
    qn = len(rem) - len(dv) + 1
    quot = [f.field.zero] * qn
    for i in range(qn - 1, -1, -1):
        coef = rem[i + len(dv) - 1] * inv
        quot[i] = coef
        if not coef.is_zero():
            for j, y in enumerate(dv):
                rem[i + j] = rem[i + j] - coef * y
    return Poly(f.field, quot), Poly(f.field, rem)


def _mpoly_add_oracle(f, g):
    t = dict(f.terms)
    for e, c in g.terms.items():
        s = t.get(e, f.field.zero) + c
        if s.is_zero():
            t.pop(e, None)
        else:
            t[e] = s
    return t


def _mpoly_mul_oracle(f, g):
    t = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            t[e] = t.get(e, f.field.zero) + c1 * c2
    return {e: c for e, c in t.items() if not c.is_zero()}


def _form_value_oracle(A, x, y, zero):
    return sum(((x[i] * y[j] - x[j] * y[i]) * A[i][j] for i, j in PAIRS), start=zero)


def _pair_covectors_oracle(plane):
    return [[x[i] * y[j] - x[j] * y[i] for i, j in PAIRS]
            for x, y in itertools.combinations(plane.rows, 2)]


def _combination_oracle(phi, lam):
    coeffs = [phi.field(x) for x in lam]
    size = phi.n + 1
    out = [[phi.field.zero] * size for _ in range(size)]
    for c, M in zip(coeffs, phi.matrices):
        if c.is_zero():
            continue
        for i in range(size):
            for j in range(size):
                out[i][j] = out[i][j] + c * M[i][j]
    return out


def _pfaffian_args(phi):
    """The combination matrix with linear-form entries in phi.m variables,
    with the zero and one it is reduced over: pfaffian_oracle's arguments."""
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


def pfaffian_oracle(A, zero, one):
    """Pfaffian of an even-size skew matrix over any commutative ring (field
    elements or MPoly entries), by first-row expansion: the term for column
    j carries sign (-1)^(j-1).  It visits every matching, so it serves small
    orders only."""

    def rec(idx):
        if not idx:
            return one
        i0, rest = idx[0], idx[1:]
        total = zero
        for pos, j in enumerate(rest):
            a = A[i0][j]
            if a.is_zero():
                continue
            term = a * rec(rest[:pos] + rest[pos + 1:])
            total = total + term if pos % 2 == 0 else total - term
        return total

    return rec(tuple(range(len(A))))


def sub_pfaffians_6_oracle(A, zero, one):
    """The 15 sub-Pfaffians of a 6x6 skew matrix by the recursion: for the
    pair (i, j), (-1)^(i+j) Pf of A without rows and columns i and j."""
    out = []
    for i, j in PAIRS:
        idx = [k for k in range(6) if k not in (i, j)]
        val = pfaffian_oracle([[A[r][c] for c in idx] for r in idx], zero, one)
        out.append(val if (i + j) % 2 == 0 else -val)
    return out


def _scan_roots_oracle(f):
    return [(a, _deflate(f, a)[1]) for a in f.field.elements() if f(a).is_zero()]


# ---------------------------------------------------------------------------
# strategies


def _element(draw, field):
    """Zero a third of the time, so that pivots and terms are often missing."""
    if draw(st.integers(0, 2)) == 0:
        return field.zero
    if field is QQ:
        return field(Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 6))))
    if field.degree == 1:
        return field(draw(st.integers(0, field.char - 1)))
    return field(draw(st.lists(st.integers(0, field.char - 1),
                               min_size=field.degree, max_size=field.degree)))


def _matrix(draw, field, m, n):
    return [[_element(draw, field) for _ in range(n)] for _ in range(m)]


@st.composite
def _matrix_case(draw):
    """A field and an m x n matrix of rank at most k, as a product A B."""
    field = draw(st.sampled_from(FIELDS))
    m, n, k = draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 5))
    A, B = _matrix(draw, field, m, k), _matrix(draw, field, k, n)
    return field, _mat_mul_oracle(A, B), A, B


def _raw(rows):
    return [[(x.field, x.v) for x in row] for row in rows]


@settings(max_examples=250, deadline=None, database=None)
@given(_matrix_case(), st.data())
def test_linear_algebra_matches_the_element_loops(case, data):
    field, M, A, B = case
    R, piv = rref(field, M)
    R0, piv0 = _rref_oracle(field, M)
    assert piv == piv0 and R == R0
    assert all(x.field is field for row in R for x in row)
    assert rank(field, M) == len(piv0)
    assert kernel(field, M) == _kernel_oracle(field, M)
    assert mat_mul(A, B) == M
    b = [_element(data.draw, field) for _ in M]
    assert solve(field, M, b) == _solve_oracle(field, M, b)
    v = [_element(data.draw, field) for _ in M[0]]
    assert mat_vec(M, v) == [sum((x * y for x, y in zip(row, v)), start=field.zero) for row in M]
    sq = [row[: len(M)] for row in M] if len(M[0]) >= len(M) else None
    if sq is not None:
        assert det(field, sq) == _det_oracle(field, sq)
    # raw values, not only equality up to field identity
    assert _raw(R) == _raw(R0)


@st.composite
def _cubic_case(draw):
    field = draw(st.sampled_from(FIELDS))
    coeffs = [_element(draw, field) for _ in range(10)]
    if all(c.is_zero() for c in coeffs):
        coeffs[draw(st.integers(0, 9))] = field.one
    pt = [_element(draw, field) for _ in range(3)]
    return PlaneCubic(field, coeffs), pt


@settings(max_examples=250, deadline=None, database=None)
@given(_cubic_case())
def test_cubic_evaluate_and_gradient_match_the_element_loops(case):
    C, pt = case
    assert C.evaluate(pt) == _evaluate_oracle(C, pt)
    assert C.gradient(pt) == _gradient_oracle(C, pt)
    assert C.evaluate(pt).field is C.field


@settings(max_examples=120, deadline=None, database=None)
@given(st.sampled_from((PrimeField(7), PrimeField(23), PrimeField(101),
                        extend_field(PrimeField(7), 2)[0])), st.data())
def test_gradient_matches_its_stored_partials(field, data):
    coeffs = [_element(data.draw, field) for _ in range(10)]
    if all(c.is_zero() for c in coeffs):
        coeffs[data.draw(st.integers(0, 9))] = field.one
    C = PlaneCubic(field, coeffs)
    pt = [_element(data.draw, field) for _ in range(3)]
    want = tuple(dF.evaluate(pt) for dF in C.partials())
    assert [(x.field, x.v) for x in C.gradient(pt)] == [(x.field, x.v) for x in want]


@st.composite
def _mpoly_case(draw):
    # any arity and exponents past 3, so the powers grow beyond a cubic's
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    terms = {
        tuple(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))): _element(draw, field)
        for _ in range(draw(st.integers(0, 8)))
    }
    pt = [_element(draw, field) for _ in range(n)]
    return MPoly(field, n, terms), pt


@settings(max_examples=250, deadline=None, database=None)
@given(_mpoly_case())
def test_mpoly_evaluate_and_specialize_match_the_element_loops(case):
    P, pt = case
    field = P.field
    want = sum((c * _monomial_value(pt, e) for e, c in P.terms.items()), start=field.zero)
    assert P.evaluate(pt) == want and P.evaluate(pt).field is field
    if P.n == 3:
        x0, y0 = pt[0], pt[1]
        f = specialize_last(P, x0, y0, identity_embedding(field))
        assert f(pt[2]) == want
        top = max((e[2] for e in P.terms), default=-1)
        want_c = [
            sum((c * _monomial_value([x0, y0], e[:2]) for e, c in P.terms.items() if e[2] == k),
                start=field.zero)
            for k in range(top + 1)
        ]
        assert f == Poly(field, want_c)


@st.composite
def _poly_case(draw):
    field = draw(st.sampled_from(FIELDS))
    f = Poly(field, [_element(draw, field) for _ in range(draw(st.integers(0, 7)))])
    g = Poly(field, [_element(draw, field) for _ in range(draw(st.integers(0, 5)))])
    return f, g, _element(draw, field)


@settings(max_examples=250, deadline=None, database=None)
@given(_poly_case())
def test_poly_arithmetic_matches_the_element_loops(case):
    f, g, x = case
    assert f(x) == _poly_call_oracle(f, x)
    assert f * g == _poly_mul_oracle(f, g)
    assert f * x == Poly(f.field, [c * x for c in f.c])
    if not g.is_zero():
        q, r = divmod(f, g)
        q0, r0 = _poly_divmod_oracle(f, g)
        assert (q, r) == (q0, r0)
        assert q * g + r == f and r.degree < g.degree
    # trailing zeros are stripped
    for h in (f * g, f * x):
        assert not h.c or not h.c[-1].is_zero()


@st.composite
def _mpoly_pair(draw):
    P, _ = draw(_mpoly_case())
    terms = {
        tuple(draw(st.lists(st.integers(0, 3), min_size=P.n, max_size=P.n))):
            _element(draw, P.field)
        for _ in range(draw(st.integers(0, 6)))
    }
    # share some exponents with P, so that terms merge and cancel
    for e, c in list(P.terms.items())[: draw(st.integers(0, len(P.terms)))]:
        terms[e] = draw(st.sampled_from((-c, c, c * 2)))
    return P, MPoly(P.field, P.n, terms), _element(draw, P.field)


@settings(max_examples=60, deadline=None, database=None)
@given(_mpoly_pair())
def test_mpoly_arithmetic_matches_the_element_loops(case):
    P, Q, c = case
    scaled = {} if c.is_zero() else {e: x * c for e, x in P.terms.items()}
    # the terms and their insertion order, raw values included
    for got, want in ((P + Q, _mpoly_add_oracle(P, Q)), (P * Q, _mpoly_mul_oracle(P, Q)),
                      (-P, {e: -x for e, x in P.terms.items()}), (P * c, scaled),
                      (P - Q, _mpoly_add_oracle(P, -Q)),
                      # the cross terms of (P + Q)(P - Q) cancel
                      ((P + Q) * (P - Q), _mpoly_mul_oracle(P + Q, P - Q))):
        assert [(e, x.v) for e, x in got.terms.items()] == [(e, x.v) for e, x in want.items()]
        assert all(x.field is P.field and not x.is_zero() for x in got.terms.values())


def test_mpoly_arithmetic_refuses_other_rings():
    F7, F11 = PrimeField(7), PrimeField(11)
    x7, x11 = MPoly.variable(F7, 2, 0), MPoly.variable(F11, 2, 0)
    for bad in (lambda: x7 + x11, lambda: x7 * x11, lambda: x7 * F11(2),
                lambda: x7 + MPoly.variable(F7, 3, 0)):
        with pytest.raises(PreconditionError):
            bad()


def _skew_matrix(draw, field, size, wedges):
    """A size x size skew matrix: random entries, or with wedges set a sum of
    one to wedges forms x y^T - y x^T, so of rank at most 2 * wedges."""
    if wedges is None:
        upper = {(i, j): _element(draw, field) for i in range(size) for j in range(i + 1, size)}
    else:
        upper = {(i, j): field.zero for i in range(size) for j in range(i + 1, size)}
        for _ in range(draw(st.integers(1, wedges))):
            x, y = ([_element(draw, field) for _ in range(size)] for _ in range(2))
            for i, j in upper:
                upper[i, j] = upper[i, j] + x[i] * y[j] - x[j] * y[i]
    M = [[field.zero] * size for _ in range(size)]
    for (i, j), c in upper.items():
        M[i][j], M[j][i] = c, -c
    return M


@st.composite
def _skew_case(draw, size=6, wedges=None):
    field = draw(st.sampled_from(FIELDS))
    count = draw(st.integers(1, 3))
    if size == 6 and wedges is None:
        mats = [skew_from_pairs(field, [_element(draw, field) for _ in PAIRS])
                for _ in range(count)]
    else:
        mats = [_skew_matrix(draw, field, size, wedges) for _ in range(count)]
    vecs = [[_element(draw, field) for _ in range(size)] for _ in range(2)]
    lam = [_element(draw, field) for _ in mats]
    return field, mats, vecs, lam


@settings(max_examples=60, deadline=None, database=None)
@given(_skew_case())
def test_form_value_and_combination_match_the_element_loops(case):
    field, mats, (x, y), lam = case
    for A in mats:
        got = _form_value(field, [field._unwrap(r) for r in A], field._unwrap(x), field._unwrap(y))
        assert got == _form_value_oracle(A, x, y, field.zero).v
    try:
        phi = GenericMorphism(field, mats)
    except PreconditionError:  # dependent matrices
        return
    got = phi.combination(lam)
    assert _raw(got) == _raw(_combination_oracle(phi, lam))


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from(FIELDS), st.data())
def test_plane_pair_covectors_match_the_element_loop(field, data):
    plane = Subspace(field, 6, _matrix(data.draw, field, 3, 6))
    assume(plane.dim == 3)
    assert _raw(plane_pair_covectors(plane)) == _raw(_pair_covectors_oracle(plane))


@settings(max_examples=60, deadline=None, database=None)
@given(_poly_case())
def test_root_scan_matches_the_element_loop(case):
    f, g, _ = case
    if f.field is QQ or f.field.order > 256:
        return
    for h in (f, f * g, f * f):
        if h.degree >= 1:
            assert _scan_roots(h) == _scan_roots_oracle(h)


def _membership_oracle(phi, P):
    pt = [phi.field(x) for x in P]
    cols = [mat_vec(A, pt) for A in phi.matrices]
    rows = [[col[i] for col in cols] for i in range(phi.n + 1)]
    return rank(phi.field, rows) <= phi.m - 1


def _fiber_and_membership_match_the_oracles(field, mats, vecs, lam):
    """fiber(lam) against the kernel of the element combination, and
    x_membership against the mat_vec and rank loop; the kernel's dimension."""
    try:
        phi = GenericMorphism(field, mats)
    except PreconditionError:  # dependent matrices
        return None
    if all(c.is_zero() for c in lam):
        with pytest.raises(PreconditionError, match="zero vector"):
            phi.fiber(lam)
        return None
    fib = phi.fiber(lam)
    oracle = Subspace.from_kernel_of(field, _combination_oracle(phi, lam))
    assert fib == oracle and _raw(fib.rows) == _raw(oracle.rows)
    assert phi.fiber(list(lam)) is fib
    points = [v for v in vecs if not all(x.is_zero() for x in v)] + fib.rows
    for pt in points:
        assert x_membership(phi, pt) == _membership_oracle(phi, pt)
    return fib.dim


@settings(max_examples=80, deadline=None, database=None)
@given(st.data())
def test_fiber_and_membership_match_the_element_loops(data):
    """Random, low-rank (sums of wedges) and odd-size morphisms; lam has a
    zero coordinate a third of the time, and is sometimes zero."""
    size = data.draw(st.sampled_from([5, 6, 7]))
    wedges = data.draw(st.sampled_from([None, 1, 2]))
    field, mats, vecs, lam = data.draw(_skew_case(size, wedges))
    _fiber_and_membership_match_the_oracles(field, mats, vecs, lam)


@pytest.mark.parametrize("field", [PrimeField(7), extend_field(PrimeField(7), 2)[0], QQ],
                         ids=["F7", "F49", "Q"])
def test_fiber_kernels_of_dimension_zero_two_and_four(field):
    """A rank-2 generator as in the nets tests' TYPE2_TRIPLES, a rank-4 one
    and a general one: the coordinate parameters have kernels of dimension
    4, 2 and 0."""
    rank2 = [1] + [0] * 14
    rank4 = [0] * 15
    rank4[0] = rank4[PAIRS.index((2, 3))] = 1
    general = [0] * 15
    for pair in ((0, 3), (1, 4), (2, 5), (0, 1)):
        general[PAIRS.index(pair)] = 1
    mats = [skew_from_pairs(field, v) for v in (rank2, rank4, general)]
    rng = random.Random(3)
    params = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    params += [[field.random(rng) for _ in range(3)] for _ in range(5)]
    vecs = [[field.random(rng) for _ in range(6)] for _ in range(2)]
    dims = [_fiber_and_membership_match_the_oracles(field, mats, vecs, [field(c) for c in lam])
            for lam in params]
    assert dims[:3] == [4, 2, 0]


def _random_vector_oracle(space, rng):
    while True:
        cs = [space.field.random(rng) for _ in range(space.dim)]
        v = [space.field.zero] * space.n
        for c, row in zip(cs, space.rows):
            v = [a + c * b for a, b in zip(v, row)]
        if any(not x.is_zero() for x in v):
            return v


def _pluecker_relations_oracle(field, p15):
    xs = [field(c) for c in p15]

    def x(i, j):
        return xs[PAIRS.index((i, j))]

    return [
        x(a, b) * x(c, d) - x(a, c) * x(b, d) + x(a, d) * x(b, c)
        for a, b, c, d in itertools.combinations(range(6), 4)
    ]


_PROJECTIVE_FIELDS = (PrimeField(7), extend_field(PrimeField(7), 2)[0], QQ)


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from(_PROJECTIVE_FIELDS), st.data())
def test_random_vector_and_pluecker_relations_match_the_element_loops(field, data):
    rows = _matrix(data.draw, field, data.draw(st.integers(1, 4)), 6)
    space = Subspace(field, 6, rows)
    if space.dim:
        seed = data.draw(st.integers(0, 2 ** 16))
        rng, rng0 = random.Random(seed), random.Random(seed)
        got = random_vector(space, rng)
        assert _raw([got]) == _raw([_random_vector_oracle(space, rng0)])
        # the same draws, in the same order
        assert rng.getstate() == rng0.getstate()
    u, v = rows[0], _matrix(data.draw, field, 1, 6)[0]
    wedge = [u[i] * v[j] - u[j] * v[i] for i, j in PAIRS]
    for p15 in (wedge, [_element(data.draw, field) for _ in PAIRS]):
        got = pluecker_relations(field, p15)
        assert _raw([got]) == _raw([_pluecker_relations_oracle(field, p15)])


# ---------------------------------------------------------------------------
# the group law: chords and halvings


def _third_point_oracle(C, P, Q):
    """third_point as an element loop: chords through the gradient, and the
    tangent's second point from the kernel of the tangent covector."""
    field = C.field
    P = _norm_point(C, P)
    Q = _norm_point(C, Q)
    if P != Q:
        c1 = sum((g * x for g, x in zip(_gradient_oracle(C, P), Q)), start=field.zero)
        c2 = sum((g * x for g, x in zip(_gradient_oracle(C, Q), P)), start=field.zero)
        if c1.is_zero() and c2.is_zero():
            raise InconsistencyError("the chord lies inside the cubic")
        R = [-c2 * a + c1 * b for a, b in zip(P, Q)]
        return tuple(normalize_projective(R))
    g = list(_gradient_oracle(C, P))
    if all(x.is_zero() for x in g):
        raise PreconditionError("the cubic is singular at the tangency point")
    S = next((cand for cand in kernel(field, [g]) if rank(field, [list(P), cand]) == 2), None)
    if S is None:
        raise InconsistencyError("tangent line collapsed to a point")
    c2 = sum((g * x for g, x in zip(_gradient_oracle(C, S), P)), start=field.zero)
    c3 = _evaluate_oracle(C, S)
    if c2.is_zero() and c3.is_zero():
        raise InconsistencyError("the tangent line lies inside the cubic")
    R = [-c3 * a + c2 * b for a, b in zip(P, S)]
    return tuple(normalize_projective(R))


def _halve_oracle(C, R):
    """_halve with the lines through S = R*O as MPolys in (al, be): the form
    and its partials are substituted, and the contact points evaluated."""
    field = C.field
    S = _third_point_oracle(C, R, C.base_point)
    piv = next(i for i, x in enumerate(S) if not x.is_zero())
    ia, ib = (i for i in range(3) if i != piv)
    W = [MPoly.zero(field, 2)] * 3
    W[ia] = MPoly.variable(field, 2, 0)
    W[ib] = MPoly.variable(field, 2, 1)
    gS = _gradient_oracle(C, S)
    zero = MPoly.zero(field, 2)
    a = sum((W[k] * gS[k] for k in range(3)), start=zero)
    b = sum((dF.substitute(W) * S[k] for k, dF in enumerate(C.partials())), start=zero)
    disc = b * b - a * C.as_mpoly().substitute(W) * 4
    if disc.is_zero():
        raise InconsistencyError("every line through S is tangent to the cubic")
    p, drop = binary_form_to_poly(disc, 0, 1)
    directions = [(field.zero, field.one)] if drop > 0 else []
    if p.degree >= 1:
        directions += [(field.one, t) for t, _ in roots(p).pairs]
    contact = [a * W[k] * 2 - b * S[k] for k in range(3)]
    out = set()
    for t in directions:
        v = [x.evaluate(t) for x in contact]
        P = S if all(x.is_zero() for x in v) else tuple(normalize_projective(v))
        if _third_point_oracle(C, P, P) == S:
            out.add(P)
    return sorted(out, key=lambda P: [field.sort_key(x.v) for x in P])


def _outcome(f, *args):
    """The value of f, as raw values with their field, or its refusal."""
    try:
        got = f(*args)
    except (PreconditionError, InconsistencyError) as exc:
        return type(exc), str(exc)
    pts = got if isinstance(got, list) else [got]
    return [tuple((x.field, x.v) for x in P) for P in pts]


_GROUP_FIELDS = (PrimeField(3), PrimeField(7), PrimeField(23),
                 extend_field(PrimeField(7), 2)[0], QQ)


@st.composite
def _anchored_cubic(draw):
    """A smooth cubic through O = (0:0:1) (its l3^3 coefficient is 0) with some
    of its rational points.  Over Q the coefficients are small integers and
    smoothness is read off the reduction mod 101, which implies it; the
    points are O and O*O, whose small heights keep the quartics' roots cheap."""
    field = draw(st.sampled_from(_GROUP_FIELDS))
    if field is QQ:
        ints = [draw(st.integers(-3, 3)) for _ in range(9)]
        assume(any(ints) and PlaneCubic(PrimeField(101), ints + [0]).smoothness().smooth)
        C = PlaneCubic(QQ, ints + [0], base_point=(0, 0, 1))
        return C, [C.base_point, third_point(C, C.base_point, C.base_point)]
    coeffs = [_element(draw, field) for _ in range(9)] + [field.zero]
    assume(not all(c.is_zero() for c in coeffs))
    C = PlaneCubic(field, coeffs, base_point=(0, 0, 1))
    assume(C.smoothness().smooth)
    pts = C.rational_points()
    return C, [pts[draw(st.integers(0, len(pts) - 1))] for _ in range(3)]


@settings(max_examples=40, deadline=None, database=None)
@given(_anchored_cubic())
def test_chords_and_halvings_match_the_substitution_oracles(case):
    """R = O (the 2-torsion), each drawn point (often with no rational
    halving) and its double (always halved); chords and tangents."""
    C, pts = case
    targets = [C.base_point] + pts + [third_point(C, third_point(C, P, P), C.base_point)
                                      for P in pts]
    for R in targets:
        assert _outcome(_halve, C, R) == _outcome(_halve_oracle, C, R)
    for P, Q in itertools.product(pts, repeat=2):
        assert _outcome(third_point, C, P, Q) == _outcome(_third_point_oracle, C, P, Q)


# l2^2 l3 - l1^3 + l1 l3^2: full 2-torsion (0:1:0), (0:0:1), (1:0:1), (1:0:-1)
_ANCHOR = [-1, 0, 0, 0, 0, 1, 0, 1, 0, 0]


@pytest.mark.parametrize("field", [PrimeField(3), PrimeField(7), PrimeField(23),
                                   extend_field(PrimeField(7), 2)[0], QQ],
                         ids=["F3", "F7", "F23", "F49", "Q"])
def test_halving_reaches_a_flex_and_the_direction_at_infinity(field):
    """With O = (0:1:0), a flex, S = O*O = O has pivot 1, so t = l3/l1 on the
    lines through S.  The flex tangent l3 = 0 (t = 0) touches at S itself,
    where the contact vector is zero; the line l1 = 0 is tangent at (0:0:1),
    the root at infinity of the quartic, which has degree 3."""
    C = PlaneCubic(field, _ANCHOR, base_point=(0, 1, 0))
    got = _halve(C, C.base_point)
    assert _outcome(_halve, C, C.base_point) == _outcome(_halve_oracle, C, C.base_point)
    assert C.base_point in got and tuple(map(field, (0, 0, 1))) in got
    # every other target: points with and without a rational halving
    pts = C.rational_points() if field.order else [C.base_point] + got
    outs = [_outcome(_halve, C, R) for R in pts]
    assert outs == [_outcome(_halve_oracle, C, R) for R in pts]
    if field.order:
        assert [] in outs and any(len(o) == len(got) for o in outs)


def _line_times_conic(field):
    """l1 (l2^2 + l3^2 + l1 l3) over F7: the line l1 = 0 lies on the curve
    and misses the conic over F7 (-1 is not a square), so its points are
    smooth; l1 l2 l3 is singular at (1:0:0)."""
    line = MPoly(field, 3, {(1, 0, 0): 1})
    conic = MPoly(field, 3, {(0, 2, 0): 1, (0, 0, 2): 1, (1, 0, 1): 1})
    return PlaneCubic.from_mpoly(line * conic)


def test_third_point_refusals_match_the_oracle():
    F = PrimeField(7)
    C = _line_times_conic(F)
    triangle = PlaneCubic(F, [0, 0, 0, 0, 1, 0, 0, 0, 0, 0])
    cases = [
        (C, (0, 1, 0), (0, 1, 3), "the chord lies inside the cubic"),
        (C, (0, 1, 2), (0, 1, 2), "the tangent line lies inside the cubic"),
        (triangle, (1, 0, 0), (1, 0, 0), "the cubic is singular at the tangency point"),
        (C, (1, 1, 1), (0, 1, 0), "point not on curve"),
        (C, (0, 1, 0), (0, 0, 0), "expected a nonzero plane point"),
        (C, (0, 1), (0, 1, 0), "expected a nonzero plane point"),
    ]
    for curve, P, Q, message in cases:
        got = _outcome(third_point, curve, P, Q)
        assert got == _outcome(_third_point_oracle, curve, P, Q)
        assert got[1] == message


@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from((PrimeField(3), PrimeField(5), PrimeField(7), PrimeField(11))),
       st.sampled_from([None, 1, 2]), st.data())
def test_flat_pfaffian_matches_pfaffian_field(field, wedges, data):
    """Random skew matrices, and sums of one or two wedges (Pfaffian 0)."""
    A = _skew_matrix(data.draw, field, 6, wedges)
    want = pfaffian_oracle(A, field.zero, field.one)
    assert _pfaffian_raw(field, [field._unwrap(row) for row in A]) == want.v
    if wedges is not None:
        assert want.is_zero()


PFAFFIAN_FIELDS = (PrimeField(3), PrimeField(7), PrimeField(101),
                   extend_field(PrimeField(7), 2)[0], QQ)


@st.composite
def _pfaffian_case(draw):
    """A skew matrix of even order 0-10: dense, a wedge sum of rank below
    the order, a zero first row, or A[0][1] = 0 with a later nonzero A[0][j],
    which makes the elimination swap."""
    field = draw(st.sampled_from(PFAFFIAN_FIELDS))
    n = 2 * draw(st.integers(0, 5))
    shape = draw(st.sampled_from(("dense", "wedges", "zero row", "swap")))
    wedges = max(1, n // 2 - 1) if shape == "wedges" else None
    A = _skew_matrix(draw, field, n, wedges)
    if n and shape == "zero row":
        for k in range(n):
            A[0][k] = A[k][0] = field.zero
    if n >= 4 and shape == "swap":
        j = draw(st.integers(2, n - 1))
        c = draw(st.sampled_from((field.one, -field.one, field(2))))
        A[0][1] = A[1][0] = field.zero
        A[0][j], A[j][0] = c, -c
    return field, shape, A


@settings(max_examples=300, deadline=None, database=None)
@given(_pfaffian_case())
def test_skew_elimination_matches_the_recursion(case):
    field, shape, A = case
    raw = [field._unwrap(row) for row in A]
    before = [list(row) for row in raw]
    want = pfaffian_oracle(A, field.zero, field.one)
    assert _pfaffian_raw(field, raw) == want.v
    assert raw == before
    assert pfaffian_field(field, A) == want
    if (shape == "zero row" and A) or (shape == "wedges" and len(A) >= 4):
        assert want.is_zero()


def _symplectic(field, n):
    """J = the sum of the blocks [[0, 1], [-1, 0]] on the diagonal: Pf(J) = 1."""
    J = [[field.zero] * n for _ in range(n)]
    for k in range(0, n, 2):
        J[k][k + 1], J[k + 1][k] = field.one, -field.one
    return J


@settings(max_examples=25, deadline=None, database=None)
@given(st.sampled_from((PrimeField(101), QQ)), st.integers(0, 20), st.booleans(),
       st.randoms(use_true_random=False))
def test_pfaffian_of_a_symplectic_congruence_is_the_determinant(field, half, singular, rng):
    """Pf(B^T J B) = det(B) Pf(J) = det(B), exactly, at orders the recursion
    cannot reach (up to 40)."""
    n = 2 * half
    B = [[field(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    if singular and n >= 2:
        B[-1] = list(B[0])
    M = mat_mul(transpose(B), mat_mul(_symplectic(field, n), B)) if n else []
    assert _pfaffian_raw(field, [field._unwrap(row) for row in M]) == det(field, B).v


# ---------------------------------------------------------------------------
# the whole-vector kernels of each field against the generic loops


def _dot_oracle(field, a, b):
    """The raw sum of a_i * b_i, one scalar _add and _mul per term."""
    acc = field.zero.v
    for x, y in zip(a, b):
        acc = field._add(acc, field._mul(x, y))
    return acc


def _axpy_oracle(field, xs, f, ys):
    return [field._add(x, field._mul(f, y)) for x, y in zip(xs, ys)]


def _scale_oracle(field, xs, s):
    return [field._mul(x, s) for x in xs]


def _assert_kernels_match_the_oracles(field, xs, ys, f):
    assert field._dot(xs, ys) == _dot_oracle(field, xs, ys)
    assert field._axpy(xs, f, ys) == _axpy_oracle(field, xs, f, ys)
    assert field._scale(xs, f) == _scale_oracle(field, xs, f)


NEAR_BOUND = next(n for n in range(PRIME_BOUND - 2, 0, -2) if _is_probable_prime(n))


def _residue(draw, p):
    """0 and p - 1 a third of the time each, else any residue."""
    pick = draw(st.sampled_from((0, p - 1, None)))
    return draw(st.integers(0, p - 1)) if pick is None else pick


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from((3, 5, 7, 101, 251, NEAR_BOUND)), st.data())
def test_prime_field_kernels_match_the_generic_loops(p, data):
    F = PrimeField(p)
    n = data.draw(st.integers(0, 8))
    xs, ys = ([_residue(data.draw, p) for _ in range(n)] for _ in range(2))
    f = _residue(data.draw, p)
    assert F._dot(xs, ys) == _dot_oracle(F, xs, ys)
    assert F._axpy(xs, f, ys) == _axpy_oracle(F, xs, f, ys)
    assert F._scale(xs, f) == _scale_oracle(F, xs, f)
    if p <= 251:
        coeffs = [_residue(data.draw, p) for _ in range(data.draw(st.integers(0, 6)))]
        coeffs.append(data.draw(st.integers(1, p - 1)))
        assert F._zeros(coeffs) == Field._zeros(F, coeffs)


def _rational(draw):
    """0 a fifth of the time, else a signed numerator over a denominator up
    to 10^6, often 1."""
    if draw(st.integers(0, 4)) == 0:
        return Fraction(0)
    den = draw(st.sampled_from((1, None))) or draw(st.integers(1, 10**6))
    return Fraction(draw(st.integers(-10**6, 10**6)), den)


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_rational_kernels_match_the_generic_loops(data):
    n = data.draw(st.integers(0, 8))
    xs, ys = ([_rational(data.draw) for _ in range(n)] for _ in range(2))
    f = _rational(data.draw)
    _assert_kernels_match_the_oracles(QQ, xs, ys, f)
    assert all(type(x) is Fraction for x in QQ._axpy(xs, f, ys) + QQ._scale(xs, f))
    assert type(QQ._dot(xs, ys)) is Fraction


def _dense_modulus_field(p, k):
    """F_p[x]/(m) for the first irreducible monic m of degree k, in
    lexicographic order, whose lower coefficients are all nonzero."""
    for low in itertools.product(range(1, p), repeat=k):
        if is_irreducible(Poly(PrimeField(p), list(low) + [1])):
            return ExtField(p, low + (1,))
    raise AssertionError("no irreducible modulus without zero coefficients")


EXT_FIELDS = tuple(F for p in (3, 7, 101) for k in (2, 3, 4)
                   for F in (extend_field(PrimeField(p), k)[0], _dense_modulus_field(p, k)))


def _ext_value(draw, field):
    """Coefficients 0 and p - 1 a third of the time each, else any residue."""
    return tuple(_residue(draw, field.char) for _ in range(field.degree))


@settings(max_examples=300, deadline=None, database=None)
@given(st.sampled_from(EXT_FIELDS), st.data())
def test_extension_kernels_match_the_generic_loops(field, data):
    n = data.draw(st.integers(0, 8))
    xs, ys = ([_ext_value(data.draw, field) for _ in range(n)] for _ in range(2))
    f = data.draw(st.sampled_from((field.zero.v, field.one.v, None))) or _ext_value(data.draw, field)
    _assert_kernels_match_the_oracles(field, xs, ys, f)


def _concrete_fields(cls=Field):
    for sub in cls.__subclasses__():
        yield sub
        yield from _concrete_fields(sub)


def test_every_field_defines_its_own_vector_kernels():
    """Field only declares _dot, _axpy and _scale; no subclass inherits them."""
    subs = list(_concrete_fields())
    assert {cls.__name__ for cls in subs} >= {"Rationals", "PrimeField", "ExtField"}
    missing = [f"{cls.__name__}.{name}" for cls in subs for name in ("_dot", "_axpy", "_scale")
               if name not in vars(cls)]
    assert not missing
    F = Field()
    for call in (lambda: F._dot([], []), lambda: F._axpy([], 0, []), lambda: F._scale([], 0)):
        with pytest.raises(NotImplementedError):
            call()


def _pow_mod_oracle(f, n, mod):
    out = Poly(f.field, [1])
    base = _poly_divmod_oracle(f, mod)[1]
    while n:
        if n & 1:
            out = _poly_divmod_oracle(_poly_mul_oracle(out, base), mod)[1]
        base = _poly_divmod_oracle(_poly_mul_oracle(base, base), mod)[1]
        n >>= 1
    return out


def _gcd_oracle(f, g):
    while not g.is_zero():
        f, g = g, _poly_divmod_oracle(f, g)[1]
    if f.is_zero():
        return f
    inv = f.lead().inverse()
    return Poly(f.field, [c * inv for c in f.c])


@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from((PrimeField(7), extend_field(PrimeField(7), 2)[0], QQ)), st.data())
def test_raw_poly_matches_the_element_loop_poly(field, data):
    f, g = (Poly(field, [_element(data.draw, field) for _ in range(data.draw(st.integers(0, 6)))])
            for _ in range(2))
    assert f * g == _poly_mul_oracle(f, g)
    assert f.c == tuple(field(c) for c in f.v) and all(c.field is field for c in f.c)
    if g.is_zero():
        return
    assert divmod(f, g) == _poly_divmod_oracle(f, g)
    assert poly_gcd(f, g) == _gcd_oracle(f, g)
    if field.order is not None and g.degree >= 1:
        n = data.draw(st.integers(0, 60))
        assert f.pow_mod(n, g) == _pow_mod_oracle(f, n, g)


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from((PrimeField(7), extend_field(PrimeField(7), 2)[0], QQ)),
       st.sampled_from((Pencil, Net)), st.sampled_from([None, 1]), st.data())
def test_flat_pfaffian_forms_match_the_recursion(field, cls, wedges, data):
    """pfaffian_form of pencils and nets, and a net's 15 kernel forms."""
    mats = [_skew_matrix(data.draw, field, 6, wedges) for _ in range(cls.arity)]
    try:
        phi = cls(field, *mats)
    except PreconditionError:  # dependent matrices
        return
    assert pfaffian_form(phi) == pfaffian_oracle(*_pfaffian_args(phi))
    if cls is Net:
        assert sub_pfaffian_forms(phi) == tuple(sub_pfaffians_6_oracle(*_pfaffian_args(phi)))


@settings(max_examples=30, deadline=None, database=None)
@given(st.sampled_from((PrimeField(7), QQ)), st.sampled_from([(4, 2), (8, 3)]), st.data())
def test_pfaffian_form_of_other_even_sizes_matches_the_recursion(field, shape, data):
    size, m = shape
    try:
        phi = GenericMorphism(field, [_skew_matrix(data.draw, field, size, None) for _ in range(m)])
    except PreconditionError:  # dependent matrices
        return
    assert pfaffian_form(phi) == pfaffian_oracle(*_pfaffian_args(phi))


def test_pfaffian_form_refuses_odd_sizes():
    F = PrimeField(7)
    M = [[0] * 5 for _ in range(5)]
    M[0][1], M[1][0] = 1, -1
    with pytest.raises(PreconditionError):
        pfaffian_form(GenericMorphism(F, [M]))

def _refuse_prime_mul(monkeypatch):
    def refuse(self, a, b):
        raise AssertionError("a per-scalar PrimeField._mul")

    monkeypatch.setattr(PrimeField, "_mul", refuse)


def test_rref_divmod_and_roots_make_no_scalar_products(monkeypatch):
    F = PrimeField(101)
    rng = random.Random(5)
    rows = [[rng.randrange(101) for _ in range(6)] for _ in range(6)]
    f = Poly(F, [rng.randrange(101) for _ in range(7)] + [1])
    g = Poly(F, [rng.randrange(101) for _ in range(3)] + [3])
    # x^3 (x - 2)^2 (x - 5) (x^2 + 2): roots 0, 2 and 5, with multiplicities
    h = Poly(F, [0, 0, 0, 1])
    for a in (2, 2, 5):
        h = h * Poly(F, [-a, 1])
    h = h * Poly(F, [2, 0, 1])
    _refuse_prime_mul(monkeypatch)
    R, pivots = _rref_raw(F, rows)
    assert len(pivots) == 6
    q, r = divmod(f, g)
    assert q.degree == 4 and r.degree <= 2
    assert [(x.v, m) for x, m in roots(h).pairs] == [(0, 3), (2, 2), (5, 1)]


def test_the_numeric_pfaffians_are_the_skew_elimination(monkeypatch):
    """pfaffian_field, sub_pfaffians_6_field and the scroll count all call
    _pfaffian_raw; nets binds the name at import, so it is patched there too."""
    def refuse(field, A):
        raise AssertionError("_pfaffian_raw")

    F = PrimeField(7)
    A = skew_from_pairs(F, range(1, 16))
    net = selftest.seeded_net(F, 0)
    monkeypatch.setattr(linalg_module, "_pfaffian_raw", refuse)
    monkeypatch.setattr(nets_module, "_pfaffian_raw", refuse)
    for call in (lambda: pfaffian_field(F, A), lambda: linalg_module.sub_pfaffians_6_field(F, A),
                 lambda: count_scroll_points(net)):
        with pytest.raises(AssertionError, match="_pfaffian_raw"):
            call()


@pytest.mark.parametrize("p", [7, 101])
def test_a_split_squarefree_scan_divides_nothing(p, monkeypatch):
    """deg f distinct roots of the scan are simple, so no x - a is divided
    out; fewer roots still get their multiplicities by division."""
    F = PrimeField(p)

    def product(*zs):
        f = Poly(F, [1])
        for a in zs:
            f = f * Poly(F, [-a, 1])
        return f

    with monkeypatch.context() as m:
        def refuse(self, other):
            raise AssertionError("Poly.__divmod__")

        m.setattr(Poly, "__divmod__", refuse)
        assert [(x.v, k) for x, k in roots(product(1, 2, 4)).pairs] == [(1, 1), (2, 1), (4, 1)]
    assert [(x.v, k) for x, k in roots(product(1, 1, 2)).pairs] == [(1, 2), (2, 1)]
    assert [(x.v, k) for x, k in roots(product(3, 3, 3)).pairs] == [(3, 3)]


# ---------------------------------------------------------------------------
# the lazy fibre triple, the chord step and the rank-4 disjointness test


def _counting_sweep(monkeypatch):
    seen = []

    def sweep(F):
        for pt in points_by_lines(F):
            seen.append(pt)
            yield pt

    monkeypatch.setattr(cubic_module, "points_by_lines", sweep)
    return seen


@pytest.mark.parametrize("q, seed", [(101, 0), (101, 1), (101, 2), (11, 0)])
def test_fiber_triple_stops_at_the_third_disjoint_fiber(q, seed, monkeypatch):
    net = selftest.seeded_net(PrimeField(q), seed)
    want = []
    for lam in net_pfaffian_cubic(selftest.seeded_net(PrimeField(q), seed)).rational_points():
        fib = net.fiber(lam)
        if fib.dim == 2 and all(meet(fib, other).dim == 0 for other in want) and len(want) < 3:
            want.append(fib)
    seen = _counting_sweep(monkeypatch)

    def refuse(self):
        raise AssertionError("enumerated every rational point")

    monkeypatch.setattr(PlaneCubic, "rational_points", refuse)
    assert _fiber_triple(net) == want
    assert len(seen) < len(list(points_by_lines(net_pfaffian_cubic(net).as_mpoly())))
    assert net_pfaffian_cubic(net)._points is None


def test_rational_fibers_read_the_kept_point_list(monkeypatch):
    net = selftest.seeded_net(PrimeField(11), 0)
    want = list(rational_fibers(selftest.seeded_net(PrimeField(11), 0)))
    net_pfaffian_cubic(net).rational_points()
    seen = _counting_sweep(monkeypatch)
    assert list(rational_fibers(net)) == want and not seen


def test_the_fibre_walks_share_one_point_sweep(monkeypatch):
    net = selftest.seeded_net(PrimeField(11), 0)
    want = net_pfaffian_cubic(selftest.seeded_net(PrimeField(11), 0)).rational_points()
    seen = _counting_sweep(monkeypatch)
    next(rational_fibers(net))
    assert net_pfaffian_cubic(net)._points is None  # an abandoned walk keeps no list
    list(rational_fibers(net))
    assert net_pfaffian_cubic(net).rational_points() == want
    list(rational_fibers(net))
    assert seen == want


def _norm_calls(monkeypatch):
    calls = []

    def counted(C, pt):
        calls.append(pt)
        return _norm_point(C, pt)

    monkeypatch.setattr(cubic_module, "_norm_point", counted)
    monkeypatch.setattr(sys.modules["skewloci.fournets"], "_norm_point", counted)
    return calls


def _anchored_criterion_11_cubic():
    net = selftest.seeded_net(PrimeField(23), 8)
    C0 = net_pfaffian_cubic(net)
    pts = C0.rational_points()
    return C0.anchored(pts[0]), pts


def test_chords_check_only_new_points(monkeypatch):
    C, pts = _anchored_criterion_11_cubic()
    P, Q, k = pts[1], pts[2], pts[3]
    want_sum = add_points(C, P, Q)
    H = cubic_module.hyperplane_class(C)
    want_target = third_point(C, k, third_point(C, H.rep, C.base_point))
    calls = _norm_calls(monkeypatch)
    assert add_points(C, P, Q) == want_sum
    assert calls == [P, Q]
    del calls[:]
    assert _halving_target(C, H, k).rep == want_target
    assert calls == [H.rep, k]


def test_public_chords_keep_their_checks():
    C, pts = _anchored_criterion_11_cubic()
    off = next(p for p in itertools.product(range(23), repeat=3)
               if any(p) and not C.contains([C.field(x) for x in p]))
    for call in (lambda: third_point(C, off, pts[1]), lambda: add_points(C, pts[1], off),
                 lambda: third_point(C, pts[1], (0, 0, 0))):
        with pytest.raises(PreconditionError, match="point not on curve|nonzero plane point"):
            call()


def _pairs_vec(**kw):
    v = [0] * 15
    for name, c in kw.items():
        v[PAIR_INDEX[int(name[1]), int(name[2])]] = c
    return v


@pytest.mark.parametrize("case", ["block", "F5-s0", "F7-s1", "F11-s0"])
def test_fibers_disjoint_by_rank_matches_the_meets(case, monkeypatch):
    if case == "block":
        F = PrimeField(7)
        net = Net.from_pair_vectors(F, [_pairs_vec(p01=1), _pairs_vec(p23=1), _pairs_vec(p45=1)])
    else:
        q, seed = case[1:].split("-s")
        net = selftest.seeded_net(PrimeField(int(q)), int(seed))
    fibers = [line for _, line in rational_fibers(net)]
    want = all(meet(a, b).dim == 0 for a, b in itertools.combinations(fibers, 2))

    def refuse(*args):
        raise AssertionError("a Zassenhaus meet")

    monkeypatch.setattr(nets_module, "meet", refuse)
    assert count_scroll_points(net).fibers_disjoint == want
    assert want == (case != "block")
