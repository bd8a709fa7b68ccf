import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skewloci import cubic as cubic_module
from skewloci.cubic import (
    CONIC_MONOMIALS,
    MONOMIALS,
    DivisorClass,
    PlaneCubic,
    SectionPoint,
    add_points,
    chord_line,
    class_add,
    class_eq,
    class_of,
    halvings,
    hyperplane_class,
    line_section,
    neg_point,
    polar_contact,
    third_point,
    two_torsion,
)
from skewloci.errors import PreconditionError
from skewloci.fields import QQ, PrimeField, extend_field, identity_embedding
from skewloci.polys import MPoly, points_by_lines
from skewloci.projective import projective_reps

F49 = extend_field(PrimeField(7), 2)[0]

# l2^2 l3 - l1^3 + l1 l3^2 in wire order
ANCHOR = [-1, 0, 0, 0, 0, 1, 0, 1, 0, 0]
FLEX = (0, 1, 0)


def _anchor(field):
    return PlaneCubic(field, ANCHOR, base_point=FLEX)


def tangent_line(C, P):
    g = list(C.gradient(P))
    if all(x.is_zero() for x in g):
        raise PreconditionError("the cubic is singular at the tangency point")
    return g


def class_neg(a):
    return DivisorClass(a.curve, -a.degree, neg_point(a.curve, a.rep))


def test_product_of_lines_is_singular():
    # l1 l2 l3 over F7; over F3, three lines through (1:0:0), whose eliminant
    # in the singular-point search is a nonzero constant
    for F, coeffs in ((PrimeField(7), [0, 0, 0, 0, 1, 0, 0, 0, 0, 0]),
                      (PrimeField(3), [0, 0, 0, 0, 0, 0, 1, 2, 2, 0])):
        rep = PlaneCubic(F, coeffs).smoothness()
        assert not rep.smooth
        # witness is a common zero of all partials: a coordinate vertex
        assert sum(1 for x in rep.witness if x.is_zero()) == 2


def test_anchor_curve_smooth_over_f7():
    assert _anchor(PrimeField(7)).smoothness().smooth


def test_line_at_infinity_section():
    C = _anchor(PrimeField(7))
    sec = line_section(C, (0, 0, 1))
    assert len(sec) == 1
    assert sec[0].multiplicity == 3
    assert sec[0].point == (C.field.zero, C.field.one, C.field.zero)


def test_tangent_section_has_double_point():
    F = PrimeField(13)
    C = _anchor(F)
    P = next(p for p in C.rational_points() if p != C.base_point)
    sec = line_section(C, tangent_line(C, P))
    at_p = [e for e in sec if e.field == F and e.point == P]
    assert at_p and at_p[0].multiplicity >= 2


def test_random_sections_vanish_on_curve():
    F = PrimeField(101)
    C = _anchor(F)
    rng = random.Random(5)
    for _ in range(12):
        cov = [F.random(rng) for _ in range(3)]
        if all(x.is_zero() for x in cov):
            continue
        sec = line_section(C, cov)
        assert sum(e.multiplicity for e in sec) == 3
        for e in sec:
            CK = C.map(e.embedding)
            assert CK.evaluate(e.point).is_zero()


def test_section_over_q_rational_case():
    C = PlaneCubic(QQ, ANCHOR, base_point=FLEX)
    # l1 = 0 meets the curve where l2^2 l3 = 0
    sec = line_section(C, (1, 0, 0))
    pts = sorted((tuple(x.v for x in e.point), e.multiplicity) for e in sec)
    assert pts == [((0, 0, 1), 2), ((0, 1, 0), 1)]


def test_identity_law():
    F = PrimeField(101)
    C = _anchor(F)
    rng = random.Random(11)
    pts = C.rational_points()
    for _ in range(100):
        P = pts[rng.randrange(len(pts))]
        assert add_points(C, P, C.base_point) == P


def test_associativity():
    F = PrimeField(101)
    C = _anchor(F)
    rng = random.Random(12)
    pts = C.rational_points()
    for _ in range(100):
        P, Q, R = (pts[rng.randrange(len(pts))] for _ in range(3))
        left = add_points(C, add_points(C, P, Q), R)
        right = add_points(C, P, add_points(C, Q, R))
        assert left == right


def test_neg_point_inverts():
    F = PrimeField(13)
    C = _anchor(F)
    for P in C.rational_points():
        assert add_points(C, P, neg_point(C, P)) == C.base_point


def test_line_sections_all_equivalent():
    F = PrimeField(101)
    C = _anchor(F)
    rng = random.Random(4)
    pts = C.rational_points()
    H = hyperplane_class(C)
    for _ in range(10):
        P, Q = pts[rng.randrange(len(pts))], pts[rng.randrange(len(pts))]
        if P == Q:
            continue
        R = third_point(C, P, Q)
        cls = class_of(C, [(P, 1), (Q, 1), (R, 1)])
        assert class_eq(cls, H)


def test_two_torsion_anchor_f13():
    F = PrimeField(13)
    C = _anchor(F)
    rep = two_torsion(C)
    assert rep.full_rational
    # scaled forms of (0:1:0), (0:0:1), (1:0:1), (12:0:1)
    reps = {tuple(x.v for x in c.rep) for c in rep.classes}
    assert reps == {(0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 0, 12)}


def test_two_torsion_contains_trivial_and_closes():
    F = PrimeField(13)
    C = _anchor(F)
    rep = two_torsion(C)
    assert any(class_eq(c, class_of(C, [])) for c in rep.classes)
    reps = {tuple(c.rep) for c in rep.classes}
    for a in rep.classes:
        for b in rep.classes:
            assert tuple(class_add(a, b).rep) in reps


def test_halvings_of_zero_are_torsion():
    F = PrimeField(13)
    C = _anchor(F)
    sols = halvings(C, class_of(C, []))
    assert set(sols) == {c.rep for c in two_torsion(C).classes}


def test_two_torsion_is_computed_once_per_anchored_curve(monkeypatch):
    F = PrimeField(13)
    C = _anchor(F)
    calls = []
    halve = cubic_module._halve
    monkeypatch.setattr(cubic_module, "_halve", lambda C, R: calls.append(R) or halve(C, R))
    rep = two_torsion(C)
    assert two_torsion(C) is rep and len(calls) == 1
    # each nonempty halving checks its count against the kept report
    P0 = C.rational_points()[3]
    for _ in range(3):
        assert len(halvings(C, class_of(C, [(P0, 2), (C.base_point, -2)]))) == 4
    assert len(calls) == 4
    # the classes depend on the base point, so another anchoring recomputes
    O2 = next(P for P in C.rational_points() if P != C.base_point)
    C2 = C.anchored(O2)
    rep2 = two_torsion(C2)
    assert rep2 is not rep and len(calls) == 5
    assert all(c.curve is C2 for c in rep2.classes)
    assert C._two_torsion is rep
    # the form, its partials and the point list do not depend on the base
    # point, so the anchored copy shares them
    assert C2.as_mpoly() is C.as_mpoly()
    assert C2.partials() is C.partials()
    assert C2.rational_points() == C.rational_points() and C2._points is C._points
    assert C2.base_point == O2 and C.base_point == tuple(map(F, FLEX))


def test_halvings_planted_and_coset_size():
    F = PrimeField(13)
    C = _anchor(F)
    pts = C.rational_points()
    rng = random.Random(8)
    for _ in range(10):
        P0 = pts[rng.randrange(len(pts))]
        Q = class_of(C, [(P0, 2), (C.base_point, -2)])
        sols = halvings(C, Q)
        assert P0 in sols
        assert len(sols) == 4
    # a class outside the doubling image has no solutions
    empties = 0
    for P in pts:
        Q = class_of(C, [(P, 1), (C.base_point, -1)])
        if not halvings(C, Q):
            empties += 1
    assert empties > 0


def _scan_halvings(C, R):
    return {P for P in C.rational_points() if add_points(C, P, P) == R}


def _anchor_over_f49():
    K, emb = extend_field(PrimeField(7), 2)
    return PlaneCubic(K, [emb(PrimeField(7)(c)) for c in ANCHOR], base_point=FLEX)


_HALVING_ANCHORS = pytest.mark.parametrize("make", [
    lambda: _anchor(PrimeField(3)),
    lambda: _anchor(PrimeField(5)),
    lambda: _anchor(PrimeField(7)),
    lambda: _anchor(PrimeField(13)),
    _anchor_over_f49,
], ids=["F3", "F5", "F7", "F13", "F7^2"])


@_HALVING_ANCHORS
def test_halvings_match_the_point_scan(make):
    C = make()
    pts = C.rational_points()
    rng = random.Random(2)
    sample = rng.sample(pts, min(len(pts), 8))
    targets = sample + [add_points(C, P, P) for P in sample]
    for R in targets:
        assert set(halvings(C, DivisorClass(C, 0, R))) == _scan_halvings(C, R)
    assert {c.rep for c in two_torsion(C).classes} == _scan_halvings(C, C.base_point)


@_HALVING_ANCHORS
def test_halvings_substitute_nothing(make, monkeypatch):
    """The halving quartic is read off the form's terms, not substituted."""
    C = make()

    def refuse(*args):
        raise AssertionError("substituted into a form")

    monkeypatch.setattr(MPoly, "substitute", refuse)
    assert len(two_torsion(C).classes) in (1, 2, 4)
    for P in C.rational_points()[:6]:
        assert P in halvings(C, class_of(C, [(P, 2), (C.base_point, -2)]))


def _scan_points(C):
    # the P^2 scan that points_by_lines replaced, kept as its oracle; C is a
    # PlaneCubic or any ternary MPoly
    return [tuple(r) for r in projective_reps(C.field, 3) if C.evaluate(r).is_zero()]


def _anchor_over_f9():
    K, emb = extend_field(PrimeField(3), 2)
    return PlaneCubic(K, [emb(PrimeField(3)(c)) for c in ANCHOR], base_point=FLEX)


def _ternary(field, coeffs, monomials):
    P = MPoly.zero(field, 3)
    for c, e in zip(coeffs, monomials):
        P = P + MPoly(field, 3, {e: field(c)})
    return P


_LINEAR = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_QUADRATIC = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))


def _with_line(F, line, quad):
    return PlaneCubic.from_mpoly(_ternary(F, line, _LINEAR) * _ternary(F, quad, _QUADRATIC))


@pytest.mark.parametrize("make", [
    lambda: _anchor(PrimeField(3)),
    lambda: _anchor(PrimeField(5)),
    lambda: _anchor(PrimeField(7)),
    lambda: _anchor(PrimeField(13)),
    _anchor_over_f49,
    _anchor_over_f9,
    # l2 = 3 l1 lies on the curve: C(1, 3, z) is the zero polynomial
    lambda: _with_line(PrimeField(7), (3, -1, 0), (1, 0, 2, 1, 0, 3)),
    # l1 = 0 lies on the curve: C(0, 1, z) vanishes and (0:0:1) is a point
    lambda: _with_line(PrimeField(5), (1, 0, 0), (0, 1, 1, 2, 0, 1)),
    # (0:0:1) on the curve, and off it
    lambda: PlaneCubic(PrimeField(11), [1, 0, 2, 0, 5, 0, 3, 0, 1, 0]),
    lambda: PlaneCubic(PrimeField(11), [1, 0, 2, 0, 5, 0, 3, 0, 1, 4]),
    # (l1 + l2 + 2 l3)^3 in characteristic 3: a triple line
    lambda: PlaneCubic(PrimeField(3), [1, 0, 0, 0, 0, 0, 1, 0, 0, 2]),
], ids=["F3", "F5", "F7", "F13", "F7^2", "F3^2", "zero-line", "line-l1",
        "with-001", "without-001", "triple-line"])
def test_rational_points_match_the_plane_scan(make):
    C = make()
    assert C.rational_points() == _scan_points(C)


def test_points_by_lines_on_degenerate_lines():
    F7 = PrimeField(7)
    pts = _with_line(F7, (3, -1, 0), (1, 0, 2, 1, 0, 3)).rational_points()
    assert all((F7(1), F7(3), z) in pts for z in F7.elements())
    pts = _with_line(PrimeField(5), (1, 0, 0), (0, 1, 1, 2, 0, 1)).rational_points()
    F5 = PrimeField(5)
    assert all((F5(0), F5(1), z) in pts for z in F5.elements())
    assert pts[-1] == (F5(0), F5(0), F5(1))
    # the triple line l1 + l2 + 2 l3 = 0 has q + 1 points, all singular
    F3 = PrimeField(3)
    C = PlaneCubic(F3, [1, 0, 0, 0, 0, 0, 1, 0, 0, 2])
    assert len(C.rational_points()) == 4
    rep = C.smoothness()
    assert not rep.smooth and rep.certificate == "vanishing-gradient"
    assert rep.witness == _scan_points(C)[0]


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.sampled_from([3, 5, 7, 11, 13, 49]),
    st.sampled_from([MONOMIALS, CONIC_MONOMIALS]),
    st.lists(st.integers(0, 48), min_size=10, max_size=10),
    st.lists(st.booleans(), min_size=10, max_size=10),
)
def test_rational_points_by_lines_property(q, monomials, coeffs, keep):
    # sparse draws reach zero line polynomials and the point (0:0:1); cubics
    # go through PlaneCubic, conics straight through points_by_lines
    F = F49 if q == 49 else PrimeField(q)
    cs = [F((c % 7, c // 7)) if q == 49 else F(c) for c in coeffs]
    cs = [c if k else F.zero for c, k in zip(cs, keep)][:len(monomials)]
    form = MPoly(F, 3, dict(zip(monomials, cs)))
    assume(not form.is_zero())
    if monomials is MONOMIALS:
        got = PlaneCubic(F, cs).rational_points()
    else:
        got = list(points_by_lines(form))
    assert got == _scan_points(form)


def test_two_torsion_anchor_over_q():
    C = PlaneCubic(QQ, ANCHOR, base_point=FLEX)
    rep = two_torsion(C)
    assert rep.full_rational
    reps = {tuple(x.v for x in c.rep) for c in rep.classes}
    assert reps == {(0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 0, -1)}


@settings(max_examples=25, deadline=None, database=None)
@given(
    st.sampled_from([3, 5, 7, 11, 13]),
    st.lists(st.integers(0, 12), min_size=9, max_size=9),
    st.randoms(use_true_random=False),
)
def test_group_law_on_random_smooth_cubics(p, coeffs, rng):
    # the l3^3 coefficient is 0, so (0:0:1) lies on the curve
    F = PrimeField(p)
    assume(any(c % p for c in coeffs))
    C = PlaneCubic(F, coeffs + [0], base_point=(0, 0, 1))
    assume(C.smoothness().smooth)
    pts = C.rational_points()
    for _ in range(4):
        P, Q, R = (rng.choice(pts) for _ in range(3))
        assert add_points(C, add_points(C, P, Q), R) == add_points(C, P, add_points(C, Q, R))
        target = class_of(C, [(P, 2), (C.base_point, -2)])
        sols = halvings(C, target)
        assert P in sols
        assert all(add_points(C, h, h) == target.rep for h in sols)
        assert set(sols) == _scan_halvings(C, target.rep)


def test_polar_contact_at_flex_of_anchor():
    F = PrimeField(13)
    C = _anchor(F)
    pc = polar_contact(C, FLEX)
    two = F(2)
    assert pc.conic == (F.zero, F.zero, F.zero, F.zero, two, F.zero)
    div = sorted(
        (tuple(x.v for x in e.point), e.multiplicity) for e in pc.divisor
    )
    assert ((0, 1, 0), 3) in div
    assert sum(m for _, m in div) == 6
    res = {}
    for e in pc.residual:
        key = tuple(x.v for x in e.point)
        res[key] = res.get(key, 0) + e.multiplicity
    torsion = {tuple(x.v for x in c.rep) for c in two_torsion(C).classes}
    assert res == {t: 1 for t in torsion}


def test_polar_residual_matches_halvings():
    F = PrimeField(13)
    C = _anchor(F)
    pts = C.rational_points()
    rng = random.Random(21)
    H = hyperplane_class(C)
    checked = 0
    for _ in range(20):
        k = pts[rng.randrange(len(pts))]
        pc = polar_contact(C, k)
        if any(e.field != F for e in pc.residual):
            continue
        target = class_add(
            class_add(H, class_neg(class_of(C, [(k, 1)]))),
            class_neg(class_of(C, [(C.base_point, 2)])),
        )
        sols = set(halvings(C, target))
        got = set()
        for e in pc.residual:
            got.add(e.point)
            dbl = class_of(C, [(e.point, 2), (C.base_point, -2)])
            assert class_eq(dbl, target)
        assert got <= sols
        checked += 1
    assert checked >= 5


def test_base_point_transport():
    F = PrimeField(13)
    C = _anchor(F)
    pts = C.rational_points()
    O2 = next(p for p in pts if p != FLEX)
    C2 = C.anchored(O2)
    rng = random.Random(3)
    for _ in range(50):
        P, Q = pts[rng.randrange(len(pts))], pts[rng.randrange(len(pts))]
        R = add_points(C, P, Q)
        R2 = add_points(C2, P, Q)
        moved = class_of(C2, [(R, 1), (FLEX, -1), (O2, 1)])
        assert moved.rep == R2


def test_divisor_degree_bookkeeping():
    F = PrimeField(13)
    C = _anchor(F)
    pts = C.rational_points()
    a = class_of(C, [(pts[1], 1), (pts[2], 1)])
    b = class_of(C, [(pts[3], -1)])
    assert class_add(a, b).degree == 1
    assert class_neg(a).degree == -2


def test_chord_line_through_points():
    F = PrimeField(13)
    C = _anchor(F)
    pts = C.rational_points()
    P, Q = pts[0], pts[4]
    cov = chord_line(P, Q)
    assert sum((c * x for c, x in zip(cov, P)), start=F.zero).is_zero()
    assert sum((c * x for c, x in zip(cov, Q)), start=F.zero).is_zero()


def test_base_point_must_lie_on_curve():
    F = PrimeField(7)
    with pytest.raises(PreconditionError):
        PlaneCubic(F, ANCHOR, base_point=(1, 1, 1))


def test_section_point_and_class_reprs_print_raw_values():
    F = PrimeField(7)
    K, emb = extend_field(F, 2)
    ext_point = SectionPoint((K(1), K([0, 2]), K([5, 0])), 1, K, emb)
    assert repr(ext_point) == "SectionPoint(((1,0):(0,2):(5,0)) x1)"
    base_point = SectionPoint((F(1), F(3), F(0)), 2, F, identity_embedding(F))
    assert repr(base_point) == "SectionPoint((1:3:0) x2)"
    C = _anchor(F)
    assert repr(hyperplane_class(C)) == "DivisorClass(deg 3, (0:1:0))"
    assert repr(hyperplane_class(C.map(emb))) == "DivisorClass(deg 3, ((0,0):(1,0):(0,0)))"
    pc = polar_contact(C, [1, 0, 6])
    entries = pc.divisor + pc.residual
    assert any(e.field != F for e in entries)
    for e in entries:
        assert "F7" not in repr(e)
