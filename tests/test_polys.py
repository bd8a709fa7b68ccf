import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewloci import fields, polys
from skewloci.errors import InconsistencyError, PreconditionError, UnsupportedFieldError
from skewloci.fields import (
    QQ,
    Poly,
    PrimeField,
    compose_embeddings,
    extend_field,
    factor,
    identity_embedding,
    poly_gcd,
    roots,
)
from skewloci.linalg import det
from skewloci.polys import (
    MAX_ENUM_POINTS,
    MPoly,
    _enumeration_search,
    binary_form_to_poly,
    common_projective_zero,
    resultant_wrt,
    ring_det,
)
from skewloci.projective import projective_reps


def _vars(field, n=3):
    return [MPoly.variable(field, n, i) for i in range(n)]


def test_mpoly_arithmetic_identity():
    x, y, z = _vars(QQ)
    left = (x + y) * (x + y)
    right = x * x + 2 * (x * y) + y * y
    assert left == right
    assert (left - right).is_zero()


def test_mpoly_evaluate_matches_substitute():
    F = PrimeField(11)
    x, y, z = _vars(F)
    g = x * x * y + 3 * (y * z * z) + z * z * z
    rng = random.Random(5)
    subs = [
        x * F.random(rng) + y * F.random(rng) + z * F.random(rng) for _ in range(3)
    ]
    h = g.substitute(subs)
    for _ in range(10):
        p = [F.random(rng) for _ in range(3)]
        q = [s.evaluate(p) for s in subs]
        assert h.evaluate(p) == g.evaluate(q)


def test_mpoly_partial_derivative():
    x, y, z = _vars(QQ)
    g = x * x * x + x * (y * y)
    gx = g.partial(0)
    assert gx == 3 * (x * x) + y * y
    assert g.partial(2).is_zero()


def test_mpoly_homogeneous_detection():
    x, y, z = _vars(QQ)
    assert (x * y + z * z).is_homogeneous()
    assert not (x + z * z).is_homogeneous()


def test_ring_det_matches_scalar_det():
    F = PrimeField(13)
    rng = random.Random(21)
    for n in (2, 3, 4):
        rows_scalar = [[F.random(rng) for _ in range(n)] for _ in range(n)]
        entries = [
            [MPoly.constant(F, 3, v) for v in row] for row in rows_scalar
        ]
        d = ring_det(entries, MPoly.zero(F, 3), MPoly.constant(F, 3, 1))
        expected = det(F, rows_scalar)
        assert d.coeff((0, 0, 0)) == expected


def test_ring_det_polynomial_entries_via_evaluation():
    F = PrimeField(17)
    x, y, z = _vars(F)
    rng = random.Random(2)
    entries = [
        [x * F.random(rng) + y * F.random(rng) + z * F.random(rng) for _ in range(3)]
        for _ in range(3)
    ]
    d = ring_det(entries, MPoly.zero(F, 3), MPoly.constant(F, 3, 1))
    for _ in range(10):
        p = [F.random(rng) for _ in range(3)]
        num = det(F, [[e.evaluate(p) for e in row] for row in entries])
        assert d.evaluate(p) == num


def test_resultant_of_linear_pair():
    x, y, z = _vars(QQ)
    R = resultant_wrt(z - x, z - y, 2)
    assert R == x - y


def test_resultant_detects_common_root():
    F = PrimeField(7)
    x, y, z = _vars(F)
    # (z - 2x)(z - 3x) and (z - 2x)(z - y) share the root z = 2x
    f = (z - 2 * x) * (z - 3 * x)
    g = (z - 2 * x) * (z - y)
    R = resultant_wrt(f, g, 2)
    # R vanishes on the locus where the common z-root exists: everywhere
    # the shared factor is supported, i.e. identically? no: only for (x, y)
    # making the two polynomials share a root; the factor z - 2x is shared
    # for every (x, y), so R is identically zero
    assert R.is_zero()
    h = (z - 2 * x) * (z - 3 * x)
    k = (z - y) * (z - 5 * x)
    R2 = resultant_wrt(h, k, 2)
    assert not R2.is_zero()
    # R2 vanishes exactly when {2x, 3x} meets {y, 5x}: y = 2x or y = 3x
    for xv in range(1, 7):
        for yv in range(7):
            val = R2.evaluate([F(xv), F(yv), F.zero])
            share = yv % 7 in ((2 * xv) % 7, (3 * xv) % 7)
            assert val.is_zero() == share


def test_binary_form_root_book_keeping():
    F = PrimeField(7)
    x, y, z = _vars(F)
    B = x * x * y  # roots: (1:0) once, (0:1) twice
    b, drop = binary_form_to_poly(B, 0, 1)
    assert drop == 2
    assert b.degree == 1
    assert (-b.c[0] / b.c[1]).is_zero()


def test_common_zero_found_with_witness():
    F = PrimeField(7)
    x, y, z = _vars(F)
    p = [F(1), F(2), F(3)]
    rng = random.Random(9)
    forms = []
    for _ in range(3):
        q = MPoly.zero(F, 3)
        for a, b in ((2, 0), (1, 1), (0, 2)):
            mono = (x ** a) * (y ** b) * (z ** (2 - a - b))
            q = q + mono * F.random(rng)
        # force vanishing at p by correcting the x^2 coefficient
        val = q.evaluate(p)
        q = q - (x * x) * (val * (p[0] * p[0]).inverse())
        assert q.evaluate(p).is_zero()
        forms.append(q)
    res = common_projective_zero(F, forms, seed=1)
    assert res.found
    assert res.point is not None
    emb = res.embedding
    lifted = [f.map_coeffs(emb) for f in forms]
    for f in lifted:
        assert f.evaluate(res.point).is_zero()


def test_common_zero_absent():
    F = PrimeField(7)
    x, y, z = _vars(F)
    res = common_projective_zero(F, [x * x, y * y, z * z], seed=0)
    assert not res.found
    assert res.point is None


def test_common_zero_requires_quadratic_extension():
    F = PrimeField(7)
    x, y, z = _vars(F)
    # zeros need i with i^2 = -1, which lives in the quadratic extension
    forms = [x * x + y * y, x * x - z * z]
    res = common_projective_zero(F, forms, seed=0)
    assert res.found
    assert res.point_field.order == 49
    lifted = [f.map_coeffs(res.embedding) for f in forms]
    for f in lifted:
        assert f.evaluate(res.point).is_zero()


def test_common_zero_shared_component_enumeration():
    F = PrimeField(5)
    x, y, z = _vars(F)
    res = common_projective_zero(F, [x * y, x * z], seed=0)
    assert res.found
    assert res.certificate == "enumeration-shared-component"
    for f in [x * y, x * z]:
        lifted = f.map_coeffs(res.embedding)
        assert lifted.evaluate(res.point).is_zero()


def _plane_scan_search(field, forms):
    """The enumeration before points_by_lines: every point of P^2 per tower level."""
    for d in (1, 2, 3):
        q = field.order**d
        if q * q + q + 1 > MAX_ENUM_POINTS:
            break
        K, emb = (field, identity_embedding(field)) if d == 1 else extend_field(field, d, seed=0)
        lifted = [f.map_coeffs(emb) for f in forms]
        for p in projective_reps(K, 3):
            if all(f.evaluate(p).is_zero() for f in lifted):
                return K, list(p)
    return None


def test_enumeration_search_matches_the_plane_scan():
    rng = random.Random(0)
    levels = set()
    for _ in range(24):
        F = PrimeField(rng.choice((3, 3, 5)))
        forms = []
        for _ in range(rng.choice((2, 2, 3))):
            d = rng.randint(1, 3)
            forms.append(MPoly(F, 3, {
                (a, b, d - a - b): rng.randrange(F.order)
                for a in range(d + 1) for b in range(d + 1 - a)
            }))
        forms = [f for f in forms if f.degree() > 0]
        if not forms:
            continue
        res = _enumeration_search(F, forms)
        expect = _plane_scan_search(F, forms)
        assert ((res.point_field, res.point) if res.found else None) == expect
        levels.add(expect[0].degree if expect else None)
    # rational hits, climbs to F_{q^2} and F_{q^3}, and exhausted towers
    assert levels == {1, 2, 3, None}


def test_common_zero_rational_witness_over_q():
    x, y, z = _vars(QQ)
    forms = [x * x - y * z, x * y - z * z]  # both vanish at (1:1:1)
    res = common_projective_zero(QQ, forms, seed=0)
    assert res.found
    for f in forms:
        assert f.evaluate(res.point).is_zero()


def test_common_zero_over_q_irrational_raises():
    x, y, z = _vars(QQ)
    forms = [x * x + y * y, x * x - 2 * (z * z)]
    with pytest.raises(UnsupportedFieldError):
        common_projective_zero(QQ, forms, seed=0)


def test_common_zero_deterministic():
    F = PrimeField(7)
    x, y, z = _vars(F)
    forms = [x * x + y * y, x * x - z * z]
    a = common_projective_zero(F, forms, seed=5)
    b = common_projective_zero(F, forms, seed=5)
    assert [p.v for p in a.point] == [p.v for p in b.point]


def _every_root_zero(forms_H, f, seed):
    """The decision for one irreducible factor f before one root per orbit
    and the residue field: every root of f, found by splitting f completely
    over its field of definition, is tried in sort_key order with every
    slice built first."""
    field = f.field
    if f.degree == 1:
        cands = [(field.one, -f.c[0] / f.c[1], identity_embedding(field))]
    else:
        _, emb = extend_field(field, f.degree, seed=seed)
        cands = [(emb(field.one), r, emb) for r, _m in roots(emb.map_poly(f), seed=seed).pairs]
    for x0, y0, emb in cands:
        slices = [polys.specialize_last(H, x0, y0, emb) for H in forms_H]
        nonzero = [s for s in slices if not s.is_zero()]
        if not nonzero:
            return True, [x0, y0, x0.field.zero], emb
        g = nonzero[0]
        for s in nonzero[1:]:
            g = poly_gcd(g, s)
        if g.degree < 1:
            continue
        z0, leg = polys._root_with_leg(g, seed)
        if leg is None:
            return True, [x0, y0, z0], emb
        return True, [leg(x0), leg(y0), z0], compose_embeddings(emb, leg)
    return False, None, None


def _search_outcome(res):
    emb = res.embedding
    return (
        res.found, res.certificate,
        None if res.point is None else [x.v for x in res.point],
        res.point_field,
        None if emb is None else (emb.src, emb.dst, emb.gen_image),
    )


TERNARY_BASES = tuple(PrimeField(p) for p in (3, 5, 7, 11, 13)) + tuple(
    extend_field(PrimeField(p), 2)[0] for p in (3, 5)
)


@st.composite
def _ternary_systems(draw):
    F = draw(st.sampled_from(TERNARY_BASES))
    p = F.char
    forms = []
    for _ in range(draw(st.integers(2, 3))):
        d = draw(st.integers(1, 3))
        monos = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
        coeffs = draw(st.lists(st.integers(0, F.order - 1), min_size=len(monos),
                               max_size=len(monos)))
        # an index k < q is the element with base-p digits of k as coefficients
        coeffs = [F(tuple(k // p**i % p for i in range(F.degree))) if F.degree > 1 else F(k)
                  for k in coeffs]
        forms.append(MPoly(F, 3, dict(zip(monos, coeffs))))
    return F, forms, draw(st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(_ternary_systems())
def test_one_root_per_orbit_matches_every_root(system):
    # Frobenius carries a common zero over one root to each conjugate, so the
    # orbit's first root decides exactly as the whole orbit did, and the
    # residue field F_p[x]/(f) decides as that root does
    F, forms, seed = system
    try:
        fast = _search_outcome(common_projective_zero(F, forms, seed=seed))
    except (PreconditionError, InconsistencyError) as e:  # refusals must agree too
        fast = type(e)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polys, "_factor_zero", _every_root_zero)
        try:
            slow = _search_outcome(common_projective_zero(F, forms, seed=seed))
        except (PreconditionError, InconsistencyError) as e:
            slow = type(e)
    assert fast == slow


def _spy(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(module, name, spy)
    return calls


def test_general_net_type_builds_no_root_of_the_eliminant(monkeypatch):
    # every factor of the eliminant is decided in its residue field, and on a
    # general net none holds a common zero, so no root is ever built
    from skewloci import selftest
    from skewloci.nets import net_type

    net = selftest.seeded_net(PrimeField(101), 1)
    eliminants = _spy(monkeypatch, polys, "binary_form_to_poly")
    decided = _spy(monkeypatch, polys, "_factor_zero")
    rooted = _spy(monkeypatch, polys, "_orbit_root")
    orbits = _spy(monkeypatch, polys, "frobenius_orbit")
    orbits_in_fields = _spy(monkeypatch, fields, "frobenius_orbit")
    assert net_type(net, seed=0).kind == "general"
    [((_, _, _), (b, _drop))] = eliminants
    degrees = [f.degree for f, _ in factor(b, seed=0)]
    assert max(degrees) >= 2
    assert len(decided) == len(degrees)
    assert not rooted and not orbits and not orbits_in_fields


def test_roots_and_the_resultant_route_share_the_orbit_helper(monkeypatch):
    in_fields = _spy(monkeypatch, fields, "frobenius_orbit")
    in_polys = _spy(monkeypatch, polys, "frobenius_orbit")
    F = PrimeField(7)
    rr = roots(Poly(F, [1, 0, 1]), allow_extension=True)  # x^2 + 1
    assert len(rr.pairs) == 2 and len(in_fields) == 1
    x, y, z = _vars(F)
    res = common_projective_zero(F, [x * x + y * y, x * x - z * z], seed=0)
    assert res.found and res.point_field.order == 49
    assert in_polys
