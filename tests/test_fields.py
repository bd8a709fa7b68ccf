import copy
import json
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewloci import fields
from skewloci.cubic import PlaneCubic
from skewloci.errors import PreconditionError, UnsupportedFieldError
from skewloci.fields import (
    QQ,
    ExtField,
    Poly,
    PRIME_BOUND,
    PrimeField,
    _deflate,
    _int_divisors,
    _is_probable_prime,
    _rational_roots,
    extend_field,
    SCAN_LIMIT,
    _scan_roots,
    factor,
    field_from_wire,
    from_wire,
    identity_embedding,
    is_irreducible,
    poly_gcd,
    roots,
    to_wire,
)
from skewloci.complexes import GenericMorphism, LinearComplex
from skewloci.linalg import (
    det, kernel, mat_mul, mat_vec, rank, rref, skew_from_pairs, solve,
)
from skewloci.nets import x_membership
from skewloci.polys import MPoly, specialize_last
from skewloci.projective import Subspace, is_decomposable, pluecker_relations


def test_prime_field_basic_arithmetic():
    F = PrimeField(7)
    a = F(3)
    b = F(5)
    assert (a + b).v == 1
    assert (a * b).v == 1
    assert (a - b).v == 5
    assert (a / b).v == (3 * pow(5, 5, 7)) % 7
    assert (-a).v == 4
    assert (a ** 6).v == 1


def test_char_two_rejected():
    with pytest.raises(UnsupportedFieldError):
        PrimeField(2)
    with pytest.raises(PreconditionError):
        PrimeField(6)


def test_no_cross_field_arithmetic():
    a = PrimeField(5)(2)
    b = PrimeField(7)(2)
    with pytest.raises(PreconditionError):
        _ = a + b
    with pytest.raises(PreconditionError):
        _ = a * QQ(2)


def test_int_coercion_into_field_ops():
    F = PrimeField(11)
    assert (F(3) + 10).v == 2
    assert (1 / F(3)).v == 4
    assert F(3) == 14


def test_rationals_exactness():
    a = QQ(Fraction(1, 3))
    b = QQ(Fraction(1, 6))
    assert (a + b).v == Fraction(1, 2)
    assert (a / b).v == 2


def test_ext_field_generator_satisfies_modulus():
    # x^2 + 1 is irreducible over F_7
    F49 = ExtField(7, (1, 0, 1))
    i = F49.gen()
    assert (i * i).v == F49(-1).v
    assert F49.order == 49


def test_ext_field_inverse_all_nonzero():
    F = ExtField(5, (2, 0, 1))  # x^2 + 2 over F_5
    for x in F.elements():
        if x.is_zero():
            continue
        assert (x * x.inverse()).v == F.one.v


def test_ext_field_multiplicative_order_divides_group_order():
    F343, _ = extend_field(PrimeField(7), 3)
    assert F343.order == 343
    g = F343.gen()
    assert (g ** 342).v == F343.one.v
    # the generator is a root of an irreducible cubic, so it lies in no
    # proper subfield and its order does not divide 7 - 1 or 48
    assert (g ** 6).v != F343.one.v


def test_poly_divmod_roundtrip():
    F = PrimeField(13)
    rng = random.Random(41)
    for _ in range(25):
        f = Poly(F, [F.random(rng) for _ in range(rng.randint(1, 8))])
        g = Poly(F, [F.random(rng) for _ in range(rng.randint(1, 5))])
        if g.is_zero():
            continue
        q, r = divmod(f, g)
        assert (q * g + r).c == f.c
        assert r.degree < g.degree


def test_roots_cubic_of_unity_mod_7():
    F = PrimeField(7)
    f = Poly(F, [-1, 0, 0, 1])  # x^3 - 1
    rr = roots(f)
    assert [(r.v, m) for r, m in rr.pairs] == [(1, 1), (2, 1), (4, 1)]


def test_roots_with_multiplicity_over_q():
    f = Poly(QQ, [1, -2, 1])  # (x - 1)^2
    rr = roots(f)
    assert len(rr.pairs) == 1
    r, m = rr.pairs[0]
    assert r.v == 1 and m == 2


def test_rational_roots_with_denominators():
    # (2x - 3)(x + 5) = 2x^2 + 7x - 15
    f = Poly(QQ, [-15, 7, 2])
    rr = roots(f)
    got = sorted((r.v for r, _ in rr.pairs))
    assert got == [Fraction(-5), Fraction(3, 2)]


def test_rational_roots_refuse_unproven_large_cofactors():
    # a * b = PRIME_BOUND passes Miller-Rabin on bases 2..37 but is composite
    a, b = 399165290221, 798330580441
    assert a * b == PRIME_BOUND
    with pytest.raises(UnsupportedFieldError):
        roots(Poly(QQ, [a * b, -(a + b), 1]))


def test_allow_extension_over_q_is_an_error():
    f = Poly(QQ, [1, 0, 1])
    with pytest.raises(UnsupportedFieldError):
        roots(f, allow_extension=True)


def test_roots_in_quadratic_extension():
    F = PrimeField(7)
    f = Poly(F, [1, 0, 1])  # x^2 + 1, irreducible mod 7
    assert roots(f).pairs == []
    rr = roots(f, allow_extension=True)
    assert rr.splitting is not None
    ext, emb = rr.splitting
    assert ext.order == 49
    assert len(rr.pairs) == 2
    for r, m in rr.pairs:
        assert m == 1
        assert (r * r + ext.one).is_zero()


def test_splitting_field_is_single_lcm_extension():
    F = PrimeField(13)
    # 2 is neither a square nor a cube mod 13, so both factors lack roots
    f = Poly(F, [-2, 0, 1]) * Poly(F, [-2, 0, 0, 1])
    assert roots(Poly(F, [-2, 0, 1])).pairs == []
    assert roots(Poly(F, [-2, 0, 0, 1])).pairs == []
    with pytest.raises(PreconditionError):
        roots(f, allow_extension=True)  # degree 5 exceeds the supported cap
    g = Poly(F, [-2, 0, 1])
    rr = roots(g, allow_extension=True)
    assert rr.splitting[0].degree == 2
    assert len(rr.pairs) == 2


def test_roots_deterministic_across_seeds_large_field():
    # order 101^2 = 10201 > scan limit forces the randomized path
    F, _ = extend_field(PrimeField(101), 2)
    assert F.order > 10_000
    rng = random.Random(7)
    xs = [F.random(rng) for _ in range(4)]
    f = Poly(F, [1])
    for x in xs:
        f = f * Poly(F, [-x, F.one])
    a = roots(f, seed=3)
    b = roots(f, seed=99)
    assert [(r.v, m) for r, m in a.pairs] == [(r.v, m) for r, m in b.pairs]
    assert sorted(r.v for r, _ in a.pairs) == sorted(x.v for x in set(xs))


def test_factor_reassembles_product():
    F = PrimeField(13)
    rng = random.Random(5)
    for _ in range(15):
        f = Poly(F, [F.random(rng) for _ in range(rng.randint(2, 9))])
        if f.degree < 1:
            continue
        facs = factor(f, seed=11)
        prod = Poly(F, [f.lead()])
        for g, m in facs:
            for _ in range(m):
                prod = prod * g
        assert prod.c == f.c
        for g, _ in facs:
            assert is_irreducible(g)


def test_squarefree_multiplicities():
    F = PrimeField(5)
    x = Poly.x(F)
    one = Poly(F, [1])
    f = (x - one) * (x - one) * (x - one) * (x + one) * (x + one) * x
    rr = roots(f)
    assert [(r.v, m) for r, m in rr.pairs] == [(0, 1), (1, 3), (4, 2)]


def test_pth_power_squarefree_handling():
    # (x^5 - x)^5 over F_5 has zero derivative at the top level
    F = PrimeField(5)
    inner = Poly(F, [0, -1, 0, 0, 0, 1])
    f = Poly(F, [1])
    for _ in range(5):
        f = f * inner
    rr = roots(f)
    assert [(r.v, m) for r, m in rr.pairs] == [(v, 5) for v in range(5)]


def test_gcd_matches_common_roots():
    F = PrimeField(17)
    x = Poly.x(F)
    f = (x - Poly(F, [3])) * (x - Poly(F, [5]))
    g = (x - Poly(F, [3])) * (x - Poly(F, [9]))
    h = poly_gcd(f, g)
    assert h.degree == 1
    assert [(r.v, m) for r, m in roots(h).pairs] == [(3, 1)]


def test_extension_tower_uses_prime_presentation():
    F49, emb49 = extend_field(PrimeField(7), 2)
    ext, emb = extend_field(F49, 2)
    assert ext.char == 7 and ext.degree == 4
    # the embedding must respect arithmetic
    rng = random.Random(2)
    for _ in range(10):
        a, b = F49.random(rng), F49.random(rng)
        assert emb(a * b) == emb(a) * emb(b)
        assert emb(a + b) == emb(a) + emb(b)
    # generator image satisfies the base modulus
    img = emb(F49.gen())
    base_mod = Poly(ext, [int(c) for c in F49.modulus])
    assert base_mod(img).is_zero()


def test_embedding_rejects_foreign_elements():
    F49, emb = extend_field(PrimeField(7), 2)
    with pytest.raises(PreconditionError):
        emb(PrimeField(5)(1))


def test_field_json_roundtrip():
    for field in (QQ, PrimeField(7), PrimeField(2**61 - 1)):
        assert field_from_wire(field.short()) == field
    assert field_from_wire("QQ") == QQ
    x = QQ(Fraction(-3, 4))
    assert to_wire(x) == "-3/4"
    assert from_wire(QQ, to_wire(x)) == x
    F = ExtField(5, (2, 0, 1))
    y = F((3, 4))
    assert to_wire(y) == [3, 4]
    assert from_wire(F, to_wire(y)) == y
    F7 = PrimeField(7)
    assert from_wire(F7, "3/4") == F7(3) / F7(4)
    assert from_wire(F7, "-5") == F7(2)
    # "a/b" is reduced to lowest terms before p is checked against b
    assert from_wire(F7, "14/7") == F7(2)


def test_element_json_rejects_malformed():
    F7 = PrimeField(7)
    for bad in ("1/7", "3/14", "x", "1/0", "", True, 1.5, None, [1, 2]):
        with pytest.raises(PreconditionError):
            from_wire(F7, bad)
    for bad in ([1, "2"], [True], "1/2"):
        with pytest.raises(PreconditionError):
            from_wire(ExtField(5, (2, 0, 1)), bad)
    with pytest.raises(PreconditionError):
        from_wire(QQ, [1])
    for name in ("F7^2", "F6", "F1", "F", "F-7", "R", f"F{PRIME_BOUND}"):
        with pytest.raises(PreconditionError):
            field_from_wire(name)
    with pytest.raises(UnsupportedFieldError):
        field_from_wire("F2")


def test_prime_fields_stop_at_the_miller_rabin_bound():
    # PRIME_BOUND is composite, yet it passes the strong test for bases 2..37
    assert PRIME_BOUND == 399_165_290_221 * 798_330_580_441
    assert _is_probable_prime(PRIME_BOUND)
    with pytest.raises(PreconditionError, match="limited"):
        PrimeField(PRIME_BOUND)
    for p in (3, 101, 2**61 - 1, 2**64 - 59):
        assert PrimeField(p).char == p
    for n in (9, 561, 3215031751, 2**61 + 1):
        with pytest.raises(PreconditionError, match="not prime"):
            PrimeField(n)


_WIRE_FIELDS = (
    QQ, PrimeField(7), PrimeField(2**61 - 1), ExtField(5, (2, 0, 1)), ExtField(3, (1, 2, 0, 1)),
)


@st.composite
def _field_elements(draw):
    field = draw(st.sampled_from(_WIRE_FIELDS))
    ints = st.integers(-(10**30), 10**30)
    if field is QQ:
        value = Fraction(draw(ints), draw(st.integers(1, 10**30)))
    elif field.degree == 1:
        value = draw(ints)
    else:
        value = draw(st.lists(ints, min_size=field.degree, max_size=field.degree))
    return field(value)


@settings(max_examples=300, deadline=None, database=None)
@given(_field_elements())
def test_wire_roundtrip_property(x):
    assert from_wire(x.field, to_wire(x)) == x
    assert from_wire(x.field, json.loads(json.dumps(to_wire(x)))) == x


_AXIOM_FIELDS = (
    PrimeField(7), PrimeField(2**61 - 1), extend_field(PrimeField(5), 2)[0],
    extend_field(PrimeField(3), 3)[0], QQ,
)


def _draw_element(draw, field):
    ints = st.integers(-(10**12), 10**12)
    if field is QQ:
        return field(Fraction(draw(ints), draw(st.integers(1, 10**12))))
    if field.degree == 1:
        return field(draw(ints))
    return field(draw(st.lists(ints, min_size=field.degree, max_size=field.degree)))


@st.composite
def _axiom_case(draw):
    i = draw(st.integers(0, len(_AXIOM_FIELDS) - 1))
    field = _AXIOM_FIELDS[i]
    other = _AXIOM_FIELDS[(i + draw(st.integers(1, len(_AXIOM_FIELDS) - 1))) % len(_AXIOM_FIELDS)]
    x, y, z = (_draw_element(draw, field) for _ in range(3))
    return x, y, z, _draw_element(draw, other)


@settings(max_examples=300, deadline=None, database=None)
@given(_axiom_case())
def test_field_axioms_property(case):
    x, y, z, foreign = case
    F = x.field
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x - x == F.zero
    if not x.is_zero():
        assert x * x.inverse() == F.one
        if F.order is not None:
            assert x ** (F.order - 1) == F.one
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(PreconditionError):
            op(x, foreign)


def test_prime_fields_are_interned():
    assert PrimeField(7) is PrimeField(7)
    assert PrimeField(2**61 - 1) is PrimeField(2**61 - 1)
    assert field_from_wire("F101") is PrimeField(101)
    assert PrimeField(7) is not PrimeField(11)
    # an extension's base is the interned prime field
    assert ExtField(5, (2, 0, 1)).base is PrimeField(5)
    # the table is keyed by the integer p: 7.0 is refused, not interned
    with pytest.raises(TypeError):
        PrimeField(7.0)
    assert type(PrimeField(7).char) is int
    # copies and unpickled fields are the interned field too
    F = PrimeField(13)
    assert copy.deepcopy(F) is F and pickle.loads(pickle.dumps(F)) is F
    x = pickle.loads(pickle.dumps(F(5)))
    assert x.field is F and x == F(5)


@pytest.mark.parametrize("make", [
    lambda: PrimeField(7),
    lambda: extend_field(PrimeField(7), 2)[0],
    lambda: extend_field(PrimeField(3), 3)[0],
    lambda: QQ,
], ids=["F7", "F7^2", "F3^3", "Q"])
def test_zero_and_one_are_built_once(make):
    F = make()
    assert F.zero is F.zero
    assert F.one is F.one
    assert F.zero == F(0) and F.zero.is_zero()
    assert F.one == F(1) and not F.one.is_zero()
    x = F(2)
    assert x + F.zero == x and x * F.one == x


def test_cross_field_mixing_still_raises():
    F7, F11 = PrimeField(7), PrimeField(11)
    F49, emb = extend_field(F7, 2)
    for a, b in ((F7(2), F11(2)), (F7(2), F49(2)), (F49.gen(), F7(3)), (F7(1), QQ(1))):
        for op in (lambda u, v: u + v, lambda u, v: u - v,
                   lambda u, v: u * v, lambda u, v: u / v):
            with pytest.raises(PreconditionError):
                op(a, b)
            with pytest.raises(PreconditionError):
                op(b, a)
    assert F7(2) != F11(2)
    assert F7(2) != F49(2)
    # the embedding is the way in
    assert emb(F7(2)) + F49(2) == F49(4)
    # the raw-value kernels refuse what element arithmetic refuses: an F7
    # entry in an F49 matrix, polynomial or point, and rows over F7 handed
    # to a routine told to work over F11
    mixed = [[F49.gen(), F49(1)], [F7(3), F49(2)]]
    for call in (lambda: rref(F49, mixed), lambda: kernel(F49, mixed),
                 lambda: rank(F49, mixed), lambda: det(F49, mixed),
                 lambda: solve(F49, mixed, [F49(1), F49(1)]),
                 lambda: mat_vec(mixed, [F49(1), F49(1)]),
                 lambda: mat_mul([[F49(1), F49(1)]], mixed),
                 lambda: rank(F11, [[F7(1), F7(2)], [F7(3), F7(4)]]),
                 lambda: kernel(F11, [[F7(1), F7(2)]])):
        with pytest.raises(PreconditionError):
            call()
    f = Poly(F49, [F49.gen(), 1, 1])
    g = Poly(F7, [1, 2])
    C = PlaneCubic(F49, [1, 0, 0, 0, 0, 0, 1, 0, 0, 1])
    H = C.as_mpoly()
    ident = identity_embedding(F49)
    for call in (lambda: f(F7(3)), lambda: g(F49.gen()), lambda: f * g, lambda: g * f,
                 lambda: divmod(f, g), lambda: divmod(g * g, f), lambda: f * F7(2),
                 lambda: C.evaluate([F7(1), F49(1), F49(0)]),
                 lambda: C.gradient([F49(1), F49(1), F11(0)]),
                 lambda: PlaneCubic(F49, [F7(1)] + [0] * 9),
                 # the polynomial constructors refuse an F7 coefficient that
                 # F49(...) would quietly embed
                 lambda: MPoly(F49, 3, {(1, 0, 0): F7(1)}),
                 lambda: Poly(F49, [F7(1)]),
                 lambda: H.evaluate([F7(1), F7(0), F7(0)]),
                 lambda: specialize_last(H, F7(1), F7(0), ident),
                 lambda: specialize_last(H, F49(1), F7(0), ident),
                 lambda: specialize_last(H, F7(1), F7(0), identity_embedding(F7))):
        with pytest.raises(PreconditionError):
            call()
    # every constructor coerces by one rule: F49(...) refuses an F7 element,
    # so the embedding is the only way up
    e01 = [F7(1)] + [F7(0)] * 14
    skew7 = skew_from_pairs(F7, e01)
    phi = GenericMorphism(F49, [skew_from_pairs(F49, [1] + [0] * 14)])
    for call in (lambda: F49(F7(1)),
                 lambda: Subspace(F49, 2, [[F7(1), F7(2)]]),
                 lambda: skew_from_pairs(F49, e01),
                 lambda: LinearComplex(F49, skew7),
                 lambda: is_decomposable(F49, e01),
                 lambda: pluecker_relations(F49, e01),
                 lambda: x_membership(phi, [F7(1)] + [F7(0)] * 5)):
        with pytest.raises(PreconditionError):
            call()
    assert F49(emb(F7(3))) == F49(3)
    assert is_decomposable(F49, [emb(x) for x in e01])
    # ints and Fractions still coerce into the constructors
    assert MPoly(F49, 3, {(1, 0, 0): 8}) == MPoly(F49, 3, {(1, 0, 0): F49(1)})
    assert Poly(F7, [Fraction(1, 2), 7]) == Poly(F7, [F7(4)])
    assert Poly(QQ, [Fraction(1, 2)]).c == (QQ(Fraction(1, 2)),)
    # within one field the same calls answer, with ints read as field elements
    assert rank(F49, [[F49.gen(), 1], [F49(3), F49(2)]]) == 2
    assert f(F49(0)) == F49.gen() and g(2) == F7(5)


def test_ext_fields_with_one_modulus_compare_and_mix_as_equal():
    K1, K2 = ExtField(7, (1, 0, 1)), ExtField(7, (1, 0, 1))
    assert K1 is not K2
    assert K1 == K2 and hash(K1) == hash(K2)
    a, b = K1((1, 2)), K2((1, 2))
    assert a == b and hash(a) == hash(b)
    assert (a + b).v == (2, 4)
    assert (a * b) == K1((1, 2)) * K1((1, 2))
    assert K1(b) is b
    assert K1.zero == K2.zero and K1.one == K2.one


@pytest.mark.parametrize("make", [
    lambda: PrimeField(251),
    lambda: PrimeField(257),
    lambda: extend_field(PrimeField(7), 3)[0],
    lambda: extend_field(PrimeField(23), 2)[0],
], ids=["F251", "F257", "F7^3", "F23^2"])
def test_roots_match_the_scan_on_both_sides_of_the_limit(make):
    # F251 scans and the other three factor; both paths must give the
    # scan's roots, multiplicities and order
    F = make()
    assert (F.order <= SCAN_LIMIT) == (F.order == 251)
    rng = random.Random(F.order)
    for d in (2, 3, 4):
        for _ in range(4):
            f = Poly(F, [F.random(rng) for _ in range(d)] + [1])
            # a planted double root times a random monic cofactor
            r = F.random(rng)
            g = Poly(F, [r * r, -2 * r, 1]) * Poly(F, [F.random(rng) for _ in range(d - 2)] + [1])
            for h in (f, g):
                assert roots(h).pairs == _scan_roots(h)


def _rational_roots_by_fractions(f):
    """The Fraction-scan rational root test: the oracle of _rational_roots."""
    den = 1
    for c in f.c:
        den = den * c.v.denominator // math.gcd(den, c.v.denominator)
    ints = [int(c.v * den) for c in f.c]
    out = []
    g = f
    if ints and ints[0] == 0:
        zero = f.field.zero
        g, mult = _deflate(g, zero)
        out.append((zero, mult))
        while ints and ints[0] == 0:
            ints = ints[1:]
    if not ints:
        return out
    seen = set()
    den_divs = _int_divisors(ints[-1])
    for a in _int_divisors(ints[0]):
        for b in den_divs:
            for sign in (1, -1):
                cand = Fraction(sign * a, b)
                if cand in seen:
                    continue
                seen.add(cand)
                x = f.field(cand)
                if g(x).is_zero():
                    g, mult = _deflate(g, x)
                    out.append((x, mult))
    return out


# small enough that the oracle's candidate scan stays short
_PLANTED_ROOT = st.one_of(
    st.tuples(st.integers(-12, 12), st.integers(1, 9), st.integers(1, 2)),
    st.tuples(st.integers(-12, 12), st.sampled_from((999_983, 2**31 - 1)), st.just(1)),
)


@settings(max_examples=40, deadline=None, database=None)
@given(
    planted=st.lists(_PLANTED_ROOT, min_size=1, max_size=3),
    zero_mult=st.integers(0, 2),
    content=st.sampled_from((Fraction(1), Fraction(-7, 3), Fraction(12))),
    irrational=st.booleans(),
)
def test_integer_root_test_matches_the_fraction_scan(planted, zero_mult, content, irrational):
    f = Poly(QQ, [0] * zero_mult + [content])
    want = {}
    for a, b, m in planted:
        r = Fraction(a, b)
        want[r] = want.get(r, 0) + m
        for _ in range(m):
            f = f * Poly(QQ, [-r, 1])
    if irrational:
        f = f * Poly(QQ, [-2, 0, 1])  # no rational root
    got = _rational_roots(f)
    assert got == _rational_roots_by_fractions(f)
    if zero_mult:
        want[Fraction(0)] = want.get(Fraction(0), 0) + zero_mult
    assert {r.v: m for r, m in got} == want


def _roots_by_full_split(f, seed=0):
    """Factor, then split each lifted factor completely over the splitting
    field: the oracle of roots(..., allow_extension=True)."""
    field = f.field
    facs = factor(f, seed=seed)
    base = sorted(
        ((-fac.c[0] / fac.c[1], m) for fac, m in facs if fac.degree == 1),
        key=lambda pm: field.sort_key(pm[0].v),
    )
    higher = [(fac, m) for fac, m in facs if fac.degree > 1]
    if not higher:
        return base, None
    lcm = 1
    for fac, _ in higher:
        lcm = lcm * fac.degree // math.gcd(lcm, fac.degree)
    ext, emb = extend_field(field, lcm, seed=seed)
    ext_pairs = []
    for fac, mult in higher:
        rr = roots(emb.map_poly(fac), seed=seed)
        assert sum(m for _, m in rr.pairs) == fac.degree
        ext_pairs.extend((r, m * mult) for r, m in rr.pairs)
    ext_pairs.sort(key=lambda pm: ext.sort_key(pm[0].v))
    return base + ext_pairs, ext


@pytest.mark.parametrize("make", [
    lambda: PrimeField(3), lambda: PrimeField(5), lambda: PrimeField(7),
    lambda: PrimeField(13), lambda: PrimeField(101),
    lambda: extend_field(PrimeField(7), 2)[0],
], ids=["F3", "F5", "F7", "F13", "F101", "F7^2"])
def test_frobenius_conjugates_match_factor_then_split(make):
    F = make()
    rng = random.Random(F.order)
    seen = set()
    for _ in range(60):
        d = rng.randint(2, 4)
        f = Poly(F, [F.random(rng) for _ in range(d)] + [1])
        if rng.random() < 0.3:
            f = f * Poly(F, [F.random(rng), 1])  # a rational root, or a double
        if f.degree > 4:
            continue
        seed = rng.randrange(3)
        rr = roots(f, allow_extension=True, seed=seed)
        pairs, ext = _roots_by_full_split(f, seed)
        assert rr.pairs == pairs
        assert (rr.splitting[0] if rr.splitting else None) == ext
        seen.update(fac.degree for fac, _ in factor(f))
    assert {2, 3, 4} <= seen


def test_a_second_extension_runs_no_irreducibility_test(monkeypatch):
    calls = []
    real = fields.is_irreducible

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(fields, "is_irreducible", counting)
    F101 = PrimeField(101)
    first, _ = extend_field(F101, 3)
    calls.clear()
    second, _ = extend_field(F101, 3)
    assert calls == []
    assert second == first
