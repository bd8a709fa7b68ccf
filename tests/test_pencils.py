import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewloci.complexes import (
    SPECIAL_FIRST,
    SPECIAL_SECOND,
    ComplexSystem,
    GenericMorphism,
    LinearComplex,
    pfaffian_form,
)
from skewloci.errors import DegenerateInputError, PreconditionError
from skewloci.fields import QQ, PrimeField, roots
from skewloci.linalg import PAIRS
from skewloci.nets import Net
from skewloci.polys import binary_form_to_poly
from skewloci.pencils import (
    AlphaReport,
    Pencil,
    alpha,
    classify_configuration,
    pencil_singular_elements,
    pencils_with_singular_lines,
    sigma_family,
    trisecant,
)
from skewloci.projective import (
    Subspace,
    is_decomposable,
    join,
    line_through,
    map_subspace,
    meet,
    random_vector,
    subspace_points,
)
from test_raw_kernels import pfaffian_oracle


def _pairs_vec(**kw):
    v = [0] * 15
    for key, val in kw.items():
        i, j = int(key[1]), int(key[2])
        v[PAIRS.index((i, j))] = val
    return v


def _block_pencil(field):
    a1 = LinearComplex.from_pairs(field, _pairs_vec(p01=1, p23=1, p45=1))
    a2 = LinearComplex.from_pairs(field, _pairs_vec(p01=1, p23=2, p45=3))
    return Pencil(field, a1, a2)


def _basis_line(field, i, j):
    p = [0] * 6
    q = [0] * 6
    p[i] = 1
    q[j] = 1
    return line_through(field, p, q)


def test_block_pencil_singular_elements():
    # Pf(s*A1 + t*A2) = (s+t)(s+2t)(s+3t); roots t = -1, -1/2, -1/3
    F = PrimeField(7)
    pen = _block_pencil(F)
    sings = pencil_singular_elements(pen)
    assert len(sings) == 3
    assert all(m.multiplicity == 1 for m in sings)
    assert all(m.kind == SPECIAL_FIRST for m in sings)
    lines = {m.complex.kernel_space() for m in sings}
    expected = {
        _basis_line(F, 0, 1),
        _basis_line(F, 2, 3),
        _basis_line(F, 4, 5),
    }
    assert lines == expected


def test_block_pencil_over_q():
    pen = _block_pencil(QQ)
    sings = pencil_singular_elements(pen)
    got = sorted((m.mu / m.lam).v for m in sings)
    from fractions import Fraction

    assert got == [Fraction(-1), Fraction(-1, 2), Fraction(-1, 3)]


def test_rank2_generator_gives_second_type_root():
    F = PrimeField(7)
    a1 = LinearComplex.from_pairs(F, _pairs_vec(p01=1))  # rank 2
    a2 = LinearComplex.from_pairs(F, _pairs_vec(p01=1, p23=1, p45=1))
    pen = Pencil(F, a1, a2)
    sings = pencil_singular_elements(pen)
    kinds = {m.kind for m in sings}
    assert SPECIAL_SECOND in kinds
    second = next(m for m in sings if m.kind == SPECIAL_SECOND)
    assert second.complex.kernel_space().dim == 4


def test_identically_zero_pfaffian_reported():
    F = PrimeField(7)
    a1 = LinearComplex.from_pairs(F, _pairs_vec(p01=1))
    a2 = LinearComplex.from_pairs(F, _pairs_vec(p02=1))
    pen = Pencil(F, a1, a2)
    with pytest.raises(DegenerateInputError):
        pencil_singular_elements(pen)


@pytest.mark.parametrize("field", [PrimeField(101), QQ], ids=["F101", "Q"])
def test_binary_form_matches_numeric_pfaffian(field):
    rng = random.Random(11)
    for _ in range(5):
        gens = [[rng.randint(-9, 9) for _ in range(15)] for _ in range(2)]
        pen = Pencil.from_pair_vectors(field, gens)
        B = pfaffian_form(pen)
        assert (B.n, B.degree()) == (2, 3)
        for _ in range(10):
            st = [field(rng.randint(-20, 20)) for _ in range(2)]
            M = pen.combination(st)
            assert B.evaluate(st) == pfaffian_oracle(M, field.zero, field.one)


def test_pencil_and_net_share_the_generator_base():
    F = PrimeField(7)
    pen = _block_pencil(F)
    assert isinstance(pen, ComplexSystem) and issubclass(Net, ComplexSystem)
    assert isinstance(pen, GenericMorphism)
    assert (pen.n, pen.m, repr(pen)) == (5, 2, "Pencil(over F7)")
    assert pen.member([1, 0]) == pen.generators[0]
    with pytest.raises(PreconditionError, match="linearly dependent"):
        Pencil(F, pen.generators[0], pen.generators[0])
    with pytest.raises(PreconditionError, match="expected 2 generators"):
        Pencil(F, *pen.generators, pen.generators[0])
    with pytest.raises(PreconditionError, match="base field"):
        Pencil(PrimeField(11), *pen.generators)
    with pytest.raises(PreconditionError, match="zero vector"):
        pen.member([0, 0])


def test_random_pencil_roots_counted_with_multiplicity():
    F = PrimeField(101)
    rng = random.Random(31)
    for _ in range(10):
        a1 = LinearComplex.from_pairs(F, [F.random(rng) for _ in range(15)])
        a2 = LinearComplex.from_pairs(F, [F.random(rng) for _ in range(15)])
        try:
            pen = Pencil(F, a1, a2)
            sings = pencil_singular_elements(pen, allow_extension=True, seed=5)
        except (PreconditionError, DegenerateInputError):
            continue
        assert sum(m.multiplicity for m in sings) == 3
        for m in sings:
            assert m.complex.pf().is_zero()
            assert m.kind in (SPECIAL_FIRST, SPECIAL_SECOND)


def test_configuration_case_1():
    F = PrimeField(7)
    rep = classify_configuration(
        _basis_line(F, 0, 1), _basis_line(F, 2, 3), _basis_line(F, 4, 5)
    )
    assert rep.case_id == 1
    assert rep.span_dim == 5
    assert rep.trisecant is None
    assert rep.pairwise_meets == (False, False, False)


def test_configuration_case_2_with_trisecant():
    F = PrimeField(7)
    l1 = _basis_line(F, 0, 1)
    l2 = _basis_line(F, 2, 3)
    l3 = line_through(F, [0, 0, 0, 0, 1, 0], [1, 0, 1, 0, 0, 0])
    rep = classify_configuration(l1, l2, l3)
    assert rep.case_id == 2
    assert rep.span_dim == 4
    tri = rep.trisecant
    expected = line_through(F, [1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0])
    assert tri == expected
    for l in (l1, l2, l3):
        assert meet(tri, l).dim == 1


def test_configuration_case_3():
    F = PrimeField(7)
    l1 = _basis_line(F, 0, 1)
    l2 = _basis_line(F, 2, 3)
    # a third skew line inside the span of the first two
    l3 = line_through(F, [1, 0, 1, 0, 0, 0], [0, 1, 0, 1, 0, 0])
    rep = classify_configuration(l1, l2, l3)
    assert rep.case_id == 3
    assert rep.span_dim == 3


def test_configuration_case_4():
    F = PrimeField(7)
    rep = classify_configuration(
        _basis_line(F, 0, 1), _basis_line(F, 0, 2), _basis_line(F, 3, 4)
    )
    assert rep.case_id == 4
    assert rep.pairwise_meets[0]


def test_a_spanning_triple_runs_no_meet(monkeypatch):
    """Three lines spanning k^6 are pairwise skew, so case 1 needs no meet."""
    import skewloci.pencils as pencils

    def refuse(a, b):
        raise AssertionError("meet ran on a spanning triple")

    F = PrimeField(7)
    lines = [_basis_line(F, 0, 1), _basis_line(F, 2, 3), _basis_line(F, 4, 5)]
    monkeypatch.setattr(pencils, "meet", refuse)
    rep = classify_configuration(*lines)
    assert (rep.case_id, rep.span_dim, rep.pairwise_meets) == (1, 5, (False, False, False))


def _configuration_by_meets(l1, l2, l3):
    """(case, span dim, meets, trisecant) by the three pairwise meets and the
    joined span: the oracle of classify_configuration."""
    meets = (meet(l1, l2).dim > 0, meet(l1, l3).dim > 0, meet(l2, l3).dim > 0)
    span_dim = join(join(l1, l2), l3).proj_dim
    case = 4 if any(meets) else {5: 1, 4: 2, 3: 3}[span_dim]
    return case, span_dim, meets, trisecant(l1, l2, l3) if case == 2 else None


@pytest.mark.parametrize("lines, case", [
    ([(0, 1), (2, 3), [[0, 0, 0, 0, 1, 0], [1, 0, 1, 0, 0, 0]]], 2),
    ([(0, 1), (2, 3), [[1, 0, 1, 0, 0, 0], [0, 1, 0, 1, 0, 0]]], 3),
    ([(0, 1), (0, 2), (3, 4)], 4),
    ([(0, 1), (1, 2), (0, 2)], 4),
    ([(0, 1), (2, 3), (0, 2)], 4),
])
def test_configuration_cases_2_to_4_report_their_meets(lines, case):
    F = PrimeField(7)
    ls = [_basis_line(F, *l) if isinstance(l, tuple) else line_through(F, *l)
          for l in lines]
    rep = classify_configuration(*ls)
    assert rep.case_id == case
    assert (rep.case_id, rep.span_dim, rep.pairwise_meets, rep.trisecant) == (
        _configuration_by_meets(*ls)
    )


def _singular_elements_per_root(pen, seed):
    """(lam, mu, multiplicity, member, kind) with each member built at its
    own root, over its root field by pen.map: the oracle of
    pencil_singular_elements with extensions, and the root field's embedding."""
    F = pen.field
    b, drop = binary_form_to_poly(pfaffian_form(pen), 0, 1)
    out, emb = [], None
    if drop:
        cx = pen.member([0, 1])
        out.append((F.zero, F.one, drop, cx, cx.classify()))
    if b.degree >= 1:
        rr = roots(b, allow_extension=True, seed=seed)
        emb = rr.splitting[1] if rr.splitting else None
        for r, mult in rr.pairs:
            cx = (pen if r.field == F else pen.map(emb)).member([r.field.one, r])
            out.append((r.field.one, r, mult, cx, cx.classify()))
    return out, emb


@settings(max_examples=80, deadline=None, database=None)
@given(
    p=st.sampled_from((7, 11, 13, 101, 103)),
    pairs=st.lists(st.integers(0, 102), min_size=30, max_size=30),
    seed=st.integers(0, 3),
)
def test_frobenius_transport_matches_each_root_built_alone(p, pairs, seed):
    F = PrimeField(p)
    try:
        pen = Pencil.from_pair_vectors(F, [pairs[:15], pairs[15:]])
        want, emb = _singular_elements_per_root(pen, seed)
    except (PreconditionError, DegenerateInputError):
        return
    got = pencil_singular_elements(pen, allow_extension=True, seed=seed)
    assert [(m.lam, m.mu, m.multiplicity, m.complex.matrix, m.kind) for m in got] == [
        (lam, mu, mult, cx.matrix, kind) for lam, mu, mult, cx, kind in want
    ]
    assert [m.complex.kernel_space().rows for m in got] == [
        cx.kernel_space().rows for *_, cx, _ in want
    ]
    rep = alpha(pen, seed=seed)
    if rep.lines is None:
        return
    top = max((cx.field for *_, cx, _ in want), key=lambda K: K.degree)
    lines = [cx.kernel_space() if cx.field == top else map_subspace(emb, cx.kernel_space())
             for *_, cx, _ in want]
    assert rep.lines == lines
    cfg = rep.configuration
    assert (cfg.case_id, cfg.span_dim, cfg.pairwise_meets, cfg.trisecant) == (
        _configuration_by_meets(*lines)
    )


def test_trisecant_randomized_case_2():
    F = PrimeField(11)
    rng = random.Random(6)
    built = 0
    while built < 10:
        l1 = Subspace(F, 6, [[F.random(rng) for _ in range(6)] for _ in range(2)])
        l2 = Subspace(F, 6, [[F.random(rng) for _ in range(6)] for _ in range(2)])
        if l1.dim != 2 or l2.dim != 2 or meet(l1, l2).dim != 0:
            continue
        # force l3 through a point of the join to drop the span to P^4
        span12 = join(l1, l2)
        p = random_vector(span12, rng)
        q = [F.random(rng) for _ in range(6)]
        l3 = Subspace(F, 6, [p, q])
        if l3.dim != 2:
            continue
        if meet(l1, l3).dim > 0 or meet(l2, l3).dim > 0:
            continue
        if join(span12, l3).proj_dim != 4:
            continue
        tri = trisecant(l1, l2, l3)
        for l in (l1, l2, l3):
            assert meet(tri, l).dim == 1
        built += 1


def test_trisecant_rejects_case_1():
    F = PrimeField(7)
    with pytest.raises(PreconditionError):
        trisecant(_basis_line(F, 0, 1), _basis_line(F, 2, 3), _basis_line(F, 4, 5))


def _rank2_points(field, L):
    """The decomposable complexes among the q+1 points of a dual line."""
    return [c for c in subspace_points(L) if is_decomposable(field, c)]


def test_sigma_family_block_triple():
    F = PrimeField(7)
    l1, l2, l3 = _basis_line(F, 0, 1), _basis_line(F, 2, 3), _basis_line(F, 4, 5)
    fam = sigma_family(l1, l2, l3)
    # join(l1,l2) = <e0..e3>, its complex is a45; similarly a23 and a01
    assert [x.v for x in fam.h12.coeffs()] == _pairs_vec(p45=1)
    assert [x.v for x in fam.h13.coeffs()] == _pairs_vec(p23=1)
    assert [x.v for x in fam.h23.coeffs()] == _pairs_vec(p01=1)
    assert fam.sigma.proj_dim == 2
    for L in fam.dual_lines:
        assert len(_rank2_points(F, L)) == 2


def test_sigma_family_random_case1_triples():
    F = PrimeField(101)
    rng = random.Random(17)
    done = 0
    while done < 8:
        ls = []
        for _ in range(3):
            s = Subspace(F, 6, [[F.random(rng) for _ in range(6)] for _ in range(2)])
            ls.append(s)
        if any(l.dim != 2 for l in ls):
            continue
        try:
            rep = classify_configuration(*ls)
        except PreconditionError:
            continue
        if rep.case_id != 1:
            continue
        fam = sigma_family(*ls)
        assert fam.sigma.proj_dim == 2
        for L in fam.dual_lines:
            assert len(_rank2_points(F, L)) == 2
        done += 1


def test_type_a_pencil_recovers_lines():
    F = PrimeField(11)
    l1, l2, l3 = _basis_line(F, 0, 1), _basis_line(F, 2, 3), _basis_line(F, 4, 5)
    for seed in range(5):
        pen = pencils_with_singular_lines(l1, l2, l3, kind="a", seed=seed)
        sings = pencil_singular_elements(pen)
        assert {m.complex.kernel_space() for m in sings} == {l1, l2, l3}


def test_type_b_pencil_contains_second_type():
    F = PrimeField(11)
    l1, l2, l3 = _basis_line(F, 0, 1), _basis_line(F, 2, 3), _basis_line(F, 4, 5)
    pen = pencils_with_singular_lines(l1, l2, l3, kind="b", seed=3)
    sings = pencil_singular_elements(pen)
    assert any(m.kind == SPECIAL_SECOND for m in sings)


def test_alpha_block_pencil_expected_dim():
    F = PrimeField(7)
    rep = alpha(_block_pencil(F))
    assert rep.verdict == "expected-dim-1"
    assert rep.configuration.case_id == 1
    assert len(rep.lines) == 3


def test_alpha_type_b_degenerate_with_witness():
    F = PrimeField(11)
    l1, l2, l3 = _basis_line(F, 0, 1), _basis_line(F, 2, 3), _basis_line(F, 4, 5)
    pen = pencils_with_singular_lines(l1, l2, l3, kind="b", seed=1)
    rep = alpha(pen)
    assert rep.verdict == "second-type-present"
    assert rep.second_type_witness == join(l1, l2)


def test_alpha_invariant_under_generator_change():
    F = PrimeField(13)
    pen = _block_pencil(F)
    rep1 = alpha(pen)
    g1 = pen.member([1, 4])
    g2 = pen.member([2, 3])
    rep2 = alpha(Pencil(F, g1, g2))
    assert {tuple(tuple(x.v for x in r) for r in l.rows) for l in rep1.lines} == {
        tuple(tuple(x.v for x in r) for r in l.rows) for l in rep2.lines
    }


def test_alpha_random_pencils_mostly_general():
    F = PrimeField(101)
    rng = random.Random(23)
    general = 0
    trials = 0
    for _ in range(30):
        a1 = LinearComplex.from_pairs(F, [F.random(rng) for _ in range(15)])
        a2 = LinearComplex.from_pairs(F, [F.random(rng) for _ in range(15)])
        try:
            pen = Pencil(F, a1, a2)
            rep = alpha(pen, seed=7)
        except (PreconditionError, DegenerateInputError):
            continue
        trials += 1
        if rep.verdict == "expected-dim-1":
            general += 1
    assert trials >= 25
    assert general >= trials - 2


def test_alpha_nonreduced_reported():
    # gen2 avoids the p45 slot where gen1's sub-Pfaffian vector lives, which
    # kills the linear coefficient: Pf(s, t) = -t^2 (s + t), a double root at
    # the rank-4 member gen1
    F = PrimeField(7)
    a1 = LinearComplex.from_pairs(F, _pairs_vec(p01=1, p23=1))
    a2 = LinearComplex.from_pairs(F, _pairs_vec(p04=1, p15=1, p23=1))
    pen = Pencil(F, a1, a2)
    sings = pencil_singular_elements(pen)
    assert sorted(m.multiplicity for m in sings) == [1, 2]
    assert all(m.kind == SPECIAL_FIRST for m in sings)
    rep = alpha(pen)
    assert rep.verdict == "non-reduced"


# a random F101 pencil whose binary Pfaffian cubic is irreducible: its three
# singular members live over F_{101^3}
IRREDUCIBLE_F101 = (
    [87, 42, 60, 71, 12, 45, 55, 40, 78, 81, 26, 70, 61, 56, 66],
    [33, 7, 70, 1, 11, 92, 51, 90, 100, 85, 80, 0, 78, 63, 42],
)


# a random F101 pencil whose binary Pfaffian cubic is a linear times an
# irreducible quadratic: one member over F101, two over F_{101^2}
SPLIT_F101 = (
    [40, 48, 54, 67, 21, 71, 22, 30, 29, 3, 22, 41, 22, 17, 65],
    [65, 46, 65, 86, 71, 23, 57, 53, 94, 67, 97, 46, 75, 45, 46],
)


@pytest.mark.parametrize("pairs, degrees, orbits", [
    (IRREDUCIBLE_F101, [3, 3, 3], 1),
    (SPLIT_F101, [1, 2, 2], 2),
], ids=["irreducible", "split"])
def test_alpha_eliminates_once_per_frobenius_orbit(monkeypatch, pairs, degrees, orbits):
    """rank, classify, kernel_space and complex_class share one kernel, and
    the conjugates of a member carry theirs from it."""
    import skewloci.linalg as linalg

    calls = []
    real = linalg._rref_raw

    def counting(field, R):
        frame = sys._getframe(1)
        while frame is not None:
            owner = frame.f_locals.get("self")
            if isinstance(owner, LinearComplex):
                calls.append(owner)
                break
            frame = frame.f_back
        return real(field, R)

    monkeypatch.setattr(linalg, "_rref_raw", counting)
    pen = Pencil.from_pair_vectors(PrimeField(101), pairs)
    rep = alpha(pen)
    assert rep.verdict == "expected-dim-1"
    assert sorted(m.complex.field.degree for m in rep.members) == degrees
    for m in rep.members:
        m.complex.rank()
        m.complex.complex_class()
    assert len(calls) == len({id(cx) for cx in calls}) == orbits
    assert {id(cx) for cx in calls} <= {id(m.complex) for m in rep.members}
