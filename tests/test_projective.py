import random

import pytest

from skewloci.errors import PreconditionError, UnsupportedFieldError
from skewloci.fields import QQ, PrimeField, extend_field
from skewloci.linalg import PAIRS, kernel, rank, skew_from_pairs
from skewloci.projective import (
    Subspace,
    _proj_reps_array,
    count_common_zeros,
    is_decomposable,
    join,
    line_through,
    meet,
    normalize_projective,
    pluecker_of_line,
    pluecker_relations,
    projective_reps,
    subspace_points,
)


def line_from_pluecker(field, p15):
    """The line with a given Pluecker vector: the row space of its rank-2
    skew matrix."""
    A = skew_from_pairs(field, p15)
    if rank(field, A) != 2:
        raise PreconditionError("coordinates are not those of a line")
    return Subspace(field, 6, A)


def _random_subspace(field, rng, dim, n=6):
    while True:
        vs = [[field.random(rng) for _ in range(n)] for _ in range(dim)]
        s = Subspace(field, n, vs)
        if s.dim == dim:
            return s


def test_subspace_canonical_representation():
    F = PrimeField(7)
    rng = random.Random(3)
    s = _random_subspace(F, rng, 3)
    # a different generating set of the same space gives identical rows
    mixed = [
        [a + b for a, b in zip(s.rows[0], s.rows[1])],
        [a - b for a, b in zip(s.rows[1], s.rows[2])],
        s.rows[2],
        [a + b for a, b in zip(s.rows[0], s.rows[2])],
    ]
    t = Subspace(F, 6, mixed)
    assert s == t


def test_join_meet_dimension_formula():
    F = PrimeField(11)
    rng = random.Random(14)
    for _ in range(25):
        a = _random_subspace(F, rng, rng.randint(1, 4))
        b = _random_subspace(F, rng, rng.randint(1, 4))
        j = join(a, b)
        m = meet(a, b)
        assert j.dim + m.dim == a.dim + b.dim
        assert a.contains(m) and b.contains(m)
        assert j.contains(a) and j.contains(b)


def test_meet_of_generic_planes_in_p5():
    # two generic projective planes in P^5 meet in a point of k^6 terms: dim 1+...
    # vector dims 3 + 3 = 6 and generic join is everything, so meet is zero
    F = PrimeField(13)
    rng = random.Random(5)
    a = _random_subspace(F, rng, 3)
    b = _random_subspace(F, rng, 3)
    if join(a, b).dim == 6:
        assert meet(a, b).dim == 0


def test_annihilator_double_dual():
    F = PrimeField(7)
    rng = random.Random(8)
    s = _random_subspace(F, rng, 3)
    assert s.annihilator().annihilator() == s
    assert s.annihilator().dim == 3


def test_pluecker_of_line_well_defined():
    F = PrimeField(11)
    rng = random.Random(2)
    for _ in range(10):
        line = _random_subspace(F, rng, 2)
        p = pluecker_of_line(line)
        # recompute from a different basis: scaled rows
        u, v = line.rows
        u2 = [x * F(3) for x in u]
        v2 = [a + b for a, b in zip(v, u)]
        line2 = Subspace(F, 6, [u2, v2])
        q = pluecker_of_line(line2)
        assert normalize_projective(p) == normalize_projective(q)
        assert all(x.is_zero() for x in pluecker_relations(F, p))
        assert is_decomposable(F, p)


@pytest.mark.parametrize("F", [PrimeField(7), QQ], ids=["F7", "Q"])
def test_decomposable_iff_skew_rank_two(F):
    # sums of k wedge products: skew rank 2k at most, rank 2 for most k = 1
    rng = random.Random(4)
    for k in range(4):
        for _ in range(10):
            p = [F.zero] * 15
            for _ in range(k):
                u, v = ([F.random(rng) for _ in range(6)] for _ in range(2))
                p = [c + u[i] * v[j] - u[j] * v[i] for c, (i, j) in zip(p, PAIRS)]
            assert is_decomposable(F, p) == (rank(F, skew_from_pairs(F, p)) == 2)


def test_line_from_pluecker_roundtrip():
    F = PrimeField(7)
    rng = random.Random(9)
    for _ in range(10):
        line = _random_subspace(F, rng, 2)
        p = pluecker_of_line(line)
        back = line_from_pluecker(F, p)
        assert back == line


def test_non_decomposable_vector_rejected():
    F = PrimeField(7)
    # e01 + e23 wedge coordinates: rank-4 skew matrix
    p = [0] * 15
    p[PAIRS.index((0, 1))] = 1
    p[PAIRS.index((2, 3))] = 1
    assert not is_decomposable(F, p)
    with pytest.raises(PreconditionError):
        line_from_pluecker(F, p)
    rels = pluecker_relations(F, p)
    assert any(not v.is_zero() for v in rels)


def test_line_through_and_containment():
    F = PrimeField(5)
    p = [1, 0, 0, 0, 0, 0]
    q = [0, 1, 0, 0, 0, 0]
    L = line_through(F, p, q)
    assert L.contains_vector([1, 1, 0, 0, 0, 0])
    assert not L.contains_vector([0, 0, 1, 0, 0, 0])
    with pytest.raises(PreconditionError):
        line_through(F, p, [2, 0, 0, 0, 0, 0])


def test_projective_reps_count():
    F = PrimeField(5)
    pts = list(projective_reps(F, 3))
    assert len(pts) == 25 + 5 + 1
    as_tuples = {tuple(x.v for x in p) for p in pts}
    assert len(as_tuples) == 31


def test_subspace_points_cover_plane():
    F = PrimeField(3)
    s = Subspace(F, 6, [[1, 0, 0, 0, 0, 1], [0, 1, 0, 0, 1, 0], [0, 0, 1, 1, 0, 0]])
    pts = list(subspace_points(s))
    assert len(pts) == 9 + 3 + 1
    for p in pts:
        assert s.contains_vector(p)


def _subspace_points_oracle(space):
    """The element loop subspace_points replaced: c * rows summed in
    FieldElements, c in projective_reps order."""
    for coeffs in projective_reps(space.field, space.dim):
        v = [space.field.zero] * space.n
        for c, row in zip(coeffs, space.rows):
            if not c.is_zero():
                v = [a + c * b for a, b in zip(v, row)]
        yield v


@pytest.mark.parametrize("make", [
    lambda: PrimeField(3), lambda: PrimeField(7), lambda: extend_field(PrimeField(3), 2)[0],
], ids=["F3", "F7", "F3^2"])
def test_subspace_points_match_the_element_loop(make):
    F = make()
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 7)
        space = Subspace(F, n, [[F.random(rng) for _ in range(n)]
                                for _ in range(rng.randint(0, min(n, 3)))])
        got = list(subspace_points(space))
        want = list(_subspace_points_oracle(space))
        assert [[(x.field, x.v) for x in p] for p in got] == \
            [[(x.field, x.v) for x in p] for p in want]
        assert len(got) == (F.order ** space.dim - 1) // (F.order - 1)
        # over the canonical basis each point is its canonical representative
        assert all(normalize_projective(p) == p for p in got)


def test_meet_over_q():
    a = Subspace(QQ, 6, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]])
    b = Subspace(QQ, 6, [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]])
    m = meet(a, b)
    assert m.dim == 1
    assert m.contains_vector([0, 0, 1, 0, 0, 0])


def _meet_by_annihilators(a, b):
    """The annihilator meet, ann(a meet b) = ann(a) + ann(b): the oracle."""
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.field, a.n)
    stacked = a.annihilator().basis() + b.annihilator().basis()
    if not stacked:
        return Subspace.full(a.field, a.n)
    return Subspace(a.field, a.n, kernel(a.field, stacked))


@pytest.mark.parametrize("make", [
    lambda: PrimeField(7), lambda: extend_field(PrimeField(7), 2)[0], lambda: QQ,
], ids=["F7", "F7^2", "Q"])
def test_zassenhaus_meet_matches_the_annihilator_meet(make):
    F = make()
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randint(2, 7)
        # a shared part makes the intersection nontrivial most of the time
        common = [[F.random(rng) for _ in range(n)] for _ in range(rng.randint(0, n))]
        a = Subspace(F, n, common + [[F.random(rng) for _ in range(n)]
                                     for _ in range(rng.randint(0, n))])
        b = Subspace(F, n, common[: rng.randint(0, len(common))]
                     + [[F.random(rng) for _ in range(n)] for _ in range(rng.randint(0, 2))])
        for x, y in ((a, b), (b, a), (a, a), (a, Subspace.zero(F, n)),
                     (Subspace.full(F, n), b), (Subspace.full(F, n), Subspace.full(F, n))):
            got = meet(x, y)
            assert got == _meet_by_annihilators(x, y)
            # the rows it trusts as reduced are the canonical basis
            assert Subspace(F, n, got.rows) == got


@pytest.mark.parametrize("q, n", [(3, 1), (3, 4), (5, 3), (7, 2)])
def test_proj_reps_array_lists_projective_reps_in_order(q, n):
    F = PrimeField(q)
    expected = [[x.v for x in rep] for rep in projective_reps(F, n)]
    assert _proj_reps_array(q, n).tolist() == expected


@pytest.mark.parametrize("q", [3, 5, 7])
def test_count_common_zeros_matches_the_element_scan(q):
    # a random 4-space of k^7 and conditions of degree 1, 2 and 3 on its image
    F = PrimeField(q)
    rng = random.Random(q)
    rows = [[F.random(rng) for _ in range(7)] for _ in range(4)]
    lin = [rng.randrange(q) for _ in range(7)]
    conditions = [
        lambda P: sum(c * P[:, i] for i, c in enumerate(lin)),
        lambda P: P[:, 0] * P[:, 1] - P[:, 2] * P[:, 3] + P[:, 4] * P[:, 6],
        lambda P: P[:, 5] ** 3 - P[:, 1] * P[:, 2] * P[:, 3],
    ]

    def vanish(v):
        x = [e.v for e in v]
        return all(
            value % q == 0 for value in (
                sum(c * x[i] for i, c in enumerate(lin)),
                x[0] * x[1] - x[2] * x[3] + x[4] * x[6],
                x[5] ** 3 - x[1] * x[2] * x[3],
            )
        )

    points = []
    for coeffs in projective_reps(F, 4):
        v = [F.zero] * 7
        for c, row in zip(coeffs, rows):
            v = [a + c * b for a, b in zip(v, row)]
        points.append(v)
    assert count_common_zeros(F, rows, conditions) == sum(map(vanish, points))
    assert count_common_zeros(F, rows, []) == len(points)


def test_count_common_zeros_refuses_fields_it_cannot_scan():
    rows = [[1, 0], [0, 1]]
    with pytest.raises(UnsupportedFieldError):
        count_common_zeros(QQ, [[QQ(x) for x in r] for r in rows], [])
    for F in (PrimeField(13), extend_field(PrimeField(3), 2)[0]):
        with pytest.raises(PreconditionError):
            count_common_zeros(F, [[F(x) for x in r] for r in rows], [])
