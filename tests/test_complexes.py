import random
from fractions import Fraction

import pytest

from skewloci import complexes
from skewloci.errors import DegenerateInputError, PreconditionError
from skewloci.fields import QQ, PrimeField, extend_field
from skewloci.linalg import PAIRS, mat_mul, pfaffian_field, rank, transpose
from skewloci.complexes import (
    GENERAL,
    SPECIAL_FIRST,
    SPECIAL_SECOND,
    LinearComplex,
    fiber_meet,
    fiber_meet_report,
    fiber_rank2_count,
    fiber_rank2_points,
    second_type_complex,
    special_fiber,
)
from skewloci.projective import (
    Subspace,
    join,
    line_through,
    meet,
    pluecker_of_line,
)


def _random_line(field, rng):
    while True:
        s = Subspace(field, 6, [[field.random(rng) for _ in range(6)] for _ in range(2)])
        if s.dim == 2:
            return s


def _congruence(field, rng, A):
    while True:
        P = [[field.random(rng) for _ in range(6)] for _ in range(6)]
        if rank(field, P) == 6:
            return mat_mul(transpose(P), mat_mul(A, P))


def test_classification_by_rank():
    F = PrimeField(7)
    rng = random.Random(4)
    full = [0] * 15
    full[PAIRS.index((0, 1))] = 1
    full[PAIRS.index((2, 3))] = 1
    full[PAIRS.index((4, 5))] = 1
    first = [0] * 15
    first[PAIRS.index((0, 1))] = 1
    first[PAIRS.index((2, 3))] = 1
    second = [0] * 15
    second[PAIRS.index((0, 1))] = 1
    for coeffs, expected in ((full, GENERAL), (first, SPECIAL_FIRST), (second, SPECIAL_SECOND)):
        base = LinearComplex.from_pairs(F, coeffs)
        assert base.classify() == expected
        moved = LinearComplex(F, _congruence(F, rng, base.matrix))
        assert moved.classify() == expected


def test_zero_form_rejected():
    F = PrimeField(7)
    with pytest.raises(DegenerateInputError):
        LinearComplex.from_pairs(F, [0] * 15).classify()


def test_pairing_equals_pluecker_dot():
    F = PrimeField(11)
    rng = random.Random(7)
    for _ in range(15):
        A = LinearComplex.from_pairs(F, [F.random(rng) for _ in range(15)])
        line = _random_line(F, rng)
        p = pluecker_of_line(line)
        dot = sum((c * x for c, x in zip(A.coeffs(), p)), start=F.zero)
        assert A.pairing(line) == dot


def test_general_complex_pfaffian_nonzero():
    F = PrimeField(13)
    rng = random.Random(19)
    seen = {True: 0, False: 0}
    for _ in range(30):
        coeffs = [F.random(rng) for _ in range(15)]
        A = LinearComplex.from_pairs(F, coeffs)
        if A.is_zero():
            continue
        nz = not A.pf().is_zero()
        assert nz == (A.classify() == GENERAL)
        seen[nz] += 1
    assert seen[True] > 0


def test_second_type_complex_kernel_and_membership():
    F = PrimeField(7)
    rng = random.Random(11)
    for _ in range(8):
        W = Subspace(F, 6, [[F.random(rng) for _ in range(6)] for _ in range(4)])
        if W.dim != 4:
            continue
        A = second_type_complex(F, W)
        assert A.classify() == SPECIAL_SECOND
        assert A.kernel_space() == W
        # a line through a point of W is in the complex
        p = W.rows[0]
        q = [F.random(rng) for _ in range(6)]
        line = Subspace(F, 6, [p, q])
        if line.dim == 2:
            assert A.contains_line(line)
        # a line disjoint from W is not
        l2 = _random_line(F, rng)
        if meet(l2, W).dim == 0:
            assert not A.contains_line(l2)


def test_first_type_singular_line():
    F = PrimeField(7)
    coeffs = [0] * 15
    coeffs[PAIRS.index((0, 1))] = 1
    coeffs[PAIRS.index((2, 3))] = 1
    A = LinearComplex.from_pairs(F, coeffs)
    ker = A.kernel_space()
    assert ker.dim == 2
    assert ker.contains_vector([0, 0, 0, 0, 1, 0])
    assert ker.contains_vector([0, 0, 0, 0, 0, 1])


def test_special_fiber_dimension_six():
    F = PrimeField(11)
    rng = random.Random(23)
    for _ in range(6):
        line = _random_line(F, rng)
        fib = special_fiber(F, line)
        assert fib.dim == 6
        # every member kills the line
        A = LinearComplex.from_pairs(F, fib.rows[0])
        for v in line.rows:
            from skewloci.linalg import mat_vec

            assert all(x.is_zero() for x in mat_vec(A.matrix, v))


def test_fiber_meet_skew_lines_single_complex():
    F = PrimeField(7)
    l1 = line_through(F, [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0])
    l2 = line_through(F, [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0])
    assert meet(l1, l2).dim == 0
    common = fiber_meet(F, l1, l2)
    assert common.dim == 1
    expected = second_type_complex(F, join(l1, l2))
    got = [x.v for x in common.rows[0]]
    want = [x.v for x in expected.coeffs()]
    # same projective point of coefficient space
    from skewloci.projective import normalize_projective

    assert normalize_projective(common.rows[0]) == normalize_projective(expected.coeffs())
    rep = fiber_meet_report(F, l1, l2)
    assert not rep["lines_meet"] and rep["common_dim"] == 1


def test_fiber_meet_meeting_lines_plane_of_rank_two():
    F = PrimeField(5)
    l1 = line_through(F, [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0])
    l2 = line_through(F, [1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0])
    assert meet(l1, l2).dim == 1
    common = fiber_meet(F, l1, l2)
    assert common.dim == 3
    # every projective point of the common plane is a rank-2 form
    from skewloci.linalg import skew_from_pairs
    from skewloci.projective import subspace_points

    n = 0
    for coeffs in subspace_points(common):
        assert rank(F, skew_from_pairs(F, coeffs)) == 2
        n += 1
    assert n == 25 + 5 + 1


def test_fiber_meet_report_rejects_equal_lines():
    F = PrimeField(5)
    l1 = line_through(F, [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0])
    with pytest.raises(DegenerateInputError):
        fiber_meet_report(F, l1, l1)


def test_fiber_rank2_count_is_grassmannian_of_quotient():
    # forms with a fixed line in the kernel and rank 2 biject with lines in
    # the 3-dimensional projective quotient: q^4 + q^3 + 2q^2 + q + 1 of them
    F = PrimeField(7)
    line = line_through(F, [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0])
    q = 7
    expected = q**4 + q**3 + 2 * q**2 + q + 1
    assert fiber_rank2_count(F, line) == expected


def test_fiber_rank2_count_scans_no_elements(monkeypatch):
    def refuse(*args):
        raise AssertionError("element scan")

    monkeypatch.setattr(complexes, "fiber_rank2_points", refuse)
    F = PrimeField(11)
    line = line_through(F, [1, 2, 0, 0, 0, 5], [0, 1, 3, 0, 4, 0])
    assert fiber_rank2_count(F, line) == 11**4 + 11**3 + 2 * 11**2 + 11 + 1


@pytest.mark.parametrize("q, lines", [(3, 3), (5, 1)])
def test_fiber_rank2_count_matches_the_element_scan(q, lines):
    F = PrimeField(q)
    rng = random.Random(q)
    for _ in range(lines):
        while True:
            try:
                line = line_through(F, [F.random(rng) for _ in range(6)],
                                    [F.random(rng) for _ in range(6)])
                break
            except PreconditionError:
                continue
        assert fiber_rank2_count(F, line) == sum(1 for _ in fiber_rank2_points(F, line))


def _matrix(n, entries, cols=None):
    """An n x cols matrix of ints, zero but for entries {(i, j): x}."""
    return [[entries.get((i, j), 0) for j in range(cols or n)] for i in range(n)]


_F101 = PrimeField(101)
_SKEW = {(0, 1): 1, (1, 0): -1}


@pytest.mark.parametrize("build, matrix, message", [
    # coercion is refused first, then the shape, then the first non-skew (i,j)
    (LinearComplex, _matrix(5, {(0, 1): Fraction(1, 101), (2, 3): 1}),
     "1/101 has a denominator divisible by 101"),
    (LinearComplex, _matrix(5, {(0, 1): 1}), "expected a 6x6 matrix"),
    (LinearComplex, _matrix(6, {(0, 1): 1})[:5] + [[0] * 5], "expected a 6x6 matrix"),
    (LinearComplex, _matrix(6, {(2, 3): 1, (4, 5): 1}), "matrix is not skew-symmetric at (2,3)"),
    (LinearComplex, _matrix(6, {**_SKEW, (1, 1): 1, (4, 5): 1}),
     "matrix is not skew-symmetric at (1,1)"),
    (pfaffian_field, _matrix(3, {(0, 1): 1}, cols=2), "matrix is not square"),
    (pfaffian_field, _matrix(3, {(1, 2): 1}), "matrix is not skew-symmetric at (1,2)"),
    (pfaffian_field, _matrix(3, _SKEW), "pfaffian needs even size"),
])
def test_refusals_keep_their_order_and_words(build, matrix, message):
    if build is pfaffian_field:
        matrix = [[_F101(x) for x in row] for row in matrix]
    with pytest.raises(PreconditionError) as exc:
        build(_F101, matrix)
    assert str(exc.value) == message


@pytest.mark.parametrize("field", [_F101, QQ, extend_field(_F101, 3)[0]])
def test_a_complex_is_scaled_by_its_first_nonzero_pair(field):
    rng = random.Random(7)
    for _ in range(20):
        entries = {}
        for i, j in PAIRS[rng.randrange(3):]:
            x = field.random(rng)
            entries[i, j], entries[j, i] = x, -x
        M = _matrix(6, entries)
        M = [[field(x) for x in row] for row in M]
        lead = next((M[i][j] for i, j in PAIRS if not M[i][j].is_zero()), None)
        inv = lead.inverse() if lead is not None else field.one
        assert LinearComplex(field, M).matrix == [[x * inv for x in row] for row in M]
