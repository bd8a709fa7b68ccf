import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, assume, event, find, given, settings
from hypothesis import strategies as st

from skewloci import cubic as cubic_module
from skewloci import nets as nets_module
from skewloci import selftest
from skewloci.complexes import GenericMorphism
from skewloci.cubic import CONIC_MONOMIALS, _conic_matrix
from skewloci.errors import (
    DegenerateInputError,
    InconsistencyError,
    PreconditionError,
    UnsupportedFieldError,
)
from skewloci.fields import QQ, Poly, PrimeField, extend_field, poly_gcd, roots
from skewloci.linalg import (
    PAIRS,
    _wrap,
    kernel,
    mat_vec,
    pfaffian_field,
    rank,
)
from skewloci.nets import (
    Net,
    _fiber_triple,
    _plane_points,
    count_scroll_points,
    degree_probe,
    directrix_planes,
    net_pfaffian_cubic,
    net_type,
    probe_section,
    rational_fibers,
    restricted_fiber_dim,
    scroll_fiber,
    sub_pfaffian_forms,
    type2_singular_locus_check,
    x_membership,
)
from skewloci.polys import MPoly, binary_form_to_poly, common_projective_zero, points_by_lines
from skewloci.projective import SCAN_CHUNK, Subspace, join, meet, projective_reps, subspace_points
from test_raw_kernels import pfaffian_oracle, sub_pfaffians_6_oracle


def _pairs_vec(**kw):
    v = [0] * 15
    for key, val in kw.items():
        i, j = int(key[1]), int(key[2])
        v[PAIRS.index((i, j))] = val
    return v


def _block_net(field):
    return Net.from_pair_vectors(
        field, [_pairs_vec(p01=1), _pairs_vec(p23=1), _pairs_vec(p45=1)]
    )


def _random_net(field, seed):
    rng = random.Random(seed)
    while True:
        triples = [[field.random(rng) for _ in range(15)] for _ in range(3)]
        try:
            return Net.from_pair_vectors(field, triples)
        except PreconditionError:
            continue


# integer generator triples reduced modulo several primes in the twin tests
_rng = random.Random(42)
TYPE2_TRIPLES = [[0] * 15, [_rng.randrange(23) for _ in range(15)],
                 [_rng.randrange(23) for _ in range(15)]]
TYPE2_TRIPLES[0][0] = 1
GENERAL_TRIPLES = [[_rng.randrange(23) for _ in range(15)] for _ in range(3)]
del _rng


def test_block_net_membership_and_fiber():
    F = PrimeField(7)
    net = _block_net(F)
    assert x_membership(net, [1, 0, 0, 0, 0, 0])
    assert not x_membership(net, [1, 1, 1, 1, 1, 1])
    fib = scroll_fiber(net, [0, 1, 1])
    assert fib.dim == 2
    assert fib.contains_vector([F.one, F.zero, F.zero, F.zero, F.zero, F.zero])
    assert fib.contains_vector([F.zero, F.one, F.zero, F.zero, F.zero, F.zero])


def test_membership_matches_parameter_scan():
    # membership must agree with brute force over all net parameters
    F = PrimeField(11)
    net = _random_net(F, 0)
    rng = random.Random(7)

    def scan(pt):
        for lam in _proj_reps3(F):
            M = net.combination(lam)
            if all(x.is_zero() for x in mat_vec(M, pt)):
                return True
        return False

    pts = [[F.random(rng) for _ in range(6)] for _ in range(6)]
    pts = [p for p in pts if any(not x.is_zero() for x in p)]
    cubic = net_pfaffian_cubic(net)
    lam0 = cubic.rational_points()[0]
    pts.extend(scroll_fiber(net, lam0).rows)
    for pt in pts:
        assert x_membership(net, pt) == scan(pt)


def _proj_reps3(field):
    els = list(field.elements())
    out = [[field.one, a, b] for a in els for b in els]
    out.extend([field.zero, field.one, b] for b in els)
    out.append([field.zero, field.zero, field.one])
    return out


def test_rank2_generator_kernel_space_is_inside():
    F = PrimeField(7)
    net = Net.from_pair_vectors(F, TYPE2_TRIPLES)
    three = net.generators[0].kernel_space()
    assert three.proj_dim == 3
    for pt in subspace_points(three):
        assert x_membership(net, pt)


def test_membership_invariant_under_recombination():
    F = PrimeField(11)
    net = _random_net(F, 3)
    g1, g2, g3 = net.generators
    mixed = Net(
        F,
        [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(g1.matrix, g2.matrix)],
        [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(g2.matrix, g3.matrix)],
        g3,
    )
    rng = random.Random(9)
    for _ in range(30):
        pt = [F.random(rng) for _ in range(6)]
        if all(x.is_zero() for x in pt):
            continue
        assert x_membership(net, pt) == x_membership(mixed, pt)


def test_zero_point_rejected():
    F = PrimeField(7)
    net = _block_net(F)
    with pytest.raises(PreconditionError):
        x_membership(net, [0, 0, 0, 0, 0, 0])


def test_dependent_generators_rejected():
    F = PrimeField(7)
    with pytest.raises(PreconditionError):
        Net.from_pair_vectors(
            F, [_pairs_vec(p01=1), _pairs_vec(p23=1), _pairs_vec(p01=1, p23=1)]
        )


def test_non_skew_matrix_rejected():
    F = PrimeField(7)
    M = [[F.one] * 6 for _ in range(6)]
    with pytest.raises(PreconditionError):
        GenericMorphism(F, [M])


def test_fiber_needs_singular_combination():
    F = PrimeField(11)
    net = _random_net(F, 0)
    cubic = net_pfaffian_cubic(net)
    off = next(
        lam for lam in _proj_reps3(F) if not cubic.evaluate(lam).is_zero()
    )
    with pytest.raises(PreconditionError):
        scroll_fiber(net, off)


def test_fiber_refuses_the_zero_parameter_and_a_wrong_length():
    F = PrimeField(7)
    net = selftest.seeded_net(F, 0)
    for lam in ([0, 0, 0], [F.zero] * 3, [7, 14, 0]):
        with pytest.raises(PreconditionError, match="zero vector"):
            scroll_fiber(net, lam)
    assert net._fibers == {}  # refused before the memo is read
    for lam in ([1, 0], [1, 0, 0, 0]):
        with pytest.raises(PreconditionError, match="one scalar per matrix"):
            scroll_fiber(net, lam)
        with pytest.raises(PreconditionError, match="one scalar per matrix"):
            net.member(lam)


@pytest.mark.parametrize("q, seed", [(7, 0), (11, 0), (101, 1)])
def test_fiber_sites_build_no_combination(monkeypatch, q, seed):
    def refuse(self, lam):
        raise AssertionError("a fibre site built the combination")

    monkeypatch.setattr(GenericMorphism, "combination", refuse)
    F = PrimeField(q)
    net = selftest.seeded_net(F, seed)
    fibers = list(rational_fibers(net))
    assert all(scroll_fiber(net, lam) is fib for lam, fib in fibers)
    if q <= 11:
        rep = count_scroll_points(net)
        assert rep.c_count == len(fibers)
    else:
        with pytest.raises(PreconditionError, match="too large"):
            count_scroll_points(net)
    rng = random.Random(q)
    probe_section(net, [F.random(rng) for _ in range(6)], [F.random(rng) for _ in range(6)])
    rep = directrix_planes(net, seed=0)
    assert restricted_fiber_dim(net, rep.fibers[0], rep.planes, seed=0).dim >= 0


def test_fiber_is_kept_per_parameter(monkeypatch):
    from skewloci import linalg as linalg_module

    F = PrimeField(101)
    net = selftest.seeded_net(F, 1)
    lam = net_pfaffian_cubic(net).rational_points()[0]
    fib = scroll_fiber(net, lam)

    def refuse(*args):
        raise AssertionError("eliminated again")

    monkeypatch.setattr(linalg_module, "_rref_raw", refuse)
    assert scroll_fiber(net, lam) is fib
    assert scroll_fiber(net, [x.v for x in lam]) is fib
    assert net.fiber(tuple(lam)) is fib
    assert len(net._fibers) == 1


def test_odd_size_morphism_always_fibered():
    F = PrimeField(11)
    rng = random.Random(5)

    def skew5():
        M = [[F.zero] * 5 for _ in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                c = F.random(rng)
                M[i][j] = c
                M[j][i] = -c
        return M

    phi = GenericMorphism(F, [skew5() for _ in range(3)])
    assert (phi.n, phi.m) == (4, 3)
    for lam in ([1, 2, 3], [1, 0, 0], [0, 5, 1]):
        fib = scroll_fiber(phi, lam)
        assert fib.dim >= 1
        assert x_membership(phi, fib.rows[0])


def test_block_net_cubic_is_triangle():
    F = PrimeField(7)
    C = net_pfaffian_cubic(_block_net(F))
    # lambda1*lambda2*lambda3 sits at the single mixed monomial slot
    assert [x.v for x in C.coeffs] == [0, 0, 0, 0, 1, 0, 0, 0, 0, 0]


def test_cubic_matches_numeric_pfaffian():
    F = PrimeField(101)
    net = _random_net(F, 1)
    C = net_pfaffian_cubic(net)
    sforms = sub_pfaffian_forms(net)
    rng = random.Random(11)
    for _ in range(20):
        lam = [F.random(rng) for _ in range(3)]
        M = net.combination(lam)
        assert C.evaluate(lam) == pfaffian_oracle(M, F.zero, F.one)
        subs = sub_pfaffians_6_oracle(M, F.zero, F.one)
        for form, val in zip(sforms, subs):
            assert form.evaluate(lam) == val


def test_cubic_vanishes_at_rank2_generator():
    F = PrimeField(7)
    net = Net.from_pair_vectors(F, TYPE2_TRIPLES)
    C = net_pfaffian_cubic(net)
    assert C.evaluate([F.one, F.zero, F.zero]).is_zero()


def test_identically_zero_pfaffian_rejected():
    # all generators vanish on the last two coordinates, so every member
    # has them in its kernel and the Pfaffian is identically zero
    F = PrimeField(7)
    net = Net.from_pair_vectors(
        F, [_pairs_vec(p01=1), _pairs_vec(p02=1), _pairs_vec(p03=1)]
    )
    with pytest.raises(DegenerateInputError):
        net_pfaffian_cubic(net)


def test_count_block_net_by_inclusion_exclusion():
    # union of three coordinate 3-spaces: 3*400 - 3*8 points over F_7,
    # and the triangle cubic has 3*(7+1) - 3 rational points
    F = PrimeField(7)
    rep = count_scroll_points(_block_net(F))
    assert rep.x_count == 3 * 400 - 3 * 8
    assert rep.c_count == 3 * 8 - 3
    assert not rep.fibered
    assert not rep.ranks_all_four
    assert not rep.fibers_disjoint


def test_count_general_net_is_fibered():
    F = PrimeField(7)
    net = _random_net(F, 0)
    rep = count_scroll_points(net)
    assert rep.fibered
    assert rep.x_count == 8 * rep.c_count
    assert rep.ranks_all_four
    assert rep.fibers_disjoint


def test_count_type2_net_contains_three_space():
    F = PrimeField(7)
    rep = count_scroll_points(Net.from_pair_vectors(F, TYPE2_TRIPLES))
    assert rep.x_count >= 400
    assert not rep.ranks_all_four


def test_count_rejects_large_and_infinite_fields():
    with pytest.raises(PreconditionError):
        count_scroll_points(_block_net(PrimeField(101)))
    with pytest.raises(UnsupportedFieldError):
        count_scroll_points(_block_net(QQ))


def _all_points_minor_count(net):
    """The scan before the filtered minors: every point of P^5(F_q) is
    tested against all 20 minors of [A_1 P | A_2 P | A_3 P]."""
    import numpy as np

    q = net.field.char
    mats = [np.array([[x.v for x in row] for row in M], dtype=np.int64)
            for M in net.matrices]
    reps = np.array([
        (0,) * lead + (1,) + tail
        for lead in range(6) for tail in itertools.product(range(q), repeat=5 - lead)
    ], dtype=np.int64)
    count = 0
    for start in range(0, len(reps), SCAN_CHUNK):
        block = reps[start:start + SCAN_CHUNK]
        stacked = np.stack([(block @ A.T) % q for A in mats], axis=2)
        ok = np.ones(len(block), dtype=bool)
        for a, b, c in itertools.combinations(range(6), 3):
            Ma, Mb, Mc = stacked[:, a, :], stacked[:, b, :], stacked[:, c, :]
            det = (
                Ma[:, 0] * (Mb[:, 1] * Mc[:, 2] - Mb[:, 2] * Mc[:, 1])
                - Ma[:, 1] * (Mb[:, 0] * Mc[:, 2] - Mb[:, 2] * Mc[:, 0])
                + Ma[:, 2] * (Mb[:, 0] * Mc[:, 1] - Mb[:, 1] * Mc[:, 0])
            )
            ok &= det % q == 0
        count += int(ok.sum())
    return count


def _scan_net(kind, q, seed):
    F = PrimeField(q)
    if kind == "seeded":
        return selftest.seeded_net(F, seed)
    return _block_net(F) if kind == "block" else Net.from_pair_vectors(F, TYPE2_TRIPLES)


@pytest.mark.parametrize("kind, q, seed", [
    *(("seeded", q, s) for q in (5, 7, 11) for s in (0, 1)),
    ("block", 7, 0), ("type2", 7, 0), ("type2", 11, 0),
])
def test_filtered_minor_scan_matches_the_all_points_scan(kind, q, seed):
    net = _scan_net(kind, q, seed)
    x_count = count_scroll_points(net).x_count
    assert x_count == _all_points_minor_count(net)
    if kind == "block":
        assert x_count == 1176


def test_count_refuses_a_vanishing_pfaffian_before_scanning(monkeypatch):
    def no_scan(*args):
        raise AssertionError("counted a net without a cubic")

    # the fibre count enumerates P^2(F_q) and each kernel's points
    monkeypatch.setattr(nets_module, "projective_reps", no_scan)
    monkeypatch.setattr(nets_module, "subspace_points", no_scan)
    monkeypatch.setattr(nets_module, "_span_points", no_scan)
    net = Net.from_pair_vectors(
        PrimeField(7), [_pairs_vec(p12=1), _pairs_vec(p34=1), _pairs_vec(p25=1)]
    )
    with pytest.raises(DegenerateInputError):
        count_scroll_points(net)


def test_scroll_count_runs_no_p5_scan(monkeypatch):
    from skewloci import projective as projective_module

    nets_cases = [("seeded", 7, 0), ("seeded", 11, 1), ("block", 7, 0), ("type2", 7, 0)]
    nets = [_scan_net(*case) for case in nets_cases]
    want = [_all_points_minor_count(net) for net in nets]

    def no_scan(*args):
        raise AssertionError("scanned P^5")

    monkeypatch.setattr(projective_module, "count_common_zeros", no_scan)
    monkeypatch.setattr(projective_module, "_proj_reps_array", no_scan)
    assert [count_scroll_points(net).x_count for net in nets] == want


def _case_net(case):
    """A seeded net ("seeded", q, seed) or a corpus net ("corpus", name)."""
    if case[0] == "corpus":
        doc = json.loads((Path(nets_module.__file__).parent / "corpus" / case[1]).read_text())
        return Net.from_pair_vectors(PrimeField(int(doc["field"][1:])), doc["generators"])
    return selftest.seeded_net(PrimeField(case[1]), case[2])


@pytest.mark.parametrize("case", [("seeded", 7, 0), ("seeded", 11, 0), ("seeded", 11, 1),
                                  ("corpus", "net_type2.json")],
                         ids=["F7-s0", "F11-s0", "F11-s1", "net_type2"])
def test_scroll_count_eliminates_only_singular_members(case, monkeypatch):
    """The count takes a kernel only where Pf(A_lam) = 0, so once per point
    of the Pfaffian cubic; the parameters are found here by the recursive
    Pfaffian of each combination."""
    net = _case_net(case)
    F = net.field
    singular = [lam for lam in projective_reps(F, 3)
                if pfaffian_field(F, net.combination(lam)).is_zero()]
    calls = []
    kernel_raw = nets_module._kernel_raw
    monkeypatch.setattr(nets_module, "_kernel_raw",
                        lambda field, R: calls.append(R) or kernel_raw(field, R))
    rep = count_scroll_points(net)
    assert len(calls) == len(singular) == rep.c_count
    assert len(singular) < F.char ** 2 + F.char + 1


def test_net_analyze_leaves_numpy_unimported():
    src = Path(nets_module.__file__).parents[1]
    code = (
        "import contextlib, io, sys\n"
        "from skewloci import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['net', 'analyze', sys.argv[1]])\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    corpus = src / "skewloci" / "corpus" / "net_f11.json"
    out = subprocess.run(
        [sys.executable, "-c", code, str(corpus)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=120,
    )
    assert out.stdout.split() == ["0", "False"]


@st.composite
def _small_nets(draw):
    """A random net over F3, F5 or F7; a generator is drawn decomposable
    (rank 2, or zero and refused) often enough to reach rank-2 members and
    non-fibered loci."""
    F = PrimeField(draw(st.sampled_from((3, 5, 7))))
    vecs = []
    for _ in range(3):
        if draw(st.integers(0, 2)) == 0:
            u, v = ([draw(st.integers(0, F.char - 1)) for _ in range(6)] for _ in range(2))
            vecs.append([u[i] * v[j] - u[j] * v[i] for i, j in PAIRS])
        else:
            vecs.append([draw(st.integers(0, F.char - 1)) for _ in range(15)])
    try:
        return Net.from_pair_vectors(F, vecs)
    except PreconditionError:
        assume(False)


@settings(max_examples=40, deadline=None, database=None)
@given(_small_nets())
def test_fibre_count_matches_the_all_points_scan(net):
    try:
        rep = count_scroll_points(net)
    except DegenerateInputError:
        assume(False)
    assert rep.x_count == _all_points_minor_count(net)


def test_twin_reduction_growth_separates_codimension():
    # a surface stays inside the Hasse envelope (q+1)(q+2*ceil(sqrt(q))+1),
    # while a locus containing a 3-space dominates q^3
    counts = {}
    for q in (7, 11):
        F = PrimeField(q)
        counts[q] = (
            count_scroll_points(Net.from_pair_vectors(F, TYPE2_TRIPLES)).x_count,
            count_scroll_points(Net.from_pair_vectors(F, GENERAL_TRIPLES)).x_count,
        )
    for q in (7, 11):
        t2, gen = counts[q]
        assert t2 >= q**3
        root = 3 if q == 7 else 4
        assert gen <= (q + 1) * (q + 2 * root + 1)


def test_degree_probe_stabilizes_at_six():
    F = PrimeField(11)
    net = _random_net(F, 0)
    rep = degree_probe(net, trials=20, seed=1)
    assert rep.max_generic == 6
    assert rep.attained_six
    for t in rep.trials:
        if not t.non_generic:
            assert all(c <= 6 for c in t.counts)


def test_probe_section_through_fiber_flagged():
    F = PrimeField(11)
    net = _random_net(F, 0)
    lam0 = net_pfaffian_cubic(net).rational_points()[0]
    fib = scroll_fiber(net, lam0)
    f, g = fib.annihilator().rows[:2]
    tr = probe_section(net, f, g, seed=0)
    assert tr.non_generic
    assert tr.note == "contains-fiber"
    for e in (1, 2, 3):
        assert tr.counts[e - 1] >= 11**e + 1


def _conic_rational_point(field, Q):
    """A base-field point of a smooth conic, by sweeping pencil lines.

    The sweep probe_section ran before points_by_lines, kept as the oracle
    for the conic's first point.
    """
    for a in field.elements():
        # points (1 : a : t)
        c0 = Q.evaluate([field.one, a, field.zero])
        lin = Q.evaluate([field.one, a, field.one]) - c0
        quad = Q.coeff((0, 0, 2))
        lin = lin - quad
        p = Poly(field, [c0, lin, quad])
        if p.is_zero():
            return [field.one, a, field.zero]
        if p.degree >= 1:
            rr = roots(p, allow_extension=False, seed=0)
            if rr.pairs:
                t = rr.pairs[0][0]
                return [field.one, a, t]
    for a in field.elements():
        if Q.evaluate([field.zero, field.one, a]).is_zero():
            return [field.zero, field.one, a]
    if Q.evaluate([field.zero, field.zero, field.one]).is_zero():
        return [field.zero, field.zero, field.one]
    raise InconsistencyError("a plane conic over a finite field lost all its points")


@settings(max_examples=100, deadline=None, database=None)
@given(
    st.sampled_from([3, 5, 7, 11, 13, 49, 101, 307]),
    st.lists(st.integers(0, 306), min_size=6, max_size=6),
)
def test_conic_first_point_matches_the_line_sweep(q, coeffs):
    # probe_section takes the first point of points_by_lines on its smooth
    # incidence conic; F307 roots by factoring, the others by the scan
    F = extend_field(PrimeField(7), 2)[0] if q == 49 else PrimeField(q)
    cs = [F((c % 7, c // 7 % 7)) if q == 49 else F(c) for c in coeffs]
    assume(rank(F, _conic_matrix(F, cs)) == 3)
    Q = MPoly(F, 3, dict(zip(CONIC_MONOMIALS, cs)))
    assert next(points_by_lines(Q)) == tuple(_conic_rational_point(F, Q))


def test_degree_probe_needs_smooth_cubic():
    with pytest.raises(PreconditionError):
        degree_probe(_block_net(PrimeField(11)), trials=2, seed=0)


def test_directrix_planes_of_general_net():
    F = PrimeField(101)
    net = _random_net(F, 1)
    rep = directrix_planes(net, seed=0)
    assert len(rep.planes) == 2
    assert not rep.infinite_family
    rng = random.Random(13)
    cubic = net_pfaffian_cubic(net)
    fibers = [scroll_fiber(net, lam) for lam in cubic.rational_points()[:20]]
    for plane in rep.planes:
        assert plane.dim == 3
        # unisecant: one projective point on every sampled fiber
        for fib in fibers:
            assert meet(plane, fib).dim == 1
        # random lines of the plane belong to every generator
        from skewloci.projective import line_through

        for _ in range(10):
            u = [F.zero] * 6
            v = [F.zero] * 6
            for row in plane.rows:
                cu, cv = F.random(rng), F.random(rng)
                u = [x + cu * y for x, y in zip(u, row)]
                v = [x + cv * y for x, y in zip(v, row)]
            if rank(F, [u, v]) != 2:
                continue
            line = line_through(F, u, v)
            assert all(g.contains_line(line) for g in net.generators)


def _directrix_planes_by_points(net):
    """The rational isotropic planes by trying every point of the first fiber.

    Each point's partners on the other two fibers solve the isotropy system
    (every point of a fiber when the system vanishes).  Where the span of a
    point and its partners collapses to a line L, every point of the kernel
    N of the six forms through L is tried.
    """
    field = net.field
    f1, f2, f3 = _fiber_triple(net)
    mats = net.matrices
    planes = []

    def form(A, x, y):
        return sum((a * b for a, b in zip(x, mat_vec(A, y))), start=field.zero)

    def isotropic(basis):
        return all(form(A, x, y).is_zero() for x in basis for y in basis for A in mats)

    def partners(p, fib):
        u, v = fib.rows
        kern = kernel(field, [[form(A, p, u), form(A, p, v)] for A in mats])
        if len(kern) == 2:
            return list(subspace_points(fib))
        return [[a * x + b * y for x, y in zip(u, v)] for a, b in kern]

    def consider(p1, p2, p3):
        if not isotropic([p2, p3]):
            return
        W = Subspace(field, 6, [p1, p2, p3])
        candidates = [W]
        if W.dim < 3:
            rows = [mat_vec(A, p) for A in mats for p in (p1, p2)]
            N = Subspace(field, 6, kernel(field, rows))
            L = Subspace(field, 6, [p1, p2])
            points = subspace_points(N) if N.dim >= 3 else []
            candidates = [join(L, X) for X in (Subspace(field, 6, [x]) for x in points)
                          if meet(L, X).dim == 0]
        for W in candidates:
            if W.dim == 3 and isotropic(W.rows) and W not in planes:
                planes.append(W)

    for p1 in subspace_points(f1):
        for p2 in partners(p1, f2):
            for p3 in partners(p1, f3):
                consider(p1, p2, p3)
    return planes


# the nets include collapsed spans (F7 seed 3, F11 seeds 0 and 3) and planes
# through the root (0:1) of the first fiber (F7 seed 3, F13 seed 3)
@pytest.mark.parametrize(
    "q, seed",
    [(7, s) for s in range(9)] + [(11, s) for s in range(6)] + [(13, 3)]
    + list(selftest.DIRECTRIX_NETS),
)
def test_directrix_planes_match_the_point_search(q, seed):
    net = selftest.seeded_net(PrimeField(q), seed)
    assert directrix_planes(net, seed=0).planes == _directrix_planes_by_points(net)


@pytest.mark.parametrize("q, seed", [(11, 5), (23, 3), (23, 8)])
def test_two_planes_are_not_an_infinite_family(q, seed):
    # the first fiber has a point orthogonal to a whole second fiber
    rep = directrix_planes(selftest.seeded_net(PrimeField(q), seed), seed=0)
    assert len(rep.planes) == 2
    assert not rep.infinite_family


def test_directrix_planes_enumerate_no_fiber(monkeypatch):
    calls = []
    real = nets_module.subspace_points

    def counted(space):
        calls.append(space)
        return real(space)

    monkeypatch.setattr(nets_module, "subspace_points", counted)
    for q, seed in ((11, 0), selftest.DIRECTRIX_NETS[0]):
        rep = directrix_planes(selftest.seeded_net(PrimeField(q), seed), seed=0)
        assert len(rep.planes) == 2
    assert calls == []


def _mpoly_plane_points(field, mats, f1, f2, f3):
    """_plane_points on binary forms: the partner maps and quadratics are
    built as MPolys in (s, t) and read back with binary_form_to_poly."""
    u, v = f1.rows
    zero = MPoly.zero(field, 2)
    s_, t_ = MPoly.variable(field, 2, 0), MPoly.variable(field, 2, 1)
    X = [s_ * a + t_ * b for a, b in zip(u, v)]

    def form(A, x, y):
        return sum(((x[i] * y[j] - x[j] * y[i]) * A[i][j] for i, j in PAIRS), start=zero)

    def partner_maps(fib):
        u2, v2 = fib.rows
        rows = [[form(A, X, w) for w in (u2, v2)] for A in mats]
        return [[b * x - a * y for x, y in zip(u2, v2)] for a, b in rows
                if not (a.is_zero() and b.is_zero())]

    g, drop = None, None
    for P2 in partner_maps(f2):
        for P3 in partner_maps(f3):
            for Q in (form(A, P2, P3) for A in mats):
                if not Q.is_zero():
                    p, d = binary_form_to_poly(Q, 0, 1)
                    g, drop = (p, d) if g is None else (poly_gcd(g, p), min(drop, d))
    if g is None:
        return None
    params = [(field.one, x) for x, _ in roots(g).pairs] if g.degree >= 1 else []
    params += [(field.zero, field.one)] if drop > 0 else []
    return [[a * x + b * y for x, y in zip(u, v)] for a, b in params]


def _seeded_triples():
    for q in (7, 11, 13, 23, 101):
        for seed in range(4):
            net = selftest.seeded_net(PrimeField(q), seed)
            try:
                yield net, _fiber_triple(net)
            except DegenerateInputError:
                continue
    net = Net.from_pair_vectors(PrimeField(7), TYPE2_TRIPLES)
    yield net, _fiber_triple(net)


def test_scalar_plane_points_match_the_binary_forms():
    outcomes = set()
    for net, triple in _seeded_triples():
        field, mats = net.field, net.matrices
        got = _plane_points(field, net._raw, *triple)
        if got is not None:
            got = [_wrap(field, p) for p in got]
        assert got == _mpoly_plane_points(field, mats, *triple)
        outcomes.add(None if got is None else len(got))
    # the identically vanishing case and nets with two candidate points
    assert {None, 2} <= outcomes


def test_plane_points_build_no_binary_forms(monkeypatch):
    net = selftest.seeded_net(PrimeField(101), 1)
    triple = _fiber_triple(net)

    def refuse(*args):
        raise AssertionError("_plane_points multiplied MPolys")

    monkeypatch.setattr(MPoly, "__mul__", refuse)
    assert len(_plane_points(net.field, net._raw, *triple)) == 2


def test_directrix_planes_of_a_rank2_net_are_an_infinite_family():
    # every binary quadratic vanishes identically on the first fiber
    rep = directrix_planes(Net.from_pair_vectors(PrimeField(7), TYPE2_TRIPLES), seed=0)
    assert rep.planes == []
    assert rep.infinite_family


def test_restricted_fiber_system_has_dim_three():
    F = PrimeField(101)
    net = _random_net(F, 1)
    rep = directrix_planes(net, seed=0)
    k = rep.fibers[0]
    rrep = restricted_fiber_dim(net, k, rep.planes, seed=0)
    assert rrep.dim == 3
    assert rrep.lines_sampled == 50
    assert not rrep.any_member_contains_all
    # each member of the restricted system does contain the fiber itself
    # and all lines of both planes by construction; spot-check conditions
    for vec in rrep.basis:
        assert len(vec) == 15


def test_restricted_fiber_rejects_non_fiber_line():
    F = PrimeField(101)
    net = _random_net(F, 1)
    bogus = Subspace(
        F, 6, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]]
    )
    rep = directrix_planes(net, seed=0)
    with pytest.raises(PreconditionError):
        restricted_fiber_dim(net, bogus, rep.planes, seed=0)


def test_net_type_general():
    F = PrimeField(101)
    assert net_type(_random_net(F, 1), seed=0).kind == "general"


def test_net_type_generator_witness():
    F = PrimeField(7)
    rep = net_type(Net.from_pair_vectors(F, TYPE2_TRIPLES), seed=0)
    assert rep.kind == "contains-second-type"
    assert rep.witness_kind == "generator"
    assert rep.generator_index == 0
    assert [x.v for x in rep.witness] == [1, 0, 0]


def test_net_type_block_vertex_witness():
    F = PrimeField(7)
    rep = net_type(_block_net(F), seed=0)
    assert rep.kind == "contains-second-type"
    M = _block_net(F).combination(list(rep.witness))
    assert rank(F, M) == 2


def test_net_type_elimination_witness():
    # every generator has rank 4 but the plane still meets the rank-2 locus
    F = PrimeField(11)
    net = Net.from_pair_vectors(
        F,
        [
            _pairs_vec(p01=1, p23=1),
            _pairs_vec(p23=1, p45=1),
            _pairs_vec(p01=1, p45=1),
        ],
    )
    assert all(g.rank() == 4 for g in net.generators)
    rep = net_type(net, seed=0)
    assert rep.kind == "contains-second-type"
    assert rep.witness_kind == "elimination"
    lam = list(rep.witness)
    if rep.embedding is not None:
        net = net.map(rep.embedding)
    assert rank(rep.field, net.combination(lam)) == 2


def _net_type_by_elimination(net, seed=0):
    """net_type without the smoothness shortcut, as (kind, witness_kind,
    generator_index, witness, field, caveat): the generator check, then the
    cubic eliminated together with every nonzero kernel quadric."""
    field = net.field
    for idx, g in enumerate(net.generators):
        if g.rank() <= 2:
            lam = [field.one if t == idx else field.zero for t in range(3)]
            return ("contains-second-type", "generator", idx, lam, field, None)
    forms = [f for f in sub_pfaffian_forms(net) if not f.is_zero()]
    try:
        forms = [net_pfaffian_cubic(net).as_mpoly()] + forms
    except DegenerateInputError:
        pass
    search = common_projective_zero(field, forms, seed=seed)
    if search.found:
        witness = None if search.point is None else list(search.point)
        return ("contains-second-type", "elimination", None, witness,
                search.point_field, search.caveat)
    return ("general", None, None, None, field, None)


def _net_type_fields(rep):
    witness = None if rep.witness is None else list(rep.witness)
    return (rep.kind, rep.witness_kind, rep.generator_index, witness, rep.field, rep.caveat)


def _net_case(net):
    """rank-2 generator, rank-2 member (found only by the elimination),
    smooth (a closure-exact smooth cubic), or singular-general (a general
    net whose cubic is not certified smooth)."""
    kind, witness_kind = _net_type_by_elimination(net)[:2]
    if kind != "general":
        return f"rank-2 {witness_kind}"
    smooth = net_pfaffian_cubic(net).smoothness(seed=0)
    return "smooth" if smooth and smooth.certificate == "resultant" else "singular-general"


@st.composite
def _wedgy_nets(draw):
    """A random net over F3-F13; about a third of its generators are one
    wedge u ^ v or a sum of two.  Half the nets are then written on mixed
    generators, so a rank-2 member is not a generator and only the
    elimination finds it."""
    F = PrimeField(draw(st.sampled_from((3, 5, 7, 11, 13))))
    scalar = st.integers(0, F.char - 1)

    def wedge():
        u, v = ([draw(scalar) for _ in range(6)] for _ in range(2))
        return [u[i] * v[j] - u[j] * v[i] for i, j in PAIRS]

    vecs = []
    for _ in range(3):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            vecs.append(wedge())
        elif kind == 1:
            vecs.append([a + b for a, b in zip(wedge(), wedge())])
        else:
            vecs.append([draw(scalar) for _ in range(15)])
    if draw(st.booleans()):
        mix = [[draw(scalar) for _ in range(3)] for _ in range(3)]
        vecs = [[sum(m * v[i] for m, v in zip(row, vecs)) for i in range(15)] for row in mix]
    try:
        return Net.from_pair_vectors(F, vecs)
    except PreconditionError:
        assume(False)


@settings(max_examples=60, deadline=None, database=None)
@given(_wedgy_nets())
def test_net_type_matches_the_elimination(net):
    """Generality read off a closure-exact smooth cubic agrees with the
    elimination of the cubic and the kernel quadrics, field for field."""
    want = _net_type_by_elimination(net)
    assert _net_type_fields(net_type(net, seed=0)) == want
    try:
        event(_net_case(net))
    except DegenerateInputError:
        event("vanishing cubic")


@pytest.mark.parametrize("case", ["smooth", "singular-general", "rank-2 generator",
                                  "rank-2 elimination"])
def test_wedgy_nets_reach_every_case(case):
    find(_wedgy_nets(), lambda net: _net_case(net) == case,
         settings=settings(database=None, max_examples=300, phases=[Phase.generate]))


@pytest.mark.parametrize("case", [("seeded", 11, 0), ("seeded", 23, 8), ("seeded", 101, 1),
                                  ("corpus", "net_f11.json")],
                         ids=["F11-s0", "F23-s8", "F101-s1", "net_f11"])
def test_smooth_cubic_net_type_runs_no_elimination(case, monkeypatch):
    net = _case_net(case)

    def refuse(*args, **kwargs):
        raise AssertionError("net_type eliminated")

    monkeypatch.setattr(nets_module, "common_projective_zero", refuse)
    monkeypatch.setattr(nets_module, "sub_pfaffian_forms", refuse)
    assert net_type(net, seed=0).kind == "general"


def test_directrix_planes_draw_no_random_scalar(monkeypatch):
    nets = [_case_net(("corpus", "net_f11.json")), _case_net(("seeded", 101, 1))]

    def refuse(*args, **kwargs):
        raise AssertionError("drew a random scalar")

    monkeypatch.setattr(PrimeField, "random", refuse)
    for net in nets:
        assert len(directrix_planes(net).planes) == 2


def test_directrix_plane_certificate_fires(monkeypatch):
    # a covector pairing to the first generator's leading coefficient, 1
    net = _case_net(("corpus", "net_f11.json"))
    F = net.field
    lead = next(i for i, c in enumerate(net.generators[0].coeffs()) if not c.is_zero())
    row = [F.one if i == lead else F.zero for i in range(15)]
    monkeypatch.setattr(nets_module, "plane_pair_covectors", lambda plane: [row])
    with pytest.raises(InconsistencyError, match="exact line check"):
        directrix_planes(net)


def test_type2_locus_all_member_and_off_points_fail():
    F = PrimeField(7)
    net = Net.from_pair_vectors(F, TYPE2_TRIPLES)
    rep = type2_singular_locus_check(net, net.generators[0], seed=3)
    assert rep.checked == 400
    assert rep.all_member
    assert rep.off_checked == 50
    assert rep.off_failures == 50


def test_type2_locus_rejects_foreign_witness():
    # rank-2 complex outside the net's span
    F = PrimeField(7)
    net = Net.from_pair_vectors(F, TYPE2_TRIPLES)
    other = _block_net(F).generators[1]
    assert other.rank() == 2
    with pytest.raises(PreconditionError):
        type2_singular_locus_check(net, other, seed=0)


def test_fiber_points_are_members():
    F = PrimeField(11)
    net = _random_net(F, 0)
    cubic = net_pfaffian_cubic(net)
    for lam in cubic.rational_points()[:8]:
        fib = scroll_fiber(net, lam)
        for pt in subspace_points(fib):
            assert x_membership(net, pt)


def test_net_derived_geometry_is_built_once(monkeypatch):
    # the cubic, its points and the kernel forms belong to the net: one
    # enumeration of the cubic's points over F_101 serves the plane search,
    # two restricted fibers and an anchored copy of the cubic
    q, seed = selftest.DIRECTRIX_NETS[0]
    net = selftest.seeded_net(PrimeField(q), seed)
    assert net_pfaffian_cubic(net) is net_pfaffian_cubic(net)
    assert isinstance(sub_pfaffian_forms(net), tuple)
    assert sub_pfaffian_forms(net) is sub_pfaffian_forms(net)
    scans = []
    real = cubic_module.points_by_lines

    def counted(form):
        scans.append(form.field.order)
        return real(form)

    monkeypatch.setattr(cubic_module, "points_by_lines", counted)
    rep = directrix_planes(net, seed=0)
    for k in rep.fibers[:2]:
        assert restricted_fiber_dim(net, k, rep.planes, seed=0).dim == 3
    C = net_pfaffian_cubic(net)
    anchored = C.anchored(C.rational_points()[0])
    assert anchored.rational_points() == C.rational_points()
    assert scans == [q]


@pytest.mark.parametrize("triples", [None, TYPE2_TRIPLES], ids=["general", "type2"])
def test_rational_fibers_match_the_kernel_loop(triples):
    F = PrimeField(11)
    net = _random_net(F, 0) if triples is None else Net.from_pair_vectors(F, triples)
    expect = []
    for lam in net_pfaffian_cubic(net).rational_points():
        kern = kernel(F, net.combination(lam))
        if len(kern) == 2:
            expect.append((lam, Subspace(F, 6, kern)))
    got = list(rational_fibers(net))
    assert got == expect
    npts = len(net_pfaffian_cubic(net).rational_points())
    if triples is None:
        assert len(got) == npts
    else:
        # the rank-2 generator's point (1:0:0) has no line
        assert len(got) < npts
