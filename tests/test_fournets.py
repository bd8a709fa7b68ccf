"""Companion nets, gamma complexes, and the series identities."""

import functools
import random

import pytest

from skewloci.complexes import GenericMorphism
from skewloci.cubic import (
    DivisorClass,
    add_points,
    class_add,
    class_eq,
    class_of,
    halvings,
    hyperplane_class,
    neg_point,
    third_point,
    two_torsion,
)
from skewloci.errors import (
    DegenerateInputError,
    PreconditionError,
    UnsupportedFieldError,
)
from skewloci.fields import QQ, PrimeField
from skewloci.fournets import (
    _halving_target,
    _scroll_sample,
    companion_nets,
    gamma_k,
    series_identities,
)
from skewloci.nets import Net, directrix_planes, net_pfaffian_cubic, net_type, scroll_fiber
from skewloci.polys import MPoly, points_by_lines
from skewloci.projective import subspace_points


def class_neg(a):
    return DivisorClass(a.curve, -a.degree, neg_point(a.curve, a.rep))


def _pairs_vec(**kw):
    names = [
        "p01", "p02", "p03", "p04", "p05", "p12", "p13", "p14", "p15",
        "p23", "p24", "p25", "p34", "p35", "p45",
    ]
    return [kw.get(n, 0) for n in names]


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


@functools.lru_cache(maxsize=None)
def _main():
    # general net over F_23 whose cubic has 24 points and full 2-torsion
    F = PrimeField(23)
    net = _random_net(F, 8)
    C0 = net_pfaffian_cubic(net)
    C = C0.anchored(C0.rational_points()[0])
    H = hyperplane_class(C)
    planes = directrix_planes(net, seed=0).planes
    return net, C, H, planes


@functools.lru_cache(maxsize=None)
def _main_report():
    net, _, _, _ = _main()
    return companion_nets(net, seed=0)


def _good_points(C, H):
    return [
        k for k in C.rational_points()
        if len(halvings(C, _halving_target(C, H, k))) == 4
    ]


def test_halvings_on_the_companion_cubic_match_the_point_scan():
    _, C, H, _ = _main()
    pts = C.rational_points()
    targets = [C.base_point] + [_halving_target(C, H, k).rep for k in pts[::3]]
    for R in targets:
        scan = {P for P in pts if add_points(C, P, P) == R}
        assert set(halvings(C, DivisorClass(C, 0, R))) == scan


def test_gamma_recovers_member_at_every_solvable_point():
    net, C, H, planes = _main()
    goods = _good_points(C, H)
    assert len(goods) == 6
    for k in goods:
        g = gamma_k(net, H, k, planes=planes)
        assert len(g.halving_points) == 4
        assert g.pencil_dim == 3
        assert g.line_rank == 3
        assert g.complex.coeffs() == net.member(list(k)).coeffs()


def test_gamma_reads_the_fiber_not_the_combination(monkeypatch):
    net, C, H, planes = _main()
    fresh = _random_net(PrimeField(23), 8)
    k = _good_points(C, H)[0]

    def refuse(self, lam):
        raise AssertionError("gamma_k built the combination")

    monkeypatch.setattr(GenericMorphism, "combination", refuse)
    g = gamma_k(fresh, H, k)
    assert fresh.fiber(k).dim == 2
    monkeypatch.undo()
    assert g.complex.coeffs() == net.member(list(k)).coeffs()


def test_gamma_substitutes_nothing(monkeypatch):
    """On criterion 11's net, gamma_k and the halvings of every k run with
    MPoly.substitute refused."""
    net, C, H, planes = _main()

    def refuse(*args):
        raise AssertionError("substituted into a form")

    monkeypatch.setattr(MPoly, "substitute", refuse)
    goods = _good_points(C, H)
    assert len(goods) == 6
    for k in goods:
        g = gamma_k(net, H, k, planes=planes)
        assert g.complex.coeffs() == net.member(list(k)).coeffs()


def test_gamma_halving_points_double_to_residual_class():
    net, C, H, planes = _main()
    k = _good_points(C, H)[0]
    g = gamma_k(net, H, k, planes=planes)
    for z in g.halving_points:
        assert C.contains(list(z))
        assert class_eq(class_of(C, [(z, 2), (tuple(k), 1)]), H)


def test_companion_report_is_complete():
    rep = _main_report()
    assert rep.complete
    assert rep.torsion_classes_found == 4
    assert len(rep.companion_nets) == 4
    assert rep.self_recovered
    assert rep.all_general
    assert rep.pairwise_distinct
    for c in rep.cross_verification:
        assert c.ok
        assert c.forward_checked == 50
        assert c.backward_checked == 50


def test_companion_spans_are_planes_of_complexes():
    rep = _main_report()
    assert len(rep.spans) == 4
    for s in rep.spans:
        assert s.n == 15
        assert s.dim == 3
    assert len(set(rep.spans)) == 4


def test_escalation_log_entries_are_well_formed():
    rep = _main_report()
    _, C, _, _ = _main()
    assert len(rep.field_escalations) > 0
    pts = set(C.rational_points())
    for trep, k, tag in rep.field_escalations:
        assert tag == "irrational-doubles"
        assert k in pts
        assert trep in pts


def test_pipeline_is_idempotent_on_a_companion():
    rep = _main_report()
    rep2 = companion_nets(rep.companion_nets[1], seed=0)
    assert rep2.complete
    assert set(rep2.spans) == set(rep.spans)


def test_series_identities_hold():
    net, _, _, _ = _main()
    srep = series_identities(net, trials=10, seed=0)
    assert srep.pullback_ok
    assert srep.pullback_checked == 20
    assert srep.sum_ok
    assert srep.sum_trials >= 5
    assert srep.polar_ok is True


def _anchored_hyperplane(q, seed):
    net = _random_net(PrimeField(q), seed)
    C0 = net_pfaffian_cubic(net)
    C = C0.anchored(C0.rational_points()[0])
    return net, C, hyperplane_class(C)


def test_gamma_refuses_irrational_double_points():
    net, C, H, planes = _main()
    k = next(
        k for k in C.rational_points()
        if len(halvings(C, _halving_target(C, H, k))) == 0
    )
    with pytest.raises(UnsupportedFieldError, match="not rational"):
        gamma_k(net, H, k, planes=planes)
    # two F7 points whose four double points are not all rational
    for seed, k in [(16, (1, 1, 4)), (8, (1, 0, 3))]:
        net, C, H = _anchored_hyperplane(7, seed)
        assert len(halvings(C, _halving_target(C, H, k))) == 0
        with pytest.raises(UnsupportedFieldError, match="not rational"):
            gamma_k(net, H, k)


# smooth seeded cubics, one per field, each with four rational 2-torsion classes
_ORACLE_NETS = [(7, 0), (11, 0), (23, 8), (101, 1)]


@pytest.mark.parametrize("q,seed", _ORACLE_NETS, ids=[f"F{q}s{s}" for q, s in _ORACLE_NETS])
def test_group_law_shortcuts_match_the_class_chains(q, seed):
    """Each group-law closed form against the general class arithmetic."""
    _, C, H = _anchored_hyperplane(q, seed)
    O = C.base_point
    pts = C.rational_points()
    assert class_eq(H, class_of(C, [(O, 2), (third_point(C, O, O), 1)]))
    for T in two_torsion(C).classes:
        F = class_add(H, T)
        for k in pts:
            old = class_add(F, class_neg(class_of(C, [(k, 1), (O, 2)])))
            assert class_eq(_halving_target(C, F, k), old)
    # the halving certificate: 2P = R exactly when P*P = R*O
    for P in pts:
        double, tangent = add_points(C, P, P), third_point(C, P, P)
        for R in pts[:8] + [double]:
            assert (double == R) == (tangent == third_point(C, R, O))


def test_gamma_rejects_wrong_degree_class():
    net, C, H, planes = _main()
    k = _good_points(C, H)[0]
    D2 = class_of(C, [(C.base_point, 2)])
    with pytest.raises(PreconditionError, match="degree 3"):
        gamma_k(net, D2, k, planes=planes)


def test_gamma_rejects_unanchored_curve():
    net, C, H, planes = _main()
    C0 = net_pfaffian_cubic(net)
    F3 = DivisorClass(C0, 3, C.base_point)
    with pytest.raises(PreconditionError, match="anchored"):
        gamma_k(net, F3, C.base_point, planes=planes)


def test_gamma_rejects_class_on_foreign_cubic():
    net, C, H, planes = _main()
    other = _random_net(PrimeField(23), 9)
    D0 = net_pfaffian_cubic(other)
    D = D0.anchored(D0.rational_points()[0])
    with pytest.raises(PreconditionError, match="different cubic"):
        gamma_k(net, hyperplane_class(D), D.base_point, planes=planes)


def test_gamma_rejects_point_off_the_cubic():
    net, C, H, planes = _main()
    F = net.field
    off = next(
        p for p in [(F(1), F(0), F(0)), (F(1), F(1), F(0)), (F(1), F(0), F(1))]
        if not C.contains(list(p))
    )
    with pytest.raises(PreconditionError, match="not on"):
        gamma_k(net, H, off, planes=planes)


def test_gamma_rejects_low_rank_point():
    F = PrimeField(23)
    net = _block_net(F)
    C0 = net_pfaffian_cubic(net)
    O = (F(1), F(0), F(0))
    C = C0.anchored(O)
    F3 = DivisorClass(C, 3, O)
    with pytest.raises(PreconditionError, match="rank-4"):
        gamma_k(net, F3, O)


def test_gamma_rejects_single_plane():
    net, C, H, planes = _main()
    k = _good_points(C, H)[0]
    with pytest.raises(DegenerateInputError, match="unisecant"):
        gamma_k(net, H, k, planes=[planes[0]])


def test_companion_rejects_nongeneral_net():
    with pytest.raises(PreconditionError, match="general"):
        companion_nets(_block_net(PrimeField(23)))


def test_companion_rejects_singular_cubic():
    net = _random_net(PrimeField(7), 4)
    assert net_type(net).kind == "general"
    with pytest.raises(PreconditionError, match="smooth"):
        companion_nets(net)


def test_companion_rejects_irrational_planes():
    net = _random_net(PrimeField(7), 0)
    with pytest.raises(DegenerateInputError, match="unisecant"):
        companion_nets(net)


def test_companion_rejects_unsupported_fields():
    with pytest.raises(UnsupportedFieldError, match="characteristic 2"):
        companion_nets(_block_net(PrimeField(2)))
    with pytest.raises(UnsupportedFieldError, match="finite"):
        companion_nets(_block_net(QQ))


def test_series_rejects_singular_cubic():
    with pytest.raises(PreconditionError, match="smooth"):
        series_identities(_block_net(PrimeField(23)))


def _scroll_sample_oracle(net, count):
    """The eager walk: the cubic's whole point list first, then the fibres."""
    out = []
    for lam in net_pfaffian_cubic(net).rational_points():
        for pt in subspace_points(scroll_fiber(net, list(lam))):
            out.append(pt)
            if len(out) >= count:
                return out
    return out


@pytest.mark.parametrize("count", [50, 250])
def test_scroll_sample_walks_the_cubic_lazily(count):
    F = PrimeField(101)
    net = _random_net(F, 3)
    got = _scroll_sample(net, count)
    assert got == _scroll_sample_oracle(_random_net(F, 3), count)
    C = net_pfaffian_cubic(net)
    assert C._points is None
    assert len(C._sweep[0]) < len(list(points_by_lines(C.as_mpoly())))
