"""All four nets of complexes sharing one singular scroll.

A general net induces, on its Pfaffian cubic, the hyperplane class H and
the four degree-3 classes F with 2F = 2H (one per rational 2-torsion
class).  For each F and each curve point k there is a unique complex
with singular line at k that contains the scroll lines of the four double
points of the residual pencil |F - k| together with all lines of both
unisecant planes; letting k run over the curve sweeps out a plane cubic
of complexes, and its span is a companion net with the same scroll.  The
torsion-zero branch must reproduce the input net, which is the strongest
internal consistency check of the whole chain.
"""

from __future__ import annotations

import itertools
import random

from .complexes import LinearComplex, special_fiber
from .cubic import (
    DivisorClass,
    PlaneCubic,
    _chord,
    _norm_point,
    class_add,
    class_eq,
    class_of,
    halvings,
    hyperplane_class,
    polar_contact,
    two_torsion,
)
from .errors import (
    DegenerateInputError,
    InconsistencyError,
    PreconditionError,
    UnsupportedFieldError,
)
from .linalg import kernel, mat_mul, mat_vec, rank, transpose
from .nets import (
    Net,
    directrix_planes,
    net_pfaffian_cubic,
    net_type,
    plane_pair_covectors,
    scroll_fiber,
    sub_pfaffian_forms,
    x_membership,
)
from .projective import (
    Subspace,
    line_through,
    meet,
    normalize_projective,
    pluecker_of_line,
    subspace_points,
)


def _halving_target(C: PlaneCubic, F: DivisorClass, k) -> DivisorClass:
    """The degree-0 class F - k - 2O, as [R] - [O] with R = k*(F.rep*O).

    The lines through F.rep and O, and through k and F.rep*O, give
    [k] + [F.rep*O] + [R] ~ [F.rep] + [O] + [F.rep*O].  F.rep and k are
    checked on the curve once; F.rep*O and the base point are not re-checked.
    """
    inner = _chord(C, _norm_point(C, F.rep), C.base_point)
    return DivisorClass(C, 0, _chord(C, _norm_point(C, k), inner))


class GammaReport:
    """The unique complex through the four double-point lines at k."""

    __slots__ = ("complex", "halving_points", "pencil_dim", "line_rank")

    def __init__(self, complex, halving_points, pencil_dim, line_rank):
        self.complex = complex
        self.halving_points = halving_points
        self.pencil_dim = pencil_dim
        self.line_rank = line_rank

    def __repr__(self):
        return f"GammaReport(line_rank={self.line_rank})"


def gamma_k(net: Net, F: DivisorClass, k, planes=None) -> GammaReport:
    """Solve for the complex at k determined by a degree-3 class F.

    The four double points of the residual pencil |F - k| give four scroll
    lines; their containment conditions are imposed on the 4-dimensional
    system of complexes singular along k's line that contain all lines of
    both unisecant planes.  The four conditions carry one forced relation,
    so the solution is a single projective point.  Double points that are
    not all rational are refused.
    """
    field = net.field
    if F.degree != 3:
        raise PreconditionError("the series must have degree 3")
    C = F.curve
    if C.base_point is None:
        raise PreconditionError("the class needs an anchored curve")
    if C.coeffs != net_pfaffian_cubic(net).coeffs:
        raise PreconditionError("the divisor class lives on a different cubic")
    k = tuple(field(x) for x in k)
    if not C.contains(list(k)):
        raise PreconditionError("k is not on the Pfaffian cubic")
    lk = net.fiber(k)
    if lk.dim != 2:
        raise PreconditionError("k must be a rank-4 point of the net")
    if planes is None:
        planes = directrix_planes(net).planes
    if len(planes) != 2:
        raise DegenerateInputError(
            "both unisecant planes must be defined over the base field"
        )

    zs = halvings(C, _halving_target(C, F, k))
    if len(zs) != 4:
        raise UnsupportedFieldError(
            "the four double points are not rational over the base field"
        )

    lines = [scroll_fiber(net, list(z)) for z in zs]
    Bt = transpose(special_fiber(field, lk).rows)

    plane_conds = plane_pair_covectors(planes[0]) + plane_pair_covectors(planes[1])
    line_conds = [pluecker_of_line(l) for l in lines]
    conds = mat_mul(plane_conds + line_conds, Bt)
    lemma = kernel(field, conds[:len(plane_conds)])
    pencil = kernel(field, conds[len(plane_conds):])
    sol = kernel(field, conds)
    if len(sol) != 1:
        raise InconsistencyError(
            "expected a unique complex at k: solution dimension %d, "
            "plane-restricted dimension %d, line-only dimension %d"
            % (len(sol), len(lemma), len(pencil))
        )
    gamma = LinearComplex.from_pairs(field, mat_vec(Bt, sol[0]))
    return GammaReport(gamma, zs, len(pencil), len(lemma) - len(sol))


class CrossCheck:
    """Sampled two-way membership evidence between two scrolls."""

    __slots__ = ("forward_checked", "backward_checked", "forward_ok", "backward_ok")

    def __init__(self, forward_checked, backward_checked, forward_ok, backward_ok):
        self.forward_checked = forward_checked
        self.backward_checked = backward_checked
        self.forward_ok = forward_ok
        self.backward_ok = backward_ok

    @property
    def ok(self):
        return self.forward_ok and self.backward_ok

    def __repr__(self):
        return f"CrossCheck(ok={self.ok})"


class FourNetsReport:
    __slots__ = (
        "input_net", "torsion_classes_found", "companion_nets", "spans",
        "self_recovered", "all_general", "pairwise_distinct",
        "cross_verification", "field_escalations",
    )

    def __init__(self, input_net, torsion_classes_found, companion_nets, spans,
                 self_recovered, all_general, pairwise_distinct,
                 cross_verification, field_escalations):
        self.input_net = input_net
        self.torsion_classes_found = torsion_classes_found
        self.companion_nets = companion_nets
        self.spans = spans
        self.self_recovered = self_recovered
        self.all_general = all_general
        self.pairwise_distinct = pairwise_distinct
        self.cross_verification = cross_verification
        self.field_escalations = field_escalations

    @property
    def complete(self):
        return (
            len(self.companion_nets) == 4
            and self.self_recovered
            and self.all_general
            and self.pairwise_distinct
            and all(c.ok for c in self.cross_verification)
        )

    def __repr__(self):
        return (
            f"FourNetsReport({len(self.companion_nets)} nets, "
            f"self_recovered={self.self_recovered})"
        )


def _scroll_sample(net, count):
    """Rational scroll points collected fiber by fiber."""
    out = []
    for lam in net_pfaffian_cubic(net).iter_points():
        for pt in subspace_points(scroll_fiber(net, list(lam))):
            out.append(pt)
            if len(out) >= count:
                return out
    return out


def companion_nets(net: Net, samples_per_class: int = 6, cross_samples: int = 50,
                   seed: int = 0) -> FourNetsReport:
    """Construct the nets of every rational torsion branch and verify them.

    Each branch spans the complexes gamma_k over at least six sampled k;
    the span must be a plane (a net).  The torsion-zero branch is compared
    with the input net, every companion is classified, and scroll points
    are cross-checked in both directions.
    """
    field = net.field
    if field.order is None:
        raise UnsupportedFieldError("the pipeline runs over finite fields")
    if field.char == 2:
        raise UnsupportedFieldError("odd characteristic required")
    if net_type(net, seed=seed).kind != "general":
        raise PreconditionError("the input net must be general")
    cubic0 = net_pfaffian_cubic(net)
    if not cubic0.smoothness(seed=seed).smooth:
        raise PreconditionError("the Pfaffian cubic must be smooth")
    O = cubic0.rational_points()[0]
    C = cubic0.anchored(O)
    drep = directrix_planes(net)
    if len(drep.planes) != 2:
        raise DegenerateInputError(
            "both unisecant planes must be defined over the base field"
        )
    planes = drep.planes
    tors = two_torsion(C)
    H = hyperplane_class(C)
    escalations = []
    branch_spans = []
    companions = []
    for T in tors.classes:
        F_T = class_add(H, T)
        gammas = []
        for k in C.rational_points():
            if len(gammas) >= samples_per_class:
                break
            try:
                g = gamma_k(net, F_T, k, planes=planes)
            except UnsupportedFieldError:
                escalations.append((tuple(T.rep), tuple(k), "irrational-doubles"))
                continue
            gammas.append(g)
        if len(gammas) < samples_per_class:
            escalations.append((tuple(T.rep), None, "insufficient-samples"))
            continue
        rows = [list(g.complex.coeffs()) for g in gammas]
        span = Subspace(field, 15, rows)
        if span.dim != 3:
            raise InconsistencyError(
                "gamma span of torsion branch has dimension %d, expected a net"
                % span.dim
            )
        branch_spans.append((T, span))
        companions.append(Net.from_pair_vectors(field, [list(r) for r in span.rows]))

    input_span = Subspace(field, 15, [list(g.coeffs()) for g in net.generators])
    self_recovered = False
    for (T, span), comp in zip(branch_spans, companions):
        if T.rep == O and span == input_span:
            self_recovered = True
    all_general = all(
        net_type(comp, seed=seed).kind == "general" for comp in companions
    )
    pairwise_distinct = all(
        a != b for (_, a), (_, b) in itertools.combinations(branch_spans, 2)
    )
    own_points = _scroll_sample(net, cross_samples)
    cross = []
    for comp in companions:
        comp_points = _scroll_sample(comp, cross_samples)
        fwd = all(x_membership(comp, pt) for pt in own_points)
        bwd = all(x_membership(net, pt) for pt in comp_points)
        cross.append(CrossCheck(len(own_points), len(comp_points), fwd, bwd))
    return FourNetsReport(
        net, len(tors.classes), companions, [s for _, s in branch_spans],
        self_recovered, all_general, pairwise_distinct, cross, escalations,
    )


class SeriesReport:
    """Evidence for the pullback and sum-series identities."""

    __slots__ = (
        "pullback_checked", "pullback_ok", "sum_trials", "sum_ok", "polar_ok",
    )

    def __init__(self, pullback_checked, pullback_ok, sum_trials, sum_ok, polar_ok):
        self.pullback_checked = pullback_checked
        self.pullback_ok = pullback_ok
        self.sum_trials = sum_trials
        self.sum_ok = sum_ok
        self.polar_ok = polar_ok

    def __repr__(self):
        return (
            f"SeriesReport(pullback={self.pullback_ok}, sum={self.sum_ok}, "
            f"polar={self.polar_ok})"
        )


def series_identities(net: Net, trials: int = 10, seed: int = 0) -> SeriesReport:
    """Check the degree-2 pullback and the two-plane sum-series identity.

    (a) On sampled cubic points the 15 kernel-direction quadrics evaluate
    to the Pluecker vector of the fiber, so hyperplanes pull back to twice
    the plane class.  (b) Random lines inside the two unisecant planes cut
    the directrix curves in triples whose transported sum is the class of
    two plane sections.  (c) The polar-conic residual at a suitable point
    matches the four double points of the hyperplane series.

    These are the paper's identities on which the construction of the four
    companion nets rests; this function states them on a given net.
    """
    field = net.field
    if field.order is None:
        raise UnsupportedFieldError("the identities are sampled over finite fields")
    cubic0 = net_pfaffian_cubic(net)
    if not cubic0.smoothness(seed=seed).smooth:
        raise PreconditionError("the Pfaffian cubic must be smooth")
    O = cubic0.rational_points()[0]
    C = cubic0.anchored(O)
    pts = C.rational_points()
    sforms = sub_pfaffian_forms(net)

    pullback_checked = 0
    pullback_ok = True
    for lam in pts[:20]:
        svec = [f.evaluate(list(lam)) for f in sforms]
        plk = pluecker_of_line(scroll_fiber(net, list(lam)))
        if normalize_projective(svec) != normalize_projective(plk):
            pullback_ok = False
        pullback_checked += 1

    drep = directrix_planes(net)
    if len(drep.planes) != 2:
        raise DegenerateInputError(
            "both unisecant planes must be defined over the base field"
        )
    H = hyperplane_class(C)
    HH = class_add(H, H)
    fibers = {lam: scroll_fiber(net, list(lam)) for lam in pts}

    def transported_triple(plane, rng):
        # a line in the plane through two random directrix points, kept
        # only when it cuts the directrix curve in three rational points
        gamma_pts = {lam: meet(fibers[lam], plane).rows[0] for lam in pts}
        for _ in range(40):
            la, lb = rng.sample(list(pts), 2)
            za, zb = gamma_pts[la], gamma_pts[lb]
            if rank(field, [za, zb]) != 2:
                continue
            r = line_through(field, za, zb)
            hits = [lam for lam in pts if meet(fibers[lam], r).dim >= 1]
            if len(hits) == 3:
                return hits
        return None

    rng = random.Random(seed)
    sum_trials = 0
    sum_ok = True
    for _ in range(trials):
        ta = transported_triple(drep.planes[0], rng)
        tb = transported_triple(drep.planes[1], rng)
        if ta is None or tb is None:
            continue
        D = class_of(C, [(lam, 1) for lam in ta + tb])
        if not class_eq(D, HH):
            sum_ok = False
        sum_trials += 1

    polar_ok = None
    for k in pts:
        zs = halvings(C, _halving_target(C, H, k))
        if len(zs) != 4 or tuple(k) in zs:
            continue
        pc = polar_contact(C, list(k), seed=seed)
        simple = all(e.multiplicity == 1 for e in pc.residual)
        covered = all(any(e.matches(list(z)) for e in pc.residual) for z in zs)
        polar_ok = simple and len(pc.residual) == 4 and covered
        break
    return SeriesReport(pullback_checked, pullback_ok, sum_trials, sum_ok, polar_ok)
