"""Nets of linear line complexes and the degeneracy scroll they cut out.

A net is a plane of skew forms on k^6; its rank-drop locus in P^5 is a
surface fibered in lines over the plane Pfaffian cubic.  This module gives
exact membership and fiber extraction for arbitrary skew morphisms, the
Pfaffian cubic itself, exhaustive point counts over small prime fields,
degree evidence from random 3-space sections, the unisecant planes, the
restricted complex systems along a fiber, and the rank-2 classification of
the net with its singular-locus consequence.
"""

from __future__ import annotations

import itertools
import random

from .complexes import (
    ComplexSystem,
    LinearComplex,
    pfaffian_args,
    pfaffian_form,
    special_fiber,
)
from .cubic import (
    CONIC_MONOMIALS,
    PlaneCubic,
    _conic_matrix,
    _stereographic_pullback,
)
from .errors import (
    DegenerateInputError,
    InconsistencyError,
    PreconditionError,
    UnsupportedFieldError,
)
from .fields import factor, poly_gcd, roots
from .linalg import (
    PAIRS,
    identity,
    kernel,
    mat_mul,
    mat_vec,
    rank,
    sub_pfaffians_6,
    transpose,
)
from .polys import MPoly, binary_form_to_poly, common_projective_zero, points_by_lines
from .projective import (
    Subspace,
    line_through,
    meet,
    pluecker_of_line,
    random_vector,
    subspace_points,
)

EXHAUSTIVE_PRIME_CAP = 11
# rows of P^5(F_q) per slice in count_scroll_points
SCAN_CHUNK = 1 << 14


def _form_value(A, x, y, zero):
    """x^T A y for a skew A; x, y hold scalars or binary forms (x forms if y holds forms)."""
    return sum(((x[i] * y[j] - x[j] * y[i]) * A[i][j] for i, j in PAIRS), start=zero)


class Net(ComplexSystem):
    """Three independent complexes spanning a plane in the dual 14-space.

    The net is the morphism O^3 -> Omega(2) of its generators' normalized
    matrices.  Its Pfaffian cubic and kernel forms are computed on first use
    and kept (see net_pfaffian_cubic and sub_pfaffian_forms).
    """

    __slots__ = ("_cubic", "_sforms")
    arity = 3

    def __init__(self, field, *generators):
        super().__init__(field, *generators)
        self._cubic = None
        self._sforms = None


def x_membership(phi, P) -> bool:
    """Whether some combination of the matrices kills the point.

    Equivalent to the stacked column matrix [A_1 P | ... | A_m P] having rank
    at most m - 1.
    """
    field = phi.field
    pt = [field(x) for x in P]
    if len(pt) != phi.n + 1:
        raise PreconditionError("point length does not match the matrix size")
    if all(x.is_zero() for x in pt):
        raise PreconditionError("zero coordinate vector")
    cols = [mat_vec(A, pt) for A in phi.matrices]
    rows = [[col[i] for col in cols] for i in range(phi.n + 1)]
    return rank(field, rows) <= phi.m - 1


def scroll_fiber(phi, lam) -> Subspace:
    """The projective kernel of the combination at lam."""
    field = phi.field
    M = phi.combination(lam)
    kern = kernel(field, M)
    if not kern:
        if (phi.n + 1) % 2 == 0:
            raise PreconditionError(
                "the combination is nonsingular: the parameter misses the "
                "Pfaffian hypersurface"
            )
        raise InconsistencyError("odd-size skew matrix with trivial kernel")
    return Subspace(field, phi.n + 1, kern)


def net_pfaffian_cubic(net: Net) -> PlaneCubic:
    """The ternary cubic equal to the Pfaffian of the net's combinations.

    Built once per net; the same object (with its cached points) is returned
    on every later call.
    """
    if net._cubic is None:
        P = pfaffian_form(net)
        if P.is_zero():
            raise DegenerateInputError("the net's Pfaffian vanishes identically")
        net._cubic = PlaneCubic.from_mpoly(P)
    return net._cubic


def sub_pfaffian_forms(net: Net):
    """The 15 quadratic forms in lam giving the kernel direction of a combination.

    Built once per net and returned as a tuple.
    """
    if net._sforms is None:
        net._sforms = tuple(sub_pfaffians_6(*pfaffian_args(net)))
    return net._sforms


def rational_fibers(net: Net):
    """Yield (lam, line) for each rational point lam of the Pfaffian cubic
    whose combination has rank 4, in rational_points order; line is the
    combination's kernel, the scroll's fiber over lam."""
    field = net.field
    for lam in net_pfaffian_cubic(net).rational_points():
        kern = kernel(field, net.combination(lam))
        if len(kern) == 2:
            yield lam, Subspace(field, 6, kern)


def _proj_reps_array(q: int, n: int):
    import numpy as np

    blocks = []
    for lead in range(n):
        free = n - lead - 1
        if free == 0:
            block = np.zeros((1, n), dtype=np.int64)
            block[0, lead] = 1
        else:
            grids = np.indices((q,) * free).reshape(free, -1).T
            block = np.zeros((len(grids), n), dtype=np.int64)
            block[:, lead] = 1
            block[:, lead + 1 :] = grids
        blocks.append(block)
    return np.vstack(blocks)


class ScrollCountReport:
    """Exhaustive point counts of the degeneracy locus and its base cubic."""

    __slots__ = (
        "q", "x_count", "c_count", "fibered", "ranks_all_four", "fibers_disjoint",
    )

    def __init__(self, q, x_count, c_count, fibered, ranks_all_four, fibers_disjoint):
        self.q = q
        self.x_count = x_count
        self.c_count = c_count
        self.fibered = fibered
        self.ranks_all_four = ranks_all_four
        self.fibers_disjoint = fibers_disjoint

    def __repr__(self):
        return (
            f"ScrollCountReport(q={self.q}, x={self.x_count}, c={self.c_count}, "
            f"fibered={self.fibered})"
        )


def count_scroll_points(net: Net) -> ScrollCountReport:
    """Scan all points of P^5(F_q) for membership and compare with the cubic.

    fibered is the exact statement x_count = (q+1) * c_count; the two reported
    side conditions (every rational cubic point has rank exactly 4, no two
    fibers share a rational point) are what make it the expected outcome.
    """
    import numpy as np

    field = net.field
    if field.order is None:
        raise UnsupportedFieldError("exhaustive counting needs a finite field")
    if field.degree != 1 or field.char > EXHAUSTIVE_PRIME_CAP:
        raise PreconditionError(
            "field too large for exhaustive mode (prime fields up to q = 11)"
        )
    q = field.char
    mats = [
        np.array([[x.v for x in row] for row in M], dtype=np.int64)
        for M in net.matrices
    ]
    reps = _proj_reps_array(q, 6)
    x_count = 0
    # slices of SCAN_CHUNK points bound the temporaries' memory
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
        x_count += int(ok.sum())
    c_count = len(net_pfaffian_cubic(net).rational_points())
    fibers = [line for _, line in rational_fibers(net)]
    # on the cubic the rank is at most 4, and exactly 4 iff the kernel is a line
    ranks_all_four = len(fibers) == c_count
    fibers_disjoint = all(
        meet(a, b).dim == 0 for a, b in itertools.combinations(fibers, 2)
    )
    fibered = x_count == (q + 1) * c_count
    return ScrollCountReport(q, x_count, c_count, fibered, ranks_all_four, fibers_disjoint)


class ProbeTrial:
    """Counts of fiber incidences with one random 3-space, per field level."""

    __slots__ = ("counts", "best", "non_generic", "note")

    def __init__(self, counts, best, non_generic, note):
        self.counts = counts
        self.best = best
        self.non_generic = non_generic
        self.note = note

    def __repr__(self):
        return f"ProbeTrial(counts={self.counts}, non_generic={self.non_generic})"


class DegreeProbeReport:
    __slots__ = ("trials", "max_generic", "attained_six")

    def __init__(self, trials, max_generic, attained_six):
        self.trials = trials
        self.max_generic = max_generic
        self.attained_six = attained_six

    def __repr__(self):
        return f"DegreeProbeReport(max={self.max_generic}, six={self.attained_six})"


def _count_levels(facs, drop):
    """Distinct projective roots per extension level, from factor degrees."""
    n = {1: 0, 2: 0, 3: 0}
    seen = set()
    rational = []
    for fac, _mult in facs:
        key = tuple(fac.c)
        if key in seen:
            continue
        seen.add(key)
        d = fac.degree
        if d in n:
            n[d] += 1
        if d == 1:
            rational.append(-fac.c[0] / fac.c[1])
    counts = {}
    base = n[1] + (1 if drop > 0 else 0)
    counts[1] = base
    counts[2] = base + 2 * n[2]
    counts[3] = base + 3 * n[3]
    return counts, rational


def probe_section(net: Net, f, g, seed: int = 0) -> ProbeTrial:
    """Count scroll points on the 3-space {f = g = 0} over F_q, F_{q^2}, F_{q^3}.

    The 3-space meets a fiber exactly when the incidence quadric built from
    f wedge g and the kernel-direction forms vanishes, so the count reduces
    to conic-meets-cubic in the net plane; a rational conic point turns the
    intersection into a binary sextic whose factor degrees give the counts
    at every level at once.
    """
    field = net.field
    q = field.order
    f = [field(x) for x in f]
    g = [field(x) for x in g]
    if rank(field, [f, g]) != 2:
        raise PreconditionError("the section needs two independent linear forms")
    wdual = [f[i] * g[j] - f[j] * g[i] for i, j in PAIRS]
    Q = MPoly.zero(field, 3)
    for w, s in zip(wdual, sub_pfaffian_forms(net)):
        if not w.is_zero():
            Q = Q + s * MPoly.constant(field, 3, w)
    if Q.is_zero():
        return ProbeTrial(None, None, True, "incidence-quadric-vanished")
    conic = tuple(Q.coeff(e) for e in CONIC_MONOMIALS)
    M = _conic_matrix(field, conic)
    if rank(field, M) < 3:
        return ProbeTrial(None, None, True, "degenerate-conic")
    p = next(points_by_lines(Q), None)
    if p is None:
        raise InconsistencyError("a plane conic over a finite field lost all its points")
    (puni, drop), _, param_point = _stereographic_pullback(net_pfaffian_cubic(net), M, p)
    facs = factor(puni, seed=seed) if puni.degree >= 1 else []
    counts, rational = _count_levels(facs, drop)
    non_generic = False
    note = None
    params = [(field.one, r) for r in rational]
    if drop > 0:
        params.append((field.zero, field.one))
    for alpha, beta in params:
        lam = param_point(alpha, beta)
        kern = kernel(field, net.combination(lam))
        if len(kern) != 2:
            non_generic = True
            note = "rank-2-member"
            continue
        fib = Subspace(field, 6, kern)
        if all(x.is_zero() for row in mat_mul(fib.rows, transpose([f, g])) for x in row):
            non_generic = True
            note = "contains-fiber"
            for e in counts:
                counts[e] += q ** e
    best = max(counts.values())
    return ProbeTrial((counts[1], counts[2], counts[3]), best, non_generic, note)


def degree_probe(net: Net, trials: int = 20, seed: int = 0) -> DegreeProbeReport:
    """Count fiber incidences with random 3-spaces over F_q, F_{q^2}, F_{q^3}.

    Each trial intersects the scroll with a random codimension-2 subspace;
    the counts stabilize at the geometric degree on generic trials.  Trials
    whose 3-space contains a whole fiber (or degenerates) are flagged, with
    the line's worth of points folded into the count.
    """
    field = net.field
    if field.order is None:
        raise UnsupportedFieldError("the probe counts points over finite fields")
    if not net_pfaffian_cubic(net).smoothness(seed=seed).smooth:
        raise PreconditionError("the probe needs a smooth Pfaffian cubic")
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        while True:
            f = [field.random(rng) for _ in range(6)]
            g = [field.random(rng) for _ in range(6)]
            if rank(field, [f, g]) == 2:
                break
        out.append(probe_section(net, f, g, seed=seed))
    generic = [t.best for t in out if not t.non_generic and t.best is not None]
    max_generic = max(generic) if generic else None
    return DegreeProbeReport(out, max_generic, max_generic == 6)


class DirectrixReport:
    """Unisecant planes of the scroll, with the fibers used to find them."""

    __slots__ = ("planes", "fibers", "infinite_family")

    def __init__(self, planes, fibers, infinite_family):
        self.planes = planes
        self.fibers = fibers
        self.infinite_family = infinite_family

    def __repr__(self):
        return f"DirectrixReport({len(self.planes)} planes)"


def _fiber_triple(net: Net):
    """Three pairwise-disjoint rational line fibers."""
    picked = []
    for _, fib in rational_fibers(net):
        if all(meet(fib, other).dim == 0 for other in picked):
            picked.append(fib)
        if len(picked) == 3:
            return picked
    raise DegenerateInputError(
        "needs three pairwise-disjoint rational fibers; the field is too small "
        "or the net too degenerate"
    )


def _isotropic_solutions(field, mats, p1, fib):
    """Points p of the fiber with A_k(p1, p) = 0 for all k; None means all of them."""
    u, v = fib.rows
    rows = [[_form_value(A, p1, w, field.zero) for w in (u, v)] for A in mats]
    kern = kernel(field, rows)
    if len(kern) == 2:
        return None
    return [[a * x + b * y for x, y in zip(u, v)] for a, b in kern]


def _partner_maps(mats, X, fib, zero):
    """Per nonzero row (a, b) = (A(X, u), A(X, v)): the map X -> b u - a v into fib."""
    u, v = fib.rows
    rows = [[_form_value(A, X, w, zero) for w in (u, v)] for A in mats]
    return [[b * x - a * y for x, y in zip(u, v)] for a, b in rows
            if not (a.is_zero() and b.is_zero())]


def _plane_points(field, mats, f1, f2, f3):
    """The points of f1 where a plane can meet it, in subspace_points order.

    For p = s u + t v and partner maps P2, P3 onto f2, f3, every binary
    quadratic A_j(P2(p), P3(p)) vanishes at a plane point (so does one whose
    row vanishes there): the candidates are the base-field roots of their
    gcd, (0:1) last.  None when every quadratic vanishes identically.
    """
    u, v = f1.rows
    zero = MPoly.zero(field, 2)
    X = [MPoly.variable(field, 2, 0) * a + MPoly.variable(field, 2, 1) * b
         for a, b in zip(u, v)]
    g, drop = None, None
    for P2 in _partner_maps(mats, X, f2, zero):
        for P3 in _partner_maps(mats, X, f3, zero):
            for Q in (_form_value(A, P2, P3, zero) for A in mats):
                if not Q.is_zero():
                    p, d = binary_form_to_poly(Q, 0, 1)
                    g, drop = (p, d) if g is None else (poly_gcd(g, p), min(drop, d))
    if g is None:
        return None
    params = [(field.one, x) for x, _ in roots(g).pairs] if g.degree >= 1 else []
    params += [(field.zero, field.one)] if drop > 0 else []
    return [[a * x + b * y for x, y in zip(u, v)] for a, b in params]


def _plane_is_isotropic(field, mats, basis):
    pairs = itertools.combinations(basis, 2)
    return all(_form_value(A, x, y, field.zero).is_zero() for x, y in pairs for A in mats)


def _verify_plane_lines(net: Net, plane: Subspace, rng, samples=20):
    """Sampled lines inside the plane must belong to every generator."""
    field = net.field
    done = 0
    while done < samples:
        u = [field.zero] * 6
        v = [field.zero] * 6
        for row in plane.rows:
            cu = field.random(rng)
            cv = field.random(rng)
            u = [x + cu * y for x, y in zip(u, row)]
            v = [x + cv * y for x, y in zip(v, row)]
        if all(x.is_zero() for x in u) or all(x.is_zero() for x in v):
            continue
        if rank(field, [u, v]) != 2:
            continue
        line = line_through(field, u, v)
        if not all(g.contains_line(line) for g in net.generators):
            return False
        done += 1
    return True


def directrix_planes(net: Net, seed: int = 0) -> DirectrixReport:
    """All rational planes whose lines belong to every complex of the net.

    The planes meet the first of three disjoint fibers f1, f2, f3 at the
    roots of one binary quadratic (_plane_points).  At each root p1 the
    partners on f2 and f3 solve the isotropy system; where p1 is orthogonal
    to a whole fiber, its partner there is the other partner's.  Where the
    three are collinear, the isotropic planes through the line p1 p2 lie in
    the kernel N of the six forms A_k(p1, .), A_k(p2, .), so the plane is N
    when dim N = 3.  Every plane is checked isotropic and on 20 sampled lines.
    infinite_family: the quadratics vanish identically, dim N >= 4, or a
    whole fiber of partners completes a plane.
    """
    field = net.field
    if field.order is None:
        raise UnsupportedFieldError("the plane search enumerates a finite field")
    f1, f2, f3 = _fiber_triple(net)
    mats = net.matrices
    rng = random.Random(seed)
    planes = []
    infinite = False

    def add(W):
        if W in planes or not _plane_is_isotropic(field, mats, W.rows):
            return
        if not _verify_plane_lines(net, W, rng):
            raise InconsistencyError("candidate plane failed the sampled-line verification")
        planes.append(W)

    points = _plane_points(field, mats, f1, f2, f3)
    if points is None:
        return DirectrixReport(planes, [f1, f2, f3], True)
    for p1 in points:
        sol2 = _isotropic_solutions(field, mats, p1, f2)
        sol3 = _isotropic_solutions(field, mats, p1, f3)
        if sol2 is None and sol3:
            sol2 = _isotropic_solutions(field, mats, sol3[0], f2)
        elif sol3 is None and sol2:
            sol3 = _isotropic_solutions(field, mats, sol2[0], f3)
        if sol2 is None or sol3 is None:
            infinite = True
            continue
        for p2 in sol2:
            for p3 in sol3:
                W = Subspace(field, 6, [p1, p2, p3])
                if W.dim < 3:
                    # collapsed span: the isotropic planes through p1 p2 lie in N
                    N = kernel(field, [mat_vec(A, p) for A in mats for p in (p1, p2)])
                    W = Subspace(field, 6, N)
                    infinite = infinite or W.dim > 3
                if W.dim == 3:
                    add(W)
    return DirectrixReport(planes, [f1, f2, f3], infinite)


class RestrictedFiberReport:
    """The fiber complexes containing all lines of the given planes."""

    __slots__ = ("dim", "basis", "lines_sampled", "any_member_contains_all")

    def __init__(self, dim, basis, lines_sampled, any_member_contains_all):
        self.dim = dim
        self.basis = basis
        self.lines_sampled = lines_sampled
        self.any_member_contains_all = any_member_contains_all

    def __repr__(self):
        return f"RestrictedFiberReport(dim={self.dim})"


def _fiber_parameter(net: Net, k: Subspace):
    """The net parameter whose kernel is the given line, or None."""
    field = net.field
    if k.n != 6 or k.dim != 2:
        raise PreconditionError("expected a line in P^5")
    rows = []
    for vec in k.rows:
        cols = [mat_vec(A, vec) for A in net.matrices]
        for i in range(6):
            rows.append([col[i] for col in cols])
    lam = kernel(field, rows)
    if len(lam) != 1:
        return None
    kern = kernel(field, net.combination(lam[0]))
    if len(kern) != 2 or Subspace(field, 6, kern) != k:
        return None
    return lam[0]


def restricted_fiber_dim(
    net: Net, k: Subspace, planes, samples: int = 50, seed: int = 0
) -> RestrictedFiberReport:
    """Dimension of the special-fiber complexes whose lines cover the planes.

    Also samples other scroll lines and reports whether a single member of
    the restricted system contains all of them.
    """
    field = net.field
    lam = _fiber_parameter(net, k)
    if lam is None:
        raise PreconditionError("the line is not a fiber of the net's scroll")
    fiber15 = special_fiber(field, k)
    conds = []
    for plane in planes:
        if plane.dim != 3:
            raise PreconditionError("directrix input must be a plane")
        for x, y in itertools.combinations(plane.rows, 2):
            conds.append([x[i] * y[j] - x[j] * y[i] for i, j in PAIRS])
    basis = fiber15.rows
    if conds:
        sols = kernel(field, mat_mul(conds, transpose(basis)))
    else:
        sols = identity(field, len(basis))
    restricted = mat_mul(sols, basis)
    dim = len(restricted) - 1
    others = (line for _, line in rational_fibers(net) if line != k)
    sampled = [pluecker_of_line(line) for line in itertools.islice(others, samples)]
    contains_all = False
    if restricted and sampled:
        contains_all = len(kernel(field, mat_mul(sampled, transpose(restricted)))) > 0
    return RestrictedFiberReport(dim, restricted, len(sampled), contains_all)


class NetTypeReport:
    """Whether the net's plane meets the rank-2 locus, with a witness."""

    __slots__ = (
        "kind", "witness_kind", "witness", "generator_index", "field",
        "embedding", "caveat",
    )

    def __init__(self, kind, witness_kind=None, witness=None, generator_index=None,
                 field=None, embedding=None, caveat=None):
        self.kind = kind
        self.witness_kind = witness_kind
        self.witness = witness
        self.generator_index = generator_index
        self.field = field
        self.embedding = embedding
        self.caveat = caveat

    def __repr__(self):
        return f"NetTypeReport({self.kind})"


def net_type(net: Net, seed: int = 0) -> NetTypeReport:
    """Classify the net by the rank of its worst member.

    general means no point of the net plane drops to rank 2; the decision is
    exact, by eliminating the cubic together with all 15 kernel quadrics.
    """
    field = net.field
    for idx, g in enumerate(net.generators):
        if g.rank() <= 2:
            lam = tuple(
                field.one if t == idx else field.zero for t in range(3)
            )
            return NetTypeReport(
                "contains-second-type", witness_kind="generator", witness=lam,
                generator_index=idx, field=field,
            )
    forms = [f for f in sub_pfaffian_forms(net) if not f.is_zero()]
    try:
        cubic_form = net_pfaffian_cubic(net).as_mpoly()
        forms = [cubic_form] + forms
    except DegenerateInputError:
        pass
    if not forms:
        raise InconsistencyError("independent net with no rank conditions")
    search = common_projective_zero(field, forms, seed=seed)
    if search.found:
        return NetTypeReport(
            "contains-second-type", witness_kind="elimination",
            witness=search.point, field=search.point_field,
            embedding=search.embedding, caveat=search.caveat,
        )
    return NetTypeReport("general", field=field)


class Type2LocusReport:
    """Pointwise verification that the singular 3-space joins the locus."""

    __slots__ = (
        "three_space", "checked", "all_member", "off_checked", "off_failures",
    )

    def __init__(self, three_space, checked, all_member, off_checked, off_failures):
        self.three_space = three_space
        self.checked = checked
        self.all_member = all_member
        self.off_checked = off_checked
        self.off_failures = off_failures

    def __repr__(self):
        return f"Type2LocusReport(all_member={self.all_member})"


def type2_singular_locus_check(
    net: Net, witness: LinearComplex, off_samples: int = 50, seed: int = 0
) -> Type2LocusReport:
    """Check that the witness's singular 3-space lies inside the locus.

    Every rational point of the 3-space must pass x_membership (exhaustively
    for q <= 11, by 200 samples otherwise), while random points off the
    3-space and off the rational fibers are expected to fail it.
    """
    field = net.field
    if field.order is None:
        raise UnsupportedFieldError("the locus check enumerates a finite field")
    if witness.rank() > 2 or witness.is_zero():
        raise PreconditionError("the witness is not a second-type complex")
    span = [list(g.coeffs()) for g in net.generators]
    if rank(field, span + [list(witness.coeffs())]) != 3:
        raise PreconditionError("the witness does not belong to the net")
    three = witness.kernel_space()
    if three.proj_dim != 3:
        raise InconsistencyError("rank-2 complex with singular space not a 3-space")
    rng = random.Random(seed)
    if field.char <= EXHAUSTIVE_PRIME_CAP and field.degree == 1:
        pts = list(subspace_points(three))
    else:
        pts = [random_vector(three, rng) for _ in range(200)]
    all_member = all(x_membership(net, pt) for pt in pts)
    fibers = [line for _, line in itertools.islice(rational_fibers(net), 60)]
    off_failures = 0
    off_checked = 0
    while off_checked < off_samples:
        vec = [field.random(rng) for _ in range(6)]
        if all(x.is_zero() for x in vec):
            continue
        if three.contains_vector(vec):
            continue
        pt_space = Subspace(field, 6, [vec])
        if any(meet(f, pt_space).dim == 1 for f in fibers):
            continue
        off_checked += 1
        if not x_membership(net, vec):
            off_failures += 1
    return Type2LocusReport(three, len(pts), all_member, off_checked, off_failures)
