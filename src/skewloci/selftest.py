"""Self-verification suite: twelve seeded end-to-end checks.

Each criterion exercises one slice of the library against frozen instances
and independent counts, returning a deterministic pass/fail record.  The
suite is what the `selftest` command runs and what the acceptance tests
import, so the two entry points can never drift apart.
"""

from __future__ import annotations

import random
import time

from .cohomology import (
    buchsbaum_sv_check,
    chi_structure,
    degree_formula,
    en_chi_ideal,
    en_table,
)
from .complexes import (
    SPECIAL_FIRST,
    SPECIAL_SECOND,
    fiber_meet_report,
    fiber_rank2_count,
    second_type_complex,
    special_fiber,
)
from .errors import PreconditionError
from .fields import QQ, PrimeField
from .fournets import companion_nets
from .linalg import (
    det,
    kernel,
    pfaffian_field,
    rank,
    skew_from_pairs,
    sub_pfaffians_6_field,
)
from .nets import (
    Net,
    _plane_is_isotropic,
    count_scroll_points,
    degree_probe,
    directrix_planes,
    net_pfaffian_cubic,
    rational_fibers,
    restricted_fiber_dim,
    scroll_fiber,
    type2_singular_locus_check,
    x_membership,
)
from .pencils import Pencil, alpha, classify_configuration, pencil_singular_elements
from .projective import (
    Subspace,
    join,
    line_through,
    meet,
    normalize_projective,
    pluecker_of_line,
    pluecker_relations,
    random_vector,
    subspace_points,
)

DEGREE_EXAMPLES = (
    (3, 2, 2), (3, 3, 2), (4, 2, 2), (4, 3, 4), (4, 4, 3),
    (5, 2, 3), (5, 3, 6), (5, 4, 7),
)

FIBERED_NETS = ((7, 0), (7, 1), (7, 2), (11, 0), (11, 1))
PROBE_NETS = ((11, 0), (11, 1), (11, 2))
DIRECTRIX_NETS = ((101, 1), (101, 3), (101, 4), (101, 7), (101, 8))
COMPANION_NET = (23, 8)


class CriterionResult:
    __slots__ = ("id", "name", "passed", "detail")

    def __init__(self, id, name, passed, detail):
        self.id = id
        self.name = name
        self.passed = passed
        self.detail = detail

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.id:2d} {self.name}: {status} ({self.detail})"

    def __repr__(self):
        return f"CriterionResult({self.id}, {self.passed})"


def seeded_net(field, seed: int) -> Net:
    """The canonical net of a (field, seed) pair: rejection-sampled triples."""
    rng = random.Random(seed)
    while True:
        triples = [[field.random(rng) for _ in range(15)] for _ in range(3)]
        try:
            return Net.from_pair_vectors(field, triples)
        except PreconditionError:
            continue


def rank2_generator_net(field) -> Net:
    """A net whose first generator drops to rank 2, on frozen integer data."""
    rng = random.Random(42)
    triples = [[0] * 15, [rng.randrange(23) for _ in range(15)],
               [rng.randrange(23) for _ in range(15)]]
    triples[0][0] = 1
    return Net.from_pair_vectors(field, triples)


def _random_line(field, rng):
    while True:
        p = [field.random(rng) for _ in range(6)]
        q = [field.random(rng) for _ in range(6)]
        try:
            return line_through(field, p, q)
        except PreconditionError:
            continue


def _random_case1_triple(field, rng):
    while True:
        lines = [_random_line(field, rng) for _ in range(3)]
        if len(set(lines)) < 3:
            continue
        if classify_configuration(*lines).case_id == 1:
            return lines


def _random_skew(field, rng, n, digit_entries=False):
    M = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if digit_entries:
                x = field(rng.randrange(-999, 1000))
            else:
                x = field.random(rng)
            M[i][j] = x
            M[j][i] = -x
    return M


def criterion_1() -> CriterionResult:
    """Closed-form degrees match the frozen table, each call under 1 ms."""
    wrong = []
    slow = []
    for n, m, expect in DEGREE_EXAMPLES:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            got = degree_formula(n, m)
            best = min(best, time.perf_counter() - t0)
        if got != expect:
            wrong.append((n, m, got, expect))
        if best >= 1e-3:
            slow.append((n, m))
    passed = not wrong and not slow
    detail = f"{len(DEGREE_EXAMPLES)} pairs checked"
    if wrong:
        detail = f"wrong values: {wrong}"
    elif slow:
        detail = f"exceeded the 1 ms budget at {slow}"
    return CriterionResult(1, "degree-table", passed, detail)


def criterion_2() -> CriterionResult:
    """Pfaffian squares to the determinant on random skew matrices."""
    rng = random.Random(2)
    fails = 0
    total = 0
    for field, digit_entries in ((PrimeField(101), False), (QQ, True)):
        for order in (4, 6):
            for _ in range(250):
                M = _random_skew(field, rng, order, digit_entries)
                pf = pfaffian_field(field, M)
                if pf * pf != det(field, M):
                    fails += 1
                total += 1
    return CriterionResult(
        2, "pfaffian-square", fails == 0, f"{total} matrices, {fails} failures"
    )


def criterion_3() -> CriterionResult:
    """Sub-Pfaffians of rank-4 forms trace the kernel's dual coordinates."""
    F = PrimeField(101)
    rng = random.Random(3)
    fails = 0
    done = 0
    while done < 500:
        a, b, c, d = ([F.random(rng) for _ in range(6)] for _ in range(4))
        M = [[F.zero] * 6 for _ in range(6)]
        for i in range(6):
            for j in range(6):
                M[i][j] = (a[i] * b[j] - a[j] * b[i]) + (c[i] * d[j] - c[j] * d[i])
        if rank(F, M) != 4:
            continue
        done += 1
        sub = sub_pfaffians_6_field(F, M)
        kern = kernel(F, M)
        if len(kern) != 2 or all(x.is_zero() for x in sub):
            fails += 1
            continue
        pl = pluecker_of_line(Subspace(F, 6, kern))
        proportional = all(
            sub[i] * pl[j] == sub[j] * pl[i]
            for i in range(15)
            for j in range(i + 1, 15)
        )
        relations = all(r.is_zero() for r in pluecker_relations(F, sub))
        if not (proportional and relations):
            fails += 1
    return CriterionResult(
        3, "subpfaffian-kernel", fails == 0, f"500 matrices, {fails} failures"
    )


def criterion_4() -> CriterionResult:
    """Common forms of a line pair: one point for skew pairs, a rank-2
    plane for meeting pairs; the fiber's rank-2 slice has quadric size."""
    F = PrimeField(101)
    rng = random.Random(4)
    fails = []
    skew_n = meet_n = 0

    def check_pair(l1, l2):
        nonlocal skew_n, meet_n
        rep = fiber_meet_report(F, l1, l2)
        common = rep["common"]
        if not rep["lines_meet"]:
            skew_n += 1
            if common.dim != 1 or not common.contains_vector(
                list(rep["join_complex"].coeffs())
            ):
                fails.append("skew")
            return
        meet_n += 1
        if common.dim != 3:
            fails.append("meet-dim")
            return
        v1, v2, v3 = common.rows
        probes = [
            v1, v2, v3,
            [x + y for x, y in zip(v1, v2)],
            [x + y for x, y in zip(v1, v3)],
            [x + y for x, y in zip(v2, v3)],
        ]
        # rank <= 2 at these six parameter points forces every kernel
        # quadric to vanish identically on the plane
        if any(rank(F, skew_from_pairs(F, p)) > 2 for p in probes):
            fails.append("meet-rank")

    done = 0
    while done < 100:
        l1, l2 = _random_line(F, rng), _random_line(F, rng)
        if l1 == l2:
            continue
        done += 1
        check_pair(l1, l2)
    done = 0
    while done < 100:
        p = [F.random(rng) for _ in range(6)]
        if all(x.is_zero() for x in p):
            continue
        try:
            l1 = line_through(F, p, [F.random(rng) for _ in range(6)])
            l2 = line_through(F, p, [F.random(rng) for _ in range(6)])
        except PreconditionError:
            continue
        if l1 == l2:
            continue
        done += 1
        check_pair(l1, l2)

    F7 = PrimeField(7)
    coord_line = Subspace(F7, 6, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]])
    count = fiber_rank2_count(F7, coord_line)
    expected = 7**4 + 7**3 + 2 * 7**2 + 7 + 1
    if count != expected:
        fails.append(f"rank2-count {count} != {expected}")
    passed = not fails and meet_n >= 100
    return CriterionResult(
        4, "fiber-meet-suite", passed,
        f"{skew_n} skew and {meet_n} meeting pairs, rank-2 slice {count}, "
        f"failures {fails}",
    )


def criterion_5() -> CriterionResult:
    """Lines of the sigma plane reproduce their triple; lines through a
    vertex keep a rank-2 member.  Budget: 10 s."""
    F = PrimeField(101)
    rng = random.Random(5)
    a_fail = b_fail = 0
    t0 = time.perf_counter()
    for _ in range(50):
        l1, l2, l3 = _random_case1_triple(F, rng)
        hs = [
            second_type_complex(F, join(a, b))
            for a, b in ((l1, l2), (l1, l3), (l2, l3))
        ]
        sigma = Subspace(F, 15, [h.coeffs() for h in hs])
        verts = [h.coeffs() for h in hs]
        expected = {l1, l2, l3}
        done = 0
        while done < 10:
            p = random_vector(sigma, rng)
            q = random_vector(sigma, rng)
            line = Subspace(F, 15, [p, q])
            if line.dim != 2 or any(line.contains_vector(v) for v in verts):
                continue
            pen = Pencil.from_pair_vectors(F, [p, q])
            done += 1
            sings = pencil_singular_elements(pen)
            ok = (
                len(sings) == 3
                and all(m.kind == SPECIAL_FIRST for m in sings)
                and all(m.multiplicity == 1 for m in sings)
                and {m.complex.kernel_space() for m in sings} == expected
            )
            if not ok:
                a_fail += 1
        fib3 = special_fiber(F, l3)
        done = 0
        while done < 10:
            q = random_vector(fib3, rng)
            if Subspace(F, 15, [verts[0], q]).dim != 2:
                continue
            pen = Pencil.from_pair_vectors(F, [verts[0], q])
            try:
                sings = pencil_singular_elements(pen)
            except PreconditionError:
                continue
            done += 1
            if not any(m.kind == SPECIAL_SECOND for m in sings):
                b_fail += 1
    elapsed = time.perf_counter() - t0
    passed = a_fail == 0 and b_fail == 0 and elapsed < 10.0
    detail = f"50 triples x (10 + 10) lines, {a_fail} + {b_fail} failures"
    if elapsed >= 10.0:
        detail += ", exceeded the 10 s budget"
    return CriterionResult(5, "triple-roundtrip", passed, detail)


def criterion_6() -> CriterionResult:
    """Random pencils land in the generic configuration; vertex pencils
    put their whole 3-space inside the degeneracy locus."""
    F = PrimeField(101)
    rng = random.Random(0)
    not_generic = 0
    for _ in range(100):
        while True:
            g1 = [F.random(rng) for _ in range(15)]
            g2 = [F.random(rng) for _ in range(15)]
            try:
                pen = Pencil.from_pair_vectors(F, [g1, g2])
                break
            except PreconditionError:
                continue
        if alpha(pen, seed=0).verdict != "expected-dim-1":
            not_generic += 1

    rng = random.Random(66)
    bad_spaces = 0
    for t in range(10):
        l1, l2, l3 = _random_case1_triple(F, rng)
        h12 = second_type_complex(F, join(l1, l2))
        fib3 = special_fiber(F, l3)
        while True:
            q = random_vector(fib3, rng)
            if Subspace(F, 15, [h12.coeffs(), q]).dim != 2:
                continue
            pen = Pencil.from_pair_vectors(F, [h12.coeffs(), q])
            try:
                sings = pencil_singular_elements(pen)
            except PreconditionError:
                continue
            if any(m.kind == SPECIAL_SECOND for m in sings):
                break
        second = next(m for m in sings if m.kind == SPECIAL_SECOND)
        three = second.complex.kernel_space()
        prng = random.Random(t)
        pts = [random_vector(three, prng) for _ in range(50)]
        if not all(x_membership(pen, pt) for pt in pts):
            bad_spaces += 1
    passed = not_generic == 0 and bad_spaces == 0
    return CriterionResult(
        6, "pencil-generics", passed,
        f"{100 - not_generic}/100 generic, {10 - bad_spaces}/10 vertex pencils",
    )


def criterion_7() -> CriterionResult:
    """Counts exhaustive over P^2(F_q) confirm the (q+1)-to-1 fibration
    over the cubic.  Budget: 60 s per net."""
    fails = []
    slow = []
    for q, seed in FIBERED_NETS:
        net = seeded_net(PrimeField(q), seed)
        t0 = time.perf_counter()
        rep = count_scroll_points(net)
        elapsed = time.perf_counter() - t0
        if not (
            rep.fibered
            and rep.x_count == (q + 1) * rep.c_count
            and rep.ranks_all_four
            and rep.fibers_disjoint
        ):
            fails.append((q, seed))
        if elapsed >= 60.0:
            slow.append((q, seed))
    passed = not fails and not slow
    detail = f"{len(FIBERED_NETS)} nets fibered"
    if fails:
        detail = f"not fibered: {fails}"
    elif slow:
        detail = f"exceeded the 60 s budget: {slow}"
    return CriterionResult(7, "scroll-counts", passed, detail)


def criterion_8() -> CriterionResult:
    """Random 3-space sections stabilize at six points and never exceed it."""
    fails = []
    for q, seed in PROBE_NETS:
        net = seeded_net(PrimeField(q), seed)
        rep = degree_probe(net, trials=20, seed=1)
        if not (rep.max_generic <= 6 and rep.attained_six):
            fails.append((q, seed, rep.max_generic, rep.attained_six))
    return CriterionResult(
        8, "degree-probe", not fails,
        f"{len(PROBE_NETS)} nets, 20 trials each" if not fails else f"{fails}",
    )


def criterion_9() -> CriterionResult:
    """Two isotropic unisecant planes per net; the plane-restricted fiber
    systems have dimension three and no member swallows the scroll."""
    fails = []
    for q, seed in DIRECTRIX_NETS:
        F = PrimeField(q)
        net = seeded_net(F, seed)
        rep = directrix_planes(net, seed=0)
        if len(rep.planes) != 2 or rep.infinite_family:
            fails.append((seed, "planes"))
            continue
        cubic = net_pfaffian_cubic(net)
        fibers = [scroll_fiber(net, lam) for lam in cubic.rational_points()[:20]]
        for plane in rep.planes:
            if any(meet(plane, fib).dim != 1 for fib in fibers):
                fails.append((seed, "unisecant"))
            if not _plane_is_isotropic(F, net._raw, plane.rows):
                fails.append((seed, "isotropy"))
        for k in fibers[:10]:
            rrep = restricted_fiber_dim(net, k, rep.planes, seed=0)
            if not (
                rrep.dim == 3
                and rrep.lines_sampled == 50
                and not rrep.any_member_contains_all
            ):
                fails.append((seed, "restricted"))
    return CriterionResult(
        9, "directrix-suite", not fails,
        f"{len(DIRECTRIX_NETS)} nets, 2 planes and 10 fibers each"
        if not fails else f"{fails}",
    )


def criterion_10() -> CriterionResult:
    """Cohomology tables match the geometric oracles, pass the gap check,
    and flag the one dimension-count disagreement."""
    fails = []
    scroll = en_table(5, 3)
    nonzero = [
        (i, row.p, e)
        for row in scroll.rows
        for i, e in enumerate(row.entries)
        if i >= 1 and e != 0
    ]
    if nonzero != [(2, 0, 1)]:
        fails.append(f"scroll nonzero entries {nonzero}")
    if scroll.conflicts():
        fails.append("scroll table has conflicts")
    if scroll.row(0).provenance[2] != "oracle":
        fails.append("scroll middle entry is not oracle-backed")

    lines = en_table(5, 2)
    if lines.row(0).entries[1] != 2:
        fails.append(f"three-lines h1 at twist 0 is {lines.row(0).entries[1]}")
    if lines.conflicts() != [(3, -2, 1, 0)]:
        fails.append(f"three-lines conflicts {lines.conflicts()}")
    row = lines.row(-2)
    if row.provenance[3] != "conflict" or row.entries[3] != 0:
        fails.append("the twist -2 disagreement is not flagged")

    for p in (0, 1, 2):
        if en_chi_ideal(5, 3, p) != chi_structure(5, p) - (3 * p * p + 3 * p):
            fails.append(f"scroll chi mismatch at twist {p}")
        if en_chi_ideal(5, 2, p) != chi_structure(5, p) - 3 * (p + 1):
            fails.append(f"three-lines chi mismatch at twist {p}")

    if not buchsbaum_sv_check(scroll).holds:
        fails.append("gap condition fails on the scroll table")
    if not buchsbaum_sv_check(lines).holds:
        fails.append("gap condition fails on the three-lines table")
    return CriterionResult(
        10, "cohomology-tables", not fails,
        "both tables, chi at three twists, one flagged disagreement"
        if not fails else f"{fails}",
    )


def criterion_11() -> CriterionResult:
    """The companion construction yields four distinct nets that recover
    the input, stay general, and share their scrolls.  Budget: 5 min."""
    q, net_seed = COMPANION_NET
    net = seeded_net(PrimeField(q), net_seed)
    t0 = time.perf_counter()
    rep = companion_nets(net, seed=0)
    fails = []
    if len(rep.companion_nets) != 4:
        fails.append(f"{len(rep.companion_nets)} nets")
    if not rep.self_recovered:
        fails.append("input not recovered")
    if not rep.all_general:
        fails.append("a companion is not general")
    if not rep.pairwise_distinct:
        fails.append("companions collide")
    if not all(
        c.forward_checked == 50 and c.backward_checked == 50 and c.ok
        for c in rep.cross_verification
    ):
        fails.append("cross-membership failed")
    if not rep.complete:
        fails.append("report incomplete")
    rep2 = companion_nets(rep.companion_nets[1], seed=0)
    if not rep2.complete or set(rep2.spans) != set(rep.spans):
        fails.append("not idempotent on a companion")
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        fails.append("exceeded the 5 min budget")
    return CriterionResult(
        11, "companion-nets", not fails,
        "4 distinct nets, recovery, 50-point cross checks, idempotent"
        if not fails else f"{fails}",
    )


def criterion_12() -> CriterionResult:
    """A rank-2 generator contributes its whole 3-space: locus equals the
    3-space united with the line fibers, point for point."""
    F = PrimeField(7)
    net = rank2_generator_net(F)
    fails = []
    rep = type2_singular_locus_check(net, net.generators[0], seed=0)
    if rep.checked != 400 or not rep.all_member:
        fails.append(f"3-space membership {rep.checked} checked")
    if rep.off_failures != rep.off_checked:
        fails.append("points off the pieces passed membership")
    three = net.generators[0].kernel_space()
    seen = {
        tuple(x.v for x in normalize_projective(list(p)))
        for p in subspace_points(three)
    }
    if len(seen) != 400:
        fails.append(f"3-space has {len(seen)} points")
    for _, line in rational_fibers(net):
        for p in subspace_points(line):
            seen.add(tuple(x.v for x in normalize_projective(list(p))))
    scan = count_scroll_points(net)
    if len(seen) != scan.x_count:
        fails.append(f"union {len(seen)} != locus {scan.x_count}")
    return CriterionResult(
        12, "type2-locus", not fails,
        f"400 + fiber points cover all {scan.x_count}" if not fails else f"{fails}",
    )


CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11, criterion_12,
)


def run_all(progress=None):
    """All criteria in order; progress (if given) receives each result."""
    out = []
    for crit in CRITERIA:
        res = crit()
        out.append(res)
        if progress is not None:
            progress(res)
    return out
