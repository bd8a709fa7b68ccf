"""Integer sheaf cohomology of the degeneracy locus via its free resolution.

The degeneracy locus X of a general morphism from m trivial line bundles to
the twisted cotangent bundle on projective n-space has an Eagon-Northcott
resolution whose terms are twisted cotangent powers.  Everything here is
exact integer arithmetic: the degree of X, the Bott dimension vector of any
twisted cotangent power, Euler characteristics of the ideal sheaf, the
predicted table of its cohomology groups, and the Stueckrad-Vogel test for
arithmetic Buchsbaumness run on such a table.

Binomial convention: binom(a, b) is 0 whenever a < 0, b < 0, or b > a.
Every formula in this module uses that convention; the one place where a
genuinely negative top argument carries information, the Euler
characteristic of a line bundle on projective space, is handled by
chi_structure instead.
"""

from __future__ import annotations

import math

from .errors import InconsistencyError, PreconditionError

PROVENANCE = ("EN-predicted", "oracle", "conflict")


def binom(a: int, b: int) -> int:
    """Binomial coefficient with the all-nonnegative convention."""
    if a < 0 or b < 0 or b > a:
        return 0
    return math.comb(a, b)


def chi_structure(n: int, d: int) -> int:
    """Euler characteristic of O(d) on projective n-space, any integer d."""
    if n < 1:
        raise PreconditionError("the ambient space needs dimension at least 1")
    if n + d >= 0:
        return math.comb(n + d, n)
    return (-1) ** n * math.comb(-d - 1, n)


def degree_formula(n: int, m: int) -> int:
    """Degree of the degeneracy locus as an alternating binomial sum."""
    if not 2 <= m <= n:
        raise PreconditionError("need 2 <= m <= n")
    return sum((-1) ** i * binom(n - i, m - 1) for i in range(n - m + 2))


def bott(n: int, p: int, k: int):
    """Dimension vector (h0, ..., hn) of the p-th cotangent power twisted by k.

    Cohomology lives in a single degree: degree 0 when k > p, degree p when
    k = 0, degree n when k < p - n, and nowhere otherwise.
    """
    if not 0 <= p <= n:
        raise PreconditionError("cotangent power out of range")
    out = [0] * (n + 1)
    if k == 0:
        out[p] = 1
    elif k > p:
        out[0] = binom(k + n - p, k) * binom(k - 1, p)
    elif k < p - n:
        out[n] = binom(p - k, -k) * binom(-k - 1, n - p)
    return tuple(out)


def chi_omega(n: int, p: int, k: int) -> int:
    """Euler characteristic of the p-th cotangent power twisted by k."""
    vec = bott(n, p, k)
    return sum((-1) ** q * vec[q] for q in range(n + 1))


def en_chi_ideal(n: int, m: int, p: int) -> int:
    """Euler characteristic of the twisted ideal sheaf from the resolution."""
    if not 2 <= m <= n:
        raise PreconditionError("need 2 <= m <= n")
    total = 0
    for s in range(n - m + 1):
        j = n - m - s
        total += (-1) ** s * binom(m + s - 1, m - 1) * chi_omega(
            n, j, 2 * j + p - n + 1
        )
    return total


def predicted_entries(n: int, m: int):
    """Predicted nonzero ideal-sheaf cohomology from resolution degeneration.

    Maps i to (twist, dimension): entry i sits at twist m - 1 - i with
    dimension binom(m - 1 + s, m - 1), s = (n - m - i) / 2, for i running
    through 1..n-m with the parity of n - m.
    """
    out = {}
    for i in range(1, n - m + 1):
        if (n - m - i) % 2 != 0:
            continue
        s = (n - m - i) // 2
        out[i] = (m - 1 - i, binom(m - 1 + s, m - 1))
    return out


# Fully pinned rows of the two geometric instances: three pairwise skew
# lines (m = 2) and the elliptic sextic scroll (m = 3) in dimension 5.
# Values for i = 0..5 at twists 0 and 1, from the restriction sequence
# together with nondegeneracy, ellipticity, and linear normality.
_INSTANCE_ROWS = {
    (5, 2): {0: (0, 2, 0, 0, 0, 0), 1: (0, 0, 0, 0, 0, 0)},
    (5, 3): {0: (0, 0, 1, 0, 0, 0), 1: (0, 0, 0, 0, 0, 0)},
}


def oracle_entry(n: int, m: int, p: int, i: int):
    """Independent value of the (i, p) table entry, or None when unknown.

    Sources, in order: the hypersurface case m = n (the ideal sheaf is a
    line bundle); the two pinned instance rows; sections of nonpositive
    twists; vanishing above the dimension of the locus; the top-degree
    tail carried by the ambient space.
    """
    if m == n:
        d = degree_formula(n, n)
        vec = [0] * (n + 1)
        vec[0] = binom(p - d + n, n)
        vec[n] = binom(d - 1 - p, n)
        return vec[i]
    rows = _INSTANCE_ROWS.get((n, m))
    if rows is not None and p in rows:
        return rows[p][i]
    if i == 0 and p <= 0:
        return 0
    if m + 1 <= i <= n - 1:
        return 0
    if i == n:
        return binom(-p - 1, n)
    return None


class TableRow:
    """One twist of the cohomology table, entries corrected by oracles."""

    __slots__ = ("p", "entries", "provenance", "conflicts", "chi_expected",
                 "chi_consistent", "caveat")

    def __init__(self, p, entries, provenance, conflicts, chi_expected,
                 chi_consistent, caveat=None):
        self.p = p
        self.entries = tuple(int(x) for x in entries)
        self.provenance = tuple(provenance)
        self.conflicts = dict(conflicts)
        self.chi_expected = chi_expected
        self.chi_consistent = chi_consistent
        self.caveat = caveat
        if any(x < 0 for x in self.entries):
            raise InconsistencyError("cohomology dimensions must be nonnegative")
        if len(self.provenance) != len(self.entries):
            raise PreconditionError("one provenance flag per entry")
        if any(f not in PROVENANCE for f in self.provenance):
            raise PreconditionError("unknown provenance flag")

    def chi(self) -> int:
        return sum((-1) ** i * x for i, x in enumerate(self.entries))

    def __repr__(self):
        return f"TableRow(p={self.p}, entries={self.entries})"


class CohomologyTable:
    """Twisted ideal-sheaf cohomology over a window of twists."""

    __slots__ = ("n", "m", "rows")

    def __init__(self, n, m, rows):
        if not 2 <= m <= n:
            raise PreconditionError("need 2 <= m <= n")
        self.n = n
        self.m = m
        self.rows = list(rows)
        if not self.rows:
            raise PreconditionError("a table needs at least one row")
        for row in self.rows:
            if len(row.entries) != n + 1:
                raise PreconditionError("each row needs n + 1 entries")

    @property
    def window(self):
        ps = [row.p for row in self.rows]
        return (min(ps), max(ps))

    def row(self, p: int) -> TableRow:
        for r in self.rows:
            if r.p == p:
                return r
        raise PreconditionError("twist %d is outside the table" % p)

    def conflicts(self):
        out = []
        for r in self.rows:
            for i, pair in sorted(r.conflicts.items()):
                out.append((i, r.p, pair[0], pair[1]))
        return out

    def chi_gaps(self):
        return [r.p for r in self.rows if not r.chi_consistent]

    def __repr__(self):
        lo, hi = self.window
        return (
            f"CohomologyTable(n={self.n}, m={self.m}, twists {lo}..{hi}, "
            f"{len(self.conflicts())} conflict(s))"
        )


def default_window(n: int, m: int):
    """Twist range covering the predicted band with one step of margin."""
    if not 2 <= m <= n:
        raise PreconditionError("need 2 <= m <= n")
    return (2 * m - n - 2, m)


def en_table(n: int, m: int, p_range=None) -> CohomologyTable:
    """Predicted cohomology table over a twist window, oracle-corrected.

    Every positive-degree entry starts from the degeneration prediction;
    wherever an independent value exists the entry is cross-checked and, on
    disagreement, flagged as a conflict and corrected to the independent
    value with both numbers kept.  Twist-0 sections are completed from the
    Euler characteristic when no oracle pins them.  Rows whose corrected
    alternating sum misses the resolution characteristic carry an explicit
    caveat rather than an adjusted entry.
    """
    if not 2 <= m <= n:
        raise PreconditionError("need 2 <= m <= n")
    if p_range is None:
        p_range = default_window(n, m)
    lo, hi = int(p_range[0]), int(p_range[1])
    if lo > hi:
        raise PreconditionError("empty twist window")
    band = predicted_entries(n, m)
    rows = []
    for p in range(lo, hi + 1):
        chi = en_chi_ideal(n, m, p)
        entries = [0] * (n + 1)
        provenance = ["EN-predicted"] * (n + 1)
        conflicts = {}
        for i in range(1, n + 1):
            predicted = 0
            if i in band and band[i][0] == p:
                predicted = band[i][1]
            oracle = oracle_entry(n, m, p, i)
            if oracle is None:
                entries[i] = predicted
            elif i == n:
                # the top-degree tail is carried by the ambient space; the
                # degeneration prediction only speaks about middle degrees
                entries[i] = oracle
                provenance[i] = "oracle"
            elif oracle == predicted:
                entries[i] = predicted
                provenance[i] = "oracle"
            else:
                entries[i] = oracle
                provenance[i] = "conflict"
                conflicts[i] = (predicted, oracle)
        caveat = None
        h0 = oracle_entry(n, m, p, 0)
        if h0 is not None:
            entries[0] = h0
            provenance[0] = "oracle"
            chi_consistent = (
                sum((-1) ** i * x for i, x in enumerate(entries)) == chi
            )
        else:
            tail = sum((-1) ** (i + 1) * entries[i] for i in range(1, n + 1))
            h0 = chi + tail
            entries[0] = max(h0, 0)
            chi_consistent = h0 >= 0
        if not chi_consistent:
            caveat = (
                "alternating sum %d misses the resolution characteristic %d"
                % (sum((-1) ** i * x for i, x in enumerate(entries)), chi)
            )
        rows.append(TableRow(p, entries, provenance, conflicts, chi,
                             chi_consistent, caveat))
    return CohomologyTable(n, m, rows)


class SVReport:
    """Outcome of the Stueckrad-Vogel pair test, with a witness on failure."""

    __slots__ = ("holds", "witness")

    def __init__(self, holds, witness=None):
        self.holds = holds
        self.witness = witness

    def __bool__(self):
        return self.holds

    def __repr__(self):
        return f"SVReport(holds={self.holds}, witness={self.witness})"


def buchsbaum_sv_check(table: CohomologyTable) -> SVReport:
    """Test the Stueckrad-Vogel condition over all nonzero entry pairs.

    For entries at (i, p) and (j, q) with 0 < i < j the condition requires
    j - i != q - p - 1; a violating pair is returned as the witness.  The
    table window must cover every predicted-nonzero twist, otherwise the
    check refuses to answer on partial data.
    """
    band = predicted_entries(table.n, table.m)
    lo, hi = table.window
    for i, (twist, value) in band.items():
        if value != 0 and not lo <= twist <= hi:
            raise PreconditionError(
                "window %d..%d misses the predicted entry at twist %d"
                % (lo, hi, twist)
            )
    nonzero = []
    for row in table.rows:
        for i in range(1, table.n + 1):
            if row.entries[i] != 0:
                nonzero.append((i, row.p, row.entries[i]))
    for a in nonzero:
        for b in nonzero:
            i, p, vi = a
            j, q, vj = b
            if i < j and j - i == q - p - 1:
                return SVReport(False, (a, b))
    return SVReport(True, None)
