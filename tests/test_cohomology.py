"""Degree, Bott vectors, resolution characteristics, tables, and the SV test."""

import pytest

from skewloci.cohomology import (
    CohomologyTable,
    TableRow,
    binom,
    bott,
    buchsbaum_sv_check,
    chi_omega,
    chi_structure,
    default_window,
    degree_formula,
    en_chi_ideal,
    en_table,
    predicted_entries,
)
from skewloci.errors import InconsistencyError, PreconditionError


def _synthetic_table(n, m, entries, window):
    """A hand-built table, to test the Buchsbaum check on raw data."""
    lo, hi = window
    rows = []
    for p in range(lo, hi + 1):
        vec = [0] * (n + 1)
        for (i, q), v in entries.items():
            if q == p:
                vec[i] = v
        chi = en_chi_ideal(n, m, p)
        row_chi = sum((-1) ** i * x for i, x in enumerate(vec))
        rows.append(TableRow(p, vec, ["EN-predicted"] * (n + 1), {}, chi, row_chi == chi))
    return CohomologyTable(n, m, rows)


def test_degree_examples():
    assert degree_formula(5, 3) == 6
    assert degree_formula(5, 2) == 3
    assert degree_formula(5, 4) == 7
    assert degree_formula(3, 3) == 2
    assert degree_formula(4, 4) == 3


def test_degree_positive_on_the_diagonal():
    for n in range(2, 8):
        assert degree_formula(n, n) > 0


def test_degree_rejects_bad_range():
    with pytest.raises(PreconditionError):
        degree_formula(4, 5)
    with pytest.raises(PreconditionError):
        degree_formula(5, 1)


def test_binomial_convention():
    assert binom(-1, 0) == 0
    assert binom(3, -1) == 0
    assert binom(2, 5) == 0
    assert binom(6, 2) == 15


def test_chi_structure_values():
    assert chi_structure(5, 0) == 1
    assert chi_structure(5, 2) == 21
    assert chi_structure(5, -3) == 0
    assert chi_structure(5, -6) == -1
    assert chi_structure(2, -3) == 1
    assert chi_structure(1, -2) == -1


def test_bott_examples():
    assert bott(5, 1, 2) == (15, 0, 0, 0, 0, 0)
    assert bott(5, 1, 1) == (0, 0, 0, 0, 0, 0)
    assert bott(5, 0, -6) == (0, 0, 0, 0, 0, 1)
    assert bott(7, 3, 0)[3] == 1
    assert sum(bott(7, 3, 0)) == 1


def test_bott_rejects_power_out_of_range():
    with pytest.raises(PreconditionError):
        bott(5, 6, 0)
    with pytest.raises(PreconditionError):
        bott(5, -1, 0)


def test_bott_serre_duality_grid():
    for n in range(1, 8):
        for p in range(n + 1):
            for k in range(-12, 13):
                v = bott(n, p, k)
                w = bott(n, n - p, -k)
                assert all(v[q] == w[n - q] for q in range(n + 1))


def _koszul_chi_omega(n, p, k):
    """chi(Omega^p(k)) from the truncated Euler sequence, independent of bott:
    peel exterior powers of the rank n+1 trivial bundle, leaving an
    alternating sum of line bundle characteristics."""
    return sum(
        (-1) ** i * binom(n + 1, p - i) * chi_structure(n, k - p + i)
        for i in range(p + 1)
    )


def test_chi_omega_matches_koszul_route():
    # same grid, fully independent formula
    for n in range(1, 8):
        for p in range(n + 1):
            for k in range(-12, 13):
                assert chi_omega(n, p, k) == _koszul_chi_omega(n, p, k)


def test_chi_omega_degenerates_to_line_bundles():
    for n in range(1, 6):
        for d in range(-9, 10):
            assert chi_omega(n, 0, d) == chi_structure(n, d)


def test_en_chi_examples():
    assert en_chi_ideal(5, 3, 0) == 1
    assert en_chi_ideal(5, 3, 1) == 0
    assert en_chi_ideal(5, 2, 0) == -2


def test_en_chi_against_geometric_characteristics():
    # scroll: chi(O_X(p)) = 3p^2 + 3p; three skew lines: chi(O_X(p)) = 3(p+1)
    for p in range(-10, 11):
        assert en_chi_ideal(5, 3, p) == chi_structure(5, p) - (3 * p * p + 3 * p)
        assert en_chi_ideal(5, 2, p) == chi_structure(5, p) - 3 * (p + 1)


def test_en_chi_line_bundle_case():
    for n in range(2, 8):
        for p in range(-6, 7):
            assert en_chi_ideal(n, n, p) == chi_structure(n, p - n + 1)


def test_predicted_band():
    assert predicted_entries(5, 3) == {2: (0, 1)}
    assert predicted_entries(5, 2) == {1: (0, 2), 3: (-2, 1)}
    assert predicted_entries(7, 3) == {2: (0, 3), 4: (-2, 1)}
    assert predicted_entries(5, 5) == {}


def test_scroll_table():
    T = en_table(5, 3)
    assert T.window == default_window(5, 3) == (-1, 3)
    row = T.row(0)
    assert row.entries == (0, 0, 1, 0, 0, 0)
    assert row.provenance[2] == "oracle"
    assert T.conflicts() == []
    assert T.chi_gaps() == []
    for r in T.rows:
        assert r.chi() == r.chi_expected
    # section counts completed from the characteristic
    assert T.row(2).entries[0] == 3
    assert T.row(3).entries[0] == 20


def test_three_lines_table_surfaces_the_conflict():
    T = en_table(5, 2)
    assert T.window == (-3, 2)
    assert T.row(0).entries == (0, 2, 0, 0, 0, 0)
    assert T.conflicts() == [(3, -2, 1, 0)]
    row = T.row(-2)
    assert row.provenance[3] == "conflict"
    assert row.entries[3] == 0
    assert not row.chi_consistent
    assert "3" in row.caveat
    assert T.chi_gaps() == [-3, -2]
    for p in (-1, 0, 1, 2):
        assert T.row(p).chi_consistent


def test_buchsbaum_check_on_both_instances():
    assert buchsbaum_sv_check(en_table(5, 3)).holds
    rep = buchsbaum_sv_check(en_table(5, 2))
    assert rep.holds
    assert rep.witness is None


def test_buchsbaum_check_finds_synthetic_violation():
    adv = _synthetic_table(5, 2, {(1, 0): 1, (2, 2): 1}, (-2, 2))
    rep = buchsbaum_sv_check(adv)
    assert not rep.holds
    assert rep.witness == ((1, 0, 1), (2, 2, 1))


def test_buchsbaum_check_refuses_partial_window():
    T = en_table(5, 2, (0, 1))
    with pytest.raises(PreconditionError, match="window"):
        buchsbaum_sv_check(T)


def test_hypersurface_table_is_clean():
    T = en_table(5, 5, (-8, 6))
    assert T.chi_gaps() == []
    assert T.conflicts() == []
    assert buchsbaum_sv_check(T).holds
    assert T.row(4).entries[0] == 1
    assert en_table(3, 3, (2, 2)).row(2).entries[0] == 1


def test_table_row_validation():
    with pytest.raises(InconsistencyError):
        TableRow(0, [0, -1, 0], ["oracle"] * 3, {}, 0, True)
    with pytest.raises(PreconditionError):
        TableRow(0, [0, 0], ["oracle", "guess"], {}, 0, True)
    with pytest.raises(PreconditionError):
        CohomologyTable(5, 3, [TableRow(0, [0] * 3, ["oracle"] * 3, {}, 0, True)])
    with pytest.raises(PreconditionError):
        en_table(5, 3, (2, 1))


def test_synthetic_table_places_entries():
    T = _synthetic_table(5, 3, {(2, 0): 1}, (-1, 1))
    assert T.row(0).entries[2] == 1
    assert T.row(1).entries == (0,) * 6
