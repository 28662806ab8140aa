from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from minorbit import catalog, liealg
from minorbit.catalog import Family, Multiplicities, OpqDescriptor

EXPECTED_ROWS = [
    ("GL_2n(R)", "1", 0),
    ("O_2n,2n", "2", 0),
    ("E_7(7)", "4", 0),
    ("O_p+2,p+2", "p", 0),
    ("Sp_n(C)", "1", 1),
    ("GL_2n(C)", "2", 1),
    ("O_4n(C)", "4", 1),
    ("E_7(C)", "8", 1),
    ("O_p+4(C)", "p", 1),
    ("Sp_n,n", "2", 2),
    ("GL_2n(H)", "4", 3),
]


def test_eleven_rows_in_table_order():
    rows = catalog.list_classes()
    assert len(rows) == 11
    assert [(r.display, r.d_symbol, r.e) for r in rows] == EXPECTED_ROWS


def test_model_flags():
    flagged = [r.family for r in catalog.list_classes() if r.model_available]
    assert flagged == [Family.GL2N_R, Family.O2N2N]


def test_tau_examples():
    assert catalog.tau(Multiplicities(2, 0)) == Fraction(1, 2)
    assert catalog.tau(Multiplicities(2, 2)) == Fraction(-1, 2)
    assert catalog.tau(Multiplicities(1, 0)) == 0


@given(st.integers(1, 50), st.integers(0, 50))
def test_tau_is_half_integer(d, e):
    t = catalog.tau(Multiplicities(d, e))
    assert (2 * t).denominator == 1


def test_dim_nbar_examples():
    o = catalog.get_class(Family.O2N2N)
    gl = catalog.get_class(Family.GL2N_R)
    assert catalog.dim_nbar(o, 2) == 6
    assert catalog.dim_nbar(gl, 2) == 4
    assert catalog.dim_nbar(o, 3) == 15


@pytest.mark.parametrize("family", [Family.O2N2N, Family.GL2N_R])
@pytest.mark.parametrize("n", range(2, 7))
def test_dim_nbar_matches_model_basis_count(family, n):
    row = catalog.get_class(family)
    model = liealg.build_model(family, n)
    assert catalog.dim_nbar(row, n) == len(model.nbar_indices)


def test_radial_exponent_examples():
    assert catalog.radial_exponent(catalog.get_class(Family.O2N2N), 2) == 3
    assert catalog.radial_exponent(catalog.get_class(Family.GL2N_R), 3) == 2
    assert catalog.radial_exponent(catalog.get_class(Family.E7_SPLIT)) == 11


def test_dual_pair_instantiation():
    o = catalog.get_class(Family.O2N2N)
    pair = catalog.dual_pair(o, 2, n=3)
    assert (pair.g_label, pair.h_label) == ("Sp_4(R)", "[SL_2(R)]^2")
    assert (pair.g_dim, pair.h_dim) == (10, 6)

    e7 = catalog.get_class(Family.E7_SPLIT)
    pair = catalog.dual_pair(e7, 2)
    assert (pair.g_label, pair.h_label) == ("Spin(4,5)", "Spin(4,4)")
    assert (pair.g_dim, pair.h_dim) == (36, 28)

    glc = catalog.get_class(Family.GL2N_C)
    pair = catalog.dual_pair(glc, 3, n=4)
    assert (pair.g_label, pair.h_label) == ("GL_3(C)", "[GL_1(C)]^3")


def test_dual_pair_domain_errors():
    o = catalog.get_class(Family.O2N2N)
    with pytest.raises(ValueError):
        catalog.dual_pair(o, 1, n=3)
    with pytest.raises(ValueError):
        catalog.dual_pair(o, 3, n=3)
    rank2 = catalog.get_class(Family.O_P2P2)
    with pytest.raises(ValueError, match="no dual pair"):
        catalog.dual_pair(rank2, 2)


def test_validate_admissible():
    ok, diag = catalog.validate_admissible(OpqDescriptor(5, 7))
    assert not ok and "rank-2" in diag
    ok, _ = catalog.validate_admissible(OpqDescriptor(4, 4))
    assert ok


def _all_multiplicity_instances():
    for row in catalog.list_classes():
        if row.parametric:
            for p in range(1, 11):
                yield row, row.multiplicities(p)
        else:
            yield row, row.multiplicities()


def test_square_integrability_inequality_at_minimal_rank():
    for row, m in _all_multiplicity_instances():
        n = row.rank() if row.n_symbol != "n" else 2
        t = catalog.tau(m)
        assert 4 * t < m.d * n - 1, (row.display, m)


def test_pole_order_chain():
    # 4 tau = 2(d-e-1) <= 2d-2 < dn-1 for n >= 2
    for row, m in _all_multiplicity_instances():
        n = row.rank() if row.n_symbol != "n" else 2
        t = catalog.tau(m)
        assert 4 * t <= 2 * m.d - 2 < m.d * n - 1


@given(st.integers(2, 6))
def test_inequality_holds_for_generic_rank_rows(n):
    for row in catalog.list_classes():
        if row.n_symbol != "n":
            continue
        m = row.multiplicities(3 if row.parametric else None)
        assert 4 * catalog.tau(m) < m.d * n - 1


def test_csv_golden(tmp_path):
    from conftest import DATA_DIR
    assert catalog.to_csv() == (DATA_DIR / "catalog.csv").read_text()


def test_json_golden():
    from conftest import DATA_DIR
    assert catalog.to_json() == (DATA_DIR / "catalog.json").read_text()


def test_csv_has_eleven_data_rows():
    lines = catalog.to_csv().strip().splitlines()
    assert len(lines) == 12  # header + 11 rows
    assert lines[0] == "family,n,d,e,km_label,dual_family"
