from fractions import Fraction

import pytest

from minorbit import liealg, ratlin
from minorbit.catalog import Family
from minorbit.reports import SpanError


def test_orthogonal_model_dimensions(o2):
    assert o2.dim_ambient == 8
    assert o2.dim == 28
    assert o2.dim_l == 16
    assert o2.dim_nbar == len(o2.n_indices) == 6
    assert o2.form_scale == Fraction(1, 2)


def test_general_linear_model_dimensions(gl2):
    assert gl2.dim_ambient == 4
    assert gl2.dim == 16
    assert gl2.dim_l == 8
    assert gl2.dim_nbar == 4
    assert gl2.form_scale == 1


def test_build_model_rejects_bad_input():
    with pytest.raises(ValueError):
        liealg.build_model(Family.E7_SPLIT, 3)
    with pytest.raises(ValueError):
        liealg.build_model(Family.O2N2N, 1)
    with pytest.raises(ValueError):
        liealg.build_model(Family.O2N2N, 7)


def test_y1_block_matches_reference_matrix(o2):
    y1 = o2.triples[0].y
    block = o2.block(y1, -1)
    expect = ratlin.rzeros((4, 4))
    expect[0, 1] = Fraction(-1)
    expect[1, 0] = Fraction(1)
    assert all((block == expect).flat)


def test_sl2_bracket_examples(o2):
    t = o2.triples
    assert ratlin.is_zero_matrix(liealg.bracket(o2, t[0].x, t[0].y) - t[0].h)
    assert ratlin.is_zero_matrix(liealg.bracket(o2, t[0].h, t[0].x) - 2 * t[0].x)
    assert ratlin.is_zero_matrix(liealg.bracket(o2, t[0].x, t[1].x))


def test_bracket_outside_span_raises(o2):
    bad = o2.zero()
    bad[0, 4] = Fraction(1)  # upper-right block must be skew
    with pytest.raises(SpanError):
        o2.coords(bad)


def test_theta_examples(o2):
    t1 = o2.triples[0]
    assert ratlin.is_zero_matrix(liealg.theta(o2, t1.y) + t1.x)
    assert ratlin.is_zero_matrix(liealg.theta(o2, t1.h) + t1.h)
    # skew gl-block elements lie in k and are fixed by theta
    skew = o2.zero()
    skew[0, 1], skew[1, 0] = Fraction(1), Fraction(-1)
    skew[4 + 1, 4 + 0], skew[4 + 0, 4 + 1] = Fraction(-1), Fraction(1)
    assert ratlin.is_zero_matrix(liealg.theta(o2, skew) - skew)


def test_pair_examples(o2):
    t = o2.triples
    assert liealg.pair(o2, t[0].x, t[0].y) == 1
    assert liealg.pair(o2, t[0].y, liealg.theta(o2, t[0].y)) == -1
    assert liealg.pair(o2, t[0].x, t[1].x) == 0


def test_norm_nbar(o2):
    y1 = o2.triples[0].y
    assert liealg.norm_nbar(o2, y1) == 1.0
    assert liealg.norm_nbar(o2, o2.zero()) == 0.0
    assert liealg.norm_nbar(o2, 3 * y1) == 3.0
    with pytest.raises(ValueError):
        liealg.norm_nbar(o2, o2.triples[0].x)


def test_nu(o2, gl2):
    ident = ratlin.reye(4)
    assert liealg.nu(o2, o2.l_from_gl_block(ident)) == 2
    for m in (o2, gl2):
        for t in m.triples:
            assert liealg.nu(m, t.h) == 1
    # vanishes on brackets of l elements
    l_mats = [o2.basis[i] for i in o2.l_indices[:6]]
    for a in l_mats:
        for b in l_mats:
            assert liealg.nu(o2, o2.bracket(a, b)) == 0


def test_nu_rejects_elements_outside_l(o2):
    with pytest.raises(ValueError):
        liealg.nu(o2, o2.triples[0].y)


def test_casimir_scalar(all_models):
    for m in all_models:
        assert liealg.casimir_omega_scalar(m) == 2


def test_stabilizer_dimensions(o2, gl2):
    s1 = liealg.stabilizer_algebra(o2, o2.triples[0].y)
    assert s1.dim == 11
    s1gl = liealg.stabilizer_algebra(gl2, gl2.triples[0].y)
    assert s1gl.dim == 5
    # orbit dimension cross-check: dim O_1 = dim l - dim s_1
    assert gl2.dim_l - s1gl.dim == 2 * gl2.n - 1
    everything = liealg.stabilizer_algebra(o2, o2.zero())
    assert everything.dim == o2.dim_l


def test_stabilizer_scale_invariant(o2):
    y1 = o2.triples[0].y
    s1 = liealg.stabilizer_algebra(o2, y1)
    s1_scaled = liealg.stabilizer_algebra(o2, 5 * y1)
    assert s1.dim == s1_scaled.dim
    assert ratlin.span_intersection_dim(s1.coords, s1_scaled.coords) == s1.dim


def test_modular_character_check(all_models):
    for m in all_models:
        rep = liealg.modular_character_check(m)
        assert rep.passed, rep.to_json()
        assert all(c.residual == 0 for c in rep.checks)


def test_structural_suite_n2(o2, gl2):
    for m in (o2, gl2):
        rep = liealg.structural_suite(m)
        assert rep.passed, "\n".join(
            c.name for c in rep.checks if not c.passed)


def test_theta_eigenbasis_diagnostics(o2):
    vectors, norms = liealg.theta_eigenbasis_of_l(o2)
    assert len(vectors) == o2.dim_l
    assert all(b > 0 for b in norms)


def test_model_dump_goldens(o2, gl2):
    from conftest import DATA_DIR
    assert liealg.model_dump_json(o2) == (DATA_DIR / "model_o2n2n_n2.json").read_text()
    assert liealg.model_dump_json(gl2) == (DATA_DIR / "model_gl2nR_n2.json").read_text()


def test_k1_linear_identity_on_basis(all_models):
    for m in all_models:
        ty1 = m.theta(m.triples[0].y)
        for k in m.nbar_indices:
            y = m.basis[k]
            assert liealg.nu(m, m.bracket(ty1, y)) == m.pair(ty1, y)


def test_kprime_identity_on_rational_orbit(o2, gl2):
    from minorbit import orbit
    for m in (o2, gl2):
        for p in orbit.sample_orbit_rational(m, 25, seed=11):
            assert ratlin.is_zero_matrix(p.membership_residual(m))


def test_grading_element_eigenvalues(o2):
    h = o2.grading_element
    for k in o2.nbar_indices:
        e = o2.basis[k]
        assert ratlin.is_zero_matrix(o2.bracket(h, e) + 2 * e)


def _theta_fixed_dim(m):
    perm = m.theta_perm
    fixed = sum(1 for k, (t, s) in enumerate(perm) if t == k and s == 1)
    pairs = sum(1 for k, (t, _) in enumerate(perm) if t > k)
    return fixed + pairs


@pytest.mark.parametrize("family,n,expected", [
    (Family.O2N2N, 2, 12),    # so(4) + so(4)
    (Family.O2N2N, 3, 30),    # so(6) + so(6)
    (Family.GL2N_R, 2, 6),    # so(4)
    (Family.GL2N_R, 3, 15),   # so(6)
])
def test_theta_fixed_subalgebra_dimension(family, n, expected):
    # validates the transpose-based involution structurally: the fixed
    # subalgebra has the dimension of the maximal compact subalgebra
    m = liealg.build_model(family, n)
    assert _theta_fixed_dim(m) == expected


@pytest.mark.parametrize("family", ["o2n2n", "gl2nR"])
def test_rank_four_exact_suites(family):
    m = liealg.build_model(family, 4)
    rep = liealg.structural_suite(m)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]
    assert liealg.casimir_omega_scalar(m) == 2
    rep = liealg.modular_character_check(m)
    assert rep.passed and all(c.residual == 0 for c in rep.checks)
