import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from minorbit import liealg, ratlin
from minorbit.catalog import Family
from minorbit.reports import ModelInvariantError, SpanError


def _matrix_bracket(m, x, y):
    """Dense oracle: the matrix a @ b - b @ a of two coordinate vectors."""
    a, b = m.element(x), m.element(y)
    return a @ b - b @ a


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
    y1 = o2.element(o2.triples[0].y)
    block = o2.block(y1, -1)
    expect = ratlin.rzeros((4, 4))
    expect[0, 1] = Fraction(-1)
    expect[1, 0] = Fraction(1)
    assert all((block == expect).flat)


def test_sl2_bracket_examples(o2):
    t = o2.triples
    assert o2.bracket(t[0].x, t[0].y) == t[0].h
    assert o2.bracket(t[0].h, t[0].x) == liealg.combine((2, t[0].x))
    assert o2.bracket(t[0].x, t[1].x) == {}
    # against the dense matrix bracket
    for u, v in ((t[0].x, t[0].y), (t[0].h, t[0].x), (t[0].x, t[1].x)):
        assert o2.coords(_matrix_bracket(o2, u, v)) == o2.bracket(u, v)


def test_bracket_outside_span_raises(o2):
    bad = o2.element({})
    bad[0, 4] = Fraction(1)  # upper-right block must be skew
    with pytest.raises(SpanError):
        o2.coords(bad)


def test_theta_examples(o2):
    t1 = o2.triples[0]
    assert o2.theta(t1.y) == liealg.combine((-1, t1.x))
    assert o2.theta(t1.h) == liealg.combine((-1, t1.h))
    # skew gl-block elements lie in k and are fixed by theta
    skew = o2.element({})
    skew[0, 1], skew[1, 0] = Fraction(1), Fraction(-1)
    skew[4 + 1, 4 + 0], skew[4 + 0, 4 + 1] = Fraction(-1), Fraction(1)
    skew = o2.coords(skew)
    assert o2.theta(skew) == skew
    # theta is x -> -x^T on every basis matrix
    for k in range(o2.dim):
        assert o2.coords(-o2.basis[k].T) == o2.theta({k: 1})


def test_pair_examples(o2):
    t = o2.triples
    assert o2.pair(t[0].x, t[0].y) == 1
    assert o2.pair(t[0].y, o2.theta(t[0].y)) == -1
    assert o2.pair(t[0].x, t[1].x) == 0


def test_norm_nbar(o2):
    y1 = o2.triples[0].y
    assert liealg.norm_nbar(o2, y1) == 1.0
    assert liealg.norm_nbar(o2, {}) == 0.0
    assert liealg.norm_nbar(o2, liealg.combine((3, y1))) == 3.0
    with pytest.raises(ValueError):
        liealg.norm_nbar(o2, o2.triples[0].x)


def test_nu(o2, gl2):
    for m in (o2, gl2):
        # the character weights of the torus that equivariance_check draws
        for a, chi in zip(m.torus.indices, m.torus.character):
            assert isinstance(chi, Fraction) and chi == 2 * m.d * liealg.nu(m, {a: 1})
        for t in m.triples:
            assert liealg.nu(m, t.h) == 1
            assert liealg.nu(m, t.h) == m.nu_from_traces(m.element(t.h))
    # vanishes on brackets of l elements
    l_elts = [{i: 1} for i in o2.l_indices[:6]]
    for a in l_elts:
        for b in l_elts:
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
    everything = liealg.stabilizer_algebra(o2, {})
    assert everything.dim == o2.dim_l


def test_subspace_contains_rejects_elements_outside_l(o2):
    # y_1 lies in nbar, so neither it nor h_2 + y_1 lies in s_1, though
    # both have l-part in s_1 (0 and h_2)
    y1, h2 = o2.triples[0].y, o2.triples[1].h
    s1 = liealg.stabilizer_algebra(o2, y1)
    assert s1.contains(h2)
    assert not s1.contains(y1)
    assert not s1.contains(liealg.combine((1, h2), (1, y1)))


def test_stabilizer_scale_invariant(o2):
    y1 = o2.triples[0].y
    s1 = liealg.stabilizer_algebra(o2, y1)
    s1_scaled = liealg.stabilizer_algebra(o2, liealg.combine((5, y1)))
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
            y = {k: 1}
            assert liealg.nu(m, m.bracket(ty1, y)) == m.pair(ty1, y)


def test_kprime_identity_on_rational_orbit(o3, gl3):
    # ranks 3 and 4; rank 2 is test_orbit.py::test_rational_orbit_points_exact
    from minorbit import orbit
    rank4 = [liealg.build_model(f, 4) for f in (Family.O2N2N, Family.GL2N_R)]
    for m in (o3, gl3, *rank4):
        for p in orbit.sample_orbit_rational(m, 25, seed=11):
            assert not p.membership_residual(m)


def test_grading_element_eigenvalues(o2):
    h = o2.grading_element
    for k in o2.nbar_indices:
        assert o2.bracket(h, {k: 1}) == {k: -2}
        e = o2.basis[k]
        assert ratlin.is_zero_matrix(_matrix_bracket(o2, h, {k: 1}) + 2 * e)


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


def test_unipotent_act_is_ambient_conjugation(all_models):
    # Ad(1 + tE) Y = (1 + tE) Y (1 - tE) for E^2 = 0, residual exactly 0;
    # with t = p/q the integer side is (q + pE) Y (q - pE) = q^2 Ad(1 + tE) Y.
    # Y runs over the whole basis: on nbar the (t^2 / 2)(ad E)^2 term
    # vanishes for both families, on l it does not.
    for m in all_models:
        assert m.nilpotent_l
        one = np.eye(m.dim_ambient, dtype=np.int64)
        stack = np.array(m.basis, dtype=np.int64)
        for a in m.nilpotent_l:
            e = stack[a]
            assert not np.any(e @ e)
            for t in liealg._OFFDIAG_PALETTE:
                p, q = t.numerator, t.denominator
                ambient = (q * one + p * e) @ stack @ (q * one - p * e)
                for k in range(m.dim):
                    image = m.element(m.unipotent_act(a, t, {k: 1}))
                    assert ratlin.is_zero_matrix(q * q * image - ambient[k]), (m.family, a, t, k)


def test_torus_act_is_ambient_conjugation(all_models):
    # Ad(D) Y = D Y D^-1 with D = diag(prod_i s_i^(H_i)_rr), residual exactly 0
    rand = random.Random(0)
    for m in all_models:
        hs = [np.diag(m.basis[a]) for a in m.torus.indices]
        palette = liealg._DIAG_PALETTE
        draws = [[palette[(i + shift) % len(palette)] for i in range(len(hs))]
                 for shift in range(len(palette))]
        draws += [[rand.choice(palette) for _ in hs] for _ in range(5)]
        for s in draws:
            diag = [math.prod(si ** int(h[r]) for si, h in zip(s, hs))
                    for r in range(m.dim_ambient)]
            for k in m.nbar_indices:
                y = m.basis[k]
                ambient = np.array([[diag[r] * y[r, c] / diag[c]
                                     for c in range(m.dim_ambient)]
                                    for r in range(m.dim_ambient)], dtype=object)
                image = m.element(m.torus_act(s, {k: 1}))
                assert ratlin.is_zero_matrix(image - ambient), (m.family, s, k)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("family", list(liealg.SPECS))
def test_basis_supports_pairwise_disjoint(family, n):
    # every entry position belongs to at most one basis element, so the
    # support of an element is the union of its coordinates' supports
    m = liealg.build_model(family, n)
    seen = {}
    for k in range(m.dim):
        for pos in m.positions(k):
            assert pos not in seen, (k, seen.get(pos), pos)
            seen[pos] = k
        assert np.count_nonzero(m.basis[k]) == len(m.positions(k))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("family", list(liealg.SPECS))
def test_blocks_hold_every_graded_element(family, n):
    # the blocks read off the entries hold each nbar and n basis element
    # whole, and the traces on their rows give nu on every l-basis element
    m = liealg.build_model(family, n)
    for k in m.nbar_indices + m.n_indices:
        x = m.element({k: 1})
        assert (m.embed(m.block(x, m.grades[k]), m.grades[k]) == x).all(), k
    for a in m.l_indices:
        assert m.nu_from_traces(m.element({a: 1})) == liealg.nu(m, {a: 1}), a


def test_nbar_entry_in_a_row_of_the_n_block_is_rejected(monkeypatch):
    # an so(4, 4) basis whose first nbar element also covers the free
    # lower-left diagonal entry (m, 0): still disjoint supports, but the
    # nbar rows reach into the rows of the n block
    spec = liealg.SPECS[Family.O2N2N]

    def stray(n):
        entries, grades = spec.basis(n)
        entries[0] = entries[0] + [((2 * n, 0), 1)]
        return entries, grades

    monkeypatch.setitem(liealg.SPECS, Family.O2N2N, dataclasses.replace(spec, basis=stray))
    with pytest.raises(ModelInvariantError, match="off-diagonal blocks"):
        liealg.build_model(Family.O2N2N, 2)


def test_overlapping_basis_supports_are_rejected(monkeypatch):
    # a gl_4 basis whose first A-block element also covers the second one's
    # entry: still a basis, but the supports overlap
    spec = liealg.SPECS[Family.GL2N_R]

    def overlapping(n):
        entries, grades = spec.basis(n)
        first = grades.index(0)
        entries[first] = entries[first] + entries[first + 1]
        return entries, grades

    monkeypatch.setitem(liealg.SPECS, Family.GL2N_R,
                        dataclasses.replace(spec, basis=overlapping))
    with pytest.raises(ModelInvariantError, match="share the entry"):
        liealg.build_model(Family.GL2N_R, 2)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("family", list(liealg.SPECS))
def test_m_element_is_an_exact_rotation_of_n(family, n):
    # g = 1 + (4/5) X + (2/5) X^2 for a theta-fixed X in l with X^3 = -X is
    # orthogonal, so Ad(g) Y = g Y g^T; on every basis element of n it stays
    # in n, and m_rotation holds its n-coordinates, all exactly
    m = liealg.build_model(family, n)
    x_coords = m.m_generator
    assert x_coords and all(m.grades[k] == 0 for k in x_coords)
    assert m.theta(x_coords) == x_coords
    x = m.element(x_coords)
    assert ratlin.is_zero_matrix(x @ x @ x + x)
    one = ratlin.rzeros(x.shape)
    np.fill_diagonal(one, 1)
    g = one + Fraction(4, 5) * x + Fraction(2, 5) * (x @ x)
    assert ratlin.is_zero_matrix(g.T @ g - one)
    rot = m.m_rotation
    for a, k in enumerate(m.n_indices):
        coords = m.coords(g @ m.basis[k] @ g.T)
        assert all(m.grades[j] == 1 for j in coords), k
        assert coords == {j: rot[b, a] for b, j in enumerate(m.n_indices) if rot[b, a]}, k
    # Ad(g) = exp(t ad X) with e^(it), e^(2it) != 1 fixes exactly the kernel
    # of ad X: it moves x_1 and x_2, and x_1 + x_2 unless X commutes with it
    # (so it fixes the mix ray of gl2nR at n = 2, the identity of the n block)
    x1, x2 = (t.x for t in m.triples[:2])
    for ray in (x1, x2, liealg.combine((1, x1), (1, x2))):
        v = np.array([ray.get(k, 0) for k in m.n_indices], dtype=object)
        moved = any(rot.dot(v) != v)
        assert moved == bool(m.bracket(x_coords, ray)), ray
        assert moved or ray not in (x1, x2)


@pytest.mark.parametrize("n,planes", [(3, ((0, 1), (1, 2))), (2, ((0, 2),))])
def test_m_generator_off_l_or_with_x_cubed_not_minus_x_is_rejected(monkeypatch, n, planes):
    # two planes of gl_3 sharing row 1 give X^3 = -2X; the plane of rows 0
    # and 2 of gl_4 joins an n entry to an nbar entry
    spec = liealg.SPECS[Family.GL2N_R]
    monkeypatch.setitem(liealg.SPECS, Family.GL2N_R,
                        dataclasses.replace(spec, m_planes=lambda n: planes))
    with pytest.raises(ModelInvariantError, match="M generator"):
        liealg.build_model(Family.GL2N_R, n).m_rotation
