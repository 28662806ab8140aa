import dataclasses
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from minorbit import liealg, ratlin, tensor
from minorbit.catalog import Family, dual_pair, get_class


def test_o66_rank2_stabilizer_dimensions(o3):
    dec = tensor.stabilizer_sk(o3, 2)
    assert dec.dims() == {
        "s_k": 22, "s_k_prime": 18, "u_k": 8, "l_k": 4, "g_k": 10, "h_k": 6}


def test_gl6_rank2_stabilizer_dimensions(gl3):
    dec = tensor.stabilizer_sk(gl3, 2)
    assert dec.dims() == {
        "s_k": 10, "s_k_prime": 8, "u_k": 4, "l_k": 2, "g_k": 4, "h_k": 2}


def test_rank1_consistency_with_direct_stabilizer(all_models):
    for m in all_models:
        dec = tensor.stabilizer_sk(m, 1)
        direct = liealg.stabilizer_algebra(m, m.triples[0].y)
        assert dec.s_k_dim == direct.dim
        assert ratlin.span_intersection_dim(dec.s_k.coords, direct.coords) == direct.dim
        # the two stabilizers coincide at k = 1
        assert dec.s_k_prime_dim == dec.s_k_dim


def test_k_range_validation(o2):
    with pytest.raises(ValueError):
        tensor.stabilizer_sk(o2, 0)
    with pytest.raises(ValueError):
        tensor.stabilizer_sk(o2, 2)


def test_structure_invariants(o3, gl3):
    for m, k in ((o3, 2), (gl3, 2), (o3, 1)):
        dec = tensor.stabilizer_sk(m, k)
        rep = tensor.decomposition_invariants(m, dec)
        assert rep.passed, rep.to_json()


def test_audit_matches_catalog(o3, gl3):
    rep = tensor.audit_dual_pair(o3, 2)
    assert rep.passed, rep.to_json()
    assert rep.meta["expected"] == "Sp_4(R)/[SL_2(R)]^2"
    rep = tensor.audit_dual_pair(gl3, 2)
    assert rep.passed
    assert rep.meta["expected"] == "GL_2(R)/[GL_1(R)]^2"


def test_audit_dims_against_closed_forms(o3):
    pair = dual_pair(get_class(Family.O2N2N), 2, n=3)
    dec = tensor.stabilizer_sk(o3, 2)
    assert dec.g_k_dim == pair.g_dim == 10   # k(2k+1) for Sp_2k(R)
    assert dec.h_k_dim == pair.h_dim == 6    # 3k for [SL_2(R)]^k


def test_nilradical_shared_between_stabilizers(o3):
    dec = tensor.stabilizer_sk(o3, 2)
    rad_prime = tensor._form_radical(o3, dec.s_k_prime)
    assert rad_prime.dim == dec.u_k_dim
    assert ratlin.span_intersection_dim(
        rad_prime.coords, dec.nilradical.coords) == dec.u_k_dim


@pytest.mark.parametrize("family,dims", [
    (Family.O2N2N, {2: (10, 6), 3: (21, 9)}),     # Sp_2k(R) / [SL_2(R)]^k
    (Family.GL2N_R, {2: (4, 2), 3: (9, 3)}),      # GL_k(R) / [GL_1(R)]^k
], ids=["o2n2n", "gl2nR"])
def test_rank4_audit_matches_catalog(family, dims):
    m = liealg.build_model(family, 4)
    for k, (g_dim, h_dim) in dims.items():
        pair = dual_pair(get_class(family), k, n=4)
        assert (pair.g_dim, pair.h_dim) == (g_dim, h_dim)
        rep = tensor.audit_dual_pair(m, k)
        assert rep.passed, rep.to_json()
        assert (rep.meta["dims"]["g_k"], rep.meta["dims"]["h_k"]) == (g_dim, h_dim)
        assert all(c.residual in (None, 0) for c in rep.checks)


def _failed(rep, name):
    check = next(c for c in rep.checks if c.name == name)
    return not check.passed and check.residual > 0


def _unclosed_pair(m, sub):
    """Two basis vectors of sub whose bracket leaves their span."""
    for a, b in itertools.combinations(sub.coords, 2):
        pair = liealg.LSubspace(m, [a, b])
        if not pair.contains(m.bracket(*pair.sparse)):
            return pair
    raise AssertionError("every pair of basis vectors closes")


def test_invariants_fail_on_wrong_decompositions(o3):
    dec = tensor.stabilizer_sk(o3, 2)
    cases = [
        (dataclasses.replace(dec, nilradical=dec.levi), "nilradical is an ideal of s_k"),
        (dataclasses.replace(dec, l_k=dec.g_k), "[g_k, l_k] = 0"),     # sp_4 is not abelian
        (dataclasses.replace(dec, levi=_unclosed_pair(o3, dec.levi)),
         "levi closes under bracket"),
    ]
    for wrong, name in cases:
        rep = tensor.decomposition_invariants(o3, wrong)
        assert _failed(rep, name), rep.to_json()


def _random_l_element(m, rand):
    return {k: Fraction(rand.randint(-4, 4), rand.randint(1, 3))
            for k in rand.sample(m.l_indices, 4)}


@pytest.mark.parametrize("fixture", ["o3", "gl3"])
def test_trace_form_matches_dense_traces(fixture, request):
    # the Grams of the radical and the orthocomplement are GradedModel.trace
    # and -trace(u, theta v); the dense traces of the exact matrices are
    # their oracle, since theta v = -v^T
    m = request.getfixturevalue(fixture)
    rand = random.Random(3)
    for _ in range(20):
        u, v = _random_l_element(m, rand), _random_l_element(m, rand)
        mat_u, mat_v = m.element(u), m.element(v)
        assert m.trace(u, v) == np.trace(mat_u @ mat_v)
        assert -m.trace(u, m.theta(v)) == np.trace(mat_u @ mat_v.T)


@pytest.mark.parametrize("fixture", ["o3", "gl3"])
def test_bracket_coords_match_dense_commutator(fixture, request):
    # the dense matrix bracket A @ B - B @ A on exact object arrays is the
    # oracle for the coordinate brackets that decomposition_invariants runs on
    m = request.getfixturevalue(fixture)
    dec = tensor.stabilizer_sk(m, 2)
    rand = random.Random(7)
    pairs = [(a, b) for a in dec.s_k.sparse for b in dec.nilradical.sparse]
    pairs += [(a, b) for a in dec.levi.sparse for b in dec.levi.sparse]
    pairs += [(_random_l_element(m, rand), _random_l_element(m, rand)) for _ in range(20)]
    for a, b in pairs:
        mat_a, mat_b = m.element(a), m.element(b)
        assert m.coords(mat_a @ mat_b - mat_b @ mat_a) == m.bracket(a, b)


def _dense_support_split(m, sub, k):
    """Reference split of sub along the rank-k frame on dense matrices: the
    frame's rows and columns are the nonzero ones of the triple matrices,
    and every nonzero entry of the basis matrices of sub constrains the part
    that must vanish there."""
    frame = set()
    for t in m.triples[:k]:
        for coords in (t.x, t.y, t.h):
            rows, cols = np.nonzero(m.element(coords))
            frame.update(rows.tolist() + cols.tolist())
    if not sub.coords:
        return [], []
    l_flat = np.array([m.basis[a].ravel() for a in m.l_indices], dtype=object)
    flat = np.array(sub.coords, dtype=object).dot(l_flat)
    inside_rows, outside_rows = [], []
    for p in range(flat.shape[1]):
        col = flat[:, p]
        if np.any(col):
            r, c = divmod(p, m.dim_ambient)
            (outside_rows if r in frame and c in frame else inside_rows).append(col)

    def kernel(rows):
        if not rows:
            return [list(v) for v in sub.coords]
        return [list(v) for v in tensor._lift(
            m, ratlin.nullspace(np.array(rows, dtype=object)),
            np.array(sub.coords, dtype=object)).coords]
    return kernel(inside_rows), kernel(outside_rows)


@pytest.mark.parametrize("family,n", [("o2n2n", 3), ("o2n2n", 4),
                                      ("gl2nR", 3), ("gl2nR", 4), ("gl2nR", 5)])
def test_support_split_matches_dense_reference(family, n):
    # the split read off the sparse basis entries gives the very coords of
    # the split read off dense matrices, at every depth k
    m = liealg.build_model(family, n)
    for k in range(1, n):
        dec = tensor.stabilizer_sk(m, k)
        g_k, l_k = _dense_support_split(m, dec.levi, k)
        h_k, _ = _dense_support_split(m, dec.levi_prime, k)
        assert [list(v) for v in dec.g_k.coords] == g_k, k
        assert [list(v) for v in dec.h_k.coords] == h_k, k
        assert [list(v) for v in dec.l_k.coords] == l_k, k
