import math
from fractions import Fraction

import numpy as np
import pytest

from minorbit import bessel, catalog, liealg, orbit, sphver
from minorbit.catalog import Family


def test_k1_exact(all_models):
    for m in all_models:
        rep = sphver.verify_k1(m)
        assert rep.passed
        assert all(c.residual == 0 for c in rep.checks)


def test_kprime_exact_with_negative_control(all_models):
    for m in all_models:
        rep = sphver.verify_kprime(m, samples=100, seed=0)
        assert rep.passed, rep.to_json()


def test_kdoubleprime(all_models):
    for m in all_models:
        rep = sphver.verify_kdoubleprime(m)
        assert rep.passed
        assert rep.checks[0].residual == 0


def test_crown_assembly_from_models(o2, gl2):
    for m in (o2, gl2):
        rep = sphver.assemble_crown(m)
        assert rep.passed, rep.to_json()


# the (d, e) of every catalog row, with p = 1, 2, 3 on the parametric rows
CATALOG_MULTIPLICITIES = sorted({
    (mult.d, mult.e) for row in catalog.list_classes()
    for mult in map(row.multiplicities, (1, 2, 3) if row.parametric else (None,))})


@pytest.mark.parametrize("d,e,coeff", [(d, e, 2 * (d + 1 - e)) for d, e in CATALOG_MULTIPLICITIES])
def test_crown_assembly_coefficients(d, e, coeff):
    # the phi' coefficient of D that assemble_crown matches, 4(tau+1) = 2(d+1-e)
    c1, c2 = bessel.d_coefficient_identity(d, e)
    assert c1 == c2 == coeff


def _block_entry(i, j):
    return lambda x: x[i, j]


def _ray_blocks(m):
    """The backend's n-coordinate rays as n-side blocks, the points that
    ActionOperator acts on."""
    n_blocks = np.array([m.block(m.basis[k], 1) for k in m.n_indices], dtype=float)
    return {name: np.tensordot(ray, n_blocks, 1)
            for name, ray in orbit.FloatBackend(m).ray_blocks().items()}


def test_action_translation(o2):
    rays = _ray_blocks(o2)
    x0 = rays["e1"]
    op = sphver.ActionOperator(o2, "translation", o2.embed(x0, 1), 2)
    f = _block_entry(1, 0)
    x = 0.3 * rays["mix"]
    val = op.apply(f, x)
    assert math.isclose(val, x0[1, 0], rel_tol=1e-8)


def test_action_linear_on_constant(o2):
    h1 = np.array([[float(v) for v in row] for row in o2.element(o2.triples[0].h)])
    op = sphver.ActionOperator(o2, "linear", h1, o2.d)
    f = lambda x: 1.0
    x = 0.7 * _ray_blocks(o2)["e2"]
    # chi(h_0) = -(j d) nu(h_0) = -d for h_1
    assert math.isclose(op.apply(f, x), -float(o2.d), rel_tol=1e-10)


def test_action_quadratic_character_factor(gl2):
    y1 = np.array([[float(v) for v in row] for row in gl2.element(gl2.triples[0].y)])
    op = sphver.ActionOperator(gl2, "quadratic", y1, gl2.d)
    f = lambda x: 1.0
    x = 1.2 * _ray_blocks(gl2)["e1"]
    x_amb = gl2.embed(x, 1)
    h = x_amb @ y1 - y1 @ x_amb
    expected = -gl2.d * gl2.nu_from_traces(h)
    assert math.isclose(op.apply(f, x), expected, rel_tol=1e-10)


def test_action_commutation_x_y_gives_h(o2):
    # [pi(x_1), pi(y_1)] must act like pi(h_1) on smooth functions
    tofloat = lambda mat: np.array([[float(v) for v in row] for row in mat])
    x1, y1, h1 = (tofloat(o2.element(getattr(o2.triples[0], a))) for a in ("x", "y", "h"))
    op_x = sphver.ActionOperator(o2, "translation", x1, o2.d)
    op_y = sphver.ActionOperator(o2, "quadratic", y1, o2.d)
    op_h = sphver.ActionOperator(o2, "linear", h1, o2.d)

    def f(x):
        return x[1, 0] ** 2 + 0.5 * x[3, 2] - 0.25 * x[1, 0] * x[3, 2]

    rays = _ray_blocks(o2)
    x = 0.4 * rays["e1"] + 0.9 * rays["e2"]
    step = 1e-5
    xy = op_x.apply(lambda p: op_y.apply(f, p, step), x, step)
    yx = op_y.apply(lambda p: op_x.apply(f, p, step), x, step)
    direct = op_h.apply(f, x, step)
    assert math.isclose(xy - yx, direct, rel_tol=1e-4, abs_tol=1e-6)


def _short_grid(m, tmax=2.0):
    rays = orbit.FloatBackend(m).ray_blocks()
    grid = [("origin", 0.0 * rays["e1"])]
    for name, ray in rays.items():
        for t in np.arange(0.5, tmax + 0.25, 0.5):
            grid.append((f"{name}:{t:.1f}", float(t) * ray))
    return grid


def test_spherical_direct_consistent_with_zero(o2):
    rep = sphver.verify_spherical_direct(o2, grid=_short_grid(o2),
                                         samples=2 * 10 ** 5, seed=0)
    assert rep.passed, rep.to_json()


def test_spherical_direct_gl(gl2):
    rep = sphver.verify_spherical_direct(gl2, grid=_short_grid(gl2),
                                         samples=2 * 10 ** 5, seed=0)
    assert rep.passed, rep.to_json()


def test_spherical_control_rejected(o2):
    rep = sphver.verify_spherical_direct(o2, grid=_short_grid(o2),
                                         samples=2 * 10 ** 5, seed=0, tau_shift=1)
    assert rep.meta["max_abs_z"] > 5.0
    assert not rep.passed


def test_spherical_determinism(o2):
    g = _short_grid(o2, tmax=1.0)
    a = sphver.verify_spherical_direct(o2, grid=g, samples=10 ** 5, seed=3)
    b = sphver.verify_spherical_direct(o2, grid=g, samples=10 ** 5, seed=3)
    assert a.to_json() == b.to_json()


def test_m_invariance_of_transform(o2):
    rep = sphver.m_invariance_check(o2, samples=2 * 10 ** 5, seed=1)
    assert rep.passed, rep.to_json()


def test_m_invariance_matches_separate_fourier_calls(o2, gl2):
    for m in (o2, gl2):
        rep = sphver.m_invariance_check(m, samples=10 ** 5, seed=4)
        rot = m.m_rotation.astype(float)
        rays = orbit.FloatBackend(m).ray_blocks()
        e1, e2 = rays["e1"], rays["e2"]
        bases = [e1, e2, (e1 + 2.0 * e2) / math.sqrt(5.0)]
        assert [c.name for c in rep.checks] == ["ray e1", "ray e2", "ray e1+2e2"]
        for check, base in zip(rep.checks, bases):
            a = orbit.fourier_phi(m, 1.5 * base, samples=10 ** 5, seed=5)
            b = orbit.fourier_phi(m, rot @ (1.5 * base), samples=10 ** 5, seed=6)
            sigma = math.hypot(a.stderr, b.stderr)
            assert check.estimate == a.value.real - b.value.real
            assert check.stderr == sigma
            assert check.residual == abs(a.value.real - b.value.real)


@pytest.mark.parametrize("family", [Family.O2N2N, Family.GL2N_R])
def test_m_invariance_rays_are_moved_by_the_rotation(monkeypatch, family):
    # a ray that m_rotation fixes compares one x on two streams and checks
    # nothing; on gl2nR at n = 2 the grid's mix ray is such a ray
    for n in range(2, 7):
        m = liealg.build_model(family, n)
        sides = []

        def record(model, xs, samples, seed):
            sides.append([np.asarray(x, dtype=float) for x in xs])
            return [orbit.FourierEstimate(1.0 + 0j, 0.1, samples, seed) for _ in xs]

        monkeypatch.setattr(orbit, "fourier_phi_many", record)
        rep = sphver.m_invariance_check(m, samples=10 ** 4)
        assert len(sides) == 2 and len(sides[0]) == len(rep.checks) == 3
        for x, rotated in zip(*sides):
            assert np.linalg.norm(rotated - x) > 0.1


def test_spherical_grid_prefix_matches_full_grid(gl2):
    # one sample stream serves the whole grid, so a point's check does not
    # depend on which other points are evaluated
    grid = sphver.default_grid(gl2)
    full = sphver.verify_spherical_direct(gl2, grid=grid, samples=10 ** 5, seed=5)
    head = sphver.verify_spherical_direct(gl2, grid=grid[:3], samples=10 ** 5, seed=5)
    assert [c.as_dict() for c in head.checks] == [c.as_dict() for c in full.checks[:3]]
    # nor on its place in the grid
    back = sphver.verify_spherical_direct(gl2, grid=grid[2::-1], samples=10 ** 5, seed=5)
    assert [c.as_dict() for c in back.checks[::-1]] == [c.as_dict() for c in full.checks[:3]]


@pytest.mark.parametrize("family", [Family.O2N2N, Family.GL2N_R])
def test_spherical_tangent_trig_matches_libm(monkeypatch, family):
    # orbit.cos_sin replaces np.cos and np.sin in the grid loop; on the same
    # stream the estimates move only by rounding and no verdict changes
    m = liealg.build_model(family, 2)
    fast = sphver.verify_spherical_direct(m, samples=4 * 10 ** 5, seed=1)
    monkeypatch.setattr(orbit, "cos_sin", lambda phase: (np.cos(phase), np.sin(phase)))
    libm = sphver.verify_spherical_direct(m, samples=4 * 10 ** 5, seed=1)
    assert [c.name for c in fast.checks] == [c.name for c in libm.checks]
    for a, b in zip(fast.checks, libm.checks):
        assert (a.passed, a.inconclusive) == (b.passed, b.inconclusive)
        assert abs(a.estimate - b.estimate) <= 1e-12 * b.stderr
    assert fast.passed == libm.passed


def test_monte_carlo_checks_carry_statistics(o2):
    rep = sphver.verify_spherical_direct(o2, grid=_short_grid(o2, tmax=1.0),
                                         samples=10 ** 5, seed=2)
    for c in rep.checks[1:]:
        assert c.z == pytest.approx(c.estimate / c.stderr)
        assert {"estimate", "stderr", "z"} <= set(c.as_dict())
    assert "z" not in rep.checks[0].as_dict()  # the origin has no spread
    exact = sphver.verify_k1(o2).checks[0].as_dict()
    assert not {"estimate", "stderr", "z"} & set(exact)


def test_spherical_origin_has_exactly_zero_spread(o2, gl2):
    # the origin's integrand is 0 on every sample, and the streamed moments
    # over several slices keep it exactly 0
    for m in (o2, gl2):
        rep = sphver.verify_spherical_direct(m, grid=_short_grid(m, tmax=0.5),
                                             samples=10 ** 5, seed=1)
        origin = rep.checks[0]
        assert 10 ** 5 // 2 > 2 * orbit.CHUNK
        assert origin.name == "x = origin" and origin.passed
        assert origin.estimate == 0.0 and origin.stderr == 0.0


@pytest.mark.parametrize("family", [Family.O2N2N, Family.GL2N_R])
def test_slice_length_moves_only_rounding(monkeypatch, family):
    # orbit.CHUNK sets the order of the summation, not what is summed: on the
    # same streams the estimates move by rounding alone and no verdict moves
    m = liealg.build_model(family, 2)
    samples = 2 * 10 ** 5 + 37

    def run():
        return [sphver.verify_spherical_direct(m, grid=_short_grid(m), samples=samples,
                                               seed=3),
                orbit.equivariance_check(m, seed=3, samples=samples),
                orbit.scaling_check(m, seed=3, samples=samples)]
    default = run()
    monkeypatch.setattr(orbit, "CHUNK", 1000)
    small = run()
    for a, b in zip(default, small):
        assert [c.name for c in a.checks] == [c.name for c in b.checks]
        for ca, cb in zip(a.checks, b.checks):
            assert (ca.passed, ca.inconclusive) == (cb.passed, cb.inconclusive)
            if cb.stderr:
                assert abs(ca.estimate - cb.estimate) <= 1e-12 * cb.stderr
            else:
                assert ca.estimate == cb.estimate
        assert a.passed == b.passed
