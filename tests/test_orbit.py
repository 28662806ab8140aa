import inspect
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import integrate, special, stats

from minorbit import bessel, catalog, liealg, orbit, ratlin, sphver
from minorbit.catalog import Family
from minorbit.reports import QuadratureError


def _tofloat(mat):
    return np.array([[float(v) for v in row] for row in mat])


def _dense_bracket(a, b):
    return a @ b - b @ a


def _dense_pair(m, a, b):
    """The form <a, b> = form_scale tr(a b) on exact matrices."""
    return m.form_scale * np.trace(a @ b)


def _n_matrix(m, x):
    """The float ambient matrix of the point of n with n-coordinates x."""
    return sum(xa * _tofloat(m.basis[k]) for xa, k in zip(x, m.n_indices))


def _float_rotation(m):
    return m.m_rotation.astype(float)


def _fractions(p):
    """The coordinates Y / den of the orbit point p as Fractions."""
    return {k: Fraction(c, p.den) for k, c in p.y.items()}


def _fraction_residual(m, y):
    """[[y, theta y], y] - 2 <y, theta y> y in Fraction arithmetic, through
    the form <,> = form_scale tr rather than the integer trace."""
    th = m.theta(y)
    return liealg.combine((1, m.bracket(m.bracket(y, th), y)), (-2 * m.pair(y, th), y))


def test_rational_orbit_points_exact(o2, gl2):
    for m in (o2, gl2):
        pts = orbit.sample_orbit_rational(m, 30, seed=5)
        assert (pts[0].y, pts[0].den) == (m.triples[0].y, 1)
        for p in pts:
            assert all(type(c) is int for c in p.y.values())
            assert type(p.den) is int and p.den > 0
            assert p.membership_residual(m) == {}
            # the same identity on the exact matrix, bypassing the tables
            y = m.element(_fractions(p))
            th = -y.T
            resid = _dense_bracket(_dense_bracket(y, th), y) - 2 * _dense_pair(m, y, th) * y
            assert ratlin.is_zero_matrix(resid)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("family", list(liealg.SPECS))
def test_doubled_coordinate_leaves_the_orbit(family, n):
    # doubling any one coordinate of the point of widest support leaves
    # O_1, and the residual is the true one of Y / den, not of Y
    m = liealg.build_model(family, n)
    p = max(orbit.sample_orbit_rational(m, 30, seed=0), key=lambda q: len(q.y))
    assert p.den > 1
    for k in p.y:
        moved = orbit.OrbitPoint({**p.y, k: 2 * p.y[k]}, p.den)
        resid = moved.membership_residual(m)
        assert resid, k
        assert resid == _fraction_residual(m, _fractions(moved)), k


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("family", list(liealg.SPECS))
def test_common_factor_keeps_the_residual(family, n):
    # (c Y, c den) is the same point: on the orbit its residual stays
    # empty, and off it the control's residual does not move
    m = liealg.build_model(family, n)
    for p in orbit.sample_orbit_rational(m, 10, seed=1):
        for c in (2, 7):
            scaled = orbit.OrbitPoint({k: c * v for k, v in p.y.items()}, c * p.den)
            assert scaled.membership_residual(m) == {}
    y12 = liealg.combine((1, m.triples[0].y), (1, m.triples[1].y))
    ctrl = orbit.OrbitPoint(y12).membership_residual(m)
    assert ctrl == orbit.OrbitPoint({k: 3 * v for k, v in y12.items()}, 3).membership_residual(m)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("family", list(liealg.SPECS))
def test_rank_two_control_leaves_the_orbit(family, n):
    # the negative control of verify_kprime: y_1 + y_2 is off O_1, and its
    # residual is the Fraction formula's
    m = liealg.build_model(family, n)
    y12 = liealg.combine((1, m.triples[0].y), (1, m.triples[1].y))
    resid = orbit.OrbitPoint(y12).membership_residual(m)
    assert resid and resid == _fraction_residual(m, y12)
    control = sphver.verify_kprime(m, samples=2).checks[-1]
    assert control.passed and "negative control" in control.name


def _fraction_l_action(m, rand):
    """Reference for GradedModel.random_l_action in Fraction arithmetic:
    the same draws, then Ad(1 + tE) y = y + t [E, y] + (t^2 / 2) [E, [E, y]]
    and the torus scaling e_k -> prod_i s_i^weights[i, k] e_k."""
    factors = []
    for _ in range(2 * len(m.torus.indices)):
        if rand.randrange(3) == 0:
            factors.append([Fraction(*rand.choice(liealg._DIAG_PALETTE))
                            for _ in m.torus.indices])
        else:
            a = rand.choice(m.nilpotent_l)
            factors.append((a, Fraction(*rand.choice(liealg._OFFDIAG_PALETTE))))
    place = {k: kk for kk, k in enumerate(m.nbar_indices)}

    def act(y):
        for f in factors:
            if isinstance(f, list):
                y = {k: c * math.prod(si ** int(w) for si, w in zip(f, m.torus.weights[:, place[k]]))
                     for k, c in y.items()}
            else:
                a, t = f
                once = m.bracket({a: 1}, y)
                y = liealg.combine((1, y), (t, once), (t * t / 2, m.bracket({a: 1}, once)))
        return y
    return act


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("family", list(liealg.SPECS))
def test_integer_orbit_points_equal_fraction_reference(family, n):
    # the integer action over one common denominator gives the points of
    # the Fraction action, draw for draw
    m = liealg.build_model(family, n)
    y1 = m.triples[0].y
    for seed in range(5):
        rand = random.Random(seed)
        expect = [y1] + [_fraction_l_action(m, rand)(y1) for _ in range(99)]
        points = orbit.sample_orbit_rational(m, 100, seed)
        assert all(type(c) is int for p in points for c in p.y.values())
        assert [_fractions(p) for p in points] == expect


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("family", list(liealg.SPECS))
def test_kprime_points_span_nbar(family, n):
    # the points verify_kprime draws by default lie in nbar and span it, so
    # the k' certificate reaches every coordinate direction of O_1
    params = inspect.signature(sphver.verify_kprime).parameters
    samples, seed = params["samples"].default, params["seed"].default
    m = liealg.build_model(family, n)
    rows = []
    for p in orbit.sample_orbit_rational(m, samples, seed):
        coords = p.y
        assert all(m.grades[k] == -1 for k in coords)
        rows.append([coords.get(k, 0) for k in m.nbar_indices])
    assert ratlin.rank(np.array(rows, dtype=object)) == m.dim_nbar


def test_rational_orbit_determinism(o2):
    a = orbit.sample_orbit_rational(o2, 10, seed=42)
    b = orbit.sample_orbit_rational(o2, 10, seed=42)
    for p, q in zip(a, b):
        assert p.y == q.y


def test_scaled_point_radius(o2):
    y = _fractions(orbit.sample_orbit_rational(o2, 3, seed=1)[2])
    doubled = {k: 2 * c for k, c in y.items()}
    assert liealg.norm_nbar(o2, doubled) == pytest.approx(2 * liealg.norm_nbar(o2, y),
                                                          rel=1e-12)


def _float_residual(m, y):
    """[[y, theta y], y] - 2 <y, theta y> y on a float matrix y."""
    th = -y.T
    bracket = y @ th - th @ y
    pair = float(m.form_scale) * float(np.trace(y @ th))
    return (bracket @ y - y @ bracket) - 2.0 * pair * y


def test_base_sampler_unit_radius(o2, gl2):
    for m in (o2, gl2):
        mats = orbit.sample_base(m, 200, seed=9)
        assert mats.shape == (200, m.dim_ambient, m.dim_ambient)
        scale = float(m.form_scale)
        for y in mats:
            rad_sq = -scale * float(np.trace(y @ (-y.T)))
            assert abs(rad_sq - 1.0) < 1e-12
            assert np.abs(_float_residual(m, y)).max() < 1e-9


def test_base_sampler_mean_pairing(o2):
    mats = orbit.sample_base(o2, 500, seed=3)
    scale = float(o2.form_scale)
    vals = [scale * float(np.trace(y @ y.T)) for y in mats]  # <y, -theta y>
    assert np.allclose(vals, 1.0, atol=1e-12)


@pytest.mark.parametrize("family", list(liealg.SPECS))
def test_base_sampler_m_invariance_two_sample(family):
    # <k x, y> = <x, k^-1 y> and the sampler is M-invariant, so the pairings
    # with theta y_1 and with its M-rotation have one law on one stream
    m = liealg.build_model(family, 2)
    be = orbit.FloatBackend(m)
    c = be.sample_units(np.random.default_rng(17), 4000)
    w = np.ones(4000)
    x = be.theta_y1
    rotated = _float_rotation(m) @ x
    assert not np.array_equal(rotated, x)
    ks = stats.ks_2samp(be.pair_x(x, c, w), be.pair_x(rotated, c, w))
    assert ks.pvalue > 1e-3, (m.family, ks)


def _unit(a):
    return a / np.sqrt(np.einsum("ni,ni->n", a, a))[:, None]


def _gram_schmidt_frame(g, h):
    """Unit rows u = g / |g| and v, the unit part of h orthogonal to u."""
    u = _unit(g)
    return u, _unit(h - np.einsum("ni,ni->n", h, u)[:, None] * u)


# Reference samplers of O': unit rows (u, v) of each family, whose point has
# nbar coordinates c_k = sum val u_r v_c over the entries of e_k's block.
REFERENCE_UNIT_ROWS = {Family.O2N2N: _gram_schmidt_frame,
                       Family.GL2N_R: lambda g, h: (_unit(g), _unit(h))}


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("family", list(liealg.SPECS))
def test_sample_units_match_the_frame_reference(family, n):
    # on the same Gaussian rows (g, h), the normalized c formed from (g, h)
    # is the point of the family's unit frame (u, v): the wedge
    # g ^ h = r11 r22 (u ^ v) on skew blocks (Bartlett), g h^T = |g| |h| u v^T
    # on full ones; over two slices of the stream
    m = liealg.build_model(family, n)
    be = orbit.FloatBackend(m)
    count = orbit.CHUNK + 1000
    c = be.sample_units(np.random.default_rng(n), count)
    rng = np.random.default_rng(n)
    g, h = (rng.standard_normal((count, m.block_size)) for _ in range(2))
    u, v = REFERENCE_UNIT_ROWS[family](g, h)
    blocks = np.array([m.block(m.basis[k], -1) for k in m.nbar_indices], dtype=float)
    reference = np.einsum("nr,krc,nc->nk", u, blocks, v, optimize=True)
    assert np.max(np.abs(c - reference)) <= 1e-12
    assert np.allclose(np.einsum("nk,nk->n", c, c), 1.0, rtol=0, atol=1e-14)


def _plane_rotation(size, i, j):
    r = np.eye(size)
    r[i, i], r[i, j], r[j, i], r[j, j] = 0.6, -0.8, 0.8, 0.6
    return r


# Reference M rotations: from the plane rotations r (rows 1, 2, or 0, 1 for a
# block of size 2) and r2 (rows 0, 1), the pair (ru, rv) that moves an n-side
# block B to rv B ru^T.
REFERENCE_ROTATION_PAIRS = {Family.O2N2N: lambda r, r2: (r, r),
                            Family.GL2N_R: lambda r, r2: (r, r2)}


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("family", list(liealg.SPECS))
def test_m_rotation_of_every_n_basis_element(family, n):
    # every basis element of n rotates to a point of n whose forms the float
    # layer evaluates, and m_rotation is the reference rotation to rounding
    m = liealg.build_model(family, n)
    be = orbit.FloatBackend(m)
    size = m.block_size
    ru, rv = REFERENCE_ROTATION_PAIRS[family](
        _plane_rotation(size, *((1, 2) if size >= 3 else (0, 1))), _plane_rotation(size, 0, 1))
    rot = _float_rotation(m)
    n_blocks = [m.block(_tofloat(m.basis[k]), 1) for k in m.n_indices]
    for a, block in enumerate(n_blocks):
        x = rot[:, a]
        assert all(np.isfinite(coef) for _, coef in be.linear_terms(x) + be.crown_terms(x))
        moved = sum(xb * b for xb, b in zip(x, n_blocks))
        assert np.max(np.abs(moved - rv @ block @ ru.T)) <= 2e-16, a


@pytest.mark.parametrize("family,n", [(f.value, n) for f in liealg.SPECS for n in (2, 3)])
def test_forms_certified_on_rational_orbit_points(family, n):
    # the forms the float backend evaluates, in exact arithmetic against the
    # trace form of the exact matrices of orbit points: every residual is
    # exactly 0
    m = liealg.build_model(family, n)
    nbar, torus = m.nbar_indices, m.torus
    y1 = m.element(m.triples[0].y)
    mixed = {k: Fraction((-1) ** a * (a + 1), 3) for a, k in enumerate(m.n_indices)}
    xs = [t.x for t in m.triples] + [m.theta(m.triples[0].y), mixed]
    forms = []
    for x in xs:
        xn = [x.get(k, 0) for k in m.n_indices]
        g = [sum(xa * m.nbar_pairing[a, k] for a, xa in enumerate(xn))
             for k in range(len(nbar))]
        t_x = sum(xa * m.crown_tensor[a] for a, xa in enumerate(xn))
        forms.append((m.element(x), g, t_x))
    for p in orbit.sample_orbit_rational(m, 8, seed=3):
        coords = _fractions(p)
        assert all(m.grades[k] == -1 for k in coords)
        c = [coords.get(k, 0) for k in nbar]
        y = m.element(coords)
        assert sum(ck * ck for ck in c) + _dense_pair(m, y, -y.T) == 0
        crown = _dense_bracket(_dense_bracket(-y.T, y1), y)
        weighted = [_dense_bracket(m.basis[h], y) for h in torus.indices]
        for x, g, t_x in forms:
            assert sum(gk * ck for gk, ck in zip(g, c)) - _dense_pair(m, x, y) == 0
            quad = sum(c[k] * t_x[k, l] * c[l] for k in range(len(c)) for l in range(len(c)))
            assert quad - _dense_pair(m, x, crown) == 0
            for alpha, hy in zip(torus.weights, weighted):
                lhs = sum(int(ak) * gk * ck for ak, gk, ck in zip(alpha, g, c))
                assert lhs - _dense_pair(m, x, hy) == 0


@pytest.mark.parametrize("family,n", [(f.value, n) for f in liealg.SPECS for n in (2, 3)])
def test_backend_pairings_match_exact_model(family, n):
    m = liealg.build_model(family, n)
    be = orbit.FloatBackend(m)
    c = be.sample_units(np.random.default_rng(7), 5)
    w = np.array([0.7, 1.3, 2.1, 0.5, 3.3])
    mats = be.matrices(c, w)
    scale = float(m.form_scale)
    y1 = _tofloat(m.element(m.triples[0].y))
    th_y1 = _tofloat(m.element(m.theta(m.triples[0].y)))
    x = be.ray_blocks()["mix"]
    x_full = _n_matrix(m, x)
    for i in range(5):
        y = mats[i]
        assert math.isclose(scale * np.trace(x_full @ y),
                            be.pair_x(x, c[i:i+1], w[i:i+1])[0], abs_tol=1e-12)
        assert math.isclose(scale * np.trace(th_y1 @ y),
                            be.pair_theta_y1(c[i:i+1], w[i:i+1])[0], abs_tol=1e-12)
        th_y = -y.T
        crown = (th_y @ y1 - y1 @ th_y)
        crown = crown @ y - y @ crown
        assert math.isclose(scale * np.trace(x_full @ crown),
                            be.crown_pair(x, c[i:i+1], w[i:i+1])[0], abs_tol=1e-11)


@pytest.mark.parametrize("family,n", [(f.value, n) for f in liealg.SPECS for n in (2, 3)])
def test_pairing_forms_match_exact_model(family, n):
    # one evaluator serves a sparse ray and the dense M-rotated x, sharing
    # its x-free columns; both pairings must agree with the trace form
    m = liealg.build_model(family, n)
    be = orbit.FloatBackend(m)
    c = be.sample_units(np.random.default_rng(7), 5)
    w = np.array([0.7, 1.3, 2.1, 0.5, 3.3])
    mats = be.matrices(c, w)
    scale = float(m.form_scale)
    y1 = _tofloat(m.element(m.triples[0].y))
    rays = be.ray_blocks()
    rotated = _float_rotation(m) @ (1.5 * rays["e1"])
    assert np.count_nonzero(rotated) > np.count_nonzero(rays["e1"])
    forms = orbit.PairingForms(c, w)
    for x in (rays["mix"], rotated, be.theta_y1):
        x_full = _n_matrix(m, x)
        phase, crown_pair = forms.sum(be.linear_terms(x)), forms.sum(be.crown_terms(x))
        for i in range(5):
            y = mats[i]
            th_y = -y.T
            crown = th_y @ y1 - y1 @ th_y
            crown = crown @ y - y @ crown
            assert math.isclose(scale * np.trace(x_full @ y), phase[i],
                                rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(scale * np.trace(x_full @ crown), crown_pair[i],
                                rel_tol=1e-12, abs_tol=1e-12)


def test_pairing_forms_value_depends_on_x_alone(gl2, o3):
    # the shared columns must not make a pairing depend on earlier points
    for m in (gl2, o3):
        be = orbit.FloatBackend(m)
        c = be.sample_units(np.random.default_rng(3), 1000)
        w = np.random.default_rng(4).gamma(4.0, 1.0, 1000)
        rays = be.ray_blocks()
        x = 2.5 * rays["mix"]
        linear, crown = be.linear_terms(x), be.crown_terms(x)
        shared = orbit.PairingForms(c, w)
        shared.sum(be.linear_terms(rays["e1"]))
        shared.sum(be.crown_terms(_float_rotation(m) @ rays["e2"]))
        fresh = orbit.PairingForms(c, w)
        assert np.array_equal(shared.sum(linear), fresh.sum(linear))
        assert np.array_equal(shared.sum(crown), fresh.sum(crown))
        assert np.array_equal(shared.sum(linear), be.pair_x(x, c, w))
        assert np.array_equal(shared.sum(crown), be.crown_pair(x, c, w))


@pytest.mark.parametrize("family,n", [(f.value, n) for f in liealg.SPECS for n in (2, 3)]
                         + [("o2n2n", 6)])
def test_equivariance_radii_from_gram(family, n):
    # the squared radii from the squared coordinates and the torus weights,
    # for four l stacked into one product, against |Ad(exp H) y|^2 of the
    # materialised points, measured with the trace form of the model, and
    # the character against exp(2d nu(H)); one l alone gives its own row
    m = liealg.build_model(family, n)
    be = orbit.FloatBackend(m)
    rng = np.random.default_rng(11)
    c = be.sample_units(rng, 2000)
    w = rng.gamma(be.dn, 1.0, 2000)
    mats = be.matrices(c, w)
    c2 = np.square(c)
    rand, draws = random.Random(5), random.Random(5)
    ls = [be.random_diag_l(rand) for _ in range(4)]
    stacked = be.radii_after_diag(c2, np.array([lam2 for lam2, _ in ls]), w * w)
    assert stacked.shape == (4, 2000)
    for (lam2, char), r2 in zip(ls, stacked):
        h = sum(draws.uniform(-0.4, 0.4) * _tofloat(m.basis[a]) for a in m.torus.indices)
        scale = np.exp(np.diag(h))
        moved = scale[:, None] * mats / scale[None, :]
        expect = float(m.form_scale) * np.sum(moved * moved, axis=(1, 2))
        assert np.max(np.abs(r2 / expect - 1.0)) < 1e-13
        single = be.radii_after_diag(c2, lam2, w * w)
        assert np.max(np.abs(single / expect - 1.0)) < 1e-13
        assert math.isclose(char, math.exp(2 * m.d * m.nu_from_traces(h)), rel_tol=1e-13)


def test_radial_integral_closed_form(o2):
    val = orbit.l2_norm_g_tau(o2)
    assert math.isclose(val, math.pi / 8, rel_tol=1e-6)


def test_radial_integral_against_high_precision(gl2):
    val = orbit.l2_norm_g_tau(gl2)  # tau = 0, exponent 1
    with mpmath.workdps(30):
        ref = float(mpmath.quad(lambda w: mpmath.besselk(0, w) ** 2 * w, [0, 1, mpmath.inf]))
    assert math.isclose(val, ref, rel_tol=1e-6)


def _radial_quadrature(tau, radial_exp):
    """The oracle: adaptive quadrature of K_tau(w)^2 w^(radial_exp - 2 tau)
    on [0, 1] and [1, inf), with scipy's kv."""
    t = float(tau)

    def integrand(w):
        return special.kv(t, w) ** 2 * w ** (radial_exp - 2 * t)

    near, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
    far, _ = integrate.quad(integrand, 1.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)
    return near + far


def _acceptance_07_instantiations():
    """(tau, radial_exp) of the 29 catalog instantiations of acceptance 07."""
    cases = []
    for row in catalog.list_classes():
        ps = (1, 2, 3) if row.parametric else (None,)
        ns = (2, 3, 4) if row.n_symbol == "n" else (row.rank(),)
        for p in ps:
            mult = row.multiplicities(p)
            cases += [(catalog.tau(mult), mult.d * n - 1) for n in ns if n <= 4]
    return cases


def test_radial_integral_against_quadrature_on_the_catalog():
    cases = _acceptance_07_instantiations()
    assert len(cases) == 29
    for tau, radial_exp in cases:
        assert math.isclose(orbit.l2_radial_integral(tau, radial_exp),
                            _radial_quadrature(tau, radial_exp), rel_tol=1e-12), (tau, radial_exp)


@pytest.mark.parametrize("tau,radial_exp", [(Fraction(1, 2), 2), (1, 4), (Fraction(3, 2), 6),
                                            (Fraction(5, 2), 10)])
def test_radial_integral_on_the_divergence_boundary(tau, radial_exp):
    # at 4 tau = radial_exp the integrand K_tau(w)^2 w^(radial_exp - 2 tau)
    # stays bounded at 0, and the closed form still holds there
    assert math.isclose(orbit.l2_radial_integral(tau, radial_exp),
                        _radial_quadrature(tau, radial_exp), rel_tol=1e-12)


def test_radial_integral_finite_where_the_integrand_overflows():
    # w^170 overflows double precision for w > 65, but the integral does not
    val = orbit.l2_radial_integral(0, 170)
    with mpmath.workdps(30):
        ref = float(mpmath.sqrt(mpmath.pi) * mpmath.gamma(85.5) ** 3 / (4 * mpmath.gamma(86)))
    assert math.isclose(val, ref, rel_tol=1e-12)


@pytest.mark.parametrize("tau,radial_exp", [(Fraction(1, 2), 340), (0, 400)])
def test_radial_integral_past_double_precision_is_one_line_error(tau, radial_exp):
    with pytest.raises(QuadratureError) as err:
        orbit.l2_radial_integral(tau, radial_exp)
    assert str(err.value) == (f"radial integral is not finite in double precision at "
                              f"tau={float(tau)}, radial_exp={radial_exp}: inf")


def test_radial_integral_refused_at_negative_order_and_radial_exp():
    # for tau < 0 the integrand behaves like w^radial_exp at 0
    with pytest.raises(QuadratureError, match="diverges: radial_exp [+] 1 = -1 <= 0"):
        orbit.l2_radial_integral(-1, -2)


def test_radial_integral_refused_just_past_the_boundary():
    # 4 tau = radial_exp + 1: the integrand behaves like 1/w at 0
    with pytest.raises(QuadratureError, match="diverges"):
        orbit.l2_radial_integral(Fraction(1, 2), 1)


def test_radial_integral_divergence_diagnostic():
    with pytest.raises(QuadratureError, match="diverges"):
        orbit.l2_radial_integral(Fraction(3, 2), 3)


def test_measure_scaling(o2, gl2):
    for m in (o2, gl2):
        rep = orbit.scaling_check(m, samples=200_000, seed=4, rtol=0.02)
        assert rep.passed, rep.to_json()


def test_equivariance(o2, gl2):
    for m in (o2, gl2):
        rep = orbit.equivariance_check(m, l_samples=2, seed=4,
                                       samples=200_000, rtol=0.02)
        assert rep.passed, rep.to_json()


def test_fourier_at_origin_positive(o2):
    be = orbit.FloatBackend(o2)
    est = orbit.fourier_phi(o2, 0.0 * be.ray_blocks()["e1"], samples=10 ** 5, seed=2)
    assert est.value.real > 0
    assert est.value.imag == 0.0
    assert est.stderr < 0.05 * est.value.real


def test_fourier_determinism(o2):
    be = orbit.FloatBackend(o2)
    x = be.ray_blocks()["e1"]
    a = orbit.fourier_phi(o2, x, samples=10 ** 5, seed=12)
    b = orbit.fourier_phi(o2, x, samples=10 ** 5, seed=12)
    assert a.value == b.value and a.stderr == b.stderr


def test_fourier_m_invariance(o2):
    be = orbit.FloatBackend(o2)
    x = 2.0 * be.ray_blocks()["mix"]
    a = orbit.fourier_phi(o2, x, samples=3 * 10 ** 5, seed=5)
    b = orbit.fourier_phi(o2, _float_rotation(o2) @ x, samples=3 * 10 ** 5, seed=6)
    assert abs(a.value.real - b.value.real) < 3 * math.hypot(a.stderr, b.stderr)


def test_fourier_decay_trend(o2):
    be = orbit.FloatBackend(o2)
    ray = be.ray_blocks()["e1"]
    vals = [abs(orbit.fourier_phi(o2, t * ray, samples=2 * 10 ** 5, seed=8).value)
            for t in (1.0, 2.5, 5.0, 10.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_fourier_accepts_exact_n_elements(o2):
    # exact n-coordinates, as Fractions, are read as floats
    x1 = [Fraction(o2.triples[0].x.get(k, 0)) for k in o2.n_indices]
    est = orbit.fourier_phi(o2, x1, samples=10 ** 5, seed=3)
    assert est.value.real > 0
    be = orbit.FloatBackend(o2)
    assert est == orbit.fourier_phi(o2, be.n_vector(o2.triples[0].x), samples=10 ** 5, seed=3)


def test_fourier_rejects_x_outside_n(o2, gl2):
    # x is a vector of n-coordinates: an element given by coordinates off n,
    # a matrix (even one with as many rows as n has basis elements, as the
    # 4 x 4 ambient matrices of gl2nR at n = 2 do) or a vector of the wrong
    # length is refused
    for m in (o2, gl2):
        be = orbit.FloatBackend(m)
        with pytest.raises(ValueError, match="not in n"):
            be.n_vector(m.triples[0].y)
        for x in (_tofloat(m.element(m.triples[0].x)), np.ones(len(m.n_indices) + 1)):
            with pytest.raises(ValueError, match="n-coordinates"):
                orbit.fourier_phi(m, x, samples=10 ** 4)
    assert len(gl2.n_indices) == gl2.dim_ambient


def test_fourier_phi_many_matches_fourier_phi(o2, gl2):
    for m in (o2, gl2):
        be = orbit.FloatBackend(m)
        rays = be.ray_blocks()
        xs = [0.0 * rays["e1"], 1.5 * rays["e2"], _float_rotation(m) @ (2.0 * rays["mix"]),
              [m.triples[0].x.get(k, 0) for k in m.n_indices]]
        many = orbit.fourier_phi_many(m, xs, samples=4 * 10 ** 4, seed=9)
        for x, est in zip(xs, many):
            one = orbit.fourier_phi(m, x, samples=4 * 10 ** 4, seed=9)
            assert est.as_dict() == one.as_dict()
        assert orbit.fourier_phi_many(m, xs[::-1], samples=4 * 10 ** 4, seed=9) == many[::-1]


def test_fourier_requires_enough_samples(o2):
    be = orbit.FloatBackend(o2)
    with pytest.raises(ValueError):
        orbit.fourier_phi(o2, be.ray_blocks()["e1"], samples=100, seed=0)


def test_radial_measure_metadata(o2):
    rm = orbit.radial_measure(o2)
    assert rm.exponent == 3
    assert rm.base_mass == 1.0


@pytest.mark.parametrize("seed", [4, 8])
def test_measure_scaling_full_gate(o2, seed):
    # under a Gamma(dn, 1) proposal the z=2 [gauss] side had a relative
    # stderr near the 1 % gate at dn = 4 and failed on these seeds
    rep = orbit.scaling_check(o2, samples=10 ** 6, seed=seed, rtol=0.01)
    assert rep.passed, rep.to_json()


@pytest.mark.parametrize("dn", [2, 4, 6, 12])
def test_mixture_density_integrates_to_one(dn):
    counts = orbit.mixture_counts(10 ** 6)
    q = lambda w: w ** (dn - 1) / orbit.mixture_weight(w, dn, counts)
    total = sum(integrate.quad(q, a, b, epsabs=1e-13, epsrel=1e-11, limit=200)[0]
                for a, b in ((0.0, 1.0), (1.0, 10.0), (10.0, 100.0)))
    assert math.isclose(total, 1.0, rel_tol=1e-9)


def _mixture_draws(be, rng, count):
    """The defensive mixture's (w, weight) of count draws, slices joined."""
    return tuple(np.concatenate(a) for a in zip(*be.mixture_slices(rng, count)))


@pytest.mark.parametrize("family,n,dn", [("gl2nR", 2, 2), ("o2n2n", 2, 4),
                                          ("gl2nR", 6, 6), ("o2n2n", 6, 12)])
def test_mixture_weighted_mean_of_gaussian(family, n, dn):
    # integral of e^(-w^2) w^(dn-1) dw over (0, inf) is Gamma(dn/2) / 2
    be = orbit.FloatBackend(liealg.build_model(family, n))
    assert be.dn == dn
    w, weight = _mixture_draws(be, np.random.default_rng(dn), 10 ** 6)
    t = weight * np.exp(-w * w)
    est, se = float(np.mean(t)), float(np.std(t)) / math.sqrt(t.size)
    assert abs(est - math.gamma(dn / 2) / 2) < 3 * se


@pytest.mark.parametrize("family,n,dn", [("gl2nR", 2, 2), ("o2n2n", 2, 4),
                                          ("gl2nR", 6, 6), ("o2n2n", 6, 12)])
def test_mixture_weight_bit_identical_to_formula(family, n, dn):
    # the in-place form with w^2 * (1/s^2) against the plain formula with
    # (w/s)^2, on draws, on a log-spaced sweep and at the radius floor
    def plain(w):
        total = float(sum(counts))
        dens = (counts[0] / total) * np.exp(-w - math.lgamma(dn))
        log_chi = math.log(2.0) - math.lgamma(dn / 2)
        for s, c in zip(orbit.MIXTURE_SCALES, counts[1:]):
            dens = dens + (c / total) * np.exp(log_chi - dn * math.log(s) - (w / s) ** 2)
        return 1.0 / dens

    counts = orbit.mixture_counts(10 ** 5)
    be = orbit.FloatBackend(liealg.build_model(family, n))
    assert be.dn == dn
    w, weight = _mixture_draws(be, np.random.default_rng(dn), 10 ** 5)
    assert np.array_equal(weight, plain(w))
    # up to w = 600: far beyond any draw, and there the chi exps clamped at
    # -700 still leave every weight bit-identical
    sweep = np.concatenate([np.geomspace(1e-290, 600.0, 20001), [1e-290, 1e-155, 0.5, 64.0]])
    assert np.array_equal(orbit.mixture_weight(sweep, dn, counts), plain(sweep))
    scalar = orbit.mixture_weight(1e-290, dn, counts)
    assert np.ndim(scalar) == 0 and scalar == plain(np.float64(1e-290))


@pytest.mark.parametrize("dn", [2, 4, 6, 12])
def test_mixture_weight_keeps_exp_above_minus_700(monkeypatch, dn):
    # numpy's vector exp leaves its fast path below about -708 and is many
    # times slower where results underflow; no argument may fall below -700
    seen = []
    real_exp = np.exp

    def spy(x, *args, **kwargs):
        seen.append(float(np.min(x)))
        return real_exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", spy)
    counts = orbit.mixture_counts(10 ** 5)
    orbit.mixture_weight(np.geomspace(1e-290, 600.0, 2001), dn, counts)
    assert len(seen) == 1 + len(orbit.MIXTURE_SCALES)
    assert min(seen) >= -700.0


def test_cos_sin_matches_libm():
    rng = np.random.default_rng(9)
    phases = np.concatenate([
        rng.uniform(-1e5, 1e5, 10 ** 6),
        [0.0, -0.0],
        np.arange(-31831, 31832, 2) * math.pi,   # odd multiples of pi to 1e5
    ])
    cos, sin = orbit.cos_sin(phases)
    assert np.isfinite(cos).all() and np.isfinite(sin).all()
    assert np.max(np.abs(cos - np.cos(phases))) <= 2.3e-16
    assert np.max(np.abs(sin - np.sin(phases))) <= 2.3e-16
    assert (cos[-31834:-31832] == 1.0).all() and (sin[-31834:-31832] == 0.0).all()
    assert (cos[-31832:] == -1.0).all()


def test_mixture_stratified_allocation():
    assert orbit.mixture_counts(10 ** 6) == [142858] + [142857] * 6
    assert sum(orbit.mixture_counts(100)) == 100


def _streamed(t):
    acc = orbit.Moments()
    for s in orbit.chunks(t.size):
        acc.add(t[s].copy())
    return acc


@pytest.mark.parametrize("count", [1, orbit.CHUNK - 1, orbit.CHUNK, orbit.CHUNK + 1,
                                   3 * orbit.CHUNK + 7])
def test_streamed_moments_match_numpy(count):
    t = 0.5 + 3.0 * np.random.default_rng(count).standard_normal(count)
    acc = _streamed(t)
    assert acc.count == count
    assert acc.mean == pytest.approx(np.mean(t), rel=1e-12, abs=0)
    assert acc.std == pytest.approx(np.std(t), rel=1e-12, abs=0)
    doubled = _streamed(2.0 * t)
    assert doubled.mean == pytest.approx(2.0 * np.mean(t), rel=1e-12, abs=0)
    assert doubled.stderr == pytest.approx(2.0 * np.std(t) / math.sqrt(count), rel=1e-12, abs=0)


def test_streamed_moments_keep_digits_far_from_zero():
    # mean / sd = 1e6: the merged centred sums keep the spread, where the
    # shortcut E[t^2] - E[t]^2 cancels twelve of its digits away
    t = 1e6 + np.random.default_rng(5).standard_normal(3 * orbit.CHUNK + 7)
    acc = _streamed(t)
    assert acc.mean == pytest.approx(np.mean(t), rel=1e-12, abs=0)
    assert acc.std == pytest.approx(np.std(t), rel=1e-12, abs=0)
    shortcut = math.sqrt(float(np.mean(t * t)) - float(np.mean(t)) ** 2)
    assert abs(shortcut - np.std(t)) > 1e-6 * np.std(t)


def test_streamed_moments_of_zeros_are_exactly_zero():
    acc = _streamed(np.zeros(2 * orbit.CHUNK + 3))
    assert acc.std == 0.0 and acc.mean == 0.0


@pytest.mark.parametrize("stderr,inconclusive", [(0.0067, True), (0.0064, False), (0.0, False)])
def test_ratio_missing_rtol_is_inconclusive_only_within_the_sigma_gate(stderr, inconclusive):
    # lhs / rhs = 1.02 misses rtol = 0.01, and the ratio's stderr is 1.02
    # times stderr: |z| is 2.93 inside the 3-sigma gate and 3.06 outside it,
    # and a ratio with no error bar that misses rtol fails
    report = orbit.VerificationReport("ratio")
    orbit._add_ratio(report, "r", (1.02, 1.02 * stderr), (1.0, 0.0), 0.01, 10, "")
    check = report.checks[0]
    assert not check.passed and check.inconclusive == inconclusive
    if stderr:
        assert (abs(check.z) <= orbit.SIGMA_GATE) == inconclusive
