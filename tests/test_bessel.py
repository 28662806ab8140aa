import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from minorbit import bessel
from minorbit.reports import QuadratureError

HALF_INTEGERS = [Fraction(k, 2) for k in range(-3, 7)]


def mp_bessel_k(tau, z, dps=30):
    with mpmath.workdps(dps):
        return float(mpmath.besselk(float(tau), z))


def test_half_order_closed_form():
    for z in np.linspace(0.1, 40, 37):
        closed = math.sqrt(math.pi / (2 * z)) * math.exp(-z)
        assert math.isclose(bessel.bessel_k(0.5, z), closed, rel_tol=1e-10)
        assert math.isclose(float(bessel.k_half_closed_form(z)), closed, rel_tol=1e-14)


def test_evenness_in_order():
    # the kernel evaluates every order at its absolute value: equal bits
    for tau in (0.5, 1.0, 1.5, 2.0, 2.5):
        for z in (0.2, 1.0, 3.7, 12.0):
            assert bessel.bessel_k(tau, z) == bessel.bessel_k(-tau, z)


def test_integral_oracle_matches_high_precision():
    for tau in (0.0, 0.5, 1.0, 3.0):
        for z in (0.3, 1.0, 2.0, 8.0):
            ours = bessel.bessel_k_integral(tau, z)
            ref = mp_bessel_k(tau, z)
            assert math.isclose(ours, ref, rel_tol=1e-10), (tau, z)


def test_fast_path_agrees_with_integral():
    for tau in HALF_INTEGERS:
        for z in (0.15, 1.3, 9.0):
            fast = bessel.bessel_k(tau, z)
            slow = bessel.bessel_k(tau, z, method="quadrature")
            assert math.isclose(fast, slow, rel_tol=1e-9)


def test_k0_at_two_against_quadrature():
    val = bessel.bessel_k(0.0, 2.0, method="quadrature")
    assert math.isclose(val, mp_bessel_k(0.0, 2.0), rel_tol=1e-10)


def test_fast_method_is_rejected():
    # no K skips the quadrature audit: "fast" is an unknown method
    with pytest.raises(ValueError, match="unknown method"):
        bessel.bessel_k(0.5, 1.0, method="fast")


def test_domain_errors():
    with pytest.raises(ValueError):
        bessel.bessel_k(0.5, 0.0)
    with pytest.raises(ValueError):
        bessel.bessel_k(0.5, -1.0)
    with pytest.raises(ValueError):
        bessel.phi_tau(0.0, 1e-9)


def test_ode_residual_finite_differences():
    zs = np.linspace(0.1, 50.0, 60)
    for tau in (0.0, 0.5, -0.5):
        worst = max(abs(bessel.bessel_ode_residual_fd(tau, z)) for z in zs)
        assert worst < 1e-7, (tau, worst)


def test_radial_operator_annihilates_phi():
    zs = np.linspace(0.1, 50.0, 80)
    for tau in (0.0, 0.5, -0.5, 1.5):
        f = bessel.phi_radial(tau)
        worst = max(abs(bessel.apply_D(tau, f, z)) for z in zs)
        assert worst < 1e-9, (tau, worst)


def test_radial_operator_on_constant():
    # D 1 = -1: the constant profile has value 1 and no derivatives
    f = bessel.RadialFunction(0, lambda z: (1.0, 0.0, 0.0))
    assert bessel.apply_D(0.5, f, 2.3) == -1.0
    assert bessel.d_residual(0.5, 2.3, 1.0, 0.0, 0.0) == -1.0


def test_coefficient_identity():
    for d, e in ((2, 0), (1, 0), (4, 1), (2, 2), (8, 1)):
        a, b = bessel.d_coefficient_identity(d, e)
        assert a == b


def test_derivative_recurrence_vs_finite_difference():
    for tau in (0.0, 0.5, 1.5):
        for z in (0.5, 2.0, 10.0):
            ok, diff = bessel.phi_derivative_crosscheck(tau, z)
            assert ok, (tau, z, diff)


def test_phi_positive_and_monotone():
    # model orders: tau = 1/2 (split orthogonal), tau = 0 (general linear)
    zs = np.linspace(0.05, 60.0, 120)
    for tau in (0.5, 0.0):
        vals = [bessel.phi_tau(tau, z) for z in zs]
        v0 = [v[0] for v in vals]
        v1 = [v[1] for v in vals]
        v2 = [v[2] for v in vals]
        assert all(x > 0 for x in v0)
        assert all(b < a for a, b in zip(v0, v0[1:]))          # decreasing
        assert all(b > a for a, b in zip(v1, v1[1:]))          # increasing (negative)
        assert all(b < a for a, b in zip(v2, v2[1:]))          # decreasing (positive)


def test_exponential_decay_envelope():
    zs = np.linspace(1.0, 2000.0, 50)
    for tau in (0.5, 0.0, -0.5):
        ratios = [bessel.phi_tau(tau, z)[0] * math.exp(math.sqrt(z) / 2) for z in zs]
        assert all(math.isfinite(r) for r in ratios)
        assert ratios[-1] < ratios[0]
        assert max(ratios) == ratios[0]


def test_negative_half_order_reduces_to_exponential():
    # phi_{-1/2}(z) is proportional to exp(-sqrt z); the constant is
    # sqrt(pi/2) under the standard normalization of K
    c = math.sqrt(math.pi / 2)
    for z in (0.3, 1.0, 4.0, 16.0):
        val = bessel.phi_tau(-0.5, z)[0]
        assert math.isclose(val, c * math.exp(-math.sqrt(z)), rel_tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
       st.floats(min_value=0.1, max_value=40.0))
def test_positivity_and_evenness_property(tau, z):
    v = bessel.bessel_k(tau, z)
    assert v > 0
    assert math.isclose(v, bessel.bessel_k(-tau, z), rel_tol=1e-12)


def test_vectorized_profiles_match_scalar():
    # one profile behind both spellings of phi: phi_tau at z = w^2 and the
    # vectorized profiles at w agree bit for bit, on scalars and on arrays
    w = np.random.default_rng(3).gamma(4.0, 1.0, 300)
    for tau in (-0.5, 0.0, 0.5, 1.0, 1.5):
        v0, v1, _ = bessel.phi_tau(tau, w * w)
        assert np.array_equal(bessel.radial_profile_at(tau, w), v0), tau
        assert np.array_equal(bessel.radial_profile_d1_at(tau, w), v1), tau
        for wi in w.tolist():
            v0, v1, _ = bessel.phi_tau(tau, wi * wi)
            assert bessel.radial_profile_at(tau, wi) == v0, (tau, wi)
            assert bessel.radial_profile_d1_at(tau, wi) == v1, (tau, wi)


KERNEL_ORDERS = (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


def test_kernel_matches_integral_oracle():
    for tau in KERNEL_ORDERS:
        for z in (0.05, 0.8, 3.1, 17.0, 60.0):
            ladder = bessel.k_ladder(tau, z, 3)
            for j, k in enumerate(ladder):
                ref = bessel.bessel_k_integral(tau + j, z)
                assert math.isclose(k, ref, rel_tol=1e-9), (tau, j, z)


def test_kernel_matches_scipy_kv():
    w = np.geomspace(1e-3, 700.0, 4001)
    for tau in KERNEL_ORDERS:
        ladder = bessel.k_ladder(tau, w, 3)
        for j, k in enumerate(ladder):
            ref = special.kv(tau + j, w)
            live = ref > 1e-300
            rel = np.abs(k[live] / ref[live] - 1.0)
            assert rel.max() <= 1e-13, (tau, j, rel.max())


def test_orders_off_the_half_integers_are_refused_before_any_audit(monkeypatch):
    # the program asks for tau = (d - e - 1)/2 and its integer shifts only
    monkeypatch.setattr(bessel, "_FAST_PATH_OK", {})
    refused = r"^K kernel takes integer and half-integer orders only, got 0\.25$"
    for w in (1.0, np.array([1.0, 2.0])):
        for call in (bessel.k_ladder, bessel.bessel_k, bessel.phi_tau):
            with pytest.raises(ValueError, match=refused):
                call(0.25, w)
    with pytest.raises(ValueError, match=r"only, got -1\.75$"):
        bessel.k_ladder(-1.75, 1.0, 3)
    assert bessel._FAST_PATH_OK == {}
    # the oracle takes any order
    assert math.isclose(bessel.bessel_k(0.25, 1.0, method="quadrature"),
                        mp_bessel_k(0.25, 1.0), rel_tol=1e-14)


def test_kernel_scalar_and_array_bit_identical():
    w = np.random.default_rng(5).gamma(4.0, 1.0, 300)
    for tau in KERNEL_ORDERS:
        arrays = bessel.k_ladder(tau, w, 3)
        for i, wi in enumerate(w.tolist()):
            scalars = bessel.k_ladder(tau, wi, 3)
            assert all(type(k) is float for k in scalars)
            assert [k[i] for k in arrays] == list(scalars), (tau, wi)


# every K/phi entry point at order 1/2, as a tuple of its results
ENTRY_POINTS = {
    "k_ladder": lambda x: bessel.k_ladder(0.5, x, 3),
    "profile_ladder": lambda x: bessel.profile_ladder(0.5, x, 3),
    "phi_tau": lambda x: bessel.phi_tau(0.5, x),
    "bessel_k": lambda x: (bessel.bessel_k(0.5, x),),
    "bessel_k quadrature": lambda x: (bessel.bessel_k(0.5, x, method="quadrature"),),
    "k_half_closed_form": lambda x: (bessel.k_half_closed_form(x),),
    "radial_profile_at": lambda x: (bessel.radial_profile_at(0.5, x),),
}
SCALAR_INPUTS = {"float": 1.3, "int": 2, "float64": np.float64(1.3),
                 "float32": np.float32(1.3), "0-d array": np.array(1.3)}
ARRAY_INPUTS = {"list": [1.0, 2.0], "1-d array": np.array([1.0, 2.0]),
                "2-d array": np.array([[1.0, 2.0], [0.5, 3.0]])}


@pytest.mark.parametrize("kind", [*SCALAR_INPUTS, *ARRAY_INPUTS])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_points_share_one_input_rule(entry, kind):
    # x is read as np.asarray(x, dtype=float): a 0-d x gives Python floats
    # with the bits of the float64 array call, anything else gives arrays
    call = ENTRY_POINTS[entry]
    x = {**SCALAR_INPUTS, **ARRAY_INPUTS}[kind]
    as_array = np.asarray(x, dtype=float).reshape(-1)
    expected = call(as_array)
    got = call(x)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        if kind in SCALAR_INPUTS:
            assert type(g) is float, type(g)
            assert g == e[0], (g, e[0])
        else:
            assert isinstance(g, np.ndarray) and g.dtype == np.float64
            assert np.array_equal(g, e.reshape(np.shape(x)))


def test_bessel_k_refusal_names_the_value():
    for z in (0.0, -1.5, np.array(-1.5), [2.0, -1.5, 0.0], np.array([2.0, -1.5])):
        bad = z if np.ndim(z) == 0 else -1.5
        with pytest.raises(ValueError, match=rf"^K_tau needs z > 0, got {float(bad)}$"):
            bessel.bessel_k(0.5, z)


def test_nan_is_refused_with_the_oracles_message():
    # nan fails z > 0 and z >= _MIN_Z alike, so every entry point refuses it
    # as the quadrature oracle does, for scalars and arrays
    refusals = (bessel.bessel_k, bessel.phi_tau,
                lambda t, z: bessel.bessel_k(t, z, method="quadrature"))
    for call in refusals:
        for z in (math.nan, np.array(math.nan), [2.0, math.nan]):
            with pytest.raises(ValueError, match=r"^K_tau needs z > 0, got nan$"):
                call(0.5, z)
    with pytest.raises(ValueError, match=r"^K_tau needs z > 0, got -1.0$"):
        bessel.phi_tau(0.5, [2.0, -1.0, bessel._MIN_Z / 2])


def test_phi_scalar_and_array_bit_identical():
    z = np.random.default_rng(7).gamma(4.0, 1.0, 300) ** 2
    for tau in KERNEL_ORDERS:
        arrays = bessel.phi_tau(tau, z)
        for i, zi in enumerate(z.tolist()):
            scalars = bessel.phi_tau(tau, zi)
            assert all(type(v) is float for v in scalars)
            assert [v[i] for v in arrays] == list(scalars), (tau, zi)


def test_phi_at_negative_orders_is_zero_where_k_underflows():
    # at order tau + j < 0, K and w^(tau + j) both underflow to 0 at large
    # w; phi = K w^|tau + j| tends to 0 there, and is 0, not 0/0
    w = np.concatenate([np.geomspace(1.0, 1e150, 400), [700.0, 750.0, 1e100, 1e150]])
    for tau in (-3.0, -2.5, -1.0, -0.5):
        with np.errstate(all="ignore"):
            arrays = bessel.profile_ladder(tau, w, 4)
            ks = bessel.k_ladder(tau, w, 4)
        for j, (phi, k) in enumerate(zip(arrays, ks)):
            assert not np.isnan(phi).any(), (tau, j)
            if tau + j < 0:
                assert (phi[k == 0] == 0.0).all()
            with np.errstate(all="ignore"):
                plain = k / w ** (tau + j)
            # every other value is the plain quotient, bit for bit
            kept = (k != 0) | (tau + j >= 0)
            assert np.array_equal(phi[kept], plain[kept]), (tau, j)
        for i, wi in enumerate(w.tolist()):
            scalars = bessel.profile_ladder(tau, wi, 4)
            assert [v[i] for v in arrays] == list(scalars), (tau, wi)
    assert (bessel.profile_ladder(-3.0, 1e150, 3)[0], bessel.phi_tau(-3.0, 1e300)[0]) == (0.0, 0.0)


def test_phi_array_certifies_three_orders(monkeypatch):
    monkeypatch.setattr(bessel, "_FAST_PATH_OK", {})
    bessel.phi_tau(0.5, np.array([0.5, 2.0]))
    assert bessel._FAST_PATH_OK == {0.5: True, 1.5: True, 2.5: True}


def test_phi_array_refuses_points_below_min_z(monkeypatch):
    monkeypatch.setattr(bessel, "_FAST_PATH_OK", {})
    z = np.array([1.0, 2.0, bessel._MIN_Z / 2, 3.0])
    with pytest.raises(ValueError, match="singular endpoint"):
        bessel.phi_tau(0.5, z)
    assert bessel._FAST_PATH_OK == {}      # refused before any order is audited
    phi = bessel.phi_tau(0.5, np.array([bessel._MIN_Z]))[0]
    assert phi[0] == bessel.phi_tau(0.5, bessel._MIN_Z)[0]


def test_vector_profile_certifies_its_order(monkeypatch):
    monkeypatch.setattr(bessel, "_FAST_PATH_OK", {})
    bessel.radial_profile_at(Fraction(1, 2), np.array([0.5, 2.0]))
    assert bessel._FAST_PATH_OK == {0.5: True}
    bessel.radial_profile_d1_at(0, np.array([0.5, 2.0]))
    assert bessel._FAST_PATH_OK == {0.5: True, 1.0: True}


def test_vector_profile_refuses_uncertified_order(monkeypatch):
    monkeypatch.setattr(bessel, "_FAST_PATH_OK", {})
    true_oracle = bessel.bessel_k_integral
    monkeypatch.setattr(bessel, "bessel_k_integral",
                        lambda tau, z: true_oracle(tau, z) * (1.0 + 1e-6))
    with pytest.raises(QuadratureError):
        bessel.radial_profile_at(0.0, np.array([0.5, 2.0]))
    assert bessel._FAST_PATH_OK == {0.0: False}
    with pytest.raises(QuadratureError):
        bessel.bessel_k(0.0, 1.0)


def test_kernel_refuses_orders_beyond_the_step_cap():
    cap = bessel.MAX_LADDER_STEPS
    assert math.isinf(bessel.k_ladder(cap, 1.0)[0])   # overflows, but is allowed
    for order in (cap + 1, cap + 1.5, 1e300, -1e300):
        with pytest.raises(ValueError, match="recurrence steps"):
            bessel.k_ladder(order, 1.0)
    with pytest.raises(ValueError, match="recurrence steps"):
        bessel.bessel_k(1e300, 1.0)


# ------------------------------------------------------------ the K oracle

ORACLE_ORDERS = (-33.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.5, 7.5, 33.0, 68.0, 106.0)
ORACLE_Z = (1e-8, 1e-6, 1e-4, 1e-3, 0.01, 0.03, 0.1, 0.37, 1.0, 2.7, 7.4, 20.0, 45.0,
            100.0, 300.0, 700.0)
MAX_DOUBLE = 1.7976931348623157e308


def test_oracle_matches_mpmath_from_tiny_to_large_z():
    # 1e-14 relative up to order 15 and 1e-13 beyond, measured at most
    # 6.6e-15 and 7.9e-14 (tau = 106, z = 0.1, where K is 4.4e305): the error
    # follows |log K|, the size of the exponent the value is formed from.
    # Where K overflows a double the oracle gives inf, as the kernel does.
    for tau in ORACLE_ORDERS:
        for z in ORACLE_Z:
            with mpmath.workdps(30):
                ref = mpmath.besselk(abs(tau), z)
            if ref > MAX_DOUBLE:
                assert bessel.bessel_k_integral(tau, z) == math.inf, (tau, z)
                continue
            ours = bessel.bessel_k_integral(tau, z)
            assert type(ours) is float
            rel = float(abs(ours / ref - 1))
            assert rel <= (1e-14 if abs(tau) <= 15 else 1e-13), (tau, z, rel)


def _adaptive_quadrature_k(tau, z):
    """The oracle this module used before: adaptive quadrature of the
    integral representation at unit scale, which overflows in cosh(tau u)
    from |tau| = 67.5 on at the audit point z = 0.1."""
    t = float(tau)

    def integrand(u):
        return math.exp(-z * (math.cosh(u) - 1.0)) * math.cosh(t * u)

    upper = math.acosh(1.0 + 720.0 / z) + 1.0
    val, err = integrate.quad(integrand, 0.0, upper, epsabs=0.0, epsrel=1e-12, limit=300)
    assert math.isfinite(val) and err <= 1e-10 * abs(val), (tau, z, err)
    return math.exp(-z) * val


def test_oracle_matches_adaptive_quadrature_on_the_audit_grid():
    # every half-integer order the old oracle could audit, and two orders off
    # the half-integers, which the kernel refuses but the oracle takes;
    # the orders from 67.5 to 106 are checked against mpmath above and below
    for tau in [k / 2 for k in range(135)] + [0.25, 0.3]:
        for z in bessel._AUDIT_GRID:
            ours = bessel.bessel_k_integral(tau, z)
            assert math.isclose(ours, _adaptive_quadrature_k(tau, z), rel_tol=1e-12), (tau, z)


@pytest.mark.parametrize("tau", [68, 80, 100, 106, -106])
def test_certify_passes_up_to_order_106(monkeypatch, tau):
    monkeypatch.setattr(bessel, "_FAST_PATH_OK", {})
    bessel.certify(tau)
    assert bessel._FAST_PATH_OK == {float(abs(tau)): True}
    for z in (0.1, 1.0):
        with mpmath.workdps(30):
            ref = mpmath.besselk(abs(tau), z)
        assert float(abs(bessel.bessel_k_integral(tau, z) / ref - 1)) <= 1e-13, (tau, z)


@pytest.mark.parametrize("tau", [107, 150, 182, -182])
def test_certify_passes_where_k_overflows_at_few_audit_points(monkeypatch, tau):
    # K_107(0.1) overflows a double; kernel and oracle both give inf there,
    # and agree at the audit points where K is finite, 4 of 7 at order 182
    monkeypatch.setattr(bessel, "_FAST_PATH_OK", {})
    bessel.certify(tau)
    assert bessel._FAST_PATH_OK == {float(abs(tau)): True}
    with np.errstate(over="ignore"):
        kernel = bessel.k_ladder(tau, np.array(bessel._AUDIT_GRID))[0]
    assert kernel[0] == bessel.bessel_k_integral(tau, 0.1) == math.inf
    assert np.isfinite(kernel).sum() >= 4
    for z in (2.7, 20.0):
        with mpmath.workdps(30):
            ref = mpmath.besselk(abs(tau), z)
        assert float(abs(bessel.bessel_k_integral(tau, z) / ref - 1)) <= 1e-13, (tau, z)


def test_certify_keeps_every_half_integer_order_up_to_106(monkeypatch):
    monkeypatch.setattr(bessel, "_FAST_PATH_OK", {})
    for k in range(213):
        bessel.certify(k / 2)
    assert bessel._FAST_PATH_OK == {k / 2: True for k in range(213)}


def test_certify_refuses_order_200_where_k_overflows_at_most_audit_points(monkeypatch):
    monkeypatch.setattr(bessel, "_FAST_PATH_OK", {})
    with pytest.raises(QuadratureError) as err:
        bessel.certify(200)
    assert str(err.value) == "K integral overflows at 4 of 7 audit points of order 200"
    assert bessel._FAST_PATH_OK == {}


def test_oracle_node_count_is_bounded(monkeypatch):
    # the step and the cut-off follow tau and z, so no z from 1e-8 to 1e300
    # needs more than a few hundred nodes at the orders the audit certifies
    sizes = []
    log_integrand = bessel._log_integrand

    def spy(a, z, u):
        sizes.append(np.size(u))
        return log_integrand(a, z, u)

    monkeypatch.setattr(bessel, "_log_integrand", spy)
    for tau in (0.0, 0.5, 7.5, 33.0, 106.0):
        for z in np.geomspace(1e-8, 1e300, 62).tolist():
            bessel.bessel_k_integral(tau, z)
            assert max(sizes) <= 1000, (tau, z, max(sizes))
            sizes.clear()


def test_oracle_at_huge_z_is_zero():
    for tau in (0.5, 0.0, 33.0):
        assert bessel.bessel_k_integral(tau, 1e300) == 0.0
    assert bessel.bessel_k(0.5, 1e300, method="quadrature") == 0.0


def test_oracle_failures_are_one_line_quadrature_errors(monkeypatch):
    # too many nodes, and sums that disagree; K beyond the double range is
    # no failure but inf
    assert bessel.bessel_k_integral(1000, 0.1) == math.inf
    with pytest.raises(QuadratureError) as err:
        bessel.bessel_k_integral(-1e9, 1.0)
    assert str(err.value) == "K integral needs more than 65536 nodes at tau=-1000000000.0, z=1.0"
    monkeypatch.setattr(bessel, "_LOG_STEP_ERR", 2.0)
    with pytest.raises(QuadratureError) as err:
        bessel.bessel_k_integral(0.5, 1.0)
    assert str(err.value).startswith("K integral did not converge at tau=0.5, z=1.0 (err=")
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("z", [0.0, -1.0, math.nan, math.inf])
def test_oracle_domain_errors(z):
    with pytest.raises(ValueError):
        bessel.bessel_k_integral(0.5, z)
    with pytest.raises(ValueError):
        bessel.bessel_k_integral(math.inf, 1.0)
