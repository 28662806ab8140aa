import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

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
    f = bessel.constant_radial(1.0)
    assert bessel.apply_D(0.5, f, 2.3) == -1.0


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
    w = np.array([0.4, 1.1, 2.5, 7.0])
    for tau in (0.5, 0.0, -0.5, 1.0):
        prof = bessel.radial_profile_at(tau, w)
        d1 = bessel.radial_profile_d1_at(tau, w)
        for i, wi in enumerate(w):
            v0, v1, _ = bessel.phi_tau(tau, wi * wi)
            assert math.isclose(prof[i], v0, rel_tol=1e-12)
            assert math.isclose(d1[i], v1, rel_tol=1e-12)


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
    for tau in KERNEL_ORDERS + (0.3, -0.3):
        ladder = bessel.k_ladder(tau, w, 3)
        for j, k in enumerate(ladder):
            ref = special.kv(tau + j, w)
            live = ref > 1e-300
            rel = np.abs(k[live] / ref[live] - 1.0)
            assert rel.max() <= 1e-13, (tau, j, rel.max())


def test_kernel_scalar_and_array_bit_identical():
    w = np.random.default_rng(5).gamma(4.0, 1.0, 300)
    for tau in KERNEL_ORDERS:
        arrays = bessel.k_ladder(tau, w, 3)
        for i, wi in enumerate(w.tolist()):
            scalars = bessel.k_ladder(tau, wi, 3)
            assert all(type(k) is float for k in scalars)
            assert [k[i] for k in arrays] == list(scalars), (tau, wi)


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
