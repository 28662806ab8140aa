"""Minimal orbit sampling, the radial measure, and the Fourier transform.

The orbit O_1 through y_1 factors as O' x (0, inf) with radial measure
w^(dn-1) dw.  The base measure on O' is normalized to the invariant
probability measure targeted by the sampler; every check below compares
ratios, so the free overall scalar never enters.

Monte Carlo estimates draw the radius from Gamma(dn, 1) with importance
weight Gamma(dn) e^w, and pair y with -y (antithetic), which makes every
oscillatory estimator explicitly real.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy import integrate

from . import bessel, liealg, ratlin
from .reports import QuadratureError, VerificationReport


# ---------------------------------------------------------------- elements

@dataclass
class OrbitPoint:
    """A point of O_1: the matrix, its radius and unit-sphere part."""

    y: np.ndarray
    radius: float
    unit_part: np.ndarray
    exact: bool
    radius_sq: Fraction | float

    def membership_residual(self, m: liealg.GradedModel):
        """[[y, theta y], y] - 2 <y, theta y> y; exactly zero on O_1.

        Exact points are written y = Y / den with Y integer, and the
        residual is formed on Y over the common denominator
        den^3 * denominator(form_scale), then divided once.
        """
        y = self.y
        if self.exact:
            yi, den, _ = ratlin.integer_matrix(y)
            th = m.theta(yi)
            p, q = m.form_scale.numerator, m.form_scale.denominator
            lhs = q * m.bracket(m.bracket(yi, th), yi)
            rhs = 2 * p * ratlin.trace_product(yi, th) * yi
            return ratlin.divide(lhs - rhs, q * den ** 3)
        th = -y.T
        lhs = _fbracket(_fbracket(y, th), y)
        rhs = 2.0 * _fpair(m, y, th) * y
        return lhs - rhs


def _fbracket(a, b):
    return a @ b - b @ a


def _fpair(m: liealg.GradedModel, a, b) -> float:
    return float(m.form_scale) * float(np.trace(a @ b))


@dataclass
class RadialMeasure:
    """Radial factor w^exponent dw together with the base-mass convention."""

    exponent: int
    base_sampler: Callable[[int, int], list] | None = None
    base_mass: float = 1.0   # mu'(O') is set to 1; all checks are ratios
    description: str = "base sampler targets the invariant probability measure on O'"


def radial_measure(m: liealg.GradedModel) -> RadialMeasure:
    return RadialMeasure(exponent=m.d * m.n - 1,
                         base_sampler=lambda count, seed: sample_base(m, count, seed))


# ------------------------------------------------------------ exact points

def sample_orbit_rational(m: liealg.GradedModel, count: int, seed: int) -> list[OrbitPoint]:
    """Exact rational orbit points Ad(l) y_1; the first point is y_1 itself."""
    rand = random.Random(seed)
    y1 = m.triples[0].y
    points = []
    for i in range(count):
        if i == 0:
            y = y1
        else:
            act = m.random_l_action(rand)
            y = m.embed(act(m.block(y1, -1)), -1)
        rad_sq = -m.pair(y, m.theta(y))
        radius = math.sqrt(float(rad_sq))
        unit = np.array([[float(v) for v in row] for row in y]) / radius
        points.append(OrbitPoint(y=y, radius=radius, unit_part=unit,
                                 exact=True, radius_sq=rad_sq))
    return points


# ------------------------------------------------------------ float backend

class FloatBackend:
    """Vectorized sampling and pairing formulas for one model.

    Unit directions are stored as row pairs (U, V) and points as
    w * y'(U, V); the per-family formulas come from the model's spec.  The
    fixed blocks are read off the exact sl2 triples.
    """

    def __init__(self, m: liealg.GradedModel):
        self.model = m
        self.spec = m.spec
        self.block = m.block_size
        self.dn = m.d * m.n
        y1 = m.triples[0].y
        self.y1_block = m.block(y1, -1).astype(float)
        self.theta_y1_block = m.block(m.theta(y1), 1).astype(float)

    # -- sampling

    def sample_units(self, rng: np.random.Generator, count: int):
        return self.spec.sample_units(rng, count, self.block)

    def sample_radii(self, rng: np.random.Generator, count: int):
        w = rng.gamma(shape=self.dn, scale=1.0, size=count)
        w = np.maximum(w, 1e-290)
        log_weight = w + math.lgamma(self.dn)
        return w, np.exp(log_weight)

    # -- pairings against a fixed n-side block x

    def pair_x(self, x_block, u, v, w):
        """<x, w * y'(u, v)> for x given by its n-side block."""
        return w * liealg.rowdot(v @ x_block, u)

    def pair_theta_y1(self, u, v, w):
        return self.pair_x(self.theta_y1_block, u, v, w)

    def crown_pair(self, x_block, u, v, w):
        """<x, [[theta y, y_1], y]> at y = w * y'(u, v), bilinear in y."""
        return self.spec.crown_pair(x_block, self.y1_block, u, v, w)

    # -- materialization

    def blocks(self, u, v, w):
        return w[:, None, None] * self.spec.unit_block(u, v)

    def matrices(self, u, v, w):
        return self.model.embed(self.blocks(u, v, w), -1)

    # -- group actions

    def _m_rotations(self):
        """A fixed M = K cap L element, as the rotations of u and of v."""
        mdim = self.block
        c, s = 0.6, 0.8
        i, j = (1, 2) if mdim >= 3 else (0, 1)
        r = np.eye(mdim)
        r[i, i], r[i, j], r[j, i], r[j, j] = c, -s, s, c
        r2 = np.eye(mdim)
        r2[0, 0], r2[0, 1], r2[1, 0], r2[1, 1] = c, -s, s, c
        return self.spec.m_rotation_pair(r, r2)

    def m_rotation_units(self):
        """The fixed M element acting on unit-direction pairs."""
        ru, rv = self._m_rotations()
        return lambda u, v: (u @ ru.T, v @ rv.T)

    def m_rotation_x(self):
        """The same M element acting on n-side blocks."""
        ru, rv = self._m_rotations()
        return lambda cblk: rv @ cblk @ ru.T

    def random_diag_l(self, rand: random.Random):
        """A random diagonal l, as its action on unit rows, and its character."""
        return self.spec.random_diag_l(rand, self.block, self.model.d)

    def radii_after_diag(self, action, u, v, w):
        a, b = action(u, v)
        return self.spec.radius(a, b, w)

    # -- default grid rays

    def ray_blocks(self):
        """Three unit rays in n: the x_1 direction, x_2, and a mixture."""
        b1, b2 = (self.model.block(t.x, 1).astype(float) for t in self.model.triples[:2])
        return {"e1": b1, "e2": b2, "mix": (b1 + b2) / math.sqrt(2.0)}


def sample_base(m: liealg.GradedModel, count: int, seed: int) -> list[OrbitPoint]:
    """Unit-sphere orbit points from the invariance-targeting base sampler."""
    be = FloatBackend(m)
    rng = np.random.default_rng(seed)
    u, v = be.sample_units(rng, count)
    mats = be.matrices(u, v, np.ones(count))
    out = []
    for i in range(count):
        out.append(OrbitPoint(y=mats[i], radius=1.0, unit_part=mats[i],
                              exact=False, radius_sq=1.0))
    return out


# --------------------------------------------------------- radial integral

def l2_radial_integral(tau, radial_exp: int) -> float:
    """integral_0^inf K_tau(w)^2 w^(radial_exp - 2 tau) dw.

    Finite precisely when 4 tau < radial_exp; outside that range the
    integrand has a non-integrable pole at 0 and the call raises.
    """
    t = float(tau)
    if 4 * t >= radial_exp:
        raise QuadratureError(
            f"radial integral diverges: 4*tau = {4 * t} >= {radial_exp} = d*n - 1")
    power = radial_exp - 2 * t

    def integrand(w):
        k = bessel.bessel_k(t, w)
        return k * k * w ** power

    near, err1 = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-11, limit=200)
    far, err2 = integrate.quad(integrand, 1.0, np.inf, epsabs=1e-13, epsrel=1e-11, limit=200)
    total = near + far
    if not math.isfinite(total) or (err1 + err2) > max(1e-8 * abs(total), 1e-12):
        raise QuadratureError(f"radial quadrature did not converge (err={err1 + err2})")
    return total


def l2_norm_g_tau(m: liealg.GradedModel) -> float:
    """Radial factor of ||g_tau||^2 on L^2(O_1); the base mass is reported
    separately by radial_measure and multiplies this value."""
    tau = Fraction(m.d - m.e - 1, 2)
    return l2_radial_integral(tau, m.d * m.n - 1)


# ----------------------------------------------------------- Fourier side

MIN_FOURIER_SAMPLES = 10 ** 4


@dataclass
class FourierEstimate:
    value: complex
    stderr: float
    samples: int
    seed: int

    def as_dict(self) -> dict:
        return {"value": [self.value.real, self.value.imag],
                "stderr": self.stderr, "samples": self.samples, "seed": self.seed}


def _resolve_x_block(m: liealg.GradedModel, x) -> np.ndarray:
    x = np.asarray(x)
    mdim = m.block_size
    if x.shape == (m.dim_ambient, m.dim_ambient):
        x = m.block(x, 1)
    elif x.shape != (mdim, mdim):
        raise ValueError(f"cannot interpret x of shape {x.shape}")
    return x.astype(float)


def fourier_phi(m: liealg.GradedModel, x, samples: int = 10 ** 5,
                seed: int = 0) -> FourierEstimate:
    """Monte Carlo estimate of the Fourier transform of g_tau d mu_1 at x.

    Antithetic y/-y pairing annihilates the imaginary part identically; the
    reported value is real with a standard error from the paired stream.
    """
    if samples < MIN_FOURIER_SAMPLES:
        raise ValueError(f"need at least {MIN_FOURIER_SAMPLES} samples")
    be = FloatBackend(m)
    tau = Fraction(m.d - m.e - 1, 2)
    rng = np.random.default_rng(seed)
    pairs = samples // 2
    u, v = be.sample_units(rng, pairs)
    w, weight = be.sample_radii(rng, pairs)
    xb = _resolve_x_block(m, x)
    phase = be.pair_x(xb, u, v, w)
    t = weight * bessel.radial_profile_at(tau, w) * np.cos(phase)
    value = float(np.mean(t))
    stderr = float(np.std(t) / math.sqrt(pairs))
    return FourierEstimate(complex(value, 0.0), stderr, 2 * pairs, seed)


# ------------------------------------------------------------- check suites

def _test_bank() -> list[tuple[str, Callable]]:
    return [
        ("gauss", lambda r: np.exp(-r * r)),
        ("r2gauss", lambda r: r * r * np.exp(-r * r)),
        ("widegauss", lambda r: np.exp(-0.25 * r * r)),
    ]


def equivariance_check(m: liealg.GradedModel, l_samples: int = 3, seed: int = 0,
                       samples: int = 10 ** 6, rtol: float = 0.01) -> VerificationReport:
    """Integral ratio under random diagonal L elements vs the character.

    For diagonal l the transformed radius is computable in closed form, so
    both sides of the equivariance identity are plain radial Monte Carlo
    estimates; they must agree to rtol.
    """
    report = VerificationReport("equivariance", meta={
        "family": m.family.value, "n": m.n, "samples": samples, "seed": seed})
    be = FloatBackend(m)
    rand = random.Random(seed)
    rng_l = np.random.default_rng(seed + 1)
    rng_r = np.random.default_rng(seed + 2)
    u1, v1 = be.sample_units(rng_l, samples)
    w1, weight1 = be.sample_radii(rng_l, samples)
    u2, v2 = be.sample_units(rng_r, samples)
    w2, weight2 = be.sample_radii(rng_r, samples)

    for name, g in _test_bank():
        base = float(np.mean(weight2 * g(w2)))
        report.add(f"identity ratio [{name}]", True, residual=0.0, exact=True,
                   detail="same-stream ratio is identically 1")
        for li in range(l_samples):
            action, char = be.random_diag_l(rand)
            radii = be.radii_after_diag(action, u1, v1, w1)
            lhs = float(np.mean(weight1 * g(radii)))
            rhs = char * base
            rel = abs(lhs / rhs - 1.0)
            report.add(f"diag l#{li} ratio [{name}]", rel < rtol, residual=rel,
                       exact=False, samples=samples,
                       detail=f"character factor {char:.6g}")
    return report


def scaling_check(m: liealg.GradedModel, z_values=(0.5, 2.0), samples: int = 10 ** 6,
                  seed: int = 0, rtol: float = 0.01) -> VerificationReport:
    """Pushforward law: integrating f(z y) against d mu_1 scales by z^{-dn}.

    The two sides use independent sample streams, so this exercises the
    sampler rather than restating its construction.
    """
    report = VerificationReport("measure_scaling", meta={
        "family": m.family.value, "n": m.n, "samples": samples, "seed": seed})
    be = FloatBackend(m)
    dn = m.d * m.n
    rng_a = np.random.default_rng(seed + 11)
    rng_b = np.random.default_rng(seed + 12)
    wa, weight_a = be.sample_radii(rng_a, samples)
    wb, weight_b = be.sample_radii(rng_b, samples)
    for name, g in _test_bank():
        base = float(np.mean(weight_b * g(wb)))
        for z in z_values:
            lhs = float(np.mean(weight_a * g(z * wa)))
            rhs = float(z) ** (-dn) * base
            rel = abs(lhs / rhs - 1.0)
            report.add(f"z={z} [{name}]", rel < rtol, residual=rel, exact=False,
                       samples=samples, detail=f"z^-dn = {float(z) ** (-dn):.6g}")
    return report
