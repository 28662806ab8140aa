"""Spherical-vector verification: three exact constants, the symbolic
operator assembly, and the direct Monte Carlo cancellation test.

The reduction being certified: applying the compact direction y_1 + theta y_1
to the Fourier transform of g d mu_1 produces the integrand

    i <theta y_1, y> (D phi)(-<y, theta y>),

so the transform of g_tau is annihilated exactly when D phi_tau = 0.  The
assembly constants are k = 1 (character vs pairing), k' = 2 (cubic orbit
identity) and k'' = 2 - 2e (Casimir-type scalar on n); each is certified in
exact arithmetic before the coefficients are combined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import bessel, liealg, orbit
from .reports import VerificationReport

ZERO = Fraction(0)
# the per-point gate of the Monte Carlo checks, in standard errors: the
# 3-sigma gate of the acceptance criteria
SIGMA_GATE = 3.0


# ----------------------------------------------------------- exact constants

def verify_k1(m: liealg.GradedModel) -> VerificationReport:
    """nu([theta y_1, y]) = <theta y_1, y> for every basis vector of nbar.

    Both sides are linear in y, so the basis check settles the identity on
    the whole of nbar.
    """
    report = VerificationReport("k1", meta={"family": m.family.value, "n": m.n})
    ty1 = m.theta(m.triples[0].y)
    for k in m.nbar_indices:
        y = {k: 1}
        lhs = liealg.nu(m, m.bracket(ty1, y))
        rhs = m.pair(ty1, y)
        report.add(f"basis vector {k}", lhs == rhs, residual=lhs - rhs)
    y1 = m.triples[0].y
    val = m.pair(ty1, y1)
    report.add("<theta y1, y1> = -1", val == -1, residual=val + 1)
    return report


def verify_kprime(m: liealg.GradedModel, samples: int = 100, seed: int = 0) -> VerificationReport:
    """[[y, theta y], y] = 2 <y, theta y> y on exact rational orbit points.

    Points and brackets are sparse coordinates.  The rank-two point
    y_1 + y_2 violates the identity and is kept as a negative control that
    the check can fail.
    """
    report = VerificationReport("kprime", meta={
        "family": m.family.value, "n": m.n, "samples": samples, "seed": seed})
    points = orbit.sample_orbit_rational(m, samples, seed)
    bad = sum(1 for p in points if p.membership_residual(m))
    report.add(f"identity on {samples} rational orbit points", bad == 0, residual=bad)

    y12 = liealg.combine((1, m.triples[0].y), (1, m.triples[1].y))
    th = m.theta(y12)
    ctrl = liealg.combine((1, m.bracket(m.bracket(y12, th), y12)),
                          (-2 * m.pair(y12, th), y12))
    report.add("negative control y1 + y2 violates the identity", bool(ctrl),
               detail="rank-2 point lies outside the minimal orbit")
    return report


def verify_kdoubleprime(m: liealg.GradedModel) -> VerificationReport:
    """Casimir-type scalar on n equals 2 - 2e."""
    report = VerificationReport("kdoubleprime", meta={
        "family": m.family.value, "n": m.n, "e": m.e})
    scalar = liealg.casimir_omega_scalar(m)
    expected = Fraction(2 - 2 * m.e)
    report.meta["scalar"] = scalar
    report.add("Omega scalar = 2 - 2e", scalar == expected,
               residual=scalar - expected, detail=f"scalar {scalar}")
    return report


# ---------------------------------------------------------- symbolic crown

def assemble_crown(m: liealg.GradedModel,
                   constants: tuple[VerificationReport, VerificationReport,
                                    VerificationReport]) -> VerificationReport:
    """Combine the four action terms and match the radial operator D.

    Term by term (coefficients of the integrand against <theta y_1, y>):
    the character term contributes -2 d k phi', the gradient term
    -2 k' z phi'', the Casimir term -k'' phi', and the translation term
    + phi.  With the verified constants the sum is -(D phi), and the -i
    prefactor turns it into + i (D phi): the identity being certified.
    The sign is pinned by the y = y_1 instance through k1 itself.

    constants are the (verify_k1, verify_kprime, verify_kdoubleprime)
    reports of m.
    """
    d, e = m.d, m.e
    k1_rep, kp_rep, kpp_rep = constants
    k1 = Fraction(1) if k1_rep.passed else ZERO
    kp = Fraction(2) if kp_rep.passed else ZERO
    kpp = kpp_rep.meta["scalar"]
    # coefficients of (z phi'', phi', phi) inside the paired integrand,
    # before the overall -i prefactor
    term_zphi2, term_phi1, term_phi0 = -2 * kp, -2 * d * k1 - kpp, Fraction(1)

    report = VerificationReport("crown_assembly", meta={"d": d, "e": e, "tau": m.tau})
    report.meta["terms"] = {
        "character": str(-2 * d * k1) + " phi'",
        "gradient": str(-2 * kp) + " z phi''",
        "casimir": str(-kpp) + " phi'",
        "translation": "+1 phi",
    }

    # D phi = 4 z phi'' + 2(d+1-e) phi' - phi, and 2(d+1-e) = 4(tau+1)
    c1, c2 = bessel.d_coefficient_identity(d, e)
    report.add("coefficient identity 4(tau+1) = 2(d+1-e)", c1 == c2, residual=c1 - c2)
    report.add("z phi'' coefficient = -4", term_zphi2 == -4, residual=term_zphi2 + 4)
    report.add("phi' coefficient = -2(d+1-e)", term_phi1 == -c2, residual=term_phi1 + c2)
    report.add("phi coefficient = +1", term_phi0 == 1, residual=term_phi0 - 1)
    report.add("assembled sum = -(D phi), prefactor -i gives +i D phi",
               (term_zphi2, term_phi1, term_phi0) == (-4, -c2, ZERO + 1))
    return report


# ------------------------------------------------------------ pi_chi action

@dataclass
class ActionOperator:
    """One generator of the induced action on functions of n.

    kind "translation" is the constant field of x_0 in n, "linear" the field
    [h_0, x] with the character offset, "quadratic" the field (1/2)[[x, y_0], x]
    with the character factor at [x, y_0].  chi_weight stores j*d for the
    character exp(-j d nu).
    """

    model: liealg.GradedModel
    kind: str
    element: np.ndarray      # float ambient matrix
    chi_weight: int

    def apply(self, f: Callable[[np.ndarray], complex], x: np.ndarray,
              step: float = 1e-6) -> complex:
        m = self.model
        x_amb = m.embed(x, 1)
        if self.kind == "translation":
            return _directional(f, x, m.block(self.element, 1), step)
        if self.kind == "linear":
            chi = -self.chi_weight * m.nu_from_traces(self.element)
            field = self.element @ x_amb - x_amb @ self.element
            return chi * f(x) - _directional(f, x, m.block(field, 1), step)
        if self.kind == "quadratic":
            h = x_amb @ self.element - self.element @ x_amb
            chi = -self.chi_weight * m.nu_from_traces(h)
            field = 0.5 * (h @ x_amb - x_amb @ h)
            return chi * f(x) - _directional(f, x, m.block(field, 1), step)
        raise ValueError(f"unknown kind {self.kind}")


def _directional(f, x, direction, step):
    return (f(x + step * direction) - f(x - step * direction)) / (2.0 * step)


# ----------------------------------------------------- direct Monte Carlo

def default_grid(m: liealg.GradedModel) -> list[tuple[str, np.ndarray]]:
    """Zero plus nine radii on each of three rays in n, as n-coordinates."""
    rays = orbit.FloatBackend(m).ray_blocks()
    grid: list[tuple[str, np.ndarray]] = [("origin", 0.0 * rays["e1"])]
    for name, ray in rays.items():
        for t in np.arange(0.5, 5.0, 0.5):
            grid.append((f"{name}:{t:.1f}", float(t) * ray))
    return grid


def verify_spherical_direct(m: liealg.GradedModel, grid=None, samples: int = 10 ** 6,
                            seed: int = 0, tau_shift: int = 0) -> VerificationReport:
    """Monte Carlo estimate of the compact-direction action on the transform.

    Both constituents, the gradient-term integral and the weighted transform,
    are evaluated on one correlated sample stream for the whole grid, drawn
    and walked in slices of orbit.CHUNK samples (FloatBackend.sample_slices),
    the outer loop; the grid points are the inner loop.  Per slice, the
    profiles, the weights, the x-free columns of the pairings
    (orbit.PairingForms) and the theta y_1 term are formed once and shared
    by every point, and a point pays for its pairings as sums
    over the nonzero coefficients of x (term lists built once per point),
    for cos and sin of the phase from one half-angle tangent
    (orbit.cos_sin), and for one update of its own streaming moments
    (orbit.Moments), fed in slice order.  So a grid point's numbers depend
    on the seed and on x alone, not on its place in the grid or on the
    other points.  At each point the sum of the two constituents must
    vanish within SIGMA_GATE standard errors for the true radial order, and
    tau_shift perturbs the order to exercise the detection power.
    """
    tau = m.tau + tau_shift
    report = VerificationReport("spherical_direct", meta={
        "family": m.family.value, "n": m.n, "tau": tau,
        "tau_shift": tau_shift, "samples": samples, "seed": seed})
    if grid is None:
        grid = default_grid(m)
    be = orbit.FloatBackend(m)
    pairs = samples // 2
    theta_terms = be.linear_terms(be.theta_y1)
    point_terms = [(be.linear_terms(x), be.crown_terms(x)) for _, x in grid]
    moments = [orbit.Moments() for _ in grid]
    mass = orbit.Moments()  # transform at 0, the scale anchor
    stream = be.sample_slices(np.random.default_rng(seed), pairs, be.radii_slices)
    for c, w, weight in stream:
        # the x-free factors of the two terms
        amp = weight * bessel.radial_profile_at(tau, w)
        crown_factor = weight * bessel.radial_profile_d1_at(tau, w)
        cols = orbit.PairingForms(c, w)
        theta_term = amp * cols.sum(theta_terms)
        mass.add(amp)  # overwrites amp, which is not read again
        for acc, (linear, crown) in zip(moments, point_terms):
            cos, sin = orbit.cos_sin(cols.sum(linear))
            # t = crown_factor * cpair * cos - theta_term * sin, in place
            t = cols.sum(crown)
            t *= crown_factor
            t *= cos
            sin *= theta_term
            t -= sin
            acc.add(t)
    zmax = 0.0
    for (name, _), acc in zip(grid, moments):
        est, stderr = acc.mean, acc.stderr
        if stderr == 0.0:
            report.add(f"x = {name}", est == 0.0, residual=est, exact=False,
                       samples=samples, detail="parity annihilates the estimator",
                       estimate=est, stderr=stderr)
            continue
        z = abs(est) / stderr
        zmax = max(zmax, z)
        decidable = SIGMA_GATE * stderr <= 0.05 * abs(mass.mean)
        passed = z <= SIGMA_GATE and decidable
        report.add(f"x = {name}", passed, residual=est, exact=False,
                   samples=samples, inconclusive=not decidable,
                   detail=f"stderr {stderr:.3e}, z {z:.2f}",
                   estimate=est, stderr=stderr, z=est / stderr)
    report.meta["max_abs_z"] = zmax
    return report


def m_invariance_check(m: liealg.GradedModel, samples: int = 4 * 10 ** 5,
                       seed: int = 0) -> VerificationReport:
    """Transform values agree at x and at the M-rotation m.m_rotation x.

    The rays are e1, e2 and (e1 + 2 e2) / sqrt(5), each at t = 1.5.  The
    grid's mix ray (e1 + e2) / sqrt(2) is not among them: on gl2nR at n = 2
    it is the identity of the n block, which the rotation fixes.  The x side
    and the rotated side are two streams (seed + 1, seed + 2), each drawn
    once for all three rays by orbit.fourier_phi_many.
    """
    report = VerificationReport("m_invariance", meta={
        "family": m.family.value, "n": m.n, "samples": samples, "seed": seed})
    rot = m.m_rotation.astype(float)
    grid_rays = orbit.FloatBackend(m).ray_blocks()
    e1, e2 = grid_rays["e1"], grid_rays["e2"]
    rays = {"e1": e1, "e2": e2, "e1+2e2": (e1 + 2.0 * e2) / math.sqrt(5.0)}
    xs = [1.5 * base for base in rays.values()]
    side_a = orbit.fourier_phi_many(m, xs, samples=samples, seed=seed + 1)
    side_b = orbit.fourier_phi_many(m, [rot @ x for x in xs], samples=samples, seed=seed + 2)
    for name, a, b in zip(rays, side_a, side_b):
        gap = a.value.real - b.value.real
        diff = abs(gap)
        sigma = math.hypot(a.stderr, b.stderr)
        report.add(f"ray {name}", diff <= SIGMA_GATE * sigma, residual=diff,
                   exact=False, samples=samples,
                   detail=f"values {a.value.real:.5f} / {b.value.real:.5f}, sigma {sigma:.2e}",
                   estimate=gap, stderr=sigma, z=gap / sigma)
    return report
