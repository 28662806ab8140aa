"""Minimal orbit sampling, the radial measure, and the Fourier transform.

The orbit O_1 through y_1 factors as O' x (0, inf) with radial measure
w^(dn-1) dw.  The base measure on O' is normalized to the invariant
probability measure targeted by the sampler; every check below compares
ratios, so the free overall scalar never enters.

Radii are drawn by importance sampling against w^(dn-1) dw, from one of
two laws:

* Gamma(dn, 1), with weight Gamma(dn) e^w (sample_radii).  The transform
  estimates use it: fourier_phi_many (fourier_phi is its one-point view),
  and through it m_invariance_check, and the spherical cancellation test.
  Oscillatory estimators also pair y with -y (antithetic), which makes
  them explicitly real.
* A defensive mixture (sample_radii_mixture) of that Gamma law and six
  chi-type laws w = s sqrt(Gamma(dn/2, 1)), s = 1/8 .. 4, with the
  balance-heuristic weight and a fixed share of the draws per component.
  The measure checks use it: scaling_check and equivariance_check
  integrate Gaussians e^-(w/s)^2 with s from 1/2 to 4, and the narrow
  ones live at w < 1, far below the Gamma law's bulk at w ~ dn.

The checks evaluate one sample stream at many points x or many group
elements l, and the work that depends on neither is done once per stream:

* fourier_phi_many draws the stream and evaluates the radial profile once
  for all x; only the phase is formed per x.
* PairingForms holds the x-free columns of the pairings, which the points
  of the spherical grid and its rays share; a point pays only for a sum
  over the nonzero coefficients of its forms.
* equivariance_check squares the nbar coordinates of the unit points once;
  each diagonal l pays only for one matrix-vector product.

A sample is kept as the nbar coordinates c of its unit part, drawn alike
for every family (FloatBackend.sample_units), and a point x of n as its
dense n-coordinates; every pairing, radius and torus action is a form in c
built exactly from the model, as is the M rotation of x (m_rotation).  The
exact orbit points of sample_orbit_rational are sparse nbar coordinates
too, and their membership residual runs through the model's integer bracket
and trace tables; only the float points of sample_base are matrices.

The measure checks and the spherical grid never form an integrand over the
whole stream.  They evaluate it on contiguous slices of CHUNK samples, small
enough that a slice's temporaries stay in the L2 cache, and reduce each
estimate with a streaming mean and centred sum of squares (Moments).  Every
sample's value is the one the whole-stream formula gives, bit for bit; only
the order of the summation depends on CHUNK, so an estimate moves with it by
rounding alone.  fourier_phi_many reduces with whole-stream np.mean and
np.std.

l2_radial_integral is the one quadrature here; it calls
scipy.integrate.quad through the scipy package, so scipy's quadrature code
loads on its first call and not on import (see bessel).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np
import scipy

from . import bessel, liealg, ratlin
from .reports import QuadratureError, VerificationReport


# ---------------------------------------------------------------- elements

@dataclass
class OrbitPoint:
    """A point of O_1 and its radius: y is the point's sparse nbar
    coordinates {k: c} when exact, its float matrix otherwise."""

    y: dict | np.ndarray
    radius: float
    exact: bool

    def membership_residual(self, m: liealg.GradedModel):
        """[[y, theta y], y] - 2 <y, theta y> y; exactly zero on O_1.

        Exact points are written y = Y / den with Y integer coordinates,
        and the residual is formed on Y through the integer tables over the
        common denominator den^3 * denominator(form_scale), then divided
        once; it is returned as sparse coordinates, empty on O_1.  Float
        points give the float matrix residual.
        """
        y = self.y
        if self.exact:
            ints, den = ratlin.clear_denominators(list(y.values()))
            yi = dict(zip(y, ints))
            th = m.theta(yi)
            p, q = m.form_scale.numerator, m.form_scale.denominator
            res = liealg.combine((q, m.bracket(m.bracket(yi, th), yi)),
                                 (-2 * p * m.trace(yi, th), yi))
            scale = q * den ** 3
            return {k: Fraction(v, scale) for k, v in res.items()}
        th = -y.T
        bracket = y @ th - th @ y
        pair = float(m.form_scale) * float(np.trace(y @ th))
        return (bracket @ y - y @ bracket) - 2.0 * pair * y


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
    """Exact rational orbit points Ad(g) y_1; the first point is y_1 itself.

    Each g is an m.random_l_action on nbar coordinates c; a point keeps its
    c, of radius sqrt(sum c_k^2) (the nbar basis is orthonormal).
    """
    rand = random.Random(seed)
    y1 = m.triples[0].y
    points = []
    for i in range(count):
        coords = y1 if i == 0 else m.random_l_action(rand)(y1)
        radius = math.sqrt(float(sum(c * c for c in coords.values())))
        points.append(OrbitPoint(y=coords, radius=radius, exact=True))
    return points


# ------------------------------------------------------------ float backend

class FloatBackend:
    """Vectorized sampling and the float forms of one model.

    A sample is kept as its radius w and the nbar coordinates c of its unit
    part, y = w * sum_k c_k e_k; a point x = sum_a x_a e_a of n is the dense
    float vector of its n-coordinates x_a.  Every pairing, crown pairing and
    torus action is a form in c, read off the exact model and converted to
    float here.
    """

    def __init__(self, m: liealg.GradedModel):
        self.model = m
        self.block = m.block_size
        self.dn = m.d * m.n
        nbar_blocks = [m.block(m.basis[k], -1) for k in m.nbar_indices]
        self._nbar_flat = np.array(nbar_blocks, dtype=float).reshape(len(nbar_blocks), -1)
        # c_k = sum val g_r h_c over the entries (r, c, val = +-1) of e_k's block
        self._unit_entries = [(k, r, col, np.add if b[r, col] > 0 else np.subtract)
                              for k, b in enumerate(nbar_blocks) for r, col in zip(*np.nonzero(b))]
        self.theta_y1 = self.n_vector(m.theta(m.triples[0].y))

    def n_vector(self, x: dict) -> np.ndarray:
        """Sparse coordinates x as dense n-coordinates; ValueError off n."""
        m = self.model
        if any(m.grades[k] != 1 for k in x):
            raise ValueError("x is not in n")
        return np.array([x.get(k, 0) for k in m.n_indices], dtype=float)

    # -- sampling

    def sample_units(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """The nbar coordinates c of count unit points of O', for every
        family: c_k = sum val g_r h_c over the entries (r, c, val) of e_k's
        nbar block for Gaussian rows g, h, divided by |c|, a slice at a time.
        On skew blocks (o2n2n) c is g ^ h = r11 r22 (u ^ v) for the
        Gram-Schmidt frame (u, v) of (g, h) (Bartlett decomposition), on
        full ones (gl2nR) g h^T = |g| |h| u v^T: the unit point is the
        frame's, of M-invariant law."""
        g = rng.standard_normal((count, self.block))
        h = rng.standard_normal((count, self.block))
        c = np.zeros((count, self.model.dim_nbar))
        for s in chunks(count):
            gs, hs, cs = g[s], h[s], c[s]
            for k, r, col, op in self._unit_entries:
                op(cs[:, k], gs[:, r] * hs[:, col], out=cs[:, k])
            cs /= np.sqrt(np.einsum("ni,ni->n", cs, cs))[:, None]
        return c

    def sample_radii(self, rng: np.random.Generator, count: int):
        w = rng.gamma(shape=self.dn, scale=1.0, size=count)
        w = np.maximum(w, 1e-290)
        log_weight = w + math.lgamma(self.dn)
        return w, np.exp(log_weight)

    def sample_radii_mixture(self, rng: np.random.Generator, count: int):
        """Radii from the defensive mixture, with weights w^(dn-1) / q(w).

        The draws are stratified by component: component k gets counts[k] of
        them (count / K, the remainder spread over the first components), in
        the order Gamma(dn, 1) then s = 1/8 .. 4, and q mixes the components
        in those same shares, so the weighted mean is unbiased.
        """
        counts = mixture_counts(count)
        w0, _ = self.sample_radii(rng, counts[0])
        parts = [w0]
        for s, c in zip(MIXTURE_SCALES, counts[1:]):
            parts.append(np.maximum(s * np.sqrt(rng.gamma(self.dn / 2, 1.0, size=c)), 1e-290))
        w = np.concatenate(parts)
        weight = np.empty_like(w)
        for s in chunks(count):
            weight[s] = mixture_weight(w[s], self.dn, counts)
        return w, weight

    # -- forms in c, built from the exact model

    @cached_property
    def _pairing(self) -> np.ndarray:
        return self.model.nbar_pairing.astype(float)

    @cached_property
    def _crown(self) -> np.ndarray:
        return self.model.crown_tensor.astype(float)

    def _n_coords(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != self._pairing.shape[:1]:
            raise ValueError(f"x must be {len(self._pairing)} n-coordinates, got shape {x.shape}")
        return x

    def linear_form(self, x) -> np.ndarray:
        """g_x, with <x, w * sum_k c_k e_k> = w (c . g_x)."""
        return self._n_coords(x) @ self._pairing

    def crown_matrix(self, x) -> np.ndarray:
        """T_x = sum_a x_a T[a], with <x, [[theta y, y_1], y]> = w^2 c^T T_x c."""
        return np.tensordot(self._n_coords(x), self._crown, 1)

    # -- pairings against a fixed x in n, views of PairingForms

    def pair_x(self, x, c, w):
        """<x, w * sum_k c_k e_k>."""
        return PairingForms(self, c, w).pair_x(x)

    def pair_theta_y1(self, c, w):
        return PairingForms(self, c, w).pair_x(self.theta_y1)

    def crown_pair(self, x, c, w):
        """<x, [[theta y, y_1], y]> at y = w * sum_k c_k e_k, bilinear in y."""
        return PairingForms(self, c, w).crown_pair(x)

    # -- materialization

    def blocks(self, c, w):
        """The nbar blocks of the points w * sum_k c_k e_k."""
        return w[:, None, None] * (c @ self._nbar_flat).reshape(-1, self.block, self.block)

    def matrices(self, c, w):
        return self.model.embed(self.blocks(c, w), -1)

    # -- group actions

    def random_diag_l(self, rand: random.Random):
        """A random diagonal l = exp(sum_i t_i H_i) over the model's torus,
        with one t_i uniform on (-0.4, 0.4) per H_i in l-index order, as the
        squares lambda^2 of its scales of the coordinates c_k, and its
        character exp(2d nu(H))."""
        torus = self.model.torus
        t = np.array([rand.uniform(-0.4, 0.4) for _ in torus.indices])
        lam2 = np.exp(2.0 * (t @ torus.weights))
        return lam2, math.exp(sum(ti * float(chi) for ti, chi in zip(t, torus.character)))

    def radii_after_diag(self, c2, lam2, w):
        """|l (w * sum_k c_k e_k)| = w sqrt(sum_k lambda_k^2 c_k^2), from the
        squared coordinates c2, l-free, and the lambda^2 of a diagonal l."""
        return w * np.sqrt(c2 @ lam2)

    # -- default grid rays

    def ray_blocks(self):
        """Three unit rays in n as n-coordinates, like every x here: the
        x_1 direction, x_2, and a mixture.  It keeps "blocks" in its name
        because perfbench/tracing.py wraps FloatBackend.ray_blocks by name."""
        v1, v2 = (self.n_vector(t.x) for t in self.model.triples[:2])
        return {"e1": v1, "e2": v2, "mix": (v1 + v2) / math.sqrt(2.0)}


def sample_base(m: liealg.GradedModel, count: int, seed: int) -> list[OrbitPoint]:
    """Unit-sphere orbit points from the invariance-targeting base sampler."""
    be = FloatBackend(m)
    mats = be.matrices(be.sample_units(np.random.default_rng(seed), count), np.ones(count))
    return [OrbitPoint(y=y, radius=1.0, exact=False) for y in mats]


# ------------------------------------------------------ pairings as forms

class PairingForms:
    """The pairings of one sample stream as linear and quadratic forms in c.

    At y = w * sum_k c_k e_k and x = sum_a x_a e_a in n, given by its
    n-coordinates,

        <x, y> = sum_k g_k (w c_k),
        <x, [[theta y, y_1], y]> = sum_{k <= l} S_kl (w^2 c_k c_l),

    with g = g_x the backend's linear_form of x and S its symmetrized
    crown_matrix T_x (S_kk = T_kk, S_kl = T_kl + T_lk).  The columns w c_k
    and w^2 c_k c_l do not depend on x: each is formed on first use and
    kept, so the points of a grid share them.  A pairing at x is a sum over
    the nonzero coefficients of g (of S for the crown pairing) in row-major
    order, so its value depends on the stream and on x alone, not on which
    points came before.  The spherical grid makes one per slice of its
    stream, with the term lists (linear_terms, crown_terms) built once per
    point.
    """

    def __init__(self, backend: FloatBackend, c, w):
        self.backend = backend
        self.c, self.w = c, w
        self._columns: dict = {}

    @cached_property
    def _w2(self) -> np.ndarray:
        return self.w * self.w

    def _column(self, key) -> np.ndarray:
        """The x-free column (k,) = w c_k, or (k, l) = w^2 c_k c_l."""
        col = self._columns.get(key)
        if col is None:
            if len(key) == 1:
                col = self.w * self.c[:, key[0]]
            else:
                col = self._w2 * self.c[:, key[0]] * self.c[:, key[1]]
            self._columns[key] = col
        return col

    def sum(self, terms) -> np.ndarray:
        """The sum of coef * column over the (column key, coef) terms, in
        their order, accumulated in place in one new array."""
        out = np.zeros(self.w.shape)
        scratch = np.empty_like(out)
        for key, coef in terms:
            out += np.multiply(self._column(key), coef, out=scratch)
        return out

    @staticmethod
    def linear_terms(backend: FloatBackend, x) -> list:
        """The terms of <x, y> over the columns w c_k."""
        g = backend.linear_form(x)
        return [((int(k),), g[k]) for k in np.flatnonzero(g)]

    @staticmethod
    def crown_terms(backend: FloatBackend, x) -> list:
        """The terms of <x, [[theta y, y_1], y]> over the columns
        w^2 c_k c_l, k <= l, row-major."""
        t = backend.crown_matrix(x)
        sym = t + t.T
        return [((int(k), int(l)), t[k, k] if k == l else sym[k, l])
                for k, l in zip(*np.nonzero(np.triu(sym)))]

    def pair_x(self, x) -> np.ndarray:
        """<x, w * sum_k c_k e_k>."""
        return self.sum(self.linear_terms(self.backend, x))

    def crown_pair(self, x) -> np.ndarray:
        """<x, [[theta y, y_1], y]> at y = w * sum_k c_k e_k."""
        return self.sum(self.crown_terms(self.backend, x))


def cos_sin(phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos phase, sin phase) of a float array, from the half-angle tangent
    h = tan(phase / 2).

    cos = (1 - h^2) / (1 + h^2) and sin = 2h / (1 + h^2).  Where numpy's
    float64 tan runs as a SIMD kernel and its cos and sin go through scalar
    libm (AVX-512 builds), this is several times faster than np.cos and
    np.sin: tan is one SIMD pass, the rest are five arithmetic passes.
    Against them the absolute error stays within 2.2e-16, one unit in the
    last place of 1.0, on phases up to |phase| = 1e5 (tests/test_orbit.py).
    At the doubles nearest the odd multiples of pi, h reaches about 1.6e18
    there; h^2 stays finite and the result is (-1, ~0).
    """
    h = phase * 0.5
    np.tan(h, out=h)
    cos = h * h
    den = cos + 1.0
    np.subtract(1.0, cos, out=cos)
    cos /= den
    h += h
    h /= den
    return cos, h


# ------------------------------------------------------ streaming moments

# Rows per slice of a sample stream.  A slice of floats takes 128 KB, so the
# half-dozen temporaries of one integrand evaluation fit in a 2 MB L2 cache.
# It changes only the order of the summation, never a sample's value.
CHUNK = 16384


def chunks(count: int):
    """The slices of CHUNK consecutive rows that cover range(count)."""
    return (slice(lo, lo + CHUNK) for lo in range(0, count, CHUNK))


class Moments:
    """Streaming mean and centred sum of squares of a sample.

    Each batch is reduced to its own mean and centred sum of squares and
    merged by the pairwise update of Chan, Golub and LeVeque (Amer. Statist.
    37, 1983), so the digits survive where the mean is many standard
    deviations from zero, which the E[t^2] - E[t]^2 shortcut loses.  mean
    and std match np.mean and np.std (ddof 0) of the concatenated batches
    to rounding; a single batch gives its own mean bit for bit, and batches
    of zeros a mean and std of exactly 0.
    """

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, t: np.ndarray) -> None:
        """Merge the values of the float array t, which is overwritten by
        its deviations from its own mean."""
        n = t.size
        mean = float(t.sum()) / n
        t -= mean
        m2 = float(np.dot(t, t))
        total = self.count + n
        delta = mean - self.mean
        self.mean += delta * (n / total)
        self.m2 += m2 + delta * delta * (self.count * n / total)
        self.count = total

    @property
    def std(self) -> float:
        return math.sqrt(self.m2 / self.count)

    @property
    def stderr(self) -> float:
        """The i.i.d. standard error of the mean.  On a stratified draw it
        over-estimates the variance of the mean, so the error bar it gives
        is conservative."""
        return self.std / math.sqrt(self.count)


def sliced_mean(f: Callable, *arrays) -> tuple[float, float]:
    """Mean and standard error of f(*arrays), with f evaluated on the
    successive CHUNK-row slices of the arrays (equal length along axis 0)
    and reduced by Moments; f must return a new float array."""
    acc = Moments()
    for s in chunks(len(arrays[0])):
        acc.add(f(*(a[s] for a in arrays)))
    return acc.mean, acc.stderr


# ------------------------------------------------ defensive radial mixture

MIXTURE_SCALES = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0)


def mixture_counts(count: int) -> list[int]:
    """Draws per component: Gamma(dn, 1) first, then one per scale."""
    k = 1 + len(MIXTURE_SCALES)
    return [count // k + (i < count % k) for i in range(k)]


def mixture_weight(w, dn: int, counts) -> np.ndarray:
    """w^(dn-1) / q(w) for the mixture q with component shares counts / sum.

    Over w^(dn-1), the Gamma(dn, 1) density is e^-w / Gamma(dn) and the law
    of s sqrt(Gamma(dn/2, 1)) is 2 e^-(w/s)^2 / (Gamma(dn/2) s^dn).  Each
    term is formed as one exp of its logarithm, so no power of s or Gamma
    value is ever held on its own.  w^2 is formed once: each s is a power of
    two, so w^2 * (1/s^2) equals (w/s)^2 bit for bit, and where w^2 under-
    or overflows both spellings still give the same term.  The terms
    accumulate in place through one scratch array, in component order.  A
    scalar w gives a scalar.
    """
    w = np.asarray(w, dtype=float)
    total = float(sum(counts))
    dens = np.negative(w, out=np.empty_like(w))
    dens -= math.lgamma(dn)
    np.exp(dens, out=dens)
    dens *= counts[0] / total
    w2 = np.multiply(w, w, out=np.empty_like(w))
    term = np.empty_like(w)
    log_chi = math.log(2.0) - math.lgamma(dn / 2)
    for s, c in zip(MIXTURE_SCALES, counts[1:]):
        np.multiply(w2, 1.0 / (s * s), out=term)
        np.subtract(log_chi - dn * math.log(s), term, out=term)
        np.exp(term, out=term)
        term *= c / total
        dens += term
    return np.divide(1.0, dens, out=dens)[()]


# --------------------------------------------------------- radial integral

def l2_radial_integral(tau, radial_exp: int) -> float:
    """integral_0^inf K_tau(w)^2 w^(radial_exp - 2 tau) dw.

    For tau > 0, K_tau(w)^2 grows like w^(-2 tau) at 0, so the integrand
    behaves like w^(radial_exp - 4 tau) there: the integral is finite
    precisely when 4 tau < radial_exp + 1.  Outside that range the pole at
    0 is not integrable and the call raises.
    """
    t = float(tau)
    if 4 * t >= radial_exp + 1:
        raise QuadratureError(
            f"radial integral diverges: 4*tau = {4 * t} >= {radial_exp + 1} = radial_exp + 1")
    power = radial_exp - 2 * t
    bessel.certify(t)

    def integrand(w):
        k = bessel.k_ladder(t, w)[0]
        return k * k * w ** power

    near, err1 = scipy.integrate.quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-11, limit=200)
    far, err2 = scipy.integrate.quad(integrand, 1.0, np.inf, epsabs=1e-13, epsrel=1e-11, limit=200)
    total = near + far
    if not math.isfinite(total) or (err1 + err2) > max(1e-8 * abs(total), 1e-12):
        raise QuadratureError(f"radial quadrature did not converge (err={err1 + err2})")
    return total


def l2_norm_g_tau(m: liealg.GradedModel) -> float:
    """Radial factor of ||g_tau||^2 on L^2(O_1); the base mass is reported
    separately by radial_measure and multiplies this value."""
    return l2_radial_integral(m.tau, m.d * m.n - 1)


# ----------------------------------------------------------- Fourier side

MIN_FOURIER_SAMPLES = 10 ** 4

# The largest sample count the CLI accepts.  The draws of a Monte Carlo
# suite are held at once (the integrands only a slice at a time): peak
# memory grows by about 115 bytes per sample (197 MB at 1e6, 426 MB at 3e6
# for verify orbit or all on o2n2n n = 2, where equivariance_check holds the
# most: the unit rows while they are mapped to coordinates), so the cap
# keeps a run under about 1.3 GB.
MAX_SAMPLES = 10 ** 7

# The largest --steps the bessel and fourier commands accept.  The grid and
# every row are held until the output is written: a bessel table at the cap
# is 62 MB of text and takes about 210 MB and 4 s (2-vCPU Xeon, Python
# 3.11), and a fourier ray at the cap makes a million transform estimates
# of at least MIN_FOURIER_SAMPLES each.
MAX_STEPS = 10 ** 6


@dataclass
class FourierEstimate:
    value: complex
    stderr: float
    samples: int
    seed: int

    def as_dict(self) -> dict:
        return {"value": [self.value.real, self.value.imag],
                "stderr": self.stderr, "samples": self.samples, "seed": self.seed}


def fourier_phi(m: liealg.GradedModel, x, samples: int = 10 ** 5,
                seed: int = 0) -> FourierEstimate:
    """Monte Carlo estimate of the Fourier transform of g_tau d mu_1 at the
    point of n with n-coordinates x.

    Antithetic y/-y pairing annihilates the imaginary part identically; the
    reported value is real with a standard error from the paired stream.
    """
    return fourier_phi_many(m, [x], samples, seed)[0]


def fourier_phi_many(m: liealg.GradedModel, xs, samples: int = 10 ** 5,
                     seed: int = 0) -> list[FourierEstimate]:
    """fourier_phi at every x of xs, on one draw of the sample stream.

    The stream, the radial profile and the weights do not depend on x, so
    they are formed once, and only the phase is evaluated per x.  Entry k
    depends on xs[k] alone: it is fourier_phi(m, xs[k], samples, seed), bit
    for bit.
    """
    if samples < MIN_FOURIER_SAMPLES:
        raise ValueError(f"need at least {MIN_FOURIER_SAMPLES} samples")
    be = FloatBackend(m)
    rng = np.random.default_rng(seed)
    pairs = samples // 2
    c = be.sample_units(rng, pairs)
    w, weight = be.sample_radii(rng, pairs)
    amp = weight * bessel.radial_profile_at(m.tau, w)
    out = []
    for x in xs:
        phase = w * (c @ be.linear_form(x))
        t = amp * np.cos(phase)
        value = float(np.mean(t))
        stderr = float(np.std(t) / math.sqrt(pairs))
        out.append(FourierEstimate(complex(value, 0.0), stderr, 2 * pairs, seed))
    return out


# ------------------------------------------------------------- check suites

def _test_bank() -> list[tuple[str, Callable]]:
    return [
        ("gauss", lambda r: np.exp(-r * r)),
        ("r2gauss", lambda r: r * r * np.exp(-r * r)),
        ("widegauss", lambda r: np.exp(-0.25 * r * r)),
    ]


def _add_ratio(report: VerificationReport, name: str, lhs: tuple[float, float],
               rhs: tuple[float, float], rtol: float, samples: int, detail: str) -> None:
    """Check lhs / rhs = 1 to rtol, for (mean, stderr) sides drawn on
    independent streams; the ratio's stderr is the delta-method one."""
    ratio = lhs[0] / rhs[0]
    rel = abs(ratio - 1.0)
    stderr = abs(ratio) * math.hypot(lhs[1] / lhs[0], rhs[1] / rhs[0])
    report.add(name, rel < rtol, residual=rel, exact=False, samples=samples,
               detail=detail, estimate=ratio, stderr=stderr,
               z=(ratio - 1.0) / stderr if stderr else None)


def equivariance_check(m: liealg.GradedModel, l_samples: int = 3, seed: int = 0,
                       samples: int = 10 ** 6, rtol: float = 0.01) -> VerificationReport:
    """Integral ratio under random diagonal L elements vs the character.

    For diagonal l the transformed radius is computable in closed form, so
    both sides of the equivariance identity are plain radial Monte Carlo
    estimates on independent mixture streams; they must agree to rtol.
    The squared coordinates c_k^2 of the unit points are formed once for
    all l; each l costs one matrix-vector product with its squared torus
    scales, and the radii, the test function and the weighted integrand are
    formed a slice at a time (sliced_mean).
    """
    report = VerificationReport("equivariance", meta={
        "family": m.family.value, "n": m.n, "samples": samples, "seed": seed})
    be = FloatBackend(m)
    rand = random.Random(seed)
    rng_l = np.random.default_rng(seed + 1)
    rng_r = np.random.default_rng(seed + 2)
    c2 = be.sample_units(rng_l, samples)
    np.square(c2, out=c2)
    w1, weight1 = be.sample_radii_mixture(rng_l, samples)
    w2, weight2 = be.sample_radii_mixture(rng_r, samples)

    for name, g in _test_bank():
        base, base_se = sliced_mean(lambda w, weight: weight * g(w), w2, weight2)
        report.add(f"identity ratio [{name}]", True, residual=0.0, exact=True,
                   detail="same-stream ratio is identically 1")
        for li in range(l_samples):
            lam2, char = be.random_diag_l(rand)

            def transformed(w, weight, c2):
                return weight * g(be.radii_after_diag(c2, lam2, w))
            _add_ratio(report, f"diag l#{li} ratio [{name}]",
                       sliced_mean(transformed, w1, weight1, c2),
                       (char * base, char * base_se),
                       rtol, samples, f"character factor {char:.6g}")
    return report


def scaling_check(m: liealg.GradedModel, z_values=(0.5, 2.0), samples: int = 10 ** 6,
                  seed: int = 0, rtol: float = 0.01) -> VerificationReport:
    """Pushforward law: integrating f(z y) against d mu_1 scales by z^{-dn}.

    The two sides use independent mixture streams, so this exercises the
    sampler rather than restating its construction.  The integrands are
    formed a slice at a time (sliced_mean).
    """
    report = VerificationReport("measure_scaling", meta={
        "family": m.family.value, "n": m.n, "samples": samples, "seed": seed})
    be = FloatBackend(m)
    dn = m.d * m.n
    rng_a = np.random.default_rng(seed + 11)
    rng_b = np.random.default_rng(seed + 12)
    wa, weight_a = be.sample_radii_mixture(rng_a, samples)
    wb, weight_b = be.sample_radii_mixture(rng_b, samples)
    for name, g in _test_bank():
        base, base_se = sliced_mean(lambda w, weight: weight * g(w), wb, weight_b)
        for z in z_values:
            factor = float(z) ** (-dn)
            _add_ratio(report, f"z={z} [{name}]",
                       sliced_mean(lambda w, weight: weight * g(z * w), wa, weight_a),
                       (factor * base, factor * base_se), rtol, samples,
                       f"z^-dn = {factor:.6g}")
    return report
