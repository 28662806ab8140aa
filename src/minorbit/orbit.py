"""Minimal orbit sampling, the radial measure, and the Fourier transform.

The orbit O_1 through y_1 factors as O' x (0, inf) with radial measure
w^(dn-1) dw.  The base measure on O' is normalized to the invariant
probability measure targeted by the sampler; every check below compares
ratios, so the free overall scalar never enters.

Radii are drawn by importance sampling against w^(dn-1) dw, from one of
two laws:

* Gamma(dn, 1), with weight Gamma(dn) e^w (sample_radii, radii_slices).
  The transform estimates use it: fourier_phi_many (fourier_phi is its
  one-point view), and through it m_invariance_check, and the spherical
  cancellation test.  Oscillatory estimators also pair y with -y
  (antithetic), which makes them explicitly real.
* A defensive mixture (mixture_slices) of that Gamma law and six chi-type
  laws w = s sqrt(Gamma(dn/2, 1)), s = 1/8 .. 4, with the
  balance-heuristic weight and a fixed share of the draws per component.
  The measure checks use it: scaling_check and equivariance_check
  integrate Gaussians e^-(w/s)^2 with s from 1/2 to 4, and the narrow
  ones live at w < 1, far below the Gamma law's bulk at w ~ dn.

The checks evaluate one sample stream at many points x or many group
elements l, and the work that depends on neither is done once per stream:

* fourier_phi_many and the spherical grid evaluate the radial profile once
  per slice for all x; only the phase is formed per x.
* PairingForms holds the x-free columns of the pairings, which the points
  of the spherical grid, its rays and the points of fourier_phi_many
  share; a point pays only for a sum over the nonzero coefficients of its
  forms.
* equivariance_check squares the nbar coordinates of the unit points once;
  the diagonal l of one test function share one matrix product, which
  gives their squared radii (FloatBackend.radii_after_diag).
* The test functions take the squared radius r^2, so no radius is formed
  only to be squared again.

A sample is kept as the nbar coordinates c of its unit part, drawn alike
for every family (FloatBackend.units), and a point x of n as its
dense n-coordinates; every pairing, radius and torus action is a form in c
built exactly from the model, as is the M rotation of x (m_rotation).  c is
a (count, dim_nbar) array in column order: each coordinate c_k is one
contiguous column, so the per-coordinate passes of the pairings and of the
torus action read contiguous memory.  An exact orbit point of
sample_orbit_rational is integer sparse nbar coordinates Y over one
denominator den, as the model's L action leaves it, and its membership
residual runs on Y through the model's integer bracket and trace tables.
Only sample_base gives matrices: the float ambient matrices of unit
points.

Every Monte Carlo estimator here and in sphver walks its streams once, in
contiguous slices of CHUNK samples, small enough that a slice's
temporaries stay in the L2 cache.  A slice's radii and weights are drawn
when it is reached (radii_slices, mixture_slices), its unit coordinates c
are formed from its rows of the Gaussian draws g, h, which alone are drawn
whole (sample_slices), and the slice is fed at once to every estimate of
the check, each reduced by a streaming mean and centred sum of squares
(Moments).  numpy fills its arrays in draw order, so the slices join to the
whole-array draws (sample_units, sample_radii) bit for bit, and every
sample's value is the one the whole-stream formula gives; only the order
of the summation depends on CHUNK, so an estimate moves with it by
rounding alone.

l2_radial_integral is a Mellin moment of K^2 in closed form (DLMF
10.43), a sum of log-gammas; it evaluates no K and runs no quadrature.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from . import bessel, liealg
from .reports import QuadratureError, VerificationReport


# ---------------------------------------------------------------- elements

@dataclass
class OrbitPoint:
    """An exact point y = Y / den of O_1: y holds the integer sparse nbar
    coordinates Y = {k: int} and den is a positive int."""

    y: dict
    den: int = 1

    def membership_residual(self, m: liealg.GradedModel) -> dict:
        """[[y, theta y], y] - 2 <y, theta y> y as sparse coordinates;
        empty exactly on O_1.

        The identity is cubic in y, so with <,> = (p/q) tr the integer
        q [[Y, theta Y], Y] - 2p tr(Y theta Y) Y, formed on Y through the
        integer tables, is q den^3 times it and is divided once: a Fraction
        appears only off the orbit.
        """
        y, th = self.y, m.theta(self.y)
        p, q = m.form_scale.numerator, m.form_scale.denominator
        res = liealg.combine((q, m.bracket(m.bracket(y, th), y)),
                             (-2 * p * m.trace(y, th), y))
        scale = q * self.den ** 3
        return {k: Fraction(v, scale) for k, v in res.items()}


@dataclass
class RadialMeasure:
    """Radial factor w^exponent dw together with the base-mass convention."""

    exponent: int
    base_mass: float = 1.0   # mu'(O') is set to 1; all checks are ratios


def radial_measure(m: liealg.GradedModel) -> RadialMeasure:
    """The radial factor w^(dn-1) dw of mu_1 on O' x (0, inf), with base
    mass 1."""
    return RadialMeasure(exponent=m.d * m.n - 1)


# ------------------------------------------------------------ exact points

def sample_orbit_rational(m: liealg.GradedModel, count: int, seed: int) -> list[OrbitPoint]:
    """Exact rational orbit points Ad(g) y_1; the first point is y_1 itself.

    Each g is an m.random_l_action, and a point is the (Y, den) it returns:
    integer nbar coordinates over one common denominator, with no Fraction
    formed.
    """
    rand = random.Random(seed)
    y1 = m.triples[0].y
    return [OrbitPoint(y1) if i == 0 else OrbitPoint(*m.random_l_action(rand)(y1))
            for i in range(count)]


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

    def unit_rows(self, rng: np.random.Generator, count: int):
        """The Gaussian rows g, h of count unit points: the first two draws
        of a stream that has unit points."""
        return (rng.standard_normal((count, self.block)),
                rng.standard_normal((count, self.block)))

    def units(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        """The nbar coordinates c of the unit points of O' with Gaussian
        rows g, h, for every family: c_k = sum val g_r h_c over the entries
        (r, c, val) of e_k's nbar block, divided by |c|.  On skew blocks
        (o2n2n) c is g ^ h = r11 r22 (u ^ v) for the Gram-Schmidt frame
        (u, v) of (g, h) (Bartlett decomposition), on full ones (gl2nR)
        g h^T = |g| |h| u v^T: the unit point is the frame's, of M-invariant
        law.

        c is built as dim_nbar contiguous rows, one per coordinate, each
        entry's product formed in one scratch row, and |c|^2 sums the
        squared rows in coordinate order.  The result is their transpose: a
        (count, dim_nbar) view in column order, whose column c[:, k] is
        contiguous."""
        c = np.zeros((self.model.dim_nbar, len(g)))
        scratch = np.empty(len(g))
        for k, r, col, op in self._unit_entries:
            op(c[k], np.multiply(g[:, r], h[:, col], out=scratch), out=c[k])
        norm = c[0] * c[0]
        for ck in c[1:]:
            norm += np.multiply(ck, ck, out=scratch)
        c /= np.sqrt(norm, out=norm)
        return c.T

    def sample_units(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """The nbar coordinates c of count unit points, whole and in the
        column order of units: the rows g, h are drawn at once and mapped by
        units a slice at a time."""
        g, h = self.unit_rows(rng, count)
        c = np.empty((self.model.dim_nbar, count))
        for s in chunks(count):
            c[:, s] = self.units(g[s], h[s]).T
        return c.T

    def sample_radii(self, rng: np.random.Generator, count: int):
        w = rng.gamma(shape=self.dn, scale=1.0, size=count)
        w = np.maximum(w, 1e-290)
        log_weight = w + math.lgamma(self.dn)
        return w, np.exp(log_weight)

    def radii_slices(self, rng: np.random.Generator, count: int):
        """sample_radii(rng, count) as (w, weight) slices of CHUNK draws.
        numpy fills a gamma array in draw order, so the slices join to the
        whole-array draw bit for bit."""
        for size in slice_sizes(count):
            yield self.sample_radii(rng, size)

    def mixture_slices(self, rng: np.random.Generator, count: int):
        """The defensive mixture's (w, weight) as slices of CHUNK draws.

        The draws are stratified by component: component k gets counts[k] of
        them (count / K, the remainder spread over the first components), in
        the order Gamma(dn, 1) then s = 1/8 .. 4, and q mixes the components
        in those same shares, so the weighted mean is unbiased.  A slice
        draws its part of each component it meets, in that order, so a
        component boundary may fall inside it.
        """
        counts = mixture_counts(count)
        lo = 0
        for size in slice_sizes(count):
            hi = lo + size
            parts, start = [], 0
            for k, n in enumerate(counts):
                # the draws [a, b) of this slice fall in component k
                a, b = max(lo, start), min(hi, start + n)
                if a < b:
                    parts.append(self._mixture_draws(rng, k, b - a))
                start += n
            w = parts[0] if len(parts) == 1 else np.concatenate(parts)
            yield w, mixture_weight(w, self.dn, counts)
            lo = hi

    def _mixture_draws(self, rng: np.random.Generator, k: int, size: int) -> np.ndarray:
        """size radii of mixture component k."""
        if k == 0:
            return self.sample_radii(rng, size)[0]
        s = MIXTURE_SCALES[k - 1]
        return np.maximum(s * np.sqrt(rng.gamma(self.dn / 2, 1.0, size=size)), 1e-290)

    def sample_slices(self, rng: np.random.Generator, count: int, radii):
        """A stream of count samples as (c, w, weight) slices of CHUNK.

        The draws are those of sample_units then radii (radii_slices or
        mixture_slices) on rng: the rows g, h are drawn whole first, and
        each slice maps its rows to c and draws its radii when it is
        reached, so no other array outlives its slice.
        """
        g, h = self.unit_rows(rng, count)
        for s, (w, weight) in zip(chunks(count), radii(rng, count)):
            yield self.units(g[s], h[s]), w, weight

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

    def linear_terms(self, x) -> list:
        """The terms of <x, y> over the PairingForms columns w c_k: the
        nonzero coefficients of g_x, with <x, w * sum_k c_k e_k> = w (c . g_x)."""
        g = self._n_coords(x) @ self._pairing
        return [((int(k),), g[k]) for k in np.flatnonzero(g)]

    def crown_terms(self, x) -> list:
        """The terms of <x, [[theta y, y_1], y]> over the PairingForms columns
        w^2 c_k c_l, k <= l, row-major: the nonzero coefficients of the
        symmetrized T_x = sum_a x_a T[a], with <x, [[theta y, y_1], y]> =
        w^2 c^T T_x c."""
        t = np.tensordot(self._n_coords(x), self._crown, 1)
        sym = t + t.T
        return [((int(k), int(l)), t[k, k] if k == l else sym[k, l])
                for k, l in zip(*np.nonzero(np.triu(sym)))]

    # -- pairings against a fixed x in n

    def pair_x(self, x, c, w):
        """<x, w * sum_k c_k e_k>."""
        return PairingForms(c, w).sum(self.linear_terms(x))

    def pair_theta_y1(self, c, w):
        return self.pair_x(self.theta_y1, c, w)

    def crown_pair(self, x, c, w):
        """<x, [[theta y, y_1], y]> at y = w * sum_k c_k e_k, bilinear in y."""
        return PairingForms(c, w).sum(self.crown_terms(x))

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

    def radii_after_diag(self, c2, lam2, w2):
        """The squared radii |l (w * sum_k c_k e_k)|^2 = w^2 sum_k
        lambda_k^2 c_k^2, from the squared coordinates c2, l-free, the
        squared radii w2 and the lambda^2 of diagonal l.  lam2 is one l's
        vector, giving one row of squared radii, or a (count_l, dim_nbar)
        matrix, giving a row per l from one matrix product with c2^T."""
        r2 = lam2 @ c2.T
        r2 *= w2
        return r2

    # -- default grid rays

    def ray_blocks(self):
        """Three unit rays in n as n-coordinates, like every x here: the
        x_1 direction, x_2, and a mixture.  It keeps "blocks" in its name
        because perfbench/tracing.py wraps FloatBackend.ray_blocks by name."""
        v1, v2 = (self.n_vector(t.x) for t in self.model.triples[:2])
        return {"e1": v1, "e2": v2, "mix": (v1 + v2) / math.sqrt(2.0)}


def sample_base(m: liealg.GradedModel, count: int, seed: int) -> np.ndarray:
    """The (count, N, N) float ambient matrices of count unit points of O'
    from the invariance-targeting base sampler."""
    be = FloatBackend(m)
    return be.matrices(be.sample_units(np.random.default_rng(seed), count), np.ones(count))


# ------------------------------------------------------ pairings as forms

class PairingForms:
    """The pairings of one sample stream as linear and quadratic forms in c.

    At y = w * sum_k c_k e_k and x = sum_a x_a e_a in n, given by its
    n-coordinates,

        <x, y> = sum_k g_k (w c_k),
        <x, [[theta y, y_1], y]> = sum_{k <= l} S_kl (w^2 c_k c_l),

    with g = g_x and S the symmetrized crown matrix T_x of x, whose nonzero
    coefficients FloatBackend.linear_terms and crown_terms list.  The columns
    w c_k and w^2 c_k c_l do not depend on x: each is formed on first use and
    kept, so the points of a grid share them.  A pairing at x is a sum over
    its term list in row-major order, so its value depends on the stream and
    on x alone, not on which points came before.  The spherical grid makes
    one per slice of its stream, with the term lists built once per point.
    """

    def __init__(self, c, w):
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
        their order, in one new array that starts as the first term and
        accumulates the rest in place; zeros when there are no terms."""
        if not terms:
            return np.zeros(self.w.shape)
        (key, coef), *rest = terms
        out = self._column(key) * coef
        scratch = np.empty_like(out)
        for key, coef in rest:
            out += np.multiply(self._column(key), coef, out=scratch)
        return out


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


def slice_sizes(count: int):
    """The lengths of the slices of chunks(count)."""
    return (min(CHUNK, count - lo) for lo in range(0, count, CHUNK))


class Moments:
    """Streaming mean and centred sum of squares of a sample.

    Each batch is reduced to its own mean and centred sum of squares and
    merged by the pairwise update of Chan, Golub and LeVeque (Amer. Statist.
    37, 1983), so the digits survive where the mean is many standard
    deviations from zero, which the E[t^2] - E[t]^2 shortcut loses.  mean
    and std match numpy's mean and std (ddof 0) of the concatenated batches
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

    Each chi term's exponent is clamped at -700 before its exp, which keeps
    np.exp on numpy's vector path: numpy's AVX-512 exp leaves it below about
    -708, and is many times slower where the result underflows.  A clamped
    term is at most 1e-304 times its share, and for w <= 600 the density it
    joins is so much larger that the weight is the unclamped formula's bit
    for bit (tests/test_orbit.py); draws never come near that range.
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
        np.maximum(term, -700.0, out=term)
        np.exp(term, out=term)
        term *= c / total
        dens += term
    return np.divide(1.0, dens, out=dens)[()]


# --------------------------------------------------------- radial integral

def l2_radial_integral(tau, radial_exp: int) -> float:
    """integral_0^inf K_tau(w)^2 w^(radial_exp - 2 tau) dw, in closed form.

    For tau > 0, K_tau(w)^2 grows like w^(-2 tau) at 0, so the integrand
    behaves like w^(radial_exp - 4 tau) there: the integral is finite
    precisely when 4 tau < radial_exp + 1.  For tau < 0 the integrand
    behaves like w^radial_exp, and the integral needs radial_exp + 1 > 0.
    Outside that range the pole at 0 is not integrable and the call raises.

    With mu = radial_exp - 2 tau + 1 the integral is the Mellin moment
    (DLMF 10.43)

        sqrt(pi) Gamma(mu/2 + tau) Gamma(mu/2) Gamma(mu/2 - tau)
        / (4 Gamma((1 + mu)/2)),

    taken as one exp of a sum of log-gammas, so it stays finite wherever the
    integral is (4.47e253 at tau = 0, radial_exp = 170).  A value that is
    not finite in double precision raises QuadratureError.
    """
    t = float(tau)
    if 4 * t >= radial_exp + 1:
        raise QuadratureError(
            f"radial integral diverges: 4*tau = {4 * t} >= {radial_exp + 1} = radial_exp + 1")
    if radial_exp + 1 <= 0:
        raise QuadratureError(
            f"radial integral diverges: radial_exp + 1 = {radial_exp + 1} <= 0")
    try:
        half = (radial_exp + 1) / 2     # mu/2 + tau
        value = math.exp(0.5 * math.log(math.pi) - math.log(4.0) + math.lgamma(half)
                         + math.lgamma(half - t) + math.lgamma(half - 2 * t)
                         - math.lgamma(half - t + 0.5))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise QuadratureError(
            f"radial integral is not finite in double precision at tau={t}, "
            f"radial_exp={radial_exp}: {value}")
    return value


def l2_norm_g_tau(m: liealg.GradedModel) -> float:
    """Radial factor of ||g_tau||^2 on L^2(O_1); the base mass is reported
    separately by radial_measure and multiplies this value."""
    return l2_radial_integral(m.tau, m.d * m.n - 1)


# ----------------------------------------------------------- Fourier side

MIN_FOURIER_SAMPLES = 10 ** 4

# The largest sample count the CLI accepts.  Every Monte Carlo estimator
# holds only the Gaussian rows g, h of its unit points whole, 2 * block
# floats a sample (a pair of samples on the paired transform streams), and
# everything else a slice at a time.  For verify orbit on o2n2n, where
# equivariance_check holds the most, peak memory grows by about 61 bytes per
# sample at n = 2 (102 MB at 1e6, 346 MB at 5e6) and 183 at n = 6 (256 MB at
# 1e6, 623 MB at 3e6), so the cap keeps a run under about 0.7 GB at n = 2
# and 2 GB at n = 6.  fourier grows by about 31 bytes per sample at n = 2
# (71 MB at 1e6, 163 MB at 4e6) and 92 at n = 6 (158 MB at 1e6, 433 MB at
# 4e6), so it needs about 0.35 GB and 1 GB at the cap.
MAX_SAMPLES = 10 ** 7

# The largest --steps the bessel and fourier commands accept.  The grid and
# every row are held until the output is written: a bessel table at the cap
# is 62 MB of text and takes about 185 MB and 3.4 s, start-up included
# (2-vCPU Xeon, Python 3.11), and a fourier ray at the cap makes a million
# transform estimates of at least MIN_FOURIER_SAMPLES each.
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
    """fourier_phi at every x of xs, on one sample stream.

    The stream is walked once in slices of CHUNK samples
    (FloatBackend.sample_slices), the outer loop, with the points x the
    inner loop, as in the spherical grid.  Per slice, the amplitude
    weight * phi_tau(w) and the x-free columns of the pairings
    (PairingForms) are formed once and shared by every x; an x pays for
    its pairing (a term list built before the first draw), for cos of the
    phase (cos_sin) and for one update of its own Moments.  Entry k depends
    on xs[k] alone: it is fourier_phi(m, xs[k], samples, seed), bit for bit.
    """
    if samples < MIN_FOURIER_SAMPLES:
        raise ValueError(f"need at least {MIN_FOURIER_SAMPLES} samples")
    be = FloatBackend(m)
    pairs = samples // 2
    point_terms = [be.linear_terms(x) for x in xs]
    moments = [Moments() for _ in xs]
    for c, w, weight in be.sample_slices(np.random.default_rng(seed), pairs, be.radii_slices):
        amp = weight * bessel.radial_profile_at(m.tau, w)
        cols = PairingForms(c, w)
        for acc, terms in zip(moments, point_terms):
            t = cos_sin(cols.sum(terms))[0]
            t *= amp
            acc.add(t)
    return [FourierEstimate(complex(acc.mean, 0.0), acc.stderr, 2 * pairs, seed)
            for acc in moments]


# ------------------------------------------------------------- check suites

def _test_bank() -> list[tuple[str, Callable]]:
    """The radial test functions of the measure checks, each a function of
    the squared radius r2 = r^2: e^-r^2, r^2 e^-r^2 and e^-(r/2)^2."""
    return [
        ("gauss", lambda r2: np.exp(-r2)),
        ("r2gauss", lambda r2: r2 * np.exp(-r2)),
        ("widegauss", lambda r2: np.exp(-0.25 * r2)),
    ]


# the per-point gate of the Monte Carlo checks, in standard errors: the
# 3-sigma gate of the acceptance criteria
SIGMA_GATE = 3.0


def _add_ratio(report: VerificationReport, name: str, lhs: tuple[float, float],
               rhs: tuple[float, float], rtol: float, samples: int, detail: str) -> None:
    """Check lhs / rhs = 1 to rtol, for (mean, stderr) sides drawn on
    independent streams; the ratio's stderr is the delta-method one.  A
    ratio that misses rtol but lies within SIGMA_GATE standard errors of 1
    cannot be decided at this sample count: it is inconclusive, not failed."""
    ratio = lhs[0] / rhs[0]
    rel = abs(ratio - 1.0)
    stderr = abs(ratio) * math.hypot(lhs[1] / lhs[0], rhs[1] / rhs[0])
    passed = rel < rtol
    report.add(name, passed, residual=rel, exact=False, samples=samples,
               inconclusive=not passed and rel <= SIGMA_GATE * stderr,
               detail=detail, estimate=ratio, stderr=stderr,
               z=(ratio - 1.0) / stderr if stderr else None)


def equivariance_check(m: liealg.GradedModel, l_samples: int = 3, seed: int = 0,
                       samples: int = 10 ** 6, rtol: float = 0.01) -> VerificationReport:
    """Integral ratio under random diagonal L elements vs the character.

    For diagonal l the transformed radius is computable in closed form, so
    both sides of the equivariance identity are plain radial Monte Carlo
    estimates on independent mixture streams; they must agree to rtol.
    The l of every (test function, l) pair are drawn first, in report
    order.  The two streams are then walked together a slice at a time,
    and each slice feeds every estimate: the squared coordinates c_k^2 and
    the squared radii are formed once for all l, and the l of one test
    function share one matrix product (radii_after_diag), which gives the
    squared radii their test function takes.
    """
    report = VerificationReport("equivariance", meta={
        "family": m.family.value, "n": m.n, "samples": samples, "seed": seed})
    be = FloatBackend(m)
    bank = _test_bank()
    rand = random.Random(seed)
    ls = [[be.random_diag_l(rand) for _ in range(l_samples)] for _ in bank]
    lam2s = [np.array([lam2 for lam2, _ in row]) for row in ls]
    base = [Moments() for _ in bank]
    moved = [[Moments() for _ in row] for row in ls]
    side_l = be.sample_slices(np.random.default_rng(seed + 1), samples, be.mixture_slices)
    side_r = be.mixture_slices(np.random.default_rng(seed + 2), samples)
    for (c, w1, weight1), (w2, weight2) in zip(side_l, side_r):
        c2 = np.square(c, out=c)
        w1_sq, w2_sq = w1 * w1, w2 * w2
        for (_, g), acc, accs, lam2 in zip(bank, base, moved, lam2s):
            acc.add(weight2 * g(w2_sq))
            for acc_l, r2 in zip(accs, be.radii_after_diag(c2, lam2, w1_sq)):
                acc_l.add(weight1 * g(r2))

    for (name, _), acc, accs, row in zip(bank, base, moved, ls):
        report.add(f"identity ratio [{name}]", True, residual=0.0, exact=True,
                   detail="same-stream ratio is identically 1")
        for li, (acc_l, (_, char)) in enumerate(zip(accs, row)):
            _add_ratio(report, f"diag l#{li} ratio [{name}]", (acc_l.mean, acc_l.stderr),
                       (char * acc.mean, char * acc.stderr),
                       rtol, samples, f"character factor {char:.6g}")
    return report


def scaling_check(m: liealg.GradedModel, z_values=(0.5, 2.0), samples: int = 10 ** 6,
                  seed: int = 0, rtol: float = 0.01) -> VerificationReport:
    """Pushforward law: integrating f(z y) against d mu_1 scales by z^{-dn}.

    The two sides use independent mixture streams, so this exercises the
    sampler rather than restating its construction.  The streams are
    walked together a slice at a time, and each slice feeds every estimate.
    The test functions take squared radii: w^2 is formed once per slice, and
    (z w)^2 is z^2 w^2, bit for bit where z is a power of two.
    """
    report = VerificationReport("measure_scaling", meta={
        "family": m.family.value, "n": m.n, "samples": samples, "seed": seed})
    be = FloatBackend(m)
    dn = m.d * m.n
    bank = _test_bank()
    base = [Moments() for _ in bank]
    moved = [[Moments() for _ in z_values] for _ in bank]
    side_a = be.mixture_slices(np.random.default_rng(seed + 11), samples)
    side_b = be.mixture_slices(np.random.default_rng(seed + 12), samples)
    for (wa, weight_a), (wb, weight_b) in zip(side_a, side_b):
        wa_sq, wb_sq = wa * wa, wb * wb
        for (_, g), acc, accs in zip(bank, base, moved):
            acc.add(weight_b * g(wb_sq))
            for acc_z, z in zip(accs, z_values):
                acc_z.add(weight_a * g((z * z) * wa_sq))

    for (name, _), acc, accs in zip(bank, base, moved):
        for acc_z, z in zip(accs, z_values):
            factor = float(z) ** (-dn)
            _add_ratio(report, f"z={z} [{name}]", (acc_z.mean, acc_z.stderr),
                       (factor * acc.mean, factor * acc.stderr), rtol, samples,
                       f"z^-dn = {factor:.6g}")
    return report
