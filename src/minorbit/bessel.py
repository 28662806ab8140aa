"""Modified Bessel function K, the radial profile phi, and the operator D.

phi_tau(z) = K_tau(sqrt z) / (sqrt z)^tau solves

    D phi = 4 z phi'' + 4 (tau + 1) phi' - phi = 0,

and its derivatives close under the shift phi_tau' = -phi_{tau+1} / 2.
Evaluation goes through one kernel, k_ladder (closed forms, k0/k1 and the
upward recurrence) and one phi on it (profile_ladder), certified order by
order against the trapezoid rule on the integral representation (DLMF
10.32.9)

    K_tau(z) = integral_0^inf exp(-z cosh t) cosh(tau t) dt,

a plain numpy sum (bessel_k_integral) that loads no scipy code.  The kernel
takes integer and half-integer orders only: the paper's order is
tau = (d - e - 1)/2, and the program asks for it and integer shifts of it.

Every public K and phi function takes its argument as np.asarray(x,
dtype=float) and runs one array path; a 0-d argument (a Python or numpy
scalar, or a 0-d array) gives Python floats, made once at the exit, and any
other argument gives arrays, with bit-identical values.  K beyond the double
range is inf, and phi where K underflowed at a negative order is 0, without
a warning.

The module imports the scipy package only; scipy loads scipy.special on the
first K evaluation, so the exact layer, which imports this module but
evaluates no K, never loads it.  Calls spell scipy.special.k0/k1 in full:
after the first use each is a plain attribute lookup, where an import inside
a function would cost every k_ladder call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
import scipy

from . import catalog
from .reports import QuadratureError

_MIN_Z = 1e-8
_FAST_PATH_OK: dict[float, bool] = {}
_AUDIT_GRID = (0.1, 0.37, 1.0, 2.7, 7.4, 20.0, 45.0)
_AUDIT_RTOL = 1e-9
# certify needs K finite at this many audit points, so that kernel and oracle
# are always compared on a majority of finite values
_MIN_FINITE_AUDIT = 4
# The oracle's step-h sum errs by about e^-_LOG_STEP_ERR; its nodes stop
# e^-_LOG_TAIL below the integrand's peak, and never number more than
# _MAX_NODES.
_LOG_STEP_ERR = 28.0
_LOG_TAIL = 50.0
_MAX_NODES = 1 << 16
_LOG2 = math.log(2.0)
# k_ladder refuses orders that need more upward-recurrence steps than this,
# so a huge order fails at once instead of looping |tau| times.  Nothing is
# lost: K_tau overflows double precision at more than 3 of the 7 audit points
# from |tau| = 182.5 on (at all 7 from 387 on), so no order near the cap can
# be certified anyway.
MAX_LADDER_STEPS = 1000


def bessel_k_integral(tau, z: float) -> float:
    """K_tau(z) by the trapezoid rule on the integral representation.

    The integrand is e^-z e^g(u) with g(u) = log cosh(tau u) - 2 z sinh^2(u/2),
    analytic and doubly-exponentially decaying, so the trapezoid rule
    converges exponentially in 1/h (Trefethen & Weideman, SIAM Review 56,
    2014).  On the strip |Im u| < a the integrand is bounded by its value at
    z cos a, so the step-h sum errs by about (sec a)^s e^(-2 pi a / h) in
    relative terms, with s = hypot(tau, z); a and h are taken from s so that
    this is e^-_LOG_STEP_ERR.  The nodes end where g has fallen e^-_LOG_TAIL
    below its peak, found from two upper bounds on g, tau u - z u^2 / 2 (tight
    at large z) and tau u - z e^u / 2 + z (tight at small z).  So the node
    count stays bounded for every z from 1e-8 to 1e300, under a thousand at
    every order the audit certifies.
    The sum runs in log space, shifted by its largest node, so it holds no
    overflow wherever K is finite.  The step-h/2 sum (the step-h nodes plus
    the midpoints) is returned; its difference from the step-h sum, which
    bounds the step-h error, must be below 1e-10 of it, and the step-h/2
    error is about the square of that.  QuadratureError, one line, when the
    sums disagree or need more than _MAX_NODES nodes.  A K beyond the double
    range is inf, as in the kernel, and an underflowing K is 0.
    """
    t = float(tau)
    if not z > 0:
        raise ValueError(f"K_tau needs z > 0, got {z}")
    if not (math.isfinite(t) and math.isfinite(z)):
        raise ValueError(f"K_tau needs finite tau and z, got tau={t}, z={z}")
    a = abs(t)
    s = math.hypot(a, z)
    strip = min(1.0, math.sqrt(2.0 * _LOG_STEP_ERR / s))
    # log sec a, with full precision where a is tiny (huge z)
    log_sec = -math.log1p(-2.0 * math.sin(0.5 * strip) ** 2)
    h = 2.0 * math.pi * strip / (_LOG_STEP_ERR + s * log_sec)
    # the peak of tau u - 2 z sinh^2(u/2), where sinh u = tau / z, written
    # so that tau / z cannot overflow; g there bounds the peak of g below
    if a > z:
        u_peak = math.log(a) - math.log(z) + math.log1p(math.hypot(1.0, z / a))
    else:
        u_peak = math.asinh(a / z)
    drop = _LOG_TAIL - max(0.0, float(_log_integrand(a, z, u_peak)))
    cut_quadratic = (a + math.sqrt(a * a + 2.0 * z * drop)) / z
    # Young's inequality: tau u <= z e^u / 4 + young for every u
    young = a * (math.log(4.0 * a) - math.log(z) - 1.0) if a else 0.0
    cut_exponential = math.log(4.0 * (drop + z + young)) - math.log(z)
    nodes = 2 * math.ceil(min(cut_quadratic, cut_exponential) / h)
    if nodes > _MAX_NODES:
        raise QuadratureError(f"K integral needs more than {_MAX_NODES} nodes at tau={t}, z={z}")
    g = _log_integrand(a, z, (0.5 * h) * np.arange(nodes + 1))
    peak = float(g.max())
    terms = np.exp(g - peak)
    terms[0] *= 0.5
    fine = 0.5 * h * float(terms.sum())
    err = abs(h * float(terms[::2].sum()) - fine)
    if not err <= 1e-10 * fine:
        raise QuadratureError(f"K integral did not converge at tau={t}, z={z} (err={err / fine:.1e})")
    if peak <= 700.0 and z <= 708.0:
        # two exact exponents: no rounding of peak - z enters the value
        return math.exp(peak) * math.exp(-z) * fine
    try:
        return math.exp(peak - z + math.log(fine))
    except OverflowError:
        return math.inf


def _log_integrand(a: float, z: float, u):
    """g(u) = log cosh(a u) - 2 z sinh^2(u/2), the log of the integrand plus z."""
    return np.logaddexp(a * u, -a * u) - _LOG2 - 2.0 * z * np.sinh(0.5 * u) ** 2


def k_ladder(tau, w, count: int = 1) -> tuple:
    """(K_tau(w), K_{tau+1}(w), ...): count consecutive orders at once.

    This is the one K kernel behind bessel_k, phi_tau and the vectorized
    profiles.  Every order is evaluated at its absolute value, so
    K_{-t} = K_t holds bit for bit.  Integer orders are seeded with k0/k1 and
    half-integer orders with the closed forms (DLMF 10.49)

        K_{1/2}(w) = sqrt(pi / 2w) e^{-w},   K_{3/2}(w) = K_{1/2}(w) (1 + 1/w);

    every higher order comes from the upward recurrence (DLMF 10.29)

        K_{nu+1}(w) = K_{nu-1}(w) + (2 nu / w) K_nu(w),

    which is stable for K because it is the dominant solution.  Any other
    order raises ValueError, as does a ladder that needs more than
    MAX_LADDER_STEPS recurrence steps.  A scalar w gives Python floats, any
    other w arrays.  The kernel is not certified here: callers go through
    the cached quadrature audit first.
    """
    t = float(tau)
    orders = [abs(t + j) for j in range(count)]
    base = min(orders) % 1.0
    if base not in (0.0, 0.5):
        raise ValueError(f"K kernel takes integer and half-integer orders only, got {t:g}")
    steps = round(max(orders) - base)
    if steps > MAX_LADDER_STEPS:
        raise ValueError(f"K at order {max(orders):g} needs more than "
                         f"{MAX_LADDER_STEPS} recurrence steps")
    w = np.asarray(w, dtype=float)
    with np.errstate(over="ignore"):
        if base == 0.5:
            k = np.sqrt(np.pi / (2.0 * w)) * np.exp(-w)
            ladder = [k, k * (1.0 + 1.0 / w)] if steps else [k]
        else:
            # a request for K_1 alone skips k0
            ladder = [scipy.special.k0(w) if steps != 1 or min(orders) == 0.0 else None]
            if steps:
                ladder.append(scipy.special.k1(w))
        for j in range(1, steps):
            ladder.append(ladder[j - 1] + (2.0 * (base + j) / w) * ladder[j])
    return tuple(_exit(ladder[round(a - base)]) for a in orders)


def _exit(x):
    """A 0-d result as a Python float; an array as it is."""
    return float(x) if np.ndim(x) == 0 else x


def certify(tau) -> None:
    """Audit k_ladder at order |tau| against the quadrature oracle, once, and
    refuse an order whose kernel values failed the audit.

    The kernel must match the oracle at every audit point, an infinite K only
    an infinite one, and K must be finite at _MIN_FINITE_AUDIT of the points
    at least; an order where it overflows at more is refused uncached.
    """
    a = abs(float(tau))
    if a not in _FAST_PATH_OK:
        fast = k_ladder(a, np.array(_AUDIT_GRID))[0]
        oracle = [bessel_k_integral(a, z) for z in _AUDIT_GRID]
        overflows = sum(map(math.isinf, oracle))
        if overflows > len(_AUDIT_GRID) - _MIN_FINITE_AUDIT:
            raise QuadratureError(f"K integral overflows at {overflows} of "
                                  f"{len(_AUDIT_GRID)} audit points of order {a:g}")
        _FAST_PATH_OK[a] = all(math.isclose(k, ref, rel_tol=_AUDIT_RTOL)
                               for k, ref in zip(fast.tolist(), oracle))
    if not _FAST_PATH_OK[a]:
        raise QuadratureError(f"K kernel disagrees with the quadrature oracle at order {a}")


def bessel_k(tau, z, method: str = "auto"):
    """K_tau(z) to at least 10 significant digits.

    method "auto" evaluates k_ladder after the quadrature audit certified
    this order and raises QuadratureError when it did not; "quadrature"
    forces the integral representation, one oracle call per point.  A scalar
    z gives a float, any other z an array; a z <= 0 raises ValueError, which
    names it.
    """
    t = float(tau)
    z = np.asarray(z, dtype=float)
    if method == "quadrature":
        if z.ndim == 0:
            return bessel_k_integral(t, float(z))
        return np.array([bessel_k_integral(t, v) for v in z.ravel().tolist()]).reshape(z.shape)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    bad = z[z <= 0]
    if bad.size:
        raise ValueError(f"K_tau needs z > 0, got {bad[0]}")
    certify(t)
    return k_ladder(t, z)[0]


def k_half_closed_form(z):
    """K_{1/2}(z) = sqrt(pi / (2 z)) exp(-z), an independent closed form."""
    z = np.asarray(z, dtype=float)
    return _exit(np.sqrt(np.pi / (2.0 * z)) * np.exp(-z))


def profile_ladder(tau, w, count: int = 1) -> tuple:
    """(phi_tau, phi_{tau+1}, ...) at z = w^2, K_{tau+j}(w) / w^(tau+j) for
    j < count, with the orders certified before any point is evaluated.

    The power is numpy's array power, which Python's ** and numpy's scalar
    power miss by one bit at some points; a scalar w is a 0-d array here, so
    it takes the array power too.  At a negative order tau + j, K and
    w^(tau + j) both underflow to 0 at large w, where phi = K w^|tau + j|
    tends to 0; phi is 0 wherever K underflowed there, not 0/0.  Where
    w^(tau + j) overflows, phi is K/inf = 0.  A refused order's
    QuadratureError names tau and the order it needs, which may be a higher
    one."""
    t = float(tau)
    for j in range(count):
        try:
            certify(t + j)
        except QuadratureError as ex:
            raise QuadratureError(f"{ex} (tau {t:g} needs order {abs(t + j):g})") from None
    w = np.asarray(w, dtype=float)
    ladder = k_ladder(t, w, count)
    with np.errstate(all="ignore"):
        return tuple(_exit(_k_over_power(k, w, t + j)) for j, k in enumerate(ladder))


def _k_over_power(k, w: np.ndarray, order: float):
    """k / w^order, and 0 where k underflowed at a negative order."""
    p = k / w ** order
    return np.where(np.equal(k, 0.0), 0.0, p) if order < 0 else p


def phi_tau(tau, z) -> tuple:
    """(phi, phi', phi'') at z > 0, from one profile ladder at sqrt(z).

    Derivatives come from the order-shift identities
    phi_tau' = -phi_{tau+1}/2 and phi_tau'' = phi_{tau+2}/4, which follow
    from K_nu'(w) = nu K_nu / w - K_{nu+1}.  A scalar z gives Python floats,
    any other z arrays.  The orders tau, tau + 1 and tau + 2 are certified
    before any point is evaluated, and any z below _MIN_Z raises ValueError.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < _MIN_Z):
        raise ValueError(f"phi evaluation refused below z={_MIN_Z:g} (singular endpoint)")
    p0, p1, p2 = profile_ladder(tau, np.sqrt(z), 3)
    return p0, -0.5 * p1, 0.25 * p2


@dataclass
class RadialFunction:
    """A radial profile: order tau plus an evaluation rule (value, d1, d2)."""

    tau: Fraction | float
    eval: Callable[[float], tuple[float, float, float]]


def phi_radial(tau) -> RadialFunction:
    return RadialFunction(tau, lambda z: phi_tau(tau, z))


def apply_D(tau, f: RadialFunction, z: float) -> float:
    """Evaluate D f = 4 z f'' + 4 (tau + 1) f' - f at z."""
    return d_residual(tau, z, *f.eval(z))


def d_residual(tau, z: float, v0: float, v1: float, v2: float) -> float:
    """D f at z for a profile with value v0 and derivatives v1, v2 there."""
    return 4.0 * z * v2 + 4.0 * (float(tau) + 1.0) * v1 - v0


def d_coefficient_identity(d: int, e: int) -> tuple[Fraction, Fraction]:
    """The two spellings of the first-order coefficient: 4(tau+1), 2(d+1-e).

    Both are returned as exact rationals, the first for the order that
    catalog.tau serves; they agree identically in (d, e).
    """
    tau = catalog.tau(catalog.Multiplicities(d, e))
    return 4 * (tau + 1), Fraction(2 * (d + 1 - e))


# ------------------------------------------------------- finite differences

def bessel_ode_residual_fd(tau, z: float) -> float:
    """Residual of z^2 K'' + z K' - (z^2 + tau^2) K with 5-point stencils."""
    t = float(tau)
    h = z / 150.0
    f = [bessel_k(t, z + k * h) for k in (-2, -1, 0, 1, 2)]
    d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
    d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
    return z * z * d2 + z * d1 - (z * z + t * t) * f[2]


def phi_derivative_crosscheck(tau, z: float, tol: float = 1e-6) -> tuple[bool, float]:
    """Compare recurrence-based phi' with a central finite difference.

    Returns (agrees, discrepancy); disagreement above tol is flagged.
    """
    _, d1, _ = phi_tau(tau, z)
    h = z / 500.0
    f = [phi_tau(tau, z + k * h)[0] for k in (-2, -1, 1, 2)]
    fd = (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * h)
    scale = max(abs(d1), 1e-30)
    diff = abs(fd - d1) / scale
    return diff <= tol, diff


# ------------------------------------------------------------- fast vectors

def radial_profile_at(tau, w: np.ndarray) -> np.ndarray:
    """phi_tau at z = w^2, i.e. K_tau(w) / w^tau, vectorized: profile_ladder
    at one order, which refuses an uncertified order with QuadratureError."""
    return profile_ladder(tau, w)[0]


def radial_profile_d1_at(tau, w: np.ndarray) -> np.ndarray:
    """phi_tau' evaluated at z = w^2, via phi' = -phi_{tau+1}/2."""
    return -0.5 * radial_profile_at(float(tau) + 1.0, w)
