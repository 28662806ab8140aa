"""Modified Bessel function K, the radial profile phi, and the operator D.

phi_tau(z) = K_tau(sqrt z) / (sqrt z)^tau solves

    D phi = 4 z phi'' + 4 (tau + 1) phi' - phi = 0,

and its derivatives close under the shift phi_tau' = -phi_{tau+1} / 2.
Evaluation goes through one kernel, k_ladder (closed forms, k0/k1 and the
upward recurrence), certified order by order against adaptive quadrature
of the integral representation

    K_tau(z) = integral_0^inf exp(-z cosh t) cosh(tau t) dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy import integrate, special

from .reports import QuadratureError

_MIN_Z = 1e-8
_FAST_PATH_OK: dict[float, bool] = {}
_AUDIT_GRID = (0.1, 0.37, 1.0, 2.7, 7.4, 20.0, 45.0)
_AUDIT_RTOL = 1e-9


def bessel_k_integral(tau, z: float) -> float:
    """K_tau(z) by adaptive quadrature of the integral representation.

    The exponential scale exp(-z) is factored out so the quadrature runs at
    unit scale and keeps full relative precision even where K underflows
    toward zero.
    """
    if z <= 0:
        raise ValueError(f"K_tau needs z > 0, got {z}")
    t = float(tau)

    def integrand(u):
        return math.exp(-z * (math.cosh(u) - 1.0)) * math.cosh(t * u)

    # beyond this point the integrand is below exp(-720) even after the
    # cosh(tau u) growth; quad gets a finite interval
    upper = math.acosh(1.0 + 720.0 / z) + 1.0
    val, err = integrate.quad(integrand, 0.0, upper, epsabs=0.0, epsrel=1e-12, limit=300)
    if not math.isfinite(val) or err > 1e-10 * abs(val):
        raise QuadratureError(f"K integral did not converge at tau={t}, z={z} (err={err})")
    return math.exp(-z) * val


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
    order is taken from kv, one call per order.  w is a Python float or a
    float array; a float gives Python floats and an array gives arrays, with
    bit-identical values.  The kernel is not certified here: callers go
    through the cached quadrature audit first.
    """
    t = float(tau)
    orders = [abs(t + j) for j in range(count)]
    scalar = isinstance(w, (float, int))
    if scalar:
        w = float(w)
    base = min(orders) % 1.0
    if base not in (0.0, 0.5):
        return tuple(float(special.kv(a, w)) if scalar else special.kv(a, w)
                     for a in orders)
    steps = round(max(orders) - base)
    if base == 0.5:
        k = np.sqrt(np.pi / (2.0 * w)) * np.exp(-w)
        ladder = [k, k * (1.0 + 1.0 / w)] if steps else [k]
    else:
        # a request for K_1 alone skips k0
        ladder = [special.k0(w) if steps != 1 or min(orders) == 0.0 else None]
        if steps:
            ladder.append(special.k1(w))
    if scalar:
        ladder = [None if k is None else float(k) for k in ladder]
    for j in range(1, steps):
        ladder.append(ladder[j - 1] + (2.0 * (base + j) / w) * ladder[j])
    return tuple(ladder[round(a - base)] for a in orders)


def _audit_fast_path(tau) -> bool:
    """Certify k_ladder at order |tau| against the quadrature oracle, once."""
    a = abs(float(tau))
    ok = _FAST_PATH_OK.get(a)
    if ok is None:
        fast = k_ladder(a, np.array(_AUDIT_GRID))[0]
        ok = all(math.isclose(k, bessel_k_integral(a, z), rel_tol=_AUDIT_RTOL)
                 for k, z in zip(fast.tolist(), _AUDIT_GRID))
        _FAST_PATH_OK[a] = ok
    return ok


def _certify(tau) -> None:
    """Refuse an order whose kernel values failed the quadrature audit."""
    if not _audit_fast_path(tau):
        raise QuadratureError(
            f"K kernel disagrees with the quadrature oracle at order {abs(float(tau))}")


def bessel_k(tau, z, method: str = "auto"):
    """K_tau(z) to at least 10 significant digits.

    method "auto" evaluates k_ladder after the quadrature audit certified
    this order and raises QuadratureError when it did not; "fast" skips the
    audit; "quadrature" forces the integral representation.  A scalar z
    (a Python float or int, or a 0-d array) gives a float, an array an array.
    """
    t = float(tau)
    scalar = isinstance(z, (float, int)) or np.ndim(z) == 0
    z = float(z) if scalar else np.asarray(z, dtype=float)
    if method == "quadrature":
        if scalar:
            return bessel_k_integral(t, z)
        return np.array([bessel_k_integral(t, float(v)) for v in z])
    if method not in ("auto", "fast"):
        raise ValueError(f"unknown method {method!r}")
    if scalar:
        if z <= 0:
            raise ValueError(f"K_tau needs z > 0, got {z}")
    elif np.any(z <= 0):
        raise ValueError("K_tau needs z > 0")
    if method == "auto":
        _certify(t)
    return k_ladder(t, z)[0]


def k_half_closed_form(z):
    """K_{1/2}(z) = sqrt(pi / (2 z)) exp(-z), an independent closed form."""
    z = np.asarray(z, dtype=float) if np.ndim(z) else float(z)
    return np.sqrt(np.pi / (2.0 * z)) * np.exp(-z)


def phi_tau(tau, z: float) -> tuple[float, float, float]:
    """(phi, phi', phi'') at z > 0, from one kernel evaluation.

    Derivatives come from the order-shift identities
    phi_tau' = -phi_{tau+1}/2 and phi_tau'' = phi_{tau+2}/4, which follow
    from K_nu'(w) = nu K_nu / w - K_{nu+1}.
    """
    if z < _MIN_Z:
        raise ValueError(f"phi evaluation refused below z={_MIN_Z:g} (singular endpoint)")
    t = float(tau)
    for j in range(3):
        _certify(t + j)
    w = math.sqrt(z)
    k0, k1, k2 = k_ladder(t, w, 3)
    p = w ** t
    return k0 / p, -0.5 * k1 / (p * w), 0.25 * k2 / (p * w * w)


@dataclass
class RadialFunction:
    """A radial profile: order tau plus an evaluation rule (value, d1, d2)."""

    tau: Fraction | float
    eval: Callable[[float], tuple[float, float, float]]


def phi_radial(tau) -> RadialFunction:
    return RadialFunction(tau, lambda z: phi_tau(tau, z))


def constant_radial(c: float) -> RadialFunction:
    return RadialFunction(0, lambda z: (c, 0.0, 0.0))


def apply_D(tau, f: RadialFunction, z: float) -> float:
    """Evaluate D f = 4 z f'' + 4 (tau + 1) f' - f at z."""
    return d_residual(tau, z, *f.eval(z))


def d_residual(tau, z: float, v0: float, v1: float, v2: float) -> float:
    """D f at z for a profile with value v0 and derivatives v1, v2 there."""
    return 4.0 * z * v2 + 4.0 * (float(tau) + 1.0) * v1 - v0


def d_coefficient_identity(d: int, e: int) -> tuple[Fraction, Fraction]:
    """The two spellings of the first-order coefficient: 4(tau+1), 2(d+1-e).

    Both are returned as exact rationals; they agree identically in (d, e).
    """
    tau = Fraction(d - e - 1, 2)
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
    """phi_tau evaluated at z = w^2, i.e. K_tau(w) / w^tau, vectorized.

    The order is certified by the quadrature audit before any point is
    evaluated; a failed audit raises QuadratureError.
    """
    t = float(tau)
    _certify(t)
    w = np.asarray(w, dtype=float)
    return k_ladder(t, w)[0] / w ** t


def radial_profile_d1_at(tau, w: np.ndarray) -> np.ndarray:
    """phi_tau' evaluated at z = w^2, via phi' = -phi_{tau+1}/2."""
    return -0.5 * radial_profile_at(float(tau) + 1.0, w)
