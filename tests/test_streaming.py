"""The Monte Carlo checks walk their sample streams a slice at a time.

The slice generators must give the draws of the whole-array samplers bit
for bit, the checks and the Fourier transform must give the numbers of a
whole-array evaluation, and no array longer than a slice may be held apart
from the Gaussian rows of the unit points.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest

from minorbit import bessel, liealg, orbit, sphver
from minorbit.catalog import Family
from minorbit.reports import VerificationReport

COUNTS = [1, orbit.CHUNK - 1, orbit.CHUNK + 1, 7 * orbit.CHUNK + 3, 50000]


def _joined(slices):
    return tuple(np.concatenate(a) for a in zip(*slices))


def _whole_units(be, rng, count):
    """c of count unit points, formed on the whole rows at once."""
    g = rng.standard_normal((count, be.block))
    h = rng.standard_normal((count, be.block))
    return be.units(g, h)


def _whole_radii(be, rng, count):
    w = np.maximum(rng.gamma(shape=be.dn, scale=1.0, size=count), 1e-290)
    return w, np.exp(w + math.lgamma(be.dn))


def _whole_mixture(be, rng, count):
    """The defensive mixture drawn one whole component at a time."""
    counts = orbit.mixture_counts(count)
    parts = [_whole_radii(be, rng, counts[0])[0]]
    for s, c in zip(orbit.MIXTURE_SCALES, counts[1:]):
        parts.append(np.maximum(s * np.sqrt(rng.gamma(be.dn / 2, 1.0, size=c)), 1e-290))
    w = np.concatenate(parts)
    return w, orbit.mixture_weight(w, be.dn, counts)


def test_a_component_boundary_falls_inside_a_slice():
    # at the last count of COUNTS the third component ends inside slice 1
    ends = np.cumsum(orbit.mixture_counts(COUNTS[-1]))
    assert orbit.CHUNK < ends[2] < 2 * orbit.CHUNK


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("family,n", [("o2n2n", 2), ("gl2nR", 3)])
def test_slices_join_to_the_whole_draws(family, n, count):
    be = orbit.FloatBackend(liealg.build_model(family, n))
    rng = lambda: np.random.default_rng(count)
    sizes = [len(w) for w, _ in be.radii_slices(rng(), count)]
    assert sizes == list(orbit.slice_sizes(count))
    assert sizes[:-1] == [orbit.CHUNK] * (len(sizes) - 1) and sum(sizes) == count

    w, weight = _joined(be.radii_slices(rng(), count))
    ref = _whole_radii(be, rng(), count)
    assert np.array_equal(w, ref[0]) and np.array_equal(weight, ref[1])
    assert all(np.array_equal(a, b) for a, b in zip(be.sample_radii(rng(), count), ref))

    w, weight = _joined(be.mixture_slices(rng(), count))
    ref = _whole_mixture(be, rng(), count)
    assert np.array_equal(w, ref[0]) and np.array_equal(weight, ref[1])

    c_ref = _whole_units(be, rng(), count)
    assert np.array_equal(be.sample_units(rng(), count), c_ref)
    for radii, whole in ((be.radii_slices, _whole_radii), (be.mixture_slices, _whole_mixture)):
        gen = rng()
        c_ref = _whole_units(be, gen, count)
        ref = whole(be, gen, count)
        c, w, weight = _joined(be.sample_slices(rng(), count, radii))
        assert np.array_equal(c, c_ref)
        assert np.array_equal(w, ref[0]) and np.array_equal(weight, ref[1])


# --------------------------------------- the checks on whole-array streams

def _sliced_mean(f, count):
    """Mean and stderr of the values f(s) over the slices s of the stream,
    reduced by Moments in slice order."""
    acc = orbit.Moments()
    for s in orbit.chunks(count):
        acc.add(f(s))
    return acc.mean, acc.stderr


def _scaling_reference(m, samples, seed, z_values=(0.5, 2.0), rtol=0.01):
    report = VerificationReport("measure_scaling", meta={
        "family": m.family.value, "n": m.n, "samples": samples, "seed": seed})
    be = orbit.FloatBackend(m)
    wa, weight_a = _whole_mixture(be, np.random.default_rng(seed + 11), samples)
    wb, weight_b = _whole_mixture(be, np.random.default_rng(seed + 12), samples)
    wa2, wb2 = wa * wa, wb * wb
    for name, g in orbit._test_bank():
        base, base_se = _sliced_mean(lambda s: weight_b[s] * g(wb2[s]), samples)
        for z in z_values:
            factor = float(z) ** (-be.dn)
            orbit._add_ratio(report, f"z={z} [{name}]",
                             _sliced_mean(lambda s: weight_a[s] * g(z * z * wa2[s]), samples),
                             (factor * base, factor * base_se), rtol, samples,
                             f"z^-dn = {factor:.6g}")
    return report


def _equivariance_reference(m, samples, seed, l_samples=3, rtol=0.01):
    report = VerificationReport("equivariance", meta={
        "family": m.family.value, "n": m.n, "samples": samples, "seed": seed})
    be = orbit.FloatBackend(m)
    rand = random.Random(seed)
    rng_l = np.random.default_rng(seed + 1)
    c2 = np.square(_whole_units(be, rng_l, samples))
    w1, weight1 = _whole_mixture(be, rng_l, samples)
    w2, weight2 = _whole_mixture(be, np.random.default_rng(seed + 2), samples)
    w1_sq, w2_sq = w1 * w1, w2 * w2
    for name, g in orbit._test_bank():
        base, base_se = _sliced_mean(lambda s: weight2[s] * g(w2_sq[s]), samples)
        report.add(f"identity ratio [{name}]", True, residual=0.0, exact=True,
                   detail="same-stream ratio is identically 1")
        ls = [be.random_diag_l(rand) for _ in range(l_samples)]
        lam2s = np.array([lam2 for lam2, _ in ls])
        for li, (_, char) in enumerate(ls):
            moved = _sliced_mean(
                lambda s: weight1[s] * g(be.radii_after_diag(c2[s], lam2s, w1_sq[s])[li]),
                samples)
            orbit._add_ratio(report, f"diag l#{li} ratio [{name}]", moved,
                             (char * base, char * base_se), rtol, samples,
                             f"character factor {char:.6g}")
    return report


def _spherical_reference(m, grid, samples, seed):
    report = VerificationReport("spherical_direct", meta={
        "family": m.family.value, "n": m.n, "tau": m.tau,
        "tau_shift": 0, "samples": samples, "seed": seed})
    be = orbit.FloatBackend(m)
    pairs = samples // 2
    rng = np.random.default_rng(seed)
    c = _whole_units(be, rng, pairs)
    w, weight = _whole_radii(be, rng, pairs)
    amp = weight * bessel.radial_profile_at(m.tau, w)
    crown_factor = weight * bessel.radial_profile_d1_at(m.tau, w)
    mass = float(np.mean(amp))
    cols = orbit.PairingForms(c, w)
    theta_term = amp * cols.sum(be.linear_terms(be.theta_y1))
    zmax = 0.0
    for name, x in grid:
        cos, sin = orbit.cos_sin(cols.sum(be.linear_terms(x)))
        t = cols.sum(be.crown_terms(x)) * crown_factor * cos - theta_term * sin
        acc = orbit.Moments()
        for s in orbit.chunks(pairs):
            acc.add(t[s].copy())
        est, sd = acc.mean, acc.std
        stderr = sd / math.sqrt(pairs)
        if sd == 0.0:
            report.add(f"x = {name}", est == 0.0, residual=est, exact=False,
                       samples=samples, detail="parity annihilates the estimator",
                       estimate=est, stderr=stderr)
            continue
        z = abs(est) / stderr
        zmax = max(zmax, z)
        decidable = sphver.SIGMA_GATE * stderr <= 0.05 * abs(mass)
        report.add(f"x = {name}", z <= sphver.SIGMA_GATE and decidable, residual=est, exact=False,
                   samples=samples, inconclusive=not decidable,
                   detail=f"stderr {stderr:.3e}, z {z:.2f}",
                   estimate=est, stderr=stderr, z=est / stderr)
    report.meta["max_abs_z"] = zmax
    return report


@pytest.mark.parametrize("chunk", [orbit.CHUNK, 1000])
@pytest.mark.parametrize("family", [Family.O2N2N, Family.GL2N_R])
def test_streamed_checks_equal_whole_array_reports(monkeypatch, family, chunk):
    monkeypatch.setattr(orbit, "CHUNK", chunk)
    m = liealg.build_model(family, 2)
    samples, seed = 3 * 16384 + 1237, 5
    pairs = [
        (orbit.scaling_check(m, samples=samples, seed=seed),
         _scaling_reference(m, samples, seed)),
        (orbit.equivariance_check(m, samples=samples, seed=seed),
         _equivariance_reference(m, samples, seed)),
        (sphver.verify_spherical_direct(m, samples=samples, seed=seed),
         _spherical_reference(m, sphver.default_grid(m), samples, seed)),
    ]
    for streamed, whole in pairs:
        assert streamed.as_dict() == whole.as_dict()
        assert len(streamed.checks) > 3


def _fourier_reference(m, xs, samples, seed):
    """(value, stderr) of the transform at each x from the whole stream:
    c, w and the weights drawn whole, the pairing as one dense product,
    np.cos, np.mean and np.std."""
    be = orbit.FloatBackend(m)
    pairs = samples // 2
    rng = np.random.default_rng(seed)
    c = be.sample_units(rng, pairs)
    w, weight = be.sample_radii(rng, pairs)
    amp = weight * bessel.radial_profile_at(m.tau, w)
    out = []
    for x in xs:
        g = np.zeros(m.dim_nbar)
        for (k,), coef in be.linear_terms(x):
            g[k] = coef
        t = amp * np.cos(w * (c @ g))
        out.append((float(np.mean(t)), float(np.std(t)) / math.sqrt(pairs)))
    return out


@pytest.mark.parametrize("chunk", [orbit.CHUNK, 1000])
@pytest.mark.parametrize("pairs", [orbit.CHUNK - 1, orbit.CHUNK + 1, 7 * orbit.CHUNK + 3])
@pytest.mark.parametrize("family", [Family.O2N2N, Family.GL2N_R])
def test_streamed_transform_equals_whole_array_estimate(monkeypatch, family, pairs, chunk):
    # the draws are those of the whole stream, and np.cos and the cos of
    # orbit.cos_sin agree to 2.2e-16, so only the rounding moves
    m = liealg.build_model(family, 2)
    rays = orbit.FloatBackend(m).ray_blocks()
    xs = [0.0 * rays["e1"], 1.5 * rays["e1"], 2.5 * rays["mix"], 4.0 * rays["e2"]]
    samples, seed = 2 * pairs + 1, 7
    ref = _fourier_reference(m, xs, samples, seed)
    monkeypatch.setattr(orbit, "CHUNK", chunk)
    streamed = orbit.fourier_phi_many(m, xs, samples=samples, seed=seed)
    assert len(streamed) == len(xs)
    for est, (value, stderr) in zip(streamed, ref):
        assert est.value.real == pytest.approx(value, rel=1e-12, abs=0)
        assert est.value.imag == 0.0
        assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0)
        assert (est.samples, est.seed) == (2 * pairs, seed)


# ------------------------------------------------------------ peak memory

@pytest.mark.parametrize("check,bound", [
    (lambda m, n: orbit.equivariance_check(m, seed=1, samples=n), 95.0),
    (lambda m, n: orbit.scaling_check(m, seed=1, samples=n), 20.0),
    (lambda m, n: sphver.verify_spherical_direct(m, seed=1, samples=n), 55.0),
], ids=["equivariance", "scaling", "spherical"])
def test_checks_peak_memory_per_sample(o2, check, bound):
    # numpy reports its buffers to tracemalloc.  A whole-stream evaluation
    # holds the radii, weights and unit coordinates of every sample (113,
    # 43 and 57 bytes per sample); streamed, only the Gaussian rows of the
    # unit points (64 bytes per sample at o2n2n n = 2, half of that per
    # sample of the paired spherical stream) outlive a slice
    samples = 2 * 10 ** 5
    check(o2, samples)  # certification and model caches are filled once
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        check(o2, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / samples < bound


@pytest.mark.parametrize("n,samples,bound", [(2, 8 * 10 ** 5, 45.0), (6, 4 * 10 ** 5, 200.0)])
def test_transform_peak_memory_per_sample(n, samples, bound):
    # a whole-stream evaluation holds c, w, the weights, the profile and a
    # phase and integrand per x (57 and 382 bytes per sample here); streamed,
    # only the Gaussian rows g, h of the paired stream outlive a slice (32
    # and 96 bytes per sample at o2n2n n = 2 and 6)
    m = liealg.build_model(Family.O2N2N, n)
    xs = [1.5 * ray for ray in orbit.FloatBackend(m).ray_blocks().values()]
    orbit.fourier_phi_many(m, xs, samples=samples, seed=1)  # caches are filled once
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        orbit.fourier_phi_many(m, xs, samples=samples, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / samples < bound
