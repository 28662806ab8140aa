"""Spans around minorbit's public entry points, recorded from outside.

`install` replaces each listed function or method with a wrapper that
records a span (name, start, end, parent) while a `Tracer` is on.  Spans
live in flat arrays in memory and are written out once, at the end of a
pass.  `layer_metrics` turns them into the per-layer metrics the benchmark
reports: self time per module, call and error counts, and the
function-level times and counters named in BENCHMARK.json.

A layer's self time is the time its spans cover minus the time covered by
their child spans.  Work done inside an unwrapped helper counts as self
time of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

LAYERS = ("catalog", "ratlin", "liealg", "bessel", "orbit", "sphver",
          "tensor", "reports", "cli")

# Wrapped entry points per module; "Class.method" wraps the method on the
# class, so every instance sees it.
TARGETS = {
    "catalog": ("list_classes", "get_class", "tau", "dim_nbar", "radial_exponent",
                "dual_pair", "validate_admissible", "table_rows", "to_csv", "to_json",
                "GroupClass.rank", "GroupClass.multiplicities"),
    "ratlin": ("rref", "rank", "nullspace", "solve_exact", "span_intersection_dim",
               "in_span", "is_zero_matrix"),
    "liealg": ("build_model", "structural_suite", "casimir_omega_scalar",
               "theta_eigenbasis_of_l", "modular_character_check", "stabilizer_algebra",
               "nu", "norm_nbar_sq", "norm_nbar", "model_dump", "model_dump_json"),
    "bessel": ("bessel_k_integral", "bessel_k", "k_half_closed_form", "phi_tau",
               "apply_D", "d_coefficient_identity", "bessel_ode_residual_fd",
               "phi_derivative_crosscheck", "radial_profile_at", "radial_profile_d1_at"),
    "orbit": ("sample_orbit_rational", "OrbitPoint.membership_residual", "radial_measure",
              "sample_base", "l2_radial_integral", "l2_norm_g_tau", "fourier_phi",
              "equivariance_check", "scaling_check",
              "FloatBackend.sample_units", "FloatBackend.sample_radii",
              "FloatBackend.pair_x", "FloatBackend.pair_theta_y1",
              "FloatBackend.crown_pair", "FloatBackend.blocks", "FloatBackend.matrices",
              "FloatBackend.random_diag_l", "FloatBackend.radii_after_diag",
              "FloatBackend.ray_blocks"),
    "sphver": ("verify_k1", "verify_kprime", "verify_kdoubleprime", "assemble_crown",
               "default_grid", "verify_spherical_direct", "m_invariance_check"),
    "tensor": ("stabilizer_sk", "decomposition_invariants", "audit_dual_pair"),
    "reports": ("VerificationReport.as_dict", "VerificationReport.to_json",
                "VerificationReport.summary_lines", "CheckResult.as_dict"),
    "cli": ("main", "cmd_table", "cmd_verify", "cmd_bessel", "cmd_fourier", "cmd_tensor"),
}

# Function-level times: inclusive time of the outermost spans of the group.
GROUP_TIMES = {
    "liealg.structural_suite_s": ("liealg.structural_suite",),
    "liealg.casimir_omega_scalar_s": ("liealg.casimir_omega_scalar",),
    "liealg.modular_character_check_s": ("liealg.modular_character_check",),
    "liealg.stabilizer_algebra_s": ("liealg.stabilizer_algebra",),
    "liealg.build_model_s": ("liealg.build_model",),
    "ratlin.rref_s": ("ratlin.rref",),
    "ratlin.nullspace_s": ("ratlin.nullspace",),
    "tensor.stabilizer_sk_s": ("tensor.stabilizer_sk",),
    "tensor.decomposition_invariants_s": ("tensor.decomposition_invariants",),
    "tensor.audit_dual_pair_s": ("tensor.audit_dual_pair",),
    "bessel.radial_profile_s": ("bessel.radial_profile_at", "bessel.radial_profile_d1_at"),
    "bessel.phi_tau_s": ("bessel.phi_tau",),
    "bessel.quadrature_s": ("bessel.bessel_k_integral",),
    "orbit.sample_s": ("orbit.FloatBackend.sample_units", "orbit.FloatBackend.sample_radii"),
    "orbit.pair_s": ("orbit.FloatBackend.pair_x", "orbit.FloatBackend.pair_theta_y1",
                     "orbit.FloatBackend.crown_pair"),
    "orbit.scaling_check_s": ("orbit.scaling_check",),
    "orbit.equivariance_check_s": ("orbit.equivariance_check",),
    "orbit.l2_radial_integral_s": ("orbit.l2_radial_integral",),
    "sphver.verify_spherical_direct_s": ("sphver.verify_spherical_direct",),
    "sphver.m_invariance_check_s": ("sphver.m_invariance_check",),
    "sphver.verify_k1_s": ("sphver.verify_k1",),
    "sphver.verify_kprime_s": ("sphver.verify_kprime",),
    "sphver.verify_kdoubleprime_s": ("sphver.verify_kdoubleprime",),
    "sphver.assemble_crown_s": ("sphver.assemble_crown",),
    "cli.main_s": ("cli.main",),
    "reports.as_dict_s": ("reports.VerificationReport.as_dict",),
}

CALL_COUNTS = {
    "liealg.casimir_calls": "liealg.casimir_omega_scalar",
    "ratlin.rref_calls": "ratlin.rref",
    "bessel.phi_tau_calls": "bessel.phi_tau",
    "bessel.quadrature_calls": "bessel.bessel_k_integral",
}

# Exact constants of the spherical-vector assembly; each should need one
# evaluation per model.
CONSTANTS = ("sphver.verify_k1", "sphver.verify_kprime", "liealg.casimir_omega_scalar")


class Tracer:
    """Spans of one pass, kept in flat arrays until the pass ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.on = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.error = array("b")
        self.size = array("d")        # points or samples handled by the call
        self._stack: list[int] = []
        self.constant_keys: set = set()
        self.grid_points = 0
        self.decidable_points = 0
        self.model_dims: list[int] = []

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, fn, name: str, note=None):
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.error.append(0)
            tracer.size.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end[idx] = time.perf_counter()
                tracer.error[idx] = 1
                tracer._stack.pop()
                raise
            tracer.end[idx] = time.perf_counter()
            tracer._stack.pop()
            if note is not None:
                note(tracer, idx, args, kwargs, result)
            return result

        return traced

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, np.int64),
                 error=np.frombuffer(self.error, np.int8), run_id=np.array(self.run_id))


# ---------------------------------------------------------------- notes

def _note_points(tracer, idx, args, kwargs, result):
    tracer.size[idx] = float(np.size(result))


def _note_count(tracer, idx, args, kwargs, result):
    tracer.size[idx] = float(args[2] if len(args) > 2 else kwargs["count"])


def _note_constant(tracer, idx, args, kwargs, result):
    m = args[0]
    tracer.constant_keys.add((tracer.names[tracer.name_id[idx]], m.family.value, m.n))


def _note_spherical(tracer, idx, args, kwargs, result):
    tracer.grid_points += len(result.checks)
    tracer.decidable_points += sum(not c.inconclusive for c in result.checks)


def _note_model(tracer, idx, args, kwargs, result):
    tracer.model_dims.append(result.dim)


NOTES = {
    "bessel.radial_profile_at": _note_points,
    "bessel.radial_profile_d1_at": _note_points,
    "orbit.FloatBackend.sample_radii": _note_count,
    "sphver.verify_k1": _note_constant,
    "sphver.verify_kprime": _note_constant,
    "liealg.casimir_omega_scalar": _note_constant,
    "sphver.verify_spherical_direct": _note_spherical,
    "liealg.build_model": _note_model,
}


def install(tracer: Tracer) -> None:
    """Wrap every target, rebinding each name in every minorbit module that
    imported it, so calls made inside the package are seen too."""
    modules = {layer: importlib.import_module(f"minorbit.{layer}") for layer in LAYERS}
    for layer, names in TARGETS.items():
        mod = modules[layer]
        for attr in names:
            full = f"{layer}.{attr}"
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            original = owner.__dict__[member]
            wrapped = tracer.wrap(original, full, NOTES.get(full))
            setattr(owner, member, wrapped)
            if owner_name:
                continue
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)


# -------------------------------------------------------------- metrics

def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer and function-level metrics of one traced pass."""
    names = tracer.names
    nid = np.frombuffer(tracer.name_id, np.int32)
    start = np.frombuffer(tracer.start)
    dur = np.frombuffer(tracer.end) - start
    parent = np.frombuffer(tracer.parent, np.int64)
    error = np.frombuffer(tracer.error, np.int8)
    size = np.frombuffer(tracer.size)

    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    # every target is registered by install(), so every name has an id
    layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in names], np.int32)
    span_layer = layer_of[nid]

    out: dict[str, float] = {}
    for i, layer in enumerate(LAYERS):
        sel = span_layer == i
        out[f"{layer}.self_s"] = float(self_time[sel].sum())
        out[f"{layer}.calls"] = int(sel.sum())
        out[f"{layer}.errors"] = int(error[sel].sum())

    def outermost(group: tuple[str, ...]) -> np.ndarray:
        member = np.isin(nid, [names.index(g) for g in group])
        keep = member.copy()
        for idx in np.flatnonzero(member):
            p = parent[idx]
            while p >= 0:
                if member[p]:
                    keep[idx] = False
                    break
                p = parent[p]
        return keep

    for metric, group in GROUP_TIMES.items():
        out[metric] = float(dur[outermost(group)].sum())
    for metric, name in CALL_COUNTS.items():
        out[metric] = int((nid == names.index(name)).sum())

    radial = outermost(GROUP_TIMES["bessel.radial_profile_s"])
    points = float(size[radial].sum())
    out["bessel.points"] = int(points)
    out["bessel.ns_per_point"] = out["bessel.radial_profile_s"] * 1e9 / points if points else 0.0
    out["orbit.samples"] = int(size[nid == names.index("orbit.FloatBackend.sample_radii")].sum())
    out["sphver.grid_points"] = tracer.grid_points
    out["sphver.decidable_frac"] = (tracer.decidable_points / tracer.grid_points
                                    if tracer.grid_points else 0.0)
    evals = int(np.isin(nid, [names.index(c) for c in CONSTANTS]).sum())
    out["sphver.constant_evals"] = evals
    out["sphver.constant_reuse_ratio"] = len(tracer.constant_keys) / evals if evals else 0.0
    out["liealg.dim"] = max(tracer.model_dims, default=0)
    return out
