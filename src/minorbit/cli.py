"""Command-line front end: table export, verification suites, Bessel tables.

Exit codes: 0 all checks passed, 1 verification failure, 2 usage error,
3 Monte Carlo inconclusive (error bars too wide to decide).

A usage error, the argument parser's included, is raised as UsageError;
main prints it once, as one line on stderr, and exits 2.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import bessel, catalog, liealg, orbit, sphver, tensor
from .catalog import Family, OpqDescriptor
from .reports import QuadratureError, VerificationReport

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

# Rows of a bessel table evaluated per kernel call.
TABLE_BLOCK = 16384


class UsageError(Exception):
    """A one-line diagnostic for arguments the CLI refuses (exit code 2)."""


def _resolve_model(args) -> tuple[Family, int]:
    """Map CLI model flags to a concrete family and rank."""
    name = args.model.lower()
    if name in ("opq", "o(p,q)"):
        if args.p is None or args.q is None:
            raise UsageError("model opq requires --p and --q")
        ok, diag = catalog.validate_admissible(OpqDescriptor(args.p, args.q))
        if not ok:
            raise UsageError(diag)
        if args.p % 2 == 0:
            n = args.p // 2
            if n < 2:
                raise UsageError(f"O({args.p},{args.q}): rank below 2, no model")
            if args.n is not None and args.n != n:
                raise UsageError(
                    f"--n {args.n} contradicts O({args.p},{args.q}), whose rank is p/2 = {n}")
            return Family.O2N2N, n
        raise UsageError(
            f"O({args.p},{args.p}) admissible (rank-2 family), but no matrix model is built")
    aliases = {
        "o2n2n": Family.O2N2N,
        "gl2n": Family.GL2N_R,
        "gl2nr": Family.GL2N_R,
    }
    if name not in aliases:
        raise UsageError(f"unknown model {args.model!r} (choose o2n2n, gl2n, or opq)")
    if args.n is None:
        raise UsageError("missing --n")
    return aliases[name], args.n


def _build_model(args) -> liealg.GradedModel:
    """Build the model the CLI flags name; a rank it refuses is a usage error."""
    try:
        return liealg.build_model(*_resolve_model(args))
    except ValueError as ex:
        raise UsageError(str(ex)) from None


def _check_writable(path: str | None) -> None:
    """Refuse an output file that cannot be written at path.

    Probed before any work by opening path for appending; a file that the
    probe created is removed again, so a refused run leaves nothing behind.
    """
    if path is None:
        return
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as ex:
        raise UsageError(f"cannot write {path}: {ex.strerror or ex}") from None
    if not existed:
        os.remove(path)


def _write_file(path: str, text: str) -> None:
    """Write text to path in one piece; on failure remove what was written
    and refuse."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as ex:
        if os.path.isfile(path):
            os.remove(path)
        raise UsageError(f"cannot write {path}: {ex.strerror or ex}") from None


def _check_finite(args, names: tuple[str, ...]) -> None:
    """Refuse the first of the float options names that is nan or infinite."""
    for name in names:
        value = getattr(args, name)
        if not math.isfinite(value):
            raise UsageError(f"--{name} must be finite, got {value}")


def _emit_reports(reports: list[VerificationReport], json_path: str | None,
                  command: str, config: dict) -> int:
    hard_failed = any(r.hard_failed for r in reports)
    inconclusive = any(r.inconclusive for r in reports)
    for rep in reports:
        for line in rep.summary_lines():
            print(line)
    payload = {
        "command": command,
        "config": config,
        "passed": not hard_failed and not inconclusive,
        "inconclusive": inconclusive,
        "reports": [r.as_dict() for r in reports],
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if json_path:
        _write_file(json_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if hard_failed:
        return EXIT_FAIL
    if inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


# ------------------------------------------------------------------- table

def cmd_table(args) -> int:
    rows = catalog.table_rows()
    if args.family:
        try:
            display = catalog.get_class(args.family).display
        except (KeyError, ValueError):
            tags = ", ".join(f.value for f in Family)
            raise UsageError(f"unknown family {args.family!r} (choose from {tags})") from None
        rows = [r for r in rows if r["family"] == display]
    if args.format == "csv":
        sys.stdout.write(catalog.to_csv(rows))
    elif args.format == "json":
        sys.stdout.write(catalog.to_json(rows))
    else:
        widths = {c: max(len(c), max(len(r[c]) for r in rows)) for c in catalog.CSV_COLUMNS}
        header = "  ".join(c.ljust(widths[c]) for c in catalog.CSV_COLUMNS)
        print(header)
        print("-" * len(header))
        for r in rows:
            print("  ".join(r[c].ljust(widths[c]) for c in catalog.CSV_COLUMNS))
    return EXIT_PASS


# ------------------------------------------------------------------ verify

_SUITES = ("structural", "constants", "modular", "crown", "orbit", "spherical", "all")


def cmd_verify(args) -> int:
    model = _build_model(args)
    seed, samples = args.seed, args.samples
    # the orbit suites draw `samples` radii; spherical also runs fourier_phi
    least = {"orbit": 1, "spherical": orbit.MIN_FOURIER_SAMPLES,
             "all": orbit.MIN_FOURIER_SAMPLES}.get(args.suite)
    if least is not None and samples < least:
        raise UsageError(f"--samples must be at least {least} for verify {args.suite}, "
                         f"got {samples}")
    if least is not None and samples > orbit.MAX_SAMPLES:
        raise UsageError(f"--samples must be at most {orbit.MAX_SAMPLES} for verify "
                         f"{args.suite}, got {samples}")
    # the Monte Carlo suites seed numpy generators, which take seeds >= 0
    if least is not None and seed < 0:
        raise UsageError(f"--seed must be non-negative for verify {args.suite}, got {seed}")
    _check_writable(args.json)
    reports: list[VerificationReport] = []
    suite = args.suite
    if suite in ("structural", "all"):
        reports.append(liealg.structural_suite(model, rand_seed=seed))
    if suite in ("constants", "crown", "all"):
        constants = (sphver.verify_k1(model),
                     sphver.verify_kprime(model, samples=100, seed=seed),
                     sphver.verify_kdoubleprime(model))
    if suite in ("constants", "all"):
        reports.extend(constants)
    if suite in ("modular", "all"):
        reports.append(liealg.modular_character_check(model))
    if suite in ("crown", "all"):
        reports.append(sphver.assemble_crown(model, constants))
    if suite in ("orbit", "all"):
        reports.append(orbit.scaling_check(model, samples=samples, seed=seed))
        reports.append(orbit.equivariance_check(model, l_samples=3, seed=seed,
                                                samples=samples))
    if suite in ("spherical", "all"):
        reports.append(sphver.verify_spherical_direct(model, samples=samples, seed=seed))
        reports.append(sphver.m_invariance_check(
            model, samples=min(samples, 4 * 10 ** 5), seed=seed))
    config = {"model": model.family.value, "n": model.n, "seed": seed,
              "samples": samples, "suite": suite}
    return _emit_reports(reports, args.json, "verify", config)


# ------------------------------------------------------------------ bessel

def cmd_bessel(args) -> int:
    _check_finite(args, ("tau", "zmin", "zmax"))
    if args.zmin <= 0 or args.zmax <= args.zmin or args.steps < 1:
        raise UsageError("need 0 < zmin < zmax and steps >= 1")
    if args.steps > orbit.MAX_STEPS:
        raise UsageError(f"--steps must be at most {orbit.MAX_STEPS}, got {args.steps}")
    tau = Fraction(args.tau).limit_denominator(2)
    if abs(float(tau) - args.tau) > 1e-12:
        raise UsageError(f"tau must be a half-integer, got {args.tau}")
    _check_writable(args.out)
    zs = np.linspace(args.zmin, args.zmax, args.steps)
    # the whole table is formed before any of it is written
    table = io.StringIO()
    try:
        _write_bessel_table(table, float(tau), zs)
    except (ValueError, QuadratureError) as ex:
        raise UsageError(f"--tau {args.tau:g} cannot be tabulated: {ex}") from None
    if args.out:
        _write_file(args.out, table.getvalue())
    else:
        sys.stdout.write(table.getvalue())
    return EXIT_PASS


def _write_bessel_table(fh, tau: float, zs: np.ndarray) -> None:
    """Rows (z, K_tau(z), phi_tau(z), D phi_tau(z)).

    The K column is K at z itself and phi is K at sqrt(z), so a row takes
    two kernel evaluations: K_tau(z), and one ladder of three orders at
    sqrt(z) giving phi, phi' and phi'' for the D residual.  The rows are
    evaluated TABLE_BLOCK at a time, one array call per kernel, with the
    same bits as row-by-row scalar calls, and each block is formatted by one
    % call.  A certified order that overflows at small z prints inf or nan,
    without a warning.
    """
    fh.write("z,K_tau,phi_tau,D_residual\n")
    row = "%.12g,%.12e,%.12e,%.3e\n"
    for start in range(0, len(zs), TABLE_BLOCK):
        z = zs[start:start + TABLE_BLOCK]
        with np.errstate(all="ignore"):
            k = bessel.bessel_k(tau, z)
            phi, d1, d2 = bessel.phi_tau(tau, z)
            resid = bessel.d_residual(tau, z, phi, d1, d2)
        fh.write(row * len(z) % tuple(np.column_stack((z, k, phi, resid)).ravel().tolist()))


# ----------------------------------------------------------------- fourier

def cmd_fourier(args) -> int:
    """Transform estimates along a coordinate ray, as CSV or JSON."""
    model = _build_model(args)
    if not orbit.MIN_FOURIER_SAMPLES <= args.samples <= orbit.MAX_SAMPLES:
        raise UsageError(f"--samples must be between {orbit.MIN_FOURIER_SAMPLES} and "
                         f"{orbit.MAX_SAMPLES}, got {args.samples}")
    if not 1 <= args.steps <= orbit.MAX_STEPS:
        raise UsageError(f"--steps must be between 1 and {orbit.MAX_STEPS}, got {args.steps}")
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    _check_finite(args, ("tmin", "tmax"))
    rays = orbit.FloatBackend(model).ray_blocks()
    if args.ray not in rays:
        raise UsageError(f"unknown ray {args.ray!r} (choose from {sorted(rays)})")
    ray = rays[args.ray]
    ts = np.linspace(args.tmin, args.tmax, args.steps)
    estimates = []
    for i, t in enumerate(ts):
        est = orbit.fourier_phi(model, float(t) * ray, samples=args.samples,
                                seed=args.seed + i)
        estimates.append((float(t), est))
    if args.format == "json":
        payload = [{"t": t, **est.as_dict()} for t, est in estimates]
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["t", "value", "stderr", "samples", "seed"])
        for t, est in estimates:
            writer.writerow([f"{t:.6g}", f"{est.value.real:.10e}",
                             f"{est.stderr:.4e}", est.samples, est.seed])
    return EXIT_PASS


# ------------------------------------------------------------------ tensor

def cmd_tensor(args) -> int:
    model = _build_model(args)
    family, n = model.family, model.n
    if not 2 <= args.k < n:
        reason = "so n=2 admits no k" if n == 2 else f"and k={args.k} is outside [2, {n})"
        raise UsageError(f"tensor audit needs 2 <= k < n, {reason}")
    _check_writable(args.json)
    rep = tensor.audit_dual_pair(model, args.k)
    config = {"model": family.value, "n": n, "k": args.k}
    return _emit_reports([rep], args.json, "tensor audit", config)


# -------------------------------------------------------------------- main

_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as the one line `minorbit <cmd>: error: ...`.

    A negative number is an option value in every form float() reads, not
    only as -12 or -1.5: argparse's own pattern takes -1e3 and -inf for
    options and fails with "expected one argument".
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise UsageError(f"{self.prog}: error: {message}")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True, help="o2n2n, gl2n, or opq (with --p/--q)")
    parser.add_argument("--n", type=int)
    parser.add_argument("--p", type=int)
    parser.add_argument("--q", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="minorbit",
        description="verification workbench for graded models, minimal orbits "
                    "and Bessel spherical vectors")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_table = sub.add_parser("table", help="print the classification table")
    p_table.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_table.add_argument("--family", help="restrict to one family tag (e.g. o2n2n)")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("suite", choices=_SUITES)
    _add_model_flags(p_verify)
    p_verify.add_argument("--samples", type=int, default=10 ** 6)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--json", help="write the full JSON report here")
    p_verify.set_defaults(func=cmd_verify)

    p_bessel = sub.add_parser("bessel", help="emit (z, K, phi, residual) CSV")
    p_bessel.add_argument("--tau", type=float, required=True)
    p_bessel.add_argument("--zmin", type=float, required=True)
    p_bessel.add_argument("--zmax", type=float, required=True)
    p_bessel.add_argument("--steps", type=int, required=True)
    p_bessel.add_argument("--out")
    p_bessel.set_defaults(func=cmd_bessel)

    p_fourier = sub.add_parser("fourier", help="transform estimates along a ray")
    _add_model_flags(p_fourier)
    p_fourier.add_argument("--ray", default="e1")
    p_fourier.add_argument("--tmin", type=float, default=0.0)
    p_fourier.add_argument("--tmax", type=float, default=5.0)
    p_fourier.add_argument("--steps", type=int, default=11)
    p_fourier.add_argument("--samples", type=int, default=10 ** 5)
    p_fourier.add_argument("--seed", type=int, default=0)
    p_fourier.add_argument("--format", choices=("csv", "json"), default="csv")
    p_fourier.set_defaults(func=cmd_fourier)

    p_tensor = sub.add_parser("tensor", help="stabilizer and dual-pair audits")
    p_tensor.add_argument("action", choices=("audit",))
    _add_model_flags(p_tensor)
    p_tensor.add_argument("--k", type=int, required=True)
    p_tensor.add_argument("--json")
    p_tensor.set_defaults(func=cmd_tensor)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:  # raised by --help only, after it printed the help text
            return EXIT_PASS
        return args.func(args)
    except UsageError as ex:
        print(ex, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
