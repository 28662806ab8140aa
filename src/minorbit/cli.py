"""Command-line front end: table export, verification suites, Bessel tables.

Exit codes: 0 all checks passed, 1 verification failure, 2 usage error,
3 Monte Carlo inconclusive (error bars too wide to decide).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import bessel, catalog, liealg, orbit, sphver, tensor
from .catalog import Family, OpqDescriptor
from .reports import VerificationReport

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _resolve_model(args) -> tuple[Family, int] | str:
    """Map CLI model flags to a concrete family and rank, or a diagnostic."""
    name = args.model.lower()
    if name in ("opq", "o(p,q)"):
        if args.p is None or args.q is None:
            return "model opq requires --p and --q"
        ok, diag = catalog.validate_admissible(OpqDescriptor(args.p, args.q))
        if not ok:
            return diag
        if args.p % 2 == 0:
            n = args.p // 2
            if n < 2:
                return f"O({args.p},{args.q}): rank below 2, no model"
            if args.n is not None and args.n != n:
                return f"--n {args.n} contradicts O({args.p},{args.q}), whose rank is p/2 = {n}"
            return Family.O2N2N, n
        return f"O({args.p},{args.p}) admissible (rank-2 family), but no matrix model is built"
    aliases = {
        "o2n2n": Family.O2N2N,
        "gl2n": Family.GL2N_R,
        "gl2nr": Family.GL2N_R,
    }
    if name not in aliases:
        return f"unknown model {args.model!r} (choose o2n2n, gl2n, or opq)"
    if args.n is None:
        return "missing --n"
    return aliases[name], args.n


def _build_model(args) -> liealg.GradedModel | str:
    """Build the model the CLI flags name, or return a one-line diagnostic."""
    resolved = _resolve_model(args)
    if isinstance(resolved, str):
        return resolved
    try:
        return liealg.build_model(*resolved)
    except ValueError as ex:
        return str(ex)


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
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
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
            print(f"unknown family {args.family!r} (choose from {tags})", file=sys.stderr)
            return EXIT_USAGE
        rows = [r for r in rows if r["family"] == display]
    if args.format == "csv":
        sys.stdout.write(catalog.to_csv(rows))
    elif args.format == "json":
        sys.stdout.write(json.dumps(rows, indent=2, sort_keys=True) + "\n")
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
    if isinstance(model, str):
        print(model, file=sys.stderr)
        return EXIT_USAGE
    seed, samples = args.seed, args.samples
    # the orbit suites draw `samples` radii; spherical also runs fourier_phi
    least = {"orbit": 1, "spherical": orbit.MIN_FOURIER_SAMPLES,
             "all": orbit.MIN_FOURIER_SAMPLES}.get(args.suite)
    if least is not None and samples < least:
        print(f"--samples must be at least {least} for verify {args.suite}, "
              f"got {samples}", file=sys.stderr)
        return EXIT_USAGE
    reports: list[VerificationReport] = []
    suite = args.suite
    if suite in ("structural", "all"):
        reports.append(liealg.structural_suite(model, rand_seed=seed))
    constants = None
    if suite in ("constants", "all"):
        constants = (sphver.verify_k1(model),
                     sphver.verify_kprime(model, samples=100, seed=seed),
                     sphver.verify_kdoubleprime(model))
        reports.extend(constants)
    if suite in ("modular", "all"):
        reports.append(liealg.modular_character_check(model))
    if suite in ("crown", "all"):
        reports.append(sphver.assemble_crown(model, constants=constants))
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
    if args.zmin <= 0 or args.zmax <= args.zmin or args.steps < 1:
        print("need 0 < zmin < zmax and steps >= 1", file=sys.stderr)
        return EXIT_USAGE
    tau = Fraction(args.tau).limit_denominator(2)
    if abs(float(tau) - args.tau) > 1e-12:
        print(f"tau must be a half-integer, got {args.tau}", file=sys.stderr)
        return EXIT_USAGE
    zs = np.linspace(args.zmin, args.zmax, args.steps).tolist()
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            _write_bessel_table(fh, float(tau), zs)
    else:
        _write_bessel_table(sys.stdout, float(tau), zs)
    return EXIT_PASS


def _write_bessel_table(fh, tau: float, zs: list[float]) -> None:
    """Rows (z, K_tau(z), phi_tau(z), D phi_tau(z)).

    The K column is K at z itself and phi is K at sqrt(z), so a row takes
    two kernel evaluations: K_tau(z), and one ladder of three orders at
    sqrt(z) giving phi, phi' and phi'' for the D residual.
    """
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["z", "K_tau", "phi_tau", "D_residual"])
    for z in zs:
        k = bessel.bessel_k(tau, z)
        phi, d1, d2 = bessel.phi_tau(tau, z)
        resid = bessel.d_residual(tau, z, phi, d1, d2)
        writer.writerow([f"{z:.12g}", f"{k:.12e}", f"{phi:.12e}", f"{resid:.3e}"])


# ----------------------------------------------------------------- fourier

def cmd_fourier(args) -> int:
    """Transform estimates along a coordinate ray, as CSV or JSON."""
    model = _build_model(args)
    if isinstance(model, str):
        print(model, file=sys.stderr)
        return EXIT_USAGE
    if args.samples < orbit.MIN_FOURIER_SAMPLES:
        print(f"--samples must be at least {orbit.MIN_FOURIER_SAMPLES}, got {args.samples}",
              file=sys.stderr)
        return EXIT_USAGE
    if args.steps < 1:
        print(f"--steps must be at least 1, got {args.steps}", file=sys.stderr)
        return EXIT_USAGE
    rays = orbit.FloatBackend(model).ray_blocks()
    if args.ray not in rays:
        print(f"unknown ray {args.ray!r} (choose from {sorted(rays)})", file=sys.stderr)
        return EXIT_USAGE
    block = rays[args.ray]
    ts = np.linspace(args.tmin, args.tmax, args.steps)
    estimates = []
    for i, t in enumerate(ts):
        est = orbit.fourier_phi(model, float(t) * block, samples=args.samples,
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
    if args.action != "audit":
        print(f"unknown tensor action {args.action!r}", file=sys.stderr)
        return EXIT_USAGE
    model = _build_model(args)
    if isinstance(model, str):
        print(model, file=sys.stderr)
        return EXIT_USAGE
    family, n = model.family, model.n
    if not 2 <= args.k < n:
        print(f"k={args.k} outside [2, {n})", file=sys.stderr)
        return EXIT_USAGE
    rep = tensor.audit_dual_pair(model, args.k)
    config = {"model": family.value, "n": n, "k": args.k}
    return _emit_reports([rep], args.json, "tensor audit", config)


# -------------------------------------------------------------------- main

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as the one line `minorbit <cmd>: error: ...`."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


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
    p_verify.add_argument("--model", required=True,
                          help="o2n2n, gl2n, or opq (with --p/--q)")
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--p", type=int)
    p_verify.add_argument("--q", type=int)
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
    p_fourier.add_argument("--model", required=True)
    p_fourier.add_argument("--n", type=int)
    p_fourier.add_argument("--p", type=int)
    p_fourier.add_argument("--q", type=int)
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
    p_tensor.add_argument("--model", required=True)
    p_tensor.add_argument("--n", type=int)
    p_tensor.add_argument("--p", type=int)
    p_tensor.add_argument("--q", type=int)
    p_tensor.add_argument("--k", type=int, required=True)
    p_tensor.add_argument("--json")
    p_tensor.set_defaults(func=cmd_tensor)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return EXIT_USAGE if ex.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
