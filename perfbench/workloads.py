"""The benchmark's workloads and the correctness gate that checks them.

Each workload has a timed part, `run`, that only calls minorbit's public
entry points, and an untimed part, `check`, that judges every output.  An
operation is one verification check, one table row, one quadrature value
or one reference comparison.  It fails when it does not pass, is
inconclusive, raises, or belongs to a call whose exit code its own checks
do not explain.

Failures split in two.  A Monte Carlo check (a report check with
exact=False) has a false-alarm rate by design: the 3-sigma gate flags
about 0.27 % of grid points and the 1 % ratio checks flag some seeds, so
such a failure is counted but is not a breach unless more than
`STAT_ALLOWANCE` of the run's Monte Carlo checks fail.  Every other
failure is a breach, and a breach makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import traceback
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

STAT_ALLOWANCE = 0.10

# Full sizes.  A run measures whole passes; SMOKE shrinks each pass so the
# plumbing can be checked in seconds.
FULL = {"samples": 10 ** 6, "exact": {"gl2n": ("structural", "constants", "modular", "audit"),
                                      "o2n2n": ("modular", "audit")},
        "rows": 4000, "spot_every": 50}
SMOKE = {"samples": 20000, "exact": {"gl2n": ("structural", "constants", "modular", "audit")},
         "rows": 40, "spot_every": 10}

FAMILY = {"o2n2n": "o2n2n", "gl2n": "gl2nR"}
TAUS = ("0", "0.5", "1", "1.5")


class Gate:
    """Counts operations and records why the outputs are not correct."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.stat_attempted = 0
        self.stat_failures: list[str] = []
        self.breaches: list[str] = []

    def op(self, ok: bool, what: str, statistical: bool = False) -> None:
        self.attempted += 1
        self.stat_attempted += statistical
        if ok:
            return
        self.failed += 1
        (self.stat_failures if statistical else self.breaches).append(what)

    def cli_payload(self, label: str, code, path: Path) -> dict | None:
        """Judge every check of one `--json` CLI payload against its exit code."""
        if isinstance(code, str):
            self.op(False, f"{label}: raised\n{code}")
            return None
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError) as ex:
            self.op(False, f"{label}: exit {code}, no readable report ({ex})")
            return None
        hard = inconclusive = False
        for rep in payload["reports"]:
            for c in rep["checks"]:
                ok = c["passed"] and not c.get("inconclusive", False)
                hard |= not c["passed"] and not c.get("inconclusive", False)
                inconclusive |= bool(c.get("inconclusive", False))
                self.op(ok, f"{label}: {rep['suite']}: {c['name']}", statistical=not c["exact"])
        expected = 1 if hard else 3 if inconclusive else 0
        if code != expected:
            self.op(False, f"{label}: exit {code}, its checks imply {expected}")
        return payload

    def casimir(self, label: str, payload: dict, e: int) -> None:
        """The Casimir-type scalar reported by `verify constants` is 2 - 2e."""
        details = [c.get("detail", "") for r in payload["reports"] if r["suite"] == "kdoubleprime"
                   for c in r["checks"]]
        ok = len(details) == 1 and details[0].startswith("scalar ") and \
            Fraction(details[0][len("scalar "):]) == 2 - 2 * e
        self.op(ok, f"{label}: Casimir scalar {details} != 2 - 2e = {2 - 2 * e}")


def report_hash(payload: dict) -> str:
    """Digest of a `--json` report with its timestamp removed."""
    body = {k: v for k, v in payload.items() if k != "timestamp"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def cli_call(cli, argv: list[str]):
    """cli.main with stdout captured.

    Returns (exit code, stdout); when the call raises, the code is the
    traceback text, which the gate counts as a failed operation.
    """
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:
        code = traceback.format_exc()
    return code, buf.getvalue()


# --------------------------------------------------------------- workloads

class VerifyAllN2:
    """`verify all` at n = 2 for both explicit families, through cli.main."""

    name = "verify_all_n2"
    models = (("o2n2n", 2), ("gl2nR", 2))
    interp_weight = 0.25        # numpy does about three quarters of the work

    def __init__(self, seed: int, size: dict, tmp: Path):
        self.seed, self.samples, self.tmp = seed, size["samples"], tmp

    def run(self, mb, built) -> list:
        out = []
        for model in ("o2n2n", "gl2n"):
            path = self.tmp / f"verify-all-{model}.json"
            code, _ = cli_call(mb.cli, ["verify", "all", "--model", model, "--n", "2",
                                        "--samples", str(self.samples), "--seed", str(self.seed),
                                        "--json", str(path)])
            out.append((model, code, path))
        return out

    def check(self, mb, built, raw, gate: Gate) -> dict:
        hashes = {}
        for model, code, path in raw:
            payload = gate.cli_payload(f"verify all {model}", code, path)
            if payload is None:
                continue
            e = mb.catalog.get_class(FAMILY[model]).multiplicities().e
            gate.casimir(f"verify all {model}", payload, e)
            hashes[model] = report_hash(payload)
        return hashes


class ExactN3:
    """The exact suites and the k = 2 dual-pair audit at n = 3."""

    name = "exact_n3"
    models = (("o2n2n", 3), ("gl2nR", 3))
    interp_weight = 1.0         # Fraction arithmetic throughout

    def __init__(self, seed: int, size: dict, tmp: Path):
        self.seed, self.plan, self.tmp = seed, size["exact"], tmp

    def run(self, mb, built) -> list:
        out = []
        for model in ("gl2n", "o2n2n"):
            for step in self.plan.get(model, ()):
                path = self.tmp / f"exact-{model}-{step}.json"
                if step == "audit":
                    argv = ["tensor", "audit", "--model", model, "--n", "3", "--k", "2"]
                else:
                    argv = ["verify", step, "--model", model, "--n", "3", "--seed", str(self.seed)]
                code, _ = cli_call(mb.cli, argv + ["--json", str(path)])
                out.append((model, step, code, path))
        return out

    def check(self, mb, built, raw, gate: Gate) -> dict:
        for model, step, code, path in raw:
            label = f"{step} {model} n=3"
            payload = gate.cli_payload(label, code, path)
            if payload is None:
                continue
            row = mb.catalog.get_class(FAMILY[model])
            if step == "constants":
                gate.casimir(label, payload, row.multiplicities().e)
            if step == "audit":
                pair = mb.catalog.dual_pair(row, 2, n=3)
                dims = payload["reports"][0]["meta"]["dims"]
                gate.op(dims["g_k"] == pair.g_dim and dims["h_k"] == pair.h_dim,
                        f"{label}: dims {dims} vs catalog {pair}")
        return {}


class BesselTable:
    """The analytic layer as many small scalar calls."""

    name = "bessel_table"
    models = (("o2n2n", 2),)
    interp_weight = 1.0         # small calls: interpreter overhead dominates

    def __init__(self, seed: int, size: dict, tmp: Path):
        rand = random.Random(seed)
        # the seed shifts both ends of the z grid
        self.zmin = 0.01 * (1.0 + rand.random())
        self.zmax = 40.0 * (1.0 + 0.25 * rand.random())
        self.rows, self.spot_every = size["rows"], size["spot_every"]

    def run(self, mb, built) -> dict:
        np = mb.np
        zs = np.linspace(self.zmin, self.zmax, self.rows)
        tables, spots = {}, {}
        for tau in TAUS:
            tables[tau] = cli_call(mb.cli, ["bessel", "--tau", tau, "--zmin", repr(self.zmin),
                                            "--zmax", repr(self.zmax), "--steps", str(self.rows)])
            spots[tau] = [(i, mb.bessel.bessel_k(float(tau), float(zs[i]), method="quadrature"))
                          for i in range(0, self.rows, self.spot_every)]
        integrals = []
        for row in mb.catalog.list_classes():
            ps = (1, 2, 3) if row.parametric else (None,)
            ns = (2, 3, 4) if row.n_symbol == "n" else (row.rank(),)
            for p in ps:
                mult = row.multiplicities(p)
                tau = mb.catalog.tau(mult)
                for n in ns:
                    if n <= 4:
                        integrals.append((row.display, p, n,
                                          mb.orbit.l2_radial_integral(tau, mult.d * n - 1)))
        norm = mb.orbit.l2_norm_g_tau(built[("o2n2n", 2)])
        return {"zs": zs, "tables": tables, "spots": spots, "integrals": integrals, "norm": norm}

    def check(self, mb, built, raw, gate: Gate) -> dict:
        zs = raw["zs"]
        for tau in TAUS:
            code, text = raw["tables"][tau]
            lines = text.splitlines()
            if code != 0 or not lines or lines[0] != "z,K_tau,phi_tau,D_residual":
                gate.op(False, f"bessel tau={tau}: exit {code}, header {lines[:1]}")
                continue
            rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
            if len(rows) != len(zs):
                gate.op(False, f"bessel tau={tau}: {len(rows)} rows, expected {len(zs)}")
            for (z, k, phi, resid), zg in zip(rows, zs):
                gate.op(math.isclose(z, zg, rel_tol=1e-11) and math.isfinite(k) and k > 0
                        and math.isfinite(phi) and abs(resid) < 1e-9,
                        f"bessel tau={tau} z={z}: K={k}, phi={phi}, D residual {resid}")
            for i, quad in raw["spots"][tau]:
                k = rows[i][1] if i < len(rows) else math.nan
                gate.op(abs(k - quad) <= 1e-9 * abs(quad),
                        f"bessel tau={tau} z={zs[i]}: fast K {k} vs quadrature {quad}")
        for display, p, n, val in raw["integrals"]:
            gate.op(math.isfinite(val) and val > 0, f"radial integral {display} p={p} n={n}: {val}")
        gate.op(math.isclose(raw["norm"], math.pi / 8, rel_tol=1e-6),
                f"o2n2n n=2 radial norm {raw['norm']} vs pi/8")
        return {}


WORKLOADS = {w.name: w for w in (VerifyAllN2, ExactN3, BesselTable)}
