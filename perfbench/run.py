"""minorbit benchmark: one command, three workloads, every metric with its unit.

    python3 perfbench/run.py --workload {verify_all_n2,exact_n3,bessel_table}
                             --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout.  The load is a closed loop: one
client calls minorbit sequentially.  A run starts a fresh worker process
(perfbench/worker.py), so import, model build, peak memory and the
module-level caches behave as they do for a CLI user.  The worker repeats
whole passes of the workload until S seconds are used, and always runs at
least one.  With --trace 1 that worker gets S/2 seconds and a second,
traced worker runs one pass; the difference is the tracing overhead.
Set-up is timed in at least five fresh processes per run.

With --trace 0 the last stdout line holds the end-to-end metrics (medians
over the run's passes), with --trace 1 the per-layer metrics of the traced
pass.  The end-to-end times are reference seconds: raw seconds divided by
the host's slowdown, measured alongside the work (see hostspeed.py); the
provenance line gives the raw medians too.  The line before it holds the provenance.  The run's full
record, with every pass, goes to perfbench/out/.  The exit code is 0 when
the correctness gate passes, 1 when it fails and 2 on a usage error or
when the checkout holds no minorbit sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5          # set-up is timed at least this often per run
RUN_LIMIT_S = 170.0        # a run never outlives this, whatever --seconds says
# One BLAS/OpenMP thread: the client is a single closed loop, and on a shared
# two-core machine a second thread spins without cutting wall time.
THREADS = 1


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "minorbit").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_point"):
        return "ns"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


class Runner:
    def __init__(self, args):
        self.args = args
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
            self.env[var] = str(THREADS)
        self.started = time.perf_counter()
        self.count = 0

    def worker(self, budget: float = 0.0, trace: bool = False, setup_only: bool = False) -> dict:
        """Run one worker process and return its record."""
        a = self.args
        tag = f"{a.workload}-s{a.seed}-p{self.count}"
        self.count += 1
        out = OUT / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--out", str(out), "--budget", str(budget)]
        if trace:
            cmd += ["--trace", "--spans", str(OUT / f"spans-{tag}.npz")]
        if setup_only:
            cmd.append("--setup-only")
        if a.smoke:
            cmd.append("--smoke")
        left = RUN_LIMIT_S - (time.perf_counter() - self.started)
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=max(left, 1.0),
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"worker exited with {proc.returncode}")
        record = json.loads(out.read_text())
        out.unlink()
        return record


def _check_determinism(key: str, passes: list[dict]) -> list[str]:
    """Compare each report hash with every earlier run of this source and key."""
    store_path = OUT / "report_hashes.json"
    try:
        store = json.loads(store_path.read_text())
    except (OSError, ValueError):
        store = {}
    seen = store.setdefault(_source_digest(), {}).setdefault(key, {})
    mismatches = []
    for p in passes:
        for model, digest in p.items():
            if seen.setdefault(model, digest) != digest:
                mismatches.append(f"report of {model} at {key} differs from an earlier "
                                  f"run of the same source ({digest[:12]} vs {seen[model][:12]})")
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, store_path)
    return mismatches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for checking the benchmark itself")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    if not (ROOT / "src" / "minorbit" / "__init__.py").is_file():
        print(f"no minorbit sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    for old in OUT.glob(f"spans-{args.workload}-*.npz"):
        old.unlink()

    runner = Runner(args)
    workers = [runner.worker(budget=args.seconds / (1 + args.trace))]
    if args.trace:
        workers.append(runner.worker(trace=True))
    untraced, traced = workers[0], workers[-1]
    setup_workers = list(workers)
    while len(setup_workers) < SETUP_SAMPLES:
        setup_workers.append(runner.worker(setup_only=True))
    setups = [w["setup_s"] for w in setup_workers]
    setup_refs = [w["setup_ref_s"] for w in setup_workers]

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    stat_attempted = sum(w["stat_attempted"] for w in workers)
    stat_failures = [f for w in workers for f in w["stat_failures"]]
    stat_failed = len(stat_failures)
    breaches = [b for w in workers for b in w["breaches"]]
    mismatches = _check_determinism(
        f"{args.workload}/seed{args.seed}/{'smoke' if args.smoke else 'full'}",
        [h for w in workers for h in w["hashes"]])
    attempted += len(mismatches)
    failed += len(mismatches)
    breaches += mismatches
    # Monte Carlo checks have a designed false-alarm rate (see workloads.py);
    # at smoke sizes they have no power at all, so only breaches count there
    stat_ok = args.smoke or stat_failed <= workloads.STAT_ALLOWANCE * stat_attempted
    correct = not breaches and stat_ok

    if args.trace:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["walls"][0] - statistics.median(untraced["walls"])
        shown = {k: {"value": v, "unit": _layer_unit(k)} for k, v in sorted(metrics.items())}
    else:
        shown = {
            "wall_s": {"value": statistics.median(untraced["wall_refs"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_refs), "unit": "s"},
            "cpu_s": {"value": statistics.median(untraced["cpu_refs"]), "unit": "s"},
            "peak_rss_mb": {"value": untraced["peak_rss_mb"], "unit": "MB"},
        }

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workloads.SMOKE if args.smoke else workloads.FULL,
        "nproc": _nproc(), "cpu": _cpu_model(), "blas_omp_threads": THREADS,
        "versions": untraced["versions"], "git_commit": _git_commit(),
        "source_sha256": _source_digest(), "passes": sum(len(w["walls"]) for w in workers),
        "setup_samples": len(setups),
        "raw_wall_s": statistics.median(untraced["walls"]),
        "raw_cpu_s": statistics.median(untraced["cpus"]),
        "raw_setup_s": statistics.median(setups),
        "fail_frac": failed / attempted if attempted else 1.0,
        "stat_failed": stat_failed, "stat_attempted": stat_attempted,
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": shown}
    record = {"provenance": provenance, "result": result, "breaches": breaches,
              "setup_s": setups, "setup_ref_s": setup_refs, "workers": workers}
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str))
    for f in stat_failures[:20]:
        print(f"monte carlo check failed: {f}", file=sys.stderr)
    for b in breaches[:20]:
        print(f"correctness: {b}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
