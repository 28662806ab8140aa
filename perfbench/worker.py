"""Passes of one workload in a fresh process, as a CLI user would run them.

    python3 perfbench/worker.py --workload NAME --seed N --out RESULT.json
        [--budget SECONDS] [--trace] [--setup-only] [--smoke] [--spans SPANS.npz]

The worker imports minorbit from the checkout's `src/` and builds every
model the workload uses (the set-up).  Then it runs passes of the
workload, each a timed part followed by the check of its outputs, until
--budget seconds are used; a traced worker runs a single pass.  It writes
its measurements to RESULT.json and, when traced, its spans to SPANS.npz.

Untraced, the set-up and every pass are timed by a `hostspeed.SpeedMeter`,
which gives raw seconds and seconds at the reference host speed; a traced
pass is timed raw, without the meter's ticks among its spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--budget", type=float, default=0.0,
                    help="seconds of passes to run; at least one pass runs")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()

    import hostspeed
    import workloads
    src = ROOT / "src"
    sys.path.insert(0, str(src))

    # ---- set-up: import minorbit with numpy and scipy, build the models;
    # interpreter-bound, and numpy is not imported yet
    meter = hostspeed.SpeedMeter(interp_weight=1.0)
    meter.start()
    import minorbit
    from minorbit import bessel, catalog, cli, liealg, orbit
    if Path(minorbit.__file__).resolve().parent != src / "minorbit":
        raise SystemExit(f"minorbit imported from {minorbit.__file__}, not from {src}")
    workload_cls = workloads.WORKLOADS[args.workload]
    built = {key: liealg.build_model(*key) for key in workload_cls.models}
    setup = meter.stop()

    import numpy
    import scipy
    result = {
        "setup_s": setup["wall"], "setup_ref_s": setup["wall_ref"],
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "minorbit": minorbit.__version__},
    }
    if not args.setup_only:
        tmp = ROOT / "perfbench" / "out" / "tmp" / args.workload
        size = workloads.SMOKE if args.smoke else workloads.FULL
        workload = workload_cls(args.seed, size, tmp)
        mb = SimpleNamespace(np=numpy, cli=cli, catalog=catalog, bessel=bessel, orbit=orbit)
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer(f"{args.workload}/seed{args.seed}/{Path(args.out).stem}")
            tracing.install(tracer)
        else:
            meter = hostspeed.SpeedMeter(workload_cls.interp_weight)

        gate = workloads.Gate()
        walls, cpus, wall_refs, cpu_refs, ticks, hashes = [], [], [], [], [], []
        begin = time.perf_counter()
        while True:
            shutil.rmtree(tmp, ignore_errors=True)
            tmp.mkdir(parents=True)
            # ---- timed part: first call into minorbit to the last verdict
            if tracer is not None:
                tracer.on = True
                w0 = time.perf_counter()
            else:
                meter.start()
            try:
                raw = workload.run(mb, built)
            except Exception:
                raw = traceback.format_exc()
            if tracer is not None:
                walls.append(time.perf_counter() - w0)
                tracer.on = False
            else:
                span = meter.stop()
                walls.append(span["wall"])
                cpus.append(span["cpu"])
                wall_refs.append(span["wall_ref"])
                cpu_refs.append(span["cpu_ref"])
                ticks.append({"segments": span["segments"], "kernels": span["kernels"]})
            if isinstance(raw, str):
                gate.op(False, f"{args.workload} raised\n{raw}")
            else:
                hashes.append(workload.check(mb, built, raw, gate))
            # a traced worker runs one pass; an untraced one repeats whole
            # passes while the next is expected to end within the budget
            if tracer is not None or time.perf_counter() - begin + max(walls) > args.budget:
                break
        result.update({
            "walls": walls, "cpus": cpus, "wall_refs": wall_refs, "cpu_refs": cpu_refs,
            "ticks": ticks,
            "attempted": gate.attempted, "failed": gate.failed,
            "stat_attempted": gate.stat_attempted, "stat_failures": gate.stat_failures,
            "breaches": gate.breaches, "hashes": hashes,
        })
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer)
            result["layers"]["cli.report_bytes"] = sum(f.stat().st_size for f in tmp.glob("*.json"))
            if args.spans:
                tracer.save(args.spans)
        shutil.rmtree(tmp, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
