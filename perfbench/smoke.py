"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

For every workload it runs perfbench/run.py with --smoke, untraced and
traced, and checks that:

* the last stdout line has exactly the keys correct, attempted, failed and
  metrics, and the run passed its correctness gate;
* every metric named in BENCHMARK.json is emitted, with its unit, and no
  other (end_to_end untraced, per_layer traced);
* the layer self times of the traced pass add up to its wall time within
  trace.overhead_s (or 2 % of the wall time, when the overhead is smaller
  than the run-to-run noise).

It also checks that run.py exits nonzero, printing no result, in a
directory that holds only BENCHMARK.json and perfbench/.  Exits 0 when
every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 0


def run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(w, trace)
            label = f"{w} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']}, "
                                f"attempted={result['attempted']}")
            got = result["metrics"]
            for m in wanted:
                if m["name"] not in got:
                    problems.append(f"{label}: metric {m['name']} missing")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{label}: {m['name']} unit {got[m['name']]['unit']}, "
                                    f"BENCHMARK.json says {m['unit']}")
            extra = set(got) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
            if trace:
                record = json.loads((HERE / "out" / f"result-{w}-s{SEED}-t1.json").read_text())
                wall = record["workers"][-1]["walls"][0]
                self_sum = sum(got[f"{layer}.self_s"]["value"]
                               for layer in ("catalog", "ratlin", "liealg", "bessel", "orbit",
                                             "sphver", "tensor", "reports", "cli"))
                slack = max(abs(got["trace.overhead_s"]["value"]), 0.02 * wall)
                if not 0.0 <= wall - self_sum <= slack:
                    problems.append(f"{label}: layer self times sum to {self_sum:.4f} s, "
                                    f"traced wall {wall:.4f} s, allowed gap {slack:.4f} s")
            print(f"{label}: {len(got)} metrics, attempted {result['attempted']}, "
                  f"failed {result['failed']}", flush=True)

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    proc = run(spec["workloads"][0]["name"], 0, root=bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
