"""Steadiness check: run each workload repeatedly and report the spread.

    python3 bench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Runs bench/run.py once per seed (first-seed, first-seed + 1, ...) for
each workload, one run at a time, with the run length and metrics of
BENCHMARK.json. For every end-to-end metric it prints the median, the
first and third quartiles (statistics.quantiles, n=4) and the spread:
(Q3 - Q1) / median, next to the metric's bound. A spread above a third
of its bound is flagged, except for setup_s, which is bounded only
between medians. The share of failed operations must be the same in
every run. Exits 1 if any run fails, is not correct or is flagged.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]])
    args = p.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bad = False
    for name in workloads:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        shares = set()
        for k in range(args.runs):
            seed = args.first_seed + k
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                bad = True
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: not correct\n{proc.stderr}",
                      file=sys.stderr)
                bad = True
            shares.add((result["failed"] / result["attempted"]))
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        print(f"{name}: {args.runs} runs, failed share(s) "
              + ", ".join(f"{s:.6f}" for s in sorted(shares)))
        if len(shares) > 1:
            bad = True
        for m, bound in bounds.items():
            vs = values[m]
            if len(vs) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med
            flag = ""
            if m != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
                bad = True
            print(f"  {m:12s} median {med:.6g}  Q1 {q1:.6g}  Q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {bound}{flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
