#!/usr/bin/env python3
"""Steadiness check: run each workload once per seed and summarise.

    python3 perfbench/steady.py --seeds 1-10
    python3 perfbench/steady.py --workloads lerch em2d --seeds 11,12,13 --seconds 20

Runs ``run.py`` sequentially (never two at once, so runs do not compete
for the CPU) and prints, per workload and end-to-end metric, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the quartile
spread as a share of the median, next to a third of the metric's bound
from BENCHMARK.json.  The share of failed operations must be the same in
every run; it is printed per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10 or 3,7,11")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)

    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            ) + f", failed {result['failed']}/{result['attempted']}", flush=True)

        print(f"\n{workload}: {len(runs)} runs, failed shares "
              f"{sorted({r['failed'] / r['attempted'] for r in runs})}, "
              f"correct {all(r['correct'] for r in runs)}")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound/3':>8s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bound / 3 else "  <-- too wide"
            print(f"  {name:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {bound / 3:8.3f}{flag}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
