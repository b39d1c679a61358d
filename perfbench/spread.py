#!/usr/bin/env python3
"""Run one workload on several seeds and report each end-to-end metric's
median and run-to-run spread: (q3 - q1) / median over the runs, with the
quartiles of statistics.quantiles(values, n=4), next to the metric's bound
from BENCHMARK.json.

    python3 perfbench/spread.py --workload mc_fig6 --runs 10 [--first-seed 1]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                              "--workload", args.workload, "--seed", str(seed),
                              "--trace", str(args.trace)],
                             cwd=ROOT, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect ({result['failed']} failed)", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"{'metric':40} {'median':>14} {'spread':>8} {'bound':>6}  ok")
    for name, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(name)
        ok = "" if bound is None else ("yes" if spread < bound / 3 else "NO")
        print(f"{name:40} {med:14.6g} {spread:8.4f} {bound if bound else '':>6}  {ok}")
        print(json.dumps({"metric": name, "values": v}), file=sys.stderr)


if __name__ == "__main__":
    main()
