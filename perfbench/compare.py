#!/usr/bin/env python3
"""Compare benchmark reports of a base and a changed build.

    python3 perfbench/compare.py --base a1.json a2.json ... --change b1.json b2.json ...

Each file is a report that run.py saved under <build dir>/reports/. All
files must come from one workload and one trace mode, and their host blocks
must agree on every field but `commit` and `seed`; otherwise the comparison
is refused (exit 1), because numbers from different CPUs, compilers, flags,
SIMD paths or huge-page modes do not compare. For each metric of the
selected section the script prints both sides' median and quartiles and,
for end-to-end metrics, whether the change's median is worse than the
base's by more than the bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROVENANCE_ONLY = ("commit", "seed")


def host_key(report):
    return {k: v for k, v in report["host"].items() if k not in PROVENANCE_ONLY}


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q = statistics.quantiles(values, n=4)
    return med, q[0], q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()

    base = [json.loads(Path(p).read_text()) for p in args.base]
    change = [json.loads(Path(p).read_text()) for p in args.change]
    reports = base + change
    first = reports[0]
    for path, r in zip(args.base + args.change, reports):
        if (r["workload"], r["trace"]) != (first["workload"], first["trace"]):
            sys.exit(f"refused: {path} is {r['workload']} trace={r['trace']}, "
                     f"not {first['workload']} trace={first['trace']}")
        if host_key(r) != host_key(first):
            diff = {k: (host_key(first).get(k), v) for k, v in host_key(r).items()
                    if host_key(first).get(k) != v}
            sys.exit(f"refused: host block of {path} differs: {diff}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if first["trace"] else "end_to_end"
    entries = {m["name"]: m for m in spec[section]}
    print(f"{first['workload']} ({section}): {len(base)} base, {len(change)} change reports")
    print(f"{'metric':40} {'base median [q1, q3]':>34} {'change median [q1, q3]':>34} "
          f"{'ratio':>7}  verdict")
    regressed = False
    for name, entry in entries.items():
        a = [r[section][name]["value"] for r in base if name in r[section]]
        b = [r[section][name]["value"] for r in change if name in r[section]]
        if not a or not b:
            continue
        (ma, a1, a3), (mb, b1, b3) = summary(a), summary(b)
        ratio = mb / ma if ma else float("inf")
        verdict = ""
        if "bound" in entry:
            worse = (ma - mb) / ma if entry["better"] == "higher" else (mb - ma) / ma
            verdict = "REGRESSED" if worse > entry["bound"] else "within bound"
            regressed |= worse > entry["bound"]
        print(f"{name:40} {ma:12.5g} [{a1:9.4g}, {a3:9.4g}] {mb:12.5g} [{b1:9.4g}, {b3:9.4g}] "
              f"{ratio:7.3f}  {verdict}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
