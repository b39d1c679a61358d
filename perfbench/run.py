#!/usr/bin/env python3
"""Build and run one benchmark workload; print its report, then its result.

    python3 perfbench/run.py --workload mc_fig6 --seed 1 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a nubb source tree. The first run configures and
builds the benchmark package (perfbench/CMakeLists.txt: the nubb library,
the nubb_serve daemon and the driver) under $CARGO_TARGET_DIR, default
.bench_build. The last line of standard output is the result object:
correct / attempted / failed and the metrics BENCHMARK.json names
(end_to_end with --trace 0, per_layer with --trace 1). The line before it
is the full report, also saved under <build dir>/reports/. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout it runs in
    need not be a git repository)."""
    h = hashlib.sha256()
    paths = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "tools", "cmake", "perfbench"):
        paths += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for p in paths:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def build(build_dir, targets):
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs, "--target", *targets],
                   check=True, stdout=sys.stderr)


def stop_group(pgid):
    """Kill whatever is left of the driver's process group (a daemon the
    driver could not reap) and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_driver(build_dir, args):
    work_dir = build_dir / "run"
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(build_dir / "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_digest(),
           "--serve-exe", str(build_dir / "nubb" / "tools" / "nubb_serve"),
           "--work-dir", str(work_dir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    stop_group(proc.pid)
    if proc.returncode != 0:
        fail(f"driver exited with code {proc.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        fail("driver printed no report")
    return json.loads(lines[-1])


def select_metrics(spec, report, trace):
    section = "per_layer" if trace else "end_to_end"
    measured = report[section]
    metrics = {}
    for entry in spec[section]:
        name, unit = entry["name"], entry["unit"]
        if name not in measured:
            fail(f"{report['workload']} did not report {section} metric {name}")
        if measured[name]["unit"] != unit:
            fail(f"{name}: unit {measured[name]['unit']} differs from BENCHMARK.json's {unit}")
        metrics[name] = {"value": measured[name]["value"], "unit": unit}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="how long one run measures; default run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own self-tests")
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no nubb source tree at {ROOT}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    build_dir = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    build_dir = build_dir / "perfbench"

    try:
        if args.selftest:
            build(build_dir, ["perfbench_selftest"])
            sys.exit(subprocess.run([str(build_dir / "perfbench_selftest")]).returncode)
        workloads = [w["name"] for w in spec["workloads"]]
        if args.workload not in workloads:
            fail(f"--workload must be one of {', '.join(workloads)}")
        build(build_dir, ["perfbench_driver", "nubb_serve"])
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")

    report = run_driver(build_dir, args)
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": select_metrics(spec, report, args.trace == 1),
    }
    report["result"] = result
    reports = build_dir / "reports"
    reports.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (reports / name).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
