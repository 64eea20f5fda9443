#!/usr/bin/env python3
"""Builds and runs the repo's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
perfbench package (perfbench/CMakeLists.txt, which compiles the library
sources under src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only rebuild what changed. The
benchmark binary's output is passed through, and its last line, one JSON object
with "correct", "attempted", "failed" and "metrics", is checked against
BENCHMARK.json before it is printed as the last line. Traced runs write
their spans to <build dir>/traces/. Any build or run failure exits
non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# serve_hot is not a workload of BENCHMARK.json (perfbench/NOTES.md,
# defect c) but runs the same way.
WORKLOADS = ("build", "serve_hot", "serve_churn", "serve_cluster")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        configure = subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=False)
        if configure.returncode != 0:
            fail("configure failed")
    compiled = subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench", "-j",
         "4"],
        stdout=sys.stderr, stderr=sys.stderr, check=False)
    if compiled.returncode != 0:
        fail("build failed")


def check_result(result, declared, trace):
    """Checks the result against BENCHMARK.json. An untraced run reports
    every end-to-end metric, each above 0. A traced run reports the
    layers its workload runs; every other declared layer metric reads 0
    (the "little / none" column of perfbench/NOTES.md)."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys differ from the contract")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    for name, metric in result["metrics"].items():
        if units.get(name) != metric.get("unit"):
            fail(f"metric {name} is not a declared {kind} metric with that unit")
    if trace:
        for name, unit in units.items():
            result["metrics"].setdefault(name, {"value": 0, "unit": unit})
        return
    missing = set(units) - set(result["metrics"])
    if missing:
        fail(f"end-to-end metrics not reported: {sorted(missing)}")
    for name, metric in result["metrics"].items():
        if not metric["value"] > 0:
            fail(f"end-to-end metric {name} is not above 0")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = (target if target.is_absolute() else root / target) / "perfbench"
    manifest = root / "BENCHMARK.json"
    if not manifest.is_file():
        fail("BENCHMARK.json not found at the repository root")
    declared = json.loads(manifest.read_text())

    build(root, build_dir)

    command = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        command += ["--trace-out", str(
            build_dir / "traces" / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        run = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"benchmark exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last output line is not JSON")
    check_result(result, declared, args.trace == "1")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
