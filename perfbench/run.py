#!/usr/bin/env python3
"""End-to-end benchmark for Flint: builds the driver and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload tpch-interactive --seed 1 --seconds 8 --trace 0

The driver (perfbench/src) is compiled with the repository's libraries into
$CARGO_TARGET_DIR (default .bench_build) on first use. With --trace 0 the last
line of output is a JSON object holding every end-to-end metric listed in
BENCHMARK.json; with --trace 1 the workload runs twice, untraced and then with
spans recorded, and the line holds every per-layer metric plus
obs.trace_overhead. The exit code is 0 only if every answer matched its
reference. See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tpch-interactive", "tpch-revocation", "batch-pagerank", "market-sim")
# The whole command must finish within 180 s; leave room for start-up.
DEADLINE_SECONDS = 170.0


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.abspath(os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                                        "perfbench"))


def build():
    """Configures (once) and builds the driver; returns the binary's path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    binary = os.path.join(out, "flint_perfbench")
    with open(os.path.join(out, "build.lock"), "w") as lock, \
            open(os.path.join(out, "build.log"), "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] +
                         generator)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", out, "-j", jobs])
        for step in steps:
            log.write("$ " + " ".join(step) + "\n")
            log.flush()
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                # A failed configure must not leave a cache that skips it next time.
                if step[1] == "-S" and os.path.exists(os.path.join(out, "CMakeCache.txt")):
                    os.remove(os.path.join(out, "CMakeCache.txt"))
                log.flush()
                with open(os.path.join(out, "build.log")) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed; see " + os.path.join(out, "build.log"))
    if not os.path.exists(binary):
        fail("build produced no binary")
    return binary


def run_driver(binary, args, trace, deadline):
    """Runs the driver once; echoes its report and returns its result JSON."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0"]
    if args.tiny:
        cmd.append("--tiny")
    if args.ops:
        cmd += ["--ops", str(args.ops)]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("driver did not finish in time")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"driver exited with {proc.returncode} and printed no result")
    if proc.returncode not in (0, 1):
        fail(f"driver exited with {proc.returncode}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Self-check options (perfbench/selfcheck.py).
    parser.add_argument("--tiny", action="store_true", help="tiny inputs")
    parser.add_argument("--ops", type=int, default=0, help="run exactly this many operations")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="alter the reference answers; the run must fail")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_SECONDS

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json in the current directory: {e}")
    binary = build()

    untraced = run_driver(binary, args, trace=False, deadline=deadline)
    results = [untraced]
    wanted = [m["name"] for m in spec["end_to_end"]]
    source = untraced
    if args.trace:
        traced = run_driver(binary, args, trace=True, deadline=deadline)
        results.append(traced)
        source = traced
        wanted = [m["name"] for m in spec["per_layer"]]
        per_op = [r["op_seconds"] / r["ops"] if r["ops"] else 0.0 for r in results]
        source["metrics"]["obs.trace_overhead"] = {
            "value": per_op[1] / per_op[0] - 1.0 if per_op[0] > 0 else 0.0, "unit": "ratio"}

    metrics = {}
    for name in wanted:
        if name not in source["metrics"]:
            fail(f"driver did not report metric {name}")
        metrics[name] = source["metrics"][name]
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
