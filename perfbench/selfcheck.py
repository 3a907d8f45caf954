#!/usr/bin/env python3
"""Self-check of the end-to-end benchmark at tiny sizes.

Run from the repository root:  python3 perfbench/selfcheck.py

It asserts that
  * every metric BENCHMARK.json names prints, with its unit, for every
    workload: the end-to-end set with --trace 0, the per-layer set with
    --trace 1, and every end-to-end value is non-zero;
  * a corrupted reference answer makes each workload fail (exit code 1,
    "correct": false);
  * two runs with one seed and a fixed operation count revoke the same nodes
    and report identical fault-injector statistics;
  * market-sim's unit costs match the recorded table for a recorded seed;
  * in a directory holding only BENCHMARK.json and perfbench/, the command
    exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

FAILURES = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def bench(workload, trace, *extra, seed=1, seconds=1, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stdout


def main():
    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    run.build()
    # tpch-interactive is runnable but not gated (see README.md); check it too.
    workloads = [w["name"] for w in spec["workloads"]] + ["tpch-interactive"]

    for workload in workloads:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, result, _ = bench(workload, trace, "--tiny")
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace={trace}: correct, exit 0")
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload} trace={trace}: result has exactly the contract's keys")
            metrics = result["metrics"]
            for m in spec[group]:
                got = metrics.get(m["name"])
                check(got is not None and got["unit"] == m["unit"]
                      and isinstance(got["value"], (int, float)),
                      f"{workload} trace={trace}: {m['name']} [{m['unit']}] printed")
                if group == "end_to_end" and got is not None:
                    check(got["value"] != 0, f"{workload}: {m['name']} is non-zero")
            check(set(metrics) == {m["name"] for m in spec[group]},
                  f"{workload} trace={trace}: no metric beyond BENCHMARK.json's {group}")

    for workload in workloads:
        code, result, _ = bench(workload, 0, "--tiny", "--ops", "4", "--corrupt-reference")
        check(code == 1 and result is not None and not result["correct"]
              and result["failed"] >= 1,
              f"{workload}: a corrupted reference fails the run")

    for workload in ("tpch-revocation", "batch-pagerank"):
        seen = []
        for _ in range(2):
            code, result, out = bench(workload, 1, "--tiny", "--ops", "6", seed=5)
            injected = [l for l in out.splitlines() if l.startswith("fault injector:")]
            revocations = result["metrics"]["cluster.revocations"]["value"] if result else None
            seen.append((code, revocations, injected))
        check(seen[0] == seen[1] and seen[0][0] == 0,
              f"{workload}: same seed, same revocations and injector stats {seen[0][1:]}")

    table = os.path.join(HERE, "reference", "market_sim_unit_costs.txt")
    with open(table) as f:
        recorded_seed = int(f.readline().split()[0])
    code, result, out = bench("market-sim", 0, "--ops", "2", seed=recorded_seed)
    check(code == 0 and "checked against the recorded values" in out,
          f"market-sim seed {recorded_seed}: unit costs match the recorded table")

    bare = os.path.join(ROOT, ".bench_out", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env_build = os.environ.pop("CARGO_TARGET_DIR", None)
    code, result, _ = bench("market-sim", 0, "--tiny", cwd=bare)
    if env_build is not None:
        os.environ["CARGO_TARGET_DIR"] = env_build
    check(code != 0 and result is None,
          "without the repository's sources the command fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(FAILURES)} check(s) failed" if FAILURES else "\nall checks passed")
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()
