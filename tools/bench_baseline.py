#!/usr/bin/env python3
"""Normalize and compare google-benchmark JSON output (stdlib only).

Usage:
  bench_baseline.py normalize <raw.json>
      Print a normalized baseline document to stdout: the host class the
      run came from (num_cpus from google-benchmark's context; build_type
      and compiler, which micro_engine stamps into that context from its
      build) and per-benchmark items/s and wall time in ns, rounded to 3
      significant digits. Everything else in the context (host name, date,
      CPU scaling, load) is dropped, so the committed BENCH_engine.json
      diffs only when performance or the host class moves.

  bench_baseline.py compare <baseline.json> <raw.json> [threshold]
      Compare a fresh run against the committed baseline. Exits 3 without
      comparing anything when the two runs come from different host classes
      (numbers from a 1-core host say nothing about a 4-core one). Otherwise
      prints one line per benchmark with the items/s ratio and exits 2 if
      any benchmark's items/s dropped by more than `threshold` (default
      0.25, i.e. 25%), 0 if none did. Intended for the warn-only --bench
      leg of check.sh.
"""

import json
import sys

_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
# The fields that make two runs comparable.
_HOST_KEYS = ("num_cpus", "build_type", "compiler")


def _sig3(x):
    return float(f"{x:.3g}")


def _load(path):
    with open(path) as f:
        return json.load(f)


def _iterations(raw):
    for b in raw.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) when repetitions are used.
        if b.get("run_type", "iteration") != "iteration":
            continue
        yield b


def _host(raw):
    context = raw.get("context", {})
    return {key: context.get(key) for key in _HOST_KEYS}


def normalize(raw):
    benchmarks = {}
    for b in _iterations(raw):
        entry = {"real_time_ns": _sig3(b["real_time"] * _NS.get(b.get("time_unit", "ns"), 1.0))}
        if "items_per_second" in b:
            entry["items_per_second"] = _sig3(b["items_per_second"])
        benchmarks[b["name"]] = entry
    return {"schema": 2, "host": _host(raw), "benchmarks": benchmarks}


def host_mismatch(baseline, raw):
    """Describes how the two runs' host classes differ; None when they match."""
    want = baseline.get("host") or {key: None for key in _HOST_KEYS}
    have = _host(raw)
    diffs = [f"{key} {want.get(key)!r} vs {have[key]!r}" for key in _HOST_KEYS
             if want.get(key) != have[key]]
    return ", ".join(diffs) if diffs else None


def compare(baseline, raw, threshold):
    current = normalize(raw)["benchmarks"]
    regressions = []
    for name, base in sorted(baseline.get("benchmarks", {}).items()):
        base_ips = base.get("items_per_second")
        cur_ips = current.get(name, {}).get("items_per_second")
        if not base_ips:
            continue
        if not cur_ips:
            print(f"  {name}: missing from current run")
            continue
        ratio = cur_ips / base_ips
        flag = ""
        if ratio < 1.0 - threshold:
            flag = f"  <-- regression (>{threshold:.0%} below baseline)"
            regressions.append(name)
        print(f"  {name}: {ratio:.2f}x baseline items/s{flag}")
    return regressions


def main(argv):
    if len(argv) >= 2 and argv[0] == "normalize":
        json.dump(normalize(_load(argv[1])), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    if len(argv) >= 3 and argv[0] == "compare":
        threshold = float(argv[3]) if len(argv) > 3 else 0.25
        baseline, raw = _load(argv[1]), _load(argv[2])
        mismatch = host_mismatch(baseline, raw)
        if mismatch:
            print(f"host-class mismatch (baseline vs this run: {mismatch}); "
                  "not comparing. Re-record the baseline on this host class "
                  "with tools/bench.sh.")
            return 3
        regressions = compare(baseline, raw, threshold)
        if regressions:
            print(f"{len(regressions)} benchmark(s) regressed beyond {threshold:.0%}")
            return 2
        return 0
    sys.stderr.write(__doc__)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
