#!/usr/bin/env python3
"""Records market-sim's Flint-Batch and Flint-Interactive unit costs per seed.

Run from the repository root:

    python3 perfbench/record_unit_costs.py [--seeds 64]

For seeds 0..N-1 it runs the driver's market-sim reference pass and writes
perfbench/reference/market_sim_unit_costs.txt, one "seed batch interactive"
line per seed with the values in exact hex. market-sim runs compare their
unit costs with this table, so re-record only when a change to selection or
simulation is meant to change them, and say so with the change.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

TABLE = os.path.join(HERE, "reference", "market_sim_unit_costs.txt")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=64)
    args = parser.parse_args()
    binary = run.build()
    lines = []
    for seed in range(args.seeds):
        out = subprocess.run([binary, "--workload", "market-sim", "--seed", str(seed),
                              "--print-unit-costs"], check=True, stdout=subprocess.PIPE,
                             text=True).stdout.strip().splitlines()[-1]
        if not out.startswith(f"{seed} "):
            sys.exit(f"unexpected output for seed {seed}: {out}")
        lines.append(out)
    os.makedirs(os.path.dirname(TABLE), exist_ok=True)
    with open(TABLE, "w") as f:
        f.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} seeds to {TABLE}")


if __name__ == "__main__":
    main()
