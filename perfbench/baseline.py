"""Record a baseline: every metric of every workload, for two seeds.

    python3 perfbench/baseline.py --commit <id>

Runs run.py once with --trace 0 and once with --trace 1 per workload, for
the default seed and one held-out seed, with BENCHMARK.json's run_seconds,
and stores each result line in perfbench/baseline.json with the machine it
ran on, so results can be compared across machines.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from run import machine  # noqa: E402

SEEDS = (1, 7)    # run.py's default seed, then a held-out seed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commit", required=True, help="the commit the sources come from")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    results = []
    for name in (w["name"] for w in bench["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                proc = subprocess.run(
                    [sys.executable, os.path.join("perfbench", "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                results.append({"workload": name, "seed": seed, "trace": trace,
                                "machine": machine(), "result": result})
                print(name, seed, trace, "correct" if result["correct"] else "INCORRECT",
                      flush=True)
    with open(os.path.join(BENCH_DIR, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump({"commit": args.commit, "seconds": seconds, "results": results},
                  fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
