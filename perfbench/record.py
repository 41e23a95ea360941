"""Record the reference outputs that the benchmark checks against.

    python3 perfbench/record.py

Writes perfbench/expected.json from the current sources: the `checked`
count of every catalog-sweep task, and the output digest of one pass of
each workload.  The catalog-sweep and pronormal-queries digests do not
depend on the seed; the wreath digests are recorded for seeds 0..31.
Re-record only when a change to the library is meant to change outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import run  # noqa: E402
from workloads import EXPECTED_PATH, WORKLOADS  # noqa: E402

RECORDED_SEEDS = 32


def first_pass(name, seed):
    """Records and failed op ids of one pass, checked against nothing recorded."""
    workdir = os.path.join(run.OUT_DIR, f"record-{name}-{os.getpid()}")
    try:
        workload = WORKLOADS[name](seed, workdir)
        tally = run._new_tally()
        records = {}
        run.run_pass(workload, tally, [], records)
        run._finish(workload, tally)
        return records, tally["failed_ids"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    expected = {}

    records, _ = first_pass("catalog-sweep", 0)
    bad = sorted(k for k, r in records.items() if r[1] or r[2] or r[3])
    if bad:
        raise SystemExit(f"catalog-sweep: violations, indeterminates or cap hits in {bad}")
    expected["catalog-sweep"] = {"digest": run.output_digest(records),
                                 "checked": {k: records[k][0] for k in sorted(records)}}
    print("catalog-sweep", sum(r[0] for r in records.values()), "checks", flush=True)

    records, failed = first_pass("pronormal-queries", 0)
    if failed:
        raise SystemExit(f"pronormal-queries: failed ops {sorted(failed)}")
    expected["pronormal-queries"] = {"digest": run.output_digest(records)}
    print("pronormal-queries", len(records), "instances", flush=True)

    for name in ("wreath-certify", "wreath-replay"):
        digests = {}
        for seed in range(RECORDED_SEEDS):
            records, failed = first_pass(name, seed)
            if failed:
                raise SystemExit(f"{name} seed {seed}: failed ops {sorted(failed)}")
            digests[str(seed)] = run.output_digest(records)
        expected[name] = {"digests": digests}
        print(name, len(digests), "seeds", flush=True)

    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
