"""Benchmark for hallperm: closed-loop workloads with per-op output checks.

Run from the repository root:

    python3 perfbench/run.py --workload catalog-sweep --seed 1 --seconds 15 --trace 0

One op is in flight at a time.  The loop runs whole passes of the
workload's seeded op list until --seconds have gone by and at least MIN_OPS
ops have run, so every run times the same ops.  With --trace 0 it prints
the end-to-end metrics.  With --trace 1 it runs a warm-up pass, then one
pass untraced and one pass traced, each on a fresh set-up (the pass size is
fixed, so counts repeat exactly), and prints the per-layer metrics.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_SAMPLES = 3
# Enough latency samples that at least 10 lie beyond p90.
MIN_OPS = 100


def machine():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version()}


def timed_setup(cls, seed, workdir, expected):
    """Import hallperm and build the workload's inputs; returns (seconds, workload)."""
    start = time.perf_counter()
    workload = cls(seed, workdir, expected.get(cls.name))
    return time.perf_counter() - start, workload


def run_pass(workload, tally, latencies, records, tracer=None):
    """Run one pass; per-op latencies in seconds, failures by op id."""
    for op_id, op in workload.next_pass():
        if tracer is not None:
            tracer.op = op_id
        start = time.perf_counter()
        try:
            ok, record = op()
        except Exception:  # an op that raises is a failed op, not a crashed run
            traceback.print_exc(file=sys.stderr)
            ok, record = False, ["error"]
        latencies.append(time.perf_counter() - start)
        tally["attempted"] += 1
        if not ok:
            tally["failed_ids"].add(op_id)
            tally["failed"] += 1
        records.setdefault(op_id, record)


def output_digest(records):
    items = sorted(((str(k), v) for k, v in records.items()))
    return hashlib.sha256(json.dumps(items, separators=(",", ":")).encode()).hexdigest()


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, -(-len(ordered) * q // 100) - 1))]


def setup_samples(args, first):
    """Median set-up time over fresh processes (this one included)."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hallperm", "__init__.py")):
        print(f"error: no hallperm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    from workloads import WORKLOADS, load_expected
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    expected = load_expected()

    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    try:
        setup_s, workload = timed_setup(WORKLOADS[args.workload], args.seed, workdir, expected)
        if args.setup_only:
            print(repr(setup_s))
            return 0
        if args.trace:
            return traced_run(args, workload, workdir, expected)
        return timed_run(args, workload, setup_s, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_digest(args, records, expected):
    """Compare the first pass's digest with the recorded one, if any."""
    digest = output_digest(records)
    entry = expected.get(args.workload, {})
    recorded = entry.get("digest") or entry.get("digests", {}).get(str(args.seed))
    if recorded is None:
        status = "no record for this seed"
    else:
        status = "recorded: " + ("match" if recorded == digest else f"MISMATCH {recorded}")
    print(f"output_digest {digest} ({status})")
    return recorded is None or recorded == digest


def report(args, tally, digest_ok, metrics):
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"failed_frac {tally['failed'] / tally['attempted']} ratio "
          f"({tally['failed']} of {tally['attempted']} ops)")
    print("machine " + json.dumps(machine(), sort_keys=True))
    result = {
        "correct": tally["failed"] == 0 and digest_ok,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _new_tally():
    return {"attempted": 0, "failed": 0, "failed_ids": set()}


def _finish(workload, tally):
    late = workload.finish() - tally["failed_ids"]
    tally["failed"] += len(late)
    tally["failed_ids"] |= late


def timed_run(args, workload, setup_s, expected):
    tally = _new_tally()
    latencies, records = [], {}
    passes = 0
    start = time.perf_counter()
    while True:
        run_pass(workload, tally, latencies, records)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and len(latencies) >= MIN_OPS:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _finish(workload, tally)
    digest_ok = check_digest(args, records, expected)
    setup_median = setup_samples(args, setup_s)
    n = len(latencies)
    print(f"workload {args.workload} seed {args.seed}: {n} ops in {passes} passes, "
          f"{elapsed:.3f} s; latency samples {n}, {n - int(n * 0.9)} beyond p90")
    metrics = {
        "setup_s": (setup_median, "s"),
        "ops_per_s": (n / elapsed, "1/s"),
        "op_p50_ms": (1000 * percentile(latencies, 50), "ms"),
        "op_p90_ms": (1000 * percentile(latencies, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return report(args, tally, digest_ok, metrics)


def traced_run(args, workload, workdir, expected):
    """A warm-up pass, then one untraced and one traced pass on fresh set-ups."""
    from tracing import Tracer
    tally = _new_tally()
    records = {}
    run_pass(workload, tally, [], records)
    _finish(workload, tally)
    digest_ok = check_digest(args, records, expected)

    def timed_pass(tracer=None):
        fresh = type(workload)(args.seed, workdir, expected.get(args.workload))
        fresh_records = {}
        start = time.perf_counter()
        run_pass(fresh, tally, [], fresh_records, tracer)
        elapsed = time.perf_counter() - start
        return fresh, fresh_records, elapsed

    untraced, untraced_records, untraced_s = timed_pass()
    _finish(untraced, tally)
    tracer = Tracer()
    with tracer.installed():
        traced, traced_records, traced_s = timed_pass(tracer)
    _finish(traced, tally)
    digest_ok = digest_ok and (output_digest(traced_records) == output_digest(untraced_records)
                               == output_digest(records))
    trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(trace_path)
    print(f"workload {args.workload} seed {args.seed}: traced pass of "
          f"{len(traced_records)} ops, {traced_s:.3f} s traced against {untraced_s:.3f} s "
          f"untraced; {len(tracer.spans)} spans written to {os.path.relpath(trace_path, ROOT)}")
    return report(args, tally, digest_ok, tracer.metrics(traced_s, untraced_s))


if __name__ == "__main__":
    sys.exit(main())
