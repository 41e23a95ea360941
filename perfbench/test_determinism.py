"""Exact counters of a traced run repeat across processes.

    python3 -m pytest perfbench

Each workload's first ops run traced in two fresh processes with different
hash seeds; every exact counter must agree.  The full-size check is two
`run.py --trace 1` runs on one seed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
COUNTERS = ("perm.products", "perm.inverses", "perm.conjugations", "group.sifts",
            "group.chain_builds", "group.elements_enumerated",
            "pronormal.joint_elements_scanned", "pronormal.joint_scans",
            "subgroup.subgroups_listed", "suites.checks", "certificates.built",
            "certificates.bytes_written", "trace.spans")
# Ops per workload: enough to reach every layer the workload stresses.
PREFIX = {"catalog-sweep": 40, "pronormal-queries": 120, "wreath-certify": 6,
          "wreath-replay": 3}


def traced_counts(name, seed, ops):
    """Exact counters after tracing set-up and the first `ops` ops."""
    sys.path[:0] = [SRC, BENCH_DIR]
    from tracing import Tracer
    from workloads import WORKLOADS
    workdir = os.path.join(BENCH_DIR, "out", f"test-{name}-{os.getpid()}")
    tracer = Tracer()
    try:
        with tracer.installed():
            workload = WORKLOADS[name](seed, workdir)
            for op_id, op in workload.next_pass()[:ops]:
                tracer.op = op_id
                op()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = tracer.metrics(1.0, 1.0)
    return {key: metrics[key][0] for key in COUNTERS}


def _child(name, seed, ops, hash_seed):
    code = ("import json, test_determinism as t; "
            f"print(json.dumps(t.traced_counts({name!r}, {seed}, {ops})))")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH_DIR, env=env,
                          capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(PREFIX))
def test_traced_counters_repeat(name):
    first = _child(name, 3, PREFIX[name], 1)
    second = _child(name, 3, PREFIX[name], 2)
    assert first == second
    assert first["perm.products"] > 0 and first["group.sifts"] > 0
