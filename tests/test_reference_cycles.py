"""Caches hold nothing that refers back to their group, so reference
counting alone frees a suite task's group and everything computed on it."""

import gc

from hallperm import suites

# Catalog groups of order <= 60 whose tasks fill every cache kind, the
# coset actions of the lemmas quotients and of the Sylow towers included.
SPECS = ("sym:4", "alt:5", "dih:6", "product(sym:3,cyc:4)", "wreath(cyc:3,2)")


def test_suite_tasks_leave_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        for spec in SPECS:
            for runner in suites._GROUP_RUNNERS:
                suites.run_group_task(runner, spec)
                assert gc.collect() == 0, f"{runner} on {spec} left reference cycles"
    finally:
        gc.enable()
