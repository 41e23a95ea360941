"""The acceptance gate: every criterion runs at its stated scale and
tolerance and prints one PASS/FAIL line.

Criteria 1-3 drive the CLI in subprocesses and collect the certificates it
writes; 4-9 run the catalog suites and probes in-process; 10 replays every
collected certificate through `verify` in a fresh process.

The PASS/FAIL lines bypass output capture, so any `pytest` invocation shows
them as the criteria finish.
"""

import contextlib
import subprocess
import sys
import time

import pytest

from conftest import blockwise_equivalence_instance, lattice_oracle

CLI = [sys.executable, "-m", "hallperm"]


@pytest.fixture
def criterion(capfd):
    """One PASS/FAIL line per criterion, written past pytest's capture."""
    @contextlib.contextmanager
    def _criterion(num, description):
        started = time.time()
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"ACCEPTANCE {num}: FAIL - {description} [{time.time() - started:.1f}s]",
                      flush=True)
            raise
        with capfd.disabled():
            print(f"ACCEPTANCE {num}: PASS - {description} [{time.time() - started:.1f}s]",
                  flush=True)
    return _criterion


@pytest.fixture(scope="session")
def cert_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance-certificates")


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


def test_criterion_1_hall_covering_scenario(cert_dir, criterion):
    with criterion(1, "sl2(16) satisfies E/C/D for {3,5}; its sl2(4) subgroup misses E"):
        out = run_cli("analyze", "--group", "psl2:16", "--pi", "3,5", "--out", str(cert_dir))
        assert out.returncode == 0, out.stderr
        assert "E_pi: true" in out.stdout
        assert "C_pi: true" in out.stdout
        assert "D_pi: true" in out.stdout
        assert "Hall classes: 1" in out.stdout
        assert "class 1: order 15" in out.stdout
        out = run_cli("example1", "--out", str(cert_dir))
        assert out.returncode == 0, out.stderr
        assert "E_pi: false" in out.stdout
        assert "reason: no subgroup of order 15" in out.stdout
        assert "scenario example1: PASS" in out.stdout


def test_criterion_2_stabilizer_scenario(cert_dir, criterion):
    with criterion(2, "pointwise stabilizers (5,3) and (7,4) are pronormal, not strongly"):
        for n, m in ((5, 3), (7, 4)):
            out = run_cli("example2", "--n", str(n), "--m", str(m), "--out", str(cert_dir))
            assert out.returncode == 0, out.stderr
            assert "pronormal: yes" in out.stdout
            assert "strongly pronormal: no" in out.stdout
            assert "failing pair" in out.stdout
            assert "scenario example2: PASS" in out.stdout


def test_criterion_3_wreath_counterexample(cert_dir, criterion):
    with criterion(3, "wreath Hall pair: H^tau = K, blockwise non-conjugate in the joint"):
        # prerequisite oracle: the base group has exactly 2 classes of
        # order-24 subgroups, by full-lattice brute force (conftest's join
        # search, not the library's enumerator)
        from hallperm.constructions import psl2
        from hallperm.subgroup import subgroup_conjugacy_classes
        base = psl2(7)
        order24 = [k for k in lattice_oracle(base) if k.order() == 24]
        classes = subgroup_conjugacy_classes(base, order24)
        assert len(classes) == 2

        out = run_cli("theorem3", "--base", "psl2:7", "--pi", "2,3", "--p", "5",
                      "--out", str(cert_dir))
        assert out.returncode == 0, out.stderr
        assert "degree 40 order 669139107840" in out.stdout
        assert "(= 168^5 * 5: verified)" in out.stdout
        assert "H^tau = K: verified" in out.stdout
        assert "not conjugate (blockwise" in out.stdout
        assert "H pronormal in G: no (witness tau)" in out.stdout
        assert "scenario theorem3: PASS" in out.stdout


def test_criterion_4_single_class_suite(criterion):
    with criterion(4, "order<=500 catalog: single-class Hall reps pronormal, overgroups stay single-class"):
        from hallperm.suites import run_suite
        result = run_suite("theorem2", 500)
        assert result.violations == []
        assert result.indeterminates == []
        # every overgroup of every Hall rep is checked: a list that drops one
        # lowers the count (54 groups of order <= 500)
        assert result.checked == 4126


def test_criterion_5_extension_and_quotient_suite(criterion):
    with criterion(5, "order<=500 catalog: HA single-class; Hall orders transfer; separability covers; quotients inherit"):
        from hallperm.suites import run_suite
        for name in ("theorem1", "lemmas"):
            result = run_suite(name, 500)
            assert result.violations == [], result.violations
            assert result.indeterminates == []


def test_criterion_6_classical_pronormality_suite(criterion):
    with criterion(6, "normal/maximal/Sylow subgroups pronormal; solvable Hall subgroups strongly pronormal"):
        from hallperm.suites import run_suite
        result = run_suite("classical-pronormal", 300)
        assert result.violations == [], result.violations
        assert result.indeterminates == []


def test_criterion_7_tower_conjugacy_suite(criterion):
    with criterion(7, "Hall subgroups sharing a tower complexion are conjugate across the catalog"):
        from hallperm.suites import run_suite
        result = run_suite("towers", 500)
        assert result.violations == []
        assert result.indeterminates == []


def test_criterion_8_oracle_equivalence(criterion):
    with criterion(8, "blockwise conjugacy == transversal search on 200 seeded instances; chain order == enumeration"):
        for seed in range(200):
            assert blockwise_equivalence_instance(seed), f"instance {seed} disagrees"
        from hallperm.catalog import build_catalog
        for entry in build_catalog(2000):
            assert len(entry.group.elements()) == entry.group.order(), entry.name


def test_criterion_9_conjecture_probes(cert_dir, criterion):
    with criterion(9, "probes 9 and 11 over the order<=300 catalog finish with no findings"):
        from hallperm import certificates as certs
        from hallperm.suites import run_probe
        for conjecture in ("9", "11"):
            result = run_probe(conjecture, 300)
            assert result.indeterminates == []
            # report-only: a finding fails this criterion only if its
            # certificate fails replay
            for finding in result.findings:
                ok, detail = certs.verify_certificate(finding["certificate"])
                assert ok, detail
                certs.write_certificate(finding["certificate"], cert_dir)
            assert result.findings == [] or all(
                certs.verify_certificate(f["certificate"])[0] for f in result.findings)


def test_criterion_10_certificate_replay(cert_dir, criterion):
    with criterion(10, "every emitted certificate replays under `verify` in a fresh process"):
        files = sorted(str(p) for p in cert_dir.glob("*.json"))
        assert files, "criteria 1-3 should have produced certificates"
        out = run_cli("verify", *files)
        assert out.returncode == 0, out.stdout + out.stderr
        assert out.stdout.count("OK ") == len(files)
        assert "FAIL" not in out.stdout
