import json
import subprocess
import sys

CLI = [sys.executable, "-m", "hallperm"]


def run_cli(*args, cwd=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, cwd=cwd)


def test_analyze_psl27(tmp_path):
    out = run_cli("analyze", "--group", "psl2:7", "--pi", "2,3", "--out", str(tmp_path))
    assert out.returncode == 0, out.stderr
    assert "E_pi: true" in out.stdout
    assert "C_pi: false" in out.stdout
    assert "Hall classes: 2" in out.stdout
    assert "order 24" in out.stdout


def test_analyze_sym5_full_primes(tmp_path):
    out = run_cli("analyze", "--group", "sym:5", "--pi", "2,3,5", "--out", str(tmp_path))
    assert out.returncode == 0
    assert "class 1: order 120" in out.stdout


def test_analyze_without_hall_subgroups_certifies_none(tmp_path):
    out = run_cli("analyze", "--group", "alt:5", "--pi", "3,5", "--out", str(tmp_path))
    assert out.returncode == 0, out.stderr
    assert "E_pi: false" in out.stdout
    (cert_path,) = tmp_path.glob("*.json")
    cert = json.loads(cert_path.read_text())
    assert (cert["kind"], cert["payload"]["class_count"]) == ("hall-classes", 0)
    out = run_cli("verify", str(cert_path))
    assert out.returncode == 0, out.stdout
    assert out.stdout.startswith("OK")


def test_example1_certifies_both_verdicts(tmp_path):
    # sl2(16) has one {3,5}-Hall class; its sl2(4) has none, certified as class_count 0
    out = run_cli("example1", "--out", str(tmp_path))
    assert out.returncode == 0, out.stderr
    paths = sorted(tmp_path.glob("hall-classes-*.json"))
    counts = {json.loads(p.read_text())["payload"]["class_count"] for p in paths}
    assert (len(paths), counts) == (2, {0, 1})
    out = run_cli("verify", *[str(p) for p in paths])
    assert out.returncode == 0, out.stdout
    assert [line.split()[0] for line in out.stdout.splitlines()] == ["OK", "OK"]


def test_analyze_rejects_composite_pi(tmp_path):
    out = run_cli("analyze", "--group", "sym:5", "--pi", "4", "--out", str(tmp_path))
    assert out.returncode == 2
    assert "not prime" in out.stderr


def test_analyze_rejects_bad_spec(tmp_path):
    out = run_cli("analyze", "--group", "nope:3", "--pi", "2", "--out", str(tmp_path))
    assert out.returncode == 2


def test_usage_error_is_exit_2():
    out = run_cli("analyze")
    assert out.returncode == 2


def test_generator_file_ingestion(tmp_path):
    gens = tmp_path / "gens.txt"
    gens.write_text("# two generators of sym:4\ndegree 4\n(0 1)\n(0 1 2 3)\n")
    out = run_cli("analyze", "--group", f"file:{gens}", "--pi", "2", "--out", str(tmp_path))
    assert out.returncode == 0
    assert "order 24" in out.stdout
    assert "class 1: order 8" in out.stdout


def test_example2_boundary_is_informational(tmp_path):
    out = run_cli("example2", "--n", "5", "--m", "4", "--out", str(tmp_path))
    assert out.returncode == 0
    assert "informational" in out.stdout


def test_theorem3_rejects_p_in_pi(tmp_path):
    out = run_cli("theorem3", "--base", "psl2:7", "--pi", "2,3", "--p", "2",
                  "--out", str(tmp_path))
    assert out.returncode == 2


def test_theorem3_rejects_single_class_base(tmp_path):
    out = run_cli("theorem3", "--base", "sym:4", "--pi", "2", "--p", "5",
                  "--out", str(tmp_path))
    assert out.returncode == 2


def test_catalog_listing():
    out = run_cli("catalog", "--max-order", "30")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert any(line.startswith("cyc:2 ") for line in lines)
    assert all("order=" in line for line in lines)
    # deterministic: second invocation is byte-identical
    again = run_cli("catalog", "--max-order", "30")
    assert again.stdout == out.stdout


def test_suite_small_run(tmp_path):
    out = run_cli("suite", "towers", "--max-order", "24", "--out", str(tmp_path))
    assert out.returncode == 0
    assert "violations: 0" in out.stdout


def test_suite_rejects_unknown_name(tmp_path):
    out = run_cli("suite", "nonsense", "--out", str(tmp_path))
    assert out.returncode == 2


def test_probe_exit_zero(tmp_path):
    out = run_cli("probe", "9", "--max-order", "12", "--out", str(tmp_path))
    assert out.returncode == 0
    assert "no findings" in out.stdout


def test_verify_fails_on_tampered_file(tmp_path):
    out = run_cli("analyze", "--group", "sym:4", "--pi", "2", "--out", str(tmp_path))
    assert out.returncode == 0
    cert_path = next(tmp_path.glob("hall-classes-*.json"))
    cert = json.loads(cert_path.read_text())
    cert["payload"]["hall_order"] = 4
    cert_path.write_text(json.dumps(cert))
    out = run_cli("verify", str(cert_path))
    assert out.returncode == 1
    assert "FAIL" in out.stdout


def test_verify_ok_roundtrip(tmp_path):
    out = run_cli("analyze", "--group", "sym:4", "--pi", "2,3", "--out", str(tmp_path))
    assert out.returncode == 0
    certs = sorted(tmp_path.glob("*.json"))
    assert certs
    out = run_cli("verify", *[str(c) for c in certs])
    assert out.returncode == 0
    assert "OK" in out.stdout


def test_suite_empty_catalog_warns(tmp_path):
    out = run_cli("suite", "towers", "--max-order", "1", "--out", str(tmp_path))
    assert out.returncode == 0
    assert "warning: empty catalog" in out.stdout


def test_suite_parallel_jobs(tmp_path):
    out = run_cli("suite", "towers", "--max-order", "30", "--jobs", "2",
                  "--out", str(tmp_path))
    assert out.returncode == 0
    assert "violations: 0" in out.stdout


def test_cap_exceeded_is_exit_3(tmp_path):
    # Hall analysis of the big wreath product needs full enumeration
    out = run_cli("analyze", "--group", "wreath(psl2:7,5)", "--pi", "2,3",
                  "--out", str(tmp_path))
    assert out.returncode == 3
    assert "cap exceeded" in out.stderr


def test_env_override_max_order(tmp_path):
    import os
    env = dict(os.environ, HALLPERM_MAX_ORDER="1")
    out = subprocess.run(CLI + ["suite", "towers", "--out", str(tmp_path)],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert "warning: empty catalog" in out.stdout
