import json

import pytest

from hallperm import certificates as certs
from hallperm.constructions import pointwise_stabilizer, symmetric, wreath_hall_pair
from hallperm.group import PermGroup
from hallperm.hall import hall_subgroups, sylow_tower
from hallperm.pronormal import (PronormalityFailure, PronormalityReport,
                                StrongPronormalityFailure, StrongPronormalityReport,
                                is_strongly_pronormal, pronormality_instance,
                                replay_pronormality_failure, replay_strong_pronormality_failure)
from hallperm.subgroup import is_conjugate

from conftest import perm


@pytest.fixture(scope="module")
def conjugacy_cert(sym5):
    a = PermGroup(5, [perm("(0 1 2)", 5)])
    b = PermGroup(5, [perm("(1 2 3)", 5)])
    witness = is_conjugate(sym5, a, b)
    return certs.conjugacy_witness_certificate(sym5, witness)


def test_round_trip_and_digest_stability(tmp_path, conjugacy_cert):
    path = certs.write_certificate(conjugacy_cert, tmp_path)
    loaded = certs.load_certificate(path)
    assert loaded["digest"] == conjugacy_cert["digest"]
    assert certs.certificate_digest(loaded) == loaded["digest"]
    # timestamp is excluded from the digest
    loaded["timestamp"] = "2000-01-01T00:00:00+00:00"
    assert certs.certificate_digest(loaded) == loaded["digest"]


def test_verify_conjugacy_witness(conjugacy_cert):
    ok, detail = certs.verify_certificate(conjugacy_cert)
    assert ok, detail


def test_tampering_is_detected(conjugacy_cert):
    tampered = json.loads(json.dumps(conjugacy_cert))
    tampered["payload"]["witness"] = "(0 1)"
    ok, detail = certs.verify_certificate(tampered)
    assert not ok
    assert "digest" in detail


def test_tampering_with_redigest_fails_replay(conjugacy_cert):
    tampered = json.loads(json.dumps(conjugacy_cert))
    tampered["payload"]["witness"] = "(3 4)"
    tampered["digest"] = certs.certificate_digest(tampered)
    ok, detail = certs.verify_certificate(tampered)
    assert not ok


def test_non_pronormality_certificate_roundtrip(psl27, tmp_path):
    u, v = hall_subgroups(psl27, {2, 3})
    pair = wreath_hall_pair(psl27, u, v, {2, 3}, 5)
    report = pronormality_instance(pair.wreath.group, pair.hall_first.group, pair.tau)
    cert = certs.non_pronormality_certificate(pair.wreath.group, report, pi={2, 3})
    ok, detail = certs.verify_certificate(cert)
    assert ok, detail
    path = certs.write_certificate(cert, tmp_path)
    ok, detail = certs.verify_certificate(certs.load_certificate(path))
    assert ok, detail


def test_non_strong_pronormality_certificate(sym5):
    handle = pointwise_stabilizer(5, 3)
    report = is_strongly_pronormal(sym5, handle.group)
    cert = certs.non_strong_pronormality_certificate(sym5, report)
    ok, detail = certs.verify_certificate(cert)
    assert ok, detail


def test_hall_classes_certificate(psl27):
    reps = hall_subgroups(psl27, {2, 3})
    cert = certs.hall_classes_certificate(psl27, {2, 3}, reps)
    ok, detail = certs.verify_certificate(cert)
    assert ok, detail
    # forging an extra conjugate class must fail replay
    forged = json.loads(json.dumps(cert))
    forged["payload"]["reps"].append(forged["payload"]["reps"][0])
    forged["payload"]["class_count"] = 3
    forged["digest"] = certs.certificate_digest(forged)
    ok, _ = certs.verify_certificate(forged)
    assert not ok


def test_sylow_tower_certificate():
    # alt:4 has the (3,2) tower through its normal Klein subgroup
    from hallperm.constructions import alternating
    a4 = alternating(4)
    tower = sylow_tower(a4, (3, 2))
    assert tower is not None
    cert = certs.sylow_tower_certificate(a4, tower)
    ok, detail = certs.verify_certificate(cert)
    assert ok, detail


def test_conjecture_finding_certificate(sym5):
    handle = pointwise_stabilizer(5, 3)
    report = is_strongly_pronormal(sym5, handle.group)
    inner = certs.non_strong_pronormality_certificate(sym5, report)
    finding = certs.conjecture_finding_certificate("9", inner)
    ok, detail = certs.verify_certificate(finding)
    assert ok, detail


def test_identical_invocations_share_digest(sym5):
    a = PermGroup(5, [perm("(0 1 2)", 5)])
    b = PermGroup(5, [perm("(1 2 3)", 5)])
    first = certs.conjugacy_witness_certificate(sym5, is_conjugate(sym5, a, b))
    second = certs.conjugacy_witness_certificate(sym5, is_conjugate(sym5, a, b))
    assert first["digest"] == second["digest"]
    assert certs.canonical_body(first) == certs.canonical_body(second)


# Forged failure claims, each one field away from a genuine failure, built
# through the certificate builders so that the digest is fresh.  With the
# membership checks left out, every forged claim would pass the rescan.
_D8 = ["(0 1)", "(0 2)(1 3)"]      # dihedral on {0..3}; degree 6 leaves 4 and 5 free
_S4 = ["(0 1 2 3)", "(0 1)"]
_CLAIMS = {
    "pronormal genuine": ("non-pronormality", 6, _D8, ["(0 1)"], None, "(0 2)(1 3)", True),
    "pronormal g outside G": ("non-pronormality", 6, _D8, ["(0 1)"], None, "(0 2)(1 3)(4 5)",
                              False),
    "pronormal subject outside G": ("non-pronormality", 6, _D8, ["(0 1)(4 5)"], None,
                                    "(0 2)(1 3)", False),
    "strong genuine": ("non-strong-pronormality", 6, _S4, ["(0 1)"], ["(0 1)"], "(0 2)(1 3)",
                       True),
    "strong g outside G": ("non-strong-pronormality", 4, ["(0 1)", "(2 3)"], ["(0 1)", "(2 3)"],
                           ["(0 1)(2 3)"], "(1 2)", False),
    "strong k outside subject": ("non-strong-pronormality", 6, _S4, ["(0 1)"], ["(0 1)(2 3)"],
                                 "(0 2)(1 3)", False),
    "strong subject outside G": ("non-strong-pronormality", 6, _S4, ["(0 1)", "(4 5)"],
                                 ["(0 1)"], "(0 2)(1 3)", False),
}


@pytest.mark.parametrize("claim", sorted(_CLAIMS))
def test_forged_failure_claims_are_rejected(claim):
    kind, degree, ambient, subject, k, g, genuine = _CLAIMS[claim]

    def group(gens):
        return PermGroup(degree, [perm(c, degree) for c in gens])

    ambient, subject, g = group(ambient), group(subject), perm(g, degree)
    moved = subject if k is None else group(k)
    joint = PermGroup(degree, subject.generators + tuple(x.conj(g) for x in moved.generators))
    if kind == "non-pronormality":
        failure = PronormalityFailure(g=g, joint=joint, mode="exhaustive", scanned=joint.order())
        report = PronormalityReport(subject, ambient, False, failure=failure)
        cert = certs.non_pronormality_certificate(ambient, report)
        replay = replay_pronormality_failure
    else:
        failure = StrongPronormalityFailure(k=moved, g=g, joint=joint, scanned=joint.order())
        report = StrongPronormalityReport(subject, ambient, False, failure=failure)
        cert = certs.non_strong_pronormality_certificate(ambient, report)
        replay = replay_strong_pronormality_failure
    assert certs.certificate_digest(cert) == cert["digest"]
    assert certs.verify_certificate(cert)[0] is genuine
    assert replay(report) is genuine
