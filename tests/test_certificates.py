import functools
import json
from types import SimpleNamespace

import pytest

from hallperm import certificates as certs
from hallperm.catalog import parse_group_spec
from hallperm.constructions import (alternating, pointwise_stabilizer, sl2, symmetric,
                                    wreath_hall_pair)
from hallperm.errors import CapExceeded, Caps, GroupError, NotASubgroup
from hallperm.group import PermGroup, trivial_group
from hallperm.hall import SylowTower, hall_subgroups, sylow_tower
from hallperm.pronormal import (PronormalityFailure, PronormalityReport,
                                StrongPronormalityFailure, StrongPronormalityReport,
                                is_strongly_pronormal, pronormality_instance,
                                replay_pronormality_failure, replay_strong_pronormality_failure)
from hallperm.subgroup import ConjugacyWitness, Subgroup, is_conjugate

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
    # psl2:7 has two classes; naming only the first is internally
    # consistent but incomplete, and must fail replay
    incomplete = certs.hall_classes_certificate(psl27, {2, 3}, reps[:1])
    assert incomplete["payload"]["class_count"] == 1
    ok, detail = certs.verify_certificate(incomplete)
    assert not ok
    assert "different number of classes" in detail
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


# Forged claims of the other kinds, each beside a genuine twin.  A factory
# returns the certificate (with a fresh digest) and the in-memory check of
# the same claim, or None where no in-memory object states it.
def _group(degree, gens):
    return PermGroup(degree, [perm(c, degree) for c in gens])


def _tower(ambient, subject, complexion, series, genuine):
    tower = SylowTower(subject, tuple(complexion), tuple(Subgroup(subject, s) for s in series))
    if genuine:
        return certs.sylow_tower_certificate(ambient, tower), tower.check
    # the builder runs tower.check, so a false tower is written without it
    with pytest.raises(GroupError):
        certs.sylow_tower_certificate(ambient, tower)
    payload = {"subject": certs.subgroup_payload(subject), "complexion": list(complexion),
               "series": [certs.subgroup_payload(s) for s in series]}
    return certs.make_certificate("sylow-tower", ambient, payload, {}), tower.check


def _s3_tower(complexion, genuine):
    s3 = symmetric(3)
    return _tower(s3, s3, complexion, [s3, _group(3, ["(0 1 2)"]), trivial_group(3)], genuine)


def _a5_tower(case):
    a5 = alternating(5)
    # A4 inside A5, through its normal Klein subgroup
    a4 = _group(5, ["(0 1 2)", "(0 1)(2 3)"])
    klein = _group(5, ["(0 1)(2 3)", "(0 2)(1 3)"])
    if case == "genuine":
        return _tower(a5, a4, [3, 2], [a4, klein, trivial_group(5)], True)
    if case == "outside":    # an A4 on other points heads the subject's series
        other = _group(5, ["(1 2 3)", "(1 2)(3 4)"])
        return _tower(a5, a4, [3, 2], [other, klein, trivial_group(5)], False)
    return _tower(a5, a5, [], [a5, trivial_group(5)], False)


def _witness(ambient, source, target, element, in_memory=True):
    degree = ambient.degree
    claim = SimpleNamespace(element=perm(element, degree), source=_group(degree, source),
                            target=_group(degree, target), into=False)
    # The builder refuses a witness outside the ambient group, so the claim
    # is certified over Sym(n) and the ambient group swapped in afterwards.
    cert = certs.conjugacy_witness_certificate(symmetric(degree), claim)
    cert["group"] = certs.group_payload(ambient)
    cert["digest"] = certs.certificate_digest(cert)
    # ConjugacyWitness carries no ambient group: only the certificate can
    # see a witness outside G
    return cert, in_memory and (lambda: ConjugacyWitness(claim.element, claim.source,
                                                         claim.target))


@pytest.mark.parametrize("source, target, element", [
    (["(0 1 2)"], ["(0 1 3)"], "(2 3)"),          # witness outside A5
    (["(0 1)"], ["(0 2)"], "(1 2 3)"),            # source and target outside A5
])
def test_conjugacy_witness_builder_rejects_outsiders(source, target, element):
    a5 = alternating(5)
    claim = SimpleNamespace(element=perm(element, 5), source=_group(5, source),
                            target=_group(5, target), into=False)
    with pytest.raises(NotASubgroup):
        certs.conjugacy_witness_certificate(a5, claim)


def test_hall_classes_builder_refuses_a_false_rep():
    a5 = alternating(5)
    # order 4 is the 2-part of 60, but (0 1) is odd
    outsider = Subgroup(a5, _group(5, ["(0 1)", "(2 3)"]))
    too_small = Subgroup(a5, _group(5, ["(0 1)(2 3)"]))
    with pytest.raises(NotASubgroup):
        certs.hall_classes_certificate(a5, {2}, [outsider])
    with pytest.raises(GroupError):
        certs.hall_classes_certificate(a5, {2}, [too_small])


def test_sylow_tower_builder_refuses_a_subject_outside_the_group():
    tower = sylow_tower(_group(5, ["(0 1)", "(0 1 2)"]), (2, 3))
    with pytest.raises(NotASubgroup):
        certs.sylow_tower_certificate(alternating(5), tower)


def _finding(conjecture, inner, outer_group=None):
    cert = certs.conjecture_finding_certificate(conjecture, inner)
    if outer_group is not None:
        cert["group"] = certs.group_payload(outer_group)
        cert["digest"] = certs.certificate_digest(cert)
    return cert, None


def _sym5_non_strong():
    report = is_strongly_pronormal(symmetric(5), pointwise_stabilizer(5, 3).group)
    return certs.non_strong_pronormality_certificate(report.ambient, report)


def _d8_non_pronormal():
    d8, h, g = _group(6, _D8), _group(6, ["(0 1)"]), perm("(0 2)(1 3)", 6)
    return certs.non_pronormality_certificate(d8, pronormality_instance(d8, h, g))


def _hall_classes(extra_conjugate):
    s3 = symmetric(3)
    reps = hall_subgroups(s3, {2})
    cert = certs.hall_classes_certificate(s3, {2}, reps)
    if extra_conjugate:
        cert["payload"]["reps"].append(certs.subgroup_payload(_group(3, ["(1 2)"])))
        cert["payload"]["class_count"] = 2
        cert["digest"] = certs.certificate_digest(cert)
    return cert, None


def _no_hall_classes(pi):
    return certs.hall_classes_certificate(alternating(5), pi, []), None


@functools.lru_cache(maxsize=None)
def _wreath_certificate_text():
    """The theorem3 certificate (g = tau, blockwise, failing at block 0), as JSON."""
    pi = frozenset({2, 3})
    base = parse_group_spec("psl2:7")
    u, v = hall_subgroups(base, pi)
    pair = wreath_hall_pair(base, u, v, pi, 5)
    report = pronormality_instance(pair.wreath.group, pair.hall_first.group, pair.tau)
    return json.dumps(certs.non_pronormality_certificate(pair.wreath.group, report, pi=pi))


def _edited_wreath_certificate(edit):
    """The theorem3 certificate edited in place, with a fresh digest."""
    cert = json.loads(_wreath_certificate_text())
    edit(cert)
    cert["digest"] = certs.certificate_digest(cert)
    return cert, None


def _wreath_forgery(edit):
    """The theorem3 certificate with its joint record edited and a fresh digest."""
    def edit_joint(cert):
        joint = cert["payload"]["joint"]
        edit(joint)
        cert["transcript"]["scanned"] = joint["scanned"]
    return _edited_wreath_certificate(edit_joint)


def _claim_order(part, order):
    """An edit that makes the certificate claim order for G ("group") or the subject."""
    def edit(cert):
        record = cert["group"] if part == "group" else cert["payload"]["subject"]
        record["order"] = order(record["order"])
    return edit


def _merge_first_blocks(joint):
    # block 0 holds V and U^tau = U: their join, psl2:7 x U on 16 points, has
    # 168 * 24 = 4032 elements and none conjugates V x U to U x U
    blocks = joint["blocks"]
    joint["blocks"] = [blocks[0] + blocks[1]] + blocks[2:]
    joint["scanned"] = 4032


def _interleave_blocks(joint):
    # the residue classes mod 5, with points 0 and 1 swapped: a partition
    # into 5 blocks of 8 that the shift does not map onto blocks
    blocks = [[pt for pt in range(40) if pt % 5 == j] for j in range(5)]
    blocks[0][0], blocks[1][0] = blocks[1][0], blocks[0][0]
    joint["blocks"] = blocks


_FORGERIES = {
    "tower sym:3 genuine": ("sylow-tower", lambda: _s3_tower([2, 3], True), True),
    "tower sym:3 complexion misses 3": ("sylow-tower", lambda: _s3_tower([2], False), False),
    "tower alt:5 genuine A4": ("sylow-tower", lambda: _a5_tower("genuine"), True),
    "tower alt:5 top term outside the subject": ("sylow-tower", lambda: _a5_tower("outside"),
                                                 False),
    "tower alt:5 empty complexion": ("sylow-tower", lambda: _a5_tower("empty"), False),
    "witness alt:5 genuine": ("conjugacy-witness", lambda: _witness(
        alternating(5), ["(0 1 2)"], ["(0 1 3)"], "(2 3 4)"), True),
    "witness outside G": ("conjugacy-witness", lambda: _witness(
        alternating(5), ["(0 1 2)"], ["(0 1 3)"], "(2 3)", in_memory=False), False),
    "witness sym:4 genuine": ("conjugacy-witness", lambda: _witness(
        symmetric(4), ["(0 1)"], ["(2 3)"], "(0 2)(1 3)"), True),
    "witness target not a conjugate": ("conjugacy-witness", lambda: _witness(
        symmetric(4), ["(0 1)"], ["(0 1)(2 3)"], "()"), False),
    "finding 9 genuine": ("conjecture-finding", lambda: _finding("9", _sym5_non_strong()), True),
    "finding 11 genuine": ("conjecture-finding", lambda: _finding("11", _d8_non_pronormal()),
                           True),
    "finding unknown id": ("conjecture-finding", lambda: _finding("42", _sym5_non_strong()),
                           False),
    "finding 11 wraps non-strong": ("conjecture-finding",
                                    lambda: _finding("11", _sym5_non_strong()), False),
    "finding 9 outer group swapped": ("conjecture-finding", lambda: _finding(
        "9", _sym5_non_strong(), symmetric(4)), False),
    "hall-classes sym:3 genuine": ("hall-classes", lambda: _hall_classes(False), True),
    "hall-classes sym:3 extra conjugate": ("hall-classes", lambda: _hall_classes(True), False),
    "hall-classes alt:5 {3,5} none": ("hall-classes", lambda: _no_hall_classes({3, 5}), True),
    "hall-classes alt:5 {2,3} none claimed": ("hall-classes", lambda: _no_hall_classes({2, 3}),
                                              False),
    "wreath genuine": ("non-pronormality", lambda: _wreath_forgery(lambda joint: None), True),
    # block 3 holds U and U, which are conjugate
    "wreath failing block 3": ("non-pronormality", lambda: _wreath_forgery(
        lambda joint: joint.update(failing_block=3)), False),
    "wreath scanned 1": ("non-pronormality", lambda: _wreath_forgery(
        lambda joint: joint.update(scanned=1)), False),
    "wreath block holds point 99": ("non-pronormality", lambda: _wreath_forgery(
        lambda joint: joint["blocks"][4].append(99)), False),
    "wreath duplicated block": ("non-pronormality", lambda: _wreath_forgery(
        lambda joint: joint["blocks"].append(joint["blocks"][0])), False),
    "wreath overlapping blocks": ("non-pronormality", lambda: _wreath_forgery(
        lambda joint: joint["blocks"][1].insert(0, 7)), False),
    # a coarser true partition keeps the claim true
    "wreath blocks 0 and 1 merged": ("non-pronormality",
                                     lambda: _wreath_forgery(_merge_first_blocks), True),
    # partitions the witness does not map onto blocks: H does not split over
    # the first, and over the second the recorded scan is that of the
    # natural blocks
    "wreath interleaved blocks": ("non-pronormality",
                                  lambda: _wreath_forgery(_interleave_blocks), False),
    "wreath blocks 0 and 1 merged, scan kept": ("non-pronormality", lambda: _wreath_forgery(
        lambda joint: joint.update(blocks=[joint["blocks"][0] + joint["blocks"][1]]
                                   + joint["blocks"][2:])), False),
    # orders the block bound could be fooled into accepting: the base
    # product's, and ones above the true order
    "wreath group order 168^5": ("non-pronormality", lambda: _edited_wreath_certificate(
        _claim_order("group", lambda order: 168 ** 5)), False),
    "wreath group order doubled": ("non-pronormality", lambda: _edited_wreath_certificate(
        _claim_order("group", lambda order: 2 * order)), False),
    "wreath subject order doubled": ("non-pronormality", lambda: _edited_wreath_certificate(
        _claim_order("subject", lambda order: 2 * order)), False),
}


@pytest.mark.parametrize("name", sorted(_FORGERIES))
def test_forged_certificates_fail_replay_and_in_memory_check(name):
    kind, factory, genuine = _FORGERIES[name]
    cert, in_memory = factory()
    assert cert["kind"] == kind
    assert certs.certificate_digest(cert) == cert["digest"]
    assert certs.verify_certificate(cert)[0] is genuine
    if not in_memory:
        return
    if genuine:
        in_memory()
    else:
        with pytest.raises(GroupError):
            in_memory()


def test_every_certificate_kind_has_a_forged_case():
    forged = {kind for kind, _, genuine in _FORGERIES.values() if not genuine}
    forged |= {claim[0] for claim in _CLAIMS.values() if not claim[-1]}
    assert forged >= set(certs._VERIFIERS)


def test_hall_classes_completeness_reports_cap(psl27):
    # one representative, so only the completeness sweep can hit the cap
    cert = certs.hall_classes_certificate(psl27, {2, 3}, hall_subgroups(psl27, {2, 3})[:1])
    with pytest.raises(CapExceeded):
        certs._verify_hall_classes(cert, Caps(enum_cap=100))
    ok, detail = certs.verify_certificate(cert, Caps(enum_cap=100))
    assert not ok
    assert "enum_cap=100 exceeded" in detail


# Digests of the certificates the scenario commands write, as produced
# before pronormality was decided on the normalizer coset.  example1 writes
# no negative certificate; its hall-classes certificate is pinned instead.
_PINNED_DIGESTS = {
    "example1 hall-classes": "41c4f2bf4c8a2387f02d0b040a5a2b88cf249e6449c280ba966c75fa7e678912",
    "example2 5 3 non-strong-pronormality":
        "da0a163110a0ae3288ca9fa7167939aaea672694e79f7f14de7cf976b549159a",
    "example2 7 4 non-strong-pronormality":
        "197997c2e90b2505b6bfe60b35d64a0dd7735ffe7d7bf57319661a70bc60a890",
    "theorem3 non-pronormality": "669a668844673d6b6da536f4a0e77e3300c5007f049f2cb6ef57d27a754dce2c",
}


def _scenario_certificate(name):
    if name == "example1 hall-classes":
        group = sl2(16)
        return certs.hall_classes_certificate(group, {3, 5}, hall_subgroups(group, {3, 5}))
    if name.startswith("example2"):
        n, m = (int(x) for x in name.split()[1:3])
        handle = pointwise_stabilizer(n, m)
        report = is_strongly_pronormal(handle.parent, handle.group)
        return certs.non_strong_pronormality_certificate(handle.parent, report)
    pi = frozenset({2, 3})
    base = parse_group_spec("psl2:7")
    u, v = hall_subgroups(base, pi)
    pair = wreath_hall_pair(base, u, v, pi, 5)
    report = pronormality_instance(pair.wreath.group, pair.hall_first.group, pair.tau)
    return certs.non_pronormality_certificate(pair.wreath.group, report, pi=pi)


@pytest.mark.parametrize("name", sorted(_PINNED_DIGESTS))
def test_scenario_certificate_digests_are_pinned(name):
    cert = _scenario_certificate(name)
    assert cert["digest"] == _PINNED_DIGESTS[name]
    assert certs.verify_certificate(cert)[0]


@pytest.mark.parametrize("name, reason", [
    ("wreath failing block 3", "rescan gives"),
    ("wreath scanned 1", "rescan gives"),
    ("wreath block holds point 99", "do not partition"),
    ("wreath duplicated block", "do not partition"),
    ("wreath overlapping blocks", "do not partition"),
    ("wreath interleaved blocks", "status capped"),
    ("wreath blocks 0 and 1 merged, scan kept", "rescan gives"),
    ("wreath group order 168^5", "rebuilt group has order"),
    ("wreath group order doubled", "rebuilt group has order"),
    ("wreath subject order doubled", "rebuilt group has order"),
])
def test_forged_wreath_records_are_rejected_by_name(name, reason):
    cert, _ = _FORGERIES[name][1]()
    ok, detail = certs.verify_certificate(cert)
    assert not ok
    assert reason in detail


def test_transcript_scan_count_must_match_the_joint():
    cert, _ = _wreath_forgery(lambda joint: None)
    cert["transcript"]["scanned"] = 1
    cert["digest"] = certs.certificate_digest(cert)
    ok, detail = certs.verify_certificate(cert)
    assert not ok
    assert "scan counts" in detail


def test_wreath_replay_builds_no_chain_on_the_whole_degree(monkeypatch):
    # G and H are rebuilt from the recorded blocks, the replay's split of H
    # reuses the component chains that H's rebuild made, and H^g's and the
    # joint's components are relabelled and grown from them: every chain
    # build happens inside group_over_blocks, and none on the whole degree
    from hallperm import pronormal
    from hallperm.group import StabilizerChain
    cert = json.loads(_wreath_certificate_text())
    builds = []
    inside = []
    build = StabilizerChain.build.__func__

    def counted(cls, degree, gens):
        chain = build(cls, degree, gens)
        builds.append((degree, chain, bool(inside)))
        return chain

    over_blocks = certs.group_over_blocks

    def rebuild(*args, **kwargs):
        inside.append(True)
        try:
            return over_blocks(*args, **kwargs)
        finally:
            inside.pop()

    splits = []
    attach = pronormal.attach_block_structure

    def split(group, *args):
        splits.append((len(builds), attach(group, *args)))
        return splits[-1][1]

    monkeypatch.setattr(StabilizerChain, "build", classmethod(counted))
    monkeypatch.setattr(certs, "group_over_blocks", rebuild)
    monkeypatch.setattr(pronormal, "attach_block_structure", split)
    assert certs.verify_certificate(cert)[0]
    assert builds and 40 not in {degree for degree, _, _ in builds}
    assert all(in_rebuild for _, _, in_rebuild in builds)
    made_before, split_h = splits[0]
    rebuilt = [chain for _, chain, _ in builds[:made_before]]
    for component in split_h.factors.factor_groups:
        assert any(component._chain is chain for chain in rebuilt)


@functools.lru_cache(maxsize=None)
def _wreath_replay_certificate_texts(count=12, seed=1, length=20):
    """count distinct theorem3 non-pronormality certificates, as JSON: the
    False verdicts of pronormality_instance on seeded random words in G's
    generators, made as the wreath-replay benchmark makes them."""
    import random
    pi = frozenset({2, 3})
    base = parse_group_spec("psl2:7")
    u, v = hall_subgroups(base, pi)[:2]
    pair = wreath_hall_pair(base, u, v, pi, 5)
    group, h = pair.wreath.group, pair.hall_first.group
    rng = random.Random(seed)
    texts = {}
    while len(texts) < count:
        g = group.identity
        for _ in range(length):
            g = g * rng.choice(group.generators)
        report = pronormality_instance(group, h, g)
        if report.verdict is False:
            cert = certs.non_pronormality_certificate(group, report, pi=pi)
            texts.setdefault(cert["digest"], json.dumps(cert))
    return tuple(texts.values())


def test_wreath_replay_works_at_block_size(monkeypatch):
    # H = V x U^4 is split with no whole-degree chain, so a replay assembles
    # at most one 40-point chain, G's, and adds at most its 4 generators to
    # it; before H's rebuild was split from its blocks it was 2 and 19
    from hallperm.group import StabilizerChain
    texts = _wreath_replay_certificate_texts()
    assert len(texts) == 12
    direct_product = StabilizerChain.direct_product.__func__
    add_generator = StabilizerChain.add_generator
    counts = {"direct_product": 0, "add_generator": 0}

    def counted_product(cls, degree, blocks, chains):
        counts["direct_product"] += degree == 40
        return direct_product(cls, degree, blocks, chains)

    def counted_add(chain, g, bound=None):
        counts["add_generator"] += chain.degree == 40
        return add_generator(chain, g, bound)

    monkeypatch.setattr(StabilizerChain, "direct_product", classmethod(counted_product))
    monkeypatch.setattr(StabilizerChain, "add_generator", counted_add)
    for text in texts:
        counts.update(direct_product=0, add_generator=0)
        assert certs.verify_certificate(json.loads(text))[0]
        assert counts["direct_product"] <= 1 and counts["add_generator"] <= 4, counts


def test_warm_wreath_decides_reuse_the_block_factors(monkeypatch):
    # a joint component that fills its block is G's factor there, the base
    # psl2:7, whose element list is built once; a warm pass of the 30 seeded
    # decides of the wreath-certify benchmark enumerates only the 24-element
    # components of H^g it scans against, and sifts 733 times.  Grown to
    # their ends and enumerated afresh, the components took 3,042 sifts and
    # 4,992 elements
    import random
    from hallperm.group import StabilizerChain
    pi = frozenset({2, 3})
    base = parse_group_spec("psl2:7")
    u, v = hall_subgroups(base, pi)[:2]
    pair = wreath_hall_pair(base, u, v, pi, 5)
    group, h = pair.wreath.group, pair.hall_first.group
    rng = random.Random(1)
    witnesses = []
    for _ in range(30):
        g = group.identity
        for _ in range(20):
            g = g * rng.choice(group.generators)
        witnesses.append(g)
    sift, iter_elements = StabilizerChain.sift, StabilizerChain.iter_elements
    sifts, enumerated = [], []

    def counted_sift(chain, p, start=0):
        sifts.append(chain.degree)
        return sift(chain, p, start)

    def counted_elements(chain):
        elements = iter_elements(chain)
        enumerated.append(len(elements))
        return elements

    monkeypatch.setattr(StabilizerChain, "sift", counted_sift)
    monkeypatch.setattr(StabilizerChain, "iter_elements", counted_elements)
    digests = []
    for _ in range(2):
        sifts.clear()
        enumerated.clear()
        for g in witnesses:
            report = pronormality_instance(group, h, g)
            if report.verdict is False:
                digests.append(certs.non_pronormality_certificate(group, report, pi=pi)["digest"])
    assert digests[:len(digests) // 2] == digests[len(digests) // 2:] and len(digests) == 52
    assert set(enumerated) == {24} and sum(enumerated) == 624
    assert len(sifts) == 733


def _forge_sym3_hall_classes(edit):
    """The genuine sym:3, pi = {2} hall-classes certificate, edited and re-digested."""
    cert, _ = _hall_classes(False)
    edit(cert)
    cert["digest"] = certs.certificate_digest(cert)
    return cert


_ENVELOPE_AND_HALL_FORGERIES = {
    "unknown schema": (lambda cert: cert.update(schema="hall-pronormality-certificate/v0"),
                       "unknown schema 'hall-pronormality-certificate/v0'"),
    "unknown kind": (lambda cert: cert.update(kind="sylow-ladder"), "unknown kind 'sylow-ladder'"),
    "wrong hall_order": (lambda cert: cert["payload"].update(hall_order=6), "hall order mismatch"),
    "wrong class_count": (lambda cert: cert["payload"].update(class_count=2),
                          "class count mismatch"),
    # <(0 1 2)> lies in sym:3 but has order 3, not the {2}-part 2
    "rep not a pi-Hall subgroup": (lambda cert: cert["payload"].update(
        reps=[certs.subgroup_payload(_group(3, ["(0 1 2)"]))]),
        "a representative is not a pi-Hall subgroup"),
    # pi is read as a PrimeSet: p = 1 or -1 would make the p-part loops run forever
    "pi = {1}": (lambda cert: cert.update(pi=[1]), "replay error: 1 is not prime"),
    "pi = {-1}": (lambda cert: cert.update(pi=[-1]), "replay error: -1 is not prime"),
    # 4 and the Mersenne prime 2**89 - 1 do not divide |sym:3| = 6, so they are
    # dropped unchecked: {4} and {2**89 - 1} leave pi empty
    "pi = {4}": (lambda cert: cert.update(pi=[4]), "hall order mismatch"),
    "pi = {2**89 - 1}": (lambda cert: cert.update(pi=[2**89 - 1]), "hall order mismatch"),
}


@pytest.mark.parametrize("name", sorted(_ENVELOPE_AND_HALL_FORGERIES))
def test_forged_envelopes_and_hall_classes_are_rejected_by_name(name):
    edit, reason = _ENVELOPE_AND_HALL_FORGERIES[name]
    assert certs.verify_certificate(_forge_sym3_hall_classes(lambda cert: None)) == (
        True, "representatives are pi-Hall, pairwise non-conjugate and exhaust the classes")
    assert certs.verify_certificate(_forge_sym3_hall_classes(edit)) == (False, reason)


def test_a_large_prime_off_the_group_order_replays_without_a_primality_test():
    # 2**89 - 1 is prime but divides no |G|, so {2, 2**89 - 1} names the same Hall
    # subgroups of sym:3 as {2}; trial division of it would take ~10**13 steps
    cert = _forge_sym3_hall_classes(lambda cert: cert.update(pi=[2, 2**89 - 1]))
    assert certs.verify_certificate(cert) == (
        True, "representatives are pi-Hall, pairwise non-conjugate and exhaust the classes")
