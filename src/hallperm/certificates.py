"""Self-contained JSON certificates and their replay.

A certificate embeds everything a fresh process needs: the ambient group's
generators (plus its constructor spec for provenance), subgroup generators,
witness permutations in cycle notation, and a transcript of what was
exhaustively scanned.  Replay redoes exactly the transcript's scans and
nothing more.  The content digest excludes only the timestamp, so identical
invocations produce byte-identical certificates up to that field.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os

from .errors import GroupError, NotASubgroup, Caps, DEFAULT_CAPS
from .group import PermGroup, Permutation, group_over_blocks, subgroup_check
from .hall import PrimeSet, SylowTower, hall_subgroups, pi_part, is_pi_number
from .subgroup import ConjugacyWitness, Subgroup, is_conjugate
from .pronormal import replay_non_pronormality, replay_non_strong_pronormality

SCHEMA = "hall-pronormality-certificate/v1"

# the negative certificate kind each conjecture probe reports a finding with
PROBE_KINDS = {"9": "non-strong-pronormality", "11": "non-pronormality"}


def perm_payload(p: Permutation) -> str:
    return p.cycle_string()


def perm_from_payload(text: str, degree: int) -> Permutation:
    return Permutation.parse(text, degree)


def group_payload(group: PermGroup) -> dict:
    return {
        "spec": group.provenance,
        "degree": group.degree,
        "order": group.order(),
        "generators": [perm_payload(g) for g in group.generators],
    }


def rebuild_group(payload: dict, blocks=None) -> PermGroup:
    """The group a payload names, checked against the order it claims.

    blocks, a block system the certificate records, is only a hint: when it
    is one for the group, the order comes from group_over_blocks' bounded
    build, else from the plain build.  Either way it is the true order.
    """
    degree = payload["degree"]
    gens = [perm_from_payload(s, degree) for s in payload["generators"]]
    group = group_over_blocks(degree, gens, blocks, provenance=payload.get("spec"))
    if group.order() != payload["order"]:
        raise GroupError(f"rebuilt group has order {group.order()}, certificate says {payload['order']}")
    return group


def subgroup_payload(group: PermGroup) -> dict:
    return {"degree": group.degree, "order": group.order(),
            "generators": [perm_payload(g) for g in group.generators]}


def canonical_body(cert: dict) -> str:
    body = {k: v for k, v in cert.items() if k not in ("digest", "timestamp")}
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def certificate_digest(cert: dict) -> str:
    return hashlib.sha256(canonical_body(cert).encode("utf-8")).hexdigest()


def make_certificate(kind: str, group: PermGroup, payload: dict, transcript: dict,
                     pi=None) -> dict:
    cert = {
        "schema": SCHEMA,
        "kind": kind,
        "group": group_payload(group),
        "payload": payload,
        "transcript": transcript,
    }
    if pi is not None:
        cert["pi"] = sorted(pi)
    cert["digest"] = certificate_digest(cert)
    cert["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return cert


def write_certificate(cert: dict, out_dir) -> str:
    os.makedirs(out_dir, exist_ok=True)
    name = f"{cert['kind']}-{cert['digest'][:12]}.json"
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cert, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_certificate(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- builders ----------------------------------------------------------------


def conjugacy_witness_certificate(group, witness) -> dict:
    """Certificate of a ConjugacyWitness; NotASubgroup unless it lies in group.

    The witness object holds no ambient group, so membership of the witness
    element, source and target is checked here, before anything is written.
    """
    if not group.contains(witness.element):
        raise NotASubgroup(f"witness {witness.element.cycle_string()} is outside the ambient group")
    subgroup_check(group, witness.source)
    subgroup_check(group, witness.target)
    payload = {
        "source": subgroup_payload(witness.source),
        "target": subgroup_payload(witness.target),
        "witness": perm_payload(witness.element),
        "into": witness.into,
    }
    return make_certificate("conjugacy-witness", group, payload,
                            {"checked": "generator conjugates and orders"})


def non_pronormality_certificate(group, report, pi=None) -> dict:
    fail = report.failure
    joint_info = {
        "order": fail.joint.order(),
        "mode": fail.mode,
        "scanned": fail.scanned,
        "failing_block": fail.failing_block,
        "blocks": [list(b) for b in fail.joint.factors.blocks] if fail.joint.factors else None,
    }
    payload = {
        "subject": subgroup_payload(report.subject),
        "witness_g": perm_payload(fail.g),
        "joint": joint_info,
    }
    transcript = {
        "checked": ("every element of the joint" if fail.mode == "exhaustive"
                    else "every element of the failing block's joint component"),
        "scanned": fail.scanned,
        "coset_count": report.checked_coset_count,
    }
    return make_certificate("non-pronormality", group, payload, transcript, pi=pi)


def non_strong_pronormality_certificate(group, report, pi=None) -> dict:
    fail = report.failure
    payload = {
        "subject": subgroup_payload(report.subject),
        "k": subgroup_payload(fail.k),
        "witness_g": perm_payload(fail.g),
        "joint_order": fail.joint.order(),
    }
    transcript = {"checked": "every element of the joint", "scanned": fail.scanned,
                  "pair_count": report.checked_pair_count}
    return make_certificate("non-strong-pronormality", group, payload, transcript, pi=pi)


def hall_classes_certificate(group, pi, reps) -> dict:
    """Certificate of pi-Hall class reps; refuses a rep outside group or of the wrong order."""
    hall_order = pi_part(group.order(), pi)
    for r in reps:
        subgroup_check(group, r.group)
        if r.order() != hall_order:
            raise GroupError(f"a representative of order {r.order()} is not a pi-Hall subgroup")
    payload = {
        "hall_order": hall_order,
        "class_count": len(reps),
        "reps": [subgroup_payload(r.group) for r in reps],
    }
    return make_certificate("hall-classes", group, payload,
                            {"checked": "Sylow-tuple sweep with class partition"}, pi=pi)


def sylow_tower_certificate(group, tower) -> dict:
    """Certificate of a Sylow tower; refuses a subject outside group or a tower failing its check."""
    subgroup_check(group, tower.subject)
    tower.check()
    payload = {
        "subject": subgroup_payload(tower.subject),
        "complexion": list(tower.complexion),
        "series": [subgroup_payload(s.group) for s in tower.series],
    }
    return make_certificate("sylow-tower", group, payload,
                            {"checked": "normality of terms and factor orders"})


def conjecture_finding_certificate(conjecture_id: str, inner: dict) -> dict:
    cert = {
        "schema": SCHEMA,
        "kind": "conjecture-finding",
        "conjecture": conjecture_id,
        "inner": {k: v for k, v in inner.items() if k != "timestamp"},
        "group": inner["group"],
        "transcript": {"checked": "inner certificate replay"},
    }
    cert["digest"] = certificate_digest(cert)
    cert["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return cert


# -- replay ------------------------------------------------------------------


def verify_certificate(cert: dict, caps: Caps = DEFAULT_CAPS):
    """Replay a certificate; returns (ok, detail)."""
    try:
        if cert.get("schema") != SCHEMA:
            return False, f"unknown schema {cert.get('schema')!r}"
        if certificate_digest(cert) != cert.get("digest"):
            return False, "digest mismatch"
        kind = cert.get("kind")
        handler = _VERIFIERS.get(kind)
        if handler is None:
            return False, f"unknown kind {kind!r}"
        return handler(cert, caps)
    except Exception as exc:  # replay must never crash the verifier
        return False, f"replay error: {exc}"


def _rebuild_subgroup(parent: PermGroup, payload: dict) -> PermGroup:
    sub = rebuild_group(payload)
    subgroup_check(parent, sub)
    return sub


def _verify_conjugacy_witness(cert, caps):
    group = rebuild_group(cert["group"])
    payload = cert["payload"]
    source = _rebuild_subgroup(group, payload["source"])
    target = _rebuild_subgroup(group, payload["target"])
    witness = perm_from_payload(payload["witness"], group.degree)
    if not group.contains(witness):
        return False, "witness is outside the ambient group"
    ConjugacyWitness(witness, source, target, payload["into"])
    return True, "conjugacy witness replays"


def _verify_non_pronormality(cert, caps):
    payload = cert["payload"]
    joint = payload["joint"]
    blocks = joint.get("blocks")
    group = rebuild_group(cert["group"], blocks)
    if cert["transcript"].get("scanned") != joint.get("scanned"):
        return False, "the transcript and the joint record different scan counts"
    return replay_non_pronormality(group, rebuild_group(payload["subject"], blocks),
                                   perm_from_payload(payload["witness_g"], group.degree),
                                   joint["order"], blocks,
                                   (joint.get("mode"), joint.get("scanned"),
                                    joint.get("failing_block")), caps)


def _verify_non_strong_pronormality(cert, caps):
    group = rebuild_group(cert["group"])
    payload = cert["payload"]
    return replay_non_strong_pronormality(group, rebuild_group(payload["subject"]),
                                          rebuild_group(payload["k"]),
                                          perm_from_payload(payload["witness_g"], group.degree),
                                          payload["joint_order"], caps)


def _verify_hall_classes(cert, caps):
    group = rebuild_group(cert["group"])
    payload = cert["payload"]
    # a p off |G| changes neither the pi-part nor the Hall search, so it is
    # dropped before PrimeSet's trial division, which a forged large p would stall
    pi = PrimeSet(p for p in cert["pi"] if p < 2 or group.order() % p == 0)
    target = pi_part(group.order(), pi)
    if payload["hall_order"] != target:
        return False, "hall order mismatch"
    reps = [_rebuild_subgroup(group, p) for p in payload["reps"]]
    if len(reps) != payload["class_count"]:
        return False, "class count mismatch"
    for rep in reps:
        if rep.order() != target or not is_pi_number(rep.order(), pi):
            return False, "a representative is not a pi-Hall subgroup"
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if is_conjugate(group, reps[i], reps[j], caps) is not None:
                return False, "two representatives are conjugate"
    # completeness: the Hall search reaches every class; a cap hit raises
    # CapExceeded rather than passing an unchecked count
    if len(hall_subgroups(group, pi, caps)) != len(reps):
        return False, "the Hall search finds a different number of classes"
    return True, "representatives are pi-Hall, pairwise non-conjugate and exhaust the classes"


def _verify_sylow_tower(cert, caps):
    group = rebuild_group(cert["group"])
    payload = cert["payload"]
    subject = _rebuild_subgroup(group, payload["subject"])
    series = tuple(Subgroup(subject, rebuild_group(p)) for p in payload["series"])
    SylowTower(subject, tuple(payload["complexion"]), series).check()
    return True, "tower replays"


def _verify_conjecture_finding(cert, caps):
    inner = cert["inner"]
    kind = PROBE_KINDS.get(cert["conjecture"])
    if kind is None:
        return False, f"unknown conjecture {cert['conjecture']!r}"
    if inner.get("kind") != kind:
        return False, f"conjecture {cert['conjecture']} needs a {kind} certificate"
    if cert["group"] != inner.get("group"):
        return False, "outer group differs from the inner certificate's group"
    return verify_certificate(dict(inner), caps)


_VERIFIERS = {
    "conjugacy-witness": _verify_conjugacy_witness,
    "non-pronormality": _verify_non_pronormality,
    "non-strong-pronormality": _verify_non_strong_pronormality,
    "hall-classes": _verify_hall_classes,
    "sylow-tower": _verify_sylow_tower,
    "conjecture-finding": _verify_conjecture_finding,
}
