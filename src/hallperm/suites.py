"""Catalog-wide property suites and conjecture probes.

Suites assert instances of proven statements: a violation is either a
library bug or a falsified instance, and always comes with a replayable
certificate.  Probes target open questions: findings are certified and
reported but never fail the run.

Granularity is one task per catalog group (all pi subsets inside), which
keeps every per-group cache hot and makes parallel workers independent.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from dataclasses import dataclass, field
from . import certificates as certs
from .catalog import build_catalog, parse_group_spec
from .errors import CapExceeded, Caps, DEFAULT_CAPS
from .group import PermGroup, coset_action, inflate, intersect_groups
from .hall import (all_normal_subgroups, classify, hall_subgroups, is_pi_separable, is_solvable,
                   pi_part, sylow_tower, towers_conjugacy_check)
from .numth import prime_divisors
from .pronormal import (commuting_product_pronormality, hall_factorization_pronormality,
                        is_pronormal, is_strongly_pronormal, pronormal_in_normal_closure)
from .subgroup import _class_orbits, _rep_group, overgroups, sylow

SUITE_NAMES = ("theorem1", "theorem2", "lemmas", "classical-pronormal", "towers")
PROBE_IDS = tuple(certs.PROBE_KINDS)


@dataclass
class SuiteResult:
    name: str
    group_count: int = 0
    checked: int = 0
    violations: list = field(default_factory=list)
    cap_hits: list = field(default_factory=list)
    indeterminates: list = field(default_factory=list)
    findings: list = field(default_factory=list)
    certificates: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations and not self.indeterminates

    def merge(self, other: "SuiteResult"):
        self.group_count += other.group_count
        self.checked += other.checked
        self.violations += other.violations
        self.cap_hits += other.cap_hits
        self.indeterminates += other.indeterminates
        self.findings += other.findings
        self.certificates += other.certificates

    def summary_lines(self):
        lines = [f"suite {self.name}: {self.checked} checks over {self.group_count} groups "
                 f"in {self.elapsed:.1f}s"]
        lines.append(f"  violations: {len(self.violations)}")
        for v in self.violations:
            lines.append(f"    {v['group']} pi={v['pi']}: {v['detail']}")
        lines.append(f"  indeterminate: {len(self.indeterminates)}")
        for v in self.indeterminates:
            lines.append(f"    {v['group']} pi={v['pi']}: {v['detail']}")
        lines.append(f"  cap hits: {len(self.cap_hits)}")
        for v in self.cap_hits:
            lines.append(f"    {v['group']} pi={v['pi']}: {v['detail']}")
        if self.findings:
            lines.append(f"  findings: {len(self.findings)}")
            for f in self.findings:
                lines.append(f"    conjecture {f['conjecture']}: {f['group']} pi={f['pi']}")
        return lines


def pi_subsets(order: int):
    primes = prime_divisors(order)
    for r in range(len(primes) + 1):
        for combo in itertools.combinations(primes, r):
            yield frozenset(combo)


def _record(result, kind, group_name, pi, detail):
    entry = {"group": group_name, "pi": sorted(pi) if pi is not None else None, "detail": detail}
    getattr(result, kind).append(entry)


@contextlib.contextmanager
def _guard(result, group_name, pi):
    """Record CapExceeded instead of aborting the sweep."""
    try:
        yield
    except CapExceeded as exc:
        _record(result, "cap_hits", group_name, pi,
                f"{exc.cap_name} exceeded (needed {exc.needed})")


# -- individual suites -------------------------------------------------------


def _hall_pronormality_check(result, name, group, pi, verdict, caps):
    for rep in verdict.hall_class_reps:
        report = is_pronormal(group, rep.group, caps)
        result.checked += 1
        if report.verdict is False:
            cert = certs.non_pronormality_certificate(group, report, pi=pi)
            result.certificates.append(cert)
            _record(result, "violations", name, pi,
                    f"Hall rep of order {rep.order()} is not pronormal")
        elif report.verdict is None:
            _record(result, "indeterminates", name, pi, report.indeterminate_reason or "")


def _theorem2_group(result, name, group, caps):
    for pi in pi_subsets(group.order()):
        with _guard(result, name, pi):
            verdict = classify(group, pi, caps)
            if not verdict.satisfies_c:
                continue
            _hall_pronormality_check(result, name, group, pi, verdict, caps)
            hall = verdict.hall_class_reps[0]
            for over in overgroups(group, hall.group, caps):
                m = over.group
                result.checked += 1
                if m.order() == group.order():
                    continue
                if not classify(m, pi, caps).satisfies_c:
                    _record(result, "violations", name, pi,
                            f"overgroup of order {m.order()} fails the single-class property")


def _theorem1_group(result, name, group, caps):
    for pi in pi_subsets(group.order()):
        with _guard(result, name, pi):
            verdict = classify(group, pi, caps)
            if not verdict.satisfies_c:
                continue
            hall = verdict.hall_class_reps[0].group
            for normal in all_normal_subgroups(group, caps):
                a = normal.group
                result.checked += 1
                if a.order() == group.order():
                    continue
                product = PermGroup(group.degree, hall.generators + a.generators)
                meet = intersect_groups(hall, a, caps)
                if product.order() * meet.order() != hall.order() * a.order():
                    _record(result, "violations", name, pi,
                            "product HA is not the set product (library bug)")
                    continue
                if not classify(product, pi, caps).satisfies_c:
                    _record(result, "violations", name, pi,
                            f"HA of order {product.order()} fails the single-class property")


def _lemmas_group(result, name, group, caps):
    _product_parts_check(result, name, group, caps)
    normals = [n.group for n in all_normal_subgroups(group, caps)]
    simple = group.order() > 1 and len(normals) == 2
    for pi in pi_subsets(group.order()):
        with _guard(result, name, pi):
            verdict = classify(group, pi, caps)

            # separability forces the covering property
            separable = is_pi_separable(group, pi, caps)
            result.checked += 1
            if separable is not None and not verdict.satisfies_d:
                _record(result, "violations", name, pi,
                        "pi-separable group fails the covering property")

            if not verdict.satisfies_e:
                continue
            hall = verdict.hall_class_reps[0].group
            hall_pronormal = None
            if simple:
                _hall_pronormality_check(result, name, group, pi, verdict, caps)
            for a in normals:
                result.checked += 1
                # Hall order transfers to normal subgroups and quotients
                meet = intersect_groups(hall, a, caps)
                if meet.order() != pi_part(a.order(), pi):
                    _record(result, "violations", name, pi,
                            f"H∩A has order {meet.order()}, not the pi-part of |A|")
                hom, quotient = coset_action(group, a, caps)
                image = hom.image_subgroup(hall)
                if image.order() != pi_part(quotient.order(), pi):
                    _record(result, "violations", name, pi,
                            "HA/A does not have the quotient's pi-Hall order")
                # the single-class property passes to quotients
                if verdict.satisfies_c and not classify(quotient, pi, caps).satisfies_c:
                    _record(result, "violations", name, pi,
                            f"quotient by order-{a.order()} normal fails the single-class property")
                # pronormality passes through homomorphic images
                if hall_pronormal is None:
                    hall_pronormal = is_pronormal(group, hall, caps).verdict
                if hall_pronormal is True:
                    if is_pronormal(quotient, image, caps).verdict is not True:
                        _record(result, "violations", name, pi,
                                "image of a pronormal Hall subgroup is not pronormal")
                # Hall factorization instance: G = HA with H∩A pronormal in A
                if hall.order() * a.order() == group.order() * meet.order():
                    rep = hall_factorization_pronormality(group, a, hall, pi, caps)
                    result.checked += 1
                    if rep.hypotheses_ok:
                        if rep.holds is False:
                            _record(result, "violations", name, pi,
                                    "Hall factorization instance fails pronormality")
                        if rep.extra.get("series_ok") is False:
                            _record(result, "violations", name, pi,
                                    "normalizer series of H∩A is not a pi/pi'-series")


def _product_parts_check(result, name, group, caps):
    """Products of pronormal parts of commuting normal factors, on the
    catalog's direct-product members."""
    structure = group.factors
    if structure is None or structure.shift is not None or len(structure.blocks) < 2:
        return
    with _guard(result, name, None):
        degree = group.degree
        factor_groups = []
        parts = []
        for block, factor in zip(structure.blocks, structure.factor_groups):
            factor_groups.append(PermGroup(degree, tuple(
                inflate(g, block, degree) for g in factor.generators)))
            p = prime_divisors(factor.order())[0] if factor.order() > 1 else None
            if p is None:
                parts.append(PermGroup(degree, ()))
                continue
            syl = sylow(factor, p, caps).group
            parts.append(PermGroup(degree, tuple(
                inflate(g, block, degree) for g in syl.generators)))
        report = commuting_product_pronormality(group, factor_groups, parts, caps)
        result.checked += 1
        if not report.hypotheses_ok:
            _record(result, "violations", name, None,
                    f"product hypotheses unexpectedly fail: {report.hypothesis_failures}")
        elif report.holds is False:
            _record(result, "violations", name, None,
                    "product of pronormal Sylow parts is not pronormal")
        elif report.holds is None:
            _record(result, "indeterminates", name, None, "product check indeterminate")


def _classical_group(result, name, group, caps):
    with _guard(result, name, None):
        for normal in all_normal_subgroups(group, caps):
            result.checked += 1
            if is_pronormal(group, normal.group, caps).verdict is not True:
                _record(result, "violations", name, None,
                        f"normal subgroup of order {normal.order()} is not pronormal")
        for p in prime_divisors(group.order()):
            result.checked += 1
            if is_pronormal(group, sylow(group, p, caps).group, caps).verdict is not True:
                _record(result, "violations", name, None,
                        f"Sylow {p}-subgroup is not pronormal")
        for m in _maximal_subgroup_reps(group, caps):
            result.checked += 1
            if is_pronormal(group, m, caps).verdict is not True:
                _record(result, "violations", name, None,
                        f"maximal subgroup of order {m.order()} is not pronormal")
    if not is_solvable(group, caps):
        return
    for pi in pi_subsets(group.order()):
        with _guard(result, name, pi):
            verdict = classify(group, pi, caps)
            if not verdict.satisfies_c:
                _record(result, "violations", name, pi,
                        "solvable group misses the single-class Hall property")
                continue
            hall = verdict.hall_class_reps[0].group
            result.checked += 1
            if is_pronormal(group, hall, caps).verdict is not True:
                _record(result, "violations", name, pi,
                        "Hall subgroup of a solvable group is not pronormal")
            strong = is_strongly_pronormal(group, hall, caps)
            result.checked += 1
            if strong.verdict is False:
                cert = certs.non_strong_pronormality_certificate(group, strong, pi=pi)
                result.certificates.append(cert)
                _record(result, "violations", name, pi,
                        "Hall subgroup of a solvable group is not strongly pronormal")
            elif strong.verdict is None:
                _record(result, "indeterminates", name, pi, strong.indeterminate_reason or "")


def _maximal_subgroup_reps(group: PermGroup, caps: Caps):
    """One rep per class of maximal subgroups: the proper classes whose
    explored member M has no join short of G in _class_orbits.

    That loop joins M with every cyclic seed of prime-power order outside M,
    cut off past |G|/2 elements (past that a join is G), so a maximal M has
    no join short of G.  Conversely, if M < K < G, take x in K outside M:
    the prime-power parts of x are powers of x, so one of them, c, lies
    outside M, and the join <M, c> <= K < G is short of G.
    """
    index, classes = _class_orbits(group, None, caps)
    return [_rep_group(index, rep) for rep, _, maximal in classes if maximal]


def _towers_group(result, name, group, caps):
    for pi in pi_subsets(group.order()):
        with _guard(result, name, pi):
            report = towers_conjugacy_check(group, pi, caps)
            result.checked += 1
            if not report.ok:
                _record(result, "violations", name, pi,
                        f"non-conjugate Hall classes share a tower complexion: {report.violations}")
                # never silently ignored: certify the class list and the towers
                reps = hall_subgroups(group, pi, caps)
                result.certificates.append(certs.hall_classes_certificate(group, pi, reps))
                for complexion, i, j in report.violations:
                    for idx in (i, j):
                        tower = sylow_tower(reps[idx].group, complexion, caps)
                        if tower is not None:
                            result.certificates.append(
                                certs.sylow_tower_certificate(group, tower))


def _probe9_group(result, name, group, caps):
    for pi in pi_subsets(group.order()):
        with _guard(result, name, pi):
            verdict = classify(group, pi, caps)
            for rep in verdict.hall_class_reps:
                result.checked += 1
                pron = is_pronormal(group, rep.group, caps)
                if pron.verdict is None:
                    _record(result, "indeterminates", name, pi, pron.indeterminate_reason or "")
                    continue
                if pron.verdict is False:
                    continue
                strong = is_strongly_pronormal(group, rep.group, caps)
                if strong.verdict is None:
                    _record(result, "indeterminates", name, pi, strong.indeterminate_reason or "")
                elif strong.verdict is False:
                    inner = certs.non_strong_pronormality_certificate(group, strong, pi=pi)
                    finding = certs.conjecture_finding_certificate("9", inner)
                    result.certificates.append(finding)
                    result.findings.append({"conjecture": "9", "group": name,
                                            "pi": sorted(pi), "certificate": finding})


def _probe11_group(result, name, group, caps):
    for pi in pi_subsets(group.order()):
        with _guard(result, name, pi):
            verdict = classify(group, pi, caps)
            for rep in verdict.hall_class_reps:
                result.checked += 1
                report = pronormal_in_normal_closure(group, rep.group, caps)
                if report.verdict is None:
                    _record(result, "indeterminates", name, pi, report.indeterminate_reason or "")
                elif report.verdict is False:
                    inner = certs.non_pronormality_certificate(report.ambient, report, pi=pi)
                    finding = certs.conjecture_finding_certificate("11", inner)
                    result.certificates.append(finding)
                    result.findings.append({"conjecture": "11", "group": name,
                                            "pi": sorted(pi), "certificate": finding})


_GROUP_RUNNERS = {
    "theorem1": _theorem1_group,
    "theorem2": _theorem2_group,
    "lemmas": _lemmas_group,
    "classical-pronormal": _classical_group,
    "towers": _towers_group,
    "probe9": _probe9_group,
    "probe11": _probe11_group,
}


def run_group_task(task_name: str, spec: str, caps: Caps = DEFAULT_CAPS) -> SuiteResult:
    """Run one suite/probe on one catalog group (the parallel work unit)."""
    result = SuiteResult(name=task_name, group_count=1)
    group = parse_group_spec(spec)
    _GROUP_RUNNERS[task_name](result, spec, group, caps)
    return result


def _pool_task(args):
    task_name, spec, caps = args
    return run_group_task(task_name, spec, caps)


def run_suite(name: str, max_order: int, caps: Caps = DEFAULT_CAPS, jobs: int = 1) -> SuiteResult:
    if name not in _GROUP_RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('probe9', 'probe11')}")
    start = time.time()
    # spec names only: each task parses its group afresh, so no group and
    # none of its caches outlive its task
    tasks = [(name, entry.name, caps) for entry in build_catalog(max_order)]
    total = SuiteResult(name=name)
    if jobs > 1 and len(tasks) > 1:
        import multiprocessing
        with multiprocessing.Pool(jobs) as pool:
            partials = pool.map(_pool_task, tasks)
    else:
        partials = map(_pool_task, tasks)
    for partial in partials:
        total.merge(partial)
    total.elapsed = time.time() - start
    return total


def run_probe(conjecture: str, max_order: int, caps: Caps = DEFAULT_CAPS, jobs: int = 1) -> SuiteResult:
    if str(conjecture) not in PROBE_IDS:
        raise ValueError(f"unknown probe {conjecture!r}; known: {PROBE_IDS}")
    return run_suite(f"probe{conjecture}", max_order, caps, jobs)
