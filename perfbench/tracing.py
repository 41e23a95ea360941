"""Spans and exact counters around hallperm's public entry points.

The library has no instrumentation of its own, so the traced run wraps
functions from outside: each listed module function, plus a few methods of
the permutation and group classes.  A wrapper is also bound under every
name that another hallperm module imported with ``from .x import name``,
so calls between modules are seen too.

A span is (name, start, end, parent index, op id).  Spans stay in memory
and are written out once, after the traced pass.  Hot methods (products,
inverses, conjugations, sifts) are counted but not spanned.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from collections import Counter

# Module -> public functions that get a span.  Pure arithmetic and
# payload helpers are left out: they are called millions of times and do no
# group-level work of their own.
SPANNED = {
    "group": ("group_from_elements", "right_cosets", "right_transversal", "normal_closure",
              "coset_action", "intersect_groups", "block_components", "decompose_blockwise",
              "attach_block_structure", "combine_blockwise"),
    "subgroup": ("is_normal", "normalizer", "sylow", "all_sylow_subgroups", "all_subgroups",
                 "subgroup_conjugacy_classes", "is_conjugate", "conjugate_into", "overgroups",
                 "element_conjugacy_classes", "centralizer"),
    "hall": ("is_hall_subgroup", "hall_subgroups", "classify", "all_normal_subgroups",
             "derived_subgroup", "is_solvable", "is_pi_separable", "sylow_tower",
             "towers_conjugacy_check"),
    "pronormal": ("find_conjugator_in", "pronormality_instance", "is_pronormal",
                  "is_strongly_pronormal", "pronormal_in_normal_closure",
                  "commuting_product_pronormality", "hall_factorization_pronormality",
                  "replay_pronormality_failure", "replay_strong_pronormality_failure"),
    "certificates": ("rebuild_group", "make_certificate", "write_certificate",
                     "load_certificate", "conjugacy_witness_certificate",
                     "non_pronormality_certificate", "non_strong_pronormality_certificate",
                     "hall_classes_certificate", "sylow_tower_certificate",
                     "conjecture_finding_certificate", "verify_certificate"),
    "constructions": ("symmetric", "alternating", "cyclic", "dihedral", "psl2", "sl2",
                      "sl2_subfield_embedding", "direct_product", "wreath_regular",
                      "wreath_hall_pair", "pointwise_stabilizer"),
    "catalog": ("build_catalog", "parse_group_spec"),
    "suites": ("run_group_task", "run_suite"),
}

# Entry points that answer from a per-group cache when they can.
CACHED = {
    "subgroup": ("normalizer", "sylow", "all_sylow_subgroups", "all_subgroups", "overgroups",
                 "element_conjugacy_classes"),
    "hall": ("hall_subgroups", "classify", "all_normal_subgroups", "is_solvable"),
}

_CERT_BUILDERS = ("conjugacy_witness_certificate", "non_pronormality_certificate",
                  "non_strong_pronormality_certificate", "hall_classes_certificate",
                  "sylow_tower_certificate", "conjecture_finding_certificate")
_TESTERS = ("pronormality_instance", "is_pronormal", "is_strongly_pronormal",
            "pronormal_in_normal_closure", "commuting_product_pronormality",
            "hall_factorization_pronormality")

# Counters that a cache hit must leave unchanged.
_WORK_COUNTERS = ("group.chain_builds", "group.enumerations")


class Tracer:
    """Records spans and exact counts while installed; op is the current op id."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, op id]
        self.counts = Counter()
        self.cache_calls = Counter()
        self.cache_hits = Counter()
        self.op = None
        self._stack = []
        self._patches = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, on_result=None, cached=False):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            if cached:
                before = [counts[c] for c in _WORK_COUNTERS]
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if cached:
                self.cache_calls[name] += 1
                if before == [counts[c] for c in _WORK_COUNTERS]:
                    self.cache_hits[name] += 1
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, key, fn, size=None):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if size is not None:
                counts[size] += len(result)
            return result

        counted.__wrapped__ = fn
        return counted

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement):
        """Bind replacement wherever a hallperm module holds original."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "hallperm" or mod_name.startswith("hallperm.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def _on_result(self, layer, name):
        counts = self.counts
        if (layer, name) == ("subgroup", "all_subgroups"):
            return lambda result: counts.update({"subgroup.subgroups_listed": len(result)})
        if (layer, name) == ("pronormal", "find_conjugator_in"):
            def scan(result):
                counts["pronormal.joint_elements_scanned"] += result[1]
                counts["pronormal.scan_hits"] += result[0] is not None
            return scan
        if (layer, name) == ("certificates", "write_certificate"):
            return lambda path: counts.update({"certificates.bytes_written": os.path.getsize(path)})
        if (layer, name) == ("suites", "run_group_task"):
            return lambda result: counts.update({"suites.checks": result.checked})
        return None

    def install(self):
        import importlib
        from hallperm.group import PermGroup, StabilizerChain
        from hallperm.perm import Permutation

        for key, method in (("perm.products", "__mul__"), ("perm.inverses", "__invert__"),
                            ("perm.conjugations", "conj")):
            self._set(Permutation, method,
                      self._counted(key, Permutation.__dict__[method]))
        self._set(StabilizerChain, "sift",
                  self._counted("group.sifts", StabilizerChain.__dict__["sift"]))
        self._set(StabilizerChain, "iter_elements",
                  self._counted("group.enumerations", StabilizerChain.__dict__["iter_elements"],
                                size="group.elements_enumerated"))
        build = StabilizerChain.__dict__["build"].__func__
        self._set(StabilizerChain, "build", classmethod(self._wrap(
            "group.chain_build", self._counted("group.chain_builds", build))))
        self._set(PermGroup, "elements",
                  self._wrap("group.elements", PermGroup.__dict__["elements"]))

        for layer, names in SPANNED.items():
            module = importlib.import_module(f"hallperm.{layer}")
            cached = CACHED.get(layer, ())
            for name in names:
                original = getattr(module, name)
                wrapped = self._wrap(f"{layer}.{name}", original,
                                     on_result=self._on_result(layer, name),
                                     cached=name in cached)
                self._rebind(original, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output ----------------------------------------------------------

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, round(start, 9), round(end, 9), parent, op]))
                fh.write("\n")

    def metrics(self, traced_s, untraced_s):
        """Per-layer metrics: wall times in s, exact counts, ratios."""
        spans = self.spans
        counts = self.counts
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time = Counter()
        for i, (name, start, end, _, _) in enumerate(spans):
            self_time[name.split(".", 1)[0]] += (end - start) - child_time[i]

        def covered(*names):
            """Wall time inside spans of these names, nested ones counted once."""
            wanted = set(names)
            total = 0.0
            for name, start, end, parent, _ in spans:
                if name not in wanted:
                    continue
                while parent >= 0 and spans[parent][0] not in wanted:
                    parent = spans[parent][3]
                if parent < 0:
                    total += end - start
            return total

        def calls(*names):
            wanted = set(names)
            return sum(1 for s in spans if s[0] in wanted)

        def hit_ratio(layer):
            names = [f"{layer}.{n}" for n in CACHED[layer]]
            total = sum(self.cache_calls[n] for n in names)
            return sum(self.cache_hits[n] for n in names) / total if total else 0.0

        testers = {f"pronormal.{n}" for n in _TESTERS}
        instances = sum(1 for name, _, _, parent, _ in spans
                        if name in testers and (parent < 0 or
                                                not spans[parent][0].startswith("pronormal.")))
        scans = calls("pronormal.find_conjugator_in")
        builders = [f"certificates.{n}" for n in _CERT_BUILDERS]
        return {
            "subgroup.all_subgroups_s": (covered("subgroup.all_subgroups"), "s"),
            "subgroup.all_subgroups_calls": (calls("subgroup.all_subgroups"), "count"),
            "subgroup.subgroups_listed": (counts["subgroup.subgroups_listed"], "count"),
            "subgroup.overgroups_s": (covered("subgroup.overgroups"), "s"),
            "subgroup.normalizer_s": (covered("subgroup.normalizer"), "s"),
            "subgroup.conjugacy_s": (covered("subgroup.is_conjugate", "subgroup.conjugate_into",
                                             "subgroup.subgroup_conjugacy_classes"), "s"),
            "subgroup.self_s": (float(self_time["subgroup"]), "s"),
            "subgroup.cache_hit_ratio": (hit_ratio("subgroup"), "ratio"),
            "hall.classify_calls": (calls("hall.classify"), "count"),
            "hall.classify_s": (covered("hall.classify"), "s"),
            "hall.normal_subgroups_s": (covered("hall.all_normal_subgroups"), "s"),
            "hall.self_s": (float(self_time["hall"]), "s"),
            "hall.cache_hit_ratio": (hit_ratio("hall"), "ratio"),
            "suites.self_s": (float(self_time["suites"]), "s"),
            "suites.checks": (counts["suites.checks"], "count"),
            "pronormal.instances": (instances, "count"),
            "pronormal.joint_scans": (scans, "count"),
            "pronormal.joint_elements_scanned": (counts["pronormal.joint_elements_scanned"],
                                                 "count"),
            "pronormal.scan_hit_ratio": (counts["pronormal.scan_hits"] / scans if scans else 0.0,
                                         "ratio"),
            "pronormal.find_conjugator_s": (covered("pronormal.find_conjugator_in"), "s"),
            "pronormal.self_s": (float(self_time["pronormal"]), "s"),
            "group.elements_enumerated": (counts["group.elements_enumerated"], "count"),
            "group.enumerate_s": (covered("group.elements") - _inside(spans, "group.elements",
                                                                      "group.chain_build"), "s"),
            "group.chain_builds": (counts["group.chain_builds"], "count"),
            "group.chain_build_s": (covered("group.chain_build"), "s"),
            "group.sifts": (counts["group.sifts"], "count"),
            "group.self_s": (float(self_time["group"]), "s"),
            "certificates.built": (calls(*builders), "count"),
            "certificates.bytes_written": (counts["certificates.bytes_written"], "count"),
            "certificates.build_s": (covered(*builders), "s"),
            "certificates.rebuild_s": (covered("certificates.rebuild_group"), "s"),
            "certificates.replay_s": (covered("certificates.verify_certificate"), "s"),
            "perm.products": (counts["perm.products"], "count"),
            "perm.inverses": (counts["perm.inverses"], "count"),
            "perm.conjugations": (counts["perm.conjugations"], "count"),
            "constructions.s": (covered(*(f"constructions.{n}" for n in SPANNED["constructions"]),
                                        *(f"catalog.{n}" for n in SPANNED["catalog"])), "s"),
            "trace.spans": (len(spans), "count"),
            "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
        }


def _inside(spans, outer, inner):
    """Time in `inner` spans whose nearest `outer` ancestor exists."""
    total = 0.0
    for name, start, end, parent, _ in spans:
        if name != inner:
            continue
        while parent >= 0 and spans[parent][0] != outer:
            parent = spans[parent][3]
        if parent >= 0:
            total += end - start
    return total
