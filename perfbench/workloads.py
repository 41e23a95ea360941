"""The benchmark's workloads.

Each workload is built from a seed and hands out *passes*: a finite list of
(op id, op) pairs.  An op is one call into the library and returns
(ok, record): ok says whether its output passed the per-op check, and record
is the JSON-able outcome that feeds the output digest.  The timed loop runs
whole passes, so every run measures the same multiset of ops.

hallperm is imported inside the constructors, so that set-up time includes
the import.
"""

from __future__ import annotations

import functools
import json
import os
import random

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

CATALOG_MAX_ORDER = 60
RUNNERS = ("theorem1", "theorem2", "lemmas", "classical-pronormal", "towers", "probe9",
           "probe11")

PRONORMAL_SPECS = ("psl2:7", "psl2:8", "psl2:11", "psl2:16", "alt:6")
# example2 stabilizers: the smallest m in the n/2 < m < n-1 window.
STABILIZERS = ((7, 4), (8, 5))
COSETS_PER_SUBJECT = 12
WORD_LENGTH = 20

WREATH_BASE, WREATH_PI, WREATH_P = "psl2:7", frozenset({2, 3}), 5
WREATH_DECIDES = 30
WREATH_REPLAYS = 12


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def random_word(rng, gens, identity, length=WORD_LENGTH):
    g = identity
    for _ in range(length):
        g = g * rng.choice(gens)
    return g


class Workload:
    def finish(self):
        """Checks made after the timed loop; returns the op ids that fail them."""
        return set()


class CatalogSweep(Workload):
    """Every suite and probe runner on every catalog group up to an order.

    One op is run_group_task(runner, spec), which parses the group afresh,
    so per-group caches start cold.  The seed only shuffles the order.
    """

    name = "catalog-sweep"

    def __init__(self, seed, workdir, expected=None):
        from hallperm import suites
        from hallperm.catalog import build_catalog
        self._run_group_task = suites.run_group_task
        specs = [entry.name for entry in build_catalog(CATALOG_MAX_ORDER)]
        self.tasks = [(runner, spec) for spec in specs for runner in RUNNERS]
        self.rng = random.Random(seed)
        self.expected = (expected or {}).get("checked", {})

    def next_pass(self):
        tasks = list(self.tasks)
        self.rng.shuffle(tasks)
        return [(f"{runner} {spec}", functools.partial(self._op, runner, spec))
                for runner, spec in tasks]

    def _op(self, runner, spec):
        result = self._run_group_task(runner, spec)
        record = [result.checked, len(result.violations), len(result.indeterminates),
                  len(result.cap_hits), [c["digest"] for c in result.certificates]]
        ok = (result.ok and not result.cap_hits
              and result.checked == self.expected.get(f"{runner} {spec}"))
        return ok, record

class PronormalQueries(Workload):
    """Single pronormality instances for pronormal subjects of simple groups.

    An instance (G, H, g) depends only on the coset N_G(H)g, so each subject
    gets a fixed set of cosets (all of them, or COSETS_PER_SUBJECT spread
    evenly over the canonical transversal).  The seed draws g inside each
    coset, as a random word in N_G(H) times the coset representative, and
    shuffles the order; every seed therefore asks the same instances.
    """

    name = "pronormal-queries"

    def __init__(self, seed, workdir, expected=None):
        from hallperm.catalog import parse_group_spec
        from hallperm.constructions import pointwise_stabilizer
        from hallperm.group import right_transversal
        from hallperm.hall import hall_subgroups
        from hallperm.numth import prime_divisors
        from hallperm.pronormal import pronormality_instance
        from hallperm.subgroup import normalizer, sylow
        self._instance = pronormality_instance
        subjects = []
        for spec in PRONORMAL_SPECS:
            group = parse_group_spec(spec)
            primes = prime_divisors(group.order())
            for i, p in enumerate(primes):
                for q in primes[i + 1:]:
                    for k, rep in enumerate(hall_subgroups(group, {p, q})):
                        subjects.append((f"{spec} hall{p},{q}#{k}", group, rep.group))
            for p in primes:
                subjects.append((f"{spec} sylow{p}", group, sylow(group, p).group))
        for n, m in STABILIZERS:
            handle = pointwise_stabilizer(n, m)
            subjects.append((f"sym:{n} stab{m}", handle.parent, handle.group))
        self.instances = []
        for label, group, h in subjects:
            norm = normalizer(group, h).group
            reps = right_transversal(group, norm)
            count = min(len(reps), COSETS_PER_SUBJECT)
            for j in range(count):
                t = reps[j * len(reps) // count]
                self.instances.append((f"{label} {j}", group, h, norm, t))
        self.rng = random.Random(seed)

    def next_pass(self):
        ops = []
        for op_id, group, h, norm, t in self.instances:
            g = random_word(self.rng, norm.generators, group.identity) * t
            ops.append((op_id, functools.partial(self._op, group, h, g)))
        self.rng.shuffle(ops)
        return ops

    def _op(self, group, h, g):
        verdict = self._instance(group, h, g).verdict
        return verdict is True, [verdict]

class _WreathPair(Workload):
    """The theorem3 pair: G = psl2:7 wr Z_5 on 40 points, H a Hall {2,3}-subgroup."""

    def __init__(self, seed, workdir):
        from hallperm import certificates
        from hallperm.catalog import parse_group_spec
        from hallperm.constructions import wreath_hall_pair
        from hallperm.hall import hall_subgroups
        from hallperm.pronormal import pronormality_instance
        self.certs = certificates
        self._instance = pronormality_instance
        base = parse_group_spec(WREATH_BASE)
        u, v = hall_subgroups(base, WREATH_PI)[:2]
        pair = wreath_hall_pair(base, u, v, WREATH_PI, WREATH_P)
        self.group = pair.wreath.group
        self.subject = pair.hall_first.group
        self.rng = random.Random(seed)
        self.workdir = workdir

    def random_element(self):
        return random_word(self.rng, self.group.generators, self.group.identity)

    def certify(self, g):
        """Decide (G, H, g); a False verdict is certified and written to disk."""
        report = self._instance(self.group, self.subject, g)
        if report.verdict is not False:
            return report.verdict, None, None
        cert = self.certs.non_pronormality_certificate(self.group, report, pi=WREATH_PI)
        return False, cert, self.certs.write_certificate(cert, self.workdir)


class WreathCertify(_WreathPair):
    """Decide ops on the 40-point wreath pair; False verdicts are certified."""

    name = "wreath-certify"

    def __init__(self, seed, workdir, expected=None):
        super().__init__(seed, workdir)
        self.elements = [self.random_element() for _ in range(WREATH_DECIDES)]
        self.first = {}     # op id -> (verdict, digest) of the first pass
        self.paths = {}     # op id -> certificate path

    def next_pass(self):
        return [(i, functools.partial(self._op, i, g)) for i, g in enumerate(self.elements)]

    def _op(self, i, g):
        verdict, cert, path = self.certify(g)
        digest = cert["digest"] if cert else None
        ok = verdict is not None
        if cert is not None:
            on_disk = self.certs.load_certificate(path)
            ok = ok and on_disk["digest"] == digest == self.certs.certificate_digest(on_disk)
            self.paths[i] = path
        outcome = (verdict, digest)
        ok = ok and self.first.setdefault(i, outcome) == outcome
        return ok, [verdict, digest]

    def finish(self):
        """Replay every emitted certificate after reading it back from disk."""
        failed = set()
        for i, path in sorted(self.paths.items()):
            ok, _ = self.certs.verify_certificate(self.certs.load_certificate(path))
            if not ok:
                failed.add(i)
        return failed


class WreathReplay(_WreathPair):
    """Replay ops: load a non-pronormality certificate and verify it cold.

    Set-up decides seeded g until WREATH_REPLAYS distinct False verdicts
    have been certified and written; replay rebuilds G from the JSON.
    """

    name = "wreath-replay"

    def __init__(self, seed, workdir, expected=None):
        super().__init__(seed, workdir)
        self.paths = []
        seen = set()
        while len(self.paths) < WREATH_REPLAYS:
            _, cert, path = self.certify(self.random_element())
            if cert is not None and cert["digest"] not in seen:
                seen.add(cert["digest"])
                self.paths.append(path)

    def next_pass(self):
        return [(i, functools.partial(self._op, path)) for i, path in enumerate(self.paths)]

    def _op(self, path):
        cert = self.certs.load_certificate(path)
        ok, _ = self.certs.verify_certificate(cert)
        return ok, [cert["digest"], ok]

WORKLOADS = {w.name: w for w in (CatalogSweep, PronormalQueries, WreathCertify, WreathReplay)}
