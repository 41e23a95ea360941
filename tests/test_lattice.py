"""Subgroup lattices, normal-subgroup lattices and overgroups against oracles.

Counts come from the literature; the divisor-filtered lattices and the
overgroup lists are checked against filters of the full lattice; and the
exact bytes of each output (generator tuples, element order, list order)
are pinned by sha256 digests recorded before the lattices were built on
element indices.
"""

import hashlib
import itertools
import json

import pytest

from hallperm.catalog import build_catalog, parse_group_spec
from hallperm.group import ElementIndex, right_transversal
from hallperm.hall import all_normal_subgroups, hall_subgroups, pi_part
from hallperm.numth import prime_divisors
from hallperm.subgroup import all_subgroups, overgroups

from conftest import closure_oracle


@pytest.mark.parametrize("spec, count", [
    ("sym:4", 30), ("alt:5", 59), ("sym:5", 156), ("alt:6", 501), ("wreath(alt:4,2)", 442),
])
def test_subgroup_counts_match_the_literature(spec, count):
    assert len(all_subgroups(parse_group_spec(spec))) == count


@pytest.mark.parametrize("spec, count", [("sym:4", 4), ("sym:5", 3), ("alt:5", 2)])
def test_normal_subgroup_counts_match_the_literature(spec, count):
    assert len(all_normal_subgroups(parse_group_spec(spec))) == count


def test_index_closures_match_brute_force():
    group = parse_group_spec("sym:4")
    index = ElementIndex(group)
    for sub in all_subgroups(group):
        k = sub.group
        key = index.key(k)
        reps, coset_of = index.right_cosets(key)
        assert [index.elements[r] for r in reps] == right_transversal(group, k)
        assert all(coset_of[x] == coset_of[reps[coset_of[x]]] for x in range(24))
        for t in index.elements:
            gens = k.generators + (t,)
            expected = {index.number[e] for e in closure_oracle(4, gens)}
            numbers = index.numbers(gens)
            assert index.join(key, numbers) == expected
            assert index.join(key, numbers, limit=len(expected)) == expected
            if len(expected) > len(key):
                assert index.join(key, numbers, limit=len(expected) - 1) is None


def _pi_sets(group):
    primes = prime_divisors(group.order())
    return [pi for r in range(len(primes) + 1) for pi in itertools.combinations(primes, r)]


def _small_catalog():
    return build_catalog(max_order=60)


def test_divisor_filtered_lattice_is_the_filtered_full_lattice():
    for entry in _small_catalog():
        group = entry.group
        n = group.order()
        full = [s.group.element_set() for s in all_subgroups(group)]
        for d in (d for d in range(1, n + 1) if n % d == 0):
            filtered = [s.group.element_set() for s in all_subgroups(group, order_divides=d)]
            assert filtered == [k for k in full if d % len(k) == 0], (entry.name, d)


def test_overgroups_are_the_lattice_above_each_hall_representative():
    for entry in _small_catalog():
        group = entry.group
        full = [s.group.element_set() for s in all_subgroups(group)]
        for pi in _pi_sets(group):
            for hall in hall_subgroups(group, pi):
                h = hall.group.element_set()
                above = [s.group.element_set() for s in overgroups(group, hall)]
                assert above == [k for k in full if h <= k], (entry.name, pi)


def _digest(subgroups):
    payload = [[[list(g) for g in s.group.generators], [list(e) for e in s.group.elements()]]
               for s in subgroups]
    return hashlib.sha256(json.dumps(payload, separators=(",", ":")).encode()).hexdigest()


_PINNED = {
    ("sym:4", "all_subgroups"):
        "6e62a0df9e96bd0477afc3a7ca5bb788f47145cd305629f97174cbdbc38341f3",
    ("sym:4", "all_normal_subgroups"):
        "aa066d792034c7b49975cafc4158fd448c6ae2c2df80add22a51d87ace579774",
    ("sym:4", "overgroups"):
        "0574fce0b1dff38694c94c8ad57ddc900420e1980dfe4942759b0202c6dfa7f5",
    ("sym:4", "divisor_lattices"):
        "68a93fc1d7addc6589cda97480892b760ed63b9b52f1eb5a9c8ed5cd1708f4cf",
    ("alt:5", "all_subgroups"):
        "527faf06bc7f29f52644afed8512ca8b1e432ea02431236a069817ef8200a521",
    ("alt:5", "all_normal_subgroups"):
        "7a882549bfcde8ac59f090a90fd762d2b255596f25be6c921cd10baf7a80e544",
    ("alt:5", "overgroups"):
        "e0f799ccf1721c8a00c1f9b685697b24b8170ec62ec43e7f329c1fe19be13739",
    ("alt:5", "divisor_lattices"):
        "91ed6cee6d7c0110c521f04fcef785f0dee2a6b8799aa94a30b8c11cc95c2c73",
    ("product(sym:3,sym:3)", "all_subgroups"):
        "3a58ff8789e62b5d5dbff1c55d998ba78c21b7a2e1d2666bc6aa465324caeb84",
    ("product(sym:3,sym:3)", "all_normal_subgroups"):
        "830e5c30cd5f20296d1c27bbe22bf49315fa6613993c36468e895ede3551f616",
    ("product(sym:3,sym:3)", "overgroups"):
        "77f01e6a0c4cd1a3a2bcd31610cf998edd9ea5159e2e30765d49316c2dd6a418",
    ("product(sym:3,sym:3)", "divisor_lattices"):
        "bd5b1b1ef386147ec243ff2ed42de5008698e9a68da13b4dec3f03689b929e7d",
}


def _outputs(spec):
    """Each pinned output of one group, with a fresh parse so caches start cold."""
    group = parse_group_spec(spec)
    pis = _pi_sets(group)
    return {
        "all_subgroups": all_subgroups(group),
        "all_normal_subgroups": all_normal_subgroups(group),
        "overgroups": [m for pi in pis for h in hall_subgroups(group, pi)
                       for m in overgroups(group, h)],
        "divisor_lattices": [s for pi in pis
                             for s in all_subgroups(group, order_divides=pi_part(group.order(), pi))],
    }


@pytest.mark.parametrize("spec", ["sym:4", "alt:5", "product(sym:3,sym:3)"])
def test_lattice_bytes_are_pinned(spec):
    outputs = _outputs(spec)
    assert {name: _digest(subs) for name, subs in outputs.items()} == {
        name: digest for (s, name), digest in _PINNED.items() if s == spec}


def test_hall_subgroup_bytes_are_pinned():
    reps = hall_subgroups(parse_group_spec("psl2:7"), {2, 3})
    assert _digest(reps) == "dbf9fe576126a6d777af266fa9b35d837480e8b762025f532e341b5165c0963e"
