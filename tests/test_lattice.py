"""Subgroup lattices, normal-subgroup lattices and overgroups against oracles.

Counts come from the literature; the divisor-filtered lattices and the
overgroup lists are checked against filters of the full lattice that the
join search of conftest.lattice_oracle lists; each listed subgroup's
generators close to its cached element set.  Two sha256 pins cover each
output: one over its element sets and list order, recorded when the
lattices were still joins of cyclic subgroups, and one that adds the
generator tuples, recorded when the lattices became the class orbits of
subgroup_classes (the normal-subgroup pins date from before the lattices
were built on element indices).
"""

import hashlib
import itertools
import json

import pytest

from hallperm.catalog import build_catalog, parse_group_spec
from hallperm.errors import CapExceeded, Caps
from hallperm.group import ElementIndex
from hallperm.hall import all_normal_subgroups, hall_subgroups, pi_part
from hallperm.numth import prime_divisors
from hallperm.subgroup import all_subgroups, overgroups, sylow

from conftest import closure_oracle, lattice_oracle


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
        full = [k.element_set() for k in lattice_oracle(group)]
        for d in (d for d in range(1, n + 1) if n % d == 0):
            filtered = [s.group.element_set() for s in all_subgroups(group, order_divides=d)]
            assert filtered == [k for k in full if d % len(k) == 0], (entry.name, d)


def test_overgroups_are_the_lattice_above_each_hall_representative():
    for entry in _small_catalog():
        group = entry.group
        full = [k.element_set() for k in lattice_oracle(group)]
        for pi in _pi_sets(group):
            for hall in hall_subgroups(group, pi):
                h = hall.group.element_set()
                above = [s.group.element_set() for s in overgroups(group, hall)]
                assert above == [k for k in full if h <= k], (entry.name, pi)


@pytest.mark.parametrize("spec", [e.name for e in build_catalog(max_order=60)] + ["alt:6"])
def test_each_listed_subgroup_is_generated_by_its_generators(spec):
    """order() and contains() read a member's element cache, so a member whose
    generators were conjugated by the wrong element would pass every check
    that reads the cache; the closure of its generators must be that set."""
    group = parse_group_spec(spec)
    for sub in all_subgroups(group):
        k = sub.group
        assert closure_oracle(group.degree, k.generators) == set(k.element_set()), spec


def test_overgroups_raise_the_subgroup_cap():
    """overgroups lists the members of all_subgroups, so past subgroup_cap it
    raises CapExceeded("subgroup_cap") instead of searching."""
    group = parse_group_spec("sym:5")
    with pytest.raises(CapExceeded) as exc:
        overgroups(group, sylow(group, 5), Caps(subgroup_cap=100))
    assert (exc.value.cap_name, exc.value.cap_value, exc.value.needed) == ("subgroup_cap", 100, 120)


def _sha256(payload):
    return hashlib.sha256(json.dumps(payload, separators=(",", ":")).encode()).hexdigest()


def _digest(subgroups):
    return _sha256([[[list(g) for g in s.group.generators], [list(e) for e in s.group.elements()]]
                    for s in subgroups])


def _element_digest(subgroups):
    return _sha256([[list(e) for e in s.group.elements()] for s in subgroups])


_PINNED = {
    ("sym:4", "all_subgroups"):
        "a963dac112f5876b946aea5440257294fece3e9e2fd2ee8b237d9587229731d6",
    ("sym:4", "all_normal_subgroups"):
        "aa066d792034c7b49975cafc4158fd448c6ae2c2df80add22a51d87ace579774",
    ("sym:4", "overgroups"):
        "eb1954cb1ae2a266f25a76f39b9ce06f8f49ef20a666ddedb13a2bed1ab8a060",
    ("sym:4", "divisor_lattices"):
        "4cbca6a59b1fb8e03edbddc723f879545c0071b9e8b549c12734479dda30fe15",
    ("alt:5", "all_subgroups"):
        "7639a9f8f17f20ef2efb97337b9cc29c73139b46f53797e180318cd9430696da",
    ("alt:5", "all_normal_subgroups"):
        "7a882549bfcde8ac59f090a90fd762d2b255596f25be6c921cd10baf7a80e544",
    ("alt:5", "overgroups"):
        "b98da7dc897300d60158595acaa59e218d9e0915f0a7031edccf71fdefa6e9b5",
    ("alt:5", "divisor_lattices"):
        "3c432f3deab250b8479635f2896c3ba043a452ee7e68d33d9fd517dbb808017a",
    ("product(sym:3,sym:3)", "all_subgroups"):
        "7bba7e8184d31c23bb9b5a22d881cd59c73a234225799fb2ffd2f5bff7d2f651",
    ("product(sym:3,sym:3)", "all_normal_subgroups"):
        "830e5c30cd5f20296d1c27bbe22bf49315fa6613993c36468e895ede3551f616",
    ("product(sym:3,sym:3)", "overgroups"):
        "69a1aa3dbcd4e5c1cfd6dffac1618790ff75cfc5f89d227f14c7a1633169373c",
    ("product(sym:3,sym:3)", "divisor_lattices"):
        "0ebf688ba2a6a64452698a9ff34888822fde71c32a98037fd1087443f8e23fd6",
}


_ELEMENT_PINNED = {
    ("sym:4", "all_subgroups"):
        "06691ba26cbfe5985a69af480c5a4711ad9d60d8cd6697783931e7906067949b",
    ("sym:4", "all_normal_subgroups"):
        "0c42333d63e7b8c8e99c8f4062c0b063b5ad59d7337a4fcf4d826b2b29192199",
    ("sym:4", "overgroups"):
        "4915e7691cc63e651868bc5e754c6667e98ad2082a8c99e6ae7d3d5bc48112ce",
    ("sym:4", "divisor_lattices"):
        "08c660fc1c473f0c81d58c69652fbfc260ef7ccd52cdf6ddff2f804594a7c2e3",
    ("alt:5", "all_subgroups"):
        "89a41097abfc5dfefb91929b0bc33dc6180e6c5d6908e711b0a841a124d858a0",
    ("alt:5", "all_normal_subgroups"):
        "1a7407d0d793e8525e53e53d3e2b4734c45c6b3ed35eec490cd0a7f6f7ad7d4c",
    ("alt:5", "overgroups"):
        "8a8a2bc342f6fe752c5eab3d8def0766685952ef832355f91fd6583b88e3d1ca",
    ("alt:5", "divisor_lattices"):
        "87015173cc713e65eef1426ee882064db3a445437c69995e0f048f96f0b02624",
    ("product(sym:3,sym:3)", "all_subgroups"):
        "74e40dbc365db8d7e6bb14216e80f375f88da48ea644ca19677f2df215c962f3",
    ("product(sym:3,sym:3)", "all_normal_subgroups"):
        "6d16449736570849dd0ce9e85726a345c51809739daa52aff55c4d2a643c2688",
    ("product(sym:3,sym:3)", "overgroups"):
        "2298f39dc0698410600763ac237490e5f91e77212d7de134f3a99c376bfade62",
    ("product(sym:3,sym:3)", "divisor_lattices"):
        "574e0f909bdbcb8f741ea5970b0248710ea17393e7237ae31e1a27889b22e5e0",
    ("alt:6", "all_subgroups"):
        "f657d1dd1c7a46e3fc2154e69619071a684c3736b9e060fcdb819362dfd34d5c",
    ("alt:6", "all_normal_subgroups"):
        "7ec5d94a1ee8f6bc3c1a017c11f8d36e590ab56b2f6e732270f115663ccb166e",
    ("alt:6", "overgroups"):
        "51c5ba9031fefcb60bb3661f9ec8ed4644e06dc602734210dcbd1575e0dc894a",
    ("alt:6", "divisor_lattices"):
        "61b8f7ea87ff090e56e3d9d6337ace2d0683bd29b07f8bf8b648932631109196",
    ("sym:5", "all_subgroups"):
        "16c4925c21b9559ccda6287880af15c92ddbb5a399759a8e3aa7c0b1b2659dc9",
    ("sym:5", "all_normal_subgroups"):
        "1e7a6e8a83e77a06cd75269986a681c0d39b750b6b46cf0bea7227eab5ae439c",
    ("sym:5", "overgroups"):
        "9606acae7c6ee6bddc016703ab9e75d60452e02abf22d315a85c54e9ec0e172b",
    ("sym:5", "divisor_lattices"):
        "6f2f29423b8f0ea7ab6c0d3a743b65630fc57ecdc7bdedca5d569752b83d6ae5",
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


@pytest.mark.parametrize("spec", ["sym:4", "alt:5", "product(sym:3,sym:3)", "alt:6", "sym:5"])
def test_lattice_element_sets_are_pinned(spec):
    outputs = _outputs(spec)
    assert {name: _element_digest(subs) for name, subs in outputs.items()} == {
        name: digest for (s, name), digest in _ELEMENT_PINNED.items() if s == spec}


@pytest.mark.parametrize("spec", ["sym:4", "alt:5", "product(sym:3,sym:3)"])
def test_lattice_bytes_are_pinned(spec):
    outputs = _outputs(spec)
    assert {name: _digest(subs) for name, subs in outputs.items()} == {
        name: digest for (s, name), digest in _PINNED.items() if s == spec}


def test_hall_subgroup_bytes_are_pinned():
    reps = hall_subgroups(parse_group_spec("psl2:7"), {2, 3})
    assert _digest(reps) == "dbf9fe576126a6d777af266fa9b35d837480e8b762025f532e341b5165c0963e"
