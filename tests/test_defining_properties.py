"""Sylow towers, least conjugators and the Sylow ascent against references
built the way their defining properties were computed before.

A normal Hall subgroup is the set of its pi-elements, so a Sylow tower's
terms are read from element orders; the conjugators of H onto K form one
right coset of N_G(H), so the least of them is that coset's transversal
representative; and the normalizer of a p-subgroup Q holds exactly the x
with Q's generators^x in Q, so the ascent needs no normalizer.
"""

import itertools

import pytest

from hallperm.catalog import build_catalog
from hallperm.group import PermGroup, right_transversal
from hallperm.hall import all_normal_subgroups, hall_subgroups, pi_part, sylow_tower
from hallperm.numth import prime_divisors
from hallperm.subgroup import all_subgroups, conjugated_key, is_conjugate, normalizer, sylow
from hallperm.suites import pi_subsets

from conftest import normalizer_ascent_sylow

_UP_TO_720 = {entry.name: entry.group for entry in build_catalog(720)}
_UP_TO_120 = sorted(name for name, group in _UP_TO_720.items() if group.order() <= 120)


@pytest.mark.parametrize("name", sorted(_UP_TO_720))
def test_sylow_towers_are_the_normal_hall_subgroups(name):
    """For every Hall rep of order > 1 and every ordering of its primes, a
    tower exists exactly when the rep has a normal subgroup of each
    complexion[i:]-part order, and its terms are those subgroups."""
    group = _UP_TO_720[name]
    for pi in pi_subsets(group.order()):
        for rep in hall_subgroups(group, pi):
            if rep.order() == 1:
                continue
            normal_sets = {}
            for n in all_normal_subgroups(rep.group):
                normal_sets.setdefault(n.order(), n.group.element_set())
            for complexion in itertools.permutations(prime_divisors(rep.order())):
                parts = [pi_part(rep.order(), complexion[i:]) for i in range(len(complexion))]
                tower = sylow_tower(rep.group, complexion)
                assert (tower is not None) == all(part in normal_sets for part in parts), \
                    (name, pi, complexion)
                if tower is not None:
                    assert [t.group.element_set() for t in tower.series[:-1]] == \
                        [normal_sets[part] for part in parts]
                    assert tower.series[-1].order() == 1


@pytest.mark.parametrize("name", _UP_TO_120)
def test_conjugators_are_the_least_transversal_representatives(name):
    """For every pair H, K of subgroups of one order, is_conjugate's witness
    is the first t in the right transversal of N_G(H) with H^t = K.  The
    group is taken without its block structure, whose witnesses are
    combined per block rather than least."""
    group = _UP_TO_720[name]
    plain = PermGroup(group.degree, group.generators)
    subgroups = [s.group for s in all_subgroups(plain)]
    for h in subgroups:
        h_elems = h.element_set()
        first = {}
        for t in right_transversal(plain, normalizer(plain, h).group):
            first.setdefault(conjugated_key(h_elems, t), t)
        for k in subgroups:
            if k.order() != h.order():
                continue
            witness = is_conjugate(plain, h, k)
            expected = first.get(k.element_set())
            assert (witness is None) == (expected is None), (name, h, k)
            if witness is not None:
                assert witness.element == expected, (name, h, k)


@pytest.mark.parametrize("name", sorted(_UP_TO_720))
def test_sylow_subgroups_follow_the_normalizer_ascent(name):
    group = _UP_TO_720[name]
    for p in prime_divisors(group.order()):
        assert list(sylow(group, p).group.generators) == normalizer_ascent_sylow(group, p), p
