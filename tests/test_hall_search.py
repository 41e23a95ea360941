"""hall_subgroups against the Sylow-tuple sweep it replaced (conftest.hall_sweep_oracle).

The search is the subgroup join loop started at a Sylow subgroup P; its reps,
their generators and their order must be the sweep's on every prime set of
every catalog group, and on the larger PSL2 cases with more than one class
or thousands of tuples.
"""

import itertools

import pytest

from hallperm.catalog import build_catalog
from hallperm.constructions import psl2
from hallperm.group import ElementIndex
from hallperm.hall import hall_subgroups
from hallperm.numth import prime_divisors

from conftest import hall_sweep_oracle

_CATALOG = build_catalog(2000)


def _assert_matches_sweep(group, pi):
    reps = [r.group for r in hall_subgroups(group, pi)]
    expected = hall_sweep_oracle(group, pi)
    assert [r.element_set() for r in reps] == [r.element_set() for r in expected]
    assert [tuple(r.generators) for r in reps] == [tuple(r.generators) for r in expected]


@pytest.mark.parametrize("entry", _CATALOG, ids=lambda e: e.name)
def test_hall_classes_match_the_sweep_on_every_prime_set(entry):
    primes = prime_divisors(entry.group.order())
    for r in range(len(primes) + 1):
        for pi in itertools.combinations(primes, r):
            _assert_matches_sweep(entry.group, pi)


@pytest.mark.parametrize("q, pi, classes", [(11, (2, 3), 2), (13, (2, 3), 2), (16, (2, 3, 5), 1)])
def test_hall_classes_match_the_sweep_on_psl2(q, pi, classes):
    group = psl2(q)
    assert len(hall_subgroups(group, pi)) == classes
    _assert_matches_sweep(group, pi)


def test_hall_search_join_count_on_psl2_16(monkeypatch):
    # the sweep joined P with each of 16,320 Sylow tuples (16,712 joins in all)
    calls = []
    join = ElementIndex.join

    def counting(self, *args, **kwargs):
        calls.append(None)
        return join(self, *args, **kwargs)

    monkeypatch.setattr(ElementIndex, "join", counting)
    assert hall_subgroups(psl2(16), (3, 5, 17)) == []
    assert len(calls) <= 1000
