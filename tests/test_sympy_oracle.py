"""Library results against sympy.combinatorics, an independent oracle.

Over every catalog group of order <= 360: the order and the Sylow orders,
the derived subgroup and solvability, the normal closure of each
generator, the element conjugacy classes and the centralizer of each
class rep.  sympy is a test-only dependency; without it these skip.
"""

import functools

import pytest

sympy_comb = pytest.importorskip("sympy.combinatorics")

from hallperm.catalog import build_catalog
from hallperm.group import normal_closure
from hallperm.hall import derived_subgroup, is_solvable
from hallperm.numth import prime_divisors
from hallperm.perm import Permutation
from hallperm.subgroup import centralizer, element_conjugacy_classes, sylow

CATALOG = build_catalog(360)
IDS = [e.name for e in CATALOG]


def _sym(p):
    return sympy_comb.Permutation(list(p), size=len(p))


@functools.lru_cache(maxsize=None)
def _oracle(name):
    group = next(e.group for e in CATALOG if e.name == name)
    return group, sympy_comb.PermutationGroup([_sym(g) for g in group.generators])


@pytest.mark.parametrize("name", IDS)
def test_order_and_sylow_orders(name):
    group, oracle = _oracle(name)
    assert group.order() == oracle.order()
    for p in prime_divisors(group.order()):
        assert sylow(group, p).order() == oracle.sylow_subgroup(p).order()


@pytest.mark.parametrize("name", IDS)
def test_derived_subgroup_and_solvability(name):
    group, oracle = _oracle(name)
    assert derived_subgroup(group).order() == oracle.derived_subgroup().order()
    assert is_solvable(group) == oracle.is_solvable


@pytest.mark.parametrize("name", IDS)
def test_normal_closure_of_each_generator(name):
    group, oracle = _oracle(name)
    for g in group.generators:
        ours = normal_closure(group, [g])
        theirs = oracle.normal_closure(_sym(g))
        assert ours.order() == theirs.order()
        assert all(ours.contains(Permutation(h.array_form)) for h in theirs.generators)


@pytest.mark.parametrize("name", IDS)
def test_element_classes_and_centralizers(name):
    group, oracle = _oracle(name)
    ours = element_conjugacy_classes(group)
    theirs = {frozenset(tuple(x.array_form) for x in cls) for cls in oracle.conjugacy_classes()}
    assert {frozenset(cls) for cls in ours} == theirs
    for cls in ours:
        rep = cls[0]
        assert centralizer(group, rep).order() == oracle.centralizer(_sym(rep)).order()
