"""Subgroups of an enumerated group, closed on element numbers, against
chain-built twins and chain-based references.

Every subgroup that the lattice, the normalizer and the intersection
return knows its elements, so it answers order() and contains() without
a stabilizer chain; here each answer is compared with a twin built from
the same generators by Schreier-Sims.  Generator choices are compared
with the chain-based picks they replaced.
"""

import functools

import pytest

from hallperm.catalog import build_catalog, parse_group_spec
from hallperm.errors import Caps, GroupError
from hallperm.group import GroupHom, PermGroup, group_from_elements, intersect_groups, normal_closure
from hallperm.constructions import cyclic, symmetric
from hallperm.subgroup import _normalizer, all_subgroups, element_conjugacy_classes
from hallperm.suites import PROBE_IDS, SUITE_NAMES, run_group_task

from conftest import chain_picked_generators, perm

SPECS = [e.name for e in build_catalog(max_order=60)] + ["alt:6"]


@functools.lru_cache(maxsize=None)
def _lattice(spec):
    """(group, its subgroups), shared by the tests below (alt:6 takes seconds)."""
    group = parse_group_spec(spec)
    return group, [s.group for s in all_subgroups(group)]


def _agrees_with_chain_twin(group, sub):
    assert "elements" in sub._cache
    twin = PermGroup(sub.degree, sub.generators)
    assert sub.order() == twin.order()
    elements = group.elements()
    assert [sub.contains(e) for e in elements] == [twin.contains(e) for e in elements]


@pytest.mark.parametrize("spec", SPECS)
def test_lattice_normalizers_and_meets_agree_with_chain_twins(spec):
    group, subs = _lattice(spec)
    for i, sub in enumerate(subs):
        _agrees_with_chain_twin(group, sub)
        _agrees_with_chain_twin(group, _normalizer(group, sub))
        _agrees_with_chain_twin(group, intersect_groups(sub, subs[-1 - i]))


@pytest.mark.parametrize("spec", SPECS)
def test_group_from_elements_picks_the_chain_generators(spec):
    group, subs = _lattice(spec)
    for sub in subs:
        elements = sub.elements()
        built = group_from_elements(group.degree, elements)
        assert built.generators == tuple(chain_picked_generators(group.degree, elements))
        assert built.elements() == elements


@pytest.mark.parametrize("spec", SPECS)
def test_number_normal_closure_matches_the_chain_path(spec):
    group = parse_group_spec(spec)
    chain_caps = Caps(enum_cap=group.order() - 1)
    for cls in element_conjugacy_classes(group):
        by_numbers = normal_closure(group, cls[:1])
        by_chain = normal_closure(group, cls[:1], chain_caps)
        assert by_numbers._chain is None
        assert by_numbers.generators == by_chain.generators
        assert by_numbers.elements() == by_chain.elements()


def test_group_from_elements_rejects_a_set_that_is_not_a_group():
    with pytest.raises(GroupError):
        group_from_elements(4, [perm("()", 4), perm("(0 1 2)", 4)])
    with pytest.raises(GroupError):
        group_from_elements(3, [perm("(0 1 2)", 3), perm("(0 2 1)", 3)])
    with pytest.raises(GroupError):
        group_from_elements(3, [])


def test_hom_verify_rejects_an_anti_homomorphism():
    for group, multiplicative in ((symmetric(3), False), (cyclic(6), True)):
        inverse = GroupHom(group, group.degree, [~g for g in group.generators],
                           apply=lambda p: ~p)
        assert inverse.verify() is multiplicative


def test_hom_verify_rejects_a_rule_off_by_a_constant():
    # phi(g*x) = phi(g)*phi(x) holds for x -> x*(0 1), yet phi(1) = (0 1)
    group = symmetric(3)
    shifted = GroupHom(group, 3, group.generators, apply=lambda x: x * perm("(0 1)", 3))
    assert not shifted.image_of(group.identity).is_identity
    assert shifted.verify() is False


@pytest.mark.parametrize("spec", ["sym:4", "alt:5", "product(sym:3,cyc:4)", "wreath(cyc:3,2)"])
def test_runners_build_no_chain_for_an_enumerated_group(spec, monkeypatch):
    """A group that already knows its elements never builds a stabilizer chain."""
    late = []
    build = PermGroup.chain.fget

    def guarded(self):
        if self._chain is None and "elements" in self._cache:
            late.append(self)
        return build(self)

    monkeypatch.setattr(PermGroup, "chain", property(guarded))
    for runner in SUITE_NAMES + tuple(f"probe{p}" for p in PROBE_IDS):
        assert run_group_task(runner, spec).ok, runner
    assert not late, f"{len(late)} enumerated groups built a chain"
