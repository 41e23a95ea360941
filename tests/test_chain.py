"""Stabilizer chains: invariants, stored inverses and pinned chain bytes.

The pins are sha256 digests of (base, every level's transversal in BFS
order with its elements, strong generators), recorded before the chain
stored inverse transversal elements; the chain must stay bit-identical.
"""

import hashlib
import json
import random

import pytest

from hallperm.catalog import build_catalog, parse_group_spec
from hallperm.constructions import wreath_hall_pair
from hallperm.errors import GroupError
from hallperm.group import PermGroup, StabilizerChain, attach_block_structure, split_join
from hallperm.hall import hall_subgroups
from hallperm.perm import Permutation
from hallperm.pronormal import pronormality_instance

SMALL = tuple(e.name for e in build_catalog(60))


@pytest.fixture(scope="module")
def wreath_groups():
    """G = psl2:7 wr Z_5 on 40 points and the joint <H, H^tau>, where tau
    is the shift and witnesses that H is not pronormal."""
    base = parse_group_spec("psl2:7")
    u, v = hall_subgroups(base, {2, 3})[:2]
    pair = wreath_hall_pair(base, u, v, {2, 3}, 5)
    group, h, tau = pair.wreath.group, pair.hall_first.group, pair.tau
    assert pronormality_instance(group, h, tau).verdict is False
    joint = PermGroup(group.degree, h.generators + tuple(x.conj(tau) for x in h.generators))
    return {"wreath": group, "wreath-joint": joint}


def _chain(group):
    return StabilizerChain.build(group.degree, group.generators)


def _chain_digest(chain):
    body = [list(chain.base),
            [[[pt, list(u)] for pt, u in lvl.transversal.items()] for lvl in chain.levels],
            [list(g) for g in chain.strong_generators()]]
    return hashlib.sha256(json.dumps(body, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("spec", SMALL + ("sym:8",))
def test_chain_invariants_hold_on_catalog_groups(spec):
    group = parse_group_spec(spec)
    chain = _chain(group)
    chain.check_invariants()
    assert chain.order() == group.order()


@pytest.mark.parametrize("name, order", [("wreath", 168 ** 5 * 5), ("wreath-joint", 390168576)])
def test_chain_invariants_hold_on_the_wreath_pair(wreath_groups, name, order):
    chain = _chain(wreath_groups[name])
    chain.check_invariants()
    assert chain.order() == order


def test_check_invariants_rejects_a_wrong_stored_inverse():
    chain = _chain(parse_group_spec("sym:5"))
    lvl = chain.levels[0]
    pt = list(lvl.transversal)[1]
    lvl.inverse[pt] = lvl.transversal[lvl.beta]
    with pytest.raises(GroupError):
        chain.check_invariants()


def test_check_invariants_rejects_reordered_inverse_keys():
    chain = _chain(parse_group_spec("sym:5"))
    lvl = chain.levels[0]
    lvl.inverse = dict(reversed(lvl.inverse.items()))
    with pytest.raises(GroupError, match="inverse keys"):
        chain.check_invariants()


@pytest.mark.parametrize("spec, digest", [
    ("sym:5", "44c1071c4acfdac85216471d2f42cf650781f98d9184dfae5b40c282e3903efa"),
    ("psl2:7", "a9f90b6dec67d7d231d1a62900efd255480b436c44973c612d1d060902da888d"),
    ("alt:6", "11485b0d7e02bbe18d93caf25e2cf9425f51afa505f7209bad89a8844dc1d57a"),
])
def test_chains_are_pinned(spec, digest):
    assert _chain_digest(_chain(parse_group_spec(spec))) == digest


@pytest.mark.parametrize("name, digest", [
    ("wreath", "4533e9923c2a065f64037454d866bb5e12b5a3cd863b0aa085ab458e0bc4c0b3"),
    ("wreath-joint", "530e7381db0e2e0ab52692937f6e56725da0a1146669c686c0902669d6ab441b"),
])
def test_wreath_chains_are_pinned(wreath_groups, name, digest):
    assert _chain_digest(_chain(wreath_groups[name])) == digest


def test_a_corrupt_chain_stops_growing():
    """Wrong stored inverses make every Schreier generator sift to a residue;
    the build raises instead of installing strong generators without end."""
    chain = StabilizerChain.build(3, [Permutation.parse("(0 1 2)", 3)])
    lvl = chain.levels[0]
    for pt in lvl.inverse:
        lvl.inverse[pt] = chain._identity
    with pytest.raises(GroupError, match="outgrew"):
        chain.add_generator(Permutation.parse("(0 1)", 3))


@pytest.fixture(scope="module")
def split_wreath_joint():
    """G, the Schreier-Sims chain of <H, H^tau> and the same joint split over
    the blocks, its chain assembled from the 8-point component chains."""
    base = parse_group_spec("psl2:7")
    u, v = hall_subgroups(base, {2, 3})[:2]
    pair = wreath_hall_pair(base, u, v, {2, 3}, 5)
    group, h, tau = pair.wreath.group, pair.hall_first.group, pair.tau
    blocks = pair.wreath.blocks
    split_h = attach_block_structure(h, blocks)
    split_hg = attach_block_structure(h.conjugate(tau), blocks, h.order())
    joint = split_join(split_h, split_hg)
    return group, _chain(joint), joint


def test_assembled_chain_holds_the_invariants(split_wreath_joint):
    _, _, joint = split_wreath_joint
    joint.chain.check_invariants()
    assert joint.chain.order() == 390168576
    assert joint.factors is not None and len(joint.factors.blocks) == 5


def test_assembled_chain_agrees_with_schreier_sims_on_seeded_elements(split_wreath_joint):
    group, built, joint = split_wreath_joint
    rng = random.Random(11)
    words = [group.generators, joint.generators]   # mostly outside J, then inside
    verdicts = []
    for gens in words:
        for _ in range(60):
            x = group.identity
            for _ in range(20):
                x = x * rng.choice(gens)
            verdicts.append(joint.chain.contains(x))
            assert verdicts[-1] == built.contains(x)
    assert True in verdicts and False in verdicts


PRODUCTS = tuple(e.name for e in build_catalog(2000) if e.name.startswith("product("))


@pytest.mark.parametrize("spec", PRODUCTS)
def test_assembled_chain_agrees_with_schreier_sims_on_products(spec):
    group = parse_group_spec(spec)
    structure = group.factors
    assembled = StabilizerChain.direct_product(group.degree, structure.blocks,
                                               [f.chain for f in structure.factor_groups])
    assembled.check_invariants()
    built = _chain(group)
    assert assembled.order() == built.order() == group.order()
    rng = random.Random(5)
    members = group.elements()[::max(1, group.order() // 200)]
    others = [Permutation(rng.sample(range(group.degree), group.degree)) for _ in range(200)]
    for x in members + others:
        assert assembled.contains(x) == built.contains(x)
    assert all(assembled.contains(x) for x in members)
    assert not all(assembled.contains(x) for x in others)
