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
from hallperm.group import (PermGroup, StabilizerChain, attach_block_structure, group_over_blocks,
                           split_join)
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


def test_split_membership_agrees_with_schreier_sims(split_wreath_joint):
    # the joint answers contains() block by block: words in G mostly move
    # the blocks, words in the base product fix every block but mostly have
    # a component outside U on blocks 1-3, and words in the joint's
    # generators lie in it
    group, built, joint = split_wreath_joint
    tau = group.generators[-1]
    base_gens = [x.conj(tau ** k) for k in range(5) for x in group.generators[:-1]]
    rng = random.Random(17)
    verdicts = []
    for gens in (group.generators, base_gens, joint.generators):
        for _ in range(40):
            x = group.identity
            for _ in range(20):
                x = x * rng.choice(gens)
            verdicts.append(joint.contains(x))
            assert verdicts[-1] == built.contains(x)
    assert False in verdicts[40:80] and all(verdicts[80:])


@pytest.mark.parametrize("which", ["b", "within"])
def test_split_join_rejects_groups_over_other_blocks(which):
    # sym:2 x sym:2 x sym:2 against sym:2 x sym:4 on the same 6 points
    a = parse_group_spec("product(sym:2,sym:2,sym:2)")
    other = parse_group_spec("product(sym:2,sym:4)")
    b, within = (other, a.factors) if which == "b" else (a, other.factors)
    with pytest.raises(GroupError, match="same blocks"):
        split_join(a, b, within)


PRODUCTS = tuple(e.name for e in build_catalog(2000) if e.name.startswith("product("))
# one-point blocks ((0,), (1, 2, 3), (4,)) around a single nontrivial factor
PRODUCTS += ("product(cyc:1,sym:3,cyc:1)",)


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


# -- chains grown from a block system and stopped at the order bound -------


BLOCKED = tuple(e.name for e in build_catalog(60) if e.group.factors is not None)
# blocks ((0,), (1, 2, 3), (4,)): group_over_blocks splits it, with order 6
BLOCKED += ("product(cyc:1,sym:3,cyc:1)",)


def _words(group, rng, count=60, length=20):
    words = []
    for _ in range(count):
        x = group.identity
        for _ in range(length):
            x = x * rng.choice(group.generators)
        words.append(x)
    return words


def _agrees_with_the_plain_chain(group, blocked):
    chain = blocked.chain
    chain.check_invariants()
    built = _chain(group)
    assert chain.order() == built.order() == group.order()
    rng = random.Random(3)
    members = _words(group, rng)
    others = [Permutation(rng.sample(range(group.degree), group.degree)) for _ in range(200)]
    assert all(chain.contains(x) for x in members)
    assert [chain.contains(x) for x in others] == [built.contains(x) for x in others]
    assert not all(chain.contains(x) for x in others)


@pytest.mark.parametrize("spec", BLOCKED + ("wreath(psl2:7,5)",))
def test_chain_over_blocks_agrees_on_catalog_groups(spec):
    group = parse_group_spec(spec)
    blocked = group_over_blocks(group.degree, group.generators, group.factors.blocks)
    # a product's generators move one block each, so it is split with no
    # whole-degree chain; a wreath product's shift moves the blocks
    assert (blocked._chain is None) == (group.factors.shift is None)
    assert (blocked.factors is None) == (group.factors.shift is not None)
    _agrees_with_the_plain_chain(group, blocked)


@pytest.mark.parametrize("spec", BLOCKED + ("wreath(psl2:7,5)",))
def test_a_chain_over_blocks_conjugates_to_a_valid_chain(spec):
    # a split group's chain is assembled from its components' on first use
    group = parse_group_spec(spec)
    blocked = group_over_blocks(group.degree, group.generators, group.factors.blocks)
    n = group.degree
    rng = random.Random(17)
    for _ in range(3):
        sigma = Permutation(rng.sample(range(n), n))
        chain = blocked.chain.conjugate(sigma)
        chain.check_invariants()
        assert chain.order() == group.order()
        assert chain.base == tuple(sigma[b] for b in blocked.chain.base)
        assert all(chain.contains(x.conj(sigma)) for x in group.generators)


def _block_respecting(blocks, degree, rng):
    """A random permutation mapping each block onto a block of its size."""
    order = list(range(len(blocks)))
    for size in {len(b) for b in blocks}:
        same = [i for i in order if len(blocks[i]) == size]
        for i, j in zip(same, rng.sample(same, len(same))):
            order[i] = j
    images = list(range(degree))
    for i, block in enumerate(blocks):
        target = rng.sample(blocks[order[i]], len(block))
        for pt, image in zip(block, target):
            images[pt] = image
    return Permutation(images)


@pytest.mark.parametrize("spec", BLOCKED + ("wreath(psl2:7,5)",))
def test_membership_over_blocks_agrees_with_the_plain_chain(spec):
    # a split group tests membership block by block and stops at the first
    # block that an element leaves or whose factor misses it
    group = parse_group_spec(spec)
    blocks = group.factors.blocks
    blocked = group_over_blocks(group.degree, group.generators, blocks)
    built = _chain(group)
    rng = random.Random(5)
    n = group.degree
    members = _words(group, rng)
    others = ([_block_respecting(blocks, n, rng) for _ in range(200)]
              + [Permutation(rng.sample(range(n), n)) for _ in range(50)])
    assert all(blocked.contains(x) for x in members)
    assert [blocked.contains(x) for x in others] == [built.contains(x) for x in others]
    assert not all(built.contains(x) for x in others)


def test_a_split_group_over_its_blocks_carries_its_components():
    # H = V x U^4 fixes every block: the seed is all of H, and its factors
    # share one chain per distinct component
    base = parse_group_spec("psl2:7")
    u, v = hall_subgroups(base, {2, 3})[:2]
    pair = wreath_hall_pair(base, u, v, {2, 3}, 5)
    h = pair.hall_first.group
    blocked = group_over_blocks(h.degree, h.generators, [list(b) for b in pair.wreath.blocks])
    assert blocked.factors.blocks == pair.wreath.blocks
    components = blocked.factors.factor_groups
    assert [c.order() for c in components] == [24] * 5
    assert len({id(c) for c in components}) == 2
    _agrees_with_the_plain_chain(h, blocked)


@pytest.mark.parametrize("spec", BLOCKED + ("wreath(psl2:7,5)",))
def test_chain_over_blocks_agrees_for_generators_moving_every_block(spec):
    # random words seldom move the points of one block only, so the seed is
    # small and Schreier-Sims has to reach the bound, or the plain order
    group = parse_group_spec(spec)
    rng = random.Random(7)
    words = PermGroup(group.degree, _words(group, rng, count=3, length=12))
    blocked = group_over_blocks(words.degree, words.generators, group.factors.blocks)
    _agrees_with_the_plain_chain(words, blocked)


def test_diagonal_generators_reach_the_bound_and_split():
    # (0 1)(3 4 5) and (0 1 2)(3 4) generate Sym(3) x Sym(3) = U, though
    # neither moves one block only: the seed is trivial and the drain stops
    # at 36 with the group split over the blocks
    gens = [Permutation.parse("(0 1)(3 4 5)", 6), Permutation.parse("(0 1 2)(3 4)", 6)]
    blocked = group_over_blocks(6, gens, [[0, 1, 2], [3, 4, 5]])
    assert blocked.order() == 36
    assert [c.order() for c in blocked.factors.factor_groups] == [6, 6]
    _agrees_with_the_plain_chain(PermGroup(6, gens), blocked)


@pytest.mark.parametrize("degree, gens, blocks, order", [
    # U = 2 * 2 = 4: no generator moves the points of one block only
    (4, ["(0 1)(2 3)"], [[0, 1], [2, 3]], 2),
    # diagonal Sym(3) on two blocks of 3: U = 6 * 6 = 36
    (6, ["(0 1)(3 4)", "(0 1 2)(3 4 5)"], [[0, 1, 2], [3, 4, 5]], 6),
    # the Klein four-group swapping two blocks of 2: U = 2 * 2^2 = 8
    (4, ["(0 2)(1 3)", "(0 1)(2 3)"], [[0, 1], [2, 3]], 4),
])
def test_chain_over_blocks_runs_on_when_the_bound_is_not_tight(degree, gens, blocks, order):
    group = PermGroup(degree, [Permutation.parse(g, degree) for g in gens])
    blocked = group_over_blocks(degree, group.generators, blocks)
    assert blocked._chain is not None and blocked.factors is None
    assert blocked.order() == order
    _agrees_with_the_plain_chain(group, blocked)


@pytest.mark.parametrize("blocks", [
    [[0, 1], [2, 3, 4, 5]],              # not mapped onto blocks: (1 2 ...) crosses
    [[0, 1, 2, 3, 4, 5]],                # one block
    [[0, 1, 2], [3, 4, 5], [5]],         # not a partition
    [[0, 1, 2], [3, 4, 6]],              # a point outside the degree
    [[0, 1, 2], []],                     # an empty block
    [["0", 1, 2], [3, 4, 5]],            # not ints
    [0, 1],                              # not lists
    "blocks",
    None,
])
def test_chain_over_blocks_falls_back_to_the_plain_build(blocks):
    group = parse_group_spec("sym:6")
    blocked = group_over_blocks(6, group.generators, blocks)
    assert blocked._chain is None and blocked.factors is None
    assert _chain_digest(blocked.chain) == _chain_digest(_chain(group))


# -- chains relabelled by a conjugator, and grown from a copy ----------------


def _eight_point_components():
    """The 8-point components of the theorem3 pair: V, U, and the joint
    components <V, U> and <U, U^x> that split_join grows from them."""
    base = parse_group_spec("psl2:7")
    u, v = (rep.group for rep in hall_subgroups(base, {2, 3})[:2])
    x = base.generators[0]
    return [("V", v), ("U", u), ("<V,U>", PermGroup(8, v.generators + u.generators)),
            ("<U,U^x>", PermGroup(8, u.generators + tuple(s.conj(x) for s in u.generators)))]


_CONJUGATED = [(spec, None) for spec in SMALL] + [("psl2:7 wr 5", name) for name in
                                                    ("V", "U", "<V,U>", "<U,U^x>")]


@pytest.mark.parametrize("spec, component", _CONJUGATED)
def test_conjugated_chain_is_the_chain_of_the_conjugate(spec, component):
    group = (parse_group_spec(spec) if component is None
             else dict(_eight_point_components())[component])
    n = group.degree
    rng = random.Random(13)
    for sigma in (Permutation.identity(n), Permutation(rng.sample(range(n), n)),
                  Permutation(rng.sample(range(n), n))):
        before = _chain_digest(group.chain)
        chain = group.chain.conjugate(sigma)
        chain.check_invariants()
        assert _chain_digest(group.chain) == before
        assert chain.base == tuple(sigma[b] for b in group.chain.base)
        assert set(chain.iter_elements()) == {x.conj(sigma) for x in group.elements()}
        built = StabilizerChain.build(n, [x.conj(sigma) for x in group.generators])
        others = [Permutation(rng.sample(range(n), n)) for _ in range(100)]
        members = [x.conj(sigma) for x in group.elements()[::max(1, group.order() // 50)]]
        assert [chain.contains(x) for x in members + others] == \
            [built.contains(x) for x in members + others]
        assert all(chain.contains(x) for x in members)


def test_conjugate_rejects_a_conjugator_of_another_degree():
    from hallperm.errors import DegreeMismatch
    with pytest.raises(DegreeMismatch):
        _chain(parse_group_spec("sym:4")).conjugate(Permutation.identity(5))


def test_a_grown_copy_leaves_its_source_unchanged():
    components = dict(_eight_point_components())
    v, u = components["V"], components["U"]
    before = _chain_digest(v.chain)
    grown = v.chain.copy()
    for s in u.generators:
        grown.add_generator(s)
    grown.check_invariants()
    assert _chain_digest(v.chain) == before and v.chain.order() == 24
    assert grown.order() == components["<V,U>"].order() == 168
