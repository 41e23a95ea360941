import functools
import os
from collections import deque

import pytest

from hallperm.constructions import alternating, psl2, sl2, symmetric
from hallperm.group import ElementIndex, PermGroup
from hallperm.perm import Permutation
from hallperm.subgroup import _set_sort_key

# pytest puts src/ on sys.path (pyproject.toml); CLI tests run `python -m
# hallperm` in subprocesses, which need it on PYTHONPATH as well.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def perm(text, degree):
    return Permutation.parse(text, degree)


@pytest.fixture(scope="session")
def sym5():
    return symmetric(5)


@pytest.fixture(scope="session")
def alt5():
    return alternating(5)


@pytest.fixture(scope="session")
def psl27():
    return psl2(7)


@pytest.fixture(scope="session")
def sl216():
    return sl2(16)


def closure_oracle(degree, gens):
    """Independent brute-force closure: BFS over products, counting elements."""
    from collections import deque
    identity = tuple(range(degree))
    seen = {identity}
    queue = deque([identity])
    raw = [tuple(g) for g in gens]
    while queue:
        e = queue.popleft()
        for g in raw:
            prod = tuple(g[x] for x in e)
            if prod not in seen:
                seen.add(prod)
                queue.append(prod)
    return seen


_POOL = None


def small_group_pool():
    """Groups of order <= 60 used for seeded direct-product instances."""
    global _POOL
    if _POOL is None:
        from hallperm.constructions import alternating, cyclic, dihedral, symmetric
        _POOL = ([cyclic(n) for n in (2, 3, 4, 5, 6, 8, 12)]
                 + [symmetric(3), symmetric(4), alternating(4),
                    dihedral(4), dihedral(5), alternating(5)])
        assert all(g.order() <= 60 for g in _POOL)
    return _POOL


def blockwise_equivalence_instance(seed):
    """One seeded comparison of blockwise vs transversal subgroup conjugacy.

    Returns True when both paths agree (witnesses replay on construction).
    """
    import random
    from hallperm.constructions import direct_product
    from hallperm.errors import DEFAULT_CAPS
    from hallperm.group import PermGroup, inflate
    from hallperm.subgroup import _is_conjugate_transversal, all_subgroups, is_conjugate

    rng = random.Random(seed)
    groups = small_group_pool()
    factors = [groups[rng.randrange(len(groups))] for _ in range(2)]
    prod = direct_product(factors)

    def random_blockwise_subgroup():
        gens = []
        for block, factor in zip(prod.factors.blocks, factors):
            subs = all_subgroups(factor)
            part = subs[rng.randrange(len(subs))].group
            gens.extend(inflate(g, block, prod.degree) for g in part.generators)
        return PermGroup(prod.degree, gens)

    h = random_blockwise_subgroup()
    if rng.random() < 0.5:
        elements = prod.elements()
        g = elements[rng.randrange(len(elements))]
        k = PermGroup(prod.degree, [x.conj(g) for x in h.generators])
    else:
        k = random_blockwise_subgroup()

    fast = is_conjugate(prod, h, k)
    plain = PermGroup(prod.degree, prod.generators)
    slow = (_is_conjugate_transversal(plain, h, k, DEFAULT_CAPS)
            if h.order() == k.order() else None)
    return (fast is None) == (slow is None)


def chain_picked_generators(degree, elements):
    """The generators a stabilizer chain picks from a closed set: each element,
    in sorted order, that the chain of the earlier picks does not contain."""
    from hallperm.group import StabilizerChain
    chain = StabilizerChain(degree)
    picked = []
    for e in sorted(elements):
        if not chain.contains(e):
            chain.add_generator(e)
            picked.append(e)
    return picked


def join_lattice(index, seeds, order_divides=None):
    """Every join of seed subgroups, sorted, each with its elements cached.

    seeds maps the element numbers (in index) of each nontrivial seed
    subgroup to its generators.  Starting from the trivial group and the
    seeds, every subgroup found is joined with each seed not yet inside it
    until nothing new appears.  With order_divides, joins whose order does
    not divide it are dropped; without it, a join that passes half the group
    is the whole group (Lagrange), filed under the generators of the join
    that reached it.  Number sets sort like the element sets they stand
    for, because numbering follows the canonical order.
    """
    whole = len(index.elements)
    limit = whole // 2 if order_divides is None else order_divides
    seed_items = [(skey, sgens, index.numbers(sgens))
                  for skey, sgens in sorted(seeds.items(), key=lambda kv: _set_sort_key(kv[0]))]
    found = {frozenset([0]): (), **seeds}
    queue = deque(key for key, _, _ in seed_items)
    while queue:
        key = queue.popleft()
        gens = found[key]
        numbers = index.numbers(gens)
        for skey, sgens, snumbers in seed_items:
            if all(g in key for g in snumbers):
                continue
            joined = index.join(key, numbers + snumbers, limit)
            if joined is None and order_divides is None:
                joined = range(whole)
            if joined is None or (order_divides is not None and order_divides % len(joined)):
                continue
            jkey = frozenset(joined)
            if jkey not in found:
                found[jkey] = gens + sgens
                queue.append(jkey)
    return [index.with_elements(PermGroup(index.degree, found[key]), key)
            for key in sorted(found, key=_set_sort_key)]


@functools.lru_cache(maxsize=None)
def lattice_oracle(group):
    """Every subgroup of group, sorted by element set: every cyclic subgroup
    joined with every subgroup found by join_lattice, the library's search
    before it listed one member per class and took conjugation orbits.
    Kept per group."""
    index = ElementIndex(group)
    cyclics = {}
    for i, e in enumerate(index.elements[1:], 1):
        powers = {0}
        x = i
        while x:
            powers.add(x)
            x = index.mul(x, i)
        cyclics.setdefault(frozenset(powers), (e,))
    return join_lattice(index, cyclics)


def subgroup_classes_oracle(group):
    """(element set, class size) of every subgroup class, in rep order: the
    whole lattice from lattice_oracle, partitioned by subgroup_conjugacy_classes."""
    from hallperm.subgroup import subgroup_conjugacy_classes
    classes = subgroup_conjugacy_classes(group, lattice_oracle(group))
    return [(rep.element_set(), size) for rep, size in classes]


def maximal_subgroup_reps_oracle(group):
    """Element sets of one rep per class of maximal subgroups: the proper
    subgroups that no other proper subgroup strictly contains."""
    from hallperm.subgroup import subgroup_conjugacy_classes
    order = group.order()
    keys = [(k.element_set(), k) for k in lattice_oracle(group) if k.order() < order]
    maximal = [g for key, g in keys if not any(key < other for other, _ in keys)]
    return [rep.element_set() for rep, _ in subgroup_conjugacy_classes(group, maximal)]


def normalizer_ascent_sylow(group, p):
    """Generators of a Sylow p-subgroup grown by ascending normalizers, the
    library's construction before it scanned for normalizing p-elements:
    seed with the p-power part of the first element of order divisible by
    p, then form N(Q) by a scan of the group and adjoin its first p-element
    outside Q, until Q has the p-part of |group|.  Closures are taken by
    closure_oracle."""
    from hallperm.numth import is_p_power, p_part
    elements = group.elements()
    target = p_part(len(elements), p)
    if target == 1:
        return []
    e = next(e for e in elements if e.order() % p == 0)
    gens = [e ** (e.order() // p_part(e.order(), p))]
    members = closure_oracle(group.degree, gens)
    while len(members) < target:
        norm = [x for x in elements if all(tuple(s.conj(x)) in members for s in gens)]
        gens.append(next(x for x in norm if is_p_power(x.order(), p) and tuple(x) not in members))
        members = closure_oracle(group.degree, gens)
    return gens


def hall_sweep_oracle(group, pi):
    """Reps of the pi-Hall classes, in order: the library's search before it
    ran the subgroup join loop.  A Sylow subgroup P of the prime with the
    most Sylow subgroups (ties to the larger prime) is joined with every
    tuple of Sylow subgroups of the other primes of pi; the joins of the
    Hall order, sorted by element set, are partitioned by
    subgroup_conjugacy_classes."""
    import itertools
    from hallperm.group import group_from_elements, trivial_group
    from hallperm.hall import pi_part
    from hallperm.subgroup import all_sylow_subgroups, subgroup_conjugacy_classes, sylow
    order = group.order()
    target = pi_part(order, pi)
    if target == 1:
        return [trivial_group(group.degree)]
    if target == order:
        return [group]
    relevant = [p for p in sorted(pi) if order % p == 0]
    sylow_lists = {p: all_sylow_subgroups(group, p) for p in relevant}
    fixed_p = max(relevant, key=lambda p: (len(sylow_lists[p]), p))
    fixed = sylow(group, fixed_p).group
    index = ElementIndex(group)
    fixed_key = index.key(fixed)
    fixed_gens = index.numbers(fixed.generators)
    candidates = {}
    for combo in itertools.product(*(sylow_lists[p] for p in relevant if p != fixed_p)):
        gens = fixed_gens + [index.number[g] for q in combo for g in q.generators]
        closed = index.join(fixed_key, gens, target)
        if closed is None or len(closed) != target:
            continue
        key = frozenset(closed)
        if key not in candidates:
            candidates[key] = group_from_elements(group.degree, [index.elements[i] for i in key])
    groups = [candidates[k] for k in sorted(candidates, key=_set_sort_key)]
    return [rep for rep, _ in subgroup_conjugacy_classes(group, groups)]
