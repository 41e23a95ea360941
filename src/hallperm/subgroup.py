"""Subgroup machinery: normality, normalizers, Sylow subgroups, subgroup
lattices, and conjugacy searches with replayable witnesses.

Every search here is exhaustive in the canonical element order (sorted image
tuples), so the first witness found is always the lexicographically least
one and reruns produce identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, DegreeMismatch, GroupError, Caps, DEFAULT_CAPS
from .group import (ElementIndex, NumberClosure, PermGroup, Permutation, combine_blockwise,
                    decompose_blockwise, group_from_elements, orbit, pick_generators,
                    subgroup_check, trivial_group)
from .numth import is_p_power, is_prime, p_part, prime_divisors
from .perm import conjugation, gather, inverse_images


@dataclass(frozen=True)
class Subgroup:
    """A plain record pairing a subgroup with the group it was computed in.

    Results are wrapped in one on return and never cached, so no group's
    cache refers back to the group.  Construction checks nothing: the
    public entries check membership of the subgroups they are given, and
    ignore the record's parent in favour of the parent they are passed.
    """

    parent: PermGroup
    group: PermGroup

    def order(self) -> int:
        return self.group.order()

    def __repr__(self):
        return f"Subgroup(order={self.group.order()} of order={self.parent.order()})"


def _as_group(h) -> PermGroup:
    return h.group if isinstance(h, Subgroup) else h


@dataclass(frozen=True)
class ConjugacyWitness:
    """A conjugating element g with source^g = target (or <= for `into`).

    Replayed on construction: every source generator conjugated by the
    witness must land in the target, and for equality witnesses the orders
    must agree.
    """

    element: Permutation
    source: PermGroup
    target: PermGroup
    into: bool = False

    def __post_init__(self):
        for g in self.source.generators:
            if not self.target.contains(g.conj(self.element)):
                raise GroupError("conjugacy witness fails replay")
        if not self.into and self.source.order() != self.target.order():
            raise GroupError("conjugacy witness relates groups of unequal order")

    def inverse(self) -> "ConjugacyWitness":
        if self.into:
            raise GroupError("an into-witness cannot be inverted")
        return ConjugacyWitness(~self.element, self.target, self.source)


def conjugated_key(elems, g: Permutation):
    return frozenset(map(conjugation(g), elems))


def _conjugating_into(elements, gens, target_set):
    """The positions i, ascending, with h^elements[i] in target_set for every h in gens.

    h^x as in Permutation.conj, with each h's gather taken once: the tuples
    it gives hash and compare as the permutations they list.
    """
    if not gens:
        yield from range(len(elements))
        return
    gathers = [gather(h) for h in gens]
    for i, x in enumerate(elements):
        inverse = gather(inverse_images(x))
        if all(inverse(h(x)) in target_set for h in gathers):
            yield i


def is_normal(parent: PermGroup, sub) -> bool:
    """True iff a^g stays in sub for all generators a of sub, g of parent."""
    sub = _as_group(sub)
    subgroup_check(parent, sub)
    return all(sub.contains(a.conj(g)) for a in sub.generators for g in parent.generators)


def normalizer(parent: PermGroup, sub, caps: Caps = DEFAULT_CAPS) -> Subgroup:
    """N_parent(sub) = {g : sub^g = sub}, by a scan of the parent's elements.

    CapExceeded("enum_cap") when the parent is beyond enumeration, whatever
    block structure it carries.
    """
    sub = _as_group(sub)
    subgroup_check(parent, sub)
    return Subgroup(parent, _normalizer(parent, sub, caps))


_WHOLE = "whole"


def _normalizer(parent: PermGroup, sub: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """N_parent(sub) for a sub the caller has already checked to lie in parent.

    A normalizer that is all of parent is parent itself, so that the caches
    keyed on parent serve it; its cache entry is the marker _WHOLE, since
    parent in its own cache would be a reference cycle.
    """
    cache_key = ("normalizer", sub.key(caps))
    cached = parent._cache.get(cache_key)
    if cached is not None:
        return parent if cached is _WHOLE else cached

    elements = parent.elements(caps)
    members = [elements[i] for i in _conjugating_into(elements, sub.generators,
                                                        sub.element_set(caps))]
    if len(members) == len(elements):
        parent._cache[cache_key] = _WHOLE
        return parent
    result = group_from_elements(parent.degree, members)
    parent._cache[cache_key] = result
    return result


def sylow(parent: PermGroup, p: int, caps: Caps = DEFAULT_CAPS) -> Subgroup:
    """A Sylow p-subgroup, grown by ascending normalizers.

    Start from the p-power part of the first element of order divisible by
    p; while the subgroup Q is not yet full, N(Q) contains a p-element
    outside Q (p-groups are proper in their Sylow normalizer), and the first
    such element in canonical order extends it.  That element is the first
    p-element x of the parent outside Q with Q's generators^x in Q, so one
    scan of the parent per step finds it and no normalizer is formed.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    current = parent._cache.get(("sylow", p))
    if current is not None:
        return Subgroup(parent, current)
    target = p_part(parent.order(), p)
    if target == 1:
        current = trivial_group(parent.degree)
    else:
        elements = parent.elements(caps)
        e = next(e for e in elements if e.order() % p == 0)
        seed = e ** (e.order() // p_part(e.order(), p))
        closure = NumberClosure(ElementIndex(parent, caps))
        gens = pick_generators(closure, [seed])
        while len(closure.members) < target:
            extended = next((x for x in elements if not closure.contains(x)
                             and is_p_power(x.order(), p)
                             and all(closure.contains(s.conj(x)) for s in gens)), None)
            if extended is None:
                raise GroupError("sylow ascent stalled (library bug)")
            gens += pick_generators(closure, [extended])
        current = closure.group(gens)
        if current.order() != target:
            raise GroupError("sylow construction produced a wrong order")
    parent._cache[("sylow", p)] = current
    return Subgroup(parent, current)


def all_sylow_subgroups(parent: PermGroup, p: int, caps: Caps = DEFAULT_CAPS):
    """Every Sylow p-subgroup: the conjugation orbit of one of them."""
    cached = parent._cache.get(("all_sylow", p))
    if cached is None:
        start = sylow(parent, p, caps).group
        start_elems = start.element_set(caps)
        keys = orbit([start_elems], parent.generators, conjugated_key)
        cached = [start if k == start_elems else group_from_elements(parent.degree, k)
                  for k in sorted(keys, key=_set_sort_key)]
        parent._cache[("all_sylow", p)] = cached
    return list(cached)


def _set_sort_key(elems):
    return (len(elems), tuple(sorted(elems)))


def _join_orbits(index: ElementIndex, seeds, limit=None, start=(frozenset([0]), ())):
    """(explored, short): the subgroup classes reached from start by joins with seeds.

    start is (key, numbers generating it), by default the trivial group;
    seeds are lists of element numbers.  One explored member M per class is
    joined with every seed not inside it, cut off past limit elements and
    kept if its order divides limit; without a limit, past |G|/2, and then
    it is G (Lagrange).  Members of order limit are not joined.  A new join
    enters with its conjugation orbit, each y^g looked up by number, as
    {member key: x} with M^x the member; start, whose class no join meets,
    enters alone unless it is kept at the limit.  explored lists (key of M,
    numbers generating M, members) in discovery order; short holds the
    explored keys with a join not cut off, which without a limit is a join
    short of G.
    """
    elements, number, n = index.elements, index.number, len(index.elements)
    conjugators = [(s, conjugation(elements[s])) for s in index.generators]
    whole = frozenset(range(n))
    found, explored, short = set(), [], set()

    def enter(key, gens, orbit=True):
        members = {key: 0}
        # gens generate the key, so it is normal, and its own orbit, when their
        # conjugates stay in it
        if orbit and not all(number[conj(elements[y])] in key
                             for y in gens for _, conj in conjugators):
            frontier = [key]
            for k in frontier:    # a dict may not grow while it is iterated; a list may
                x = members[k]
                for s, conj in conjugators:
                    image = frozenset(number[conj(elements[y])] for y in k)
                    if image not in members:
                        members[image] = index.mul(x, s)
                        frontier.append(image)
        found.update(members)
        explored.append((key, gens, members))

    enter(start[0], list(start[1]), not limit or len(start[0]) == limit)
    for key, gens, _ in explored:
        if len(key) == limit:
            continue
        for seed in seeds:
            if key.issuperset(seed):
                continue
            joined = index.join(key, gens + seed, limit or n // 2)
            if joined is not None:
                short.add(key)
            elif limit:
                continue
            else:
                joined = whole
            # without a limit, every join divides |G|
            if not (limit or n) % len(joined) and joined not in found:
                enter(frozenset(joined), gens + seed)
    return explored, short


def _class_orbits(parent: PermGroup, order_divides, caps: Caps):
    """parent's ElementIndex and, per conjugacy class of subgroups whose order
    divides order_divides, (rep key, {member key: x}, maximal), sorted by rep key.

    Keys are number sets, and the rep is the orbit's least element set.
    The seeds are [c], one generator c per cyclic subgroup C of prime-power
    order.  Cyclic extension: <M^x, C> = <M, C^(x^-1)>^x with C^(x^-1) again
    a seed, so _join_orbits reaches every class; prime-power seeds suffice,
    since each element is the product of powers of itself of prime-power
    order.  maximal: unfiltered, a proper class with no join short of G
    (suites._maximal_subgroup_reps).  CapExceeded past subgroup_cap.
    """
    n = parent.order()
    if n > caps.subgroup_cap:
        raise CapExceeded("subgroup_cap", caps.subgroup_cap, n)
    index = ElementIndex(parent, caps)
    seeds, cyclics = [], set()
    for i, e in enumerate(index.elements[1:], 1):
        order = e.order()
        if len(prime_divisors(order)) > 1 or (order_divides is not None and order_divides % order):
            continue
        powers, x = {0}, i
        while x:
            powers.add(x)
            x = index.mul(x, i)
        if powers not in cyclics:
            cyclics.add(frozenset(powers))
            seeds.append([i])
    explored, short = _join_orbits(index, seeds, order_divides)
    classes = [(min(members, key=_set_sort_key), members,
                order_divides is None and len(key) < n and key not in short)
               for key, _, members in explored]
    return index, sorted(classes, key=lambda cls: _set_sort_key(cls[0]))


def _rep_group(index: ElementIndex, rep):
    return group_from_elements(index.degree, [index.elements[i] for i in rep])


def all_subgroups(parent: PermGroup, order_divides=None, caps: Caps = DEFAULT_CAPS):
    """Every subgroup, optionally only those whose order divides a target.

    The members of the subgroup_classes orbits, sorted by element set.  A
    member M = M0^x of the class whose rep is R = M0^c has the generators of
    R conjugated by c^-1 x, and its element caches filled from its numbers.
    Same filter and cap as subgroup_classes; the list is cached.
    """
    cache_key = ("all_subgroups", order_divides)
    cached = parent._cache.get(cache_key)
    if cached is None:
        index, classes = _class_orbits(parent, order_divides, caps)
        listed = []
        for rep, members, _ in classes:
            gens = _rep_group(index, rep).generators
            back = ~index.elements[members[rep]]
            for key, x in members.items():
                y = back * index.elements[x]
                listed.append((key, PermGroup(parent.degree, [g.conj(y) for g in gens])))
        listed.sort(key=lambda item: _set_sort_key(item[0]))
        cached = parent._cache[cache_key] = [index.with_elements(g, key) for key, g in listed]
    return [Subgroup(parent, g) for g in cached]


def subgroup_classes(parent: PermGroup, order_divides=None, caps: Caps = DEFAULT_CAPS):
    """(rep, class size) per conjugacy class of subgroups whose order divides
    order_divides, sorted by rep, each rep the least element set of its
    class, without listing the lattice (see _class_orbits).  CapExceeded
    past subgroup_cap; nothing is cached.
    """
    index, classes = _class_orbits(parent, order_divides, caps)
    return [(_rep_group(index, rep), len(members)) for rep, members, _ in classes]


def subgroup_conjugacy_classes(parent: PermGroup, groups, caps: Caps = DEFAULT_CAPS):
    """Partition subgroups of parent into conjugacy classes.

    Returns (rep, class_size) pairs, one per class met among `groups`, the
    rep being the subgroup with the least element set in its full orbit.
    The orbit is closed under all parent generators, so class sizes are
    exact even when `groups` holds only part of a class.
    """
    pending = {}
    for g in groups:
        pending.setdefault(g.element_set(caps), g)
    classes = []
    visited = set()
    for key in sorted(pending, key=_set_sort_key):
        if key in visited:
            continue
        keys = orbit([key], parent.generators, conjugated_key)
        visited.update(keys)
        rep_key = min(keys, key=_set_sort_key)
        rep = pending.get(rep_key) or group_from_elements(parent.degree, rep_key)
        classes.append((rep, len(keys)))
    return classes


def _is_conjugate_blockwise(parent: PermGroup, h: PermGroup, k: PermGroup, caps: Caps):
    """Blockwise conjugacy for (shifted) direct products.

    Returns ("na", None) when the structure does not apply, otherwise
    ("ok", witness_or_None).  For a shifted product (regular wreath), a
    conjugator y*shift^j rotates the block components by j, so each rotation
    is tried with per-block searches in the factors.
    """
    structure = parent.factors
    if structure is None:
        return "na", None
    blocks = structure.blocks
    h_parts = decompose_blockwise(h, blocks)
    k_parts = decompose_blockwise(k, blocks)
    if h_parts is None or k_parts is None:
        return "na", None
    factors = structure.factor_groups
    p = len(blocks)
    if structure.shift is None:
        rotations = [list(range(p))]
    else:
        # sigma: where conjugation by the shift sends each block's content
        starts = {block[0]: idx for idx, block in enumerate(blocks)}
        sigma = [starts[structure.shift[block[0]]] for block in blocks]
        rotations = []
        current = list(range(p))
        for _ in range(p):
            rotations.append(current)
            current = [sigma[i] for i in current]
    for j, rotation in enumerate(rotations):
        parts = []
        for i in range(p):
            # h^(y * shift^j) has component h_i^(y_i) at block rotation[i]
            w = is_conjugate(factors[i], h_parts[i], k_parts[rotation[i]], caps)
            if w is None:
                parts = None
                break
            parts.append(w.element)
        if parts is None:
            continue
        # h^(y * shift^j) = (h^y)^(shift^j): y conjugates inside each block,
        # then the shift rotates the blocks
        element = combine_blockwise(parts, blocks, parent.degree)
        if j:
            element = element * structure.shift ** j
        return "ok", ConjugacyWitness(element, h, k)
    return "ok", None


def is_conjugate(parent: PermGroup, h, k, caps: Caps = DEFAULT_CAPS):
    """A witness g with h^g = k inside parent, or None for proven absence.

    Unequal orders are absence without search.  A usable block structure is
    solved per block and combined; otherwise g is the least conjugator in
    the parent (_is_conjugate_transversal).
    """
    h = _as_group(h)
    k = _as_group(k)
    subgroup_check(parent, h)
    subgroup_check(parent, k)
    if h.order() != k.order():
        return None
    if all(k.contains(g) for g in h.generators):
        return ConjugacyWitness(parent.identity, h, k)
    status, witness = _is_conjugate_blockwise(parent, h, k, caps)
    if status == "ok":
        return witness
    return _is_conjugate_transversal(parent, h, k, caps)


def _is_conjugate_transversal(parent: PermGroup, h: PermGroup, k: PermGroup, caps: Caps):
    """The least g with h^g = k, for h and k of one order, or None: those g form
    a right coset of N_parent(h), whose least element is its right_transversal rep."""
    x, _ = find_conjugator_in(parent, h, k, caps)
    return None if x is None else ConjugacyWitness(x, h, k)


def conjugate_into(parent: PermGroup, k, h, caps: Caps = DEFAULT_CAPS):
    """A witness x in parent with k^x <= h, or None for proven absence.

    Exhaustive scan over the parent's elements in canonical order, so the
    returned witness is the least one.
    """
    k = _as_group(k)
    h = _as_group(h)
    subgroup_check(parent, k)
    subgroup_check(parent, h)
    if h.order() % k.order() != 0:
        return None
    h_set = h.element_set(caps)
    if all(g in h_set for g in k.generators):
        return ConjugacyWitness(parent.identity, k, h, into=True)
    x, _ = find_conjugator_in(parent, k, h, caps)
    return None if x is None else ConjugacyWitness(x, k, h, into=True)


def find_conjugator_in(joint: PermGroup, source: PermGroup, target: PermGroup,
                       caps: Caps = DEFAULT_CAPS):
    """(least x in joint with source^x <= target, or None; elements scanned).

    Canonical order; source^x = target when the two share their order.  The
    joint is enumerated first, so CapExceeded reports the joint's order.
    """
    elements = joint.elements(caps)
    target_set = target.element_set(caps)
    if source.degree != joint.degree:
        raise DegreeMismatch(f"degree {source.degree} subgroup in a degree {joint.degree} joint")
    i = next(_conjugating_into(elements, source.generators, target_set), None)
    return (None, len(elements)) if i is None else (elements[i], i + 1)


def overgroups(parent: PermGroup, sub, caps: Caps = DEFAULT_CAPS):
    """Every subgroup M with sub <= M <= parent, sorted by element set.

    The members of all_subgroups(parent) that hold sub's generators, so it
    raises CapExceeded("subgroup_cap") past subgroup_cap, as all_subgroups does.
    """
    sub = _as_group(sub)
    subgroup_check(parent, sub)
    return [m for m in all_subgroups(parent, caps=caps)
            if all(m.group.contains(g) for g in sub.generators)]


def element_conjugacy_classes(parent: PermGroup, caps: Caps = DEFAULT_CAPS):
    """Conjugacy classes of elements, each a sorted list, reps first elements."""
    conjugations = [conjugation(g) for g in parent.generators]
    visited = set()
    classes = []
    for e in parent.elements(caps):
        if e in visited:
            continue
        cls = orbit([e], conjugations, lambda x, conj: conj(x))
        visited.update(cls)
        classes.append(sorted(cls))
    return classes


def centralizer(parent: PermGroup, element: Permutation, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    members = [g for g in parent.elements(caps) if g * element == element * g]
    return group_from_elements(parent.degree, members)
