"""Permutation groups with deterministic stabilizer chains.

The chain is built by the deterministic Schreier-Sims algorithm: every
Schreier generator of every level is sifted exactly once, in a fixed order,
so orders, transversals, element streams and witnesses are reproducible bit
for bit.  No randomization is used anywhere.

Each level holds its transversal elements u and, filled in the same order,
their inverses u^-1, and each strong generator is stored with its inverse, so
sifting and forming Schreier generators multiply but never invert.

A caller that has proved an upper bound on the group's order may pass it to
add_generator; the drain then stops as soon as the chain's order reaches it,
which is sound because a chain's order never exceeds that of the group its
strong generators come from.  group_over_blocks proves such a bound from a
block system and seeds the chain with a direct product over the blocks.
When the direct product already has the bound's order, no chain is
assembled on the whole degree.  split_join, given the proven factors of a
group holding both joined groups, bounds each joint component by the order
of that group's factor on its block, and a component that reaches it is
that factor group.  The stop depends only on the order, so the build stays
deterministic.  Block-sized work reads permutations through BlockSlots.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import CapExceeded, DegreeMismatch, GroupError, NotASubgroup, Caps, DEFAULT_CAPS
from .perm import Permutation, conjugation, gather


class _Level:
    __slots__ = ("beta", "own_gens", "transversal", "inverse")

    def __init__(self, beta, identity):
        self.beta = beta
        # (g, g^-1) for each strong generator first moving beta
        self.own_gens = []
        # point -> u with u[beta] = point; insertion order is the BFS order
        self.transversal = {beta: identity}
        # point -> u^-1, in the same order
        self.inverse = {beta: identity}


class StabilizerChain:
    """Base, strong generators and basic orbits with transversal elements.

    Strong generators are stored at the first level whose base point they
    move; the generating set of level i is the suffix union from i on, so a
    generator found deep in the chain automatically participates in every
    orbit above it.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.levels: list[_Level] = []
        self._identity = Permutation.identity(degree)
        self._queue: deque = deque()

    @classmethod
    def build(cls, degree: int, generators) -> "StabilizerChain":
        chain = cls(degree)
        for g in generators:
            chain.add_generator(g)
        return chain

    @classmethod
    def direct_product(cls, degree: int, blocks, chains) -> "StabilizerChain":
        """The chain of the direct product of groups on the disjoint blocks.

        chains[i] is a chain on 0..len(blocks[i])-1; its base points,
        transversals, stored inverses and (g, g^-1) strong generator pairs
        are inflated onto blocks[i], level by level.  A base and strong
        generating set of a direct product is the union of the factors'
        (Seress, Permutation Group Algorithms, 2003, ch. 4-5): the levels of
        later blocks fix the earlier blocks pointwise, so each strong
        generator still sits at the first level whose base point it moves
        and every basic orbit is the factor's.  No Schreier-Sims is run.
        """
        chain = cls(degree)
        for block, part in zip(blocks, chains):
            part._relabel_into(chain, block, _inflation(block, degree))
        return chain

    def conjugate(self, sigma: Permutation) -> "StabilizerChain":
        """The chain of the group conjugated by sigma, relabelled without Schreier-Sims.

        Each base point b becomes b^sigma, and each transversal element,
        stored inverse and (g, g^-1) strong generator pair is conjugated by
        sigma: u maps b to p exactly when u^sigma maps b^sigma to p^sigma,
        and x moves b exactly when x^sigma moves b^sigma, so every level
        keeps its orbit, its BFS order and its strong generators.
        """
        if len(sigma) != self.degree:
            raise DegreeMismatch(f"degree {len(sigma)} conjugator for a degree {self.degree} chain")
        chain = StabilizerChain(self.degree)
        self._relabel_into(chain, sigma, conjugation(sigma))
        return chain

    def copy(self) -> "StabilizerChain":
        """An independent chain with the same levels, to grow without touching this one."""
        chain = StabilizerChain(self.degree)
        self._relabel_into(chain, self._identity, lambda x: x)
        return chain

    def _relabel_into(self, chain, point, element):
        """Append this chain's levels to chain, each point p as point[p] and
        each stored element x as element(x)."""
        for lvl in self.levels:
            new = _Level(point[lvl.beta], chain._identity)
            new.own_gens = [(element(s), element(s_inv)) for s, s_inv in lvl.own_gens]
            new.transversal = {point[pt]: element(u) for pt, u in lvl.transversal.items()}
            new.inverse = {point[pt]: element(u) for pt, u in lvl.inverse.items()}
            chain.levels.append(new)

    # -- queries ---------------------------------------------------------

    @property
    def base(self):
        return tuple(lvl.beta for lvl in self.levels)

    def order(self) -> int:
        return math.prod(len(lvl.transversal) for lvl in self.levels)

    def strong_generators(self):
        return [g for lvl in self.levels for g, _ in lvl.own_gens]

    def sift(self, p: Permutation, start: int = 0) -> Permutation:
        """Strip p through the chain; identity result means membership."""
        for lvl in self.levels[start:]:
            delta = p[lvl.beta]
            if delta == lvl.beta:
                continue
            u_inv = lvl.inverse.get(delta)
            if u_inv is None:
                return p
            p = p * u_inv
        return p

    def contains(self, p: Permutation) -> bool:
        return self.sift(p).is_identity

    def iter_elements(self):
        """Yield every element once (unsorted coset-product order)."""
        result = [self._identity]
        for lvl in reversed(self.levels):
            transversal = list(lvl.transversal.values())
            result = [h * u for h in result for u in transversal]
        return result

    # -- construction ----------------------------------------------------

    def add_generator(self, g: Permutation, bound: Optional[int] = None):
        """Add g and run Schreier-Sims; with bound, an upper bound on the
        order of a group that contains the chain's elements and g, stop as
        soon as the chain's order reaches it."""
        if len(g) != self.degree:
            raise DegreeMismatch(f"degree {len(g)} generator in degree {self.degree} chain")
        residue = self.sift(g)
        if not residue.is_identity:
            self._install(residue)
            self._drain(bound)

    def _suffix_gens(self, i):
        """(g, g^-1) for the strong generators of level i."""
        return [pair for lvl in self.levels[i:] for pair in lvl.own_gens]

    def _install(self, g: Permutation):
        i = 0
        while i < len(self.levels) and g[self.levels[i].beta] == self.levels[i].beta:
            i += 1
        if i == len(self.levels):
            self.levels.append(_Level(g.min_moved(), self._identity))
        lvl = self.levels[i]
        # each install strictly enlarges the group at its level, and subgroup
        # chains in Sym(n) have fewer than 3n/2 steps (Cameron, Solomon and
        # Turull, 1989): more means corrupt transversals, which would loop
        if len(lvl.own_gens) >= 2 * self.degree:
            raise GroupError(f"level {i} outgrew every subgroup chain of Sym({self.degree})")
        g_inv = ~g
        lvl.own_gens.append((g, g_inv))
        # Schreier pairs of g at every level it now generates, then grow the
        # orbits it may have unlocked.
        for k in range(i + 1):
            for pt in list(self.levels[k].transversal):
                self._queue.append((k, pt, g))
        for k in range(i + 1):
            self._extend_orbit(k, g, g_inv)

    def _extend_orbit(self, k, new_gen, new_inv):
        lvl = self.levels[k]
        transversal, inverse = lvl.transversal, lvl.inverse
        gens = self._suffix_gens(k)
        frontier = deque()
        for pt in list(transversal):
            img = new_gen[pt]
            if img not in transversal:
                transversal[img] = transversal[pt] * new_gen
                inverse[img] = new_inv * inverse[pt]
                frontier.append(img)
                for s, _ in gens:
                    self._queue.append((k, img, s))
        while frontier:
            pt = frontier.popleft()
            for s, s_inv in gens:
                img = s[pt]
                if img not in transversal:
                    transversal[img] = transversal[pt] * s
                    inverse[img] = s_inv * inverse[pt]
                    frontier.append(img)
                    for s2, _ in gens:
                        self._queue.append((k, img, s2))

    def _drain(self, bound=None):
        # the sift products of a chain are distinct elements of the group its
        # strong generators lie in, so an order that reaches a proven bound
        # on that group's order means every element sifts: the pending
        # Schreier generators would all sift to the identity
        queue = self._queue
        if bound is not None and self.order() == bound:
            queue.clear()
        while queue:
            k, pt, s = queue.popleft()
            lvl = self.levels[k]
            # the Schreier generator u s u'^-1, u' the transversal element of s[pt]
            img = s[pt]
            us = lvl.transversal[pt] * s
            if us == lvl.transversal[img]:
                continue
            residue = self.sift(us * lvl.inverse[img], start=k + 1)
            if not residue.is_identity:
                self._install(residue)
                if bound is not None and self.order() == bound:
                    queue.clear()

    def check_invariants(self):
        """Sift every strong generator, recompute every basic orbit and check
        every stored inverse."""
        for g in self.strong_generators():
            if not self.sift(g).is_identity:
                raise GroupError("strong generator fails to sift")
        for i, lvl in enumerate(self.levels):
            pairs = self._suffix_gens(i)
            if orbit([lvl.beta], [s for s, _ in pairs], _image) != set(lvl.transversal):
                raise GroupError(f"basic orbit mismatch at level {i}")
            if not all((s * s_inv).is_identity for s, s_inv in pairs):
                raise GroupError(f"strong generator inverse mismatch at level {i}")
            if list(lvl.inverse) != list(lvl.transversal):
                raise GroupError(f"inverse keys differ from transversal keys at level {i}")
            for pt, u in lvl.transversal.items():
                if u[lvl.beta] != pt:
                    raise GroupError(f"transversal element mismatch at level {i}")
                if not (u * lvl.inverse[pt]).is_identity:
                    raise GroupError(f"stored inverse mismatch at level {i}")


@dataclass(frozen=True)
class DirectFactorStructure:
    """A block decomposition the library has proved for the group carrying it.

    blocks hold the point sets of the factors (sorted tuples); shift, when
    present, cyclically permutes the blocks (wreath products).  The group's
    order is the product of the factors' orders, times the shift's order
    when there is one.  slots reads permutations over the blocks (BlockSlots);
    it is made on first use.
    """

    blocks: tuple
    factor_groups: tuple
    shift: Optional[Permutation] = None

    @functools.cached_property
    def slots(self) -> "BlockSlots":
        return BlockSlots(self.blocks)


class PermGroup:
    """Degree + generators with a lazily built stabilizer chain.

    Immutable once the chain is built; all queries afterwards are read-only.
    order() and contains() answer from the element caches when they are filled.

    factors is None or a block decomposition the library has proved: only
    split_group, for a direct product of its factors, and wreath_regular,
    after checking the order on a Schreier-Sims chain, set it.  A group
    whose factors have no shift is split: it answers order() and contains()
    from the factors, and its chain is assembled from theirs
    (StabilizerChain.direct_product) only when asked for.
    """

    def __init__(self, degree: int, generators=(), chain: Optional[StabilizerChain] = None,
                 provenance: Optional[str] = None):
        gens = []
        seen = set()
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if len(g) != degree:
                raise DegreeMismatch(f"generator degree {len(g)} in degree-{degree} group")
            if g.is_identity or g in seen:
                continue
            seen.add(g)
            gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self.factors: Optional[DirectFactorStructure] = None
        self.provenance = provenance
        self._chain = chain
        self._cache: dict = {}

    # -- basics ----------------------------------------------------------

    @property
    def chain(self) -> StabilizerChain:
        if self._chain is None:
            factors = self.factors
            if factors is not None and factors.shift is None:
                self._chain = StabilizerChain.direct_product(
                    self.degree, factors.blocks, [f.chain for f in factors.factor_groups])
            else:
                self._chain = StabilizerChain.build(self.degree, self.generators)
        return self._chain

    def order(self) -> int:
        known = self._cache.get("elements")
        if known is not None:
            return len(known)
        factors = self.factors
        if factors is not None and factors.shift is None:
            return math.prod(f.order() for f in factors.factor_groups)
        return self.chain.order()

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def contains(self, p: Permutation) -> bool:
        if len(p) != self.degree:
            raise DegreeMismatch(f"degree {len(p)} element against degree-{self.degree} group")
        known = self._cache.get("element_set")
        if known is not None:
            return p in known
        elements = self._cache.get("elements")
        if elements is None:
            factors = self.factors
            if factors is not None and factors.shift is None:
                return self._contains_blockwise(p)
            return self.chain.contains(p)
        # the sorted list answers a few lookups without building the set
        i = bisect_left(elements, p)
        return i < len(elements) and elements[i] == p

    def _contains_blockwise(self, p: Permutation) -> bool:
        """p maps each block onto itself and lies in the factor there; the
        test stops at the first block that p leaves or whose factor misses it."""
        factors = self.factors
        restrict = factors.slots.restrict
        for i, f in enumerate(factors.factor_groups):
            x = restrict(p, i)
            if x is None or not f.contains(x):
                return False
        return True

    def contains_group(self, other: "PermGroup") -> bool:
        return all(self.contains(g) for g in other.generators)

    def elements(self, caps: Caps = DEFAULT_CAPS):
        """All elements, sorted lexicographically by image sequence."""
        cached = self._cache.get("elements")
        if cached is None:
            n = self.order()
            if n > caps.enum_cap:
                raise CapExceeded("enum_cap", caps.enum_cap, n)
            cached = sorted(self.chain.iter_elements())
            self._cache["elements"] = cached
        return cached

    def element_set(self, caps: Caps = DEFAULT_CAPS):
        cached = self._cache.get("element_set")
        if cached is None:
            cached = frozenset(self.elements(caps))
            self._cache["element_set"] = cached
        return cached

    def key(self, caps: Caps = DEFAULT_CAPS):
        """Canonical identity of the group as a set of elements."""
        return self.element_set(caps)

    def orbit(self, point: int):
        """Orbit of a point, as a sorted tuple."""
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} outside 0..{self.degree - 1}")
        return tuple(sorted(orbit([point], self.generators, _image)))

    def conjugate(self, g: Permutation) -> "PermGroup":
        return PermGroup(self.degree, [h.conj(g) for h in self.generators])

    def __repr__(self):
        label = self.provenance or f"{len(self.generators)} gens"
        return f"PermGroup(degree={self.degree}, {label})"


def trivial_group(degree: int) -> PermGroup:
    return PermGroup(degree, ())


def group_from_elements(degree: int, elements) -> PermGroup:
    """Group whose element set is the given closed set, with few generators.

    Picks, in canonical order, each element outside the closure of earlier
    picks; GroupError if the set is not closed under products."""
    members = sorted(set(elements))
    if not members or members[0] != Permutation.identity(degree):
        raise GroupError(f"element set lacks the degree-{degree} identity")
    closure = NumberClosure(ElementIndex(members))
    try:
        return closure.group(pick_generators(closure, members))
    except KeyError:
        raise GroupError("element set is not closed under products") from None


def orbit(seeds, gens, act):
    """Breadth-first closure of seeds under x -> act(x, g) for g in gens, as a set."""
    seen = set(seeds)
    frontier = deque(seen)
    while frontier:
        x = frontier.popleft()
        for g in gens:
            y = act(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


class ElementIndex:
    """An enumerable group's elements numbered 0, 1, ... in canonical order.

    The group may also be given as its sorted element list, which has no
    generators.  Subgroup closures run on these numbers.  Right
    multiplication by a number g has a memo row {x: x * g}, filled as
    products are asked for: one Permutation product per distinct (x, g)
    pair, and only for the g that a closure multiplies by.  The rows grow
    with every closure, so an index lives for one computation and is never
    stored on the group.  The identity, the least element, is number 0, and
    a set of numbers sorted ascending lists its elements in canonical order.
    """

    def __init__(self, group, caps: Caps = DEFAULT_CAPS):
        is_group = isinstance(group, PermGroup)
        self.caps = caps
        self.elements = group.elements(caps) if is_group else group
        self.degree = len(self.elements[0])
        self.number = {e: i for i, e in enumerate(self.elements)}
        self.generators = self.numbers(group.generators) if is_group else []
        self._rows = defaultdict(dict)

    def numbers(self, perms):
        return [self.number[p] for p in perms]

    def key(self, group: PermGroup):
        """The numbers of a subgroup's elements."""
        return frozenset(self.numbers(group.element_set(self.caps)))

    def times(self, xs, g: int):
        """[x * g for x in xs], for a list xs."""
        row = self._rows[g]
        out = list(map(row.get, xs))
        if None in out:
            pg = self.elements[g]
            for i, y in enumerate(out):
                if y is None:
                    x = xs[i]
                    out[i] = row[x] = self.number[self.elements[x] * pg]
        return out

    def mul(self, x: int, g: int) -> int:
        y = self._rows[g].get(x)
        return self.times([x], g)[0] if y is None else y

    def join(self, sub, gens, limit=None):
        """Numbers of <K, gens> for the subgroup K with numbers sub, or None past limit.

        gens must generate K together with what is adjoined.  Dimino's
        closure on right cosets Kx: each coset rep r times each generator g
        lands in a coset already present or in the new coset Krg = (Kr)g.
        """
        seen = set(sub)
        cosets = [list(sub)]
        reps = [0]
        rows = [self._rows[g] for g in gens]
        for r, coset in zip(reps, cosets):
            for g, row in zip(gens, rows):
                x = row.get(r)
                if x is None:
                    x = self.mul(r, g)
                if x in seen:
                    continue
                if limit is not None and len(seen) + len(sub) > limit:
                    return None
                image = self.times(coset, g)
                seen.update(image)
                cosets.append(image)
                reps.append(x)
        return seen

    def with_elements(self, group: PermGroup, key) -> PermGroup:
        """group, with its element caches filled from key, the numbers of its elements."""
        members = [self.elements[i] for i in sorted(key)]
        group._cache["elements"] = members
        group._cache["element_set"] = frozenset(members)
        return group


class NumberClosure:
    """A subgroup grown on an index's numbers; contains/add_generator as in StabilizerChain."""

    def __init__(self, index: ElementIndex):
        self.index, self.numbers, self.members = index, [], {0}

    def contains(self, p: Permutation) -> bool:
        return self.index.number[p] in self.members

    def add_generator(self, p: Permutation):
        self.numbers.append(self.index.number[p])
        self.members = self.index.join(self.members, self.numbers)

    def group(self, gens) -> PermGroup:
        """<gens> for gens the permutations added, with its element caches filled."""
        return self.index.with_elements(PermGroup(self.index.degree, gens), self.members)


def _image(point, g):
    return g[point]


def subgroup_check(parent: PermGroup, sub: PermGroup):
    """Raise NotASubgroup unless every generator of sub sifts into parent."""
    if sub.degree != parent.degree:
        raise DegreeMismatch(f"degree {sub.degree} vs {parent.degree}")
    for g in sub.generators:
        if not parent.contains(g):
            raise NotASubgroup(f"generator {g.cycle_string()} is outside the parent group")


def right_cosets(parent: PermGroup, sub: PermGroup, caps: Caps = DEFAULT_CAPS):
    """(reps, lookup, gathers): right-coset reps of sub in parent, a map from
    each element of parent to the number of its coset, and one gather per rep.

    Scanning the parent's sorted element list and claiming whole cosets makes
    each representative the lexicographically least element of its coset, so
    the identity comes first and the output is canonical.  The lookup's keys
    are the parent's own element objects, not the products that found them.
    gathers[i] maps x to the image tuple of reps[i] * x, formed in C, so the
    coset of reps[i] * x is lookup[gathers[i](x)] and no Permutation is built
    (a Permutation is a tuple with tuple's hash and equality).  A cache hit
    needs no membership check: the cached element set was checked when it
    was stored.
    """
    cache_key = ("cosets", sub.key(caps))
    cached = parent._cache.get(cache_key)
    if cached is not None:
        return cached
    subgroup_check(parent, sub)
    elements = parent.elements(caps)
    reps = []
    # assigning to a present key keeps that key, so every key stays an element
    lookup = dict.fromkeys(elements)
    claims = [gather(p) for p in sub.elements(caps)]
    for e in elements:
        if lookup[e] is not None:
            continue
        idx = len(reps)
        reps.append(e)
        for claim in claims:
            lookup[claim(e)] = idx
    if len(reps) * len(claims) != len(elements):
        raise GroupError("coset decomposition does not cover the group")
    cached = reps, lookup, [gather(r) for r in reps]
    parent._cache[cache_key] = cached
    return cached


def right_transversal(parent: PermGroup, sub: PermGroup, caps: Caps = DEFAULT_CAPS):
    """Right-coset representatives of sub in parent, identity first."""
    return list(right_cosets(parent, sub, caps)[0])


def normal_closure(parent: PermGroup, seeds, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """Smallest normal subgroup of parent containing the seed permutations."""
    seeds = [s if isinstance(s, Permutation) else Permutation(s) for s in seeds]
    for s in seeds:
        if not parent.contains(s):
            raise NotASubgroup(f"seed {s.cycle_string()} is outside the parent group")
    enumerable = parent.order() <= caps.enum_cap
    closure = (NumberClosure(ElementIndex(parent, caps)) if enumerable
               else StabilizerChain(parent.degree))
    gens = pick_generators(closure, seeds, parent.generators)
    result = closure.group(gens) if enumerable else PermGroup(parent.degree, gens, chain=closure)
    if parent.factors is not None:
        structured = attach_block_structure(result, parent.factors.blocks)
        if structured is not None:
            return structured
    return result


def pick_generators(closure, worklist, conjugators=()) -> list:
    """Add to closure (a StabilizerChain or NumberClosure) each worklist entry it misses.

    Returns these picks; their conjugates by conjugators join the worklist,
    so with the parent's generators the picks generate a normal closure."""
    gens = []
    worklist = deque(worklist)
    conjugations = [conjugation(g) for g in conjugators]
    while worklist:
        s = worklist.popleft()
        if not closure.contains(s):
            closure.add_generator(s)
            gens.append(s)
            worklist.extend(conj(s) for conj in conjugations)
    if not all(closure.contains(conj(h)) for h in gens for conj in conjugations):
        raise GroupError("normal closure is not closed under conjugation")
    return gens


class GroupHom:
    """A homomorphism given by a pointwise rule, with the generator images.

    apply evaluates the map on any element of the source: a coset action
    reads its coset table, a subfield embedding its lookup by point images.
    gen_images are apply's values on the source generators; image_group is
    generated by them, and verify checks the rule against them.
    """

    def __init__(self, source: PermGroup, target_degree: int, gen_images,
                 apply: Callable[[Permutation], Permutation]):
        if len(gen_images) != len(source.generators):
            raise GroupError("one image per source generator required")
        self.source = source
        self.target_degree = target_degree
        self.gen_images = tuple(gen_images)
        self._apply = apply
        self._image_group = None

    def image_of(self, p: Permutation) -> Permutation:
        return self._apply(p)

    def image_group(self) -> PermGroup:
        if self._image_group is None:
            self._image_group = PermGroup(self.target_degree, self.gen_images)
        return self._image_group

    def image_subgroup(self, sub: PermGroup) -> PermGroup:
        return PermGroup(self.target_degree, [self.image_of(g) for g in sub.generators])

    def verify(self, caps: Caps = DEFAULT_CAPS) -> bool:
        """Exhaustively check phi(1) = 1 and phi(g*x) = gen_image(g)*phi(x).

        The second holds for every generator g and every element x.  With
        phi(1) = 1 it gives phi(g) = gen_image(g), so the rule agrees with
        gen_images, and it extends inductively to full multiplicativity: a
        complete check whenever the source is enumerable.
        """
        n = self.source.order()
        if n > caps.hom_check_cap:
            raise CapExceeded("hom_check_cap", caps.hom_check_cap, n)
        images = {x: self.image_of(x) for x in self.source.elements(caps)}
        pairs = list(zip(self.source.generators, self.gen_images))
        return (images[self.source.identity].is_identity
                and all(images[g * x] == fg * fx for x, fx in images.items() for g, fg in pairs))


def coset_action(parent: PermGroup, normal_sub: PermGroup, caps: Caps = DEFAULT_CAPS):
    """Realize parent/normal_sub as a permutation group on the cosets.

    Returns (hom, image_group); the kernel of the action is normal_sub, which
    is verified by sifting each of its generators to the identity image.
    The cache holds the action and the image but not the hom, whose source
    is parent.  A hit needs no membership check, as in right_cosets.
    """
    cache_key = ("coset_action", normal_sub.key(caps))
    cached = parent._cache.get(cache_key)
    if cached is not None:
        act, gen_images, image = cached
        return GroupHom(parent, image.degree, gen_images, apply=act), image
    subgroup_check(parent, normal_sub)
    for a in normal_sub.generators:
        for g in parent.generators:
            if not normal_sub.contains(a.conj(g)):
                raise NotASubgroup("coset action requires a normal subgroup")
    index = parent.order() // normal_sub.order()
    if index > caps.degree_cap:
        raise CapExceeded("degree_cap", caps.degree_cap, index)
    _, lookup, gathers = right_cosets(parent, normal_sub, caps)
    degree = parent.degree       # not parent: act is cached on it

    def act(p: Permutation) -> Permutation:
        if len(p) != degree:
            raise DegreeMismatch(f"degree {degree} vs {len(p)}")
        return Permutation([lookup[step(p)] for step in gathers], check=False)

    gen_images = [act(g) for g in parent.generators]
    hom = GroupHom(parent, index, gen_images, apply=act)
    image = hom.image_group()
    for a in normal_sub.generators:
        if not act(a).is_identity:
            raise GroupError("kernel of coset action does not contain the subgroup")
    if image.order() * normal_sub.order() != parent.order():
        raise GroupError("coset action order mismatch")
    if parent.order() <= caps.hom_check_cap and not hom.verify(caps):
        raise GroupError("coset action failed the homomorphism check")
    parent._cache[cache_key] = (act, gen_images, image)
    return hom, image


def intersect_groups(a: PermGroup, b: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """Intersection of two groups of equal degree (the smaller is enumerated)."""
    if a.degree != b.degree:
        raise DegreeMismatch(f"degree {a.degree} vs {b.degree}")
    small, large = (a, b) if a.order() <= b.order() else (b, a)
    common = [e for e in small.elements(caps) if large.contains(e)]
    return group_from_elements(a.degree, common)


# -- block decomposition helpers ------------------------------------------


class BlockSlots:
    """Reads permutations block by block: one C gather per block takes a
    permutation's images of the block's points, and one point -> slot
    table, pt's index in its block, renumbers them."""

    def __init__(self, blocks):
        self._members = [frozenset(block) for block in blocks]
        self._where = {members: i for i, members in enumerate(self._members)}
        self._slot = {pt: i for block in blocks for i, pt in enumerate(block)}.__getitem__
        self._images = [gather(block) for block in blocks]

    def actions(self, generators):
        """Each generator's action on the blocks, as a permutation of their
        indices, or None unless every generator maps each block onto a block."""
        actions = []
        for s in generators:
            image = [self._where.get(frozenset(images(s))) for images in self._images]
            if None in image:
                return None
            actions.append(Permutation(image, check=False))
        return actions

    def read(self, x: Permutation, i: int) -> Permutation:
        """x restricted to block i and renumbered 0..len(block)-1, for an x
        that maps block i onto itself; for an x that maps it onto another
        block, the bijection x induces between the two blocks' positions.
        No check is made."""
        return tuple.__new__(Permutation, map(self._slot, self._images[i](x)))

    def restrict(self, x: Permutation, i: int) -> Optional[Permutation]:
        """read(x, i), or None when x moves a point of block i out of it."""
        images = self._images[i](x)
        if not self._members[i].issuperset(images):
            return None
        return tuple.__new__(Permutation, map(self._slot, images))


def inflate(p: Permutation, block, degree: int) -> Permutation:
    """Embed a block-indexed permutation back into the full point set."""
    return combine_blockwise([p], [block], degree)


def _inflation(block, degree: int):
    """The map inflate(., block, degree), with the block's gather taken once."""
    block = tuple(block)
    index = _gather_index((block,), degree)
    head = tuple(range(degree))
    return lambda x: tuple.__new__(Permutation, index(head + gather(x)(block)))


def block_components(group: PermGroup, blocks):
    """Per-block projections of a group mapping every block onto itself, or None.

    Returns one PermGroup per block, generated by the generators'
    restrictions renumbered 0..len(block)-1.  The group decomposes as the
    direct product of the projections exactly when the orders multiply up to
    the group order; callers that need that property must check it.
    """
    slots = BlockSlots(blocks)
    actions = slots.actions(group.generators)
    if actions is None or not all(a.is_identity for a in actions):
        return None
    return [PermGroup(len(block), [slots.read(g, i) for g in group.generators])
            for i, block in enumerate(blocks)]


def is_partition(blocks, degree: int) -> bool:
    """True iff the blocks are non-empty and partition the points 0..degree-1."""
    return all(blocks) and sorted(pt for b in blocks for pt in b) == list(range(degree))


def _as_partition(blocks, degree: int):
    """blocks as tuples when they are int lists partitioning 0..degree-1 into
    at least two blocks, else None; never raises."""
    if not (isinstance(blocks, (list, tuple)) and len(blocks) >= 2 and
            all(isinstance(b, (list, tuple)) and all(type(pt) is int for pt in b)
                for b in blocks)):
        return None
    blocks = tuple(tuple(b) for b in blocks)
    return blocks if is_partition(blocks, degree) else None


def group_over_blocks(degree: int, generators, blocks, provenance: Optional[str] = None):
    """<generators>, its chain grown from the blocks when they are a block
    system for it, else with the plain chain built lazily, as PermGroup does.

    blocks may come from outside and are trusted for nothing: they are used
    only when they are lists of ints that partition 0..degree-1 into at
    least two blocks which every generator maps onto blocks.  Then:

    - U = |G^blocks| * prod_B |P_B| bounds |G|.  For one block B of each
      block orbit, with t_j the products of generators carrying B to block j
      along a Schreier tree, the t_j s t_(j^s)^-1 generate the block
      stabilizer G_B (Schreier's lemma), and P_B is generated by their
      restrictions to B.  The kernel of the action on the blocks lies in
      the product of its projections, each inside a conjugate of a P_B.
      In an orbit of one block the t_j are 1 and G_B's generators are G's.
    - The generators and Schreier generators that move only the points of
      one block, with their conjugates by the t_j onto the other blocks of
      its orbit, lie in G and generate a direct product W <= G of block
      groups W_j, one group per distinct generator set.  The restriction of
      x^c, for c carrying block i onto block j, is x's restriction to block
      i conjugated by the bijection c induces, so no conjugate is formed on
      the whole degree.
    - When every generator fixes every block and |W| = prod_j |W_j| = U, G
      is W, as W <= G and |G| <= U: a split_group with the P_B as its
      factors (each W_j lies in its P_B and has its order), and no chain
      is assembled on the whole degree.
    - Otherwise the generators are added to W's chain by Schreier-Sims,
      which stops as soon as the order reaches U (see _drain).  When U is
      not reached the drain runs to its end, as in a plain build.  When
      every generator fixes every block and the order is U, the group is
      again a split_group, with this chain.
    """
    group = PermGroup(degree, generators, provenance=provenance)
    gens = group.generators
    blocks = _as_partition(blocks, degree)
    if blocks is None:
        return group
    slots = BlockSlots(blocks)
    actions = slots.actions(gens)
    if not actions:
        return group
    shared = {}

    def local(size, perms):
        part = PermGroup(size, perms)
        return shared.setdefault(part.generators, part)

    bound = PermGroup(len(blocks), actions).order()
    carry, carry_inv, orbit_of = {}, {}, {}
    schreier = {}       # the Schreier generators of every orbit, each once
    projections = [None] * len(blocks)
    for first in range(len(blocks)):
        if first in carry:
            continue
        carry[first] = carry_inv[first] = group.identity
        orbit = [first]
        for j in orbit:
            for s, action in zip(gens, actions):
                k = action[j]
                if k not in carry:
                    carry[k], carry_inv[k] = carry[j] * s, ~s * carry_inv[j]
                    orbit.append(k)
        stabilizer = gens if len(orbit) == 1 else [
            carry[j] * s * carry_inv[action[j]] for j in orbit for s, action in zip(gens, actions)]
        schreier.update(dict.fromkeys(stabilizer))
        p_b = local(len(blocks[first]), [slots.read(x, first) for x in stabilizer])
        bound *= p_b.order() ** len(orbit)
        for j in orbit:
            orbit_of[j] = orbit
            projections[j] = p_b

    # a generator that moves one block's points only fixes every block, so
    # it is among the Schreier generators of each orbit's first block
    block_of = {pt: i for i, b in enumerate(blocks) for pt in b}
    supported = defaultdict(dict)   # block j -> the W_j generators
    for x in schreier:
        moved = {block_of[pt] for pt in x.support()}
        if len(moved) == 1:
            i = moved.pop()
            restricted = slots.read(x, i)
            for j in orbit_of[i]:
                # x^c restricted to block j, for c = carry_inv[i] * carry[j]
                y = restricted
                if j != i:
                    y = restricted.conj(slots.read(carry_inv[i] * carry[j], i))
                supported[j].setdefault(y, None)
    parts = [(blocks[j], local(len(blocks[j]), list(supported[j]))) for j in sorted(supported)]
    fixes_blocks = all(a.is_identity for a in actions)
    if fixes_blocks and math.prod(w.order() for _, w in parts) == bound:
        return split_group(degree, gens, blocks, projections, provenance=provenance)
    chain = StabilizerChain.direct_product(degree, [b for b, _ in parts],
                                           [w.chain for _, w in parts])
    for s in gens:
        chain.add_generator(s, bound)
    if chain.order() == bound and fixes_blocks:
        return split_group(degree, gens, blocks, projections, chain=chain, provenance=provenance)
    group._chain = chain
    return group


def decompose_blockwise(group: PermGroup, blocks, order: Optional[int] = None):
    """Per-block components when the group is their direct product, else None.

    A group carrying shift-free factors over the same blocks gives those
    instead of new projections.  The product of the components' orders is
    compared with order, when the caller knows |group| (that of a subgroup
    it conjugates, say), else with group.order().
    """
    factors = group.factors
    if (factors is not None and factors.shift is None
            and factors.blocks == tuple(tuple(b) for b in blocks)):
        components = list(factors.factor_groups)
    else:
        components = block_components(group, blocks)
        if components is None:
            return None
    if math.prod(c.order() for c in components) != (group.order() if order is None else order):
        return None
    return components


def split_group(degree: int, generators, blocks, components, chain=None,
                provenance: Optional[str] = None) -> PermGroup:
    """<generators>, which the caller has proved to be the direct product of
    the components (groups on 0..len(block)-1) over the partition blocks.

    The one maker of shift-free factors: each caller passes a proof, never
    a claim (an order checked on a chain or against a bound, or the
    relabelling and split-join lemmas).  order() and contains() read the
    components; without a chain the group assembles one from theirs when
    .chain is first asked for.
    """
    group = PermGroup(degree, generators, chain=chain, provenance=provenance)
    group.factors = DirectFactorStructure(blocks=tuple(tuple(b) for b in blocks),
                                          factor_groups=tuple(components))
    return group


def attach_block_structure(group: PermGroup, blocks,
                           order: Optional[int] = None) -> Optional[PermGroup]:
    """Re-wrap group, keeping its chain and caches, as a split_group when the
    blocks partition its points and it is the direct product of its
    components over them (order as in decompose_blockwise), else None.
    """
    if not is_partition(blocks, group.degree):
        return None
    components = decompose_blockwise(group, blocks, order)
    if components is None:
        return None
    structured = split_group(group.degree, group.generators, blocks, components,
                             chain=group._chain, provenance=group.provenance)
    structured._cache.update(group._cache)
    return structured


def split_conjugate(a: PermGroup, g: Permutation, conj_gens) -> Optional[PermGroup]:
    """a^g, generated by conj_gens (a's generators ^ g), for a split_group a,
    or None unless g maps every block of a onto a block.

    Relabelling lemma: when g carries block i onto block j, it induces the
    bijection sigma_i between their points in order, and (a^g)_j = a_i^sigma_i.
    So a^g splits over the same blocks, and its components and their chains
    are a's conjugated (StabilizerChain.conjugate); no Schreier-Sims runs.
    """
    blocks = a.factors.blocks
    slots = a.factors.slots
    actions = slots.actions([g])
    if actions is None:
        return None
    moved = actions[0]
    components = [None] * len(blocks)
    for i, part in enumerate(a.factors.factor_groups):
        sigma = slots.read(g, i)
        components[moved[i]] = PermGroup(len(sigma), map(conjugation(sigma), part.generators),
                                         chain=part.chain.conjugate(sigma))
    return split_group(a.degree, conj_gens, blocks, components)


def split_join(a: PermGroup, b: PermGroup,
               within: Optional[DirectFactorStructure] = None) -> PermGroup:
    """<a, b> for split_groups a and b over the same blocks.

    When A = prod A_i and B = prod B_i over the blocks, <A, B> is
    prod <A_i, B_i>: it contains each inflated <A_i, B_i>, since A and B
    contain the inflated A_i and B_i, and it lies in the product of its
    projections.  Each component is A_i itself when B_i lies in it, else
    grown from a copy of A_i's chain by B_i's generators; no Schreier-Sims
    runs from scratch, and none on the whole degree.

    within, when given, is the proven factor structure of a group G over
    the same blocks whose block kernel projects onto within's factor F_i on
    block i: a split G (the product of its F_i) or a wreath_regular G (whose
    kernel is base^p).  The caller proves that a and b lie in G; as split
    groups they fix every block, so they lie in that kernel and
    <A_i, B_i> <= F_i.  Each component's drain then stops at |F_i| (see
    _drain), and a component that reaches it is F_i, equal orders meaning
    equal groups: the component is then the F_i object itself, with its
    chain and element caches.
    """
    blocks = a.factors.blocks
    for other in (b.factors, within):
        if other is not None and other.blocks != blocks:
            raise GroupError("split_join needs groups split over the same blocks")
    bounds = within.factor_groups if within is not None else (None,) * len(blocks)
    components = []
    for x, y, f in zip(a.factors.factor_groups, b.factors.factor_groups, bounds):
        if all(x.contains(s) for s in y.generators):
            components.append(x)
            continue
        bound = None if f is None else f.order()
        chain = x.chain.copy()
        for s in y.generators:
            chain.add_generator(s, bound)
            if chain.order() == bound:
                components.append(f)
                break
        else:
            components.append(PermGroup(x.degree, x.generators + y.generators, chain=chain))
    return split_group(a.degree, a.generators + b.generators, blocks, components)


def combine_blockwise(parts, blocks, degree: int) -> Permutation:
    """Merge one block-indexed permutation per block into a single element.

    The images are gathered in C: block[part[i]] for every block, appended
    to the identity's images, are read through the index of the blocks'
    points (_gather_index), so a point outside every block keeps itself.
    """
    blocks = tuple(map(tuple, blocks))
    table = list(range(degree))
    for part, block in zip(parts, blocks):
        table.extend(map(block.__getitem__, part))
    return tuple.__new__(Permutation, _gather_index(blocks, degree)(table))


@functools.lru_cache(maxsize=256)
def _gather_index(blocks, degree: int):
    """The gather reading, for each point, its slot in a table that holds
    the identity's degree images followed by the images on each block in
    turn; a point in no block reads its identity slot."""
    index = list(range(degree))
    slot = degree
    for block in blocks:
        for pt in block:
            index[pt] = slot
            slot += 1
    return gather(index)


# -- generator-file ingestion ----------------------------------------------


def parse_generator_text(text: str) -> PermGroup:
    """Parse the plain-text generator format.

    Line 1 is ``degree n``; every following non-comment line is one
    permutation in 0-based disjoint-cycle notation; ``()`` is the identity;
    ``#`` starts a comment.
    """
    degree = None
    gens = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "degree" or not parts[1].isdigit():
                raise ValueError(f"expected 'degree n' as the first line, got {raw!r}")
            degree = int(parts[1])
            if degree <= 0:
                raise ValueError("degree must be positive")
            continue
        gens.append(Permutation.parse(line, degree))
    if degree is None:
        raise ValueError("generator file has no 'degree n' line")
    return PermGroup(degree, gens)


def load_generator_file(path) -> PermGroup:
    import hashlib
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    group = parse_generator_text(text)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
    group.provenance = f"file:{path}#sha256={digest}"
    return group
