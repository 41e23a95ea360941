"""Hall-subgroup classes, pi-separability and Sylow towers.

The Hall search rests on one fact: a Hall subgroup is generated by the
Sylow subgroups it contains (the subgroup generated by them has order
divisible by every relevant prime power, sits inside, hence is the whole
thing).  Fixing one Sylow subgroup of a reference prime and varying the
others over all their conjugates therefore meets every conjugacy class of
Hall subgroups, which makes the class enumeration complete without a full
subgroup lattice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .errors import GroupError, Caps, DEFAULT_CAPS
from .group import (ElementIndex, NumberClosure, PermGroup, group_from_elements, normal_closure,
                    pick_generators, subgroup_check, trivial_group)
from .numth import is_prime, p_part, prime_divisors
from .perm import Permutation
from .subgroup import (Subgroup, _as_group, _join_orbits, _set_sort_key, all_sylow_subgroups,
                       conjugate_into, element_conjugacy_classes, is_normal, subgroup_classes,
                       subgroup_conjugacy_classes, sylow)


class PrimeSet(frozenset):
    """A finite set of primes; complements are always taken relative to a
    stated group's prime divisors, never materialized."""

    __slots__ = ()

    def __new__(cls, primes=()):
        primes = tuple(primes)
        for p in primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        return frozenset.__new__(cls, primes)

    def __repr__(self):
        return "{" + ",".join(str(p) for p in sorted(self)) + "}"


def pi_part(n: int, pi) -> int:
    """Largest divisor of n whose prime factors all lie in pi."""
    if n < 1:
        raise ValueError("pi_part needs a positive integer")
    part = 1
    for p in sorted(set(pi)):
        part *= p_part(n, p)
    return part


def is_pi_number(n: int, pi) -> bool:
    for p in set(pi):
        while n % p == 0:
            n //= p
    return n == 1


def is_pi_free(n: int, pi) -> bool:
    """True when no prime of pi divides n (n is a pi'-number)."""
    return all(n % p for p in set(pi))


def is_hall_subgroup(parent: PermGroup, sub, pi) -> bool:
    """True iff sub lies in parent and has the pi-part of its order."""
    sub = _as_group(sub)
    n = sub.order()
    return n == pi_part(parent.order(), pi) and is_pi_number(n, pi) and parent.contains_group(sub)


def hall_subgroups(parent: PermGroup, pi, caps: Caps = DEFAULT_CAPS):
    """Conjugacy-class representatives of the pi-Hall subgroups.

    Empty list means no pi-Hall subgroup exists; that verdict is conclusive
    because the Sylow-tuple sweep described in the module docstring would
    have produced one.
    """
    pi = PrimeSet(pi)
    order = parent.order()
    target = pi_part(order, pi)
    if target == 1:
        result = [trivial_group(parent.degree)]
    elif target == order:
        result = [parent]
    else:
        relevant = [p for p in sorted(pi) if order % p == 0]
        sylow_lists = {p: all_sylow_subgroups(parent, p, caps) for p in relevant}
        fixed_p = max(relevant, key=lambda p: (len(sylow_lists[p]), p))
        others = [p for p in relevant if p != fixed_p]
        fixed = sylow(parent, fixed_p, caps).group
        index = ElementIndex(parent, caps)
        fixed_key = index.key(fixed)
        fixed_gens = index.numbers(fixed.generators)
        candidates = {}
        for combo in itertools.product(*(sylow_lists[p] for p in others)):
            gens = fixed_gens + [index.number[g] for q in combo for g in q.generators]
            closed = index.join(fixed_key, gens, target)
            if closed is None or len(closed) != target:
                continue
            key = frozenset(closed)
            if key not in candidates:
                candidates[key] = group_from_elements(parent.degree,
                                                      [index.elements[i] for i in key])
        groups = [candidates[k] for k in sorted(candidates, key=_set_sort_key)]
        result = [rep for rep, _ in subgroup_conjugacy_classes(parent, groups, caps)]
    return [Subgroup(parent, g) for g in result]


@dataclass(frozen=True)
class ClassVerdict:
    """Outcome of the existence / single-class / covering test for one pi.

    D (single class, plus every pi-subgroup lies in a conjugate of the Hall
    representative) is decided on the first read of satisfies_d or
    d_failure and kept; a subgroup_cap hit surfaces at that read.
    """

    pi: PrimeSet
    hall_order: int
    satisfies_e: bool
    satisfies_c: bool
    hall_class_reps: tuple
    class_count: int
    parent: PermGroup = field(compare=False, repr=False)
    caps: Caps = field(default=DEFAULT_CAPS, compare=False, repr=False)

    @cached_property
    def d_failure(self) -> Optional[Subgroup]:
        """The first pi-subgroup class rep, in rep order, not conjugate into the Hall rep."""
        if not self.satisfies_c or not 1 < self.hall_order < self.parent.order():
            return None
        hall = self.hall_class_reps[0].group
        for rep, _ in subgroup_classes(self.parent, self.hall_order, self.caps):
            if rep.order() > 1 and conjugate_into(self.parent, rep, hall, self.caps) is None:
                return Subgroup(self.parent, rep)
        return None

    @cached_property
    def satisfies_d(self) -> bool:
        return self.satisfies_c and self.d_failure is None

    def summary(self) -> str:
        return (f"E={'yes' if self.satisfies_e else 'no'} "
                f"C={'yes' if self.satisfies_c else 'no'} "
                f"D={'yes' if self.satisfies_d else 'no'} "
                f"classes={self.class_count} hall_order={self.hall_order}")


def classify(parent: PermGroup, pi, caps: Caps = DEFAULT_CAPS) -> ClassVerdict:
    """E and C for pi in parent from the Hall sweep; D waits until it is read."""
    pi = PrimeSet(pi)
    reps = hall_subgroups(parent, pi, caps)
    return ClassVerdict(pi=pi, hall_order=pi_part(parent.order(), pi), satisfies_e=bool(reps),
                        satisfies_c=len(reps) == 1, hall_class_reps=tuple(reps),
                        class_count=len(reps), parent=parent, caps=caps)


# -- normal structure ------------------------------------------------------


def all_normal_subgroups(parent: PermGroup, caps: Caps = DEFAULT_CAPS):
    """Every normal subgroup: joins of normal closures of single classes.

    Each normal subgroup is generated by the conjugacy classes it contains,
    so it is a join of the seed closures one class at a time; _join_orbits
    forms those joins.  Every join of normal subgroups is normal, so each
    class it finds has one member, listed with its recorded generators.
    """
    cached = parent._cache.get("normal_subgroups")
    if cached is None:
        index = ElementIndex(parent, caps)
        seeds = {}
        for cls in element_conjugacy_classes(parent, caps):
            closure = NumberClosure(index)
            if pick_generators(closure, cls[:1], parent.generators):
                seeds.setdefault(frozenset(closure.members), closure.numbers)
        explored, _ = _join_orbits(index, [seeds[k] for k in sorted(seeds, key=_set_sort_key)])
        explored.sort(key=lambda entry: _set_sort_key(entry[0]))
        cached = parent._cache["normal_subgroups"] = [
            index.with_elements(PermGroup(parent.degree, [index.elements[i] for i in gens]), key)
            for key, gens, _ in explored]
    return [Subgroup(parent, g) for g in cached]


def commutator(a: Permutation, b: Permutation) -> Permutation:
    return ~a * ~b * a * b


def derived_subgroup(parent: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    comms = [commutator(a, b) for a in parent.generators for b in parent.generators]
    return normal_closure(parent, comms, caps)


def is_solvable(parent: PermGroup, caps: Caps = DEFAULT_CAPS) -> bool:
    current = parent
    while current.order() > 1:
        nxt = derived_subgroup(current, caps)
        if nxt.order() == current.order():
            return False
        current = nxt
    return True


def is_pi_separable(parent: PermGroup, pi, caps: Caps = DEFAULT_CAPS):
    """An ascending normal series with pi- or pi'-factors, or None.

    A separable group always has such a series with terms normal in the
    whole group (its upper pi'pi-series), so a dynamic program over the
    normal subgroup lattice decides separability exactly.
    """
    pi = PrimeSet(pi)
    # the lattice comes sorted by (order, elements), so every smaller term precedes
    normals = all_normal_subgroups(parent, caps)
    keys = [s.group.element_set(caps) for s in normals]
    chains = {}
    for s, key in zip(normals, keys):
        if s.order() == 1:
            chains[key] = [s]
            continue
        for m, mkey in zip(normals, keys):
            if m.order() >= s.order() or mkey not in chains or not mkey <= key:
                continue
            ratio = s.order() // m.order()
            if is_pi_number(ratio, pi) or is_pi_free(ratio, pi):
                chains[key] = chains[mkey] + [s]
                break
    return chains.get(parent.element_set(caps))


# -- Sylow towers ----------------------------------------------------------


@dataclass(frozen=True)
class SylowTower:
    """A normal series of subject with prescribed Sylow factors top-down.

    series runs subject = H_0 > H_1 > ... > H_n = 1; complexion orders the
    prime divisors of |subject|, every term lies in subject, and the i-th
    factor order equals the complexion[i]-part of |subject|.  The one check
    for in-memory towers and replayed certificates alike.
    """

    subject: PermGroup
    complexion: tuple
    series: tuple

    def check(self, caps: Caps = DEFAULT_CAPS):
        order = self.subject.order()
        if sorted(self.complexion) != prime_divisors(order):
            raise GroupError("tower complexion does not order the prime divisors of the subject")
        if len(self.series) != len(self.complexion) + 1:
            raise GroupError("tower series length does not match the complexion")
        groups = [s.group for s in self.series]
        for term in groups:
            subgroup_check(self.subject, term)
        if groups[0].order() != order or groups[-1].order() != 1:
            raise GroupError("tower endpoints are wrong")
        for i, p in enumerate(self.complexion):
            if groups[i].order() != p_part(order, p) * groups[i + 1].order():
                raise GroupError(f"tower factor {i} is not the {p}-part")
        for term in groups[1:]:
            if not is_normal(self.subject, term, caps):
                raise GroupError("tower term is not normal in the subject")


def sylow_tower(subject, complexion, caps: Caps = DEFAULT_CAPS) -> Optional[SylowTower]:
    """The Sylow tower of the given complexion, built bottom-up, or None.

    Term i is normal of order the complexion[i:]-part of |subject|, so it is
    the normal Hall complexion[i:]-subgroup, which is the set of elements
    whose order is a complexion[i:]-number (P. Hall).  The tower exists
    exactly when each such set is closed; a closed one has that order, so a
    set of another size is rejected before its closure is tried.
    """
    subject = _as_group(subject)
    complexion = tuple(complexion)
    order = subject.order()
    if sorted(complexion) != prime_divisors(order):
        raise ValueError("complexion must order the prime divisors of the subject")
    elements = [(e, e.order()) for e in subject.elements(caps)]
    series = [trivial_group(subject.degree)]
    for i in reversed(range(len(complexion))):
        pi = complexion[i:]
        members = [e for e, n in elements if is_pi_number(n, pi)]
        if len(members) != pi_part(order, pi):
            return None
        try:
            term = group_from_elements(subject.degree, members)
        except GroupError:
            return None
        series.insert(0, term)
    tower = SylowTower(subject=subject, complexion=complexion,
                       series=tuple(Subgroup(subject, g) for g in series))
    tower.check(caps)
    return tower


@dataclass(frozen=True)
class TowersReport:
    """Same-complexion conjugacy audit across Hall classes of one (G, pi)."""

    pi: PrimeSet
    class_count: int
    tower_complexions: dict
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def towers_conjugacy_check(parent: PermGroup, pi, caps: Caps = DEFAULT_CAPS) -> TowersReport:
    """Hall subgroups admitting a tower of the same complexion must be conjugate.

    Distinct class representatives are pairwise non-conjugate by
    construction, so two of them sharing a tower complexion is a violation.
    """
    pi = PrimeSet(pi)
    reps = hall_subgroups(parent, pi, caps)
    complexions = {}
    for idx, rep in enumerate(reps):
        if rep.order() == 1:
            complexions[idx] = ((),)
            continue
        admitted = []
        for ordering in itertools.permutations(prime_divisors(rep.order())):
            if sylow_tower(rep.group, ordering, caps) is not None:
                admitted.append(ordering)
        complexions[idx] = tuple(admitted)
    violations = []
    seen = {}
    for idx, admitted in complexions.items():
        for ordering in admitted:
            if ordering in seen:
                violations.append((ordering, seen[ordering], idx))
            else:
                seen[ordering] = idx
    return TowersReport(pi=pi, class_count=len(reps),
                        tower_complexions=complexions, violations=tuple(violations))
