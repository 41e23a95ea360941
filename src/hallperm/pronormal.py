"""Pronormality and strong pronormality testers with replayable witnesses.

A subgroup H of G is pronormal when H and H^g are conjugate inside
<H, H^g> for every g; strongly pronormal when for every K <= H and every g
some element of <H, K^g> conjugates K^g into H.

Quantifier reduction used throughout: for g = n*t with n in N_G(H) (resp.
N_G(K)), H^(nt) = H^t and <H, H^(nt)> = <H, H^t>, so g only needs to run
over a right transversal of the normalizer.  Multiplying on the right
instead would change the joint subgroup, so only the left factor may be
dropped.

One function, _decide_coset, decides an instance (H, g) with joint
J = <H, H^g> for is_pronormal (g over the transversal) and
pronormality_instance (one g): some x in J has H^x = H^g exactly when J
meets N_G(H)*g, that is when the coset N_G(H)*g lies in the orbit of the
coset N_G(H) under J acting on right cosets by right multiplication.  On an
enumerable G, _joint_meets_coset grows that orbit on the cached right-coset
table, whose per-coset gathers step a coset by an element in C.  The orbit
is a union of H-orbits, the double cosets N_G(H)*r*H, so it is grown by
H^g's generators alone, a whole memoized H-orbit at a time.  It builds
neither J nor a chain, and only a miss closes J on the element numbers of
G; beyond enumeration, g is sifted into J's chain.  A miss falls through to
the exhaustive scan of J (or of its blocks), which confirms the negative and
supplies the certificate data; a scan that finds a conjugator after an orbit
miss raises GroupError.

Split-join lemma, used beyond enumeration: when the blocks of G partition
the points, H is the direct product of its block components H_i (their
orders multiply to |H|) and H^g splits over them too, then
J = prod <H_i, (H^g)_i>.  J contains each inflated component join and lies
in the product of its projections.  When g maps block i onto block j, it
induces the bijection sigma_i between their points, and (H^g)_j is
H_i^sigma_i, so H^g's component chains are H's relabelled
(StabilizerChain.conjugate); a g that does not map the blocks onto blocks
gets H^g's components projected, with their orders checked against |H|.
Each <H_i, (H^g)_i> is H_i when (H^g)_i lies in it, else grown from a copy
of H_i's chain, in a decision only up to the order of G's factor F_i on
that block, which bounds it: a component that reaches it is F_i itself.
H^g and J are split groups: order() and contains() read the components,
and a chain on the whole degree is assembled from theirs
(StabilizerChain.direct_product) only when asked for, which deciding and
replaying never do.  Where H does not split, or G is enumerable, J is
formed as before.

Strong pronormality asks the same orbit question on the right cosets of
N_G(K): some x in <H, K^g> has K^(gx) <= H exactly when the orbit of
N_G(K)*g meets S_K = {N_G(K)*y : K^y <= H}, computed once per K.  That orbit
is grown from H-orbits by K^g's generators.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .errors import CapExceeded, GroupError, Caps, DEFAULT_CAPS
from .group import (ElementIndex, PermGroup, Permutation, attach_block_structure,
                    decompose_blockwise, inflate, intersect_groups, is_partition,
                    normal_closure, orbit, right_cosets, right_transversal, split_conjugate,
                    split_join, subgroup_check)
from .hall import is_pi_free, is_pi_number, is_pi_separable, pi_part
from .perm import conjugation
from .subgroup import (_as_group, _normalizer, conjugate_into, find_conjugator_in, is_normal,
                       normalizer, subgroup_classes)


@dataclass(frozen=True)
class PronormalityFailure:
    """A g with no conjugator from H to H^g inside joint = <H, H^g>.

    mode 'exhaustive' means every element of the joint was scanned;
    'blockwise' means the joint is a direct product and the named block
    admits no per-block conjugator (scanned exhaustively there).
    """

    g: Permutation
    joint: PermGroup
    mode: str
    scanned: int
    failing_block: Optional[int] = None


@dataclass(frozen=True)
class PronormalityReport:
    subject: PermGroup
    ambient: PermGroup
    verdict: Optional[bool]            # None = indeterminate, never a guess
    failure: Optional[PronormalityFailure] = None
    checked_coset_count: int = 0
    indeterminate_reason: Optional[str] = None

    @property
    def is_pronormal(self) -> bool:
        return self.verdict is True


@dataclass(frozen=True)
class StrongPronormalityFailure:
    k: PermGroup
    g: Permutation
    joint: PermGroup
    scanned: int


@dataclass(frozen=True)
class StrongPronormalityReport:
    subject: PermGroup
    ambient: PermGroup
    verdict: Optional[bool]
    failure: Optional[StrongPronormalityFailure] = None
    checked_pair_count: int = 0
    indeterminate_reason: Optional[str] = None

    @property
    def is_strongly_pronormal(self) -> bool:
        return self.verdict is True


def _decide_in_joint(joint: PermGroup, h: PermGroup, hg: PermGroup, caps: Caps):
    """('found', x) / ('absent', failure-data) / ('capped', reason)."""
    if joint.order() <= caps.enum_cap:
        x, scanned = find_conjugator_in(joint, h, hg, caps)
        if x is not None:
            return "found", x
        return "absent", ("exhaustive", scanned, None)
    structure = joint.factors
    if structure is not None and structure.shift is None:
        h_parts = decompose_blockwise(h, structure.blocks)
        g_parts = decompose_blockwise(hg, structure.blocks)
        if h_parts is not None and g_parts is not None:
            scanned = 0
            for i, (factor, hp, gp) in enumerate(zip(structure.factor_groups, h_parts, g_parts)):
                if hp.order() != gp.order():
                    return "absent", ("blockwise", scanned, i)
                if factor.order() > caps.enum_cap:
                    return "capped", f"block {i} of the joint exceeds enum_cap"
                x, n = find_conjugator_in(factor, hp, gp, caps)
                scanned += n
                if x is None:
                    return "absent", ("blockwise", scanned, i)
            # all blocks conjugate: combine is possible, but callers only
            # need existence here
            return "found", None
    return "capped", f"joint of order {joint.order()} admits neither exhaustive nor blockwise search"


def _joint_meets_coset(parent: PermGroup, norm: PermGroup, h: PermGroup, xgens,
                       g: Permutation, targets, caps: Caps) -> bool:
    """True iff some x in J = <h, xgens> has norm*g*x among the cosets numbered targets.

    Cosets are numbered as in right_cosets(parent, norm), whose table and
    gathers are cached on parent.  The orbit of norm*g under J is grown as a
    union of h-orbits, the double cosets norm*r*h: it starts from the h-orbit
    of norm*g, applies only xgens to each coset it holds, adds the whole
    h-orbit of each new image, and stops at the first h-orbit that meets
    targets.  The set so grown is a union of h-orbits, so closed under h, and
    closed under xgens, so closed under J; and each member was reached from
    norm*g by an element of J.  It is therefore the J-orbit of norm*g.  The
    h-orbits are memoized on parent per (norm, h), filled as the search meets
    them.  With targets {0}, the coset norm itself, this says that J meets
    norm*g, as x lies in g^-1*norm exactly when x^-1 lies in norm*g.
    """
    _, lookup, gathers = right_cosets(parent, norm, caps)
    h_orbits = parent._cache.setdefault(("h_orbits", norm.key(caps), h.key(caps)), {})
    hgens = h.generators

    def h_orbit(c):
        block = h_orbits.get(c)
        if block is None:
            block = list(orbit([c], hgens, lambda d, x: lookup[gathers[d](x)]))
            for d in block:
                h_orbits[d] = block
        return block

    block = h_orbit(lookup[g])
    if not targets.isdisjoint(block):
        return True
    seen = set(block)
    frontier = list(block)
    for c in frontier:
        gather = gathers[c]
        for x in xgens:
            d = lookup[gather(x)]
            if d not in seen:
                block = h_orbit(d)
                if not targets.isdisjoint(block):
                    return True
                seen.update(block)
                frontier.extend(block)
    return False


def _joint_of(h: PermGroup, conj_gens, blocks, index=None) -> PermGroup:
    """<h, conj_gens>, carrying the block structure when it splits over blocks;
    given the ambient group's ElementIndex, closed on numbers with its elements known."""
    joint = PermGroup(h.degree, h.generators + tuple(conj_gens))
    if index is not None:
        # a closure past half the ambient group is all of it (Lagrange)
        whole = len(index.elements)
        members = index.join(index.key(h), index.numbers(joint.generators), whole // 2)
        index.with_elements(joint, range(whole) if members is None else members)
    if blocks:
        joint = attach_block_structure(joint, blocks) or joint
    return joint


def _split_instance(h: PermGroup, g: Permutation, conj_gens, blocks, within=None):
    """(joint, h, h^g) for a parent beyond enumeration, split over blocks by
    the split-join lemma when it applies; conj_gens are h's generators ^ g.

    The lemma needs h = prod h_i over the partition blocks (h's own order
    checks it) and h^g split over them too.  When g maps every block onto a
    block, h^g's components are h's relabelled (split_conjugate); otherwise
    they are projected, and their orders must multiply to |h| = |h^g|.  The
    joint's components are grown from h's (split_join), and no chain is
    built on the whole degree.  Where h does not split, the joint's chain is
    built by Schreier-Sims and attach_block_structure looks for its split,
    as in _joint_of.

    within is the parent's factor structure, for a caller that has checked
    h <= parent and g in parent: then h and h^g lie in the parent's block
    kernel, so each joint component grows only up to the order of the
    parent's factor on its block, and one that reaches it is that factor
    group (split_join).  Replay passes none and grows every component to
    its end.
    """
    hg = PermGroup(h.degree, conj_gens)
    split_h = attach_block_structure(h, blocks) if blocks else None
    split_hg = None
    if split_h is not None:
        split_hg = (split_conjugate(split_h, g, conj_gens)
                    or attach_block_structure(hg, blocks, h.order()))
    if split_hg is None:
        return _joint_of(h, conj_gens, blocks), h, hg
    return split_join(split_h, split_hg, within), split_h, split_hg


def _decide_coset(parent: PermGroup, h: PermGroup, g: Permutation, conj_gens,
                  norm: Optional[PermGroup], caps: Caps) -> PronormalityReport:
    """Decide the instance (h, g) for both testers; conj_gens are h's generators ^ g.

    With norm = N_parent(h), runs the orbit test on its right cosets and, on
    a miss only, closes the joint on parent's element numbers.  With norm
    None (parent beyond enumeration), forms the joint by _split_instance and
    sifts g.  The joint is scanned only on a miss.  The report counts one coset.
    """
    blocks = parent.factors and parent.factors.blocks
    if norm is None:
        joint, h_split, hg = _split_instance(h, g, conj_gens, blocks, parent.factors)
        if joint.contains(g):
            return PronormalityReport(h, parent, True, checked_coset_count=1)
    elif _joint_meets_coset(parent, norm, h, conj_gens, g, {0}, caps):
        return PronormalityReport(h, parent, True, checked_coset_count=1)
    else:
        joint = _joint_of(h, conj_gens, blocks, ElementIndex(parent, caps))
        h_split, hg = h, PermGroup(h.degree, conj_gens)
    status, data = _decide_in_joint(joint, h_split, hg, caps)
    if status == "found":
        if norm is not None:
            raise GroupError("the joint scan found a conjugator although the joint misses "
                             "the normalizer coset (library bug)")
        return PronormalityReport(h, parent, True, checked_coset_count=1)
    if status == "absent":
        mode, scanned, block = data
        failure = PronormalityFailure(g=g, joint=joint, mode=mode,
                                      scanned=scanned, failing_block=block)
        return PronormalityReport(h, parent, False, failure=failure, checked_coset_count=1)
    return PronormalityReport(h, parent, None, indeterminate_reason=data, checked_coset_count=1)


def pronormality_instance(parent: PermGroup, h, g: Permutation,
                          caps: Caps = DEFAULT_CAPS) -> PronormalityReport:
    """Decide the single pronormality instance for one g.

    Verdict False comes with the replayable failure (g, <H, H^g>); True
    means a conjugator exists for this g only.
    """
    h = _as_group(h)
    subgroup_check(parent, h)
    if not parent.contains(g):
        raise GroupError("witness candidate lies outside the ambient group")
    conj_gens = list(map(conjugation(g), h.generators))
    if all(h.contains(c) for c in conj_gens):
        return PronormalityReport(h, parent, True, checked_coset_count=1)
    norm = _normalizer(parent, h, caps) if parent.order() <= caps.enum_cap else None
    return _decide_coset(parent, h, g, conj_gens, norm, caps)


def is_pronormal(parent: PermGroup, h, caps: Caps = DEFAULT_CAPS) -> PronormalityReport:
    """Full pronormality test of h in parent.

    A parent beyond enumeration is read through its factors, which the
    library has proved (see PermGroup).  Shift-free ones reduce blockwise
    (conjugators, joints and the quantifier all decompose), and a failing
    factor's g, lifted to its block, is decided as one instance.  A wreath
    ambient is probed on the shift powers: a failure there is definitive,
    success alone is not, and the report says so.
    """
    h = _as_group(h)
    subgroup_check(parent, h)

    structure = parent.factors
    if structure is not None and structure.shift is None and parent.order() > caps.enum_cap:
        parts = decompose_blockwise(h, structure.blocks)
        if parts is not None:
            checked = 0
            for i, (factor, part) in enumerate(zip(structure.factor_groups, parts)):
                sub_report = is_pronormal(factor, part, caps)
                checked += sub_report.checked_coset_count
                if sub_report.verdict is False:
                    lifted_g = inflate(sub_report.failure.g, structure.blocks[i], parent.degree)
                    return pronormality_instance(parent, h, lifted_g, caps)
                if sub_report.verdict is None:
                    return PronormalityReport(h, parent, None, checked_coset_count=checked,
                                              indeterminate_reason=sub_report.indeterminate_reason)
            return PronormalityReport(h, parent, True, checked_coset_count=checked)

    if parent.order() > caps.enum_cap:
        if structure is not None and structure.shift is not None:
            shift = structure.shift
            power = shift
            checked = 0
            while not power.is_identity:
                report = pronormality_instance(parent, h, power, caps)
                checked += 1
                if report.verdict is False:
                    return PronormalityReport(h, parent, False, failure=report.failure,
                                              checked_coset_count=checked)
                power = power * shift
            return PronormalityReport(h, parent, None, checked_coset_count=checked,
                                      indeterminate_reason="ambient beyond enum_cap; only shift powers probed")
        raise CapExceeded("enum_cap", caps.enum_cap, parent.order())

    norm = _normalizer(parent, h, caps)
    if norm is parent:
        # h is normal: its only coset is the trivial one, and none is tabled
        return PronormalityReport(h, parent, True)
    checked = 0
    for t in right_transversal(parent, norm, caps)[1:]:
        checked += 1
        report = _decide_coset(parent, h, t, list(map(conjugation(t), h.generators)), norm, caps)
        if report.verdict is not True:
            return replace(report, checked_coset_count=checked)
    return PronormalityReport(h, parent, True, checked_coset_count=checked)


def replay_non_pronormality(parent: PermGroup, h: PermGroup, g: Permutation, joint_order: int,
                            blocks, claim, caps: Caps = DEFAULT_CAPS):
    """Replay "no x in J = <H, H^g> has H^x = H^g"; returns (ok, detail).

    Checks H <= parent, g in parent and that blocks, when given, partition
    the points; rebuilds J as the decision does (split over blocks when the
    lemma applies), compares its order with the claimed one and reruns the
    conjugator search in J, which must again find nothing.  claim is the
    recorded (mode, scanned, failing_block) and must equal what the rescan
    returns.
    """
    if not parent.contains_group(h):
        return False, "subject is not inside the ambient group"
    if not parent.contains(g):
        return False, "witness g is outside the ambient group"
    if blocks is not None and not is_partition(blocks, parent.degree):
        return False, f"blocks do not partition the points 0..{parent.degree - 1}"
    joint, h, hg = _split_instance(h, g, tuple(map(conjugation(g), h.generators)), blocks)
    if joint.order() != joint_order:
        return False, "joint order mismatch"
    status, data = _decide_in_joint(joint, h, hg, caps)
    if status != "absent":
        return False, f"replay found status {status}"
    if tuple(claim) != data:
        return False, (f"the rescan gives (mode, scanned, failing block) {data}, "
                       f"the claim {tuple(claim)}")
    return True, "no conjugator exists in the joint (rescanned)"


def replay_pronormality_failure(report: PronormalityReport, caps: Caps = DEFAULT_CAPS) -> bool:
    """Re-verify a negative report from its witness data alone."""
    if report.verdict is not False or report.failure is None:
        raise GroupError("only negative reports replay")
    fail = report.failure
    return replay_non_pronormality(report.ambient, report.subject, fail.g, fail.joint.order(),
                                   fail.joint.factors and fail.joint.factors.blocks,
                                   (fail.mode, fail.scanned, fail.failing_block), caps)[0]


def is_strongly_pronormal(parent: PermGroup, h, caps: Caps = DEFAULT_CAPS) -> StrongPronormalityReport:
    """Strong pronormality of h in parent.

    K runs over the subgroup_classes reps of h (the property is invariant
    under h-conjugacy of K), g over a right transversal of N_parent(K); the
    first failing pair in this order is reported, with K the class rep,
    which is also the all_subgroups(h) member of its element set.  A pair
    passes when the orbit of N(K)*g under <h, K^g> meets the cosets N(K)*y
    with K^y <= h; only a pair that fails builds the joint and scans it.
    """
    h = _as_group(h)
    subgroup_check(parent, h)
    h_set = h.element_set(caps)
    checked = 0
    for k, _size in subgroup_classes(h, caps=caps):
        if k.order() == 1:
            continue
        norm = _normalizer(parent, k, caps)
        reps = right_transversal(parent, norm, caps)
        conj_gens = [tuple(x.conj(y) for x in k.generators) for y in reps]
        into_h = {c for c, kg_gens in enumerate(conj_gens) if all(x in h_set for x in kg_gens)}
        for g, kg_gens in zip(reps, conj_gens):
            checked += 1
            if _joint_meets_coset(parent, norm, h, kg_gens, g, into_h, caps):
                continue
            joint = _joint_of(h, kg_gens, None, ElementIndex(parent, caps))
            # joint <= parent, which right_transversal just enumerated
            if conjugate_into(joint, PermGroup(h.degree, kg_gens), h, caps) is not None:
                raise GroupError("the joint scan found a conjugator into the subject although "
                                 "the orbit misses it (library bug)")
            failure = StrongPronormalityFailure(k=k, g=g, joint=joint, scanned=joint.order())
            return StrongPronormalityReport(h, parent, False, failure=failure,
                                            checked_pair_count=checked)
    return StrongPronormalityReport(h, parent, True, checked_pair_count=checked)


def replay_non_strong_pronormality(parent: PermGroup, h: PermGroup, k: PermGroup,
                                   g: Permutation, joint_order: int, caps: Caps = DEFAULT_CAPS):
    """Replay "no x in J = <H, K^g> has K^(gx) <= H"; returns (ok, detail).

    Checks H <= parent, K <= H and g in parent, rebuilds J, compares its
    order with the claimed one and rescans J for a conjugator.
    """
    if not parent.contains_group(h):
        return False, "subject is not inside the ambient group"
    if not h.contains_group(k):
        return False, "k is not a subgroup of the subject"
    if not parent.contains(g):
        return False, "witness g is outside the ambient group"
    kg = PermGroup(parent.degree, tuple(x.conj(g) for x in k.generators))
    joint = PermGroup(parent.degree, h.generators + kg.generators)
    if joint.order() != joint_order:
        return False, "joint order mismatch"
    if conjugate_into(joint, kg, h, caps) is not None:
        return False, "replay found a conjugator into the subject"
    return True, "no element of the joint conjugates k^g into the subject"


def replay_strong_pronormality_failure(report: StrongPronormalityReport,
                                       caps: Caps = DEFAULT_CAPS) -> bool:
    if report.verdict is not False or report.failure is None:
        raise GroupError("only negative reports replay")
    fail = report.failure
    return replay_non_strong_pronormality(report.ambient, report.subject, fail.k, fail.g,
                                          fail.joint.order(), caps)[0]


def pronormal_in_normal_closure(parent: PermGroup, h, caps: Caps = DEFAULT_CAPS) -> PronormalityReport:
    """Pronormality of h inside its normal closure in parent."""
    h = _as_group(h)
    subgroup_check(parent, h)
    closure = normal_closure(parent, h.generators, caps)
    if closure.order() == 1:
        return PronormalityReport(h, closure, True)
    return is_pronormal(closure, h, caps)


# -- product and factorization checks ---------------------------------------


@dataclass(frozen=True)
class HypothesisReport:
    """Instance check split into hypothesis validation and conclusion.

    Hypothesis violations are reported here as precondition failures and
    leave the conclusion untested (holds = None); a failed conclusion under
    valid hypotheses is a genuine violation (holds = False).
    """

    hypotheses_ok: bool
    hypothesis_failures: tuple
    conclusion: Optional[PronormalityReport]
    extra: dict

    @property
    def holds(self) -> Optional[bool]:
        if not self.hypotheses_ok:
            return None
        return self.conclusion.verdict


def commuting_product_pronormality(parent: PermGroup, factor_groups, parts,
                                   caps: Caps = DEFAULT_CAPS) -> HypothesisReport:
    """Pronormal parts of commuting normal factors generate a pronormal subgroup.

    Hypotheses verified on generators: each factor normal in parent, factors
    pairwise commuting, factors covering parent, each part pronormal in its
    factor.  Conclusion: <parts> pronormal in parent.
    """
    factor_groups = [_as_group(f) for f in factor_groups]
    parts = [_as_group(p) for p in parts]
    failures = []
    if len(factor_groups) != len(parts):
        raise ValueError("one part per factor required")
    for i, f in enumerate(factor_groups):
        try:
            if not is_normal(parent, f):
                failures.append(f"factor {i} is not normal in the ambient group")
        except GroupError as exc:
            failures.append(f"factor {i}: {exc}")
    for i in range(len(factor_groups)):
        for j in range(i + 1, len(factor_groups)):
            for a in factor_groups[i].generators:
                for b in factor_groups[j].generators:
                    if a * b != b * a:
                        failures.append(f"factors {i} and {j} do not commute")
                        break
    gens = tuple(g for f in factor_groups for g in f.generators)
    if PermGroup(parent.degree, gens).order() != parent.order():
        failures.append("factors do not generate the ambient group")
    part_reports = []
    for i, (f, p) in enumerate(zip(factor_groups, parts)):
        try:
            subgroup_check(f, p)
        except GroupError as exc:
            failures.append(f"part {i}: {exc}")
            continue
        rep = is_pronormal(f, p, caps)
        part_reports.append(rep)
        if rep.verdict is not True:
            failures.append(f"part {i} is not pronormal in factor {i}")
    if failures:
        return HypothesisReport(False, tuple(failures), None, {})
    h = PermGroup(parent.degree, tuple(g for p in parts for g in p.generators))
    conclusion = is_pronormal(parent, h, caps)
    return HypothesisReport(True, (), conclusion, {"part_reports": part_reports})


def hall_factorization_pronormality(parent: PermGroup, a, h, pi,
                                    caps: Caps = DEFAULT_CAPS) -> HypothesisReport:
    """H Hall for pi, A normal, G = HA, and H∩A pronormal in A force H pronormal.

    Also verifies the separability witness behind the statement: the series
    N_G(H∩A) >= N_A(H∩A) >= H∩A >= 1 is normal in N_G(H∩A) with factors
    alternating between pi'-free and pi-free orders, so N_G(H∩A) is
    pi-separable.
    """
    a = _as_group(a)
    h = _as_group(h)
    failures = []
    if h.order() != pi_part(parent.order(), pi) or not is_pi_number(h.order(), pi):
        failures.append("h is not a pi-Hall subgroup of the ambient group")
    if not is_normal(parent, a):
        failures.append("a is not normal in the ambient group")
    h_cap_a = intersect_groups(h, a, caps)
    if h.order() * a.order() != parent.order() * h_cap_a.order():
        failures.append("the ambient group is not the product of h and a")
    if failures:
        return HypothesisReport(False, tuple(failures), None, {})
    base_report = is_pronormal(a, h_cap_a, caps)
    if base_report.verdict is not True:
        failures.append("h∩a is not pronormal in a (hypothesis not met)")
        return HypothesisReport(False, tuple(failures), None,
                                {"intersection_report": base_report})

    norm = normalizer(parent, h_cap_a, caps).group
    norm_a = intersect_groups(norm, a, caps)
    series_ok = (is_normal(norm, norm_a)
                 and is_normal(norm, h_cap_a)
                 and is_pi_number(norm.order() // norm_a.order(), pi)
                 and is_pi_free(norm_a.order() // h_cap_a.order(), pi)
                 and is_pi_number(h_cap_a.order(), pi)
                 and is_pi_separable(norm, pi, caps) is not None)
    conclusion = is_pronormal(parent, h, caps)
    return HypothesisReport(True, (), conclusion,
                            {"series_ok": series_ok, "intersection_report": base_report,
                             "normalizer_order": norm.order()})
