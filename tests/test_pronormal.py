import itertools

import pytest

from hallperm.constructions import (alternating, direct_product, pointwise_stabilizer,
                                    psl2, symmetric, wreath_hall_pair)
from hallperm.group import PermGroup, inflate
from hallperm.hall import classify, hall_subgroups
from hallperm.pronormal import (commuting_product_pronormality, hall_factorization_pronormality,
                                is_pronormal, is_strongly_pronormal, pronormal_in_normal_closure,
                                pronormality_instance, replay_pronormality_failure,
                                replay_strong_pronormality_failure)
from hallperm.subgroup import sylow

from conftest import perm


def test_normal_subgroups_are_pronormal(sym5, alt5):
    report = is_pronormal(sym5, alt5)
    assert report.verdict is True


def test_sylow_subgroups_are_pronormal(sym5, psl27):
    for group in (sym5, psl27):
        from hallperm.numth import prime_divisors
        for p in prime_divisors(group.order()):
            assert is_pronormal(group, sylow(group, p).group).verdict is True


def test_stabilizer_pronormal_not_strongly_53(sym5):
    handle = pointwise_stabilizer(5, 3)
    assert handle.order() == 6
    assert is_pronormal(sym5, handle.group).verdict is True
    report = is_strongly_pronormal(sym5, handle.group)
    assert report.verdict is False
    assert report.failure is not None
    assert replay_strong_pronormality_failure(report)
    # the failing pair is canonical: the least K class and the least g
    assert report.failure.k.order() == 2


def test_strongly_pronormal_whole_group(sym5):
    assert is_strongly_pronormal(sym5, sym5).verdict is True


def test_strongly_pronormal_hall_of_solvable():
    group = symmetric(4)
    for pi in ({2}, {3}, {2, 3}):
        rep = classify(group, pi).hall_class_reps[0]
        assert is_strongly_pronormal(group, rep.group).verdict is True


def test_strong_implies_pronormal_on_samples(sym5):
    # every strongly pronormal subgroup must come out pronormal
    from hallperm.subgroup import all_subgroups, subgroup_conjugacy_classes
    s4 = symmetric(4)
    classes = subgroup_conjugacy_classes(s4, [s.group for s in all_subgroups(s4)])
    for rep, _ in classes:
        strong = is_strongly_pronormal(s4, rep)
        if strong.verdict is True:
            assert is_pronormal(s4, rep).verdict is True


def test_wreath_pair_not_pronormal(psl27):
    u, v = hall_subgroups(psl27, {2, 3})
    pair = wreath_hall_pair(psl27, u, v, {2, 3}, 5)
    g = pair.wreath.group
    h = pair.hall_first.group
    inst = pronormality_instance(g, h, pair.tau)
    assert inst.verdict is False
    assert inst.failure.mode == "blockwise"
    assert replay_pronormality_failure(inst)
    full = is_pronormal(g, h)
    assert full.verdict is False


def test_wreath_pair_pronormal_in_normal_closure(psl27):
    u, v = hall_subgroups(psl27, {2, 3})
    pair = wreath_hall_pair(psl27, u, v, {2, 3}, 5)
    report = pronormal_in_normal_closure(pair.wreath.group, pair.hall_first.group)
    assert report.verdict is True
    assert report.ambient.order() == 168 ** 5


def test_pronormal_in_closure_normal_subgroup(sym5, alt5):
    report = pronormal_in_normal_closure(sym5, alt5)
    assert report.verdict is True
    assert report.ambient.order() == alt5.order()


def test_pronormal_in_closure_sylow(sym5):
    p2 = sylow(sym5, 2).group
    assert pronormal_in_normal_closure(sym5, p2).verdict is True


def test_hall_subgroups_of_simple_groups_pronormal(psl27, alt5):
    for group in (psl27, alt5, alternating(6), psl2(8)):
        from hallperm.numth import prime_divisors
        import itertools
        primes = prime_divisors(group.order())
        for r in range(len(primes) + 1):
            for combo in itertools.combinations(primes, r):
                for rep in hall_subgroups(group, set(combo)):
                    assert is_pronormal(group, rep.group).verdict is True


def test_conjugacy_transfer_through_joint(sym5):
    # if H^y and H^g are conjugate in <H^y, H^g> for y inside <H, H^g>,
    # then H and H^g are conjugate in <H, H^g>
    h = PermGroup(5, [perm("(0 1)", 5), perm("(0 1 2)", 5)])
    g = perm("(2 3)", 5)
    joint = PermGroup(5, h.generators + tuple(x.conj(g) for x in h.generators))
    hg = PermGroup(5, [x.conj(g) for x in h.generators])
    for y in joint.elements()[:12]:
        hy = PermGroup(5, [x.conj(y) for x in h.generators])
        inner = PermGroup(5, hy.generators + hg.generators)
        from hallperm.pronormal import find_conjugator_in
        z, _ = find_conjugator_in(inner, hy, hg)
        if z is not None:
            x, _ = find_conjugator_in(joint, h, hg)
            assert x is not None


def test_image_of_pronormal_is_pronormal():
    s4 = symmetric(4)
    from hallperm.group import coset_action
    from hallperm.hall import all_normal_subgroups
    h = sylow(s4, 2).group
    assert is_pronormal(s4, h).verdict is True
    for normal in all_normal_subgroups(s4):
        hom, image = coset_action(s4, normal.group)
        assert is_pronormal(image, hom.image_subgroup(h)).verdict is True


def test_commuting_product_instance():
    s3 = symmetric(3)
    prod = direct_product([s3, s3])
    factor_groups = []
    parts = []
    for block in prod.factors.blocks:
        factor_groups.append(PermGroup(prod.degree,
                                       [inflate(g, block, prod.degree) for g in s3.generators]))
        syl = sylow(s3, 2).group
        parts.append(PermGroup(prod.degree,
                               [inflate(g, block, prod.degree) for g in syl.generators]))
    report = commuting_product_pronormality(prod, factor_groups, parts)
    assert report.hypotheses_ok
    assert report.holds is True


def test_commuting_product_single_factor(sym5):
    report = commuting_product_pronormality(sym5, [sym5], [sylow(sym5, 2).group])
    assert report.hypotheses_ok and report.holds is True


def test_commuting_product_full_parts():
    s3 = symmetric(3)
    prod = direct_product([s3, s3])
    factor_groups = [PermGroup(prod.degree, [inflate(g, block, prod.degree) for g in s3.generators])
                     for block in prod.factors.blocks]
    report = commuting_product_pronormality(prod, factor_groups, factor_groups)
    assert report.hypotheses_ok and report.holds is True


def test_commuting_product_rejects_bad_hypotheses(sym5):
    stab = PermGroup(5, [perm("(0 1)", 5), perm("(0 1 2)", 5)])
    report = commuting_product_pronormality(sym5, [stab], [stab])
    assert not report.hypotheses_ok
    assert report.holds is None


def test_hall_factorization_sym4():
    s4 = symmetric(4)
    a4 = alternating(4)
    h = sylow(s4, 2).group
    report = hall_factorization_pronormality(s4, a4, h, {2})
    assert report.hypotheses_ok
    assert report.holds is True
    assert report.extra["series_ok"] is True


def test_hall_factorization_degenerate_whole_group(sym5):
    # A = G: hypothesis is H pronormal in G itself
    h = sylow(sym5, 2).group
    report = hall_factorization_pronormality(sym5, sym5, h, {2})
    assert report.hypotheses_ok and report.holds is True


def test_hall_factorization_trivial_normal(sym5):
    from hallperm.group import trivial_group
    report = hall_factorization_pronormality(sym5, trivial_group(5), sym5, {2, 3, 5})
    assert report.hypotheses_ok and report.holds is True


def test_hall_factorization_rejects_non_hall(sym5):
    c5 = PermGroup(5, [perm("(0 1 2 3 4)", 5)])
    report = hall_factorization_pronormality(sym5, alternating(5), c5, {2})
    assert not report.hypotheses_ok


# -- the normalizer-coset decision against the exhaustive joint scan --------


@pytest.fixture(scope="module")
def subjects():
    return _differential_cases() + _non_hall_cases()


def _differential_cases():
    """(name, G, H): every Hall representative for every pi, and the Sylow
    subgroups, of each catalog group of order <= 60, psl2:7 and alt:6."""
    from hallperm.catalog import build_catalog, parse_group_spec
    from hallperm.numth import prime_divisors
    groups = [(e.name, e.group) for e in build_catalog(60)]
    groups += [(spec, parse_group_spec(spec)) for spec in ("psl2:7", "alt:6")]
    cases = []
    for name, group in groups:
        primes = prime_divisors(group.order())
        subjects = {}
        for r in range(len(primes) + 1):
            for pi in itertools.combinations(primes, r):
                for rep in hall_subgroups(group, set(pi)):
                    subjects.setdefault(rep.group.key(), rep.group)
        for p in primes:
            subjects.setdefault(sylow(group, p).group.key(), sylow(group, p).group)
        cases += [(name, group, h) for h in subjects.values()]
    return cases


def _non_hall_cases():
    """(name, G, H) for every subgroup class of sym:4, pronormal or not."""
    from hallperm.subgroup import all_subgroups, subgroup_conjugacy_classes
    s4 = symmetric(4)
    classes = subgroup_conjugacy_classes(s4, [s.group for s in all_subgroups(s4)])
    return [("sym:4", s4, rep) for rep, _ in classes]


def test_coset_decision_agrees_with_joint_scan(subjects):
    from hallperm.errors import DEFAULT_CAPS
    from hallperm.group import right_transversal
    from hallperm.pronormal import _decide_in_joint, _joint_meets_coset, _joint_of
    from hallperm.subgroup import normalizer
    positives = negatives = 0
    for name, group, h in subjects:
        norm = normalizer(group, h).group
        coset_reps = right_transversal(norm, h)
        blocks = group.factors and group.factors.blocks
        for t in right_transversal(group, norm)[1:]:
            conj_gens = [x.conj(t) for x in h.generators]
            joint = _joint_of(h, conj_gens, blocks)
            hg = PermGroup(h.degree, conj_gens)
            meets = _joint_meets_coset(group, norm, h, conj_gens, t, {0}, DEFAULT_CAPS)
            status, _ = _decide_in_joint(joint, h, hg, DEFAULT_CAPS)
            assert meets == (status == "found"), (name, h.order(), t)
            if not meets:
                negatives += 1
                continue
            positives += 1
            x = next(n * t for n in coset_reps if joint.contains(n * t))
            assert all(hg.contains(a.conj(x)) for a in h.generators), (name, t)
    assert (positives, negatives) == (313, 3)


def test_strong_fast_path_agrees_with_conjugate_into(subjects):
    from hallperm.group import right_transversal
    from hallperm.subgroup import (all_subgroups, conjugate_into, normalizer,
                                   subgroup_conjugacy_classes)
    fast = 0
    for name, group, h in subjects:
        if h.order() in (1, group.order()):
            continue            # every K^g lies in H, or the joint is G itself
        h_set = h.element_set()
        classes = subgroup_conjugacy_classes(h, [s.group for s in all_subgroups(h)])
        for k, _ in classes:
            if k.order() == 1:
                continue
            for g in right_transversal(group, normalizer(group, k).group):
                kg = k.conjugate(g)
                if all(x in h_set for x in kg.generators):
                    continue
                joint = PermGroup(h.degree, h.generators + kg.generators)
                if not joint.contains(g):
                    continue
                fast += 1
                assert conjugate_into(joint, kg, h) is not None, (name, k.order(), g)
                assert all(h.contains(x.conj(~g)) for x in kg.generators)
    assert fast == 1115


def test_scan_contradicting_a_coset_miss_is_an_error(monkeypatch, sym5):
    # a conjugator that the coset test missed must never become a verdict
    from hallperm import pronormal
    from hallperm.errors import GroupError
    monkeypatch.setattr(pronormal, "_joint_meets_coset", lambda *args: False)
    h = sylow(sym5, 2).group
    with pytest.raises(GroupError, match="library bug"):
        is_pronormal(sym5, h)
    with pytest.raises(GroupError, match="library bug"):
        pronormality_instance(sym5, h, perm("(0 4)", 5))


# -- the orbit test on the normalizer's right cosets ------------------------


@pytest.fixture(scope="module")
def class_reps():
    """(name, G, H) for every subgroup_classes rep of each catalog group of
    order <= 60 and of alt:6, pronormal or not."""
    from hallperm.catalog import build_catalog, parse_group_spec
    from hallperm.subgroup import subgroup_classes
    groups = [(e.name, e.group) for e in build_catalog(60)]
    groups.append(("alt:6", parse_group_spec("alt:6")))
    return [(name, group, rep) for name, group in groups for rep, _ in subgroup_classes(group)]


def test_orbit_test_agrees_with_joint_scan_on_class_reps(class_reps):
    from hallperm.errors import DEFAULT_CAPS
    from hallperm.group import right_transversal
    from hallperm.pronormal import _decide_in_joint, _joint_meets_coset, _joint_of
    from hallperm.subgroup import normalizer
    positives = negatives = 0
    for name, group, h in class_reps:
        norm = normalizer(group, h).group
        blocks = group.factors and group.factors.blocks
        for t in right_transversal(group, norm)[1:]:
            conj_gens = [x.conj(t) for x in h.generators]
            joint = _joint_of(h, conj_gens, blocks)
            meets = _joint_meets_coset(group, norm, h, conj_gens, t, {0}, DEFAULT_CAPS)
            status, _ = _decide_in_joint(joint, h, PermGroup(h.degree, conj_gens), DEFAULT_CAPS)
            assert meets == (status == "found"), (name, h.order(), t)
            positives += meets
            negatives += not meets
    assert (len(class_reps), positives, negatives) == (370, 758, 86)


def test_orbit_test_agrees_with_conjugate_into_on_strong_pairs(class_reps):
    # the pair (K, g) passes when the orbit of N_G(K)g under <H, K^g> meets
    # S_K = {N_G(K)y : K^y <= H}; conjugate_into scans the joint instead
    from hallperm.errors import DEFAULT_CAPS
    from hallperm.group import right_transversal
    from hallperm.pronormal import _joint_meets_coset
    from hallperm.subgroup import conjugate_into, normalizer, subgroup_classes
    positives = negatives = 0
    for name, group, h in class_reps:
        if h.order() in (1, group.order()):
            continue            # K = 1 only, or every K^g lies in H
        h_set = h.element_set()
        for k, _ in subgroup_classes(h):
            if k.order() == 1:
                continue
            norm = normalizer(group, k).group
            reps = right_transversal(group, norm)
            conj_gens = [tuple(x.conj(y) for x in k.generators) for y in reps]
            into_h = {c for c, kg in enumerate(conj_gens) if all(x in h_set for x in kg)}
            for c, (g, kg) in enumerate(zip(reps, conj_gens)):
                if c in into_h:
                    continue
                meets = _joint_meets_coset(group, norm, h, kg, g, into_h, DEFAULT_CAPS)
                joint = PermGroup(h.degree, h.generators + kg)
                found = conjugate_into(joint, PermGroup(h.degree, kg), h) is not None
                assert meets == found, (name, h.order(), k.order(), g)
                positives += meets
                negatives += not meets
    assert (positives, negatives) == (3484, 203)


@pytest.mark.parametrize("spec", ["psl2:16", "alt:6"])
def test_positive_instance_builds_no_chain_and_no_joint(monkeypatch, spec):
    # a deterministic guard on the work a positive verdict does, not a timing
    from hallperm.catalog import parse_group_spec
    from hallperm.group import ElementIndex, StabilizerChain, right_transversal
    from hallperm.subgroup import normalizer
    group = parse_group_spec(spec)
    h = sylow(group, 2).group
    g = right_transversal(group, normalizer(group, h).group)[1]
    calls = []
    build, join = StabilizerChain.build.__func__, ElementIndex.join
    monkeypatch.setattr(StabilizerChain, "build",
                        classmethod(lambda cls, *args: calls.append("build") or build(cls, *args)))
    monkeypatch.setattr(ElementIndex, "join",
                        lambda self, *args: calls.append("join") or join(self, *args))
    assert pronormality_instance(group, h, g).verdict is True
    assert is_pronormal(group, h).verdict is True
    assert calls == []
    # the counters see a negative instance close its joint, and a cold
    # group build its chain
    assert pronormality_instance(symmetric(4), PermGroup(4, [perm("(0 1)", 4)]),
                                 perm("(0 2)(1 3)", 4)).verdict is False
    assert "build" in calls and "join" in calls


def test_warm_positive_instance_makes_no_product(monkeypatch):
    # once the coset table and the H-orbit memo are warm, a positive instance
    # steps on the table's gathers and forms no Permutation product
    from hallperm.catalog import parse_group_spec
    from hallperm.group import Permutation, right_transversal
    from hallperm.subgroup import normalizer
    group = parse_group_spec("psl2:16")
    h = sylow(group, 2).group
    norm = normalizer(group, h).group
    # g in each coset, and a second g in the same coset as the first
    gs = right_transversal(group, norm)[1:]
    gs.append(norm.generators[0] * gs[0])
    assert all(pronormality_instance(group, h, g).verdict is True for g in gs)
    calls = []
    mul = Permutation.__mul__
    monkeypatch.setattr(Permutation, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    assert all(pronormality_instance(group, h, g).verdict is True for g in gs)
    assert calls == []
    gs[0] * gs[1]           # the patch does see a product
    assert calls == [1]


def test_memoized_h_orbits_are_double_cosets(class_reps):
    # brute-force oracle: each memoized H-orbit of a coset Nr is {N r x : x in H}
    from hallperm.errors import DEFAULT_CAPS
    from hallperm.group import right_transversal
    from hallperm.pronormal import _joint_meets_coset
    from hallperm.subgroup import normalizer
    checked = 0
    for name, group, h in class_reps:
        norm = normalizer(group, h).group
        for t in right_transversal(group, norm)[1:]:
            _joint_meets_coset(group, norm, h, [x.conj(t) for x in h.generators], t, {0},
                               DEFAULT_CAPS)
        if h.order() not in (1, group.order()):
            is_strongly_pronormal(group, h)     # H acting on the cosets of each N_G(K)
        for key, memo in group._cache.items():
            if key[0] != "h_orbits" or key[2] != h.element_set():
                continue
            reps, lookup, _ = group._cache[("cosets", key[1])]
            for c, block in memo.items():
                assert sorted(block) == sorted({lookup[reps[c] * x] for x in key[2]}), (name, c)
                assert all(memo[d] is block for d in block)
                checked += 1
    assert checked > 0


def test_strong_scan_contradicting_an_orbit_miss_is_an_error(monkeypatch, sym5):
    # Sylow subgroups are strongly pronormal, so every forced miss is contradicted
    from hallperm import pronormal
    from hallperm.errors import GroupError
    monkeypatch.setattr(pronormal, "_joint_meets_coset", lambda *args: False)
    with pytest.raises(GroupError, match="library bug"):
        is_strongly_pronormal(sym5, sylow(sym5, 2).group)


@pytest.fixture(scope="module")
def theorem3_pair():
    """G = psl2:7 wr Z_5, its Hall subgroup H and the shift tau, with the
    chains that check G and H built."""
    from hallperm.catalog import parse_group_spec
    base = parse_group_spec("psl2:7")
    u, v = hall_subgroups(base, {2, 3})[:2]
    pair = wreath_hall_pair(base, u, v, {2, 3}, 5)
    group, h = pair.wreath.group, pair.hall_first.group
    assert group.order() and h.order()
    return group, h, pair.tau


def _seeded_witnesses(group, tau, words_each):
    """The shift powers, then words in G's generators and in those of the
    base copy on block 0, drawn from a fixed seed."""
    import random
    rng = random.Random(1)
    seeded = [tau ** k for k in range(1, 5)]
    for gens in (group.generators, group.generators[:-1]):
        for _ in range(words_each):
            g = group.identity
            for _ in range(20):
                g = g * rng.choice(gens)
            seeded.append(g)
    return seeded


def test_wreath_instances_build_no_chain_on_the_whole_degree(monkeypatch, theorem3_pair):
    # once H is warm, H^g's components are relabelled from H's, the joint's
    # grown from them, and no chain is assembled on the whole degree
    from hallperm.group import StabilizerChain
    group, h, tau = theorem3_pair
    assert pronormality_instance(group, h, tau).verdict is False  # warms H's components
    calls = []
    build = StabilizerChain.build.__func__
    assemble = StabilizerChain.direct_product.__func__
    monkeypatch.setattr(StabilizerChain, "build", classmethod(
        lambda cls, degree, gens: calls.append(("build", degree)) or build(cls, degree, gens)))
    monkeypatch.setattr(StabilizerChain, "direct_product", classmethod(
        lambda cls, degree, *args: calls.append(("direct_product", degree))
        or assemble(cls, degree, *args)))
    verdicts = [pronormality_instance(group, h, g).verdict
                for g in _seeded_witnesses(group, tau, 3)]
    assert verdicts[0] is False and True in verdicts
    assert calls == []


def test_relabelled_split_path_agrees_with_schreier_sims(theorem3_pair):
    # the relabelled and seeded path against the one it replaced: the joint
    # built by Schreier-Sims on 40 points, projected onto the blocks, with
    # H^g's components projected and built on 8 points
    from hallperm.group import attach_block_structure
    from hallperm.pronormal import _decide_in_joint, _joint_of, _split_instance
    from hallperm.errors import DEFAULT_CAPS
    group, h, tau = theorem3_pair
    blocks = group.factors.blocks
    seeded = _seeded_witnesses(group, tau, 18)
    outcomes = []
    for g in seeded:
        conj_gens = tuple(x.conj(g) for x in h.generators)
        joint, _, hg = _split_instance(h, g, conj_gens, blocks)
        old = _joint_of(h, conj_gens, blocks)
        old_hg = attach_block_structure(PermGroup(h.degree, conj_gens), blocks, h.order())
        assert joint.order() == old.chain.order() == old.order()
        for new_parts, old_parts in ((joint.factors.factor_groups, old.factors.factor_groups),
                                     (hg.factors.factor_groups, old_hg.factors.factor_groups)):
            assert [c.element_set() for c in new_parts] == [c.element_set() for c in old_parts]
        report = pronormality_instance(group, h, g)
        if old.chain.contains(g):
            expected = (True, None)
        else:
            status, data = _decide_in_joint(old, h, old_hg, DEFAULT_CAPS)
            expected = (True, None) if status == "found" else (False, data)
        fail = report.failure
        assert (report.verdict, fail and (fail.mode, fail.scanned, fail.failing_block)) == expected
        outcomes.append(report.verdict)
    assert len(seeded) == 40 and True in outcomes and False in outcomes


# (base, pi, p, components that fill their block over the 40 seeded g):
# the theorem3 pair, and psl2:11 with its A4 and D12 classes at {2,3} and
# its two A5 classes at {2,3,5}.  Half of the g are words in the block-0
# copy of the base, which leave the other blocks' components at H's.
_BOUNDED_JOIN_CASES = [("psl2:7", {2, 3}, 5, 85), ("psl2:11", {2, 3}, 5, 87),
                       ("psl2:11", {2, 3, 5}, 7, 98)]


@pytest.mark.parametrize("base, pi, p, filled", _BOUNDED_JOIN_CASES)
def test_bounded_split_join_agrees_with_the_unbounded_one(monkeypatch, base, pi, p, filled):
    # each joint component grows only up to its block factor of G, and one
    # that reaches it is that factor itself; the joint, the verdict, the
    # failure data and the certificate are those of the unbounded growth
    from hallperm import certificates as certs, pronormal
    from hallperm.catalog import parse_group_spec
    base = parse_group_spec(base)
    u, v = hall_subgroups(base, pi)[:2]
    pair = wreath_hall_pair(base, u, v, pi, p)
    group, h = pair.wreath.group, pair.hall_first.group
    blocks, factors = group.factors.blocks, group.factors.factor_groups
    split_instance = pronormal._split_instance
    seeded = _seeded_witnesses(group, pair.tau, 18)
    components = reached = 0
    for g in seeded:
        conj_gens = tuple(x.conj(g) for x in h.generators)
        bounded = split_instance(h, g, conj_gens, blocks, group.factors)[0]
        unbounded = split_instance(h, g, conj_gens, blocks)[0]
        assert bounded.order() == unbounded.order()
        for c, old, f in zip(bounded.factors.factor_groups, unbounded.factors.factor_groups,
                             factors):
            assert c.element_set() == old.element_set()
            assert (c is f) == (c.order() == f.order())
            components += 1
            reached += c is f
    assert (reached, components) == (filled, 40 * p)

    def run():
        reports = [pronormality_instance(group, h, g) for g in seeded]
        return [(r.verdict, r.failure and (r.failure.mode, r.failure.scanned,
                                           r.failure.failing_block),
                 r.verdict is False and certs.non_pronormality_certificate(group, r)["digest"])
                for r in reports]

    outcomes = run()
    monkeypatch.setattr(pronormal, "_split_instance",
                        lambda h, g, conj_gens, blocks, within: split_instance(
                            h, g, conj_gens, blocks))
    assert run() == outcomes
    assert {verdict for verdict, _, _ in outcomes} == {True, False}


def test_normal_subject_leaves_no_coset_table():
    from hallperm.catalog import parse_group_spec
    group = parse_group_spec("sym:8")
    report = is_pronormal(group, group)
    assert (report.verdict, report.checked_coset_count) == (True, 0)
    assert not [key for key in group._cache if isinstance(key, tuple) and key[0] == "cosets"]


# -- blockwise decisions past enum_cap, driven by small caps on catalog groups


def _reflection_in_product():
    """product(dih:4,cyc:3), <s> for the reflection s of dih:4 in block 0,
    and the rotation r of dih:4 there: <s, s^r> is abelian, so <s> is not
    pronormal."""
    from hallperm.catalog import parse_group_spec
    parent = parse_group_spec("product(dih:4,cyc:3)")
    block = parent.factors.blocks[0]
    r, s = parent.factors.factor_groups[0].generators
    h = PermGroup(parent.degree, [inflate(s, block, parent.degree)])
    return parent, h, inflate(r, block, parent.degree)


def _certify_and_forge(group, report, caps, forge):
    """The report's certificate replays under caps; the copy edited by forge,
    with a fresh digest, does not."""
    import copy
    from hallperm import certificates as certs
    cert = certs.non_pronormality_certificate(group, report)
    assert certs.verify_certificate(cert, caps)[0]
    twin = copy.deepcopy(cert)
    forge(twin)
    twin["digest"] = certs.certificate_digest(twin)
    ok, detail = certs.verify_certificate(twin, caps)
    assert not ok
    return detail


def test_a_failing_factor_is_lifted_past_enum_cap():
    from hallperm.errors import Caps
    parent, h, r = _reflection_in_product()
    caps = Caps(enum_cap=20)
    assert parent.order() == 24 > caps.enum_cap
    dih = parent.factors.factor_groups[0]
    factor_report = is_pronormal(dih, PermGroup(4, dih.generators[1:]), caps)
    report = is_pronormal(parent, h, caps)
    fail = report.failure
    assert report.verdict is False and is_pronormal(parent, h).verdict is False
    assert fail.g == inflate(factor_report.failure.g, parent.factors.blocks[0], parent.degree)
    # the joint <s, s^g> x 1 has 4 elements, so it is scanned whole
    assert (fail.mode, fail.scanned, fail.failing_block) == ("exhaustive", 4, None)
    assert fail.joint.order() == 4

    def normalizing_g(cert):
        # r^2 is central in dih:4, so H^g = H and the joint is H alone
        cert["payload"]["witness_g"] = (r * r).cycle_string()
    assert _certify_and_forge(parent, report, caps, normalizing_g) == "joint order mismatch"


def test_a_joint_block_past_enum_cap_is_capped():
    from hallperm.errors import Caps
    parent, h, r = _reflection_in_product()
    report = pronormality_instance(parent, h, r, Caps(enum_cap=3))
    assert report.verdict is None
    assert report.indeterminate_reason == "block 0 of the joint exceeds enum_cap"


def test_unequal_component_orders_are_absent_without_a_scan():
    # H = <(0 1)> x <(3 4 5)> in Sym(3) wr Z_2: H^tau has components of
    # orders 3 and 2, and the joint Sym(3) x Sym(3) keeps every block, so
    # no element of it carries H to H^tau
    from hallperm.catalog import parse_group_spec
    from hallperm.errors import Caps
    group = parse_group_spec("wreath(sym:3,2)")
    blocks, tau = group.factors.blocks, group.factors.shift
    t, c = group.factors.factor_groups[0].generators
    h = PermGroup(6, [inflate(t, blocks[0], 6), inflate(c, blocks[1], 6)])
    caps = Caps(enum_cap=30)
    report = pronormality_instance(group, h, tau, caps)
    fail = report.failure
    assert report.verdict is False and fail.joint.order() == 36 > caps.enum_cap
    assert (fail.mode, fail.scanned, fail.failing_block) == ("blockwise", 0, 0)
    probed = is_pronormal(group, h, caps).failure
    assert (probed.g, probed.mode, probed.scanned, probed.failing_block) == (tau, "blockwise", 0, 0)

    def other_block(cert):
        cert["payload"]["joint"]["failing_block"] = 1
    assert "rescan gives" in _certify_and_forge(group, report, caps, other_block)


@pytest.mark.parametrize("p", [2, 3])
def test_a_wreath_past_enum_cap_probes_only_the_shift_powers(p):
    # the base product is normal, so every shift power keeps it and no
    # probe fails: the verdict stays open after the p - 1 nontrivial powers
    from hallperm.constructions import cyclic, direct_product, wreath_regular
    from hallperm.errors import Caps
    datum = wreath_regular(cyclic(2), p)
    caps = Caps(enum_cap=4)
    assert datum.group.order() > caps.enum_cap
    report = is_pronormal(datum.group, direct_product([datum.base] * p), caps)
    assert (report.verdict, report.checked_coset_count) == (None, p - 1)
    assert report.indeterminate_reason == "ambient beyond enum_cap; only shift powers probed"


def test_an_unstructured_parent_past_enum_cap_raises(sym5):
    from hallperm.errors import CapExceeded, Caps
    with pytest.raises(CapExceeded) as raised:
        is_pronormal(sym5, PermGroup(5, [perm("(0 1)", 5)]), Caps(enum_cap=10))
    assert (raised.value.cap_name, raised.value.needed) == ("enum_cap", 120)


def test_an_indeterminate_factor_leaves_the_product_indeterminate():
    # product(wreath(cyc:2,2), cyc:2) is shift-free past enum_cap; block 0
    # is a wreath past enum_cap too, so its base product gets the open
    # shift-power verdict, which the product passes on
    from hallperm.catalog import parse_group_spec
    from hallperm.errors import Caps
    parent = parse_group_spec("product(wreath(cyc:2,2),cyc:2)")
    wreath = parent.factors.factor_groups[0]
    base = [inflate(x, b, wreath.degree)
            for b, f in zip(wreath.factors.blocks, wreath.factors.factor_groups) for x in f.generators]
    block = parent.factors.blocks[0]
    h = PermGroup(parent.degree, [inflate(x, block, parent.degree) for x in base])
    assert h.order() == 4
    report = is_pronormal(parent, h, Caps(enum_cap=4))
    assert (report.verdict, report.checked_coset_count) == (None, 1)
    assert report.indeterminate_reason == "ambient beyond enum_cap; only shift powers probed"


def test_a_split_instance_whose_g_misses_the_joint_is_decided_blockwise():
    # H = <(0 1)> x <(4 5)> in Sym(4) x Sym(4), y = (1 2)(5 6) and n = (2 3)
    # in N_G(H): J = <H, H^(ny)> = Sym(3) x Sym(3) misses g = n*y, yet H and
    # H^g are conjugate in each block of J, which the blockwise scan finds
    from hallperm.errors import Caps
    parent = direct_product([symmetric(4), symmetric(4)])
    h = PermGroup(8, [perm("(0 1)", 8), perm("(4 5)", 8)])
    n, y = perm("(2 3)", 8), perm("(1 2)(5 6)", 8)
    g = n * y
    assert all(h.contains(x.conj(n)) for x in h.generators)
    joint = PermGroup(8, h.generators + tuple(x.conj(g) for x in h.generators))
    assert joint.order() == 36 and not joint.contains(g)
    caps = Caps(enum_cap=10)
    assert parent.order() > caps.enum_cap and joint.order() > caps.enum_cap
    report = pronormality_instance(parent, h, g, caps)
    assert (report.verdict, report.checked_coset_count) == (True, 1)
