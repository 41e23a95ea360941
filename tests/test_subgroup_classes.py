"""Subgroup classes without the lattice, the covering verdict taken when it
is read, and the lattice kept to the overgroups of theorem2.

subgroup_classes and ClassVerdict's D check are compared with eager oracles
built from conftest.lattice_oracle and subgroup_conjugacy_classes
(conftest.subgroup_classes_oracle); the maximal-subgroup reps with the
quadratic containment filter they replaced; the normal subgroups with the
oracle's one-member classes.
"""

import functools
import itertools
import sys

import pytest

import hallperm
from hallperm import hall, pronormal, subgroup, suites
from hallperm.catalog import build_catalog, parse_group_spec
from hallperm.constructions import pointwise_stabilizer
from hallperm.errors import CapExceeded, Caps
from hallperm.group import group_from_elements
from hallperm.hall import classify, pi_part
from hallperm.numth import prime_divisors
from hallperm.subgroup import conjugate_into, subgroup_classes

from conftest import maximal_subgroup_reps_oracle, subgroup_classes_oracle

SMALL = tuple(e.name for e in build_catalog(60))
EXTRA = ("alt:6", "psl2:7", "sym:5", "wreath(alt:4,2)")


def test_small_catalog_has_44_groups():
    assert len(SMALL) == 44


@functools.lru_cache(maxsize=None)
def _oracle(spec):
    group = parse_group_spec(spec)
    return group, subgroup_classes_oracle(group)


def _pis(order):
    primes = prime_divisors(order)
    return [set(pi) for r in range(len(primes) + 1) for pi in itertools.combinations(primes, r)]


@pytest.mark.parametrize("spec", SMALL + EXTRA)
def test_subgroup_classes_match_the_lattice_oracle(spec):
    group, classes = _oracle(spec)
    for d in [None] + sorted({pi_part(group.order(), pi) for pi in _pis(group.order())}):
        expected = [(key, size) for key, size in classes if d is None or d % len(key) == 0]
        got = [(rep.element_set(), size) for rep, size in subgroup_classes(group, d)]
        assert got == expected, (spec, d)


@pytest.mark.parametrize("spec, class_count, subgroup_count", [
    ("sym:4", 11, 30), ("alt:5", 9, 59), ("sym:5", 19, 156), ("alt:6", 22, 501),
    ("psl2:8", 12, 386), ("sym:6", 56, 1455),
])
def test_subgroup_class_counts_match_the_literature(spec, class_count, subgroup_count):
    classes = subgroup_classes(parse_group_spec(spec))
    assert len(classes) == class_count
    assert sum(size for _, size in classes) == subgroup_count


def test_subgroup_cap_is_raised_where_d_is_read():
    group = parse_group_spec("sym:5")
    caps = Caps(subgroup_cap=100)
    for enumerate_subgroups in (subgroup_classes, subgroup.all_subgroups):
        with pytest.raises(CapExceeded) as exc:
            enumerate_subgroups(group, caps=caps)
        assert (exc.value.cap_name, exc.value.cap_value, exc.value.needed) == (
            "subgroup_cap", 100, 120)
    verdict = classify(group, {2, 3}, caps)
    assert verdict.satisfies_c and verdict.hall_order == 24
    with pytest.raises(CapExceeded, match="subgroup_cap"):
        verdict.satisfies_d


# -- the covering verdict is decided when it is read --------------------------


def _eager_d(group, classes, verdict):
    """The covering verdict as classify used to decide it before returning."""
    if not verdict.satisfies_c:
        return False, None
    target = verdict.hall_order
    if not 1 < target < group.order():
        return True, None
    hall_rep = verdict.hall_class_reps[0].group
    for key, _ in classes:
        if len(key) == 1 or target % len(key):
            continue
        rep = group_from_elements(group.degree, key)
        if conjugate_into(group, rep, hall_rep) is None:
            return False, key
    return True, None


@pytest.mark.parametrize("spec", SMALL + ("psl2:7", "alt:6"))
def test_lazy_d_matches_the_eager_oracle(spec):
    group, classes = _oracle(spec)
    for pi in _pis(group.order()):
        verdict = classify(group, pi)
        failure = verdict.d_failure
        assert (verdict.satisfies_d, failure and failure.group.element_set()) == \
            _eager_d(group, classes, verdict), (spec, pi)


@pytest.mark.parametrize("spec", ["alt:5", "psl2:4", "psl2:5"])
def test_classify_builds_no_subgroups_until_d_is_read(spec, monkeypatch):
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(hall, "subgroup_classes", counted("classes", subgroup_classes))
    for module in (subgroup, hall, pronormal, suites):
        if hasattr(module, "all_subgroups"):
            monkeypatch.setattr(module, "all_subgroups",
                                counted("lattice", subgroup.all_subgroups))
    group = parse_group_spec(spec)
    verdict = classify(group, {2, 3})
    assert verdict.satisfies_e and verdict.satisfies_c and verdict.class_count == 1
    assert calls == []
    assert verdict.satisfies_d is False
    assert calls == ["classes"]
    assert verdict.d_failure.order() == 6
    assert calls == ["classes"]     # kept, not decided again


# -- maximal subgroups ---------------------------------------------------------


@pytest.mark.parametrize("spec", SMALL + ("alt:6", "sym:5", "psl2:7"))
def test_maximal_subgroup_reps_match_the_containment_oracle(spec):
    group, _ = _oracle(spec)    # lattice_oracle keeps the lattice per group
    got = [m.element_set() for m in suites._maximal_subgroup_reps(group, Caps())]
    assert got == maximal_subgroup_reps_oracle(group)


# -- normal subgroups from the same enumerator ---------------------------------


@pytest.mark.parametrize("spec", SMALL + EXTRA)
def test_normal_subgroups_are_the_one_member_classes(spec):
    group, classes = _oracle(spec)
    got = [n.group.element_set() for n in hall.all_normal_subgroups(group)]
    assert got == [key for key, size in classes if size == 1]


def test_normal_subgroups_ignore_the_lattice_cap():
    normals = hall.all_normal_subgroups(parse_group_spec("sym:5"), Caps(subgroup_cap=10))
    assert [n.order() for n in normals] == [1, 60, 120]


# -- only overgroups lists the lattice -----------------------------------------


def _watch_lattice(monkeypatch):
    """Wrap all_subgroups wherever hallperm binds it; record each caller's name."""
    callers = []
    original = subgroup.all_subgroups

    def wrapper(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args, **kwargs)

    for module in (hallperm, subgroup, hall, pronormal, suites):
        if getattr(module, "all_subgroups", None) is original:
            monkeypatch.setattr(module, "all_subgroups", wrapper)
    return callers


def test_runners_build_the_lattice_only_through_overgroups(monkeypatch):
    callers = _watch_lattice(monkeypatch)
    for spec in ("sym:4", "alt:5", "psl2:7", "product(sym:3,cyc:4)"):
        for runner in suites._GROUP_RUNNERS:
            result = suites.run_group_task(runner, spec)
            assert not result.violations and not result.cap_hits, (runner, spec)
    assert set(callers) == {"overgroups"}


def test_strong_tester_never_builds_the_lattice(monkeypatch):
    """The reported K is its subgroup_classes rep, which is also the
    all_subgroups member of its element set, generators included."""
    callers = _watch_lattice(monkeypatch)
    handle = pointwise_stabilizer(5, 3)
    report = pronormal.is_strongly_pronormal(handle.parent, handle.group)
    assert report.verdict is False
    assert callers == []
    k = report.failure.k
    member = next(s.group for s in subgroup.all_subgroups(handle.group)
                  if s.group.element_set() == k.element_set())
    assert member.generators == k.generators
