import pytest
from hypothesis import given, strategies as st

from hallperm.constructions import alternating, cyclic, dihedral, symmetric
from hallperm.group import PermGroup
from hallperm.hall import (PrimeSet, all_normal_subgroups, classify, hall_subgroups,
                           is_hall_subgroup, is_pi_free, is_pi_number, is_pi_separable,
                           is_solvable, pi_part, sylow_tower, towers_conjugacy_check)
from hallperm.numth import is_p_power, p_part
from hallperm.subgroup import is_conjugate

from conftest import perm


def test_prime_set_validates():
    assert sorted(PrimeSet({2, 3, 5})) == [2, 3, 5]
    with pytest.raises(ValueError):
        PrimeSet({4})
    with pytest.raises(ValueError):
        PrimeSet({1})


def test_pi_part_values():
    assert pi_part(168, {2, 3}) == 24
    assert pi_part(4080, {3, 5}) == 15
    assert pi_part(100, set()) == 1
    assert pi_part(1, {2}) == 1


@pytest.mark.parametrize("p", [1, 0, -1, -2])
def test_p_parts_need_a_base_of_at_least_2(p):
    # n % 1 == n % -1 == 0, so dividing out such a p would never stop
    with pytest.raises(ValueError):
        p_part(12, p)
    with pytest.raises(ValueError):
        is_p_power(12, p)
    with pytest.raises(ValueError):
        is_pi_number(12, {2, p})


def pi_part_oracle(n, pi):
    """Largest divisor of n with all prime factors in pi, by enumeration."""
    best = 1
    for d in range(1, n + 1):
        if n % d == 0 and is_pi_number(d, pi):
            best = d
    return best


@given(st.integers(min_value=1, max_value=2000),
       st.sets(st.sampled_from([2, 3, 5, 7, 11]), max_size=3))
def test_pi_part_matches_enumeration_oracle(n, pi):
    value = pi_part(n, pi)
    assert value == pi_part_oracle(n, pi)
    assert n % value == 0
    assert is_pi_number(value, pi)
    assert is_pi_free(n // value, pi)


def test_hall_subgroups_sl216(sl216):
    reps = hall_subgroups(sl216, {3, 5})
    assert len(reps) == 1
    assert reps[0].order() == 15


def test_hall_subgroups_psl27(psl27):
    reps = hall_subgroups(psl27, {2, 3})
    assert len(reps) == 2
    assert all(r.order() == 24 for r in reps)
    assert is_conjugate(psl27, reps[0], reps[1]) is None


def test_hall_subgroup_full_prime_set(psl27):
    reps = hall_subgroups(psl27, {2, 3, 7})
    assert len(reps) == 1
    assert reps[0].order() == 168


def test_is_hall_subgroup_checks_membership(alt5, sym5):
    # order 12 = the {2,3}-part of 60, but (0 1) is odd
    s3_s2 = PermGroup(5, [perm("(0 1)", 5), perm("(0 1 2)", 5), perm("(3 4)", 5)])
    assert s3_s2.order() == 12
    assert not is_hall_subgroup(alt5, s3_s2, {2, 3})
    assert is_hall_subgroup(sym5, PermGroup(5, [perm("(0 1 2 3 4)", 5)]), {5})
    assert all(is_hall_subgroup(alt5, r, {2, 3}) for r in hall_subgroups(alt5, {2, 3}))


def test_hall_subgroup_empty_pi(sym5):
    reps = hall_subgroups(sym5, set())
    assert len(reps) == 1 and reps[0].order() == 1


def test_classify_sl216(sl216):
    v = classify(sl216, {3, 5})
    assert v.satisfies_e and v.satisfies_c and v.satisfies_d
    assert v.class_count == 1 and v.hall_order == 15


def test_classify_alt5_as_subfield_group(alt5):
    v = classify(alt5, {3, 5})
    assert not v.satisfies_e
    assert not v.satisfies_c and not v.satisfies_d


def test_classify_psl27(psl27):
    v = classify(psl27, {2, 3})
    assert v.satisfies_e and not v.satisfies_c and not v.satisfies_d
    assert v.class_count == 2


def test_classify_implication_chain(sym5, alt5, psl27):
    # sl2(16) is exercised on its scenario prime set only; sweeping all of
    # its pi subsets costs minutes without adding coverage
    cases = [(g, combo)
             for g in (sym5, alt5, psl27, cyclic(12), dihedral(6))
             for combo in _pi_subsets_of(g.order())]
    from hallperm.constructions import sl2
    cases.append((sl2(16), frozenset({3, 5})))
    for group, pi in cases:
        v = classify(group, pi)
        assert (not v.satisfies_d) or v.satisfies_c
        assert (not v.satisfies_c) or v.satisfies_e
        if v.satisfies_e:
            assert v.satisfies_c == (v.class_count == 1)
        for rep in v.hall_class_reps:
            assert rep.order() == v.hall_order


def _pi_subsets_of(order):
    import itertools
    from hallperm.numth import prime_divisors
    primes = prime_divisors(order)
    return [frozenset(c) for r in range(len(primes) + 1)
            for c in itertools.combinations(primes, r)]


def test_empty_pi_classify(sym5):
    v = classify(sym5, set())
    assert v.satisfies_e and v.satisfies_c and v.satisfies_d
    assert v.hall_class_reps[0].order() == 1


def test_is_pi_separable_solvable_groups():
    for group in (symmetric(4), dihedral(6), cyclic(24)):
        for pi in ({2}, {3}, {2, 3}):
            series = is_pi_separable(group, pi)
            assert series is not None
            orders = [s.order() for s in series]
            assert orders[0] == 1 and orders[-1] == group.order()
            for small, large in zip(orders, orders[1:]):
                ratio = large // small
                assert is_pi_number(ratio, pi) or is_pi_free(ratio, pi)


def test_is_pi_separable_alt5(alt5):
    assert is_pi_separable(alt5, {2, 3}) is None
    # a pi-group is separable via G > 1
    assert is_pi_separable(alt5, {2, 3, 5}) is not None


def test_normal_subgroups_of_sym4():
    s4 = symmetric(4)
    orders = [n.order() for n in all_normal_subgroups(s4)]
    assert orders == [1, 4, 12, 24]


def test_solvability(sym5, alt5):
    assert is_solvable(symmetric(4))
    assert is_solvable(cyclic(30))
    assert is_solvable(dihedral(12))
    assert not is_solvable(alt5)
    assert not is_solvable(sym5)


def test_sylow_tower_cyclic15():
    c15 = cyclic(15)
    tower = sylow_tower(c15, (3, 5))
    assert tower is not None
    assert [s.order() for s in tower.series] == [15, 5, 1]
    tower_b = sylow_tower(c15, (5, 3))
    assert tower_b is not None


def test_sylow_tower_sym3():
    s3 = symmetric(3)
    tower = sylow_tower(s3, (2, 3))
    assert tower is not None
    assert [s.order() for s in tower.series] == [6, 3, 1]
    assert sylow_tower(s3, (3, 2)) is None  # Sylow 2 is not normal


def test_sylow_tower_alt4():
    a4 = alternating(4)
    assert sylow_tower(a4, (3, 2)) is not None
    assert sylow_tower(a4, (2, 3)) is None


def test_sylow_tower_rejects_bad_complexion():
    with pytest.raises(ValueError):
        sylow_tower(cyclic(15), (3, 3))
    with pytest.raises(ValueError):
        sylow_tower(cyclic(15), (3, 7))


def test_towers_conjugacy_check_solvable():
    for group in (symmetric(4), dihedral(10), cyclic(30)):
        from hallperm.numth import prime_divisors
        import itertools
        primes = prime_divisors(group.order())
        for r in range(len(primes) + 1):
            for combo in itertools.combinations(primes, r):
                assert towers_conjugacy_check(group, set(combo)).ok


def test_towers_check_psl27_vacuous(psl27):
    # both order-24 classes exist but neither admits a tower, so the
    # same-complexion requirement is vacuous
    report = towers_conjugacy_check(psl27, {2, 3})
    assert report.class_count == 2
    assert report.ok
    assert all(not complexions for complexions in report.tower_complexions.values())


def test_towers_violation_reporting_machinery(psl27, monkeypatch):
    # the genuine check can never fire (the conjugacy fact is a theorem), so
    # exercise the reporting path with a forged report
    import hallperm.suites as suites
    from hallperm.hall import TowersReport
    from hallperm.suites import SuiteResult

    def forged(group, pi, caps):
        if set(pi) != {2, 3}:
            return TowersReport(pi=PrimeSet(pi), class_count=0,
                                tower_complexions={}, violations=())
        return TowersReport(pi=PrimeSet(pi), class_count=2,
                            tower_complexions={0: ((2, 3),), 1: ((2, 3),)},
                            violations=(((2, 3), 0, 1),))

    monkeypatch.setattr(suites, "towers_conjugacy_check", forged)
    result = SuiteResult(name="towers", group_count=1)
    suites._GROUP_RUNNERS["towers"](result, "psl2:7", psl27, __import__("hallperm").DEFAULT_CAPS)
    assert result.violations
    # the hall-classes evidence is certified even though no tower exists
    kinds = [c["kind"] for c in result.certificates]
    assert "hall-classes" in kinds
