import itertools

import pytest

from hallperm.catalog import parse_group_spec
from hallperm.errors import DEFAULT_CAPS, NotASubgroup
from hallperm.group import PermGroup, decompose_blockwise, group_from_elements
from hallperm.pronormal import is_pronormal, pronormality_instance
from hallperm.subgroup import (ConjugacyWitness, Subgroup, _is_conjugate_blockwise,
                               _is_conjugate_transversal, all_subgroups, centralizer,
                               conjugate_into, is_conjugate, is_normal, normalizer, overgroups,
                               subgroup_conjugacy_classes, sylow)
from hallperm.constructions import alternating, cyclic, dihedral, symmetric

from conftest import lattice_oracle, perm


def test_is_normal(sym5, alt5):
    assert is_normal(sym5, alt5)
    stab = PermGroup(5, [perm("(0 1)", 5), perm("(0 1 2)", 5)])
    assert not is_normal(sym5, stab)


def test_center_of_dihedral_is_normal():
    d4 = dihedral(4)
    center = group_from_elements(4, [e for e in d4.elements()
                                     if all(e * g == g * e for g in d4.generators)])
    assert center.order() == 2
    assert is_normal(d4, center)


def test_normalizer_of_c5_in_sym5(sym5):
    c5 = PermGroup(5, [perm("(0 1 2 3 4)", 5)])
    norm = normalizer(sym5, c5)
    assert norm.order() == 20
    # brute-force oracle over all 120 elements
    c5_set = c5.element_set()
    oracle = sum(1 for g in sym5.elements()
                 if all(h.conj(g) in c5_set for h in c5.generators))
    assert norm.order() == oracle


def test_normalizer_degenerate(sym5):
    assert normalizer(sym5, sym5).order() == 120
    from hallperm.group import trivial_group
    assert normalizer(sym5, trivial_group(5)).order() == 120


def test_normalizer_past_enum_cap_raises_on_a_split_product():
    # a shift-free product is no exception: the normalizer is a scan of the
    # parent's elements, and past enum_cap there is none
    from hallperm.errors import Caps, CapExceeded
    from hallperm.group import inflate
    parent = parse_group_spec("product(sym:4,sym:3)")
    assert parent.factors is not None and parent.factors.shift is None
    block = parent.factors.blocks[0]
    sub = PermGroup(parent.degree, [inflate(perm("(0 1)", 4), block, parent.degree)])
    with pytest.raises(CapExceeded) as raised:
        normalizer(parent, sub, Caps(enum_cap=100))
    assert (raised.value.cap_name, raised.value.needed) == ("enum_cap", 144)
    assert normalizer(parent, sub).order() == 4 * 6


def test_whole_normalizer_is_the_parent_itself():
    # caches keyed on the parent then serve it; its cache holds a marker,
    # as the parent in its own cache would be a reference cycle
    s4 = symmetric(4)
    a4 = alternating(4)
    assert normalizer(s4, a4).group is s4
    assert normalizer(s4, a4).group is s4
    assert all(value is not s4 for value in s4._cache.values())


def test_sylow_orders(sym5, sl216):
    assert sylow(sym5, 2).order() == 8
    assert sylow(sym5, 3).order() == 3
    assert sylow(sym5, 5).order() == 5
    assert sylow(sl216, 3).order() == 3   # 4080 = 2^4 * 3 * 5 * 17
    assert sylow(sl216, 2).order() == 16
    assert sylow(sl216, 17).order() == 17
    assert sylow(sym5, 11).order() == 1


def test_sylow_requires_prime(sym5):
    with pytest.raises(ValueError):
        sylow(sym5, 6)


def test_all_subgroups_sym3():
    s3 = symmetric(3)
    subs = all_subgroups(s3)
    assert len(subs) == 6
    assert sorted(s.order() for s in subs) == [1, 2, 2, 2, 3, 6]


def test_all_subgroups_cyclic15():
    c15 = cyclic(15)
    subs = all_subgroups(c15)
    assert sorted(s.order() for s in subs) == [1, 3, 5, 15]


def test_all_subgroups_closed_under_conjugation(alt5):
    subs = all_subgroups(alt5, order_divides=15)
    keys = {s.group.element_set() for s in subs}
    for s in subs:
        for g in alt5.generators:
            assert frozenset(e.conj(g) for e in s.group.element_set()) in keys


def test_alt5_has_no_order_15_subgroup(alt5):
    subs = all_subgroups(alt5, order_divides=15)
    assert sorted(set(s.order() for s in subs)) == [1, 3, 5]


def test_psl27_order24_subgroups_two_classes(psl27):
    # brute-force oracle backing the wreath scenario: the full subgroup
    # lattice of the 168-element group, filtered to order 24
    subs = [s.group for s in all_subgroups(psl27, order_divides=24) if s.order() == 24]
    assert len(subs) == 14
    classes = subgroup_conjugacy_classes(psl27, subs)
    assert len(classes) == 2
    assert all(size == 7 for _, size in classes)
    a, b = classes[0][0], classes[1][0]
    assert is_conjugate(psl27, a, b) is None


def test_is_conjugate_point_stabilizers(sym5):
    stab0 = group_from_elements(5, [e for e in sym5.elements() if e[0] == 0])
    stab1 = group_from_elements(5, [e for e in sym5.elements() if e[1] == 1])
    w = is_conjugate(sym5, stab0, stab1)
    assert w is not None
    assert w.element[0] == 1  # the witness moves 0 to 1


def test_is_conjugate_self_is_identity(sym5, alt5):
    w = is_conjugate(sym5, alt5, alt5)
    assert w is not None and w.element.is_identity


def test_is_conjugate_symmetry(sym5):
    a = PermGroup(5, [perm("(0 1 2)", 5)])
    b = PermGroup(5, [perm("(1 2 3)", 5)])
    w = is_conjugate(sym5, a, b)
    assert w is not None
    back = w.inverse()
    assert back.source is b and back.target is a


@pytest.mark.parametrize("spec, pairs", [
    ("wreath(sym:3,2)", 96), ("wreath(cyc:2,3)", 6), ("wreath(cyc:3,2)", 1),
])
def test_shifted_blockwise_conjugacy_agrees_with_the_transversal_search(spec, pairs):
    """A regular wreath product carries a shift, so the blockwise search
    tries every rotation of the blocks.  Over every pair of distinct
    subgroups of equal order that split over the blocks, it finds a
    conjugator exactly when the transversal search in a copy of the group
    without block structure does; some pairs need the shift."""
    group = parse_group_spec(spec)
    plain = PermGroup(group.degree, group.generators)
    blocks = group.factors.blocks
    split = [k for k in lattice_oracle(group) if decompose_blockwise(k, blocks) is not None]
    checked = shifted = 0
    for h, k in itertools.combinations(split, 2):
        if h.order() != k.order():
            continue
        status, witness = _is_conjugate_blockwise(group, h, k, DEFAULT_CAPS)
        expected = _is_conjugate_transversal(plain, h, k, DEFAULT_CAPS)
        assert status == "ok" and (witness is None) == (expected is None), (spec, h, k)
        checked += 1
        shifted += witness is not None and witness.element[blocks[0][0]] not in blocks[0]
    assert checked == pairs
    assert shifted > 0


def test_conjugate_witness_replay_guard(sym5):
    a = PermGroup(5, [perm("(0 1 2)", 5)])
    b = PermGroup(5, [perm("(1 2 3)", 5)])
    from hallperm.errors import GroupError
    with pytest.raises(GroupError):
        ConjugacyWitness(sym5.identity, a, b)


def test_conjugate_into(sym5):
    k = PermGroup(5, [perm("(2 3 4)", 5)])
    h = PermGroup(5, [perm("(0 1)", 5), perm("(0 1 2)", 5)])
    w = conjugate_into(sym5, k, h)
    assert w is not None
    assert all(h.contains(x.conj(w.element)) for x in k.generators)
    sub = PermGroup(5, [perm("(0 1)", 5)])
    assert conjugate_into(sym5, sub, h).element.is_identity


def test_conjugate_into_absence(alt5):
    # no order-5 subgroup fits in an order-12 subgroup
    c5 = PermGroup(5, [perm("(0 1 2 3 4)", 5)])
    a4 = PermGroup(5, [perm("(0 1 2)", 5), perm("(0 1)(2 3)", 5)])
    assert a4.order() == 12
    assert conjugate_into(alt5, c5, a4) is None


def test_overgroups_of_sylow2_in_sym4():
    s4 = symmetric(4)
    d8 = sylow(s4, 2).group
    chain = overgroups(s4, d8)
    assert [o.order() for o in chain] == [8, 24]
    a4 = alternating(4)
    v4 = sylow(a4, 2).group
    # the normal V4 lies in every Sylow 2-subgroup (3 of them), in A4 and S4
    names = [o.order() for o in overgroups(s4, v4)]
    assert names == [4, 8, 8, 8, 12, 24]


# Subgroup is a record and checks nothing, so each entry checks what it reads.
_ENTRIES = {
    "is_pronormal": is_pronormal,
    "normalizer": normalizer,
    "overgroups": overgroups,
    "is_conjugate": lambda g, h: is_conjugate(g, g, h),
    "pronormality_instance": lambda g, h: pronormality_instance(g, h, g.identity),
}


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
def test_entries_reject_an_outsider_in_a_record(alt5, entry):
    outsider = Subgroup(alt5, PermGroup(5, [perm("(0 1)", 5)]))
    with pytest.raises(NotASubgroup):
        _ENTRIES[entry](alt5, outsider)


def test_centralizer(sym5):
    z = centralizer(sym5, perm("(0 1 2 3 4)", 5))
    assert z.order() == 5
