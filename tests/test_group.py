import pytest

from hallperm.errors import CapExceeded, NotASubgroup, Caps
from hallperm.group import (PermGroup, coset_action, intersect_groups, normal_closure,
                            parse_generator_text, right_transversal, trivial_group)
from hallperm.group import BlockSlots, combine_blockwise, inflate
from hallperm.perm import Permutation
from hallperm.constructions import symmetric, wreath_regular

from conftest import closure_oracle, perm


def test_chain_order_sym5(sym5):
    assert sym5.order() == 120
    sym5.chain.check_invariants()


def test_chain_order_psl27_vs_closure_oracle(psl27):
    # independent oracle: exhaustive closure of the generators
    assert len(closure_oracle(8, psl27.generators)) == 168
    assert psl27.order() == 168


def test_chain_order_wreath_product_formula(psl27):
    datum = wreath_regular(psl27, 5)
    assert datum.group.order() == 168 ** 5 * 5
    assert datum.group.degree == 40


def test_membership(alt5):
    assert alt5.contains(perm("(0 1 2)", 5))
    assert not alt5.contains(perm("(0 1)", 5))


def test_membership_order15_element_in_sl216(sl216):
    # an order-15 element exists: commuting order-3 and order-5 parts of a
    # 15-element found by scanning
    elt = next(e for e in sl216.elements() if e.order() == 15)
    three, five = elt ** 5, elt ** 3
    assert three.order() == 3 and five.order() == 5
    assert three * five == five * three
    assert sl216.contains(three * five)
    assert (three * five).order() == 15


def test_elements_deterministic_and_complete():
    s3 = symmetric(3)
    elems = s3.elements()
    assert len(elems) == 6
    assert elems[0].is_identity
    assert elems == sorted(elems)
    assert set(map(tuple, elems)) == closure_oracle(3, s3.generators)


def test_elements_cap(psl27):
    datum = wreath_regular(psl27, 5)
    with pytest.raises(CapExceeded) as err:
        datum.group.elements()
    assert err.value.needed == 168 ** 5 * 5


def test_elements_sl216_count(sl216):
    assert len(sl216.elements()) == 4080  # 16 * (16**2 - 1)


def test_orbit(psl27):
    assert psl27.orbit(0) == tuple(range(8))
    s3 = symmetric(3)
    assert trivial_group(3).orbit(1) == (1,)
    assert s3.orbit(2) == (0, 1, 2)


def test_right_transversal_point_stabilizer(sym5):
    stab = PermGroup(5, [perm("(1 2)", 5), perm("(1 2 3 4)", 5)])
    reps = right_transversal(sym5, stab)
    assert len(reps) == 5
    assert reps[0].is_identity
    # distinct cosets: rep_i * rep_j^-1 never lands in the stabilizer
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            assert not stab.contains(a * ~b)


def test_right_transversal_sym3_embedding(sym5):
    sub = PermGroup(5, [perm("(0 1)", 5), perm("(0 1 2)", 5)])
    reps = right_transversal(sym5, sub)
    assert len(reps) == 20


def test_transversal_rejects_non_subgroup(sym5):
    outside = PermGroup(5, [perm("(0 1)", 5)])
    bad = PermGroup(5, [perm("(0 1 2 3 4)", 5), perm("(0 1)", 5)])
    with pytest.raises(NotASubgroup):
        right_transversal(outside, bad)


def test_normal_closure_three_cycle(sym5):
    closure = normal_closure(sym5, [perm("(0 1 2)", 5)])
    assert closure.order() == 60
    closure2 = normal_closure(sym5, sym5.generators)
    assert closure2.order() == 120
    assert normal_closure(sym5, [Permutation.identity(5)]).order() == 1


def test_coset_action_sym4_mod_v4():
    s4 = symmetric(4)
    v4 = PermGroup(4, [perm("(0 1)(2 3)", 4), perm("(0 2)(1 3)", 4)])
    hom, image = coset_action(s4, v4)
    assert image.degree == 6
    assert image.order() == 6
    assert image.order() * v4.order() == s4.order()
    for a in v4.generators:
        assert hom.image_of(a).is_identity
    assert hom.verify()


def test_coset_action_degenerate(sym5):
    hom, image = coset_action(sym5, sym5)
    assert image.order() == 1
    hom, image = coset_action(sym5, trivial_group(5), caps=Caps(degree_cap=200))
    assert image.order() == 120


@pytest.mark.parametrize("degree", [0, 1])
def test_coset_action_and_orbit_test_below_degree_2(degree):
    # a gather over zero points or one point is perm.gather's Python map, not itemgetter
    from hallperm.errors import DEFAULT_CAPS, DegreeMismatch
    from hallperm.pronormal import _joint_meets_coset
    group = trivial_group(degree)
    hom, image = coset_action(group, group)
    assert (image.degree, image.order()) == (1, 1)
    assert hom.image_of(group.identity).is_identity
    with pytest.raises(DegreeMismatch):
        hom.image_of(Permutation.identity(degree + 2))
    assert _joint_meets_coset(group, group, group, [], group.identity, {0}, DEFAULT_CAPS)


def test_coset_action_rejects_non_normal(sym5):
    stab = PermGroup(5, [perm("(1 2)", 5), perm("(1 2 3 4)", 5)])
    with pytest.raises(NotASubgroup):
        coset_action(sym5, stab)


def test_intersection(sym5, alt5):
    stab = PermGroup(5, [perm("(0 1)", 5), perm("(0 1 2)", 5)])
    meet = intersect_groups(stab, alt5)
    assert meet.order() == 3


def test_lagrange_on_constructed_subgroups(psl27):
    for gens in [[perm("(0 1 2 3 4 5 6)", 8)], [psl27.generators[0]],
                 list(psl27.generators[:2])]:
        sub = PermGroup(8, gens)
        if all(psl27.contains(g) for g in sub.generators):
            assert psl27.order() % sub.order() == 0


def test_generator_file_format(tmp_path):
    text = """# sample file
degree 5
(0 1 2)(3 4)
()          # identity line is allowed
(0 1)
"""
    group = parse_generator_text(text)
    assert group.degree == 5
    # the generators preserve {0,1,2} and {3,4}: Sym(3) x Sym(2) coupled by parity
    assert group.order() == 12
    path = tmp_path / "gens.txt"
    path.write_text(text)
    from hallperm.group import load_generator_file
    loaded = load_generator_file(path)
    assert loaded.order() == 12
    assert loaded.provenance.startswith(f"file:{path}#sha256=")


def test_generator_file_rejects_bad_header():
    with pytest.raises(ValueError):
        parse_generator_text("(0 1 2)\n")
    with pytest.raises(ValueError):
        parse_generator_text("degree -1\n")
    with pytest.raises(ValueError):
        parse_generator_text("# only comments\n")


def test_contains_reads_the_sorted_elements_without_building_their_set():
    c3 = PermGroup(5, [perm("(0 1 2)", 5)])
    elements = c3.elements()
    assert all(c3.contains(e) for e in elements)
    assert not c3.contains(perm("(0 1)", 5))
    assert not c3.contains(perm("(0 4)(1 3)", 5))     # beyond the greatest element
    assert "element_set" not in c3._cache


def test_block_slots_read_one_point_blocks():
    slots = BlockSlots(((0,), (1, 2, 3), (4,)))
    swap = perm("(0 4)(1 2 3)", 5)
    fix = perm("(1 3)", 5)
    assert slots.actions([swap, fix]) == [perm("(0 2)", 3), Permutation.identity(3)]
    assert slots.actions([perm("(0 1)", 5)]) is None
    assert [slots.read(swap, i) for i in range(3)] == [
        Permutation.identity(1), perm("(0 1 2)", 3), Permutation.identity(1)]
    assert [slots.restrict(fix, i) for i in range(3)] == [
        Permutation.identity(1), perm("(0 2)", 3), Permutation.identity(1)]
    assert slots.restrict(swap, 0) is None and slots.restrict(swap, 1) == perm("(0 1 2)", 3)


@pytest.mark.parametrize("degree, blocks", [(0, []), (1, []), (1, [(0,)])])
def test_inflate_and_combine_blockwise_at_degrees_0_and_1(degree, blocks):
    identity = Permutation.identity(degree)
    parts = [Permutation.identity(1) for _ in blocks]
    assert combine_blockwise(parts, blocks, degree) == identity
    assert type(combine_blockwise(parts, blocks, degree)) is Permutation
    for block in blocks:
        assert inflate(Permutation.identity(1), block, degree) == identity


def test_inflate_and_combine_blockwise_over_one_point_blocks():
    blocks = [(0,), (1, 2, 3), (4,)]
    one = Permutation.identity(1)
    assert inflate(one, blocks[0], 5) == inflate(one, blocks[2], 5) == Permutation.identity(5)
    assert inflate(perm("(0 1 2)", 3), blocks[1], 5) == perm("(1 2 3)", 5)
    assert combine_blockwise([one, perm("(0 2)", 3), one], blocks, 5) == perm("(1 3)", 5)
