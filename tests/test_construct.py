import itertools
import math

import pytest

from hallperm.constructions import (FiniteField, alternating, cyclic, dihedral,
                                    direct_product, pointwise_stabilizer, psl2, sl2,
                                    sl2_subfield_embedding, stabilizer_in_claimed_range,
                                    subfield_embedding, symmetric, wreath_hall_pair,
                                    wreath_regular)
from hallperm.hall import classify, hall_subgroups

from conftest import closure_oracle


def test_classical_family_orders():
    assert symmetric(5).order() == 120
    assert symmetric(1).order() == 1
    assert alternating(5).order() == 60
    assert alternating(3).order() == 3
    assert cyclic(7).order() == 7
    assert cyclic(1).order() == 1
    assert dihedral(4).order() == 8
    assert dihedral(4).degree == 4
    assert dihedral(1).order() == 2
    assert dihedral(2).order() == 4


def test_finite_field_gf16_tables():
    f = FiniteField(16)
    f.check_tables()
    assert f.modulus == (1, 1, 0, 0)  # t^4 + t + 1
    # the GF(4) inside GF(16): 0, 1 and the two cube roots of unity
    cubics = sorted(x for x in range(1, 16) if f.element_order(x) in (1, 3))
    assert cubics == [1, 6, 7]


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 16, 25, 27, 32, 64, 256])
def test_field_axioms_exhaustive(q):
    f = FiniteField(q)
    f.check_tables()
    elems = list(f.elements())
    for a, b in itertools.product(elems, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a, b, c in itertools.product(elems[: min(q, 8)], repeat=3):
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)


def test_psl2_orders_and_transitivity():
    g7 = psl2(7)
    assert g7.degree == 8 and g7.order() == 168
    g16 = psl2(16)
    assert g16.degree == 17 and g16.order() == 4080
    assert sl2(16).order() == 16 * 255
    g5 = psl2(5)
    assert g5.degree == 6 and g5.order() == 60
    g8 = psl2(8)
    assert g8.degree == 9 and g8.order() == 504


def test_psl2_order_vs_closure_oracle():
    g7 = psl2(7)
    assert len(closure_oracle(8, g7.generators)) == 168


def test_psl24_equals_alternating5_action():
    g4 = psl2(4)
    a5 = alternating(5)
    assert g4.order() == 60
    assert g4.element_set() == a5.element_set()


def test_sl2_rejects_odd_q():
    with pytest.raises(ValueError):
        sl2(7)


def test_direct_product():
    s3 = symmetric(3)
    prod = direct_product([s3, s3])
    assert prod.degree == 6 and prod.order() == 36
    assert prod.factors is not None and len(prod.factors.blocks) == 2
    single = direct_product([s3])
    assert single is s3
    five = direct_product([psl2(7)] * 5)
    assert five.degree == 40 and five.order() == 168 ** 5


def test_declared_factors_are_checked_against_a_chain(monkeypatch, psl27):
    # no constructor takes factors as a claim: direct_product checks its
    # order on a Schreier-Sims chain of its generators before it sets them,
    # so generators that do not span the product are caught
    from hallperm import constructions
    from hallperm.errors import GroupError
    from hallperm.group import DirectFactorStructure, PermGroup, inflate
    s3 = symmetric(3)
    blocks = ((0, 1, 2), (3, 4, 5))
    diagonal = [inflate(g, blocks[0], 6) * inflate(g, blocks[1], 6) for g in s3.generators]
    with pytest.raises(TypeError):
        PermGroup(6, diagonal, factors=DirectFactorStructure(blocks, (s3, s3)))
    with monkeypatch.context() as patched:
        # every factor embedded diagonally: the structure would still say 36
        patched.setattr(constructions, "inflate",
                        lambda x, block, degree: inflate(x, blocks[0], 6) * inflate(x, blocks[1], 6))
        with pytest.raises(GroupError, match="order 6 != expected 36"):
            direct_product([s3, s3])
    u, v = hall_subgroups(psl27, {2, 3})
    pair = wreath_hall_pair(psl27, u, v, {2, 3}, 5)
    checked = [direct_product([s3, s3]), direct_product([psl27] * 5),
               pair.hall_first.group, pair.hall_second.group]
    assert all(group._chain is not None and group.factors.shift is None for group in checked)


def _structure_order(group):
    factors = group.factors
    shift = factors.shift.order() if factors.shift is not None else 1
    return math.prod(f.order() for f in factors.factor_groups) * shift


def test_every_block_structure_is_the_order_of_a_fresh_chain(psl27):
    # factors are set only after a proof, so a chain built from scratch
    # on the generators always agrees with them
    from hallperm.catalog import build_catalog
    from hallperm.group import StabilizerChain
    u, v = hall_subgroups(psl27, {2, 3})
    pair = wreath_hall_pair(psl27, u, v, {2, 3}, 5)
    groups = [entry.group for entry in build_catalog(2000)]
    groups += [pair.wreath.group, direct_product([psl27] * 5),
               pair.hall_first.group, pair.hall_second.group]
    structured = [g for g in groups if g.factors is not None]
    assert len(structured) == 22
    assert sum(g.factors.shift is not None for g in structured) == 10
    for group in structured:
        chain = StabilizerChain.build(group.degree, group.generators)
        assert chain.order() == _structure_order(group) == group.order(), group


def test_wreath_regular_invariants():
    s3 = symmetric(3)
    datum = wreath_regular(s3, 2)
    assert datum.group.order() == 72 and datum.group.degree == 6
    assert (datum.tau ** 2).is_identity
    # conjugation by tau rotates the embeddings
    for g in s3.generators:
        assert datum.embed(g, 1).conj(datum.tau) == datum.embed(g, 0)
    trivial = wreath_regular(cyclic(1), 3)
    assert trivial.group.order() == 3


def test_wreath_regular_base_product(psl27):
    datum = wreath_regular(psl27, 5)
    assert datum.group.order() == 168 ** 5 * 5
    assert direct_product([psl27] * 5).order() == 168 ** 5
    assert datum.group.factors.shift == datum.tau


def test_wreath_hall_pair(psl27):
    u, v = hall_subgroups(psl27, {2, 3})
    pair = wreath_hall_pair(psl27, u, v, {2, 3}, 5)
    h, k = pair.hall_first.group, pair.hall_second.group
    assert h.order() == k.order() == 24 ** 5
    tau = pair.tau
    for g in h.generators:
        assert k.contains(g.conj(tau))
    for g in k.generators:
        assert h.contains(g.conj(~tau))


def test_wreath_hall_pair_other_prime(psl27):
    u, v = hall_subgroups(psl27, {2, 3})
    pair = wreath_hall_pair(psl27, u, v, {2, 3}, 7)
    assert pair.wreath.group.degree == 56
    assert pair.hall_first.order() == 24 ** 7


def test_wreath_hall_pair_rejects_p_in_pi(psl27):
    u, v = hall_subgroups(psl27, {2, 3})
    with pytest.raises(ValueError):
        wreath_hall_pair(psl27, u, v, {2, 3}, 2)


def test_wreath_hall_pair_rejects_conjugates(sym5):
    reps = hall_subgroups(sym5, {2})  # Sylow: one class; u = v is conjugate
    with pytest.raises(ValueError):
        wreath_hall_pair(sym5, reps[0], reps[0], {2}, 7)


def test_subfield_embedding_field_level():
    phi = subfield_embedding(4, 16)
    assert phi[0] == 0 and phi[1] == 1
    assert sorted(phi.values()) == [0, 1, 6, 7]
    f4, f16 = FiniteField(4), FiniteField(16)
    for a in range(4):
        for b in range(4):
            assert phi[f4.add(a, b)] == f16.add(phi[a], phi[b])
            assert phi[f4.mul(a, b)] == f16.mul(phi[a], phi[b])
    with pytest.raises(ValueError):
        subfield_embedding(8, 16)


def test_sl2_subfield_embedding_4_in_16():
    hom, image = sl2_subfield_embedding(4, 16)
    assert image.order() == 60
    assert hom.verify()
    verdict = classify(image.group, {3, 5})
    assert not verdict.satisfies_e


def test_sl2_subfield_embedding_identity():
    hom, image = sl2_subfield_embedding(16, 16)
    assert image.order() == 4080


def test_sl2_subfield_embedding_2_in_16():
    hom, image = sl2_subfield_embedding(2, 16)
    assert image.order() == 6
    assert hom.verify()


def test_pointwise_stabilizer():
    handle = pointwise_stabilizer(5, 3)
    assert handle.order() == 6
    fixed = set(range(3, 5))
    for g in handle.group.generators:
        assert all(g[x] == x for x in fixed)
    assert stabilizer_in_claimed_range(5, 3)
    assert stabilizer_in_claimed_range(7, 4)
    assert not stabilizer_in_claimed_range(5, 4)   # m = n-1 excluded
    assert not stabilizer_in_claimed_range(6, 3)   # m = n/2 excluded
    assert pointwise_stabilizer(7, 4).order() == 24
    with pytest.raises(ValueError):
        pointwise_stabilizer(5, 5)


def test_constructor_provenance():
    assert symmetric(4).provenance == "sym:4"
    assert psl2(7).provenance == "psl2:7"
    prod = direct_product([symmetric(3), cyclic(4)])
    assert prod.provenance == "product(sym:3,cyc:4)"
    assert wreath_regular(symmetric(3), 2).group.provenance == "wreath(sym:3,2)"
