"""The subfield embedding sl2(q0) -> sl2(q) as a pointwise map.

Each element of the small group maps to the element of psl2(q) acting on
the embedded projective points as it acts on the small line; the
generator images are pinned as cycle strings.
"""

import pytest

from hallperm.constructions import sl2_subfield_embedding, subfield_embedding

GEN_IMAGES = {
    (2, 4): ["(0 1)(2 3)", "(0 1 4)"],
    (2, 8): ["(0 1)(2 3)(4 5)(6 7)", "(0 1 8)(2 6 4)(3 5 7)"],
    (2, 16): ["(0 1)(2 3)(4 5)(6 7)(8 9)(10 11)(12 13)(14 15)",
              "(0 1 16)(2 14 8)(3 9 15)(4 11 12)(5 13 10)"],
    (4, 16): ["(0 1)(2 3)(4 5)(6 7)(8 9)(10 11)(12 13)(14 15)",
              "(1 6 7)(2 12 14)(3 10 9)(4 11 15)(5 13 8)",
              "(0 16)(2 9)(3 14)(4 13)(5 11)(6 7)(8 15)(10 12)"],
}


def _embedded_points(q0, q):
    if q0 == 2:
        return [0, 1, q]
    phi = subfield_embedding(q0, q)
    return [phi[x] for x in range(q0)] + [q]


@pytest.mark.parametrize("q0,q", sorted(GEN_IMAGES))
def test_embedding_acts_on_the_embedded_points(q0, q):
    hom, image = sl2_subfield_embedding(q0, q)
    points = _embedded_points(q0, q)
    images = set()
    for x in hom.source.elements():
        y = hom.image_of(x)
        assert all(y[points[i]] == points[x[i]] for i in range(len(points)))
        images.add(y)
    assert len(images) == hom.source.order() == image.order()
    assert all(image.group.contains(y) for y in images)


@pytest.mark.parametrize("q0,q", sorted(GEN_IMAGES))
def test_embedding_generator_images(q0, q):
    hom, _ = sl2_subfield_embedding(q0, q)
    assert [g.cycle_string() for g in hom.gen_images] == GEN_IMAGES[(q0, q)]
    assert list(hom.gen_images) == [hom.image_of(g) for g in hom.source.generators]
