import pytest
from hypothesis import given, strategies as st

from hallperm.errors import DegreeMismatch
from hallperm.perm import Permutation, compose, conjugation
from hallperm.perm import gather

from conftest import perm


def test_compose_is_left_to_right():
    p = perm("(0 1)", 3)
    q = perm("(1 2)", 3)
    # (p*q)(x) = q(p(x)): 0 -> 1 -> 2
    assert (p * q)[0] == 2
    assert (p * q) == perm("(0 2 1)", 3)
    assert compose(p, q) == p * q


def test_compose_identity_and_inverse():
    p = perm("(0 3 1)(2 4)", 5)
    e = Permutation.identity(5)
    assert p * e == p
    assert e * p == p
    assert p * ~p == e
    assert ~p * p == e


def test_compose_rejects_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        perm("(0 1)", 3) * perm("(0 1)", 4)


def test_conjugation_convention():
    # h^g = g^-1 * h * g
    h = perm("(0 1 2)", 4)
    g = perm("(2 3)", 4)
    assert h.conj(g) == ~g * h * g
    assert h.conj(g) == perm("(0 1 3)", 4)


def test_parse_and_format_round_trip():
    for text in ["()", "(0 1)", "(0 1 2)(3 4)", "(1 4)(2 3)"]:
        p = Permutation.parse(text, 5)
        assert Permutation.parse(p.cycle_string(), 5) == p
    assert Permutation.parse("()", 3).is_identity
    assert Permutation.parse("(0,1,2)", 3) == perm("(0 1 2)", 3)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        Permutation.parse("(0 1", 3)
    with pytest.raises(ValueError):
        Permutation.parse("0 1 2", 3)
    with pytest.raises(ValueError):
        Permutation.parse("(0 5)", 3)
    with pytest.raises(ValueError):
        Permutation.parse("(0 1)(1 2)", 3)


def test_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((0, 1, 3))


def test_order_and_cycles():
    p = perm("(0 1 2)(3 4)", 6)
    assert p.order() == 6
    assert p.cycles() == [(0, 1, 2), (3, 4)]
    assert p.support() == (0, 1, 2, 3, 4)
    assert Permutation.identity(4).order() == 1
    assert (p ** 6).is_identity
    assert p ** -1 == ~p


perms6 = st.permutations(range(6)).map(lambda im: Permutation(tuple(im), check=False))


@given(perms6, perms6, perms6)
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(perms6)
def test_two_sided_identity_and_inverse(a):
    e = Permutation.identity(6)
    assert a * e == a == e * a
    assert a * ~a == e == ~a * a


@given(perms6, perms6, perms6)
def test_conj_is_a_right_action(h, g1, g2):
    assert h.conj(g1 * g2) == h.conj(g1).conj(g2)


def test_products_at_degrees_0_1_and_2():
    empty = Permutation(())
    assert empty * empty == empty
    assert type(empty * empty) is Permutation and (empty * empty).degree == 0
    one = Permutation((0,))
    assert one * one == one
    assert type(one * one) is Permutation and (one * one).is_identity
    e, t = Permutation((0, 1)), Permutation((1, 0))
    assert t * t == e
    assert t * e == e * t == t
    assert type(t * e) is Permutation


@pytest.mark.parametrize("n, m", [(0, 1), (1, 2), (2, 3), (5, 6)])
def test_products_reject_degree_mismatch_in_both_orders(n, m):
    p, q = Permutation.identity(n), Permutation.identity(m)
    with pytest.raises(DegreeMismatch):
        p * q
    with pytest.raises(DegreeMismatch):
        q * p


@st.composite
def perm_pairs(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    p, q = (draw(st.permutations(range(n))) for _ in range(2))
    return Permutation(p), Permutation(q)


@given(perm_pairs())
def test_product_matches_the_reference_definition(pair):
    p, q = pair
    product = p * q
    assert type(product) is Permutation
    assert product == Permutation([q[p[i]] for i in range(len(p))])


@given(perm_pairs())
def test_conj_via_products(pair):
    h, g = pair
    conjugate = h.conj(g)
    assert type(conjugate) is Permutation and type(conjugation(g)(h)) is Permutation
    assert conjugate == ~g * h * g == conjugation(g)(h)
    assert all(conjugate[g[i]] == g[h[i]] for i in range(len(h)))


def test_conj_at_degrees_0_1_and_2():
    empty, one = Permutation(()), Permutation((0,))
    for p in (empty, one):
        assert p.conj(p) == conjugation(p)(p) == p
        assert type(p.conj(p)) is Permutation
    e, t = Permutation((0, 1)), Permutation((1, 0))
    for h in (e, t):
        for g in (e, t):
            assert h.conj(g) == conjugation(g)(h) == h
            assert type(h.conj(g)) is Permutation


@pytest.mark.parametrize("n, m", [(0, 1), (1, 2), (2, 3), (5, 6)])
def test_conj_rejects_degree_mismatch_in_both_orders(n, m):
    p, q = Permutation.identity(n), Permutation.identity(m)
    for h, g in ((p, q), (q, p)):
        with pytest.raises(DegreeMismatch):
            h.conj(g)
        with pytest.raises(DegreeMismatch):
            conjugation(g)(h)


@pytest.mark.parametrize("points", [(), (3,), [3, 0], (4, 1, 1, 0)])
def test_gather_reads_the_points_in_order(points):
    # itemgetter() raises and itemgetter(p) gives a scalar: every arity gives a tuple
    x = Permutation((2, 0, 4, 1, 3))
    assert gather(points)(x) == tuple(x[p] for p in points)
    assert type(gather(points)(x)) is tuple
