"""Group constructors: classical families, projective-line actions of
SL2/PSL2 over small finite fields, direct products, regular wreath products
and the non-pronormal Hall pair they carry, and stabilizer embeddings in
symmetric groups.

Every constructor self-verifies its order formula against the stabilizer
chain before returning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from .errors import GroupError, Caps, DEFAULT_CAPS
from .group import DirectFactorStructure, GroupHom, PermGroup, Permutation, inflate, split_group
from .hall import is_hall_subgroup, pi_part
from .numth import is_prime, prime_divisors
from .subgroup import Subgroup, _as_group, is_conjugate


def _self_check(group: PermGroup, expected_order: int, label: str) -> PermGroup:
    if group.order() != expected_order:
        raise GroupError(f"{label}: order {group.order()} != expected {expected_order}")
    return group


def symmetric(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("n >= 1 required")
    gens = []
    if n >= 2:
        gens.append(Permutation.from_cycles(n, [(0, 1)]))
    if n >= 3:
        gens.append(Permutation.from_cycles(n, [tuple(range(n))]))
    g = PermGroup(n, gens, provenance=f"sym:{n}")
    return _self_check(g, math.factorial(n), f"sym:{n}")


def alternating(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("n >= 1 required")
    gens = []
    if n >= 3:
        gens.append(Permutation.from_cycles(n, [(0, 1, 2)]))
    if n >= 4:
        cycle = tuple(range(n)) if n % 2 else tuple(range(1, n))
        gens.append(Permutation.from_cycles(n, [cycle]))
    g = PermGroup(n, gens, provenance=f"alt:{n}")
    return _self_check(g, max(1, math.factorial(n) // 2), f"alt:{n}")


def cyclic(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("n >= 1 required")
    gens = [] if n == 1 else [Permutation.from_cycles(n, [tuple(range(n))])]
    g = PermGroup(max(n, 1), gens, provenance=f"cyc:{n}")
    return _self_check(g, n, f"cyc:{n}")


def dihedral(n: int) -> PermGroup:
    """Symmetries of the regular n-gon (order 2n); n = 1, 2 degenerate cases."""
    if n < 1:
        raise ValueError("n >= 1 required")
    if n == 1:
        g = PermGroup(2, [Permutation.from_cycles(2, [(0, 1)])], provenance="dih:1")
    elif n == 2:
        g = PermGroup(4, [Permutation.from_cycles(4, [(0, 1)]),
                          Permutation.from_cycles(4, [(2, 3)])], provenance="dih:2")
    else:
        rotation = Permutation.from_cycles(n, [tuple(range(n))])
        reflection = Permutation([(n - i) % n for i in range(n)])
        g = PermGroup(n, [rotation, reflection], provenance=f"dih:{n}")
    return _self_check(g, 2 * n, f"dih:{n}")


# -- finite fields -----------------------------------------------------------


class FiniteField:
    """GF(p^k) with elements encoded as base-p digit vectors packed into ints.

    Multiplication runs through exp/log tables for a fixed primitive
    element; the modulus is the lexicographically least monic irreducible,
    so every table is reproducible.
    """

    def __init__(self, q: int):
        p, k = _prime_power(q)
        self.p = p
        self.k = k
        self.q = q
        self.modulus = _least_irreducible(p, k)
        self.generator, self.exp, self.log = self._build_tables()

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        out = 0
        mult = 1
        for _ in range(self.k):
            out += ((a + b) % self.p) * mult
            a //= self.p
            b //= self.p
            mult *= self.p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        out = 0
        mult = 1
        for _ in range(self.k):
            out += ((-a) % self.p) * mult
            a //= self.p
            mult *= self.p
        return out

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.exp[(-self.log[a]) % (self.q - 1)]

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("0 is not in the multiplicative group")
        return (self.q - 1) // math.gcd(self.log[a], self.q - 1)

    def elements(self):
        return range(self.q)

    def _poly_mul(self, a: int, b: int) -> int:
        # schoolbook product of digit vectors followed by reduction
        da = _digits(a, self.p, self.k)
        db = _digits(b, self.p, self.k)
        prod = [0] * (2 * self.k - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % self.p
        mod = self.modulus
        for top in range(len(prod) - 1, self.k - 1, -1):
            c = prod[top]
            if c:
                prod[top] = 0
                for j in range(self.k):
                    prod[top - self.k + j] = (prod[top - self.k + j] - c * mod[j]) % self.p
        return _undigits(prod[:self.k], self.p)

    def _build_tables(self):
        for cand in range(2, self.q):
            exp = [1]
            x = 1
            ok = True
            for _ in range(self.q - 2):
                x = self._poly_mul(x, cand)
                if x == 1:
                    ok = False
                    break
                exp.append(x)
            if ok:
                x = self._poly_mul(x, cand)
                if x != 1:
                    continue
                log = {e: i for i, e in enumerate(exp)}
                return cand, exp, log
        raise GroupError(f"no primitive element found for GF({self.q})")

    def check_tables(self):
        """exp/log round trip and cyclicity of the multiplicative group."""
        if len(self.exp) != self.q - 1 or len(set(self.exp)) != self.q - 1:
            raise GroupError("exp table is not a bijection onto the nonzero elements")
        for a in range(1, self.q):
            if self.exp[self.log[a]] != a:
                raise GroupError("exp/log round trip failed")
        if self.element_order(self.generator) != self.q - 1:
            raise GroupError("generator is not primitive")


def _digits(a: int, p: int, k: int):
    out = []
    for _ in range(k):
        out.append(a % p)
        a //= p
    return out


def _undigits(digits, p: int) -> int:
    out = 0
    for c in reversed(digits):
        out = out * p + c
    return out


def _prime_power(q: int):
    for p in prime_divisors(q):
        k = 0
        m = q
        while m % p == 0:
            m //= p
            k += 1
        if m == 1:
            return p, k
    raise ValueError(f"{q} is not a prime power")


def _least_irreducible(p: int, k: int):
    """Coefficients (c_0..c_{k-1}) of the least monic irreducible of degree k."""
    if k == 1:
        return (0,)
    for enc in range(p ** k):
        coeffs = tuple(_digits(enc, p, k))
        if _is_irreducible(coeffs, p, k):
            return coeffs
    raise GroupError(f"no irreducible polynomial of degree {k} over GF({p})")


def _poly_divmod_check(coeffs, p, k, d_coeffs, d):
    """True when (monic x^k + coeffs) is divisible by (monic x^d + d_coeffs)."""
    rem = list(coeffs) + [1]
    for top in range(k, d - 1, -1):
        c = rem[top]
        if c:
            rem[top] = 0
            for j in range(d):
                rem[top - d + j] = (rem[top - d + j] - c * d_coeffs[j]) % p
    return all(c == 0 for c in rem[:d])


def _is_irreducible(coeffs, p, k):
    if coeffs[0] == 0:
        return False
    for d in range(1, k // 2 + 1):
        for enc in range(p ** d):
            if _poly_divmod_check(coeffs, p, k, tuple(_digits(enc, p, d)), d):
                return False
    return True


# -- projective-line actions -------------------------------------------------


def psl2(q: int) -> PermGroup:
    """PSL2(q) acting on the q+1 projective-line points.

    Points 0..q-1 are the field elements (canonical integer encoding),
    point q is infinity.  Generators are the Mobius maps x -> x+1,
    x -> c*x with c a primitive element (even q) or a primitive square
    (odd q), and x -> -1/x.  The constructor verifies the order formula
    and 2-transitivity; a failure indicates a field or generator bug.
    """
    if q < 4:
        raise ValueError("q >= 4 required")
    field = _field_cache(q)
    inf = q
    translate = Permutation([field.add(x, 1) for x in range(q)] + [inf], check=True)
    if q % 2 == 0:
        c = field.generator
    else:
        c = field.mul(field.generator, field.generator)
    scale = Permutation([field.mul(c, x) for x in range(q)] + [inf], check=True)
    inv_images = [inf] + [field.neg(field.inv(x)) for x in range(1, q)] + [0]
    invert = Permutation(inv_images, check=True)
    group = PermGroup(q + 1, [translate, scale, invert], provenance=f"psl2:{q}")
    expected = q * (q * q - 1) // math.gcd(2, q - 1)
    _self_check(group, expected, f"psl2:{q}")
    if group.orbit(0) != tuple(range(q + 1)):
        raise GroupError(f"psl2:{q} is not transitive")
    stab = [g for g in (translate, scale, invert) if g[inf] == inf]
    point_stab = PermGroup(q + 1, stab)
    if len(point_stab.orbit(0)) != q:
        raise GroupError(f"psl2:{q} is not 2-transitive")
    return group


def sl2(q: int) -> PermGroup:
    """SL2(q) as a permutation group; for even q it coincides with psl2(q)."""
    if q % 2 != 0:
        raise ValueError("sl2 is only realized for even q, where SL2 = PSL2")
    return psl2(q)


_FIELDS: dict = {}


def _field_cache(q: int) -> FiniteField:
    if q not in _FIELDS:
        _FIELDS[q] = FiniteField(q)
    return _FIELDS[q]


def subfield_embedding(q0: int, q: int):
    """The canonical field embedding GF(q0) -> GF(q) as an int -> int map.

    The image of the small generator is the least element of multiplicative
    order q0-1 making the map additive; additivity is checked exhaustively,
    so the returned map is a verified field homomorphism.
    """
    small = _field_cache(q0)
    big = _field_cache(q)
    qq = q0
    while qq < q:
        qq *= q0
    if qq != q:
        raise ValueError(f"GF({q0}) does not embed in GF({q})")
    for y in (y for y in range(1, q) if big.element_order(y) == q0 - 1):
        phi = {0: 0}
        for i in range(q0 - 1):
            phi[small.exp[i]] = big.exp[(big.log[y] * i) % (q - 1)]
        if all(phi[small.add(a, b)] == big.add(phi[a], phi[b])
               for a in range(q0) for b in range(q0)):
            return phi
    raise GroupError(f"no additive embedding GF({q0}) -> GF({q}) found")


def sl2_subfield_embedding(q0: int, q: int, caps: Caps = DEFAULT_CAPS):
    """The natural embedding of the SL2(q0)-action into the SL2(q)-action.

    Returns (hom, image subgroup handle).  Projective points map through the
    verified field embedding, and x maps to the element of psl2(q) acting on
    them as x acts on the small line.  A non-identity element of PGL2(q)
    fixes at most two points of the line, so its images of three points fix
    it: one lookup over psl2(q), keyed by the embedded points' images, gives
    the map.  The hom is verified exhaustively on the small group.
    """
    big_group = psl2(q)
    if q0 == q:
        hom = GroupHom(big_group, big_group.degree, big_group.generators,
                       apply=lambda x: x)
        return hom, Subgroup(big_group, big_group)
    if q0 == 2:
        # the GF(2) projective line is {0, 1, inf}; SL2(2) = Sym(3)
        small_group = symmetric(3)
        point_map = [0, 1, q]
    else:
        small_group = psl2(q0)
        phi = subfield_embedding(q0, q)
        point_map = [phi[x] for x in range(q0)] + [q]
    by_images = {}
    for y in big_group.elements(caps):
        if by_images.setdefault(tuple(y[pt] for pt in point_map), y) is not y:
            raise GroupError("two elements of psl2(q) agree on the embedded points")

    def apply(x: Permutation) -> Permutation:
        return by_images[tuple(point_map[i] for i in x)]

    hom = GroupHom(small_group, big_group.degree,
                   [apply(g) for g in small_group.generators], apply=apply)
    if small_group.order() <= caps.hom_check_cap and not hom.verify(caps):
        raise GroupError(f"subfield embedding sl2({q0}) -> sl2({q}) is not a homomorphism")
    image = hom.image_group()
    if image.order() != small_group.order():
        raise GroupError("subfield embedding is not injective")
    return hom, Subgroup(big_group, image)


# -- products and wreaths ----------------------------------------------------


def direct_product(groups) -> PermGroup:
    """Disjoint-support direct product: a split_group over consecutive blocks.

    The order is checked on a Schreier-Sims chain of the generators before
    the block structure is set, so the check never reads the factors; the
    split group keeps that chain.
    """
    groups = list(groups)
    if not groups:
        raise ValueError("at least one factor required")
    if len(groups) == 1:
        return groups[0]
    degree = sum(g.degree for g in groups)
    blocks = []
    offset = 0
    gens = []
    for g in groups:
        block = tuple(range(offset, offset + g.degree))
        blocks.append(block)
        gens.extend(inflate(x, block, degree) for x in g.generators)
        offset += g.degree
    prov = None
    if all(g.provenance for g in groups):
        prov = "product(" + ",".join(g.provenance for g in groups) + ")"
    product = _self_check(PermGroup(degree, gens), math.prod(g.order() for g in groups),
                          "direct_product")
    return split_group(degree, product.generators, blocks, groups, chain=product.chain,
                       provenance=prov)


@dataclass(frozen=True)
class WreathDatum:
    """A regular wreath product of the base by a cyclic shift of p copies."""

    base: PermGroup
    p: int
    group: PermGroup
    tau: Permutation
    blocks: tuple

    def embed(self, x: Permutation, block_index: int) -> Permutation:
        return inflate(x, self.blocks[block_index], self.group.degree)


def wreath_regular(base: PermGroup, p: int) -> WreathDatum:
    """The regular wreath product base wr Z_p on p * degree(base) points.

    Copy i of the base occupies points [i*n, (i+1)*n).  tau is the index
    down-shift, so conjugation by tau carries the block-i embedding to the
    block-(i-1 mod p) embedding: on component tuples that is exactly the
    left rotation (x_1,...,x_p) -> (x_2,...,x_p,x_1).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = base.degree
    degree = p * n
    blocks = tuple(tuple(range(i * n, (i + 1) * n)) for i in range(p))
    tau = Permutation([(pt - n) % degree for pt in range(degree)], check=True)
    prov = f"wreath({base.provenance},{p})" if base.provenance else None
    group = PermGroup(degree, [inflate(g, blocks[0], degree) for g in base.generators] + [tau],
                      provenance=prov)
    if (tau ** p) != group.identity:
        raise GroupError("shift does not have order p")
    for g in base.generators:
        for i in range(p):
            if inflate(g, blocks[i], degree).conj(tau) != inflate(g, blocks[(i - 1) % p], degree):
                raise GroupError("shift does not rotate the block embeddings")
    _self_check(group, base.order() ** p * p, "wreath product")
    group.factors = DirectFactorStructure(blocks=blocks, factor_groups=(base,) * p, shift=tau)
    return WreathDatum(base=base, p=p, group=group, tau=tau, blocks=blocks)


@dataclass(frozen=True)
class WreathHallPair:
    """Two Hall subgroups of a wreath product exchanged by the shift.

    first places the second base Hall subgroup in block 0 and the first in
    the rest; second is its image under the shift.  Both decompose
    blockwise, so non-conjugacy inside their join reduces to the blocks.
    """

    wreath: WreathDatum
    pi: frozenset
    hall_first: Subgroup
    hall_second: Subgroup

    @property
    def tau(self) -> Permutation:
        return self.wreath.tau


def wreath_hall_pair(base: PermGroup, u, v, pi, p: int,
                     caps: Caps = DEFAULT_CAPS) -> WreathHallPair:
    """Build G = base wr Z_p with Hall pair H = V x U x ... x U, K = H^tau.

    Preconditions are enforced, not trusted: u and v must be non-conjugate
    pi-Hall subgroups of the base and p must be a prime outside pi (the
    construction is vacuous otherwise).
    """
    u = _as_group(u)
    v = _as_group(v)
    pi = frozenset(pi)
    if p in pi:
        raise ValueError(f"p={p} must lie outside pi={sorted(pi)}")
    if not is_hall_subgroup(base, u, pi) or not is_hall_subgroup(base, v, pi):
        raise ValueError("u and v must be pi-Hall subgroups of the base")
    if is_conjugate(base, u, v, caps) is not None:
        raise ValueError("u and v must be non-conjugate in the base")
    datum = wreath_regular(base, p)
    h = direct_product([v] + [u] * (p - 1))
    k = direct_product([u] * (p - 1) + [v])
    target = pi_part(datum.group.order(), pi)
    for name, grp in (("H", h), ("K", k)):
        if grp.order() != target:
            raise GroupError(f"{name} does not have the pi-Hall order")
    tau = datum.tau
    for g in h.generators:
        if not k.contains(g.conj(tau)):
            raise GroupError("H^tau = K failed replay")
    return WreathHallPair(wreath=datum, pi=pi,
                          hall_first=Subgroup(datum.group, h),
                          hall_second=Subgroup(datum.group, k))


def pointwise_stabilizer(n: int, m: int) -> Subgroup:
    """The pointwise stabilizer of {m..n-1} in Sym(n), a copy of Sym(m).

    in_claimed_range marks the n/2 < m < n-1 window where the stabilizer is
    pronormal but not strongly pronormal; other (n, m) are allowed and
    simply fall outside that claim.
    """
    if not 1 <= m < n:
        raise ValueError("1 <= m < n required")
    parent = symmetric(n)
    gens = []
    if m >= 2:
        gens.append(Permutation.from_cycles(n, [(0, 1)]))
    if m >= 3:
        gens.append(Permutation.from_cycles(n, [tuple(range(m))]))
    sub = PermGroup(n, gens)
    _self_check(sub, math.factorial(m), f"pointwise stabilizer sym:{m} in sym:{n}")
    return Subgroup(parent, sub)


def stabilizer_in_claimed_range(n: int, m: int) -> bool:
    return 2 * m > n and m < n - 1
