"""Permutations of {0..n-1} stored as image tuples.

Composition is left to right: (p * q)(x) = q(p(x)).  Exponent notation then
reads the usual way, x^(pq) = (x^p)^q, and conjugation is h^g = g^-1 * h * g.
Points are 0-based throughout.

A product is formed in C: gather(p) applied to q gives the tuple
(q[p[0]], q[p[1]], ...), wrapped by tuple.__new__ without the permutation
check.  A conjugate h^g is two such gathers: gather(h) applied to g gives
t with t[i] = g[h[i]], and (h^g)[j] = t[g^-1[j]].  conjugation(g) builds
g^-1's gather once for every h it is applied to.  gather hides
operator.itemgetter's arity quirks; no other module imports itemgetter.
"""

from __future__ import annotations

import functools
import math
import re
from operator import itemgetter

from .errors import DegreeMismatch

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class Permutation(tuple):
    """An immutable permutation of {0..degree-1} in image-tuple form.

    Subclassing tuple gives hashing, equality and lexicographic comparison
    by image sequence for free; that ordering is the canonical order used
    by every deterministic search in the library.
    """

    __slots__ = ()

    def __new__(cls, images, check=True):
        p = tuple.__new__(cls, images)
        if check:
            n = len(p)
            seen = [False] * n
            for x in p:
                if not isinstance(x, int) or not 0 <= x < n or seen[x]:
                    raise ValueError(f"not a permutation of 0..{n - 1}: {tuple(p)!r}")
                seen[x] = True
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree), check=False)

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Permutation":
        """Build a permutation from disjoint cycles of 0-based points."""
        images = list(range(degree))
        for cycle in cycles:
            for pt in cycle:
                if not 0 <= pt < degree:
                    raise ValueError(f"point {pt} outside 0..{degree - 1}")
                if images[pt] != pt:
                    raise ValueError(f"point {pt} repeated across cycles")
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
        return cls(images, check=True)

    @classmethod
    def parse(cls, text: str, degree: int) -> "Permutation":
        """Parse disjoint-cycle notation, e.g. '(0 1 2)(3 4)'; '()' is the identity."""
        stripped = text.strip()
        if not stripped:
            raise ValueError("empty permutation string")
        if _CYCLE_RE.sub("", stripped).strip():
            raise ValueError(f"unparsable permutation text: {text!r}")
        cycles = []
        for body in _CYCLE_RE.findall(stripped):
            body = body.replace(",", " ").strip()
            if body:
                cycles.append([int(tok) for tok in body.split()])
        return cls.from_cycles(degree, cycles)

    @property
    def degree(self) -> int:
        return len(self)

    @property
    def is_identity(self) -> bool:
        return self == _identity_images(len(self))

    def __mul__(self, other):
        n = len(self)
        if n != len(other):
            raise DegreeMismatch(f"degree {n} vs {len(other)}")
        if n > 1:  # products are the hottest gather, so they skip gather's call
            return tuple.__new__(Permutation, itemgetter(*self)(other))
        return tuple.__new__(Permutation, gather(self)(other))

    def __invert__(self) -> "Permutation":
        return tuple.__new__(Permutation, inverse_images(self))

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return (~self) ** (-n)
        result = Permutation.identity(len(self))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self, g: "Permutation") -> "Permutation":
        """Return self^g = g^-1 * self * g."""
        n = len(self)
        if n != len(g):
            raise DegreeMismatch(f"degree {n} vs {len(g)}")
        return tuple.__new__(Permutation, gather(inverse_images(g))(gather(self)(g)))

    def order(self) -> int:
        cycles = self.cycles()
        if not cycles:
            return 1
        return math.lcm(*(len(c) for c in cycles))

    def cycles(self):
        """Nontrivial cycles, each rotated to start at its least point."""
        seen = [False] * len(self)
        out = []
        for start in range(len(self)):
            if seen[start] or self[start] == start:
                continue
            cycle = [start]
            seen[start] = True
            x = self[start]
            while x != start:
                seen[x] = True
                cycle.append(x)
                x = self[x]
            out.append(tuple(cycle))
        return out

    def support(self):
        return tuple(i for i, x in enumerate(self) if i != x)

    def min_moved(self):
        for i, x in enumerate(self):
            if i != x:
                return i
        return None

    def cycle_string(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    def __repr__(self):
        return f"Permutation[{self.cycle_string()}, deg {len(self)}]"


def gather(points):
    """The map x -> tuple(x[p] for p in points), formed in C by itemgetter
    for two or more points; itemgetter() raises and itemgetter(p) returns
    the scalar x[p], so fewer points take a Python map."""
    if len(points) > 1:
        return itemgetter(*points)
    return lambda x: tuple([x[p] for p in points])


def inverse_images(p) -> list:
    """The images of p^-1, as a list."""
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return inv


@functools.lru_cache(maxsize=None)
def _identity_images(degree: int) -> tuple:
    return tuple(range(degree))


def conjugation(g: Permutation):
    """The map h -> h.conj(g), with g^-1's gather built once for every h."""
    n = len(g)
    inverse = gather(inverse_images(g))

    def conj(h):
        if len(h) != n:
            raise DegreeMismatch(f"degree {len(h)} vs {n}")
        return tuple.__new__(Permutation, inverse(gather(h)(g)))

    return conj


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Left-to-right product: apply p first, then q."""
    return p * q
