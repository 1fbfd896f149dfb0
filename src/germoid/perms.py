"""Permutations of edge indices {1..n} and finite permutation groups.

Groups are stored as explicit element sets closed under product and inverse,
built by breadth-first closure from generators.  Products compose like
functions: (sigma * tau)(i) = sigma(tau(i)).
"""

from __future__ import annotations

import re as _re
from functools import cached_property
from math import factorial


class CycleParseError(ValueError):
    pass


class GroupTooLarge(ValueError):
    """A closure grew past its element limit."""


_new = object.__new__


class Permutation:
    """A bijection of {1..n}, stored as the tuple of images of 1..n."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images}")
        self.images = images

    @classmethod
    def _trusted(cls, images: tuple) -> "Permutation":
        """A permutation from an image tuple known to be valid, unchecked."""
        p = _new(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._trusted(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise ValueError("size mismatch")
        images = self.images
        return Permutation._trusted(tuple([images[j - 1] for j in other.images]))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation._trusted(tuple(inv))

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self.images, start=1))

    def fixed_points(self):
        return [i for i, j in enumerate(self.images, start=1) if i == j]

    def cycles(self):
        """Nontrivial cycles, each rotated to start at its minimum, sorted."""
        seen = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def sign(self) -> int:
        s = 1
        for cyc in self.cycles():
            if len(cyc) % 2 == 0:
                s = -s
        return s

    def is_even(self) -> bool:
        return self.sign() == 1

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(i) for i in cyc) + ")" for cyc in cycs)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __str__(self):
        return self.cycle_string()

    def __repr__(self):
        return f"Permutation({self.images})"


_CYCLE_TOKEN = _re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse cycle notation like "(1 2)(3 4)" for a permutation of {1..n}.

    "()" is the identity.  A symbol may appear in at most one cycle; repeats
    are rejected rather than composed.
    """
    stripped = text.replace(",", " ")
    body = _CYCLE_TOKEN.sub("", stripped).strip()
    if body:
        raise CycleParseError(f"malformed cycle notation: {text!r}")
    images = list(range(1, n + 1))
    used = set()
    matched_any = False
    for m in _CYCLE_TOKEN.finditer(stripped):
        matched_any = True
        parts = m.group(1).split()
        if not parts:
            continue  # "()" term: identity
        try:
            entries = [int(p) for p in parts]
        except ValueError:
            raise CycleParseError(f"malformed cycle notation: {text!r}") from None
        for e in entries:
            if not 1 <= e <= n:
                raise CycleParseError(f"symbol {e} out of range 1..{n}")
            if e in used:
                raise CycleParseError(f"symbol {e} appears in more than one cycle")
            used.add(e)
        for a, b in zip(entries, entries[1:] + entries[:1]):
            images[a - 1] = b
    if not matched_any:
        raise CycleParseError(f"malformed cycle notation: {text!r}")
    return Permutation(images)


def mulclose(generators, limit=None):
    """Breadth-first closure of a generator set under products; raises
    ``GroupTooLarge`` once it holds more than ``limit`` elements."""
    gens = list(generators)
    els = set(gens)
    if limit is not None and len(els) > limit:
        raise GroupTooLarge(f"closure exceeded {limit} elements")
    boundary = list(els)
    while boundary:
        new = []
        for a in gens:
            for b in boundary:
                c = a * b
                if c not in els:
                    els.add(c)
                    new.append(c)
                    if limit is not None and len(els) > limit:
                        raise GroupTooLarge(f"closure exceeded {limit} elements")
        boundary = new
    return els


class PermGroup:
    """A finite group of permutations of {1..n}, closed and with identity."""

    def __init__(self, n: int, elements, generators=()):
        self.n = n
        for g in elements:
            if g.n != n:
                raise ValueError(f"element {g} does not act on 1..{n}")
        self.elements = tuple(sorted(set(elements)))
        self._members = frozenset(self.elements)
        ident = Permutation.identity(n)
        if ident not in self._members:
            raise ValueError("group does not contain the identity")
        self.generators = tuple(generators)
        self.identity = ident

    @classmethod
    def generate(cls, n: int, generators, limit=None) -> "PermGroup":
        """Closure of the generators; raises ``GroupTooLarge`` past ``limit``
        elements."""
        gens = list(generators)
        for g in gens:
            if not isinstance(g, Permutation):
                raise ValueError(f"not a permutation: {g!r}")
            if g.n != n:
                raise ValueError(f"generator {g} does not act on 1..{n}")
        ident = Permutation.identity(n)
        els = mulclose(gens + [ident], limit)
        return cls(n, els, gens)

    @classmethod
    def trivial(cls, n: int) -> "PermGroup":
        return cls.generate(n, [])

    @classmethod
    def symmetric(cls, n: int) -> "PermGroup":
        gens = []
        for i in range(1, n):
            images = list(range(1, n + 1))
            images[i - 1], images[i] = images[i], images[i - 1]
            gens.append(Permutation(images))
        G = cls.generate(n, gens)
        assert len(G) == factorial(n)
        return G

    @classmethod
    def alternating(cls, n: int) -> "PermGroup":
        gens = []
        for k in range(3, n + 1):
            images = list(range(1, n + 1))
            images[0], images[1], images[k - 1] = 2, k, 1
            gens.append(Permutation(images))
        G = cls.generate(n, gens)
        assert len(G) == max(1, factorial(n) // 2)
        return G

    @classmethod
    def cyclic(cls, n: int) -> "PermGroup":
        if n == 1:
            return cls.trivial(1)
        shift = Permutation([i % n + 1 for i in range(1, n + 1)])
        return cls.generate(n, [shift])

    @classmethod
    def klein_cross(cls) -> "PermGroup":
        """The order-4 group on a 4-edge star: <(1 2), (3 4)>."""
        return cls.generate(4, [parse_cycles("(1 2)", 4), parse_cycles("(3 4)", 4)])

    @cached_property
    def is_two_transitive(self) -> bool:
        """Burnside's count: the orbits on ordered pairs of points number
        sum_s fix(s)^2 / |G|, and exactly two orbits (the diagonal and its
        complement) means the action is 2-transitive."""
        return sum(len(s.fixed_points()) ** 2 for s in self.elements) == 2 * len(self)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g):
        return g in self._members

    def __eq__(self, other):
        return (
            isinstance(other, PermGroup)
            and self.n == other.n
            and self._members == other._members
        )

    def __hash__(self):
        return hash((self.n, self._members))

    def __repr__(self):
        return f"PermGroup(n={self.n}, order={len(self)})"


def build_group(n: int, generators) -> PermGroup:
    """Closure of a generating set; the generators must permute {1..n}."""
    return PermGroup.generate(n, generators)


def extend_homomorphism(group: PermGroup, gens, images) -> dict:
    """Extend generator assignments gens[k] -> images[k] to a homomorphism
    defined on the whole group, or fail if the assignment is inconsistent.

    The generators must generate the group; the images may permute a
    different symbol set (this is how non-faithful actions are specified).
    """
    if len(gens) != len(images):
        raise ValueError("one image per generator required")
    target_n = images[0].n if images else group.n
    hom = {group.identity: Permutation.identity(target_n)}
    frontier = [group.identity]
    while frontier:
        new_frontier = []
        for g in frontier:
            for gen, img in zip(gens, images):
                h = gen * g
                cand = img * hom[g]
                if h in hom:
                    if hom[h] != cand:
                        raise ValueError("generator images do not define a homomorphism")
                else:
                    hom[h] = cand
                    new_frontier.append(h)
        frontier = new_frontier
    if len(hom) != len(group):
        raise ValueError("generators do not generate the group")
    for g in group:
        for h in group:
            if hom[g * h] != hom[g] * hom[h]:
                raise ValueError("generator images do not define a homomorphism")
    return hom
