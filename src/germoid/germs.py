"""Groupoids of germs for edge-permutation actions on star spaces.

Away from the center, the germ of sigma at (t,i) remembers only the pair
(i, sigma(i)), so edge germs are triples (t,i,j).  At the center two distinct
group elements always have distinct germs, so center germs are labelled by
group elements.  Composition follows source(first) = range(second).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .perms import (
    GroupTooLarge,
    PermGroup,
    Permutation,
    parse_count,
    parse_cycles,
    refuse_unknown_keys,
)
from .scalars import _frac
from .starspace import CENTER, CenterPoint, EdgePoint

# |A7|: star groups past this order are refused before they are built
MAX_STAR_GROUP_ORDER = 2520
# star specs with more edges are refused before any permutation is built
MAX_STAR_EDGES = 100
# hausdorff_check lists at most this many inseparable pairs
WITNESS_LIMIT = 64


class GermError(ValueError):
    pass


class EdgeGerm:
    """Germ (t, i, j): source (t, i), range (t, j)."""

    __slots__ = ("t", "i", "j")

    def __init__(self, t, i: int, j: int):
        t = _frac(t)
        if not 0 < t.numerator <= t.denominator:
            raise GermError(f"edge coordinate {t} outside (0,1]")
        self.t = t
        self.i = i
        self.j = j

    def __eq__(self, other):
        return isinstance(other, EdgeGerm) and (self.t, self.i, self.j) == (
            other.t, other.i, other.j)

    def __hash__(self):
        return hash(("edge", self.t, self.i, self.j))

    def __repr__(self):
        return f"EdgeGerm({self.t}, {self.i}, {self.j})"


class CenterGerm:
    """Germ of a group element at the center."""

    __slots__ = ("sigma",)

    def __init__(self, sigma: Permutation):
        self.sigma = sigma

    def __eq__(self, other):
        return isinstance(other, CenterGerm) and self.sigma == other.sigma

    def __hash__(self):
        return hash(("center", self.sigma))

    def __repr__(self):
        return f"CenterGerm({self.sigma})"


@dataclass(frozen=True)
class HausdorffResult:
    """The Hausdorff verdict on the center germs of a star groupoid."""

    hausdorff: bool
    count: int           # inseparable pairs of center germs, |G||F|/2
    witnesses: list      # the first pairs (a, b), a before b in group order
    exhaustive: bool     # witnesses lists every inseparable pair


class GermGroupoid:
    """The groupoid of germs of a permutation group acting on an n-edge star."""

    def __init__(self, n: int, group: PermGroup):
        if group.n != n:
            raise ValueError(f"group acts on {group.n} edges, star has {n}")
        self.n = n
        self.group = group
        # the pair (i, sigma(i)), 0-based, as the code i*n + sigma(i); a mask
        # over the codes, since np.unique would import numpy.ma on first use
        seen = np.zeros(n * n, dtype=bool)
        seen[np.arange(n) * n + group._images] = True
        self.admissible_pairs = frozenset(
            (c // n + 1, c % n + 1) for c in np.flatnonzero(seen).tolist())

    @cached_property
    def sorted_pairs(self) -> tuple:
        """The admissible pairs (i, sigma(i)) in increasing order."""
        return tuple(sorted(self.admissible_pairs))

    # -- canonical constructions ------------------------------------------

    @classmethod
    def cross(cls) -> "GermGroupoid":
        """4-edge star with the order-4 group <(1 2),(3 4)>.

        Edges 1,2 are the two halves of one axis and 3,4 of the other, so
        this is the axis-reflection action on a plus-shaped space.
        """
        return cls(4, PermGroup.klein_cross())

    @classmethod
    def star(cls, n: int) -> "GermGroupoid":
        """n-edge star with the alternating group acting by edge permutation."""
        return cls(n, PermGroup.alternating(n))

    @classmethod
    def cyclic_star(cls, n: int) -> "GermGroupoid":
        return cls(n, PermGroup.cyclic(n))

    # -- germs -------------------------------------------------------------

    def contains(self, germ) -> bool:
        if isinstance(germ, EdgeGerm):
            return (germ.i, germ.j) in self.admissible_pairs
        if isinstance(germ, CenterGerm):
            return germ.sigma in self.group
        return False

    def germ_of(self, sigma: Permutation, p):
        if sigma not in self.group:
            raise GermError(f"{sigma} is not in the acting group")
        if isinstance(p, CenterPoint):
            return CenterGerm(sigma)
        if isinstance(p, EdgePoint):
            return EdgeGerm(p.t, p.edge, sigma(p.edge))
        raise TypeError(f"not a star point: {p!r}")

    def source(self, germ):
        self._require(germ)
        if isinstance(germ, EdgeGerm):
            return EdgePoint(germ.i, germ.t)
        return CENTER

    def range(self, germ):
        self._require(germ)
        if isinstance(germ, EdgeGerm):
            return EdgePoint(germ.j, germ.t)
        return CENTER

    def inverse(self, germ):
        self._require(germ)
        if isinstance(germ, EdgeGerm):
            return EdgeGerm(germ.t, germ.j, germ.i)
        return CenterGerm(germ.sigma.inverse())

    def compose(self, first, second):
        """Product first*second, defined when source(first) = range(second)."""
        self._require(first)
        self._require(second)
        if isinstance(first, EdgeGerm) and isinstance(second, EdgeGerm):
            if first.t != second.t or first.i != second.j:
                raise GermError(f"germs {second} and {first} do not compose")
            return EdgeGerm(first.t, second.i, first.j)
        if isinstance(first, CenterGerm) and isinstance(second, CenterGerm):
            return CenterGerm(first.sigma * second.sigma)
        raise GermError(f"germs {second} and {first} do not compose")

    def _require(self, germ):
        if not self.contains(germ):
            raise GermError(f"{germ!r} is not a germ of this groupoid")

    # -- diagnostics ---------------------------------------------------------

    def isotropy_description(self):
        """Non-unit isotropy germ classes: one center germ per sigma != id.

        Edge germs (t,i,i) have equal source and range but are units, so
        they never appear here.
        """
        # the identity is elements[0]
        return [CenterGerm(s) for s in self.group.elements[1:]]

    def essentially_principal_check(self):
        """True plus witnesses (non-unit germs interior to the isotropy bundle).

        A center germ of sigma is interior to the isotropy bundle only if
        every nearby edge germ (t,i,sigma(i)) is isotropy too, i.e. sigma
        fixes every edge; edge permutations acting as the identity *are* the
        identity, so the witness list is computed and always comes out empty.
        """
        els = self.group.elements
        full = np.flatnonzero(self.group.fixed_counts[1:] == self.n) + 1
        witnesses = [CenterGerm(els[k]) for k in full.tolist()]
        return (not witnesses), witnesses

    def hausdorff_check(self) -> HausdorffResult:
        """The Hausdorff flag, the number of inseparable pairs of center
        germs and the first ``WITNESS_LIMIT`` of them.

        Center germs of sigma and sigma' cannot be separated exactly when
        sigma and sigma' agree on some edge: the edge germs (t,i,j) with
        j = sigma(i) = sigma'(i) converge to both as t -> 0.  That is,
        sigma' = sigma g for some g in F, the non-identity elements fixing
        an edge, so there are |G||F|/2 such pairs and the groupoid is
        Hausdorff exactly when F is empty.  The witnesses are listed by the
        position a of sigma, then of sigma' = sigma g, read off row a of
        the Cayley table.
        """
        group = self.group
        fixing = group.fixing
        count = len(group) * len(fixing) // 2
        witnesses = []
        if len(fixing):
            els, table = group.elements, group.table
            for a in range(len(els)):
                if len(witnesses) >= WITNESS_LIMIT:
                    break
                partners = sorted(b for b in table[a, fixing].tolist() if b > a)
                witnesses.extend(
                    (els[a], els[b]) for b in partners[: WITNESS_LIMIT - len(witnesses)]
                )
        return HausdorffResult(not len(fixing), count, witnesses, len(witnesses) == count)

    def __eq__(self, other):
        return (
            isinstance(other, GermGroupoid)
            and self.n == other.n
            and self.group == other.group
        )

    def __hash__(self):
        return hash((self.n, self.group))

    def __repr__(self):
        return f"GermGroupoid(n={self.n}, group order {len(self.group)})"


def require_star_group_order(kind: str, n: int) -> int:
    """The order of A_n, S_n or Z_n (kind "A", "S" or "Z"), computed without
    building the group; raises ``GroupTooLarge`` once it passes
    ``MAX_STAR_GROUP_ORDER``."""
    too_large = GroupTooLarge(f"group {kind}{n} has more than {MAX_STAR_GROUP_ORDER} elements")
    if kind == "Z":
        if n > MAX_STAR_GROUP_ORDER:
            raise too_large
        return n
    order = 1
    for k in range(3 if kind == "A" else 2, n + 1):
        order *= k
        if order > MAX_STAR_GROUP_ORDER:
            raise too_large
    return order


def parse_star_spec(spec: dict) -> GermGroupoid:
    """Build a germ groupoid from its JSON description.

    {"n": 4, "group": "A4"}               named group: A<n>, S<n>, Z<n>,
                                          "trivial", "klein_cross"
    {"n": 4, "generators": ["(1 2)", "(3 4)"]}   generated subgroup

    A malformed spec raises ``ValueError``, one that is not a JSON object,
    one naming both a group and generators or one carrying any other key
    included, and so do more than ``MAX_STAR_EDGES`` edges and a group with
    more than ``MAX_STAR_GROUP_ORDER`` elements (``GroupTooLarge``): a named
    group's order is computed before the group is built, and a generated
    group's closure stops at that order.
    """
    if not isinstance(spec, dict):
        raise ValueError("star spec must be a JSON object")
    try:
        return _parse_star_spec(spec)
    except (KeyError, TypeError, AttributeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed spec ({type(exc).__name__}: {exc})") from None


def _parse_star_spec(spec):
    refuse_unknown_keys(spec, ("n", "group", "generators"), "star spec")
    if "n" not in spec:
        raise ValueError("star spec needs an edge count 'n'")
    n = parse_count(spec["n"], "edge count")
    if n < 1:
        raise ValueError("edge count must be positive")
    if n > MAX_STAR_EDGES:
        raise ValueError(f"edge count {n} exceeds {MAX_STAR_EDGES}")
    if "generators" in spec:
        if "group" in spec:
            raise ValueError("star spec names both a group and generators; give one")
        gens = [parse_cycles(s, n) for s in spec["generators"]]
        return GermGroupoid(n, PermGroup.generate(n, gens, limit=MAX_STAR_GROUP_ORDER))
    name = spec.get("group", "trivial")
    if name == "trivial":
        return GermGroupoid(n, PermGroup.trivial(n))
    if name == "klein_cross":
        if n != 4:
            raise ValueError("klein_cross requires n=4")
        return GermGroupoid.cross()
    kind, num = name[0], name[1:]
    if not num.isdigit() or int(num) != n or kind not in "ASZ":
        raise ValueError(f"unknown group name {name!r} for n={n}")
    require_star_group_order(kind, n)
    maker = {"A": PermGroup.alternating, "S": PermGroup.symmetric, "Z": PermGroup.cyclic}[kind]
    return GermGroupoid(n, maker(n))
