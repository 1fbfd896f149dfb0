"""The n-edge star space, its open sets, coefficient functions, and the edge action.

The star is n copies of (0,1] (the edges, indexed 1..n) glued at a single
center point.  Edge coordinates are rationals; the center is its own point,
not t=0 on any edge, which keeps every membership question decidable.
"""

from __future__ import annotations

from fractions import Fraction

from .perms import Permutation
from .poly import PiecewisePoly
from .scalars import Scalar, as_scalar


class CenterPoint:
    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, CenterPoint)

    def __hash__(self):
        return hash("center")

    def __repr__(self):
        return "CENTER"


CENTER = CenterPoint()


class EdgePoint:
    """The point at coordinate t in (0,1] on the given edge."""

    __slots__ = ("edge", "t")

    def __init__(self, edge: int, t):
        t = Fraction(t)
        if not 0 < t <= 1:
            raise ValueError(f"edge coordinate {t} outside (0,1]")
        self.edge = edge
        self.t = t

    def __eq__(self, other):
        return isinstance(other, EdgePoint) and (self.edge, self.t) == (other.edge, other.t)

    def __hash__(self):
        return hash((self.edge, self.t))

    def __repr__(self):
        return f"EdgePoint({self.edge}, {self.t})"


# ---------------------------------------------------------------------------
# open edge intervals: (a, b) or (a, 1], encoded (a, b, include_b)

def _norm_intervals(intervals):
    ivs = []
    for a, b, inc in intervals:
        if a.__class__ is not Fraction:
            a = Fraction(a)
        if b.__class__ is not Fraction:
            b = Fraction(b)
        if inc and b != 1:
            raise ValueError("a closed right endpoint is only allowed at 1")
        if not (0 <= a < b <= 1):
            raise ValueError(f"bad interval ({a},{b})")
        ivs.append((a, b, bool(inc)))
    ivs.sort()
    out = []
    for a, b, inc in ivs:
        if out and a < out[-1][1]:
            pa, pb, pinc = out[-1]
            if b > pb:
                out[-1] = (pa, b, inc)
            elif b == pb:
                out[-1] = (pa, pb, pinc or inc)
            # else the new interval is contained in the previous one
        else:
            out.append((a, b, inc))
    return tuple(out)


def _intersect_intervals(xs, ys):
    out = []
    for a1, b1, c1 in xs:
        for a2, b2, c2 in ys:
            a = max(a1, a2)
            if b1 < b2:
                b, inc = b1, c1
            elif b2 < b1:
                b, inc = b2, c2
            else:
                b, inc = b1, c1 and c2
            if a < b:
                out.append((a, b, inc))
    return _norm_intervals(out)


def _member(t: Fraction, intervals) -> bool:
    for a, b, inc in intervals:
        if a < t < b or (t == b and inc):
            return True
    return False


class OpenStarSet:
    """A relatively open subset of the star, normalized.

    If the set contains the center it must contain an initial segment
    (0, eps) of every edge; the constructor enforces this.
    """

    __slots__ = ("n", "contains_center", "edges")

    def __init__(self, n: int, contains_center: bool, edges):
        edges = tuple(_norm_intervals(e) for e in edges)
        if len(edges) != n:
            raise ValueError(f"expected interval data for {n} edges")
        if contains_center:
            for i, ivs in enumerate(edges, start=1):
                if not ivs or ivs[0][0] != 0:
                    raise ValueError(
                        f"set contains the center but misses (0,eps) on edge {i}"
                    )
        self.n = n
        self.contains_center = bool(contains_center)
        self.edges = edges

    @classmethod
    def full(cls, n: int) -> "OpenStarSet":
        return cls(n, True, [[(0, 1, True)]] * n)

    @classmethod
    def empty(cls, n: int) -> "OpenStarSet":
        return cls(n, False, [[]] * n)

    @classmethod
    def edge_interval(cls, n: int, edge: int, a, b, include_b=False) -> "OpenStarSet":
        edges = [[] for _ in range(n)]
        edges[edge - 1] = [(a, b, include_b)]
        return cls(n, False, edges)

    def union(self, other: "OpenStarSet") -> "OpenStarSet":
        self._check(other)
        edges = [_norm_intervals(a + b) for a, b in zip(self.edges, other.edges)]
        return OpenStarSet(self.n, self.contains_center or other.contains_center, edges)

    def intersect(self, other: "OpenStarSet") -> "OpenStarSet":
        self._check(other)
        edges = [_intersect_intervals(a, b) for a, b in zip(self.edges, other.edges)]
        return OpenStarSet(self.n, self.contains_center and other.contains_center, edges)

    __or__ = union
    __and__ = intersect

    def __contains__(self, p) -> bool:
        if isinstance(p, CenterPoint):
            return self.contains_center
        if isinstance(p, EdgePoint):
            return _member(p.t, self.edges[p.edge - 1])
        raise TypeError(f"not a star point: {p!r}")

    def _check(self, other):
        if not isinstance(other, OpenStarSet) or other.n != self.n:
            raise ValueError("open sets live on stars with different edge counts")

    def __eq__(self, other):
        return (
            isinstance(other, OpenStarSet)
            and (self.n, self.contains_center, self.edges)
            == (other.n, other.contains_center, other.edges)
        )

    def __hash__(self):
        return hash((self.n, self.contains_center, self.edges))

    def __repr__(self):
        parts = [f"center={self.contains_center}"]
        for i, ivs in enumerate(self.edges, start=1):
            if ivs:
                parts.append(
                    f"e{i}:" + ",".join(f"({a},{b}{']' if inc else ')'}" for a, b, inc in ivs)
                )
        return "OpenStarSet(" + " ".join(parts) + ")"


def membership(p, a: OpenStarSet) -> bool:
    return p in a


class PPFun:
    """A continuous function on the star: one piecewise polynomial per edge
    plus a center value equal to every edge's limit at 0.

    Closed under sum, product, conjugation, scaling, and the edge action,
    which is what the convolution algebra needs of its coefficients.
    """

    __slots__ = ("n", "center", "edges")

    def __init__(self, n: int, center, edges):
        center = as_scalar(center)
        edges = tuple(edges)
        if len(edges) != n:
            raise ValueError(f"expected {n} edge functions")
        for i, e in enumerate(edges, start=1):
            if e.at0() != center:
                raise ValueError(
                    f"edge {i} limit {e.at0()} at the center differs from center value {center}"
                )
        self.n = n
        self.center = center
        self.edges = edges

    @classmethod
    def const(cls, n: int, c) -> "PPFun":
        c = as_scalar(c)
        return cls(n, c, [PiecewisePoly.const(c)] * n)

    @classmethod
    def zero(cls, n: int) -> "PPFun":
        return cls.const(n, 0)

    @classmethod
    def one(cls, n: int) -> "PPFun":
        return cls.const(n, 1)

    def eval(self, p) -> Scalar:
        if isinstance(p, CenterPoint):
            return self.center
        if isinstance(p, EdgePoint):
            return self.edges[p.edge - 1](p.t)
        raise TypeError(f"not a star point: {p!r}")

    __call__ = eval

    def _check(self, other):
        if not isinstance(other, PPFun) or other.n != self.n:
            raise ValueError("functions live on stars with different edge counts")

    def __add__(self, other):
        self._check(other)
        return PPFun(self.n, self.center + other.center,
                     [a + b for a, b in zip(self.edges, other.edges)])

    def __sub__(self, other):
        self._check(other)
        return PPFun(self.n, self.center - other.center,
                     [a - b for a, b in zip(self.edges, other.edges)])

    def __mul__(self, other):
        self._check(other)
        return PPFun(self.n, self.center * other.center,
                     [a * b for a, b in zip(self.edges, other.edges)])

    def __neg__(self):
        return PPFun(self.n, -self.center, [-e for e in self.edges])

    def scale(self, c) -> "PPFun":
        c = as_scalar(c)
        return PPFun(self.n, c * self.center, [e.scale(c) for e in self.edges])

    def conj(self) -> "PPFun":
        return PPFun(self.n, self.center.conjugate(), [e.conj() for e in self.edges])

    def is_zero(self) -> bool:
        return self.center.is_zero() and all(e.is_zero() for e in self.edges)

    def __eq__(self, other):
        return (
            isinstance(other, PPFun)
            and (self.n, self.center, self.edges) == (other.n, other.center, other.edges)
        )

    def __hash__(self):
        return hash((self.n, self.center, self.edges))

    def __repr__(self):
        return f"PPFun(n={self.n}, center={self.center})"


def act(sigma: Permutation, x):
    """Left action of an edge permutation: points move, functions pull back.

    act(sigma, h)(p) = h(sigma^{-1} p), so act(sigma*tau, x) = act(sigma, act(tau, x)).
    """
    if isinstance(x, CenterPoint):
        return x
    if isinstance(x, EdgePoint):
        return EdgePoint(sigma(x.edge), x.t)
    if isinstance(x, OpenStarSet):
        edges = [None] * x.n
        for i in range(1, x.n + 1):
            edges[sigma(i) - 1] = list(x.edges[i - 1])
        return OpenStarSet(x.n, x.contains_center, edges)
    if isinstance(x, PPFun):
        edges = [None] * x.n
        for i in range(1, x.n + 1):
            edges[sigma(i) - 1] = x.edges[i - 1]
        return PPFun(x.n, x.center, edges)
    raise TypeError(f"cannot act on {x!r}")
