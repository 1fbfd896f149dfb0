"""The n-edge star space, its open sets, coefficient functions, and the edge action.

The star is n copies of (0,1] (the edges, indexed 1..n) glued at a single
center point.  Edge coordinates are rationals; the center is its own point,
not t=0 on any edge, which keeps every membership question decidable.

An open set keeps each edge's intervals in normal form: sorted by left
endpoint, with overlapping intervals merged (touching open intervals (a,b)
and (b,c) stay apart, since b is missing).  Endpoints are ``Fraction``s and
are compared over the integers: x < y is x.numerator*y.denominator <
y.numerator*x.denominator, as in ``poly._merge``.  Trusted path:
``OpenStarSet(n, contains_center, edges, _checked=True)`` takes its
arguments as given.  Its caller must pass a tuple of n normal interval
tuples, each starting at 0 if the set contains the center; ``act``,
``union`` and ``intersect`` do (``union`` merges two normal tuples in one
linear pass, ``intersect`` sweeps them with two pointers).  Outside input,
and every set the sampler draws, goes through the validating path,
``_norm_intervals``: it checks each interval, sorts them by left endpoint
over one common denominator, and merges.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .perms import Permutation
from .poly import PiecewisePoly
from .scalars import Scalar, _frac, as_scalar

_new = object.__new__


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
        t = _frac(t)
        if not 0 < t.numerator <= t.denominator:
            raise ValueError(f"edge coordinate {t} outside (0,1]")
        if edge < 1:
            raise ValueError(f"edge {edge} is not positive")
        self.edge = edge
        self.t = t

    def __eq__(self, other):
        return isinstance(other, EdgePoint) and (self.edge, self.t) == (other.edge, other.t)

    def __hash__(self):
        return hash((self.edge, self.t))

    def __repr__(self):
        return f"EdgePoint({self.edge}, {self.t})"


def edge_index(p: EdgePoint, n: int) -> int:
    """The 0-based index of p's edge on a star with n edges."""
    if p.edge > n:
        raise ValueError(f"edge {p.edge} outside 1..{n}")
    return p.edge - 1


# ---------------------------------------------------------------------------
# open edge intervals: (a, b) or (a, 1], encoded (a, b, include_b)

def _norm_intervals(intervals):
    """Validate intervals from outside and return their normal form."""
    ivs = []
    for a, b, inc in intervals:
        a, b = _frac(a), _frac(b)
        bn, bd = b.numerator, b.denominator
        if inc and bn != bd:
            raise ValueError("a closed right endpoint is only allowed at 1")
        an, ad = a.numerator, a.denominator
        if not (an >= 0 and an * bd < bn * ad and bn <= bd):
            raise ValueError(f"bad interval ({a},{b})")
        ivs.append((a, b, bool(inc)))
    if len(ivs) > 1:
        den = lcm(*(iv[0].denominator for iv in ivs))
        ivs.sort(key=lambda iv: iv[0].numerator * (den // iv[0].denominator))
    return _merge_sorted(ivs)


def _merge_sorted(ivs):
    """Normal form of valid intervals given in order of left endpoint."""
    out = []
    for a, b, inc in ivs:
        if out:
            pa, pb, pinc = out[-1]
            pn, pd = pb.numerator, pb.denominator
            if a.numerator * pd < pn * a.denominator:
                x, y = b.numerator * pd, pn * b.denominator
                if x > y:
                    out[-1] = (pa, b, inc)
                elif x == y:
                    out[-1] = (pa, pb, pinc or inc)
                # else the new interval is contained in the previous one
                continue
        out.append((a, b, inc))
    return tuple(out)


def _interleave(xs, ys):
    """The intervals of two normal tuples in order of left endpoint."""
    i = j = 0
    nx, ny = len(xs), len(ys)
    while i < nx and j < ny:
        x, y = xs[i][0], ys[j][0]
        if y.numerator * x.denominator < x.numerator * y.denominator:
            yield ys[j]
            j += 1
        else:
            yield xs[i]
            i += 1
    yield from xs[i:]
    yield from ys[j:]


def _union_intervals(xs, ys):
    if not ys or xs is ys:
        return xs
    if not xs:
        return ys
    return _merge_sorted(_interleave(xs, ys))


def _intersect_intervals(xs, ys):
    """Pairwise intersections of two normal tuples, swept with two pointers;
    they come out sorted and disjoint, so already normal."""
    if xs is ys:
        return xs
    out = []
    i = j = 0
    nx, ny = len(xs), len(ys)
    while i < nx and j < ny:
        a1, b1, c1 = xs[i]
        a2, b2, c2 = ys[j]
        a = a2 if a1.numerator * a2.denominator < a2.numerator * a1.denominator else a1
        x, y = b1.numerator * b2.denominator, b2.numerator * b1.denominator
        if x < y:
            b, inc = b1, c1
            i += 1
        elif y < x:
            b, inc = b2, c2
            j += 1
        else:
            b, inc = b1, c1 and c2
            i += 1
            j += 1
        if a.numerator * b.denominator < b.numerator * a.denominator:
            out.append((a, b, inc))
    return tuple(out)


def _member(t: Fraction, intervals) -> bool:
    for a, b, inc in intervals:
        if a < t < b or (t == b and inc):
            return True
    return False


_FULL_EDGE = ((Fraction(0), Fraction(1), True),)


class OpenStarSet:
    """A relatively open subset of the star, normalized.

    If the set contains the center it must contain an initial segment
    (0, eps) of every edge; the constructor enforces this.
    """

    __slots__ = ("n", "contains_center", "edges")

    def __init__(self, n: int, contains_center: bool, edges, _checked=False):
        if not _checked:
            edges = tuple(_norm_intervals(e) for e in edges)
            if len(edges) != n:
                raise ValueError(f"expected interval data for {n} edges")
            if contains_center:
                for i, ivs in enumerate(edges, start=1):
                    if not ivs or ivs[0][0].numerator != 0:
                        raise ValueError(
                            f"set contains the center but misses (0,eps) on edge {i}"
                        )
        self.n = n
        self.contains_center = bool(contains_center)
        self.edges = edges

    @classmethod
    def full(cls, n: int) -> "OpenStarSet":
        return cls(n, True, (_FULL_EDGE,) * n, _checked=True)

    @classmethod
    def empty(cls, n: int) -> "OpenStarSet":
        return cls(n, False, ((),) * n, _checked=True)

    def union(self, other: "OpenStarSet") -> "OpenStarSet":
        self._check(other)
        edges = tuple(_union_intervals(a, b) for a, b in zip(self.edges, other.edges))
        return OpenStarSet(self.n, self.contains_center or other.contains_center, edges,
                           _checked=True)

    def intersect(self, other: "OpenStarSet") -> "OpenStarSet":
        self._check(other)
        edges = tuple(_intersect_intervals(a, b) for a, b in zip(self.edges, other.edges))
        return OpenStarSet(self.n, self.contains_center and other.contains_center, edges,
                           _checked=True)

    __or__ = union
    __and__ = intersect

    def __contains__(self, p) -> bool:
        if isinstance(p, CenterPoint):
            return self.contains_center
        if isinstance(p, EdgePoint):
            return _member(p.t, self.edges[edge_index(p, self.n)])
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

    The constructor checks the center value against every edge's limit
    (``check_continuous``); outside input and every sampled function come
    in that way.  ``_trusted`` checks nothing.  It builds ``const`` and the
    results of ``+``, ``-``, ``*``, negation, ``scale``, ``conj`` and
    ``act``: each maps functions whose limits match their centers to one
    whose limits match too, since the limit at 0 of a sum, product,
    multiple or conjugate is the sum, product, multiple or conjugate of
    the limits, and ``act`` only permutes the edges.
    """

    __slots__ = ("n", "center", "edges")

    def __init__(self, n: int, center, edges):
        edges = tuple(edges)
        if len(edges) != n:
            raise ValueError(f"expected {n} edge functions")
        self.n = n
        self.center = as_scalar(center)
        self.edges = edges
        self.check_continuous()

    @classmethod
    def _trusted(cls, n: int, center: Scalar, edges: tuple) -> "PPFun":
        """A function whose n edges are known to have the limit ``center``."""
        f = _new(cls)
        f.n = n
        f.center = center
        f.edges = edges
        return f

    def check_continuous(self):
        """Raise unless every edge's limit at 0 equals the center value."""
        center = self.center
        ca, cb, cd = center._a, center._b, center._d
        for i, e in enumerate(self.edges, start=1):
            # the limit at 0 is the constant term (a0 + b0 i)/d of the first piece
            p = e.polys[0]
            d, a, b = p[:3] if p else (1, 0, 0)
            if a * cd != ca * d or b * cd != cb * d:
                raise ValueError(
                    f"edge {i} limit {e.at0()} at the center differs from center value {center}"
                )

    @classmethod
    def const(cls, n: int, c) -> "PPFun":
        c = as_scalar(c)
        return cls._trusted(n, c, (PiecewisePoly.const(c),) * n)

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
            return self.edges[edge_index(p, self.n)](p.t)
        raise TypeError(f"not a star point: {p!r}")

    __call__ = eval

    def _check(self, other):
        if not isinstance(other, PPFun) or other.n != self.n:
            raise ValueError("functions live on stars with different edge counts")

    def __add__(self, other):
        self._check(other)
        return PPFun._trusted(self.n, self.center + other.center,
                              tuple([a + b for a, b in zip(self.edges, other.edges)]))

    def __sub__(self, other):
        self._check(other)
        return PPFun._trusted(self.n, self.center - other.center,
                              tuple([a - b for a, b in zip(self.edges, other.edges)]))

    def __mul__(self, other):
        self._check(other)
        return PPFun._trusted(self.n, self.center * other.center,
                              tuple([a * b for a, b in zip(self.edges, other.edges)]))

    def __neg__(self):
        return PPFun._trusted(self.n, -self.center, tuple([-e for e in self.edges]))

    def scale(self, c) -> "PPFun":
        c = as_scalar(c)
        return PPFun._trusted(self.n, c * self.center, tuple([e.scale(c) for e in self.edges]))

    def conj(self) -> "PPFun":
        return PPFun._trusted(self.n, self.center.conjugate(),
                              tuple([e.conj() for e in self.edges]))

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
            edges[sigma(i) - 1] = x.edges[i - 1]
        return OpenStarSet(x.n, x.contains_center, tuple(edges), _checked=True)
    if isinstance(x, PPFun):
        edges = [None] * x.n
        for i in range(1, x.n + 1):
            edges[sigma(i) - 1] = x.edges[i - 1]
        return PPFun._trusted(x.n, x.center, tuple(edges))
    raise TypeError(f"cannot act on {x!r}")
