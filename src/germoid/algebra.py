"""The convolution *-algebra of a star-space germ groupoid, in exact normal form.

An element is stored as the function it defines on the groupoid: one
piecewise polynomial per admissible edge pair (a "strip") plus one scalar per
group element (the values at the center germs).  Two sums of sheets with the
same values are therefore identified, and equality is decidable.

The normal form must satisfy the gluing law tying each strip's limit at the
center to the sum of center values over the group elements inducing that
edge pair; this is the computational signature of a non-Hausdorff groupoid,
and it is checked on every construction.

The center values multiply like a group algebra.  ``group_convolve`` is the
one exact kernel for that product, here and for ``rep.GroupAlgebraElement``:
it works on integer numerators over a common denominator and reads every
product of group elements from the group's Cayley table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .germs import CenterGerm, EdgeGerm, GermError, GermGroupoid
from .perms import PermGroup, Permutation, parse_cycles
from .poly import PiecewisePoly, coeffs, common_refinement
from .scalars import ZERO, Scalar, _make, as_scalar, render_scalar
from .starspace import CENTER, CenterPoint, EdgePoint, PPFun, edge_index

_PPZERO = PiecewisePoly.zero()

# products with at most this many pairs of support elements are summed in a
# Python loop; past it, numpy's fixed cost per call is the smaller one
SMALL_PRODUCT = 64
# the numpy path scatters at most this many pairs per call
_CHUNK = 1 << 16


def _numerators(values):
    """The scalars as (re[k] + im[k] i) / d over one common denominator d."""
    d = 1
    for v in values:
        d = lcm(d, v._d)
    re, im = [], []
    for v in values:
        k = d // v._d
        re.append(v._a * k)
        im.append(v._b * k)
    return re, im, d


def group_convolve(group: PermGroup, f: dict, g: dict) -> dict:
    """The group-algebra product (f*g)(t) = sum of f(a) g(b) over ab = t.

    f and g map group elements to nonzero scalars, and so does the result.
    The kernel is exact and works on integers: each operand's values become
    (re, im) numerators over one common denominator, the position of every
    product ab is read from ``group.table``, and the sums become scalars
    again only at the end.  A small product is summed in a Python loop; a
    larger one is scattered with numpy, in int64 when
    2 min(|f|, |g|) max|f| max|g| < 2^63 bounds every partial sum (a row or
    column of the table hits each position once) and in Python ints held in
    object arrays otherwise.
    """
    if not f or not g:
        return {}
    index = group.index
    fi = [index[s] for s in f]
    gi = [index[s] for s in g]
    fre, fim, fd = _numerators(f.values())
    gre, gim, gd = _numerators(g.values())
    if len(fi) * len(gi) <= SMALL_PRODUCT:
        sums = {}
        product = group.table.item
        for x, a, b in zip(fi, fre, fim):
            for y, c, e in zip(gi, gre, gim):
                t = product(x, y)
                re, im = a * c - b * e, a * e + b * c
                if t in sums:
                    r0, i0 = sums[t]
                    sums[t] = (r0 + re, i0 + im)
                else:
                    sums[t] = (re, im)
        items = sums.items()
    else:
        bound = 2 * min(len(fi), len(gi)) * max(map(abs, fre + fim)) * max(map(abs, gre + gim))
        dtype = np.int64 if bound < 1 << 63 else object
        fi, gi = np.array(fi), np.array(gi)
        fre, fim = np.array(fre, dtype=dtype)[:, None], np.array(fim, dtype=dtype)[:, None]
        gre, gim = np.array(gre, dtype=dtype), np.array(gim, dtype=dtype)
        re = np.zeros(len(group), dtype=dtype)
        im = np.zeros(len(group), dtype=dtype)
        step = max(1, _CHUNK // len(gi))
        for lo in range(0, len(fi), step):
            hit = group.table[np.ix_(fi[lo:lo + step], gi)].ravel()
            a, b = fre[lo:lo + step], fim[lo:lo + step]
            np.add.at(re, hit, (a * gre - b * gim).ravel())
            np.add.at(im, hit, (a * gim + b * gre).ravel())
        live = np.flatnonzero((re != 0) | (im != 0))
        items = zip(live.tolist(), zip(re[live].tolist(), im[live].tolist()))
    d = fd * gd
    els = group.elements
    out = {}
    for t, (re, im) in items:
        if re or im:
            k = gcd(re, im, d)
            out[els[t]] = _make(re // k, im // k, d // k)
    return out


class AlgebraError(ValueError):
    pass


class CompatibilityError(AlgebraError):
    """The strip limits at the center do not match the center-value sums."""


class NotNormalizerError(AlgebraError):
    pass


class AlgebraElement:
    """An element of the convolution algebra, in normal form."""

    __slots__ = ("groupoid", "strips", "center")

    def __init__(self, groupoid: GermGroupoid, strips, center, _checked=False):
        self.groupoid = groupoid
        self.strips = {pair: pp for pair, pp in strips.items() if not pp.is_zero()}
        self.center = {s: as_scalar(c) for s, c in center.items() if as_scalar(c)}
        if not _checked:
            for pair in self.strips:
                if pair not in groupoid.admissible_pairs:
                    raise AlgebraError(f"strip {pair} is not an admissible edge pair")
            for s in self.center:
                if s not in groupoid.group:
                    raise AlgebraError(f"{s} is not in the acting group")
        self.check_compatible()

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, groupoid: GermGroupoid) -> "AlgebraElement":
        return cls(groupoid, {}, {}, _checked=True)

    @classmethod
    def unit(cls, groupoid: GermGroupoid) -> "AlgebraElement":
        return from_sheet(groupoid, groupoid.group.identity, PPFun.one(groupoid.n))

    # -- the validator ---------------------------------------------------------

    def check_compatible(self):
        """Raise unless every strip's limit at 0 equals its center-value sum."""
        # sigma contributes its center value to the n pairs (i, sigma(i))
        sums = {}
        for s, c in self.center.items():
            for pair in enumerate(s.images, 1):
                sums[pair] = sums[pair] + c if pair in sums else c
        strips = self.strips
        for pair in self.groupoid.admissible_pairs:
            lim = strips[pair].at0() if pair in strips else ZERO
            total = sums.get(pair, ZERO)
            if lim != total:
                i, j = pair
                raise CompatibilityError(
                    f"strip ({i},{j}) has limit {lim} at the center but the "
                    f"center values sum to {total}"
                )

    # -- accessors ---------------------------------------------------------

    def strip(self, i: int, j: int) -> PiecewisePoly:
        return self.strips.get((i, j), _PPZERO)

    def center_value(self, sigma: Permutation) -> Scalar:
        return self.center.get(sigma, ZERO)

    def evaluate(self, germ) -> Scalar:
        if not self.groupoid.contains(germ):
            raise GermError(f"{germ!r} is not a germ of this groupoid")
        if isinstance(germ, EdgeGerm):
            return self.strip(germ.i, germ.j)(germ.t)
        return self.center_value(germ.sigma)

    def is_zero(self) -> bool:
        return not self.strips and not self.center

    # -- linear structure ----------------------------------------------------

    def _check(self, other):
        if not isinstance(other, AlgebraElement) or other.groupoid != self.groupoid:
            raise AlgebraError("elements live on different groupoids")

    def __add__(self, other):
        self._check(other)
        strips = dict(self.strips)
        for pair, pp in other.strips.items():
            strips[pair] = strips[pair] + pp if pair in strips else pp
        center = dict(self.center)
        for s, c in other.center.items():
            center[s] = center[s] + c if s in center else c
        return AlgebraElement(self.groupoid, strips, center, _checked=True)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "AlgebraElement":
        c = as_scalar(c)
        return AlgebraElement(
            self.groupoid,
            {pair: pp.scale(c) for pair, pp in self.strips.items()},
            {s: c * v for s, v in self.center.items()},
            _checked=True,
        )

    def adjoint(self) -> "AlgebraElement":
        """Involution f*(germ) = conj f(germ^{-1})."""
        return AlgebraElement(
            self.groupoid,
            {(j, i): pp.conj() for (i, j), pp in self.strips.items()},
            {s.inverse(): v.conjugate() for s, v in self.center.items()},
            _checked=True,
        )

    # -- convolution ---------------------------------------------------------

    def __mul__(self, other):
        """Convolution: (f*g)(germ) = sum of f(a)g(b) over factorizations ab."""
        self._check(other)
        # g's strips by range edge: f's strip (k, j) meets g's strips (i, k)
        by_range = {}
        for (i, k), gs in other.strips.items():
            by_range.setdefault(k, []).append((i, gs))
        strips = {}
        for (k, j), fs in self.strips.items():
            for i, gs in by_range.get(k, ()):
                term = fs * gs
                pair = (i, j)
                strips[pair] = strips[pair] + term if pair in strips else term
        center = group_convolve(self.groupoid.group, self.center, other.center)
        return AlgebraElement(self.groupoid, strips, center, _checked=True)

    # -- equality ------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.groupoid == other.groupoid
            and self.strips == other.strips
            and self.center == other.center
        )

    def __hash__(self):
        return hash(
            (self.groupoid, frozenset(self.strips.items()), frozenset(self.center.items()))
        )

    def __repr__(self):
        return (
            f"AlgebraElement({len(self.strips)} strips, "
            f"center support {len(self.center)})"
        )

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        strips = [
            {
                "source": i,
                "range": j,
                "breaks": [str(b) for b in pp.breaks],
                "pieces": [[render_scalar(c) for c in coeffs(p)] for p in pp.polys],
            }
            for (i, j), pp in sorted(self.strips.items())
        ]
        center = [
            {"perm": s.cycle_string(), "value": render_scalar(v)}
            for s, v in sorted(self.center.items())
        ]
        return {"strips": strips, "center": center}


# ---------------------------------------------------------------------------
# constructors from the unit space


def from_sheet(groupoid: GermGroupoid, sigma: Permutation, h) -> "AlgebraElement":
    """The element supported on the sheet of sigma with coefficient h.

    The constant-1 case is the unitary indicator of sigma's sheet; sheets
    generate the implemented class.
    """
    if sigma not in groupoid.group:
        raise AlgebraError(f"{sigma} is not in the acting group")
    if isinstance(h, (int, Fraction, Scalar)):
        h = PPFun.const(groupoid.n, h)
    if h.n != groupoid.n:
        raise AlgebraError("coefficient function lives on the wrong star")
    strips = {}
    for i in range(1, groupoid.n + 1):
        strips[(i, sigma(i))] = h.edges[i - 1]
    return AlgebraElement(groupoid, strips, {sigma: h.center})


def embed_C0(groupoid: GermGroupoid, h) -> "AlgebraElement":
    """Embed a continuous function on the star as a diagonal element."""
    return from_sheet(groupoid, groupoid.group.identity, h)


def evaluate_convolution_pointwise(f: AlgebraElement, g: AlgebraElement, germ) -> Scalar:
    """Sum f(a)g(b) over factorizations ab = germ, straight from the definition.

    Independent of the normal-form convolution; used as its oracle.
    """
    G = f.groupoid
    if isinstance(germ, CenterGerm):
        total = ZERO
        for b in G.group:
            a = germ.sigma * b.inverse()
            total = total + f.evaluate(CenterGerm(a)) * g.evaluate(CenterGerm(b))
        return total
    total = ZERO
    for k in range(1, G.n + 1):
        if (germ.i, k) in G.admissible_pairs and (k, germ.j) in G.admissible_pairs:
            a = EdgeGerm(germ.t, k, germ.j)
            b = EdgeGerm(germ.t, germ.i, k)
            total = total + f.evaluate(a) * g.evaluate(b)
    return total


# ---------------------------------------------------------------------------
# conditional expectation onto the unit space


class UnitSpaceFunction:
    """A function on the star that may be discontinuous at the center.

    This is the codomain of the conditional expectation: restricting an
    algebra element to the unit space keeps the diagonal strips and the
    identity's center value, and on a non-Hausdorff groupoid those need not
    glue continuously.
    """

    __slots__ = ("n", "center", "edges")

    def __init__(self, n: int, center, edges):
        self.n = n
        self.center = as_scalar(center)
        self.edges = tuple(edges)

    def eval(self, p) -> Scalar:
        if isinstance(p, CenterPoint):
            return self.center
        if isinstance(p, EdgePoint):
            return self.edges[edge_index(p, self.n)](p.t)
        raise TypeError(f"not a star point: {p!r}")

    __call__ = eval

    def is_zero(self) -> bool:
        return self.center.is_zero() and all(e.is_zero() for e in self.edges)

    def is_continuous(self) -> bool:
        return all(e.at0() == self.center for e in self.edges)

    def __eq__(self, other):
        return (
            isinstance(other, UnitSpaceFunction)
            and (self.n, self.center, self.edges) == (other.n, other.center, other.edges)
        )

    def __repr__(self):
        return f"UnitSpaceFunction(n={self.n}, center={self.center})"


def conditional_expectation(f: AlgebraElement) -> UnitSpaceFunction:
    """Restriction to the unit space: diagonal strips plus the identity's value."""
    G = f.groupoid
    return UnitSpaceFunction(
        G.n,
        f.center_value(G.group.identity),
        [f.strip(i, i) for i in range(1, G.n + 1)],
    )


# ---------------------------------------------------------------------------
# the cross example: central element and its ideal


# built once: every cross-specific operation compares its groupoid with this one
_CROSS = GermGroupoid.cross()
_SX = parse_cycles("(1 2)", 4)
_SY = parse_cycles("(3 4)", 4)
_SXY = _SX * _SY


def _require_cross(groupoid: GermGroupoid):
    if groupoid != _CROSS:
        raise AlgebraError("this operation is specific to the 4-edge cross groupoid")


def cross_generators(groupoid: GermGroupoid):
    """The four sheet indicators of the cross group, in group order."""
    _require_cross(groupoid)
    return [from_sheet(groupoid, s, PPFun.one(4)) for s in groupoid.group]


def cross_central_element(groupoid: GermGroupoid) -> AlgebraElement:
    """The alternating sum of the four sheet indicators.

    Its strips all cancel, leaving the center value table (1,-1,-1,1); it
    spans a one-dimensional two-sided ideal meeting the diagonal only in 0.
    """
    _require_cross(groupoid)
    one = PPFun.one(4)
    return (
        from_sheet(groupoid, groupoid.group.identity, one)
        - from_sheet(groupoid, _SX, one)
        - from_sheet(groupoid, _SY, one)
        + from_sheet(groupoid, _SXY, one)
    )


def lambda_scalar(g: AlgebraElement) -> Scalar:
    """The scalar by which multiplication against the central element acts."""
    _require_cross(g.groupoid)
    return (
        g.center_value(g.groupoid.group.identity)
        - g.center_value(_SX)
        - g.center_value(_SY)
        + g.center_value(_SXY)
    )


def has_nonunit_value(f: AlgebraElement) -> bool:
    """True when f is nonzero at some non-unit germ, i.e. f is not a diagonal
    (unit-space) element."""
    if any(not s.is_identity() for s in f.center):
        return True
    return any(i != j for (i, j) in f.strips)


@dataclass
class CentralTestResult:
    lam: Scalar
    left_ok: bool   # g*f == lambda(g) f
    right_ok: bool  # f*g == lambda(g) f


@dataclass
class CentralIdealReport:
    results: list
    not_in_C0: bool
    span_meets_diagonal_trivially: bool

    @property
    def all_commute(self) -> bool:
        return all(r.left_ok and r.right_ok for r in self.results)

    @property
    def ok(self) -> bool:
        return self.all_commute and self.not_in_C0 and self.span_meets_diagonal_trivially


def verify_central_ideal(f: AlgebraElement, tests) -> CentralIdealReport:
    """Check g*f = f*g = lambda(g) f exactly for each test element, and that
    the line through f misses the diagonal subalgebra."""
    results = []
    for g in tests:
        lam = lambda_scalar(g)
        expected = f.scale(lam)
        results.append(CentralTestResult(lam, g * f == expected, f * g == expected))
    nonunit = has_nonunit_value(f)
    # a nonzero multiple of f has the same nonunit support, so the span of f
    # meets the diagonal subalgebra only in 0 exactly when f has a nonunit value
    return CentralIdealReport(results, nonunit, nonunit or f.is_zero())


# ---------------------------------------------------------------------------
# open support, bisections, and the induced point map


@dataclass(frozen=True)
class SupportDescriptor:
    """Where an element is nonzero: intervals per strip (each nonzero off
    finitely many roots) and the center germs carrying nonzero values."""

    strip_intervals: tuple  # ((i, j, ((lo, hi), ...)), ...)
    center_support: tuple   # permutations

    def __str__(self):
        bits = [
            f"({i},{j}): " + ", ".join(f"({lo},{hi}]" for lo, hi in ivs)
            for i, j, ivs in self.strip_intervals
        ]
        bits += [f"[{s}] at center" for s in self.center_support]
        return "; ".join(bits) if bits else "(empty)"


def open_support(f: AlgebraElement) -> SupportDescriptor:
    strips = tuple(
        (i, j, tuple(pp.nonzero_intervals()))
        for (i, j), pp in sorted(f.strips.items())
    )
    return SupportDescriptor(strips, tuple(sorted(f.center)))


def _collision_on_common_piece(strips_by_key):
    """Find two strips sharing an index that are both nonzero somewhere.

    strips_by_key maps the other edge index to a PiecewisePoly; returns
    (key1, key2, (lo, hi)) or None.  Two continuous piecewise polynomials are
    simultaneously nonzero at some point iff they are both not identically
    zero on a common refined piece.
    """
    if len(strips_by_key) < 2:
        return None
    keys = sorted(strips_by_key)
    breaks, columns = common_refinement([strips_by_key[k] for k in keys])
    for m in range(len(breaks) - 1):
        live = [k for k, col in zip(keys, columns) if col[m]]
        if len(live) >= 2:
            return live[0], live[1], (breaks[m], breaks[m + 1])
    return None


def is_bisection_support(f: AlgebraElement):
    """Whether the open support of f is a bisection, with a witness if not.

    Fails iff two center values are nonzero (all center germs share source
    and range), or two strips with a common source edge, or with a common
    range edge, are simultaneously nonzero.
    """
    center = sorted(f.center)
    if len(center) >= 2:
        return False, ("center", tuple(center))
    n = f.groupoid.n
    for i in range(1, n + 1):
        row = {j: pp for (si, j), pp in f.strips.items() if si == i}
        hit = _collision_on_common_piece(row)
        if hit:
            j1, j2, iv = hit
            return False, ("source", i, j1, j2, iv)
    for j in range(1, n + 1):
        col = {i: pp for (i, sj), pp in f.strips.items() if sj == j}
        hit = _collision_on_common_piece(col)
        if hit:
            i1, i2, iv = hit
            return False, ("range", j, i1, i2, iv)
    return True, None


@dataclass(frozen=True)
class PointMap:
    """A partial map on star points, read off the support of a normalizer:
    source points go to range points over the support."""

    n: int
    edge_segments: tuple  # ((i, ((lo, hi, j), ...)), ...)
    center_fixed: bool
    well_defined: bool = True

    def apply(self, p):
        if isinstance(p, CenterPoint):
            return CENTER if self.center_fixed else None
        for i, segs in self.edge_segments:
            if i == p.edge:
                for lo, hi, j in segs:
                    if lo < p.t <= hi:
                        return EdgePoint(j, p.t)
        return None

    def as_permutation(self):
        """The edge permutation inducing this map, if it is one everywhere."""
        images = {}
        for i, segs in self.edge_segments:
            if len(segs) != 1:
                return None
            lo, hi, j = segs[0]
            if lo != 0 or hi != 1:
                return None
            images[i] = j
        if sorted(images) != list(range(1, self.n + 1)):
            return None
        try:
            return Permutation([images[i] for i in range(1, self.n + 1)])
        except ValueError:
            return None

    def to_json_dict(self) -> dict:
        return {
            "edges": [
                {"source": i, "segments": [[str(lo), str(hi), j] for lo, hi, j in segs]}
                for i, segs in self.edge_segments
            ],
            "center_fixed": self.center_fixed,
            "well_defined": self.well_defined,
        }


def induced_point_map(u: AlgebraElement) -> PointMap:
    """The source-to-range map over the open support of a unitary u.

    Requires u*u = uu* = 1 and a single-valued map; a multi-valued support
    map means u does not implement a transformation of the star.
    """
    one = AlgebraElement.unit(u.groupoid)
    if u.adjoint() * u != one or u * u.adjoint() != one:
        raise NotNormalizerError("element is not unitary")
    return _support_point_map(u)


def _support_point_map(u: AlgebraElement) -> PointMap:
    """induced_point_map for a u already checked to be unitary."""
    G = u.groupoid
    segments = []
    for i in range(1, G.n + 1):
        row = sorted((j, pp) for (si, j), pp in u.strips.items() if si == i)
        segs = []
        if not row:
            segments.append((i, ()))
            continue
        keys = [j for j, _pp in row]
        breaks, columns = common_refinement([pp for _j, pp in row])
        for m in range(len(breaks) - 1):
            lo, hi = breaks[m], breaks[m + 1]
            live = [j for j, col in zip(keys, columns) if col[m]]
            if len(live) > 1:
                raise NotNormalizerError(
                    f"support map is multi-valued on edge {i} over ({lo},{hi}]"
                )
            if live:
                j = live[0]
                if segs and segs[-1][1] == lo and segs[-1][2] == j:
                    segs[-1] = (segs[-1][0], hi, j)
                else:
                    segs.append((lo, hi, j))
        segments.append((i, tuple(segs)))
    return PointMap(G.n, tuple(segments), center_fixed=bool(u.center))
