"""The convolution *-algebra of a star-space germ groupoid, in exact normal form.

An element is stored as the function it defines on the groupoid: one
piecewise polynomial per admissible edge pair (a "strip") plus one value per
group element (the values at the center germs).  Two sums of sheets with the
same values are therefore identified, and equality is decidable.

The normal form must satisfy the gluing law tying each strip's limit at the
center to the sum of center values over the group elements inducing that
edge pair; this is the computational signature of a non-Hausdorff groupoid.
It is checked on the validating path, where every element from outside the
algebra comes in (the sign element, explicit normal forms); sheets, sums,
scalings, adjoints and products of valid elements, sampled sums of sheets
and the images of ``rep.phi`` obey it by construction.

The center values are a ``GroupAlgebraElement``, the one type of the group
algebra C[G] here and in ``rep``: integer (re, im) numerators over one
denominator, indexed by position in ``group.elements``.  Its sum, scale,
involution, equality, the gluing sums over the pairs (i, sigma(i)) and the
product ``group_convolve`` (a scaling when one operand is c delta_e, every
other product of group elements read from the group's Cayley table) all
work on those integers; ``Scalar``s and ``Permutation``s appear only at
its edges.

The paper's first counterexample is the sign element: the center values
sign(sigma) and no strips.  It glues on any star whose point stabilizers
each hold an odd permutation (the 4-edge cross, S_n for n >= 3), where it is
central and spans an ideal missing the diagonal; elsewhere the gluing law
refuses it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .germs import CenterGerm, EdgeGerm, GermError, GermGroupoid
from .perms import PermGroup, Permutation
from .poly import PiecewisePoly, _scalar, common_refinement
from .scalars import ONE, ZERO, Scalar, as_scalar, render_parts
from .starspace import PPFun

_PPZERO = PiecewisePoly.zero()

# products with at most this many pairs of support elements are summed in a
# Python loop; past it, numpy's fixed cost per call is the smaller one
SMALL_PRODUCT = 64
# the numpy product gathers at most this many table entries per step
_CHUNK = 1 << 16

_new = object.__new__


class GroupAlgebraElement:
    """An element of the group algebra C[G] of a permutation group G: a
    function on G with Gaussian-rational values, with the convolution
    product and the involution a*(s) = conj a(s^-1).

    The value at ``group.elements[positions[k]]`` is (re[k] + im[k] i) / d.
    The form is canonical: positions ascending, no zero value, d > 0 and
    gcd(d, every re, every im) == 1, zero as empty tuples over 1.  So
    equality and hashing compare integers.  The constructor takes a
    {Permutation: scalar} dict; ``coeff``, ``support``, ``items`` and
    ``repr`` hand out ``Permutation``s and ``Scalar``s.
    """

    __slots__ = ("group", "positions", "re", "im", "d")

    def __init__(self, group: PermGroup, coeffs):
        index = group.index
        entries = []
        for s, c in coeffs.items():
            c = as_scalar(c)
            if s not in group:
                raise ValueError(f"{s} is not in the group")
            if c:
                entries.append((index[s], c))
        entries.sort(key=lambda e: e[0])
        # over the lcm of canonical denominators no factor is common to all
        d = lcm(*[c._d for _k, c in entries])
        self.group = group
        self.positions = tuple(k for k, _c in entries)
        self.re = tuple(c._a * (d // c._d) for _k, c in entries)
        self.im = tuple(c._b * (d // c._d) for _k, c in entries)
        self.d = d

    @classmethod
    def delta(cls, group: PermGroup, sigma: Permutation) -> "GroupAlgebraElement":
        return cls(group, {sigma: ONE})

    @classmethod
    def zero(cls, group: PermGroup) -> "GroupAlgebraElement":
        return _vector(group, (), (), (), 1)

    @classmethod
    def unit(cls, group: PermGroup) -> "GroupAlgebraElement":
        return _vector(group, (group.index[group.identity],), (1,), (0,), 1)

    # -- the edges: permutations and scalars -------------------------------------

    def coeff(self, sigma: Permutation) -> Scalar:
        k = self.group.index.get(sigma)
        pos = self.positions
        i = bisect_left(pos, k) if k is not None else len(pos)
        if i < len(pos) and pos[i] == k:
            return _scalar(self.re[i], self.im[i], self.d)
        return ZERO

    def support(self) -> list:
        """The elements with a nonzero value, in group order."""
        els = self.group.elements
        return [els[k] for k in self.positions]

    def items(self) -> list:
        """(element, value) pairs of the support, in group order."""
        els, d = self.group.elements, self.d
        return [(els[k], _scalar(a, b, d)) for k, a, b in zip(self.positions, self.re, self.im)]

    def __len__(self):
        return len(self.positions)

    def is_zero(self) -> bool:
        return not self.positions

    # -- the gluing sums -----------------------------------------------------------

    def pair_sums(self) -> dict:
        """{(i, j): (re, im)} for each pair with a nonzero sum: the numerators,
        over d, of the sum of the values at the elements sending i to j.

        These are the entries (j, i) of the integrated representation, and
        the center-value sums of the gluing law, added up at the codes
        q = (i-1)*n + j-1 of the support's ``pair_codes`` rows.
        """
        group = self.group
        n = group.n
        rows = group.pair_code_rows
        re, im = [0] * (n * n), [0] * (n * n)
        for acc, values in ((re, self.re), (im, self.im)):
            if any(values):
                for k, a in zip(self.positions, values):
                    for q in rows[k]:
                        acc[q] += a
        return {
            (q // n + 1, q % n + 1): (a, b) for q, (a, b) in enumerate(zip(re, im)) if a or b
        }

    # -- linear structure ------------------------------------------------------------

    def _check(self, other):
        if self.group is not other.group and self.group != other.group:
            raise ValueError("elements of different group algebras")

    def __add__(self, other):
        self._check(other)
        if not other.positions:
            return self
        if not self.positions:
            return other
        d, e = self.d, other.d
        g = gcd(d, e)
        s, t = e // g, d // g
        acc = {k: (a * s, b * s) for k, a, b in zip(self.positions, self.re, self.im)}
        for k, a, b in zip(other.positions, other.re, other.im):
            if k in acc:
                x, y = acc[k]
                acc[k] = (x + a * t, y + b * t)
            else:
                acc[k] = (a * t, b * t)
        positions = sorted(acc)
        return _reduced(
            self.group, positions,
            [acc[k][0] for k in positions], [acc[k][1] for k in positions], d * s,
        )

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _vector(
            self.group, self.positions,
            tuple(-a for a in self.re), tuple(-b for b in self.im), self.d,
        )

    def scale(self, c) -> "GroupAlgebraElement":
        c = as_scalar(c)
        if not c or not self.positions:
            return GroupAlgebraElement.zero(self.group)
        return _scaled(self, c._a, c._b, c._d)

    def adjoint(self) -> "GroupAlgebraElement":
        """a*(s) = conj a(s^-1): every value moves to its inverse's position."""
        if not self.positions:
            return self
        inv = self.group.inverse_index.item
        positions, re, im = zip(*sorted(zip(map(inv, self.positions), self.re, self.im)))
        return _vector(self.group, positions, re, tuple(-b for b in im), self.d)

    def __mul__(self, other):
        self._check(other)
        return group_convolve(self, other)

    # -- equality ------------------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, GroupAlgebraElement)
            and self.d == other.d
            and self.positions == other.positions
            and self.re == other.re
            and self.im == other.im
            and (self.group is other.group or self.group == other.group)
        )

    def __hash__(self):
        return hash((self.positions, self.re, self.im, self.d))

    def __repr__(self):
        terms = " + ".join(f"({c})d[{s}]" for s, c in self.items())
        return terms or "0"


def _vector(group, positions, re, im, d) -> GroupAlgebraElement:
    """An element from canonical tuples, unchecked."""
    v = _new(GroupAlgebraElement)
    v.group = group
    v.positions = positions
    v.re = re
    v.im = im
    v.d = d
    return v


def _reduced(group, positions, re, im, d) -> GroupAlgebraElement:
    """The element with the values (re[k] + im[k] i)/d, d > 0, at the
    ascending positions: zero values dropped, then divided by one gcd."""
    live = [k for k, (a, b) in enumerate(zip(re, im)) if a or b]
    if len(live) < len(re):
        if not live:
            return GroupAlgebraElement.zero(group)
        positions = [positions[k] for k in live]
        re = [re[k] for k in live]
        im = [im[k] for k in live]
    g = gcd(d, *re, *im)
    if g != 1:
        re = [a // g for a in re]
        im = [b // g for b in im]
        d //= g
    return _vector(group, tuple(positions), tuple(re), tuple(im), d)


def _scaled(x: GroupAlgebraElement, a, b, e) -> GroupAlgebraElement:
    """x times (a + b i)/e for a nonzero scalar: the positions stay, and no
    value vanishes since Gaussian integers have no zero divisors."""
    if b:
        re = [p * a - q * b for p, q in zip(x.re, x.im)]
        im = [p * b + q * a for p, q in zip(x.re, x.im)]
    elif a == e == 1:
        return x
    else:
        re = [p * a for p in x.re]
        im = [q * a for q in x.im]
    d = x.d * e
    g = gcd(d, *re, *im)
    if g != 1:
        re = [p // g for p in re]
        im = [q // g for q in im]
        d //= g
    return _vector(x.group, x.positions, tuple(re), tuple(im), d)


def group_convolve(f: GroupAlgebraElement, g: GroupAlgebraElement) -> GroupAlgebraElement:
    """The group-algebra product (f*g)(t) = sum of f(a) g(b) over ab = t.

    The kernel is exact and works on the numerators, over the denominator
    f.d * g.d.  An operand c delta_e scales the other, and reads no table.
    Every other product reads the position of each product ab from
    ``group.table``.  A small product is summed in a Python loop.  A larger
    one walks the smaller support in steps: for x in f's support it gathers
    g(x^-1 t) for every t from table row x^-1 (for y in g's, f(t y^-1) from
    table column y^-1) and contracts them with matrix products, leaving out
    the imaginary parts of an operand with real values.  That is int64 when
    2 min(|f|, |g|) max|f| max|g| < 2^63 bounds every partial sum, and
    Python ints held in object arrays otherwise.
    """
    group = f.group
    fp, gp = f.positions, g.positions
    if not fp or not gp:
        return GroupAlgebraElement.zero(group)
    # the identity is elements[0], so c delta_e has the positions (0,)
    if fp == (0,):
        return _scaled(g, f.re[0], f.im[0], f.d)
    if gp == (0,):
        return _scaled(f, g.re[0], g.im[0], g.d)
    table = group.table
    d = f.d * g.d
    if len(fp) * len(gp) <= SMALL_PRODUCT:
        product = table.item
        sums = {}
        for x, a, b in zip(fp, f.re, f.im):
            for y, c, e in zip(gp, g.re, g.im):
                t = product(x, y)
                re, im = a * c - b * e, a * e + b * c
                if t in sums:
                    r0, i0 = sums[t]
                    sums[t] = (r0 + re, i0 + im)
                else:
                    sums[t] = (re, im)
        positions = sorted(sums)
        return _reduced(
            group, positions, [sums[t][0] for t in positions], [sums[t][1] for t in positions], d
        )
    bound = 2 * min(len(fp), len(gp)) * max(map(abs, f.re + f.im)) * max(map(abs, g.re + g.im))
    dtype = np.int64 if bound < 1 << 63 else object
    # walk the smaller support; the other operand is read densely
    right = len(gp) < len(fp)
    walk, dense = (g, f) if right else (f, g)
    m = len(group)
    walk_inv = group.inverse_index[list(walk.positions)]
    a_all = np.array(walk.re, dtype=dtype)
    b_all = np.array(walk.im, dtype=dtype) if any(walk.im) else None
    dre, dim = _dense(dense, m, dtype)
    re = np.zeros(m, dtype=dtype)
    im = np.zeros(m, dtype=dtype)
    step = max(1, _CHUNK // m)
    for lo in range(0, len(walk_inv), step):
        x_inv = walk_inv[lo:lo + step]
        # row x^-1 of the table holds x^-1 t, column y^-1 holds t y^-1
        at = (table[:, x_inv].T if right else table[x_inv]).astype(np.intp)
        a, c = a_all[lo:lo + step], dre[at]
        re += a @ c
        if dim is not None:
            e = dim[at]
            im += a @ e
        if b_all is not None:
            b = b_all[lo:lo + step]
            im += b @ c
            if dim is not None:
                re -= b @ e
    live = np.flatnonzero((re != 0) | (im != 0))
    return _reduced(group, live.tolist(), re[live].tolist(), im[live].tolist(), d)


def _dense(v: GroupAlgebraElement, m: int, dtype):
    """v's numerators as length-m arrays, zero off the support; the second
    is None when every value is real."""
    pos = list(v.positions)
    re = np.zeros(m, dtype=dtype)
    re[pos] = v.re
    if not any(v.im):
        return re, None
    im = np.zeros(m, dtype=dtype)
    im[pos] = v.im
    return re, im


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
        """center is a GroupAlgebraElement of the groupoid's group or a
        {Permutation: scalar} dict.

        ``_checked=True`` is the trusted path of ``zero``, ``+``, ``scale``,
        ``adjoint`` and ``*``: it takes a GroupAlgebraElement and checks
        nothing, since each of those operations maps elements that obey the
        gluing law to one that does.  ``sampling.random_algebra_element``
        and ``rep.phi`` take it too: they build each strip with the
        center's pair sum as its limit at 0.  ``from_sheet`` sets the
        fields itself, since a sheet glues by construction.  Every other
        element is validated."""
        self.groupoid = groupoid
        self.strips = {pair: pp for pair, pp in strips.items() if not pp.is_zero()}
        if _checked:
            self.center = center
            return
        group = groupoid.group
        for pair in self.strips:
            if pair not in groupoid.admissible_pairs:
                raise AlgebraError(f"strip {pair} is not an admissible edge pair")
        if isinstance(center, GroupAlgebraElement):
            if center.group != group:
                raise AlgebraError("center values live on another group")
        else:
            for s in center:
                if s not in group:
                    raise AlgebraError(f"{s} is not in the acting group")
            center = GroupAlgebraElement(group, center)
        self.center = center
        self.check_compatible()

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, groupoid: GermGroupoid) -> "AlgebraElement":
        return cls(groupoid, {}, GroupAlgebraElement.zero(groupoid.group), _checked=True)

    @classmethod
    def unit(cls, groupoid: GermGroupoid) -> "AlgebraElement":
        return from_sheet(groupoid, groupoid.group.identity, PPFun.one(groupoid.n))

    # -- the validator ---------------------------------------------------------

    def check_compatible(self):
        """Raise unless every strip's limit at 0 equals its center-value sum."""
        center, strips = self.center, self.strips
        d = center.d
        # sigma contributes its center value to the n pairs (i, sigma(i))
        sums = center.pair_sums()
        bad = [pair for pair in sums if pair not in strips]
        for pair, pp in strips.items():
            # the limit at 0 is the constant term a0/e of the first piece
            p = pp.polys[0]
            e, a, b = p[:3] if p else (1, 0, 0)
            re, im = sums.get(pair, (0, 0))
            if a * d != re * e or b * d != im * e:
                bad.append(pair)
        if bad:
            bad = set(bad)
            for pair in self.groupoid.sorted_pairs:
                if pair in bad:
                    i, j = pair
                    lim = self.strip(i, j).at0()
                    total = _scalar(*sums.get(pair, (0, 0)), d)
                    raise CompatibilityError(
                        f"strip ({i},{j}) has limit {lim} at the center but the "
                        f"center values sum to {total}"
                    )

    # -- accessors ---------------------------------------------------------

    def strip(self, i: int, j: int) -> PiecewisePoly:
        return self.strips.get((i, j), _PPZERO)

    def center_value(self, sigma: Permutation) -> Scalar:
        return self.center.coeff(sigma)

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
        return AlgebraElement(self.groupoid, strips, self.center + other.center, _checked=True)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "AlgebraElement":
        c = as_scalar(c)
        return AlgebraElement(
            self.groupoid,
            {pair: pp.scale(c) for pair, pp in self.strips.items()},
            self.center.scale(c),
            _checked=True,
        )

    def adjoint(self) -> "AlgebraElement":
        """Involution f*(germ) = conj f(germ^{-1})."""
        return AlgebraElement(
            self.groupoid,
            {(j, i): pp.conj() for (i, j), pp in self.strips.items()},
            self.center.adjoint(),
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
        center = group_convolve(self.center, other.center)
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
        return hash((self.groupoid, frozenset(self.strips.items()), self.center))

    def __repr__(self):
        return (
            f"AlgebraElement({len(self.strips)} strips, "
            f"center support {len(self.center)})"
        )

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Strips and center values rendered from their integers: a piece
        is (d, a0, b0, a1, b1, ...), a center value (re + im i)/d."""
        strips = [
            {
                "source": i,
                "range": j,
                "breaks": [str(b) for b in pp.breaks],
                "pieces": [[render_parts(a, b, p[0]) for a, b in zip(p[1::2], p[2::2])]
                           for p in pp.polys],
            }
            for (i, j), pp in sorted(self.strips.items())
        ]
        c = self.center
        els, d = c.group.elements, c.d
        center = [
            {"perm": els[k].cycle_string(), "value": render_parts(a, b, d)}
            for k, a, b in zip(c.positions, c.re, c.im)
        ]
        return {"strips": strips, "center": center}


# ---------------------------------------------------------------------------
# constructors from the unit space


def from_sheet(groupoid: GermGroupoid, sigma: Permutation, h) -> "AlgebraElement":
    """The element supported on the sheet of sigma with coefficient h.

    The constant-1 case is the unitary indicator of sigma's sheet; sheets
    generate the implemented class.

    Once sigma is in the group and h, a ``PPFun``, lives on the groupoid's
    star, the result is built without a check: sigma alone contributes to
    the n pairs (i, sigma(i)), and there the strip is h's edge i, whose
    limit at 0 is h's center value, as in every ``PPFun``.  So the gluing
    law holds by construction.  The strips are h's nonzero edges and the
    center is h(0)'s canonical triple at sigma's position.
    """
    group = groupoid.group
    k = group.index.get(sigma)
    if k is None:
        raise AlgebraError(f"{sigma} is not in the acting group")
    if isinstance(h, (int, Fraction, Scalar)):
        h = PPFun.const(groupoid.n, h)
    if not isinstance(h, PPFun):
        raise AlgebraError("the coefficient is not a continuous function on the star")
    if h.n != groupoid.n:
        raise AlgebraError("coefficient function lives on the wrong star")
    c = h.center
    f = _new(AlgebraElement)
    f.groupoid = groupoid
    f.strips = {pair: e for pair, e in zip(enumerate(sigma.images, 1), h.edges)
                if not e.is_zero()}
    f.center = (_vector(group, (k,), (c._a,), (c._b,), c._d) if c
                else GroupAlgebraElement.zero(group))
    return f


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
# the sign element: a central element whose ideal misses the diagonal


def cross_generators(groupoid: GermGroupoid):
    """The sheet indicators of the acting group, in group order."""
    one = PPFun.one(groupoid.n)
    return [from_sheet(groupoid, s, one) for s in groupoid.group]


def cross_central_element(groupoid: GermGroupoid) -> AlgebraElement:
    """The sign element f = sum of sign(sigma) delta_sigma, with no strips.

    It glues exactly when every point stabilizer holds an odd permutation,
    since then each set {sigma : sigma(i) = j} is sign-balanced.  Then
    g*f = f*g = lambda(g) f and f*f = |G| f, so f spans a one-dimensional
    ideal meeting the diagonal only in 0; on the 4-edge cross its center
    values are (1,-1,-1,1).  Elsewhere the validating constructor raises
    ``CompatibilityError`` at the lowest failing pair, on A4 "strip (1,1)
    has limit 0 at the center but the center values sum to 3".
    """
    group = groupoid.group
    m = len(group)
    center = _vector(group, tuple(range(m)), group.signs, (0,) * m, 1)
    return AlgebraElement(groupoid, {}, center)


def lambda_scalar(g: AlgebraElement) -> Scalar:
    """The scalar lambda(g) = sum of sign(sigma) g(sigma) over the center
    germs, by which g acts on the sign element from either side."""
    center = g.center
    signs = center.group.signs
    re = sum(signs[k] * a for k, a in zip(center.positions, center.re))
    im = sum(signs[k] * b for k, b in zip(center.positions, center.im))
    return _scalar(re, im, center.d)


def has_nonunit_value(f: AlgebraElement) -> bool:
    """True when f is nonzero at some non-unit germ, i.e. f is not a diagonal
    (unit-space) element."""
    group = f.groupoid.group
    if f.center.positions not in ((), (group.index[group.identity],)):
        return True
    return any(i != j for (i, j) in f.strips)


@dataclass
class CentralIdealReport:
    all_commute: bool  # g*f == f*g == lambda(g) f for every test element
    not_in_C0: bool
    span_meets_diagonal_trivially: bool

    @property
    def ok(self) -> bool:
        return self.all_commute and self.not_in_C0 and self.span_meets_diagonal_trivially


def verify_central_ideal(f: AlgebraElement, tests) -> CentralIdealReport:
    """Check g*f = f*g = lambda(g) f exactly for each test element, and that
    the line through f misses the diagonal subalgebra.  ``tests`` may be any
    iterable: each element is checked, both products, and dropped before the
    next is taken."""
    all_commute = True
    for g in tests:
        expected = f.scale(lambda_scalar(g))
        all_commute &= (g * f == expected) & (f * g == expected)
    nonunit = has_nonunit_value(f)
    # a nonzero multiple of f has the same nonunit support, so the span of f
    # meets the diagonal subalgebra only in 0 exactly when f has a nonunit value
    return CentralIdealReport(all_commute, nonunit, nonunit or f.is_zero())


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
    return SupportDescriptor(strips, tuple(f.center.support()))


def _live_pieces(strips_by_key):
    """Walk the common refinement of the strips in strips_by_key, which maps
    an edge index to a PiecewisePoly, yielding (lo, hi, live): live lists, in
    key order, the keys whose strip is not identically zero on (lo, hi].  A
    continuous piecewise polynomial is nonzero somewhere on a refined piece
    iff its polynomial there is not zero."""
    if not strips_by_key:
        return
    keys = sorted(strips_by_key)
    breaks, columns = common_refinement([strips_by_key[k] for k in keys])
    for m in range(len(breaks) - 1):
        yield breaks[m], breaks[m + 1], [k for k, col in zip(keys, columns) if col[m]]


def is_bisection_support(f: AlgebraElement):
    """Whether the open support of f is a bisection, with a witness if not.

    Fails iff two center values are nonzero (all center germs share source
    and range), or two strips with a common source edge, or with a common
    range edge, are simultaneously nonzero.
    """
    center = f.center.support()
    if len(center) >= 2:
        return False, ("center", tuple(center))
    for side, shared in (("source", 0), ("range", 1)):
        for e in range(1, f.groupoid.n + 1):
            others = {pair[1 - shared]: pp for pair, pp in f.strips.items() if pair[shared] == e}
            for lo, hi, live in _live_pieces(others):
                if len(live) >= 2:
                    return False, (side, e, live[0], live[1], (lo, hi))
    return True, None


@dataclass(frozen=True)
class PointMap:
    """A partial map on star points, read off the support of a normalizer:
    source points go to range points over the support."""

    n: int
    edge_segments: tuple  # ((i, ((lo, hi, j), ...)), ...)
    center_fixed: bool

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
            # a multi-valued support map raises instead of building a PointMap
            "well_defined": True,
        }


def _support_point_map(u: AlgebraElement) -> PointMap:
    """The source-to-range map over the open support of a u already checked
    to be unitary; a multi-valued support map means u does not implement a
    transformation of the star."""
    G = u.groupoid
    segments = []
    for i in range(1, G.n + 1):
        segs = []
        for lo, hi, live in _live_pieces({j: pp for (si, j), pp in u.strips.items() if si == i}):
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
