"""Polynomials and continuous piecewise polynomials on [0,1], all exact.

A polynomial is a tuple of Scalar coefficients, lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  A PiecewisePoly
carries rational breakpoints 0 = b0 < ... < bm = 1 and one polynomial per
piece (b_k, b_{k+1}], with matching values at interior breakpoints.

Binary operations work piece by piece on the common refinement of the two
breakpoint tuples.  ``_merge`` builds it in one linear pass, comparing two
breakpoints x, y by the integers x.numerator*y.denominator and
y.numerator*x.denominator; equal tuples come back as they are.
``common_refinement`` folds the same merge over any number of piecewise
polynomials.  ``pmul`` multiplies over the integers: it scales each factor's
coefficients to one common denominator, accumulates every output coefficient
as an integer pair (re, im), and reduces it once by a gcd.

Trusted path: ``PiecewisePoly(breaks, polys, _checked=True)`` takes its
arguments as given.  Its caller must pass ``Fraction`` breakpoints and
trimmed polynomials forming a valid continuous function; every caller inside
this package does (the operations below keep both properties).  Outside
input, and every function the sampler draws, goes through the validating
path, ``_checked=False``.  It checks over the integers: breakpoints that are
already ``Fraction`` and tuple polynomials that are already trimmed are kept
as they are, "strictly increasing" compares cross products as ``_merge``
does, and continuity evaluates both neighbouring pieces at each interior
breakpoint by ``_horner`` and compares the two values by cross products.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd

from .scalars import ZERO, Scalar, _make, as_scalar

PZERO = ()
PONE = (Scalar(1),)
_UNIT_INTERVAL = (Fraction(0), Fraction(1))


def ptrim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return tuple(coeffs)


def pconst(c) -> tuple:
    return ptrim((as_scalar(c),))


def padd(p, q):
    if not p:
        return q
    if not q:
        return p
    n = max(len(p), len(q))
    return ptrim(
        (p[k] if k < len(p) else ZERO) + (q[k] if k < len(q) else ZERO)
        for k in range(n)
    )


def pneg(p):
    return tuple(-c for c in p)


def psub(p, q):
    return padd(p, pneg(q))


def _common_denominator(p):
    """(lcm of the coefficient denominators, [(a, b) scaled to it, ...])."""
    den = 1
    for c in p:
        d = c._d
        if den % d:
            den = den * d // gcd(den, d)
    return den, [(c._a * (den // c._d), c._b * (den // c._d)) for c in p]


def pmul(p, q):
    if not p or not q:
        return PZERO
    dp, ps = _common_denominator(p)
    dq, qs = _common_denominator(q)
    size = len(p) + len(q) - 1
    re = [0] * size
    im = [0] * size
    for i, (a, b) in enumerate(ps):
        for j, (c, e) in enumerate(qs, i):
            re[j] += a * c - b * e
            im[j] += a * e + b * c
    while size and not (re[size - 1] or im[size - 1]):
        size -= 1
    den = dp * dq
    out = []
    for k in range(size):
        a, b = re[k], im[k]
        g = gcd(a, b, den)
        out.append(_make(a // g, b // g, den // g))
    return tuple(out)


def pscale(c, p):
    c = as_scalar(c)
    if c.is_zero():
        return PZERO
    return ptrim(c * a for a in p)


def pconj(p):
    # conj of the function on real arguments: conjugate the coefficients
    return tuple(a.conjugate() for a in p)


def _horner(p, num: int, den: int):
    """(re, im, d) with p(num/den) = (re + im*i)/d and d > 0, not reduced."""
    if not p:
        return 0, 0, 1
    top = p[-1]
    re, im, d = top._a, top._b, top._d
    for k in range(len(p) - 2, -1, -1):
        c = p[k]
        # (re + im*i)/d * num/den + c
        cd = c._d
        scale = d * den
        re = re * num * cd + c._a * scale
        im = im * num * cd + c._b * scale
        d = scale * cd
    return re, im, d


def peval(p, t) -> Scalar:
    t = as_scalar(t) if not isinstance(t, Fraction) else Scalar(t)
    acc = ZERO
    for c in reversed(p):
        acc = acc * t + c
    return acc


class PiecewisePoly:
    """A continuous piecewise polynomial on (0,1] with a limit value at 0.

    The stored pieces are automatically normalized: adjacent pieces with the
    same polynomial are merged, so equal functions compare equal.
    """

    __slots__ = ("breaks", "polys")

    def __init__(self, breaks, polys, _checked=False):
        if not _checked:
            breaks = tuple(b if b.__class__ is Fraction else Fraction(b) for b in breaks)
            polys = tuple(
                p if p.__class__ is tuple and not (p and p[-1].is_zero()) else ptrim(p)
                for p in polys
            )
            if len(breaks) < 2 or len(polys) != len(breaks) - 1:
                raise ValueError("breakpoint/piece count mismatch")
            if breaks[0] != 0 or breaks[-1] != 1:
                raise ValueError("breakpoints must run from 0 to 1")
            if any(a.numerator * b.denominator >= b.numerator * a.denominator
                   for a, b in zip(breaks, breaks[1:])):
                raise ValueError("breakpoints must be strictly increasing")
            for k in range(1, len(polys)):
                t = breaks[k]
                a, b, d = _horner(polys[k - 1], t.numerator, t.denominator)
                c, e, f = _horner(polys[k], t.numerator, t.denominator)
                if a * f != c * d or b * f != e * d:
                    raise ValueError(f"discontinuity at t={t}")
        if len(polys) == 1:
            self.breaks, self.polys = tuple(breaks), tuple(polys)
            return
        # merge adjacent identical pieces
        mb = [breaks[0]]
        mp = []
        for k, p in enumerate(polys):
            if mp and mp[-1] == p:
                mb[-1] = breaks[k + 1]
            else:
                mp.append(p)
                mb.append(breaks[k + 1])
        self.breaks = tuple(mb)
        self.polys = tuple(mp)

    @classmethod
    def zero(cls) -> "PiecewisePoly":
        return cls(_UNIT_INTERVAL, (PZERO,), _checked=True)

    @classmethod
    def const(cls, c) -> "PiecewisePoly":
        return cls(_UNIT_INTERVAL, (pconst(c),), _checked=True)

    @classmethod
    def from_poly(cls, p) -> "PiecewisePoly":
        return cls(_UNIT_INTERVAL, (ptrim(p),), _checked=True)

    def at0(self) -> Scalar:
        """Limit value as t -> 0+ (the first piece evaluated at 0)."""
        p = self.polys[0]
        return p[0] if p else ZERO

    def __call__(self, t) -> Scalar:
        t = Fraction(t)
        if not 0 < t <= 1:
            raise ValueError(f"t={t} outside (0,1]")
        k = bisect_left(self.breaks, t) - 1
        return peval(self.polys[k], t)

    def _aligned(self, other):
        """(breaks, mine, theirs): both functions' pieces on the common refinement."""
        return _merge(self.breaks, self.polys, other.breaks, other.polys)

    def _zip(self, other, op):
        breaks, mine, theirs = self._aligned(other)
        return PiecewisePoly(breaks, [op(p, q) for p, q in zip(mine, theirs)], _checked=True)

    def __add__(self, other):
        return self._zip(other, padd)

    def __sub__(self, other):
        return self._zip(other, psub)

    def __mul__(self, other):
        return self._zip(other, pmul)

    def __neg__(self):
        return PiecewisePoly(self.breaks, [pneg(p) for p in self.polys], _checked=True)

    def scale(self, c) -> "PiecewisePoly":
        return PiecewisePoly(self.breaks, [pscale(c, p) for p in self.polys], _checked=True)

    def conj(self) -> "PiecewisePoly":
        return PiecewisePoly(self.breaks, [pconj(p) for p in self.polys], _checked=True)

    def is_zero(self) -> bool:
        return all(not p for p in self.polys)

    def pieces(self):
        for k, p in enumerate(self.polys):
            yield self.breaks[k], self.breaks[k + 1], p

    def nonzero_intervals(self):
        """Maximal intervals (lo, hi] of pieces whose polynomial is not identically zero."""
        out = []
        for lo, hi, p in self.pieces():
            if not p:
                continue
            if out and out[-1][1] == lo:
                out[-1] = (out[-1][0], hi)
            else:
                out.append((lo, hi))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, PiecewisePoly)
            and self.breaks == other.breaks
            and self.polys == other.polys
        )

    def __hash__(self):
        return hash((self.breaks, self.polys))

    def __repr__(self):
        bits = ", ".join(f"({lo},{hi}]:{list(map(str, p))}" for lo, hi, p in self.pieces())
        return f"PiecewisePoly[{bits}]"


def _merge(xs, a, ys, b):
    """Align the per-piece sequences a (over breaks xs) and b (over ys).

    xs and ys are strictly increasing Fraction tuples from 0 to 1.  Returns
    (breaks, a', b') where breaks is their common refinement and a'[k], b'[k]
    are the entries of a and b whose pieces contain refined piece k.
    """
    if len(xs) == 2:
        return ys, [a[0]] * len(b), b
    if len(ys) == 2:
        return xs, a, [b[0]] * len(a)
    if len(xs) == len(ys) and xs == ys:
        return xs, a, b
    breaks = [xs[0]]
    ma = []
    mb = []
    i = j = 1
    last = len(xs) - 1
    x, y = xs[1], ys[1]
    xn, xd = x.numerator, x.denominator
    yn, yd = y.numerator, y.denominator
    while True:
        ma.append(a[i - 1])
        mb.append(b[j - 1])
        left, right = xn * yd, yn * xd
        if left < right:
            breaks.append(x)
            i += 1
            x = xs[i]
            xn, xd = x.numerator, x.denominator
        elif left > right:
            breaks.append(y)
            j += 1
            y = ys[j]
            yn, yd = y.numerator, y.denominator
        else:
            breaks.append(x)
            if i == last:  # both tuples end at 1
                return breaks, ma, mb
            i += 1
            j += 1
            x, y = xs[i], ys[j]
            xn, xd = x.numerator, x.denominator
            yn, yd = y.numerator, y.denominator


def common_refinement(pps):
    """(breaks, columns) for a nonempty sequence of piecewise polynomials:
    breaks is the common refinement of their breakpoints, and columns[m][k]
    the polynomial of pps[m] on refined piece k."""
    breaks = pps[0].breaks
    columns = [pps[0].polys]
    for pp in pps[1:]:
        merged, left, right = _merge(breaks, range(len(breaks) - 1), pp.breaks, pp.polys)
        if len(merged) != len(breaks):
            columns = [[col[k] for k in left] for col in columns]
        columns.append(right)
        breaks = merged
    return breaks, columns
