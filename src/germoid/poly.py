"""Polynomials and continuous piecewise polynomials on [0,1], all exact.

A polynomial, or piece, is one flat tuple of ints ``(d, a0, b0, a1, b1, ...)``
standing for the sum of (a_k + b_k*i) t^k / d, lowest degree first.  It is
kept in canonical form: d > 0, gcd(d, every a_k, every b_k) == 1, and the
last pair (a_n, b_n) is not (0, 0); the zero polynomial is the empty tuple,
so ``not p`` tests for zero.  Equal polynomials have equal tuples, so piece
merging, equality and hashing compare ints.

The kernels work on the integers.  ``pmul`` is one integer convolution over
the denominator d_p*d_q and one gcd; a product of nonzero polynomials over
the Gaussian rationals has a nonzero leading coefficient, so it needs no
trim.  ``padd`` and ``psub`` bring both operands to the lcm of their
denominators, add, trim trailing zero pairs and divide by one gcd.
``pneg``, ``pconj`` and ``pscale`` act on the integers directly, and
``_horner`` evaluates a piece at a rational point without reducing.
``Scalar``s appear only at the edges: ``pconst`` and ``from_scalars`` take
them in, ``coeffs`` hands a piece's coefficients out, and ``peval`` and
``PiecewisePoly.at0`` build one value each.

A PiecewisePoly carries rational breakpoints 0 = b0 < ... < bm = 1 and one
piece per interval (b_k, b_{k+1}], with matching values at interior
breakpoints.  Binary operations work piece by piece on the common
refinement of the two breakpoint tuples.  ``_merge`` builds it in one linear
pass, comparing two breakpoints x, y by the integers
x.numerator*y.denominator and y.numerator*x.denominator; equal tuples come
back as they are.  ``common_refinement`` folds the same merge over any
number of piecewise polynomials.

There are two constructor paths.  The trusted path,
``PiecewisePoly(breaks, polys, _checked=True)``, takes its arguments as
given.  Its caller must pass ``Fraction`` breakpoints and canonical pieces
forming a valid continuous function; every caller inside this package does
(the operations below keep both properties).  Outside input, and every
function the sampler draws, goes through the validating path,
``_checked=False``.  Each breakpoint goes through the exact coercion of
``scalars`` (an int, str or ``Fraction``; a float raises ``TypeError``).
Each piece is either a sequence of ``Scalar`` coefficients, lowest degree
first, converted once by ``from_scalars``, or an integer tuple, which is
kept only if it is already canonical.  Then come four checks, in this
order: the piece count, the end points 0 and 1, strict increase (cross
products, as ``_merge`` compares), and continuity (both neighbouring pieces
evaluated by ``_horner`` at each interior breakpoint, the two values
compared by cross products).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import eq

from .scalars import ZERO, Scalar, _frac, _make, as_scalar

PZERO = ()
_UNIT_INTERVAL = (Fraction(0), Fraction(1))


def _scalar(a: int, b: int, d: int) -> Scalar:
    """The scalar (a + b*i)/d for d > 0, reduced by one gcd."""
    g = gcd(a, b, d)
    if g == 1:
        return _make(a, b, d)
    return _make(a // g, b // g, d // g)


def _canon(out: list) -> tuple:
    """The canonical piece of the list [d, a0, b0, ...] with d > 0: trailing
    zero pairs trimmed (in place), then divided by one gcd."""
    n = len(out)
    while n > 1 and not (out[n - 2] or out[n - 1]):
        n -= 2
    if n == 1:
        return PZERO
    del out[n:]
    return _reduce(out)


def _reduce(out: list) -> tuple:
    """The list [d, a0, b0, ...] with d > 0 and a nonzero last pair, divided
    by one gcd."""
    g = gcd(*out)
    if g == 1:
        return tuple(out)
    return tuple([x // g for x in out])


def coeffs(p) -> tuple:
    """The coefficients of the piece p as Scalars, lowest degree first."""
    return tuple(_scalar(p[k], p[k + 1], p[0]) for k in range(1, len(p), 2))


def from_scalars(cs) -> tuple:
    """The canonical piece with the Scalar coefficients cs, lowest degree first."""
    cs = list(cs)
    for c in cs:
        if c.__class__ is not Scalar:
            raise TypeError(f"polynomial coefficient {c!r} is not a Scalar")
    while cs and cs[-1].is_zero():
        cs.pop()
    if not cs:
        return PZERO
    d = lcm(*[c._d for c in cs])
    out = [d]
    for c in cs:
        s = d // c._d
        out += (c._a * s, c._b * s)
    # every prime of d divides some c._d to its full power, and that c's
    # reduced numerators are not both its multiples: the gcd is already 1
    return tuple(out)


def _as_piece(p) -> tuple:
    """A piece from outside input: a canonical integer tuple as it is, or a
    sequence of Scalar coefficients converted once."""
    if p.__class__ is tuple and p and p[0].__class__ is int:
        try:
            # gcd also refuses every entry that is not an integer
            if len(p) % 2 and len(p) > 1 and p[0] > 0 and (p[-2] or p[-1]) and gcd(*p) == 1:
                return p
        except TypeError:
            pass
        raise ValueError(f"integer piece {p} is not canonical")
    return from_scalars(p)


def pconst(c) -> tuple:
    c = as_scalar(c)
    return (c._d, c._a, c._b) if c else PZERO


def _combine(p, q, sign: int) -> tuple:
    """p + sign*q for nonzero pieces, over the lcm of their denominators."""
    d, e = p[0], q[0]
    g = gcd(d, e)
    s, t = e // g, sign * (d // g)
    ps = p[1:] if s == 1 else [x * s for x in p[1:]]
    qs = q[1:] if t == 1 else [y * t for y in q[1:]]
    if len(ps) < len(qs):
        ps, qs = qs, ps
    out = [d * s, *ps]
    for k, y in enumerate(qs, 1):
        out[k] += y
    return _canon(out)


def padd(p, q):
    if not p:
        return q
    if not q:
        return p
    return _combine(p, q, 1)


def psub(p, q):
    if not q:
        return p
    if not p:
        return pneg(q)
    return _combine(p, q, -1)


def pneg(p):
    if not p:
        return p
    out = [-x for x in p]
    out[0] = p[0]
    return tuple(out)


def pmul(p, q):
    if not p or not q:
        return PZERO
    out = [0] * (len(p) + len(q) - 3)
    out[0] = p[0] * q[0]
    qs = tuple(zip(q[1::2], q[2::2]))
    k = 1
    for a, b in zip(p[1::2], p[2::2]):
        j = k
        for c, e in qs:
            out[j] += a * c - b * e
            out[j + 1] += a * e + b * c
            j += 2
        k += 2
    return _reduce(out)


def pscale(c, p):
    c = as_scalar(c)
    if not p or c.is_zero():
        return PZERO
    x, y = c._a, c._b
    out = [p[0] * c._d]
    for k in range(1, len(p), 2):
        a, b = p[k], p[k + 1]
        out += (a * x - b * y, a * y + b * x)
    return _reduce(out)


def pconj(p):
    # conj of the function on real arguments: negate every imaginary part
    out = list(p)
    out[2::2] = [-b for b in p[2::2]]
    return tuple(out)


def _horner(p, num: int, den: int):
    """(re, im, d) with p(num/den) = (re + im*i)/d and d > 0, not reduced."""
    if not p:
        return 0, 0, 1
    re, im = p[-2], p[-1]
    dpow = 1
    for k in range(len(p) - 4, 0, -2):
        # Horner's rule for d*p(num/den), kept over the denominator dpow = den**steps
        dpow *= den
        re = re * num + p[k] * dpow
        im = im * num + p[k + 1] * dpow
    return re, im, p[0] * dpow


def peval(p, t) -> Scalar:
    t = _frac(t)
    return _scalar(*_horner(p, t.numerator, t.denominator))


class PiecewisePoly:
    """A continuous piecewise polynomial on (0,1] with a limit value at 0.

    The stored pieces are automatically normalized: adjacent pieces with the
    same polynomial are merged, so equal functions compare equal.  Few
    results have such a pair, so one pass of tuple comparisons looks for one
    before the merge loop runs.
    """

    __slots__ = ("breaks", "polys")

    def __init__(self, breaks, polys, _checked=False):
        if not _checked:
            breaks = tuple(b if b.__class__ is Fraction else _frac(b) for b in breaks)
            polys = tuple(_as_piece(p) for p in polys)
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
        if len(polys) == 1 or not any(map(eq, polys, polys[1:])):
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

    def at0(self) -> Scalar:
        """Limit value as t -> 0+ (the first piece evaluated at 0)."""
        p = self.polys[0]
        return _scalar(p[1], p[2], p[0]) if p else ZERO

    def __call__(self, t) -> Scalar:
        t = _frac(t)
        n, d = t.numerator, t.denominator
        if not 0 < n <= d:
            raise ValueError(f"t={t} outside (0,1]")
        # the piece (b_{k-1}, b_k] with b_k the first breakpoint >= t
        breaks = self.breaks
        k = 1
        while breaks[k].numerator * d < n * breaks[k].denominator:
            k += 1
        return peval(self.polys[k - 1], t)

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
        bits = ", ".join(f"({lo},{hi}]:{list(map(str, coeffs(p)))}" for lo, hi, p in self.pieces())
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
