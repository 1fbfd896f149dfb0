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
denominators, d*s with s = f/gcd(d, f), and write pair k as a_k*s + c_k*t
with t = +-d/gcd(d, f); with unequal lengths the top pair comes from one
operand alone and cannot cancel, so only equal lengths trim trailing zero
pairs, and either way one gcd divides.  Each of the three operations has
one straight-line kernel per pair of operand sizes up to
``PMUL_KERNEL_PAIRS`` = 5 coefficient pairs (degree 4).  It unpacks both
tuples, writes each output pair as one sum into locals, takes one gcd of
them all, and returns the canonical tuple, divided when the gcd is above 1.
It builds no list: only an equal-length sum whose top pair cancels hands
its terms to ``_canon`` to trim.  All kernels come from one source
generator, compiled on the first use of each operation and size and
cached, so importing the module compiles none; an operand of higher degree
takes the loop (``_pmul_loop``, ``_combine``).  ``pneg``, ``pconj`` and
``pscale`` act on the integers directly, and ``_horner`` evaluates a piece
at a rational point without reducing.
``Scalar``s appear only at the edges: ``pconst`` and ``from_scalars`` take
them in, ``coeffs`` hands a piece's coefficients out, and ``peval`` and
``PiecewisePoly.at0`` build one value each.

A PiecewisePoly carries rational breakpoints 0 = b0 < ... < bm = 1 and one
piece per interval (b_k, b_{k+1}], with matching values at interior
breakpoints.  A binary operation is one walk over the breakpoints:
``_merge`` steps through both tuples once, applies the operation to each
pair of pieces over the common refinement as it goes, and returns the
refined breakpoints with the results.  These go to the trusted
constructor, which still merges equal neighbours.  The walk compares two
breakpoints x, y by the integers x.numerator*y.denominator and
y.numerator*x.denominator; equal tuples come back as they are.  Every such
int pair, there, in the validating constructor and in
``PiecewisePoly.__call__``, is read by one ``as_integer_ratio()`` call.
Both constructor paths merge equal neighbouring pieces, so the zero
function has the one empty piece and ``is_zero`` is one tuple comparison.
``common_refinement`` runs the same walker, with an operation that pairs
each refined piece's index with its polynomial, over any number of
piecewise polynomials.  A product with a constant factor, one piece of
degree at most 0, takes no walk: the constant 1 returns the other factor
itself, the constant 0 returns the zero function, and any other constant c
maps each piece q of the other factor to ``pmul(c, q)`` over its
breakpoints.  Those are the tuples the walk gives, since a nonzero
constant keeps distinct neighbouring pieces distinct.  The unitary
normalizers' strips are such constants, so their products with a sampled
function cost no walk and, for the constant 1, no ``pmul``.

There are two constructor paths.  The trusted path,
``PiecewisePoly(breaks, polys, _checked=True)``, takes its arguments as
given.  Its caller must pass ``Fraction`` breakpoints and canonical pieces
forming a valid continuous function; every caller inside this package does
(the operations below keep both properties, and the sampler glues each
piece to its neighbour).  Outside input goes through the validating path,
``_checked=False``, in one pass over lists.  Each breakpoint goes through
the exact coercion of ``scalars`` (an int, str or ``Fraction``; a float
raises ``TypeError``).  Each piece is either a sequence of ``Scalar``
coefficients, lowest degree first, converted once by ``from_scalars``, or an
integer tuple, which is kept only if it is already canonical (else
``ValueError``).  Then come four checks, in this order: the piece count, the
end points 0 and 1, strict increase (cross products, as ``_merge``
compares), and continuity (both neighbouring pieces evaluated by ``_horner``
at each interior breakpoint, the two values compared by cross products).
The last three read each breakpoint's (numerator, denominator) int pair,
taken once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import eq

from .scalars import ZERO, Scalar, _frac, _make, as_scalar

PZERO = ()
_ONE = (1, 1, 0)
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


def pconst(c) -> tuple:
    c = as_scalar(c)
    return (c._d, c._a, c._b) if c else PZERO


def _combine(p, q, sign: int) -> tuple:
    """p + sign*q for nonzero pieces of any length, over the lcm of their
    denominators, by the loop."""
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
    kernel = _PADD_KERNELS.get((len(p), len(q)))
    if kernel is None:
        if len(p) > _KERNEL_LEN or len(q) > _KERNEL_LEN:
            return _combine(p, q, 1)
        kernel = _PADD_KERNELS[len(p), len(q)] = _sum_kernel(len(p) // 2, len(q) // 2, 1)
    return kernel(p, q)


def psub(p, q):
    if not q:
        return p
    if not p:
        return pneg(q)
    kernel = _PSUB_KERNELS.get((len(p), len(q)))
    if kernel is None:
        if len(p) > _KERNEL_LEN or len(q) > _KERNEL_LEN:
            return _combine(p, q, -1)
        kernel = _PSUB_KERNELS[len(p), len(q)] = _sum_kernel(len(p) // 2, len(q) // 2, -1)
    return kernel(p, q)


def pneg(p):
    if not p:
        return p
    out = [-x for x in p]
    out[0] = p[0]
    return tuple(out)


# a pair of pieces of at most this many coefficient pairs each (degree 4) is
# multiplied, added or subtracted by a straight-line kernel; a longer one
# takes the loop
PMUL_KERNEL_PAIRS = 5
_KERNEL_LEN = 2 * PMUL_KERNEL_PAIRS + 1
# (len p, len q) -> the kernel for pieces of those tuple lengths, compiled on
# first use, so importing the module compiles none
_PMUL_KERNELS: dict = {}
_PADD_KERNELS: dict = {}
_PSUB_KERNELS: dict = {}


def _kernel(name: str, m: int, n: int, body, terms, trim: bool):
    """The function name(p, q) for an m-pair piece p = (d, a0, b0, ...) and
    an n-pair piece q = (f, c0, e0, ...).  It unpacks both tuples, runs the
    lines of body, writes the denominator ``terms[0]`` to w and pair k
    ``terms[2k+1], terms[2k+2]`` to xk, yk, takes one gcd g of them all, and
    returns the canonical tuple (w, x0, y0, ...), divided by g when g > 1.
    With trim it first hands a cancelled top pair to ``_canon``.  Every name
    in its source is built from integer indices."""
    names = ["w"] + [f"{v}{k}" for k in range(len(terms) // 2) for v in "xy"]
    out = ", ".join(names)
    source = "\n".join([
        f"def {name}(p, q):",
        "    d, " + ", ".join(f"a{i}, b{i}" for i in range(m)) + " = p",
        "    f, " + ", ".join(f"c{j}, e{j}" for j in range(n)) + " = q",
        *[f"    {line}" for line in body],
        *[f"    {v} = {t}" for v, t in zip(names, terms)],
        *([f"    if not ({names[-2]} or {names[-1]}):", f"        return _canon([{out}])"]
          if trim else []),
        f"    g = gcd({out})",
        "    if g == 1:",
        f"        return ({out})",
        "    return (" + ", ".join(f"{v} // g" for v in names) + ")",
    ])
    namespace = {"_canon": _canon, "gcd": gcd}
    exec(compile(source, f"<{name}>", "exec"), namespace)
    return namespace[name]


def _pmul_kernel(m: int, n: int):
    """The straight-line product of an m-pair and an n-pair piece: pair k of
    the result is the sum over i + j = k of (a_i c_j - b_i e_j,
    a_i e_j + b_i c_j), over d*f.  A product of nonzero pieces has a nonzero
    top pair, so it never trims."""
    terms = ["d * f"]
    for k in range(m + n - 1):
        ij = [(i, k - i) for i in range(max(0, k - n + 1), min(m, k + 1))]
        terms.append(" + ".join(f"a{i} * c{j} - b{i} * e{j}" for i, j in ij))
        terms.append(" + ".join(f"a{i} * e{j} + b{i} * c{j}" for i, j in ij))
    return _kernel(f"pmul_{m}x{n}", m, n, (), terms, trim=False)


def _sum_kernel(m: int, n: int, sign: int):
    """The straight-line p + sign*q of an m-pair and an n-pair piece, over
    lcm(d, f) = d*s with s = f/g, g = gcd(d, f): pair k of the result is
    (a_k s + c_k t, b_k s + e_k t) with t = sign*d/g, without the terms of a
    piece shorter than k + 1 pairs.  With unequal lengths the top pair comes
    from one piece alone and cannot cancel, so only equal lengths check it
    and, when it cancels, trim by ``_canon``."""
    terms = ["d * s"]
    for k in range(max(m, n)):
        for x, y in ((f"a{k}", f"c{k}"), (f"b{k}", f"e{k}")):
            terms.append(" + ".join([f"{x} * s"] * (k < m) + [f"{y} * t"] * (k < n)))
    body = ("g = gcd(d, f)", "s = f // g", "t = d // g" if sign > 0 else "t = -(d // g)")
    name = f"{'padd' if sign > 0 else 'psub'}_{m}x{n}"
    return _kernel(name, m, n, body, terms, trim=m == n)


def pmul(p, q):
    if not p or not q:
        return PZERO
    kernel = _PMUL_KERNELS.get((len(p), len(q)))
    if kernel is None:
        if len(p) > _KERNEL_LEN or len(q) > _KERNEL_LEN:
            return _pmul_loop(p, q)
        kernel = _PMUL_KERNELS[len(p), len(q)] = _pmul_kernel(len(p) // 2, len(q) // 2)
    return kernel(p, q)


def _pmul_loop(p, q):
    """The product of nonzero pieces of any length, by the double loop."""
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
    return _scalar(*_horner(p, *t.as_integer_ratio()))


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
            breaks = [b if b.__class__ is Fraction else _frac(b) for b in breaks]
            pieces = []
            for p in polys:
                if p.__class__ is tuple and p and p[0].__class__ is int:
                    try:
                        # gcd also refuses every entry that is not an integer
                        ok = (len(p) % 2 and len(p) > 1 and p[0] > 0 and (p[-2] or p[-1])
                              and gcd(*p) == 1)
                    except TypeError:
                        ok = False
                    if not ok:
                        raise ValueError(f"integer piece {p} is not canonical")
                    pieces.append(p)
                else:
                    pieces.append(from_scalars(p))
            polys = pieces
            if len(breaks) < 2 or len(polys) != len(breaks) - 1:
                raise ValueError("breakpoint/piece count mismatch")
            ends = [b.as_integer_ratio() for b in breaks]
            if ends[0][0] or ends[-1] != (1, 1):
                raise ValueError("breakpoints must run from 0 to 1")
            xn, xd = ends[0]
            for yn, yd in ends[1:]:
                if xn * yd >= yn * xd:
                    raise ValueError("breakpoints must be strictly increasing")
                xn, xd = yn, yd
            for k in range(1, len(polys)):
                n, d = ends[k]
                a, b, e = _horner(polys[k - 1], n, d)
                c, f, g = _horner(polys[k], n, d)
                if a * g != c * e or b * g != f * e:
                    raise ValueError(f"discontinuity at t={breaks[k]}")
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
        n, d = t.as_integer_ratio()
        if not 0 < n <= d:
            raise ValueError(f"t={t} outside (0,1]")
        # the piece (b_{k-1}, b_k] with b_k the first breakpoint >= t
        breaks = self.breaks
        k = 1
        bn, bd = breaks[1].as_integer_ratio()
        while bn * d < n * bd:
            k += 1
            bn, bd = breaks[k].as_integer_ratio()
        return peval(self.polys[k - 1], t)

    def _zip(self, other, op):
        return PiecewisePoly(*_merge(self.breaks, self.polys, other.breaks, other.polys, op),
                             _checked=True)

    def __add__(self, other):
        return self._zip(other, padd)

    def __sub__(self, other):
        return self._zip(other, psub)

    def __mul__(self, other):
        # a constant factor (one piece of degree at most 0) needs no walk; a
        # nonzero constant keeps distinct neighbouring pieces distinct, so
        # these are the tuples the walk gives
        if len(self.polys) == 1 and len(self.polys[0]) <= 3:
            k, f = self, other
        elif len(other.polys) == 1 and len(other.polys[0]) <= 3:
            k, f = other, self
        else:
            return self._zip(other, pmul)
        c = k.polys[0]
        if c == _ONE:
            return f
        if not c or f.polys == (_ONE,):
            return k  # the zero function, or c times the unit
        return PiecewisePoly(f.breaks, [pmul(c, q) for q in f.polys], _checked=True)

    def __neg__(self):
        return PiecewisePoly(self.breaks, [pneg(p) for p in self.polys], _checked=True)

    def scale(self, c) -> "PiecewisePoly":
        return PiecewisePoly(self.breaks, [pscale(c, p) for p in self.polys], _checked=True)

    def conj(self) -> "PiecewisePoly":
        return PiecewisePoly(self.breaks, [pconj(p) for p in self.polys], _checked=True)

    def is_zero(self) -> bool:
        # both constructor paths merge equal neighbours, so the zero function
        # has exactly one piece, the empty one
        return self.polys == (PZERO,)

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


def _merge(xs, a, ys, b, op):
    """Walk the common refinement of xs and ys once, applying op.

    xs and ys are strictly increasing Fraction tuples from 0 to 1, and a and
    b hold one entry per piece of xs and of ys.  Returns (breaks, results):
    breaks is the common refinement, and results[k] is op(a_i, b_j) for the
    entries whose pieces contain refined piece k.
    """
    if len(xs) == 2:
        p = a[0]
        return ys, [op(p, q) for q in b]
    if len(ys) == 2:
        q = b[0]
        return xs, [op(p, q) for p in a]
    if len(xs) == len(ys) and xs == ys:
        return xs, list(map(op, a, b))
    breaks = [xs[0]]
    out = []
    i = j = 1
    last = len(xs) - 1
    x, y = xs[1], ys[1]
    xn, xd = x.as_integer_ratio()
    yn, yd = y.as_integer_ratio()
    while True:
        out.append(op(a[i - 1], b[j - 1]))
        left, right = xn * yd, yn * xd
        if left < right:
            breaks.append(x)
            i += 1
            x = xs[i]
            xn, xd = x.as_integer_ratio()
        elif left > right:
            breaks.append(y)
            j += 1
            y = ys[j]
            yn, yd = y.as_integer_ratio()
        else:
            breaks.append(x)
            if i == last:  # both tuples end at 1
                return breaks, out
            i += 1
            j += 1
            x, y = xs[i], ys[j]
            xn, xd = x.as_integer_ratio()
            yn, yd = y.as_integer_ratio()


def _pair(k, p):
    """The walker's op for ``common_refinement``: an index with a piece."""
    return k, p


def common_refinement(pps):
    """(breaks, columns) for a nonempty sequence of piecewise polynomials:
    breaks is the common refinement of their breakpoints, and columns[m][k]
    the polynomial of pps[m] on refined piece k."""
    breaks = pps[0].breaks
    columns = [pps[0].polys]
    for pp in pps[1:]:
        merged, pairs = _merge(breaks, range(len(breaks) - 1), pp.breaks, pp.polys, _pair)
        left, right = zip(*pairs)
        if len(merged) != len(breaks):
            columns = [[col[k] for k in left] for col in columns]
        columns.append(right)
        breaks = merged
    return breaks, columns
