"""Seeded random generators for scalars, functions, algebra elements, and germs.

Deterministic given a random.Random instance; the CLI and the property-test
suites share these so reported trials are reproducible.  Each generator's
contract is the stream of values it draws and the rng state it leaves:
every seeded report depends on both, so a change to what is drawn, or in
which order, changes the reports.  How a value is drawn is not part of it.

Integer draws go straight to ``rng.getrandbits``.  ``_randint(rng, lo, hi)``
is CPython's ``rng.randint(lo, hi)`` without its three Python frames: with
n = hi - lo + 1 it draws ``getrandbits(n.bit_length())`` until the result r
is below n and returns lo + r, which is ``_randbelow_with_getrandbits``
bit for bit.  n = 1 takes no shortcut: it still draws one bit, as CPython
does.  ``random_piecewise`` inlines that rule for its polynomial draws,
since they are most of the values; ``tests/oracles.py`` keeps the same
draws as ``_poly_entries``.  ``rng.choice(seq)`` is
``seq[randbelow(len(seq))]``, so ``_choice`` draws its index by the same
rule.  ``rng.sample`` over a pool of
at most 21 entries draws ``randbelow(n)`` and then ``randbelow(n - 1)`` over
the pool with its first pick swapped for the last entry, so ``_pick(rng, n,
k)`` returns ``tuple(rng.sample(range(n), k))`` for k <= 2 as ``(j,)`` or
``(j, n - 1 if m == j else m)``, from the same draws.  Breakpoints are drawn
as such an index tuple over the ten-entry pool and looked up in a table
(``_BREAKS``) that holds the finished breakpoint tuple and, per piece, the
``(numerator, denominator)`` int pairs of its two ends, so the piece loop
evaluates at them without reading a ``Fraction``.  ``random_open_set`` draws
its endpoint pair the same way over the twelve endpoints (``_INTERVALS``).
Both tables fill on first use, one entry per index tuple met, so importing
the module builds nothing.  They are caches of fixed functions of the key
and hold immutable tuples: at most 101 breakpoint entries, for at most two
interior breakpoints, and 132 endpoint pairs.

Scalars and coefficient functions are built over the integers that
``Scalar`` and ``poly`` store.  ``random_scalar`` turns its four draws p, q,
r, s into the canonical triple of p/q + (r/s) i with one gcd.  A
polynomial's coefficients are drawn the same way, each put straight over
the common denominator 12.  ``random_piecewise`` glues each piece p to the
level, the value of the chain at the piece's left end lo, as level +
p(t) - p(lo), in one straight-line pass for the drawn degree, so the drawn
constant term drops out.  A degree-0 piece is the level itself: its
canonical triple (the empty piece at level 0), which leaves the level as it
is.  A piece of degree 1 or 2 takes p(lo) by one inline Horner step at lo's
int pair, is written as one integer list and made canonical with one gcd;
the next level, its value at hi, is taken inline for a canonical piece of
length 5 or 7 and by ``poly._horner`` for a shorter one.

What the sampler builds is trusted, as sums and products are: it is not
outside input.  Each piece starts at the level the previous one ends at, so
a sampled function is continuous by construction and takes the trusted
``PiecewisePoly`` path.  Every edge of a ``random_ppfun`` starts at its
center value, so the function is built by ``PPFun._trusted``.

A random algebra element is one construction, whatever its number of
sheets.  Each sheet draws sigma and then a ``PPFun`` h.  h's edge
functions are summed into the strips (i, sigma(i)), adding
``PiecewisePoly``s only where a pair repeats, and its center value into
sigma's.  Every pair (i, sigma(i)) is admissible, and each strip's limit at
0 is the sum of the center values of the sheets through it, so the sums
glue by construction and become one ``AlgebraElement`` on the trusted path.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .algebra import AlgebraElement, GroupAlgebraElement
from .germs import CenterGerm, EdgeGerm, GermGroupoid
from .perms import PermGroup
from .poly import PZERO, PiecewisePoly, _canon, _horner, _reduce
from .scalars import Scalar, _make
from .starspace import OpenStarSet, PPFun

# the pool holds neither 0 nor 1, and 1/2 twice (from 1/2 and 2/4)
_BREAK_POOL = tuple(Fraction(a, b) for b in (2, 3, 4, 5) for a in range(1, b))
_F0, _F1 = Fraction(0), Fraction(1)
_ENDPOINTS = (*_BREAK_POOL, _F0, _F1)
# (p - 4) * (12 // (q + 1)) at [p << 2 | q]: a numerator drawn in -4..4 over a
# denominator drawn in 1..4, put over 12, from the raw draws p < 9, q < 4
_OVER_12 = tuple((p - 4) * (12 // (q + 1)) for p in range(9) for q in range(4))
# sampled index tuple -> ((0, sorted distinct breakpoints, 1), one
# ((lo numerator, lo denominator), (hi numerator, hi denominator)) per piece)
_BREAKS: dict = {}
# sampled endpoint index pair -> (a, b, b == 1) with a < b, or () where a == b
_INTERVALS: dict = {}


def _randint(rng: random.Random, lo: int, hi: int) -> int:
    """rng.randint(lo, hi): the same value and the same rng state after."""
    n = hi - lo + 1
    k = n.bit_length()
    bits = rng.getrandbits
    r = bits(k)
    while r >= n:
        r = bits(k)
    return lo + r


def random_scalar(rng: random.Random) -> Scalar:
    """p/q + (r/s) i with p, r in -4..4 and q, s in 1..4, drawn in the order
    p, q, r, s."""
    p = _randint(rng, -4, 4)
    q = _randint(rng, 1, 4)
    r = _randint(rng, -4, 4)
    s = _randint(rng, 1, 4)
    a, b, d = p * s, r * q, q * s
    g = gcd(a, b, d)
    return _make(a // g, b // g, d // g)


def _choice(rng: random.Random, seq):
    """rng.choice(seq): the same element and the same rng state after."""
    n = len(seq)
    if not n:
        raise IndexError("Cannot choose from an empty sequence")
    return seq[_randint(rng, 0, n - 1)]


def _pick(rng: random.Random, n: int, k: int) -> tuple:
    """tuple(rng.sample(range(n), k)) for n <= 21 and k <= 2: the same
    indices and the same rng state after."""
    if not k:
        return ()
    bits = rng.getrandbits
    b = n.bit_length()
    j = bits(b)
    while j >= n:
        j = bits(b)
    if k == 1:
        return (j,)
    # the second pick is over the pool with j swapped for its last entry, n - 1
    n -= 1
    b = n.bit_length()
    m = bits(b)
    while m >= n:
        m = bits(b)
    return (j, n if m == j else m)


def random_piecewise(rng: random.Random, value_at_0: Scalar) -> PiecewisePoly:
    """Random continuous piecewise polynomial with the given limit at 0."""
    # at most two interior breakpoints, drawn as indices into the pool
    key = _pick(rng, len(_BREAK_POOL), _randint(rng, 0, 2))
    entry = _BREAKS.get(key)
    if entry is None:
        breaks = (_F0, *sorted({_BREAK_POOL[i] for i in key}), _F1)
        ends = [t.as_integer_ratio() for t in breaks]
        entry = _BREAKS[key] = breaks, tuple(zip(ends, ends[1:]))
    breaks, spans = entry
    bits = rng.getrandbits
    polys = []
    # level: the chain's value at lo, as (re + im*i)/d, not reduced
    la, lb, ld = value_at_0._a, value_at_0._b, value_at_0._d
    for (lo_n, lo_d), (hi_n, hi_d) in spans:
        # _randint inlined: randint(0, 2) for the degree (3 values, 2 bits),
        # then per coefficient p/q + (r/s) i randint(-4, 4) (9 values, 4 bits)
        # for p and r and randint(1, 4) (4 values, 3 bits) for q and s
        deg = bits(2)
        while deg >= 3:
            deg = bits(2)
        c = []
        for _ in range(deg + 1):
            p = bits(4)
            while p >= 9:
                p = bits(4)
            q = bits(3)
            while q >= 4:
                q = bits(3)
            r = bits(4)
            while r >= 9:
                r = bits(4)
            s = bits(3)
            while s >= 4:
                s = bits(3)
            c += (_OVER_12[p << 2 | q], _OVER_12[r << 2 | s])
        if not deg:
            # shifted to the level, the piece is the level, which it keeps at hi
            polys.append(_reduce([ld, la, lb]) if la or lb else PZERO)
            continue
        # the piece is level + (p(t) - p(lo)), with p's coefficients c over 12,
        # so the drawn constant term drops out; over 12*ld*lo_d**deg, the
        # constant term is 12*level - ld*(p(lo) - c0/12) by one Horner step
        if deg == 1:
            x1, y1 = c[2], c[3]
            w = ld * lo_d
            piece = _canon([12 * w, 12 * la * lo_d - ld * x1 * lo_n,
                            12 * lb * lo_d - ld * y1 * lo_n, x1 * w, y1 * w])
        else:
            x1, y1, x2, y2 = c[2:]
            dd = lo_d * lo_d
            w = ld * dd
            piece = _canon([12 * w, 12 * la * dd - ld * (x2 * lo_n + x1 * lo_d) * lo_n,
                            12 * lb * dd - ld * (y2 * lo_n + y1 * lo_d) * lo_n,
                            x1 * w, y1 * w, x2 * w, y2 * w])
        polys.append(piece)
        # the next level, the piece at hi
        if len(piece) == 5:
            d, a0, b0, a1, b1 = piece
            la, lb, ld = a0 * hi_d + a1 * hi_n, b0 * hi_d + b1 * hi_n, d * hi_d
        elif len(piece) == 7:
            d, a0, b0, a1, b1, a2, b2 = piece
            dd = hi_d * hi_d
            la = (a2 * hi_n + a1 * hi_d) * hi_n + a0 * dd
            lb = (b2 * hi_n + b1 * hi_d) * hi_n + b0 * dd
            ld = d * dd
        else:
            la, lb, ld = _horner(piece, hi_n, hi_d)
    return PiecewisePoly(breaks, polys, _checked=True)


def random_ppfun(n: int, rng: random.Random) -> PPFun:
    center = random_scalar(rng)
    return PPFun._trusted(n, center, tuple(random_piecewise(rng, center) for _ in range(n)))


def random_open_set(n: int, rng: random.Random) -> OpenStarSet:
    edges = []
    for _ in range(n):
        ivs = []
        for _ in range(_randint(rng, 0, 2)):
            key = _pick(rng, len(_ENDPOINTS), 2)
            iv = _INTERVALS.get(key)
            if iv is None:
                a, b = sorted(_ENDPOINTS[i] for i in key)
                iv = _INTERVALS[key] = (a, b, b == 1) if a < b else ()
            if iv:
                a, b, ends_at_1 = iv
                ivs.append((a, b, ends_at_1 and rng.random() < 0.5))
        edges.append(ivs)
    s = OpenStarSet(n, False, edges)
    if rng.random() < 0.3:
        eps = _choice(rng, _BREAK_POOL)
        s = s.union(OpenStarSet(n, True, [[(_F0, eps, False)]] * n))
    return s


def random_group_element(group: PermGroup, rng: random.Random):
    return _choice(rng, group.elements)


def random_algebra_element(
    groupoid: GermGroupoid, rng: random.Random, sheets: int = 3
) -> AlgebraElement:
    """Random sum of sheet elements, built as one element."""
    group, n = groupoid.group, groupoid.n
    strips, center = {}, {}
    for _ in range(sheets):
        sigma = random_group_element(group, rng)
        h = random_ppfun(n, rng)
        for pair, e in zip(enumerate(sigma.images, 1), h.edges):
            strips[pair] = strips[pair] + e if pair in strips else e
        center[sigma] = center[sigma] + h.center if sigma in center else h.center
    return AlgebraElement(groupoid, strips, GroupAlgebraElement(group, center), _checked=True)


def random_germ(groupoid: GermGroupoid, rng: random.Random):
    if rng.random() < 0.3:
        return CenterGerm(random_group_element(groupoid.group, rng))
    i, j = _choice(rng, groupoid.sorted_pairs)
    return EdgeGerm(Fraction(_randint(rng, 1, 24), 24), i, j)


def random_group_algebra_element(group, rng: random.Random):
    """At most three terms: each draws its value, then its group element."""
    coeffs = {}
    for _ in range(3):
        coeffs[random_group_element(group, rng)] = random_scalar(rng)
    return GroupAlgebraElement(group, coeffs)
