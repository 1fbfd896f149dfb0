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
does.  ``_poly_entries`` inlines that rule, since it draws most of the
values.  ``rng.choice(seq)`` is ``seq[randbelow(len(seq))]``, so
``_choice`` draws its index by the same rule.  ``rng.sample`` over a pool of
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
the common denominator 12, into one integer list; ``random_piecewise``
shifts that list's constant term by level - p(lo), and takes the next level
p(hi), from ``poly._horner`` at the breakpoint's int pair, so each piece
becomes a canonical integer tuple once, with one gcd.  Its result still
goes through the validating ``PiecewisePoly`` constructor.

A random algebra element is one construction, whatever its number of
sheets.  Each sheet draws sigma and then a ``PPFun`` h, whose constructor
checks every edge's limit at 0 against h's center value.  h's edge
functions are summed into the strips (i, sigma(i)), adding
``PiecewisePoly``s only where a pair repeats, and its center value into
sigma's.  The sums become one ``AlgebraElement`` through the validating
path, which checks the strips' edge pairs and the center's group, and the
gluing law once, at zero tolerance.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .algebra import AlgebraElement, GroupAlgebraElement
from .germs import CenterGerm, EdgeGerm, GermGroupoid
from .perms import PermGroup
from .poly import PiecewisePoly, _canon, _horner
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


def _poly_entries(rng: random.Random):
    """[12, a0, b0, a1, b1, ...]: a random polynomial of degree at most 2
    whose coefficients are drawn as random_scalar draws them, each put over
    12 = lcm(1, 2, 3, 4), a multiple of every denominator q, s drawn;
    neither trimmed nor reduced."""
    # _randint inlined: randint(0, 2) (3 values, 2 bits), then per coefficient
    # randint(-4, 4) (9 values, 4 bits) and randint(1, 4) (4 values, 3 bits)
    bits = rng.getrandbits
    deg = bits(2)
    while deg >= 3:
        deg = bits(2)
    out = [12]
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
        out += (_OVER_12[p << 2 | q], _OVER_12[r << 2 | s])
    return out


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
        ends = [(t.numerator, t.denominator) for t in breaks]
        entry = _BREAKS[key] = breaks, tuple(zip(ends, ends[1:]))
    breaks, spans = entry
    polys = []
    # level: the chain's value at lo, as (re + im*i)/d, not reduced
    la, lb, ld = value_at_0._a, value_at_0._b, value_at_0._d
    for (lo_num, lo_den), (hi_num, hi_den) in spans:
        p = _poly_entries(rng)
        # shift the constant term by level - p(lo) so the chain stays continuous
        # at lo, over the denominator m = ld*rd (rd is a multiple of p's d)
        ra, rb, rd = _horner(p, lo_num, lo_den)
        m = ld * rd
        s = m // p[0]
        if s != 1:
            p = [m, *[x * s for x in p[1:]]]
        p[1] += la * rd - ra * ld
        p[2] += lb * rd - rb * ld
        p = _canon(p)
        polys.append(p)
        la, lb, ld = _horner(p, hi_num, hi_den)
    return PiecewisePoly(breaks, polys)


def random_ppfun(n: int, rng: random.Random) -> PPFun:
    center = random_scalar(rng)
    return PPFun(n, center, [random_piecewise(rng, center) for _ in range(n)])


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
    """Random sum of sheet elements, built as one validated element."""
    group, n = groupoid.group, groupoid.n
    strips, center = {}, {}
    for _ in range(sheets):
        sigma = random_group_element(group, rng)
        h = random_ppfun(n, rng)
        for pair, e in zip(enumerate(sigma.images, 1), h.edges):
            strips[pair] = strips[pair] + e if pair in strips else e
        center[sigma] = center[sigma] + h.center if sigma in center else h.center
    return AlgebraElement(groupoid, strips, center)


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
