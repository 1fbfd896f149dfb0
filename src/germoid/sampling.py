"""Seeded random generators for scalars, functions, algebra elements, and germs.

Deterministic given a random.Random instance; the CLI and the property-test
suites share these so reported trials are reproducible.  The sequence of
``rng`` calls each generator makes is part of its contract: every seeded
report depends on it, so a change to what is drawn, or in which order,
changes the reports.

Scalars and coefficient functions are built over the integers that
``Scalar`` and ``poly`` store.  ``random_scalar`` turns its four draws p, q,
r, s into the canonical triple of p/q + (r/s) i with one gcd.  A
polynomial's coefficients are drawn the same way, each put straight over
the common denominator 12, into one integer list; ``random_piecewise``
shifts that list's constant term by level - p(lo), and takes the next level
p(hi), from ``poly._horner`` at the rational breakpoint, so each piece
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

_BREAK_POOL = [Fraction(a, b) for b in (2, 3, 4, 5) for a in range(1, b)]
_F0, _F1 = Fraction(0), Fraction(1)


def random_scalar(rng: random.Random, span: int = 4) -> Scalar:
    """p/q + (r/s) i, drawn in the order p, q, r, s."""
    p = rng.randint(-span, span)
    q = rng.randint(1, span)
    r = rng.randint(-span, span)
    s = rng.randint(1, span)
    a, b, d = p * s, r * q, q * s
    g = gcd(a, b, d)
    return _make(a // g, b // g, d // g)


def _poly_entries(rng: random.Random, max_deg: int):
    """[12, a0, b0, a1, b1, ...]: a random polynomial whose coefficients are
    drawn as random_scalar draws them, each put over 12 = lcm(1, 2, 3, 4), a
    multiple of every denominator q, s drawn; neither trimmed nor reduced."""
    out = [12]
    for _ in range(rng.randint(0, max_deg) + 1):
        p = rng.randint(-4, 4)
        q = rng.randint(1, 4)
        r = rng.randint(-4, 4)
        s = rng.randint(1, 4)
        out += (p * (12 // q), r * (12 // s))
    return out


def random_breaks(rng: random.Random, max_interior: int = 2):
    # the pool holds neither 0 nor 1, and 1/2 twice (from 1/2 and 2/4)
    interior = rng.sample(_BREAK_POOL, rng.randint(0, max_interior))
    return [_F0, *sorted(set(interior)), _F1]


def random_piecewise(rng: random.Random, value_at_0: Scalar, max_interior: int = 2) -> PiecewisePoly:
    """Random continuous piecewise polynomial with the given limit at 0."""
    breaks = random_breaks(rng, max_interior)
    polys = []
    # level: the chain's value at lo, as (re + im*i)/d, not reduced
    la, lb, ld = value_at_0._a, value_at_0._b, value_at_0._d
    for lo, hi in zip(breaks, breaks[1:]):
        p = _poly_entries(rng, 2)
        # shift the constant term by level - p(lo) so the chain stays continuous
        # at lo, over the denominator m = ld*rd (rd is a multiple of p's d)
        ra, rb, rd = _horner(p, lo.numerator, lo.denominator)
        m = ld * rd
        s = m // p[0]
        if s != 1:
            p = [m, *[x * s for x in p[1:]]]
        p[1] += la * rd - ra * ld
        p[2] += lb * rd - rb * ld
        p = _canon(p)
        polys.append(p)
        la, lb, ld = _horner(p, hi.numerator, hi.denominator)
    return PiecewisePoly(breaks, polys)


def random_ppfun(n: int, rng: random.Random) -> PPFun:
    center = random_scalar(rng)
    return PPFun(n, center, [random_piecewise(rng, center) for _ in range(n)])


def random_open_set(n: int, rng: random.Random) -> OpenStarSet:
    edges = []
    for _ in range(n):
        ivs = []
        for _ in range(rng.randint(0, 2)):
            a, b = sorted(rng.sample(_BREAK_POOL + [Fraction(0), Fraction(1)], 2))
            if a < b:
                ivs.append((a, b, b == 1 and rng.random() < 0.5))
        edges.append(ivs)
    s = OpenStarSet(n, False, edges)
    if rng.random() < 0.3:
        eps = rng.choice(_BREAK_POOL)
        s = s.union(OpenStarSet(n, True, [[(Fraction(0), eps, False)]] * n))
    return s


def random_group_element(group: PermGroup, rng: random.Random):
    return rng.choice(group.elements)


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
    pair = rng.choice(sorted(groupoid.admissible_pairs))
    t = Fraction(rng.randint(1, 24), 24)
    return EdgeGerm(t, pair[0], pair[1])


def random_group_algebra_element(group, rng: random.Random, support: int = 3):
    coeffs = {}
    for _ in range(support):
        coeffs[rng.choice(group.elements)] = random_scalar(rng)
    return GroupAlgebraElement(group, coeffs)
