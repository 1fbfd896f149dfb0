"""Seeded random generators for scalars, functions, algebra elements, and germs.

Deterministic given a random.Random instance; the CLI and the property-test
suites share these so reported trials are reproducible.  The sequence of
``rng`` calls each generator makes is part of its contract: every seeded
report depends on it, so a change to what is drawn, or in which order,
changes the reports.

Scalars and coefficient functions are built over the integers that
``Scalar`` stores.  ``random_scalar`` turns its four draws p, q, r, s into
the canonical triple of p/q + (r/s) i with one gcd.  ``random_piecewise``
shifts each piece's constant term by level - p(lo), and takes the next
level p(hi), from ``poly._horner`` at the rational breakpoint.  Its result
still goes through the validating ``PiecewisePoly`` constructor.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .algebra import AlgebraElement, from_sheet
from .germs import CenterGerm, EdgeGerm, GermGroupoid
from .perms import PermGroup
from .poly import PiecewisePoly, _horner, ptrim
from .scalars import ZERO, Scalar, _make
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


def random_poly(rng: random.Random, max_deg: int = 2):
    deg = rng.randint(0, max_deg)
    return ptrim(random_scalar(rng) for _ in range(deg + 1))


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
        p = random_poly(rng)
        # shift the constant term c by level - p(lo) so the chain stays continuous at lo
        c = p[0] if p else ZERO
        ra, rb, rd = _horner(p, lo.numerator, lo.denominator)
        d = c._d * ld * rd
        a = (c._a * ld + la * c._d) * rd - ra * c._d * ld
        b = (c._b * ld + lb * c._d) * rd - rb * c._d * ld
        g = gcd(a, b, d)
        p = ptrim((_make(a // g, b // g, d // g), *p[1:]))
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
    """Random sum of sheet elements; compatible by construction."""
    out = AlgebraElement.zero(groupoid)
    for _ in range(sheets):
        sigma = random_group_element(groupoid.group, rng)
        out = out + from_sheet(groupoid, sigma, random_ppfun(groupoid.n, rng))
    return out


def random_germ(groupoid: GermGroupoid, rng: random.Random):
    if rng.random() < 0.3:
        return CenterGerm(random_group_element(groupoid.group, rng))
    pair = rng.choice(sorted(groupoid.admissible_pairs))
    t = Fraction(rng.randint(1, 24), 24)
    return EdgeGerm(t, pair[0], pair[1])


def random_group_algebra_element(group, rng: random.Random, support: int = 3):
    from .rep import GroupAlgebraElement

    coeffs = {}
    for _ in range(support):
        coeffs[rng.choice(group.elements)] = random_scalar(rng)
    return GroupAlgebraElement(group, coeffs)
