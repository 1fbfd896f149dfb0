"""The integer sampler against the Fraction sampler it replaced, and the
one-construction algebra-element sampler against the sheet-by-sheet sum it
replaced (tests/oracles.py): the same values, the same stored integers and
the same rng state after."""

import random

import pytest

import germoid.algebra
import germoid.poly
import germoid.starspace
from germoid import sampling
from germoid.germs import GermGroupoid
from germoid.poly import PiecewisePoly, coeffs
from oracles import (
    fraction_poly,
    fraction_ppfun,
    fraction_scalar,
    random_algebra_element_by_sheets,
    random_poly,
)

SEEDS = range(1000)


def _triple(c):
    return c._a, c._b, c._d


def _triples(f):
    """Every stored integer of a PPFun, piece structure included."""
    return _triple(f.center), [
        (e.breaks, [[_triple(c) for c in coeffs(p)] for p in e.polys]) for e in f.edges
    ]


@pytest.mark.parametrize("n", [1, 2, 4, 5])
def test_random_ppfun_matches_the_fraction_sampler(n):
    for seed in SEEDS:
        mine, theirs = random.Random(seed), random.Random(seed)
        f = sampling.random_ppfun(n, mine)
        g = fraction_ppfun(n, theirs)
        assert f == g
        assert _triples(f) == _triples(g)
        assert mine.getstate() == theirs.getstate()


@pytest.mark.parametrize("span", range(1, 7))
def test_random_scalar_matches_the_fraction_sampler(span):
    for seed in SEEDS:
        mine, theirs = random.Random(seed), random.Random(seed)
        assert _triple(sampling.random_scalar(mine, span)) == _triple(
            fraction_scalar(theirs, span)
        )
        assert mine.getstate() == theirs.getstate()


def test_random_poly_matches_the_fraction_sampler():
    for seed in SEEDS:
        mine, theirs = random.Random(seed), random.Random(seed)
        p, q = random_poly(mine, max_deg=3), fraction_poly(theirs, max_deg=3)
        assert [_triple(c) for c in coeffs(p)] == [_triple(c) for c in q]
        assert mine.getstate() == theirs.getstate()


def test_every_sampled_edge_function_is_validated(monkeypatch):
    validated = []
    init = PiecewisePoly.__init__

    def counting_init(self, breaks, polys, _checked=False):
        validated.append(not _checked)
        init(self, breaks, polys, _checked)

    monkeypatch.setattr(germoid.poly.PiecewisePoly, "__init__", counting_init)
    rng = random.Random(4)
    for n in (1, 4, 5):
        validated.clear()
        sampling.random_ppfun(n, rng)
        assert validated.count(True) == n


@pytest.mark.parametrize("groupoid", [GermGroupoid.cross(), GermGroupoid.star(4),
                                      GermGroupoid.star(5)], ids=["cross", "star4", "star5"])
@pytest.mark.parametrize("sheets", range(5))
def test_random_algebra_element_matches_the_sheet_by_sheet_sum(groupoid, sheets):
    # the cross's group has 4 elements, so repeated sheets, repeated strips
    # and cancelling sums are common
    for seed in range(300):
        mine, theirs = random.Random(seed), random.Random(seed)
        f = sampling.random_algebra_element(groupoid, mine, sheets)
        g = random_algebra_element_by_sheets(groupoid, theirs, sheets)
        assert f == g
        assert (f.center.positions, f.center.re, f.center.im, f.center.d) == (
            g.center.positions, g.center.re, g.center.im, g.center.d
        )
        assert f.strips == g.strips
        assert mine.getstate() == theirs.getstate()


def test_a_sampled_element_is_built_and_checked_once(monkeypatch):
    pieces, limits, elements, gluings = [], [], [], []
    pp_init = PiecewisePoly.__init__
    ppfun_init = germoid.starspace.PPFun.__init__
    element_init = germoid.algebra.AlgebraElement.__init__
    check = germoid.algebra.AlgebraElement.check_compatible

    def counting_pp_init(self, breaks, polys, _checked=False):
        pieces.append(not _checked)
        pp_init(self, breaks, polys, _checked)

    def counting_ppfun_init(self, n, center, edges):
        limits.append(n)
        ppfun_init(self, n, center, edges)

    def counting_element_init(self, groupoid, strips, center, _checked=False):
        elements.append(_checked)
        element_init(self, groupoid, strips, center, _checked)

    def counting_check(self):
        gluings.append(None)
        check(self)

    monkeypatch.setattr(PiecewisePoly, "__init__", counting_pp_init)
    monkeypatch.setattr(germoid.starspace.PPFun, "__init__", counting_ppfun_init)
    monkeypatch.setattr(germoid.algebra.AlgebraElement, "__init__", counting_element_init)
    monkeypatch.setattr(germoid.algebra.AlgebraElement, "check_compatible", counting_check)
    rng = random.Random(6)
    for groupoid in (GermGroupoid.cross(), GermGroupoid.star(5)):
        for sheets in (1, 3):
            for lst in (pieces, limits, elements, gluings):
                lst.clear()
            sampling.random_algebra_element(groupoid, rng, sheets)
            assert pieces.count(True) == groupoid.n * sheets
            assert limits == [groupoid.n] * sheets
            assert elements == [False]
            assert len(gluings) == 1
