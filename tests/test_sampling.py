"""The integer sampler against the Fraction sampler it replaced, the
one-construction algebra-element sampler against the sheet-by-sheet sum it
replaced, and the getrandbits draw, pick and choice kernels and the index
tables against the rng.randint, rng.sample and rng.choice draws they replaced
(tests/oracles.py): the same values, the same stored integers and the same
rng state after."""

import random

import pytest

import germoid.algebra
import germoid.poly
import germoid.starspace
from germoid import sampling
from germoid.germs import GermGroupoid
from germoid.perms import PermGroup
from germoid.poly import PiecewisePoly, coeffs
from oracles import (
    fraction_poly,
    fraction_ppfun,
    fraction_scalar,
    randint_breaks,
    randint_germ,
    randint_open_set,
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


def test_random_scalar_matches_the_fraction_sampler():
    for seed in SEEDS:
        mine, theirs = random.Random(seed), random.Random(seed)
        assert _triple(sampling.random_scalar(mine)) == _triple(fraction_scalar(theirs))
        assert mine.getstate() == theirs.getstate()


def test_random_poly_matches_the_fraction_sampler():
    # the degree draw inlined in _poly_entries, then the coefficients
    for seed in SEEDS:
        mine, theirs = random.Random(seed), random.Random(seed)
        p, q = random_poly(mine), fraction_poly(theirs)
        assert [_triple(c) for c in coeffs(p)] == [_triple(c) for c in q]
        assert mine.getstate() == theirs.getstate()


@pytest.mark.parametrize("deg", range(3))
def test_polynomial_draws_match_the_fraction_sampler(deg):
    # the degree draw inlined in _poly_entries, one degree at a time: the
    # seeds whose randint(0, 2) degree draw lands on deg
    seeds = [seed for seed in SEEDS if random.Random(seed).randint(0, 2) == deg]
    assert seeds
    for seed in seeds:
        mine, theirs = random.Random(seed), random.Random(seed)
        p, q = random_poly(mine), fraction_poly(theirs)
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


# the draw kernel on every range of the form (-k, k), (1, k) or (0, k) up to
# k = 6, which holds each range the sampler draws from (spans of 4, counts up
# to 2), and random_germ's t; (1, 1) and (0, 0) are the width-1 ranges,
# where randint still draws one bit
_RANDINT_RANGES = sorted(
    {(-span, span) for span in range(1, 7)} | {(1, span) for span in range(1, 7)}
    | {(0, m) for m in range(6)} | {(1, 24)}
)


@pytest.mark.parametrize("lo, hi", _RANDINT_RANGES)
def test_the_draw_kernel_is_randint(lo, hi):
    for seed in SEEDS:
        mine, theirs = random.Random(seed), random.Random(seed)
        assert [sampling._randint(mine, lo, hi) for _ in range(8)] == [
            theirs.randint(lo, hi) for _ in range(8)
        ]
        assert mine.getstate() == theirs.getstate()


@pytest.mark.parametrize("n", [1, 2, 10, 12, 21])
def test_the_pick_kernel_is_sample(n):
    # 10 and 12 are the breakpoint pool and the endpoints; 21 is the largest
    # pool CPython samples from a list
    swapped = 0
    for k in range(min(n, 2) + 1):
        for seed in SEEDS:
            mine, theirs = random.Random(seed), random.Random(seed)
            picked = [sampling._pick(mine, n, k) for _ in range(4)]
            assert picked == [tuple(theirs.sample(range(n), k)) for _ in range(4)]
            assert mine.getstate() == theirs.getstate()
            # the second raw draw is below n - 1, so n - 1 comes only from
            # the swap branch, where it equals the first
            swapped += sum(k == 2 and key[1] == n - 1 for key in picked)
    assert swapped or n == 1


@pytest.mark.parametrize("length", [1, 4, 12, 60, 360])
def test_the_choice_rule_is_choice(length):
    seq = tuple(range(100, 100 + length))
    for seed in SEEDS:
        mine, theirs = random.Random(seed), random.Random(seed)
        assert [sampling._choice(mine, seq) for _ in range(4)] == [
            theirs.choice(seq) for _ in range(4)
        ]
        assert mine.getstate() == theirs.getstate()
    with pytest.raises(IndexError):
        sampling._choice(random.Random(0), ())


def test_random_breaks_match_the_randint_sampler():
    # the breakpoint draw random_piecewise makes: the count, then the index
    # tuple from the pick kernel, read from the table random_piecewise fills
    rng = random.Random(0)
    for _ in range(3000):
        sampling.random_piecewise(rng, sampling.random_scalar(rng))
    # every key: no index, one of 10, or an ordered pair of distinct ones
    assert len(sampling._BREAKS) == 1 + 10 + 10 * 9
    for seed in SEEDS:
        mine, theirs = random.Random(seed), random.Random(seed)
        key = sampling._pick(mine, 10, sampling._randint(mine, 0, 2))
        breaks, spans = sampling._BREAKS[key]
        assert isinstance(breaks, tuple)
        assert list(breaks) == randint_breaks(theirs)
        assert mine.getstate() == theirs.getstate()
        assert spans == tuple(((a.numerator, a.denominator), (b.numerator, b.denominator))
                              for a, b in zip(breaks, breaks[1:]))
        assert all(type(x) is int for span in spans for end in span for x in end)


@pytest.mark.parametrize("n", range(1, 6))
def test_random_open_set_matches_the_randint_sampler(n):
    for seed in SEEDS:
        mine, theirs = random.Random(seed), random.Random(seed)
        a, b = sampling.random_open_set(n, mine), randint_open_set(n, theirs)
        assert a == b
        assert (a.contains_center, a.edges) == (b.contains_center, b.edges)
        assert mine.getstate() == theirs.getstate()


@pytest.mark.parametrize("groupoid", [
    *(GermGroupoid.cyclic_star(n) for n in range(1, 6)),
    GermGroupoid.cross(),
    GermGroupoid(5, PermGroup.symmetric(5)),
], ids=["Z1", "Z2", "Z3", "Z4", "Z5", "cross", "S5"])
def test_random_germ_matches_the_randint_sampler(groupoid):
    for seed in SEEDS:
        mine, theirs = random.Random(seed), random.Random(seed)
        for _ in range(3):
            g, h = sampling.random_germ(groupoid, mine), randint_germ(groupoid, theirs)
            assert type(g) is type(h) and g == h
        assert mine.getstate() == theirs.getstate()
