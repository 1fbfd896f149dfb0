"""The integer sampler against the Fraction sampler it replaced (tests/oracles.py):
the same functions, the same canonical triples and the same rng state after."""

import random

import pytest

import germoid.poly
from germoid import sampling
from germoid.poly import PiecewisePoly, coeffs
from oracles import fraction_poly, fraction_ppfun, fraction_scalar, random_poly

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
