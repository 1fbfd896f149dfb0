from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from germoid.perms import Permutation, parse_cycles
from germoid.poly import PiecewisePoly
from germoid.scalars import Scalar
from germoid.starspace import (
    CENTER,
    EdgePoint,
    OpenStarSet,
    PPFun,
    _norm_intervals,
    act,
    membership,
)
from oracles import norm_intervals_by_wrapping

perm4_st = st.permutations(range(1, 5)).map(Permutation)


# -- open sets ---------------------------------------------------------------

def interval_st():
    ends = st.fractions(min_value=Fraction(0), max_value=Fraction(1), max_denominator=8)
    return st.tuples(ends, ends, st.booleans()).map(
        lambda t: (min(t[0], t[1]), max(t[0], t[1]), t[2])
    ).filter(lambda t: t[0] < t[1]).map(
        lambda t: (t[0], t[1], t[2] and t[1] == 1)
    )


open_set_st = st.builds(
    lambda edges: OpenStarSet(4, False, edges),
    st.lists(st.lists(interval_st(), max_size=3), min_size=4, max_size=4),
)


def test_full_and_empty():
    full = OpenStarSet.full(4)
    assert full.intersect(full) == full
    assert full.union(full) == full
    assert CENTER in full
    assert EdgePoint(2, 1) in full
    empty = OpenStarSet.empty(4)
    assert empty.union(full) == full
    assert empty.intersect(full) == empty
    assert CENTER not in empty


def test_interval_merge():
    a = OpenStarSet.edge_interval(4, 1, Fraction(0), Fraction(1, 2))
    b = OpenStarSet.edge_interval(4, 1, Fraction(1, 4), Fraction(3, 4))
    assert a.union(b).edges[0] == ((Fraction(0), Fraction(3, 4), False),)
    # touching open intervals do not merge: the shared endpoint is missing
    c = OpenStarSet.edge_interval(4, 1, Fraction(1, 2), Fraction(3, 4))
    assert len(a.union(c).edges[0]) == 2
    assert EdgePoint(1, Fraction(1, 2)) not in a.union(c)


def _normalized(norm, intervals):
    try:
        return norm(intervals)
    except ValueError as exc:
        return str(exc)


def test_norm_intervals_matches_the_wrapping_oracle(rng):
    ends = [Fraction(k, 6) for k in range(-1, 8)]
    seen = set()
    for _ in range(2000):
        intervals = []
        for _ in range(rng.randint(0, 4)):
            a, b = rng.choice(ends), rng.choice(ends)
            if rng.random() < 0.8:
                a, b = min(a, b), max(a, b)
            a, b = (rng.choice([x, str(x), int(x) if x.denominator == 1 else x])
                    for x in (a, b))
            intervals.append((a, b, rng.random() < 0.3))
        mine = _normalized(_norm_intervals, intervals)
        assert mine == _normalized(norm_intervals_by_wrapping, intervals)
        if isinstance(mine, tuple):
            assert all(x.__class__ is Fraction for iv in mine for x in iv[:2])
        seen.add(mine.split(" (")[0] if isinstance(mine, str) else "valid")
    assert seen == {"valid", "bad interval", "a closed right endpoint is only allowed at 1"}


def test_membership_endpoints():
    s = OpenStarSet.edge_interval(4, 2, Fraction(1, 4), Fraction(1), include_b=True)
    assert EdgePoint(2, 1) in s
    assert EdgePoint(2, Fraction(1, 4)) not in s
    assert EdgePoint(2, Fraction(1, 2)) in s
    assert membership(EdgePoint(3, Fraction(1, 2)), s) is False
    t = OpenStarSet.edge_interval(4, 2, Fraction(1, 4), Fraction(1))
    assert EdgePoint(2, 1) not in t


def test_center_requires_initial_segments():
    with pytest.raises(ValueError):
        OpenStarSet(4, True, [[(Fraction(0), 1, True)]] * 3 + [[(Fraction(1, 2), 1, True)]])
    # intersection with a set missing (0,eps) on an edge drops the center
    full = OpenStarSet.full(4)
    partial = OpenStarSet.edge_interval(4, 2, Fraction(1, 2), Fraction(1), include_b=True)
    meet = full.intersect(partial)
    assert meet.contains_center is False
    assert meet == partial


def test_mismatched_edge_counts():
    with pytest.raises(ValueError):
        OpenStarSet.full(4).union(OpenStarSet.full(3))


@given(open_set_st, open_set_st)
def test_boolean_commutativity(a, b):
    assert a.union(b) == b.union(a)
    assert a.intersect(b) == b.intersect(a)


@given(open_set_st, open_set_st, open_set_st)
def test_boolean_associativity_and_absorption(a, b, c):
    assert a.union(b.union(c)) == a.union(b).union(c)
    assert a.intersect(b.intersect(c)) == a.intersect(b).intersect(c)
    assert a.union(a.intersect(b)) == a
    assert a.intersect(a.union(b)) == a


@given(open_set_st, open_set_st)
def test_openness_at_center_survives_ops(a, b):
    # center-containing sets arise by union with the full star; every op on
    # them must keep an initial segment of every edge (the constructor
    # raises otherwise, so building the results is the assertion)
    full = OpenStarSet.full(4)
    ac, bc = a.union(full), b.union(full)
    assert ac.contains_center and bc.contains_center
    assert ac.intersect(bc).contains_center
    assert ac.union(b).contains_center
    assert not ac.intersect(b).contains_center


@given(open_set_st, open_set_st)
def test_membership_respects_ops(a, b):
    pts = [CENTER] + [
        EdgePoint(i, Fraction(k, 7)) for i in range(1, 5) for k in (1, 3, 5, 7)
    ]
    u, m = a.union(b), a.intersect(b)
    for p in pts:
        assert (p in u) == ((p in a) or (p in b))
        assert (p in m) == ((p in a) and (p in b))


# -- the action ---------------------------------------------------------------

def test_act_on_points():
    s = parse_cycles("(1 2)", 4)
    assert act(s, EdgePoint(1, Fraction(1, 2))) == EdgePoint(2, Fraction(1, 2))
    assert act(s, CENTER) == CENTER
    assert act(Permutation.identity(4), EdgePoint(3, 1)) == EdgePoint(3, 1)
    invol = parse_cycles("(1 2)(3 4)", 4)
    assert act(invol, act(invol, EdgePoint(3, Fraction(1, 3)))) == EdgePoint(3, Fraction(1, 3))


@given(perm4_st, perm4_st, open_set_st)
def test_act_is_a_left_action_on_sets(s, t, a):
    assert act(s, act(t, a)) == act(s * t, a)


def test_act_pullback_on_functions():
    tpoly = PiecewisePoly.from_poly((Scalar(0), Scalar(1)))
    h = PPFun(4, Scalar(0), [tpoly] + [PiecewisePoly.zero()] * 3)
    s = parse_cycles("(1 2)", 4)
    moved = act(s, h)
    p = EdgePoint(2, Fraction(1, 3))
    assert moved.eval(p) == h.eval(act(s.inverse(), p))
    assert moved.eval(p) == Scalar(Fraction(1, 3))
    assert moved.eval(EdgePoint(1, Fraction(1, 3))) == Scalar(0)


# -- coefficient functions -----------------------------------------------------

def test_ppfun_requires_continuity_at_center():
    tpoly = PiecewisePoly.from_poly((Scalar(0), Scalar(1)))
    with pytest.raises(ValueError):
        PPFun(4, Scalar(1), [tpoly] + [PiecewisePoly.const(1)] * 3)


def test_ppfun_eval_and_arith():
    one = PPFun.one(4)
    assert one * one == one
    tpoly = PiecewisePoly.from_poly((Scalar(0), Scalar(1)))
    h = PPFun(4, Scalar(0), [tpoly] + [PiecewisePoly.zero()] * 3)
    assert h.eval(CENTER) == Scalar(0)
    assert h.eval(EdgePoint(1, Fraction(2, 3))) == Scalar(Fraction(2, 3))
    sq = h * h
    assert sq.eval(EdgePoint(1, Fraction(2, 3))) == Scalar(Fraction(4, 9))
    assert (h + h).eval(EdgePoint(1, Fraction(1, 2))) == Scalar(1)


def test_ppfun_ring_laws_on_random_functions(rng):
    from germoid.sampling import random_ppfun

    for _ in range(25):
        f = random_ppfun(3, rng)
        g = random_ppfun(3, rng)
        h = random_ppfun(3, rng)
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert (f * g).conj() == f.conj() * g.conj()


def test_piecewise_poly_normalization():
    # same polynomial on both pieces collapses to one piece
    p = (Scalar(1), Scalar(2))
    a = PiecewisePoly((Fraction(0), Fraction(1, 2), Fraction(1)), (p, p))
    b = PiecewisePoly.from_poly(p)
    assert a == b
    with pytest.raises(ValueError):
        PiecewisePoly(
            (Fraction(0), Fraction(1, 2), Fraction(1)),
            ((Scalar(0),), (Scalar(5),)),
        )
