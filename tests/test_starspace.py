from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from germoid.perms import PermGroup, Permutation, parse_cycles
from germoid.poly import PiecewisePoly
from germoid.sampling import random_open_set
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
from oracles import (
    act_on_open_set_by_renormalizing,
    edge_interval,
    intersect_by_renormalizing,
    norm_intervals_by_wrapping,
    union_by_renormalizing,
)

perm4_st = st.permutations(range(1, 5)).map(Permutation)


# -- open sets ---------------------------------------------------------------

# the Farey fractions of order 8: every rational in [0, 1] with denominator <= 8
_FAREY_8 = sorted({Fraction(a, b) for b in range(1, 9) for a in range(b + 1)})


def interval_st():
    # two distinct endpoints drawn from one value set, so no draw is rejected
    ends = st.lists(st.sampled_from(_FAREY_8), min_size=2, max_size=2, unique=True)
    return st.tuples(ends, st.booleans()).map(
        lambda t: (min(t[0]), max(t[0]), t[1] and max(t[0]) == 1)
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
    a = edge_interval(4, 1, Fraction(0), Fraction(1, 2))
    b = edge_interval(4, 1, Fraction(1, 4), Fraction(3, 4))
    assert a.union(b).edges[0] == ((Fraction(0), Fraction(3, 4), False),)
    # touching open intervals do not merge: the shared endpoint is missing
    c = edge_interval(4, 1, Fraction(1, 2), Fraction(3, 4))
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


def _assert_same_set(mine, oracle):
    assert mine.edges == oracle.edges
    assert mine.contains_center == oracle.contains_center
    assert all(x.__class__ is Fraction for ivs in mine.edges for iv in ivs for x in iv[:2])
    assert all(iv[2].__class__ is bool for ivs in mine.edges for iv in ivs)


def _assert_ops_match_the_oracle(x, y):
    _assert_same_set(x.union(y), union_by_renormalizing(x, y))
    _assert_same_set(x.intersect(y), intersect_by_renormalizing(x, y))


def test_lattice_ops_match_the_renormalizing_oracle(rng):
    elements = PermGroup.symmetric(4).elements
    for _ in range(2000):
        a, b, c = (random_open_set(4, rng) for _ in range(3))
        for x, y in ((a, b), (b, a), (a, c), (b, c), (a, a)):
            _assert_ops_match_the_oracle(x, y)
        # results of the operations are inputs too
        _assert_ops_match_the_oracle(a.union(b), a.intersect(c))
        _assert_ops_match_the_oracle(a.intersect(b.union(c)), c.union(a))
        s = rng.choice(elements)
        _assert_same_set(act(s, a), act_on_open_set_by_renormalizing(s, a))
        _assert_same_set(act(s, a.union(b)), act_on_open_set_by_renormalizing(s, a.union(b)))


def _edge_set(*intervals, edge=1, eps=None):
    """Intervals on one edge; with eps, also (0, eps) on every edge and the center."""
    edges = [[] for _ in range(4)]
    edges[edge - 1] = list(intervals)
    if eps is not None:
        edges = [ivs + [(0, eps, False)] for ivs in edges]
    return OpenStarSet(4, eps is not None, edges)


F = Fraction

_EDGE_CASES = {
    "touching": (_edge_set((F(1, 4), F(1, 2), False)), _edge_set((F(1, 2), F(3, 4), False))),
    "closed against open at 1": (_edge_set((F(1, 3), 1, True)), _edge_set((F(1, 3), 1, False))),
    "open against closed at 1": (_edge_set((F(1, 3), 1, False)), _edge_set((F(1, 2), 1, True))),
    "nested": (_edge_set((0, 1, False)), _edge_set((F(1, 4), F(1, 2), False))),
    "equal": (_edge_set((F(1, 5), F(2, 5), False)), _edge_set((F(1, 5), F(2, 5), False))),
    "same left end": (_edge_set((F(1, 5), F(2, 5), False)), _edge_set((F(1, 5), F(3, 5), False))),
    "bridged": (_edge_set((0, F(1, 4), False), (F(1, 2), F(3, 4), False)),
                _edge_set((F(1, 8), F(5, 8), False), (F(3, 4), 1, True))),
    "center-containing": (_edge_set((F(1, 2), 1, True), eps=F(1, 8)),
                          _edge_set((F(1, 4), F(3, 4), False), eps=F(1, 16))),
    "center against edge": (_edge_set((0, F(1, 3), False), eps=F(1, 8)),
                            _edge_set((0, F(1, 2), False), edge=2)),
    "full and empty": (OpenStarSet.full(4), OpenStarSet.empty(4)),
    "full and full": (OpenStarSet.full(4), OpenStarSet.full(4)),
    "empty and empty": (OpenStarSet.empty(4), OpenStarSet.empty(4)),
    "full and edge": (OpenStarSet.full(4), _edge_set((F(1, 3), F(2, 3), False), edge=3)),
}


@pytest.mark.parametrize("case", sorted(_EDGE_CASES))
def test_lattice_edge_cases_match_the_renormalizing_oracle(case):
    x, y = _EDGE_CASES[case]
    _assert_ops_match_the_oracle(x, y)
    _assert_ops_match_the_oracle(y, x)
    for s in (Permutation.identity(4), parse_cycles("(1 2 3 4)", 4)):
        _assert_same_set(act(s, x), act_on_open_set_by_renormalizing(s, x))


def test_lattice_edge_cases_by_hand():
    x, y = _EDGE_CASES["touching"]
    assert x.union(y).edges[0] == ((F(1, 4), F(1, 2), False), (F(1, 2), F(3, 4), False))
    assert x.intersect(y) == OpenStarSet.empty(4)
    x, y = _EDGE_CASES["closed against open at 1"]
    assert x.union(y).edges[0] == ((F(1, 3), F(1), True),)
    assert x.intersect(y).edges[0] == ((F(1, 3), F(1), False),)
    x, y = _EDGE_CASES["nested"]
    assert x.union(y) == x and x.intersect(y) == y
    x, y = _EDGE_CASES["bridged"]
    assert x.union(y).edges[0] == ((F(0), F(3, 4), False), (F(3, 4), F(1), True))
    assert x.intersect(y).edges[0] == ((F(1, 8), F(1, 4), False), (F(1, 2), F(5, 8), False))
    x, y = _EDGE_CASES["center-containing"]
    assert x.intersect(y).contains_center
    assert x.intersect(y).edges[0] == ((F(0), F(1, 16), False), (F(1, 2), F(3, 4), False))
    assert x.intersect(y).edges[1:] == (((F(0), F(1, 16), False),),) * 3
    assert x.union(y).edges[0] == ((F(0), F(1, 8), False), (F(1, 4), F(1), True))
    x, y = _EDGE_CASES["full and empty"]
    assert x.union(y) == x and x.intersect(y) == y


def test_edge_points_need_a_positive_edge():
    for edge in (0, -1):
        with pytest.raises(ValueError, match=f"edge {edge} is not positive"):
            EdgePoint(edge, Fraction(1, 2))
    with pytest.raises(ValueError, match="outside \\(0,1\\]"):
        EdgePoint(0, 2)


def test_lookups_refuse_an_edge_beyond_the_star():
    p = EdgePoint(5, Fraction(1, 2))
    with pytest.raises(ValueError, match=r"^edge 5 outside 1\.\.4$"):
        p in OpenStarSet.full(4)
    with pytest.raises(ValueError, match=r"^edge 5 outside 1\.\.4$"):
        PPFun.one(4).eval(p)
    assert EdgePoint(4, Fraction(1, 2)) in edge_interval(4, 4, 0, 1, True)
    assert EdgePoint(1, Fraction(1, 2)) not in edge_interval(4, 4, 0, 1, True)
    for edge in (0, 5):
        with pytest.raises(ValueError, match=rf"^edge {edge} outside 1\.\.4$"):
            edge_interval(4, edge, 0, 1, True)


def test_membership_endpoints():
    s = edge_interval(4, 2, Fraction(1, 4), Fraction(1), include_b=True)
    assert EdgePoint(2, 1) in s
    assert EdgePoint(2, Fraction(1, 4)) not in s
    assert EdgePoint(2, Fraction(1, 2)) in s
    assert membership(EdgePoint(3, Fraction(1, 2)), s) is False
    t = edge_interval(4, 2, Fraction(1, 4), Fraction(1))
    assert EdgePoint(2, 1) not in t


def test_center_requires_initial_segments():
    with pytest.raises(ValueError):
        OpenStarSet(4, True, [[(Fraction(0), 1, True)]] * 3 + [[(Fraction(1, 2), 1, True)]])
    # intersection with a set missing (0,eps) on an edge drops the center
    full = OpenStarSet.full(4)
    partial = edge_interval(4, 2, Fraction(1, 2), Fraction(1), include_b=True)
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
    tpoly = PiecewisePoly((0, 1), ((Scalar(0), Scalar(1)),))
    h = PPFun(4, Scalar(0), [tpoly] + [PiecewisePoly.zero()] * 3)
    s = parse_cycles("(1 2)", 4)
    moved = act(s, h)
    p = EdgePoint(2, Fraction(1, 3))
    assert moved.eval(p) == h.eval(act(s.inverse(), p))
    assert moved.eval(p) == Scalar(Fraction(1, 3))
    assert moved.eval(EdgePoint(1, Fraction(1, 3))) == Scalar(0)


# -- coefficient functions -----------------------------------------------------

def test_ppfun_requires_continuity_at_center():
    tpoly = PiecewisePoly((0, 1), ((Scalar(0), Scalar(1)),))
    with pytest.raises(ValueError):
        PPFun(4, Scalar(1), [tpoly] + [PiecewisePoly.const(1)] * 3)


def _line(c0, c1):
    """The one-piece function c0 + c1 t."""
    return PiecewisePoly((0, 1), ((Scalar(c0[0], c0[1]), Scalar(c1[0], c1[1])),))


@pytest.mark.parametrize("center, first, message", [
    # real parts differ: 1/3 + t/2 (stored over 6) against 1/2
    ((Fraction(1, 2), 0), _line((Fraction(1, 3), 0), (Fraction(1, 2), 0)),
     "edge 2 limit 1/3 at the center differs from center value 1/2"),
    # only the imaginary parts differ
    ((Fraction(1, 2), Fraction(1, 3)), _line((Fraction(1, 2), Fraction(1, 4)), (1, 0)),
     "edge 2 limit 1/2+1/4i at the center differs from center value 1/2+1/3i"),
    # a zero center against a nonzero first piece
    ((0, 0), _line((1, 0), (1, 0)),
     "edge 2 limit 1 at the center differs from center value 0"),
])
def test_ppfun_refuses_an_edge_limit_off_the_center_value(center, first, message):
    c = Scalar(*center)
    with pytest.raises(ValueError) as err:
        PPFun(3, c, [PiecewisePoly.const(c), first, PiecewisePoly.const(c)])
    assert str(err.value) == message


def test_ppfun_accepts_edge_limits_equal_to_the_center_value():
    # the limit of 1/2 + 1/3 i + t/5 is stored over the piece's denominator,
    # as (15 + 10i)/30, the center over its own, as (3 + 2i)/6
    c = Scalar(Fraction(1, 2), Fraction(1, 3))
    first = _line((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 5), 0))
    assert first.polys[0][:3] == (30, 15, 10)
    assert PPFun(2, c, [first, PiecewisePoly.const(c)]).center == c
    # a zero center: a zero first piece, and a nonzero first piece vanishing at 0
    half = Fraction(1, 2)
    late = PiecewisePoly((0, half, 1), ((), _line((-half, 0), (1, 0)).polys[0]))
    assert late.polys[0] == ()
    PPFun(3, Scalar(0), [late, PiecewisePoly.zero(), _line((0, 0), (1, 0))])


def test_ppfun_eval_and_arith():
    one = PPFun.one(4)
    assert one * one == one
    tpoly = PiecewisePoly((0, 1), ((Scalar(0), Scalar(1)),))
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


def test_ppfun_operations_keep_continuity_without_rechecking(rng, monkeypatch):
    from germoid.sampling import random_ppfun

    check = PPFun.check_continuous
    calls = []
    monkeypatch.setattr(PPFun, "check_continuous",
                        lambda self: calls.append(self) or check(self))
    c = Scalar(Fraction(2, 3), Fraction(-1, 5))
    for n in (2, 4, 6):
        for _ in range(10):
            f = random_ppfun(n, rng)
            g = random_ppfun(n, rng)
            # outside input is validated: each sampled function once
            assert calls[-2:] == [f, g]
            sampled = len(calls)
            sigma = Permutation(rng.sample(range(1, n + 1), n))
            results = (f + g, f - g, f * g, -f, f.scale(c), f.conj(), act(sigma, f),
                       PPFun.const(n, c), PPFun.zero(n), PPFun.one(n))
            # each result inherits matching limits from its operands
            assert len(calls) == sampled
            for result in results:
                check(result)  # raises on a limit off the center value
                assert type(result.edges) is tuple and len(result.edges) == n


def test_piecewise_poly_normalization():
    # same polynomial on both pieces collapses to one piece
    p = (Scalar(1), Scalar(2))
    a = PiecewisePoly((Fraction(0), Fraction(1, 2), Fraction(1)), (p, p))
    b = PiecewisePoly((0, 1), (p,))
    assert a == b
    with pytest.raises(ValueError):
        PiecewisePoly(
            (Fraction(0), Fraction(1, 2), Fraction(1)),
            ((Scalar(0),), (Scalar(5),)),
        )
