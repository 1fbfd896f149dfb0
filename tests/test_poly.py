"""The exact strip kernel against the implementations it replaced.

The integer piece kernels are checked against the ``Scalar``-tuple kernels
in tests/oracles.py (``pmul`` against the schoolbook loop, and each
straight-line ``pmul``, ``padd`` and ``psub`` kernel against the integer
loop), with every result in canonical form; the one-pass breakpoint merge against the
set/sort/bisect alignment, the
k-way refinement against the collision and point-map scans that bisected
every strip, the bucketed gluing check against the per-pair center scan, and
the indexed strip pairing against the all-pairs scan.
"""

import os
import random
import subprocess
import sys
from bisect import bisect_left
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import germoid.poly
from germoid.algebra import (
    AlgebraElement,
    CompatibilityError,
    GroupAlgebraElement,
    NotNormalizerError,
    PointMap,
    _live_pieces,
    _vector,
    _support_point_map,
    from_sheet,
)
from germoid.experiments import cross_experiment, selftest_experiment, star_experiment
from germoid.germs import GermGroupoid
from germoid.perms import parse_cycles
from germoid.poly import (
    _PADD_KERNELS,
    _PMUL_KERNELS,
    _PSUB_KERNELS,
    PMUL_KERNEL_PAIRS,
    PZERO,
    PiecewisePoly,
    _canon,
    _combine,
    _merge,
    _pair,
    _pmul_loop,
    coeffs,
    common_refinement,
    from_scalars,
    padd,
    pconj,
    pconst,
    peval,
    pmul,
    pneg,
    pscale,
    psub,
)
from germoid.sampling import random_algebra_element, random_ppfun, random_scalar
from germoid.scalars import ZERO, Scalar
from oracles import (
    fraction_poly,
    random_poly,
    scalar_padd,
    scalar_pconj,
    scalar_pconst,
    scalar_peval,
    scalar_pmul,
    scalar_pscale,
    scalar_ptrim,
    validate_by_fractions,
)

# the sampling pool's denominators plus two it never draws
_POOL = sorted({Fraction(a, b) for b in (2, 3, 4, 5) for a in range(1, b)}
               | {Fraction(1, 7), Fraction(3, 11), Fraction(5, 7)})


# -- oracles: the implementations the kernel replaced ---------------------------------

def _piece_index(pp, lo):
    # index of the piece covering the interval just right of lo
    k = bisect_left(pp.breaks, lo)
    if k < len(pp.breaks) and pp.breaks[k] == lo:
        return min(k, len(pp.polys) - 1)
    return k - 1


def _aligned_oracle(f, g):
    breaks = sorted(set(f.breaks) | set(g.breaks))
    mine = [f.polys[_piece_index(f, lo)] for lo in breaks[:-1]]
    theirs = [g.polys[_piece_index(g, lo)] for lo in breaks[:-1]]
    return breaks, mine, theirs


def _collision_oracle(strips_by_key):
    keys = sorted(strips_by_key)
    breaks = sorted({b for pp in strips_by_key.values() for b in pp.breaks})
    for lo, hi in zip(breaks, breaks[1:]):
        live = [k for k in keys if strips_by_key[k].polys[_piece_index(strips_by_key[k], lo)]]
        if len(live) >= 2:
            return live[0], live[1], (lo, hi)
    return None


def _point_map_oracle(u):
    G = u.groupoid
    segments = []
    for i in range(1, G.n + 1):
        row = {j: pp for (si, j), pp in u.strips.items() if si == i}
        breaks = sorted({b for pp in row.values() for b in pp.breaks} | {Fraction(0), Fraction(1)})
        segs = []
        for lo, hi in zip(breaks, breaks[1:]):
            live = [j for j, pp in sorted(row.items()) if pp.polys[_piece_index(pp, lo)]]
            if len(live) > 1:
                raise NotNormalizerError(
                    f"support map is multi-valued on edge {i} over ({lo},{hi}]"
                )
            if live:
                j = live[0]
                if segs and segs[-1][1] == lo and segs[-1][2] == j:
                    segs[-1] = (segs[-1][0], hi, j)
                else:
                    segs.append((lo, hi, j))
        segments.append((i, tuple(segs)))
    return PointMap(G.n, tuple(segments), center_fixed=bool(u.center))


def _compatible_oracle(el):
    """The per-pair center scan in increasing pair order: the
    CompatibilityError text for the lowest failing pair, or None."""
    for (i, j) in sorted(el.groupoid.admissible_pairs):
        lim = el.strips[(i, j)].at0() if (i, j) in el.strips else ZERO
        total = ZERO
        for s, c in el.center.items():
            if s(i) == j:
                total = total + c
        if lim != total:
            return (f"strip ({i},{j}) has limit {lim} at the center but the "
                    f"center values sum to {total}")
    return None


def _convolve_oracle(f, g):
    """Strips of f*g by scanning every pair of strips."""
    strips = {}
    for (k, j), fs in f.strips.items():
        for (i, k2), gs in g.strips.items():
            if k2 == k:
                strips[(i, j)] = strips[(i, j)] + fs * gs if (i, j) in strips else fs * gs
    return {pair: pp for pair, pp in strips.items() if not pp.is_zero()}


# -- random strips ------------------------------------------------------------------

def _random_breaks(rng, pool=_POOL, max_interior=4):
    interior = rng.sample(pool, rng.randint(0, max_interior))
    return tuple(sorted({Fraction(0), Fraction(1), *interior}))


def _continuous_polys(rng, breaks):
    """The pieces of a random continuous function over breaks."""
    polys = []
    level = random_scalar(rng)
    for lo, hi in zip(breaks, breaks[1:]):
        p = random_poly(rng)
        p = padd(p, pconst(level - peval(p, lo)))
        polys.append(p)
        level = peval(p, hi)
    return polys


def _continuous_strip(rng, breaks):
    """A random continuous strip over breaks, through the validating path."""
    return PiecewisePoly(breaks, _continuous_polys(rng, breaks))


def _bump_strip(rng, breaks):
    """A strip vanishing at every breakpoint, zero on a random set of pieces."""
    polys = []
    for lo, hi in zip(breaks, breaks[1:]):
        if rng.random() < 0.4:
            polys.append(PZERO)
        else:
            c = random_scalar(rng) or Scalar(1)
            # c (t - lo)(t - hi)
            polys.append((c * lo * hi, -c * (lo + hi), c))
    return PiecewisePoly(breaks, polys)


# -- the merge ------------------------------------------------------------------------

def _aligned(f, g):
    """(breaks, mine, theirs) from one walk with the pairing op."""
    breaks, pairs = _merge(f.breaks, f.polys, g.breaks, g.polys, _pair)
    return breaks, [p for p, _ in pairs], [q for _, q in pairs]


def _same_alignment(f, g):
    breaks, mine, theirs = _aligned(f, g)
    o_breaks, o_mine, o_theirs = _aligned_oracle(f, g)
    assert tuple(breaks) == tuple(o_breaks)
    assert all(isinstance(b, Fraction) for b in breaks)
    assert list(mine) == o_mine and list(theirs) == o_theirs


def test_merge_matches_the_bisect_oracle_on_random_strips():
    rng = random.Random(5150)
    for _ in range(400):
        f = _continuous_strip(rng, _random_breaks(rng))
        g = _continuous_strip(rng, _random_breaks(rng))
        _same_alignment(f, g)
        _same_alignment(g, f)


def test_merge_with_denominators_outside_the_sampling_pool():
    rng = random.Random(7)
    odd = (Fraction(0), Fraction(1, 7), Fraction(3, 11), Fraction(1, 2), Fraction(1))
    for other in [odd, (Fraction(0), Fraction(3, 11), Fraction(1)),
                  (Fraction(0), Fraction(2, 7), Fraction(3, 10), Fraction(1))]:
        f = _continuous_strip(rng, odd)
        g = _continuous_strip(rng, other)
        _same_alignment(f, g)
        _same_alignment(g, f)


def test_merge_returns_equal_break_tuples_as_they_are():
    rng = random.Random(11)
    breaks = (Fraction(0), Fraction(1, 7), Fraction(3, 11), Fraction(1))
    f = _continuous_strip(rng, breaks)
    g = _continuous_strip(rng, tuple(Fraction(b) for b in breaks))
    assert f.breaks == g.breaks
    merged, pairs = _merge(f.breaks, f.polys, g.breaks, g.polys, _pair)
    assert merged is f.breaks and pairs == list(zip(f.polys, g.polys))
    _same_alignment(f, g)


def test_merge_with_the_trivial_breaks():
    rng = random.Random(13)
    trivial = PiecewisePoly((0, 1), (from_scalars(fraction_poly(rng, max_deg=3)),))
    assert trivial.breaks == (0, 1)
    for _ in range(50):
        f = _continuous_strip(rng, _random_breaks(rng))
        _same_alignment(trivial, f)
        _same_alignment(f, trivial)
        merged, _, _ = _aligned(trivial, f)
        assert merged is f.breaks
    _same_alignment(trivial, PiecewisePoly.zero())


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.fractions(min_value=0, max_value=1, max_denominator=13), max_size=6),
    st.lists(st.fractions(min_value=0, max_value=1, max_denominator=13), max_size=6),
)
def test_merge_matches_the_oracle_on_arbitrary_breaks(xs, ys):
    def strip(points):
        breaks = tuple(sorted({Fraction(0), Fraction(1), *points}))
        # (k + 1)(t - lo)(t - hi) on piece k: continuous, and no two pieces equal
        return PiecewisePoly(breaks, [
            (Scalar((k + 1) * lo * hi), Scalar(-(k + 1) * (lo + hi)), Scalar(k + 1))
            for k, (lo, hi) in enumerate(zip(breaks, breaks[1:]))
        ])

    _same_alignment(strip(xs), strip(ys))


def test_common_refinement_matches_pairwise_alignment():
    rng = random.Random(17)
    for _ in range(100):
        pps = [_continuous_strip(rng, _random_breaks(rng)) for _ in range(rng.randint(1, 4))]
        breaks, columns = common_refinement(pps)
        assert list(breaks) == sorted({b for pp in pps for b in pp.breaks})
        for pp, col in zip(pps, columns):
            assert list(col) == [pp.polys[_piece_index(pp, lo)] for lo in breaks[:-1]]


# -- the piece kernels ----------------------------------------------------------------

_small = st.fractions(min_value=-7, max_value=7, max_denominator=12)
_coefficients = st.one_of(
    st.builds(Scalar, _small),                       # real
    st.builds(lambda im: Scalar(0, im), _small),     # imaginary
    st.just(Scalar(0)),                              # zero
    st.builds(Scalar, _small, _small),               # general
)
_polys = st.lists(_coefficients, max_size=5).map(tuple)


def _assert_canonical(p):
    """d > 0, gcd 1, no trailing zero pair; the zero polynomial is ()."""
    assert p.__class__ is tuple and all(x.__class__ is int for x in p)
    if p:
        assert len(p) % 2 == 1 and len(p) > 1
        assert p[0] > 0
        assert gcd(*p) == 1
        assert p[-2] or p[-1]


def _assert_kernels_match_the_oracles(p, q, c):
    """Each integer kernel on the pieces p, q and the scalar c against the
    Scalar-tuple kernel on their coefficients."""
    sp, sq = coeffs(p), coeffs(q)
    results = [
        (pconst(c), scalar_pconst(c)),
        (padd(p, q), scalar_padd(sp, sq)),
        (psub(p, q), scalar_padd(sp, scalar_pscale(-1, sq))),
        (pneg(p), scalar_pscale(-1, sp)),
        (pmul(p, q), scalar_pmul(sp, sq)),
        (pscale(c, p), scalar_pscale(c, sp)),
        (pconj(p), scalar_pconj(sp)),
    ]
    for mine, theirs in results:
        _assert_canonical(mine)
        assert coeffs(mine) == theirs
        assert (mine == PZERO) == (not theirs)
    for t in (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(-5, 7), 2):
        assert peval(p, t) == scalar_peval(sp, t)


@settings(max_examples=200, deadline=None)
@given(_polys, _polys, _coefficients)
def test_kernels_match_the_scalar_oracles(p, q, c):
    pieces = from_scalars(p), from_scalars(q)
    for piece, cs in zip(pieces, (p, q)):
        _assert_canonical(piece)
        assert coeffs(piece) == scalar_ptrim(cs)
    _assert_kernels_match_the_oracles(*pieces, c)


def test_kernels_match_the_scalar_oracles_on_sampled_pieces():
    rng = random.Random(41)
    pieces = [p for _ in range(40) for e in random_ppfun(3, rng).edges for p in e.polys]
    for p in pieces:
        _assert_canonical(p)
    for p, q in zip(pieces, reversed(pieces)):
        _assert_kernels_match_the_oracles(p, q, random_scalar(rng))


@settings(max_examples=200, deadline=None)
@given(_polys, _polys)
def test_pmul_matches_the_schoolbook_loop(p, q):
    product = pmul(from_scalars(p), from_scalars(q))
    assert coeffs(product) == scalar_pmul(p, q)
    _assert_canonical(product)


@settings(max_examples=100, deadline=None)
@given(_polys, _polys)
def test_pmul_of_trimmed_polynomials(p, q):
    p, q = from_scalars(p), from_scalars(q)
    assert coeffs(pmul(p, q)) == scalar_pmul(coeffs(p), coeffs(q))
    assert pmul(p, q) == pmul(q, p)


def _piece(pairs, d, numerators):
    """The canonical piece of ``pairs`` coefficient pairs over d, its
    numerators drawn by ``numerators()``, with a nonzero last pair."""
    while True:
        out = [d] + [numerators() for _ in range(2 * pairs)]
        if out[-2] or out[-1]:
            return _canon(out)


def _assert_pmul_matches_the_oracles(p, q):
    product = pmul(p, q)
    _assert_canonical(product)
    assert product == _pmul_loop(p, q) == pmul(q, p)
    assert coeffs(product) == scalar_pmul(coeffs(p), coeffs(q))


# (1 + i t)(1 - i t) = 1 + t^2, (1 + t)(1 - t + t^2) = 1 + t^3 and
# (1 + i)/2 (1 - i) = 1: products whose middle pairs or gcd cancel
_CANCELLING = [((1, 1, 0, 0, 1), (1, 1, 0, 0, -1)),
               ((1, 1, 0, 1, 0), (1, 1, 0, -1, 0, 1, 0)),
               ((2, 1, 1), (1, 1, -1))]


def test_every_kernel_size_matches_the_loop_and_the_schoolbook_oracle():
    rng = random.Random(71)
    cap = PMUL_KERNEL_PAIRS
    for m in range(1, cap + 2):
        for n in range(1, cap + 2):
            for span in (1, 1, 3, 100):
                # span 1 draws Gaussian integers from {0, +-1, +-i, +-1 +- i}, which cancel often
                p = _piece(m, rng.randint(1, 12), lambda: rng.randint(-span, span))
                q = _piece(n, rng.randint(1, 12), lambda: rng.randint(-span, span))
                _assert_pmul_matches_the_oracles(p, q)
            assert ((2 * m + 1, 2 * n + 1) in _PMUL_KERNELS) == (m <= cap and n <= cap)
    for p, q in _CANCELLING:
        _assert_pmul_matches_the_oracles(p, q)
    assert pmul(*_CANCELLING[0]) == (1, 1, 0, 0, 0, 1, 0)
    assert pmul(*_CANCELLING[2]) == (1, 1, 0)


# pieces of 1 to 6 pairs whose numerators are Gaussian integers with parts
# in {-1, 0, 1}, so that products cancel often
_unit_pieces = st.builds(
    lambda d, body, last: _canon([d, *body, *last]),
    st.integers(1, 30),
    st.integers(0, PMUL_KERNEL_PAIRS).flatmap(
        lambda k: st.lists(st.integers(-1, 1), min_size=2 * k, max_size=2 * k)),
    st.tuples(st.integers(-1, 1), st.integers(-1, 1)).filter(any),
)


@settings(max_examples=200, deadline=None)
@given(_unit_pieces, _unit_pieces)
def test_pmul_matches_the_loop_on_cancelling_pieces(p, q):
    _assert_pmul_matches_the_oracles(p, q)


def _assert_sums_match_the_oracles(p, q):
    sp, sq = coeffs(p), coeffs(q)
    total, difference = padd(p, q), psub(p, q)
    for mine in (total, difference):
        _assert_canonical(mine)
    assert total == _combine(p, q, 1) == padd(q, p)
    assert difference == _combine(p, q, -1) == pneg(psub(q, p))
    assert coeffs(total) == scalar_padd(sp, sq)
    assert coeffs(difference) == scalar_padd(sp, scalar_pscale(-1, sq))
    assert psub(p, p) == PZERO and padd(p, pneg(p)) == PZERO


# (t + i t^2) + (1 - i t^2) = 1 + t, (1 + i)/2 + (1 - i)/2 = 1 and
# (1/2 + t/3) - (1/2 + t/3) = 0: an equal-length top-pair cancellation, a
# cancelling gcd and a total cancellation
_CANCELLING_SUMS = [((1, 0, 0, 1, 0, 0, 1), (1, 1, 0, 0, 0, 0, -1), (1, 1, 0, 1, 0)),
                    ((2, 1, 1), (2, 1, -1), (1, 1, 0)),
                    ((6, 3, 0, 2, 0), (6, -3, 0, -2, 0), PZERO)]


def test_every_sum_kernel_size_matches_the_loop_and_the_scalar_oracle():
    rng = random.Random(79)
    cap = PMUL_KERNEL_PAIRS
    for m in range(1, cap + 2):
        for n in range(1, cap + 2):
            for span in (1, 1, 3, 100):
                p = _piece(m, rng.randint(1, 12), lambda: rng.randint(-span, span))
                q = _piece(n, rng.randint(1, 12), lambda: rng.randint(-span, span))
                _assert_sums_match_the_oracles(p, q)
                # q's last pair turned into minus p's: the top pairs cancel
                top = _piece(m, p[0], lambda: rng.randint(-span, span))
                top = _canon([p[0], *top[1:-2], -p[-2], -p[-1]])
                _assert_sums_match_the_oracles(p, top)
                assert len(padd(p, top)) < len(p)
            for cache in (_PADD_KERNELS, _PSUB_KERNELS):
                assert ((2 * m + 1, 2 * n + 1) in cache) == (m <= cap and n <= cap)
    for p, q, total in _CANCELLING_SUMS:
        _assert_sums_match_the_oracles(p, q)
        assert padd(p, q) == total
        assert psub(p, pneg(q)) == total


def test_no_kernel_above_the_cap_is_cached():
    rng = random.Random(73)
    big = _piece(PMUL_KERNEL_PAIRS + 1, 3, lambda: rng.randint(-5, 5))
    for n in range(1, PMUL_KERNEL_PAIRS + 2):
        q = _piece(n, 2, lambda: rng.randint(-5, 5))
        assert pmul(big, q) == _pmul_loop(big, q) and pmul(q, big) == _pmul_loop(q, big)
        assert padd(big, q) == _combine(big, q, 1) and padd(q, big) == _combine(q, big, 1)
        assert psub(big, q) == _combine(big, q, -1) and psub(q, big) == _combine(q, big, -1)
    assert selftest_experiment(5).exit_code == 0
    longest = 2 * PMUL_KERNEL_PAIRS + 1
    for cache in (_PMUL_KERNELS, _PADD_KERNELS, _PSUB_KERNELS):
        assert cache and all(a <= longest and b <= longest for a, b in cache)


def test_import_compiles_no_kernel():
    script = ("import germoid, germoid.poly as P\n"
              "print(len(P._PMUL_KERNELS), len(P._PADD_KERNELS), len(P._PSUB_KERNELS))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "0"]


def test_call_evaluates_the_piece_holding_t():
    rng = random.Random(43)
    points = sorted({Fraction(k, 60) for k in range(1, 61)} | set(_POOL))
    for _ in range(60):
        pp = _continuous_strip(rng, _random_breaks(rng))
        for t in points:
            k = bisect_left(pp.breaks, t) - 1
            assert pp(t) == scalar_peval(coeffs(pp.polys[k]), t)
        for t in (0, -1, Fraction(7, 6), "3/2"):
            with pytest.raises(ValueError, match=r"outside \(0,1\]$"):
                pp(t)


# -- the trusted constructor path -----------------------------------------------------

def test_every_internally_built_piecewise_poly_is_well_formed(monkeypatch):
    """The trusted path gets Fraction breaks and canonical integer pieces."""
    built = []
    init = PiecewisePoly.__init__

    def checking_init(self, breaks, polys, _checked=False):
        if _checked:
            breaks, polys = tuple(breaks), tuple(polys)
            assert all(isinstance(b, Fraction) for b in breaks)
            assert breaks[0] == 0 and breaks[-1] == 1
            assert all(a < b for a, b in zip(breaks, breaks[1:]))
            assert len(polys) == len(breaks) - 1
            for p in polys:
                _assert_canonical(p)
            for k in range(1, len(polys)):
                assert peval(polys[k - 1], breaks[k]) == peval(polys[k], breaks[k])
            built.append(1)
        init(self, breaks, polys, _checked)
        assert isinstance(self.breaks, tuple) and isinstance(self.polys, tuple)

    monkeypatch.setattr(germoid.poly.PiecewisePoly, "__init__", checking_init)
    assert selftest_experiment(3).exit_code == 0
    assert cross_experiment(10, 3).exit_code == 0
    assert star_experiment(4, parse_cycles("(1 2)", 4), 3, 3).exit_code == 0
    assert len(built) > 1000


@pytest.mark.parametrize(
    "breaks, polys, message",
    [
        ((0, Fraction(1, 2), 1), ((Scalar(1),),), "breakpoint/piece count mismatch"),
        ((0,), (), "breakpoint/piece count mismatch"),
        ((Fraction(1, 3), 1), ((Scalar(1),),), "breakpoints must run from 0 to 1"),
        ((0, Fraction(1, 2), Fraction(1, 2), 1), ((), (), ()),
         "breakpoints must be strictly increasing"),
        ((0, Fraction(1, 2), 1), ((Scalar(0),), (Scalar(5),)), "discontinuity at t=1/2"),
    ],
)
def test_validating_constructor_errors(breaks, polys, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PiecewisePoly(breaks, polys)


@pytest.mark.parametrize("piece", [(2, 2, 0), (-1, 1, 0), (1, 1, 0, 0, 0), (1,), (1, 1),
                                   (0, 1, 0), (1, 1.0, 0), (1, 1, Fraction(1, 2))])
def test_validating_constructor_refuses_non_canonical_integer_pieces(piece):
    with pytest.raises(ValueError, match=r"is not canonical$"):
        PiecewisePoly((0, 1), (piece,))


def test_validating_constructor_keeps_canonical_integer_pieces():
    p, q = (1, 0, 0, 1, 0), (2, 1, 0)  # t, then 1/2
    pp = PiecewisePoly((0, Fraction(1, 2), 1), (p, q))
    assert pp.polys[0] is p and pp.polys[1] is q
    assert PiecewisePoly((0, 1), (p,)).polys[0] is p


def test_validating_constructor_normalizes_its_input():
    pp = PiecewisePoly(("0", "1/2", 1), ((Scalar(1), Scalar(0)), (Scalar(1),)))
    assert pp.breaks == (Fraction(0), Fraction(1))
    assert [coeffs(p) for p in pp.polys] == [(Scalar(1),)]
    assert all(isinstance(b, Fraction) for b in pp.breaks)


def test_validating_constructor_reports_the_first_failing_check():
    half = Fraction(1, 2)
    # out of order and discontinuous at 1/2: strict increase is checked first
    with pytest.raises(ValueError, match="^breakpoints must be strictly increasing$"):
        PiecewisePoly((0, half, half, 1), ((), (1, 1, 0), (1, 2, 0)))
    # every breakpoint is coerced before any piece is read
    with pytest.raises(TypeError):
        PiecewisePoly((0, 0.5, 1), ((2, 2, 0), (1, 1, 0)))
    # every piece is read before the count is checked
    with pytest.raises(ValueError, match=r"^integer piece \(2, 2, 0\) is not canonical$"):
        PiecewisePoly((0, 1), ((2, 2, 0), (1, 1, 0)))


def _merged_oracle(breaks, polys):
    """(breaks, polys) with every run of equal adjacent pieces merged, by the
    loop the trusted path ran on every multi-piece result."""
    mb, mp = [breaks[0]], []
    for k, p in enumerate(polys):
        if mp and mp[-1] == p:
            mb[-1] = breaks[k + 1]
        else:
            mp.append(p)
            mb.append(breaks[k + 1])
    return tuple(mb), tuple(mp)


def _split(rng, pp):
    """pp's breaks and pieces with extra breakpoints inside random pieces,
    each new piece a copy of the one it splits."""
    breaks, polys = [pp.breaks[0]], []
    for lo, hi, p in pp.pieces():
        cuts = sorted(rng.sample([lo + (hi - lo) * Fraction(k, 7) for k in range(1, 7)],
                                 rng.choice((0, 0, 1, 2))))
        for b in (*cuts, hi):
            breaks.append(b)
            polys.append(p)
    return tuple(breaks), polys


def test_trusted_construction_merges_equal_neighbours():
    t, half = (1, 0, 0, 1, 0), (2, 1, 0)  # t, then 1/2
    breaks = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(1))
    pp = PiecewisePoly(breaks, (t, t, half, half), _checked=True)
    assert pp.breaks == (0, Fraction(1, 2), 1) and pp.polys == (t, half)
    flat = PiecewisePoly(breaks, (half,) * 4, _checked=True)
    assert flat.breaks == (0, 1) and flat == PiecewisePoly.const(Scalar(Fraction(1, 2)))
    rng = random.Random(61)
    merged = 0
    for _ in range(300):
        pp = _continuous_strip(rng, _random_breaks(rng))
        breaks, polys = _split(rng, pp)
        merged += len(polys) > len(pp.polys)
        for checked in (True, False):
            again = PiecewisePoly(breaks, polys, _checked=checked)
            assert again == pp and (again.breaks, again.polys) == (pp.breaks, pp.polys)
    assert merged > 100


def test_random_trusted_products_match_the_validating_constructor():
    """f * g, f + g and f - g against the validating constructor's rebuild of
    the kernels applied to the oracle alignment, merged by the oracle loop."""
    rng = random.Random(67)
    merged = {pmul: 0, padd: 0, psub: 0}
    for _ in range(300):
        f = _continuous_strip(rng, _random_breaks(rng))
        kind = rng.randrange(4)
        if kind == 0:
            g = _bump_strip(rng, _random_breaks(rng))
        elif kind == 1:
            g = _continuous_strip(rng, _random_breaks(rng))
        else:
            # g = h - f or f - h, so that f + g or f - g is h over breaks
            # finer than h's: its equal neighbours merge
            h = _continuous_strip(rng, _random_breaks(rng))
            breaks, hs, fs = _aligned_oracle(h, f)
            pairs = zip(hs, fs) if kind == 2 else zip(fs, hs)
            g = PiecewisePoly(breaks, [psub(p, q) for p, q in pairs])
        breaks, mine, theirs = _aligned_oracle(f, g)
        for op, result in ((pmul, f * g), (padd, f + g), (psub, f - g)):
            polys = [op(p, q) for p, q in zip(mine, theirs)]
            assert result == PiecewisePoly(breaks, polys)
            assert (result.breaks, result.polys) == _merged_oracle(breaks, polys)
            merged[op] += len(result.polys) < len(polys)
    assert min(merged.values()) > 20


def test_is_zero_is_every_piece_zero():
    """is_zero compares with the one empty piece, which both constructor
    paths leave for the zero function, however many zero pieces it is given."""
    rng = random.Random(83)
    breaks = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))
    functions = [PiecewisePoly.zero(), PiecewisePoly.const(0), PiecewisePoly.const(1)]
    for checked in (True, False):
        functions.append(PiecewisePoly(breaks, (PZERO,) * 3, _checked=checked))
        functions.append(PiecewisePoly(breaks[::2] + breaks[-1:], (PZERO,) * 2, _checked=checked))
    for _ in range(100):
        f = _continuous_strip(rng, _random_breaks(rng))
        g = _bump_strip(rng, _random_breaks(rng))
        functions += [f, g, f - f, g - g, f + g, (f + g) - g - f, g * (f - f), g.scale(0)]
        functions += random_ppfun(2, rng).edges
    zeros = 0
    for f in functions:
        zero = all(not p for p in f.polys)
        assert f.is_zero() == zero
        zeros += zero
    assert zeros > 400 and zeros < len(functions) - 400


_CONSTANTS = [PiecewisePoly.zero(), PiecewisePoly.const(1),
              PiecewisePoly.const(Scalar(Fraction(-3, 4))),
              PiecewisePoly.const(Scalar(Fraction(1, 2), Fraction(-5, 3)))]


def test_a_constant_factor_gives_the_merge_path_tuples():
    """A product with a one-piece constant factor skips the merge; it must
    give the tuples the merge path gives, in both operand orders."""
    rng = random.Random(71)
    functions = list(_CONSTANTS)
    for _ in range(40):
        functions += random_ppfun(3, rng).edges
        functions.append(_continuous_strip(rng, _random_breaks(rng)))
        functions.append(_bump_strip(rng, _random_breaks(rng)))
    assert sum(len(f.polys) > 1 for f in functions) > 100
    for c in _CONSTANTS:
        for f in functions:
            for a, b in ((c, f), (f, c)):
                product, merged = a * b, a._zip(b, pmul)
                assert product.breaks.__class__ is tuple and product.polys.__class__ is tuple
                assert (product.breaks, product.polys) == (merged.breaks, merged.polys)
    one = PiecewisePoly.const(1)
    for f in functions:
        if f != one:  # of two unit factors, either may come back
            assert one * f is f and f * one is f


def _outcome(build, breaks, polys):
    try:
        return build(breaks, polys)
    except ValueError as exc:
        return str(exc)


def test_integer_validation_matches_the_fraction_validation(rng):
    """Valid input, and input perturbed to hit each of the four messages, with
    int, str and Fraction breaks and tuple, list and untrimmed polynomials."""
    seen = set()
    for _ in range(600):
        breaks = list(_random_breaks(rng))
        polys = [coeffs(p) for p in _continuous_polys(rng, breaks)]
        fault = rng.choice(["none", "count", "ends", "order", "continuity"])
        if fault == "count":
            polys = polys[:-1]
        elif fault == "ends":
            breaks[rng.choice([0, -1])] = Fraction(1, 13)
        elif fault == "order" and len(breaks) > 2:
            k = rng.randint(1, len(breaks) - 2)
            breaks[k] = breaks[rng.choice([k - 1, k + 1])]
        elif fault == "continuity" and len(polys) > 1:
            k = rng.randint(1, len(polys) - 1)
            polys[k] = scalar_padd(polys[k], scalar_pconst(Scalar(0, 1)))
        form = rng.choice(["fraction", "str", "int"])
        if form == "str":
            breaks = [str(b) for b in breaks]
        elif form == "int":
            breaks = [int(b) if b.denominator == 1 else b for b in breaks]
        shape = rng.choice(["tuple", "list", "untrimmed"])
        if shape == "list":
            polys = [list(p) for p in polys]
        elif shape == "untrimmed":
            polys = [p + (ZERO,) * rng.randint(1, 2) for p in polys]
        mine = _outcome(PiecewisePoly, breaks, polys)
        theirs = _outcome(validate_by_fractions, breaks, polys)
        assert mine == theirs
        if isinstance(mine, PiecewisePoly):
            assert all(b.__class__ is Fraction for b in mine.breaks)
            for p in mine.polys:
                _assert_canonical(p)
            seen.add("valid")
        else:
            seen.add(mine.split(" at t=")[0])
    assert seen == {
        "valid",
        "breakpoint/piece count mismatch",
        "breakpoints must run from 0 to 1",
        "breakpoints must be strictly increasing",
        "discontinuity",
    }


# -- collision and point-map witnesses ---------------------------------------------

def test_collision_witnesses_match_the_old_scan():
    rng = random.Random(23)
    hits = 0
    for _ in range(300):
        strips = {k: _bump_strip(rng, _random_breaks(rng)) for k in rng.sample(range(1, 6),
                                                                               rng.randint(0, 4))}
        expected = _collision_oracle(strips)
        first = next(((live[0], live[1], (lo, hi))
                      for lo, hi, live in _live_pieces(strips) if len(live) >= 2), None)
        assert first == expected
        hits += expected is not None
    assert 30 < hits < 270


def test_point_maps_match_the_old_scan():
    rng = random.Random(29)
    G = GermGroupoid.star(4)
    outcomes = {"map": 0, "multi": 0}
    for _ in range(200):
        strips = {}
        for i in range(1, 5):
            for j in rng.sample(range(1, 5), rng.randint(0, 2)):
                strips[(i, j)] = _bump_strip(rng, _random_breaks(rng, max_interior=2))
        u = AlgebraElement(G, strips, {})
        try:
            expected = _point_map_oracle(u)
        except NotNormalizerError as exc:
            with pytest.raises(NotNormalizerError) as err:
                _support_point_map(u)
            assert str(err.value) == str(exc)
            outcomes["multi"] += 1
            continue
        assert _support_point_map(u) == expected
        outcomes["map"] += 1
    assert min(outcomes.values()) > 20


def test_point_map_of_a_sheet_matches_the_old_scan():
    G = GermGroupoid.star(5)
    for tau in ("()", "(1 2 3)", "(1 2)(3 4)", "(1 5 4 3 2)"):
        u = from_sheet(G, parse_cycles(tau, 5), 1)
        assert _support_point_map(u) == _point_map_oracle(u)


# -- the gluing check ---------------------------------------------------------------

def _unchecked(groupoid, strips, center):
    """An element with the given strips and {Permutation: Scalar} center
    values, built without the gluing check."""
    el = object.__new__(AlgebraElement)
    el.groupoid, el.strips = groupoid, strips
    el.center = GroupAlgebraElement(groupoid.group, center)
    return el


@pytest.mark.parametrize("groupoid", [GermGroupoid.cross(), GermGroupoid.star(4),
                                      GermGroupoid.star(5)])
def test_check_compatible_matches_the_pointwise_sum(groupoid):
    rng = random.Random(31)
    failures = 0
    for _ in range(40):
        el = random_algebra_element(groupoid, rng, sheets=3)
        assert _compatible_oracle(el) is None
        center = dict(el.center.items())
        strips = dict(el.strips)
        if rng.random() < 0.5 and center:
            s = rng.choice(sorted(center))
            center[s] = center[s] + random_scalar(rng)
        elif strips:
            pair = rng.choice(sorted(strips))
            strips[pair] = strips[pair] + PiecewisePoly.const(random_scalar(rng))
        bad = _unchecked(groupoid, strips, center)
        expected = _compatible_oracle(bad)
        if expected is None:
            bad.check_compatible()
            continue
        failures += 1
        with pytest.raises(CompatibilityError) as err:
            bad.check_compatible()
        assert str(err.value) == expected
    assert failures > 20


@pytest.mark.parametrize("groupoid", [GermGroupoid.cross(), GermGroupoid.star(4),
                                      GermGroupoid.star(5)], ids=["cross", "A4", "A5"])
def test_one_numerator_or_one_limit_off_breaks_the_gluing_law(groupoid):
    rng = random.Random(41)
    for _ in range(30):
        el = random_algebra_element(groupoid, rng, sheets=rng.randint(1, 4))
        el.check_compatible()
        assert _compatible_oracle(el) is None
        c = el.center
        if c:
            k = rng.randrange(len(c))
            re, im = list(c.re), list(c.im)
            (re if rng.random() < 0.5 else im)[k] += rng.choice((-1, 1))
            bad = object.__new__(AlgebraElement)
            bad.groupoid, bad.strips = groupoid, el.strips
            bad.center = _vector(c.group, c.positions, tuple(re), tuple(im), c.d)
            with pytest.raises(CompatibilityError) as err:
                bad.check_compatible()
            assert str(err.value) == _compatible_oracle(bad)
            # the same center values with no strips at all
            bare = _unchecked(groupoid, {}, dict(c.items()))
            expected = _compatible_oracle(bare)
            if expected is None:
                bare.check_compatible()
            else:
                with pytest.raises(CompatibilityError) as err:
                    bare.check_compatible()
                assert str(err.value) == expected
        pair = rng.choice(sorted(groupoid.admissible_pairs))
        strip = el.strip(*pair)
        # one more in the numerator of the first piece's constant term
        e = strip.polys[0][0] if strip.polys[0] else 1
        strips = {**el.strips, pair: strip + PiecewisePoly.const(Scalar(Fraction(1, e)))}
        bad = _unchecked(groupoid, strips, dict(c.items()))
        with pytest.raises(CompatibilityError) as err:
            bad.check_compatible()
        assert str(err.value) == _compatible_oracle(bad)


def test_center_values_cancelling_in_a_bucket_are_compatible():
    G = GermGroupoid.star(4)
    s, t = parse_cycles("(1 2 3)", 4), parse_cycles("(1 2 4)", 4)
    # s and t both send 1 to 2, so +1 and -1 meet in the bucket (1, 2)
    el = _unchecked(G, {}, {s: Scalar(1), t: Scalar(-1)})
    assert _compatible_oracle(el) is not None
    with pytest.raises(CompatibilityError) as err:
        el.check_compatible()
    assert str(err.value) == _compatible_oracle(el)


# -- indexed strip pairing ------------------------------------------------------------

@pytest.mark.parametrize("groupoid", [GermGroupoid.cross(), GermGroupoid.star(4)])
def test_indexed_strip_pairing_matches_the_all_pairs_scan(groupoid):
    rng = random.Random(37)
    for _ in range(25):
        f = random_algebra_element(groupoid, rng, sheets=2)
        g = random_algebra_element(groupoid, rng, sheets=2)
        assert (f * g).strips == _convolve_oracle(f, g)
