import os
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

import germoid.algebra
from germoid.algebra import (
    AlgebraElement,
    AlgebraError,
    CompatibilityError,
    GroupAlgebraElement,
    NotNormalizerError,
    cross_central_element,
    cross_generators,
    embed_C0,
    evaluate_convolution_pointwise,
    from_sheet,
    group_convolve,
    has_nonunit_value,
    is_bisection_support,
    lambda_scalar,
    open_support,
    verify_central_ideal,
)
from germoid.germs import CenterGerm, EdgeGerm, GermError, GermGroupoid
from germoid.perms import PermGroup, Permutation, parse_cycles
from germoid.poly import PiecewisePoly
from germoid.sampling import random_algebra_element, random_germ, random_ppfun, random_scalar
from germoid.scalars import Scalar
from germoid.starspace import CENTER, EdgePoint, PPFun
from oracles import (
    UnitSpaceFunction,
    conditional_expectation,
    convolve_by_dict,
    cross_central_element_by_sheets,
    induced_point_map,
    is_canonical_vector,
    lambda_scalar_by_four_values,
)


@pytest.fixture
def cross():
    return GermGroupoid.cross()


@pytest.fixture
def star4():
    return GermGroupoid.star(4)


@pytest.fixture
def f(cross):
    return cross_central_element(cross)


def _sx():
    return parse_cycles("(1 2)", 4)


def _sy():
    return parse_cycles("(3 4)", 4)


# -- constructors ---------------------------------------------------------------

def test_unit_is_identity_sheet(cross):
    one = AlgebraElement.unit(cross)
    assert one == from_sheet(cross, cross.group.identity, PPFun.one(4))
    assert set(one.strips) == {(1, 1), (2, 2), (3, 3), (4, 4)}
    g = random_algebra_element(cross, __import__("random").Random(1))
    assert one * g == g
    assert g * one == g


def test_sheet_strips_follow_the_permutation(cross):
    fx = from_sheet(cross, _sx(), PPFun.one(4))
    assert set(fx.strips) == {(1, 2), (2, 1), (3, 3), (4, 4)}
    assert fx.center_value(_sx()) == Scalar(1)
    assert fx.evaluate(EdgeGerm(Fraction(1, 2), 1, 2)) == Scalar(1)
    assert fx.evaluate(EdgeGerm(Fraction(1, 2), 1, 1)) == Scalar(0)


def test_zero_sheet(cross):
    z = from_sheet(cross, _sx(), PPFun.zero(4))
    assert z.is_zero()
    assert z == AlgebraElement.zero(cross)


def test_from_sheet_requires_group_membership(cross):
    with pytest.raises(Exception):
        from_sheet(cross, parse_cycles("(1 3)", 4), PPFun.one(4))


@pytest.mark.parametrize(
    "groupoid", [GermGroupoid.cross(), GermGroupoid.star(4), GermGroupoid.star(5)],
    ids=["cross", "A4", "A5"],
)
def test_sheets_glue_by_construction(groupoid, rng, monkeypatch):
    check = AlgebraElement.check_compatible
    calls = []
    monkeypatch.setattr(AlgebraElement, "check_compatible",
                        lambda self: calls.append(self) or check(self))
    n = groupoid.n
    sheets = []
    for sigma in groupoid.group:
        for k in range(20):
            h = random_ppfun(n, rng)
            if k % 2:
                h = h - PPFun.const(n, h.center)  # h(0) = 0
            sheets.append((sigma, h, from_sheet(groupoid, sigma, h)))
    # the trusted path checks nothing ...
    assert calls == []
    for sigma, h, f in sheets:
        # ... and builds what the validating constructor accepts
        check(f)
        strips = {(i, sigma(i)): e for i, e in enumerate(h.edges, 1)}
        assert f == AlgebraElement(groupoid, strips, {sigma: h.center})
        assert is_canonical_vector(f.center)


def test_from_sheet_refuses_a_coefficient_that_is_not_continuous(cross):
    # a unit-space function may jump at the center, so its sheet need not glue
    jump = UnitSpaceFunction(4, 1, [PiecewisePoly.zero()] * 4)
    with pytest.raises(AlgebraError, match="continuous"):
        from_sheet(cross, cross.group.identity, jump)


def test_embed_is_multiplicative(cross, rng):
    for _ in range(10):
        h = random_ppfun(4, rng)
        k = random_ppfun(4, rng)
        assert embed_C0(cross, h) * embed_C0(cross, k) == embed_C0(cross, h * k)
    assert embed_C0(cross, PPFun.one(4)) == AlgebraElement.unit(cross)


def test_embed_diagonal_only(cross):
    tpoly = PiecewisePoly((0, 1), ((Scalar(0), Scalar(1)),))
    h = PPFun(4, Scalar(0), [tpoly] + [PiecewisePoly.zero()] * 3)
    e = embed_C0(cross, h)
    assert set(e.strips) == {(1, 1)}


# -- the compatibility validator ---------------------------------------------------

def test_compatibility_rejects_bad_normal_forms(cross):
    # nonzero center value with strips that vanish at 0: the gluing law fails
    with pytest.raises(CompatibilityError):
        AlgebraElement(cross, {}, {cross.group.identity: Scalar(1)})
    # an indicator strip with no center mass fails too
    with pytest.raises(CompatibilityError):
        AlgebraElement(cross, {(1, 1): PiecewisePoly.const(1)}, {})


def test_compatibility_preserved_by_random_op_sequences(rng, monkeypatch):
    check = AlgebraElement.check_compatible
    calls = []
    monkeypatch.setattr(AlgebraElement, "check_compatible",
                        lambda self: calls.append(self) or check(self))
    # six sheets: on A4 some products take group_convolve's dense table path,
    # and on A5 the gluing sums also take the pair-incidence product
    for groupoid, sheets in ((GermGroupoid.cross(), 2), (GermGroupoid.star(4), 6),
                             (GermGroupoid.star(5), 6)):
        for _ in range(10):
            a = random_algebra_element(groupoid, rng, sheets=sheets)
            b = random_algebra_element(groupoid, rng, sheets=sheets)
            sampled = len(calls)
            results = (
                a + b,
                a - b,
                a.scale(Scalar(Fraction(2, 3), Fraction(-1, 5))),
                a.adjoint(),
                a * b,
                (a * b).adjoint() * a,
            )
            # sums, scalings, adjoints and products inherit the gluing law
            # from their operands, so none of them checks it again
            assert len(calls) == sampled
            for result in results:
                check(result)  # raises on violation


# -- linear ops and evaluation -------------------------------------------------------

def test_value_table_of_the_central_element(cross, f):
    ident = cross.group.identity
    assert f.evaluate(CenterGerm(ident)) == Scalar(1)
    assert f.evaluate(CenterGerm(_sx())) == Scalar(-1)
    assert f.evaluate(CenterGerm(_sy())) == Scalar(-1)
    assert f.evaluate(CenterGerm(_sx() * _sy())) == Scalar(1)
    assert not f.strips  # vanishes away from the center
    assert f.evaluate(EdgeGerm(Fraction(1, 2), 1, 1)) == Scalar(0)
    assert f.evaluate(EdgeGerm(Fraction(1, 2), 1, 2)) == Scalar(0)


def test_evaluate_outside_groupoid_raises(cross, f):
    with pytest.raises(GermError):
        f.evaluate(EdgeGerm(Fraction(1, 2), 1, 3))
    with pytest.raises(GermError):
        f.evaluate(CenterGerm(parse_cycles("(1 3)", 4)))


def test_adjoint_is_an_involution(cross, rng):
    for _ in range(10):
        a = random_algebra_element(cross, rng, sheets=2)
        assert a.adjoint().adjoint() == a
    fx = from_sheet(cross, _sx(), PPFun.one(4))
    # the sheet of an involution is self-adjoint with real coefficients
    assert fx.adjoint() == fx


def test_adjoint_evaluates_to_conjugate_at_inverse(star4, rng):
    for _ in range(10):
        a = random_algebra_element(star4, rng, sheets=2)
        g = random_germ(star4, rng)
        assert a.adjoint().evaluate(g) == a.evaluate(star4.inverse(g)).conjugate()


# -- convolution ----------------------------------------------------------------

def test_sheet_indicators_multiply_like_the_group(star4):
    els = star4.group.elements
    for s in els[:6]:
        for t in els[:6]:
            lhs = from_sheet(star4, s, 1) * from_sheet(star4, t, 1)
            assert lhs == from_sheet(star4, s * t, 1)


def test_center_convolution_formula(cross, f):
    gx = from_sheet(cross, _sx(), PPFun.one(4))
    assert (gx * f).evaluate(CenterGerm(cross.group.identity)) == Scalar(-1)


def test_convolution_matches_pointwise_sums(star4, rng):
    samples = 0
    for _ in range(12):
        a = random_algebra_element(star4, rng, sheets=2)
        b = random_algebra_element(star4, rng, sheets=2)
        ab = a * b
        for _ in range(16):
            g = random_germ(star4, rng)
            assert ab.evaluate(g) == evaluate_convolution_pointwise(a, b, g)
            samples += 1
    assert samples >= 150


def test_associativity_and_star_antimultiplicativity(star4, rng):
    for _ in range(8):
        a = random_algebra_element(star4, rng, sheets=2)
        b = random_algebra_element(star4, rng, sheets=2)
        c = random_algebra_element(star4, rng, sheets=2)
        assert (a * b) * c == a * (b * c)
        assert (a * b).adjoint() == b.adjoint() * a.adjoint()


# -- conditional expectation ------------------------------------------------------

def _is_continuous(e):
    """Whether every edge of the unit-space function e glues to its center value."""
    return all(pp.at0() == e.center for pp in e.edges)


def test_expectation_of_central_element_is_discontinuous(cross, f):
    e = conditional_expectation(f)
    assert e.center == Scalar(1)
    assert all(pp.is_zero() for pp in e.edges)
    assert not _is_continuous(e)  # the non-Hausdorff signature


def test_expectation_of_unit(cross):
    e = conditional_expectation(AlgebraElement.unit(cross))
    assert e.center == Scalar(1)
    assert all(pp == PiecewisePoly.const(1) for pp in e.edges)
    assert _is_continuous(e)


def test_expectation_refuses_an_edge_beyond_the_star(cross, f):
    e = conditional_expectation(f)
    with pytest.raises(ValueError, match=r"^edge 5 outside 1\.\.4$"):
        e.eval(EdgePoint(5, Fraction(1, 2)))
    with pytest.raises(ValueError, match="edge 0 is not positive"):
        e.eval(EdgePoint(0, Fraction(1, 2)))
    assert e.eval(EdgePoint(4, Fraction(1, 2))) == Scalar(0)


def test_expectation_positive_with_fiber_sum_oracle(star4, rng):
    for _ in range(8):
        a = random_algebra_element(star4, rng, sheets=2)
        e = conditional_expectation(a.adjoint() * a)
        for i in range(1, 5):
            for t in (Fraction(1, 3), Fraction(4, 5), Fraction(1)):
                # oracle: the fiber sum of squared moduli, straight from a
                expected = Scalar(0)
                for j in range(1, 5):
                    if (i, j) in star4.admissible_pairs:
                        val = a.evaluate(EdgeGerm(t, i, j))
                        expected = expected + val * val.conjugate()
                got = e.eval(EdgePoint(i, t))
                assert got == expected
                assert got.im == 0 and got.re >= 0
        center_expected = Scalar(0)
        for s in star4.group:
            val = a.evaluate(CenterGerm(s))
            center_expected = center_expected + val * val.conjugate()
        assert e.center == center_expected


def test_expectation_is_faithful(star4, rng):
    for _ in range(10):
        a = random_algebra_element(star4, rng, sheets=2)
        e = conditional_expectation(a.adjoint() * a)
        assert e.is_zero() == a.is_zero()
    z = AlgebraElement.zero(star4)
    assert conditional_expectation(z.adjoint() * z).is_zero()


# -- the central ideal -----------------------------------------------------------

def test_lambda_values(cross, f):
    assert lambda_scalar(f) == Scalar(4)
    assert lambda_scalar(AlgebraElement.unit(cross)) == Scalar(1)
    assert lambda_scalar(from_sheet(cross, _sx(), 1)) == Scalar(-1)


# stars with a point stabilizer of even permutations only, each with the
# sum of signs over that stabilizer: the gluing law refuses the sign element
_NO_ODD_STABILIZER = {
    "A4": (lambda: PermGroup.alternating(4), 3),
    "Z4": (lambda: PermGroup.cyclic(4), 1),
    "S2": (lambda: PermGroup.symmetric(2), 1),
    "Z2_on_3_points": (lambda: PermGroup.generate(3, [parse_cycles("(1 2)", 3)]), 1),
}


@pytest.mark.parametrize("name", sorted(_NO_ODD_STABILIZER))
def test_sign_element_needs_an_odd_permutation_in_every_stabilizer(name):
    build, total = _NO_ODD_STABILIZER[name]
    group = build()
    # the lowest failing pair is named, whatever the pair set's hash order
    with pytest.raises(
        CompatibilityError,
        match=rf"^strip \(1,1\) has limit 0 at the center but the center values sum to {total}$",
    ):
        cross_central_element(GermGroupoid(group.n, group))


def test_lambda_scalar_builds_no_group(cross, rng, monkeypatch):
    elements = [random_algebra_element(cross, rng) for _ in range(4)]
    groups = [build() for build, _total in _NO_ODD_STABILIZER.values()]
    groupoids = [GermGroupoid(g.n, g) for g in groups]
    built = []
    init = PermGroup.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "__init__", counting_init)
    for k in range(100):
        lambda_scalar(elements[k % 4])
    assert built == []
    for G in groupoids:
        with pytest.raises(CompatibilityError):
            cross_central_element(G)
    assert built == []


def test_import_builds_no_group():
    script = (
        "import sys\n"
        "built = []\n"
        "def watch(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_qualname == 'PermGroup.__init__':\n"
        "        built.append(1)\n"
        "sys.setprofile(watch)\n"
        "import germoid\n"
        "sys.setprofile(None)\n"
        "print(len(built))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_sign_element_is_the_four_sheet_sum_on_the_cross(cross, f, rng):
    assert f == cross_central_element_by_sheets(cross)
    tests = [f, AlgebraElement.unit(cross)] + cross_generators(cross) + [
        random_algebra_element(cross, rng, sheets=3) for _ in range(30)
    ]
    for g in tests:
        assert lambda_scalar(g) == lambda_scalar_by_four_values(g)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sign_element_of_the_symmetric_star(n, rng):
    G = GermGroupoid(n, PermGroup.symmetric(n))
    f = cross_central_element(G)
    assert not f.strips
    assert f.center.positions == tuple(range(len(G.group)))
    for _ in range(20):
        g = random_algebra_element(G, rng, sheets=3)
        expected = f.scale(lambda_scalar(g))
        assert g * f == expected
        assert f * g == expected
    assert f * f == f.scale(len(G.group))
    assert has_nonunit_value(f)


def test_central_identity_for_generators_and_random_elements(cross, f, rng):
    tests = cross_generators(cross) + [
        random_algebra_element(cross, rng, sheets=3) for _ in range(30)
    ]
    report = verify_central_ideal(f, tests)
    assert report.all_commute
    assert report.not_in_C0
    assert report.span_meets_diagonal_trivially
    assert report.ok
    gx = from_sheet(cross, _sx(), 1)
    assert gx * f == f * gx == f.scale(-1)


def test_f_is_central_but_not_diagonal(cross, f, rng):
    for _ in range(25):
        h = random_ppfun(4, rng)
        e = embed_C0(cross, h)
        assert f * e == e * f
    assert has_nonunit_value(f)
    assert not has_nonunit_value(embed_C0(cross, random_ppfun(4, rng)))


def test_f_squared(cross, f):
    assert f * f == f.scale(4)


# -- support and bisections --------------------------------------------------------

def test_support_of_central_element(cross, f):
    supp = open_support(f)
    assert supp.strip_intervals == ()
    assert set(supp.center_support) == set(cross.group.elements)
    flag, witness = is_bisection_support(f)
    assert flag is False
    assert witness[0] == "center" and len(witness[1]) == 4


def test_sheet_supports_are_bisections(star4):
    for s in star4.group.elements[:6]:
        flag, witness = is_bisection_support(from_sheet(star4, s, 1))
        assert flag is True and witness is None


def test_support_product_closure(star4):
    els = star4.group.elements
    for s in els[:5]:
        for t in els[:5]:
            prod = from_sheet(star4, s, 1) * from_sheet(star4, t, 1)
            assert open_support(prod) == open_support(from_sheet(star4, s * t, 1))


def test_source_collision_witness(cross):
    # strips (1,1) and (1,2) both carry t: one source edge, two targets,
    # no center mass, so the failure is a genuine source collision
    tpoly = PiecewisePoly((0, 1), ((Scalar(0), Scalar(1)),))
    tz = [tpoly] + [PiecewisePoly.zero()] * 3
    h_edge1 = PPFun(4, Scalar(0), tz)
    h_all = PPFun(4, Scalar(0), [tpoly] * 4)
    u = embed_C0(cross, h_edge1) + from_sheet(cross, _sx(), h_all)
    assert not u.center
    flag, witness = is_bisection_support(u)
    assert flag is False
    assert witness[0] == "source" and witness[1] == 1
    assert {witness[2], witness[3]} == {1, 2}


def test_zero_support(cross):
    supp = open_support(AlgebraElement.zero(cross))
    assert supp.strip_intervals == () and supp.center_support == ()


# -- induced point maps --------------------------------------------------------------

def _apply(pm, p):
    """The image of the star point p under the point map pm, or None."""
    if p == CENTER:
        return CENTER if pm.center_fixed else None
    for i, segs in pm.edge_segments:
        if i == p.edge:
            for lo, hi, j in segs:
                if lo < p.t <= hi:
                    return EdgePoint(j, p.t)
    return None


def test_point_map_of_sheet(star4):
    s = parse_cycles("(1 2 3)", 4)
    pm = induced_point_map(from_sheet(star4, s, 1))
    assert pm.as_permutation() == s
    assert pm.center_fixed
    assert _apply(pm, EdgePoint(1, Fraction(1, 2))) == EdgePoint(2, Fraction(1, 2))
    assert _apply(pm, EdgePoint(4, Fraction(1, 3))) == EdgePoint(4, Fraction(1, 3))
    assert _apply(pm, CENTER) == CENTER


def test_point_map_of_unit(cross):
    pm = induced_point_map(AlgebraElement.unit(cross))
    assert pm.as_permutation() == Permutation.identity(4)


def test_point_map_rejects_nonunitary(cross, f):
    with pytest.raises(NotNormalizerError):
        induced_point_map(f)  # f*f = 4f != unit


def test_scaled_rows_are_not_unitary(cross):
    half = AlgebraElement.unit(cross).scale(Scalar(Fraction(1, 2)))
    with pytest.raises(NotNormalizerError):
        induced_point_map(half)


# -- the group-algebra convolution kernel -------------------------------------------

def _random_function(group, rng, size):
    out = {}
    for s in rng.sample(group.elements, size):
        c = random_scalar(rng)
        out[s] = c if c else Scalar(1)
    return out


def _canonical(c):
    return (
        type(c._a) is int and type(c._b) is int and type(c._d) is int
        and c._d > 0 and gcd(c._a, c._b, c._d) == 1 and bool(c)
    )


KERNEL_GROUPS = {
    "trivial": lambda: PermGroup.trivial(2),
    "klein_cross": PermGroup.klein_cross,
    "A4": lambda: PermGroup.alternating(4),
    "A5": lambda: PermGroup.alternating(5),
}


def _convolve_dicts(G, f, g):
    """group_convolve on the elements with the values of two dicts, as a dict."""
    got = group_convolve(GroupAlgebraElement(G, f), GroupAlgebraElement(G, g))
    assert is_canonical_vector(got)
    return got


@pytest.mark.parametrize("make", KERNEL_GROUPS.values(), ids=KERNEL_GROUPS.keys())
def test_group_convolve_matches_the_dict_loop(make, rng):
    G = make()
    m = len(G)
    sizes = sorted({0, 1, min(2, m), m // 2, m})
    for p in sizes:
        for q in sizes:
            f = _random_function(G, rng, p)
            g = _random_function(G, rng, q)
            got = dict(_convolve_dicts(G, f, g).items())
            assert got == convolve_by_dict(f, g)
            assert all(_canonical(c) for c in got.values())


@pytest.mark.parametrize("small", [0, 10**9], ids=["numpy", "python"])
def test_group_convolve_paths_agree(small, rng, monkeypatch):
    monkeypatch.setattr(germoid.algebra, "SMALL_PRODUCT", small)
    G = PermGroup.alternating(4)
    for p, q in ((1, 12), (12, 1), (3, 5), (5, 3), (12, 12)):
        f = _random_function(G, rng, p)
        g = _random_function(G, rng, q)
        assert dict(_convolve_dicts(G, f, g).items()) == convolve_by_dict(f, g)


def test_group_convolve_beyond_int64_uses_python_ints(rng):
    def near_2_40():
        return Fraction(2**40 + rng.randint(-99, 99), rng.randint(1, 3))

    G = PermGroup.alternating(5)
    f = {s: Scalar(near_2_40(), -near_2_40()) for s in rng.sample(G.elements, 40)}
    g = {s: Scalar(near_2_40(), near_2_40()) for s in rng.sample(G.elements, 30)}
    assert len(f) * len(g) > germoid.algebra.SMALL_PRODUCT  # the numpy path
    got = _convolve_dicts(G, f, g)
    assert dict(got.items()) == convolve_by_dict(f, g)
    assert all(_canonical(c) for _s, c in got.items())
    # numerators past 2^63 could not have come out of int64 sums
    assert max(map(abs, got.re + got.im)) >= 2**63
