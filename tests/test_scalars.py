from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from germoid.germs import EdgeGerm
from germoid.poly import PiecewisePoly
from germoid.scalars import ONE, ZERO, Scalar, parse_scalar, render_parts, render_scalar
from germoid.starspace import EdgePoint, OpenStarSet

from conftest import scalars_st
from oracles import abs2, edge_interval, render_scalar_by_fractions


def test_basic_arithmetic():
    a = Scalar(Fraction(1, 2), Fraction(-3, 4))
    b = Scalar(2, 1)
    assert a + b == Scalar(Fraction(5, 2), Fraction(1, 4))
    assert a * b == Scalar(Fraction(7, 4), Fraction(-1))
    assert -a == Scalar(Fraction(-1, 2), Fraction(3, 4))
    assert a.conjugate() == Scalar(Fraction(1, 2), Fraction(3, 4))
    assert abs2(a) == Fraction(1, 4) + Fraction(9, 16)


def test_division_and_units():
    i = Scalar(0, 1)
    assert i * i == Scalar(-1)
    assert (ONE / i) == Scalar(0, -1)
    a = Scalar(Fraction(3, 5), Fraction(4, 5))
    assert a * a.conjugate() == Scalar(abs2(a))
    assert a / a == ONE
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_int_coercion():
    assert Scalar(2) + 1 == Scalar(3)
    assert 2 * Scalar(0, 1) == Scalar(0, 2)
    assert Scalar(5) == 5


@given(scalars_st, scalars_st, scalars_st)
def test_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars_st, scalars_st)
def test_conjugation_is_a_star_map(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert a.conjugate().conjugate() == a


@given(scalars_st)
def test_render_parse_roundtrip(a):
    assert parse_scalar(render_scalar(a)) == a


def test_render_forms():
    assert render_scalar(Scalar(0)) == "0"
    assert render_scalar(Scalar(Fraction(1, 2))) == "1/2"
    assert render_scalar(Scalar(0, Fraction(-3, 4))) == "-3/4i"
    assert render_scalar(Scalar(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4i"
    assert parse_scalar("1/2+3/4i") == Scalar(Fraction(1, 2), Fraction(3, 4))
    with pytest.raises(ValueError):
        parse_scalar("nonsense")
    # zero parts, negative imaginary parts and integers, against the
    # Fraction rendering
    parts = (0, 1, -1, 7, -12, Fraction(1, 2), Fraction(-3, 4), Fraction(10, 6))
    for re in parts:
        for im in parts:
            s = Scalar(re, im)
            text = render_scalar(s)
            assert text == render_scalar_by_fractions(s)
            # any terms of the same value render the same
            for k in (1, 2, 15):
                assert render_parts(k * s._a, k * s._b, k * s._d) == text
    assert render_parts(0, -6, 4) == "-3/2i"
    assert render_parts(10, 0, 5) == "2"
    assert render_parts(-4, 6, 8) == "-1/2+3/4i"


# -- the (a + b*i)/d integer representation, against two-Fraction references --

wide_fractions_st = st.one_of(
    st.integers(-(10**12), 10**12).map(Fraction),
    st.fractions(max_denominator=10**9),
)
wide_scalars_st = st.builds(Scalar, wide_fractions_st, wide_fractions_st)


def _is_canonical(s):
    return s._d > 0 and gcd(s._a, s._b, s._d) == 1


@given(wide_scalars_st, wide_scalars_st)
def test_arithmetic_matches_fraction_pairs(x, y):
    a, b, c, e = x.re, x.im, y.re, y.im
    assert type(a) is Fraction and type(b) is Fraction
    cases = [
        (x + y, a + c, b + e),
        (x - y, a - c, b - e),
        (x * y, a * c - b * e, a * e + b * c),
        (-x, -a, -b),
        (x.conjugate(), a, -b),
    ]
    norm = c * c + e * e
    if norm:
        cases.append((x / y, (a * c + b * e) / norm, (b * c - a * e) / norm))
    for got, re, im in cases:
        assert (got.re, got.im) == (re, im)
        assert _is_canonical(got)
    assert abs2(x) == a * a + b * b
    assert type(abs2(x)) is Fraction
    assert complex(x) == complex(float(a), float(b))


@given(wide_scalars_st, wide_scalars_st)
def test_equal_values_have_equal_fields_and_hashes(x, y):
    assert _is_canonical(x)
    same = [Scalar(x.re, x.im), (x + y) - y, parse_scalar(render_scalar(x))]
    if y:
        same.append((x * y) / y)
    for z in same:
        assert z == x
        assert (z._a, z._b, z._d) == (x._a, x._b, x._d)
        assert hash(z) == hash(x)
    zero = x - x
    assert (zero._a, zero._b, zero._d) == (0, 0, 1)
    assert not zero and zero.is_zero()
    assert bool(x) == (x.re != 0 or x.im != 0) == (not x.is_zero())


def test_scalar_equals_int_and_fraction():
    assert Scalar(5) == 5 and Scalar(5) == Fraction(5)
    assert 5 == Scalar(5) and Fraction(5) == Scalar(5)
    assert Scalar(Fraction(10, 4)) == Fraction(5, 2)
    assert Scalar(Fraction(10, 4)) != 2
    assert Scalar(5, 1) != 5 and Scalar(5, 1) != Fraction(5)
    assert Scalar("3/6", "-2") == Scalar(Fraction(1, 2), -2)


def test_float_parts_are_rejected():
    with pytest.raises(TypeError):
        Scalar(0.5)
    with pytest.raises(TypeError):
        Scalar(1, 0.5)


_FLOAT_ENTRY_POINTS = {
    "Scalar": lambda x: Scalar(x),
    "EdgeGerm": lambda x: EdgeGerm(x, 1, 2),
    "EdgePoint": lambda x: EdgePoint(1, x),
    "PiecewisePoly.__call__": lambda x: PiecewisePoly.const(1)(x),
    "PiecewisePoly breakpoint": lambda x: PiecewisePoly((0, x, 1), ((ONE,), (ONE,))),
    "OpenStarSet left endpoint": lambda x: OpenStarSet(2, False, [[(x, 1, False)], []]),
    "OpenStarSet right endpoint": lambda x: edge_interval(2, 1, 0, x),
}


@pytest.mark.parametrize("entry", sorted(_FLOAT_ENTRY_POINTS))
@pytest.mark.parametrize("x", [0.5, 0.25, 0.1])
def test_floats_are_refused_at_every_exact_entry_point(entry, x):
    with pytest.raises(TypeError, match=rf"^cannot build an exact rational from {x}$"):
        _FLOAT_ENTRY_POINTS[entry](x)


def test_parts_are_read_only():
    x = Scalar(Fraction(1, 2), 3)
    with pytest.raises(AttributeError):
        x.re = Fraction(1)
    with pytest.raises(AttributeError):
        x.im = Fraction(1)
    assert (x.re, x.im) == (Fraction(1, 2), Fraction(3))


def test_real_and_complex_divisors():
    assert Scalar(1, 2) / Scalar(-2) == Scalar(Fraction(-1, 2), -1)
    assert Scalar(1, 2) / Scalar(Fraction(-1, 3)) == Scalar(-3, -6)
    assert Scalar(1) / Scalar(1, 1) == Scalar(Fraction(1, 2), Fraction(-1, 2))
    with pytest.raises(ZeroDivisionError):
        Scalar(1, 1) / 0


# -- parse_scalar fuzzing ------------------------------------------------------------

_literal_texts = st.one_of(
    st.text(alphabet="0123456789/+-i ", max_size=12),
    st.text(max_size=8),
    st.builds(
        lambda a, sign, b, tail: f"{a}{sign}{b}{tail}",
        st.integers(-30, 30).map(str) | st.sampled_from(["1/0", "0/0", "-2/3", ""]),
        st.sampled_from(["", "+", "-", " + ", "/"]),
        st.integers(0, 30).map(str) | st.sampled_from(["3/0", "4/6", "i"]),
        st.sampled_from(["", "i", " i", "ii", "/0i", "\n"]),
    ),
)


@given(_literal_texts)
def test_parse_scalar_parses_or_raises_value_error(text):
    try:
        s = parse_scalar(text)
    except ValueError:
        return
    assert isinstance(s, Scalar)
    assert parse_scalar(render_scalar(s)) == s


def test_parse_scalar_rejects_zero_denominators():
    for text in ("1/0", "0/0i", "1+1/0i", "1/0-2i"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_scalar(text)


_wide_fractions = st.fractions(max_denominator=10**12).filter(lambda x: abs(x) < 10**15)


@given(_wide_fractions, _wide_fractions)
def test_render_parse_roundtrip_on_wide_fractions(re, im):
    s = Scalar(re, im)
    text = render_scalar(s)
    assert text == render_scalar_by_fractions(s)
    assert parse_scalar(text) == s
    assert render_scalar(parse_scalar(text)) == text
