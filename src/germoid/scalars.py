"""Gaussian rationals: complex scalars with exact rational real and imaginary parts.

Every primary computation in this package runs over these scalars; nothing
here ever rounds.

A scalar (a + b*i)/d is stored as three Python ints a, b, d in canonical
form: d > 0 and gcd(a, b, d) == 1, so zero is (0, 0, 1).  Equal values have
equal fields, which makes equality a compare of three ints and lets the hash
use the triple.  Arithmetic works on the integers directly; the real and
imaginary parts are handed out as ``Fraction`` only when asked for, and
``render_parts`` writes a value from its integers, with no ``Fraction``.
``algebra.GroupAlgebraElement`` (its constructor, ``scale`` and the values
it hands out), ``algebra.from_sheet`` and ``poly`` (its ``coeffs``,
``from_scalars``, ``pconst``, ``pscale`` and ``peval``) read the triples
or build them with ``_make``, so they follow any change to this
representation.  ``_frac`` is the one coercion to an exact rational: an
int, a str or a ``Fraction``; a float raises ``TypeError``.  Edge
coordinates, breakpoints and open-set endpoints all go through it.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


class Scalar:
    """A complex number re + im*i with rational re, im, stored as (a + b*i)/d."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if re.__class__ is int and im.__class__ is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = _frac(re), _frac(im)
        q, s = re.denominator, im.denominator
        d = q * s // gcd(q, s)
        # with both fractions reduced, no prime divides a, b and the lcm d
        self._a = re.numerator * (d // q)
        self._b = im.numerator * (d // s)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other):
        if other.__class__ is not Scalar:
            other = as_scalar(other)
        return _sum(self._a, self._b, self._d, other._a, other._b, other._d)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Scalar:
            other = as_scalar(other)
        return _sum(self._a, self._b, self._d, -other._a, -other._b, other._d)

    def __rsub__(self, other):
        return as_scalar(other) - self

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            other = as_scalar(other)
        a, b = self._a, self._b
        c, e = other._a, other._b
        m = self._d * other._d
        if not b:
            re, im = a * c, a * e
        elif not e:
            re, im = a * c, b * c
        else:
            re, im = a * c - b * e, a * e + b * c
        g = gcd(re, im, m)
        if g == 1:
            return _make(re, im, m)
        return _make(re // g, im // g, m // g)

    __rmul__ = __mul__

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __truediv__(self, other):
        if other.__class__ is not Scalar:
            other = as_scalar(other)
        a, b = self._a, self._b
        c, e, f = other._a, other._b, other._d
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero scalar")
            # (a + b i)/d / (c/f) = (a f + b f i)/(d c)
            re, im, m = a * f, b * f, self._d * c
            if m < 0:
                re, im, m = -re, -im, -m
        else:
            # multiply by the conjugate (c - e i)/f over the norm (c^2 + e^2)/f^2
            re, im = (a * c + b * e) * f, (b * c - a * e) * f
            m = self._d * (c * c + e * e)
        g = gcd(re, im, m)
        if g == 1:
            return _make(re, im, m)
        return _make(re // g, im // g, m // g)

    def conjugate(self):
        return _make(self._a, -self._b, self._d)

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def __eq__(self, other):
        if other.__class__ is Scalar:
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (not self._b and self._d == other.denominator
                    and self._a == other.numerator)
        return NotImplemented

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __bool__(self):
        return bool(self._a or self._b)

    def __complex__(self):
        # int true division rounds correctly, like float(Fraction)
        return complex(self._a / self._d, self._b / self._d)

    def __str__(self):
        return render_scalar(self)

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"


_new = object.__new__


def _make(a: int, b: int, d: int) -> Scalar:
    """A scalar from a canonical triple, without checking it."""
    s = _new(Scalar)
    s._a = a
    s._b = b
    s._d = d
    return s


def _sum(a: int, b: int, d: int, c: int, e: int, f: int) -> Scalar:
    """(a + b*i)/d + (c + e*i)/f for canonical triples, in canonical form."""
    if d == f:
        a, b = a + c, b + e
        if d == 1:
            return _make(a, b, 1)
        g = gcd(a, b, d)
        if g == 1:
            return _make(a, b, d)
        return _make(a // g, b // g, d // g)
    # over the lcm of the denominators; only primes of gcd(d, f) can cancel
    g = gcd(d, f)
    s, t = d // g, f // g
    a, b = a * t + c * s, b * t + e * s
    if g == 1:
        return _make(a, b, d * f)
    g2 = gcd(a, b, g)
    if g2 == 1:
        return _make(a, b, s * f)
    return _make(a // g2, b // g2, s * (f // g2))


ZERO = Scalar(0)
ONE = Scalar(1)


def as_scalar(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    raise TypeError(f"cannot coerce {x!r} to a scalar")


def render_scalar(s: Scalar) -> str:
    """Bit-exact rendering "p/q+r/si"; round-trips through parse_scalar."""
    return render_parts(s._a, s._b, s._d)


def _ratio(a: int, d: int) -> str:
    """a/d in lowest terms, as ``str(Fraction(a, d))`` writes it, for d > 0."""
    g = gcd(a, d)
    if g != 1:
        a //= g
        d //= g
    return f"{a}/{d}" if d != 1 else str(a)


def render_parts(a: int, b: int, d: int) -> str:
    """``render_scalar`` of (a + b*i)/d for d > 0, in any terms: each part
    is reduced by its own gcd, so no ``Fraction`` is built."""
    if not b:
        return _ratio(a, d)
    if not a:
        return _ratio(b, d) + "i"
    if b > 0:
        return f"{_ratio(a, d)}+{_ratio(b, d)}i"
    return f"{_ratio(a, d)}-{_ratio(-b, d)}i"


_PURE_RE = _re.compile(r"^\s*([+-]?\d+(?:/\d+)?)\s*$")
_PURE_IM = _re.compile(r"^\s*([+-]?\d+(?:/\d+)?)i\s*$")
_BOTH = _re.compile(r"^\s*([+-]?\d+(?:/\d+)?)\s*([+-])\s*(\d+(?:/\d+)?)i\s*$")


def parse_scalar(text: str) -> Scalar:
    """Parse a literal in the format of render_scalar; raise ``ValueError``
    on any other text, a zero denominator included."""
    try:
        return _parse_scalar(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar literal: {text!r}") from None


def _parse_scalar(text: str) -> Scalar:
    m = _PURE_RE.match(text)
    if m:
        return Scalar(Fraction(m.group(1)))
    m = _PURE_IM.match(text)
    if m:
        return Scalar(0, Fraction(m.group(1)))
    m = _BOTH.match(text)
    if m:
        im = Fraction(m.group(3))
        return Scalar(Fraction(m.group(1)), im if m.group(2) == "+" else -im)
    raise ValueError(f"malformed scalar literal: {text!r}")
