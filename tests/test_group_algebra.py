"""The integer group-algebra vector against the {Permutation: Scalar} dict
forms in tests/oracles.py: product, sum, scale, involution, gluing sums,
equality and hash, on the cross, A4, A5 and a group without recorded
generators.  Products run through the Python loop, the int64 numpy product
and the object-array product past int64."""

from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import germoid.algebra
from germoid.algebra import GroupAlgebraElement
from germoid.perms import PermGroup
from germoid.scalars import Scalar
from oracles import (
    add_by_dict,
    adjoint_by_dict,
    convolve_by_dict,
    is_canonical_vector,
    pair_sums_by_dict,
    scale_by_dict,
)

GROUPS = {
    "cross": PermGroup.klein_cross(),
    "A4": PermGroup.alternating(4),
    "A5": PermGroup.alternating(5),
    "S4 without generators": PermGroup(4, PermGroup.symmetric(4).elements),
}
# SMALL_PRODUCT per path: every product of two or more values through the
# Python loop, or all of them through numpy
PATHS = {"python": 10**9, "numpy": 0}
# numerators near 2^40 over small denominators push every product past int64
SPANS = {"int64": 4, "object": 2**40}


@contextmanager
def _path(name):
    saved = germoid.algebra.SMALL_PRODUCT
    germoid.algebra.SMALL_PRODUCT = PATHS[name]
    try:
        yield
    finally:
        germoid.algebra.SMALL_PRODUCT = saved


def _scalars(span):
    part = st.builds(Fraction, st.integers(-span, span), st.integers(1, 6))
    return st.builds(Scalar, part, part)


def _dicts(group, span):
    """{Permutation: Scalar} with the zero values dropped, as the oracles keep them."""
    return st.dictionaries(
        st.sampled_from(group.elements), _scalars(span), max_size=len(group)
    ).map(lambda f: {s: c for s, c in f.items() if c})


@st.composite
def _cases(draw, count):
    """(group name, path, dicts): count dicts on one group, from one span."""
    name = draw(st.sampled_from(sorted(GROUPS)))
    path = draw(st.sampled_from(sorted(PATHS)))
    span = SPANS[draw(st.sampled_from(sorted(SPANS)))]
    return name, path, [draw(_dicts(GROUPS[name], span)) for _ in range(count)]


def _vector(group, f):
    v = GroupAlgebraElement(group, f)
    assert is_canonical_vector(v)
    return v


def _as_dict(v):
    assert is_canonical_vector(v)
    return dict(v.items())


@settings(max_examples=150, deadline=None)
@given(_cases(2))
def test_product_matches_convolve_by_dict(case):
    name, path, (f, g) = case
    G = GROUPS[name]
    with _path(path):
        assert _as_dict(_vector(G, f) * _vector(G, g)) == convolve_by_dict(f, g)


@settings(max_examples=150, deadline=None)
@given(_cases(2), _scalars(4))
def test_linear_structure_matches_the_dict_forms(case, c):
    name, path, (f, g) = case
    G = GROUPS[name]
    F, H = _vector(G, f), _vector(G, g)
    with _path(path):
        assert _as_dict(F + H) == add_by_dict(f, g)
        assert _as_dict(F - H) == add_by_dict(f, scale_by_dict(Scalar(-1), g))
        assert _as_dict(-F) == scale_by_dict(Scalar(-1), f)
        assert _as_dict(F.scale(c)) == scale_by_dict(c, f)
        assert _as_dict(F.adjoint()) == adjoint_by_dict(f)
        sums = F.pair_sums()
        assert {pair: _scalar_over(a, b, F.d) for pair, (a, b) in sums.items()} == (
            pair_sums_by_dict(f, G.n)
        )


def _scalar_over(a, b, d):
    return Scalar(Fraction(a, d), Fraction(b, d))


@settings(max_examples=150, deadline=None)
@given(_cases(2))
def test_equality_and_hash_match_the_dict_forms(case):
    name, path, (f, g) = case
    G = GROUPS[name]
    F, H = _vector(G, f), _vector(G, g)
    assert (F == H) == (f == g)
    # the same values reached another way: reversed insertion, a sum, a product
    again = _vector(G, dict(reversed(list(f.items()))))
    assert again == F and hash(again) == hash(F)
    with _path(path):
        assert F + H == H + F and hash(F + H) == hash(H + F)
        assert (F + H) - H == F and hash((F + H) - H) == hash(F)
        one = GroupAlgebraElement.unit(G)
        assert one * F == F * one == F and hash(one * F) == hash(F)
    assert (F == F.scale(2)) == (not f)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_an_element_of_another_group_is_refused(name):
    G = GROUPS[name]
    other = PermGroup.symmetric(G.n) if len(G) != 24 else PermGroup.alternating(G.n)
    a, b = GroupAlgebraElement.unit(G), GroupAlgebraElement.unit(other)
    assert a != b
    for op in (lambda: a + b, lambda: a * b):
        with pytest.raises(ValueError, match="^elements of different group algebras$"):
            op()
