from fractions import Fraction

import pytest

from germoid.linalg import Matrix, nullspace, rref, solve
from germoid.scalars import ONE, ZERO, Scalar

from conftest import scalars_st
from oracles import all_ones, conj_transpose, rank, reduce_basis
from hypothesis import given, strategies as st


def S(x):
    return Scalar(Fraction(x))


def transpose(m: Matrix) -> Matrix:
    return Matrix(list(zip(*m.rows)))


def rows(*data):
    return [[S(x) for x in row] for row in data]


def test_rref_pivots_and_normalization():
    m = rows((2, 4), (1, 3))
    pivots = rref(m)
    assert pivots == [0, 1]
    assert m[0] == [ONE, ZERO]
    assert m[1] == [ZERO, ONE]


def test_rank():
    assert rank(rows((1, 2), (2, 4))) == 1
    assert rank(rows((1, 0), (0, 1))) == 2
    assert rank(rows((0, 0), (0, 0))) == 0


def test_nullspace_annihilates():
    m = rows((1, 2, 3), (4, 5, 6))
    basis = nullspace(m, 3)
    assert len(basis) == 1
    v = basis[0]
    for row in rows((1, 2, 3), (4, 5, 6)):
        acc = ZERO
        for a, b in zip(row, v):
            acc = acc + a * b
        assert acc == ZERO


def test_solve_consistent_and_inconsistent():
    m = rows((1, 1), (1, -1))
    x = solve(m, [S(3), S(1)])
    assert x == [S(2), S(1)]
    bad = rows((1, 1), (2, 2))
    assert solve(bad, [S(1), S(3)]) is None
    under = rows((1, 1),)
    x = solve(under, [S(5)])
    assert x is not None
    assert x[0] + x[1] == S(5)


def test_reduce_basis_is_canonical():
    b1 = reduce_basis([[S(2), S(0), S(2)], [S(0), S(3), S(3)]])
    b2 = reduce_basis([[S(2), S(3), S(5)], [S(-2), S(3), S(1)]])
    assert b1 == b2  # same span, same reduced form


def test_matrix_ops():
    a = Matrix(rows((1, 2), (3, 4)))
    b = Matrix(rows((0, 1), (1, 0)))
    assert a * b == Matrix(rows((2, 1), (4, 3)))
    assert a + b - b == a
    assert (a * Matrix.identity(2)) == a
    assert transpose(a) == Matrix(rows((1, 3), (2, 4)))
    assert all_ones(2) - Matrix.identity(2) == b
    assert a.vec() == [S(1), S(2), S(3), S(4)]


def test_conj_transpose_with_imaginary_entries():
    i = Scalar(0, 1)
    m = Matrix([[i, ONE], [ZERO, -i]])
    ct = conj_transpose(m)
    assert ct[0, 0] == Scalar(0, -1)
    assert ct[1, 0] == ONE
    assert ct[0, 1] == ZERO


def test_shape_errors():
    with pytest.raises(ValueError):
        Matrix([[ONE], [ONE, ZERO]])
    with pytest.raises(ValueError):
        Matrix.identity(2) * Matrix.zeros(3, 3)


@given(st.lists(st.lists(scalars_st, min_size=3, max_size=3), min_size=2, max_size=4))
def test_nullspace_dimension_theorem(data):
    basis = nullspace([list(r) for r in data], 3)
    assert len(basis) == 3 - rank(data)


def _dense_rref(rows):
    """Textbook Gauss-Jordan over every cell; the reference for rref."""
    pivots, r = [], 0
    for c in range(len(rows[0]) if rows else 0):
        k = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for k in range(len(rows)):
            if k != r:
                factor = rows[k][c]
                rows[k] = [a - factor * b for a, b in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


sparse_entry_st = st.one_of(st.just(ZERO), st.just(ZERO), scalars_st)


@given(st.integers(1, 6).flatmap(
    lambda w: st.lists(st.lists(sparse_entry_st, min_size=w, max_size=w), min_size=1, max_size=6)
))
def test_rref_matches_dense_elimination(data):
    fast = [tuple(r) for r in data]  # rref also takes tuple rows
    slow = [list(r) for r in data]
    assert rref(fast) == _dense_rref(slow)
    assert [list(r) for r in fast] == slow
