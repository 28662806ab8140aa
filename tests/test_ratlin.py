"""Fraction-free (Bareiss) kernels against their defining properties."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minorbit import ratlin

_ints = st.integers(-6, 6)
_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def _matrices(entries):
    return st.integers(1, 6).flatmap(lambda rows: st.integers(1, 6).flatmap(
        lambda cols: st.lists(st.lists(entries, min_size=cols, max_size=cols),
                              min_size=rows, max_size=rows)))


def _obj(rows):
    return np.array(rows, dtype=object)


def _is_zero(vec):
    return all(v == 0 for v in vec)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_matrices(_ints), _matrices(_rationals)))
def test_rank_and_nullspace_properties(rows):
    mat = _obj(rows)
    r = ratlin.rank(mat)
    kernel = ratlin.nullspace(mat)
    assert len(kernel) == mat.shape[1] - r
    for v in kernel:
        assert all(type(x) is int for x in v)
        assert not _is_zero(v)
        assert _is_zero(mat.dot(v))
    if kernel:
        assert ratlin.rank(_obj(kernel)) == len(kernel)
    assert ratlin.rank(mat.T) == r
    red, pivots = ratlin.rref(mat)
    assert len(pivots) == r and red.shape == mat.shape
    assert all(red[i, c] == 1 for i, c in enumerate(pivots))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_matrices(_ints), _matrices(_rationals)), st.data())
def test_solve_exact_satisfies_consistent_system(rows, data):
    mat = _obj(rows)
    x0 = _obj(data.draw(st.lists(_rationals, min_size=mat.shape[1], max_size=mat.shape[1])))
    rhs = mat.dot(x0)
    x = ratlin.solve_exact(mat, rhs)
    assert list(mat.dot(x)) == list(rhs)


def test_solve_exact_rejects_inconsistent_system():
    mat = _obj([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        ratlin.solve_exact(mat, _obj([1, 3]))


@settings(max_examples=80, deadline=None)
@given(_matrices(_ints), st.data())
def test_echelon_membership_matches_rank(rows, data):
    mat = _obj(rows)
    v = _obj(data.draw(st.lists(_ints, min_size=mat.shape[1], max_size=mat.shape[1])))
    expect = ratlin.rank(mat) == ratlin.rank(np.vstack([mat, v.reshape(1, -1)]))
    assert ratlin.in_span(list(mat), v) == expect


def test_products_past_the_int64_bound_use_python_ints(gl2):
    # entries of 2**40 push max|x| max|y| * dim past 2**63, so the guard
    # routes the product to Python ints; the result must scale exactly
    x, y = gl2.triples[0].x, gl2.triples[0].y
    big = 2 ** 40
    assert 2 * big * big * gl2.dim_ambient > ratlin.INT64_MAX
    small = ratlin.commutator(x, y)
    assert list(small.flat) == list((x.dot(y) - y.dot(x)).flat)
    large = ratlin.commutator(big * x, big * y)
    assert all(type(v) is int for v in large.flat)
    assert list(large.flat) == [big * big * v for v in small.flat]
    prod = ratlin.matmul(big * x, big * y)
    assert list(prod.flat) == [big * big * v for v in ratlin.matmul(x, y).flat]


def test_rational_products_divide_once(o2):
    y = o2.triples[0].y * Fraction(2, 3)
    th = o2.theta(y)
    assert list(ratlin.commutator(y, th).flat) == list((y.dot(th) - th.dot(y)).flat)
    assert ratlin.trace_product(y, th) == sum(y.dot(th).diagonal())

