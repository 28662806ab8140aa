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


@settings(max_examples=150, deadline=None)
@given(st.one_of(_matrices(_ints), _matrices(_rationals)), st.data())
def test_echelon_membership_matches_rank(rows, data):
    # a combination of the rows (the zero vector among them), an arbitrary
    # vector and the zero vector; in_span tests each on its nonzero entries
    mat = _obj(rows)
    weights = _obj(data.draw(st.lists(_rationals, min_size=len(rows), max_size=len(rows))))
    other = _obj(data.draw(st.lists(_rationals, min_size=mat.shape[1], max_size=mat.shape[1])))
    for v, member in ((weights.dot(mat), True), (other, None), (0 * other, True)):
        expect = ratlin.rank(mat) == ratlin.rank(np.vstack([mat, v.reshape(1, -1)]))
        assert member is None or expect == member
        assert ratlin.in_span(list(mat), v) == expect

