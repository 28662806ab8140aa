"""Exact linear algebra on integer matrices.

Matrices are numpy object arrays of Python ints; rational entries (Fraction)
are accepted everywhere and handled by clearing denominators once, working
on integers and dividing once at the end.  Elimination is fraction-free
(E. H. Bareiss, Math. Comp. 22, 1968): every intermediate entry is a minor
of the input, so each division is exact and no Fraction is formed inside
the loops.  Products are left to the callers, which multiply object
arrays of Python ints with numpy's dot.  Everything here backs the
stabilizer kernels and subspace membership, which all demand residual 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

ZERO = Fraction(0)


def rzeros(shape) -> np.ndarray:
    out = np.empty(shape, dtype=object)
    out[...] = 0
    return out


def is_zero_matrix(a: np.ndarray) -> bool:
    return not np.any(a)


# ------------------------------------------------------------- integers

def clear_denominators(values: list) -> tuple[list[int], int]:
    """(ints, den) with values == ints / den and den the lcm of the
    denominators."""
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


# ------------------------------------------------------ fraction-free core

def _integer_rows(mat) -> list[list[int]]:
    """The nonzero rows of mat as Python ints, each scaled by the lcm of its
    denominators (this keeps rank, kernel and row space)."""
    return [clear_denominators(row)[0] for row in np.asarray(mat).tolist() if any(row)]


def _bareiss(rows: list[list[int]], ncols: int, reduce: bool):
    """Fraction-free elimination of integer rows, in place.

    Returns (rows, pivots, det): rows[:len(pivots)] are in echelon form with
    pivot columns pivots, and det is the last pivot.  With reduce the
    elimination also clears above each pivot (fraction-free Gauss-Jordan),
    so every pivot equals det and rows[:len(pivots)] == det * rref.
    """
    n = len(rows)
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == n:
            break
        p = next((i for i in range(r, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        piv = prow[c]
        for i in range(0 if reduce else r + 1, n):
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            if f:
                rows[i] = [(piv * v - f * w) // prev for v, w in zip(row, prow)]
            elif piv != prev:
                rows[i] = [piv * v // prev for v in row]
        pivots.append(c)
        prev = piv
        r += 1
    return rows, pivots, prev


def rref(mat: np.ndarray):
    """Reduced row echelon form.  Returns (rref_matrix, pivot_columns); the
    matrix has mat's shape and Fraction entries."""
    rows, cols = mat.shape
    red, pivots, det = _bareiss(_integer_rows(mat), cols, reduce=True)
    out = np.full((rows, cols), ZERO, dtype=object)
    for i in range(len(pivots)):
        out[i, :] = [Fraction(v, det) for v in red[i]]
    return out, pivots


def rank(mat: np.ndarray) -> int:
    mat = np.asarray(mat)
    if mat.size == 0:
        return 0
    return len(_bareiss(_integer_rows(mat), mat.shape[1], reduce=False)[1])


def _primitive(v: list[int]) -> list[int]:
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v


def nullspace(mat: np.ndarray) -> list[np.ndarray]:
    """Exact kernel basis of ``mat`` (row-convention: mat @ v = 0).

    One primitive integer vector per free column f, with a positive entry
    at f and zeros at the other free columns.
    """
    cols = mat.shape[1]
    red, pivots, det = _bareiss(_integer_rows(mat), cols, reduce=True)
    sign = 1 if det > 0 else -1
    pivot_set = set(pivots)
    basis = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        v = [0] * cols
        v[fc] = sign * det
        for r, pc in enumerate(pivots):
            v[pc] = -sign * red[r][fc]
        out = np.empty(cols, dtype=object)
        out[:] = _primitive(v)
        basis.append(out)
    return basis


def solve_exact(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve mat @ x = rhs for a consistent (possibly overdetermined) system;
    free variables are set to 0.

    Raises ValueError when the system is inconsistent.
    """
    rows, cols = mat.shape
    aug = np.empty((rows, cols + 1), dtype=object)
    aug[:, :cols] = mat
    aug[:, cols] = rhs
    red, pivots, det = _bareiss(_integer_rows(aug), cols + 1, reduce=True)
    if cols in pivots:
        raise ValueError("inconsistent linear system")
    x = rzeros(cols)
    for r, pc in enumerate(pivots):
        x[pc] = Fraction(red[r][cols], det)
    return x


@dataclass(frozen=True)
class Echelon:
    """Fraction-free reduced echelon form of a spanning set, kept sparse:
    rows maps each pivot column pc to det times the rref row with that
    pivot, as {column: value} over its nonzero entries."""

    rows: dict
    det: int

    @classmethod
    def of(cls, vectors) -> Echelon:
        if not len(vectors):
            return cls({}, 1)
        mat = np.array(list(vectors), dtype=object)
        red, pivots, det = _bareiss(_integer_rows(mat), mat.shape[1], reduce=True)
        return cls({pc: {c: v for c, v in enumerate(row) if v} for pc, row in zip(pivots, red)},
                   det)

    def contains(self, v: dict) -> bool:
        """The vector with sparse entries v ({column: value}, rational) lies
        in the span: det * v - sum over the pivot columns pc in v's support
        of v[pc] * rows[pc] vanishes.  Only v's support and the rows it
        selects are read."""
        ints, _ = clear_denominators(list(v.values()))
        acc = {c: self.det * x for c, x in zip(v, ints)}
        for pc, x in zip(v, ints):
            for c, w in self.rows.get(pc, {}).items():
                acc[c] = acc.get(c, 0) - x * w
        return not any(acc.values())


def span_intersection_dim(a: list[np.ndarray], b: list[np.ndarray]) -> int:
    """dim(span(a) ∩ span(b)) via rank arithmetic."""
    if not a or not b:
        return 0
    stacked = np.vstack([np.array(a, dtype=object), np.array(b, dtype=object)])
    return rank(np.array(a, dtype=object)) + rank(np.array(b, dtype=object)) - rank(stacked)


def in_span(vectors: list[np.ndarray], v: np.ndarray) -> bool:
    return Echelon.of(vectors).contains({c: x for c, x in enumerate(v) if x})
