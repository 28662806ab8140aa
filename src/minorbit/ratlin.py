"""Exact linear algebra over the rationals.

Matrices are numpy object arrays with Fraction entries.  Everything here is
deterministic and allocation-light; it backs the structure-constant engine
and the stabilizer kernel computations, which all demand residual 0.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

ZERO = Fraction(0)
ONE = Fraction(1)


def rzeros(shape) -> np.ndarray:
    out = np.empty(shape, dtype=object)
    out[...] = ZERO
    return out


def reye(n: int) -> np.ndarray:
    out = rzeros((n, n))
    for i in range(n):
        out[i, i] = ONE
    return out


def rtrace(a: np.ndarray) -> Fraction:
    return sum((a[i, i] for i in range(a.shape[0])), ZERO)


def is_zero_matrix(a: np.ndarray) -> bool:
    return all(x == 0 for x in a.flat)


def rref(mat: np.ndarray):
    """Reduced row echelon form.  Returns (rref_matrix, pivot_columns)."""
    m = mat.copy()
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i, c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            m[[pivot, r], :] = m[[r, pivot], :]
        inv = ONE / m[r, c]
        for j in range(c, cols):
            m[r, j] = m[r, j] * inv
        for i in range(rows):
            if i != r and m[i, c] != 0:
                f = m[i, c]
                for j in range(c, cols):
                    m[i, j] = m[i, j] - f * m[r, j]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(mat: np.ndarray) -> int:
    _, pivots = rref(mat)
    return len(pivots)


def nullspace(mat: np.ndarray) -> list[np.ndarray]:
    """Exact kernel basis of ``mat`` (row-convention: mat @ v = 0)."""
    rows, cols = mat.shape
    red, pivots = rref(mat)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = rzeros(cols)
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r, fc]
        basis.append(v)
    return basis


def solve_exact(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve mat @ x = rhs for a consistent (possibly overdetermined) system.

    Raises ValueError when the system is inconsistent.
    """
    rows, cols = mat.shape
    aug = rzeros((rows, cols + 1))
    aug[:, :cols] = mat
    aug[:, cols] = rhs
    red, pivots = rref(aug)
    if cols in pivots:
        raise ValueError("inconsistent linear system")
    x = rzeros(cols)
    for r, pc in enumerate(pivots):
        x[pc] = red[r, cols]
    return x


def span_intersection_dim(a: list[np.ndarray], b: list[np.ndarray]) -> int:
    """dim(span(a) ∩ span(b)) via rank arithmetic."""
    if not a or not b:
        return 0
    stacked = np.vstack([np.array(a, dtype=object), np.array(b, dtype=object)])
    return rank(np.array(a, dtype=object)) + rank(np.array(b, dtype=object)) - rank(stacked)


def in_span(vectors: list[np.ndarray], v: np.ndarray) -> bool:
    if not vectors:
        return all(x == 0 for x in v)
    stacked = np.vstack([np.array(vectors, dtype=object), v.reshape(1, -1)])
    return rank(np.array(vectors, dtype=object)) == rank(stacked)
