"""Exact-arithmetic graded matrix models g = nbar + l + n.

Each explicit family is one `ModelSpec` in `SPECS`, which holds its block
layout and its formulas on nbar blocks:

* split orthogonal model: 4n x 4n matrices preserving the split symmetric
  form, with l the diagonal GL_2n block, n the lower-left skew block and
  nbar the upper-right skew block (y_1 sits upper-right);
* split general linear model: gl_2n with l the two diagonal n x n blocks,
  n the upper-right block and nbar the lower-left block.

Basis matrices have entries 0 or +-1, so structure constants, brackets and
trace products are computed on Python integers (the form is an integer
trace times form_scale), and every identity asserted here has residual
exactly 0.  The float formulas of the specs drive the Monte Carlo layer in
`orbit`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from . import ratlin
from .catalog import Family, get_class
from .ratlin import ZERO
from .reports import ModelInvariantError, SpanError, VerificationReport

# rational palette for random group elements; keeps orbit points exact
_DIAG_PALETTE = (Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2), Fraction(2))
_OFFDIAG_PALETTE = (Fraction(-1), Fraction(-1, 2), Fraction(1, 3), Fraction(1, 2), Fraction(1))


@dataclass(frozen=True)
class SL2Triple:
    j: int
    x: np.ndarray
    y: np.ndarray
    h: np.ndarray


class GradedModel:
    """A graded Lie algebra model with integer basis and exact form.

    Basis matrices have entries 0 or +-1, so brackets, structure constants
    and trace products are integers; the form is form_scale times the
    integer trace.  The tables below are built on first use.
    """

    def __init__(self, family: Family, n: int):
        if family not in SPECS:
            raise ValueError(f"no matrix model for family {family}")
        if not 2 <= n <= 6:
            raise ValueError(f"rank n={n} outside supported range [2, 6]")
        self.family = family
        self.spec = SPECS[family]
        self.n = n
        row = get_class(family)
        mult = row.multiplicities()
        self.d = mult.d
        self.e = mult.e

        self.block_size = self.spec.block_per_rank * n
        self.dim_ambient = 2 * self.block_size
        self.basis, self.grades = self.spec.basis(self.block_size)
        self.nu_covector = np.array([self.nu_from_traces(b) for b in self.basis], dtype=object)
        self.dim = len(self.basis)
        self.nbar_indices = [i for i, g in enumerate(self.grades) if g == -1]
        self.l_indices = [i for i, g in enumerate(self.grades) if g == 0]
        self.n_indices = [i for i, g in enumerate(self.grades) if g == 1]
        self._sparse = [_to_sparse(b) for b in self.basis]
        self._leads = self._build_lead_map()

    def _build_lead_map(self):
        leads = {}
        for k, sp in enumerate(self._sparse):
            pos, val = sp[0]
            if val not in (1, -1):
                raise ModelInvariantError("basis lead entry is not +-1")
            leads[pos] = (k, val)   # val is its own inverse
        return leads

    # -------------------------------------------------------------- layout

    def _off_diagonal(self, grade: int) -> tuple[slice, slice]:
        head, tail = slice(None, self.block_size), slice(self.block_size, None)
        upper = (grade == -1) == self.spec.nbar_upper
        return (head, tail) if upper else (tail, head)

    def block(self, mat: np.ndarray, grade: int) -> np.ndarray:
        """The off-diagonal block of grade -1 (nbar) or +1 (n) of mat, or of
        each matrix of a stack."""
        rows, cols = self._off_diagonal(grade)
        return mat[..., rows, cols]

    def embed(self, block: np.ndarray, grade: int) -> np.ndarray:
        """The ambient matrix, or stack, holding block in the place of grade
        -1 (nbar) or +1 (n); exact blocks give exact matrices."""
        shape = block.shape[:-2] + (self.dim_ambient, self.dim_ambient)
        out = ratlin.rzeros(shape) if block.dtype == object else np.zeros(shape)
        rows, cols = self._off_diagonal(grade)
        out[..., rows, cols] = block
        return out

    def nu_from_traces(self, mat: np.ndarray):
        """nu of an l element as weighted traces of its diagonal blocks;
        Fraction for exact matrices, float for float ones."""
        b = self.block_size
        top, bottom = self.spec.nu_weights
        return top * np.trace(mat[:b, :b]) + bottom * np.trace(mat[b:, b:])

    # ------------------------------------------------------------- indexing

    @property
    def dim_nbar(self) -> int:
        return len(self.nbar_indices)

    @property
    def dim_l(self) -> int:
        return len(self.l_indices)

    # -------------------------------------------------------------- algebra

    def zero(self) -> np.ndarray:
        return ratlin.rzeros((self.dim_ambient, self.dim_ambient))

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return ratlin.commutator(x, y)

    def theta(self, x: np.ndarray) -> np.ndarray:
        return -x.T

    @cached_property
    def form_scale(self) -> Fraction:
        t = self.triples[0]
        tr = ratlin.trace_product(t.x, t.y)
        if tr == 0:
            raise ModelInvariantError("degenerate normalization trace")
        return Fraction(1, tr)

    def pair(self, x: np.ndarray, y: np.ndarray) -> Fraction:
        return self.form_scale * ratlin.trace_product(x, y)

    def coords(self, x: np.ndarray) -> dict:
        """Sparse coordinates {k: c} of x in the model basis; SpanError when
        x is outside the span."""
        rows, cols = np.nonzero(x)
        return self._coords_of(dict(zip(zip(rows.tolist(), cols.tolist()),
                                        x[rows, cols].tolist())))

    def _coords_of(self, entries: dict) -> dict:
        """Sparse coordinates of the matrix with nonzero entries {(r, c): v}."""
        coords = {}
        for pos, v in entries.items():
            lead = self._leads.get(pos)
            if lead is not None:
                coords[lead[0]] = v * lead[1]
        # subtract the reconstruction and demand an exactly zero remainder
        rest = dict(entries)
        for k, ck in coords.items():
            for pos, val in self._sparse[k]:
                newv = rest.get(pos, 0) - ck * val
                if newv == 0:
                    rest.pop(pos, None)
                else:
                    rest[pos] = newv
        if rest:
            raise SpanError(f"element outside model span (remainder at {sorted(rest)[:4]})")
        return coords

    # -------------------------------------------------------------- triples

    @cached_property
    def triples(self) -> list[SL2Triple]:
        out = []
        for j in range(1, self.n + 1):
            y = self._y_matrix(j)
            x = -self.theta(y)
            h = self.bracket(x, y)
            out.append(SL2Triple(j, x, y, h))
        return out

    def _y_matrix(self, j: int) -> np.ndarray:
        block = ratlin.rzeros((self.block_size, self.block_size))
        for r, c, val in self.spec.y_entries(j):
            block[r, c] = val
        return self.embed(block, -1)

    @property
    def grading_element(self) -> np.ndarray:
        h = self.zero()
        for t in self.triples:
            h = h + t.h
        return h

    # ------------------------------------------------------------ theta/perm

    @cached_property
    def theta_perm(self) -> list[tuple[int, int]]:
        """theta basis-to-basis: theta(e_k) = sign * e_target."""
        perm = []
        for k in range(self.dim):
            nz = list(self.coords(self.theta(self.basis[k])).items())
            if len(nz) != 1 or abs(nz[0][1]) != 1:
                raise ModelInvariantError("theta is not signed-permutation on this basis")
            perm.append(nz[0])
        return perm

    # ----------------------------------------------------------- form tables

    @cached_property
    def trace_gram(self) -> np.ndarray:
        """Integer Gram matrix tr(e_i e_j); the form is form_scale times it."""
        at: dict = {}
        for j, sp in enumerate(self._sparse):
            for pos, w in sp:
                at.setdefault(pos, []).append((j, w))
        g = ratlin.rzeros((self.dim, self.dim))
        for i, sp in enumerate(self._sparse):
            for (r, c), v in sp:
                for j, w in at.get((c, r), ()):
                    g[i, j] += v * w
        return g

    @cached_property
    def l_gram(self) -> np.ndarray:
        """Integer Gram matrix of the trace form on the l-basis; the form
        is form_scale times it."""
        idx = self.l_indices
        return self.trace_gram[np.ix_(idx, idx)]

    @cached_property
    def l_gram_b(self) -> np.ndarray:
        """Integer Gram matrix on the l-basis of -tr(u theta v); the
        definite product B is form_scale times it."""
        idx = self.l_indices
        out = ratlin.rzeros((len(idx), len(idx)))
        for b, j in enumerate(idx):
            tj, sj = self.theta_perm[j]
            out[:, b] = -sj * self.trace_gram[idx, tj]
        return out

    @cached_property
    def l_basis_flat(self) -> np.ndarray:
        """The l basis matrices as the flattened rows of one integer matrix."""
        return np.array([self.basis[k].ravel() for k in self.l_indices], dtype=object)

    @cached_property
    def table(self) -> dict:
        """Structure constants: (i, j) with i < j maps to {k: coeff}."""
        return {(i, j): self._coords_of(_sparse_bracket(self._sparse[i], self._sparse[j]))
                for i in range(self.dim) for j in range(i + 1, self.dim)}

    @cached_property
    def ad(self) -> list[dict]:
        """Sparse integer ad(e_i) as {j: {k: c}} over its nonzero columns,
        [e_i, e_j] = sum_k c e_k."""
        ad: list[dict] = [{} for _ in range(self.dim)]
        for (i, j), entry in self.table.items():
            if entry:
                ad[i][j] = entry
                ad[j][i] = {k: -c for k, c in entry.items()}
        return ad

    def table_entry(self, i: int, j: int) -> dict:
        return self.ad[i].get(j, {})

    def bracket_coords(self, x: dict, y: dict) -> dict:
        """Sparse coordinates of [x, y] for sparse coordinates x and y."""
        out: dict = {}
        ad = self.ad
        for i, a in x.items():
            ad_i = ad[i]
            for j, b in y.items():
                col = ad_i.get(j)
                if col:
                    _acc_coeff(out, col, a * b)
        return out

    # -------------------------------------------------------------- actions

    def random_l_action(self, rand: random.Random):
        """A random rational element of L as its action on nbar blocks.

        Returns a callable mapping an nbar block matrix to its transform.
        Products of elementary and diagonal factors keep everything exact.
        """
        return self.spec.l_action(rand, self.block_size)

    def l_from_gl_block(self, a: np.ndarray) -> np.ndarray:
        """Embed a GL block as an element of l.

        For the orthogonal model the canonical identification reads off the
        lower-right block, so nu(embedded identity) = (1/2) tr.  The general
        linear model takes a pair (A, D) and this helper embeds (a, a).
        """
        out = self.zero()
        b = self.block_size
        out[:b, :b], out[b:, b:] = self.spec.gl_diagonal(a)
        return out


# ------------------------------------------------------------------ sparse

_EMPTY: dict = {}   # read-only stand-in for a missing sparse column


def _to_sparse(mat: np.ndarray):
    rows, cols = np.nonzero(mat)
    return list(zip(zip(rows.tolist(), cols.tolist()), mat[rows, cols].tolist()))


def _sparse_bracket(a, b) -> dict:
    out: dict = {}
    for (r1, c1), v1 in a:
        for (r2, c2), v2 in b:
            if c1 == r2:
                key = (r1, c2)
                out[key] = out.get(key, 0) + v1 * v2
            if c2 == r1:
                key = (r2, c1)
                out[key] = out.get(key, 0) - v2 * v1
    return {k: v for k, v in out.items() if v != 0}


def _random_gl(rand: random.Random, m: int) -> np.ndarray:
    a = ratlin.reye(m)
    for _ in range(3):
        kind = rand.choice(("diag", "unip", "unip"))
        f = ratlin.reye(m)
        if kind == "diag":
            for i in range(m):
                f[i, i] = rand.choice(_DIAG_PALETTE)
        else:
            i = rand.randrange(m)
            j = rand.randrange(m)
            if i == j:
                j = (j + 1) % m
            f[i, j] = rand.choice(_OFFDIAG_PALETTE)
        a = ratlin.matmul(a, f)
    return a


def _invert_exact(a: np.ndarray) -> np.ndarray:
    m = a.shape[0]
    aug = np.empty((m, 2 * m), dtype=object)
    aug[:, :m] = a
    aug[:, m:] = ratlin.reye(m)
    red, pivots = ratlin.rref(aug)
    if pivots[:m] != list(range(m)):
        raise ValueError("matrix not invertible")
    return red[:, m:]


# ---------------------------------------------------------- family specs

def _orthogonal_basis(m: int):
    """Split so(2m, 2m): nbar upper-right skew, l = gl_m, n lower-left skew."""
    basis, grades = [], []
    nbar_pairs = [(r, c) for r in range(m) for c in range(r + 1, m)]
    for r, c in nbar_pairs:
        mat = ratlin.rzeros((2 * m, 2 * m))
        mat[r, m + c] = 1
        mat[c, m + r] = -1
        basis.append(mat)
        grades.append(-1)
    for i in range(m):
        for j in range(m):
            mat = ratlin.rzeros((2 * m, 2 * m))
            mat[i, j] += 1
            mat[m + j, m + i] -= 1
            basis.append(mat)
            grades.append(0)
    for r, c in nbar_pairs:
        mat = ratlin.rzeros((2 * m, 2 * m))
        mat[m + r, c] = 1
        mat[m + c, r] = -1
        basis.append(mat)
        grades.append(1)
    return basis, grades


def _general_linear_basis(n: int):
    """gl_2n: nbar lower-left, l = gl_n + gl_n (blocks A, D), n upper-right."""
    basis, grades = [], []
    nbar_pairs = [(i, j) for i in range(n) for j in range(n)]
    for i, j in nbar_pairs:
        mat = ratlin.rzeros((2 * n, 2 * n))
        mat[n + i, j] = 1
        basis.append(mat)
        grades.append(-1)
    l_pairs = [("A", i, j) for i in range(n) for j in range(n)]
    l_pairs += [("D", i, j) for i in range(n) for j in range(n)]
    for tag, i, j in l_pairs:
        mat = ratlin.rzeros((2 * n, 2 * n))
        if tag == "A":
            mat[i, j] = 1
        else:
            mat[n + i, n + j] = 1
        basis.append(mat)
        grades.append(0)
    for i, j in nbar_pairs:
        mat = ratlin.rzeros((2 * n, 2 * n))
        mat[i, n + j] = 1
        basis.append(mat)
        grades.append(1)
    return basis, grades


def _orthogonal_l_action(rand: random.Random, m: int):
    a = _random_gl(rand, m)
    at = a.T
    return lambda block: ratlin.matmul(ratlin.matmul(a, block), at)


def _general_linear_l_action(rand: random.Random, m: int):
    p = _random_gl(rand, m)
    pinv = _invert_exact(p)
    q = _random_gl(rand, m)
    return lambda block: ratlin.matmul(ratlin.matmul(q, block), pinv)


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product sum_i a[n, i] b[n, i]."""
    return np.einsum("ni,ni->n", a, b)


def _normalize_rows(a: np.ndarray) -> np.ndarray:
    a /= np.sqrt(rowdot(a, a))[:, None]
    return a


def _orthonormal_pairs(rng: np.random.Generator, count: int, m: int):
    u = _normalize_rows(rng.standard_normal((count, m)))
    v = rng.standard_normal((count, m))
    v -= rowdot(v, u)[:, None] * u
    return u, _normalize_rows(v)


def _unit_pairs(rng: np.random.Generator, count: int, m: int):
    u = _normalize_rows(rng.standard_normal((count, m)))
    return u, _normalize_rows(rng.standard_normal((count, m)))


def _skew_crown_pair(x_block, y1_block, u, v, w):
    s = x_block @ y1_block + y1_block @ x_block
    return 0.5 * (w ** 2) * (rowdot(u @ s, u) + rowdot(v @ s, v))


def _rank_one_crown_pair(x_block, y1_block, u, v, w):
    # y_1 has nbar block E_11, so only the first row and column of x enter
    term_v = v[:, 0] * (v @ x_block[:, 0])
    term_u = u[:, 0] * (u @ x_block[0, :])
    return (w ** 2) * (term_v + term_u)


def _log_uniform(rand: random.Random, m: int) -> np.ndarray:
    return np.array([math.exp(rand.uniform(-0.4, 0.4)) for _ in range(m)])


def _orthogonal_diag_l(rand: random.Random, m: int, d: int):
    delta = _log_uniform(rand, m)
    return (lambda u, v: (u * delta, v * delta)), float(np.prod(delta)) ** (-d)


def _general_linear_diag_l(rand: random.Random, m: int, d: int):
    p = _log_uniform(rand, m)
    q = _log_uniform(rand, m)
    return (lambda u, v: (u * q, v / p)), (float(np.prod(p)) / float(np.prod(q))) ** d


def _skew_radius(a, b, w):
    na = rowdot(a, a)
    nb = rowdot(b, b)
    ab = rowdot(a, b)
    return w * np.sqrt(np.maximum(na * nb - ab * ab, 0.0))


def _rank_one_radius(a, b, w):
    return w * np.sqrt(rowdot(a, a)) * np.sqrt(rowdot(b, b))


@dataclass(frozen=True)
class ModelSpec:
    """Everything that one explicit family knows about its matrices.

    Layout: the two diagonal blocks, of size block_per_rank * n, carry l;
    nbar sits in the upper-right block when nbar_upper, else lower-left, and
    n in the other off-diagonal block.

    Float formulas: a point of the orbit is w * y'(u, v), where y' is the
    nbar block unit_block(u, v) of the unit-direction rows u, v.  They were
    derived from the trace form and are checked against the exact model in
    the tests.
    """

    basis: Callable            # block size -> (basis, grades): nbar, l, n
    block_per_rank: int
    nbar_upper: bool
    nu_weights: tuple          # nu = w0 tr(upper-left) + w1 tr(lower-right)
    y_entries: Callable        # j -> ((row, col, value), ...) in y_j's nbar block
    gl_diagonal: Callable      # a -> the diagonal blocks of l_from_gl_block(a)
    l_action: Callable         # (rand, block size) -> exact L action on nbar blocks
    sample_units: Callable     # (rng, count, block size) -> rows (u, v)
    unit_block: Callable       # (u, v) -> stack of nbar blocks y'(u, v)
    crown_pair: Callable       # (x block, y_1 block, u, v, w) -> <x, [[theta y, y_1], y]>
    m_rotation_pair: Callable  # (r, r2) -> rotations acting on u and on v
    random_diag_l: Callable    # (rand, block size, d) -> ((u, v) -> (a, b), character)
    radius: Callable           # (a, b, w) -> |w y'(a, b)|


SPECS = {
    Family.O2N2N: ModelSpec(
        basis=_orthogonal_basis, block_per_rank=2, nbar_upper=True,
        # nu = (1/2) tr of the lower-right GL_2n block, i.e. -(1/2) tr of the
        # upper-left block; this is the unique character with nu(h_j) = 1
        nu_weights=(Fraction(-1, 2), ZERO),
        # y_j has nbar block B_j = [[0, -1], [1, 0]] at rows/columns 2j-2, 2j-1
        y_entries=lambda j: ((2 * j - 2, 2 * j - 1, -1), (2 * j - 1, 2 * j - 2, 1)),
        gl_diagonal=lambda a: (-a.T, a),
        l_action=_orthogonal_l_action,
        sample_units=_orthonormal_pairs,
        unit_block=lambda u, v: u[:, :, None] * v[:, None, :] - v[:, :, None] * u[:, None, :],
        crown_pair=_skew_crown_pair,
        m_rotation_pair=lambda r, r2: (r, r),
        random_diag_l=_orthogonal_diag_l,
        radius=_skew_radius),
    Family.GL2N_R: ModelSpec(
        basis=_general_linear_basis, block_per_rank=1, nbar_upper=False,
        # nu = (tr A - tr D)/2 on l = gl_n + gl_n; this is the extension of
        # the torus data pinned by the rank-one measure pushforward
        nu_weights=(Fraction(1, 2), Fraction(-1, 2)),
        y_entries=lambda j: ((j - 1, j - 1, 1),),
        gl_diagonal=lambda a: (a, a),
        l_action=_general_linear_l_action,
        sample_units=_unit_pairs,
        unit_block=lambda u, v: u[:, :, None] * v[:, None, :],
        crown_pair=_rank_one_crown_pair,
        # l = (P, Q) moves n-side blocks as B -> P B Q^T
        m_rotation_pair=lambda r, r2: (r, r2),
        random_diag_l=_general_linear_diag_l,
        radius=_rank_one_radius),
}
MODEL_FAMILIES = tuple(SPECS)


# ----------------------------------------------------------------- factory

def build_model(family: Family | str, n: int) -> GradedModel:
    """Construct the graded matrix model for a supported family and rank."""
    return GradedModel(Family(family), n)


# ------------------------------------------------------ module operations

def bracket(m: GradedModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = m.bracket(x, y)
    m.coords(out)  # raises SpanError when the result leaves the span
    return out


def theta(m: GradedModel, x: np.ndarray) -> np.ndarray:
    out = m.theta(x)
    m.coords(out)
    return out


def pair(m: GradedModel, x: np.ndarray, y: np.ndarray) -> Fraction:
    return m.pair(x, y)


def norm_nbar_sq(m: GradedModel, y: np.ndarray) -> Fraction:
    if any(m.grades[k] != -1 for k in m.coords(y)):
        raise ValueError("element is not in nbar")
    radicand = -m.pair(y, m.theta(y))
    if radicand < 0:
        raise ModelInvariantError(f"negative radicand {radicand} on nbar")
    return radicand

def norm_nbar(m: GradedModel, y: np.ndarray) -> float:
    """|y| = sqrt(-<y, theta y>) for y in nbar."""
    return math.sqrt(float(norm_nbar_sq(m, y)))


def nu(m: GradedModel, l_elt: np.ndarray) -> Fraction:
    coords = m.coords(l_elt)
    if any(m.grades[k] != 0 for k in coords):
        raise ValueError("element is not in l")
    return sum((m.nu_covector[k] * c for k, c in coords.items()), ZERO)


def theta_eigenbasis_of_l(m: GradedModel):
    """theta-eigenbasis of l, orthogonal for B(u, v) = <u, -theta v>.

    Returns (vectors, norms): each vector as sparse coordinates {k: c} and
    its B(v, v); aborts when the induced Gram is not diagonal.
    """
    perm = m.theta_perm
    vectors = []
    done = set()
    for a in m.l_indices:
        if a in done:
            continue
        target, sign = perm[a]
        if target == a:
            vectors.append({a: 1})
            done.add(a)
        else:
            vectors.append({a: 1, target: sign})
            vectors.append({a: 1, target: -sign})
            done.update((a, target))
    gram = m.trace_gram

    def b_int(u, v):   # -tr(u theta v) on sparse coordinates
        return -sum(cu * cv * perm[k][1] * gram[i, perm[k][0]]
                    for i, cu in u.items() for k, cv in v.items())

    for i, v in enumerate(vectors):
        for w in vectors[i + 1:]:
            if b_int(v, w) != 0:
                raise ModelInvariantError("theta-eigenbasis of l is not B-orthogonal")
    norms = []
    for v in vectors:
        b = m.form_scale * b_int(v, v)
        if b <= 0:
            raise ModelInvariantError("degenerate B-pairing on l")
        norms.append(b)
    return vectors, norms


def casimir_omega_scalar(m: GradedModel) -> Fraction:
    """Scalar by which Omega = sum ad(theta l_j)^2 acts on n.

    The l_j run over a theta-eigenbasis dualized by B, so Omega is
    sum ad(v)^2 / B(v, v), evaluated on the ad tables with integer weights
    over one common denominator; non-scalar action raises, since that
    signals a broken model or dual basis.
    """
    vectors, norms = theta_eigenbasis_of_l(m)
    weights, den = ratlin.clear_denominators([1 / b for b in norms])
    scalar = None
    for k in m.n_indices:
        acc: dict = {}
        for v, w in zip(vectors, weights):
            _acc_coeff(acc, m.bracket_coords(v, m.bracket_coords(v, {k: 1})), w)
        if acc.keys() - {k}:
            raise ModelInvariantError("Casimir-type operator is not scalar on n")
        ratio = Fraction(acc.get(k, 0), den)
        if scalar is None:
            scalar = ratio
        elif scalar != ratio:
            raise ModelInvariantError(f"Casimir scalar differs across n: {scalar} vs {ratio}")
    return scalar


@dataclass
class LSubspace:
    """A subspace of l given by coordinate vectors in the l-basis."""

    model: GradedModel
    coords: list[np.ndarray]        # vectors of length dim_l

    @property
    def dim(self) -> int:
        return len(self.coords)

    @cached_property
    def echelon(self) -> ratlin.Echelon:
        """Fraction-free reduced echelon form of coords, built once."""
        return ratlin.Echelon.of(self.coords)

    def matrices(self) -> list[np.ndarray]:
        if not self.coords:
            return []
        m = self.model
        flat = ratlin.matmul(np.array(self.coords, dtype=object), m.l_basis_flat)
        return list(flat.reshape(self.dim, m.dim_ambient, m.dim_ambient))

    def contains(self, l_elt: np.ndarray) -> bool:
        """The l-part of l_elt lies in the subspace."""
        coords = self.model.coords(l_elt)
        return self.echelon.contains([coords.get(k, 0) for k in self.model.l_indices])


def l_bracket_map(m: GradedModel, y: np.ndarray) -> np.ndarray:
    """Integer matrix of h -> [h, y] on l: column a holds the coordinates
    of [e, y] for the a-th basis element e of l."""
    yc = m.coords(y)
    out = ratlin.rzeros((m.dim, m.dim_l))
    for col, a in enumerate(m.l_indices):
        for k, c in m.bracket_coords({a: 1}, yc).items():
            out[k, col] = c
    return out


def stabilizer_algebra(m: GradedModel, y: np.ndarray) -> LSubspace:
    """Exact kernel {h in l : [h, y] = 0}."""
    return LSubspace(m, ratlin.nullspace(l_bracket_map(m, y)))


def modular_character_check(m: GradedModel) -> VerificationReport:
    """tr ad restricted to the y_1-stabilizer equals 2d nu on a ∩ s_1.

    a ∩ s_1 = Ker eps_1 is spanned by h_2, ..., h_n; each h_j normalizes s_1,
    so the restricted trace is well defined and must match 2d nu exactly.
    The trace is read off in the echelon basis of s_1, whose rows are det
    times rref rows: the coefficient of row r in ad(h) row r is the entry
    at its pivot column, over det.
    """
    report = VerificationReport("modular_character", meta={
        "family": m.family.value, "n": m.n, "d": m.d,
    })
    y1 = m.triples[0].y
    s1 = stabilizer_algebra(m, y1)
    ech = s1.echelon
    l_idx = m.l_indices
    report.meta["dim_s1"] = s1.dim
    report.meta["dim_a_cap_s1"] = m.n - 1
    for t in m.triples[1:]:
        a = t.h
        if not s1.contains(a):
            report.add(f"h_{t.j} in s1", False, detail="expected h_j in stabilizer")
            continue
        ac = m.coords(a)
        trace = 0
        for row, pc in zip(ech.rows, ech.pivots):
            img = m.bracket_coords(ac, {l_idx[i]: v for i, v in enumerate(row) if v})
            vec = [img.get(k, 0) for k in l_idx]
            if not ech.contains(vec):
                report.add(f"ad(h_{t.j}) preserves s1", False)
                break
            trace += vec[pc]
        else:
            expected = 2 * m.d * nu(m, a)
            residual = Fraction(trace, ech.det) - expected
            report.add(f"tr ad_s1(h_{t.j}) = 2d*nu", residual == 0, residual=residual)
    return report


# ------------------------------------------------------------ verification

def structural_suite(m: GradedModel, rand_seed: int = 0) -> VerificationReport:
    """Exact structural checks: closure, grading, Jacobi, theta, invariance,
    sl2 relations, grading element, normalization, positivity, character.

    Jacobi and invariance run on the sparse integer ad tables, as
    ad[e_i, e_j] = [ad e_i, ad e_j] and ad(e_z)^T G + G ad(e_z) = 0 with G
    the integer trace Gram.
    """
    report = VerificationReport("structural", meta={
        "family": m.family.value, "n": m.n,
        "dim": m.dim, "dim_nbar": m.dim_nbar, "dim_l": m.dim_l,
    })
    dim = m.dim
    grades = m.grades
    tab = m.table  # construction itself proves closure (expansions succeed)
    report.add("bracket closure", True, detail=f"{dim * (dim - 1) // 2} basis pairs expanded")

    bad = 0
    for (i, j), entry in tab.items():
        gsum = grades[i] + grades[j]
        if abs(gsum) == 2 and entry:
            bad += 1
        for k in entry:
            if grades[k] != gsum:
                bad += 1
    report.add("grading additivity", bad == 0, residual=bad)

    bad = _jacobi_defects(m)
    report.add("jacobi identity (all basis triples)", bad == 0, residual=bad,
               detail=f"{dim * dim * (dim - 1) // 2} triples")

    # independent matrix-level sample, bypassing the structure table
    rand = random.Random(rand_seed)
    count = 200 if dim <= 30 else 100
    bad = 0
    for _ in range(count):
        a, b, c = (m.basis[rand.randrange(dim)] for _ in range(3))
        jac = (m.bracket(a, m.bracket(b, c))
               + m.bracket(b, m.bracket(c, a))
               + m.bracket(c, m.bracket(a, b)))
        if not ratlin.is_zero_matrix(jac):
            bad += 1
    report.add("jacobi identity (matrix sample)", bad == 0, residual=bad, samples=count)

    perm = m.theta_perm
    ok = all(perm[perm[k][0]][0] == k and perm[perm[k][0]][1] * perm[k][1] == 1
             for k in range(dim))
    report.add("theta involution", ok)
    ok = all(grades[perm[k][0]] == -grades[k] for k in range(dim))
    report.add("theta swaps grades", ok)

    bad = 0
    for (i, j), entry in tab.items():
        lhs = {perm[k][0]: perm[k][1] * c for k, c in entry.items()}
        ti, si = perm[i]
        tj, sj = perm[j]
        rhs = {k: si * sj * c for k, c in m.table_entry(ti, tj).items()}
        if lhs != rhs:
            bad += 1
    report.add("theta is an automorphism (all pairs)", bad == 0, residual=bad)

    gram = m.trace_gram
    bad = 0
    for i in range(dim):
        for j in range(dim):
            lhs = gram[perm[i][0], perm[j][0]] * perm[i][1] * perm[j][1]
            if lhs != gram[i, j]:
                bad += 1
    report.add("theta preserves form", bad == 0, residual=bad)

    bad = _invariance_defects(m)
    report.add("form invariance (all basis triples)", bad == 0, residual=bad)

    nbar, nn, ll = m.nbar_indices, m.n_indices, m.l_indices
    bad = 0
    for group_a, group_b in ((nn, nn), (nbar, nbar), (ll, nn), (ll, nbar)):
        for i in group_a:
            for j in group_b:
                if gram[i, j] != 0:
                    bad += 1
    report.add("grading orthogonality of form", bad == 0, residual=bad)

    sub_rank = ratlin.rank(gram[np.ix_(nn, nbar)])
    report.add("n x nbar pairing nondegenerate", sub_rank == len(nn),
               residual=len(nn) - sub_rank)

    bad = []
    for t in m.triples:
        if not ratlin.is_zero_matrix(m.bracket(t.h, t.x) - 2 * t.x):
            bad.append(f"[h,x] j={t.j}")
        if not ratlin.is_zero_matrix(m.bracket(t.h, t.y) + 2 * t.y):
            bad.append(f"[h,y] j={t.j}")
        if not ratlin.is_zero_matrix(m.bracket(t.x, t.y) - t.h):
            bad.append(f"[x,y] j={t.j}")
    for a in m.triples:
        for b in m.triples:
            if a.j >= b.j:
                continue
            for u in (a.x, a.y, a.h):
                for v in (b.x, b.y, b.h):
                    if not ratlin.is_zero_matrix(m.bracket(u, v)):
                        bad.append(f"triples {a.j},{b.j} do not commute")
    report.add("sl2 triple relations", not bad, residual=len(bad),
               detail="; ".join(bad[:3]))

    h = m.grading_element
    bad = 0
    for k in nbar:
        if not ratlin.is_zero_matrix(m.bracket(h, m.basis[k]) + 2 * m.basis[k]):
            bad += 1
    for k in nn:
        if not ratlin.is_zero_matrix(m.bracket(h, m.basis[k]) - 2 * m.basis[k]):
            bad += 1
    report.add("(ad h) = -2 on nbar, +2 on n", bad == 0, residual=bad)

    t1 = m.triples[0]
    r1 = m.pair(t1.x, t1.y) - 1
    report.add("<x1, y1> = 1", r1 == 0, residual=r1)
    r2 = m.pair(t1.y, m.theta(t1.y)) + 1
    report.add("<y1, theta y1> = -1", r2 == 0, residual=r2)

    # -<e_i, theta e_j> = delta_ij, compared over the form's denominator
    p, q = m.form_scale.numerator, m.form_scale.denominator
    bad = 0
    for i in nbar:
        for j in nbar:
            tj, sj = perm[j]
            if -sj * gram[i, tj] * p != (q if i == j else 0):
                bad += 1
    report.add("inner product on nbar is the standard one", bad == 0, residual=bad)

    res = [nu(m, t.h) - 1 for t in m.triples]
    report.add("nu(h_j) = 1", all(r == 0 for r in res), residual=res)
    bad = 0
    for ai, i in enumerate(ll):
        for j in ll[ai + 1:]:
            entry = m.table_entry(i, j)
            val = sum((c * m.nu_covector[k] for k, c in entry.items()), ZERO)
            if val != 0:
                bad += 1
    report.add("nu vanishes on [l, l]", bad == 0, residual=bad)

    return report


def _jacobi_defects(m: GradedModel) -> int:
    """Triples (i < j, l) with [[e_i, e_j], e_l] != [ad e_i, ad e_j] e_l."""
    ad = m.ad
    bad = 0
    for (i, j), cij in m.table.items():
        ad_i, ad_j = ad[i], ad[j]
        cols = ad_i.keys() | ad_j.keys()
        for k in cij:
            cols |= ad[k].keys()
        for col in cols:
            diff: dict = {}
            for k, c in cij.items():
                _acc_coeff(diff, ad[k].get(col, _EMPTY), c)
            for k, c in ad_j.get(col, _EMPTY).items():
                _acc_coeff(diff, ad_i.get(k, _EMPTY), -c)
            for k, c in ad_i.get(col, _EMPTY).items():
                _acc_coeff(diff, ad_j.get(k, _EMPTY), c)
            if diff:
                bad += 1
    return bad


def _invariance_defects(m: GradedModel) -> int:
    """Nonzero entries of ad(e_z)^T G + G ad(e_z) over all z, with G the
    integer trace Gram: triples with <[z, x], y> + <x, [z, y]> != 0."""
    gram = m.trace_gram
    rows = [{j: g for j, g in enumerate(gram[k]) if g} for k in range(m.dim)]
    bad = 0
    for ad_z in m.ad:
        acc: dict = {}
        for i, col in ad_z.items():
            for k, c in col.items():
                for j, g in rows[k].items():
                    acc[i, j] = acc.get((i, j), 0) + c * g   # (ad_z^T G)[i, j]
                    acc[j, i] = acc.get((j, i), 0) + g * c   # (G ad_z)[j, i]
        bad += sum(1 for v in acc.values() if v)
    return bad


def _acc_coeff(acc: dict, entry: dict, scale):
    for k, c in entry.items():
        v = acc.get(k, 0) + scale * c
        if v == 0:
            acc.pop(k, None)
        else:
            acc[k] = v


# ----------------------------------------------------------------- dumping

def model_dump(m: GradedModel) -> dict:
    def frac_str(x: Fraction) -> str:
        return str(x)

    def mat_strs(mat: np.ndarray) -> list[list[str]]:
        return [[frac_str(mat[r, c]) for c in range(m.dim_ambient)]
                for r in range(m.dim_ambient)]

    def coords_map(mat: np.ndarray) -> dict:
        return {str(k): frac_str(c) for k, c in sorted(m.coords(mat).items())}

    return {
        "family": m.family.value,
        "n": m.n,
        "dim_ambient": m.dim_ambient,
        "form_scale": frac_str(m.form_scale),
        "basis": [
            {"grade": m.grades[k], "matrix": mat_strs(m.basis[k])}
            for k in range(m.dim)
        ],
        "triples": [
            {"j": t.j, "x": coords_map(t.x), "y": coords_map(t.y), "h": coords_map(t.h)}
            for t in m.triples
        ],
        "nu_on_l": {str(k): frac_str(c) for k, c in enumerate(m.nu_covector) if c != 0},
    }


def model_dump_json(m: GradedModel) -> str:
    return json.dumps(model_dump(m), indent=2, sort_keys=True) + "\n"
