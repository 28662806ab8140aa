"""Exact-arithmetic graded matrix models g = nbar + l + n.

Each explicit family is one `ModelSpec` in `SPECS`, which holds its block
layout and its formulas on nbar blocks:

* split orthogonal model: 4n x 4n matrices preserving the split symmetric
  form, with l the diagonal GL_2n block, n the lower-left skew block and
  nbar the upper-right skew block (y_1 sits upper-right);
* split general linear model: gl_2n with l the two diagonal n x n blocks,
  n the upper-right block and nbar the lower-left block.

All structure constants, pairings and kernels are computed over Fraction,
so every identity asserted here has residual exactly 0.  The float
formulas of the specs drive the Monte Carlo layer in `orbit`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import ratlin
from .catalog import Family, get_class
from .ratlin import ONE, ZERO
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
    """A graded Lie algebra model with exact rational basis and form."""

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
        self._sparse = [_to_sparse(b) for b in self.basis]
        self._leads = self._build_lead_map()
        self._triples = None
        self._theta_perm = None
        self._gram = None
        self._table = None
        self._form_scale = None

    def _build_lead_map(self):
        leads = {}
        for k, sp in enumerate(self._sparse):
            pos, val = sp[0]
            leads[pos] = (k, ONE / val)
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
        -1 (nbar) or +1 (n); Fraction blocks give Fraction matrices."""
        shape = block.shape[:-2] + (self.dim_ambient, self.dim_ambient)
        out = ratlin.rzeros(shape) if block.dtype == object else np.zeros(shape)
        rows, cols = self._off_diagonal(grade)
        out[..., rows, cols] = block
        return out

    def nu_from_traces(self, mat: np.ndarray):
        """nu of an l element as weighted traces of its diagonal blocks;
        Fraction for Fraction matrices, float for float ones."""
        b = self.block_size
        top, bottom = self.spec.nu_weights
        return top * np.trace(mat[:b, :b]) + bottom * np.trace(mat[b:, b:])

    # ------------------------------------------------------------- indexing

    @property
    def nbar_indices(self) -> list[int]:
        return [i for i, g in enumerate(self.grades) if g == -1]

    @property
    def l_indices(self) -> list[int]:
        return [i for i, g in enumerate(self.grades) if g == 0]

    @property
    def n_indices(self) -> list[int]:
        return [i for i, g in enumerate(self.grades) if g == 1]

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
        return x.dot(y) - y.dot(x)

    def theta(self, x: np.ndarray) -> np.ndarray:
        return -x.T

    @property
    def form_scale(self) -> Fraction:
        if self._form_scale is None:
            t = self.triples[0]
            tr = ratlin.rtrace(t.x.dot(t.y))
            if tr == 0:
                raise ModelInvariantError("degenerate normalization trace")
            self._form_scale = ONE / tr
        return self._form_scale

    def pair(self, x: np.ndarray, y: np.ndarray) -> Fraction:
        return self.form_scale * ratlin.rtrace(x.dot(y))

    def expand(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of x in the model basis; SpanError when outside."""
        coords = ratlin.rzeros(self.dim)
        rest = {}
        for (r, c), v in _to_sparse(x, keep_zero=False):
            rest[(r, c)] = v
        for pos, v in list(rest.items()):
            if pos in self._leads:
                k, inv = self._leads[pos]
                coords[k] = v * inv
        # subtract the reconstruction and demand an exactly zero remainder
        for k in range(self.dim):
            ck = coords[k]
            if ck == 0:
                continue
            for pos, val in self._sparse[k]:
                newv = rest.get(pos, ZERO) - ck * val
                if newv == 0:
                    rest.pop(pos, None)
                else:
                    rest[pos] = newv
        if rest:
            raise SpanError(f"element outside model span (remainder at {sorted(rest)[:4]})")
        return coords

    def from_coords(self, coords) -> np.ndarray:
        out = self.zero()
        for k, c in enumerate(coords):
            if c != 0:
                for pos, val in self._sparse[k]:
                    out[pos] += c * val
        return out

    # -------------------------------------------------------------- triples

    @property
    def triples(self) -> list[SL2Triple]:
        if self._triples is None:
            out = []
            for j in range(1, self.n + 1):
                y = self._y_matrix(j)
                x = -self.theta(y)
                h = self.bracket(x, y)
                out.append(SL2Triple(j, x, y, h))
            self._triples = out
        return self._triples

    def _y_matrix(self, j: int) -> np.ndarray:
        block = ratlin.rzeros((self.block_size, self.block_size))
        for r, c, val in self.spec.y_entries(j):
            block[r, c] = Fraction(val)
        return self.embed(block, -1)

    @property
    def grading_element(self) -> np.ndarray:
        h = self.zero()
        for t in self.triples:
            h = h + t.h
        return h

    # ------------------------------------------------------------ theta/perm

    @property
    def theta_perm(self) -> list[tuple[int, Fraction]]:
        """theta basis-to-basis: theta(e_k) = sign * e_target."""
        if self._theta_perm is None:
            perm = []
            for k in range(self.dim):
                coords = self.expand(self.theta(self.basis[k]))
                nz = [(i, c) for i, c in enumerate(coords) if c != 0]
                if len(nz) != 1 or abs(nz[0][1]) != 1:
                    raise ModelInvariantError("theta is not signed-permutation on this basis")
                perm.append((nz[0][0], nz[0][1]))
            self._theta_perm = perm
        return self._theta_perm

    # ----------------------------------------------------------- form tables

    @property
    def gram(self) -> np.ndarray:
        if self._gram is None:
            g = ratlin.rzeros((self.dim, self.dim))
            scale = self.form_scale
            for i in range(self.dim):
                for j in range(i, self.dim):
                    v = scale * _sparse_trace_product(self._sparse[i], self._sparse[j])
                    g[i, j] = v
                    g[j, i] = v
            self._gram = g
        return self._gram

    @property
    def table(self) -> dict:
        """Structure constants: (i, j) with i < j maps to {m: coeff}."""
        if self._table is None:
            tab = {}
            for i in range(self.dim):
                for j in range(i + 1, self.dim):
                    br = _sparse_bracket(self._sparse[i], self._sparse[j])
                    coords = self.expand(_from_sparse(br, self.dim_ambient))
                    tab[(i, j)] = {k: c for k, c in enumerate(coords) if c != 0}
            self._table = tab
        return self._table

    def table_entry(self, i: int, j: int) -> dict:
        if i == j:
            return {}
        if i < j:
            return self.table[(i, j)]
        return {k: -c for k, c in self.table[(j, i)].items()}

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

def _to_sparse(mat: np.ndarray, keep_zero: bool = False):
    out = []
    rows, cols = mat.shape
    for r in range(rows):
        for c in range(cols):
            v = mat[r, c]
            if v != 0 or keep_zero:
                out.append(((r, c), v))
    return out


def _from_sparse(sp: dict, amb: int) -> np.ndarray:
    out = ratlin.rzeros((amb, amb))
    for (r, c), v in sp.items():
        out[r, c] = v
    return out


def _sparse_bracket(a, b) -> dict:
    out: dict = {}
    for (r1, c1), v1 in a:
        for (r2, c2), v2 in b:
            if c1 == r2:
                key = (r1, c2)
                out[key] = out.get(key, ZERO) + v1 * v2
            if c2 == r1:
                key = (r2, c1)
                out[key] = out.get(key, ZERO) - v2 * v1
    return {k: v for k, v in out.items() if v != 0}


def _sparse_trace_product(a, b) -> Fraction:
    bmap = {pos: v for pos, v in b}
    total = ZERO
    for (r, c), v in a:
        w = bmap.get((c, r))
        if w is not None:
            total += v * w
    return total


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
        a = a.dot(f)
    return a


def _invert_exact(a: np.ndarray) -> np.ndarray:
    m = a.shape[0]
    aug = ratlin.rzeros((m, 2 * m))
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
        mat[r, m + c] = ONE
        mat[c, m + r] = -ONE
        basis.append(mat)
        grades.append(-1)
    for i in range(m):
        for j in range(m):
            mat = ratlin.rzeros((2 * m, 2 * m))
            mat[i, j] += ONE
            mat[m + j, m + i] -= ONE
            basis.append(mat)
            grades.append(0)
    for r, c in nbar_pairs:
        mat = ratlin.rzeros((2 * m, 2 * m))
        mat[m + r, c] = ONE
        mat[m + c, r] = -ONE
        basis.append(mat)
        grades.append(1)
    return basis, grades


def _general_linear_basis(n: int):
    """gl_2n: nbar lower-left, l = gl_n + gl_n (blocks A, D), n upper-right."""
    basis, grades = [], []
    nbar_pairs = [(i, j) for i in range(n) for j in range(n)]
    for i, j in nbar_pairs:
        mat = ratlin.rzeros((2 * n, 2 * n))
        mat[n + i, j] = ONE
        basis.append(mat)
        grades.append(-1)
    l_pairs = [("A", i, j) for i in range(n) for j in range(n)]
    l_pairs += [("D", i, j) for i in range(n) for j in range(n)]
    for tag, i, j in l_pairs:
        mat = ratlin.rzeros((2 * n, 2 * n))
        if tag == "A":
            mat[i, j] = ONE
        else:
            mat[n + i, n + j] = ONE
        basis.append(mat)
        grades.append(0)
    for i, j in nbar_pairs:
        mat = ratlin.rzeros((2 * n, 2 * n))
        mat[i, n + j] = ONE
        basis.append(mat)
        grades.append(1)
    return basis, grades


def _orthogonal_l_action(rand: random.Random, m: int):
    a = _random_gl(rand, m)
    at = a.T
    return lambda block: a.dot(block).dot(at)


def _general_linear_l_action(rand: random.Random, m: int):
    p = _random_gl(rand, m)
    pinv = _invert_exact(p)
    q = _random_gl(rand, m)
    return lambda block: q.dot(block).dot(pinv)


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
    m.expand(out)  # raises SpanError when the result leaves the span
    return out


def theta(m: GradedModel, x: np.ndarray) -> np.ndarray:
    out = m.theta(x)
    m.expand(out)
    return out


def pair(m: GradedModel, x: np.ndarray, y: np.ndarray) -> Fraction:
    return m.pair(x, y)


def norm_nbar_sq(m: GradedModel, y: np.ndarray) -> Fraction:
    coords = m.expand(y)
    if any(coords[k] != 0 for k in range(m.dim) if m.grades[k] != -1):
        raise ValueError("element is not in nbar")
    radicand = -m.pair(y, m.theta(y))
    if radicand < 0:
        raise ModelInvariantError(f"negative radicand {radicand} on nbar")
    return radicand

def norm_nbar(m: GradedModel, y: np.ndarray) -> float:
    """|y| = sqrt(-<y, theta y>) for y in nbar."""
    return math.sqrt(float(norm_nbar_sq(m, y)))


def nu(m: GradedModel, l_elt: np.ndarray) -> Fraction:
    coords = m.expand(l_elt)
    if any(coords[k] != 0 for k in range(m.dim) if m.grades[k] != 0):
        raise ValueError("element is not in l")
    return sum((m.nu_covector[k] * coords[k] for k in range(m.dim)), ZERO)


def theta_eigenbasis_of_l(m: GradedModel):
    """theta-eigenbasis of l, orthogonal for B(u, v) = <u, -theta v>.

    Returns (vectors, norms); aborts when the induced Gram is not diagonal.
    """
    l_idx = m.l_indices
    perm = m.theta_perm
    vectors = []
    done = set()
    for a in l_idx:
        if a in done:
            continue
        target, sign = perm[a]
        if target == a:
            vectors.append(m.basis[a])
            done.add(a)
        else:
            ea, et = m.basis[a], m.basis[target]
            vectors.append(ea + sign * et)
            vectors.append(ea - sign * et)
            done.update((a, target))
    norms = []
    mats = vectors
    for i, v in enumerate(mats):
        for j in range(i + 1, len(mats)):
            cross = m.pair(v, -m.theta(mats[j]))
            if cross != 0:
                raise ModelInvariantError("theta-eigenbasis of l is not B-orthogonal")
        b = m.pair(v, -m.theta(v))
        if b <= 0:
            raise ModelInvariantError("degenerate B-pairing on l")
        norms.append(b)
    return mats, norms


def casimir_omega_scalar(m: GradedModel) -> Fraction:
    """Scalar by which Omega = sum ad(theta l_j)^2 acts on n.

    The l_j run over a theta-eigenbasis dualized by B; non-scalar action
    raises, since that signals a broken model or dual basis.
    """
    vectors, norms = theta_eigenbasis_of_l(m)
    scalar = None
    for k in m.n_indices:
        x = m.basis[k]
        acc = m.zero()
        for v, b in zip(vectors, norms):
            acc = acc + m.bracket(v, m.bracket(v, x)) * (ONE / b)
        coords = m.expand(acc)
        base = m.expand(x)
        ratio = None
        for i in range(m.dim):
            if base[i] != 0:
                ratio = coords[i] / base[i]
                break
        recon = m.from_coords([ratio * c for c in base])
        if not ratlin.is_zero_matrix(acc - recon):
            raise ModelInvariantError("Casimir-type operator is not scalar on n")
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

    def matrices(self) -> list[np.ndarray]:
        l_idx = self.model.l_indices
        out = []
        for v in self.coords:
            mat = self.model.zero()
            for pos, k in enumerate(l_idx):
                if v[pos] != 0:
                    mat = mat + self.model.basis[k] * v[pos]
            out.append(mat)
        return out

    def contains(self, l_elt: np.ndarray) -> bool:
        full = self.model.expand(l_elt)
        vec = np.array([full[k] for k in self.model.l_indices], dtype=object)
        return ratlin.in_span(self.coords, vec)


def stabilizer_algebra(m: GradedModel, y: np.ndarray) -> LSubspace:
    """Exact kernel {h in l : [h, y] = 0}."""
    l_idx = m.l_indices
    rows = []
    for k in l_idx:
        br = m.bracket(m.basis[k], y)
        rows.append(m.expand(br))
    mat = np.array(rows, dtype=object).T  # equations indexed by basis coords
    kernel = ratlin.nullspace(mat)
    return LSubspace(m, kernel)


def modular_character_check(m: GradedModel) -> VerificationReport:
    """tr ad restricted to the y_1-stabilizer equals 2d nu on a ∩ s_1.

    a ∩ s_1 = Ker eps_1 is spanned by h_2, ..., h_n; each h_j normalizes s_1,
    so the restricted trace is well defined and must match 2d nu exactly.
    """
    report = VerificationReport("modular_character", meta={
        "family": m.family.value, "n": m.n, "d": m.d,
    })
    y1 = m.triples[0].y
    s1 = stabilizer_algebra(m, y1)
    s1_mats = s1.matrices()
    coord_mat = np.array(s1.coords, dtype=object).T if s1.coords else None
    report.meta["dim_s1"] = s1.dim
    report.meta["dim_a_cap_s1"] = m.n - 1
    for t in m.triples[1:]:
        a = t.h
        if not s1.contains(a):
            report.add(f"h_{t.j} in s1", False, detail="expected h_j in stabilizer")
            continue
        # representing matrix of ad(a) on s1, column by column
        rep = []
        ok = True
        for smat in s1_mats:
            img = m.bracket(a, smat)
            full = m.expand(img)
            vec = np.array([full[k] for k in m.l_indices], dtype=object)
            try:
                rep.append(ratlin.solve_exact(coord_mat, vec))
            except ValueError:
                report.add(f"ad(h_{t.j}) preserves s1", False)
                ok = False
                break
        if not ok:
            continue
        trace = sum((rep[i][i] for i in range(len(rep))), ZERO)
        expected = 2 * m.d * nu(m, a)
        residual = trace - expected
        report.add(f"tr ad_s1(h_{t.j}) = 2d*nu", residual == 0, residual=residual)
    return report


# ------------------------------------------------------------ verification

def structural_suite(m: GradedModel, rand_seed: int = 0) -> VerificationReport:
    """Exact structural checks: closure, grading, Jacobi, theta, invariance,
    sl2 relations, grading element, normalization, positivity, character."""
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

    # Jacobi in coefficient space, all basis triples via all pairs
    bad = 0
    for i in range(dim):
        for j in range(i + 1, dim):
            cij = tab[(i, j)]
            for k in range(dim):
                lhs = _coeff_bracket_with_basis(m, k, cij)
                rhs: dict = {}
                cki = m.table_entry(k, i)
                _acc_coeff(rhs, _coeff_bracket_of_combo_basis(m, cki, j), ONE)
                ckj = m.table_entry(k, j)
                _acc_coeff(rhs, _coeff_bracket_with_basis(m, i, ckj), ONE)
                if not _coeff_equal(lhs, rhs):
                    bad += 1
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
        if not _coeff_equal(lhs, rhs):
            bad += 1
    report.add("theta is an automorphism (all pairs)", bad == 0, residual=bad)

    gram = m.gram
    bad = 0
    for i in range(dim):
        for j in range(dim):
            lhs = gram[perm[i][0], perm[j][0]] * perm[i][1] * perm[j][1]
            if lhs != gram[i, j]:
                bad += 1
    report.add("theta preserves form", bad == 0, residual=bad)

    # invariance <[z,x],y> + <x,[z,y]> = 0 over all basis triples
    bad = 0
    for z in range(dim):
        for i in range(dim):
            czi = m.table_entry(z, i)
            for j in range(dim):
                val = sum((c * gram[k, j] for k, c in czi.items()), ZERO)
                czj = m.table_entry(z, j)
                val += sum((c * gram[i, k] for k, c in czj.items()), ZERO)
                if val != 0:
                    bad += 1
    report.add("form invariance (all basis triples)", bad == 0, residual=bad)

    nbar, nn, ll = m.nbar_indices, m.n_indices, m.l_indices
    bad = 0
    for group_a, group_b in ((nn, nn), (nbar, nbar), (ll, nn), (ll, nbar)):
        for i in group_a:
            for j in group_b:
                if gram[i, j] != 0:
                    bad += 1
    report.add("grading orthogonality of form", bad == 0, residual=bad)

    sub = np.array([[gram[i, j] for j in nbar] for i in nn], dtype=object)
    report.add("n x nbar pairing nondegenerate", ratlin.rank(sub) == len(nn),
               residual=len(nn) - ratlin.rank(sub))

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

    bad = 0
    for i in nbar:
        for j in nbar:
            want = ONE if i == j else ZERO
            tj, sj = perm[j]
            if -sj * gram[i, tj] != want:
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


def _coeff_bracket_with_basis(m: GradedModel, i: int, combo: dict) -> dict:
    out: dict = {}
    for j, c in combo.items():
        _acc_coeff(out, m.table_entry(i, j), c)
    return out


def _coeff_bracket_of_combo_basis(m: GradedModel, combo: dict, j: int) -> dict:
    out: dict = {}
    for i, c in combo.items():
        _acc_coeff(out, m.table_entry(i, j), c)
    return out


def _acc_coeff(acc: dict, entry: dict, scale: Fraction):
    for k, c in entry.items():
        v = acc.get(k, ZERO) + scale * c
        if v == 0:
            acc.pop(k, None)
        else:
            acc[k] = v


def _coeff_equal(a: dict, b: dict) -> bool:
    keys = set(a) | set(b)
    return all(a.get(k, ZERO) == b.get(k, ZERO) for k in keys)


# ----------------------------------------------------------------- dumping

def model_dump(m: GradedModel) -> dict:
    def frac_str(x: Fraction) -> str:
        return str(x)

    def mat_strs(mat: np.ndarray) -> list[list[str]]:
        return [[frac_str(mat[r, c]) for c in range(m.dim_ambient)]
                for r in range(m.dim_ambient)]

    def coords_map(mat: np.ndarray) -> dict:
        coords = m.expand(mat)
        return {str(k): frac_str(c) for k, c in enumerate(coords) if c != 0}

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
