"""Exact-arithmetic graded matrix models g = nbar + l + n.

Each explicit family is one `ModelSpec` in `SPECS`, which holds exact data
only; its basis entries alone fix the block layout:

* split orthogonal model: 4n x 4n matrices preserving the split symmetric
  form, with l the diagonal GL_2n block, n the lower-left skew block and
  nbar the upper-right skew block (y_1 sits upper-right);
* split general linear model: gl_2n with l the two diagonal n x n blocks,
  n the upper-right block and nbar the lower-left block.

A family is its sparse basis entries ((r, c), +-1) on pairwise disjoint
supports, its grades, its y_j entries and its M planes.  Every exact
computation runs on sparse coordinates {k: c} through integer tables built
from the entries (ad, trace_gram, theta_perm); the form is an integer trace
times form_scale, and every identity asserted here has residual exactly 0.
Dense matrices are views (`element`, and `coords` back) for model_dump, the
matrix-sample Jacobi and the float layer.  The Monte Carlo layer in `orbit`
evaluates the exact forms nbar_pairing, crown_tensor and torus on the nbar
coordinates of samples.  The exact L action (random_l_action) is read off
the same tables for every family: unipotent factors 1 + tE from the
l-basis elements with E^2 = 0, and torus factors from the torus weights.
The M = K cap L rotation of the float layer is exact too (m_rotation).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import catalog, ratlin
from .catalog import Family, get_class
from .ratlin import ZERO
from .reports import ModelInvariantError, SpanError, VerificationReport

# rational palette for random group elements; keeps orbit points exact
_DIAG_PALETTE = (Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2), Fraction(2))
_OFFDIAG_PALETTE = (Fraction(-1), Fraction(-1, 2), Fraction(1, 3), Fraction(1, 2), Fraction(1))


@dataclass(frozen=True)
class SL2Triple:
    """The j-th sl2 triple, each element as sparse coordinates {k: c}."""

    j: int
    x: dict
    y: dict
    h: dict


class Torus(NamedTuple):
    """The diagonal elements H_i = e_{indices[i]} of the l-basis, with
    [H_i, e_k] = weights[i, k] e_k on nbar and character[i] = 2d nu(H_i)."""

    indices: list
    weights: np.ndarray
    character: list


class GradedModel:
    """A graded Lie algebra model with integer basis and exact form.

    Elements are sparse coordinates {k: c} in the basis.  Basis elements
    have entries +-1 on pairwise disjoint supports, so brackets, structure
    constants and traces are integers; the form is form_scale times the
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
        self.tau = catalog.tau(mult)

        self._sparse, self.grades = self.spec.basis(n)
        self.dim = len(self._sparse)
        self.nbar_indices = [i for i, g in enumerate(self.grades) if g == -1]
        self.l_indices = [i for i, g in enumerate(self.grades) if g == 0]
        self.n_indices = [i for i, g in enumerate(self.grades) if g == 1]
        self._owner = self._build_owner_map()
        self._blocks = self._build_blocks()
        self.block_size = len(self._blocks[-1][0])
        self.dim_ambient = self.block_size + len(self._blocks[1][0])
        # nu_from_traces on the entries: a diagonal entry weighs nu_weights[0]
        # in a row of the nbar block and nu_weights[1] in a row of the n block
        weights, in_n = self.spec.nu_weights, set(self._blocks[1][0].tolist())
        self.nu_covector = np.array(
            [sum((weights[r in in_n] * v for (r, c), v in sp if r == c), ZERO)
             for sp in self._sparse], dtype=object)

    def _build_owner_map(self) -> dict:
        """Entry position -> (basis index, entry value); raises
        ModelInvariantError unless every entry is +-1 and no two basis
        elements share an entry position."""
        owner: dict = {}
        for k, sp in enumerate(self._sparse):
            for pos, val in sp:
                if val not in (1, -1):
                    raise ModelInvariantError(f"basis element {k} has entry {val} at {pos}")
                if pos in owner:
                    raise ModelInvariantError(
                        f"basis elements {owner[pos][0]} and {k} share the entry {pos}")
                owner[pos] = (k, val)
        return owner

    # -------------------------------------------------------------- layout

    def _build_blocks(self) -> dict:
        """grade -> (rows, cols) touched by the entries of grade -1 (nbar) or +1
        (n); ModelInvariantError unless the two blocks sit in transposed
        places whose rows partition the ambient indices."""
        blocks = {}
        for grade in (-1, 1):
            pos = [p for sp, g in zip(self._sparse, self.grades) if g == grade for p, _ in sp]
            blocks[grade] = [sorted({p[i] for p in pos}) for i in (0, 1)]
        (rows, cols), (n_rows, n_cols) = blocks[-1], blocks[1]
        if rows != n_cols or cols != n_rows or sorted(rows + cols) != list(range(len(rows + cols))):
            raise ModelInvariantError("nbar and n are not two transposed off-diagonal blocks "
                                      "whose rows partition the ambient indices")
        return {g: tuple(np.array(ix) for ix in b) for g, b in blocks.items()}

    def block(self, mat: np.ndarray, grade: int) -> np.ndarray:
        """The off-diagonal block of grade -1 (nbar) or +1 (n) of mat, or of
        each matrix of a stack."""
        rows, cols = self._blocks[grade]
        return mat[..., rows[:, None], cols]

    def embed(self, block: np.ndarray, grade: int) -> np.ndarray:
        """The ambient matrix, or stack, holding block in the place of grade
        -1 (nbar) or +1 (n); exact blocks give exact matrices."""
        shape = block.shape[:-2] + (self.dim_ambient, self.dim_ambient)
        out = ratlin.rzeros(shape) if block.dtype == object else np.zeros(shape)
        rows, cols = self._blocks[grade]
        out[..., rows[:, None], cols] = block
        return out

    def nu_from_traces(self, mat: np.ndarray):
        """nu of an l element as weighted traces of its diagonal blocks on the
        rows of nbar and of n; Fraction for exact matrices, float for float ones."""
        (top, _), (bottom, _) = self._blocks[-1], self._blocks[1]
        w_top, w_bottom = self.spec.nu_weights
        return (w_top * np.trace(mat[np.ix_(top, top)])
                + w_bottom * np.trace(mat[np.ix_(bottom, bottom)]))

    # ------------------------------------------------------------- indexing

    @property
    def dim_nbar(self) -> int:
        return len(self.nbar_indices)

    @property
    def dim_l(self) -> int:
        return len(self.l_indices)

    def positions(self, k: int) -> list[tuple[int, int]]:
        """The entry positions (r, c) of the basis element e_k."""
        return [pos for pos, _ in self._sparse[k]]

    # ------------------------------------------------------ dense views

    def element(self, coords: dict) -> np.ndarray:
        """The exact matrix with sparse coordinates {k: c}; inverse of coords."""
        out = ratlin.rzeros((self.dim_ambient, self.dim_ambient))
        for k, c in coords.items():
            for pos, val in self._sparse[k]:
                out[pos] += c * val
        return out

    @cached_property
    def basis(self) -> list[np.ndarray]:
        """The basis matrices, a dense view of the sparse entries."""
        return [self.element({k: 1}) for k in range(self.dim)]

    def coords(self, x: np.ndarray) -> dict:
        """Sparse coordinates {k: c} of the matrix x in the model basis;
        SpanError when x is outside the span."""
        rows, cols = np.nonzero(x)
        return self._coords_of(dict(zip(zip(rows.tolist(), cols.tolist()),
                                        x[rows, cols].tolist())))

    def _coords_of(self, entries: dict) -> dict:
        """Sparse coordinates of the matrix with nonzero entries {(r, c): v}.

        Supports are disjoint, so the matrix is in the span exactly when
        every entry has an owner, the entries of one owner give one
        coefficient, and no owner misses an entry."""
        coords: dict = {}
        for pos, v in entries.items():
            k, val = self._owner.get(pos, (None, 0))
            # val is +-1, so the coefficient v / val is v * val
            if k is None or coords.setdefault(k, v * val) != v * val:
                raise SpanError(f"element outside model span (entry at {pos})")
        if sum(len(self._sparse[k]) for k in coords) != len(entries):
            raise SpanError("element outside model span (an entry is missing)")
        return coords

    # -------------------------------------------------------------- triples

    @cached_property
    def triples(self) -> list[SL2Triple]:
        out = []
        rows, cols = (ix.tolist() for ix in self._blocks[-1])
        for j in range(1, self.n + 1):
            y = self._coords_of({(rows[r], cols[c]): val for r, c, val in self.spec.y_entries(j)})
            x = {k: -c for k, c in self.theta(y).items()}
            out.append(SL2Triple(j, x, y, self.bracket(x, y)))
        return out

    @property
    def grading_element(self) -> dict:
        return combine(*((1, t.h) for t in self.triples))

    # ------------------------------------------------------------ theta/perm

    @cached_property
    def theta_perm(self) -> list[tuple[int, int]]:
        """theta basis-to-basis, theta(x) = -x^T: theta(e_k) = sign * e_target."""
        perm = []
        for sp in self._sparse:
            nz = list(self._coords_of({(c, r): -v for (r, c), v in sp}).items())
            if len(nz) != 1 or abs(nz[0][1]) != 1:
                raise ModelInvariantError("theta is not signed-permutation on this basis")
            perm.append(nz[0])
        return perm

    def theta(self, x: dict) -> dict:
        perm = self.theta_perm
        return {perm[k][0]: perm[k][1] * c for k, c in x.items()}

    # ----------------------------------------------------------- form tables

    @cached_property
    def trace_gram(self) -> np.ndarray:
        """Integer Gram matrix tr(e_i e_j); the form is form_scale times it."""
        g = ratlin.rzeros((self.dim, self.dim))
        for i, sp in enumerate(self._sparse):
            for (r, c), v in sp:
                j, w = self._owner.get((c, r), (None, 0))
                if w:
                    g[i, j] += v * w
        return g

    def trace(self, x: dict, y: dict):
        """tr(x y) for sparse coordinates x and y; an int on integer ones."""
        total = 0
        for i, a in x.items():
            for (r, c), v in self._sparse[i]:
                j, w = self._owner.get((c, r), (None, 0))
                b = y.get(j)
                if b:
                    total += a * b * v * w
        return total

    @cached_property
    def form_scale(self) -> Fraction:
        t = self.triples[0]
        tr = self.trace(t.x, t.y)
        if tr == 0:
            raise ModelInvariantError("degenerate normalization trace")
        return Fraction(1, tr)

    def pair(self, x: dict, y: dict) -> Fraction:
        return self.form_scale * self.trace(x, y)

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

    def bracket(self, x: dict, y: dict) -> dict:
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

    # ------------------------------------------------------- forms on nbar

    @cached_property
    def nbar_pairing(self) -> np.ndarray:
        """P[a, k] = <e_a, e_k> for e_a in n and e_k in nbar: <x, y> = x P c
        for x and y = sum_k c_k e_k given by their coordinates."""
        return self.form_scale * self.trace_gram[np.ix_(self.n_indices, self.nbar_indices)]

    @cached_property
    def crown_tensor(self) -> np.ndarray:
        """T[a, k, l] = <e_a, [[theta e_k, y_1], e_l]> for e_a in n and e_k,
        e_l in nbar: <x, [[theta y, y_1], y]> = c^T (sum_a x_a T[a]) c."""
        y1 = self.triples[0].y
        nbar = self.nbar_indices
        place = {k: kk for kk, k in enumerate(nbar)}
        out = ratlin.rzeros((len(self.n_indices), len(nbar), len(nbar)))
        for kk, k in enumerate(nbar):
            inner = self.bracket(self.theta({k: 1}), y1)
            for ll, l in enumerate(nbar):
                for j, cj in self.bracket(inner, {l: 1}).items():
                    out[:, kk, ll] += cj * self.nbar_pairing[:, place[j]]
        return out

    @cached_property
    def torus(self) -> Torus:
        """The diagonal elements of the l-basis; ModelInvariantError when
        some nbar basis element is not a weight vector of them."""
        indices = [a for a in self.l_indices if all(r == c for (r, c), _ in self._sparse[a])]
        weights = np.zeros((len(indices), self.dim_nbar), dtype=np.int64)
        for i, a in enumerate(indices):
            for kk, k in enumerate(self.nbar_indices):
                img = self.ad[a].get(k, _EMPTY)
                if img.keys() - {k}:
                    raise ModelInvariantError(f"basis element {k} is not a torus weight vector")
                weights[i, kk] = img.get(k, 0)
        return Torus(indices, weights, [2 * self.d * self.nu_covector[a] for a in indices])

    # -------------------------------------------------------------- actions

    @cached_property
    def nilpotent_l(self) -> list[int]:
        """The l-basis elements E with E^2 = 0, checked exactly on their
        entries."""
        return [a for a in self.l_indices if _squares_to_zero(self._sparse[a])]

    @cached_property
    def _torus_support(self) -> dict:
        """nbar index k -> its nonzero torus weights [(i, weights[i, k])]."""
        w = self.torus.weights
        return {k: [(i, int(w[i, kk])) for i in np.flatnonzero(w[:, kk])]
                for kk, k in enumerate(self.nbar_indices)}

    def unipotent_act(self, a: int, t: Fraction, y: dict) -> dict:
        """Ad(1 + t e_a) y = y + t [e_a, y] + (t^2 / 2) [e_a, [e_a, y]] on
        sparse coordinates, for a in nilpotent_l (so e_a^2 = 0)."""
        once = self.bracket({a: 1}, y)
        out = dict(y)
        _acc_coeff(out, once, t)
        _acc_coeff(out, self.bracket({a: 1}, once), t * t / 2)
        return out

    def torus_act(self, s: list, y: dict) -> dict:
        """Ad(diag(prod_i s_i^H_i)) y on sparse nbar coordinates, with H_i
        the torus elements: e_k scales by prod_i s_i^weights[i, k]."""
        out = {}
        for k, c in y.items():
            for i, w in self._torus_support[k]:
                c *= s[i] ** w
            out[k] = c
        return out

    def random_l_action(self, rand: random.Random):
        """Ad(g) on sparse nbar coordinates for a random rational g in L.

        g is a product of 2r factors, r = len(torus.indices), each a torus
        factor with probability 1/3 and a unipotent factor 1 + tE otherwise,
        E drawn from nilpotent_l; s_i and t come from rational palettes.  r
        counts the matrix indices that the unipotent factors must link for
        the points of verify_kprime to span nbar.
        """
        factors = []
        for _ in range(2 * len(self.torus.indices)):
            if rand.randrange(3) == 0:
                s = [rand.choice(_DIAG_PALETTE) for _ in self.torus.indices]
                factors.append((self.torus_act, s))
            else:
                a = rand.choice(self.nilpotent_l)
                factors.append((self.unipotent_act, a, rand.choice(_OFFDIAG_PALETTE)))

        def act(y: dict) -> dict:
            for f, *params in factors:
                y = f(*params, y)
            return y
        return act

    @cached_property
    def m_generator(self) -> dict:
        """X = sum (E_ji - E_ij) over the spec's m_planes (i, j), so that
        X^T = -X and theta X = X; ModelInvariantError unless X lies in l
        with X^3 = -X, checked exactly."""
        x = self._coords_of({p: v for i, j in self.spec.m_planes(self.n)
                             for p, v in (((j, i), 1), ((i, j), -1))})
        mat = np.array(self.element(x), dtype=np.int64)
        if any(self.grades[k] != 0 for k in x) or (mat @ mat @ mat != -mat).any():
            raise ModelInvariantError("the M generator is not an X in l with X^3 = -X")
        return x

    @cached_property
    def m_rotation(self) -> np.ndarray:
        """Ad(g) on n-coordinates, exact, for the M = K cap L element
        g = 1 + (4/5) X + (2/5) X^2 = exp(tX), cos t = 3/5, X = m_generator:
        column a holds the n-coordinates of g e_a g^T (g is orthogonal),
        formed on the integer matrix 25 g."""
        x = np.array(self.element(self.m_generator), dtype=np.int64)
        g = 25 * np.eye(self.dim_ambient, dtype=np.int64) + 20 * x + 10 * (x @ x)
        out = ratlin.rzeros((len(self.n_indices),) * 2)
        for a, k in enumerate(self.n_indices):
            coords = self.coords(g @ np.array(self.element({k: 1}), dtype=np.int64) @ g.T)
            out[:, a] = [Fraction(coords.pop(j, 0), 625) for j in self.n_indices]
            if coords:
                raise ModelInvariantError("Ad(g) does not map n into n")
        return out

def combine(*terms) -> dict:
    """sum_i c_i x_i over the terms (c_i, x_i), x_i sparse coordinates;
    zero coefficients are dropped."""
    out: dict = {}
    for c, x in terms:
        _acc_coeff(out, x, c)
    return out


# ------------------------------------------------------------------ sparse

_EMPTY: dict = {}   # read-only stand-in for a missing sparse column


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


def _squares_to_zero(a) -> bool:
    """The matrix with entries a squares to zero."""
    out: dict = {}
    for (r1, c1), v1 in a:
        for (r2, c2), v2 in a:
            if c1 == r2:
                out[r1, c2] = out.get((r1, c2), 0) + v1 * v2
    return not any(out.values())


# ---------------------------------------------------------- family specs

def _orthogonal_basis(n: int):
    """Split so(2m, 2m), m = 2n: nbar upper-right skew, l = gl_m, n lower-left
    skew.  Each basis element is its entries [((r, c), +-1)] in row-major order."""
    m = 2 * n
    nbar_pairs = [(r, c) for r in range(m) for c in range(r + 1, m)]
    nbar = [[((r, m + c), 1), ((c, m + r), -1)] for r, c in nbar_pairs]
    levi = [[((i, j), 1), ((m + j, m + i), -1)] for i in range(m) for j in range(m)]
    n_part = [[((m + r, c), 1), ((m + c, r), -1)] for r, c in nbar_pairs]
    return nbar + levi + n_part, [-1] * len(nbar) + [0] * len(levi) + [1] * len(n_part)


def _general_linear_basis(n: int):
    """gl_2n: nbar lower-left, l = gl_n + gl_n (blocks A, D), n upper-right.
    Each basis element is its one entry [((r, c), 1)]."""
    pairs = [(i, j) for i in range(n) for j in range(n)]
    nbar = [[((n + i, j), 1)] for i, j in pairs]
    levi = [[((i, j), 1)] for i, j in pairs] + [[((n + i, n + j), 1)] for i, j in pairs]
    n_part = [[((i, n + j), 1)] for i, j in pairs]
    return nbar + levi + n_part, [-1] * len(nbar) + [0] * len(levi) + [1] * len(n_part)


@dataclass(frozen=True)
class ModelSpec:
    """Everything that one explicit family knows about its matrices, as
    exact data.

    Layout: basis(n) gives the entries and grades, which alone place the
    nbar and n blocks (GradedModel._build_blocks); the diagonal blocks on
    their rows carry l, and nu_weights weigh the traces there.  m_planes
    give the generator of the fixed M = K cap L rotation
    (GradedModel.m_generator).  Everything else, the exact L action, the
    forms and the float layer's unit sampler included, comes from the basis.
    """

    basis: Callable       # n -> (entries, grades): nbar, l, n
    nu_weights: tuple     # nu = w0 tr(on nbar rows) + w1 tr(on n rows)
    y_entries: Callable   # j -> ((row, col, value), ...) in y_j's nbar block
    m_planes: Callable    # n -> ((i, j), ...): X = sum E_ji - E_ij, ambient


SPECS = {
    Family.O2N2N: ModelSpec(
        basis=_orthogonal_basis,
        # nu = -(1/2) tr on the nbar rows, i.e. (1/2) tr on the n rows; this
        # is the unique character with nu(h_j) = 1
        nu_weights=(Fraction(-1, 2), ZERO),
        # y_j has nbar block B_j = [[0, -1], [1, 0]] at rows/columns 2j-2, 2j-1
        y_entries=lambda j: ((2 * j - 2, 2 * j - 1, -1), (2 * j - 1, 2 * j - 2, 1)),
        # X rotates rows 1, 2 of l = gl_2n, on the nbar rows and the n rows
        m_planes=lambda n: ((1, 2), (2 * n + 1, 2 * n + 2))),
    Family.GL2N_R: ModelSpec(
        basis=_general_linear_basis,
        # nu = (tr A - tr D)/2 on l = gl_n + gl_n, D on the nbar rows; the
        # extension of the torus data pinned by the rank-one measure pushforward
        nu_weights=(Fraction(-1, 2), Fraction(1, 2)),
        y_entries=lambda j: ((j - 1, j - 1, 1),),
        # X rotates rows 0, 1 of A and rows 1, 2 of D (rows 0, 1 at n = 2)
        m_planes=lambda n: ((0, 1), (n + 1, n + 2) if n >= 3 else (n, n + 1))),
}


# ----------------------------------------------------------------- factory

def build_model(family: Family | str, n: int) -> GradedModel:
    """Construct the graded matrix model for a supported family and rank."""
    return GradedModel(Family(family), n)


# ------------------------------------------------------ module operations

def norm_nbar_sq(m: GradedModel, y: dict) -> Fraction:
    """-<y, theta y> for y in nbar, given by its sparse coordinates."""
    if any(m.grades[k] != -1 for k in y):
        raise ValueError("element is not in nbar")
    radicand = -m.pair(y, m.theta(y))
    if radicand < 0:
        raise ModelInvariantError(f"negative radicand {radicand} on nbar")
    return radicand

def norm_nbar(m: GradedModel, y: dict) -> float:
    """|y| = sqrt(-<y, theta y>) for y in nbar."""
    return math.sqrt(float(norm_nbar_sq(m, y)))


def nu(m: GradedModel, l_elt: dict) -> Fraction:
    """nu of the l element with sparse coordinates l_elt."""
    if any(m.grades[k] != 0 for k in l_elt):
        raise ValueError("element is not in l")
    return sum((m.nu_covector[k] * c for k, c in l_elt.items()), ZERO)


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
    gram, pos = m.l_gram_b, {a: i for i, a in enumerate(m.l_indices)}

    def b_int(u, v):   # -tr(u theta v) on sparse coordinates
        return sum(cu * cv * gram[pos[i], pos[k]] for i, cu in u.items() for k, cv in v.items())

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
            _acc_coeff(acc, m.bracket(v, m.bracket(v, {k: 1})), w)
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
        """Dense views of the basis vectors."""
        return [self.model.element(s) for s in self.sparse]

    @cached_property
    def sparse(self) -> list[dict]:
        """Each basis vector as sparse model coordinates {k: c}, k in l."""
        l_idx = self.model.l_indices
        return [{l_idx[i]: c for i, c in enumerate(row) if c} for row in self.coords]

    def contains(self, coords: dict) -> bool:
        """The element with sparse model coordinates coords lies in the
        subspace: no coordinate off l, and its l-part in the span."""
        m = self.model
        if any(m.grades[k] != 0 for k in coords):
            return False
        return self.echelon.contains([coords.get(k, 0) for k in m.l_indices])


def l_bracket_map(m: GradedModel, y: dict) -> np.ndarray:
    """Integer matrix of h -> [h, y] on l for y given by sparse coordinates:
    column a holds the coordinates of [e, y] for the a-th basis element e
    of l."""
    out = ratlin.rzeros((m.dim, m.dim_l))
    for col, a in enumerate(m.l_indices):
        for k, c in m.bracket({a: 1}, y).items():
            out[k, col] = c
    return out


def stabilizer_algebra(m: GradedModel, y: dict) -> LSubspace:
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
        trace = 0
        for row, pc in zip(ech.rows, ech.pivots):
            img = m.bracket(a, {l_idx[i]: v for i, v in enumerate(row) if v})
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
    the integer trace Gram; the sl2 and grading-element checks run on
    coordinates through the same bracket.  Only the matrix-sample Jacobi
    bypasses the tables: it brackets the basis matrices as a @ b - b @ a.
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

    # independent matrix-level sample, bypassing the structure table; int64
    # is exact: the entries of the basis matrices are 0 or +-1, so no entry
    # of the sum below exceeds 12 N^2 for N = dim_ambient <= 24
    rand = random.Random(rand_seed)
    count = 200 if dim <= 30 else 100
    stack = np.array(m.basis, dtype=np.int64)
    bad = 0
    for _ in range(count):
        a, b, c = (stack[rand.randrange(dim)] for _ in range(3))
        jac = (_matrix_bracket(a, _matrix_bracket(b, c))
               + _matrix_bracket(b, _matrix_bracket(c, a))
               + _matrix_bracket(c, _matrix_bracket(a, b)))
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

    # coordinate dicts hold no zero coefficient, so == is exact equality
    bad = []
    for t in m.triples:
        if m.bracket(t.h, t.x) != combine((2, t.x)):
            bad.append(f"[h,x] j={t.j}")
        if m.bracket(t.h, t.y) != combine((-2, t.y)):
            bad.append(f"[h,y] j={t.j}")
        if m.bracket(t.x, t.y) != t.h:
            bad.append(f"[x,y] j={t.j}")
    for a in m.triples:
        for b in m.triples:
            if a.j >= b.j:
                continue
            for u in (a.x, a.y, a.h):
                for v in (b.x, b.y, b.h):
                    if m.bracket(u, v):
                        bad.append(f"triples {a.j},{b.j} do not commute")
    report.add("sl2 triple relations", not bad, residual=len(bad),
               detail="; ".join(bad[:3]))

    h = m.grading_element
    bad = 0
    for k in nbar:
        if m.bracket(h, {k: 1}) != {k: -2}:
            bad += 1
    for k in nn:
        if m.bracket(h, {k: 1}) != {k: 2}:
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


def _matrix_bracket(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _acc_coeff(acc: dict, entry: dict, scale):
    for k, c in entry.items():
        v = acc.get(k, 0) + scale * c
        if v == 0:
            acc.pop(k, None)
        else:
            acc[k] = v


# ----------------------------------------------------------------- dumping

def model_dump(m: GradedModel) -> dict:
    def mat_strs(mat: np.ndarray) -> list[list[str]]:
        return [[str(mat[r, c]) for c in range(m.dim_ambient)]
                for r in range(m.dim_ambient)]

    def coords_map(coords: dict) -> dict:
        return {str(k): str(c) for k, c in sorted(coords.items())}

    return {
        "family": m.family.value,
        "n": m.n,
        "dim_ambient": m.dim_ambient,
        "form_scale": str(m.form_scale),
        "basis": [
            {"grade": m.grades[k], "matrix": mat_strs(m.basis[k])}
            for k in range(m.dim)
        ],
        "triples": [
            {"j": t.j, "x": coords_map(t.x), "y": coords_map(t.y), "h": coords_map(t.h)}
            for t in m.triples
        ],
        "nu_on_l": {str(k): str(c) for k, c in enumerate(m.nu_covector) if c != 0},
    }


def model_dump_json(m: GradedModel) -> str:
    return json.dumps(model_dump(m), indent=2, sort_keys=True) + "\n"
