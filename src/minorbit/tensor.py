"""Stabilizers of rank-k points and the dual-pair dimension audit.

For xi = y_1 + ... + y_k the stabilizer s_k in l splits as
(g_k + l_k) + u_k, and the simultaneous stabilizer s_k' of the tuple as
(h_k + l_k) + u_k with the same nilradical.  The nilradical is recovered as
the radical of the invariant form restricted to the stabilizer, the
reductive part as its orthocomplement for the definite product, and l_k as
the reductive elements annihilating every rank-k root space.  Dimensions of
g_k and h_k then follow by subtraction and are audited against the closed
forms of the catalog dual pairs.

Only dimensions are identified; no isomorphism testing is attempted, and the
induction/Plancherel content behind the tensor-power decomposition is
recorded as metadata, not computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import liealg, ratlin
from .catalog import DualPair, dual_pair, get_class
from .liealg import GradedModel, LSubspace
from .reports import VerificationReport


@dataclass
class StabilizerDecomposition:
    model: GradedModel
    k: int
    s_k: LSubspace
    s_k_prime: LSubspace
    nilradical: LSubspace
    levi: LSubspace
    levi_prime: LSubspace
    g_k: LSubspace
    h_k: LSubspace
    l_k: LSubspace
    xi_map: np.ndarray      # integer matrix of h -> [h, xi] on l

    @property
    def s_k_dim(self) -> int:
        return self.s_k.dim

    @property
    def s_k_prime_dim(self) -> int:
        return self.s_k_prime.dim

    @property
    def u_k_dim(self) -> int:
        return self.nilradical.dim

    @property
    def l_k_dim(self) -> int:
        return self.l_k.dim

    @property
    def g_k_dim(self) -> int:
        return self.g_k.dim

    @property
    def h_k_dim(self) -> int:
        return self.h_k.dim

    def dims(self) -> dict:
        return {
            "s_k": self.s_k_dim, "s_k_prime": self.s_k_prime_dim,
            "u_k": self.u_k_dim, "l_k": self.l_k_dim,
            "g_k": self.g_k_dim, "h_k": self.h_k_dim,
        }


def _lift(m: GradedModel, kernel: list[np.ndarray], basis: np.ndarray) -> LSubspace:
    """The subspace spanned by the combinations kernel of the rows of basis."""
    if not kernel:
        return LSubspace(m, [])
    return LSubspace(m, list(ratlin.matmul(np.array(kernel, dtype=object), basis)))


def _form_radical(m: GradedModel, sub: LSubspace) -> LSubspace:
    basis = np.array(sub.coords, dtype=object)
    gram = ratlin.matmul(ratlin.matmul(basis, m.l_gram), basis.T)
    return _lift(m, ratlin.nullspace(gram), basis)


def _b_orthocomplement(m: GradedModel, sub: LSubspace, inside: LSubspace) -> LSubspace:
    """Orthocomplement of sub within inside for the definite product on l."""
    if not sub.coords:
        return inside
    inside_mat = np.array(inside.coords, dtype=object)
    # row u holds B(u, w) over the basis vectors w of inside
    constraints = ratlin.matmul(
        ratlin.matmul(np.array(sub.coords, dtype=object), m.l_gram_b.T),
        inside_mat.T)
    return _lift(m, ratlin.nullspace(constraints), inside_mat)


def _triple_support(m: GradedModel, k: int) -> set[int]:
    """Ambient coordinates touched by the rank-k triple data."""
    support: set[int] = set()
    for t in m.triples[:k]:
        for mat in (t.x, t.y, t.h):
            rows, cols = np.nonzero(mat)
            support.update(rows.tolist())
            support.update(cols.tolist())
    return support


def _support_split(m: GradedModel, sub: LSubspace, support: set[int]):
    """Split a subspace into the parts supported inside and off the support.

    Returns (inside, outside); callers must check the split is direct, which
    certifies that the reductive part really is block-aligned with the
    rank-k frame.
    """
    if not sub.coords:
        return sub, sub
    # column p holds entry p of each basis matrix
    flat = np.array(sub.matrices(), dtype=object).reshape(sub.dim, -1)
    amb = m.dim_ambient
    inside_rows, outside_rows = [], []
    for p in range(flat.shape[1]):
        col = flat[:, p]
        if not np.any(col):
            continue
        r, c = divmod(p, amb)
        if r in support and c in support:
            outside_rows.append(col)      # must vanish for the outside part
        else:
            inside_rows.append(col)       # must vanish for the inside part
    inside = _constrained(m, sub, inside_rows)
    outside = _constrained(m, sub, outside_rows)
    return inside, outside


def _constrained(m: GradedModel, sub: LSubspace, rows) -> LSubspace:
    if not rows:
        return sub
    return _lift(m, ratlin.nullspace(np.array(rows, dtype=object)),
                 np.array(sub.coords, dtype=object))


def stabilizer_sk(m: GradedModel, k: int) -> StabilizerDecomposition:
    """Exact stabilizer decomposition at tensor depth k, 1 <= k < n."""
    if not 1 <= k < m.n:
        raise ValueError(f"k={k} outside [1, {m.n})")
    # h -> [h, xi] for xi = y_1 + ... + y_k is the sum of the maps of the y_j
    maps = [liealg.l_bracket_map(m, t.y) for t in m.triples[:k]]
    xi_map = sum(maps[1:], maps[0])

    s_k = LSubspace(m, ratlin.nullspace(xi_map))
    s_k_prime = LSubspace(m, ratlin.nullspace(np.vstack(maps)))

    u_k = _form_radical(m, s_k)
    u_k_prime = _form_radical(m, s_k_prime)
    if u_k.dim != u_k_prime.dim or ratlin.span_intersection_dim(
            u_k.coords, u_k_prime.coords) != u_k.dim:
        raise liealg.ModelInvariantError("nilradicals of s_k and s_k' differ")

    levi = _b_orthocomplement(m, u_k, s_k)
    levi_prime = _b_orthocomplement(m, u_k_prime, s_k_prime)

    # split the reductive parts along the coordinate support of the rank-k
    # frame; a pure form/bracket separation cannot see which factor owns the
    # shared center, while the frame support fixes it (h_k sits inside g_k)
    support = _triple_support(m, k)
    g_k, l_k = _support_split(m, levi, support)
    h_k, l_k_prime = _support_split(m, levi_prime, support)
    if g_k.dim + l_k.dim != levi.dim:
        raise liealg.ModelInvariantError("levi does not split along the rank-k frame")
    if h_k.dim + l_k_prime.dim != levi_prime.dim:
        raise liealg.ModelInvariantError("levi' does not split along the rank-k frame")
    if l_k_prime.dim != l_k.dim or ratlin.span_intersection_dim(
            l_k.coords, l_k_prime.coords) != l_k.dim:
        raise liealg.ModelInvariantError("common factor l_k differs between s_k and s_k'")

    return StabilizerDecomposition(
        model=m, k=k, s_k=s_k, s_k_prime=s_k_prime,
        nilradical=u_k, levi=levi, levi_prime=levi_prime,
        g_k=g_k, h_k=h_k, l_k=l_k, xi_map=xi_map)


def decomposition_invariants(m: GradedModel, dec: StabilizerDecomposition) -> VerificationReport:
    """Structural facts: direct sum, ideal property, isotropy, containments."""
    report = VerificationReport("stabilizer_structure", meta={
        "family": m.family.value, "n": m.n, "k": dec.k, **dec.dims()})

    report.add("s_k = levi + nilradical (dimensions)",
               dec.levi.dim + dec.nilradical.dim == dec.s_k.dim)
    mixed = ratlin.span_intersection_dim(dec.levi.coords, dec.nilradical.coords)
    report.add("levi and nilradical intersect trivially", mixed == 0, residual=mixed)

    u_mats = dec.nilradical.matrices()
    s_mats = dec.s_k.matrices()
    levi_mats = dec.levi.matrices()
    bad = 0
    for a in s_mats:
        for b in u_mats:
            if not dec.nilradical.contains(m.bracket(a, b)):
                bad += 1
    report.add("nilradical is an ideal of s_k", bad == 0, residual=bad)
    bad = 0
    for a in levi_mats:
        for b in levi_mats:
            if not dec.levi.contains(m.bracket(a, b)):
                bad += 1
    report.add("levi closes under bracket", bad == 0, residual=bad)
    bad = 0
    if dec.nilradical.coords:
        u = np.array(dec.nilradical.coords, dtype=object)
        pairings = ratlin.matmul(ratlin.matmul(u, m.l_gram), u.T)
        bad = int(np.count_nonzero(pairings))
    report.add("nilradical is isotropic for the form", bad == 0, residual=bad)

    sprime_in_s = all(dec.s_k.contains(mat) for mat in dec.s_k_prime.matrices())
    report.add("s_k' contained in s_k", sprime_in_s)
    report.add("dim s_k' <= dim s_k", dec.s_k_prime.dim <= dec.s_k.dim)
    h_in_g = all(dec.g_k.contains(mat) for mat in dec.h_k.matrices())
    report.add("h_k contained in g_k", h_in_g)
    bad = 0
    for a in dec.g_k.matrices():
        for b in dec.l_k.matrices():
            if not ratlin.is_zero_matrix(m.bracket(a, b)):
                bad += 1
    report.add("[g_k, l_k] = 0", bad == 0, residual=bad)

    # orbit-stabilizer: rank of the bracket map plus the kernel fills l
    orbit_dim = ratlin.rank(dec.xi_map)
    report.add("dim s_k + dim O_k = dim l",
               dec.s_k.dim + orbit_dim == m.dim_l,
               detail=f"dim O_k = {orbit_dim}")
    return report


def audit_dual_pair(m: GradedModel, k: int, expected: DualPair | None = None) -> VerificationReport:
    """Compare computed g_k/h_k dimensions with the catalog dual pair.

    The correspondence itself (Mackey induction of the extended stabilizer
    representations, Plancherel matching) is an analytic statement outside
    the scope of this audit and is recorded as metadata only.
    """
    row = get_class(m.family)
    if expected is None:
        expected = dual_pair(row, k, n=m.n)
    dec = stabilizer_sk(m, k)
    report = VerificationReport("dual_pair_audit", meta={
        "family": m.family.value, "n": m.n, "k": k,
        "expected": f"{expected.g_label}/{expected.h_label}",
        "dims": dec.dims(),
        "out_of_scope": "induction and Plancherel content recorded, not computed",
    })
    report.add(f"dim g_k = dim {expected.g_label}", dec.g_k_dim == expected.g_dim,
               residual=dec.g_k_dim - (expected.g_dim or 0),
               detail=f"computed {dec.g_k_dim}, expected {expected.g_dim}")
    report.add(f"dim h_k = dim {expected.h_label}", dec.h_k_dim == expected.h_dim,
               residual=dec.h_k_dim - (expected.h_dim or 0),
               detail=f"computed {dec.h_k_dim}, expected {expected.h_dim}")
    for check in decomposition_invariants(m, dec).checks:
        report.checks.append(check)
    return report
