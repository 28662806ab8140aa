"""Stabilizers of rank-k points and the dual-pair dimension audit.

For xi = y_1 + ... + y_k the stabilizer s_k in l splits as
(g_k + l_k) + u_k, and the simultaneous stabilizer s_k' of the tuple as
(h_k + l_k) + u_k with the same nilradical.  The nilradical is recovered as
the radical of the invariant form restricted to the stabilizer, the
reductive part as its orthocomplement for the definite product, and l_k as
the reductive elements annihilating every rank-k root space.  Dimensions of
g_k and h_k then follow by subtraction and are audited against the closed
forms of the catalog dual pairs.

Everything runs on sparse coordinates: the bracket maps and the invariants
bracket basis vectors through the integer ad table (GradedModel.bracket)
and test membership against each subspace's cached sparse echelon form,
reading only the rows that an element's support selects.  The Gram matrices
of the invariant form and of the definite product on a subspace's basis
vectors u, w are GradedModel.trace(u, w) and -trace(u, theta w), entry by
entry, the one trace form of the model.  The rank-k frame support and the
split along it are read off the basis entries, whose supports are pairwise
disjoint.  No ambient matrix is formed; the tests keep a dense oracle for
the brackets and the split.

Only dimensions are identified; no isomorphism testing is attempted, and the
induction/Plancherel content behind the tensor-power decomposition is
recorded as metadata, not computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import liealg, ratlin
from .catalog import dual_pair, get_class
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
    """The subspace spanned by the combinations kernel of the rows of basis;
    both hold integers, so the product is exact."""
    if not kernel:
        return LSubspace(m, [])
    return LSubspace(m, list(np.array(kernel, dtype=object).dot(basis)))


def _form_radical(m: GradedModel, sub: LSubspace) -> LSubspace:
    gram = np.array([[m.trace(u, w) for w in sub.sparse] for u in sub.sparse], dtype=object)
    return _lift(m, ratlin.nullspace(gram), np.array(sub.coords, dtype=object))


def _b_orthocomplement(m: GradedModel, sub: LSubspace, inside: LSubspace) -> LSubspace:
    """Orthocomplement of sub within inside for the definite product on l."""
    if not sub.coords:
        return inside
    # row u holds -tr(u theta w) over the basis vectors w of inside
    theta_inside = [m.theta(w) for w in inside.sparse]
    constraints = np.array([[-m.trace(u, tw) for tw in theta_inside] for u in sub.sparse],
                           dtype=object)
    return _lift(m, ratlin.nullspace(constraints), np.array(inside.coords, dtype=object))


def _triple_support(m: GradedModel, k: int) -> set[int]:
    """Ambient rows and columns touched by the rank-k triple data: the
    entries of the basis elements in their coordinates, since disjoint
    supports never cancel."""
    support: set[int] = set()
    for t in m.triples[:k]:
        for coords in (t.x, t.y, t.h):
            for a in coords:
                for r, c in m.positions(a):
                    support.update((r, c))
    return support


def _support_split(m: GradedModel, sub: LSubspace, support: set[int]):
    """Split a subspace into the parts supported inside and off the support.

    The entry of a vector of sub at position p is +-1 times its coordinate
    on the one basis element whose support holds p, so that element's
    coordinate column constrains each part that must vanish at p.

    Returns (inside, outside); callers must check the split is direct, which
    certifies that the reductive part really is block-aligned with the
    rank-k frame.
    """
    if not sub.coords:
        return sub, sub
    inside_rows, outside_rows = [], []
    for i, a in enumerate(m.l_indices):
        col = [row[i] for row in sub.coords]
        if not any(col):
            continue
        framed = [r in support and c in support for r, c in m.positions(a)]
        if any(framed):
            outside_rows.append(col)      # must vanish for the outside part
        if not all(framed):
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


def _bracket_defects(m: GradedModel, left: LSubspace, right: LSubspace,
                     target: LSubspace) -> int:
    """Number of basis pairs (a, b) of left x right whose bracket [a, b]
    lies outside target."""
    return sum(not target.contains(m.bracket(a, b))
               for a in left.sparse for b in right.sparse)


def decomposition_invariants(m: GradedModel, dec: StabilizerDecomposition) -> VerificationReport:
    """Structural facts: direct sum, ideal property, isotropy, containments.

    Brackets run on the sparse l-coordinates of the basis vectors through
    the integer ad table (GradedModel.bracket).  Every membership test, the
    containments s_k' in s_k and h_k in g_k included, goes through
    LSubspace.contains on sparse coordinates: it reads only the element's
    support and the rows of the subspace's cached sparse echelon form that
    the support selects, with any coordinate off l counting as outside.
    The tests keep a dense matrix bracket as the oracle.
    """
    report = VerificationReport("stabilizer_structure", meta={
        "family": m.family.value, "n": m.n, "k": dec.k, **dec.dims()})

    report.add("s_k = levi + nilradical (dimensions)",
               dec.levi.dim + dec.nilradical.dim == dec.s_k.dim)
    mixed = ratlin.span_intersection_dim(dec.levi.coords, dec.nilradical.coords)
    report.add("levi and nilradical intersect trivially", mixed == 0, residual=mixed)

    bad = _bracket_defects(m, dec.s_k, dec.nilradical, dec.nilradical)
    report.add("nilradical is an ideal of s_k", bad == 0, residual=bad)
    bad = _bracket_defects(m, dec.levi, dec.levi, dec.levi)
    report.add("levi closes under bracket", bad == 0, residual=bad)
    u = dec.nilradical.sparse
    bad = sum(1 for a in u for b in u if m.trace(a, b))
    report.add("nilradical is isotropic for the form", bad == 0, residual=bad)

    sprime_in_s = all(dec.s_k.contains(v) for v in dec.s_k_prime.sparse)
    report.add("s_k' contained in s_k", sprime_in_s)
    report.add("dim s_k' <= dim s_k", dec.s_k_prime.dim <= dec.s_k.dim)
    h_in_g = all(dec.g_k.contains(v) for v in dec.h_k.sparse)
    report.add("h_k contained in g_k", h_in_g)
    bad = _bracket_defects(m, dec.g_k, dec.l_k, LSubspace(m, []))
    report.add("[g_k, l_k] = 0", bad == 0, residual=bad)

    # orbit-stabilizer: rank of the bracket map plus the kernel fills l
    orbit_dim = ratlin.rank(dec.xi_map)
    report.add("dim s_k + dim O_k = dim l",
               dec.s_k.dim + orbit_dim == m.dim_l,
               detail=f"dim O_k = {orbit_dim}")
    return report


def audit_dual_pair(m: GradedModel, k: int) -> VerificationReport:
    """Compare computed g_k/h_k dimensions with the catalog dual pair.

    The correspondence itself (Mackey induction of the extended stabilizer
    representations, Plancherel matching) is an analytic statement outside
    the scope of this audit and is recorded as metadata only.
    """
    expected = dual_pair(get_class(m.family), k, n=m.n)
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
