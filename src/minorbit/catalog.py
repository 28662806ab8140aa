"""Classification data for conformal groups of non-Euclidean Jordan algebras.

One row per group family: restricted-root multiplicities (d, e), the K/M
column, the dual-pair family G_k/H_k, and the rank parameter.  The two
rank-two orthogonal families carry a free parameter p and a blank dual-pair
cell.  The table states no model data: the families with explicit matrix
models are the keys of liealg.SPECS, and build_model refuses the rest.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction


class Family(str, Enum):
    GL2N_R = "gl2nR"
    O2N2N = "o2n2n"
    E7_SPLIT = "e77"
    O_P2P2 = "op2p2"
    SP_N_C = "spnC"
    GL2N_C = "gl2nC"
    O_4N_C = "o4nC"
    E7_C = "e7C"
    O_P4_C = "op4C"
    SP_NN = "spnn"
    GL2N_H = "gl2nH"


@dataclass(frozen=True)
class Multiplicities:
    """Short- and long-root multiplicities of the restricted root system."""

    d: int
    e: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.e < 0:
            raise ValueError(f"e must be >= 0, got {self.e}")


@dataclass(frozen=True)
class GroupClass:
    """A single row of the classification table."""

    family: Family
    display: str
    n_symbol: str          # "n" for generic rank, else the fixed rank as text
    d_symbol: str          # integer text, or "p" for the parametric rows
    e: int
    km_label: str
    dual_family: str       # template with k; empty for the rank-two rows

    @property
    def parametric(self) -> bool:
        return self.d_symbol == "p"

    def rank(self, n: int | None = None) -> int:
        if self.n_symbol == "n":
            if n is None:
                raise ValueError(f"{self.display} needs an explicit rank n")
            if n < 2:
                raise ValueError("rank n must be >= 2")
            return n
        fixed = int(self.n_symbol)
        if n is not None and n != fixed:
            raise ValueError(f"{self.display} has fixed rank {fixed}, got n={n}")
        return fixed

    def multiplicities(self, p: int | None = None) -> Multiplicities:
        if self.parametric:
            if p is None:
                raise ValueError(f"{self.display} needs the parameter p")
            if p < 1:
                raise ValueError("p must be >= 1")
            return Multiplicities(p, self.e)
        return Multiplicities(int(self.d_symbol), self.e)


# Table rows in source order.  (d, e) transcribed verbatim; the rank-two
# rows have d = p and an empty dual-pair cell.
_ROWS: tuple[GroupClass, ...] = (
    GroupClass(Family.GL2N_R, "GL_2n(R)", "n", "1", 0,
               "O_2n/(O_n x O_n)", "GL_k(R)/[GL_1(R)]^k"),
    GroupClass(Family.O2N2N, "O_2n,2n", "n", "2", 0,
               "(O_2n x O_2n)/O_2n", "Sp_2k(R)/[SL_2(R)]^k"),
    GroupClass(Family.E7_SPLIT, "E_7(7)", "3", "4", 0,
               "SU_8/Sp_4", "Spin(4,5)/Spin(4,4)"),
    GroupClass(Family.O_P2P2, "O_p+2,p+2", "2", "p", 0,
               "[O_p+2]^2/[O_1 x O_p+1^2]", ""),
    GroupClass(Family.SP_N_C, "Sp_n(C)", "n", "1", 1,
               "Sp_n/U_n", "O_k(C)/[O_1(C)]^k"),
    GroupClass(Family.GL2N_C, "GL_2n(C)", "n", "2", 1,
               "U_2n/(U_n x U_n)", "GL_k(C)/[GL_1(C)]^k"),
    GroupClass(Family.O_4N_C, "O_4n(C)", "n", "4", 1,
               "O_4n/U_2n", "Sp_2k(C)/[SL_2(C)]^k"),
    GroupClass(Family.E7_C, "E_7(C)", "3", "8", 1,
               "E_7/(E_6 x U_1)", "SO_9(C)/SO_8(C)"),
    GroupClass(Family.O_P4_C, "O_p+4(C)", "2", "p", 1,
               "O_p+4/(O_p+2 x U_1)", ""),
    GroupClass(Family.SP_NN, "Sp_n,n", "n", "2", 2,
               "(Sp_n x Sp_n)/Sp_n", "O*_k/[O*_1]^k"),
    GroupClass(Family.GL2N_H, "GL_2n(H)", "n", "4", 3,
               "Sp_2n/(Sp_n x Sp_n)", "GL_k(H)/[GL_1(H)]^k"),
)


def list_classes() -> tuple[GroupClass, ...]:
    """All eleven table rows, in table order."""
    return _ROWS


def get_class(family: Family | str) -> GroupClass:
    fam = Family(family)
    for row in _ROWS:
        if row.family is fam:
            return row
    raise KeyError(fam)


def tau(m: Multiplicities) -> Fraction:
    """Bessel order (d - e - 1)/2, exact."""
    return Fraction(m.d - m.e - 1, 2)


def dim_nbar(c: GroupClass, n: int | None = None, p: int | None = None) -> int:
    """Dimension of the abelian nilradical: d*n*(n-1) + (e+1)*n.

    Short root spaces contribute 2d per unordered index pair, long root
    spaces e+1 per index.
    """
    m = c.multiplicities(p)
    nn = c.rank(n)
    return m.d * nn * (nn - 1) + (m.e + 1) * nn


def radial_exponent(c: GroupClass, n: int | None = None, p: int | None = None) -> int:
    """Exponent of the radial measure factor w^(d*n - 1) dw."""
    m = c.multiplicities(p)
    return m.d * c.rank(n) - 1


@dataclass(frozen=True)
class DualPair:
    g_label: str
    h_label: str
    g_dim: int | None
    h_dim: int | None


def dual_pair(c: GroupClass, k: int, n: int | None = None, p: int | None = None) -> DualPair:
    """Instantiate the G_k/H_k column at tensor depth k, for 2 <= k < n."""
    if not c.dual_family:
        raise ValueError(f"{c.display}: no dual pair family recorded (rank-two row)")
    nn = c.rank(n)
    if not 2 <= k < nn:
        raise ValueError(f"k={k} outside [2, {nn})")
    fam = c.family
    if fam is Family.GL2N_R:
        return DualPair(f"GL_{k}(R)", f"[GL_1(R)]^{k}", k * k, k)
    if fam is Family.O2N2N:
        return DualPair(f"Sp_{2 * k}(R)", f"[SL_2(R)]^{k}", k * (2 * k + 1), 3 * k)
    if fam is Family.E7_SPLIT:
        return DualPair("Spin(4,5)", "Spin(4,4)", 36, 28)
    if fam is Family.SP_N_C:
        return DualPair(f"O_{k}(C)", f"[O_1(C)]^{k}", k * (k - 1), 0)
    if fam is Family.GL2N_C:
        return DualPair(f"GL_{k}(C)", f"[GL_1(C)]^{k}", 2 * k * k, 2 * k)
    if fam is Family.O_4N_C:
        return DualPair(f"Sp_{2 * k}(C)", f"[SL_2(C)]^{k}", 2 * k * (2 * k + 1), 6 * k)
    if fam is Family.E7_C:
        return DualPair("SO_9(C)", "SO_8(C)", 72, 56)
    if fam is Family.SP_NN:
        return DualPair(f"O*_{k}", f"[O*_1]^{k}", None, None)
    if fam is Family.GL2N_H:
        return DualPair(f"GL_{k}(H)", f"[GL_1(H)]^{k}", 4 * k * k, 4 * k)
    raise ValueError(fam)


@dataclass(frozen=True)
class OpqDescriptor:
    """A pseudo-orthogonal group O(p, q) offered for admissibility checking."""

    p: int
    q: int


def validate_admissible(descriptor: OpqDescriptor) -> tuple[bool, str]:
    """Admissibility of O(p, q).

    O(p, q) with p != q is the rank-two configuration with unequal short-root
    multiplicities; those groups are excluded and the main identities fail
    for them.  O(p, p) is admissible.
    """
    if descriptor.p != descriptor.q:
        return False, (
            f"O({descriptor.p},{descriptor.q}) excluded: rank-2 unequal "
            "multiplicities (p != q), the spherical-vector identities fail"
        )
    return True, f"O({descriptor.p},{descriptor.p}) admissible"


CSV_COLUMNS = ("family", "n", "d", "e", "km_label", "dual_family")


def table_rows() -> list[dict]:
    return [
        {
            "family": row.display,
            "n": row.n_symbol,
            "d": row.d_symbol,
            "e": str(row.e),
            "km_label": row.km_label,
            "dual_family": row.dual_family,
        }
        for row in _ROWS
    ]


def to_csv(rows: list[dict] | None = None) -> str:
    """The given table rows as CSV, every row by default."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(table_rows() if rows is None else rows)
    return buf.getvalue()


def to_json(rows: list[dict] | None = None) -> str:
    """The given table rows as JSON, every row by default."""
    return json.dumps(table_rows() if rows is None else rows, indent=2, sort_keys=True) + "\n"
