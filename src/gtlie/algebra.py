"""Structure-constant Lie algebras and their gradings.

A Lie algebra of dimension k is stored as a dense complex tensor
``structure[i, j, l]`` holding the coefficient of basis element ``l`` in
``[e_i, e_j]``.  For sl(n, C) built here the constants are small integers,
so double-precision arithmetic on them is exact and the Jacobi residual
of constructed algebras is exactly zero.

A grading is a decomposition of the algebra (or of any vector space)
into subspaces labelled by elements of a finite abelian group, with the
bracket-closure condition ``[L_j, L_k] subset of L_{j+k}``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, VerificationError
from .groups import AbelianGroup
from .linalg import (
    DEFAULT_TOL,
    in_span,
    max_abs,
    orthonormal_span,
    rank,
    span_residual,
)


@dataclass
class Report:
    """Outcome of a verification predicate.

    ``checked`` counts the relations or images tested, ``worst_at`` names
    where ``max_residual`` occurred and ``tol`` is the tolerance it was
    held to; verifiers that do not fill them leave the defaults.
    """

    ok: bool
    max_residual: float = 0.0
    violations: list = field(default_factory=list)
    checked: int = 0
    worst_at: object = None
    tol: float | None = None

    def __bool__(self):
        return self.ok


@dataclass(frozen=True, eq=False)
class LieAlgebra:
    """Finite-dimensional complex Lie algebra over a named basis."""

    basis_names: tuple[str, ...]
    structure: np.ndarray  # shape (k, k, k), [e_i, e_j] = sum_l structure[i,j,l] e_l

    def __post_init__(self):
        k = len(self.basis_names)
        if self.structure.shape != (k, k, k):
            raise InputError(
                f"structure tensor shape {self.structure.shape} does not match dim {k}"
            )
        anti = self.structure + self.structure.transpose(1, 0, 2)
        if max_abs(anti) != 0.0:
            raise InputError("structure constants are not exactly antisymmetric")

    @property
    def dim(self) -> int:
        return len(self.basis_names)


def bracket(x, y, algebra: LieAlgebra) -> np.ndarray:
    """Lie bracket of two coordinate vectors, expanded in the algebra basis."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    k = algebra.dim
    if x.shape != (k,) or y.shape != (k,):
        raise InputError(f"coordinate vectors must have length {k}")
    return np.einsum("i,j,ijl->l", x, y, algebra.structure)


def check_jacobi(algebra: LieAlgebra, tol: float = DEFAULT_TOL) -> Report:
    """Verify [x,[y,z]] + [y,[z,x]] + [z,[x,y]] = 0 over all basis triples."""
    if tol <= 0:
        raise InputError("tolerance must be positive")
    c = algebra.structure
    # residual[i,j,l,p] of the Jacobi identity on (e_i, e_j, e_l)
    res = (
        np.einsum("jlm,imp->ijlp", c, c)
        + np.einsum("lim,jmp->ijlp", c, c)
        + np.einsum("ijm,lmp->ijlp", c, c)
    )
    worst = max_abs(res)
    return Report(ok=worst <= tol, max_residual=worst)


# ---------------------------------------------------------------------------
# sl(n, C) with the basis E_{kl} (k != l) followed by H_k = E_kk - E_{k+1,k+1}.
# ---------------------------------------------------------------------------


def sl_basis_labels(n: int) -> list[tuple]:
    """Canonical basis labels: ("E", k, l) row-major for k != l, then ("H", k)."""
    if n < 2:
        raise InputError("sl(n) requires n >= 2")
    labels: list[tuple] = []
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            if k != l:
                labels.append(("E", k, l))
    for k in range(1, n):
        labels.append(("H", k))
    return labels


def sl_basis_matrices(n: int) -> list[np.ndarray]:
    """The n x n matrices realizing the canonical sl(n) basis."""
    mats = []
    for lab in sl_basis_labels(n):
        m = np.zeros((n, n), dtype=complex)
        if lab[0] == "E":
            _, k, l = lab
            m[k - 1, l - 1] = 1.0
        else:
            _, k = lab
            m[k - 1, k - 1] = 1.0
            m[k, k] = -1.0
        mats.append(m)
    return mats


def matrix_to_coords(n: int, mat: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Expand a traceless n x n matrix in the canonical sl(n) basis.

    Off-diagonal entries are read off directly; the diagonal is resolved
    against the H_k by partial sums, so integer input stays exact.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (n, n):
        raise InputError(f"expected a {n}x{n} matrix")
    tr = np.trace(mat)
    if abs(tr) > tol * max(1.0, max_abs(mat)):
        raise InputError(f"matrix is not traceless (trace {tr})")
    coords = []
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            if k != l:
                coords.append(mat[k - 1, l - 1])
    acc = 0.0 + 0.0j
    for k in range(1, n):
        acc = acc + mat[k - 1, k - 1]
        coords.append(acc)
    return np.array(coords, dtype=complex)


def coords_to_matrix(n: int, coords) -> np.ndarray:
    coords = np.asarray(coords, dtype=complex)
    out = np.zeros((n, n), dtype=complex)
    for c, m in zip(coords, sl_basis_matrices(n)):
        out += c * m
    return out


def sl_algebra(n: int) -> LieAlgebra:
    """sl(n, C) as a structure-constant algebra (dimension n^2 - 1)."""
    if n < 2:
        raise InputError("sl(n) requires n >= 2")
    labels = sl_basis_labels(n)
    mats = sl_basis_matrices(n)
    k = len(labels)
    structure = np.zeros((k, k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            structure[i, j] = matrix_to_coords(n, comm)
    names = tuple(
        f"E{lab[1]}{lab[2]}" if lab[0] == "E" else f"H{lab[1]}" for lab in labels
    )
    return LieAlgebra(basis_names=names, structure=structure)


def adjoint_rep(algebra: LieAlgebra) -> np.ndarray:
    """Adjoint matrices M_x with M_x y = [x, y], one per basis element.

    Returns an array of shape (k, k, k); entry [i] is the operator of e_i.
    """
    # column j of M_{e_i} is [e_i, e_j]
    return algebra.structure.transpose(0, 2, 1).copy()


def burnside_span_dim(matrices, tol: float = DEFAULT_TOL) -> int:
    """Dimension of the associative span of all products of the given matrices.

    Grows the span by right-multiplication with the generators until the
    dimension stabilizes (capped at d^2).  Equals d^2 exactly when the
    family acts irreducibly.
    """
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    if not mats:
        return 0
    d = mats[0].shape[0]
    gens = [m for m in mats if max_abs(m) > tol]
    if not gens:
        return 0
    basis = orthonormal_span(gens, tol)
    dim = basis.shape[1]
    cap = d * d
    while dim < cap:
        words = [basis[:, j].reshape(d, d) @ g for j in range(basis.shape[1]) for g in gens]
        basis = orthonormal_span([basis[:, j] for j in range(basis.shape[1])] + words, tol)
        if basis.shape[1] == dim:
            break
        dim = basis.shape[1]
    return int(dim)


# ---------------------------------------------------------------------------
# Gradings
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Grading:
    """Group-labelled direct-sum decomposition of a vector space.

    ``parts`` maps a group element to a (dim x m) matrix whose columns
    span the corresponding subspace; empty parts are allowed.  The same
    container is used for algebra gradings and for representation-space
    decompositions.
    """

    group: AbelianGroup
    parts: dict

    def __post_init__(self):
        for lab in self.parts:
            if not self.group.contains(lab):
                raise InputError(f"part label {lab} not in group {self.group}")

    @property
    def total_dim(self) -> int:
        return sum(p.shape[1] for p in self.parts.values())

    def part(self, label: tuple[int, ...]) -> np.ndarray:
        """Basis of the part at label (zero-width matrix for absent labels)."""
        if label in self.parts:
            return self.parts[label]
        some = next(iter(self.parts.values()))
        return np.zeros((some.shape[0], 0), dtype=complex)

    def sorted_labels(self) -> list[tuple[int, ...]]:
        return sorted(self.parts.keys())

    def part_dims(self) -> dict:
        return {lab: self.parts[lab].shape[1] for lab in self.sorted_labels()}


def trivial_grading(algebra: LieAlgebra) -> Grading:
    """The whole algebra at the identity of the one-element group."""
    group = AbelianGroup((1,))
    return Grading(group=group, parts={(0,): np.eye(algebra.dim, dtype=complex)})


def verify_grading(algebra: LieAlgebra, grading: Grading, tol: float = DEFAULT_TOL) -> Report:
    """Check direct-sum and bracket-closure conditions of a grading."""
    k = algebra.dim
    for lab, basis in grading.parts.items():
        if basis.shape[0] != k:
            raise InputError(f"part {lab} lives in dimension {basis.shape[0]}, expected {k}")
    stacked = np.column_stack([p for p in grading.parts.values() if p.shape[1]] or [np.zeros((k, 0))])
    violations: list = []
    worst = 0.0
    if grading.total_dim != k or rank(stacked, tol) != k:
        violations.append(("direct_sum", grading.total_dim, rank(stacked, tol)))
    labels = list(grading.parts.keys())
    for j in labels:
        for l in labels:
            target = grading.part(grading.group.add(j, l))
            pj, pl = grading.parts[j], grading.parts[l]
            res = 0.0
            for a in range(pj.shape[1]):
                for b in range(pl.shape[1]):
                    w = bracket(pj[:, a], pl[:, b], algebra)
                    res = max(res, span_residual(w, target))
            worst = max(worst, res)
            if res > tol:
                violations.append((j, l, res))
    return Report(ok=not violations, max_residual=worst, violations=violations)


class TwoPartCase(enum.Enum):
    """Classification of a two-subspace decomposition L = P_a + P_b."""

    Z2_GRADING = "Z2Grading"
    BOTH_CLOSED = "BothClosed"
    NEITHER_CLOSED = "NeitherClosed"
    NOT_A_GRADING = "NotAGrading"


def _bracket_set(algebra: LieAlgebra, pa: np.ndarray, pb: np.ndarray, tol: float):
    vecs = []
    for a in range(pa.shape[1]):
        for b in range(pb.shape[1]):
            w = bracket(pa[:, a], pb[:, b], algebra)
            if max_abs(w) > tol:
                vecs.append(w)
    return vecs


def classify_two_part(
    algebra: LieAlgebra,
    part_a,
    part_b,
    tol: float = DEFAULT_TOL,
) -> TwoPartCase:
    """Decide how a two-part split of the algebra can be graded.

    All eight target assignments ([P_a,P_a], [P_a,P_b], [P_b,P_b]) -> {a, b}
    are tested; the strongest consistent reading wins, preferring the
    Z_2 pattern ([L_0,L_0], [L_1,L_1] into L_0, mixed into L_1).  For a
    simple algebra any graded split must come out as Z2_GRADING; the
    residual buckets only occur for non-perfect inputs.
    """
    pa = np.asarray(part_a, dtype=complex)
    pb = np.asarray(part_b, dtype=complex)
    if pa.ndim == 1:
        pa = pa.reshape(-1, 1)
    if pb.ndim == 1:
        pb = pb.reshape(-1, 1)
    k = algebra.dim
    if pa.shape[0] != k or pb.shape[0] != k:
        raise InputError("subspace vectors must live in the algebra's dimension")
    if pa.shape[1] + pb.shape[1] != k or rank(np.column_stack([pa, pb]), tol) != k:
        raise InputError("subspaces are not complementary")

    spans = {"a": pa, "b": pb}
    products = {
        ("a", "a"): _bracket_set(algebra, pa, pa, tol),
        ("a", "b"): _bracket_set(algebra, pa, pb, tol),
        ("b", "b"): _bracket_set(algebra, pb, pb, tol),
    }
    targets = {
        key: {t for t in "ab" if all(in_span(w, spans[t], tol) for w in vecs)}
        for key, vecs in products.items()
    }
    t_aa, t_ab, t_bb = targets[("a", "a")], targets[("a", "b")], targets[("b", "b")]

    z2 = ("a" in t_aa and "b" in t_ab and "a" in t_bb) or (
        "b" in t_aa and "a" in t_ab and "b" in t_bb
    )
    if z2:
        return TwoPartCase.Z2_GRADING
    both_closed = "a" in t_aa and "b" in t_bb and t_ab
    if both_closed:
        return TwoPartCase.BOTH_CLOSED
    if t_aa and t_ab and t_bb:
        return TwoPartCase.NEITHER_CLOSED
    return TwoPartCase.NOT_A_GRADING


def grading_adapted_basis(grading: Grading):
    """Concatenate part bases in sorted label order.

    Returns (labels, basis) where labels[i] tags column i of basis.
    """
    cols = []
    labels = []
    for lab in grading.sorted_labels():
        p = grading.parts[lab]
        for j in range(p.shape[1]):
            cols.append(p[:, j])
            labels.append(lab)
    if not cols:
        raise VerificationError("grading has no vectors")
    return labels, np.column_stack(cols)
