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
    Entries,
    max_abs,
    orthonormal_span,
    product_terms,
    rank,
    row_blocks,
    row_join,
    span_distance,
    summed,
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

    @classmethod
    def of(cls, residuals: dict, tol: float) -> "Report":
        """Fold {where: residual} (in check order, NaN already made inf): a
        violation (*where, residual) per residual over tol, worst_at = the
        first where of the largest (None when all are zero)."""
        worst_at, worst = max(residuals.items(), key=lambda item: item[1], default=(None, 0.0))
        violations = [(*at, res) for at, res in residuals.items() if res > tol]
        return cls(
            ok=not violations, max_residual=worst, violations=violations,
            checked=len(residuals), worst_at=worst_at if worst else None, tol=tol,
        )


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
        # Blocks of first-index slices with temporaries near 1 MiB, not k^3:
        # one block for small algebras, about k^2 / 65536 blocks for large ones.
        step = max(1, (1 << 16) // (k * k))
        for i in range(0, k, step):
            block = self.structure[i : i + step] + self.structure[:, i : i + step].transpose(1, 0, 2)
            if max_abs(block) != 0.0:
                raise InputError("structure constants are not exactly antisymmetric")

    @property
    def dim(self) -> int:
        return len(self.basis_names)


def brackets(p: np.ndarray, q: np.ndarray, algebra: LieAlgebra) -> np.ndarray:
    """All brackets [p_a, q_b] of the columns of p (k x A) and q (k x B) at
    once, einsum("ia,jb,ijl->lab") as two tensordots: column a B + b of the
    k x (A B) result is [p_a, q_b]."""
    left = np.tensordot(p, algebra.structure, axes=(0, 0))  # (a, j, l)
    return np.tensordot(left, q, axes=(1, 0)).transpose(1, 0, 2).reshape(algebra.dim, -1)


def bracket(x, y, algebra: LieAlgebra) -> np.ndarray:
    """Lie bracket of two coordinate vectors, expanded in the algebra basis."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    k = algebra.dim
    if x.shape != (k,) or y.shape != (k,):
        raise InputError(f"coordinate vectors must have length {k}")
    return brackets(x[:, None], y[:, None], algebra)[:, 0]


# Largest predicted footprint of one output row of check_jacobi, at
# JACOBI_TERM_BYTES per product term; a denser algebra gets InputError.
JACOBI_BUDGET_BYTES = 1 << 30
JACOBI_TERM_BYTES = 96


def check_jacobi(algebra: LieAlgebra, tol: float = DEFAULT_TOL) -> Report:
    """Verify [x,[y,z]] + [y,[z,x]] + [z,[x,y]] = 0 over all basis triples.

    With ad_i[p, j] = c[i, j, p], entry (p, l) of [ad_i, ad_j] -
    sum_m ad_i[m, j] ad_m is minus the residual of (e_i, e_j, e_l) at e_p;
    both sides come from the sparse kernel of ``linalg``, one block of
    output rows p at a time (a dense algebra has about 3 k^4 terms per row,
    refused over JACOBI_BUDGET_BYTES).  The report carries checked = k^3
    triples, worst_at = (i, j, l) (None when all are zero) and tol.
    """
    if tol <= 0:
        raise InputError("tolerance must be positive")
    k = algebra.dim
    if not k:
        return Report(ok=True, tol=tol)
    ad = Entries.of(list(algebra.structure.transpose(0, 2, 1)))
    runs = np.diff(ad.starts)
    terms = 2 * runs[ad.cols] + runs[ad.gids]
    row_bytes = JACOBI_TERM_BYTES * int(np.bincount(ad.rows, terms, minlength=k).max())
    if row_bytes > JACOBI_BUDGET_BYTES:
        raise InputError(
            f"Jacobi check needs {row_bytes / 2**30:.2f} GiB for one row, "
            f"over its {JACOBI_BUDGET_BYTES >> 30} GiB budget"
        )
    worst, worst_at = 0.0, None
    for r0, r1 in row_blocks(k, int(terms.sum())):
        g, h, at, term = product_terms(ad, r0, r1)
        s = slice(ad.starts[r0], ad.starts[r1])
        t, u = row_join(ad, ad.gids[s])
        expected = (ad.gids[u] * k + ad.cols[u]) * k * k + (ad.rows[s] * k + ad.cols[s])[t]
        keys = np.concatenate(((g * k + h) * k * k + at, (h * k + g) * k * k + at, expected))
        keys, sums = summed(keys, np.concatenate((term, -term, -ad.vals[s][t] * ad.vals[u])))
        res = max_abs(sums)
        if res > worst:
            key = int(keys[np.argmax(np.abs(sums))])
            worst, worst_at = res, (key // k**3, key // k**2 % k, key % k)
    return Report(ok=worst <= tol, max_residual=worst, checked=k**3, worst_at=worst_at, tol=tol)


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
    """Expand traceless n x n matrices (the last two axes of mat) in the
    canonical sl(n) basis: off-diagonal entries row-major, then the diagonal
    against the H_k by partial sums (``+ 0`` turns a -0.0 sum into +0.0), so
    integer input stays exact."""
    mat = np.asarray(mat)
    if mat.shape[-2:] != (n, n):
        raise InputError(f"expected {n}x{n} matrices")
    tr = max_abs(np.trace(mat, axis1=-2, axis2=-1))
    if tr > tol * max(1.0, max_abs(mat)):
        raise InputError(f"matrix is not traceless (trace {tr:.3g})")
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))
    out = np.empty(mat.shape[:-2] + (n * n - 1,), dtype=complex)
    out[..., : n * n - n] = mat[..., rows, cols]
    out[..., n * n - n :] = np.cumsum(mat[..., range(n - 1), range(n - 1)], axis=-1) + 0
    return out


def sl_algebra(n: int) -> LieAlgebra:
    """sl(n, C) as a structure-constant algebra (dimension n^2 - 1)."""
    if n < 2:
        raise InputError("sl(n) requires n >= 2")
    labels = sl_basis_labels(n)
    # All k^2 commutators at once, in exact small integers (entries within +-2).
    mats = np.array(sl_basis_matrices(n)).real.astype(np.int8)
    comm = np.matmul(mats[:, None], mats)
    comm -= comm.swapaxes(0, 1)
    structure = matrix_to_coords(n, comm)
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
    basis = orthonormal_span(np.column_stack([g.ravel() for g in gens]), tol)
    dim = basis.shape[1]
    cap = d * d
    while dim < cap:
        words = [(basis[:, j].reshape(d, d) @ g).ravel() for j in range(basis.shape[1]) for g in gens]
        basis = orthonormal_span(np.column_stack([basis] + words), tol)
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

    def sorted_labels(self) -> list[tuple[int, ...]]:
        return sorted(self.parts.keys())

    def part_dims(self) -> dict:
        return {lab: self.parts[lab].shape[1] for lab in self.sorted_labels()}


def trivial_grading(algebra: LieAlgebra) -> Grading:
    """The whole algebra at the identity of the one-element group."""
    group = AbelianGroup((1,))
    return Grading(group=group, parts={(0,): np.eye(algebra.dim, dtype=complex)})


def verify_grading(algebra: LieAlgebra, grading: Grading, tol: float = DEFAULT_TOL) -> Report:
    """Check direct-sum and bracket-closure conditions of a grading.

    Each block [L_j, L_l] is formed at once and measured against an
    orthonormal basis of L_{j+l}, taken once per part.  The report carries
    checked = the number of bracket images, worst_at = (j, l) (None when
    all residuals are zero) and tol.
    """
    k = algebra.dim
    for lab, basis in grading.parts.items():
        if basis.shape[0] != k:
            raise InputError(f"part {lab} lives in dimension {basis.shape[0]}, expected {k}")
    stacked = np.column_stack([p for p in grading.parts.values() if p.shape[1]] or [np.zeros((k, 0))])
    violations: list = []
    if grading.total_dim != k or rank(stacked, tol) != k:
        violations.append(("direct_sum", grading.total_dim, rank(stacked, tol)))
    bases = {lab: orthonormal_span(part, tol) for lab, part in grading.parts.items()}
    absent = np.zeros((k, 0), dtype=complex)
    worst, worst_at, checked = 0.0, None, 0
    for j, pj in grading.parts.items():
        for l, pl in grading.parts.items():
            images = brackets(pj, pl, algebra)
            res = span_distance(images, bases.get(grading.group.add(j, l), absent))
            checked += images.shape[1]
            if res > worst:
                worst, worst_at = res, (j, l)
            if res > tol:
                violations.append((j, l, res))
    return Report(
        ok=not violations, max_residual=worst, violations=violations, checked=checked, worst_at=worst_at, tol=tol
    )


class TwoPartCase(enum.Enum):
    """Classification of a two-subspace decomposition L = P_a + P_b."""

    Z2_GRADING = "Z2Grading"
    BOTH_CLOSED = "BothClosed"
    NEITHER_CLOSED = "NeitherClosed"
    NOT_A_GRADING = "NotAGrading"


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
    residual buckets only occur for non-perfect inputs.  Bracket images
    with sup norm at most tol are dropped before the span tests.
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

    parts = {"a": pa, "b": pb}
    spans = {t: orthonormal_span(part, tol) for t, part in parts.items()}
    targets = {}
    for x, y in ("aa", "ab", "bb"):
        images = brackets(parts[x], parts[y], algebra)
        images = images[:, ~np.all(np.abs(images) <= tol, axis=0)]
        targets[x + y] = {t for t in "ab" if span_distance(images, spans[t]) <= tol}
    t_aa, t_ab, t_bb = targets["aa"], targets["ab"], targets["bb"]

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
    labels = [lab for lab in grading.sorted_labels() for _ in range(grading.parts[lab].shape[1])]
    if not labels:
        raise VerificationError("grading has no vectors")
    return labels, np.column_stack([grading.parts[lab] for lab in grading.sorted_labels()])
