"""Graded contractions: the epsilon system for new brackets and the psi
system for contracted representations.

Given a G-grading of L, new brackets [x, y]_new = eps_{j,k} [x, y] on
homogeneous elements give a Lie algebra L^eps exactly when the symmetric
table eps solves

    eps_{i,j} eps_{i+j,k} = eps_{j,k} eps_{j+k,i} = eps_{k,i} eps_{k+i,j}.

Given additionally a compatible decomposition V = sum V_j, the rescaled
operators r^eps(X_i) v_j = psi_{i,j} r(X_i) v_j represent L^eps exactly
when

    psi_{j,k} psi_{i,j+k} = psi_{i,k} psi_{j,i+k} = eps_{i,j} psi_{i+j,k}.

Tables hold exact rationals; the binary (0/1) solution sets are found by
exhaustive enumeration over the free cells; a NaN cell is an infinite
residual.  Contractions are applied by stacked numpy kernels over (k, d, d)
stacks of operators, with eps and psi read once per call as label arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (
    Grading,
    LieAlgebra,
    Report,
    brackets,
    check_jacobi,
    grading_adapted_basis,
    verify_grading,
)
from .autos import check_compatibility, rep_sl_matrices
from .errors import IncompatibleError, InputError, VerificationError
from .groups import AbelianGroup
from .gtrep import GeneratorRep
from .linalg import DEFAULT_TOL

MAX_FREE_CELLS = 10


def _as_scalar(v):
    if isinstance(v, (Fraction, int)):
        return Fraction(v)
    return complex(v)


@dataclass(frozen=True, eq=False)
class ScalarTable:
    """G x G table of scalars; rationals in the core, complex tolerated."""

    group: AbelianGroup
    values: dict

    def __post_init__(self):
        cleaned = {}
        for (i, j), v in self.values.items():
            cleaned[(self.group.check(i), self.group.check(j))] = _as_scalar(v)
        object.__setattr__(self, "values", cleaned)

    def value(self, i, j):
        try:
            return self.values[(i, j)]
        except KeyError as exc:
            raise InputError(f"table has no entry at {(i, j)}") from exc

    def is_complete(self) -> bool:
        els = self.group.elements()
        return all((i, j) in self.values for i in els for j in els)

    def as_tuple(self) -> tuple:
        """Canonical value tuple over lexicographically ordered index pairs."""
        els = self.group.elements()
        return tuple(self.values[(i, j)] for i in els for j in els)

    def on_labels(self, rows, cols) -> np.ndarray:
        """Complex len(rows) x len(cols) array of the values at every label
        pair (rows[a], cols[b]), read from one |G| x |G| table."""
        index = {el: t for t, el in enumerate(self.group.elements())}
        table = np.array([complex(x) for x in self.as_tuple()]).reshape(len(index), -1)
        return table[np.ix_([index[r] for r in rows], [index[c] for c in cols])]

    @classmethod
    def from_rows(cls, group: AbelianGroup, rows):
        """Build a table from a row-major matrix over group elements in lex order."""
        els = group.elements()
        if len(rows) != len(els) or any(len(r) != len(els) for r in rows):
            raise InputError(f"expected a {len(els)}x{len(els)} matrix of values")
        return cls(group, {(i, j): rows[a][b] for a, i in enumerate(els) for b, j in enumerate(els)})


class EpsilonTable(ScalarTable):
    """Symmetric contraction table eps_{j,k}."""


class PsiTable(ScalarTable):
    """Representation rescaling table psi_{i,j} (i: algebra label, j: space label)."""


epsilon_from_rows = EpsilonTable.from_rows
psi_from_rows = PsiTable.from_rows


def _residual(x) -> float:
    """|x|, with NaN as inf (as in linalg.max_abs) so the checks fail closed."""
    res = abs(complex(x))
    return math.inf if math.isnan(res) else res


def verify_epsilon(eps: EpsilonTable, tol: float = DEFAULT_TOL) -> Report:
    """Symmetry plus the full |G|^3 system of quadratic equations.

    The report carries checked = |G|^2 cells + |G|^3 triples and worst_at =
    ("symmetry", i, j) or ("triple", i, j, k), the form of its violations.
    """
    if not eps.is_complete():
        raise InputError("epsilon table is incomplete")
    g, v = eps.group, eps.value
    els = g.elements()
    residuals = {("symmetry", i, j): _residual(v(i, j) - v(j, i)) for i in els for j in els}
    for i, j, k in itertools.product(els, repeat=3):
        e1 = v(i, j) * v(g.add(i, j), k)
        e2 = v(j, k) * v(g.add(j, k), i)
        e3 = v(k, i) * v(g.add(k, i), j)
        residuals["triple", i, j, k] = max(_residual(e1 - e2), _residual(e2 - e3))
    return Report.of(residuals, tol)


def verify_psi(psi: PsiTable, eps: EpsilonTable, tol: float = DEFAULT_TOL) -> Report:
    """The full system psi_{j,k} psi_{i,j+k} = psi_{i,k} psi_{j,i+k} = eps_{i,j} psi_{i+j,k}.

    The report carries checked = |G|^3 triples and worst_at = (i, j, k).
    """
    if not psi.is_complete() or not eps.is_complete():
        raise InputError("psi/epsilon tables must be complete")
    if psi.group.orders != eps.group.orders:
        raise InputError("psi and epsilon live over different groups")
    g, v = psi.group, psi.value
    residuals = {}
    for i, j, k in itertools.product(g.elements(), repeat=3):
        p1 = v(j, k) * v(i, g.add(j, k))
        p2 = v(i, k) * v(j, g.add(i, k))
        p3 = eps.value(i, j) * v(g.add(i, j), k)
        residuals[i, j, k] = max(_residual(p1 - p2), _residual(p2 - p3))
    return Report.of(residuals, tol)


def enumerate_binary_epsilon(group: AbelianGroup) -> list[EpsilonTable]:
    """All symmetric 0/1 solutions of the epsilon system, in the
    lexicographic order of their free-cell assignments."""
    els = group.elements()
    cells = [(i, j) for a, i in enumerate(els) for j in els[a:]]
    if len(cells) > MAX_FREE_CELLS:
        raise InputError(
            f"{len(cells)} free cells exceed the enumeration guard ({MAX_FREE_CELLS})"
        )
    out = []
    for bits in itertools.product((0, 1), repeat=len(cells)):
        values = {}
        for (i, j), b in zip(cells, bits):
            values[(i, j)] = Fraction(b)
            values[(j, i)] = Fraction(b)
        table = EpsilonTable(group, values)
        if verify_epsilon(table, tol=0.0).ok:
            out.append(table)
    return out


def enumerate_binary_psi(eps: EpsilonTable) -> list[PsiTable]:
    """All 0/1 solutions of the psi system for the given epsilon table."""
    rep = verify_epsilon(eps, tol=0.0)
    if not rep.ok:
        raise VerificationError("epsilon table does not solve the contraction system")
    g = eps.group
    els = g.elements()
    cells = [(i, j) for i in els for j in els]
    if len(cells) > MAX_FREE_CELLS:
        raise InputError(
            f"{len(cells)} free cells exceed the enumeration guard ({MAX_FREE_CELLS})"
        )
    out = []
    for bits in itertools.product((0, 1), repeat=len(cells)):
        table = PsiTable(g, {cell: Fraction(b) for cell, b in zip(cells, bits)})
        if verify_psi(table, eps, tol=0.0).ok:
            out.append(table)
    return out


# ---------------------------------------------------------------------------
# Applying a contraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ContractedAlgebra:
    """L^eps in the grading-adapted basis, with its provenance."""

    base: LieAlgebra
    grading: Grading
    eps: EpsilonTable
    labels: tuple  # grading label of each adapted basis vector
    adapted: np.ndarray  # columns: adapted basis in base coordinates
    result: LieAlgebra


def contract_algebra(
    algebra: LieAlgebra,
    gamma: Grading,
    eps: EpsilonTable,
    tol: float = DEFAULT_TOL,
) -> ContractedAlgebra:
    """Rescale brackets by eps over the grading and rebuild structure constants.

    The result lives in the adapted basis (part bases concatenated in label
    order): all brackets of pairs a < b are scaled by eps and expanded by
    one solve; the pairs b > a are their exact negatives.  Jacobi is
    re-checked and must pass.
    """
    if gamma.group.orders != eps.group.orders:
        raise InputError("grading and epsilon table live over different groups")
    grading_report = verify_grading(algebra, gamma, tol)
    if not grading_report.ok:
        raise VerificationError(f"input grading fails verification: {grading_report.violations[:3]}")
    eps_report = verify_epsilon(eps, tol)
    if not eps_report.ok:
        raise VerificationError(f"epsilon table fails the contraction system: {eps_report.violations[:3]}")
    labels, basis = grading_adapted_basis(gamma)
    k = algebra.dim
    a, b = np.triu_indices(k, 1)
    scale = eps.on_labels(labels, labels)[a, b]
    coeffs = np.linalg.solve(basis, brackets(basis, basis, algebra)[:, a * k + b] * scale)
    structure = np.zeros((k, k, k), dtype=complex)
    structure[a, b] = coeffs.T
    structure[b, a] = -coeffs.T
    # labels come grouped, so a - labels.index(lab) counts within the part
    names = ["g" + ",".join(str(r) for r in lab) + f"_{a - labels.index(lab)}" for a, lab in enumerate(labels)]
    result = LieAlgebra(basis_names=tuple(names), structure=structure)
    jac = check_jacobi(result, tol)
    if not jac.ok:
        raise VerificationError(f"contracted algebra violates Jacobi (residual {jac.max_residual:.3g})")
    return ContractedAlgebra(
        base=algebra, grading=gamma, eps=eps, labels=tuple(labels), adapted=basis, result=result
    )


@dataclass(frozen=True, eq=False)
class ContractedRep:
    """Blockwise-rescaled operators r^eps(X_i) in the adapted V basis.

    ``matrices[a]`` represents the a-th adapted algebra basis vector (same
    order as ContractedAlgebra over the same grading).
    """

    rep: GeneratorRep
    gamma: Grading
    vgamma: Grading
    eps: EpsilonTable
    psi: PsiTable
    labels: tuple
    vlabels: tuple
    vbasis: np.ndarray
    matrices: tuple


def contract_rep(
    rep: GeneratorRep,
    vgamma: Grading,
    gamma: Grading,
    psi: PsiTable,
    eps: EpsilonTable,
    tol: float = DEFAULT_TOL,
) -> ContractedRep:
    """Build r^eps(X_i) v_j = psi_{i,j} r(X_i) v_j in the adapted V basis:
    the (k, d, d) stack r(X_a) is one tensordot, the change of basis one
    solve for all k d columns of r(X_a) V, and psi one (k, d) scale array."""
    compat = check_compatibility(rep, gamma, vgamma, tol)
    if not compat.ok:
        raise IncompatibleError(
            f"representation is not compatible with the grading: {compat.violations[:3]}"
        )
    psi_report = verify_psi(psi, eps, tol)
    if not psi_report.ok:
        raise VerificationError(f"psi table fails its system: {psi_report.violations[:3]}")
    alabels, abasis = grading_adapted_basis(gamma)
    vlabels, vbasis = grading_adapted_basis(vgamma)
    k, d = abasis.shape[1], vbasis.shape[0]
    images = np.tensordot(abasis.T, np.array(rep_sl_matrices(rep)), axes=1) @ vbasis  # r(X_a) V
    out = np.linalg.solve(vbasis, images.transpose(1, 0, 2).reshape(d, k * d)).reshape(d, k, d)
    out *= psi.on_labels(alabels, vlabels)  # out[i, a, j] *= psi(label a, vlabel j)
    return ContractedRep(
        rep=rep,
        gamma=gamma,
        vgamma=vgamma,
        eps=eps,
        psi=psi,
        labels=tuple(alabels),
        vlabels=tuple(vlabels),
        vbasis=vbasis,
        matrices=tuple(np.ascontiguousarray(out.transpose(1, 0, 2))),
    )


def verify_rep_homomorphism(
    crep: ContractedRep, calg: ContractedAlgebra, tol: float = DEFAULT_TOL
) -> Report:
    """Check [r^eps(x), r^eps(y)] = r^eps([x, y]_new) on the adapted bases.

    One left index a at a time, M_a M_b - M_b M_a - sum_l c_abl M_l for all
    b >= a is one (k - a, d, d) block, the sum one tensordot over the finite
    M_l with c_abl != 0 (a NaN or inf makes its relations infinite); the
    temporaries stay three (k, d, d) stacks.  c is exactly antisymmetric
    and fl(P - Q) = -fl(Q - P), so (b, a) has exactly the residual of (a, b).
    Violations (a, b, res) come in row-major order; checked = k^2 pairs.
    """
    if crep.labels != calg.labels:
        raise InputError("contracted rep and algebra use different adapted bases")
    k = len(crep.labels)
    shapes = sorted({np.shape(m) for m in crep.matrices})
    if len(crep.matrices) != k or len(shapes) != 1 or len(shapes[0]) != 2 or shapes[0][0] != shapes[0][1]:
        raise InputError(f"expected {k} square matrices of one size, got {len(crep.matrices)} of shapes {shapes}")
    mats = np.array(crep.matrices, dtype=complex)
    finite = np.isfinite(mats).all(axis=(1, 2))
    res = np.zeros((k, k))
    for a in range(k):
        block = mats[a] @ mats[a:]
        block -= mats[a:] @ mats[a]
        coeffs = calg.result.structure[a, a:]
        used = coeffs.any(axis=0) & finite
        block -= np.tensordot(coeffs[:, used], mats[used], axes=1)
        res[a, a:] = np.abs(block).reshape(k - a, -1).max(axis=1)
        res[a, a:][coeffs[:, ~finite].any(axis=1)] = math.inf
    res[np.isnan(res)] = math.inf
    res += np.triu(res, 1).T
    return Report.of({(a, b): float(res[a, b]) for a in range(k) for b in range(k)}, tol)
