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
exhaustive enumeration over the free cells.
"""

from __future__ import annotations

import itertools
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
from .autos import check_compatibility, rep_matrix_of, rep_sl_matrices
from .errors import IncompatibleError, InputError, VerificationError
from .groups import AbelianGroup
from .gtrep import GeneratorRep
from .linalg import DEFAULT_TOL, max_abs

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


class EpsilonTable(ScalarTable):
    """Symmetric contraction table eps_{j,k}."""


class PsiTable(ScalarTable):
    """Representation rescaling table psi_{i,j} (i: algebra label, j: space label)."""


def epsilon_from_rows(group: AbelianGroup, rows) -> EpsilonTable:
    """Build a table from a row-major matrix over group elements in lex order."""
    els = group.elements()
    if len(rows) != len(els) or any(len(r) != len(els) for r in rows):
        raise InputError(f"expected a {len(els)}x{len(els)} matrix of values")
    return EpsilonTable(group, {(i, j): rows[a][b] for a, i in enumerate(els) for b, j in enumerate(els)})


def psi_from_rows(group: AbelianGroup, rows) -> PsiTable:
    els = group.elements()
    if len(rows) != len(els) or any(len(r) != len(els) for r in rows):
        raise InputError(f"expected a {len(els)}x{len(els)} matrix of values")
    return PsiTable(group, {(i, j): rows[a][b] for a, i in enumerate(els) for b, j in enumerate(els)})


def _residual(x) -> float:
    return abs(complex(x))


def verify_epsilon(eps: EpsilonTable, tol: float = DEFAULT_TOL) -> Report:
    """Symmetry plus the full |G|^3 system of quadratic equations."""
    if not eps.is_complete():
        raise InputError("epsilon table is incomplete")
    g = eps.group
    worst = 0.0
    violations = []
    for i in g.elements():
        for j in g.elements():
            res = _residual(eps.value(i, j) - eps.value(j, i))
            worst = max(worst, res)
            if res > tol:
                violations.append(("symmetry", i, j, res))
    for i in g.elements():
        for j in g.elements():
            for k in g.elements():
                e1 = eps.value(i, j) * eps.value(g.add(i, j), k)
                e2 = eps.value(j, k) * eps.value(g.add(j, k), i)
                e3 = eps.value(k, i) * eps.value(g.add(k, i), j)
                res = max(_residual(e1 - e2), _residual(e2 - e3))
                worst = max(worst, res)
                if res > tol:
                    violations.append(("triple", i, j, k, res))
    return Report(ok=not violations, max_residual=worst, violations=violations)


def verify_psi(psi: PsiTable, eps: EpsilonTable, tol: float = DEFAULT_TOL) -> Report:
    """The full system psi_{j,k} psi_{i,j+k} = psi_{i,k} psi_{j,i+k} = eps_{i,j} psi_{i+j,k}."""
    if not psi.is_complete() or not eps.is_complete():
        raise InputError("psi/epsilon tables must be complete")
    if psi.group.orders != eps.group.orders:
        raise InputError("psi and epsilon live over different groups")
    g = psi.group
    worst = 0.0
    violations = []
    for i in g.elements():
        for j in g.elements():
            for k in g.elements():
                p1 = psi.value(j, k) * psi.value(i, g.add(j, k))
                p2 = psi.value(i, k) * psi.value(j, g.add(i, k))
                p3 = eps.value(i, j) * psi.value(g.add(i, j), k)
                res = max(_residual(p1 - p2), _residual(p2 - p3))
                worst = max(worst, res)
                if res > tol:
                    violations.append((i, j, k, res))
    return Report(ok=not violations, max_residual=worst, violations=violations)


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
    scale = np.array([complex(eps.value(labels[x], labels[y])) for x, y in zip(a, b)])
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
    """Build r^eps(X_i) v_j = psi_{i,j} r(X_i) v_j in the adapted V basis."""
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
    mats = rep_sl_matrices(rep)
    out = []
    for a in range(abasis.shape[1]):
        lab = alabels[a]
        m = rep_matrix_of(rep, abasis[:, a], mats)
        scale = [complex(psi.value(lab, vlab)) for vlab in vlabels]
        out.append(np.linalg.solve(vbasis, m @ vbasis) * scale)
    return ContractedRep(
        rep=rep,
        gamma=gamma,
        vgamma=vgamma,
        eps=eps,
        psi=psi,
        labels=tuple(alabels),
        vlabels=tuple(vlabels),
        vbasis=vbasis,
        matrices=tuple(out),
    )


def verify_rep_homomorphism(
    crep: ContractedRep, calg: ContractedAlgebra, tol: float = DEFAULT_TOL
) -> Report:
    """Check [r^eps(x), r^eps(y)] = r^eps([x, y]_new) on the adapted bases."""
    if crep.labels != calg.labels:
        raise InputError("contracted rep and algebra use different adapted bases")
    k = len(crep.labels)
    structure = calg.result.structure
    worst = 0.0
    violations = []
    for a in range(k):
        ma = crep.matrices[a]
        for b in range(k):
            mb = crep.matrices[b]
            terms = (structure[a, b, l] * crep.matrices[l] for l in range(k) if structure[a, b, l] != 0)
            rhs = sum(terms, np.zeros_like(ma))
            res = max_abs(ma @ mb - mb @ ma - rhs)
            worst = max(worst, res)
            if res > tol:
                violations.append((a, b, res))
    return Report(ok=not violations, max_residual=worst, violations=violations)
