"""Order-2 automorphisms of sl(n, C), gradings from their eigenspaces,
simulation matrices, contragredient machinery, and compatibility checks.

An automorphism g with g^k = Id grades the algebra by eigenvalue
(lambda = exp(2 pi i l / k) gets label l).  A *simulation matrix* of g on a
representation r is an invertible R with

    r(g(x)) = R r(x) R^{-1}   and   R^k = Id;

its eigenspace decomposition of the carrier space is then compatible with
the grading in the sense r(L_i) V_j subset of V_{i+j}.

Two constructions cover the order-2 cases:

  * inner  g = Ad_A with A = omega^eta(s) diag(I_{n-s}, -I_s):  R is the
    diagonal matrix with phases exp(i pi ((eta/n - 1) r_n - r_{n-s})) on
    the GT basis, rescaled once when the raw square is a nontrivial
    scalar (Schur freedom) so that R^2 = Id holds exactly;
  * outer  g: X -> -X^T:  R is the signed permutation J sending xi(m) to
    (-1)^{sum of entries} xi(m') with the reflected pattern m', which
    exists precisely when the weight is self-contragredient.  For other
    weights the doubled representation r + (-r^T) with the block-swap
    simulation matrix is the way out.

Both constructions are read off the pattern array (gtrep.PatternTable)
and give an R with one nonzero per column, R e_c = s_c e_{pi(c)}, as the
standard automorphisms act on the sl basis.  One kernel, ``_eigenspaces``,
splits both into eigenspaces along the cycles of pi.  For such an R the
checks are index arithmetic on the stored generator entries, with no dense
d x d matrix: ``verify_simulation`` compares the
entries (i, j, v) of r(x), moved to (pi(i), pi(j), s_i v / s_j), with those
of r(g(x)), and R^order = Id follows pi; ``decompose_rep_space`` gives
coordinate vectors e_c and pairs (e_c +- s_c e_pi(c)) / 2; ``compatibility``
(algebra.containment, as for the algebra's own grading) forms the images of
those columns from the entries, measures each against its coordinate vector
or pair exactly and reads off its coordinates there.  A dense R (the
solver's) or other carrier columns take the dense path: r(x) from
rep.images, and one thin SVD per part (linalg.thin_span).
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from . import gtrep
from .algebra import (NO_TERMS, Grading, LieAlgebra, Report, basis_violations, containment, matrix_to_coords,
                      sl_basis_labels, sl_basis_matrices)
from .errors import InputError, VerificationError
from .groups import AbelianGroup
from .gtrep import (
    GeneratorRep,
    HighestWeight,
    PatternTable,
    build_representation,
)
from .linalg import DEFAULT_TOL, Entries, check_budget, independent_columns, max_abs, read_only, summed


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Automorphism:
    """An automorphism of sl(n, C): X -> A X A^{-1} (inner) or
    X -> -A X^T A^{-1} (outer composed with an inner one); ``matrix`` is linalg.read_only."""

    kind: str  # "inner" | "outer"
    matrix: np.ndarray
    order: int

    def __post_init__(self):
        if self.kind not in ("inner", "outer"):
            raise InputError(f"unknown automorphism kind {self.kind!r}")
        object.__setattr__(self, "matrix", read_only(self.matrix))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The image of a matrix, or of each matrix of a stack (the last two
        axes of x): one broadcast product or solve for the whole stack."""
        a = self.matrix
        y = np.asarray(x, dtype=complex)
        if self.kind == "outer":
            y = -y.swapaxes(-1, -2)
        if _is_diagonal(a):
            d = np.diag(a)
            return y * np.outer(d, 1.0 / d)
        return np.linalg.solve(a.T, (a @ y).swapaxes(-1, -2)).swapaxes(-1, -2)

    @cached_property
    def action(self) -> np.ndarray:
        """Read-only matrix on sl(n) coordinates, formed once: column x is
        g(x), snapped to integers when within 1e-12 of them, as the standard
        representatives are.  Its tolerances are fixed (the traceless check's
        at DEFAULT_TOL); a check holds the action to the caller's tol.  It is
        charged at four dense stacks of the n^2 - 1 basis matrices: the
        basis, its images and their coordinates peak at about 3.5 under
        tracemalloc."""
        n = self.n
        check_budget(4 * 16 * (n * n - 1) * n * n, f"the images of the {n * n - 1} basis matrices of sl({n})")
        act = matrix_to_coords(n, self.apply(np.array(sl_basis_matrices(n)))).T
        rounded = np.round(act)
        return read_only(rounded if max_abs(act - rounded) <= 1e-12 * max(1.0, max_abs(act)) else act)


def _is_diagonal(a: np.ndarray) -> bool:
    return np.count_nonzero(a) == np.count_nonzero(np.diagonal(a))


def eta(s: int) -> int:
    """Parity marker: 0 for even s, 1 for odd s."""
    return s % 2


def auto_inner(n: int, s: int) -> Automorphism:
    """The inner order-2 class representative Ad_A with
    A = omega^eta(s) diag(I_{n-s}, -I_s), omega = exp(i pi / n).

    s = 0 gives the identity automorphism (order 1).
    """
    if n < 2:
        raise InputError("need n >= 2")
    if not 0 <= s <= n // 2:
        raise InputError(f"s must satisfy 0 <= s <= {n // 2}, got {s}")
    omega = cmath.exp(1j * math.pi / n)
    diag = np.array([1.0] * (n - s) + [-1.0] * s, dtype=complex)
    a = (omega ** eta(s)) * np.diag(diag)
    return Automorphism(kind="inner", matrix=a, order=1 if s == 0 else 2)


def auto_outer(n: int) -> Automorphism:
    """The outer order-2 automorphism X -> -X^T."""
    if n < 2:
        raise InputError("need n >= 2")
    return Automorphism(kind="outer", matrix=np.eye(n, dtype=complex), order=2)


def _projector_term(l: int, t: int, order: int, power):
    """Term t of the projector onto eigenvalue exp(2 pi i l / order):
    exp(-2 pi i l t / order) M^t, or +-M^t at order 2, exact on integer M
    (cmath.exp(-1j * pi) is not exactly -1)."""
    if order == 2:
        return -power if l * t else power
    return cmath.exp(-2j * math.pi * l * t / order) * power


def _walk(perm: np.ndarray, scale: np.ndarray, order: int) -> tuple[np.ndarray, list, float]:
    """M^t e_c = coefs[t][c] e_{at[t, c]}, t = 0, ..., order, for M e_c = scale[c] e_{perm[c]},
    each coef formed as the dense M^{t-1} M forms it; and max |M^order - Id|."""
    at, coefs = [np.arange(perm.size)], [np.ones(perm.size, dtype=complex)]
    for t in range(order):
        at.append(at[-1][perm])
        coefs.append(coefs[-1][perm] * scale if t else scale)
    back = at[-1] == at[0]
    return np.array(at), coefs, max_abs(np.where(back, np.abs(coefs[-1] - 1), np.maximum(np.abs(coefs[-1]), 1.0)))


def _eigenspaces(operator, order: int, tol: float) -> tuple[list[np.ndarray], float]:
    """Bases of the eigenspaces of M (M^order = Id) for exp(2 pi i l / order),
    l = 0, ..., order - 1, made of columns of the projectors (1/order) sum_t
    exp(-2 pi i l t / order) M^t; and max |M^order - Id|.  M is a pair
    (perm, scale) or a dense matrix, read as its pair when it has one
    nonzero per row and column.  On a pair, the projector columns of one
    cycle are multiples of each other, and two cycles have disjoint
    supports: each part keeps the column of the smallest index of each
    cycle when it is above tol, summed along the ``_walk`` term by term as
    the dense projector sums it.  A dense M takes the greedy column basis
    (independent_columns) of each projector and the matrix power."""
    if isinstance(operator, np.ndarray):
        nonzero = operator != 0
        if not ((nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all()):
            powers = [np.eye(operator.shape[0], dtype=operator.dtype)]
            for _ in range(order - 1):
                powers.append(powers[-1] @ operator)
            projectors = [sum(_projector_term(l, t, order, p) for t, p in enumerate(powers)) / order
                          for l in range(order)]
            residual = max_abs(np.linalg.matrix_power(operator, order) - np.eye(operator.shape[0]))
            return [p[:, independent_columns(p, tol)].astype(complex) for p in projectors], residual
        perm = nonzero.argmax(axis=0)
        operator = perm, operator[perm, np.arange(perm.size)]
    perm, scale = operator
    at, coefs, residual = _walk(np.asarray(perm), np.asarray(scale, dtype=complex), order)
    lead = np.flatnonzero(at[:order].min(axis=0) == at[0])  # the smallest index of each cycle
    back = at[1:, lead] == lead
    length = np.where(back.any(axis=0), back.argmax(axis=0) + 1, order)  # of each cycle
    parts = []
    for l in range(order):
        column = np.zeros((lead.size, order), dtype=complex)  # entry u sits at row at[u, lead]
        for t in range(order):
            column[np.arange(lead.size), t % length] += _projector_term(l, t, order, coefs[t][lead])
        column = column / order
        kept = np.flatnonzero(np.abs(column).max(axis=1, initial=0.0) > tol)
        j, u = np.nonzero(np.arange(order) < length[kept, None])
        part = np.zeros((perm.size, kept.size), dtype=complex)
        part[at[u, lead[kept[j]]], j] = column[kept[j], u]
        parts.append(part)
    return parts, residual


def grading_from_automorphism(
    algebra: LieAlgebra, aut: Automorphism, tol: float = DEFAULT_TOL
) -> Grading:
    """Eigenspace decomposition of the automorphism action, labelled by Z_k
    via lambda = exp(2 pi i l / k): ``_eigenspaces`` of aut.action, a
    monomial matrix for Ad of a diagonal matrix and for X -> -X^T."""
    k = algebra.dim
    if aut.n * aut.n - 1 != k:
        raise InputError(f"automorphism on {aut.n}x{aut.n} matrices does not act on dim {k}")
    return _eigen_grading(_eigenspaces(aut.action, aut.order, tol), k, tol, "action matrix")


def _eigen_grading(split: tuple, dim: int, tol: float, what: str) -> Grading:
    """The Z_order grading by the nonempty parts of an ``_eigenspaces`` split.
    Raises VerificationError when the operator is more than tol from
    M^order = Id, or the parts do not fill dimension dim."""
    parts, residual = split
    if residual > tol:
        raise VerificationError(f"{what} does not satisfy M^{len(parts)} = Id (residual {residual:.3g})")
    grading = Grading(group=AbelianGroup((len(parts),)), parts={(l,): b for l, b in enumerate(parts) if b.shape[1]})
    if grading.total_dim != dim:
        raise VerificationError(f"the eigenspaces of the {what} do not fill dimension {dim}")
    return grading


# ---------------------------------------------------------------------------
# Simulation matrices
# ---------------------------------------------------------------------------


# exp(i pi rho) at the phases rho (mod 2) where cmath.exp would not be exact.
_EXACT_PHASES = {Fraction(0): 1.0 + 0.0j, Fraction(1): -1.0 + 0.0j, Fraction(1, 2): 1j, Fraction(3, 2): -1j}


def _phase_to_complex(rho: Fraction) -> complex:
    rho = rho % 2
    if rho in _EXACT_PHASES:
        return _EXACT_PHASES[rho]
    return cmath.exp(1j * math.pi * float(rho))


@dataclass(frozen=True, eq=False)
class SimulationMatrix:
    """Invertible R with R^order = Id, stored in its most structured form.

    kind "diagonal": phases are exact rationals rho with entries
    exp(i pi rho); kind "signed_permutation": R e_c = signs[c] e_{perm[c]};
    kind "dense": explicit complex matrix, kept as linalg.read_only.  The first two have one
    nonzero per column (``monomial``), so the checks on them are index arithmetic.

    Raises InputError unless order is an integer >= 1 and, by kind, the
    phases are finite reals; perm is a permutation of range(d) with one
    finite nonzero sign per entry; or the dense matrix is square and finite.
    """

    order: int
    kind: str
    phases: tuple | None = None
    perm: tuple | None = None
    signs: tuple | None = None
    dense: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.order, numbers.Integral) or self.order < 1:
            raise InputError(f"simulation-matrix order must be an integer >= 1, got {self.order!r}")
        if self.kind == "diagonal":
            if self.phases is None or not all(_finite_real(rho) for rho in self.phases):
                raise InputError("diagonal phases must be finite real numbers")
        elif self.kind == "signed_permutation":
            if self.perm is None or self.signs is None or len(self.perm) != len(self.signs):
                raise InputError("a signed permutation needs as many signs as perm entries")
            perm = np.asarray(self.perm)
            if perm.dtype.kind not in "iu" or not np.array_equal(np.sort(perm), np.arange(perm.size)):
                raise InputError(f"perm is not a permutation of range({perm.size})")
            try:
                signs = np.asarray(self.signs, dtype=complex)
            except (TypeError, ValueError) as exc:
                raise InputError(f"signs must be numbers: {exc}") from exc
            if not (np.isfinite(signs) & (signs != 0)).all():
                raise InputError("signs must be finite and nonzero")
        elif self.kind == "dense":
            m = np.asarray(self.dense)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise InputError(f"dense simulation matrix has shape {m.shape}, not square")
            if not np.isfinite(m).all():
                raise InputError("dense simulation matrix has a non-finite entry")
            object.__setattr__(self, "dense", read_only(m))
        else:
            raise InputError(f"unknown simulation-matrix kind {self.kind!r}")

    @property
    def dim(self) -> int:
        if self.kind == "diagonal":
            return len(self.phases)
        if self.kind == "signed_permutation":
            return len(self.perm)
        return self.dense.shape[0]

    def monomial(self) -> tuple[np.ndarray, np.ndarray]:
        """(perm, scale) with R e_c = scale[c] e_{perm[c]}: the identity and
        exp(i pi rho_c) for the diagonal kind, perm and signs for the
        signed-permutation kind.  Formed on the first call and kept, as
        read-only arrays: the fields are immutable, so the pair cannot go
        stale."""
        return self._monomial

    @cached_property
    def _monomial(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == "diagonal":
            value = {rho: _phase_to_complex(rho) for rho in set(self.phases)}
            out = np.arange(self.dim), np.array([value[rho] for rho in self.phases], dtype=complex)
        elif self.kind == "signed_permutation":
            out = np.array(self.perm, dtype=np.int64), np.array(self.signs, dtype=complex)
        else:
            raise InputError("a dense simulation matrix has no monomial form")
        for a in out:
            a.flags.writeable = False
        return out

    @property
    def matrix(self) -> np.ndarray:
        if self.kind == "dense":
            return self.dense
        perm, scale = self.monomial()
        m = np.zeros((self.dim, self.dim), dtype=complex)
        m[perm, np.arange(self.dim)] = scale
        return m

    def inverse(self) -> np.ndarray:
        if self.kind != "dense":
            perm, scale = self.monomial()
            m = np.zeros((self.dim, self.dim), dtype=complex)
            m[np.arange(self.dim), perm] = 1.0 / scale
            return m
        try:
            return np.linalg.inv(self.dense)
        except np.linalg.LinAlgError as exc:
            raise VerificationError("singular simulation matrix") from exc

    def power_residual(self) -> float:
        """Sup-norm distance of R^order from the identity (``_walk`` for the monomial kinds)."""
        if self.kind == "dense":
            return max_abs(np.linalg.matrix_power(self.dense, self.order) - np.eye(self.dim))
        return _walk(*self.monomial(), self.order)[2]


def _finite_real(x) -> bool:
    return isinstance(x, numbers.Rational) or (isinstance(x, numbers.Real) and math.isfinite(x))


def simulation_inner(hw: HighestWeight, n: int, s: int) -> SimulationMatrix:
    """Diagonal simulation matrix of Ad_{A_{n,s}} on the GT basis.

    Raw phases are exp(i pi ((eta/n - 1) r_n - r_{n-s})); when the raw
    matrix squares to a nontrivial scalar (allowed by Schur's lemma) all
    phases are shifted by the first one, making the leading entry the
    principal root +1 and forcing R^2 = Id exactly.  The phases are
    num / n mod 2 with num = (eta - n) r_n - n r_{n-s}, formed on the row
    sums of the whole pattern array at once.
    """
    if hw.n != n:
        raise InputError(f"weight {hw} is not a weight of sl({n})")
    if not 0 <= s <= n // 2:
        raise InputError(f"s must satisfy 0 <= s <= {n // 2}, got {s}")
    table = PatternTable.of(hw)
    if s == 0:
        return SimulationMatrix(order=1, kind="diagonal", phases=(Fraction(0),) * len(table.arr))
    num = (eta(s) - n) * table.row(n).sum(axis=1) - n * table.row(n - s).sum(axis=1)
    if np.any(num % n):
        num = num - num[0]
        if np.any(num % n):
            raise VerificationError("r_n is not constant over the patterns; phases stay fractional")
    unit = (Fraction(0), Fraction(1))
    return SimulationMatrix(order=2, kind="diagonal", phases=tuple(unit[b] for b in ((num // n) % 2).tolist()))


# ---------------------------------------------------------------------------
# Contragredient representations and the outer simulation matrix J
# ---------------------------------------------------------------------------


def contragredient_weight(hw: HighestWeight) -> HighestWeight:
    """Weight of the representation X -> -r(X)^T: m'_i = m_1 - m_{n-i+1}."""
    top = hw.m[0]
    return HighestWeight(hw.n, tuple(top - hw.m[hw.n - 1 - i] for i in range(hw.n)))


def is_self_contragredient(hw: HighestWeight) -> bool:
    return contragredient_weight(hw) == hw


def J_matrix(hw: HighestWeight) -> SimulationMatrix:
    """Signed permutation J xi(m) = (-1)^{sum m_{i,j}} xi(m') simulating the
    outer automorphism on a self-contragredient representation.

    The reflected patterns m' of all patterns are one integer array, and
    their basis indices one lookup of their keys (PatternTable.find).
    J^2 is a scalar by Schur's lemma; when that scalar is -1 (possible for
    n = 2 and odd weights) the signs are multiplied by i once so that the
    returned matrix satisfies R^2 = Id.
    """
    if not is_self_contragredient(hw):
        raise InputError(f"weight {hw} is not self-contragredient; no J exists")
    n, table = hw.n, PatternTable.of(hw)
    # m'_{i,j} = m_{1,n} - m_{j-i+1,j}: every row below the top reversed and reflected
    lower = np.concatenate([hw.m[0] - table.row(j)[:, ::-1] for j in range(n - 1, 0, -1)], axis=1)
    below = table.arr[:, n:]
    inside = ((lower >= below.min(axis=0)) & (lower <= below.max(axis=0))).all(axis=1)
    perm, found = table.find(table.key(np.where(inside[:, None], lower, below)))
    if not (found & inside).all():
        bad = table.arr[np.argmin(found & inside)].tolist()
        raise VerificationError(f"conjugate of pattern {bad} violates betweenness")
    parity = table.arr.sum(axis=1) % 2
    square = parity ^ parity[perm]  # J^2 e_c = (-1)^square[c] e_c
    if np.any(square != square[0]):
        raise VerificationError("J^2 is not scalar; pattern conjugation bug")
    unit = (complex(1), complex(-1))
    signs = [unit[p] for p in parity.tolist()]
    if square[0]:
        signs = [1j * s for s in signs]
    return SimulationMatrix(order=2, kind="signed_permutation", perm=tuple(perm.tolist()), signs=tuple(signs))


def doubled_rep(hw: HighestWeight):
    """The 2d-dimensional representation r + (-r^T) with its block-swap
    simulation matrix for the outer automorphism.

    Works for any weight; this is the compatible companion for weights
    that are not self-contragredient.  The doubled entries are index
    arithmetic on those of r, so only the build's own budget applies.
    """
    r0 = build_representation(hw)
    d, e = r0.dim, r0.entries
    rows, cols = np.concatenate([e.rows, e.cols + d]), np.concatenate([e.cols, e.rows + d])
    gids, vals = np.tile(e.gids, 2), np.concatenate([e.vals, -e.vals])
    # entry (i, k, v) of r and (k + d, i + d, -v)
    entries = Entries.sort(2 * d, gids, rows, cols, vals)
    swap = SimulationMatrix(
        order=2,
        kind="signed_permutation",
        perm=tuple(list(range(d, 2 * d)) + list(range(d))),
        signs=tuple([complex(1.0)] * (2 * d)),
    )
    return GeneratorRep(r0.n, entries), swap


@np.errstate(over="ignore", invalid="ignore")  # huge finite entries overflow to inf or NaN residuals: they fail closed
def verify_simulation(
    rep: GeneratorRep,
    aut: Automorphism,
    sim: SimulationMatrix,
    tol: float = DEFAULT_TOL,
) -> Report:
    """Check r(g(x)) = R r(x) R^{-1} on the sl basis and R^order = Id; the
    report has checked = k + 1 and worst_at = (basis label,) or ("power",).

    g(x) is column x of aut.action.  For an R with one nonzero per column
    (R e_c = s_c e_{pi(c)}, the diagonal and signed-permutation kinds)
    R r(x) R^{-1} has the entries (pi(i), pi(j), s_i v / s_j) of r(x), so
    both sides are entry lists, r(g(x)) from rep.entries.combined and r(x)
    from GeneratorRep.sl_entries: keyed by (x, row, col), they are summed
    once, and the residual of x is the largest sum among its keys.  A dense
    R is checked on the dense matrices rep.images.
    """
    if sim.dim != rep.dim:
        raise InputError(f"simulation matrix dim {sim.dim} != rep dim {rep.dim}")
    if aut.n != rep.n:
        raise InputError(f"automorphism of sl({aut.n}) on a representation of sl({rep.n})")
    act = aut.action
    if sim.kind == "dense":
        r, rinv = sim.matrix, sim.inverse()
        found = [max_abs(l - r @ m @ rinv) for l, m in zip(rep.images(act), rep.images(np.eye(len(act))))]
    else:
        d = rep.dim
        perm, scale = sim.monomial()
        xs, grows, gcols, gvals = rep.entries.combined(gtrep.sl_in_generators(rep.n) @ act)
        labels, rows, cols, vals = rep.sl_entries
        keys = np.concatenate(((xs * d + grows) * d + gcols, (labels * d + perm[rows]) * d + perm[cols]))
        terms = np.concatenate((gvals, -(vals * scale[rows]) * (1.0 / scale)[cols]))
        keys, sums = summed(keys, terms)
        found = np.zeros(len(act))
        np.maximum.at(found, keys // (d * d), np.abs(sums))  # a NaN sum is kept, and Report.of reads it as inf
    where = [(label,) for label in sl_basis_labels(rep.n)] + [("power",)]
    return Report.of(zip(where, [*found, sim.power_residual()]), tol)


def decompose_rep_space(sim: SimulationMatrix, tol: float = DEFAULT_TOL) -> Grading:
    """Eigenspace decomposition of the carrier space, labelled by Z_order
    via lambda = exp(2 pi i l / order): ``_eigenspaces`` of the monomial
    pair of R, or of a dense R.  An order-2 monomial R gives e_c for a
    fixed point and (e_c +- s_c e_pi(c)) / 2 for each 2-cycle c < pi(c).

    The parts are dense: d columns of d complex entries in all, charged
    against the memory budget before any part is formed.
    """
    d = sim.dim
    check_budget(16 * d * d, f"the dense carrier parts of dimension {d}")
    split = _eigenspaces(sim.matrix if sim.kind == "dense" else sim.monomial(), sim.order, tol)
    return _eigen_grading(split, d, tol, "simulation matrix")


def check_compatibility(
    rep: GeneratorRep,
    gamma: Grading,
    vgamma: Grading,
    tol: float = DEFAULT_TOL,
) -> Report:
    """Definition check: r(X_i) V_j inside V_{i+j} for all labels i, j.
    The report half of ``compatibility``."""
    return compatibility(rep, gamma, vgamma, tol)[0]


def compatibility(rep: GeneratorRep, gamma: Grading, vgamma: Grading, tol: float = DEFAULT_TOL) -> tuple:
    """Where r(X) sends each V_j: the report of check_compatibility, and the
    coordinate terms of every image r(X_a) v_t in its target part V_{i+j}
    (algebra.containment on rep.sl_entries and rep.images; exact on the
    parts decompose_rep_space gives a monomial R).  A violation (i, j, res)
    is recorded per X column of gamma part i and part j of vgamma whose
    residual exceeds tol; the report carries checked = the number of image
    vectors r(X) v tested, worst_at = (i, j) of the largest residual (None
    when all are zero) and tol.  A gamma that is not a grading of sl(n)
    fails first, as verify_grading fails it (algebra.basis_violations):
    with ("direct_sum", total dim, rank, inf), or with ("non_finite",
    label, inf) and nothing else checked, as for a gamma with no part; a
    vgamma with no column fails so too, with ("direct_sum", 0, 0, inf) (one
    with columns gets no rank check)."""
    if gamma.group.orders != vgamma.group.orders:
        raise InputError(f"gradings live over different groups: {gamma.group} vs {vgamma.group}")
    k = rep.n * rep.n - 1
    lengths = {part.shape[0] for part in gamma.parts.values()}
    if lengths - {k}:
        raise InputError(f"grading vectors of length {sorted(lengths)} are not coordinates on sl({rep.n})")
    vlengths = {part.shape[0] for part in vgamma.parts.values()}
    if vlengths - {rep.dim}:
        raise InputError(f"carrier grading vectors of length {sorted(vlengths)} do not live in dimension {rep.dim}")
    pairs, checked = basis_violations(gamma, k, tol), gamma.total_dim * vgamma.total_dim
    if not vgamma.total_dim:
        pairs += basis_violations(vgamma, rep.dim, tol)
    if not gamma.parts or not vgamma.total_dim or any(where[0] == "non_finite" for where, _ in pairs):
        return Report.of(pairs, tol, checked=checked), NO_TERMS
    residuals, coords = containment(rep.sl_entries, rep.images, k, rep.dim, gamma, vgamma, tol)
    pairs += [((i, j), residuals[i, j][col]) for i, xpart in gamma.parts.items()
              for col in range(xpart.shape[1]) for j in vgamma.parts]
    return Report.of(pairs, tol, checked=checked), coords


# Seed of the fixed random combination of the null basis: any generic
# combination is invertible whenever some intertwiner is.
SOLVER_SEED = 20090
# Newton steps allowed for R^order = Id; from a generic start they converge
# quadratically in well under this many.
SOLVER_NEWTON_STEPS = 100


def _normalize_power(r0: np.ndarray, order: int) -> np.ndarray:
    """An order-th root of Id of the form r0 c, with c a function of
    P = r0^order, by Newton's iteration S <- ((order-1) S + S^(1-order)) / order
    (for order 2, the matrix sign function of r0).

    Every iterate is r0 times a function of P, and P commutes with the
    representation (g^order = Id), so the limit intertwines like r0 does.
    The start is r0 / alpha^(1/order) with alpha = trace(P) / d: for a
    scalar P (an irreducible carrier) that is already the answer.
    """
    d = r0.shape[0]
    alpha = complex(np.trace(np.linalg.matrix_power(r0, order))) / d
    s = r0 * cmath.exp(-cmath.log(alpha) / order) if alpha else r0
    for _ in range(SOLVER_NEWTON_STEPS):
        step = ((order - 1) * s + np.linalg.matrix_power(np.linalg.inv(s), order - 1)) / order
        done = max_abs(step - s) <= 1e-13 * max_abs(step)
        s = step
        if done:
            break
    return s


def find_simulation_matrix(
    rep: GeneratorRep, aut: Automorphism, tol: float = DEFAULT_TOL
) -> SimulationMatrix | None:
    """Solve the intertwiner equations r(g(x)) R = R r(x) for R directly.

    The equations are imposed only on the 2(n-1) Chevalley generators
    E_{k,k+1} and E_{k+1,k}: the x for which they hold form a Lie
    subalgebra, and these generate sl(n).  When every r(H_k) and
    r(g(H_k)) is diagonal (a weight basis, as for GT and doubled
    representations under the standard automorphisms), the Cartan
    equations force R[i, j] = 0 unless r(g(H_k))_ii = r(H_k)_jj for all k,
    so only those entries are unknowns: sum over weights mu of
    mult(mu) mult(g* mu) instead of d^2.  Otherwise every entry is one.
    Each generator contributes only the equation rows that can be nonzero,
    and the null space comes from a thin SVD of the stacked system.

    A fixed-seed random complex combination of the null basis is generic:
    it is invertible whenever some solution is, which a single basis vector
    need not be (the doubled carriers have 2-dimensional null spaces).  It
    is then multiplied by a function of R^order so that R^order = Id.

    Returns a dense simulation matrix, or None when every solution is
    singular (no simulation matrix exists).  Raises InputError when the
    predicted bytes of the reduced system and its SVD exceed the memory
    budget, and VerificationError when the found R cannot be
    normalized to R^order = Id.
    """
    n, d = rep.n, rep.dim
    stack = rep.images(np.eye(n * n - 1))
    images = rep.images(aut.action)  # r(g(x)) for every sl basis element x
    index = {label: x for x, label in enumerate(sl_basis_labels(n))}
    cartan = [index["H", k] for k in range(1, n)]
    if all(_is_diagonal(h) for h in [*stack[cartan], *images[cartan]]):
        src = np.diagonal(stack[cartan], axis1=1, axis2=2).reshape(n - 1, 1, d)
        dst = np.diagonal(images[cartan], axis1=1, axis2=2).reshape(n - 1, d, 1)
        allowed = np.all(np.abs(dst - src) <= tol, axis=0)
    else:
        allowed = np.ones((d, d), dtype=bool)
    rows_i, cols_j = np.nonzero(allowed)
    unknowns = rows_i.size
    if not unknowns:
        return None

    equations = []
    for k in range(1, n):
        for label in (("E", k, k + 1), ("E", k + 1, k)):
            a, m = images[index[label]], stack[index[label]]
            # Row (p, q) of A R - R M involves R[i, q] via A[p, i] and
            # R[p, j] via M[j, q]; rows reached by no allowed entry vanish.
            support = ((a != 0) @ allowed) | (allowed @ (m != 0))
            equations.append((a, m, support, int(support.sum())))
    # Zero rows pad a short system so that Vh of the thin SVD is square.
    height = max(sum(eq[3] for eq in equations), unknowns)
    rank_bound = min(height, unknowns)
    check_budget(16 * (2 * height * unknowns + height * rank_bound + rank_bound * unknowns),
                 f"the solver's system and its SVD for {unknowns} unknowns (d={d})")

    system = np.zeros((height, unknowns), dtype=complex)
    offset = 0
    for a, m, support, count in equations:
        row = np.full((d, d), -1)
        row[support] = np.arange(offset, offset + count)
        offset += count
        p, u = np.nonzero(a[:, rows_i])
        system[row[p, cols_j[u]], u] = a[p, rows_i[u]]
        u, q = np.nonzero(m[cols_j, :])
        system[row[rows_i[u], q], u] -= m[cols_j[u], q]
    _, svals, vh = np.linalg.svd(system, full_matrices=False)
    null = vh[svals <= tol * max(1.0, svals[0])].conj()
    if not null.shape[0]:
        return None
    rng = np.random.default_rng(SOLVER_SEED)
    weights = rng.standard_normal(null.shape[0]) + 1j * rng.standard_normal(null.shape[0])
    r0 = np.zeros((d, d), dtype=complex)
    r0[rows_i, cols_j] = weights @ null
    if np.linalg.matrix_rank(r0, tol=1e-9) < d:
        return None
    r = _normalize_power(r0, aut.order)
    residual = max_abs(np.linalg.matrix_power(r, aut.order) - np.eye(d))
    if residual > 1e-6:
        raise VerificationError(f"solver R^{aut.order} is {residual:.3g} away from Id after normalization")
    return SimulationMatrix(order=aut.order, kind="dense", dense=r)
