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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (
    Grading,
    LieAlgebra,
    Report,
    matrix_to_coords,
    sl_basis_labels,
    sl_basis_matrices,
)
from .errors import InputError, VerificationError
from .groups import AbelianGroup
from .gtrep import (
    GeneratorRep,
    GTPattern,
    HighestWeight,
    build_representation,
    check_generator_budget,
    enumerate_patterns,
    row_sum,
    weyl_dim,
)
from .linalg import DEFAULT_TOL, Entries, independent_columns, max_abs, orthonormal_span, span_distance


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Automorphism:
    """An automorphism of sl(n, C): X -> A X A^{-1} (inner) or
    X -> -A X^T A^{-1} (outer composed with an inner one)."""

    kind: str  # "inner" | "outer"
    matrix: np.ndarray
    order: int

    def __post_init__(self):
        if self.kind not in ("inner", "outer"):
            raise InputError(f"unknown automorphism kind {self.kind!r}")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        a = self.matrix
        y = np.asarray(x, dtype=complex)
        if self.kind == "outer":
            y = -y.T
        if _is_diagonal(a):
            d = np.diag(a)
            return y * np.outer(d, 1.0 / d)
        return np.linalg.solve(a.T, (a @ y).T).T


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


def action_on_sl(aut: Automorphism, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Matrix of the automorphism on sl(n) coordinates (canonical basis).

    Entries that are numerically integral are snapped so that the standard
    diagonal/outer representatives yield exact integer matrices.
    """
    n = aut.n
    act = matrix_to_coords(n, np.array([aut.apply(m) for m in sl_basis_matrices(n)]), tol).T
    rounded = np.round(act)
    if max_abs(act - rounded) <= 1e-12 * max(1.0, max_abs(act)):
        return rounded
    return act


def _eigenspaces(m: np.ndarray, order: int, tol: float) -> list[np.ndarray]:
    """Bases of the eigenspaces of m (m^order = Id) for exp(2 pi i l / order),
    l = 0, ..., order - 1: independent columns of the projectors
    (1/order) sum_t exp(-2 pi i l t / order) m^t.  Order 2 uses (Id +- m)/2,
    exact on integer m (cmath.exp(-1j * pi) is not exactly -1)."""
    powers = [np.eye(m.shape[0], dtype=m.dtype)]
    for _ in range(order - 1):
        powers.append(powers[-1] @ m)
    out = []
    for l in range(order):
        if order == 2:
            proj = (powers[0] + powers[1]) / 2 if l == 0 else (powers[0] - powers[1]) / 2
        else:
            proj = sum(cmath.exp(-2j * math.pi * l * t / order) * powers[t] for t in range(order)) / order
        out.append(proj[:, independent_columns(proj, tol)].astype(complex))
    return out


def grading_from_automorphism(
    algebra: LieAlgebra, aut: Automorphism, tol: float = DEFAULT_TOL
) -> Grading:
    """Eigenspace decomposition of the automorphism action, labelled by Z_k
    via lambda = exp(2 pi i l / k)."""
    k = algebra.dim
    n = aut.n
    if n * n - 1 != k:
        raise InputError(f"automorphism on {n}x{n} matrices does not act on dim {k}")
    act = action_on_sl(aut, tol)
    order = aut.order
    power = np.linalg.matrix_power(act, order)
    if max_abs(power - np.eye(k)) > tol:
        raise VerificationError(
            f"action matrix does not satisfy M^{order} = Id (residual {max_abs(power - np.eye(k)):.3g})"
        )
    parts = {(l,): basis for l, basis in enumerate(_eigenspaces(act, order, tol)) if basis.shape[1]}
    total = sum(basis.shape[1] for basis in parts.values())
    if total != k:
        raise VerificationError("automorphism action is defective: eigenspaces do not fill the algebra")
    return Grading(group=AbelianGroup((order,)), parts=parts)


# ---------------------------------------------------------------------------
# Simulation matrices
# ---------------------------------------------------------------------------


def _phase_to_complex(rho: Fraction) -> complex:
    rho = rho % 2
    table = {
        Fraction(0): 1.0 + 0.0j,
        Fraction(1): -1.0 + 0.0j,
        Fraction(1, 2): 1j,
        Fraction(3, 2): -1j,
    }
    if rho in table:
        return table[rho]
    return cmath.exp(1j * math.pi * float(rho))


@dataclass(frozen=True, eq=False)
class SimulationMatrix:
    """Invertible R with R^order = Id, stored in its most structured form.

    kind "diagonal": phases are exact rationals rho with entries
    exp(i pi rho); kind "signed_permutation": R e_c = signs[c] e_{perm[c]};
    kind "dense": explicit complex matrix.
    """

    order: int
    kind: str
    phases: tuple | None = None
    perm: tuple | None = None
    signs: tuple | None = None
    dense: np.ndarray | None = None

    @property
    def dim(self) -> int:
        if self.kind == "diagonal":
            return len(self.phases)
        if self.kind == "signed_permutation":
            return len(self.perm)
        return self.dense.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        if self.kind == "diagonal":
            return np.diag([_phase_to_complex(r) for r in self.phases])
        if self.kind == "signed_permutation":
            d = self.dim
            m = np.zeros((d, d), dtype=complex)
            for c in range(d):
                m[self.perm[c], c] = self.signs[c]
            return m
        return self.dense

    def inverse(self) -> np.ndarray:
        if self.kind == "diagonal":
            return np.diag([_phase_to_complex(-r) for r in self.phases])
        if self.kind == "signed_permutation":
            d = self.dim
            m = np.zeros((d, d), dtype=complex)
            for c in range(d):
                m[c, self.perm[c]] = 1.0 / self.signs[c]
            return m
        try:
            return np.linalg.inv(self.dense)
        except np.linalg.LinAlgError as exc:
            raise VerificationError("singular simulation matrix") from exc

    def power_residual(self) -> float:
        """Sup-norm distance of R^order from the identity."""
        m = np.linalg.matrix_power(self.matrix, self.order)
        return max_abs(m - np.eye(self.dim))


def rep_of_Xns(hw: HighestWeight, n: int, s: int) -> np.ndarray:
    """Diagonal matrix of the algebra element X with exp(X) = A_{n,s}.

    Eigenvalue on xi(m):

        i pi ( eta/n r_n + 2 sum_{t=1..s-1} (-1)^{t-1} r_{n-s+t}
               - r_{n-s} - (-1)^eta r_n ).

    The row-sum formula assumes s >= 1; for s = 0 the automorphism is the
    identity and the matrix is zero.
    """
    if hw.n != n:
        raise InputError(f"weight {hw} is not a weight of sl({n})")
    if not 0 <= s <= n // 2:
        raise InputError(f"s must satisfy 0 <= s <= {n // 2}, got {s}")
    pats = enumerate_patterns(hw)
    d = len(pats)
    if s == 0:
        return np.zeros((d, d), dtype=complex)
    e = eta(s)
    vals = []
    for p in pats:
        total = Fraction(e, n) * row_sum(p, n)
        total += 2 * sum((-1) ** (t - 1) * row_sum(p, n - s + t) for t in range(1, s))
        total -= row_sum(p, n - s)
        total -= (-1) ** e * row_sum(p, n)
        vals.append(1j * math.pi * float(total))
    return np.diag(vals)


def simulation_inner(hw: HighestWeight, n: int, s: int) -> SimulationMatrix:
    """Diagonal simulation matrix of Ad_{A_{n,s}} on the GT basis.

    Raw phases are exp(i pi ((eta/n - 1) r_n - r_{n-s})); when the raw
    matrix squares to a nontrivial scalar (allowed by Schur's lemma) all
    phases are shifted by the first one, making the leading entry the
    principal root +1 and forcing R^2 = Id exactly.
    """
    if hw.n != n:
        raise InputError(f"weight {hw} is not a weight of sl({n})")
    if not 0 <= s <= n // 2:
        raise InputError(f"s must satisfy 0 <= s <= {n // 2}, got {s}")
    pats = enumerate_patterns(hw)
    if s == 0:
        return SimulationMatrix(order=1, kind="diagonal", phases=tuple([Fraction(0)] * len(pats)))
    e = eta(s)
    phases = [
        ((Fraction(e, n) - 1) * row_sum(p, n) - row_sum(p, n - s)) % 2 for p in pats
    ]
    if any(r.denominator != 1 for r in phases):
        shift = phases[0]
        phases = [(r - shift) % 2 for r in phases]
        if any(r.denominator != 1 for r in phases):
            raise VerificationError("r_n is not constant over the patterns; phases stay fractional")
    return SimulationMatrix(order=2, kind="diagonal", phases=tuple(phases))


# ---------------------------------------------------------------------------
# Contragredient representations and the outer simulation matrix J
# ---------------------------------------------------------------------------


def contragredient_weight(hw: HighestWeight) -> HighestWeight:
    """Weight of the representation X -> -r(X)^T: m'_i = m_1 - m_{n-i+1}."""
    top = hw.m[0]
    return HighestWeight(hw.n, tuple(top - hw.m[hw.n - 1 - i] for i in range(hw.n)))


def is_self_contragredient(hw: HighestWeight) -> bool:
    return contragredient_weight(hw) == hw


def pattern_conjugate(p: GTPattern) -> GTPattern:
    """The reflected pattern m'_{i,j} = m_{1,n} - m_{j-i+1,j}.

    It is a valid pattern of the contragredient weight; for a
    self-contragredient weight the map is an involution on the basis.
    """
    top = p.rows[0][0]
    rows = tuple(tuple(top - x for x in reversed(row)) for row in p.rows)
    q = GTPattern(rows)
    if not q.is_valid():
        raise VerificationError(f"conjugate of {p} violates betweenness")
    return q


def J_matrix(hw: HighestWeight) -> SimulationMatrix:
    """Signed permutation J xi(m) = (-1)^{sum m_{i,j}} xi(m') simulating the
    outer automorphism on a self-contragredient representation.

    J^2 is a scalar by Schur's lemma; when that scalar is -1 (possible for
    n = 2 and odd weights) the signs are multiplied by i once so that the
    returned matrix satisfies R^2 = Id.
    """
    if not is_self_contragredient(hw):
        raise InputError(f"weight {hw} is not self-contragredient; no J exists")
    pats = enumerate_patterns(hw)
    index = {p: i for i, p in enumerate(pats)}
    perm = []
    signs: list[complex] = []
    for p in pats:
        perm.append(index[pattern_conjugate(p)])
        signs.append(complex((-1) ** (p.entry_sum % 2)))
    square = {signs[c] * signs[perm[c]] for c in range(len(pats))}
    if len(square) != 1:
        raise VerificationError("J^2 is not scalar; pattern conjugation bug")
    if square == {complex(-1.0)}:
        signs = [1j * s for s in signs]
    return SimulationMatrix(order=2, kind="signed_permutation", perm=tuple(perm), signs=tuple(signs))


def doubled_rep(hw: HighestWeight):
    """The 2d-dimensional representation r + (-r^T) with its block-swap
    simulation matrix for the outer automorphism.

    Works for any weight; this is the compatible companion for weights
    that are not self-contragredient.  Raises InputError up front when the
    doubled generators would exceed GENERATOR_BUDGET_BYTES.
    """
    check_generator_budget(hw.n, 2 * weyl_dim(hw))
    r0 = build_representation(hw)
    d, e = r0.dim, r0.entries
    rows, cols = np.concatenate([e.rows, e.cols + d]), np.concatenate([e.cols, e.rows + d])
    gids, vals = np.tile(e.gids, 2), np.concatenate([e.vals, -e.vals])
    at = np.lexsort((cols, gids, rows))  # entry (i, k, v) of r and (k + d, i + d, -v), by (row, gid, col)
    entries = Entries(rows[at], cols[at], vals[at], gids[at], np.searchsorted(rows[at], np.arange(2 * d + 1)))
    swap = SimulationMatrix(
        order=2,
        kind="signed_permutation",
        perm=tuple(list(range(d, 2 * d)) + list(range(d))),
        signs=tuple([complex(1.0)] * (2 * d)),
    )
    return GeneratorRep(r0.n, entries), swap


# ---------------------------------------------------------------------------
# Wiring representations to algebra coordinates
# ---------------------------------------------------------------------------


def rep_sl_matrices(rep: GeneratorRep) -> list[np.ndarray]:
    """Representation matrices of the canonical sl(n) basis, in order."""
    return [rep.sl_label_matrix(lab) for lab in sl_basis_labels(rep.n)]


def rep_sl_stack(rep: GeneratorRep) -> np.ndarray:
    """rep_sl_matrices as one complex (k, d, d) array."""
    return np.array(rep_sl_matrices(rep), dtype=complex)


def rep_matrix_of(rep: GeneratorRep, coords, stack: np.ndarray | None = None) -> np.ndarray:
    """Representation matrix of an algebra element given by coordinates: one
    product of the coordinates with the stacked sl matrices (rep_sl_stack,
    formed here unless passed), as np.tensordot(coords, stack, axes=1)
    forms it, without tensordot's per-call overhead on small stacks."""
    if stack is None:
        stack = rep_sl_stack(rep)
    return (np.asarray(coords, dtype=complex) @ stack.reshape(len(stack), -1)).reshape(stack.shape[1:])


def verify_simulation(
    rep: GeneratorRep,
    aut: Automorphism,
    sim: SimulationMatrix,
    tol: float = DEFAULT_TOL,
) -> Report:
    """Check r(g(x)) = R r(x) R^{-1} on the sl basis and R^order = Id; the
    report has checked = k + 1 and worst_at = a basis label or "power"."""
    if sim.dim != rep.dim:
        raise InputError(f"simulation matrix dim {sim.dim} != rep dim {rep.dim}")
    r = sim.matrix
    rinv = sim.inverse()
    stack = rep_sl_stack(rep)
    n = rep.n
    residuals = []
    for lab, base, m in zip(sl_basis_labels(n), sl_basis_matrices(n), stack):
        lhs = rep_matrix_of(rep, matrix_to_coords(n, aut.apply(base)), stack)
        rhs = r @ m @ rinv
        residuals.append((lab, max_abs(lhs - rhs)))
    residuals.append(("power", sim.power_residual()))
    worst_at, worst = max(residuals, key=lambda item: item[1])
    violations = [(at, res) for at, res in residuals if res > tol]
    return Report(
        ok=not violations, max_residual=worst, violations=violations,
        checked=len(residuals), worst_at=worst_at if worst else None, tol=tol,
    )


def decompose_rep_space(sim: SimulationMatrix, tol: float = DEFAULT_TOL) -> Grading:
    """Eigenspace decomposition of the carrier space, labelled by Z_order
    via lambda = exp(2 pi i l / order)."""
    k = sim.order
    group = AbelianGroup((k,))
    d = sim.dim
    parts: dict = {lab: [] for lab in group.elements()}

    def eigen_label(value: complex) -> tuple[int, ...]:
        ang = cmath.phase(value) / (2 * math.pi) * k
        l = int(round(ang)) % k
        if abs(value - cmath.exp(2j * math.pi * l / k)) > 1e-6:
            raise VerificationError(f"eigenvalue {value} is not a {k}-th root of unity")
        return (l,)

    if sim.kind == "diagonal":
        for c, rho in enumerate(sim.phases):
            l = (Fraction(rho % 2) * k / 2) % k
            if l.denominator != 1:
                raise VerificationError(f"phase pi*{rho} is not a {k}-th root of unity")
            vec = np.zeros(d, dtype=complex)
            vec[c] = 1.0
            parts[(int(l),)].append(vec)
    elif sim.kind == "signed_permutation" and k == 2:
        for c in range(d):
            q = sim.perm[c]
            if q == c:
                vec = np.zeros(d, dtype=complex)
                vec[c] = 1.0
                parts[eigen_label(sim.signs[c])].append(vec)
            elif q > c:
                for mu in (1.0, -1.0):
                    vec = np.zeros(d, dtype=complex)
                    vec[c] = mu
                    vec[q] = sim.signs[c]
                    parts[eigen_label(complex(mu))].append(vec)
    else:
        for l, basis in enumerate(_eigenspaces(sim.matrix, k, tol)):
            parts[(l,)] = list(basis.T)
    out = {lab: np.column_stack(vecs) for lab, vecs in parts.items() if vecs}
    grading = Grading(group=group, parts=out)
    if grading.total_dim != d:
        raise VerificationError("eigenspaces do not fill the carrier space")
    return grading


def check_compatibility(
    rep: GeneratorRep,
    gamma: Grading,
    vgamma: Grading,
    tol: float = DEFAULT_TOL,
) -> Report:
    """Definition check: r(X_i) V_j inside V_{i+j} for all labels i, j.

    One projector per target part: each part of vgamma gets one orthonormal
    basis Q (thin SVD, ``orthonormal_span``) per call, and for each basis
    column X of a gamma part, r(X) is one product with the stacked sl
    matrices (rep_matrix_of) and the whole image block W = r(X) V_j is checked
    at once by max |W - Q (Q^H W)|, the distance of its columns from V_{i+j}.
    A violation (i, j, res) is recorded per X column and part j whose
    residual exceeds tol.

    The report carries checked = the number of image vectors r(X) v tested,
    worst_at = (i, j) of the largest residual (None when all are zero) and
    tol.
    """
    if gamma.group.orders != vgamma.group.orders:
        raise InputError(
            f"gradings live over different groups: {gamma.group} vs {vgamma.group}"
        )
    lengths = {part.shape[0] for part in gamma.parts.values()}
    if lengths != {rep.n * rep.n - 1}:
        raise InputError(f"grading vectors of length {sorted(lengths)} are not coordinates on sl({rep.n})")
    stack = rep_sl_stack(rep)
    bases = {lab: orthonormal_span(part, tol) for lab, part in vgamma.parts.items()}
    absent = np.zeros((rep.dim, 0), dtype=complex)
    worst, worst_at, checked = 0.0, None, 0
    violations = []
    for i, xpart in gamma.parts.items():
        for col in range(xpart.shape[1]):
            m = rep_matrix_of(rep, xpart[:, col], stack)
            for j, vpart in vgamma.parts.items():
                q = bases.get(vgamma.group.add(i, j), absent)
                image = m @ vpart
                res = span_distance(image, q)
                checked += image.shape[1]
                if res > worst:
                    worst, worst_at = res, (i, j)
                if res > tol:
                    violations.append((i, j, res))
    return Report(
        ok=not violations, max_residual=worst, violations=violations, checked=checked, worst_at=worst_at, tol=tol
    )


# Largest predicted footprint of the solver's reduced system and its thin
# SVD; a larger input is refused with InputError before anything is built.
SOLVER_BUDGET_BYTES = 1 << 30
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
    predicted bytes of the reduced system and its SVD exceed
    SOLVER_BUDGET_BYTES, and VerificationError when the found R cannot be
    normalized to R^order = Id.
    """
    n, d = rep.n, rep.dim
    stack = rep_sl_stack(rep)
    basis = dict(zip(sl_basis_labels(n), sl_basis_matrices(n)))

    def image(label: tuple) -> np.ndarray:
        return rep_matrix_of(rep, matrix_to_coords(n, aut.apply(basis[label])), stack)

    cartan = [("H", k) for k in range(1, n)]
    h_src = [rep.sl_label_matrix(lab) for lab in cartan]
    h_dst = [image(lab) for lab in cartan]
    if all(_is_diagonal(h) for h in h_src + h_dst):
        src = np.array([np.diag(h) for h in h_src]).reshape(n - 1, 1, d)
        dst = np.array([np.diag(h) for h in h_dst]).reshape(n - 1, d, 1)
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
            a, m = image(label), rep.sl_label_matrix(label)
            # Row (p, q) of A R - R M involves R[i, q] via A[p, i] and
            # R[p, j] via M[j, q]; rows reached by no allowed entry vanish.
            support = ((a != 0) @ allowed) | (allowed @ (m != 0))
            equations.append((a, m, support, int(support.sum())))
    # Zero rows pad a short system so that Vh of the thin SVD is square.
    height = max(sum(eq[3] for eq in equations), unknowns)
    rank_bound = min(height, unknowns)
    nbytes = 16 * (2 * height * unknowns + height * rank_bound + rank_bound * unknowns)
    if nbytes > SOLVER_BUDGET_BYTES:
        raise InputError(
            f"simulation-matrix solver needs {nbytes / 2**30:.2f} GiB for {unknowns} unknowns "
            f"(d={d}), over the {SOLVER_BUDGET_BYTES / 2**30:.2f} GiB budget"
        )

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
