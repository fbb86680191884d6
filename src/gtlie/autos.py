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
and give an R with one nonzero per column, R e_c = s_c e_{pi(c)}.  For
such an R the checks are index arithmetic on the stored generator
entries, with no dense d x d matrix: ``verify_simulation`` compares the
entries (i, j, v) of r(x), moved to (pi(i), pi(j), s_i v / s_j), with those
of r(g(x)), and R^order = Id follows pi; ``decompose_rep_space`` gives
coordinate vectors e_c and pairs e_c +- s_c e_pi(c); ``check_compatibility``
forms the images of those columns from the entries and measures each one
against its coordinate vector or its pair exactly.  A dense R (the
solver's) and a carrier grading with any other columns take the dense
path: the dense (k, d, d) stack of r(sl basis), rep.sl_stack, which gtrep
scatters once per representation, and a thin-SVD basis per part.
"""

from __future__ import annotations

import cmath
import math
import numbers
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
    PatternTable,
    build_representation,
    check_generator_budget,
    enumerate_patterns,
    row_sum,
    weyl_dim,
)
from .linalg import (
    DEFAULT_TOL,
    Entries,
    independent_columns,
    max_abs,
    orthonormal_span,
    ranges,
    span_distance,
    summed,
)


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
    kind "dense": explicit complex matrix.  The first two have one nonzero
    per column (``monomial``), so the checks on them are index arithmetic.

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
        signed-permutation kind."""
        if self.kind == "diagonal":
            value = {rho: _phase_to_complex(rho) for rho in set(self.phases)}
            return np.arange(self.dim), np.array([value[rho] for rho in self.phases], dtype=complex)
        if self.kind == "signed_permutation":
            return np.array(self.perm, dtype=np.int64), np.array(self.signs, dtype=complex)
        raise InputError("a dense simulation matrix has no monomial form")

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
        """Sup-norm distance of R^order from the identity.  For the monomial
        kinds R^order e_c is the product of the scales met following perm
        order times from c, times e at the end of the walk."""
        if self.kind == "dense":
            return max_abs(np.linalg.matrix_power(self.dense, self.order) - np.eye(self.dim))
        perm, scale = self.monomial()
        start = np.arange(self.dim)
        at, product = start, np.ones(self.dim, dtype=complex)
        for _ in range(self.order):
            product = product * scale[at]
            at = perm[at]
        return max_abs(np.where(at == start, np.abs(product - 1), np.maximum(np.abs(product), 1.0)))


def _finite_real(x) -> bool:
    return isinstance(x, numbers.Rational) or (isinstance(x, numbers.Real) and math.isfinite(x))


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
        return SimulationMatrix(order=1, kind="diagonal", phases=(Fraction(0),) * len(table.patterns))
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
        raise VerificationError(f"conjugate of {table.patterns[np.argmin(found & inside)]} violates betweenness")
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


def verify_simulation(
    rep: GeneratorRep,
    aut: Automorphism,
    sim: SimulationMatrix,
    tol: float = DEFAULT_TOL,
) -> Report:
    """Check r(g(x)) = R r(x) R^{-1} on the sl basis and R^order = Id; the
    report has checked = k + 1 and worst_at = a basis label or "power".

    r(g(x)) = sum_y act[y, x] r(y) with act = action_on_sl(aut), taken once.
    For an R with one nonzero per column (R e_c = s_c e_{pi(c)}, the diagonal
    and signed-permutation kinds) R r(x) R^{-1} has the entries (pi(i),
    pi(j), s_i v / s_j) of r(x), so both sides come from the entry lists
    GeneratorRep.sl_entries: the terms of both, keyed by (x, row, col), are
    summed once, and the residual of x is the largest sum among its keys.
    A dense R is checked on the dense stack rep.sl_stack.
    """
    if sim.dim != rep.dim:
        raise InputError(f"simulation matrix dim {sim.dim} != rep dim {rep.dim}")
    if aut.n != rep.n:
        raise InputError(f"automorphism of sl({aut.n}) on a representation of sl({rep.n})")
    act = action_on_sl(aut)
    if sim.kind == "dense":
        stack = rep.sl_stack
        r, rinv = sim.matrix, sim.inverse()
        found = [max_abs(l - r @ m @ rinv) for l, m in zip(_combined(act.T, stack), stack)]
    else:
        d = rep.dim
        perm, scale = sim.monomial()
        labels, rows, cols, vals = rep.sl_entries
        starts = np.searchsorted(labels, np.arange(len(act) + 1))
        ys, xs = np.nonzero(act)
        t, u = ranges(starts[ys], np.diff(starts)[ys])
        keys = np.concatenate(((xs[t] * d + rows[u]) * d + cols[u], (labels * d + perm[rows]) * d + perm[cols]))
        terms = np.concatenate((act[ys, xs][t] * vals[u], -(vals * scale[rows]) * (1.0 / scale)[cols]))
        keys, sums = summed(keys, terms)
        found = np.zeros(len(act))
        with np.errstate(invalid="ignore"):  # a NaN sum is kept, and read as inf below
            np.maximum.at(found, keys // (d * d), np.abs(sums))
        found = np.where(np.isnan(found), math.inf, found).tolist()
    residuals = list(zip(sl_basis_labels(rep.n), found)) + [("power", sim.power_residual())]
    worst_at, worst = max(residuals, key=lambda item: item[1])
    violations = [(at, res) for at, res in residuals if res > tol]
    return Report(
        ok=not violations, max_residual=worst, violations=violations,
        checked=len(residuals), worst_at=worst_at if worst else None, tol=tol,
    )


def decompose_rep_space(sim: SimulationMatrix, tol: float = DEFAULT_TOL) -> Grading:
    """Eigenspace decomposition of the carrier space, labelled by Z_order
    via lambda = exp(2 pi i l / order).

    A diagonal R gives coordinate vectors e_c, and an order-2 signed
    permutation gives e_c for its fixed points and e_c +- s_c e_pi(c) for
    each 2-cycle c < pi(c), in the order of c; each part is one array
    filled by fancy indexing.  Any other R is split by its projectors.
    """
    k = sim.order
    group = AbelianGroup((k,))
    d = sim.dim
    if sim.kind == "dense" or (sim.kind == "signed_permutation" and k != 2):
        out = {(l,): basis for l, basis in enumerate(_eigenspaces(sim.matrix, k, tol)) if basis.shape[1]}
        return _carrier_grading(group, out, d)
    perm, signs = sim.monomial()
    lead = np.flatnonzero(perm >= np.arange(d))  # fixed points and the first index of each 2-cycle
    mates = perm[lead] != lead
    if sim.kind == "diagonal":
        label = {}
        for rho in set(sim.phases):
            l = (Fraction(rho) % 2 * k / 2) % k
            if l.denominator != 1:
                raise VerificationError(f"phase pi*{rho} is not a {k}-th root of unity")
            label[rho] = int(l)
        labels = np.array([label[rho] for rho in sim.phases])
    else:
        values = signs[lead]
        labels = np.rint(np.angle(values) * k / (2 * math.pi)).astype(int) % k
        off_root = ~mates & (np.abs(values - np.exp(2j * math.pi * labels / k)) > 1e-6)
        if off_root.any():
            raise VerificationError(f"eigenvalue {values[np.argmax(off_root)]} is not a {k}-th root of unity")
    out = {}
    for (l,) in group.elements():
        # part l: the fixed points with eigenvalue l, and for l = 0 / 1 the sum / difference of each 2-cycle
        pick = mates | (labels == l)
        cols, rows, pair = np.arange(np.count_nonzero(pick)), lead[pick], mates[pick]
        if not cols.size:
            continue
        part = np.zeros((d, cols.size), dtype=complex)
        part[rows, cols] = np.where(pair, 1.0 - 2 * l, 1.0)
        part[perm[rows[pair]], cols[pair]] = signs[rows[pair]]
        out[(l,)] = part
    return _carrier_grading(group, out, d)


def _carrier_grading(group: AbelianGroup, parts: dict, d: int) -> Grading:
    grading = Grading(group=group, parts=parts)
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

    For each basis column X of a gamma part and each part j of vgamma, the
    image block W = r(X) V_j is measured by its largest distance from
    V_{i+j}; a violation (i, j, res) is recorded per X column and part j
    whose residual exceeds tol.

    When every part of vgamma is finite and made of coordinate vectors and
    pairs with pairwise disjoint supports (as decompose_rep_space gives them
    for the diagonal and signed-permutation kinds), the images come from
    the stored entries, for all X of a gamma part at once, and each is
    measured exactly against its coordinate vector or pair
    (_pair_residuals).  Otherwise each part gets one orthonormal basis Q
    (thin SVD, ``orthonormal_span``), r(X) is one product with the dense
    stacked sl matrices and the distance is max |W - Q (Q^H W)|.

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
    vlengths = {part.shape[0] for part in vgamma.parts.values()}
    if vlengths - {rep.dim}:
        raise InputError(f"carrier grading vectors of length {sorted(vlengths)} do not live in dimension {rep.dim}")
    supports = {lab: _pair_support(part) for lab, part in vgamma.parts.items()}
    if all(s is not None for s in supports.values()):
        residuals = _pair_residuals(rep, gamma, vgamma, supports, tol)
    else:
        residuals = _span_residuals(rep, gamma, vgamma, tol)
    worst, worst_at, checked = 0.0, None, 0
    violations = []
    for i, xpart in gamma.parts.items():
        for col in range(xpart.shape[1]):
            for j, vpart in vgamma.parts.items():
                res = float(residuals[i, j][col])
                checked += vpart.shape[1]
                if res > worst:
                    worst, worst_at = res, (i, j)
                if res > tol:
                    violations.append((i, j, res))
    return Report(
        ok=not violations, max_residual=worst, violations=violations, checked=checked, worst_at=worst_at, tol=tol
    )


def _pair_support(part: np.ndarray) -> tuple | None:
    """(rows, cols, vals) of the nonzeros of part, in row order, when part
    is finite and its columns are coordinate vectors or pairs with
    pairwise disjoint supports; otherwise None."""
    if not np.isfinite(part).all():
        return None
    rows, cols = np.nonzero(part)
    if np.any(rows[1:] == rows[:-1]) or np.bincount(cols).max(initial=0) > 2:
        return None
    return rows, cols, part[rows, cols]


def _pair_residuals(rep: GeneratorRep, gamma: Grading, vgamma: Grading, supports: dict, tol: float) -> dict:
    """Residuals {(i, j): one per column of gamma part i} on the entries.

    The columns of all V parts are numbered in one sequence (global
    columns).  Each nonzero of a V column at basis row c is joined with the
    entries of every r(x) in column c: summed, they give the image keys
    (global column, row) and the (K, k) table T with r(x) v = T[:, x] there,
    for every sl basis label x.  For gamma part i the images of all its X
    columns are one product T X.

    Against the target part V_{i+j}, an image entry w_r whose row lies in
    no kept column of the target counts whole; a coordinate column e_r
    holds it exactly; for a pair column tau = tau_r e_r + tau_q e_q the
    distance of (w_r, w_q) from the span of tau is max(|tau_r|, |tau_q|)
    |tau_q w_r - tau_r w_q| / |tau|^2, with w_q read at the key (column, q)
    and zero where there is none.
    """
    vlabels = list(vgamma.parts)
    k, d = rep.n * rep.n - 1, rep.dim
    widths = [vgamma.parts[lab].shape[1] for lab in vlabels]
    offsets = np.cumsum([0] + widths)
    owner = np.repeat(np.arange(len(vlabels)), widths)  # part of each global column
    vrows = np.concatenate([supports[lab][0] for lab in vlabels])
    vcols = np.concatenate([supports[lab][1] + off for lab, off in zip(vlabels, offsets)])
    vvals = np.concatenate([supports[lab][2] for lab in vlabels])
    norm2 = np.bincount(vcols, np.abs(vvals) ** 2, minlength=offsets[-1])
    kept = np.zeros(offsets[-1], dtype=bool)
    for off, width in zip(offsets, widths):
        norms = np.sqrt(norm2[off : off + width])
        kept[off : off + width] = norms > tol * max(1.0, norms.max(initial=0.0))  # as orthonormal_span keeps
    # per part and row: the kept global column holding the row, its value there and the column's other row
    block, tau = np.full((len(vlabels), d), -1), np.zeros((len(vlabels), d), dtype=vvals.dtype)
    mate = np.tile(np.arange(d), (len(vlabels), 1))
    block[owner[vcols], vrows] = np.where(kept[vcols], vcols, -1)
    tau[owner[vcols], vrows] = vvals
    order = np.argsort(vcols, kind="stable")
    same = np.flatnonzero(vcols[order][1:] == vcols[order][:-1])
    a, b = order[same], order[same + 1]
    mate[owner[vcols[a]], vrows[a]], mate[owner[vcols[b]], vrows[b]] = vrows[b], vrows[a]
    tau = _real_if_real(tau)

    elabels, rows, cols, vals = rep.sl_entries
    by_col = np.argsort(cols, kind="stable")
    starts = np.searchsorted(cols[by_col], np.arange(d + 1))
    t, u = ranges(starts[vrows], np.diff(starts)[vrows])
    at = by_col[u]
    keys, sums = summed((vcols[t] * d + rows[at]) * k + elabels[at], vals[at] * vvals[t])
    image, label = np.divmod(keys, k)  # image key: global column * d + row
    new = np.diff(image, prepend=-1) != 0
    keys = image[new]
    table = np.zeros((keys.size, k), dtype=sums.dtype)
    table[np.cumsum(new) - 1, label] = sums
    table = _real_if_real(table)
    gcol, row = np.divmod(keys, d)
    bounds = np.searchsorted(gcol, offsets)  # the keys of part p: bounds[p]:bounds[p + 1]

    index = {lab: p for p, lab in enumerate(vlabels)}
    out = {}
    for i, xpart in gamma.parts.items():
        images = table @ _real_if_real(xpart)  # one row per key, one column per X
        tgt = np.array([index.get(vgamma.group.add(i, j), -1) for j in vlabels])[owner[gcol]]
        blk = np.where(tgt >= 0, block[tgt, row], -1)
        other = gcol * d + mate[tgt, row]
        pos = np.minimum(np.searchsorted(keys, other), keys.size - 1)
        w_other = np.where((keys[pos] == other)[:, None], images[pos], 0)
        t_row, t_other = tau[tgt, row][:, None], tau[tgt, other % d][:, None]
        scale = np.maximum(np.abs(t_row), np.abs(t_other)) / np.where(blk >= 0, norm2[blk], 1.0)[:, None]
        res = np.where((blk >= 0)[:, None], np.abs(t_other * images - t_row * w_other) * scale, np.abs(images))
        for p, j in enumerate(vlabels):
            worst = res[bounds[p] : bounds[p + 1]].max(axis=0, initial=0.0)
            out[i, j] = np.where(np.isnan(worst), math.inf, worst)
    return out


def _real_if_real(a: np.ndarray) -> np.ndarray:
    """a.real when no entry has an imaginary part: real arithmetic then
    gives the same values at half the work."""
    return a.real if np.iscomplexobj(a) and not a.imag.any() else a


def _combined(coords: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """The matrices sum_x coords[a, x] stack[x], one per row a of coords, as
    one product (np.tensordot(coords, stack, axes=1) without its per-call
    overhead on small stacks)."""
    return (coords @ stack.reshape(len(stack), -1)).reshape(-1, *stack.shape[1:])


def _span_residuals(rep: GeneratorRep, gamma: Grading, vgamma: Grading, tol: float) -> dict:
    """Residuals {(i, j): one per column of gamma part i} on dense matrices."""
    stack = rep.sl_stack
    bases = {lab: orthonormal_span(part, tol) for lab, part in vgamma.parts.items()}
    absent = np.zeros((rep.dim, 0), dtype=complex)
    out = {}
    for i, xpart in gamma.parts.items():
        mats = _combined(xpart.T, stack)
        for j, vpart in vgamma.parts.items():
            q = bases.get(vgamma.group.add(i, j), absent)
            out[i, j] = [span_distance(m @ vpart, q) for m in mats]
    return out


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
    stack = rep.sl_stack
    images = _combined(action_on_sl(aut).T, stack)  # r(g(x)) for every sl basis element x
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
