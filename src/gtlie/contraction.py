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

One array kernel checks both systems, for one table or a batch (the binary
(0/1) solution sets), exactly in integers for rational tables; a NaN cell or
a residual past the float range is an infinite residual.  Stacked numpy
kernels over (k, d, d) operator stacks apply a contraction, with eps and psi
read once per call as label arrays.  The inputs of a contraction are checked
once per content (_verify_once); its outputs are checked on every call.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import numbers
import operator
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
from .autos import check_compatibility
from .errors import IncompatibleError, InputError, VerificationError
from .groups import AbelianGroup
from .gtrep import GeneratorRep
from .linalg import DEFAULT_TOL

MAX_FREE_CELLS = 10
# Content digests of the inputs that passed a precondition check, oldest
# first; past PASSED_CAPACITY the oldest is dropped.
PASSED_CAPACITY = 1024
_passed: dict[bytes, None] = {}


def _verify_once(check: str, tol: float, content: tuple, run, fail) -> None:
    """Run the precondition check run() -> Report unless this exact content
    passed the check named check at tol before; raise fail(report) when it
    fails.  The key is a blake2b digest of check, tol and content, each
    array as its dtype, shape and bytes (an object array as the repr of its
    values), anything else as its repr.  Only passes are recorded, so a
    failing input is checked, and refused, again on every call."""
    h = hashlib.blake2b(digest_size=16)
    for x in (check, tol, *content):
        if isinstance(x, np.ndarray):
            data = repr(x.tolist()).encode() if x.dtype.hasobject else x.tobytes()
            pieces = (f"{x.dtype.str}{x.shape}".encode(), data)
        else:
            pieces = (repr(x).encode(),)
        for piece in pieces:
            h.update(len(piece).to_bytes(8, "little"))
            h.update(piece)
    key = h.digest()
    if key in _passed:
        return
    report = run()
    if not report.ok:
        raise fail(report)
    _passed[key] = None
    if len(_passed) > PASSED_CAPACITY:
        del _passed[next(iter(_passed))]


def _grading_content(gamma: Grading) -> tuple:
    """What a check reads of a grading: group orders, then each part label and array in dict order."""
    return (gamma.group.orders, *itertools.chain.from_iterable(gamma.parts.items()))


def _inf_on_overflow(op) -> np.ufunc:
    """The binary op as an object-array ufunc whose OverflowError (a
    quotient, or a Fraction meeting a complex cell, past the float range)
    gives inf, so the residual it enters fails closed."""

    def guarded(a, b):
        try:
            return op(a, b)
        except OverflowError:
            return math.inf

    return np.frompyfunc(guarded, 2, 1)


_MUL, _SUB = _inf_on_overflow(operator.mul), _inf_on_overflow(operator.sub)
_ABS_RATIO = _inf_on_overflow(lambda num, den: float(abs(num) / den))


def _as_scalar(v):
    """Fraction for a rational or an integer of any kind (numpy's too) and
    for a real or complex number whose value is an integer, so integral data
    stays exact; complex otherwise."""
    if isinstance(v, numbers.Rational):
        return Fraction(int(v)) if isinstance(v, numbers.Integral) else Fraction(v)
    z = complex(v)
    return Fraction(int(z.real)) if z.imag == 0 and z.real.is_integer() else z


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

    def as_tuple(self) -> tuple:
        """Canonical value tuple over lexicographically ordered index pairs."""
        els = self.group.elements()
        return tuple(self.value(i, j) for i in els for j in els)

    def floats(self) -> np.ndarray:
        """The values as one complex |G| x |G| array in lex order; InputError
        for a cell outside the float range."""
        try:
            return np.array([complex(x) for x in self.as_tuple()]).reshape(self.group.size, -1)
        except OverflowError as exc:
            raise InputError(f"a table cell is outside the float range: {exc}") from exc

    def on_labels(self, floats: np.ndarray, rows, cols) -> np.ndarray:
        """The len(rows) x len(cols) array of floats() at every label pair
        (rows[a], cols[b])."""
        index = {el: t for t, el in enumerate(self.group.elements())}
        return floats[np.ix_([index[r] for r in rows], [index[c] for c in cols])]

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


def _cells(*tables: ScalarTable) -> tuple[np.ndarray, int]:
    """The tables' cells as one flat array and their scale c.  All rational: the integers c x, c the
    lcm of the denominators, in int64 while every integer formed (at most 2 max(|c x|, c)^2) is at
    most 2^53, so float64 holds it too, else Python ints.  Otherwise: the cells themselves, c = 1."""
    cells = [v for table in tables for v in table.as_tuple()]
    if not all(isinstance(v, Fraction) for v in cells):
        return np.array(cells, dtype=object), 1
    scale = math.lcm(*(v.denominator for v in cells))
    ints = [v.numerator * (scale // v.denominator) for v in cells]
    return np.array(ints, dtype=np.int64 if 2 * max(scale, *map(abs, ints)) ** 2 <= 2**53 else object), scale


@np.errstate(over="ignore", invalid="ignore")  # inf and NaN cells are reported as inf residuals
def _system(t: np.ndarray, group: AbelianGroup, scale: int, eps: np.ndarray | None = None) -> np.ndarray:
    """Residuals in check order of the eps system (eps None: the |G|^2 cells |t_ij - t_ji|, then the
    |G|^3 triples) or of the psi system over eps, for the tables t (..., |G|, |G|) of scale c, all
    triples (i, j, k) at once by broadcasting.  Integers are divided by c^2 once, which rounds as
    float(Fraction) does; NaN and a value past the float range (an OverflowError on object cells
    included) are inf, so the checks fail closed."""
    n, add = group.size, np.array(group.addition_table())
    i, j, k = np.indices((n, n, n)).reshape(3, -1)
    mul, sub = (_MUL, _SUB) if t.dtype == object else (np.multiply, np.subtract)
    if eps is None:  # e1, e2, e3 = t_ij t_{i+j,k}, t_jk t_{j+k,i}, t_ki t_{k+i,j}
        x, y, z = (mul(t[..., a, b], t[..., add[a, b], c]) for a, b, c in ((i, j, k), (j, k, i), (k, i, j)))
    else:  # p1, p2, p3 = t_jk t_{i,j+k}, t_ik t_{j,i+k}, eps_ij t_{i+j,k}
        x, y = (mul(t[..., a, b], t[..., c, add[a, b]]) for a, b, c in ((j, k, i), (i, k, j)))
        z = mul(eps[i, j], t[..., add[i, j], k])
    pairs = np.stack([sub(x, y), sub(y, z)])
    if eps is None:
        sym = sub(t, t.swapaxes(-1, -2)).reshape(*t.shape[:-2], n * n) * scale  # over c^2 as well
        pairs = np.concatenate([np.stack([sym, sym]), pairs], axis=-1)
    if pairs.dtype == object:
        res = _ABS_RATIO(pairs, scale * scale)
    else:
        res = np.abs(pairs) / (scale * scale)
    res = np.asarray(res, dtype=float)
    return np.where(np.isnan(res), math.inf, res).max(axis=0)


def verify_epsilon(eps: EpsilonTable, tol: float = DEFAULT_TOL) -> Report:
    """Symmetry plus the full |G|^3 system of quadratic equations.

    The report carries checked = |G|^2 cells + |G|^3 triples and worst_at =
    ("symmetry", i, j) or ("triple", i, j, k), the form of its violations.
    """
    g = eps.group
    cells, scale = _cells(eps)
    res = _system(cells.reshape(g.size, g.size), g, scale)
    where = [("symmetry", *at) for at in itertools.product(g.elements(), repeat=2)]
    where += [("triple", *at) for at in itertools.product(g.elements(), repeat=3)]
    return Report.of(dict(zip(where, res.tolist())), tol)


def verify_psi(psi: PsiTable, eps: EpsilonTable, tol: float = DEFAULT_TOL) -> Report:
    """The full system psi_{j,k} psi_{i,j+k} = psi_{i,k} psi_{j,i+k} = eps_{i,j} psi_{i+j,k}.

    The report carries checked = |G|^3 triples and worst_at = (i, j, k).
    """
    if psi.group.orders != eps.group.orders:
        raise InputError("psi and epsilon live over different groups")
    g = psi.group
    cells, scale = _cells(psi, eps)
    p, e = cells.reshape(2, g.size, g.size)
    res = _system(p, g, scale, eps=e)
    return Report.of(dict(zip(itertools.product(g.elements(), repeat=3), res.tolist())), tol)


def _binary_rows(cells: int) -> np.ndarray:
    """Every 0/1 assignment of the free cells, one row each, in itertools.product order."""
    if cells > MAX_FREE_CELLS:
        raise InputError(f"{cells} free cells exceed the enumeration guard ({MAX_FREE_CELLS})")
    return np.array(list(itertools.product((0, 1), repeat=cells)), dtype=np.int64)


def enumerate_binary_epsilon(group: AbelianGroup) -> list[EpsilonTable]:
    """All symmetric 0/1 solutions of the epsilon system, in the
    lexicographic order of their free-cell assignments."""
    n = group.size
    a, b = np.triu_indices(n)  # the free cells (i, j), i <= j, row-major
    bits = _binary_rows(a.size)
    tables = np.zeros((len(bits), n, n), dtype=np.int64)
    tables[:, a, b] = tables[:, b, a] = bits
    res = _system(tables, group, 1)
    return [EpsilonTable.from_rows(group, rows) for rows in tables[(res == 0).all(axis=-1)].tolist()]


def enumerate_binary_psi(eps: EpsilonTable) -> list[PsiTable]:
    """All 0/1 solutions of the psi system for the given epsilon table,
    which must solve its own system exactly (checked once per content)."""
    _verify_once(
        "epsilon", 0.0, (eps.group.orders, eps.as_tuple()),
        lambda: verify_epsilon(eps, tol=0.0),
        lambda report: VerificationError("epsilon table does not solve the contraction system"),
    )
    g, n = eps.group, eps.group.size
    tables = _binary_rows(n * n).reshape(-1, n, n)
    cells, scale = _cells(eps)
    res = _system(tables.astype(cells.dtype) * scale, g, scale, eps=cells.reshape(n, n))
    return [PsiTable.from_rows(g, rows) for rows in tables[(res == 0).all(axis=-1)].tolist()]


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
    jacobi: Report  # check_jacobi of result, which passed


def contract_algebra(
    algebra: LieAlgebra,
    gamma: Grading,
    eps: EpsilonTable,
    tol: float = DEFAULT_TOL,
) -> ContractedAlgebra:
    """Rescale brackets by eps over the grading and rebuild structure constants.

    The result lives in the adapted basis (part bases concatenated in label
    order): all brackets of pairs a < b are scaled by eps and expanded by
    one solve; the pairs b > a are their exact negatives.

    An eps cell outside the float range is an InputError.  The inputs are
    verified once per content: verify_grading and verify_epsilon run only
    for an (algebra, grading) or eps content not seen to pass them before
    at this tol.  The output is verified on every call: Jacobi of the
    contracted algebra is re-checked and must pass.
    """
    if gamma.group.orders != eps.group.orders:
        raise InputError("grading and epsilon table live over different groups")
    cells = eps.floats()
    _verify_once(
        "grading", tol, (algebra.structure, *_grading_content(gamma)),
        lambda: verify_grading(algebra, gamma, tol),
        lambda report: VerificationError(f"input grading fails verification: {report.violations[:3]}"),
    )
    _verify_once(
        "epsilon", tol, (eps.group.orders, eps.as_tuple()),
        lambda: verify_epsilon(eps, tol),
        lambda report: VerificationError(f"epsilon table fails the contraction system: {report.violations[:3]}"),
    )
    labels, basis = grading_adapted_basis(gamma)
    k = algebra.dim
    a, b = np.triu_indices(k, 1)
    scale = eps.on_labels(cells, labels, labels)[a, b]
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
        base=algebra, grading=gamma, eps=eps, labels=tuple(labels), adapted=basis, result=result, jacobi=jac
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
    solve for all k d columns of r(X_a) V, and psi one (k, d) scale array.

    The stack r(sl basis) is rep.sl_stack, read first, so a carrier past
    GENERATOR_BUDGET_BYTES is an InputError before any check.  A psi or
    eps cell outside the float range is an InputError.  The inputs are
    verified once per content: check_compatibility runs only for a
    (carrier, grading, V grading) content, and verify_psi only for a (psi,
    eps) content, not seen to pass at this tol before.  The output is
    checked by verify_rep_homomorphism, on every call of it."""
    stack = rep.sl_stack
    cells = psi.floats()
    eps.floats()  # eps is only checked here, but contract_algebra applies it in floats
    e = rep.entries
    _verify_once(
        "compatibility", tol,
        (rep.n, e.rows, e.cols, e.vals, e.gids, e.starts, *_grading_content(gamma), *_grading_content(vgamma)),
        lambda: check_compatibility(rep, gamma, vgamma, tol),
        lambda report: IncompatibleError(
            f"representation is not compatible with the grading: {report.violations[:3]}"
        ),
    )
    _verify_once(
        "psi", tol, (psi.group.orders, psi.as_tuple(), eps.group.orders, eps.as_tuple()),
        lambda: verify_psi(psi, eps, tol),
        lambda report: VerificationError(f"psi table fails its system: {report.violations[:3]}"),
    )
    alabels, abasis = grading_adapted_basis(gamma)
    vlabels, vbasis = grading_adapted_basis(vgamma)
    k, d = abasis.shape[1], vbasis.shape[0]
    images = np.tensordot(abasis.T, stack, axes=1) @ vbasis  # r(X_a) V
    out = np.linalg.solve(vbasis, images.transpose(1, 0, 2).reshape(d, k * d)).reshape(d, k, d)
    out *= psi.on_labels(cells, alabels, vlabels)  # out[i, a, j] *= psi(label a, vlabel j)
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
