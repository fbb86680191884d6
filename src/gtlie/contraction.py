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
kernels apply a contraction, with eps and psi read once per call as label
arrays.  Every input is read-only and caches its digest, and one record of
passes (_recorded), keyed by the digests of the objects a check reads, holds
the inputs that passed a precondition check (_verify_once) and each
contracted algebra that passed every check; failures are never recorded.
Both contractions are read off the coordinates recorded with a pass: the
algebra off its grading pass, and a representation off its carrier's
compatibility pass, as the linalg.Entries table of its matrices, the form
verify_rep_homomorphism hands to linalg.relation_sums on every call.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .algebra import Grading, LieAlgebra, Report, check_jacobi, closure, grading_adapted_basis
from .autos import compatibility
from .errors import IncompatibleError, InputError, VerificationError
from .groups import AbelianGroup
from .gtrep import GeneratorRep
from .linalg import DEFAULT_TOL, Entries, digest, relation_sums, summed

MAX_FREE_CELLS = 10
# The one record of what passed, by digest, oldest first: each entry is (value, bytes
# of its arrays), the value None for an input that passed a precondition check (for a
# grading or compatibility pass, its summed coordinates) and the outputs of a contracted
# algebra that passed every check.  Past PASSED_CAPACITY entries the oldest entry is dropped,
# and past PASSED_RESULT_BYTES bytes the oldest one with bytes; a larger one is not recorded.
PASSED_CAPACITY = 1024
PASSED_RESULT_BYTES = 1 << 25
_passed: dict[bytes, tuple] = {}


def _recorded(key: bytes, compute, nbytes=lambda value: 0):
    """The value recorded under key, else compute()'s value, recorded when
    compute returns and nbytes(value) is at most PASSED_RESULT_BYTES.  A
    compute that raises records nothing, so a failing input is checked,
    and refused, again on every call."""
    entry = _passed.get(key)
    if entry is not None:
        return entry[0]
    value = compute()
    size = nbytes(value)
    if size <= PASSED_RESULT_BYTES:
        _passed[key] = (value, size)
        total = sum(s for _, s in _passed.values())
        while total > PASSED_RESULT_BYTES:
            total -= _passed.pop(next(k for k, (_, s) in _passed.items() if s))[1]
        while len(_passed) > PASSED_CAPACITY:
            _passed.pop(next(iter(_passed)))
    return value


def _verify_once(name: str, check, tol: float, inputs: tuple, error: type, prefix: str, keep=None):
    """Run check(*inputs, tol) unless inputs of the same digests passed it
    at tol before (key: the digest of name, tol and their digests); raise
    error with prefix and the first three violations when it fails.  check
    returns a Report, or with keep a (Report, out) pair: keep(out), a tuple
    of arrays, is then recorded with the pass and returned."""

    def verified():
        report, out = check(*inputs, tol) if keep else (check(*inputs, tol), None)
        if not report.ok:
            raise error(f"{prefix}: {list(report.violations[:3])}")
        return keep(out) if keep else None

    return _recorded(digest(name, tol, *(x.digest for x in inputs)), verified, lambda v: sum(a.nbytes for a in v or ()))


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
    """G x G table of scalars; rationals in the core, complex tolerated.  Read-only:
    ``values`` is a read-only mapping, and the cached ``digest`` covers the group orders and as_tuple()."""

    group: AbelianGroup
    values: dict

    def __post_init__(self):
        cleaned = {}
        for (i, j), v in self.values.items():
            cleaned[(self.group.check(i), self.group.check(j))] = _as_scalar(v)
        object.__setattr__(self, "values", MappingProxyType(cleaned))

    def __reduce__(self):
        return type(self), (self.group, dict(self.values))

    @cached_property
    def digest(self) -> bytes:
        return digest(self.group.orders, self.as_tuple())

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


@np.errstate(over="ignore", invalid="ignore")  # inf and NaN cells give inf and NaN residuals
def _system(t: np.ndarray, group: AbelianGroup, scale: int, eps: np.ndarray | None = None) -> np.ndarray:
    """Residuals in check order of the eps system (eps None: the |G|^2 cells |t_ij - t_ji|, then the
    |G|^3 triples) or of the psi system over eps, for the tables t (..., |G|, |G|) of scale c, all
    triples (i, j, k) at once by broadcasting.  Integers are divided by c^2 once, which rounds as
    float(Fraction) does; a value past the float range (an OverflowError on object cells included)
    is inf, and a NaN stays NaN, which Report.of reads as inf, so the checks fail closed."""
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
    return np.asarray(res, dtype=float).max(axis=0)


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
    return Report.of(zip(where, res.tolist()), tol)


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
    return Report.of(zip(itertools.product(g.elements(), repeat=3), res.tolist()), tol)


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
    _verify_once("epsilon", verify_epsilon, 0.0, (eps,), VerificationError,
                 "epsilon table does not solve the contraction system")
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

    The result lives in the adapted basis X (part bases concatenated in label
    order): c[a, t, s], a < t, is eps times the coordinate of [X_a, X_t] on
    X_s that the grading pass (algebra.closure) records, c[t, a, s] its exact
    negative, and every other constant +0.0; nothing is bracketed or solved.

    An eps cell outside the float range is an InputError.  The inputs are
    verified once per content: closure and verify_epsilon run only for an
    (algebra, grading) or eps whose digests have not passed them at this
    tol.  The output must pass the Jacobi check.  A contraction that passed
    every check is recorded under tol and the digests of algebra, grading
    and eps; a hit gets the recorded, read-only labels, adapted basis,
    contracted algebra and Jacobi report next to the caller's own inputs,
    with no check run.
    """
    if gamma.group.orders != eps.group.orders:
        raise InputError("grading and epsilon table live over different groups")
    key = digest("contract_algebra", tol, algebra.digest, gamma.digest, eps.digest)
    out = _recorded(key, lambda: _contract(algebra, gamma, eps, tol),
                    lambda r: r[1].nbytes + sum(a.nbytes for a in vars(r[2].ad).values()))
    return ContractedAlgebra(algebra, gamma, eps, *out)


def _contract(algebra: LieAlgebra, gamma: Grading, eps: EpsilonTable, tol: float) -> tuple:
    """The recorded fields of contract_algebra's result, every check run:
    labels, adapted basis (made read-only), contracted algebra and its Jacobi report."""
    cells = eps.floats()
    keys, vals = _verify_once("grading", closure, tol, (algebra, gamma), VerificationError,
                              "input grading fails verification", lambda terms: summed(*terms))
    _verify_once("epsilon", verify_epsilon, tol, (eps,), VerificationError,
                 "epsilon table fails the contraction system")
    labels, basis = grading_adapted_basis(gamma)
    k = algebra.dim
    a, s, t = np.unravel_index(keys, (k, k, k))
    vals = vals * eps.on_labels(cells, labels, labels)[a, t]
    live = (a < t) & (vals != 0)
    a, s, t, vals = a[live], s[live], t[live], vals[live]
    vals = np.concatenate((vals, -vals)).astype(complex)  # c[a, t, s] and c[t, a, s]
    entries = Entries.sort(k, *map(np.concatenate, ((a, t), (s, s), (t, a))), vals)
    # labels come grouped, so a - labels.index(lab) counts within the part
    names = ["g" + ",".join(str(r) for r in lab) + f"_{a - labels.index(lab)}" for a, lab in enumerate(labels)]
    result = LieAlgebra(basis_names=tuple(names), structure=entries)
    jac = check_jacobi(result, tol)
    if not jac.ok:
        raise VerificationError(f"contracted algebra violates Jacobi (residual {jac.max_residual:.3g})")
    basis.flags.writeable = False
    return tuple(labels), basis, result, jac


@dataclass(frozen=True, eq=False)
class ContractedRep:
    """Blockwise-rescaled operators r^eps(X_i) on the adapted V basis (the V
    columns, labelled ``vlabels``), stored as one read-only linalg.Entries
    table ``entries``: its matrix a represents the a-th adapted algebra basis
    vector (same order as ContractedAlgebra over the same grading).
    """

    rep: GeneratorRep
    gamma: Grading
    vgamma: Grading
    eps: EpsilonTable
    psi: PsiTable
    labels: tuple
    vlabels: tuple
    entries: Entries


def contract_rep(
    rep: GeneratorRep,
    vgamma: Grading,
    gamma: Grading,
    psi: PsiTable,
    eps: EpsilonTable,
    tol: float = DEFAULT_TOL,
) -> ContractedRep:
    """Build r^eps(X_i) v_j = psi_{i,j} r(X_i) v_j on the adapted V basis:
    the matrices act on the direct sum of the V_j, so a V grading whose
    total_dim is not rep.dim is an InputError before any check.  The
    coordinates of r(X_a) v_t in its target part are autos.compatibility's,
    summed once and recorded with its pass; each call scales them by psi,
    drops zeros and hands the rest to linalg.Entries.sort.

    A psi or eps cell outside the float range is an InputError.  The inputs
    are verified once per content: compatibility runs only for a (carrier,
    grading, V grading), and verify_psi only for a (psi, eps), whose digests
    have not passed at this tol before.  The output is checked by
    verify_rep_homomorphism, on every call of it."""
    d = rep.dim
    if vgamma.total_dim != d:
        raise InputError(f"the carrier grading has {vgamma.total_dim} vectors, not a basis of dimension {d}")
    cells = psi.floats()
    eps.floats()  # eps is only checked here, but contract_algebra applies it in floats
    keys, vals = _verify_once("compatibility", compatibility, tol, (rep, gamma, vgamma), IncompatibleError,
                              "representation is not compatible with the grading", lambda terms: summed(*terms))
    _verify_once("psi", verify_psi, tol, (psi, eps), VerificationError, "psi table fails its system")
    labels, vlabels = gamma.labels(), vgamma.labels()
    mats, at = np.divmod(keys, d * d)
    vals = vals * psi.on_labels(cells, labels, vlabels)[mats, at % d]
    live = vals != 0
    entries = Entries.sort(d, mats[live], at[live] // d, at[live] % d, vals[live])
    return ContractedRep(rep, gamma, vgamma, eps, psi, tuple(labels), tuple(vlabels), entries)


@np.errstate(invalid="ignore")  # a NaN sum is kept, and Report.of reads it as inf
def verify_rep_homomorphism(
    crep: ContractedRep, calg: ContractedAlgebra, tol: float = DEFAULT_TOL
) -> Report:
    """Check [r^eps(x), r^eps(y)] = r^eps([x, y]_new) on the adapted bases.

    One call of linalg.relation_sums: crep.entries, the k matrices M_a, and
    the triples (a, b, l, c_abl), a < b, at the nonzeros of the contracted
    structure, give the sums of M_a M_b - M_b M_a - sum_l c_abl M_l at every
    key the terms meet, one block of output rows at a time; each pair's
    residual is its largest |sum| (np.maximum.at).  c is exactly
    antisymmetric, so (b, a) has the residual of (a, b), and (a, a) has
    residual 0.  A dense product meets a
    NaN or inf of M_t in every row and column (NaN * 0), the sparse one
    only at nonzeros, so a non-finite M_t makes every (t, b) and (a, t)
    infinite, as the dense check does.  The entry itself enters the sum of
    every (a, b) with c_abt != 0, and Report.of reads a NaN sum as inf.
    Violations (a, b, res) come in row-major order; checked = k^2 pairs.
    A matrix index outside range(k) is an InputError.
    """
    if crep.labels != calg.labels:
        raise InputError("contracted rep and algebra use different adapted bases")
    e, k = crep.entries, len(crep.labels)
    outside = e.gids[(e.gids < 0) | (e.gids >= k)]
    if outside.size:
        raise InputError(f"contracted matrix {outside[0]} is not one of the {k} adapted basis vectors")
    ad = calg.result.ad  # c_abl at (l, a, b)
    upper = ad.gids < ad.cols
    res = np.zeros((k, k))
    for keys, sums in relation_sums(e, k, ad.gids[upper], ad.cols[upper], ad.rows[upper], ad.vals[upper]):
        np.maximum.at(res.reshape(-1), keys // e.dim**2, np.abs(sums))
    bad = e.gids[~np.isfinite(e.vals)]
    res[bad] = res[:, bad] = math.inf
    res = np.maximum(res, res.T)
    return Report.of(zip(itertools.product(range(k), repeat=2), res.ravel().tolist()), tol)
