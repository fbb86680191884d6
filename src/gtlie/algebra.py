"""Structure-constant Lie algebras and their gradings.

A Lie algebra of dimension k is stored as its nonzero structure constants
c[i, j, l], the coefficient of basis element ``l`` in ``[e_i, e_j]``, in one
linalg.Entries table (``LieAlgebra.ad``); the dense tensor is a view formed
on request.  For sl(n, C) built here the constants are small integers, so
double-precision arithmetic on them is exact and the Jacobi residual is 0.

A grading is a decomposition of the algebra (or of any vector space)
into subspaces labelled by elements of a finite abelian group, with the
bracket-closure condition ``[L_j, L_k] subset of L_{j+k}``: the
compatibility r(L_i) V_j subset of V_{i+j} of the adjoint representation,
with V = L graded by itself.  One kernel, ``containment``, checks both on
the entries of r(x) (for the algebra ``LieAlgebra.ad``).
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import InputError, VerificationError
from .groups import AbelianGroup
from .linalg import (
    DEFAULT_TOL,
    Entries,
    digest,
    max_abs,
    orthonormal_span,
    ranges,
    rank,
    read_only,
    relation_sums,
    span_distance,
    stable_order,
    summed,
)


@dataclass(frozen=True)
class Report:
    """Outcome of a verification predicate, read-only and built only by Report.of.

    ``checked`` counts the relations or images tested, ``violations`` holds
    (*where, residual) for each residual over ``tol``, ``worst_at`` names
    where ``max_residual`` occurred and ``tol`` is the tolerance it was held
    to.  A NaN residual reads as inf, so ok == (not violations), worst_at is
    v[:-1] of the first worst violation v, and max_residual is the largest
    violation's residual whenever the check fails.
    """

    ok: bool
    max_residual: float = 0.0
    violations: tuple = ()
    checked: int = 0
    worst_at: object = None
    tol: float | None = None

    def __bool__(self):
        return self.ok

    @classmethod
    def of(cls, pairs, tol: float, checked: int | None = None) -> "Report":
        """Fold (where, residual) pairs, in check order (a where may repeat):
        a NaN residual is inf, a violation (*where, residual) per residual
        over tol, worst_at = the first where of the largest residual (None
        when all are zero), checked = the number of pairs unless given.  A
        NaN, negative or infinite tol is an InputError: no residual could
        exceed it, so every check would pass."""
        if not 0 <= tol < math.inf:
            raise InputError(f"tolerance must be finite and not negative, got {tol}")
        pairs = [(where, math.inf if math.isnan(res) else float(res)) for where, res in pairs]
        worst_at, worst = max(pairs, key=operator.itemgetter(1), default=(None, 0.0))
        violations = tuple((*where, res) for where, res in pairs if res > tol)
        return cls(
            ok=not violations, max_residual=worst, violations=violations,
            checked=len(pairs) if checked is None else checked, worst_at=worst_at if worst else None, tol=tol,
        )


class LieAlgebra:
    """Finite-dimensional complex Lie algebra over a named basis, read-only: its nonzero constants
    c[i, j, p] ([e_i, e_j] = sum_p c[i, j, p] e_p), each once and c[j, i, p] exactly -c[i, j, p], as one
    linalg.Entries table ``ad``, ad_i[p, j] = c[i, j, p], handed over or read once from the dense tensor
    c; ``digest`` and the dense view ``structure`` are cached."""

    def __init__(self, basis_names, structure):
        k = len(basis_names)
        if not isinstance(structure, Entries) and np.shape(structure) != (k, k, k):
            raise InputError(f"structure tensor shape {np.shape(structure)} does not match dim {k}")
        e = structure if isinstance(structure, Entries) else Entries.of(np.asarray(structure).transpose(0, 2, 1))
        if e.dim != k:
            raise InputError(f"structure entries of dimension {e.dim} do not match dim {k}")
        keys, at = stable_order((e.gids * k + e.cols) * k + e.rows)
        mirrored, mirror = stable_order((e.cols * k + e.gids) * k + e.rows)
        twice = np.unravel_index(keys[1:][keys[1:] == keys[:-1]], (k, k, k))
        if twice[0].size:
            raise InputError(f"structure constant index {tuple(int(x[0]) for x in twice)} is given twice")
        if not np.array_equal(keys, mirrored) or max_abs(e.vals[at] + e.vals[mirror]) != 0.0:
            raise InputError("structure constants are not exactly antisymmetric")
        self._names, self._ad = tuple(basis_names), e

    basis_names = property(lambda self: self._names)
    ad = property(lambda self: self._ad)

    @property
    def dim(self) -> int:
        return len(self.basis_names)

    @cached_property
    def digest(self) -> bytes:
        return digest(*vars(self.ad).values())

    @cached_property
    def structure(self) -> np.ndarray:
        """c as a read-only (k, k, k) array, formed once gtrep.check_generator_budget allows it."""
        from .gtrep import check_generator_budget  # gtrep imports this module
        k, e = self.dim, self.ad
        check_generator_budget(k, k, e.vals.itemsize)
        c = np.zeros((k, k, k), dtype=e.vals.dtype)
        c[e.gids, e.cols, e.rows] = e.vals
        return read_only(c)


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
    sum_m c[i, j, m] ad_m is minus the residual of (e_i, e_j, e_l) at e_p:
    Jacobi says that ad is a homomorphism.  One call of
    linalg.relation_sums checks it, on the entries algebra.ad and the
    algebra's own triples (i, j, p, c[i, j, p]), i < j, read off them;
    the residual of (e_j, e_i, e_l) is that of (e_i, e_j, e_l).
    The heaviest output row is predicted first at 3 k^4 terms for a dense
    algebra, what the check formed when it summed both orders of each
    pair (the kernel now forms about half as many), and refused over
    JACOBI_BUDGET_BYTES.  The report carries checked = k^3 triples,
    worst_at = (i, j, l) with i < j (None when all are zero), that triple
    as its one violation when it fails, and tol.
    """
    k = algebra.dim
    if not k:
        return Report.of([], tol)
    ad = algebra.ad
    runs = np.diff(ad.starts)
    terms = 2 * runs[ad.cols] + runs[ad.gids]
    row_bytes = JACOBI_TERM_BYTES * int(np.bincount(ad.rows, terms, minlength=k).max())
    if row_bytes > JACOBI_BUDGET_BYTES:
        raise InputError(
            f"Jacobi check needs {row_bytes / 2**30:.2f} GiB for one row, "
            f"over its {JACOBI_BUDGET_BYTES >> 30} GiB budget"
        )
    worst, worst_at = 0.0, None
    upper = ad.gids < ad.cols  # c[i, j, p] at (i, j, p), i < j
    for keys, sums in relation_sums(ad, k, ad.gids[upper], ad.cols[upper], ad.rows[upper], ad.vals[upper]):
        res = max_abs(sums)
        if res > worst:
            key = int(keys[np.argmax(np.abs(sums))])
            worst, worst_at = res, (key // k**3, key // k**2 % k, key % k)
    return Report.of([(worst_at, worst)] if worst else [], tol, checked=k**3)


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
    """sl(n, C) as a structure-constant algebra (dimension n^2 - 1), in closed form: for a, b, c in range(n),
    [E_ab, E_bc] = E_ac (a, b, c distinct), [E_ab, E_ba] = E_aa - E_bb = +-(sum of H_c, min(a, b) <= c <
    max(a, b)) and [H_c, E_ab] = (d_ca - d_cb - d_c+1,a + d_c+1,b) E_ab, each with its negative at (j, i)."""
    labels = sl_basis_labels(n)
    e = np.full((n, n), -1)  # basis index of E_ab
    e[~np.eye(n, dtype=bool)] = np.arange(n * n - n)
    a, b, c = np.indices((n, n, n)).reshape(3, -1)
    h = n * n - n + c  # basis index of H_c, c < n - 1
    weight = (c == a).astype(int) - (c == b) - (c + 1 == a) + (c + 1 == b)
    chain, cartan = (a != b) & (b != c) & (a != c), (a != b) & (c < n - 1) & (weight != 0)
    pair = (a != b) & (np.minimum(a, b) <= c) & (c < np.maximum(a, b))
    t = np.concatenate((np.column_stack((e[a, b], e[b, c], e[a, c], np.ones_like(a)))[chain],
                        np.column_stack((h, e[a, b], e[a, b], weight))[cartan]))  # rows (i, j, p, c[i, j, p])
    t = np.concatenate((t, t[:, [1, 0, 2, 3]] * (1, 1, 1, -1),
                        np.column_stack((e[a, b], e[b, a], h, np.sign(b - a)))[pair]))
    names = tuple(f"E{lab[1]}{lab[2]}" if lab[0] == "E" else f"H{lab[1]}" for lab in labels)
    return LieAlgebra(names, Entries.sort(n * n - 1, t[:, 0], t[:, 2], t[:, 1], t[:, 3].astype(complex)))


def adjoint_rep(algebra: LieAlgebra) -> np.ndarray:
    """Adjoint matrices M_x with M_x y = [x, y], one per basis element.

    Returns a read-only (k, k, k) view of structure; entry [i] is the operator of e_i.
    """
    # column j of M_{e_i} is [e_i, e_j]
    return algebra.structure.transpose(0, 2, 1)


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
    decompositions.  It is read-only: ``parts`` is a read-only mapping of
    linalg.read_only arrays (the library's own parts own their memory, so
    none is copied), and ``digest`` (cached) covers group orders, labels and parts.
    """

    group: AbelianGroup
    parts: dict

    def __post_init__(self):
        for lab in self.parts:
            if not self.group.contains(lab):
                raise InputError(f"part label {lab} not in group {self.group}")
        object.__setattr__(self, "parts", MappingProxyType({lab: read_only(p) for lab, p in self.parts.items()}))

    def __reduce__(self):
        return Grading, (self.group, dict(self.parts))

    @cached_property
    def digest(self) -> bytes:
        return digest(self.group.orders, *(x for item in self.parts.items() for x in item))

    @property
    def total_dim(self) -> int:
        return sum(p.shape[1] for p in self.parts.values())

    def sorted_labels(self) -> list[tuple[int, ...]]:
        return sorted(self.parts.keys())

    def part_dims(self) -> dict:
        return {lab: self.parts[lab].shape[1] for lab in self.sorted_labels()}

    def labels(self) -> list:
        """The label of each column of the adapted basis: the parts' columns in sorted label order."""
        return [lab for lab in self.sorted_labels() for _ in range(self.parts[lab].shape[1])]


def trivial_grading(algebra: LieAlgebra) -> Grading:
    """The whole algebra at the identity of the one-element group."""
    group = AbelianGroup((1,))
    return Grading(group=group, parts={(0,): np.eye(algebra.dim, dtype=complex)})


def containment(entries: tuple, images, k: int, d: int, gamma: Grading, vgamma: Grading, tol: float) -> tuple:
    """Where r(X) sends each part V_j, X a basis column of gamma part i: the
    residuals {(i, j): the distance of r(X) V_j from V_{i+j}, one per X},
    and the unsummed coordinate terms (keys, values) of every image.  r is
    given on the k basis elements e_x twice: as the entries (x, row, col,
    val) of the d x d matrices r(e_x), and as images(coords), the dense
    r(x) for each column x of coordinates.

    When every part of vgamma is finite and made of coordinate vectors and
    pairs with pairwise disjoint supports (autos._eigenspaces of a monomial
    operator), the images come from the entries and are measured exactly
    (_pair_residuals); otherwise on dense matrices, against a thin-SVD
    basis of each part (_span_residuals).  The terms at key (a d + s) d + t,
    a, s, t positions in the adapted bases (parts in sorted label order),
    sum to the coordinate of r(X_a) v_t on v_s; an image entry in no kept
    column of its target part has none."""
    first = dict(zip(gamma.sorted_labels(), np.cumsum([0, *gamma.part_dims().values()]).tolist()))
    supports = {lab: _pair_support(part) for lab, part in vgamma.parts.items()}
    if all(s is not None for s in supports.values()):
        residuals, coords = _pair_residuals(entries, k, d, gamma, vgamma, supports, first, tol)
    else:
        residuals, coords = _span_residuals(images, d, gamma, vgamma, first, tol)
    coords = zip(NO_TERMS, *coords)
    return residuals, tuple(map(np.concatenate, coords))


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


def _pair_residuals(entries: tuple, k: int, d: int, gamma: Grading, vgamma: Grading, supports: dict, first: dict,
                    tol: float) -> tuple:
    """Residuals {(i, j): one per column of gamma part i} on the entries, and
    the coordinate terms (first: the position of each gamma part's X_0).

    The columns of all V parts are numbered in one sequence (global
    columns, in the adapted order), and so are the X columns of all gamma
    parts.  Each nonzero of a V column at basis row c is joined with the
    entries of every r(x) in column c: summed, they give the image sums
    (image key (global column, row), label x, value), and each of those
    joined with the nonzeros of the X columns at row x, summed again, gives
    the image entries w = r(X) v at (image key, X column).  Only nonzeros
    are joined, so a NaN of r(e_x) reaches only the X columns that have a
    coefficient at x, never a dense product's NaN * 0.

    Against the target part V_{i+j}, an image entry w_r whose row lies in
    no kept column of the target counts whole; a coordinate column e_r
    holds it exactly; for a pair column tau = tau_r e_r + tau_q e_q the
    distance of (w_r, w_q) from the span of tau is max(|tau_r|, |tau_q|)
    |tau_q w_r - tau_r w_q| / |tau|^2, with w_q read at the key (column, q)
    and zero where there is none; an image entry no term reaches is not
    formed, and its mate's entry carries the same residual.  On the kept
    column blk that holds the row, w_r adds the term conj(tau_r) w_r /
    |tau|^2 to the coordinate.
    """
    vlabels = vgamma.sorted_labels()
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
    sorted_cols, order = stable_order(vcols)
    same = np.flatnonzero(sorted_cols[1:] == sorted_cols[:-1])
    a, b = order[same], order[same + 1]
    mate[owner[vcols[a]], vrows[a]], mate[owner[vcols[b]], vrows[b]] = vrows[b], vrows[a]
    tau = _real_if_real(tau)

    elabels, rows, cols, vals = entries
    sorted_cols, by_col = stable_order(cols)
    starts = np.searchsorted(sorted_cols, np.arange(d + 1))
    t, u = ranges(starts[vrows], np.diff(starts)[vrows])
    u = by_col[u]
    keys, sums = summed((vcols[t] * d + rows[u]) * k + elabels[u], vals[u] * vvals[t])
    xrows, xcols, xvals = _columns(gamma, k)
    xstarts = np.searchsorted(xrows, np.arange(k + 1))
    t, u = ranges(xstarts[keys % k], np.diff(xstarts)[keys % k])
    xdim = gamma.total_dim
    keys, images = summed(keys[t] // k * xdim + xcols[u], _real_if_real(sums)[t] * xvals[u])
    gcol, row = np.divmod(keys // xdim, d)  # image key: global column * d + row
    x = keys % xdim  # X column, in the adapted order

    index = {lab: p for p, lab in enumerate(vlabels)}
    target = [[index.get(vgamma.group.add(i, j), -1) for j in vlabels] for i in gamma.sorted_labels()]
    tgt = np.repeat(np.array(target, dtype=int), list(gamma.part_dims().values()), axis=0)[x, owner[gcol]]
    blk = np.where(tgt >= 0, block[tgt, row], -1)
    other = (gcol * d + mate[tgt, row]) * xdim + x
    pos = np.minimum(np.searchsorted(keys, other), keys.size - 1)
    w_other = np.where(keys[pos] == other, images[pos], 0)
    t_row, t_other = tau[tgt, row], tau[tgt, mate[tgt, row]]
    scale = np.maximum(np.abs(t_row), np.abs(t_other)) / np.where(blk >= 0, norm2[blk], 1.0)
    res = np.where(blk >= 0, np.abs(t_other * images - t_row * w_other) * scale, np.abs(images))
    worst = np.zeros((len(vlabels), xdim))
    np.maximum.at(worst, (owner[gcol], x), res)  # per V part and X column
    out = {(i, j): worst[p, first[i] : first[i] + xpart.shape[1]]
           for i, xpart in gamma.parts.items() for p, j in enumerate(vlabels)}
    held = (blk >= 0) & (images != 0)
    at = (x[held] * d + blk[held]) * d + gcol[held]
    return out, [(at, np.conj(t_row[held]) / norm2[blk[held]] * images[held])]


def _columns(grading: Grading, k: int) -> tuple:
    """(rows, cols, vals) of the nonzeros of the adapted basis (the k x m
    parts side by side, in sorted label order), in row order; vals real
    when no entry has an imaginary part."""
    basis = np.concatenate([np.zeros((k, 0)), *(grading.parts[lab] for lab in grading.sorted_labels())], axis=1)
    rows, cols = np.nonzero(basis)
    return rows, cols, _real_if_real(basis[rows, cols])


def _real_if_real(a: np.ndarray) -> np.ndarray:
    """a.real when no entry has an imaginary part: real arithmetic then
    gives the same values at half the work."""
    return a.real if np.iscomplexobj(a) and not a.imag.any() else a


def _span_residuals(images, d: int, gamma: Grading, vgamma: Grading, first: dict, tol: float) -> tuple:
    """Residuals {(i, j): one per column of gamma part i} on dense matrices,
    and as coordinates the target part's pseudo-inverse times each block W.
    A part with a NaN or infinite entry has no orthonormal basis: it gets
    one NaN column, so every distance from it is NaN, which Report.of reads
    as inf, and no coordinates."""
    undefined = np.full((d, 1), np.nan)
    inverses = {lab: np.linalg.pinv(part) for lab, part in vgamma.parts.items() if np.isfinite(part).all()}
    bases = {lab: orthonormal_span(part, tol) if lab in inverses else undefined for lab, part in vgamma.parts.items()}
    vfirst = dict(zip(vgamma.sorted_labels(), np.cumsum([0, *vgamma.part_dims().values()]).tolist()))
    absent = np.zeros((d, 0), dtype=complex)
    out, coords = {}, []
    for i, xpart in gamma.parts.items():
        mats = images(xpart)
        for j, vpart in vgamma.parts.items():
            target = vgamma.group.add(i, j)
            blocks = [m @ vpart for m in mats]
            out[i, j] = [span_distance(w, bases.get(target, absent)) for w in blocks]
            if target in inverses:
                c = inverses[target] @ np.array(blocks)  # (X, target column, V_j column)
                a, s, t = np.indices(c.shape)
                coords.append(((((first[i] + a) * d + vfirst[target] + s) * d + vfirst[j] + t).ravel(), c.ravel()))
    return out, coords


def basis_violations(grading: Grading, k: int, tol: float) -> list:
    """The violations of a grading of a k-dimensional space that no residual
    bounds, each with residual inf: ("non_finite", label) for each part with
    a NaN or infinite entry, which has neither a rank nor a span; else
    ("direct_sum", total dim, rank) when the parts are not a direct sum of
    the space.  Where a part is not finite, or there is no part, nothing
    else can be checked."""
    pairs = [(("non_finite", lab), math.inf) for lab, part in grading.parts.items() if not np.isfinite(part).all()]
    if pairs:
        return pairs
    stacked = np.column_stack([p for p in grading.parts.values() if p.shape[1]] or [np.zeros((k, 0))])
    dims = (grading.total_dim, rank(stacked, tol))
    return [] if dims == (k, k) else [(("direct_sum", *dims), math.inf)]


# The coordinate terms of a check that forms no image.
NO_TERMS = (read_only(np.zeros(0, dtype=np.int64)), read_only(np.zeros(0)))


def closure(algebra: LieAlgebra, grading: Grading, tol: float = DEFAULT_TOL) -> tuple:
    """verify_grading's report and the coordinate terms of every [X_a, X_t] of
    the adapted basis on X_s: ``containment`` for the adjoint representation
    algebra.ad, with V = L graded by grading itself."""
    k = algebra.dim
    for lab, basis in grading.parts.items():
        if basis.shape[0] != k:
            raise InputError(f"part {lab} lives in dimension {basis.shape[0]}, expected {k}")
    pairs = basis_violations(grading, k, tol)
    if not grading.parts or any(where[0] == "non_finite" for where, _ in pairs):
        return Report.of(pairs, tol, checked=grading.total_dim**2), NO_TERMS
    ad = algebra.ad
    residuals, coords = containment((ad.gids, ad.rows, ad.cols, ad.vals),
                                    lambda x: np.tensordot(x.T, algebra.structure, 1).swapaxes(1, 2),
                                    k, k, grading, grading, tol)
    pairs += [((j, l), np.max(residuals[j, l], initial=0.0)) for j in grading.parts for l in grading.parts]
    return Report.of(pairs, tol, checked=grading.total_dim**2), coords


def verify_grading(algebra: LieAlgebra, grading: Grading, tol: float = DEFAULT_TOL) -> Report:
    """Check direct-sum and bracket-closure conditions of a grading: the
    report half of ``closure``, exact on coordinate and pair parts.  The
    residual of (j, l) is the largest distance of [X, L_l] from L_{j+l}
    over the columns X of L_j.  Parts that are not a direct sum of the
    algebra come first, as the violation ("direct_sum", total dim, rank,
    inf): no residual bounds them.  A part with a NaN or infinite entry has
    neither a rank nor a span: each is the violation ("non_finite", label,
    inf), and nothing else is checked, nor for a grading with no part
    (basis_violations).  The report carries checked = the
    number of bracket images, worst_at = (j, l) (None when all residuals
    are zero) and tol."""
    return closure(algebra, grading, tol)[0]


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
    labels = grading.labels()
    if not labels:
        raise VerificationError("grading has no vectors")
    lengths = {part.shape[0] for part in grading.parts.values()}
    if len(lengths) > 1:
        raise InputError(f"grading vectors of length {sorted(lengths)} do not live in one space")
    return labels, np.column_stack([grading.parts[lab] for lab in grading.sorted_labels()])
