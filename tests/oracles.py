"""Per-vector reference implementations that the batched library kernels
are compared against: one bracket and one lstsq per image vector, one
lstsq per candidate column, the dense k^4 Jacobi tensor, one commutator
per pair of sl(n) basis matrices, one Python sum per represented algebra
element, the sl(n) basis matrices one label at a time from the dense
generators, one solve per contracted operator, one generator sum per
homomorphism relation, the contracted algebra by one solve on the adapted
basis, the contraction tables checked one cell and one
triple at a time in Fraction arithmetic (and enumerated one candidate
table at a time), the doubled representation built from dense blocks
or ordered by np.lexsort, the Gel'fand-Tseitlin patterns enumerated by
recursion as GTPattern objects, their row sums, diagonal action,
conjugation and inner phases one pattern at a time, the generators built
one pattern and one move at a time with exact Fraction radicands, the
commutation check summing every product term in both orientations of its
relation pair, the equal-key sums ordered by a stable argsort, and the
action of an automorphism on sl(n) one basis matrix at a time, the
eigenspaces of an operator from its dense projectors and the greedy
column basis of each, with the dense power check, the content digest
over a tobytes() copy of each array, the pair images of the
containment kernel as one dense (keys x labels) table times each grading
part, the bracket blocks as two tensordots over the dense structure
tensor (and the split verdict and the dense grading path on them), the
distance of an image block from a span as its projection residual alone,
the exact pair path of the containment kernel against its dense path forced
on the same parts,
the dense path of the containment kernel with each part factored twice
(pseudo-inverse and orthonormal basis) and one distance per image block,
and the dense matrices of an entries table as one scatter."""

import cmath
import functools
import hashlib
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import numpy as np

from gtlie import algebra as algebra_module
from gtlie.algebra import (
    LieAlgebra,
    Report,
    TwoPartCase,
    _real_if_real,
    bracket,
    check_jacobi,
    grading_adapted_basis,
    matrix_to_coords,
    sl_basis_labels,
    sl_basis_matrices,
    verify_grading,
)
from gtlie.autos import Automorphism, auto_inner, eta
from gtlie.contraction import EpsilonTable, PsiTable, verify_epsilon
from gtlie.errors import InputError, VerificationError
from gtlie.gtrep import GeneratorRep, HighestWeight
from gtlie.linalg import (Entries, independent_columns, max_abs, product_terms, ranges, rank, row_blocks,
                          stable_order, summed)


def span_distance(block: np.ndarray, q: np.ndarray) -> float:
    """Largest sup-norm distance of a column of block from the span of the
    orthonormal columns of q: max |W - Q (Q^H W)|."""
    return max_abs(block - q @ (q.conj().T @ block))


def orthonormal_span(mat, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis (columns) of the column span of mat, by thin SVD;
    zero-width when mat has no columns above tol * max(1, largest)."""
    mat = np.asarray(mat, dtype=complex)
    if not mat.shape[1]:
        return np.zeros((mat.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, s > tol * max(1.0, s[0])]


def capped_span_distance(block: np.ndarray, q: np.ndarray) -> float:
    """Largest sup-norm distance of a column w of block from the span of the orthonormal
    columns of q, each the smaller of |w - Q (Q^H w)| and |w| (0 lies in every span)."""
    residual = np.abs(block - q @ (q.conj().T @ block)).max(axis=0, initial=0.0)
    return max_abs(np.minimum(residual, np.abs(block).max(axis=0, initial=0.0)))


def span_residuals(images, d: int, gamma, vgamma, first: dict, tol: float, distance=capped_span_distance) -> tuple:
    """The containment kernel's dense path with every part factored twice, by np.linalg.pinv and by
    orthonormal_span, and each image block W = r(X) V_j measured by its own distance call: residuals
    {(i, j): one per column of gamma part i}, and as coordinates the target part's pseudo-inverse times
    each block W.  A part with a NaN or infinite entry has no orthonormal basis: it gets one NaN column,
    so every distance from it is NaN, which Report.of reads as inf, and no coordinates."""
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
            out[i, j] = [distance(w, bases.get(target, absent)) for w in blocks]
            if target in inverses:
                c = inverses[target] @ np.array(blocks)  # (X, target column, V_j column)
                a, s, t = np.indices(c.shape)
                coords.append(((((first[i] + a) * d + vfirst[target] + s) * d + vfirst[j] + t).ravel(), c.ravel()))
    return out, coords


def span_residual(vec, basis) -> float:
    """Sup-norm distance from vec to the column span of basis, by lstsq."""
    vec = np.asarray(vec, dtype=complex)
    if basis.size == 0:
        return max_abs(vec)
    coef, *_ = np.linalg.lstsq(basis, vec, rcond=None)
    return max_abs(vec - basis @ coef)


def per_vector_grading(algebra, grading, tol):
    """verify_grading one bracket pair at a time; returns (ok, max residual,
    violation labels in order)."""
    k = algebra.dim
    stacked = np.column_stack([p for p in grading.parts.values() if p.shape[1]] or [np.zeros((k, 0))])
    labels = []
    if grading.total_dim != k or rank(stacked, tol) != k:
        labels.append("direct_sum")
    worst = 0.0
    for j, pj in grading.parts.items():
        for l, pl in grading.parts.items():
            target = grading.parts.get(grading.group.add(j, l), np.zeros((k, 0)))
            res = 0.0
            for a in range(pj.shape[1]):
                for b in range(pl.shape[1]):
                    res = max(res, span_residual(bracket(pj[:, a], pl[:, b], algebra), target))
            worst = max(worst, res)
            if res > tol:
                labels.append((j, l))
    return not labels, worst, labels


def per_vector_classify(algebra, pa, pb, tol) -> TwoPartCase:
    """classify_two_part with one bracket and one lstsq per image vector."""
    spans = {"a": pa, "b": pb}

    def bracket_set(x, y):
        images = [bracket(x[:, a], y[:, b], algebra) for a in range(x.shape[1]) for b in range(y.shape[1])]
        return [w for w in images if max_abs(w) > tol]

    products = {"aa": bracket_set(pa, pa), "ab": bracket_set(pa, pb), "bb": bracket_set(pb, pb)}
    return two_part_verdict({
        key: {s for s in "ab" if all(span_residual(w, spans[s]) <= tol for w in vecs)}
        for key, vecs in products.items()
    })


def dense_classify(algebra, pa, pb, tol) -> TwoPartCase:
    """classify_two_part with its bracket blocks from dense_brackets: tiny images dropped, then one
    span distance per block and target."""
    parts = {"a": np.asarray(pa, dtype=complex), "b": np.asarray(pb, dtype=complex)}
    spans = {s: orthonormal_span(part, tol) for s, part in parts.items()}
    t = {}
    for x, y in ("aa", "ab", "bb"):
        images = dense_brackets(parts[x], parts[y], algebra)
        images = images[:, ~np.all(np.abs(images) <= tol, axis=0)]
        t[x + y] = {s for s in "ab" if span_distance(images, spans[s]) <= tol}
    return two_part_verdict(t)


def two_part_verdict(t: dict) -> TwoPartCase:
    """The verdict of classify_two_part from the targets t["aa"], t["ab"], t["bb"] that hold each
    bracket block."""
    if ("a" in t["aa"] and "b" in t["ab"] and "a" in t["bb"]) or (
        "b" in t["aa"] and "a" in t["ab"] and "b" in t["bb"]
    ):
        return TwoPartCase.Z2_GRADING
    if "a" in t["aa"] and "b" in t["bb"] and t["ab"]:
        return TwoPartCase.BOTH_CLOSED
    if t["aa"] and t["ab"] and t["bb"]:
        return TwoPartCase.NEITHER_CLOSED
    return TwoPartCase.NOT_A_GRADING


def greedy_columns(mat, tol) -> list:
    """Indices of the greedy column basis, one lstsq per candidate column."""
    keep = []
    for j in range(mat.shape[1]):
        c = mat[:, j]
        if max_abs(c) > tol and (not keep or span_residual(c, mat[:, keep]) > tol):
            keep.append(j)
    return keep


def dense_jacobi_residual(structure) -> float:
    """Sup norm of the dense k^4 Jacobi tensor of the structure constants."""
    c = structure
    return max_abs(
        np.einsum("jlm,imp->ijlp", c, c) + np.einsum("lim,jmp->ijlp", c, c) + np.einsum("ijm,lmp->ijlp", c, c)
    )


def per_vector_compatibility(rep, gamma, vgamma, tol):
    """check_compatibility with one lstsq per image vector; returns (ok,
    max residual, violation labels (i, j) in order)."""
    mats = per_label_sl_matrices(rep)
    worst, labels = 0.0, []
    for i, xpart in gamma.parts.items():
        for col in range(xpart.shape[1]):
            m = per_column_rep_matrix(xpart[:, col], mats)
            for j, vpart in vgamma.parts.items():
                target = vgamma.parts.get(vgamma.group.add(i, j), np.zeros((rep.dim, 0)))
                image = m @ vpart
                res = max(span_residual(image[:, b], target) for b in range(image.shape[1]))
                worst = max(worst, res)
                if res > tol:
                    labels.append((i, j))
    return not labels, worst, labels


def per_pair_sl_structure(n):
    """sl(n) structure constants from one dense commutator per basis pair,
    each expanded entry by entry."""
    mats = sl_basis_matrices(n)
    k = len(mats)
    structure = np.zeros((k, k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            structure[i, j] = entrywise_coords(n, mats[i] @ mats[j] - mats[j] @ mats[i])
    return structure


def entrywise_coords(n, mat) -> np.ndarray:
    """matrix_to_coords of one matrix, one entry at a time."""
    coords = [mat[r, c] for r in range(n) for c in range(n) if r != c]
    acc = 0.0 + 0.0j
    for r in range(n - 1):
        acc = acc + mat[r, r]
        coords.append(acc)
    return np.array(coords, dtype=complex)


def dense_brackets(p: np.ndarray, q: np.ndarray, algebra: LieAlgebra) -> np.ndarray:
    """All brackets [p_a, q_b] of the columns of p (k x A) and q (k x B) at
    once, einsum("ia,jb,ijl->lab") as two tensordots: column a B + b of the
    k x (A B) result is [p_a, q_b]."""
    left = np.tensordot(p, algebra.structure, axes=(0, 0))  # (a, j, l)
    return np.tensordot(left, q, axes=(1, 0)).transpose(1, 0, 2).reshape(algebra.dim, -1)


def with_tensordot_images(algebra, call):
    """call() with the dense path of the containment kernel on ad(x) as one tensordot over the dense
    structure tensor per grading part; a call that never reaches that path is a mistake in the test."""
    span_path = algebra_module._span_residuals

    def via_tensordot(images, *args):
        return span_path(lambda x: np.tensordot(x.T, algebra.structure, 1).swapaxes(1, 2), *args)

    with mock.patch.object(algebra_module, "_span_residuals", side_effect=via_tensordot) as patched:
        out = call()
    assert patched.called
    return out


def with_projection_distance(call):
    """call() with the containment kernel's dense path on the reference span_residuals, each image block
    measured by span_distance here: its projection residual alone, not capped at each image's sup norm."""
    uncapped = functools.partial(span_residuals, distance=span_distance)
    with mock.patch.object(algebra_module, "_span_residuals", side_effect=uncapped):
        return call()


def assert_pair_path_is_the_dense_path(call):
    """call() returns a report through the containment kernel's exact pair path alone, never its dense
    path; with the dense path forced on the same parts (no part read as coordinate vectors and pairs)
    the verdict is the same, every residual agrees within 1e-12, and so does the largest one at the pair
    path's worst_at.  Returns the report."""
    seen = {"pair": [], "dense": []}

    def recorded(name, path):
        def run(*args):
            out = path(*args)
            seen[name].append(out[0])
            return out
        return run

    pair_path, dense_path = algebra_module._pair_residuals, algebra_module._span_residuals
    with mock.patch.object(algebra_module, "_pair_residuals", side_effect=recorded("pair", pair_path)), \
            mock.patch.object(algebra_module, "_span_residuals", side_effect=recorded("dense", dense_path)):
        report = call()
        assert len(seen["pair"]) == 1 and not seen["dense"], "the dense path was entered"
        with mock.patch.object(algebra_module, "_pair_support", return_value=None):
            forced = call()
    (pair,), (dense,) = seen["pair"], seen["dense"]
    assert pair.keys() == dense.keys() and all(pair[key].shape == dense[key].shape for key in pair)
    assert all(max_abs(pair[key] - dense[key]) <= 1e-12 for key in pair)
    assert report.ok == forced.ok and abs(report.max_residual - forced.max_residual) <= 1e-12
    if report.worst_at is not None:
        assert abs(np.max(dense[report.worst_at]) - report.max_residual) <= 1e-12
    return report


def assert_same_as_reference_span_path(call):
    """call() returns (report, coordinate terms) through the containment kernel's dense path: its
    residuals must equal those of the reference span_residuals bit for bit, its report the reference's
    field for field, and its summed coordinates the reference's at the same keys within 1e-12.  Returns
    the report."""
    seen = {}

    def recorded(name, path):
        def run(*args):
            residuals, coords = path(*args)
            seen.setdefault(name, []).append(residuals)
            return residuals, coords
        return run

    kernel = algebra_module._span_residuals
    with mock.patch.object(algebra_module, "_span_residuals", side_effect=recorded("got", kernel)):
        report, terms = call()
    with mock.patch.object(algebra_module, "_span_residuals", side_effect=recorded("want", span_residuals)):
        want, want_terms = call()
    assert len(seen["got"]) == len(seen["want"]) == 1
    (got,), (expected,) = seen["got"], seen["want"]
    assert got.keys() == expected.keys() and all(np.array_equal(got[key], expected[key]) for key in got)
    assert report == want, (report, want)
    (keys, vals), (want_keys, want_vals) = summed(*terms), summed(*want_terms)
    assert np.array_equal(keys, want_keys) and max_abs(vals - want_vals) <= 1e-12
    return report


def conjugate_of_inner(n: int, seed: int) -> Automorphism:
    """Ad_{Q A Q^T} with A the inner (n,1) representative and Q a seeded orthogonal matrix: the same
    class as inner(n,1), with a dense grading basis."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    return Automorphism(kind="inner", matrix=q @ auto_inner(n, 1).matrix @ q.T, order=2)


def scattered(e: Entries, count: int) -> np.ndarray:
    """The count dense matrices of an entries table, one (count, d, d) array at the stored dtype
    holding vals at (gids, rows, cols): one scatter, with no product."""
    out = np.zeros((count, e.dim, e.dim), dtype=e.vals.dtype)
    out[e.gids, e.rows, e.cols] = e.vals
    return out


def solve_contract(algebra, gamma, eps, tol: float = 1e-9) -> tuple:
    """contract_algebra's labels, adapted basis, contracted algebra and Jacobi report by one solve on
    the adapted basis: every bracket of pairs a < b of its vectors in one dense_brackets block, scaled by eps
    and expanded by np.linalg.solve; the pairs b > a are their exact negatives."""
    cells = eps.floats()
    if not verify_grading(algebra, gamma, tol).ok:
        raise VerificationError("input grading fails verification")
    if not verify_epsilon(eps, tol).ok:
        raise VerificationError("epsilon table fails the contraction system")
    labels, basis = grading_adapted_basis(gamma)
    k = algebra.dim
    a, b = np.triu_indices(k, 1)
    scale = eps.on_labels(cells, labels, labels)[a, b]
    coeffs = np.linalg.solve(basis, dense_brackets(basis, basis, algebra)[:, a * k + b] * scale)
    structure = np.zeros((k, k, k), dtype=complex)
    structure[a, b] = coeffs.T
    structure[b, a] = -coeffs.T
    # labels come grouped, so a - labels.index(lab) counts within the part
    names = ["g" + ",".join(str(r) for r in lab) + f"_{a - labels.index(lab)}" for a, lab in enumerate(labels)]
    result = LieAlgebra(basis_names=tuple(names), structure=structure)
    jac = check_jacobi(result, tol)
    if not jac.ok:
        raise VerificationError(f"contracted algebra violates Jacobi (residual {jac.max_residual:.3g})")
    return tuple(labels), basis, result, jac


def per_vector_contract_rep(rep, vgamma, gamma, psi) -> list:
    """contract_rep's matrices, one per_column_rep_matrix and one solve per adapted
    algebra basis vector, scaled column by column by psi."""
    alabels, abasis = grading_adapted_basis(gamma)
    vlabels, vbasis = grading_adapted_basis(vgamma)
    mats = per_label_sl_matrices(rep)
    out = []
    for a in range(abasis.shape[1]):
        m = per_column_rep_matrix(abasis[:, a], mats)
        scale = [complex(psi.value(alabels[a], vlab)) for vlab in vlabels]
        out.append(np.linalg.solve(vbasis, m @ vbasis) * scale)
    return out


def contracted_matrices(crep) -> list:
    """The k dense matrices of a contracted representation, one scatter of
    its entries table."""
    return list(scattered(crep.entries, len(crep.labels)))


def per_pair_homomorphism(crep, calg, tol):
    """verify_rep_homomorphism one pair (a, b) at a time, the right side a
    generator sum over the l with c_abl != 0; returns (ok, max residual,
    violation labels (a, b) in row-major order)."""
    structure, mats = calg.result.structure, contracted_matrices(crep)
    k = len(mats)
    worst, labels = 0.0, []
    for a in range(k):
        for b in range(k):
            terms = (structure[a, b, l] * mats[l] for l in range(k) if structure[a, b, l] != 0)
            res = max_abs(mats[a] @ mats[b] - mats[b] @ mats[a] - sum(terms, np.zeros_like(mats[a])))
            worst = max(worst, res)
            if res > tol:
                labels.append((a, b))
    return not labels, worst, labels


def per_cell_residual(difference) -> float:
    """|difference()|, with NaN, a value past the float range and an
    OverflowError while forming it (a Fraction past the float range meeting
    a complex) as inf."""
    try:
        res = abs(complex(difference()))
    except OverflowError:
        return math.inf
    return math.inf if math.isnan(res) else res


def per_cell_epsilon(eps, tol) -> Report:
    """verify_epsilon one cell and one triple at a time, in the arithmetic
    of the cells themselves (Fraction, or complex where a cell is)."""
    g, v = eps.group, eps.value
    els = g.elements()
    residuals = {("symmetry", i, j): per_cell_residual(lambda: v(i, j) - v(j, i)) for i in els for j in els}
    for i, j, k in itertools.product(els, repeat=3):
        e1 = lambda: v(i, j) * v(g.add(i, j), k)
        e2 = lambda: v(j, k) * v(g.add(j, k), i)
        e3 = lambda: v(k, i) * v(g.add(k, i), j)
        residuals["triple", i, j, k] = max(
            per_cell_residual(lambda: e1() - e2()), per_cell_residual(lambda: e2() - e3())
        )
    return Report.of(residuals.items(), tol)


def per_cell_psi(psi, eps, tol) -> Report:
    """verify_psi one triple at a time."""
    g, v = psi.group, psi.value
    residuals = {}
    for i, j, k in itertools.product(g.elements(), repeat=3):
        p1 = lambda: v(j, k) * v(i, g.add(j, k))
        p2 = lambda: v(i, k) * v(j, g.add(i, k))
        p3 = lambda: eps.value(i, j) * v(g.add(i, j), k)
        residuals[i, j, k] = max(per_cell_residual(lambda: p1() - p2()), per_cell_residual(lambda: p2() - p3()))
    return Report.of(residuals.items(), tol)


def per_table_binary_epsilon(group) -> list:
    """enumerate_binary_epsilon one candidate table and one per_cell_epsilon
    at a time, over the free cells (i, j), i <= j, in product order."""
    els = group.elements()
    cells = [(i, j) for a, i in enumerate(els) for j in els[a:]]
    out = []
    for bits in itertools.product((0, 1), repeat=len(cells)):
        values = {}
        for (i, j), b in zip(cells, bits):
            values[(i, j)] = Fraction(b)
            values[(j, i)] = Fraction(b)
        table = EpsilonTable(group, values)
        if per_cell_epsilon(table, 0.0).ok:
            out.append(table)
    return out


def per_table_binary_psi(eps) -> list:
    """enumerate_binary_psi one candidate table and one per_cell_psi at a time."""
    els = eps.group.elements()
    cells = [(i, j) for i in els for j in els]
    out = []
    for bits in itertools.product((0, 1), repeat=len(cells)):
        table = PsiTable(eps.group, {cell: Fraction(b) for cell, b in zip(cells, bits)})
        if per_cell_psi(table, eps, 0.0).ok:
            out.append(table)
    return out


def dense_doubled_generators(rep) -> dict:
    """The generators of r + (-r^T) as dense (2d) x (2d) blocks."""
    d = rep.dim
    gen = {}
    for key, m in rep.gen.items():
        big = np.zeros((2 * d, 2 * d))
        big[:d, :d] = m
        big[d:, d:] = -m.T
        gen[key] = big
    return gen


def lexsorted_doubled_entries(rep) -> Entries:
    """The entries of r + (-r^T) put in (row, gid, col) order by np.lexsort:
    entry (i, k, v) of r and (k + d, i + d, -v)."""
    d, e = rep.dim, rep.entries
    rows, cols = np.concatenate([e.rows, e.cols + d]), np.concatenate([e.cols, e.rows + d])
    gids, vals = np.tile(e.gids, 2), np.concatenate([e.vals, -e.vals])
    at = np.lexsort((cols, gids, rows))
    return Entries(rows[at], cols[at], vals[at], gids[at], np.searchsorted(rows[at], np.arange(2 * d + 1)))


def stable_argsort_order(keys):
    """Sorted keys and np.argsort(keys, kind="stable")."""
    order = np.argsort(keys, kind="stable")
    return keys[order], order


def stable_summed(keys, values):
    """Distinct keys and the sum of the values at each: one stable argsort,
    one np.add.reduceat."""
    if not keys.size:
        return keys, values
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(values, starts)


def per_label_sl_matrices(rep) -> list:
    """The matrices of the canonical sl(n) basis elements, in order, one
    label at a time from the dense generators: r(E_kl) = gen(k, l) and
    r(H_k) = gen(k, k) - gen(k+1, k+1)."""
    out = []
    for label in sl_basis_labels(rep.n):
        if label[0] == "E":
            out.append(rep.gen[label[1], label[2]])
        else:
            k = label[1]
            out.append(rep.gen[k, k] - rep.gen[k + 1, k + 1])
    return out


def per_column_rep_matrix(coords, mats) -> np.ndarray:
    """Representation matrix of an algebra element: the Python sum of
    coords[i] mats[i] over the nonzero coordinates."""
    coords = np.asarray(coords, dtype=complex)
    out = np.zeros(np.shape(mats[0]), dtype=complex)
    for c, m in zip(coords, mats):
        if c != 0:
            out = out + c * m
    return out



def per_matrix_action_on_sl(aut, tol: float = 1e-9) -> np.ndarray:
    """Automorphism.action with the automorphism applied to one sl basis matrix at
    a time: A X A^{-1} (or -A X^T A^{-1}) as one outer-product rescaling
    for a diagonal A, else one solve per matrix; integral results snapped
    the same way."""
    a = aut.matrix
    images = []
    for m in sl_basis_matrices(aut.n):
        y = -m.T if aut.kind == "outer" else m
        if np.count_nonzero(a) == np.count_nonzero(np.diagonal(a)):
            images.append(y * np.outer(np.diag(a), 1.0 / np.diag(a)))
        else:
            images.append(np.linalg.solve(a.T, (a @ y).T).T)
    act = matrix_to_coords(aut.n, np.array(images), tol).T
    rounded = np.round(act)
    return rounded if max_abs(act - rounded) <= 1e-12 * max(1.0, max_abs(act)) else act


def per_column_compatibility(rep, gamma, vgamma, tol):
    """check_compatibility with each r(X) a per_column_rep_matrix, each image
    block measured by dense_span_distance; returns (ok, max residual,
    violations (i, j, res) in order, worst_at)."""
    mats = per_label_sl_matrices(rep)
    disjoint = all(
        np.isfinite(p).all() and (p != 0).sum(axis=1).max(initial=0) <= 1 and (p != 0).sum(axis=0).max(initial=0) <= 2
        for p in vgamma.parts.values()
    )
    worst, worst_at, violations = 0.0, None, []
    for i, xpart in gamma.parts.items():
        for col in range(xpart.shape[1]):
            m = per_column_rep_matrix(xpart[:, col], mats)
            for j, vpart in vgamma.parts.items():
                target = vgamma.parts.get(vgamma.group.add(i, j), np.zeros((rep.dim, 0)))
                res = dense_span_distance(m @ vpart, target, disjoint, tol)
                if res > worst:
                    worst, worst_at = res, (i, j)
                if res > tol:
                    violations.append((i, j, res))
    return not violations, worst, violations, worst_at


def dense_span_distance(block, part, disjoint, tol) -> float:
    """max |W - P W| for the orthogonal projector P onto the span of the
    columns of part, on dense arrays: for disjoint column supports,
    T T^H / |T|^2 column by column over the columns T of norm above
    tol * max(1, largest); otherwise Q Q^H with Q from orthonormal_span."""
    if not disjoint:
        return span_distance(block, orthonormal_span(part, tol))
    norms = np.linalg.norm(part, axis=0)
    t = part[:, norms > tol * max(1.0, norms.max(initial=0.0))]
    return max_abs(block - t @ ((t.conj().T @ block) / (np.abs(t) ** 2).sum(axis=0)[:, None]))


def per_column_simulation(rep, aut, sim, tol):
    """verify_simulation with each r(g(x)) a per_column_rep_matrix of the
    column of aut.action, R r(x) R^-1 and R^order dense; returns (ok,
    max residual, violations (label, res) in order, worst_at)."""
    mats = per_label_sl_matrices(rep)
    n, r, rinv = rep.n, sim.matrix, sim.inverse()
    act = aut.action
    residuals = []
    for lab, coords, m in zip(sl_basis_labels(n), act.T, mats):
        lhs = per_column_rep_matrix(coords, mats)
        residuals.append((lab, max_abs(lhs - r @ m @ rinv)))
    residuals.append(("power", max_abs(np.linalg.matrix_power(r, sim.order) - np.eye(sim.dim))))
    worst_at, worst = max(residuals, key=lambda item: item[1])
    violations = [(at, res) for at, res in residuals if res > tol]
    return not violations, worst, violations, (worst_at,) if worst else None


# -- Gel'fand-Tseitlin patterns, one recursion and one pattern at a time -----


@dataclass(frozen=True)
class GTPattern:
    """Triangular pattern; rows stored top-down (lengths n, n-1, ..., 1)."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        """m_{i,j}: entry i (1-based) of the row of length j."""
        return self.rows[self.n - j][i - 1]

    def is_valid(self) -> bool:
        for j in range(1, self.n):
            upper = self.rows[self.n - j - 1]  # length j + 1
            lower = self.rows[self.n - j]  # length j
            for i in range(j):
                if not (upper[i] >= lower[i] >= upper[i + 1]):
                    return False
        return True

    def flatten(self) -> tuple[int, ...]:
        return tuple(x for row in self.rows for x in row)

    def __str__(self):
        return "/".join(" ".join(str(x) for x in row) for row in self.rows)


def _fill_rows(rows: list[tuple[int, ...]], out: list[GTPattern]):
    prev = rows[-1]
    j = len(prev) - 1
    if j == 0:
        out.append(GTPattern(tuple(rows)))
        return
    ranges = [range(prev[i], prev[i + 1] - 1, -1) for i in range(j)]

    def rec(pos: int, acc: list[int]):
        if pos == j:
            rows.append(tuple(acc))
            _fill_rows(rows, out)
            rows.pop()
            return
        for v in ranges[pos]:
            acc.append(v)
            rec(pos + 1, acc)
            acc.pop()

    rec(0, [])


def enumerate_patterns(hw: HighestWeight) -> list[GTPattern]:
    """All valid patterns with the given top row, in descending lexicographic
    order of the flattened (row-major, top-down) tuple, by recursion over
    the rows and, within a row, over the entries."""
    out: list[GTPattern] = []
    _fill_rows([tuple(hw.m)], out)
    return out


def recursive_pattern_array(hw: HighestWeight) -> np.ndarray:
    """The flattened recursive patterns as one (d, n(n+1)/2) int64 array."""
    return np.array([p.flatten() for p in enumerate_patterns(hw)], dtype=np.int64)


def row_sum(p: GTPattern, k: int) -> int:
    """r_k = m_{1,k} + ... + m_{k,k}; r_0 = 0."""
    if not 0 <= k <= p.n:
        raise InputError(f"row index {k} out of range 0..{p.n}")
    if k == 0:
        return 0
    return sum(p.rows[p.n - k])


def act_diagonal(p: GTPattern, k: int) -> int:
    """Eigenvalue of E_kk on xi(p), i.e. r_k - r_{k-1}."""
    if not 1 <= k <= p.n:
        raise InputError(f"generator index {k} out of range 1..{p.n}")
    return row_sum(p, k) - row_sum(p, k - 1)


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


# -- Gel'fand-Tseitlin generators, one pattern and one move at a time --------


@dataclass(frozen=True)
class Radicand:
    """A coefficient of the form sign * sqrt(value) with exact rational value."""

    sign: int
    value: Fraction

    def __post_init__(self):
        if self.value < 0:
            raise ArithmeticError(f"negative radicand {self.value}")
        if self.value == 0 and self.sign != 0:
            raise ArithmeticError("zero radicand must carry sign 0")

    def to_float(self) -> float:
        return self.sign * math.sqrt(self.value)

    def __str__(self):
        return f"{self.sign}*sqrt({self.value.numerator}/{self.value.denominator})"

    @staticmethod
    def parse(s: str) -> "Radicand":
        sign_part, _, rad = s.partition("*sqrt(")
        return Radicand(int(sign_part), Fraction(rad.rstrip(")")))


def replaced(p: GTPattern, i: int, j: int, value: int) -> GTPattern:
    """p with entry i of the row of length j set to value."""
    rows = [list(r) for r in p.rows]
    rows[p.n - j][i - 1] = value
    return GTPattern(tuple(tuple(r) for r in rows))


def shift_numerator(p: GTPattern, k: int, j: int, shift: int) -> int:
    """Numerator of the exact radicand (before the leading minus sign) of
    the coefficient that moves entry j of row k-1 by shift: shift = -1 gives
    the lowering coefficient a_{k-1}^j, shift = +1 the raising coefficient
    b_{k-1}^j, both evaluated on the source pattern p."""
    mj = p.entry(j, k - 1)
    d = 0 if shift < 0 else -1
    num = 1
    for i in range(1, k + 1):
        num *= p.entry(i, k) - mj - i + j + 1 + d
    for i in range(1, k - 1):
        num *= p.entry(i, k - 2) - mj - i + j + d
    return num


def shift_denominator(p: GTPattern, k: int, j: int, shift: int) -> int:
    """Denominator of the radicand whose numerator shift_numerator gives."""
    mj = p.entry(j, k - 1)
    d = 0 if shift < 0 else -1
    den = 1
    for i in range(1, k):
        if i == j:
            continue
        den *= (p.entry(i, k - 1) - mj - i + j + 1 + d) * (p.entry(i, k - 1) - mj - i + j + d)
    if den == 0:
        raise ZeroDivisionError(f"zero denominator at j={j}, k={k} on {p}: pattern-validity bug")
    return den


def act_shift(p: GTPattern, k: int, shift: int) -> list:
    if not 2 <= k <= p.n:
        raise InputError(f"generator index {k} out of range 2..{p.n}")
    terms = []
    for j in range(1, k):
        num = shift_numerator(p, k, j, shift)
        target = replaced(p, j, k - 1, p.entry(j, k - 1) + shift)
        if not target.is_valid():
            if num != 0:
                raise ArithmeticError(f"skipped move j={j}, k={k} on {p} has nonzero numerator {num}")
            continue
        rad = Fraction(-num, shift_denominator(p, k, j, shift))
        if rad < 0:
            raise ArithmeticError(f"negative radicand {rad} at j={j}, k={k} on {p}")
        terms.append((target, Radicand(0 if rad == 0 else 1, rad)))
    return terms


def act_lowering(p: GTPattern, k: int) -> list:
    """Terms (target, Radicand) of E_{k,k-1} xi(p): targets lower one entry
    of row k-1 by 1."""
    return act_shift(p, k, -1)


def act_raising(p: GTPattern, k: int) -> list:
    """Terms (target, Radicand) of E_{k-1,k} xi(p): targets raise one entry
    of row k-1 by 1."""
    return act_shift(p, k, +1)


def per_pattern_generators(hw: HighestWeight) -> dict:
    """The n^2 dense generators of the irrep hw: the diagonal and neighbour
    generators one pattern and one move at a time, the nested commutators
    E_kl = [E_k,l-1, E_l-1,l], E_lk = [E_l,l-1, E_l-1,k] with the sparse
    product kernel read from the dense matrices and written back densely."""
    pats = enumerate_patterns(hw)
    d = len(pats)
    index = {p: i for i, p in enumerate(pats)}
    n = hw.n
    trace_shift = hw.weight_sum / n
    gen = {(a, b): np.zeros((d, d)) for a in range(1, n + 1) for b in range(1, n + 1)}
    for k in range(1, n + 1):
        np.fill_diagonal(gen[(k, k)], [act_diagonal(p, k) - trace_shift for p in pats])
    for k in range(2, n + 1):
        low, high = gen[(k, k - 1)], gen[(k - 1, k)]
        for c, p in enumerate(pats):
            for q, rad in act_lowering(p, k):
                low[index[q], c] = rad.to_float()
            for q, rad in act_raising(p, k):
                high[index[q], c] = rad.to_float()

    def commutator(a, b, out):
        g, h, at, term = product_terms(Entries.of([a, b]), 0, d)
        cross = g != h
        keys, sums = summed(at[cross], np.where(g[cross] == 0, term[cross], -term[cross]))
        np.put(out, keys, sums)

    for dist in range(2, n):
        for k in range(1, n + 1 - dist):
            l = k + dist
            commutator(gen[(k, l - 1)], gen[(l - 1, l)], gen[(k, l)])
            commutator(gen[(l, l - 1)], gen[(l - 1, k)], gen[(l, k)])
    return gen


def two_orientation_commutation(rep: GeneratorRep, tol: float = 1e-9) -> Report:
    """verify_commutation summing every relation in both orientations: each
    product term X_g X_h enters relation (g, h) with + and (h, g) with -,
    and each expected entry of gen(x, y) enters ((x, m), (m, y)) with - and
    ((m, y), (x, m)) with +, all n^4 relations summed and maximized."""
    n, d = rep.n, rep.dim
    labels = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    nn, size = n * n, d * d
    every = rep.entries
    m = np.arange(n)
    products = int(np.diff(every.starts)[every.cols].sum())
    worst, worst_at = 0.0, None
    for r0, r1 in row_blocks(d, 2 * products + 2 * n * every.rows.size):
        g, h, at, term = product_terms(every, r0, r1)
        s = slice(every.starts[r0], every.starts[r1])
        x, y = np.divmod(every.gids[s], n)
        x, y = x[:, None], y[:, None]
        at_e = np.repeat(every.rows[s] * d + every.cols[s], n)
        val_e = np.repeat(every.vals[s], n)
        keys = np.concatenate((
            (g * nn + h) * size + at,
            (h * nn + g) * size + at,
            ((x * n + m) * nn + m * n + y).ravel() * size + at_e,
            ((m * n + y) * nn + x * n + m).ravel() * size + at_e,
        ))
        keys, sums = summed(keys, np.concatenate((term, -term, -val_e, val_e)))
        res = max_abs(sums)
        if res > worst:
            rel = int(keys[np.argmax(np.abs(sums))]) // size
            worst, worst_at = res, (labels[rel // nn], labels[rel % nn])
    return Report(ok=worst <= tol, max_residual=worst, checked=n**4, worst_at=worst_at, tol=tol)


def dense_eigenspaces(m: np.ndarray, order: int, tol: float) -> list[np.ndarray]:
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


def dense_power_residual(m: np.ndarray, order: int) -> float:
    """max |m^order - Id| from the dense matrix power."""
    return max_abs(np.linalg.matrix_power(m, order) - np.eye(m.shape[0]))


def copied_digest(*content) -> bytes:
    """linalg.digest with each array's bytes taken as a tobytes() copy."""
    h = hashlib.blake2b(digest_size=16)
    for x in content:
        if isinstance(x, np.ndarray):
            data = repr(x.tolist()).encode() if x.dtype.hasobject else x.tobytes()
            pieces = (f"{x.dtype.str}{x.shape}".encode(), data)
        else:
            pieces = (repr(x).encode(),)
        for piece in pieces:
            h.update(len(piece).to_bytes(8, "little"))
            h.update(piece)
    return h.digest()


def dense_pair_residuals(entries: tuple, k: int, d: int, gamma, vgamma, supports: dict, first: dict, tol: float) -> tuple:
    """algebra._pair_residuals as it was with a dense image table: residuals
    {(i, j): one per column of gamma part i} on the entries, and the
    coordinate terms (first: the position of each gamma part's X_0).

    The columns of all V parts are numbered in one sequence (global
    columns, in the adapted order).  Each nonzero of a V column at basis
    row c is joined with the entries of every r(x) in column c: summed,
    they give the image keys (global column, row) and the (K, k) table T
    with r(x) v = T[:, x] there, for every basis element x.  For gamma
    part i the images of all its X columns are one product T X.

    Against the target part V_{i+j}, an image entry w_r whose row lies in
    no kept column of the target counts whole; a coordinate column e_r
    holds it exactly; for a pair column tau = tau_r e_r + tau_q e_q the
    distance of (w_r, w_q) from the span of tau is max(|tau_r|, |tau_q|)
    |tau_q w_r - tau_r w_q| / |tau|^2, with w_q read at the key (column, q)
    and zero where there is none.  On the kept column blk that holds the
    row, w_r adds the term conj(tau_r) w_r / |tau|^2 to the coordinate.
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
    out, coords = {}, []
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
            out[i, j] = res[bounds[p] : bounds[p + 1]].max(axis=0, initial=0.0)
        held, x = np.nonzero((blk >= 0)[:, None] & (images != 0))
        at = ((first[i] + x) * d + blk[held]) * d + gcol[held]
        coords.append((at, np.conj(t_row[held, 0]) / norm2[blk[held]] * images[held, x]))
    return out, coords


def with_dense_pair_residuals(call):
    """call() with the containment kernel's pair path on dense_pair_residuals;
    a call that never reaches the pair path is a mistake in the test."""
    with mock.patch.object(algebra_module, "_pair_residuals", side_effect=dense_pair_residuals) as pair_path:
        out = call()
    assert pair_path.called
    return out


def assert_same_as_dense_pair_path(call):
    """call() returns (report, coordinate terms): the report must equal the
    one of the dense pair path field for field, and the summed coordinates
    its summed coordinates byte for byte.  Returns the report."""
    report, terms = call()
    want, want_terms = with_dense_pair_residuals(call)
    assert report == want, (report, want)
    for got, expected in zip(summed(*terms), summed(*want_terms)):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    return report
