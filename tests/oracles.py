"""Per-vector reference implementations that the batched library kernels
are compared against: one bracket and one lstsq per image vector, one
lstsq per candidate column, and the dense k^4 Jacobi tensor."""

import numpy as np

from gtlie.algebra import TwoPartCase, bracket
from gtlie.autos import rep_matrix_of, rep_sl_matrices
from gtlie.linalg import max_abs, rank


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
    t = {
        key: {s for s in "ab" if all(span_residual(w, spans[s]) <= tol for w in vecs)}
        for key, vecs in products.items()
    }
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
    mats = rep_sl_matrices(rep)
    worst, labels = 0.0, []
    for i, xpart in gamma.parts.items():
        for col in range(xpart.shape[1]):
            m = rep_matrix_of(rep, xpart[:, col], mats)
            for j, vpart in vgamma.parts.items():
                target = vgamma.parts.get(vgamma.group.add(i, j), np.zeros((rep.dim, 0)))
                image = m @ vpart
                res = max(span_residual(image[:, b], target) for b in range(image.shape[1]))
                worst = max(worst, res)
                if res > tol:
                    labels.append((i, j))
    return not labels, worst, labels
