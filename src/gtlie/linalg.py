"""Dense linear-algebra helpers with explicit tolerances.

Subspaces are passed around as matrices whose *columns* are the spanning
vectors.  ``span_residual`` answers "is this vector in that span?" with
one lstsq per vector, which is cheap only while the span is small;
``orthonormal_span`` gives a basis Q once, after which the distance of a
whole block W of vectors is ``max |W - Q (Q^H W)|`` (as in
``autos.check_compatibility`` on carrier spaces in the hundreds).
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9


def as_complex_matrix(vectors) -> np.ndarray:
    """Stack a sequence of coordinate vectors into a (dim, count) column matrix."""
    arr = np.asarray(vectors, dtype=complex)
    if arr.size == 0:
        return arr.reshape(0, 0)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return arr.T.copy()


def max_abs(a) -> float:
    """Sup norm; a NaN entry counts as infinite, so residual folds such as
    max(worst, max_abs(r)) fail closed instead of dropping it."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    top = float(np.max(np.abs(a)))
    return float("inf") if np.isnan(top) else top


def rank(mat: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    if mat.size == 0:
        return 0
    s = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(s > tol * max(1.0, s[0])))


def span_residual(vec: np.ndarray, basis: np.ndarray) -> float:
    """Sup-norm distance from vec to the column span of basis."""
    vec = np.asarray(vec, dtype=complex)
    if basis.size == 0:
        return max_abs(vec)
    coef, *_ = np.linalg.lstsq(basis, vec, rcond=None)
    return max_abs(vec - basis @ coef)


def in_span(vec: np.ndarray, basis: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return span_residual(vec, basis) <= tol


def independent_columns(mat: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Greedy subset of columns forming a basis of the column space.

    Returns the selected columns themselves (no orthonormalization), so
    exact rational inputs stay exact.
    """
    if mat.size == 0:
        return mat.reshape(mat.shape[0] if mat.ndim == 2 else 0, 0)
    cols: list[np.ndarray] = []
    for j in range(mat.shape[1]):
        c = mat[:, j]
        if max_abs(c) <= tol:
            continue
        if not cols or span_residual(c, np.column_stack(cols)) > tol:
            cols.append(c)
    if not cols:
        return mat[:, :0]
    return np.column_stack(cols)


def orthonormal_span(vectors: list[np.ndarray], tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) for the span of flattened vectors."""
    if not vectors:
        return np.zeros((0, 0), dtype=complex)
    stacked = np.column_stack([np.asarray(v, dtype=complex).ravel() for v in vectors])
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    keep = s > tol * max(1.0, s[0] if s.size else 1.0)
    return u[:, keep]
