"""Linear-algebra kernels with explicit tolerances.

Subspaces are matrices whose *columns* span them.  "Is this block W of
vectors inside that span?" is one test: an orthonormal basis Q of the
span, taken once (``orthonormal_span``), then ``span_distance`` =
max |W - Q (Q^H W)|.  ``independent_columns`` grows such a basis.

Mostly-zero matrices are multiplied by one sparse-product kernel.
``Entries`` is the one read-only table of their nonzero entries, ordered
by row: it is either read from dense matrices (``Entries.of``) or stacked
from per-matrix (rows, cols, vals) lists (``Entries.stack``), and it is
how gtrep stores representation generators.  ``ranges`` lays index ranges
end to end, ``row_join`` pairs entries with rows by it,
``product_terms`` forms every term of every pairwise product,
``summed`` adds equal keys, and ``row_blocks`` splits the output rows so
that a check forms about TERMS_PER_BLOCK terms at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9
# Most terms a blocked sparse check forms at once (temporaries near 2 MiB).
TERMS_PER_BLOCK = 1 << 15


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


def orthonormal_span(mat, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the column span of mat, by thin SVD;
    zero-width when mat has no columns above tol * max(1, largest)."""
    mat = np.asarray(mat, dtype=complex)
    if not mat.shape[1]:
        return np.zeros((mat.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, s > tol * max(1.0, s[0])]


def span_distance(block: np.ndarray, q: np.ndarray) -> float:
    """Largest sup-norm distance of a column of block from the span of the
    orthonormal columns of q: max |W - Q (Q^H W)|."""
    return max_abs(block - q @ (q.conj().T @ block))


def independent_columns(mat: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Indices of the greedy column basis: column j is kept when its sup
    norm and its distance from the span of the columns kept before it
    exceed tol, measured on a running orthonormal basis of the kept columns
    (Gram-Schmidt, applied twice).  Callers take the columns themselves, so
    exact rational inputs stay exact."""
    q = np.zeros((mat.shape[0], 0), dtype=complex)
    keep = []
    for j, c in enumerate(np.asarray(mat).T):
        r = c - q @ (q.conj().T @ c)
        if max_abs(c) > tol and max_abs(r) > tol:
            keep.append(j)
            r -= q @ (q.conj().T @ r)
            q = np.column_stack([q, r / np.linalg.norm(r)])
    return np.array(keep, dtype=int)


@dataclass(frozen=True, eq=False)
class Entries:
    """Nonzero entries (NaN included) of one or more d x d matrices, ordered
    by (row, matrix, col): matrix gids[t] holds vals[t] at (rows[t],
    cols[t]), and the entries in row k are those at positions
    starts[k]:starts[k + 1].  The table owns its arrays and makes them
    read-only when it is built, so nothing derived from it can go stale."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    gids: np.ndarray
    starts: np.ndarray

    def __post_init__(self):
        for a in (self.rows, self.cols, self.vals, self.gids, self.starts):
            a.flags.writeable = False

    @staticmethod
    def stack(d: int, triples: list) -> "Entries":
        """The table of matrices g = 0, 1, ... given as triples (rows, cols,
        vals) of their nonzero entries in row-major order."""
        rows = np.concatenate([r for r, _, _ in triples])
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        return Entries(
            rows,
            np.concatenate([c for _, c, _ in triples])[order],
            np.concatenate([v for _, _, v in triples])[order],
            np.repeat(np.arange(len(triples)), [r.size for r, _, _ in triples])[order],
            np.searchsorted(rows, np.arange(d + 1)),
        )

    @staticmethod
    def of(mats: list) -> "Entries":
        """Read with np.nonzero from the dense matrices themselves."""
        found = [np.nonzero(m) for m in mats]
        return Entries.stack(mats[0].shape[0], [(r, c, m[r, c]) for m, (r, c) in zip(mats, found)])

    @property
    def dim(self) -> int:
        return self.starts.size - 1


def ranges(first: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges first[t]:first[t] + count[t] laid end to end, as pairs
    (t, u) of a range t and a position u in it."""
    t = np.repeat(np.arange(count.size), count)
    return t, np.arange(t.size) + np.repeat(first - (np.cumsum(count) - count), count)


def row_join(e: Entries, inner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (t, u) that join position t of inner with every entry u
    of e in row inner[t]; the work is the number of pairs."""
    return ranges(e.starts[inner], e.starts[inner + 1] - e.starts[inner])


def product_terms(e: Entries, r0: int, r1: int) -> tuple:
    """Every term X_g[i, k] X_h[k, j] of every product of two of e's
    matrices, for the output rows r0 <= i < r1, unsummed, as arrays
    (g, h, i d + j, value): each entry at (i, k) joined with row k, so the
    work is the number of terms, not d^3."""
    d = e.starts.size - 1
    s = slice(e.starts[r0], e.starts[r1])
    t, u = row_join(e, e.cols[s])
    return e.gids[s][t], e.gids[u], e.rows[s][t] * d + e.cols[u], e.vals[s][t] * e.vals[u]


def row_blocks(d: int, terms: int):
    """1 + terms // TERMS_PER_BLOCK slices (r0, r1) of d output rows."""
    edges = np.linspace(0, d, 2 + terms // TERMS_PER_BLOCK).astype(int)
    return zip(edges[:-1], edges[1:])


def summed(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys and the sum of the values at each: one stable sort,
    one np.add.reduceat."""
    if not keys.size:
        return keys, values
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(values, starts)
