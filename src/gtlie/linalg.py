"""Linear-algebra kernels with explicit tolerances.

Subspaces are matrices whose *columns* span them.  "Is this block W of
vectors inside that span?" is one test: an orthonormal basis Q of the
span, taken once (``orthonormal_span``), then ``span_distance`` =
max |W - Q (Q^H W)|.  ``independent_columns`` grows such a basis.

Mostly-zero matrices are multiplied by one sparse-product kernel.
``Entries`` is the one read-only table of their nonzero entries, put in
row order by its one constructor ``Entries.sort``, whether read from dense
matrices (``Entries.of``), stacked (``Entries.stack``) or written by a
caller: it is how gtrep stores generators, algebra an algebra
(LieAlgebra.ad) and contraction a contracted representation.  ``ranges`` lays index ranges end to end, ``row_join``
pairs entries with rows by it, ``product_terms`` forms every term of
every pairwise product, ``summed`` adds equal keys, and ``row_blocks``
splits the output rows so that a check forms about TERMS_PER_BLOCK terms
at a time.

Every bracket check asks one question, "do the matrices X_a satisfy
[X_a, X_b] = sum_l f_ab^l X_l?", and ``relation_sums`` answers it for
structure triples (a, b, l, f) with a < b: it yields, block by block, the
summed residual of each pair at every (row, col) the terms meet.  The gl(n)
relations of a GT representation (gtrep.verify_commutation), a contracted
representation (contraction.verify_rep_homomorphism) and the adjoint
matrices of an algebra (algebra.check_jacobi) are its three callers; the
GT build forms its nested commutators from product_terms directly.

Every ordering of integer keys goes through one sort kernel,
``stable_order``: from PACKED_SORT_MIN_KEYS keys on, each key is packed
with its position into one int64, (key - min) << bits | position, and
the packed values are sorted with the plain ``np.sort``.  They are
distinct and order first by key, then by position, so any sort of them
gives exactly the permutation of a stable argsort, and every equal-key
sum is formed in the same order.  Fewer keys, where the stable argsort's
lower fixed cost wins, and keys whose span leaves no room for the
position bits take the stable argsort itself.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9
# Most terms a blocked sparse check forms at once: verify_commutation of
# r(6,3,1,0) peaks at 1.09 MiB under tracemalloc (3.32 MiB at 2^15).
TERMS_PER_BLOCK = 1 << 13
# Fewest keys stable_order packs; fewer go to the stable argsort, whose fixed
# cost is lower.  On random keys the argsort takes 11 us against 13-22 us for
# the packed sort at 512 keys, about the same at 768, and 26-32 us against
# 18-19 us at 1024 (best of 7 x 2000 calls, 2-core x86 VM, one thread).
PACKED_SORT_MIN_KEYS = 768


def max_abs(a) -> float:
    """Sup norm; a NaN entry counts as infinite, so residual folds such as
    max(worst, max_abs(r)) fail closed instead of dropping it."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    top = float(np.max(np.abs(a)))
    return float("inf") if np.isnan(top) else top


def digest(*content) -> bytes:
    """blake2b digest of content: each array as its dtype, shape and C-order
    bytes (read in place when contiguous; an object array as the repr of its
    values), anything else as its repr, each piece length-prefixed.  The one
    content hash: each read-only input of a contraction caches its own as ``digest``."""
    h = hashlib.blake2b(digest_size=16)
    for x in content:
        if isinstance(x, np.ndarray):
            data = repr(x.tolist()).encode() if x.dtype.hasobject else np.ascontiguousarray(x).reshape(-1).view(np.uint8)
            pieces = (f"{x.dtype.str}{x.shape}".encode(), data)
        else:
            pieces = (repr(x).encode(),)
        for piece in pieces:
            h.update(len(piece).to_bytes(8, "little"))
            h.update(piece)
    return h.digest()


def read_only(a: np.ndarray) -> np.ndarray:
    """a flagged read-only in place when it owns its memory, else a read-only copy (a view stays
    writable through its base).  A writable view of an owned array, taken before the call, is
    the one case left to the caller to avoid."""
    if not a.flags.owndata:
        a = a.copy()
    a.flags.writeable = False
    return a


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
    starts[k]:starts[k + 1].  It is built only by Entries.sort, and owns its
    arrays and makes them read-only, so nothing derived from it can go stale."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    gids: np.ndarray
    starts: np.ndarray

    def __post_init__(self):
        for a in (self.rows, self.cols, self.vals, self.gids, self.starts):
            a.flags.writeable = False

    @staticmethod
    def sort(d: int, gids: np.ndarray, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> "Entries":
        """The one constructor: the entries vals[t] of matrix gids[t] at
        (rows[t], cols[t]), each place given once and in any order, put in
        (row, matrix, col) order by one stable_order of that key."""
        _, order = stable_order((rows * (int(gids.max(initial=-1)) + 1) + gids) * d + cols)
        rows = rows[order]
        return Entries(rows, cols[order], vals[order], gids[order], np.searchsorted(rows, np.arange(d + 1)))

    @staticmethod
    def stack(d: int, triples: list) -> "Entries":
        """The table of matrices g = 0, 1, ... given as triples (rows, cols,
        vals) of their nonzero entries."""
        gids = np.repeat(np.arange(len(triples)), [r.size for r, _, _ in triples])
        return Entries.sort(d, gids, *map(np.concatenate, zip(*triples)))

    @staticmethod
    def of(mats) -> "Entries":
        """Read from the dense matrices themselves, a (count, d, d) array
        of any strides (or a list of d x d matrices, stacked): one
        flatnonzero of mats != 0 lists the entries.  (On a 3-d array
        np.nonzero takes several times as long.)"""
        mats = np.asarray(mats)
        d = mats.shape[1]
        g, at = np.divmod(np.flatnonzero(mats != 0), d * d)
        r, c = np.divmod(at, d)
        return Entries.sort(d, g, r, c, mats[g, r, c])

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


def relation_sums(e: Entries, count: int, a: np.ndarray, b: np.ndarray, l: np.ndarray, f: np.ndarray):
    """The residuals of the relations [X_a, X_b] = sum_l f_ab^l X_l among the
    count matrices X of e, given as structure triples (a, b, l, f) with
    a < b: for each block of output rows (row_blocks), the distinct keys
    ((a count + b) d + row) d + col and the sum of [X_a, X_b] - sum_l f X_l
    at each, ascending (summed).

    The residual of (b, a) is the negated residual of (a, b), so each
    product term X_g[i, k] X_h[k, j] (product_terms) enters only the pair
    (min(g, h), max(g, h)), times sign(h - g), which is 0 for g == h; each
    entry of X_l then enters every pair with a triple at l, times -f.
    Terms come first, each part in the order of its entries, so equal keys
    add their values in one fixed order.  Only entries are joined, so the
    work is the number of terms, and a NaN or inf enters only the terms it
    is a factor of, never a dense product's NaN * 0: a caller that needs
    those relations to fail marks them itself."""
    d = e.dim
    l, order = stable_order(l)
    a, b, f = a[order], b[order], f[order]
    first = np.searchsorted(l, np.arange(count + 1))
    per, runs = np.diff(first), np.diff(e.starts)
    for r0, r1 in row_blocks(d, int(runs[e.cols].sum() + per[e.gids].sum())):
        g, h, at, term = product_terms(e, r0, r1)
        s = slice(e.starts[r0], e.starts[r1])
        t, u = ranges(first[e.gids[s]], per[e.gids[s]])
        keys = np.concatenate((
            (np.minimum(g, h) * count + np.maximum(g, h)) * (d * d) + at,
            ((a[u] * count + b[u]) * d + e.rows[s][t]) * d + e.cols[s][t],
        ))
        yield summed(keys, np.concatenate((term * np.sign(h - g), -f[u] * e.vals[s][t])))


def stable_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """keys sorted and the permutation that sorts them, equal keys in order
    of position: the result of np.argsort(keys, kind="stable"), bit for
    bit, for an int64 array.  From PACKED_SORT_MIN_KEYS keys on, each key
    is packed with its position p as (key - min) << bits | p, bits =
    bit_length(n - 1), sorted in place by np.sort and unpacked by shift and
    mask.  Fewer keys, or a key span of 2^(63 - bits) or more, which leaves
    no room for the position, are sorted by the stable argsort itself."""
    n = keys.size
    if n >= PACKED_SORT_MIN_KEYS:
        bits = (n - 1).bit_length()
        low = int(keys.min())
        if int(keys.max()) - low < 1 << (63 - bits):
            packed = keys - low
            packed <<= bits
            packed |= np.arange(n)
            packed.sort()
            order = packed & ((1 << bits) - 1)
            packed >>= bits
            packed += low
            return packed, order
    order = np.argsort(keys, kind="stable")
    return keys[order], order


def summed(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys and the sum of the values at each: one stable_order,
    one np.add.reduceat.  The order is stable, so each sum reads its values
    in order of position, and the same inputs give the same bits.  That is
    not a left fold: np.add.reduceat groups the additions its own way (for
    [a, -a, -b, b] it forms a + ((-a - b) + b)), so float values that
    cancel exactly can leave a rounding residue."""
    if not keys.size:
        return keys, values
    keys, order = stable_order(keys)
    values = values[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(values, starts)
