"""Gel'fand-Tseitlin bases and irreducible representations of sl(n, C).

An irreducible representation is labelled by a weakly decreasing tuple of
non-negative integers (m_1, ..., m_n) with m_n = 0.  Its carrier space is
indexed by triangular patterns: integer arrays with rows of lengths
n, n-1, ..., 1 (top row fixed to the weight) obeying the betweenness
conditions  m[i, j+1] >= m[i, j] >= m[i+1, j+1].

The generators act by

    E_kk      xi(m) = (r_k - r_{k-1}) xi(m),    r_k = sum of row k,
    E_k,k-1   xi(m) = sum_j a_j xi(m with m[j, k-1] -> m[j, k-1] - 1),
    E_k-1,k   xi(m) = sum_j b_j xi(m with m[j, k-1] -> m[j, k-1] + 1),

with square-root coefficients whose radicands are exact rationals; the
remaining E_kl follow by nested commutators.  The stored diagonal
generators are shifted by -(r_n / n) Id so that sum_k r(E_kk) = 0 and the
generator matrices realize elements of sl(n); the shift is scalar, so all
gl-type commutation relations are untouched.

The generators are almost entirely zero (about 11 nonzeros per basis
vector for n = 3), so a representation stores them once, as one
``linalg.Entries`` table over the n^2 labels.  ``build_representation``
fills it from one integer array of all patterns, forming each coefficient
over all patterns at once in exact integers, and the verifiers read it
directly.  The table is read-only, so what is derived from it is formed
once and cached.  The two dense views, ``rep.gen`` (the n^2 generators by
label) and ``rep.sl_stack`` (the (n^2 - 1, d, d) array of r(sl basis) that
simulation, compatibility and contraction read), are each one scatter of
entries into a read-only array, after the one check against
GENERATOR_BUDGET_BYTES; this module is the only place that densifies a
representation.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .algebra import Report
from .errors import InputError
from .linalg import DEFAULT_TOL, Entries, max_abs, product_terms, row_blocks, summed

__all__ = [
    "HighestWeight",
    "GTPattern",
    "enumerate_patterns",
    "PatternTable",
    "weyl_dim",
    "row_sum",
    "act_diagonal",
    "build_representation",
    "GENERATOR_BUDGET_BYTES",
    "check_generator_budget",
    "GeneratorRep",
    "Representation",
    "verify_commutation",
    "verify_transpose",
    "verify_sl_trace",
]


@dataclass(frozen=True)
class HighestWeight:
    """Weakly decreasing non-negative integer weight with last entry 0."""

    n: int
    m: tuple[int, ...]

    def __post_init__(self):
        if self.n < 2:
            raise InputError("need n >= 2")
        m = tuple(int(x) for x in self.m)
        object.__setattr__(self, "m", m)
        if len(m) != self.n:
            raise InputError(f"weight {m} must have {self.n} entries")
        if any(x < 0 for x in m):
            raise InputError(f"weight entries must be non-negative: {m}")
        if any(m[i] < m[i + 1] for i in range(self.n - 1)):
            raise InputError(f"weight must be weakly decreasing: {m}")
        if m[-1] != 0:
            raise InputError(f"weight must be normalized with last entry 0: {m}")

    @property
    def weight_sum(self) -> int:
        return sum(self.m)

    def __str__(self):
        return "(" + ",".join(str(x) for x in self.m) + ")"


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

    @property
    def entry_sum(self) -> int:
        return sum(self.flatten())

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
    order of the flattened (row-major, top-down) tuple.

    The highest-weight pattern comes first; this fixed order is the basis
    order of the representation.
    """
    out: list[GTPattern] = []
    _fill_rows([tuple(hw.m)], out)
    return out


def _offset(n: int, length: int) -> int:
    """Column of entry 1 of the row of the given length in a flattened
    (row-major, top-down) pattern."""
    return (n * (n + 1) - length * (length + 1)) // 2


def _mixed_radix(lower: np.ndarray, base: np.ndarray, place: np.ndarray) -> np.ndarray:
    return ((lower - base).astype(place.dtype) * place).sum(axis=1)


@dataclass(frozen=True, eq=False)
class PatternTable:
    """The patterns of an irrep in basis order and their flattenings, the
    rows of one (d, n(n+1)/2) int64 array ``arr``.

    The descending-lex basis order makes a mixed-radix key of the entries
    below the top row descending (``keys``); each digit has room for one
    step past its column's range, so ``find`` looks up the patterns of
    any rows of such keys with one searchsorted.
    """

    patterns: list
    arr: np.ndarray
    base: np.ndarray  # digit c is the entry n + c minus base[c]
    place: np.ndarray  # place value of each digit (object dtype past int64)
    keys: np.ndarray

    @staticmethod
    def of(hw: HighestWeight) -> "PatternTable":
        pats = enumerate_patterns(hw)
        arr = np.array([p.flatten() for p in pats], dtype=np.int64)
        lower = arr[:, hw.n :]
        base = lower.min(axis=0) - 1
        radix = [int(r) for r in lower.max(axis=0) - base + 2]
        key_kind = np.int64 if math.prod(radix) < 2**63 else object
        place = np.array([math.prod(radix[c + 1 :]) for c in range(len(radix))], dtype=key_kind)
        return PatternTable(pats, arr, base, place, _mixed_radix(lower, base, place))

    def key(self, lower: np.ndarray) -> np.ndarray:
        """Keys of the rows of lower, entries n, n+1, ... of flattened
        patterns each within one step of its column's range."""
        return _mixed_radix(lower, self.base, self.place)

    def row(self, k: int) -> np.ndarray:
        """The rows of length k of all patterns, a (d, k) view of arr."""
        n = self.patterns[0].n
        return self.arr[:, _offset(n, k) : _offset(n, k) + k]

    def find(self, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Basis index of the pattern with each key in target (any shape),
        and whether there is one."""
        ascending = self.keys[::-1]
        d = ascending.size
        pos = np.minimum(np.searchsorted(ascending, target), d - 1)
        return d - 1 - pos, ascending[pos] == target


def weyl_dim(hw: HighestWeight) -> int:
    """Dimension by the product formula prod_{i<j} (m_i - m_j + j - i)/(j - i).

    Independent of pattern enumeration; the two must agree.
    """
    total = Fraction(1)
    for i in range(hw.n):
        for j in range(i + 1, hw.n):
            total *= Fraction(hw.m[i] - hw.m[j] + j - i, j - i)
    if total.denominator != 1:
        raise ArithmeticError(f"Weyl product for {hw} is not an integer: {total}")
    return int(total)


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


def _radicands(m: np.ndarray, n: int, k: int, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """Numerators num and denominators den, as (d, k-1) arrays over every
    pattern (row of m) and every j (column j-1), of the exact radicands
    -num/den of the coefficients that move entry j of row k-1 by shift:
    shift = -1 gives the lowering coefficients a_{k-1}^j, shift = +1 the
    raising coefficients b_{k-1}^j, both evaluated on the source pattern.

    With c = 0 for lowering and c = -1 for raising, the two formulas share
    one shape: numerator over rows k and k-2, denominator over row k-1
    without its factor i = j.
    """
    c = 0 if shift < 0 else -1
    mj = m[:, _offset(n, k - 1) : _offset(n, k - 1) + k - 1][:, :, None]

    def factors(length: int, extra: int) -> np.ndarray:
        """(d, k-1, length): m_{i,length} - m_{j,k-1} + j - i + extra."""
        i, j = np.arange(1, length + 1), np.arange(1, k)[:, None]
        row = m[:, _offset(n, length) : _offset(n, length) + length]
        return row[:, None, :] - mj + (j - i + extra).astype(m.dtype)

    num = np.prod(factors(k, 1 + c), axis=2) * np.prod(factors(k - 2, c), axis=2)
    pairs = factors(k - 1, 1 + c) * factors(k - 1, c)
    pairs[:, np.arange(k - 1), np.arange(k - 1)] = 1
    return num, np.prod(pairs, axis=2)


def _commutator(d: int, a: tuple, b: tuple) -> tuple:
    """The row-major (rows, cols, vals) of a @ b - b @ a, formed from the
    row-major triples of a and b with the sparse product kernel, about
    linalg.TERMS_PER_BLOCK terms at a time.  Exact zeros are dropped, as
    np.nonzero would drop them from a dense result."""
    e = Entries.stack(d, [a, b])
    out = []
    for r0, r1 in row_blocks(d, int(np.diff(e.starts)[e.cols].sum())):
        g, h, at, term = product_terms(e, r0, r1)
        cross = g != h
        keys, sums = summed(at[cross], np.where(g[cross] == 0, term[cross], -term[cross]))
        live = sums != 0
        out.append((keys[live] // d, keys[live] % d, sums[live]))
    return tuple(np.concatenate(x) for x in zip(*out))


def _labels(n: int) -> list[tuple[int, int]]:
    """The generator labels (k, l) in row-major order: label g of an
    Entries table of generators."""
    return [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]


# Largest predicted footprint, in bytes, of a representation's storage: at
# build the pattern array plus the predicted generator entries; before a
# dense view is scattered the n^2 dense float64 d x d generators.
GENERATOR_BUDGET_BYTES = 2 << 30
# Bytes of one stored generator entry: row, col and matrix index (int64) and
# value (float64).
ENTRY_BYTES = 32


def check_generator_budget(n: int, d: int) -> None:
    """Raise InputError when n^2 dense d x d float64 generators exceed
    GENERATOR_BUDGET_BYTES."""
    nbytes = 8 * n * n * d * d
    if nbytes > GENERATOR_BUDGET_BYTES:
        raise InputError(
            f"{n * n} dense generators of dimension {d} need {nbytes / 2**30:.2f} GiB, "
            f"over the {GENERATOR_BUDGET_BYTES / 2**30:.2f} GiB budget"
        )


def predicted_entries(hw: HighestWeight, d: int) -> int:
    """Upper bound on the stored nonzeros of the n^2 generators of the
    d-dimensional irrep hw: E_kk has at most one per column, and E_kl
    (k != l) moves one entry in each row of lengths min(k,l), ...,
    max(k,l) - 1.  Entry i of the row of length r lies between the weight
    entries m_{i+n-r} and m_i, so it can move only when they differ; E_kl
    has at most the product of those counts, and at most d, per column."""
    n, m = hw.n, hw.m
    movable = [sum(m[i] > m[i + n - r] for i in range(r)) for r in range(n)]
    return d * sum(min(d, math.prod(movable[min(k, l) : max(k, l)])) for k, l in _labels(n))


def build_representation(hw: HighestWeight) -> Representation:
    """Assemble the entries of all n^2 generators of the irrep with highest
    weight hw.

    Raises InputError, before enumerating patterns, when the pattern array
    and ENTRY_BYTES per predicted entry (predicted_entries) would exceed
    GENERATOR_BUDGET_BYTES.

    The patterns come as one PatternTable: the targets of a move are one
    searchsorted of their keys, and a target exists exactly when the moved
    pattern is valid.  The
    coefficients of the moves of one generator are formed on all patterns
    and all j at once in exact integers: int64 while (m_1 + n)^(2n-2),
    a bound on every radicand factor product, stays below 2^53, so that
    float(-num) / float(den) is the correctly rounded rational, as
    math.sqrt(Fraction) rounds it; Python ints past that bound.  A skipped
    move must have numerator 0 and a kept one a non-negative radicand, or
    ArithmeticError is raised.  The generators E_kl with |k - l| >= 2 are
    the nested commutators E_kl = [E_k,l-1, E_l-1,l] and
    E_lk = [E_l,l-1, E_l-1,k], formed on entries.
    """
    n = hw.n
    d = weyl_dim(hw)
    entries = predicted_entries(hw, d)
    nbytes = 8 * d * _offset(n, 0) + ENTRY_BYTES * entries
    if nbytes > GENERATOR_BUDGET_BYTES:
        raise InputError(
            f"r{hw} (d={d}) needs {nbytes / 2**30:.2f} GiB for its patterns and at most {entries} "
            f"generator entries, over the {GENERATOR_BUDGET_BYTES / 2**30:.2f} GiB budget"
        )
    table = PatternTable.of(hw)
    pats = table.patterns
    gen = {}
    every = np.arange(d)
    row_sums = [0] + [table.row(k).sum(axis=1) for k in range(1, n + 1)]
    trace_shift = hw.weight_sum / n
    for k in range(1, n + 1):
        diag = (row_sums[k] - row_sums[k - 1]) - trace_shift
        live = diag != 0
        gen[(k, k)] = (every[live], every[live], diag[live])

    ints = table.arr.astype(np.int64 if (hw.m[0] + n) ** (2 * n - 2) < 2**53 else object)
    for k in range(2, n + 1):
        moved = table.place[_offset(n, k - 1) - n : _offset(n, k - 1) - n + k - 1]
        for label, shift in (((k, k - 1), -1), ((k - 1, k), 1)):
            num, den = _radicands(ints, n, k, shift)
            index, valid = table.find(table.keys[:, None] + shift * moved)
            skipped = np.argwhere(~valid & (num != 0))
            if skipped.size:
                (p, j), = skipped[:1]
                raise ArithmeticError(
                    f"skipped move j={j + 1}, k={k} on {pats[p]} has nonzero numerator {num[p, j]}"
                )
            src, col = np.nonzero(valid)
            num, den = num[src, col], den[src, col]
            if np.any(den == 0):
                raise ZeroDivisionError(f"zero denominator at k={k}: pattern-validity bug")
            rad = np.asarray((-num) / den, dtype=float)
            if np.any(rad < 0):
                raise ArithmeticError(f"negative radicand at k={k} on {pats[src[np.argmax(rad < 0)]]}")
            live = rad != 0
            rows, cols = index[src, col][live], src[live]
            order = np.argsort(rows * d + cols)
            gen[label] = (rows[order], cols[order], np.sqrt(rad[live])[order])
    for dist in range(2, n):
        for k in range(1, n + 1 - dist):
            l = k + dist
            gen[(k, l)] = _commutator(d, gen[(k, l - 1)], gen[(l - 1, l)])
            gen[(l, k)] = _commutator(d, gen[(l, l - 1)], gen[(l - 1, k)])
    return Representation(hw, pats, Entries.stack(d, [gen[label] for label in _labels(n)]))


class GeneratorRep:
    """A representation given by a matrix for every generator label (k, l).

    Carries the full gl-style generator map of sl(n, C); matrices for
    arbitrary traceless combinations come from the off-diagonal labels
    and the differences gen(k,k) - gen(k+1,k+1).

    The generators are stored once, as ``entries``: one read-only
    linalg.Entries table whose matrix g is the label at position g of the
    row-major order (1,1), (1,2), ..., (n,n).  Everything else is derived
    from it once and cached: ``sl_entries``, the entries of the canonical
    sl(n) basis elements, and the two dense views, ``gen`` (label to d x d
    matrix) and ``sl_stack`` (the (n^2 - 1, d, d) array of r(sl basis)),
    each formed by one scatter (_dense) under GENERATOR_BUDGET_BYTES.
    """

    def __init__(self, n: int, gen):
        """gen is a dict of dense d x d matrices for exactly the n^2 labels,
        read once with np.nonzero, or an Entries table in label order."""
        if not isinstance(gen, Entries):
            labels = _labels(n)
            if set(gen) != set(labels):
                raise InputError(f"generators must be given for exactly the {n * n} labels (k, l), 1 <= k, l <= {n}")
            mats = [np.asarray(gen[label]) for label in labels]
            d = mats[0].shape[0]
            for label, m in zip(labels, mats):
                if m.shape != (d, d):
                    raise InputError(f"generator {label} has shape {m.shape}, expected {(d, d)}")
            gen = Entries.of(mats)
        self.n = n
        self.entries = gen
        self.dim = gen.dim

    def _dense(self, count: int, table) -> np.ndarray:
        """The read-only (count, d, d) array with vals at (labels, rows,
        cols) for table() = (labels, rows, cols, vals); InputError from
        check_generator_budget before table() is read."""
        check_generator_budget(self.n, self.dim)
        labels, rows, cols, vals = table()
        out = np.zeros((count, self.dim, self.dim), dtype=vals.dtype)
        out[labels, rows, cols] = vals
        out.flags.writeable = False
        return out

    @cached_property
    def gen(self) -> Mapping:
        """Read-only mapping from each generator label (k, l) to its dense,
        read-only d x d matrix."""
        e = self.entries
        mats = self._dense(self.n * self.n, lambda: (e.gids, e.rows, e.cols, e.vals))
        return MappingProxyType(dict(zip(_labels(self.n), mats)))

    @cached_property
    def sl_stack(self) -> np.ndarray:
        """r(x) for every canonical sl(n) basis element x, in order, as one
        read-only (n^2 - 1, d, d) array scattered from sl_entries."""
        return self._dense(self.n * self.n - 1, lambda: self.sl_entries)

    @cached_property
    def sl_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero entries of r(x) for every canonical sl(n) basis
        element x (algebra.sl_basis_labels: E_kl row-major, then H_k), read
        once from the stored entries: read-only arrays (labels, rows, cols,
        vals) ordered by (label, row, col), label x the position of x.  The
        diagonal of r(H_k) is r(E_kk) minus r(E_k+1,k+1) entry by entry, as
        the dense difference forms it."""
        e, n, d = self.entries, self.n, self.dim
        a, b = np.divmod(e.gids, n)
        off = a != b
        plus, minus = ~off & (a < n - 1), ~off & (a > 0)  # E_kk enters H_k with +, H_k-1 with -
        take = np.concatenate([np.flatnonzero(off), np.flatnonzero(plus), np.flatnonzero(minus)])
        labels = np.concatenate([(a * (n - 1) + b - (b > a))[off], n * n - n + a[plus], n * n - n - 1 + a[minus]])
        vals = np.concatenate([e.vals[off], e.vals[plus], -e.vals[minus]])
        keys, vals = summed((labels * d + e.rows[take]) * d + e.cols[take], vals)
        live = vals != 0
        labels, at = np.divmod(keys[live], d * d)
        out = (labels, *np.divmod(at, d), vals[live])
        for x in out:
            x.flags.writeable = False
        return out


class Representation(GeneratorRep):
    """GT irreducible representation with its pattern basis."""

    def __init__(self, hw: HighestWeight, patterns: list[GTPattern], gen):
        super().__init__(hw.n, gen)
        self.hw = hw
        self.patterns = tuple(patterns)


def verify_commutation(rep: GeneratorRep, tol: float = DEFAULT_TOL) -> Report:
    """Max residual of [gen(a,b), gen(c,e)] = delta_bc gen(a,e) - delta_ea gen(c,b)
    over all n^4 label pairs.

    Sparse product kernel on the stored entries (a rep made from dense
    matrices read every nonzero of them, so a tampered entry anywhere is
    seen).  Joining their column indices with their row indices gives every
    term X_g[i, k] X_h[k, j] of every product of two generators; it enters
    relation (g, h) with + and relation (h, g) with -.  The expected side
    is appended with the opposite sign, equal (relation, row, col) keys are
    summed after one sort, and the largest sum is the residual.  The work
    is proportional to the number of product terms, not to n^4 d^3, and
    output rows are processed in blocks of about linalg.TERMS_PER_BLOCK
    terms, so temporaries stay bounded.

    The report carries checked = n^4, worst_at = ((a, b), (c, e)) of the
    largest residual (None when all are zero) and tol.
    """
    n, d = rep.n, rep.dim
    labels = _labels(n)
    nn, size = n * n, d * d
    every = rep.entries
    m = np.arange(n)
    products = int(np.diff(every.starts)[every.cols].sum())
    worst, worst_at = 0.0, None
    for r0, r1 in row_blocks(d, 2 * products + 2 * n * every.rows.size):
        g, h, at, term = product_terms(every, r0, r1)
        s = slice(every.starts[r0], every.starts[r1])
        # An entry of gen(x, y) is expected in relation ((x, m), (m, y)) with
        # + and in ((m, y), (x, m)) with -, for every m.
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


def verify_transpose(rep: GeneratorRep) -> float:
    """Max residual of gen(a,b)^T = gen(b,a) over the label pairs a <= b,
    one summed over the stored entries: those of gen(a,b) transposed with +
    and those of gen(b,a) with -.  The residual for (b, a) is the negated
    transpose of the one for (a, b), so it adds nothing."""
    e, n, d = rep.entries, rep.n, rep.dim
    a, b = np.divmod(e.gids, n)
    upper, lower = a <= b, a >= b
    keys = np.concatenate((
        (e.gids[upper] * d + e.cols[upper]) * d + e.rows[upper],
        ((b * n + a)[lower] * d + e.rows[lower]) * d + e.cols[lower],
    ))
    return max_abs(summed(keys, np.concatenate((e.vals[upper], -e.vals[lower])))[1])


def verify_sl_trace(rep: GeneratorRep) -> float:
    """Sup norm of sum_k gen(k,k), one summed over the stored entries of the
    diagonal generators; zero for a representation of sl(n)."""
    e, d = rep.entries, rep.dim
    diagonal = e.gids % (rep.n + 1) == 0
    return max_abs(summed(e.rows[diagonal] * d + e.cols[diagonal], e.vals[diagonal])[1])
