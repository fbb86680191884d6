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

The patterns are one (d, n(n+1)/2) int64 array of flattenings in basis
order (``pattern_array``), grown entry by entry with one np.repeat per
interlacing range; a representation keeps it as ``rep.basis``.

The generators are almost entirely zero (about 11 nonzeros per basis
vector for n = 3), so a representation stores them once, as one
``linalg.Entries`` table over the n^2 labels.  ``build_representation``
fills it from the pattern array, forming each coefficient over all
patterns at once in exact integers, and the verifiers read it directly;
``verify_commutation`` sums each product term once, into its relation
pair (g, h) with g < h, since the relation (h, g) is its negation.  The
table is read-only, so what is derived from it is formed once and
cached.  Every r(x) comes from the table's own kernels: ``rep.sl_entries``
is ``linalg.Entries.combined`` of the sl(n) basis, and the dense
``rep.images`` and ``rep.gen`` are ``linalg.Entries.images``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .algebra import Report
from .errors import InputError
from .linalg import (DEFAULT_TOL, Entries, check_budget, digest, max_abs, product_terms, read_only, relation_sums,
                     row_blocks, stable_order, summed)

__all__ = [
    "HighestWeight",
    "pattern_array",
    "PatternTable",
    "weyl_dim",
    "build_representation",
    "GeneratorRep",
    "Representation",
    "verify_commutation",
    "verify_transpose",
    "verify_sl_trace",
]


@dataclass(frozen=True)
class HighestWeight:
    """Weakly decreasing non-negative integer weight with last entry 0;
    a non-integral entry is refused, not truncated."""

    n: int
    m: tuple[int, ...]

    def __post_init__(self):
        if self.n < 2:
            raise InputError("need n >= 2")
        try:
            m = tuple(operator.index(x) for x in self.m)
        except TypeError as exc:
            raise InputError(f"weight entries must be integers: {self.m}") from exc
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


def _offset(n: int, length: int) -> int:
    """Column of entry 1 of the row of the given length in a flattened
    (row-major, top-down) pattern."""
    return (n * (n + 1) - length * (length + 1)) // 2


def _mixed_radix(lower: np.ndarray, base: np.ndarray, place: np.ndarray) -> np.ndarray:
    return ((lower - base).astype(place.dtype) * place).sum(axis=1)


def pattern_array(hw: HighestWeight) -> np.ndarray:
    """All valid patterns with the given top row, as the read-only rows of
    one (d, n(n+1)/2) int64 array of flattenings (row-major, top-down), in
    descending lexicographic order; the highest-weight pattern comes
    first, and this fixed order is the basis order of the representation.

    The array grows one entry at a time, top-down and left to right:
    entry i of a row ranges over its interlacing range from m[i] of the row
    above down to m[i+1], so each partial pattern is repeated once per
    value (one np.repeat) and the values are appended in descending order.
    """
    n = hw.n
    arr = np.array([hw.m], dtype=np.int64)
    for length in range(n - 1, 0, -1):
        above = _offset(n, length + 1)
        for i in range(above, above + length):
            high = arr[:, i]
            count = high - arr[:, i + 1] + 1
            value = np.repeat(high + np.cumsum(count) - count, count)
            value -= np.arange(value.size)
            arr = np.column_stack((np.repeat(arr, count, axis=0), value))
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class PatternTable:
    """The patterns of an irrep in basis order, the rows of one
    (d, n(n+1)/2) int64 array ``arr`` (pattern_array).

    The descending-lex basis order makes a mixed-radix key of the entries
    below the top row descending (``keys``); each digit has room for one
    step past its column's range, so ``find`` looks up the patterns of
    any rows of such keys with one searchsorted.  ``of`` charges the array
    against the memory budget before it enumerates a pattern.
    """

    n: int
    arr: np.ndarray
    base: np.ndarray  # digit c is the entry n + c minus base[c]
    place: np.ndarray  # place value of each digit (object dtype past int64)
    keys: np.ndarray

    @staticmethod
    def of(hw: HighestWeight) -> "PatternTable":
        d = weyl_dim(hw)
        check_budget(8 * d * _offset(hw.n, 0), f"the {d} patterns of r{hw}")
        arr = pattern_array(hw)
        lower = arr[:, hw.n :]
        base = lower.min(axis=0) - 1
        radix = [int(r) for r in lower.max(axis=0) - base + 2]
        key_kind = np.int64 if math.prod(radix) < 2**63 else object
        place = np.array([math.prod(radix[c + 1 :]) for c in range(len(radix))], dtype=key_kind)
        return PatternTable(hw.n, arr, base, place, _mixed_radix(lower, base, place))

    def key(self, lower: np.ndarray) -> np.ndarray:
        """Keys of the rows of lower, entries n, n+1, ... of flattened
        patterns each within one step of its column's range."""
        return _mixed_radix(lower, self.base, self.place)

    def row(self, k: int) -> np.ndarray:
        """The rows of length k of all patterns, a (d, k) view of arr."""
        return self.arr[:, _offset(self.n, k) : _offset(self.n, k) + k]

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


@cache
def sl_in_generators(n: int) -> np.ndarray:
    """The read-only (n^2, n^2 - 1) matrix of the canonical sl(n) basis in
    generator coordinates: column x is algebra.sl_basis_matrices(n)[x],
    E_kl at generator (k - 1) n + l - 1 and H_k = E_kk - E_k+1,k+1."""
    k = n * n - 1
    check_budget(8 * n * n * k, f"the {k} basis elements of sl({n}) in generator coordinates")
    out, h = np.zeros((n * n, k)), np.arange(n - 1)
    out[np.flatnonzero(~np.eye(n, dtype=bool)), np.arange(n * n - n)] = 1.0
    out[h * (n + 1), n * n - n + h] = 1.0
    out[(h + 1) * (n + 1), n * n - n + h] = -1.0
    return read_only(out)


# Bytes of one stored generator entry: row, col and matrix index (int64) and
# value (float64).
ENTRY_BYTES = 32


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

    Raises InputError, before enumerating patterns, when ENTRY_BYTES per
    predicted entry (predicted_entries), or the pattern array
    (PatternTable.of), would exceed the memory budget.

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
    check_budget(ENTRY_BYTES * entries, f"the at most {entries} generator entries of r{hw} (d={d})")
    table = PatternTable.of(hw)
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
                    f"skipped move j={j + 1}, k={k} on pattern {table.arr[p].tolist()} "
                    f"has nonzero numerator {num[p, j]}"
                )
            src, col = np.nonzero(valid)
            num, den = num[src, col], den[src, col]
            if np.any(den == 0):
                raise ZeroDivisionError(f"zero denominator at k={k}: pattern-validity bug")
            rad = np.asarray((-num) / den, dtype=float)
            if np.any(rad < 0):
                bad = table.arr[src[np.argmax(rad < 0)]].tolist()
                raise ArithmeticError(f"negative radicand at k={k} on pattern {bad}")
            live = rad != 0
            rows, cols = index[src, col][live], src[live]
            _, order = stable_order(rows * d + cols)
            gen[label] = (rows[order], cols[order], np.sqrt(rad[live])[order])
    for dist in range(2, n):
        for k in range(1, n + 1 - dist):
            l = k + dist
            gen[(k, l)] = _commutator(d, gen[(k, l - 1)], gen[(l - 1, l)])
            gen[(l, k)] = _commutator(d, gen[(l, l - 1)], gen[(l - 1, k)])
    return Representation(hw, table.arr, Entries.stack(d, [gen[label] for label in _labels(n)]))


class GeneratorRep:
    """A representation given by a matrix for every generator label (k, l).

    Carries the full gl-style generator map of sl(n, C); matrices for
    arbitrary traceless combinations come from the off-diagonal labels
    and the differences gen(k,k) - gen(k+1,k+1).

    The generators are stored once, as ``entries``: one read-only
    linalg.Entries table whose matrix g is the label at position g of the
    row-major order (1,1), (1,2), ..., (n,n).  ``n``, ``entries`` and
    ``dim`` are read-only attributes: a changed carrier is a new rep.
    Every r(x) comes from ``entries.combined``.  ``digest``, the linalg.digest of
    ``n`` and the five entries arrays, ``sl_entries`` and ``gen`` are
    formed once and cached.
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
        self._n, self._entries = n, gen

    n = property(lambda self: self._n)
    entries = property(lambda self: self._entries)
    dim = property(lambda self: self._entries.dim)

    @cached_property
    def digest(self) -> bytes:
        e = self.entries
        return digest(self.n, e.rows, e.cols, e.vals, e.gids, e.starts)

    @cached_property
    def gen(self) -> Mapping:
        """Read-only mapping from each generator label (k, l) to its dense,
        read-only d x d matrix: entries.images of the identity."""
        e = self.entries
        return MappingProxyType(dict(zip(_labels(self.n), e.images(np.eye(self.n * self.n, dtype=e.vals.dtype)))))

    def images(self, coords: np.ndarray) -> np.ndarray:
        """r(x) for each column x of canonical sl(n) coordinates (another
        length is an InputError), from entries.images."""
        if coords.shape[0] != self.n * self.n - 1:
            raise InputError(f"vectors of length {coords.shape[0]} are not coordinates on sl({self.n})")
        return self.entries.images(sl_in_generators(self.n) @ coords)

    @cached_property
    def sl_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The entries ``entries.combined`` forms for the canonical sl(n)
        basis (algebra.sl_basis_labels: E_kl row-major, then H_k = E_kk -
        E_k+1,k+1), the column of x its position."""
        return self.entries.combined(sl_in_generators(self.n))


class Representation(GeneratorRep):
    """GT irreducible representation with its pattern basis: ``basis``, the
    read-only (d, n(n+1)/2) int64 array of flattened patterns in basis
    order (pattern_array).  ``hw`` and ``basis`` are read-only attributes."""

    def __init__(self, hw: HighestWeight, basis: np.ndarray, gen):
        super().__init__(hw.n, gen)
        self._hw = hw
        self._basis = np.asarray(basis, dtype=np.int64)
        self._basis.flags.writeable = False

    hw = property(lambda self: self._hw)
    basis = property(lambda self: self._basis)

    @cached_property
    def patterns(self) -> tuple:
        """The rows of basis as a tuple of flat int tuples, formed on first
        access: comparable with == for a plain bool."""
        return tuple(map(tuple, self.basis.tolist()))


@np.errstate(over="ignore", invalid="ignore")  # huge finite entries overflow to inf or NaN sums: they fail closed
def verify_commutation(rep: GeneratorRep, tol: float = DEFAULT_TOL) -> Report:
    """Max residual of [gen(a,b), gen(c,e)] = delta_bc gen(a,e) - delta_ea gen(c,b)
    over all n^4 label pairs.

    One call of linalg.relation_sums on the stored entries (a rep made from
    dense matrices read every nonzero of them, so a tampered entry anywhere
    is seen), with the gl(n) structure triples: [E_xm, E_my] holds E_xy
    for every x, m, y, so label x n + y enters the relation pair (p, q) =
    (x n + m, m n + y), p != q, as (min(p, q), max(p, q)) times
    sign(q - p).  The residual of (h, g) is the negated residual of (g, h)
    and that of (g, g) is zero, so the kernel forms one sum per relation
    pair; the largest sum is the residual.  The work is proportional to
    the number of product terms, not to n^4 d^3, and output rows are
    processed in blocks of about linalg.TERMS_PER_BLOCK terms, so
    temporaries stay bounded; a row over the memory budget is an
    InputError.  A NaN entry enters the expected side of
    some pair p != q as itself, so the check fails closed.

    The report carries checked = n^4, worst_at = ((a, b), (c, e)) of the
    largest residual, (a, b) first in label order (None when all are
    zero), that pair as its one violation when it fails, and tol.
    """
    n, d = rep.n, rep.dim
    labels = _labels(n)
    x, y, m = (v.ravel() for v in np.indices((n, n, n)))
    p, q = x * n + m, m * n + y
    cross = p != q
    p, q = p[cross], q[cross]
    worst, worst_at = 0.0, None
    for keys, sums in relation_sums(
        rep.entries, n * n, np.minimum(p, q), np.maximum(p, q), (x * n + y)[cross], np.sign(q - p)
    ):
        res = max_abs(sums)
        if res > worst:
            rel = int(keys[np.argmax(np.abs(sums))]) // (d * d)
            worst, worst_at = res, (labels[rel // (n * n)], labels[rel % (n * n)])
    return Report.of([(worst_at, worst)] if worst else [], tol, checked=n**4)


@np.errstate(over="ignore", invalid="ignore")  # huge finite entries overflow to inf or NaN sums: they fail closed
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


@np.errstate(over="ignore", invalid="ignore")  # huge finite entries overflow to inf or NaN sums: they fail closed
def verify_sl_trace(rep: GeneratorRep) -> float:
    """Sup norm of sum_k gen(k,k), one column of ``entries.combined``; zero
    for a representation of sl(n)."""
    return max_abs(rep.entries.combined(np.arange(rep.n * rep.n)[:, None] % (rep.n + 1) == 0)[3])
