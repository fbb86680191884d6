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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import Report
from .errors import InputError
from .linalg import DEFAULT_TOL, Entries, max_abs, product_terms, row_blocks, summed

__all__ = [
    "HighestWeight",
    "GTPattern",
    "Radicand",
    "enumerate_patterns",
    "weyl_dim",
    "row_sum",
    "act_diagonal",
    "act_lowering",
    "act_raising",
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

    def replaced(self, i: int, j: int, value: int) -> "GTPattern":
        rows = [list(r) for r in self.rows]
        rows[self.n - j][i - 1] = value
        return GTPattern(tuple(tuple(r) for r in rows))

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


def _shift_numerator(p: GTPattern, k: int, j: int, shift: int) -> int:
    """Numerator of the exact radicand (before the leading minus sign) of
    the coefficient that moves entry j of row k-1 by shift: shift = -1 gives
    the lowering coefficient a_{k-1}^j, shift = +1 the raising coefficient
    b_{k-1}^j, both evaluated on the source pattern p.

    With d = 0 for lowering and d = -1 for raising, the two formulas share
    one shape: numerator over rows k and k-2, denominator over row k-1.
    """
    mj = p.entry(j, k - 1)
    d = 0 if shift < 0 else -1
    num = 1
    for i in range(1, k + 1):
        num *= p.entry(i, k) - mj - i + j + 1 + d
    for i in range(1, k - 1):
        num *= p.entry(i, k - 2) - mj - i + j + d
    return num


def _shift_denominator(p: GTPattern, k: int, j: int, shift: int) -> int:
    """Denominator of the radicand whose numerator _shift_numerator gives."""
    mj = p.entry(j, k - 1)
    d = 0 if shift < 0 else -1
    den = 1
    for i in range(1, k):
        if i == j:
            continue
        den *= (p.entry(i, k - 1) - mj - i + j + 1 + d) * (p.entry(i, k - 1) - mj - i + j + d)
    if den == 0:
        raise ZeroDivisionError(
            f"zero denominator at j={j}, k={k} on {p}: pattern-validity bug"
        )
    return den


def _act_shift(p: GTPattern, k: int, shift: int) -> list[tuple[GTPattern, Radicand]]:
    if not 2 <= k <= p.n:
        raise InputError(f"generator index {k} out of range 2..{p.n}")
    terms = []
    for j in range(1, k):
        num = _shift_numerator(p, k, j, shift)
        target = p.replaced(j, k - 1, p.entry(j, k - 1) + shift)
        if not target.is_valid():
            if num != 0:
                raise ArithmeticError(f"skipped move j={j}, k={k} on {p} has nonzero numerator {num}")
            continue
        rad = Fraction(-num, _shift_denominator(p, k, j, shift))
        if rad < 0:
            raise ArithmeticError(f"negative radicand {rad} at j={j}, k={k} on {p}")
        terms.append((target, Radicand(0 if rad == 0 else 1, rad)))
    return terms


def act_lowering(p: GTPattern, k: int) -> list[tuple[GTPattern, Radicand]]:
    """Terms of E_{k,k-1} xi(p): targets lower one entry of row k-1 by 1."""
    return _act_shift(p, k, -1)


def act_raising(p: GTPattern, k: int) -> list[tuple[GTPattern, Radicand]]:
    """Terms of E_{k-1,k} xi(p): targets raise one entry of row k-1 by 1."""
    return _act_shift(p, k, +1)


class GeneratorRep:
    """A representation given by matrices for every generator label (k, l).

    Carries the full gl-style generator map of sl(n, C); matrices for
    arbitrary traceless combinations come from the off-diagonal labels
    and the differences gen(k,k) - gen(k+1,k+1).
    """

    def __init__(self, n: int, gen: dict):
        self.n = n
        self.gen = gen
        self.dim = next(iter(gen.values())).shape[0]

    def matrix(self, k: int, l: int) -> np.ndarray:
        return self.gen[(k, l)]

    def sl_label_matrix(self, label: tuple) -> np.ndarray:
        """Matrix of a canonical sl(n) basis element ("E", k, l) or ("H", k)."""
        if label[0] == "E":
            return self.gen[(label[1], label[2])]
        k = label[1]
        return self.gen[(k, k)] - self.gen[(k + 1, k + 1)]


class Representation(GeneratorRep):
    """GT irreducible representation with its pattern basis."""

    def __init__(self, hw: HighestWeight, patterns: list[GTPattern], gen: dict):
        super().__init__(hw.n, gen)
        self.hw = hw
        self.patterns = tuple(patterns)
        self.index = {p: i for i, p in enumerate(self.patterns)}


# Largest predicted footprint of the n^2 dense float64 d x d generators;
# a larger irrep is refused with InputError before any pattern is built.
GENERATOR_BUDGET_BYTES = 2 << 30


def check_generator_budget(n: int, d: int) -> None:
    """Raise InputError when n^2 dense d x d float64 generators exceed
    GENERATOR_BUDGET_BYTES."""
    nbytes = 8 * n * n * d * d
    if nbytes > GENERATOR_BUDGET_BYTES:
        raise InputError(
            f"{n * n} dense generators of dimension {d} need {nbytes / 2**30:.2f} GiB, "
            f"over the {GENERATOR_BUDGET_BYTES / 2**30:.2f} GiB budget"
        )


def _commutator(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """Write a @ b - b @ a into the zero matrix out, formed from the
    nonzero entries of a and b only."""
    g, h, at, term = product_terms(Entries.of([a, b]), 0, a.shape[0])
    cross = g != h
    keys, sums = summed(at[cross], np.where(g[cross] == 0, term[cross], -term[cross]))
    np.put(out, keys, sums)


def build_representation(hw: HighestWeight) -> Representation:
    """Assemble all n^2 generator matrices of the irrep with highest weight hw.

    Raises InputError, before enumerating patterns, when the dense
    generators would exceed GENERATOR_BUDGET_BYTES.

    The generators are views into one n^2 x d x d block whose every page
    is written (np.full, not np.zeros).  So the resident memory of a
    representation is its full size, whether the system backs the sparse
    writes with small or huge pages, and a large block is mapped and
    unmapped as a whole instead of leaving holes between later arrays.
    """
    check_generator_budget(hw.n, weyl_dim(hw))
    pats = enumerate_patterns(hw)
    d = len(pats)
    index = {p: i for i, p in enumerate(pats)}
    n = hw.n
    trace_shift = hw.weight_sum / n
    block = np.full((n * n, d, d), 0.0)
    gen = dict(zip([(a, b) for a in range(1, n + 1) for b in range(1, n + 1)], block))
    for k in range(1, n + 1):
        np.fill_diagonal(gen[(k, k)], [act_diagonal(p, k) - trace_shift for p in pats])
    for k in range(2, n + 1):
        low, high = gen[(k, k - 1)], gen[(k - 1, k)]
        for c, p in enumerate(pats):
            for q, rad in act_lowering(p, k):
                low[index[q], c] = rad.to_float()
            for q, rad in act_raising(p, k):
                high[index[q], c] = rad.to_float()
    for dist in range(2, n):
        for k in range(1, n + 1 - dist):
            l = k + dist
            # E_{k,l} = [E_{k,l-1}, E_{l-1,l}],  E_{l,k} = [E_{l,l-1}, E_{l-1,k}]
            _commutator(gen[(k, l - 1)], gen[(l - 1, l)], gen[(k, l)])
            _commutator(gen[(l, l - 1)], gen[(l - 1, k)], gen[(l, k)])
    return Representation(hw, pats, gen)


# Rows per slice in verify_transpose and verify_sl_trace, which never form
# a whole d x d temporary.
ROWS_PER_BLOCK = 64


def verify_commutation(rep: GeneratorRep, tol: float = DEFAULT_TOL) -> Report:
    """Max residual of [gen(a,b), gen(c,e)] = delta_bc gen(a,e) - delta_ea gen(c,b)
    over all n^4 label pairs.

    Sparse product kernel: the nonzero entries of every generator are read
    once with np.nonzero from the matrices themselves (so a tampered entry
    anywhere is seen).  Joining their column indices with their row
    indices gives every term X_g[i, k] X_h[k, j] of every product of two
    generators; it enters relation (g, h) with + and relation (h, g) with
    -.  The expected side is appended with the opposite sign, equal
    (relation, row, col) keys are summed after one sort, and the largest
    sum is the residual.  The work is proportional to the number of
    product terms, not to n^4 d^3, and output rows are processed in
    blocks of about linalg.TERMS_PER_BLOCK terms, so temporaries stay
    bounded.

    The report carries checked = n^4, worst_at = ((a, b), (c, e)) of the
    largest residual (None when all are zero) and tol.
    """
    n, d = rep.n, rep.dim
    labels = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    for lab in labels:
        if rep.gen[lab].shape != (d, d):
            raise InputError(f"generator {lab} has shape {rep.gen[lab].shape}, expected {(d, d)}")
    nn, size = n * n, d * d
    every = Entries.of([rep.gen[lab] for lab in labels])
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
    """Max residual of gen(a,b)^T = gen(b,a), ROWS_PER_BLOCK rows at a time."""
    worst = 0.0
    for (a, b), m in rep.gen.items():
        t = rep.gen[(b, a)]
        for r0 in range(0, rep.dim, ROWS_PER_BLOCK):
            r1 = r0 + ROWS_PER_BLOCK
            worst = max(worst, max_abs(m[:, r0:r1].T - t[r0:r1]))
    return worst


def verify_sl_trace(rep: GeneratorRep) -> float:
    """Sup norm of sum_k gen(k,k), ROWS_PER_BLOCK rows at a time; zero for
    a representation of sl(n)."""
    worst = 0.0
    for r0 in range(0, rep.dim, ROWS_PER_BLOCK):
        r1 = r0 + ROWS_PER_BLOCK
        worst = max(worst, max_abs(sum(rep.gen[(k, k)][r0:r1] for k in range(1, rep.n + 1))))
    return worst
