"""Per-vector reference implementations that the batched library kernels
are compared against: one bracket and one lstsq per image vector, one
lstsq per candidate column, the dense k^4 Jacobi tensor, one commutator
per pair of sl(n) basis matrices, one Python sum per represented algebra
element, the sl(n) basis matrices one label at a time from the dense
generators, one solve per contracted operator, one generator sum per
homomorphism relation, the contraction tables checked one cell and one
triple at a time in Fraction arithmetic (and enumerated one candidate
table at a time), the doubled representation built from dense blocks,
and the Gel'fand-Tseitlin generators built one pattern and one move at a
time with exact Fraction radicands."""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from gtlie.algebra import (
    Report,
    TwoPartCase,
    bracket,
    grading_adapted_basis,
    sl_basis_labels,
    sl_basis_matrices,
)
from gtlie.autos import action_on_sl
from gtlie.contraction import EpsilonTable, PsiTable
from gtlie.errors import InputError
from gtlie.gtrep import GTPattern, HighestWeight, act_diagonal, enumerate_patterns
from gtlie.linalg import Entries, max_abs, orthonormal_span, product_terms, rank, span_distance, summed


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


def per_pair_homomorphism(crep, calg, tol):
    """verify_rep_homomorphism one pair (a, b) at a time, the right side a
    generator sum over the l with c_abl != 0; returns (ok, max residual,
    violation labels (a, b) in row-major order)."""
    structure, mats = calg.result.structure, crep.matrices
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
    return Report.of(residuals, tol)


def per_cell_psi(psi, eps, tol) -> Report:
    """verify_psi one triple at a time."""
    g, v = psi.group, psi.value
    residuals = {}
    for i, j, k in itertools.product(g.elements(), repeat=3):
        p1 = lambda: v(j, k) * v(i, g.add(j, k))
        p2 = lambda: v(i, k) * v(j, g.add(i, k))
        p3 = lambda: eps.value(i, j) * v(g.add(i, j), k)
        residuals[i, j, k] = max(per_cell_residual(lambda: p1() - p2()), per_cell_residual(lambda: p2() - p3()))
    return Report.of(residuals, tol)


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
    column of action_on_sl, R r(x) R^-1 and R^order dense; returns (ok,
    max residual, violations (label, res) in order, worst_at)."""
    mats = per_label_sl_matrices(rep)
    n, r, rinv = rep.n, sim.matrix, sim.inverse()
    act = action_on_sl(aut)
    residuals = []
    for lab, coords, m in zip(sl_basis_labels(n), act.T, mats):
        lhs = per_column_rep_matrix(coords, mats)
        residuals.append((lab, max_abs(lhs - r @ m @ rinv)))
    residuals.append(("power", max_abs(np.linalg.matrix_power(r, sim.order) - np.eye(sim.dim))))
    worst_at, worst = max(residuals, key=lambda item: item[1])
    violations = [(at, res) for at, res in residuals if res > tol]
    return not violations, worst, violations, worst_at if worst else None

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
