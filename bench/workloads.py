"""The gtlie benchmark workloads: their seeded inputs, one pass over each,
and the oracle every output is checked against.

Each workload is a closed loop: one process runs its items one after
another.  ``inputs(seed)`` builds everything the library is handed;
``run_pass(rec, inp)`` makes every library call through the Recorder.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gtlie import algebra, autos, cli, contraction, gtrep, jsonio
from gtlie.errors import VerificationError
from gtlie.groups import AbelianGroup

# Largest dense footprint the benchmark lets one call allocate.  The machine
# has 7 GB shared with other processes; the largest input the workloads make
# needs under 0.2 GiB.
MEMORY_BUDGET_BYTES = 2 << 30
# The direct solver is cross-checked on carriers up to this dimension: d=15
# already takes seconds, and d=35 would ask for 28 GiB.
SOLVER_MAX_DIM = 15
Z2 = AbelianGroup((2,))
# Everything a run writes goes under here (ignored by git).
OUT_DIR = Path(__file__).resolve().parent / "out"
# Binary epsilon solution counts, and the psi count for eps = 1,1,1,0 over Z2.
EPS_COUNTS = {(2,): 5, (3,): 15}
PSI_COUNT_Z2_1110 = 6


# ---------------------------------------------------------------------------
# Independent facts
# ---------------------------------------------------------------------------


def weyl_dim(m) -> int:
    """Weyl's product formula, written here independently of gtlie."""
    num = den = 1
    for i, j in itertools.combinations(range(len(m)), 2):
        num *= m[i] - m[j] + j - i
        den *= j - i
    return num // den


def self_contragredient(m) -> bool:
    return tuple(m[0] - x for x in reversed(m)) == tuple(m)


def part_dims(kind: str, n: int, s: int = 1) -> dict:
    """Dimensions of L_0, L_1 for the order-2 gradings of sl(n): the inner
    class (n, s) fixes gl(n-s) + gl(s) mod scalars; the outer one fixes so(n).
    README: inner (3,1) gives 4,4 and outer 3 gives 3,5."""
    if kind == "inner":
        return {(0,): (n - s) ** 2 + s * s - 1, (1,): 2 * s * (n - s)}
    return {(0,): n * (n - 1) // 2, (1,): n * (n + 1) // 2 - 1}


def table_solves(table, eps=None) -> bool:
    """The epsilon system (eps=None) or the psi system over eps, evaluated
    here independently of gtlie's verifiers."""
    g = table.group
    els = g.elements()
    v = table.value
    for i, j, k in itertools.product(els, repeat=3):
        if eps is None:
            t = (v(i, j) * v(g.add(i, j), k), v(j, k) * v(g.add(j, k), i), v(k, i) * v(g.add(k, i), j))
            if v(i, j) != v(j, i):
                return False
        else:
            t = (v(j, k) * v(i, g.add(j, k)), v(i, k) * v(j, g.add(i, k)), eps.value(i, j) * v(g.add(i, j), k))
        if t[0] != t[1] or t[1] != t[2]:
            return False
    return True


def generator_bytes(n: int, d: int) -> int:
    """Computed: n^2 dense float64 d x d generator matrices."""
    return 8 * n * n * d * d


def solver_bytes(n: int, d: int) -> int:
    """Computed: the complex (k d^2) x d^2 intertwiner system of
    find_simulation_matrix plus U and Vh of its full SVD, k = n^2 - 1."""
    rows, cols = (n * n - 1) * d * d, d * d
    return 16 * (rows * cols + rows * rows + cols * cols)


def seeded_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def conjugate_inner(q: np.ndarray) -> autos.Automorphism:
    """Ad_{Q A Q^T} with A the inner (n,1) representative: same class, dense basis."""
    a = autos.auto_inner(q.shape[0], 1).matrix
    return autos.Automorphism(kind="inner", matrix=q @ a @ q.T, order=2)


# ---------------------------------------------------------------------------
# Shared steps
# ---------------------------------------------------------------------------


def build_rep(rec, hw: gtrep.HighestWeight):
    d = weyl_dim(hw.m)
    nbytes = generator_bytes(hw.n, d)
    rec.high_water("gtrep.generator_bytes", nbytes)
    if not guard(rec, nbytes, f"build_representation{hw}"):
        return None
    rep = rec.call("gtrep.build_representation", gtrep.build_representation, hw)
    rec.count("gtrep.basis_vectors", rep.dim)
    rec.check(rep.dim == d, f"dim {rep.dim} != Weyl dimension {d}")
    return rep


def guard(rec, nbytes: int, what: str) -> bool:
    """Refuse a call whose predicted dense footprint exceeds the budget."""
    ok = nbytes <= MEMORY_BUDGET_BYTES
    if not ok:
        rec.count("guard.refused")
        rec.outcome(False, f"refused {what}: needs {nbytes / 2**30:.1f} GiB > budget {MEMORY_BUDGET_BYTES / 2**30:.1f} GiB")
    return ok


def check_commutation(rec, rep) -> None:
    comm = rec.call("gtrep.verify_commutation", gtrep.verify_commutation, rep)
    rec.count("gtrep.relations", rep.n**4)
    rec.check(comm.ok, f"commutation residual {comm.max_residual:.3g}")


def graded(rec, alg, aut, dims: dict, classify: bool = True):
    """Grading from an automorphism, checked against its part dimensions,
    verified, and classified as a Z2 grading."""
    gamma = rec.call("autos.grading_from_automorphism", autos.grading_from_automorphism, alg, aut)
    check_grading(rec, alg, gamma, dims, classify)
    return gamma


def check_grading(rec, alg, gamma, dims: dict, classify: bool = True) -> None:
    rec.check(gamma.part_dims() == dims, f"part dims {gamma.part_dims()} != {dims}")
    report = rec.call("algebra.verify_grading", algebra.verify_grading, alg, gamma)
    rec.count("algebra.bracket_pairs", alg.dim**2)
    rec.check(report.ok, f"verify_grading {report.violations[:2]}")
    if classify:
        a, b = gamma.parts[(0,)], gamma.parts[(1,)]
        case = rec.call("algebra.classify_two_part", algebra.classify_two_part, alg, a, b)
        rec.count("algebra.bracket_pairs", a.shape[1] ** 2 + a.shape[1] * b.shape[1] + b.shape[1] ** 2)
        rec.check(case is algebra.TwoPartCase.Z2_GRADING, f"classified {case}")


def simulate(rec, alg, gamma, carrier, aut, sim):
    """verify_simulation, decompose_rep_space and check_compatibility."""
    report = rec.call("autos.verify_simulation", autos.verify_simulation, carrier, aut, sim)
    rec.check(report.ok, f"verify_simulation {report.violations[:2]}")
    vgamma = rec.call("autos.decompose_rep_space", autos.decompose_rep_space, sim)
    rec.check(vgamma.total_dim == carrier.dim, f"V parts fill {vgamma.total_dim} of {carrier.dim}")
    compat = rec.call("autos.check_compatibility", autos.check_compatibility, carrier, gamma, vgamma)
    rec.count("autos.compat_images", alg.dim * carrier.dim)
    rec.check(compat.ok, f"check_compatibility {compat.violations[:2]}")
    return vgamma


def contract(rec, alg, gamma, eps):
    """contract_algebra, checked to drop every bracket that eps sets to 0."""
    calg = rec.call("contraction.contract_algebra", contraction.contract_algebra, alg, gamma, eps)
    zero = np.array([[eps.value(i, j) == 0 for j in calg.labels] for i in calg.labels])
    rec.check(
        calg.result.dim == alg.dim and not np.any(calg.result.structure[zero]),
        "contracted brackets survive where eps is 0",
    )
    return calg


def binary_tables(rec, group: AbelianGroup, psi_for_each: bool):
    """Binary eps solutions over group (and binary psi for each of them),
    checked by count and by the independent system check."""
    size = group.size
    eps_tables = rec.call("contraction.enumerate_binary_epsilon", contraction.enumerate_binary_epsilon, group)
    rec.count("contraction.tables_tried", 2 ** (size * (size + 1) // 2))
    rec.count("contraction.tables_found", len(eps_tables))
    rec.check(len(eps_tables) == EPS_COUNTS[group.orders], f"{len(eps_tables)} eps tables over {group}")
    rec.check(all(table_solves(e) for e in eps_tables), f"an eps table over {group} does not solve")
    psis = []
    if psi_for_each:
        for eps in eps_tables:
            found = rec.call("contraction.enumerate_binary_psi", contraction.enumerate_binary_psi, eps)
            rec.count("contraction.tables_tried", 2 ** (size * size))
            rec.count("contraction.tables_found", len(found))
            rec.check(all(table_solves(p, eps) for p in found), f"a psi table over {group} does not solve")
            if eps.as_tuple() == (1, 1, 1, 0):
                rec.check(len(found) == PSI_COUNT_Z2_1110, f"{len(found)} psi tables for eps 1,1,1,0")
            psis.append(found)
    return eps_tables, psis


# ---------------------------------------------------------------------------
# paper_sweep
# ---------------------------------------------------------------------------

README_CLI = [
    ("rep build -n 3 -w 2,1,0 --out rep210.json", 0),
    ("rep build -n 3 -w 1,0,0 --out rep100.json", 0),
    ("rep check rep210.json", 0),
    ("grading from-auto --inner 3,1 --out gamma1.json", 0),
    ("grading from-auto --outer 3 --out gamma2.json", 0),
    ("grading verify gamma1.json --sl 3", 0),
    ("grading classify gamma2.json --sl 3", 0),
    ("compat check rep210.json gamma1.json --inner 3,1", 0),
    ("compat check rep210.json gamma2.json --outer 3", 0),
    ("compat check rep100.json gamma2.json --outer 3", 1),
    ("compat check rep100.json gamma2.json --outer 3 --doubled", 0),
    ("contract solve-eps --group 2", 0),
    ("contract solve-psi --group 2 --eps 1,1,1,0", 0),
    ("contract apply --sl 3 --grading gamma1.json --eps 0,0,0,1 --out heis.json", 0),
]
# Facts the README states next to its CLI flow.
README_STDOUT_FACTS = ["part dims: L_0=4, L_1=4", "part dims: L_0=3, L_1=5", "two-part classification: Z2Grading",
                       "binary epsilon solutions over Z2: 5", "binary psi solutions for eps=[[1,1],[1,0]]: 6"]
PAPER_TOP = (2, 1, 1, 0)
CONJUGATE_NS = (3, 4)


@dataclass(eq=False)
class PaperInputs:
    weights: list  # HighestWeight, in seeded order
    auts: dict  # n -> (inner (n,1), outer)
    conjugates: list  # (n, seeded conjugate of inner (n,1)): dense float gradings
    cli_stdout: str | None = None  # stdout of the first README CLI flow run

    @property
    def names(self) -> list:
        return [f"conj inner({n},1)" for n, _ in self.conjugates] + [f"r{hw}" for hw in self.weights]


def paper_inputs(seed: int) -> PaperInputs:
    weights = [(m1, 0) for m1 in range(1, 5)]
    weights += [(m1, m2, 0) for m1 in range(1, 4) for m2 in range(m1 + 1)]
    weights += [(1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), PAPER_TOP]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(weights))
    hws = [gtrep.HighestWeight(len(weights[i]), weights[i]) for i in order]
    auts = {n: (autos.auto_inner(n, 1), autos.auto_outer(n)) for n in (2, 3, 4)}
    conjugates = [(n, conjugate_inner(seeded_orthogonal(rng, n))) for n in CONJUGATE_NS]
    return PaperInputs(weights=hws, auts=auts, conjugates=conjugates)


def paper_pass(rec, inp: PaperInputs) -> None:
    with rec.item("binary tables"):
        eps_tables, psis = binary_tables(rec, Z2, psi_for_each=True)
        # the psi table with the most nonzero cells; all ones for eps all ones
        psi_for = [max(found, key=lambda p: sum(p.as_tuple())) for found in psis]
        binary_tables(rec, AbelianGroup((3,)), psi_for_each=False)
    for n, aut in inp.conjugates:
        with rec.item(f"conj inner({n},1)"):
            alg = rec.call("algebra.sl_algebra", algebra.sl_algebra, n)
            try:
                gamma = rec.call("autos.grading_from_automorphism", autos.grading_from_automorphism, alg, aut)
            except VerificationError as exc:
                # A false negative, not a wrong answer: the input is a valid
                # automorphism, but on a dense float basis round-off can
                # exceed the fixed rank tolerance of the eigenspace split.
                rec.outcome(False, f"grading_from_automorphism refused a valid conjugate: {exc}")
                continue
            check_grading(rec, alg, gamma, part_dims("inner", n))
    for hw in inp.weights:
        with rec.item(f"r{hw}", top=hw.m == PAPER_TOP):
            paper_item(rec, inp, hw, list(zip(eps_tables, psi_for)))
    with rec.item("README CLI flow"):
        readme_cli(rec, inp)


def paper_item(rec, inp: PaperInputs, hw, contractions) -> None:
    n = hw.n
    inner, outer = inp.auts[n]
    alg = rec.call("algebra.sl_algebra", algebra.sl_algebra, n)
    rep = build_rep(rec, hw)
    if rep is None:
        return
    check_commutation(rec, rep)
    self_dual = self_contragredient(hw.m)
    doubled = None
    for kind, aut in (("inner", inner), ("outer", outer)):
        gamma = graded(rec, alg, aut, part_dims(kind, n))
        carrier = rep
        if kind == "inner":
            sim = rec.call("autos.simulation_inner", autos.simulation_inner, hw, n, 1)
        elif self_dual:
            sim = rec.call("autos.J_matrix", autos.J_matrix, hw)
        else:
            carrier, sim = rec.call("autos.doubled_rep", autos.doubled_rep, hw)
            doubled = carrier
        vgamma = simulate(rec, alg, gamma, carrier, aut, sim)
        for eps, psi in contractions:
            calg = contract(rec, alg, gamma, eps)
            crep = rec.call("contraction.contract_rep", contraction.contract_rep, carrier, vgamma, gamma, psi, eps)
            hom = rec.call("contraction.verify_rep_homomorphism", contraction.verify_rep_homomorphism, crep, calg)
            rec.check(hom.ok, f"contracted rep is not a homomorphism: {hom.violations[:2]}")
    # The direct solver must find an R on every carrier that has one (the
    # plain rep when self-contragredient, else the doubled rep) and must
    # return None on the plain rep of the other weights.
    carriers = [("plain", rep, self_dual)]
    if doubled is not None:
        carriers.append(("doubled", doubled, True))
    for label, carrier, exists in carriers:
        d = carrier.dim
        if d > SOLVER_MAX_DIM:
            continue
        nbytes = solver_bytes(n, d)
        rec.count("autos.solver_unknowns", d * d)
        rec.high_water("autos.solver_svd_bytes", nbytes)
        if not guard(rec, nbytes, f"find_simulation_matrix on {label} d={d}"):
            continue
        found = rec.call("autos.find_simulation_matrix", autos.find_simulation_matrix, carrier, outer)
        if not exists:
            rec.check(found is None, f"solver found an R on {label} r{hw}, which has none")
            continue
        rec.count("autos.solver_expected")
        rec.outcome(found is not None, f"find_simulation_matrix missed the {label} carrier d={d}")
        if found is not None:
            rec.count("autos.solver_found")
            report = rec.call("autos.verify_simulation", autos.verify_simulation, carrier, outer, found)
            rec.check(report.ok, f"solver R on {label} r{hw} fails verify_simulation")
    payload = rec.call("jsonio.rep_to_json", jsonio.rep_to_json, rep)
    text = rec.call("jsonio.canonical_dumps", jsonio.canonical_dumps, payload)
    rec.count("jsonio.bytes", len(text))
    back = rec.call("jsonio.rep_from_json", jsonio.rep_from_json, json.loads(text))
    rec.check(
        back.patterns == rep.patterns and all(np.array_equal(back.gen[key], m) for key, m in rep.gen.items()),
        "JSON round trip changed the representation",
    )


def readme_cli(rec, inp: PaperInputs) -> None:
    """The README CLI flow, in-process, with its --out artifacts in a fresh
    directory under OUT_DIR; relative file names keep stdout comparable."""
    out = io.StringIO()
    cwd = os.getcwd()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        os.chdir(workdir)
        try:
            for line, expected in README_CLI:
                err = io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = rec.call("cli.main", cli.main, line.split())
                rec.check(code == expected, f"`gtlie {line}` exited {code}, expected {expected}: {err.getvalue()}")
        finally:
            os.chdir(cwd)
    text = out.getvalue()
    rec.check(all(fact in text for fact in README_STDOUT_FACTS), "README facts missing from CLI stdout")
    if inp.cli_stdout is None:
        inp.cli_stdout = text
    rec.check(text == inp.cli_stdout, "CLI stdout differs from the first run's")


# ---------------------------------------------------------------------------
# rep_ladder
# ---------------------------------------------------------------------------

REP_WEIGHTS = [(10, 5, 0), (14, 7, 0), (20, 10, 0), (6, 3, 1, 0)]
REP_TOP = (20, 10, 0)
REP_CHAIN = (4, 3, 1, 0)
TRANSPOSE_TOL = 1e-12
TRACE_TOL = 1e-9


@dataclass(eq=False)
class RepInputs:
    weights: list  # HighestWeight, in seeded order
    chain: gtrep.HighestWeight
    auts: tuple  # inner (4,1), outer for the chain

    @property
    def names(self) -> list:
        return [f"r{hw}" for hw in self.weights] + [f"chain r{self.chain}"]


def rep_inputs(seed: int) -> RepInputs:
    order = np.random.default_rng(seed).permutation(len(REP_WEIGHTS))
    hws = [gtrep.HighestWeight(len(REP_WEIGHTS[i]), REP_WEIGHTS[i]) for i in order]
    n = len(REP_CHAIN)
    return RepInputs(weights=hws, chain=gtrep.HighestWeight(n, REP_CHAIN),
                     auts=(autos.auto_inner(n, 1), autos.auto_outer(n)))


def rep_pass(rec, inp: RepInputs) -> None:
    for hw in inp.weights:
        with rec.item(f"r{hw}", top=hw.m == REP_TOP):
            rep = build_rep(rec, hw)
            if rep is None:
                continue
            check_commutation(rec, rep)
            transpose = rec.call("gtrep.verify_transpose", gtrep.verify_transpose, rep)
            rec.check(transpose <= TRANSPOSE_TOL, f"transpose residual {transpose:.3g}")
            trace = rec.call("gtrep.verify_sl_trace", gtrep.verify_sl_trace, rep)
            rec.check(trace <= TRACE_TOL, f"sl trace residual {trace:.3g}")
            del rep  # so peak RSS holds one rep's generators, not two
    hw = inp.chain
    n = hw.n
    inner, outer = inp.auts
    with rec.item(f"chain r{hw}"):
        rep = build_rep(rec, hw)
        alg = rec.call("algebra.sl_algebra", algebra.sl_algebra, n)
        gamma = graded(rec, alg, inner, part_dims("inner", n), classify=False)
        sim = rec.call("autos.simulation_inner", autos.simulation_inner, hw, n, 1)
        simulate(rec, alg, gamma, rep, inner, sim)
        gamma = graded(rec, alg, outer, part_dims("outer", n), classify=False)
        sim = rec.call("autos.J_matrix", autos.J_matrix, hw)
        simulate(rec, alg, gamma, rep, outer, sim)


@dataclass(frozen=True)
class Workload:
    inputs: object
    run_pass: object


WORKLOADS = {
    "paper_sweep": Workload(paper_inputs, paper_pass),
    "rep_ladder": Workload(rep_inputs, rep_pass),
}
