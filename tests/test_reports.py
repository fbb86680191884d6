"""Every check builds its Report by the one fold, Report.of: ok is
(not violations), worst_at is v[:-1] of the first worst violation v,
max_residual is the largest violation's residual whenever the check
fails, and no NaN survives into max_residual or the violations."""

import dataclasses
import math
from functools import cache

import numpy as np
import pytest

import gtlie
from gtlie.algebra import Grading, LieAlgebra, Report, check_jacobi, sl_algebra, verify_grading
from gtlie.autos import (
    SimulationMatrix,
    auto_inner,
    auto_outer,
    check_compatibility,
    decompose_rep_space,
    grading_from_automorphism,
    simulation_inner,
    verify_simulation,
)
from gtlie.contraction import contract_algebra, contract_rep, verify_epsilon, verify_psi, verify_rep_homomorphism
from gtlie.errors import InputError
from gtlie.groups import AbelianGroup
from gtlie.gtrep import GeneratorRep, HighestWeight, build_representation, verify_commutation
from gtlie.linalg import Entries
from oracles import contracted_matrices

TOL = 1e-9
Z2 = AbelianGroup((2,))
HW = HighestWeight(3, (2, 1, 0))
ONES = [[1, 1], [1, 1]]


@cache
def rep(kind: str) -> GeneratorRep:
    """r(2,1,0), with one generator entry moved by 0.5 ("fail") or made NaN ("nan")."""
    good = build_representation(HW)
    if kind == "pass":
        return good
    gen = {key: m.copy() for key, m in good.gen.items()}
    gen[(1, 3)][0, 6] = 0.5 + gen[(1, 3)][0, 6] if kind == "fail" else math.nan
    return GeneratorRep(3, gen)


def inner_grading():
    return grading_from_automorphism(sl_algebra(3), auto_inner(3, 1))


def grading_case(kind, tol=TOL):
    sl3, gamma = sl_algebra(3), inner_grading()
    parts = {lab: part.copy() for lab, part in gamma.parts.items()}
    if kind == "fail":  # a vector of L_0 in L_1 as well: no direct sum, and brackets spill
        parts[(1,)][:, 0] = parts[(0,)][:, 0]
    elif kind == "nan":
        parts[(0,)][0, 0] = math.nan
    return verify_grading(sl3, Grading(group=gamma.group, parts=parts), tol), 8 * 8


def simulation_case(kind, tol=TOL):
    if kind == "fail":  # the identity does not simulate X -> -X^T
        return verify_simulation(rep("pass"), auto_outer(3), SimulationMatrix(2, "dense", dense=np.eye(8)), tol), 9
    return verify_simulation(rep(kind), auto_inner(3, 1), simulation_inner(HW, 3, 1), tol), 8 + 1


def compatibility_case(kind, tol=TOL):
    vgamma = decompose_rep_space(simulation_inner(HW, 3, 1))
    gamma = grading_from_automorphism(sl_algebra(3), auto_outer(3)) if kind == "fail" else inner_grading()
    return check_compatibility(rep("pass" if kind == "fail" else kind), gamma, vgamma, tol), 8 * 8


def epsilon_case(kind, tol=TOL):
    rows = {"pass": ONES, "fail": [[1, 1], [0, 1]], "nan": [[math.nan, 1], [1, 1]]}[kind]
    return verify_epsilon(gtlie.epsilon_from_rows(Z2, rows), tol), 4 + 8


def psi_case(kind, tol=TOL):
    rows = {"pass": ONES, "fail": [[1, 1], [1, 0]], "nan": [[math.nan, 1], [1, 1]]}[kind]
    return verify_psi(gtlie.psi_from_rows(Z2, rows), gtlie.epsilon_from_rows(Z2, ONES), tol), 8


def commutation_case(kind, tol=TOL):
    return verify_commutation(rep(kind), tol), 3**4


def jacobi_case(kind, tol=TOL):
    structure = sl_algebra(3).structure.copy()
    if kind == "fail":  # still antisymmetric, no longer a Lie algebra
        structure[0, 1, 2] += 0.5
        structure[1, 0, 2] -= 0.5
    return check_jacobi(LieAlgebra(basis_names=tuple("abcdefgh"), structure=structure), tol), 8**3


def homomorphism_case(kind, tol=TOL):
    sl3, gamma = sl_algebra(3), inner_grading()
    hw = HighestWeight(3, (1, 0, 0))
    table, ones = gtlie.epsilon_from_rows(Z2, ONES), gtlie.psi_from_rows(Z2, ONES)
    crep = contract_rep(build_representation(hw), decompose_rep_space(simulation_inner(hw, 3, 1)), gamma, ones, table)
    if kind != "pass":
        mats = contracted_matrices(crep)
        mats[2][1, 0] = 0.5 if kind == "fail" else math.nan
        crep = dataclasses.replace(crep, entries=Entries.of(mats))
    return verify_rep_homomorphism(crep, contract_algebra(sl3, gamma, table), tol), 8 * 8


CHECKS = (grading_case, simulation_case, compatibility_case, epsilon_case, psi_case, commutation_case,
          jacobi_case, homomorphism_case)
# check_jacobi takes no NaN input: LieAlgebra refuses one as not antisymmetric.
CASES = [
    (case, kind) for case in CHECKS for kind in ("pass", "fail", "nan") if not (case is jacobi_case and kind == "nan")
]


@pytest.mark.parametrize("case, kind", CASES, ids=[f"{case.__name__}-{kind}" for case, kind in CASES])
def test_every_check_folds_its_verdict_the_one_way(case, kind):
    report, checked = case(kind)
    assert report.tol == TOL and report.checked == checked
    assert report.ok == (not report.violations) == (kind == "pass")
    residuals = [v[-1] for v in report.violations]
    assert not math.isnan(report.max_residual) and not any(math.isnan(r) for r in residuals)
    if kind == "nan":
        assert report.max_residual == math.inf
    if report.violations:
        first = residuals.index(max(residuals))
        assert report.max_residual == residuals[first]
        assert report.worst_at == report.violations[first][:-1]
    elif report.max_residual == 0.0:
        assert report.worst_at is None


def test_the_fold_keeps_repeated_places_and_reads_nan_as_inf():
    report = Report.of([(("a",), 0.5), (("b",), math.nan), (("a",), math.inf), (("c",), 0.0)], 0.25)
    assert report.violations == (("a", 0.5), ("b", math.inf), ("a", math.inf))
    assert not report.ok and report.max_residual == math.inf and report.worst_at == ("b",)
    assert report.checked == 4 and report.tol == 0.25
    assert vars(Report.of([], 1e-9, checked=7)) == vars(Report(ok=True, checked=7, tol=1e-9))
    assert Report.of([((1, 2), 0.0)], 1e-9).worst_at is None


@pytest.mark.parametrize("case", CHECKS, ids=lambda case: case.__name__)
def test_a_tolerance_no_residual_can_exceed_is_refused_by_every_check(case):
    # at a NaN or infinite tol every failing input would pass; a negative one fails every check
    for tol in (math.nan, math.inf, -1e-9):
        with pytest.raises(InputError, match="tolerance"):
            case("fail", tol)


@pytest.mark.parametrize("case", CHECKS, ids=lambda case: case.__name__)
def test_a_zero_tolerance_is_accepted_by_every_check(case):
    # Report.of is the one tolerance rule, and it admits 0: only an exact residual of 0 passes
    for kind in ("pass", "fail"):
        report, _ = case(kind, 0.0)
        assert report.tol == 0.0
        if kind == "fail":
            assert not report.ok
