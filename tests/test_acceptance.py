"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
asserts the criterion at its stated tolerance.
"""

import cmath
import itertools
import math

import numpy as np
import pytest

import gtlie
from gtlie.groups import AbelianGroup
from gtlie.gtrep import (
    HighestWeight,
    build_representation,
    pattern_array,
    verify_commutation,
    verify_transpose,
    weyl_dim,
)
from oracles import enumerate_patterns, per_label_sl_matrices

Z2 = AbelianGroup((2,))

SWEEP = {
    2: [(1, 0)],
    3: [(1, 0, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0)],
    4: [(1, 0, 0, 0), (1, 1, 0, 0)],
}


def report(number: int, ok: bool, text: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


@pytest.fixture(scope="module")
def sl3():
    return gtlie.sl_algebra(3)


@pytest.fixture(scope="module")
def gamma1(sl3):
    return gtlie.grading_from_automorphism(sl3, gtlie.auto_inner(3, 1))


@pytest.fixture(scope="module")
def gamma2(sl3):
    return gtlie.grading_from_automorphism(sl3, gtlie.auto_outer(3))


def all_weights(n, max_entry=4):
    for m in itertools.product(range(max_entry + 1), repeat=n - 1):
        if all(m[i] >= m[i + 1] for i in range(len(m) - 1)):
            yield HighestWeight(n, tuple(m) + (0,))


def test_criterion_1_dimensions():
    ok = build_representation(HighestWeight(3, (2, 1, 0))).dim == 8
    checked = 0
    for n in (2, 3, 4):
        for hw in all_weights(n):
            ok = ok and len(pattern_array(hw)) == weyl_dim(hw)
            checked += 1
    report(1, ok, f"r(2,1,0) has dim 8; pattern count == Weyl dim for {checked} weights (entries <= 4, n <= 4)")


def test_criterion_2_gt_correctness():
    worst_comm = 0.0
    worst_transpose = 0.0
    for n, weights in SWEEP.items():
        for w in weights:
            rep = build_representation(HighestWeight(n, w))
            worst_comm = max(worst_comm, verify_commutation(rep).max_residual)
            worst_transpose = max(worst_transpose, verify_transpose(rep))
    ok = worst_comm <= 1e-9 and worst_transpose <= 1e-12
    report(2, ok, f"commutator residual {worst_comm:.2e} <= 1e-9, transpose residual {worst_transpose:.2e} <= 1e-12")


def test_criterion_3_inner_simulation():
    hw = HighestWeight(3, (2, 1, 0))
    rep = build_representation(hw)
    sim = gtlie.simulation_inner(hw, 3, 1)
    m = sim.matrix
    square_exact = np.array_equal(m @ m, np.eye(8, dtype=complex))
    conj = gtlie.verify_simulation(rep, gtlie.auto_inner(3, 1), sim, 1e-9)
    phases_ok = True
    for p, value in zip(enumerate_patterns(hw), np.diag(m)):
        closed = cmath.exp(-2j * math.pi * (p.entry(1, 3) + p.entry(2, 3)) / 3) * cmath.exp(
            -1j * math.pi * (p.entry(1, 2) + p.entry(2, 2))
        )
        phases_ok = phases_ok and abs(value - closed) < 1e-12
    ok = square_exact and conj.ok and phases_ok
    report(
        3,
        ok,
        f"R^2 = Id exactly: {square_exact}; conjugation residual {conj.max_residual:.2e} <= 1e-9; "
        f"all 8 phases match the closed form: {phases_ok}",
    )


def test_criterion_4_outer_simulation():
    hw = HighestWeight(3, (2, 1, 0))
    rep = build_representation(hw)
    sim = gtlie.J_matrix(hw)
    m = sim.matrix
    signed_perm = sim.kind == "signed_permutation" and all(s in (1, -1) for s in sim.signs)
    square_exact = np.array_equal(m @ m, np.eye(8, dtype=complex))
    intertwine = max(np.abs(-m @ x.T - x @ m).max() for x in per_label_sl_matrices(rep))

    pats = enumerate_patterns(hw)
    index = {p.rows[1:]: i for i, p in enumerate(pats)}
    reference_entries = [
        (((2, 1), (2,)), +1, ((1, 0), (0,))),
        (((1, 0), (0,)), +1, ((2, 1), (2,))),
        (((2, 1), (1,)), -1, ((1, 0), (1,))),
        (((1, 0), (1,)), -1, ((2, 1), (1,))),
        (((1, 1), (1,)), +1, ((1, 1), (1,))),
        (((2, 0), (1,)), +1, ((2, 0), (1,))),
    ]
    resolved = [
        (((2, 0), (2,)), -1, ((2, 0), (0,))),
        (((2, 0), (0,)), -1, ((2, 0), (2,))),
    ]
    table_ok = True
    for source, sign, target in reference_entries + resolved:
        c = index[source]
        table_ok = table_ok and sim.perm[c] == index[target] and sim.signs[c] == complex(sign)
    ok = signed_perm and square_exact and intertwine <= 1e-9 and table_ok
    report(
        4,
        ok,
        f"J signed permutation with J^2 = Id: {signed_perm and square_exact}; "
        f"-J r(X)^T = r_c(X) J residual {intertwine:.2e} <= 1e-9; 8-entry table matches: {table_ok}",
    )


def test_criterion_5_compatibility_iff(sl3, gamma1, gamma2):
    results = []
    for w in SWEEP[3]:
        hw = HighestWeight(3, w)
        rep = build_representation(hw)
        vg = gtlie.decompose_rep_space(gtlie.simulation_inner(hw, 3, 1))
        results.append(gtlie.check_compatibility(rep, gamma1, vg, 1e-9).ok)
    gamma1_ok = all(results)

    hw8 = HighestWeight(3, (2, 1, 0))
    rep8 = build_representation(hw8)
    vg8 = gtlie.decompose_rep_space(gtlie.J_matrix(hw8))
    gamma2_ok = gtlie.check_compatibility(rep8, gamma2, vg8, 1e-9).ok

    hw3 = HighestWeight(3, (1, 0, 0))
    rejected = not gtlie.is_self_contragredient(hw3)
    with pytest.raises(gtlie.InputError):
        gtlie.J_matrix(hw3)
    rep3 = build_representation(hw3)
    rejected = rejected and gtlie.find_simulation_matrix(rep3, gtlie.auto_outer(3)) is None

    rep6, swap = gtlie.doubled_rep(hw3)
    vg6 = gtlie.decompose_rep_space(swap)
    doubled_ok = (
        rep6.dim == 6
        and gtlie.verify_simulation(rep6, gtlie.auto_outer(3), swap, 1e-9).ok
        and gtlie.check_compatibility(rep6, gamma2, vg6, 1e-9).ok
    )
    ok = gamma1_ok and gamma2_ok and rejected and doubled_ok
    report(
        5,
        ok,
        f"Gamma1 compatible with all {len(results)} tested irreps: {gamma1_ok}; Gamma2 x r(2,1,0): {gamma2_ok}; "
        f"r(1,0,0) rejected: {rejected}; doubled 6-dim rep accepted: {doubled_ok}",
    )


def test_criterion_6_contraction_solution_sets():
    eps_list = gtlie.enumerate_binary_epsilon(Z2)
    eps_set = {t.as_tuple() for t in eps_list}
    expected_eps = {
        (0, 0, 0, 0),
        (0, 0, 0, 1),
        (1, 0, 0, 0),
        (1, 1, 1, 0),
        (1, 1, 1, 1),
    }
    normal_forms = {(1, 1, 1, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)}
    eps_ok = (
        len(eps_list) == 5
        and {tuple(int(x) for x in t) for t in eps_set} == expected_eps
        and normal_forms <= {tuple(int(x) for x in t) for t in eps_set}
    )

    canonical = gtlie.epsilon_from_rows(Z2, [[1, 1], [1, 0]])
    psi_list = gtlie.enumerate_binary_psi(canonical)
    psi_set = {tuple(int(x) for x in t.as_tuple()) for t in psi_list}
    expected_psi = {
        (1, 1, 1, 0),
        (1, 1, 0, 1),
        (1, 1, 0, 0),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 0, 0),
    }
    psi_ok = len(psi_list) == 6 and psi_set == expected_psi
    ok = eps_ok and psi_ok
    report(6, ok, f"binary epsilon solutions: {len(eps_list)} == 5 (all four normal forms included); "
                  f"binary psi solutions for [[1,1],[1,0]]: {len(psi_list)} == 6, exact set match")


def test_criterion_7_contracted_objects(sl3, gamma1):
    hw = HighestWeight(3, (1, 0, 0))
    rep = build_representation(hw)
    vg = gtlie.decompose_rep_space(gtlie.simulation_inner(hw, 3, 1))

    jacobi_ok = True
    worst_hom = 0.0
    pairs = 0
    for eps in gtlie.enumerate_binary_epsilon(Z2):
        calg = gtlie.contract_algebra(sl3, gamma1, eps)
        jacobi_ok = jacobi_ok and gtlie.check_jacobi(calg.result).max_residual == 0.0
        for psi in gtlie.enumerate_binary_psi(eps):
            crep = gtlie.contract_rep(rep, vg, gamma1, psi, eps)
            res = gtlie.verify_rep_homomorphism(crep, calg).max_residual
            worst_hom = max(worst_hom, res)
            pairs += 1

    zero = gtlie.contract_algebra(sl3, gamma1, gtlie.epsilon_from_rows(Z2, [[0, 0], [0, 0]]))
    abelian_ok = np.abs(zero.result.structure).max() == 0.0

    heis = gtlie.contract_algebra(sl3, gamma1, gtlie.epsilon_from_rows(Z2, [[0, 0], [0, 1]]))
    c, labels = heis.result.structure, heis.labels
    survivors = {
        (labels[a], labels[b])
        for a in range(8)
        for b in range(8)
        if np.abs(c[a, b]).max() > 0
    }
    heis_ok = survivors == {((1,), (1,))}

    ok = jacobi_ok and worst_hom <= 1e-9 and abelian_ok and heis_ok
    report(
        7,
        ok,
        f"Jacobi exact for all 5 epsilons: {jacobi_ok}; {pairs} (eps,psi) homomorphism residual "
        f"{worst_hom:.2e} <= 1e-9; all-zero eps abelian: {abelian_ok}; Heisenberg pattern: {heis_ok}",
    )


def test_criterion_8_two_part_classification(sl3, gamma1, gamma2):
    z2 = gtlie.TwoPartCase.Z2_GRADING
    fixed_ok = (
        gtlie.classify_two_part(sl3, gamma1.parts[(0,)], gamma1.parts[(1,)]) == z2
        and gtlie.classify_two_part(sl3, gamma2.parts[(0,)], gamma2.parts[(1,)]) == z2
    )

    rng = np.random.default_rng(20260809)
    random_ok = True
    for trial in range(20):
        n = 2 if trial % 2 == 0 else 3
        algebra = gtlie.sl_algebra(n)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        if trial % 4 < 2:
            s = 1 + int(rng.integers(0, n // 2))
            base = gtlie.auto_inner(n, s).matrix
            aut = gtlie.Automorphism(kind="inner", matrix=q @ base @ q.conj().T, order=2)
        else:
            aut = gtlie.Automorphism(kind="outer", matrix=q @ q.T, order=2)
        gamma = gtlie.grading_from_automorphism(algebra, aut, 1e-9)
        parts = [gamma.parts[lab] for lab in gamma.sorted_labels()]
        random_ok = random_ok and gtlie.classify_two_part(algebra, parts[0], parts[1], 1e-9) == z2

    sl2 = gtlie.sl_algebra(2)  # basis E12 (e), E21 (f), H1 (h)
    e = np.array([1, 0, 0], dtype=complex)
    f = np.array([0, 1, 0], dtype=complex)
    h = np.array([0, 0, 1], dtype=complex)
    spill = gtlie.classify_two_part(sl2, np.column_stack([e, h]), f.reshape(-1, 1))
    not_grading_ok = spill == gtlie.TwoPartCase.NOT_A_GRADING

    burnside = gtlie.burnside_span_dim(gtlie.adjoint_rep(sl3))
    burnside_ok = burnside == 64

    ok = fixed_ok and random_ok and not_grading_ok and burnside_ok
    report(
        8,
        ok,
        f"Gamma1/Gamma2 classify Z2: {fixed_ok}; 20 random automorphism splits Z2: {random_ok}; "
        f"sl(2) {{e,h}}|{{f}} NotAGrading: {not_grading_ok}; Burnside span of adjoint sl(3) = {burnside} == 64",
    )
