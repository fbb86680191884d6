import dataclasses
import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtlie
from gtlie import contraction as contraction_module
from gtlie import jsonio
from gtlie.contraction import (
    ContractedRep,
    EpsilonTable,
    PsiTable,
    contract_algebra,
    contract_rep,
    enumerate_binary_epsilon,
    enumerate_binary_psi,
    epsilon_from_rows,
    psi_from_rows,
    verify_epsilon,
    verify_psi,
    verify_rep_homomorphism,
)
from gtlie.errors import IncompatibleError, InputError, VerificationError
from gtlie.groups import AbelianGroup
from gtlie.gtrep import GeneratorRep, HighestWeight, build_representation
from oracles import (
    per_cell_epsilon,
    per_cell_psi,
    per_pair_homomorphism,
    per_table_binary_epsilon,
    per_table_binary_psi,
    per_vector_contract_rep,
)

Z2 = AbelianGroup((2,))


def eps(rows):
    return epsilon_from_rows(Z2, rows)


def psi(rows):
    return psi_from_rows(Z2, rows)


@pytest.fixture(scope="module")
def sl3_setup():
    sl3 = gtlie.sl_algebra(3)
    gamma1 = gtlie.grading_from_automorphism(sl3, gtlie.auto_inner(3, 1))
    return sl3, gamma1


def test_verify_epsilon_examples():
    assert verify_epsilon(eps([[1, 1], [1, 0]])).ok
    assert verify_epsilon(eps([[1, 1], [1, 1]])).ok
    report = verify_epsilon(eps([[0, 1], [1, 0]]))
    assert not report.ok


def test_verify_epsilon_rejects_asymmetry_and_gaps():
    table = EpsilonTable(Z2, {((0,), (0,)): 1, ((0,), (1,)): 1, ((1,), (0,)): 0, ((1,), (1,)): 0})
    report = verify_epsilon(table)
    assert not report.ok and any(v[0] == "symmetry" for v in report.violations)
    with pytest.raises(InputError):
        verify_epsilon(EpsilonTable(Z2, {((0,), (0,)): 1}))


def test_binary_epsilon_solutions_z2():
    tables = enumerate_binary_epsilon(Z2)
    got = {t.as_tuple() for t in tables}  # (e00, e01, e10, e11)
    expected = {
        (0, 0, 0, 0),
        (0, 0, 0, 1),
        (1, 0, 0, 0),
        (1, 1, 1, 0),
        (1, 1, 1, 1),
    }
    assert got == {tuple(Fraction(x) for x in t) for t in expected}
    # the four published normal forms all appear
    for rows in ([[1, 1], [1, 0]], [[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 0], [0, 0]]):
        assert eps(rows).as_tuple() in got


def test_binary_epsilon_matches_reduced_system_oracle():
    # independent oracle: the Z2 system reduces to
    # (e00 - e01) e01 = 0 = (e00 - e01) e11
    solutions = {t.as_tuple() for t in enumerate_binary_epsilon(Z2)}
    brute = set()
    for e00, e01, e11 in itertools.product((0, 1), repeat=3):
        if (e00 - e01) * e01 == 0 and (e00 - e01) * e11 == 0:
            brute.add(tuple(Fraction(x) for x in (e00, e01, e01, e11)))
    assert solutions == brute


def test_binary_epsilon_trivial_group():
    group = AbelianGroup((1,))
    tables = enumerate_binary_epsilon(group)
    assert [t.as_tuple() for t in tables] == [(Fraction(0),), (Fraction(1),)]


# Binary eps solution counts, pinned from the per-table oracle.
EPS_COUNTS = {(1,): 2, (2,): 5, (3,): 15, (4,): 47, (2, 2): 41}


@pytest.mark.parametrize("orders", list(EPS_COUNTS), ids=str)
def test_binary_epsilon_tables_match_the_oracle_in_order(orders):
    tables = [t.as_tuple() for t in enumerate_binary_epsilon(AbelianGroup(orders))]
    assert len(tables) == EPS_COUNTS[orders]
    assert tables == [t.as_tuple() for t in per_table_binary_epsilon(AbelianGroup(orders))]
    assert all(type(v) is Fraction for t in tables for v in t)


@pytest.mark.parametrize("orders", [(1,), (2,), (3,)], ids=str)
def test_binary_psi_tables_match_the_oracle_in_order(orders):
    for e in enumerate_binary_epsilon(AbelianGroup(orders)):
        tables = [t.as_tuple() for t in enumerate_binary_psi(e)]
        assert tables == [t.as_tuple() for t in per_table_binary_psi(e)]
        assert all(type(v) is Fraction for t in tables for v in t)


TABLE_GROUPS = [AbelianGroup(orders) for orders in EPS_COUNTS]
CELLS = {
    "binary": st.sampled_from([0, 1]),
    "rational": st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    # |numerator| 2^26 is the largest the int64 path takes with scale 1;
    # past it, products over 2^53 are divided by the scale as Python ints
    "int64 edge": st.builds(Fraction, st.integers(-(2**26), 2**26)),
    "past the edge": st.builds(Fraction, st.integers(-(2**28), 2**28), st.integers(1, 3)),
    "large": st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**40)),
    "complex": st.one_of(
        st.complex_numbers(max_magnitude=1e3),
        st.sampled_from([math.nan, math.inf, -math.inf, complex(math.nan, 1.0), complex(0.0, math.inf)]),
    ),
}
CELLS["mixed"] = st.one_of(CELLS["rational"], CELLS["complex"])


@st.composite
def tables(draw, group, cls):
    """A table of one kind of cells, symmetric or not."""
    cell = CELLS[draw(st.sampled_from(sorted(CELLS)))]
    n = group.size
    rows = [[draw(cell) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rows = [[rows[min(a, b)][max(a, b)] for b in range(n)] for a in range(n)]
    return cls.from_rows(group, rows)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_table_kernel_reports_equal_the_per_cell_oracles(data):
    group = data.draw(st.sampled_from(TABLE_GROUPS))
    tol = data.draw(st.sampled_from([0.0, 1e-9, 0.5]))
    e, p = data.draw(tables(group, EpsilonTable)), data.draw(tables(group, PsiTable))
    assert vars(verify_epsilon(e, tol)) == vars(per_cell_epsilon(e, tol))
    assert vars(verify_psi(p, e, tol)) == vars(per_cell_psi(p, e, tol))


@pytest.mark.parametrize(
    "orders, a",
    [
        ((3,), (1, Fraction(1, 10), Fraction(3, 10))),
        ((3,), (Fraction(1, 10), Fraction(3, 10), Fraction(7, 10))),
        ((4,), (1, Fraction(1, 10), Fraction(3, 10), Fraction(7, 10))),
        ((2, 2), (1, Fraction(1, 10), Fraction(3, 10), Fraction(7, 10))),
    ],
    ids=str,
)
def test_coboundary_tables_have_an_exactly_zero_residual(orders, a):
    # eps_ij = a_i a_j / a_{i+j} and psi_ij = a_i b_j / b_{i+j} solve both
    # systems; evaluated in floats, these miss by a few ulps
    group = AbelianGroup(orders)
    add, n = group.addition_table(), group.size
    a, b = [Fraction(x) for x in a], [Fraction(1 + t, 7 - t) for t in range(n)]
    e = epsilon_from_rows(group, [[a[i] * a[j] / a[add[i][j]] for j in range(n)] for i in range(n)])
    p = psi_from_rows(group, [[a[i] * b[j] / b[add[i][j]] for j in range(n)] for i in range(n)])
    assert verify_epsilon(e, tol=0.0).max_residual == 0.0
    assert verify_psi(p, e, tol=0.0).max_residual == 0.0


def test_enumeration_guard():
    with pytest.raises(InputError):
        enumerate_binary_epsilon(AbelianGroup((2, 2, 2)))  # 36 cells
    with pytest.raises(InputError):
        enumerate_binary_psi(epsilon_from_rows(AbelianGroup((4,)), np.ones((4, 4), dtype=int).tolist()))


def test_verify_psi_examples():
    canonical = eps([[1, 1], [1, 0]])
    for table in enumerate_binary_epsilon(Z2):
        rows = [[table.value((0,), (0,)), table.value((0,), (1,))],
                [table.value((1,), (0,)), table.value((1,), (1,))]]
        assert verify_psi(psi(rows), table).ok  # psi = eps always solves
    assert verify_psi(psi([[1, 1], [0, 1]]), canonical).ok
    report = verify_psi(psi([[1, 1], [1, 1]]), canonical)
    assert not report.ok


def test_binary_psi_solutions_reference_list():
    canonical = eps([[1, 1], [1, 0]])
    got = {t.as_tuple() for t in enumerate_binary_psi(canonical)}
    expected = {
        (1, 1, 1, 0),
        (1, 1, 0, 1),
        (1, 1, 0, 0),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 0, 0),
    }
    assert got == {tuple(Fraction(x) for x in t) for t in expected}
    assert len(got) == 6


def test_binary_psi_edge_epsilons():
    all_ones = eps([[1, 1], [1, 1]])
    sols = {t.as_tuple() for t in enumerate_binary_psi(all_ones)}
    assert tuple(Fraction(1) for _ in range(4)) in sols  # psi = eps present
    all_zero = eps([[0, 0], [0, 0]])
    zeros = tuple(Fraction(0) for _ in range(4))
    assert zeros in {t.as_tuple() for t in enumerate_binary_psi(all_zero)}
    with pytest.raises(VerificationError):
        enumerate_binary_psi(eps([[0, 1], [1, 0]]))


def test_contract_identity_and_abelian(sl3_setup):
    sl3, gamma1 = sl3_setup
    ones = contract_algebra(sl3, gamma1, eps([[1, 1], [1, 1]]))
    # all-ones epsilon: same brackets, just written in the adapted basis
    adapted = ones.adapted
    k = sl3.dim
    for a in range(k):
        for b in range(k):
            direct = gtlie.bracket(adapted[:, a], adapted[:, b], sl3)
            via_new = adapted @ ones.result.structure[a, b]
            assert np.abs(direct - via_new).max() == 0.0
    zero = contract_algebra(sl3, gamma1, eps([[0, 0], [0, 0]]))
    assert np.abs(zero.result.structure).max() == 0.0


def test_contract_heisenberg_pattern(sl3_setup):
    sl3, gamma1 = sl3_setup
    calg = contract_algebra(sl3, gamma1, eps([[0, 0], [0, 1]]))
    c = calg.result.structure
    labels = calg.labels
    for a in range(8):
        for b in range(8):
            block = np.abs(c[a, b]).max()
            if labels[a] == (1,) and labels[b] == (1,):
                continue  # the only block allowed to survive
            assert block == 0.0
    # [L1, L1] is nonzero and lands entirely in the now-central L0
    ones_block = [
        l for a in range(8) for b in range(8) for l in range(8)
        if labels[a] == (1,) and labels[b] == (1,) and c[a, b, l] != 0
    ]
    assert ones_block and all(labels[l] == (0,) for l in ones_block)
    assert gtlie.check_jacobi(calg.result).max_residual == 0.0


def test_contract_semidirect_pattern(sl3_setup):
    # eps = [[1,1],[1,0]]: only the L1 x L1 block is killed
    sl3, gamma1 = sl3_setup
    calg = contract_algebra(sl3, gamma1, eps([[1, 1], [1, 0]]))
    c = calg.result.structure
    labels = calg.labels
    for a in range(8):
        for b in range(8):
            if labels[a] == (1,) and labels[b] == (1,):
                assert np.abs(c[a, b]).max() == 0.0


def test_contract_all_binary_epsilons_jacobi_exact(sl3_setup):
    sl3, gamma1 = sl3_setup
    for table in enumerate_binary_epsilon(Z2):
        calg = contract_algebra(sl3, gamma1, table)
        assert gtlie.check_jacobi(calg.result).max_residual == 0.0
        assert vars(calg.jacobi) == vars(gtlie.check_jacobi(calg.result))


def test_contract_rejects_bad_inputs(sl3_setup):
    sl3, gamma1 = sl3_setup
    with pytest.raises(VerificationError):
        contract_algebra(sl3, gamma1, eps([[0, 1], [1, 0]]))
    bad_parts = {
        (0,): np.eye(8, dtype=complex)[:, :5],
        (1,): np.eye(8, dtype=complex)[:, 5:],
    }
    bad = gtlie.Grading(group=Z2, parts=bad_parts)
    with pytest.raises(VerificationError):
        contract_algebra(sl3, bad, eps([[1, 1], [1, 1]]))


@pytest.fixture(scope="module")
def rep_setup(sl3_setup):
    sl3, gamma1 = sl3_setup
    hw = HighestWeight(3, (1, 0, 0))
    rep = build_representation(hw)
    vgamma = gtlie.decompose_rep_space(gtlie.simulation_inner(hw, 3, 1))
    return sl3, gamma1, rep, vgamma


def test_contract_rep_identity(rep_setup):
    # psi = eps = all-ones reproduces the base representation matrices
    sl3, gamma1, rep, vgamma = rep_setup
    table = eps([[1, 1], [1, 1]])
    ones = psi([[1, 1], [1, 1]])
    crep = contract_rep(rep, vgamma, gamma1, ones, table)
    for direct, m in zip(per_vector_contract_rep(rep, vgamma, gamma1, ones), crep.matrices, strict=True):
        assert np.abs(direct - m).max() <= 1e-12
    calg = contract_algebra(sl3, gamma1, table)
    assert verify_rep_homomorphism(crep, calg).max_residual <= 1e-12


def test_contract_rep_block_shape(rep_setup):
    # psi scales the V_j columns: X0 block-diagonal, X1 block-antidiagonal
    sl3, gamma1, rep, vgamma = rep_setup
    table = eps([[1, 1], [1, 0]])
    p = psi([[1, 1], [0, 1]])
    crep = contract_rep(rep, vgamma, gamma1, p, table)
    v0 = sum(1 for lab in crep.vlabels if lab == (0,))
    for a, lab in enumerate(crep.labels):
        m = crep.matrices[a]
        if lab == (0,):
            assert np.abs(m[v0:, :v0]).max() == 0.0 and np.abs(m[:v0, v0:]).max() == 0.0
        else:
            assert np.abs(m[:v0, :v0]).max() == 0.0 and np.abs(m[v0:, v0:]).max() == 0.0
    # psi_{1,0} = 0 kills the lower-left block of the odd operators
    odd = [crep.matrices[a] for a, lab in enumerate(crep.labels) if lab == (1,)]
    assert any(np.abs(m[:v0, v0:]).max() > 0 for m in odd)
    assert all(np.abs(m[v0:, :v0]).max() == 0.0 for m in odd)


def test_contract_rep_all_pairs(rep_setup):
    sl3, gamma1, rep, vgamma = rep_setup
    for table in enumerate_binary_epsilon(Z2):
        calg = contract_algebra(sl3, gamma1, table)
        for p in enumerate_binary_psi(table):
            crep = contract_rep(rep, vgamma, gamma1, p, table)
            report = verify_rep_homomorphism(crep, calg)
            assert report.ok and report.max_residual <= 1e-9


def test_contract_rep_rejects_incompatible(rep_setup):
    sl3, gamma1, rep, _ = rep_setup
    table = eps([[1, 1], [1, 1]])
    bad_v = gtlie.Grading(
        group=Z2,
        parts={
            (0,): np.eye(3, dtype=complex)[:, :1],
            (1,): np.eye(3, dtype=complex)[:, 1:],
        },
    )
    with pytest.raises(IncompatibleError):
        contract_rep(rep, bad_v, gamma1, psi([[1, 1], [1, 1]]), table)


def test_contract_rep_rejects_bad_psi(rep_setup):
    sl3, gamma1, rep, vgamma = rep_setup
    with pytest.raises(VerificationError):
        contract_rep(rep, vgamma, gamma1, psi([[1, 1], [1, 1]]), eps([[1, 1], [1, 0]]))


def test_homomorphism_check_catches_invalid_psi(rep_setup):
    # bypass the constructor guard and confirm the verifier sees the failure
    sl3, gamma1, rep, vgamma = rep_setup
    table = eps([[1, 1], [1, 0]])
    calg = contract_algebra(sl3, gamma1, table)
    good = contract_rep(rep, vgamma, gamma1, psi([[1, 1], [1, 0]]), table)
    bad_psi = psi([[1, 1], [1, 1]])
    scaled = []
    for a, lab in enumerate(good.labels):
        base = contract_rep(rep, vgamma, gamma1, psi([[1, 1], [1, 1]]), eps([[1, 1], [1, 1]])).matrices[a]
        m = base.copy()
        for col, vlab in enumerate(good.vlabels):
            m[:, col] *= complex(bad_psi.value(lab, vlab))
        scaled.append(m)
    tampered = ContractedRep(
        rep=rep, gamma=gamma1, vgamma=vgamma, eps=table, psi=bad_psi,
        labels=good.labels, vlabels=good.vlabels, vbasis=good.vbasis,
        matrices=tuple(scaled),
    )
    assert not verify_rep_homomorphism(tampered, calg).ok


def test_a_nan_cell_fails_the_table_checks():
    # the fold max(worst, nan) kept worst and nan > tol is false, so a NaN
    # cell passed both checks with max_residual 0.0
    rows = [[1, 1], [1, math.nan]]
    for report in (
        verify_epsilon(eps(rows)),
        verify_psi(psi(rows), eps([[1, 1], [1, 1]])),
        verify_psi(psi([[1, 1], [1, 1]]), eps(rows)),
    ):
        assert not report.ok and report.max_residual == math.inf and report.worst_at is not None


def test_table_reports_say_what_was_checked():
    report = verify_epsilon(eps([[0, 1], [1, 0]]))
    assert report.checked == 4 + 8 and report.tol == 1e-9
    worst = max(report.violations, key=lambda v: v[-1])
    assert report.worst_at == worst[:-1] and report.max_residual == worst[-1]
    assert verify_epsilon(eps([[1, 1], [1, 0]]), tol=0.0).worst_at is None
    report = verify_psi(psi([[1, 1], [1, 1]]), eps([[1, 1], [1, 0]]))
    assert report.checked == 8 and report.worst_at in {v[:3] for v in report.violations}


# The 17 irreps of the paper_sweep benchmark workload.
SWEEP_WEIGHTS = (
    [(m1, 0) for m1 in range(1, 5)]
    + [(m1, m2, 0) for m1 in range(1, 4) for m2 in range(m1 + 1)]
    + [(1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (2, 1, 1, 0)]
)


@functools.cache
def sweep_carrier(m, kind):
    """(sl(n), grading, carrier, carrier grading) for the inner (n,1) or the
    outer grading, with the doubled rep where the outer one needs it."""
    n = len(m)
    hw = HighestWeight(n, m)
    alg = gtlie.sl_algebra(n)
    gamma = gtlie.grading_from_automorphism(alg, gtlie.auto_inner(n, 1) if kind == "inner" else gtlie.auto_outer(n))
    rep = build_representation(hw)
    if kind == "inner":
        sim = gtlie.simulation_inner(hw, n, 1)
    elif gtlie.is_self_contragredient(hw):
        sim = gtlie.J_matrix(hw)
    else:
        rep, sim = gtlie.doubled_rep(hw)
    return alg, gamma, rep, gtlie.decompose_rep_space(sim)


@functools.cache
def table_pairs():
    """Every binary eps table over Z2 with each of its binary psi tables."""
    return [(e, p) for e in enumerate_binary_epsilon(Z2) for p in enumerate_binary_psi(e)]


@pytest.mark.parametrize("kind", ["inner", "outer"])
@pytest.mark.parametrize("m", SWEEP_WEIGHTS, ids=str)
def test_stacked_contraction_kernels_match_the_per_vector_oracles(m, kind):
    alg, gamma, rep, vgamma = sweep_carrier(m, kind)
    for e, p in table_pairs():
        calg = contract_algebra(alg, gamma, e)
        crep = contract_rep(rep, vgamma, gamma, p, e)
        oracle = per_vector_contract_rep(rep, vgamma, gamma, p)
        assert all(np.array_equal(x, y) for x, y in zip(crep.matrices, oracle, strict=True))
        report = verify_rep_homomorphism(crep, calg)
        ok, worst, labels = per_pair_homomorphism(crep, calg, 1e-9)
        assert report.ok == ok and [v[:2] for v in report.violations] == labels
        assert abs(report.max_residual - worst) <= 1e-12
        assert report.checked == alg.dim**2 and report.tol == 1e-9


def tampered(crep, t, mat):
    mats = list(crep.matrices)
    mats[t] = mat
    return dataclasses.replace(crep, matrices=tuple(mats))


@settings(max_examples=60)
@given(st.sampled_from(SWEEP_WEIGHTS), st.sampled_from(["inner", "outer"]), st.data())
def test_a_tampered_entry_is_reported_at_its_pairs(m, kind, data):
    alg, gamma, rep, vgamma = sweep_carrier(m, kind)
    e, p = data.draw(st.sampled_from(table_pairs()))
    crep = contract_rep(rep, vgamma, gamma, p, e)
    calg = contract_algebra(alg, gamma, e)
    k, d = alg.dim, rep.dim
    t, i, j = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
    bump = np.zeros((d, d))
    bump[i, j] = 1.0
    report = verify_rep_homomorphism(tampered(crep, t, crep.matrices[t] + bump), calg)
    # M_t + E moves the residual of (a, b) by
    # [a == t] [E, M_b] + [b == t] [M_a, E] - c_abt E
    c, mats = calg.result.structure, crep.matrices
    expected = [
        (a, b)
        for a in range(k)
        for b in range(k)
        if np.abs((a == t) * (bump @ mats[b] - mats[b] @ bump) + (b == t) * (mats[a] @ bump - bump @ mats[a])
                  - c[a, b, t] * bump).max() > 1e-9
    ]
    assert [v[:2] for v in report.violations] == expected
    ok, worst, labels = per_pair_homomorphism(tampered(crep, t, crep.matrices[t] + bump), calg, 1e-9)
    assert labels == expected and report.ok == ok == (not expected)
    assert abs(report.max_residual - worst) <= 1e-12
    if expected:
        assert report.worst_at in expected and report.max_residual == max(v[2] for v in report.violations)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("t", [0, 2, 7])
def test_a_nan_in_one_contracted_matrix_fails_closed(rep_setup, t, value):
    sl3, gamma1, rep, vgamma = rep_setup
    table = eps([[1, 1], [1, 0]])
    crep = contract_rep(rep, vgamma, gamma1, psi([[1, 1], [1, 0]]), table)
    calg = contract_algebra(sl3, gamma1, table)
    bad = crep.matrices[t].copy()
    bad[0, 0] = value
    report = verify_rep_homomorphism(tampered(crep, t, bad), calg)
    ok, worst, labels = per_pair_homomorphism(tampered(crep, t, bad), calg, 1e-9)
    assert not report.ok and report.max_residual == worst == math.inf
    assert [v[:2] for v in report.violations] == labels and (t, t) in labels


def test_homomorphism_check_refuses_matrices_of_the_wrong_shape(rep_setup):
    sl3, gamma1, rep, vgamma = rep_setup
    table = eps([[1, 1], [1, 1]])
    crep = contract_rep(rep, vgamma, gamma1, psi([[1, 1], [1, 1]]), table)
    calg = contract_algebra(sl3, gamma1, table)
    head = crep.matrices[:-1]
    for mats in (head, head + (np.eye(4),), head + (np.ones((3, 2)),), head + (np.ones((1, 3, 3)),)):
        with pytest.raises(InputError):
            verify_rep_homomorphism(dataclasses.replace(crep, matrices=mats), calg)


def test_homomorphism_check_of_a_d175_rep_stays_in_bounded_memory():
    hw = HighestWeight(4, (4, 3, 1, 0))
    alg = gtlie.sl_algebra(4)
    gamma = gtlie.grading_from_automorphism(alg, gtlie.auto_inner(4, 1))
    vgamma = gtlie.decompose_rep_space(gtlie.simulation_inner(hw, 4, 1))
    table = eps([[1, 1], [1, 0]])
    crep = contract_rep(build_representation(hw), vgamma, gamma, psi([[1, 1], [1, 0]]), table)
    calg = contract_algebra(alg, gamma, table)
    assert crep.vbasis.shape == (175, 175) and len(crep.matrices) == 15
    tracemalloc.start()
    try:
        report = verify_rep_homomorphism(crep, calg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole k^2 d^2 block of relations would be 110 MiB
    assert report.ok and report.checked == 225
    assert peak < 32 * 2**20


def test_an_integral_numpy_table_stays_exact():
    eps = epsilon_from_rows(Z2, np.ones((2, 2), dtype=int))
    assert all(type(v) is Fraction for v in eps.values.values())
    assert eps.as_tuple() == epsilon_from_rows(Z2, [[1, 1], [1, 1]]).as_tuple()
    assert verify_epsilon(eps, 0.0).ok
    assert jsonio.table_to_json(eps)["values"][0] == [[0], [0], 1, 1]


def test_an_integral_float_cell_stays_exact():
    psi = psi_from_rows(Z2, [[1 / 1, 1], [0.0, complex(1, 0)]])
    assert all(type(v) is Fraction for v in psi.values.values())
    assert psi.as_tuple() == (1, 1, 0, 1)
    assert [v[2:] for v in jsonio.table_to_json(psi)["values"]] == [[1, 1], [1, 1], [0, 1], [1, 1]]
    # a value that is not an integer stays complex, as before
    assert psi_from_rows(Z2, [[0.5, 1], [1, 1]]).values[(0,), (0,)] == complex(0.5)


# ---------------------------------------------------------------------------
# Inputs are verified once per content
# ---------------------------------------------------------------------------


def counting(monkeypatch, module, name: str) -> list:
    """Replace module.name by a wrapper that appends each call's args to the returned list."""
    calls, check = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(args) or check(*args, **kwargs))
    return calls


def fresh_sl3_setup():
    """sl(3) with a new inner (3,1) grading and a new r(1,0,0) carrier and
    V grading, owned by the calling test alone."""
    sl3 = gtlie.sl_algebra(3)
    gamma = gtlie.grading_from_automorphism(sl3, gtlie.auto_inner(3, 1))
    hw = HighestWeight(3, (1, 0, 0))
    rep = build_representation(hw)
    return sl3, gamma, rep, gtlie.decompose_rep_space(gtlie.simulation_inner(hw, 3, 1))


def test_an_in_place_edit_of_the_grading_or_eps_is_verified_again():
    sl3, gamma, _, _ = fresh_sl3_setup()
    table = eps([[1, 1], [1, 1]])
    contract_algebra(sl3, gamma, table)
    saved = gamma.parts[(1,)].copy()
    gamma.parts[(1,)][:, 0] = gamma.parts[(0,)][:, 0]  # no longer a direct sum
    with pytest.raises(VerificationError, match="input grading"):
        contract_algebra(sl3, gamma, table)
    gamma.parts[(1,)][:] = saved
    contract_algebra(sl3, gamma, table)
    table.values[(0,), (1,)] = Fraction(0)  # no longer symmetric
    with pytest.raises(VerificationError, match="epsilon table"):
        contract_algebra(sl3, gamma, table)


def test_an_in_place_edit_of_the_carrier_or_its_grading_is_verified_again():
    _, gamma, rep, vgamma = fresh_sl3_setup()
    table, ones = eps([[1, 1], [1, 1]]), psi([[1, 1], [1, 1]])
    contract_rep(rep, vgamma, gamma, ones, table)
    saved = vgamma.parts[(0,)].copy()
    vgamma.parts[(0,)][:, 0] = vgamma.parts[(1,)][:, 0]  # V_0 now holds the V_1 vector
    with pytest.raises(IncompatibleError):
        contract_rep(rep, vgamma, gamma, ones, table)
    vgamma.parts[(0,)][:] = saved
    contract_rep(rep, vgamma, gamma, ones, table)
    with pytest.raises(ValueError):  # the stored entries are read-only
        rep.entries.vals[0] = math.nan
    vals = rep.entries.vals.copy()
    vals[0] = math.nan
    bad = GeneratorRep(rep.n, dataclasses.replace(rep.entries, vals=vals))
    with pytest.raises(IncompatibleError):
        contract_rep(bad, vgamma, gamma, ones, table)


def test_a_carrier_past_the_dense_budget_is_refused_before_any_check():
    _, gamma, _, vgamma = fresh_sl3_setup()
    rep = build_representation(HighestWeight(3, (40, 20, 0)))  # d = 9261: 5.75 GiB dense
    # a psi cell past the float range and a V grading of the wrong dimension would each be refused too
    refused = (
        lambda: contract_rep(rep, vgamma, gamma, psi([[HUGE, 1], [1, 1]]), eps([[1, 1], [1, 1]])),
        lambda: gtlie.find_simulation_matrix(rep, gtlie.auto_outer(3)),
    )
    tracemalloc.start()
    try:
        for call in refused:
            with pytest.raises(InputError, match="dense generators of dimension 9261 .* budget"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_failing_input_is_verified_and_refused_on_every_call(monkeypatch):
    sl3, gamma, rep, _ = fresh_sl3_setup()
    checks = {name: counting(monkeypatch, contraction_module, name)
              for name in ("verify_epsilon", "check_compatibility")}
    bad_eps = eps([[0, 1], [1, 0]])
    bad_v = gtlie.Grading(group=Z2, parts={(0,): np.eye(3)[:, :1], (1,): np.eye(3)[:, 1:]})
    for _ in range(3):
        with pytest.raises(VerificationError):
            contract_algebra(sl3, gamma, bad_eps)
        with pytest.raises(VerificationError):
            enumerate_binary_psi(bad_eps)
        with pytest.raises(IncompatibleError):
            contract_rep(rep, bad_v, gamma, psi([[1, 1], [1, 1]]), eps([[1, 1], [1, 1]]))
    assert len(checks["verify_epsilon"]) == 6 and len(checks["check_compatibility"]) == 3


def test_five_contractions_of_one_input_verify_it_once(monkeypatch):
    checks = {name: counting(monkeypatch, contraction_module, name)
              for name in ("verify_grading", "verify_epsilon", "check_compatibility", "verify_psi")}
    tables = enumerate_binary_epsilon(Z2)
    for _ in range(2):  # the second round rebuilds every input: same content, new objects
        sl3, gamma, rep, vgamma = fresh_sl3_setup()
        for table in tables:
            contract_algebra(sl3, gamma, table)
            contract_rep(rep, vgamma, gamma, enumerate_binary_psi(table)[-1], table)
    assert len(tables) == 5
    counts = {name: len(calls) for name, calls in checks.items()}
    assert counts == {"verify_grading": 1, "verify_epsilon": 5 + 5, "check_compatibility": 1, "verify_psi": 5}
    # at another tol the inputs are verified again
    contract_algebra(sl3, gamma, tables[0], tol=1e-6)
    assert len(checks["verify_grading"]) == 2


def test_the_record_of_passed_inputs_drops_the_oldest_past_its_capacity(monkeypatch):
    monkeypatch.setattr(contraction_module, "PASSED_CAPACITY", 2)
    calls = counting(monkeypatch, contraction_module, "verify_epsilon")
    first, second, third = enumerate_binary_epsilon(Z2)[:3]
    for table in (first, second, first, third, second, first):
        enumerate_binary_psi(table)
    # first and second recorded; third drops first; second is still there; first is checked again
    assert [args[0] for args in calls] == [first, second, third, first]
    assert len(contraction_module._passed) == 2


# ---------------------------------------------------------------------------
# Cells and residuals past the float range
# ---------------------------------------------------------------------------

HUGE = 10**400


def test_a_residual_past_the_float_range_is_infinite():
    report = verify_epsilon(eps([[HUGE, 1], [1, 1]]))
    assert not report.ok and report.max_residual == math.inf
    assert vars(report) == vars(per_cell_epsilon(eps([[HUGE, 1], [1, 1]]), 1e-9))
    constant = eps([[HUGE, HUGE], [HUGE, HUGE]])
    assert verify_epsilon(constant, tol=0.0).max_residual == 0.0  # exact: it solves its system
    found = enumerate_binary_psi(constant)
    assert [t.as_tuple() for t in found] == [(0, 0, 0, 0)]
    assert [t.as_tuple() for t in found] == [t.as_tuple() for t in per_table_binary_psi(constant)]


def test_a_mixed_table_past_the_float_range_is_infinite():
    # a Fraction past the float range meeting a complex cell overflows converting to float
    ones = eps([[1, 1], [1, 1]])
    for report, oracle in (
        (verify_epsilon(eps([[HUGE, 1j], [1j, 1]])), per_cell_epsilon(eps([[HUGE, 1j], [1j, 1]]), 1e-9)),
        (verify_psi(psi([[HUGE, 1j], [1j, 1]]), ones), per_cell_psi(psi([[HUGE, 1j], [1j, 1]]), ones, 1e-9)),
    ):
        assert not report.ok and report.max_residual == math.inf
        assert vars(report) == vars(oracle)


@settings(max_examples=100)
@given(st.data())
def test_huge_table_reports_equal_the_per_cell_oracles(data):
    cell = st.sampled_from([0, 1, -1, HUGE, -HUGE, Fraction(1, HUGE), Fraction(3, 7), 1j, 0.5 - 2j])
    group = data.draw(st.sampled_from(TABLE_GROUPS[:3]))
    n = group.size
    e, p = ([[data.draw(cell) for _ in range(n)] for _ in range(n)] for _ in range(2))
    e, p = epsilon_from_rows(group, e), psi_from_rows(group, p)
    assert vars(verify_epsilon(e)) == vars(per_cell_epsilon(e, 1e-9))
    assert vars(verify_psi(p, e)) == vars(per_cell_psi(p, e, 1e-9))


def test_a_cell_past_the_float_range_is_an_input_error():
    sl3, gamma, rep, vgamma = fresh_sl3_setup()
    constant = eps([[HUGE, HUGE], [HUGE, HUGE]])
    for table in (constant, eps([[HUGE, 1], [1, 1]])):
        with pytest.raises(InputError, match="float range"):
            contract_algebra(sl3, gamma, table)
    zero = psi([[0, 0], [0, 0]])
    assert verify_psi(zero, constant).ok
    for p, e in ((psi([[HUGE, 1], [1, 1]]), eps([[1, 1], [1, 1]])), (zero, constant)):
        with pytest.raises(InputError, match="float range"):
            contract_rep(rep, vgamma, gamma, p, e)
