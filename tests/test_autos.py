import cmath
import itertools
import math
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtlie
from gtlie import autos, linalg
from gtlie.algebra import matrix_to_coords, sl_basis_matrices
from gtlie.autos import (
    J_matrix,
    SimulationMatrix,
    auto_inner,
    auto_outer,
    check_compatibility,
    contragredient_weight,
    decompose_rep_space,
    doubled_rep,
    find_simulation_matrix,
    grading_from_automorphism,
    is_self_contragredient,
    simulation_inner,
    verify_simulation,
)
from gtlie.errors import InputError
from gtlie.groups import AbelianGroup
from gtlie.gtrep import GeneratorRep, HighestWeight, build_representation, weyl_dim
from gtlie.linalg import Entries
from oracles import (
    GTPattern,
    assert_pair_path_is_the_dense_path,
    assert_same_as_dense_pair_path,
    assert_same_as_reference_span_path,
    dense_doubled_generators,
    dense_eigenspaces,
    dense_power_residual,
    enumerate_patterns,
    pattern_conjugate,
    per_column_compatibility,
    per_column_rep_matrix,
    per_column_simulation,
    per_label_sl_matrices,
    per_matrix_action_on_sl,
    per_vector_compatibility,
    rep_of_Xns,
    with_dense_pair_residuals,
)


def pat(*rows):
    return GTPattern(tuple(tuple(r) for r in rows))


def test_auto_inner_matrices():
    g = auto_inner(3, 1)
    omega = cmath.exp(1j * math.pi / 3)
    assert np.allclose(g.matrix, omega * np.diag([1, 1, -1]))
    assert g.order == 2
    assert abs(np.linalg.det(g.matrix) - 1) < 1e-12

    ident = auto_inner(4, 0)
    assert ident.order == 1
    assert np.allclose(ident.matrix, np.eye(4))

    g42 = auto_inner(4, 2)
    assert np.allclose(g42.matrix, np.diag([1.0, 1.0, -1.0, -1.0]))
    act = g42.action
    assert np.array_equal(act @ act, np.eye(15))

    with pytest.raises(InputError):
        auto_inner(3, 2)


def test_auto_outer_action():
    g = auto_outer(3)
    e12 = np.zeros((3, 3))
    e12[0, 1] = 1
    image = g.apply(e12)
    expected = np.zeros((3, 3))
    expected[1, 0] = -1
    assert np.array_equal(image, expected)
    for m in sl_basis_matrices(3):
        assert np.abs(g.apply(g.apply(m)) - m).max() == 0.0


@pytest.mark.parametrize("n", range(2, 9))
def test_the_stacked_action_matches_the_per_matrix_oracle_byte_for_byte(n):
    q, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, n)))
    auts = [auto_inner(n, 1), auto_inner(n, n // 2), auto_outer(n)]
    auts += [gtlie.Automorphism(g.kind, q @ g.matrix @ q.T, g.order) for g in auts]  # not diagonal
    for aut in auts:
        assert aut.action.tobytes() == per_matrix_action_on_sl(aut).tobytes()


def test_the_action_is_formed_once_and_the_caller_tol_only_checks_it():
    # a seeded conjugate of inner(3,1): its basis images have traces near 3e-16, which the action's
    # own DEFAULT_TOL accepts; at tol = 0 the M^2 = Id check, not the construction, refuses it
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
    aut = gtlie.Automorphism("inner", q @ auto_inner(3, 1).matrix @ q.T, 2)
    assert aut.action is aut.action and not aut.action.flags.writeable
    with pytest.raises(gtlie.VerificationError, match="M\\^2 = Id"):
        grading_from_automorphism(gtlie.sl_algebra(3), aut, tol=0.0)
    assert grading_from_automorphism(gtlie.sl_algebra(3), aut).part_dims() == {(0,): 4, (1,): 4}


def test_grading_from_inner_and_outer():
    sl3 = gtlie.sl_algebra(3)
    gamma1 = grading_from_automorphism(sl3, auto_inner(3, 1))
    assert gamma1.part_dims() == {(0,): 4, (1,): 4}
    assert gtlie.verify_grading(sl3, gamma1).ok

    gamma2 = grading_from_automorphism(sl3, auto_outer(3))
    assert gamma2.part_dims() == {(0,): 3, (1,): 5}
    assert gtlie.verify_grading(sl3, gamma2).ok

    trivial = grading_from_automorphism(sl3, auto_inner(3, 0))
    assert trivial.part_dims() == {(0,): 8}
    assert gtlie.verify_grading(sl3, trivial).ok


def test_rep_of_Xns_values():
    hw = HighestWeight(3, (2, 1, 0))
    mat = rep_of_Xns(hw, 3, 1)
    pats = enumerate_patterns(hw)
    i = pats.index(pat((2, 1, 0), (2, 1), (2,)))
    # i pi (eta/n r3 + 0 - r2 + r3) = i pi (1 - 3 + 3)
    assert abs(mat[i, i] - 1j * math.pi) < 1e-12
    assert np.abs(np.real(mat)).max() == 0.0

    assert np.abs(rep_of_Xns(HighestWeight(3, (0, 0, 0)), 3, 1)).max() == 0.0
    assert np.abs(rep_of_Xns(hw, 3, 0)).max() == 0.0


def test_simulation_inner_matches_closed_form():
    hw = HighestWeight(3, (2, 1, 0))
    sim = simulation_inner(hw, 3, 1)
    diag = np.diag(sim.matrix)
    for p, value in zip(enumerate_patterns(hw), diag):
        closed = cmath.exp(-2j * math.pi * (p.entry(1, 3) + p.entry(2, 3)) / 3) * cmath.exp(
            -1j * math.pi * (p.entry(1, 2) + p.entry(2, 2))
        )
        assert abs(value - closed) < 1e-12
    m = sim.matrix
    assert np.array_equal(m @ m, np.eye(8, dtype=complex))


def test_simulation_inner_trivial_rep():
    sim = simulation_inner(HighestWeight(3, (0, 0, 0)), 3, 1)
    assert sim.matrix.shape == (1, 1) and sim.matrix[0, 0] == 1.0


def test_simulation_inner_agrees_with_exponential():
    # the two constructions differ by one global phase; that phase is +-1
    # whenever the raw exponential already squares to the identity
    for weight in [(1, 0, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0)]:
        hw = HighestWeight(3, weight)
        sim = simulation_inner(hw, 3, 1)
        expd = np.diag(np.exp(np.diag(rep_of_Xns(hw, 3, 1))))
        ratios = np.diag(sim.matrix) / np.diag(expd)
        assert np.abs(ratios - ratios[0]).max() < 1e-12
        raw_square = expd @ expd
        if np.abs(raw_square - np.eye(len(expd))).max() < 1e-12:
            assert abs(ratios[0].imag) < 1e-12 and abs(abs(ratios[0].real) - 1) < 1e-12


def test_simulation_inner_conjugation():
    for n, s, weight in [(3, 1, (2, 1, 0)), (3, 1, (1, 0, 0)), (4, 2, (1, 1, 0, 0)), (4, 1, (1, 0, 0, 0))]:
        hw = HighestWeight(n, weight)
        rep = build_representation(hw)
        sim = simulation_inner(hw, n, s)
        assert sim.power_residual() == 0.0
        report = verify_simulation(rep, auto_inner(n, s), sim, 1e-9)
        assert report.ok, report.violations


def test_exponential_route_simulates_conjugation():
    # exp(rep_of_Xns) itself intertwines r(Ad_A x) with r(x); the s >= 2 sum
    # in the row-sum formula is validated here rather than trusted
    for n, s, weight in [(3, 1, (2, 1, 0)), (4, 1, (1, 0, 0, 0)), (4, 2, (1, 1, 0, 0)), (4, 2, (2, 1, 1, 0))]:
        hw = HighestWeight(n, weight)
        rep = build_representation(hw)
        expd = np.diag(np.exp(np.diag(rep_of_Xns(hw, n, s))))
        inv = np.diag(1.0 / np.diag(expd))
        aut = auto_inner(n, s)
        worst = 0.0
        mats = per_label_sl_matrices(rep)
        for base, m in zip(sl_basis_matrices(n), mats):
            lhs = per_column_rep_matrix(matrix_to_coords(n, aut.apply(base)), mats)
            worst = max(worst, np.abs(lhs - expd @ m @ inv).max())
        assert worst <= 1e-9


def test_contragredient_weight():
    assert contragredient_weight(HighestWeight(3, (2, 1, 0))).m == (2, 1, 0)
    assert contragredient_weight(HighestWeight(3, (1, 0, 0))).m == (1, 1, 0)
    assert contragredient_weight(HighestWeight(3, (0, 0, 0))).m == (0, 0, 0)
    assert is_self_contragredient(HighestWeight(3, (2, 1, 0)))
    assert not is_self_contragredient(HighestWeight(3, (1, 0, 0)))
    assert is_self_contragredient(HighestWeight(3, (0, 0, 0)))
    assert is_self_contragredient(HighestWeight(3, (4, 2, 0)))


def test_pattern_conjugate_values():
    assert pattern_conjugate(pat((2, 1, 0), (2, 1), (2,))) == pat((2, 1, 0), (1, 0), (0,))
    fixed = pat((2, 1, 0), (1, 1), (1,))
    assert pattern_conjugate(fixed) == fixed
    zero = pat((0, 0, 0), (0, 0), (0,))
    assert pattern_conjugate(zero) == zero
    for p in enumerate_patterns(HighestWeight(3, (2, 1, 0))):
        assert pattern_conjugate(pattern_conjugate(p)) == p


J_TABLE_REFERENCE = [
    # known action entries on the 8 basis patterns, as (source, sign, target)
    (((2, 1), (2,)), +1, ((1, 0), (0,))),
    (((1, 0), (0,)), +1, ((2, 1), (2,))),
    (((2, 1), (1,)), -1, ((1, 0), (1,))),
    (((1, 0), (1,)), -1, ((2, 1), (1,))),
    (((1, 1), (1,)), +1, ((1, 1), (1,))),
    (((2, 0), (1,)), +1, ((2, 0), (1,))),
]

J_TABLE_COMPLETION = [
    # the remaining pair, forced by the sign rule and the involution property
    (((2, 0), (2,)), -1, ((2, 0), (0,))),
    (((2, 0), (0,)), -1, ((2, 0), (2,))),
]


def test_J_matrix_matches_reference_table():
    hw = HighestWeight(3, (2, 1, 0))
    sim = J_matrix(hw)
    pats = enumerate_patterns(hw)
    index = {p: i for i, p in enumerate(pats)}
    for source_rows, sign, target_rows in J_TABLE_REFERENCE + J_TABLE_COMPLETION:
        src = pat((2, 1, 0), *source_rows)
        dst = pat((2, 1, 0), *target_rows)
        c = index[src]
        assert sim.perm[c] == index[dst]
        assert sim.signs[c] == complex(sign)


def test_J_matrix_involution_and_simulation():
    hw = HighestWeight(3, (2, 1, 0))
    sim = J_matrix(hw)
    m = sim.matrix
    assert np.array_equal(m @ m, np.eye(8, dtype=complex))
    rep = build_representation(hw)
    assert verify_simulation(rep, auto_outer(3), sim, 1e-9).ok
    # -J r(X)^T = r_c(X) J with r_c = r for a self-contragredient weight
    worst = max(
        np.abs(-m @ x.T - x @ m).max() for x in per_label_sl_matrices(rep)
    )
    assert worst <= 1e-9


def test_J_matrix_rejects_non_self_contragredient():
    with pytest.raises(InputError):
        J_matrix(HighestWeight(3, (1, 0, 0)))


def test_J_matrix_trivial_rep():
    sim = J_matrix(HighestWeight(3, (0, 0, 0)))
    assert np.array_equal(sim.matrix, np.eye(1, dtype=complex))


def test_J_matrix_n4_self_contragredient():
    hw = HighestWeight(4, (2, 1, 1, 0))
    assert is_self_contragredient(hw)
    sim = J_matrix(hw)
    m = sim.matrix
    assert np.array_equal(m @ m, np.eye(sim.dim, dtype=complex))
    rep = build_representation(hw)
    assert verify_simulation(rep, auto_outer(4), sim, 1e-9).ok


def test_J_matrix_sl2_odd_weight_normalized():
    # for sl(2) and odd weights the raw signed permutation squares to -Id;
    # the constructor rescales by i so that R^2 = Id still holds
    hw = HighestWeight(2, (1, 0))
    sim = J_matrix(hw)
    m = sim.matrix
    assert np.abs(m @ m - np.eye(2)).max() == 0.0
    rep = build_representation(hw)
    assert verify_simulation(rep, auto_outer(2), sim, 1e-9).ok


def test_doubled_rep_simulation_and_irreducibility():
    hw = HighestWeight(3, (1, 0, 0))
    rep2, swap = doubled_rep(hw)
    assert rep2.dim == 6
    assert verify_simulation(rep2, auto_outer(3), swap, 1e-9).ok
    family = per_label_sl_matrices(rep2) + [swap.matrix]
    assert gtlie.burnside_span_dim(family) == 36
    # without the swap the doubled representation is reducible
    assert gtlie.burnside_span_dim(per_label_sl_matrices(rep2)) < 36


def test_doubled_rep_trivial_weight():
    rep2, swap = doubled_rep(HighestWeight(3, (0, 0, 0)))
    assert rep2.dim == 2
    assert all(np.abs(m).max() == 0 for m in rep2.gen.values())
    assert np.array_equal(swap.matrix, np.array([[0, 1], [1, 0]], dtype=complex))
    assert swap.power_residual() == 0.0


@pytest.mark.parametrize("m", [(0, 0, 0), (1, 0, 0), (2, 1, 0), (3, 1, 0), (1, 1, 0, 0), (2, 1, 1, 0)], ids=str)
def test_doubled_rep_entries_are_those_of_the_dense_blocks(m):
    hw = HighestWeight(len(m), m)
    dense = dense_doubled_generators(build_representation(hw))
    got, want = doubled_rep(hw)[0], Entries.of([dense[label] for label in sorted(dense)])
    for field in ("rows", "cols", "vals", "gids", "starts"):
        a, b = getattr(got.entries, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert all(np.array_equal(got.gen[label], dense[label]) for label in dense)


def test_doubled_rep_forms_no_dense_block():
    # n^2 dense (2d)^2 blocks of r(14,7,0) would take 72 MiB
    hw = HighestWeight(3, (14, 7, 0))
    tracemalloc.start()
    try:
        rep, _ = doubled_rep(hw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.dim == 1024 and peak < 8 * 2**20


def test_the_monomial_form_is_formed_once_and_read_only():
    hw = HighestWeight(3, (2, 1, 0))
    for sim in (simulation_inner(hw, 3, 1), J_matrix(hw), doubled_rep(HighestWeight(3, (1, 0, 0)))[1]):
        perm, scale = sim.monomial()
        again = sim.monomial()
        assert again[0] is perm and again[1] is scale
        for a in (perm, scale):
            with pytest.raises(ValueError):
                a[0] = a[0]
    with pytest.raises(InputError):
        SimulationMatrix(order=2, kind="dense", dense=np.eye(2)).monomial()


def test_decompose_rep_space_variants():
    hw = HighestWeight(3, (2, 1, 0))
    sim = J_matrix(hw)
    vg = decompose_rep_space(sim)
    assert vg.part_dims() == {(0,): 5, (1,): 3}

    ident = SimulationMatrix(order=1, kind="dense", dense=np.eye(4, dtype=complex))
    assert decompose_rep_space(ident).part_dims() == {(0,): 4}

    inner = simulation_inner(hw, 3, 1)
    assert decompose_rep_space(inner).part_dims() == {(0,): 4, (1,): 4}

    dense_j = SimulationMatrix(order=2, kind="dense", dense=sim.matrix)
    assert decompose_rep_space(dense_j).part_dims() == {(0,): 5, (1,): 3}


def test_decompose_rep_space_charges_its_dense_parts_against_the_budget(monkeypatch):
    # the parts of r(2,1,0) are 8 complex columns of 8 entries: 1024 bytes
    hw = HighestWeight(3, (2, 1, 0))
    sims = [J_matrix(hw), simulation_inner(hw, 3, 1), SimulationMatrix(order=2, kind="dense", dense=J_matrix(hw).matrix)]
    big = simulation_inner(HighestWeight(3, (20, 10, 0)), 3, 1)  # d = 1331: 27 MiB of parts
    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", 1024)
    assert all(decompose_rep_space(sim).total_dim == 8 for sim in sims)
    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", 1023)
    for sim in sims:
        with pytest.raises(InputError, match="dense carrier parts of dimension 8 need 0.00 GiB, over the 0.00 GiB budget"):
            decompose_rep_space(sim)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="budget"):
            decompose_rep_space(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("fields", [
    dict(kind="signed_permutation", perm=(1, 0, 2), signs=(1, -1, 1)),  # R^2 e_0 = -e_0
    dict(kind="diagonal", phases=(Fraction(0), Fraction(1, 2))),  # R^2 e_1 = -e_1
], ids=["signed_permutation", "diagonal"])
def test_decompose_rep_space_refuses_an_r_off_its_order(fields):
    sim = SimulationMatrix(order=2, **fields)
    assert sim.power_residual() == 2.0
    for r in (sim, SimulationMatrix(order=2, kind="dense", dense=sim.matrix)):
        with pytest.raises(gtlie.VerificationError, match="M\\^2 = Id \\(residual 2\\)"):
            decompose_rep_space(r)


def test_decompose_rep_space_of_r20_10_0_forms_little_beside_its_parts():
    # the parts of d = 1331 are 27.0 MiB of complex columns; one d x d array per label would add 27 MiB
    hw = HighestWeight(3, (20, 10, 0))
    for sim in (simulation_inner(hw, 3, 1), J_matrix(hw)):
        vgamma, peak = _peak_bytes(lambda: decompose_rep_space(sim))
        assert vgamma.part_dims() == {(0,): 671, (1,): 660}
        assert peak < 28.1 * 2**20


def test_the_standard_gradings_of_sl24_form_no_column_basis(monkeypatch):
    # the structure constants of sl(24) would take 2.8 GiB: the split reads only the algebra's dimension
    calls = []
    monkeypatch.setattr(autos, "independent_columns", lambda *args: calls.append(args))
    sl24 = types.SimpleNamespace(dim=24 * 24 - 1)
    for aut in (auto_inner(24, 1), auto_inner(24, 12), auto_outer(24)):
        assert grading_from_automorphism(sl24, aut).total_dim == 575
    assert calls == []


def _unit_root(j: int, order: int) -> complex:
    """exp(2 pi i j / order), exact at the quarter turns."""
    quarter = Fraction(4 * j, order)
    return (1, 1j, -1, -1j)[int(quarter) % 4] if quarter.denominator == 1 else cmath.exp(2j * math.pi * j / order)


@st.composite
def monomial_operators(draw):
    """(perm, scale, order): M e_c = scale[c] e_{perm[c]} of order 1-6 with
    cycle lengths dividing the order; scales are order-th roots of unity,
    times powers of two that multiply to 1 along each cycle at order <= 2.
    About half are drawn with M^order = Id, and the rest mostly without."""
    order = draw(st.integers(1, 6))
    lengths = draw(st.lists(st.sampled_from([L for L in range(1, order + 1) if order % L == 0]), min_size=1, max_size=5))
    at = draw(st.permutations(range(sum(lengths))))
    valid = draw(st.booleans())
    perm, scale = np.zeros(len(at), dtype=np.int64), np.zeros(len(at), dtype=complex)
    for start, length in zip(np.cumsum([0] + lengths), lengths):
        cycle = at[start : start + length]
        turns = draw(st.lists(st.integers(0, order - 1), min_size=length, max_size=length))
        if valid:  # the turns sum to a multiple of the length: (cycle product)^(order / length) = 1
            turns[-1] = (turns[-1] - sum(turns) + length * draw(st.integers(0, order))) % order
        bits = draw(st.lists(st.integers(-3, 3), min_size=length, max_size=length)) if order <= 2 else [0] * length
        bits[-1] -= sum(bits)
        for i, c in enumerate(cycle):
            perm[c], scale[c] = cycle[(i + 1) % length], _unit_root(turns[i], order) * 2.0 ** bits[i]
    return perm, scale, order


def _assert_same_parts(got, want, exact):
    assert [p.shape for p in got] == [p.shape for p in want]
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes() if exact else np.abs(a - b).max(initial=0.0) <= 1e-14


@settings(max_examples=300, deadline=None)
@given(monomial_operators())
def test_the_cycle_split_is_the_dense_split(operator):
    perm, scale, order = operator
    m = np.zeros((perm.size, perm.size), dtype=complex)
    m[perm, np.arange(perm.size)] = scale
    parts, residual = autos._eigenspaces((perm, scale), order, 1e-9)
    assert (residual <= 1e-9) == (dense_power_residual(m, order) <= 1e-9)
    again, same = autos._eigenspaces(m, order, 1e-9)  # a dense monomial matrix is read as its pair
    assert same == residual
    _assert_same_parts(again, parts, exact=True)
    if residual <= 1e-9:
        _assert_same_parts(parts, dense_eigenspaces(m, order, 1e-9), exact=order <= 2)
    # conjugated by the unipotent upper-triangular Q, with Q^-1 = Id - (superdiagonal): not monomial
    q = np.triu(np.ones_like(m))
    conj = q @ m @ (np.eye(perm.size) - np.eye(perm.size, k=1))
    if np.count_nonzero(conj) > perm.size:
        dense, power = autos._eigenspaces(conj, order, 1e-9)
        assert power == dense_power_residual(conj, order)
        _assert_same_parts(dense, dense_eigenspaces(conj, order, 1e-9), exact=True)


def test_verify_simulation_rejects_wrong_scale():
    hw = HighestWeight(3, (1, 0, 0))
    rep = build_representation(hw)
    bad = SimulationMatrix(order=2, kind="dense", dense=2.0 * np.eye(3, dtype=complex))
    report = verify_simulation(rep, auto_inner(3, 0), bad, 1e-9)
    assert not report.ok
    assert any(v[0] == "power" for v in report.violations)
    assert report.worst_at == ("power",) and report.max_residual == 3.0


def test_verify_simulation_report_says_what_was_checked():
    hw = HighestWeight(3, (1, 0, 0))
    rep = build_representation(hw)
    report = verify_simulation(rep, auto_inner(3, 1), simulation_inner(hw, 3, 1), 1e-9)
    assert report.ok and report.checked == 8 + 1 and report.tol == 1e-9
    # the outer automorphism has no R on (1,0,0): the identity fails on labels
    report = verify_simulation(rep, auto_outer(3), SimulationMatrix(order=2, kind="dense", dense=np.eye(3)), 1e-9)
    assert report.worst_at in {v[:-1] for v in report.violations} and report.worst_at != ("power",)
    assert report.max_residual == max(v[1] for v in report.violations)


def test_check_compatibility_group_mismatch():
    sl3 = gtlie.sl_algebra(3)
    gamma1 = grading_from_automorphism(sl3, auto_inner(3, 1))
    rep = build_representation(HighestWeight(3, (1, 0, 0)))
    bad_group = gtlie.Grading(
        group=AbelianGroup((3,)), parts={(0,): np.eye(3, dtype=complex)}
    )
    with pytest.raises(InputError):
        check_compatibility(rep, gamma1, bad_group)
    # a grading of sl(3) is not a grading of sl(4): refused, not truncated
    rep4 = build_representation(HighestWeight(4, (1, 0, 0, 0)))
    vgamma = decompose_rep_space(simulation_inner(HighestWeight(4, (1, 0, 0, 0)), 4, 1))
    with pytest.raises(InputError, match="sl\\(4\\)"):
        check_compatibility(rep4, gamma1, vgamma)
    # carrier vectors of another dimension are refused too, not broadcast
    gamma4 = grading_from_automorphism(gtlie.sl_algebra(4), auto_inner(4, 1))
    vgamma6 = decompose_rep_space(simulation_inner(HighestWeight(4, (1, 1, 0, 0)), 4, 1))
    with pytest.raises(InputError, match="dimension 4"):
        check_compatibility(rep4, gamma4, vgamma6)


def assert_matches_per_vector(rep, gamma, vgamma, tol=1e-9):
    report = check_compatibility(rep, gamma, vgamma, tol)
    ok, worst, labels = per_vector_compatibility(rep, gamma, vgamma, tol)
    assert report.ok == ok
    assert [(i, j) for i, j, _ in report.violations] == labels
    assert report.max_residual == pytest.approx(worst, abs=1e-12)
    assert report.checked == sum(x.shape[1] for x in gamma.parts.values()) * rep.dim
    assert report.tol == tol
    assert_matches_per_column(report, per_column_compatibility(rep, gamma, vgamma, tol))
    return report


def assert_matches_per_column(report, oracle):
    """Same verdict, violations and worst_at as the per-column oracle, and
    residuals within 1e-12."""
    ok, worst, violations, worst_at = oracle
    assert report.ok == ok and report.worst_at == worst_at
    assert [v[:-1] for v in report.violations] == [v[:-1] for v in violations]
    assert [v[-1] for v in report.violations] == pytest.approx([v[-1] for v in violations], abs=1e-12)
    assert report.max_residual == pytest.approx(worst, abs=1e-12)


@pytest.mark.parametrize(
    "weight, kind",
    [
        ((1, 0, 0), "inner"),
        ((1, 1, 0), "inner"),
        ((2, 1, 0), "inner"),
        ((3, 1, 0), "inner"),
        ((1, 0, 0, 0), "inner"),
        ((1, 1, 0, 0), "inner s=2"),
        ((2, 1, 0), "outer"),
        ((1, 1, 0, 0), "outer"),
        ((2, 1, 1, 0), "outer"),
        ((1, 0), "outer"),
        ((1, 0, 0), "doubled"),
        ((2, 1, 0), "solver"),
        ((1, 0, 0), "identity"),
        ((1, 0, 0), "scaled"),
        ((4, 3, 1, 0), "inner"),
        ((4, 3, 1, 0), "outer"),
    ],
)
def test_stacked_kernels_match_the_per_column_oracle(weight, kind):
    n = len(weight)
    hw = HighestWeight(n, weight)
    rep = build_representation(hw)
    s = {"inner": 1, "inner s=2": 2, "scaled": 0}.get(kind)
    aut = auto_outer(n) if s is None else auto_inner(n, s)
    if kind.startswith("inner"):
        sim = simulation_inner(hw, n, s)
    elif kind == "outer":
        sim = J_matrix(hw)
    elif kind == "doubled":
        rep, sim = doubled_rep(hw)
    elif kind == "solver":
        sim = find_simulation_matrix(rep, aut)
    else:  # no R for the outer automorphism, or the wrong scale for the identity
        sim = SimulationMatrix(order=2, kind="dense", dense=(2.0 if s == 0 else 1.0) * np.eye(rep.dim, dtype=complex))
    assert_matches_per_column(verify_simulation(rep, aut, sim, 1e-9), per_column_simulation(rep, aut, sim, 1e-9))
    if kind == "scaled":
        return
    gamma = grading_from_automorphism(gtlie.sl_algebra(n), aut)
    vgamma = decompose_rep_space(sim)
    report = check_compatibility(rep, gamma, vgamma, 1e-9)
    assert_matches_per_column(report, per_column_compatibility(rep, gamma, vgamma, 1e-9))
    assert report.ok == (kind != "identity")


@pytest.mark.parametrize("weight", [(1, 0, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0)])
def test_simulation_implies_compatibility(weight):
    # executable form of the eigenspace argument: a verified simulation
    # matrix always yields a compatible decomposition
    sl3 = gtlie.sl_algebra(3)
    hw = HighestWeight(3, weight)
    rep = build_representation(hw)
    g = auto_inner(3, 1)
    gamma = grading_from_automorphism(sl3, g)
    sim = simulation_inner(hw, 3, 1)
    assert verify_simulation(rep, g, sim, 1e-9).ok
    vgamma = decompose_rep_space(sim)
    assert assert_matches_per_vector(rep, gamma, vgamma).ok


def test_compatibility_on_r4310_inner_is_exact_and_outer_passes():
    hw = HighestWeight(4, (4, 3, 1, 0))
    rep = build_representation(hw)
    sl4 = gtlie.sl_algebra(4)
    inner = check_compatibility(rep, grading_from_automorphism(sl4, auto_inner(4, 1)),
                                decompose_rep_space(simulation_inner(hw, 4, 1)))
    assert inner.ok and inner.max_residual == 0.0 and inner.worst_at is None
    assert inner.checked == 15 * 175
    outer = check_compatibility(rep, grading_from_automorphism(sl4, auto_outer(4)),
                                decompose_rep_space(J_matrix(hw)))
    # the pair blocks (e_c +- s e_q) / 2 are projected exactly: no thin-SVD round-off is left
    assert outer.ok and outer.max_residual == 0.0 and outer.worst_at is None


def _signed_permutation_involutions(d):
    """All real signed permutation matrices R with R^2 = Id (desk oracle)."""
    out = []
    for perm in itertools.permutations(range(d)):
        if any(perm[perm[i]] != i for i in range(d)):
            continue
        free = [i for i in range(d) if perm[i] == i] + [i for i in range(d) if perm[i] > i]
        for bits in itertools.product((1.0, -1.0), repeat=len(free)):
            signs = {}
            for i, b in zip(free, bits):
                signs[i] = b
                signs[perm[i]] = b  # two-cycles need s_i s_j = 1
            m = np.zeros((d, d))
            for i in range(d):
                m[perm[i], i] = signs[i]
            out.append(m)
    return out


def test_gamma2_incompatible_with_defining_rep():
    # two independent routes certify incompatibility: the intertwiner system
    # has no invertible solution, and no candidate V-split passes
    sl3 = gtlie.sl_algebra(3)
    gamma2 = grading_from_automorphism(sl3, auto_outer(3))
    rep = build_representation(HighestWeight(3, (1, 0, 0)))
    assert find_simulation_matrix(rep, auto_outer(3)) is None

    group = AbelianGroup((2,))
    eye = np.eye(3, dtype=complex)
    candidates = []
    for labels in itertools.product((0, 1), repeat=3):  # coordinate splits
        if len(set(labels)) < 2:
            continue
        parts = {
            (0,): eye[:, [i for i in range(3) if labels[i] == 0]],
            (1,): eye[:, [i for i in range(3) if labels[i] == 1]],
        }
        candidates.append(gtlie.Grading(group=group, parts=parts))
    for m in _signed_permutation_involutions(3):  # eigensplits of involutions
        sim = SimulationMatrix(order=2, kind="dense", dense=m.astype(complex))
        vg = decompose_rep_space(sim)
        if len(vg.parts) == 2:
            candidates.append(vg)
    assert candidates
    for vg in candidates:
        report = assert_matches_per_vector(rep, gamma2, vg)
        assert not report.ok and report.worst_at in [(i, j) for i, j, _ in report.violations]

    # the self-contragredient weight admits the intertwiner, matching J
    rep8 = build_representation(HighestWeight(3, (2, 1, 0)))
    found = find_simulation_matrix(rep8, auto_outer(3))
    assert found is not None
    assert verify_simulation(rep8, auto_outer(3), found, 1e-7).ok


def test_random_involution_eigensplits_are_z2(seed=20260809):
    rng = np.random.default_rng(seed)
    cases = 0
    for trial in range(20):
        n = 2 if trial % 2 == 0 else 3
        algebra = gtlie.sl_algebra(n)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        if trial % 4 < 2:
            s = 1 + int(rng.integers(0, n // 2))
            base = auto_inner(n, s).matrix
            aut = gtlie.Automorphism(kind="inner", matrix=q @ base @ q.conj().T, order=2)
        else:
            aut = gtlie.Automorphism(kind="outer", matrix=q @ q.T, order=2)
        gamma = grading_from_automorphism(algebra, aut, 1e-9)
        assert gtlie.verify_grading(algebra, gamma, 1e-9).ok
        parts = [gamma.parts[lab] for lab in gamma.sorted_labels()]
        assert len(parts) == 2
        case = gtlie.classify_two_part(algebra, parts[0], parts[1], 1e-9)
        assert case == gtlie.TwoPartCase.Z2_GRADING
        cases += 1
    assert cases == 20


# every weight with n <= 4 and entries <= 3
SMALL_WEIGHTS = [
    HighestWeight(n, m + (0,))
    for n in (2, 3, 4)
    for m in itertools.product(range(3, -1, -1), repeat=n - 1)
    if list(m) == sorted(m, reverse=True)
]


def _solved(rep, aut):
    """The solver's R, checked by verify_simulation at 1e-9, or None."""
    found = find_simulation_matrix(rep, aut)
    if found is not None:
        report = verify_simulation(rep, aut, found, 1e-9)
        assert report.ok, report.violations[:2]
    return found


@settings(max_examples=100)
@given(st.sampled_from(SMALL_WEIGHTS))
def test_solver_finds_r_exactly_when_an_analytic_one_exists(hw):
    n = hw.n
    rep = build_representation(hw)
    assert (_solved(rep, auto_outer(n)) is not None) == is_self_contragredient(hw)
    assert _solved(doubled_rep(hw)[0], auto_outer(n)) is not None
    assert _solved(rep, auto_inner(n, 1)) is not None


@pytest.mark.parametrize("m", [(1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 2, 0), (1, 0, 0, 0), (1, 1, 1, 0)])
def test_solver_finds_the_doubled_carriers(m):
    hw = HighestWeight(len(m), m)
    assert not is_self_contragredient(hw)
    assert _solved(doubled_rep(hw)[0], auto_outer(hw.n)) is not None


@pytest.mark.parametrize("m, d", [((4, 2, 0), 27), ((2, 1, 1, 1, 1, 0), 35)])
def test_solver_completes_past_d15(m, d):
    hw = HighestWeight(len(m), m)
    rep = build_representation(hw)
    assert rep.dim == d
    assert _solved(rep, auto_outer(hw.n)) is not None


def test_solver_refuses_an_oversized_system_before_building_it():
    # conjugating by a random orthogonal matrix leaves no weight basis, so
    # all d^2 = 4096 entries of R are unknowns
    rep = build_representation(HighestWeight(3, (6, 3, 0)))
    q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((rep.dim, rep.dim)))
    conjugated = GeneratorRep(3, {key: q @ m @ q.T for key, m in rep.gen.items()})
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="budget"):
            find_simulation_matrix(conjugated, auto_outer(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < linalg.MEMORY_BUDGET_BYTES / 200


def test_solver_normalizes_an_order_3_automorphism_on_a_reducible_carrier():
    omega = cmath.exp(2j * math.pi / 3)
    aut = gtlie.Automorphism(kind="inner", matrix=np.diag([1, omega, omega * omega]), order=3)
    hw = HighestWeight(3, (2, 1, 0))
    for carrier in (build_representation(hw), doubled_rep(hw)[0]):
        found = _solved(carrier, aut)
        assert found is not None and found.order == 3


def test_the_action_is_charged_before_its_dense_stacks_are_formed(monkeypatch, capsys):
    # charged at four (575, 24, 24) complex stacks of sl(24), 20 MiB: the basis, its images and their
    # coordinates peak at about 3.5 of them; grading from-auto --inner 96,48 would need about 4.5 GiB
    from gtlie.cli import main

    charge = 4 * 16 * 575 * 576
    aut = auto_inner(24, 12)
    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", charge - 1)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=r"the images of the 575 basis matrices of sl\(24\) need 0.02 GiB, over"):
            aut.action
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert main(["grading", "from-auto", "--inner", "24,12"]) == 2 and "budget" in capsys.readouterr().err
        cli_peak = tracemalloc.get_traced_memory()[1]
        monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", charge)
        tracemalloc.reset_peak()
        assert aut.action.shape == (575, 575)
        formed = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the command builds sl(24) itself (about 5 MiB), and no stack
    assert peak < charge / 1000 and cli_peak < charge / 3 and 3 * charge / 4 < formed <= charge


@pytest.mark.parametrize("make", [J_matrix, lambda hw: simulation_inner(hw, 3, 1)], ids=["J", "inner"])
def test_a_simulation_matrix_charges_its_pattern_table_before_enumerating_it(monkeypatch, make):
    # r(40,20,0): 9261 patterns of 6 int64 entries, 0.42 MiB; r(1000,500,0) would need 5.6 GiB of them
    hw = HighestWeight(3, (40, 20, 0))
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=r"the 125751501 patterns of r\(1000,500,0\) need 5.62 GiB, over the 2.00"):
            make(HighestWeight(3, (1000, 500, 0)))
        monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", 8 * 6 * 9261 - 1)
        with pytest.raises(InputError, match=r"the 9261 patterns of r\(40,20,0\) need 0.00 GiB, over the 0.00"):
            make(hw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 6 * 9261 / 10
    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", 8 * 6 * 9261)
    assert make(hw).dim == 9261


def _carriers(hw):
    """(rep, aut, sim) for every inner class auto_inner(n, s) and for the
    outer automorphism, on J_matrix when it exists and on doubled_rep."""
    n, rep = hw.n, build_representation(hw)
    out = [(rep, auto_inner(n, s), simulation_inner(hw, n, s)) for s in range(n // 2 + 1)]
    if is_self_contragredient(hw):
        out.append((rep, auto_outer(n), J_matrix(hw)))
    doubled, swap = doubled_rep(hw)
    return out + [(doubled, auto_outer(n), swap)]


def _check_like_the_oracles(rep, aut, sim, vgamma=None):
    """verify_simulation and, on vgamma, check_compatibility, each matching
    its per-column oracle; returns both reports (None for the second
    without vgamma)."""
    simcheck = verify_simulation(rep, aut, sim, 1e-9)
    assert_matches_per_column(simcheck, per_column_simulation(rep, aut, sim, 1e-9))
    if vgamma is None:
        return simcheck, None
    gamma = grading_from_automorphism(gtlie.sl_algebra(rep.n), aut)
    compat = check_compatibility(rep, gamma, vgamma, 1e-9)
    assert_matches_per_column(compat, per_column_compatibility(rep, gamma, vgamma, 1e-9))
    assert compat.checked == sum(x.shape[1] for x in gamma.parts.values()) * rep.dim
    return simcheck, compat


@pytest.mark.parametrize("hw", SMALL_WEIGHTS, ids=str)
def test_index_kernels_match_the_oracles_on_every_small_weight(hw):
    for rep, aut, sim in _carriers(hw):
        assert sim.kind in ("diagonal", "signed_permutation")
        simcheck, compat = _check_like_the_oracles(rep, aut, sim, decompose_rep_space(sim))
        assert simcheck.ok and compat.ok


@pytest.mark.parametrize("m, c", [((2, 1, 0), 1), ((2, 1, 0), 4), ((2, 1, 1, 0), 7), ((3, 3, 0), 0)], ids=str)
def test_a_flipped_sign_of_the_outer_simulation_is_flagged(m, c):
    hw = HighestWeight(len(m), m)
    if is_self_contragredient(hw):
        rep, good = build_representation(hw), J_matrix(hw)
    else:
        rep, good = doubled_rep(hw)
    signs = list(good.signs)
    signs[c] = -signs[c]
    bad = SimulationMatrix(order=2, kind="signed_permutation", perm=good.perm, signs=tuple(signs))
    simcheck, _ = _check_like_the_oracles(rep, auto_outer(hw.n), bad)
    assert not simcheck.ok and good.perm[c] != c
    # the flipped sign leaves R^2 e_c = -e_c on its 2-cycle: the V split refuses it rather than return
    # columns that are not eigenvectors
    with pytest.raises(gtlie.VerificationError, match="M\\^2 = Id \\(residual 2\\)"):
        decompose_rep_space(bad)


@pytest.mark.parametrize("m, s, c", [((2, 1, 0), 1, 3), ((3, 1, 0), 1, 0), ((2, 1, 1, 0), 2, 5)], ids=str)
def test_a_shifted_phase_of_the_inner_simulation_is_flagged(m, s, c):
    hw = HighestWeight(len(m), m)
    rep, good = build_representation(hw), simulation_inner(hw, hw.n, s)
    for shift in (Fraction(1, 2), Fraction(1)):  # a quarter turn has no Z2 label; a half turn moves e_c
        phases = list(good.phases)
        phases[c] += shift
        bad = SimulationMatrix(order=2, kind="diagonal", phases=tuple(phases))
        simcheck, compat = _check_like_the_oracles(
            rep, auto_inner(hw.n, s), bad, decompose_rep_space(bad) if shift == 1 else None
        )
        assert not simcheck.ok and (compat is None or not compat.ok)


@pytest.mark.parametrize("label, pos", [((1, 2), (0, 1)), ((2, 2), (3, 3)), ((3, 1), (7, 0))], ids=str)
def test_a_changed_generator_entry_is_flagged(label, pos):
    # Ad_A with A diagonal maps r(E_kl) to a multiple of itself, so the inner
    # checks see a changed entry only where the phases make it one; J swaps
    # r(E_kl) with r(E_lk) and always sees it
    hw = HighestWeight(3, (2, 1, 0))
    rep = build_representation(hw)
    gen = {key: m.copy() for key, m in rep.gen.items()}
    gen[label][pos] += 0.5
    bad = GeneratorRep(3, gen)
    _check_like_the_oracles(bad, auto_inner(3, 1), simulation_inner(hw, 3, 1), decompose_rep_space(simulation_inner(hw, 3, 1)))
    simcheck, _ = _check_like_the_oracles(bad, auto_outer(3), J_matrix(hw), decompose_rep_space(J_matrix(hw)))
    assert not simcheck.ok


def test_a_nan_generator_entry_fails_both_checks_closed():
    hw = HighestWeight(3, (2, 1, 0))
    rep = build_representation(hw)
    gen = {key: m.copy() for key, m in rep.gen.items()}
    gen[(1, 3)][0, 6] = np.nan
    bad = GeneratorRep(3, gen)
    for aut, sim in ((auto_inner(3, 1), simulation_inner(hw, 3, 1)), (auto_outer(3), J_matrix(hw))):
        assert verify_simulation(bad, aut, sim).max_residual == math.inf
        gamma = grading_from_automorphism(gtlie.sl_algebra(3), aut)
        assert check_compatibility(bad, gamma, decompose_rep_space(sim)).max_residual == math.inf


def test_a_nan_on_a_label_that_one_coordinate_column_touches_fails_closed():
    # r(E_11) enters only H_1 = E_11 - E_22, one coordinate column of the inner grading: the join
    # carries the NaN to that column's images alone, and its report fails
    hw = HighestWeight(3, (2, 1, 0))
    rep = build_representation(hw)
    gen = {key: m.copy() for key, m in rep.gen.items()}
    gen[(1, 1)][2, 2] = np.nan
    gamma = grading_from_automorphism(gtlie.sl_algebra(3), auto_inner(3, 1))
    report = check_compatibility(GeneratorRep(3, gen), gamma, decompose_rep_space(simulation_inner(hw, 3, 1)))
    assert not report.ok and report.max_residual == math.inf


# The 17 irreps of the paper_sweep benchmark workload, and five more with larger or more parts.
ORACLE_WEIGHTS = (
    [(m1, 0) for m1 in range(1, 5)]
    + [(m1, m2, 0) for m1 in range(1, 4) for m2 in range(m1 + 1)]
    + [(1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (2, 1, 1, 0)]
    + [(4, 3, 1, 0), (3, 2, 1, 0), (2, 2, 0, 0), (1, 0, 0, 0, 0), (2, 1, 0, 0, 0)]
)


@pytest.mark.parametrize("m", ORACLE_WEIGHTS, ids=str)
def test_compatibility_matches_the_dense_pair_path_on_every_carrier(m):
    # image sums joined with the nonzeros of the X columns give the reports and coordinates of one
    # dense table times each part, bit for bit
    hw = HighestWeight(len(m), m)
    algebra = gtlie.sl_algebra(hw.n)
    for rep, aut, sim in _carriers(hw):
        gamma, vgamma = grading_from_automorphism(algebra, aut), decompose_rep_space(sim)
        assert assert_same_as_dense_pair_path(lambda: autos.compatibility(rep, gamma, vgamma)).ok


@pytest.mark.parametrize("m", ORACLE_WEIGHTS[:17], ids=str)
def test_pair_path_compatibility_reports_are_those_of_the_projection_distance(m):
    # every carrier of the paper_sweep irreps is measured on the exact pair path alone, and the
    # projection distance of the dense path forced on the same parts gives its verdict, residuals and
    # worst_at
    hw = HighestWeight(len(m), m)
    algebra = gtlie.sl_algebra(hw.n)
    for rep, aut, sim in _carriers(hw):
        gamma, vgamma = grading_from_automorphism(algebra, aut), decompose_rep_space(sim)
        assert assert_pair_path_is_the_dense_path(lambda: check_compatibility(rep, gamma, vgamma)).ok


def test_a_dense_gamma_against_pair_carrier_parts_agrees_with_the_dense_product():
    # a conjugated grading has X columns with many nonzeros, whose terms matmul may add in another
    # order than the join's sums: the residuals agree to round-off and the verdicts exactly
    hw = HighestWeight(3, (2, 1, 0))
    rep = build_representation(hw)
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
    aut = gtlie.Automorphism(kind="inner", matrix=q @ auto_inner(3, 1).matrix @ q.T, order=2)
    gamma = grading_from_automorphism(gtlie.sl_algebra(3), aut)
    assert max(np.count_nonzero(part, axis=0).max() for part in gamma.parts.values()) > 2
    vgamma = decompose_rep_space(simulation_inner(hw, 3, 1))
    got = check_compatibility(rep, gamma, vgamma)
    want = with_dense_pair_residuals(lambda: check_compatibility(rep, gamma, vgamma))
    assert not got.ok and (got.ok, got.checked, got.worst_at) == (want.ok, want.checked, want.worst_at)
    assert [v[:-1] for v in got.violations] == [v[:-1] for v in want.violations]
    assert np.allclose([v[-1] for v in got.violations], [v[-1] for v in want.violations], rtol=0, atol=1e-14)
    assert abs(got.max_residual - want.max_residual) <= 1e-14


def test_check_compatibility_of_r4310_under_j_joins_only_the_nonzeros():
    # the dense (keys x labels) table of image sums and its products with each part peaked at 4.07 MiB
    hw = HighestWeight(4, (4, 3, 1, 0))
    rep = build_representation(hw)
    gamma = grading_from_automorphism(gtlie.sl_algebra(4), auto_outer(4))
    vgamma = decompose_rep_space(J_matrix(hw))
    report, peak = _peak_bytes(lambda: check_compatibility(rep, gamma, vgamma))
    assert report.ok and report.max_residual == 0.0 and report.checked == 15 * 175
    assert peak < 2.5 * 2**20


def test_solver_carriers_are_measured_as_on_the_reference_span_path():
    # every carrier of the paper_sweep irreps with d <= 15 on which the solver finds a dense R, under
    # inner(n,1) and outer: residuals bit for bit, reports field for field, coordinates to round-off
    dense = []
    for m in ORACLE_WEIGHTS[:17]:
        hw = HighestWeight(len(m), m)
        algebra = gtlie.sl_algebra(hw.n)
        for carrier in (build_representation(hw), doubled_rep(hw)[0]):
            for aut in (auto_inner(hw.n, 1), auto_outer(hw.n)):
                found = find_simulation_matrix(carrier, aut) if carrier.dim <= 15 else None
                vgamma = None if found is None else decompose_rep_space(found)
                if vgamma is None or all(gtlie.algebra._pair_support(p) is not None for p in vgamma.parts.values()):
                    continue  # no R, or one with a single nonzero per column: the exact pair path
                gamma = grading_from_automorphism(algebra, aut)
                assert assert_same_as_reference_span_path(lambda: autos.compatibility(carrier, gamma, vgamma)).ok
                dense.append((m, carrier.dim, aut.kind))
    assert len(dense) >= 7, dense


def test_dense_r_and_mixed_v_parts_take_the_dense_path_and_match_the_oracles():
    hw = HighestWeight(3, (2, 1, 0))
    rep = build_representation(hw)
    for aut in (auto_inner(3, 1), auto_outer(3)):
        found = find_simulation_matrix(rep, aut)
        assert found.kind == "dense"
        simcheck, compat = _check_like_the_oracles(rep, aut, found, decompose_rep_space(found))
        assert simcheck.ok and compat.ok
    # each V part of the J split mixed by a random unitary: no longer disjoint columns
    rng = np.random.default_rng(11)
    sim = J_matrix(hw)
    parts = {}
    for lab, part in decompose_rep_space(sim).parts.items():
        u, _ = np.linalg.qr(rng.standard_normal((part.shape[1],) * 2) + 1j * rng.standard_normal((part.shape[1],) * 2))
        parts[lab] = part @ u
    mixed = gtlie.Grading(group=AbelianGroup((2,)), parts=parts)
    _, compat = _check_like_the_oracles(rep, auto_outer(3), sim, mixed)
    assert compat.ok and 0 < compat.max_residual < 1e-13  # the thin-SVD basis leaves round-off


def test_a_nan_carrier_part_fails_the_dense_path_with_an_infinite_residual():
    # a NaN part has no thin SVD: every distance from it is infinite, and nothing raises
    hw = HighestWeight(3, (1, 0, 0))
    gamma = grading_from_automorphism(gtlie.sl_algebra(3), auto_inner(3, 1))
    rep, vgamma = build_representation(hw), decompose_rep_space(simulation_inner(hw, 3, 1))
    for lab in vgamma.parts:
        parts = {j: part.copy() for j, part in vgamma.parts.items()}
        parts[lab][0, 0] = math.nan
        report = check_compatibility(rep, gamma, gtlie.Grading(group=vgamma.group, parts=parts))
        assert not report.ok and report.max_residual == math.inf and report.checked == 8 * 3


@pytest.mark.parametrize("keep", [0, 2])
def test_compatibility_fails_a_gamma_that_is_not_a_direct_sum(keep):
    # part 0 of inner(3,1) emptied or cut to 2 of its 4 columns is no grading of sl(3), as verify_grading
    # says; the images of the columns left still land in their targets, so the residuals alone passed it
    hw = HighestWeight(3, (2, 1, 0))
    rep, sl3 = build_representation(hw), gtlie.sl_algebra(3)
    gamma = grading_from_automorphism(sl3, auto_inner(3, 1))
    half = gtlie.Grading(group=gamma.group, parts={(0,): gamma.parts[(0,)][:, :keep], (1,): gamma.parts[(1,)]})
    report = check_compatibility(rep, half, decompose_rep_space(simulation_inner(hw, 3, 1)))
    assert not report.ok and report.violations[0] == ("direct_sum", 4 + keep, 4 + keep, math.inf)
    assert report.violations[0] == gtlie.verify_grading(sl3, half).violations[0]


def test_compatibility_fails_a_nan_gamma_on_the_trivial_carrier():
    # the trivial carrier's r(x) are all zero, so no image meets the NaN: the check passed at residual 0.0
    gamma = grading_from_automorphism(gtlie.sl_algebra(3), auto_inner(3, 1))
    part = gamma.parts[(0,)].copy()
    part[0, 0] = np.nan
    nan = gtlie.Grading(group=gamma.group, parts={(0,): part, (1,): gamma.parts[(1,)]})
    trivial = build_representation(HighestWeight(3, (0, 0, 0)))
    report = check_compatibility(trivial, nan, gtlie.Grading(group=gamma.group, parts={(0,): np.eye(1)}))
    assert (report.ok, report.violations, report.checked) == (False, (("non_finite", (0,), math.inf),), 8)


def test_compatibility_fails_a_gamma_with_no_part():
    hw = HighestWeight(3, (2, 1, 0))
    vgamma = decompose_rep_space(simulation_inner(hw, 3, 1))
    report = check_compatibility(build_representation(hw), gtlie.Grading(group=vgamma.group, parts={}), vgamma)
    assert (report.ok, report.violations, report.checked) == (False, (("direct_sum", 0, 0, math.inf),), 0)


@pytest.mark.parametrize("parts", [{}, {(0,): np.zeros((8, 0))}], ids=["no part", "no column"])
def test_compatibility_fails_a_carrier_grading_with_no_column(parts):
    # nothing spans the carrier, so nothing is measured: the failing report an empty gamma gets
    hw = HighestWeight(3, (2, 1, 0))
    gamma = grading_from_automorphism(gtlie.sl_algebra(3), auto_inner(3, 1))
    report = check_compatibility(build_representation(hw), gamma, gtlie.Grading(group=gamma.group, parts=parts))
    assert (report.ok, report.violations, report.checked) == (False, (("direct_sum", 0, 0, math.inf),), 0)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["inner", "outer"])
def test_verify_simulation_of_r40_20_0_stays_on_the_entries(kind):
    # the dense (k, d, d) stack of d = 9261 would need 5.75 GiB of generators
    hw = HighestWeight(3, (40, 20, 0))
    rep = build_representation(hw)
    aut, sim = (auto_inner(3, 1), simulation_inner(hw, 3, 1)) if kind == "inner" else (auto_outer(3), J_matrix(hw))
    report, peak = _peak_bytes(lambda: verify_simulation(rep, aut, sim, 1e-9))
    assert report.ok and report.max_residual == 0.0 and report.checked == 9
    assert peak < 64 * 2**20


def test_check_compatibility_of_r20_10_0_forms_no_dense_generator():
    # the densified generators of d = 1331 take 127 MB
    hw = HighestWeight(3, (20, 10, 0))
    rep = build_representation(hw)
    gamma = grading_from_automorphism(gtlie.sl_algebra(3), auto_inner(3, 1))
    vgamma = decompose_rep_space(simulation_inner(hw, 3, 1))
    report, peak = _peak_bytes(lambda: check_compatibility(rep, gamma, vgamma, 1e-9))
    assert report.ok and report.max_residual == 0.0 and report.checked == 8 * 1331
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "fields",
    [
        dict(kind="signed_permutation", perm=(0, 0), signs=(1.0, 1.0)),
        dict(kind="signed_permutation", perm=(0, 2), signs=(1.0, 1.0)),
        dict(kind="signed_permutation", perm=(1, 0), signs=(1.0,)),
        dict(kind="signed_permutation", perm=(1, 0), signs=(1.0, 0.0)),
        dict(kind="signed_permutation", perm=(1, 0), signs=(1.0, complex(math.nan, 0.0))),
        dict(kind="signed_permutation", perm=(1, 0), signs=(math.inf, 1.0)),
        dict(kind="diagonal", phases=(Fraction(0), math.nan)),
        dict(kind="diagonal", phases=(math.inf,)),
        dict(kind="diagonal", phases=(Fraction(0),), order=0),
        dict(kind="dense", dense=np.ones((2, 3))),
        dict(kind="dense", dense=np.array([[1.0, math.nan], [0.0, 1.0]])),
        dict(kind="mystery", dense=np.eye(2)),
    ],
    ids=["repeated", "index d", "short signs", "zero sign", "nan sign", "inf sign", "nan phase", "inf phase",
         "order 0", "not square", "nan entry", "unknown kind"],
)
def test_simulation_matrix_refuses_malformed_fields(fields):
    with pytest.raises(InputError):
        SimulationMatrix(**{"order": 2, **fields})


def test_a_zero_sign_is_refused_before_any_check():
    # it raised ZeroDivisionError from verify_simulation, and perm entry d an IndexError
    rep = build_representation(HighestWeight(3, (1, 1, 0)))
    with pytest.raises(InputError, match="nonzero"):
        verify_simulation(rep, auto_outer(3), SimulationMatrix(order=2, kind="signed_permutation",
                                                              perm=(0, 1, 2), signs=(1.0, 0.0, 1.0)))


@pytest.mark.parametrize("seed", range(6))
def test_random_pair_gradings_match_the_oracle(seed):
    # coordinate vectors and pairs with arbitrary (also complex) values, a
    # column below the span tolerance now and then, and mixed gamma columns
    rng = np.random.default_rng(seed)
    hw = HighestWeight(3, (2, 1, 0)) if seed % 2 else HighestWeight(4, (1, 1, 0, 0))
    rep, n, d = build_representation(hw), hw.n, weyl_dim(hw)
    gamma = grading_from_automorphism(gtlie.sl_algebra(n), auto_outer(n) if seed % 3 else auto_inner(n, 1))
    gamma = gtlie.Grading(group=gamma.group, parts={l: p @ rng.standard_normal((p.shape[1],) * 2) for l, p in gamma.parts.items()})
    order, parts, c = rng.permutation(d), {(0,): [], (1,): []}, 0
    while c < d:
        size = 2 if c + 1 < d and rng.random() < 0.6 else 1
        for lab in ((0,), (1,))[: size]:
            v = np.zeros(d, dtype=complex)
            v[order[c : c + size]] = rng.standard_normal(size) + 1j * rng.standard_normal(size) * (seed % 2)
            parts[lab if size == 2 else (int(rng.integers(2)),)].append(v * (1e-12 if rng.random() < 0.05 else 1.0))
        c += size
    vgamma = gtlie.Grading(group=AbelianGroup((2,)), parts={l: np.column_stack(p) for l, p in parts.items() if p})
    report = check_compatibility(rep, gamma, vgamma, 1e-9)
    assert_matches_per_column(report, per_column_compatibility(rep, gamma, vgamma, 1e-9))
    assert not report.ok
