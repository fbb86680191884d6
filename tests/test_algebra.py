import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtlie
from gtlie import TwoPartCase
from gtlie import algebra as algebra_module
from gtlie.algebra import closure, sl_basis_matrices, matrix_to_coords
from gtlie.errors import InputError
from gtlie.groups import AbelianGroup
from gtlie.linalg import Entries, independent_columns, max_abs
from oracles import (
    assert_pair_path_is_the_dense_path,
    assert_same_as_dense_pair_path,
    assert_same_as_reference_span_path,
    conjugate_of_inner,
    dense_brackets,
    dense_classify,
    dense_jacobi_residual,
    entrywise_coords,
    greedy_columns,
    per_pair_sl_structure,
    per_vector_classify,
    per_vector_grading,
    scattered,
    with_projection_distance,
    with_tensordot_images,
)


def sl2_ehf():
    """sl(2) with basis (e, h, f): [h,e]=2e, [h,f]=-2f, [e,f]=h."""
    c = np.zeros((3, 3, 3), dtype=complex)
    c[1, 0, 0] = 2
    c[0, 1, 0] = -2
    c[1, 2, 2] = -2
    c[2, 1, 2] = 2
    c[0, 2, 1] = 1
    c[2, 0, 1] = -1
    return gtlie.LieAlgebra(basis_names=("e", "h", "f"), structure=c)


def abelian(k=4):
    return gtlie.LieAlgebra(
        basis_names=tuple(f"x{i}" for i in range(k)),
        structure=np.zeros((k, k, k), dtype=complex),
    )


def test_sl_algebra_dims():
    assert gtlie.sl_algebra(2).dim == 3
    assert gtlie.sl_algebra(3).dim == 8
    assert gtlie.sl_algebra(4).dim == 15
    with pytest.raises(InputError):
        gtlie.sl_algebra(1)


def test_jacobi_exact_zero_for_sl():
    for n in (2, 3, 4):
        rep = gtlie.check_jacobi(gtlie.sl_algebra(n))
        assert rep.ok
        assert rep.max_residual == 0.0


def test_jacobi_detects_broken_constant():
    a = gtlie.sl_algebra(3)
    c = a.structure.copy()
    c[0, 1, 2] += 1
    c[1, 0, 2] -= 1  # keep antisymmetry so construction succeeds
    broken = gtlie.LieAlgebra(basis_names=a.basis_names, structure=c)
    assert not gtlie.check_jacobi(broken).ok


def test_jacobi_abelian_ok():
    assert gtlie.check_jacobi(abelian()).ok


def random_algebra(k, seed):
    """Random complex constants made exactly antisymmetric; not a Lie algebra."""
    c = np.random.default_rng(seed).normal(size=(k, k, k, 2)) @ [1, 1j]
    return gtlie.LieAlgebra(basis_names=tuple(f"x{i}" for i in range(k)), structure=c - c.transpose(1, 0, 2))


@pytest.mark.parametrize("seed", range(3))
def test_jacobi_matches_the_dense_oracle(seed):
    sl3 = gtlie.sl_algebra(3)
    broken = sl3.structure.copy()
    broken[seed, 3, 5] += 1
    broken[3, seed, 5] -= 1
    for a in (gtlie.sl_algebra(seed + 2), sl2_ehf(), random_algebra(5, seed),
              gtlie.LieAlgebra(basis_names=sl3.basis_names, structure=broken)):
        rep = gtlie.check_jacobi(a)
        worst = dense_jacobi_residual(a.structure)
        assert rep.max_residual == pytest.approx(worst, rel=1e-12, abs=1e-12)
        assert rep.ok == (worst <= 1e-9)
        assert rep.checked == a.dim**3 and rep.tol == 1e-9
        if worst:
            i, j, l = rep.worst_at
            c = a.structure
            at = c[j, l] @ c[i] + c[l, i] @ c[j] + c[i, j] @ c[l]
            assert np.abs(at).max() == pytest.approx(worst, rel=1e-12)
        else:
            assert rep.worst_at is None


def test_jacobi_of_sl10_is_exact_in_bounded_memory():
    # the dense k^4 tensor of sl(10) needs about 1.5 GB per term
    a = gtlie.sl_algebra(10)
    tracemalloc.start()
    try:
        rep = gtlie.check_jacobi(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.max_residual == 0.0 and rep.checked == 99**3
    assert peak < 64 * 2**20


def test_jacobi_refuses_a_dense_algebra_over_its_row_budget(monkeypatch):
    # relation_sums counts the terms of its heaviest output row exactly: each entry at row p joins the
    # entries of its column's row and the triples (i, j, l) at its matrix l, and that row at TERM_BYTES
    # a term is refused one byte under the budget and checked at it
    from gtlie import linalg

    algebra = random_algebra(7, 0)
    ad, k = algebra.ad, algebra.dim
    runs, per = np.diff(ad.starts), np.bincount(ad.rows[ad.gids < ad.cols], minlength=k)
    heaviest = max(sum(runs[c] + per[g] for c, g in zip(ad.cols[ad.rows == p], ad.gids[ad.rows == p])) for p in range(k))
    assert heaviest == 3 * (k * (k - 1)) ** 2 // 2  # dense: k(k-1) entries a row, k(k-1)/2 triples a matrix
    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", linalg.TERM_BYTES * heaviest - 1)
    with pytest.raises(InputError, match="the relation terms of one output row need 0.00 GiB, over the 0.00 GiB budget"):
        gtlie.check_jacobi(algebra)
    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", linalg.TERM_BYTES * heaviest)
    report = gtlie.check_jacobi(algebra)
    assert not report.ok and report.checked == k**3


def test_bracket_sl2_hand_values():
    a = sl2_ehf()
    e = np.array([1, 0, 0], dtype=complex)
    f = np.array([0, 0, 1], dtype=complex)
    assert np.array_equal(gtlie.bracket(e, f, a), np.array([0, 1, 0], dtype=complex))


def test_bracket_antisymmetry_random():
    a = gtlie.sl_algebra(3)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.normal(size=8) + 1j * rng.normal(size=8)
        assert np.abs(gtlie.bracket(x, x, a)).max() < 1e-12
        y = rng.normal(size=8)
        assert np.abs(gtlie.bracket(x, y, a) + gtlie.bracket(y, x, a)).max() < 1e-12


def test_bracket_matches_matrix_commutator_oracle():
    # independent route: commutators of the explicit n x n basis matrices
    n = 3
    a = gtlie.sl_algebra(n)
    mats = sl_basis_matrices(n)
    k = a.dim
    for i in range(k):
        for j in range(k):
            xi = np.zeros(k)
            xj = np.zeros(k)
            xi[i] = 1
            xj[j] = 1
            via_structure = gtlie.bracket(xi, xj, a)
            via_matrices = matrix_to_coords(n, mats[i] @ mats[j] - mats[j] @ mats[i])
            assert np.array_equal(via_structure, via_matrices)


@pytest.mark.parametrize("n", range(2, 13))
def test_sl_structure_matches_the_per_pair_oracle(n):
    # Bit for bit up to the sign of zero: the oracle's complex BLAS products
    # leave -0.0 in some zero entries, where the integer kernel has +0.0.
    assert gtlie.sl_algebra(n).structure.tobytes() == (per_pair_sl_structure(n) + 0).tobytes()


@pytest.mark.parametrize("n", [2, 3, 5])
def test_matrix_to_coords_of_a_stack_matches_the_entrywise_expansion(n):
    # images under the outer automorphism carry -0.0 entries on the diagonal
    rng = np.random.default_rng(n)
    mats = [gtlie.auto_outer(n).apply(m) for m in sl_basis_matrices(n)]
    mats += [m - np.trace(m) / n * np.eye(n) for m in rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))]
    stack = matrix_to_coords(n, np.array(mats))
    assert stack.tobytes() == np.array([entrywise_coords(n, m) for m in mats]).tobytes()
    assert all(matrix_to_coords(n, m).tobytes() == row.tobytes() for m, row in zip(mats, stack))
    with pytest.raises(InputError):
        matrix_to_coords(n, np.array(mats + [np.eye(n)]))
    with pytest.raises(InputError):
        matrix_to_coords(n, np.zeros((n + 1, n + 1)))


def test_bracket_dimension_mismatch():
    a = gtlie.sl_algebra(2)
    with pytest.raises(InputError):
        gtlie.bracket(np.zeros(4), np.zeros(3), a)


def test_adjoint_sl2_hand_value():
    mats = gtlie.adjoint_rep(sl2_ehf())
    assert np.array_equal(mats[1], np.diag([2.0, 0.0, -2.0]).astype(complex))


def test_adjoint_abelian_zero():
    assert np.abs(gtlie.adjoint_rep(abelian())).max() == 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_adjoint_homomorphism(n):
    a = gtlie.sl_algebra(n)
    mats = gtlie.adjoint_rep(a)
    k = a.dim
    worst = 0.0
    for i in range(k):
        for j in range(k):
            xi = np.zeros(k)
            xj = np.zeros(k)
            xi[i] = 1
            xj[j] = 1
            expected = sum(
                c * mats[l] for l, c in enumerate(gtlie.bracket(xi, xj, a)) if c != 0
            )
            if isinstance(expected, int):
                expected = np.zeros((k, k))
            worst = max(worst, np.abs(mats[i] @ mats[j] - mats[j] @ mats[i] - expected).max())
    assert worst <= 1e-12


def test_burnside_span_dims():
    assert gtlie.burnside_span_dim(gtlie.adjoint_rep(gtlie.sl_algebra(2))) == 9
    assert gtlie.burnside_span_dim(gtlie.adjoint_rep(gtlie.sl_algebra(3))) == 64
    assert gtlie.burnside_span_dim([np.zeros((3, 3))] * 4) == 0


def test_burnside_oracle_sl2():
    # independent oracle: rank of all words up to length 3 over the adjoint
    gens = list(gtlie.adjoint_rep(gtlie.sl_algebra(2)))
    words = list(gens)
    for g in gens:
        words += [w @ g for w in list(words)]
    stacked = np.column_stack([w.ravel() for w in words])
    assert np.linalg.matrix_rank(stacked, tol=1e-9) == 9


def test_burnside_reducible_family_below_cap():
    # block-diagonal pair of commuting diagonals: span stays polynomial, not full
    m = np.diag([1.0, 2.0, 3.0])
    assert gtlie.burnside_span_dim([m]) == 3


def test_verify_grading_trivial_and_gamma1():
    sl3 = gtlie.sl_algebra(3)
    assert gtlie.verify_grading(sl3, gtlie.trivial_grading(sl3)).ok
    gamma1 = gtlie.grading_from_automorphism(sl3, gtlie.auto_inner(3, 1))
    assert gtlie.verify_grading(sl3, gamma1).ok


def test_verify_grading_catches_bracket_spill():
    # sl(2) with La = {e, h}, Lb = {f}: [e, f] = h spills across parts
    a = sl2_ehf()
    group = AbelianGroup((2,))
    parts = {
        (0,): np.array([[1, 0], [0, 1], [0, 0]], dtype=complex),
        (1,): np.array([[0], [0], [1]], dtype=complex),
    }
    report = gtlie.verify_grading(a, gtlie.Grading(group=group, parts=parts))
    assert not report.ok
    assert [v[:2] for v in report.violations] == [((0,), (1,)), ((1,), (0,))]
    assert report.max_residual == 1.0 and report.worst_at == ((0,), (1,))
    assert report.checked == 9 and report.tol == 1e-9


def test_verify_grading_report_on_an_exact_grading():
    sl4 = gtlie.sl_algebra(4)
    report = gtlie.verify_grading(sl4, gtlie.grading_from_automorphism(sl4, gtlie.auto_inner(4, 1)), 1e-10)
    assert report.ok and report.max_residual == 0.0 and report.worst_at is None
    assert report.checked == 15**2 and report.tol == 1e-10


@pytest.mark.parametrize("aut", [gtlie.auto_inner(12, 6), gtlie.auto_outer(12)], ids=["inner", "outer"])
def test_verify_grading_of_sl12_stays_in_bounded_memory(aut):
    # the bracket blocks of every pair of parts and a thin SVD basis per part peaked at 68 and 73 MiB
    sl12 = gtlie.sl_algebra(12)
    gamma = gtlie.grading_from_automorphism(sl12, aut)
    tracemalloc.start()
    try:
        report = gtlie.verify_grading(sl12, gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
    assert report.ok and report.max_residual == 0.0 and report.checked == 143**2


def test_verify_grading_of_sl16_joins_only_the_nonzeros():
    # the dense (keys x labels) table of image sums and its products with each part peaked at 92 MiB
    # (inner) and 165 MiB (outer); ad is read before tracing, as every check of the algebra reads it
    sl16 = gtlie.sl_algebra(16)
    sl16.ad
    for aut, budget in ((gtlie.auto_inner(16, 8), 8), (gtlie.auto_outer(16), 16)):
        gamma = gtlie.grading_from_automorphism(sl16, aut)
        tracemalloc.start()
        try:
            report = gtlie.verify_grading(sl16, gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget * 2**20, aut.kind
        assert report.ok and report.max_residual == 0.0 and report.checked == 255**2


@pytest.mark.parametrize("n", range(2, 9))
def test_closure_matches_the_dense_pair_path_on_every_standard_grading(n):
    # image sums joined with the nonzeros of the X columns give the reports and coordinates of one
    # dense table times each part, bit for bit: every sum there adds at most two exact products
    algebra = gtlie.sl_algebra(n)
    for aut in [gtlie.auto_inner(n, s) for s in range(n // 2 + 1)] + [gtlie.auto_outer(n)]:
        grading = gtlie.grading_from_automorphism(algebra, aut)
        assert assert_same_as_dense_pair_path(lambda: closure(algebra, grading)).ok


def test_verify_grading_accepts_empty_part():
    sl3 = gtlie.sl_algebra(3)
    group = AbelianGroup((2,))
    parts = {
        (0,): np.eye(8, dtype=complex),
        (1,): np.zeros((8, 0), dtype=complex),
    }
    assert gtlie.verify_grading(sl3, gtlie.Grading(group=group, parts=parts)).ok


def test_verify_grading_tests_against_an_absent_part():
    # Z3 labels 0 and 1 only: [L_1, L_1] must land in the absent L_2
    a = sl2_ehf()
    parts = {(0,): np.eye(3, dtype=complex)[:, [1]], (1,): np.eye(3, dtype=complex)[:, [0, 2]]}
    report = gtlie.verify_grading(a, gtlie.Grading(group=AbelianGroup((3,)), parts=parts))
    assert [v[:2] for v in report.violations] == [((1,), (1,))]
    assert report.worst_at == ((1,), (1,)) and report.max_residual == 1.0


def test_classify_two_part_drops_tiny_images():
    # every bracket is t (1,1,1,0) up to sign with t below tol; kept, its
    # distance 4t/3 from P_a would exceed tol and read NeitherClosed
    t = 0.9e-9
    c = np.zeros((4, 4, 4), dtype=complex)
    c[3, 0, :3] = t
    c[0, 3, :3] = -t
    a = gtlie.LieAlgebra(basis_names=("x0", "x1", "x2", "x3"), structure=c)
    pa = np.array([[1, -1, -1, 0], [0, 0, 0, 1]], dtype=complex).T
    pb = np.eye(4, dtype=complex)[:, :2]
    assert gtlie.classify_two_part(a, pa, pb) == TwoPartCase.Z2_GRADING
    assert per_vector_classify(a, pa, pb, 1e-9) == TwoPartCase.Z2_GRADING


def test_classify_two_part_examples():
    a = sl2_ehf()
    e = np.array([1, 0, 0], dtype=complex).reshape(-1, 1)
    h = np.array([0, 1, 0], dtype=complex).reshape(-1, 1)
    f = np.array([0, 0, 1], dtype=complex).reshape(-1, 1)
    assert gtlie.classify_two_part(a, h, np.column_stack([e, f])) == TwoPartCase.Z2_GRADING
    assert gtlie.classify_two_part(a, np.column_stack([e, h]), f) == TwoPartCase.NOT_A_GRADING

    sl3 = gtlie.sl_algebra(3)
    gamma2 = gtlie.grading_from_automorphism(sl3, gtlie.auto_outer(3))
    got = gtlie.classify_two_part(sl3, gamma2.parts[(0,)], gamma2.parts[(1,)])
    assert got == TwoPartCase.Z2_GRADING


def test_classify_two_part_both_closed_on_non_simple_input():
    # direct sum of two affine lines: each part closed with a nonzero bracket,
    # so neither part can serve as the even part of a Z2 pattern
    c = np.zeros((4, 4, 4), dtype=complex)
    c[0, 1, 1] = 1
    c[1, 0, 1] = -1  # [x0, x1] = x1 inside La
    c[2, 3, 3] = 1
    c[3, 2, 3] = -1  # [x2, x3] = x3 inside Lb
    a = gtlie.LieAlgebra(basis_names=("x0", "x1", "x2", "x3"), structure=c)
    pa = np.eye(4, dtype=complex)[:, :2]
    pb = np.eye(4, dtype=complex)[:, 2:]
    assert gtlie.classify_two_part(a, pa, pb) == TwoPartCase.BOTH_CLOSED


def test_classify_two_part_rejects_non_complementary():
    a = sl2_ehf()
    e = np.array([1, 0, 0], dtype=complex).reshape(-1, 1)
    with pytest.raises(InputError):
        gtlie.classify_two_part(a, e, e)


def test_the_tiny_bracket_split_passes_verify_grading_as_it_classifies():
    # 0 lies in every span, so the dense path measures each image by the smaller of its projection
    # residual 4t/3 and its sup norm t: the grading passes at t, where the projection residual alone fails
    t = 0.9e-9
    c = np.zeros((4, 4, 4), dtype=complex)
    c[3, 0, :3] = t
    c[0, 3, :3] = -t
    a = gtlie.LieAlgebra(basis_names=("x0", "x1", "x2", "x3"), structure=c)
    pa = np.array([[1, -1, -1, 0], [0, 0, 0, 1]], dtype=complex).T
    pb = np.eye(4, dtype=complex)[:, :2]
    gamma = gtlie.Grading(group=AbelianGroup((2,)), parts={(0,): pa, (1,): pb})
    report = gtlie.verify_grading(a, gamma)
    assert report.ok and report.max_residual == pytest.approx(t, rel=1e-12)
    assert gtlie.classify_two_part(a, pa, pb) == TwoPartCase.Z2_GRADING
    before = with_projection_distance(lambda: gtlie.verify_grading(a, gamma))
    assert not before.ok and before.max_residual == pytest.approx(4 * t / 3, rel=1e-12)


@pytest.mark.parametrize("n", range(2, 9))
def test_swapped_parts_are_a_z2_grading_through_the_second_labelling(n):
    # P_b even fails ([P_b, P_b] is not inside P_b), so the swapped labelling decides the split: two
    # verify_grading calls where the split in its own order takes one
    algebra = gtlie.sl_algebra(n)
    for aut in [gtlie.auto_inner(n, s) for s in range(1, n // 2 + 1)] + [gtlie.auto_outer(n)]:
        gamma = gtlie.grading_from_automorphism(algebra, aut)
        pa, pb = gamma.parts[(0,)], gamma.parts[(1,)]
        for p, q, calls in ((pa, pb, 1), (pb, pa, 2)):
            with mock.patch.object(algebra_module, "verify_grading", wraps=gtlie.verify_grading) as spy:
                assert gtlie.classify_two_part(algebra, p, q) == TwoPartCase.Z2_GRADING
            assert spy.call_count == calls
        assert dense_classify(algebra, pb, pa, 1e-9) == TwoPartCase.Z2_GRADING


@pytest.mark.parametrize("n", range(2, 9))
def test_pair_path_grading_reports_are_those_of_the_projection_distance(n):
    # every standard grading, and each with its labels swapped (which fails), is measured on the exact
    # pair path alone, and the projection distance of the dense path forced on the same parts gives its
    # verdict, residuals and worst_at
    algebra = gtlie.sl_algebra(n)
    for aut in [gtlie.auto_inner(n, s) for s in range(1, n // 2 + 1)] + [gtlie.auto_outer(n)]:
        gamma = gtlie.grading_from_automorphism(algebra, aut)
        swapped = gtlie.Grading(group=gamma.group, parts={(0,): gamma.parts[(1,)], (1,): gamma.parts[(0,)]})
        for g, ok in ((gamma, True), (swapped, False)):
            assert assert_pair_path_is_the_dense_path(lambda: gtlie.verify_grading(algebra, g)).ok == ok


def test_classify_two_part_refuses_a_non_finite_part():
    sl3 = gtlie.sl_algebra(3)
    gamma = gtlie.grading_from_automorphism(sl3, gtlie.auto_inner(3, 1))
    pa, pb = (np.array(gamma.parts[lab], dtype=complex) for lab in ((0,), (1,)))
    pb[0, 0] = np.nan
    with pytest.raises(InputError, match="subspace b has a NaN or infinite entry"):
        gtlie.classify_two_part(sl3, pa, pb)
    pa[1, 1] = np.inf
    with pytest.raises(InputError, match="subspace a has a NaN or infinite entry"):
        gtlie.classify_two_part(sl3, pa, pb)


def test_classify_two_part_leaves_the_callers_arrays_writable():
    # Grading flags an array it owns read-only in place: the split hands it copies of writable parts
    sl3 = gtlie.sl_algebra(3)
    gamma = gtlie.grading_from_automorphism(sl3, gtlie.auto_outer(3))
    pa, pb = (np.array(gamma.parts[lab], dtype=complex) for lab in ((0,), (1,)))
    assert gtlie.classify_two_part(sl3, pa, pb) == TwoPartCase.Z2_GRADING
    assert pa.flags.writeable and pb.flags.writeable
    a = sl2_ehf()
    h, ef = np.eye(3, dtype=complex)[:, 1], np.eye(3, dtype=complex)[:, [0, 2]]
    assert gtlie.classify_two_part(a, h, ef) == TwoPartCase.Z2_GRADING
    assert h.flags.writeable and ef.flags.writeable


@pytest.mark.parametrize("n, pin", [(16, 16 << 20), (24, 32 << 20), (32, 64 << 20)])
def test_classify_two_part_at_scale_stays_under_its_memory_pin(n, pin):
    # the split of inner(n, n/2) is one containment check, exact on its pair parts: dense bracket blocks
    # ad(p) q took 200 MiB on sl(16) and 2.25 GiB on sl(24), and sl(32) was over the generator budget
    algebra = gtlie.sl_algebra(n)
    gamma = gtlie.grading_from_automorphism(algebra, gtlie.auto_inner(n, n // 2))
    tracemalloc.start()
    try:
        case = gtlie.classify_two_part(algebra, gamma.parts[(0,)], gamma.parts[(1,)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert case == TwoPartCase.Z2_GRADING and peak < pin


@pytest.mark.parametrize("n", range(2, 9))
def test_brackets_and_dense_views_equal_the_dense_tensor_on_every_standard_grading(n):
    # ad(p_a) q_b from the entries gives the bracket blocks of the two tensordots bit for bit, and the
    # structure view and the adjoint matrices are the scatter of the constants
    algebra = gtlie.sl_algebra(n)
    k = algebra.dim
    assert np.array_equal(algebra.structure, scattered(algebra.ad, k).transpose(0, 2, 1))
    assert np.array_equal(gtlie.adjoint_rep(algebra), scattered(algebra.ad, k))
    for aut in [gtlie.auto_inner(n, s) for s in range(1, n // 2 + 1)] + [gtlie.auto_outer(n)]:
        gamma = gtlie.grading_from_automorphism(algebra, aut)
        pa, pb = (np.asarray(gamma.parts[lab], dtype=complex) for lab in ((0,), (1,)))
        for p, q in ((pa, pa), (pa, pb), (pb, pb)):
            want = dense_brackets(p, q, algebra)
            assert np.concatenate(algebra.ad.images(p) @ q, axis=1).tobytes() == want.tobytes()
            for x, y in itertools.product(p.T, q.T) if n <= 4 else ():
                one = dense_brackets(x[:, None], y[:, None], algebra)
                assert gtlie.bracket(x, y, algebra).tobytes() == one.tobytes()
        case = gtlie.classify_two_part(algebra, pa, pb)
        assert case == dense_classify(algebra, pa, pb, 1e-9) == TwoPartCase.Z2_GRADING


@pytest.mark.parametrize("n", [3, 4])
def test_dense_conjugates_bracket_grade_and_split_as_on_the_dense_tensor(n):
    # a conjugated grading has dense columns: its brackets and grading residuals agree with the
    # tensordots over the dense tensor to round-off, with the same verdicts
    algebra = gtlie.sl_algebra(n)
    for seed in range(30):
        gamma = gtlie.grading_from_automorphism(algebra, conjugate_of_inner(n, seed))
        pa, pb = gamma.parts[(0,)], gamma.parts[(1,)]
        for p, q in ((pa, pa), (pa, pb), (pb, pb)):
            got = np.column_stack([gtlie.bracket(x, y, algebra) for x in p.T for y in q.T])
            assert max_abs(got - dense_brackets(p, q, algebra)) <= 1e-14
        report = gtlie.verify_grading(algebra, gamma)
        want = with_tensordot_images(algebra, lambda: gtlie.verify_grading(algebra, gamma))
        assert report.ok == want.ok and abs(report.max_residual - want.max_residual) <= 1e-14
        assert gtlie.classify_two_part(algebra, pa, pb) == dense_classify(algebra, pa, pb, 1e-9)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_dense_conjugates_close_as_on_the_reference_span_path(n):
    # one thin SVD per part and one U^H W per (X part, V part) give the reference's residuals bit for bit
    # (the same products on each block), its reports, and its pseudo-inverse coordinates to round-off
    algebra = gtlie.sl_algebra(n)
    for seed in range(3):
        gamma = gtlie.grading_from_automorphism(algebra, conjugate_of_inner(n, seed))
        assert assert_same_as_reference_span_path(lambda: closure(algebra, gamma)).ok


def test_a_bracket_on_sl16_forms_one_adjoint_matrix_not_the_dense_tensor():
    # the dense tensor of sl(16) is 254 MiB; ad(x) is 1 MiB
    sl16 = gtlie.sl_algebra(16)
    x, y = np.random.default_rng(0).standard_normal((2, 255))
    tracemalloc.start()
    try:
        got = gtlie.bracket(x, y, sl16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20 and "structure" not in vars(sl16)
    assert max_abs(got - dense_brackets(x[:, None], y[:, None], sl16)[:, 0]) <= 1e-12


def test_classify_two_part_on_sl12_stays_under_its_memory_pin():
    # inner(12,6) splits sl(12) into parts of 71 and 72 columns: the images of one part are 22 MiB
    sl12 = gtlie.sl_algebra(12)
    gamma = gtlie.grading_from_automorphism(sl12, gtlie.auto_inner(12, 6))
    tracemalloc.start()
    try:
        case = gtlie.classify_two_part(sl12, gamma.parts[(0,)], gamma.parts[(1,)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert case == TwoPartCase.Z2_GRADING and peak < 64 << 20


def split_of(n, mask, mode, seed):
    """Two-part split of sl(n): basis vectors by mask, or the eigenspaces of
    the inner (n, 1) or outer automorphism; each part optionally mixed by a
    random invertible matrix (same span, dense float coordinates)."""
    a = gtlie.sl_algebra(n)
    if mode == "coords":
        eye = np.eye(a.dim, dtype=complex)
        pa, pb = eye[:, mask], eye[:, ~mask]
    else:
        aut = gtlie.auto_inner(n, 1) if mode == "inner" else gtlie.auto_outer(n)
        gamma = gtlie.grading_from_automorphism(a, aut)
        pa, pb = gamma.parts[(0,)], gamma.parts[(1,)]
    if seed is not None:
        rng = np.random.default_rng(seed)
        pa = pa @ (np.eye(pa.shape[1]) + 0.3 * rng.normal(size=(pa.shape[1],) * 2))
        pb = pb @ (np.eye(pb.shape[1]) + 0.3 * rng.normal(size=(pb.shape[1],) * 2))
    return a, pa, pb


@st.composite
def splits(draw):
    n = draw(st.integers(2, 4))
    k = n * n - 1
    mask = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    if mask.all() or not mask.any():
        mask[0] = not mask[0]
    mode = draw(st.sampled_from(["coords", "inner", "outer"]))
    seed = draw(st.none() | st.integers(0, 2**16))
    return split_of(n, mask, mode, seed)


@settings(max_examples=60)
@given(splits())
def test_batched_grading_kernels_match_the_per_vector_oracles(split):
    a, pa, pb = split
    gamma = gtlie.Grading(group=AbelianGroup((2,)), parts={(0,): pa, (1,): pb})
    report = gtlie.verify_grading(a, gamma)
    ok, worst, labels = per_vector_grading(a, gamma, 1e-9)
    assert report.ok == ok
    assert [v[:2] for v in report.violations] == labels
    assert report.max_residual == pytest.approx(worst, rel=1e-12, abs=1e-12)
    assert gtlie.classify_two_part(a, pa, pb) == per_vector_classify(a, pa, pb, 1e-9)
    # a column set with dependent columns: pa, then mixtures of pa, then pb
    mixed = np.column_stack([pa, pa @ np.ones((pa.shape[1], 2)), pb, pa + pb[:, :1]])
    assert list(independent_columns(mixed)) == greedy_columns(mixed, 1e-9)


@pytest.mark.parametrize("n", range(2, 7))
def test_eigenspace_projectors_pick_the_oracle_columns(n):
    k = n * n - 1
    auts = [gtlie.auto_inner(n, s) for s in range(n // 2 + 1)] + [gtlie.auto_outer(n)]
    for aut in auts:
        act = aut.action
        for proj in ((np.eye(k) + act) / 2, (np.eye(k) - act) / 2):
            assert list(independent_columns(proj)) == greedy_columns(proj, 1e-9)


def test_antisymmetry_is_checked_a_slice_at_a_time_and_still_exactly():
    tracemalloc.start()
    try:
        sl12 = gtlie.sl_algebra(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sl12.structure.nbytes == 143**3 * 16  # 44.6 MiB
    assert peak - sl12.structure.nbytes < 8 << 20  # the k^3 sum alone would be 44.6 MiB more
    for cell, delta in (((0, 1, 2), 1.0), ((140, 3, 77), 2.0**-60), ((5, 5, 5), 1j)):
        bad = sl12.structure.copy()
        bad[cell] += delta
        with pytest.raises(InputError, match="antisymmetric"):
            gtlie.LieAlgebra(basis_names=sl12.basis_names, structure=bad)


# ---------------------------------------------------------------------------
# One store: the algebra is its entries, the dense tensor a view on request
# ---------------------------------------------------------------------------


def test_the_sl16_chain_stays_in_a_small_memory_bound():
    # the dense (k, k, k) tensor of sl(16) alone is 265 MiB; sl_algebra formed it at a 285 MiB peak
    from gtlie.contraction import contract_algebra, enumerate_binary_epsilon

    tracemalloc.start()
    try:
        sl16 = gtlie.sl_algebra(16)
        gamma = gtlie.grading_from_automorphism(sl16, gtlie.auto_inner(16, 8))
        report = gtlie.verify_grading(sl16, gamma)
        calg = contract_algebra(sl16, gamma, enumerate_binary_epsilon(AbelianGroup((2,)))[3])
        jacobi = gtlie.check_jacobi(calg.result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and calg.jacobi.ok and jacobi.ok and jacobi.max_residual == 0.0
    assert peak < 16 << 20
    assert "structure" not in vars(sl16) and "structure" not in vars(calg.result)


def test_a_repeated_constant_is_refused_though_its_mirror_is_repeated_too():
    # [E_12, E_21] = H_1 written from both orders of the pair: each place twice, with its exact negative
    # at the mirror each time, so the two copies pass an antisymmetry check and double the constant
    sl2 = gtlie.sl_algebra(2)
    e = sl2.ad
    pair = e.rows == 2  # c[0, 1, 2] = 1 and c[1, 0, 2] = -1
    twice = Entries.sort(3, *(np.concatenate((x, x[pair])) for x in (e.gids, e.rows, e.cols, e.vals)))
    with pytest.raises(InputError, match=r"\(0, 1, 2\) is given twice"):
        gtlie.LieAlgebra(basis_names=sl2.basis_names, structure=twice)


def test_the_dense_view_past_the_budget_is_refused_before_it_is_formed(monkeypatch):
    from gtlie import linalg

    sl6 = gtlie.sl_algebra(6)
    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", 35**3 * 16 - 1)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="budget"):
            sl6.structure
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 35**3 * 16 // 4 and "structure" not in vars(sl6)
    monkeypatch.setattr(linalg, "MEMORY_BUDGET_BYTES", 35**3 * 16)
    assert sl6.structure.shape == (35, 35, 35) and not sl6.structure.flags.writeable
    assert gtlie.bracket(np.eye(35)[0], np.eye(35)[17], sl6).tolist() == sl6.structure[0, 17].tolist()


def test_a_grading_with_no_part_fails_its_direct_sum_check():
    sl3 = gtlie.sl_algebra(3)
    report = gtlie.verify_grading(sl3, gtlie.Grading(group=AbelianGroup((2,)), parts={}))
    assert (report.ok, report.violations, report.checked) == (False, (("direct_sum", 0, 0, np.inf),), 0)
