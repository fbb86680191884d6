import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtlie.autos import doubled_rep
from gtlie.errors import InputError
from gtlie.gtrep import (
    GENERATOR_BUDGET_BYTES,
    GeneratorRep,
    GTPattern,
    HighestWeight,
    act_diagonal,
    build_representation,
    enumerate_patterns,
    row_sum,
    verify_commutation,
    verify_sl_trace,
    verify_transpose,
    weyl_dim,
)
from oracles import Radicand, act_lowering, act_raising, per_label_sl_matrices, per_pattern_generators


def pat(*rows):
    return GTPattern(tuple(tuple(r) for r in rows))


P_HIGH = pat((2, 1, 0), (2, 1), (2,))  # highest pattern of r(2,1,0)


def test_highest_weight_validation():
    HighestWeight(3, (2, 1, 0))
    with pytest.raises(InputError):
        HighestWeight(3, (2, 1))  # wrong length
    with pytest.raises(InputError):
        HighestWeight(2, (1, 1))  # last entry not 0
    with pytest.raises(InputError):
        HighestWeight(3, (1, 2, 0))  # not decreasing
    with pytest.raises(InputError):
        HighestWeight(3, (-1, -1, 0))


def test_enumerate_small_weights():
    pats = enumerate_patterns(HighestWeight(3, (1, 0, 0)))
    assert [p.flatten() for p in pats] == [
        (1, 0, 0, 1, 0, 1),
        (1, 0, 0, 1, 0, 0),
        (1, 0, 0, 0, 0, 0),
    ]
    assert len(enumerate_patterns(HighestWeight(3, (0, 0, 0)))) == 1
    assert len(enumerate_patterns(HighestWeight(3, (2, 1, 0)))) == 8


def test_enumeration_is_descending_lex_and_unique():
    pats = enumerate_patterns(HighestWeight(3, (3, 1, 0)))
    flats = [p.flatten() for p in pats]
    assert flats == sorted(flats, reverse=True)
    assert len(set(flats)) == len(flats)
    assert all(p.is_valid() for p in pats)


def test_weyl_dim_values():
    assert weyl_dim(HighestWeight(3, (2, 1, 0))) == 8
    assert weyl_dim(HighestWeight(4, (0, 0, 0, 0))) == 1
    assert weyl_dim(HighestWeight(4, (1, 0, 0, 0))) == 4
    assert len(enumerate_patterns(HighestWeight(4, (1, 0, 0, 0)))) == 4


def test_pattern_count_matches_weyl_sweep():
    # entries <= 4 across n = 2, 3 here; the full n <= 4 sweep runs in acceptance
    for n in (2, 3):
        for m in itertools.product(range(5), repeat=n - 1):
            if any(m[i] < m[i + 1] for i in range(len(m) - 1)):
                continue
            hw = HighestWeight(n, tuple(m) + (0,))
            assert len(enumerate_patterns(hw)) == weyl_dim(hw)


def test_row_sums():
    assert row_sum(P_HIGH, 1) == 2
    assert row_sum(P_HIGH, 2) == 3
    assert row_sum(P_HIGH, 3) == 3
    assert row_sum(P_HIGH, 0) == 0
    zero = pat((0, 0, 0), (0, 0), (0,))
    assert all(row_sum(zero, k) == 0 for k in range(4))
    with pytest.raises(InputError):
        row_sum(P_HIGH, 4)


def test_act_diagonal():
    top = pat((1, 0, 0), (1, 0), (1,))
    assert [act_diagonal(top, k) for k in (1, 2, 3)] == [1, 0, 0]
    assert act_diagonal(P_HIGH, 3) == 0  # r3 - r2 = 3 - 3
    zero = pat((0, 0, 0), (0, 0), (0,))
    assert all(act_diagonal(zero, k) == 0 for k in (1, 2, 3))


def test_act_lowering_defining_rep():
    zero = pat((0, 0, 0), (0, 0), (0,))
    assert act_lowering(zero, 2) == [] and act_lowering(zero, 3) == []
    top = pat((1, 0, 0), (1, 0), (1,))
    terms = act_lowering(top, 2)
    assert len(terms) == 1
    target, rad = terms[0]
    assert target == pat((1, 0, 0), (1, 0), (0,))
    assert rad.sign == 1 and rad.value == 1


def test_act_raising_defining_rep():
    source = pat((1, 0, 0), (1, 0), (0,))
    terms = act_raising(source, 2)
    assert len(terms) == 1
    target, rad = terms[0]
    assert target == pat((1, 0, 0), (1, 0), (1,))
    assert rad.sign == 1 and rad.value == 1


def test_raise_lower_reproduces_cartan_eigenvalue():
    # on the extremal pattern E12 E21 xi = (E11 - E22 + E21 E12) xi = (r1 - (r2 - r1)) xi
    for hw in (HighestWeight(3, (2, 1, 0)), HighestWeight(3, (3, 1, 0))):
        top = enumerate_patterns(hw)[0]
        down = act_lowering(top, 2)
        acc = Fraction(0)
        for target, rad in down:
            back = act_raising(target, 2)
            for t2, rad2 in back:
                if t2 == top:
                    acc += rad.value  # coefficients coincide on mirrored moves
                    assert rad2.value == rad.value
        assert acc == act_diagonal(top, 1) - act_diagonal(top, 2)


def test_radicands_rational_and_printable():
    rep_pats = enumerate_patterns(HighestWeight(3, (2, 1, 0)))
    for p in rep_pats:
        for k in (2, 3):
            for _, rad in act_lowering(p, k) + act_raising(p, k):
                assert rad.value >= 0
                assert isinstance(rad.value, Fraction)
                assert Radicand.parse(str(rad)) == rad


def test_negative_radicand_guard():
    with pytest.raises(ArithmeticError):
        Radicand(1, Fraction(-1))


def test_skipped_move_with_nonzero_numerator_raises():
    # lowering 3 -> 2 under the top row (1, 0) leaves the betweenness range,
    # but on this invalid source the coefficient's numerator is 3, not 0
    with pytest.raises(ArithmeticError, match="nonzero numerator"):
        act_lowering(pat((1, 0), (3,)), 2)


def test_build_defining_rep_elementary_matrices():
    rep = build_representation(HighestWeight(3, (1, 0, 0)))
    for k in range(1, 4):
        for l in range(1, 4):
            if k == l:
                continue
            expected = np.zeros((3, 3))
            expected[k - 1, l - 1] = 1
            assert np.array_equal(rep.gen[(k, l)], expected)
    # diagonal generators carry the traceless shift by 1/3
    assert np.allclose(np.diag(rep.gen[(1, 1)]), [2 / 3, -1 / 3, -1 / 3])


def test_build_trivial_rep():
    rep = build_representation(HighestWeight(3, (0, 0, 0)))
    assert rep.dim == 1
    assert all(np.abs(m).max() == 0 for m in rep.gen.values())


@pytest.mark.parametrize(
    "n,weight",
    [
        (2, (1, 0)),
        (3, (1, 0, 0)),
        (3, (1, 1, 0)),
        (3, (2, 1, 0)),
        (3, (3, 1, 0)),
        (4, (1, 0, 0, 0)),
        (4, (1, 1, 0, 0)),
    ],
)
def test_representation_invariants(n, weight):
    rep = build_representation(HighestWeight(n, weight))
    assert verify_commutation(rep).max_residual <= 1e-9
    assert verify_transpose(rep) <= 1e-12
    assert verify_sl_trace(rep) <= 1e-12
    assert rep.dim == weyl_dim(rep.hw)


def test_long_range_generators_bracketing_independent():
    # E_{1,4} via the stored recursion vs the alternative split [E12, E24]
    rep = build_representation(HighestWeight(4, (2, 1, 1, 0)))
    alt = rep.gen[(1, 2)] @ rep.gen[(2, 4)] - rep.gen[(2, 4)] @ rep.gen[(1, 2)]
    assert np.abs(alt - rep.gen[(1, 4)]).max() <= 1e-12
    alt_low = rep.gen[(4, 3)] @ rep.gen[(3, 1)] - rep.gen[(3, 1)] @ rep.gen[(4, 3)]
    assert np.abs(alt_low - rep.gen[(4, 1)]).max() <= 1e-12


def test_transpose_symmetry_exact_for_neighbor_generators():
    rep = build_representation(HighestWeight(3, (2, 1, 0)))
    assert np.array_equal(rep.gen[(2, 1)].T, rep.gen[(1, 2)])
    assert np.array_equal(rep.gen[(3, 2)].T, rep.gen[(2, 3)])


# -- commutation kernel against the dense oracle ------------------------------


def dense_commutation_residual(rep, relation=None):
    """Reference: max |[A, B] - expected| over the n^4 gl relations (or one
    relation ((a, b), (c, e))), each by two dense d x d matmuls."""
    n, d = rep.n, rep.dim
    labels = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    pairs = [relation] if relation else itertools.product(labels, labels)
    worst = 0.0
    for (a, b), (c, e) in pairs:
        mab, mce = rep.gen[(a, b)], rep.gen[(c, e)]
        expected = np.zeros((d, d))
        if b == c:
            expected = expected + rep.gen[(a, e)]
        if e == a:
            expected = expected - rep.gen[(c, b)]
        worst = max(worst, float(np.abs(mab @ mce - mce @ mab - expected).max()))
    return worst


# every weight with n <= 4 and entries <= 3
SMALL_WEIGHTS = [
    HighestWeight(n, m + (0,))
    for n in (2, 3, 4)
    for m in itertools.product(range(3, -1, -1), repeat=n - 1)
    if list(m) == sorted(m, reverse=True)
]


@settings(max_examples=100)
@given(st.sampled_from(SMALL_WEIGHTS))
def test_commutation_kernel_matches_dense_oracle(hw):
    for rep in (build_representation(hw), doubled_rep(hw)[0]):
        report = verify_commutation(rep, 1e-9)
        oracle = dense_commutation_residual(rep)
        assert report.ok == (oracle <= 1e-9)
        assert abs(report.max_residual - oracle) <= 1e-12
        assert report.checked == rep.n**4 and report.tol == 1e-9


def tampered(rep, label, pos, delta):
    gen = {key: m.copy() for key, m in rep.gen.items()}
    gen[label][pos] += delta
    return GeneratorRep(rep.n, gen)


@pytest.mark.parametrize(
    "label, pos, structural",
    [((1, 2), (0, 63), True), ((1, 3), (7, 40), True), ((2, 1), (1, 0), False), ((2, 2), (9, 9), False)],
)
def test_commutation_catches_a_single_tampered_entry(label, pos, structural):
    rep = build_representation(HighestWeight(3, (6, 3, 0)))
    assert (rep.gen[label][pos] == 0) == structural
    bad = tampered(rep, label, pos, 1e-6)
    report = verify_commutation(bad)
    assert not report.ok
    assert report.max_residual == pytest.approx(dense_commutation_residual(bad), abs=1e-12)
    # worst_at names the relation that attains the residual
    assert dense_commutation_residual(bad, report.worst_at) == pytest.approx(report.max_residual, abs=1e-12)


def test_commutation_holds_in_a_dense_orthogonal_basis():
    rep = build_representation(HighestWeight(3, (6, 3, 0)))
    q, _ = np.linalg.qr(np.random.default_rng(11).standard_normal((rep.dim, rep.dim)))
    conjugated = GeneratorRep(3, {key: q.T @ m @ q for key, m in rep.gen.items()})
    assert min(np.count_nonzero(m) for m in conjugated.gen.values()) > rep.dim**2 // 2
    report = verify_commutation(conjugated)
    assert report.ok
    assert report.max_residual == pytest.approx(dense_commutation_residual(conjugated), abs=1e-12)


@pytest.mark.parametrize("label, pos", [((1, 2), (200, 210)), ((2, 1), (210, 200)), ((1, 1), (150, 215))])
def test_transpose_and_trace_checks_see_every_row_slice(label, pos):
    rep = build_representation(HighestWeight(3, (10, 5, 0)))  # d = 216: four slices of 64 rows
    bad = tampered(rep, label, pos, 1e-3)
    assert verify_transpose(bad) == pytest.approx(1e-3, abs=1e-12)
    assert verify_sl_trace(bad) == pytest.approx(1e-3 if label == (1, 1) else 0.0, abs=1e-12)
    assert verify_transpose(tampered(rep, label, pos, np.nan)) == float("inf")


def test_commutation_fails_closed_on_nan():
    rep = build_representation(HighestWeight(3, (2, 1, 0)))
    report = verify_commutation(tampered(rep, (1, 3), (0, 1), np.nan))
    assert not report.ok and report.max_residual == float("inf")


def test_build_refuses_an_oversized_irrep_up_front():
    big = HighestWeight(3, (40, 20, 0))  # d = 9261: 9 dense generators need 5.75 GiB
    doubled_only = HighestWeight(3, (26, 13, 0))  # d = 2744 builds; doubled needs 2.02 GiB
    assert 72 * weyl_dim(big) ** 2 > GENERATOR_BUDGET_BYTES
    assert 72 * weyl_dim(doubled_only) ** 2 <= GENERATOR_BUDGET_BYTES < 72 * (2 * weyl_dim(doubled_only)) ** 2
    far = HighestWeight(3, (400, 200, 0))  # d = 8.1 million: patterns and entries need 3.5 GiB
    tracemalloc.start()
    try:
        for refused in (lambda: build_representation(far), lambda: doubled_rep(big), lambda: doubled_rep(doubled_only)):
            with pytest.raises(InputError, match="budget"):
                refused()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# -- entry storage against the per-pattern builder ----------------------------

LADDER_WEIGHTS = [HighestWeight(len(m), m) for m in ((10, 5, 0), (14, 7, 0), (20, 10, 0), (6, 3, 1, 0), (4, 3, 1, 0))]


def assert_bit_identical(hw):
    rep = build_representation(hw)
    oracle = per_pattern_generators(hw)
    assert rep.patterns == tuple(enumerate_patterns(hw)) and list(rep.gen) == list(oracle)
    for label, m in oracle.items():
        assert rep.gen[label].dtype == m.dtype and rep.gen[label].tobytes() == m.tobytes(), label


@settings(max_examples=100)
@given(st.sampled_from(SMALL_WEIGHTS))
def test_densified_generators_are_bit_identical_to_the_per_pattern_builder(hw):
    assert_bit_identical(hw)


@pytest.mark.parametrize("hw", LADDER_WEIGHTS, ids=str)
def test_ladder_generators_are_bit_identical_to_the_per_pattern_builder(hw):
    assert_bit_identical(hw)


@pytest.mark.parametrize("m", [(2, 1) + (0,) * 7, (1,) + (0,) * 9], ids=str)
def test_python_int_radicands_and_keys_are_bit_identical(m):
    # (m_1 + n)^(2n-2) >= 2^53 takes the radicands to Python ints, and for
    # sl(10) the mixed-radix pattern keys pass 2^63 too
    hw = HighestWeight(len(m), m)
    assert (hw.m[0] + hw.n) ** (2 * hw.n - 2) >= 2**53
    assert_bit_identical(hw)


def test_the_entry_bound_admits_what_the_dense_budget_admitted():
    hw = HighestWeight(8, (6,) + (0,) * 7)  # d = 1716: 1.4 GiB dense, under the 2 GiB budget
    assert 8 * 64 * weyl_dim(hw) ** 2 <= GENERATOR_BUDGET_BYTES
    rep = build_representation(hw)
    assert verify_commutation(rep).ok and verify_transpose(rep) == 0.0 and verify_sl_trace(rep) <= 1e-12


def test_dense_view_is_read_only_and_every_tamper_still_fails_closed():
    rep = build_representation(HighestWeight(3, (2, 1, 0)))
    before = rep.gen[(1, 2)].copy()
    with pytest.raises(ValueError):
        rep.gen[(1, 2)][0, 0] = 5.0
    with pytest.raises(TypeError):
        rep.gen[(1, 2)] = np.zeros((8, 8))
    assert np.array_equal(rep.gen[(1, 2)], before) and verify_commutation(rep).ok
    # a structural zero and a stored entry of off-diagonal and diagonal generators
    for label in ((1, 2), (1, 3), (2, 1), (3, 3)):
        m = rep.gen[label]
        for pos in (tuple(np.argwhere(m == 0)[0]), tuple(np.argwhere(m != 0)[0])):
            bad = tampered(rep, label, pos, 1e-6)
            assert bad.gen[label][pos] == m[pos] + 1e-6
            assert not verify_commutation(bad).ok
            assert max(verify_transpose(bad), verify_sl_trace(bad)) == pytest.approx(1e-6, abs=1e-12)


def test_the_sl_stack_is_the_per_label_densifier_byte_for_byte():
    for hw in SMALL_WEIGHTS:
        for rep in (build_representation(hw), doubled_rep(hw)[0]):
            want, got = np.array(per_label_sl_matrices(rep)), rep.sl_stack
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes(), hw
            assert rep.sl_stack is got and not got.flags.writeable


def test_every_stored_entry_array_is_read_only():
    hw = HighestWeight(3, (2, 1, 0))
    built = build_representation(hw)
    for rep in (built, GeneratorRep(3, dict(built.gen)), doubled_rep(hw)[0]):
        for field in ("rows", "cols", "vals", "gids", "starts"):
            with pytest.raises(ValueError):
                getattr(rep.entries, field)[0] = 1
        for derived in rep.sl_entries:
            with pytest.raises(ValueError):
                derived[0] = 1


def test_generators_must_cover_every_label_with_one_shape():
    rep = build_representation(HighestWeight(3, (1, 0, 0)))
    gen = dict(rep.gen)
    with pytest.raises(InputError, match="labels"):
        GeneratorRep(3, {key: m for key, m in gen.items() if key != (3, 1)})
    with pytest.raises(InputError, match="shape"):
        GeneratorRep(3, {**gen, (3, 1): np.zeros((3, 4))})


def test_a_sparse_irrep_past_the_dense_budget_builds_and_verifies():
    hw = HighestWeight(3, (40, 20, 0))  # d = 9261: 5.75 GiB dense, a few MiB of entries
    tracemalloc.start()
    try:
        rep = build_representation(hw)
        assert rep.dim == 9261 == len(rep.patterns)
        assert verify_commutation(rep).ok
        assert verify_transpose(rep) <= 1e-12 and verify_sl_trace(rep) <= 1e-9
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(InputError, match="budget"):
            rep.gen[(1, 2)]
        dense_peak = tracemalloc.get_traced_memory()[1] - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    assert dense_peak < 1 << 20

