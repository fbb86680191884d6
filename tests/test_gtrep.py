import itertools
from fractions import Fraction

import numpy as np
import pytest

from gtlie.errors import InputError
from gtlie.gtrep import (
    GTPattern,
    HighestWeight,
    Radicand,
    act_diagonal,
    act_lowering,
    act_raising,
    build_representation,
    enumerate_patterns,
    row_sum,
    verify_commutation,
    verify_sl_trace,
    verify_transpose,
    weyl_dim,
)


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
