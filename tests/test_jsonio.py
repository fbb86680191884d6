import json

import numpy as np
import pytest

import gtlie
from gtlie import jsonio
from gtlie.errors import InputError
from gtlie.groups import AbelianGroup
from gtlie.gtrep import HighestWeight, build_representation


def test_algebra_roundtrip():
    a = gtlie.sl_algebra(3)
    payload = jsonio.algebra_to_json(a)
    back = jsonio.algebra_from_json(json.loads(jsonio.canonical_dumps(payload)))
    assert back.basis_names == a.basis_names
    assert np.array_equal(back.structure, a.structure)


def test_algebra_json_rejects_garbage():
    with pytest.raises(InputError):
        jsonio.algebra_from_json({"dim": 2, "basis": ["x"], "constants": []})
    with pytest.raises(InputError):
        jsonio.algebra_from_json({"dim": "two"})


@pytest.mark.parametrize("index", [8, -1])
def test_algebra_json_refuses_an_index_outside_the_basis(index):
    # 8 used to raise IndexError; -1 wrapped around to l = dim - 1
    payload = jsonio.algebra_to_json(gtlie.sl_algebra(3))
    next(c for c in payload["constants"] if c[2] == 7)[2] = index
    with pytest.raises(InputError, match="outside"):
        jsonio.algebra_from_json(payload)


def test_algebra_json_refuses_a_repeated_constant():
    # a second [0, 1, 2, 5, 0] with its mirror used to overwrite c[0, 1, 2] = 1 with 5
    payload = jsonio.algebra_to_json(gtlie.sl_algebra(2))
    payload["constants"] += [[0, 1, 2, 5.0, 0.0], [1, 0, 2, -5.0, 0.0]]
    with pytest.raises(InputError, match=r"\(0, 1, 2\) is given twice"):
        jsonio.algebra_from_json(payload)


def test_algebra_json_constants_come_in_index_order():
    a = gtlie.sl_algebra(3)
    constants = jsonio.algebra_to_json(a)["constants"]
    i, j, l = np.nonzero(a.structure)  # row-major: (i, j, l) order
    assert [c[:3] for c in constants] == np.column_stack([i, j, l]).tolist()
    assert [complex(*c[3:]) for c in constants] == a.structure[i, j, l].tolist()


def test_grading_roundtrip_and_hash_stability():
    sl3 = gtlie.sl_algebra(3)
    gamma = gtlie.grading_from_automorphism(sl3, gtlie.auto_outer(3))
    payload = jsonio.grading_to_json(gamma)
    back = jsonio.grading_from_json(json.loads(jsonio.canonical_dumps(payload)))
    assert back.group.orders == gamma.group.orders
    for lab in gamma.parts:
        assert np.array_equal(back.parts[lab], gamma.parts[lab])
    assert jsonio.grading_sha256(gamma) == jsonio.grading_sha256(back)


def test_rep_roundtrip_bitexact():
    rep = build_representation(HighestWeight(3, (2, 1, 0)))
    payload = jsonio.rep_to_json(rep)
    text = jsonio.canonical_dumps(payload)
    back = jsonio.rep_from_json(json.loads(text))
    assert back.hw == rep.hw
    assert back.patterns == rep.patterns
    for key in rep.gen:
        assert np.array_equal(back.gen[key], rep.gen[key])
    assert jsonio.canonical_dumps(jsonio.rep_to_json(back)) == text


def test_simulation_roundtrips():
    hw = HighestWeight(3, (2, 1, 0))
    for sim in (gtlie.simulation_inner(hw, 3, 1), gtlie.J_matrix(hw)):
        back = jsonio.simulation_from_json(json.loads(jsonio.canonical_dumps(jsonio.simulation_to_json(sim))))
        assert back.kind == sim.kind and back.order == sim.order
        assert np.array_equal(back.matrix, sim.matrix)
    dense = gtlie.SimulationMatrix(order=2, kind="dense", dense=np.eye(2, dtype=complex))
    back = jsonio.simulation_from_json(jsonio.simulation_to_json(dense))
    assert np.array_equal(back.matrix, dense.matrix)
    with pytest.raises(InputError):
        jsonio.simulation_from_json({"kind": "mystery", "order": 2, "dim": 2})


def test_table_roundtrip():
    z2 = AbelianGroup((2,))
    eps = gtlie.epsilon_from_rows(z2, [[1, 1], [1, 0]])
    back = jsonio.epsilon_from_json(json.loads(jsonio.canonical_dumps(jsonio.table_to_json(eps))))
    assert back.as_tuple() == eps.as_tuple()
    psi = gtlie.psi_from_rows(z2, [[1, 1], [0, 1]])
    back = jsonio.psi_from_json(jsonio.table_to_json(psi))
    assert back.as_tuple() == psi.as_tuple()


def test_table_json_refuses_a_zero_denominator():
    payload = jsonio.table_to_json(gtlie.epsilon_from_rows(AbelianGroup((2,)), [[1, 1], [1, 0]]))
    payload["values"][3][3] = 0
    with pytest.raises(InputError):
        jsonio.epsilon_from_json(payload)


def test_contracted_algebra_provenance():
    sl3 = gtlie.sl_algebra(3)
    gamma1 = gtlie.grading_from_automorphism(sl3, gtlie.auto_inner(3, 1))
    eps = gtlie.epsilon_from_rows(AbelianGroup((2,)), [[0, 0], [0, 1]])
    calg = gtlie.contract_algebra(sl3, gamma1, eps)
    payload = jsonio.contracted_algebra_to_json(calg)
    assert payload["contraction"]["grading_sha256"] == jsonio.grading_sha256(gamma1)
    assert payload["contraction"]["group"] == [2]
    back = jsonio.algebra_from_json(payload)
    assert gtlie.check_jacobi(back).ok


def test_canonical_dumps_deterministic():
    rep = build_representation(HighestWeight(3, (1, 1, 0)))
    a = jsonio.canonical_dumps(jsonio.rep_to_json(rep))
    b = jsonio.canonical_dumps(jsonio.rep_to_json(build_representation(HighestWeight(3, (1, 1, 0)))))
    assert a == b


@pytest.mark.parametrize(
    "change",
    [
        {"perm": [0, 0]},
        {"perm": [0, 2]},
        {"perm": [1.7, 0.2]},
        {"signs": [[1.0, 0.0]]},
        {"signs": [[1.0, 0.0], [0.0, 0.0]]},
        {"signs": [[1.0, 0.0], [float("nan"), 0.0]]},
        {"order": 0},
        {"order": 2.5},
        {"kind": "diagonal", "phases_pi": [[0, 1], [1, 0]]},
        {"kind": "dense", "matrix": [[[1.0, 0.0], [0.0, 0.0]]]},
        {"kind": "dense", "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [float("inf"), 0.0]]]},
    ],
    ids=["repeated", "index d", "fractional perm", "short signs", "zero sign", "nan sign", "order 0", "order 2.5",
         "zero denominator",
         "not square", "inf entry"],
)
def test_simulation_json_refuses_malformed_fields(change):
    payload = {"dim": 2, "order": 2, "kind": "signed_permutation", "perm": [1, 0], "signs": [[1.0, 0.0], [1.0, 0.0]]}
    assert jsonio.simulation_from_json(payload).dim == 2
    with pytest.raises(InputError):
        jsonio.simulation_from_json({**payload, **change})


REP = jsonio.rep_to_json(build_representation(HighestWeight(3, (2, 1, 0))))
ALGEBRA = jsonio.algebra_to_json(gtlie.sl_algebra(3))
GRADING = jsonio.grading_to_json(gtlie.grading_from_automorphism(gtlie.sl_algebra(3), gtlie.auto_inner(3, 1)))
PHASES = jsonio.simulation_to_json(gtlie.simulation_inner(HighestWeight(3, (1, 0, 0)), 3, 1))
EPS = jsonio.table_to_json(gtlie.epsilon_from_rows(AbelianGroup((2,)), [[1, 1], [1, 1]]))
PSI = jsonio.table_to_json(gtlie.psi_from_rows(AbelianGroup((2,)), [[1, 1], [1, 1]]))


@pytest.mark.parametrize(
    "reader, payload, edit",
    [
        (jsonio.rep_from_json, REP, lambda p: p.update(n=3.2)),
        (jsonio.rep_from_json, REP, lambda p: p.update(n=3.0)),
        (jsonio.rep_from_json, REP, lambda p: p.update(highest_weight=[2.9, 1, 0])),
        (jsonio.rep_from_json, REP, lambda p: p.update(dim=8.0)),
        (jsonio.rep_from_json, REP, lambda p: p["basis"][0].__setitem__(0, 2.5)),
        (jsonio.rep_from_json, REP, lambda p: p["basis"][0].__setitem__(0, True)),
        (jsonio.algebra_from_json, ALGEBRA, lambda p: p.update(dim=8.5)),
        (jsonio.algebra_from_json, ALGEBRA, lambda p: p["constants"][0].__setitem__(2, p["constants"][0][2] + 0.7)),
        (jsonio.grading_from_json, GRADING, lambda p: p.update(group=[2.9])),
        (jsonio.simulation_from_json, PHASES, lambda p: p["phases_pi"][0].__setitem__(0, 0.9)),
        (jsonio.epsilon_from_json, EPS, lambda p: p["values"][0].__setitem__(2, 0.5)),
        (jsonio.epsilon_from_json, EPS, lambda p: p["values"][1][1].__setitem__(0, 1.5)),
        (jsonio.psi_from_json, PSI, lambda p: p.update(group=[2.0])),
    ],
    ids=["rep n", "rep n 3.0", "rep weight", "rep dim", "rep basis", "rep basis bool", "algebra dim",
         "algebra index", "grading order", "diagonal phase", "eps numerator", "eps label", "psi order"],
)
def test_every_json_integer_is_read_strictly(reader, payload, edit):
    # int() truncated each of these: 2.9 read as 2, 0.5 as 0
    reader(json.loads(json.dumps(payload)))
    bad = json.loads(json.dumps(payload))
    edit(bad)
    with pytest.raises(InputError):
        reader(bad)
