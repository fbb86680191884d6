import json

import pytest

from gtlie import algebra as algebra_module
from gtlie import contraction, jsonio
from gtlie.algebra import sl_algebra
from gtlie.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_rep_build_reports_dimension(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code, text = run(capsys, "rep", "build", "-n", "3", "-w", "2,1,0", "--out", str(out))
    assert code == 0
    assert "dim 8" in text
    payload = json.loads(out.read_text())
    assert payload["dim"] == 8 and payload["highest_weight"] == [2, 1, 0]


def test_rep_build_trivial_and_n4(capsys):
    code, text = run(capsys, "rep", "build", "-n", "3", "-w", "0,0,0")
    assert code == 0 and "dim 1" in text
    code, text = run(capsys, "rep", "build", "-n", "4", "-w", "1,0,0,0")
    assert code == 0 and "dim 4" in text


def test_rep_build_invalid_weight_exit_2(capsys):
    assert main(["rep", "build", "-n", "3", "-w", "1,2,0"]) == 2
    assert main(["rep", "build", "-n", "3", "-w", "1,0"]) == 2
    assert main(["rep", "build", "-n", "3", "-w", "1,0,x"]) == 2


def test_rep_check_roundtrip(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["rep", "build", "-n", "3", "-w", "1,1,0", "--out", str(out)]) == 0
    code, text = run(capsys, "rep", "check", str(out))
    assert code == 0 and "OK" in text


def _spoil(payload, how):
    gens = payload["generators"]
    if how == "nan":
        gens["1,3"][0][1] = float("nan")
    elif how == "inf":
        gens["2,2"][3][3] = float("inf")
    elif how == "not square":
        gens["2,1"] = [row[:-1] for row in gens["2,1"]]
    elif how == "wrong size":
        gens["1,2"] = [row + [0.0] for row in gens["1,2"]] + [[0.0] * 9]
    elif how == "missing key":
        del gens["3,1"]
    elif how == "extra key":
        gens["4,1"] = gens["3,1"]
    elif how == "repeated label":
        gens["01,1"] = gens["1,1"]


@pytest.mark.parametrize(
    "how", ["nan", "inf", "not square", "wrong size", "missing key", "extra key", "repeated label"]
)
def test_rep_check_refuses_a_malformed_generator_set(tmp_path, capsys, how):
    out = tmp_path / "rep.json"
    assert main(["rep", "build", "-n", "3", "-w", "2,1,0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    _spoil(payload, how)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))  # NaN / Infinity literals, as Python writes them
    assert main(["rep", "check", str(bad)]) == 2


def test_rep_check_refuses_non_integral_numbers_it_used_to_truncate(tmp_path, capsys):
    # int() read n 3.2, weight 2.9 and basis entry 2.5 as 3, 2 and 2: OK, exit 0
    out = tmp_path / "rep.json"
    assert main(["rep", "build", "-n", "3", "-w", "2,1,0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    payload["n"], payload["highest_weight"] = 3.2, [2.9, 1, 0]
    payload["basis"][0][3] += 0.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["rep", "check", str(bad)]) == 2
    assert "not an integer" in capsys.readouterr().err


def _spoil_basis(basis, how):
    # r(2,1,0): basis[-1] is the lowest pattern 2 1 0/1 0/0
    if how == "swapped rows":
        basis[1], basis[2] = basis[2], basis[1]
    elif how == "betweenness":
        basis[-1][-1] = 2  # the bottom entry must lie between 1 and 0
    elif how == "short row":
        basis[3] = basis[3][:-1]
    elif how == "long rows":
        basis[:] = [row + [0] for row in basis]
    elif how == "past int64":
        basis[0][0] = 2**70


@pytest.mark.parametrize(
    "how, code, err",
    [
        ("swapped rows", 1, ""),
        ("betweenness", 1, ""),
        ("short row", 2, "malformed"),
        ("long rows", 2, "6 entries"),
        ("past int64", 2, "malformed"),
    ],
)
def test_rep_check_sees_a_tampered_basis(tmp_path, capsys, how, code, err):
    out = tmp_path / "rep.json"
    assert run(capsys, "rep", "build", "-n", "3", "-w", "2,1,0", "--out", str(out))[0] == 0
    payload = json.loads(out.read_text())
    _spoil_basis(payload["basis"], how)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["rep", "check", str(bad), "--format", "json"]) == code
    captured = capsys.readouterr()
    assert err in captured.err
    if code == 1:
        # the generators are untouched: only the basis order check fails
        report = json.loads(captured.out)
        assert not report["ok"] and not report["basis_order_ok"]
        assert report["commutator_residual"] <= 1e-9 and report["sl_trace_residual"] <= 1e-9


def test_rep_check_sees_a_scalar_shift_of_the_diagonal_generators(tmp_path, capsys):
    # 5 Id added to every r(E_kk) passes every commutation relation and the
    # transpose check; only the sl trace sum_k r(E_kk) = 0 catches it.
    out = tmp_path / "rep.json"
    assert run(capsys, "rep", "build", "-n", "3", "-w", "2,1,0", "--out", str(out))[0] == 0
    payload = json.loads(out.read_text())
    for k in (1, 2, 3):
        gen = payload["generators"][f"{k},{k}"]
        for i in range(len(gen)):
            gen[i][i] += 5.0
    bad = tmp_path / "shifted.json"
    bad.write_text(json.dumps(payload))
    code, text = run(capsys, "rep", "check", str(bad), "--format", "json")
    report = json.loads(text)
    assert code == 1 and not report["ok"]
    assert report["sl_trace_residual"] == 15.0
    assert report["commutator_residual"] <= 1e-9 and report["transpose_residual"] == 0.0


def test_rep_build_refuses_an_oversized_irrep(capsys):
    assert main(["rep", "build", "-n", "3", "-w", "40,20,0"]) == 2
    out, err = capsys.readouterr()
    assert not out and "refused before it is built or verified: 9 dense generators" in err and "budget" in err


def test_grading_from_auto_dims(tmp_path, capsys):
    g1 = tmp_path / "g1.json"
    code, text = run(capsys, "grading", "from-auto", "--inner", "3,1", "--out", str(g1))
    assert code == 0 and "L_0=4" in text and "L_1=4" in text
    g2 = tmp_path / "g2.json"
    code, text = run(capsys, "grading", "from-auto", "--outer", "3", "--out", str(g2))
    assert code == 0 and "L_0=3" in text and "L_1=5" in text


def test_grading_verify_and_corruption(tmp_path, capsys):
    path = tmp_path / "g1.json"
    assert main(["grading", "from-auto", "--inner", "3,1", "--out", str(path)]) == 0
    assert main(["grading", "verify", str(path), "--sl", "3"]) == 0

    payload = json.loads(path.read_text())
    # move one vector across parts: closure breaks
    payload["parts"]["0"] = payload["parts"]["0"][:-1]
    payload["parts"]["1"] = payload["parts"]["1"] + [json.loads(path.read_text())["parts"]["0"][-1]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["grading", "verify", str(bad), "--sl", "3"]) == 1


def test_a_nan_grading_part_prints_a_failing_report(tmp_path, capsys):
    # a NaN part has no thin SVD: the check reports it as an infinite residual instead of raising
    path, rep = tmp_path / "g1.json", tmp_path / "rep.json"
    assert main(["grading", "from-auto", "--inner", "3,1", "--out", str(path)]) == 0
    assert main(["rep", "build", "-n", "3", "-w", "2,1,0", "--out", str(rep)]) == 0
    payload = json.loads(path.read_text())
    payload["parts"]["0"][0][0] = float("nan")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    code, text = run(capsys, "grading", "verify", str(bad), "--sl", "3")
    assert (code, text.splitlines()) == (1, [f"grading verify {bad}: residual inf", "FAIL"])
    code, text = run(capsys, "--format", "json", "grading", "verify", str(bad), "--sl", "3")
    assert code == 1 and json.loads(text)["violations"] == [["non_finite", "(0,)", "inf"]]
    code, text = run(capsys, "compat", "check", str(rep), str(bad), "--inner", "3,1")
    assert code == 1 and text.splitlines()[-2:] == ["incompatible", "FAIL"]


def test_grading_classify(tmp_path, capsys):
    path = tmp_path / "g2.json"
    assert main(["grading", "from-auto", "--outer", "3", "--out", str(path)]) == 0
    code, text = run(capsys, "grading", "classify", str(path), "--sl", "3")
    assert code == 0 and "Z2Grading" in text


def test_compat_flow(tmp_path, capsys):
    rep210 = tmp_path / "rep210.json"
    rep100 = tmp_path / "rep100.json"
    g1 = tmp_path / "g1.json"
    g2 = tmp_path / "g2.json"
    for argv in (
        ["rep", "build", "-n", "3", "-w", "2,1,0", "--out", str(rep210)],
        ["rep", "build", "-n", "3", "-w", "1,0,0", "--out", str(rep100)],
        ["grading", "from-auto", "--inner", "3,1", "--out", str(g1)],
        ["grading", "from-auto", "--outer", "3", "--out", str(g2)],
    ):
        assert main(argv) == 0
    capsys.readouterr()

    code, text = run(capsys, "compat", "check", str(rep210), str(g1), "--inner", "3,1")
    assert code == 0 and "compatible" in text
    code, text = run(capsys, "compat", "check", str(rep210), str(g2), "--outer", "3")
    assert code == 0 and "signed_permutation" in text
    code, text = run(capsys, "compat", "check", str(rep100), str(g2), "--outer", "3")
    assert code == 1 and "doubled" in text
    code, text = run(capsys, "compat", "check", str(rep100), str(g2), "--outer", "3", "--doubled")
    assert code == 0 and "compatible" in text
    # the outer grading with the inner simulation fails; a NaN or infinite tolerance is refused, not passed
    code, text = run(capsys, "compat", "check", str(rep210), str(g2), "--inner", "3,1")
    assert code == 1 and "incompatible" in text
    for tol in ("nan", "inf"):
        code, _ = run(capsys, "--tol", tol, "compat", "check", str(rep210), str(g2), "--inner", "3,1")
        assert code == 2


def test_contract_solve_counts(capsys):
    code, text = run(capsys, "contract", "solve-eps", "--group", "2")
    assert code == 0 and ": 5" in text
    code, text = run(capsys, "contract", "solve-psi", "--group", "2", "--eps", "1,1,1,0")
    assert code == 0 and ": 6" in text


def test_contract_guard_exit_2(capsys):
    assert main(["contract", "solve-eps", "--group", "2,2,2"]) == 2


def test_a_zero_denominator_is_exit_2(capsys):
    assert main(["contract", "solve-psi", "--group", "2", "--eps", "1/0,1,1,0"]) == 2
    assert "bad table entry '1/0'" in capsys.readouterr().err


@pytest.mark.parametrize("index", [8, -1])
def test_grading_verify_refuses_an_algebra_index_outside_the_basis(tmp_path, capsys, index):
    grading = tmp_path / "g1.json"
    assert main(["grading", "from-auto", "--inner", "3,1", "--out", str(grading)]) == 0
    payload = jsonio.algebra_to_json(sl_algebra(3))
    # a constant at l = dim - 1: -1 used to wrap around to it and pass
    next(c for c in payload["constants"] if c[2] == 7)[2] = index
    algebra = tmp_path / "sl3.json"
    algebra.write_text(json.dumps(payload))
    assert main(["grading", "verify", str(grading), "--algebra", str(algebra)]) == 2


def test_grading_verify_refuses_a_repeated_algebra_constant(tmp_path, capsys):
    grading = tmp_path / "g1.json"
    assert main(["grading", "from-auto", "--inner", "2,1", "--out", str(grading)]) == 0
    payload = jsonio.algebra_to_json(sl_algebra(2))
    payload["constants"] += [[0, 1, 2, 5.0, 0.0], [1, 0, 2, -5.0, 0.0]]
    algebra = tmp_path / "sl2.json"
    algebra.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["grading", "verify", str(grading), "--algebra", str(algebra)]) == 2
    assert "(0, 1, 2) is given twice" in capsys.readouterr().err


def test_contract_apply_identity_and_heisenberg(tmp_path, capsys):
    g1 = tmp_path / "g1.json"
    assert main(["grading", "from-auto", "--inner", "3,1", "--out", str(g1)]) == 0
    out = tmp_path / "contracted.json"
    code, text = run(
        capsys, "contract", "apply", "--sl", "3", "--grading", str(g1), "--eps", "1,1,1,1", "--out", str(out)
    )
    assert code == 0 and "Jacobi residual 0.000e+00" in text
    payload = json.loads(out.read_text())
    assert payload["contraction"]["epsilon"][0] == [[0], [0], 1, 1]
    code, _ = run(
        capsys, "contract", "apply", "--sl", "3", "--grading", str(g1), "--eps", "0,0,0,1"
    )
    assert code == 0


def test_contract_apply_checks_jacobi_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(check):
        return lambda *args: calls.append(args) or check(*args)

    monkeypatch.setattr(algebra_module, "check_jacobi", counted(algebra_module.check_jacobi))
    monkeypatch.setattr(contraction, "check_jacobi", counted(contraction.check_jacobi))
    g1 = tmp_path / "g1.json"
    assert main(["grading", "from-auto", "--inner", "3,1", "--out", str(g1)]) == 0
    code, text = run(capsys, "contract", "apply", "--sl", "3", "--grading", str(g1), "--eps", "0,0,0,1")
    assert code == 0 and "Jacobi residual 0.000e+00" in text and len(calls) == 1


def test_json_format_and_determinism(tmp_path, capsys):
    code, text1 = run(capsys, "--format", "json", "contract", "solve-eps", "--group", "2")
    assert code == 0
    payload = json.loads(text1)
    assert payload["count"] == 5
    _, text2 = run(capsys, "--format", "json", "contract", "solve-eps", "--group", "2")
    assert text1 == text2

    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["rep", "build", "-n", "3", "-w", "2,1,0", "--out", str(out1)]) == 0
    assert main(["rep", "build", "-n", "3", "-w", "2,1,0", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_global_flags_accepted_before_and_after_subcommand(capsys):
    code, _ = run(capsys, "--tol", "1e-9", "rep", "build", "-n", "2", "-w", "1,0")
    assert code == 0
    code, _ = run(capsys, "rep", "build", "-n", "2", "-w", "1,0", "--tol", "1e-9")
    assert code == 0
    assert main(["--tol", "-1", "rep", "build", "-n", "2", "-w", "1,0"]) == 2
    for tol in ("nan", "inf"):  # a NaN tolerance would pass every residual comparison
        assert main(["--tol", tol, "rep", "build", "-n", "2", "-w", "1,0"]) == 2
        assert "tolerance must be positive and finite" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:  # --seed is not a flag
        main(["--seed", "1", "rep", "build", "-n", "2", "-w", "1,0"])
    assert exc.value.code == 2


def test_the_parser_is_built_once_and_keeps_no_state_between_calls(capsys):
    assert build_parser() is build_parser()
    argv = ["contract", "solve-psi", "--group", "2", "--eps", "1,1,1,0"]
    code, first = run(capsys, *argv)
    assert code == 0
    with pytest.raises(SystemExit) as exc:  # a bad flag is refused by the same parser
        main(["contract", "solve-psi", "--group", "2", "--bogus", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, again = run(capsys, *argv)
    assert code == 0 and again == first


def test_an_eps_cell_past_the_float_range_is_exit_2(tmp_path, capsys):
    g1 = tmp_path / "g1.json"
    assert main(["grading", "from-auto", "--inner", "3,1", "--out", str(g1)]) == 0
    huge = ",".join(["1e400"] * 4)
    code = main(["contract", "apply", "--sl", "3", "--grading", str(g1), "--eps", huge])
    captured = capsys.readouterr()
    assert code == 2 and "float range" in captured.err
    code, text = run(capsys, "contract", "solve-psi", "--group", "2", "--eps", huge)
    assert code == 0 and "binary psi solutions" in text and ": 1" in text


def test_grading_from_auto_on_sl32_reads_no_dense_structure(capsys):
    # the dense structure tensor of sl(32) is 16 GiB: the command asked numpy for it and died
    code, text = run(capsys, "grading", "from-auto", "--inner", "32,16")
    assert code == 0 and text.splitlines()[1:] == ["part dims: L_0=511, L_1=512", "OK"]


@pytest.mark.parametrize("keep", [0, 2])
def test_compat_check_fails_a_grading_that_is_not_a_direct_sum(tmp_path, capsys, keep):
    # part 0 of inner(3,1) emptied or cut to 2 of its 4 columns: grading verify failed the file, and compat
    # check printed compatible / OK
    rep, path = tmp_path / "rep.json", tmp_path / "g1.json"
    assert main(["rep", "build", "-n", "3", "-w", "2,1,0", "--out", str(rep)]) == 0
    assert main(["grading", "from-auto", "--inner", "3,1", "--out", str(path)]) == 0
    payload = json.loads(path.read_text())
    payload["parts"]["0"] = payload["parts"]["0"][:keep]
    half = tmp_path / "half.json"
    half.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(capsys, "grading", "verify", str(half), "--sl", "3")[0] == 1
    code, text = run(capsys, "compat", "check", str(rep), str(half), "--inner", "3,1")
    assert code == 1 and text.splitlines()[-2:] == ["incompatible", "FAIL"]
