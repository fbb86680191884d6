"""Self-tests of the benchmark: metric names, seeded inputs, memory guard."""

import ast
import json
import re
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from gtlie import algebra, autos  # noqa: E402
from gtlie.errors import VerificationError  # noqa: E402
from recorder import Recorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def recorded_names(method: str) -> set:
    """First-argument string literals of every rec.<method>(...) in workloads.py."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    return {
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == method
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }


def test_metric_names_are_declared_and_well_formed():
    declared = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(declared) == len(set(declared))
    assert all(NAME.fullmatch(name) for name in declared)
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    calls = recorded_names("call")
    assert calls, "no spanned calls found"
    for fn in calls:
        assert {f"{fn}.s", f"{fn}.calls", f"{fn}.peak_mb"} <= per_layer, fn
    ratio_parts = {part for parts in run.RATIOS.values() for part in parts}
    for name in recorded_names("count") | recorded_names("high_water"):
        assert name in per_layer or name in ratio_parts, name
    assert set(run.RATIOS) <= per_layer


def test_printed_metrics_match_benchmark_json():
    rec = Recorder()
    rec.run_s, rec.attempted = 1.0, 1
    assert set(run.end_to_end([rec], [0.5])) == {m["name"] for m in SPEC["end_to_end"]}
    names = [m["name"] for m in SPEC["per_layer"]]
    assert set(run.per_layer([rec], [rec], names)) == set(names)


def test_same_seed_same_items():
    for workload in workloads.WORKLOADS.values():
        a, b = workload.inputs(7), workload.inputs(7)
        assert a.names == b.names
    a, b = workloads.paper_inputs(7), workloads.paper_inputs(7)
    for (_, aut_a), (_, aut_b) in zip(a.conjugates, b.conjugates):
        assert np.array_equal(aut_a.matrix, aut_b.matrix)


def test_seeds_change_conjugates_not_gradings():
    first, second = workloads.paper_inputs(0), workloads.paper_inputs(1)
    for (n, aut_a), (_, aut_b) in zip(first.conjugates, second.conjugates):
        assert not np.allclose(aut_a.matrix, aut_b.matrix)
        alg = algebra.sl_algebra(n)
        for aut in (aut_a, aut_b):
            gamma = autos.grading_from_automorphism(alg, aut)
            assert gamma.part_dims() == workloads.part_dims("inner", n)
            case = algebra.classify_two_part(alg, gamma.parts[(0,)], gamma.parts[(1,)])
            assert case is algebra.TwoPartCase.Z2_GRADING


def test_memory_guard_refuses_the_d35_solver_call():
    rec = Recorder()
    nbytes = workloads.solver_bytes(6, 35)
    assert nbytes > 27 * 2**30
    assert not workloads.guard(rec, nbytes, "find_simulation_matrix d=35")
    assert (rec.attempted, rec.failed, rec.counts["guard.refused"]) == (1, 1, 1)
    assert workloads.guard(rec, workloads.solver_bytes(4, workloads.SOLVER_MAX_DIM), "d=15")
    assert workloads.guard(rec, workloads.generator_bytes(3, 1331), "d=1331")


def test_gtlie_consistency_error_makes_the_run_incorrect():
    rec = Recorder()
    with rec.item("r(2,1,1,0)"):
        raise VerificationError("J^2 is not scalar; pattern conjugation bug")
    assert (rec.attempted, rec.failed, len(rec.errors)) == (1, 1, 1)
