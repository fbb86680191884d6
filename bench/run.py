"""gtlie benchmark: one workload, one process, every output checked.

    python3 bench/run.py --workload paper_sweep --seed 0 --seconds 60 --trace 0

Run from the repository root.  gtlie is imported from ./src.  The run
measures set-up (median of fresh interpreters that import gtlie and build
the workload's inputs), then runs whole passes over the workload: at least
two, and another only while it is predicted to end within --seconds.  It
prints each metric with its unit, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json.  --trace 1
splits --seconds between untraced and traced passes, reports the per_layer
metrics (medians over traced passes) and the tracing overhead, and writes
the spans to bench/out/trace-<workload>-seed<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from recorder import Recorder

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
# paper_sweep compares CLI stdout across passes, and one rep_ladder pass per
# run spreads too widely.
MIN_PASSES = 2
# Counts whose per-pass value is a ratio of two raw counts.
RATIOS = {
    "autos.solver_found_per_expected": ("autos.solver_found", "autos.solver_expected"),
    "contraction.found_per_tried": ("contraction.tables_found", "contraction.tables_tried"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["paper_sweep", "rep_ladder"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import gtlie and build the inputs."""
    code = (
        f"import sys; sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]; "
        f"import workloads; workloads.WORKLOADS[{workload!r}].inputs({seed})"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # No timeout: with one, the wait polls and rounds the time up to 50 ms steps.
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - start)
    return times


def run_passes(workload, inp, seconds: float, traced: bool, min_passes: int) -> list:
    """Whole passes until the next one is predicted to overrun seconds."""
    recs = []
    start = time.perf_counter()
    while True:
        rec = Recorder(traced)
        if traced:
            tracemalloc.start()
        t0 = time.perf_counter()
        workload.run_pass(rec, inp)
        rec.run_s = time.perf_counter() - t0
        if traced:
            tracemalloc.stop()
        recs.append(rec)
        elapsed = time.perf_counter() - start
        if len(recs) >= min_passes and elapsed + statistics.median(r.run_s for r in recs) > seconds:
            return recs


def layer_metrics(rec, names) -> dict:
    """Per-layer values of one traced pass, keyed by BENCHMARK.json name."""
    out = {}
    for name in names:
        base, _, suffix = name.rpartition(".")
        if suffix == "s":
            out[name] = rec.seconds.get(base, 0.0)
        elif suffix == "calls":
            out[name] = rec.calls.get(base, 0)
        elif suffix == "peak_mb":
            out[name] = rec.peak_mb.get(base, 0.0)
        elif name in RATIOS:
            num, den = (rec.counts.get(key, 0) for key in RATIOS[name])
            out[name] = num / den if den else 0.0
        else:
            out[name] = rec.counts.get(name, 0)
    return out


def end_to_end(recs, setup) -> dict:
    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    return {
        "run_s": statistics.median(r.run_s for r in recs),
        "top_rung_s": statistics.median(r.top_rung_s for r in recs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1 - failed / attempted,
    }


def per_layer(plain, traced, names) -> dict:
    per_pass = [layer_metrics(rec, names) for rec in traced]
    values = {name: statistics.median(p[name] for p in per_pass) for name in names}
    values["trace.overhead_s"] = statistics.median(r.run_s for r in traced) - statistics.median(
        r.run_s for r in plain
    )
    return values


def write_spans(path: Path, recs) -> None:
    path.parent.mkdir(exist_ok=True)
    with path.open("w") as fh:
        for p, rec in enumerate(recs):
            for span in rec.spans:
                fh.write(json.dumps({"pass": p, **span}) + "\n")


def print_slowest(rec) -> None:
    """The longest call of each function in a traced pass, with its item."""
    items = {s["id"]: s["name"] for s in rec.spans if s["parent"] is None}
    slowest = {}
    for s in rec.spans:
        if s["parent"] is not None and s["end"] - s["start"] > slowest.get(s["name"], (0.0,))[0]:
            slowest[s["name"]] = (s["end"] - s["start"], items[s["parent"]])
    for name, (seconds, item) in sorted(slowest.items()):
        print(f"slowest {name}: {seconds:.3f} s on {item}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "gtlie" / "__init__.py").is_file():
        print(f"error: no gtlie sources under {SRC}", file=sys.stderr)
        return 2
    # A closed loop in one process with one BLAS thread: on 2 cores a second
    # BLAS thread made run-to-run spread several times larger.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(BENCH), str(SRC)]
    import gtlie
    import workloads

    if Path(gtlie.__file__).resolve().parent != SRC / "gtlie":
        print(f"error: imported gtlie from {gtlie.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        declared = spec["per_layer"]
        inp = workload.inputs(args.seed)
        plain = run_passes(workload, inp, args.seconds / 2, False, 1)
        traced = run_passes(workload, inp, args.seconds / 2, True, 1)
        values = per_layer(plain, traced, [m["name"] for m in declared])
        trace_path = workloads.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        write_spans(trace_path, traced)
        print_slowest(traced[-1])
        print(f"spans: {trace_path.relative_to(ROOT)}", file=sys.stderr)
        recs = plain + traced
    else:
        declared = spec["end_to_end"]
        setup = setup_seconds(args.workload, args.seed)
        inp = workload.inputs(args.seed)
        recs = run_passes(workload, inp, args.seconds, False, MIN_PASSES)
        values = end_to_end(recs, setup)
        # Too few passes for a percentile with ten samples beyond it: list them all.
        print(f"run_s samples: {len(recs)} passes: " + ", ".join(f"{r.run_s:.3f}" for r in recs) + " s")
        print(f"setup_s samples: {len(setup)} interpreters: " + ", ".join(f"{t:.3f}" for t in setup) + " s")
    if set(values) != {m["name"] for m in declared}:
        print(f"error: metrics {sorted(set(values) ^ {m['name'] for m in declared})} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2

    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    errors = [e for r in recs for e in r.errors]
    for failure in sorted({f for r in recs for f in r.failures}):
        print(f"failed: {failure}", file=sys.stderr)
    for error in errors:
        print(f"WRONG: {error}", file=sys.stderr)
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for m in declared:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
