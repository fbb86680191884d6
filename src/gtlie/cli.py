"""Command-line front end.

Subcommands:
    rep build | rep check
    grading from-auto | grading verify | grading classify
    compat check
    contract solve-eps | contract solve-psi | contract apply

Global flags: --tol, --format {text,json}, --out.
Exit codes: 0 all verifications passed, 1 verification failure,
2 usage or input error.  Output (stdout report and --out artifact) is
byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import algebra as alg
from . import autos, contraction, jsonio
from .errors import IncompatibleError, InputError, VerificationError
from .groups import AbelianGroup, label_str
from .gtrep import (
    HighestWeight,
    build_representation,
    check_generator_budget,
    pattern_array,
    verify_commutation,
    verify_sl_trace,
    verify_transpose,
    weyl_dim,
)


@dataclass
class RunConfig:
    tolerance: float = 1e-9
    fmt: str = "text"
    out: str | None = None

    def __post_init__(self):
        if not 0 < self.tolerance < math.inf:  # NaN fails this too
            raise InputError(f"tolerance must be positive and finite, got {self.tolerance}")


def _emit(cfg: RunConfig, report: dict, lines: list[str]) -> None:
    if cfg.fmt == "json":
        sys.stdout.write(jsonio.canonical_dumps(report))
    else:
        for line in lines:
            print(line)


def _write_artifact(cfg: RunConfig, payload) -> None:
    if cfg.out:
        Path(cfg.out).write_text(jsonio.canonical_dumps(payload))


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def _parse_weight(n: int, text: str) -> HighestWeight:
    try:
        entries = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad weight {text!r}") from exc
    return HighestWeight(n, entries)


def _parse_inner(text: str) -> tuple[int, int]:
    try:
        n, s = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"--inner expects N,S, got {text!r}") from exc
    return n, s


def _parse_group(text: str) -> AbelianGroup:
    try:
        return AbelianGroup(tuple(int(x) for x in text.split(",")))
    except ValueError as exc:
        raise InputError(f"bad group orders {text!r}") from exc


def _parse_eps(group: AbelianGroup, text: str) -> contraction.EpsilonTable:
    values = []
    for chunk in text.split(","):
        try:
            values.append(Fraction(chunk))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad table entry {chunk!r}") from exc
    size = group.size
    if len(values) != size * size:
        raise InputError(f"table needs {size * size} row-major entries, got {len(values)}")
    return contraction.epsilon_from_rows(group, [values[i * size : (i + 1) * size] for i in range(size)])


def _table_text(table) -> str:
    els = table.group.elements()
    rows = []
    for i in els:
        rows.append("[" + ",".join(str(table.values[(i, j)]) for j in els) + "]")
    return "[" + ",".join(rows) + "]"


def _algebra_from_flags(args) -> alg.LieAlgebra:
    if getattr(args, "sl", None):
        return alg.sl_algebra(args.sl)
    if getattr(args, "algebra", None):
        return jsonio.algebra_from_json(_load_json(args.algebra))
    raise InputError("provide --sl N or --algebra FILE")


# -- rep --------------------------------------------------------------------


def _rep_checks(cfg: RunConfig, rep, hw: HighestWeight) -> dict:
    """The checks rep build and rep check share, as report fields; "ok"
    holds their joint verdict."""
    comm = verify_commutation(rep, cfg.tolerance)
    fields = {
        "dim": rep.dim,
        "weyl_dim": weyl_dim(hw),
        "commutator_residual": comm.max_residual,
        "transpose_residual": verify_transpose(rep),
        "sl_trace_residual": verify_sl_trace(rep),
    }
    worst = max(fields["transpose_residual"], fields["sl_trace_residual"])
    fields["ok"] = comm.ok and rep.dim == fields["weyl_dim"] and worst <= cfg.tolerance
    return fields


def cmd_rep_build(cfg: RunConfig, args) -> int:
    hw = _parse_weight(args.n, args.weight)
    try:
        check_generator_budget(hw.n * hw.n, weyl_dim(hw), 8)
    except InputError as exc:
        raise InputError(
            f"rep build emits dense generators, so r{hw} is refused before it is built or verified: {exc}"
        ) from exc
    rep = build_representation(hw)
    checks = _rep_checks(cfg, rep, hw)
    report = {"command": "rep build", "n": args.n, "highest_weight": list(hw.m), **checks}
    _emit(
        cfg,
        report,
        [
            f"representation r{hw} of sl({args.n}): dim {rep.dim} (Weyl formula {checks['weyl_dim']})",
            f"commutator residual {checks['commutator_residual']:.3e}, "
            f"transpose residual {checks['transpose_residual']:.3e}",
            "OK" if checks["ok"] else "FAIL",
        ],
    )
    _write_artifact(cfg, jsonio.rep_to_json(rep))
    return 0 if checks["ok"] else 1


def cmd_rep_check(cfg: RunConfig, args) -> int:
    rep = jsonio.rep_from_json(_load_json(args.rep))
    basis_ok = np.array_equal(rep.basis, pattern_array(rep.hw))
    report = {"command": "rep check", "basis_order_ok": basis_ok, **_rep_checks(cfg, rep, rep.hw)}
    report["ok"] = ok = basis_ok and report["ok"]
    _emit(cfg, report, [f"rep check {args.rep}: dim {rep.dim}", "OK" if ok else "FAIL"])
    return 0 if ok else 1


# -- grading ----------------------------------------------------------------


def _automorphism_from_flags(args) -> tuple[autos.Automorphism, int]:
    if args.inner and args.outer:
        raise InputError("choose one of --inner / --outer")
    if args.inner:
        n, s = _parse_inner(args.inner)
        return autos.auto_inner(n, s), n
    if args.outer:
        return autos.auto_outer(args.outer), args.outer
    raise InputError("provide --inner N,S or --outer N")


def cmd_grading_from_auto(cfg: RunConfig, args) -> int:
    aut, n = _automorphism_from_flags(args)
    algebra = alg.sl_algebra(n)
    gamma = autos.grading_from_automorphism(algebra, aut, cfg.tolerance)
    check = alg.verify_grading(algebra, gamma, cfg.tolerance)
    dims = {label_str(lab): d for lab, d in gamma.part_dims().items()}
    report = {
        "command": "grading from-auto",
        "n": n,
        "kind": aut.kind,
        "order": aut.order,
        "group": list(gamma.group.orders),
        "part_dims": dims,
        "ok": check.ok,
    }
    _emit(
        cfg,
        report,
        [
            f"{aut.kind} automorphism of sl({n}), order {aut.order}",
            "part dims: " + ", ".join(f"L_{k}={v}" for k, v in sorted(dims.items())),
            "OK" if check.ok else "FAIL",
        ],
    )
    _write_artifact(cfg, jsonio.grading_to_json(gamma))
    return 0 if check.ok else 1


def cmd_grading_verify(cfg: RunConfig, args) -> int:
    algebra = _algebra_from_flags(args)
    gamma = jsonio.grading_from_json(_load_json(args.grading))
    check = alg.verify_grading(algebra, gamma, cfg.tolerance)
    report = {
        "command": "grading verify",
        "ok": check.ok,
        "max_residual": check.max_residual,
        "violations": [[str(v) for v in item] for item in check.violations],
    }
    _emit(
        cfg,
        report,
        [f"grading verify {args.grading}: residual {check.max_residual:.3e}", "OK" if check.ok else "FAIL"],
    )
    return 0 if check.ok else 1


def cmd_grading_classify(cfg: RunConfig, args) -> int:
    algebra = _algebra_from_flags(args)
    gamma = jsonio.grading_from_json(_load_json(args.grading))
    parts = [gamma.parts[lab] for lab in gamma.sorted_labels() if gamma.parts[lab].shape[1]]
    if len(parts) != 2:
        raise InputError(f"classification needs exactly two nonempty parts, got {len(parts)}")
    case = alg.classify_two_part(algebra, parts[0], parts[1], cfg.tolerance)
    report = {"command": "grading classify", "case": case.value}
    _emit(cfg, report, [f"two-part classification: {case.value}"])
    return 0


# -- compat -----------------------------------------------------------------


def cmd_compat_check(cfg: RunConfig, args) -> int:
    rep = jsonio.rep_from_json(_load_json(args.rep))
    gamma = jsonio.grading_from_json(_load_json(args.grading))
    aut, n = _automorphism_from_flags(args)
    if n != rep.n:
        raise InputError(f"automorphism acts on sl({n}) but representation is for sl({rep.n})")
    hw = rep.hw
    working_rep = rep
    if args.inner:
        if args.doubled:
            raise InputError("--doubled only applies to the outer automorphism")
        sim = autos.simulation_inner(hw, n, _parse_inner(args.inner)[1])
    else:
        if args.doubled:
            working_rep, sim = autos.doubled_rep(hw)
        elif autos.is_self_contragredient(hw):
            sim = autos.J_matrix(hw)
        else:
            report = {
                "command": "compat check",
                "compatible": False,
                "reason": "weight is not self-contragredient; no simulation matrix exists",
                "suggestion": "retry with --doubled for the 2d-dimensional r + (-r^T)",
            }
            _emit(
                cfg,
                report,
                [
                    f"r{hw} is not self-contragredient: no simulation matrix for the outer automorphism",
                    "hint: the doubled representation (--doubled) is compatible",
                    "FAIL",
                ],
            )
            return 1
    simcheck = autos.verify_simulation(working_rep, aut, sim, cfg.tolerance)
    vgamma = autos.decompose_rep_space(sim, cfg.tolerance)
    compat = autos.check_compatibility(working_rep, gamma, vgamma, cfg.tolerance)
    ok = simcheck.ok and compat.ok
    vdims = {label_str(lab): d for lab, d in vgamma.part_dims().items()}
    report = {
        "command": "compat check",
        "simulation_kind": sim.kind,
        "simulation_ok": simcheck.ok,
        "v_part_dims": vdims,
        "compatible": compat.ok,
        "max_residual": max(simcheck.max_residual, compat.max_residual),
        "ok": ok,
    }
    _emit(
        cfg,
        report,
        [
            f"simulation matrix kind: {sim.kind} (conjugation residual {simcheck.max_residual:.3e})",
            "V-part dims: " + ", ".join(f"V_{k}={v}" for k, v in sorted(vdims.items())),
            ("compatible" if compat.ok else "incompatible"),
            "OK" if ok else "FAIL",
        ],
    )
    _write_artifact(cfg, jsonio.simulation_to_json(sim))
    return 0 if ok else 1


# -- contract ---------------------------------------------------------------


def cmd_contract_solve_eps(cfg: RunConfig, args) -> int:
    group = _parse_group(args.group)
    tables = contraction.enumerate_binary_epsilon(group)
    report = {
        "command": "contract solve-eps",
        "group": list(group.orders),
        "count": len(tables),
        "solutions": [jsonio.table_to_json(t)["values"] for t in tables],
    }
    _emit(
        cfg,
        report,
        [f"binary epsilon solutions over {group}: {len(tables)}"]
        + ["  " + _table_text(t) for t in tables],
    )
    _write_artifact(cfg, [jsonio.table_to_json(t) for t in tables])
    return 0


def cmd_contract_solve_psi(cfg: RunConfig, args) -> int:
    group = _parse_group(args.group)
    eps = _parse_eps(group, args.eps)
    tables = contraction.enumerate_binary_psi(eps)
    report = {
        "command": "contract solve-psi",
        "group": list(group.orders),
        "epsilon": jsonio.table_to_json(eps)["values"],
        "count": len(tables),
        "solutions": [jsonio.table_to_json(t)["values"] for t in tables],
    }
    _emit(
        cfg,
        report,
        [f"binary psi solutions for eps={_table_text(eps)}: {len(tables)}"]
        + ["  " + _table_text(t) for t in tables],
    )
    _write_artifact(cfg, [jsonio.table_to_json(t) for t in tables])
    return 0


def cmd_contract_apply(cfg: RunConfig, args) -> int:
    algebra = _algebra_from_flags(args)
    gamma = jsonio.grading_from_json(_load_json(args.grading))
    eps = _parse_eps(gamma.group, args.eps)
    calg = contraction.contract_algebra(algebra, gamma, eps, cfg.tolerance)
    jac = calg.jacobi
    report = {
        "command": "contract apply",
        "dim": calg.result.dim,
        "jacobi_residual": jac.max_residual,
        "ok": jac.ok,
    }
    # contract_algebra raises VerificationError unless the Jacobi check passed
    _emit(cfg, report, [f"contracted algebra of dim {calg.result.dim}, Jacobi residual {jac.max_residual:.3e}", "OK"])
    _write_artifact(cfg, jsonio.contracted_algebra_to_json(calg))
    return 0


# -- parser -----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser as it was and
    # returns a fresh Namespace each time.  Global flags are accepted both
    # before and after the subcommand; the suppressed defaults keep
    # subparsers from clobbering root-level values.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--tol", type=float, help="verification tolerance (default 1e-9)")
    common.add_argument("--format", choices=["text", "json"], help="report format")
    common.add_argument("--out", help="write the produced artifact JSON to this path")

    parser = argparse.ArgumentParser(
        prog="gtlie",
        description="Gel'fand-Tseitlin representations, Z2-gradings and graded contractions of sl(n,C)",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("rep", help="build or check representations")
    rep_sub = rep.add_subparsers(dest="subcommand", required=True)
    rb = rep_sub.add_parser("build", parents=[common])
    rb.add_argument("-n", type=int, required=True)
    rb.add_argument("-w", "--weight", required=True, help="comma-separated highest weight")
    rb.set_defaults(func=cmd_rep_build)
    rc = rep_sub.add_parser("check", parents=[common])
    rc.add_argument("rep", help="representation JSON file")
    rc.set_defaults(func=cmd_rep_check)

    grading = sub.add_parser("grading", help="build, verify or classify gradings")
    grading_sub = grading.add_subparsers(dest="subcommand", required=True)
    gf = grading_sub.add_parser("from-auto", parents=[common])
    gf.add_argument("--inner", help="N,S for the inner automorphism class")
    gf.add_argument("--outer", type=int, help="N for the outer automorphism")
    gf.set_defaults(func=cmd_grading_from_auto)
    gv = grading_sub.add_parser("verify", parents=[common])
    gv.add_argument("grading", help="grading JSON file")
    gv.add_argument("--sl", type=int, help="use sl(N)")
    gv.add_argument("--algebra", help="algebra JSON file")
    gv.set_defaults(func=cmd_grading_verify)
    gc = grading_sub.add_parser("classify", parents=[common])
    gc.add_argument("grading", help="grading JSON file")
    gc.add_argument("--sl", type=int, help="use sl(N)")
    gc.add_argument("--algebra", help="algebra JSON file")
    gc.set_defaults(func=cmd_grading_classify)

    compat = sub.add_parser("compat", help="compatibility of a representation with a grading")
    compat_sub = compat.add_subparsers(dest="subcommand", required=True)
    cc = compat_sub.add_parser("check", parents=[common])
    cc.add_argument("rep", help="representation JSON file")
    cc.add_argument("grading", help="grading JSON file")
    cc.add_argument("--inner", help="N,S for the inner automorphism class")
    cc.add_argument("--outer", type=int, help="N for the outer automorphism")
    cc.add_argument("--doubled", action="store_true", help="use r + (-r^T) with the block swap")
    cc.set_defaults(func=cmd_compat_check)

    contract = sub.add_parser("contract", help="solve and apply graded contractions")
    contract_sub = contract.add_subparsers(dest="subcommand", required=True)
    se = contract_sub.add_parser("solve-eps", parents=[common])
    se.add_argument("--group", required=True, help="cyclic orders, e.g. 2 or 2,2")
    se.set_defaults(func=cmd_contract_solve_eps)
    sp = contract_sub.add_parser("solve-psi", parents=[common])
    sp.add_argument("--group", required=True)
    sp.add_argument("--eps", required=True, help="row-major epsilon entries")
    sp.set_defaults(func=cmd_contract_solve_psi)
    ca = contract_sub.add_parser("apply", parents=[common])
    ca.add_argument("--grading", required=True, help="grading JSON file")
    ca.add_argument("--eps", required=True, help="row-major epsilon entries")
    ca.add_argument("--sl", type=int, help="use sl(N)")
    ca.add_argument("--algebra", help="algebra JSON file")
    ca.set_defaults(func=cmd_contract_apply)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(
            tolerance=getattr(args, "tol", 1e-9),
            fmt=getattr(args, "format", "text"),
            out=getattr(args, "out", None),
        )
        return args.func(cfg, args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IncompatibleError, VerificationError, np.linalg.LinAlgError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
