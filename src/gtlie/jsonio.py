"""JSON schemas for every exchanged object, with deterministic output.

Numbers are emitted as exact integer rationals where the object carries
them (epsilon/psi tables, diagonal phases) and as shortest-roundtrip
floats elsewhere; ``canonical_dumps`` fixes key order and separators so
repeated runs are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import numpy as np

from .algebra import Grading, LieAlgebra
from .autos import SimulationMatrix
from .contraction import ContractedAlgebra, EpsilonTable, PsiTable, ScalarTable
from .errors import InputError
from .groups import AbelianGroup, label_str, parse_label
from .gtrep import HighestWeight, Representation
from .linalg import Entries, stable_order


def canonical_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _num(z) -> float | list[float]:
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _read_num(v) -> complex:
    if isinstance(v, (list, tuple)):
        return complex(v[0], v[1])
    return complex(v)


def _json_int(v) -> int:
    """v itself when it is a JSON integer; int() would truncate 1.5 to 1."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{v!r} is not an integer")
    return v


# -- algebra ----------------------------------------------------------------


def algebra_to_json(algebra: LieAlgebra) -> dict:
    """The nonzero constants [i, j, l, re, im], c[i, j, l] = ad_i[l, j], in (i, j, l) order."""
    ad, k = algebra.ad, algebra.dim
    _, order = stable_order((ad.gids * k + ad.cols) * k + ad.rows)
    vals = ad.vals[order]
    constants = zip(*(a.tolist() for a in (ad.gids[order], ad.cols[order], ad.rows[order], vals.real, vals.imag)))
    return {"dim": k, "basis": list(algebra.basis_names), "constants": [list(c) for c in constants]}


def algebra_from_json(payload: dict) -> LieAlgebra:
    try:
        k = _json_int(payload["dim"])
        names = tuple(str(x) for x in payload["basis"])
        constants = [(i, j, l, complex(re, im)) for i, j, l, re, im in payload["constants"]]
        given = set()
        for i, j, l, _ in constants:
            if not all(0 <= _json_int(x) < k for x in (i, j, l)):
                raise InputError(f"structure constant index {(i, j, l)} is outside 0..{k - 1}")
            if (i, j, l) in given:
                raise InputError(f"structure constant index {(i, j, l)} is given twice")
            given.add((i, j, l))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed algebra JSON: {exc}") from exc
    if len(names) != k:
        raise InputError("basis name count does not match dim")
    live = [c for c in constants if c[3] != 0]  # a zero constant, given or not, is no entry
    i, j, l = np.array([c[:3] for c in live], dtype=np.int64).reshape(-1, 3).T
    return LieAlgebra(names, Entries.sort(k, i, l, j, np.array([c[3] for c in live], dtype=complex)))


# -- grading ----------------------------------------------------------------


def grading_to_json(grading: Grading) -> dict:
    parts = {}
    for lab in grading.sorted_labels():
        mat = grading.parts[lab]
        parts[label_str(lab)] = [[_num(mat[r, c]) for r in range(mat.shape[0])] for c in range(mat.shape[1])]
    return {"group": list(grading.group.orders), "parts": parts}


def grading_from_json(payload: dict) -> Grading:
    try:
        group = AbelianGroup(tuple(_json_int(n) for n in payload["group"]))
        parts = {}
        for key, vectors in payload["parts"].items():
            lab = group.check(parse_label(key))
            cols = [np.array([_read_num(x) for x in vec], dtype=complex) for vec in vectors]
            if cols:
                parts[lab] = np.column_stack(cols)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed grading JSON: {exc}") from exc
    if not parts:
        raise InputError("grading JSON has no nonempty parts")
    return Grading(group=group, parts=parts)


def grading_sha256(grading: Grading) -> str:
    return hashlib.sha256(canonical_dumps(grading_to_json(grading)).encode()).hexdigest()


# -- representation ---------------------------------------------------------


def rep_to_json(rep: Representation) -> dict:
    gens = {}
    for (k, l), m in rep.gen.items():
        gens[f"{k},{l}"] = [[float(x) for x in row] for row in np.asarray(m, dtype=float)]
    return {
        "n": rep.n,
        "highest_weight": list(rep.hw.m),
        "dim": rep.dim,
        "basis": rep.basis.tolist(),
        "generators": gens,
    }


def rep_from_json(payload: dict) -> Representation:
    """Parse a representation, refusing with InputError unless the generator
    keys are exactly the n^2 labels "k,l", every basis row is a flattened
    pattern of n(n+1)/2 integers and every generator is a finite d x d
    matrix, with d the declared dimension and the number of basis rows."""
    try:
        n = _json_int(payload["n"])
        hw = HighestWeight(n, tuple(_json_int(x) for x in payload["highest_weight"]))
        basis = np.array([[_json_int(x) for x in row] for row in payload["basis"]], dtype=np.int64)
        d = _json_int(payload["dim"])
        gen = {}
        for key, rows in payload["generators"].items():
            k, l = (int(x) for x in key.split(","))
            gen[(k, l)] = np.array(rows, dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed representation JSON: {exc}") from exc
    if basis.ndim != 2 or basis.shape[1] != n * (n + 1) // 2:
        raise InputError(f"basis rows must be flattened patterns of {n * (n + 1) // 2} entries for n={n}")
    labels = {(k, l) for k in range(1, n + 1) for l in range(1, n + 1)}
    if set(gen) != labels or len(payload["generators"]) != len(labels):
        raise InputError(f"generator keys must be exactly the {n * n} labels k,l with 1 <= k, l <= {n}")
    if d != len(basis):
        raise InputError("representation JSON dimension mismatch")
    for (k, l), m in gen.items():
        if m.shape != (d, d):
            raise InputError(f"generator {k},{l} has shape {m.shape}, expected {(d, d)}")
        if not np.isfinite(m).all():
            raise InputError(f"generator {k},{l} has a non-finite entry")
    return Representation(hw, basis, gen)


# -- simulation matrices ----------------------------------------------------


def simulation_to_json(sim: SimulationMatrix) -> dict:
    out = {"dim": sim.dim, "order": sim.order, "kind": sim.kind}
    if sim.kind == "diagonal":
        out["phases_pi"] = [[r.numerator, r.denominator] for r in sim.phases]
    elif sim.kind == "signed_permutation":
        out["perm"] = list(sim.perm)
        out["signs"] = [[s.real, s.imag] for s in sim.signs]
    else:
        out["matrix"] = [[[z.real, z.imag] for z in row] for row in sim.dense]
    return out


def simulation_from_json(payload: dict) -> SimulationMatrix:
    try:
        kind = payload["kind"]
        order = _json_int(payload["order"])
        if kind == "diagonal":
            phases = tuple(Fraction(_json_int(n), _json_int(d)) for n, d in payload["phases_pi"])
            return SimulationMatrix(order=order, kind=kind, phases=phases)
        if kind == "signed_permutation":
            perm = tuple(_json_int(p) for p in payload["perm"])
            signs = tuple(complex(re, im) for re, im in payload["signs"])
            return SimulationMatrix(order=order, kind=kind, perm=perm, signs=signs)
        if kind == "dense":
            dense = np.array(
                [[complex(re, im) for re, im in row] for row in payload["matrix"]],
                dtype=complex,
            )
            return SimulationMatrix(order=order, kind=kind, dense=dense)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed simulation-matrix JSON: {exc}") from exc
    raise InputError(f"unknown simulation-matrix kind {payload.get('kind')!r}")


# -- epsilon / psi tables ---------------------------------------------------


def table_to_json(table: ScalarTable) -> dict:
    values = []
    for i in table.group.elements():
        for j in table.group.elements():
            v = table.values[(i, j)]
            if not isinstance(v, Fraction):
                raise InputError("only rational tables are serialized")
            values.append([list(i), list(j), v.numerator, v.denominator])
    return {"group": list(table.group.orders), "values": values}


def _table_from_json(payload: dict, cls):
    try:
        group = AbelianGroup(tuple(_json_int(n) for n in payload["group"]))
        values = {}
        for i, j, num, den in payload["values"]:
            values[(tuple(_json_int(x) for x in i), tuple(_json_int(x) for x in j))] = Fraction(
                _json_int(num), _json_int(den)
            )
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed table JSON: {exc}") from exc
    return cls(group, values)


def epsilon_from_json(payload: dict) -> EpsilonTable:
    return _table_from_json(payload, EpsilonTable)


def psi_from_json(payload: dict) -> PsiTable:
    return _table_from_json(payload, PsiTable)


# -- contracted algebra with provenance -------------------------------------


def contracted_algebra_to_json(calg: ContractedAlgebra) -> dict:
    out = algebra_to_json(calg.result)
    out["contraction"] = {
        "grading_sha256": grading_sha256(calg.grading),
        "group": list(calg.eps.group.orders),
        "epsilon": table_to_json(calg.eps)["values"],
    }
    return out
