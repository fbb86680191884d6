"""The README CLI flow on mutated files, in process, with warnings as errors.

Each example mutates the README's gamma1.json / gamma2.json (gradings of
sl(3)) or rep210.json / rep100.json (GT irreps of sl(3)) and runs one
subcommand on them.  Whatever the input, the CLI answers with exit code 0,
1 or 2 (2 when a generator or grading cell is not a number) and at most
one stderr line, an ``error:`` (bad input, exit 2) or a
``verification failure:`` (exit 1).  An uncaught exception, a traceback or
a numpy RuntimeWarning fails the test.
"""

import contextlib
import copy
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtlie.cli import main

README_FILES = {
    "gamma1.json": ["grading", "from-auto", "--inner", "3,1"],
    "gamma2.json": ["grading", "from-auto", "--outer", "3"],
    "rep210.json": ["rep", "build", "-n", "3", "-w", "2,1,0"],
    "rep100.json": ["rep", "build", "-n", "3", "-w", "1,0,0"],
}

# Each subcommand of the flow that reads a file, on the grading file g and the rep file r.
COMMANDS = {
    "grading verify": lambda g, r: ["grading", "verify", g, "--sl", "3"],
    "grading classify": lambda g, r: ["grading", "classify", g, "--sl", "3"],
    "compat check inner": lambda g, r: ["compat", "check", r, g, "--inner", "3,1"],
    "compat check outer": lambda g, r: ["compat", "check", r, g, "--outer", "3"],
    "compat check doubled": lambda g, r: ["compat", "check", r, g, "--outer", "3", "--doubled"],
    "contract apply": lambda g, r: ["contract", "apply", "--sl", "3", "--grading", g, "--eps", "0,0,0,1"],
    "rep check": lambda g, r: ["rep", "check", r],
}
READS = {name: {"rep"} if name == "rep check" else {"grading"} if "compat" not in name else {"grading", "rep"}
         for name in COMMANDS}

SCALES = (1e-12, 1e12, 1e308)
CELLS = (math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0)
NOT_NUMBERS = (True, False, "1", "x", None)
WRONG_TYPES = (None, "x", "1", True, 3, 2.5, [], {}, [1], [[1.0]], [1.0, 2.0, 3.0])
WRONG_ORDERS = ([3], [1], [0], [-2], [2, 2], [], [2.5], ["2"], 2)
WRONG_LABELS = ("2", "-1", "0,0", "x", "", "1.5", "01")


@pytest.fixture(scope="module")
def readme_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("readme")
    for name, argv in README_FILES.items():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--out", str(folder / name)]) == 0
    return folder, {name: json.loads((folder / name).read_text()) for name in README_FILES}


def _paths(node, at=()):
    """Every place in a JSON value, as the tuple of keys and indices that reaches it."""
    yield at
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, (*at, key))


def _replace(payload, path, value):
    if not path:
        return value
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return payload


def _mutate_vectors(draw, vectors: list) -> None:
    """Drop, duplicate, rescale, mix or cut one vector of a list of vectors (grading columns, or rows of
    a generator or of the basis), or set one of its cells."""
    if not vectors:
        vectors.append([1.0])
        return
    c = draw(st.integers(0, len(vectors) - 1))
    how = draw(st.sampled_from(["drop", "duplicate", "rescale", "mix", "ragged", "cell"]))
    if how == "drop":
        del vectors[c]
    elif how == "duplicate":
        vectors.insert(c, list(vectors[c]))
    elif how == "rescale":
        factor = draw(st.sampled_from(SCALES))
        vectors[c] = [x * factor for x in vectors[c]]
    elif how == "mix":  # a combination with another vector: no longer coordinate vectors and pairs
        other = vectors[draw(st.integers(0, len(vectors) - 1))]
        weight = draw(st.sampled_from([1.0, -0.5, 0.6]))
        vectors[c] = [x + weight * y for x, y in zip(vectors[c], other)]
    elif how == "ragged":
        vectors[c] = vectors[c][:-1]
    elif vectors[c]:
        vectors[c][draw(st.integers(0, len(vectors[c]) - 1))] = draw(st.sampled_from(CELLS))


def _mutate_grading(draw, payload: dict) -> dict:
    parts = payload["parts"]
    key = draw(st.sampled_from(sorted(parts)))
    how = draw(st.sampled_from(["vectors", "vectors", "vectors", "empty part", "order", "label"]))
    if how == "vectors":
        _mutate_vectors(draw, parts[key])
    elif how == "empty part":
        parts[key] = []
    elif how == "order":
        payload["group"] = draw(st.sampled_from(WRONG_ORDERS))
    else:
        parts[draw(st.sampled_from(WRONG_LABELS))] = parts.pop(key)
    return payload


def _mutate_rep(draw, payload: dict) -> dict:
    gens = payload["generators"]
    key = draw(st.sampled_from(sorted(gens)))
    how = draw(st.sampled_from(["generator", "generator", "scaled", "basis", "label", "field"]))
    if how == "generator":
        _mutate_vectors(draw, gens[key])
    elif how == "scaled":
        factor = draw(st.sampled_from((1e300, *SCALES)))
        gens[key] = [[x * factor for x in row] for row in gens[key]]
    elif how == "basis":
        _mutate_vectors(draw, payload["basis"])
    elif how == "label":
        gens[draw(st.sampled_from(["4,1", "0,1", "1", "1,1,1", "x,y"]))] = gens.pop(key)
    else:
        field = draw(st.sampled_from(["n", "dim", "highest_weight"]))
        payload[field] = draw(st.sampled_from([2, 4, 9, 0, -1, [2, 1], [1, 0, 0], [3, 1, 0], [2, 1, 0, 0]]))
    return payload


def _number_cells(payload, kind: str) -> list:
    """The place of every number in a generator row or a grading vector (a [re, im] cell's two included)."""
    field = {"grading": "parts", "rep": "generators"}[kind]
    if not isinstance(payload, dict) or not isinstance(payload.get(field), dict):
        return []
    places = [(field, *path) for path in _paths(payload[field]) if len(path) >= 3]
    return [place for place in places if type(_at(payload, place)) in (int, float)]


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _wrong_type(draw, payload):
    """payload with the value at one place in it (the whole payload included) replaced by one of another type."""
    path = draw(st.sampled_from(list(_paths(payload))))
    return _replace(payload, path, draw(st.sampled_from(WRONG_TYPES)))


@settings(max_examples=500)
@given(data=st.data())
def test_the_cli_answers_every_mutated_readme_file_with_an_exit_code(readme_files, data):
    folder, payloads = readme_files
    command = data.draw(st.sampled_from(sorted(COMMANDS)), label="command")
    files = {"grading": data.draw(st.sampled_from(["gamma1.json", "gamma2.json"])),
             "rep": data.draw(st.sampled_from(["rep210.json", "rep100.json"]))}
    mutate = {"grading": _mutate_grading, "rep": _mutate_rep}
    payloads = {kind: copy.deepcopy(payloads[name]) for kind, name in files.items()}
    for _ in range(data.draw(st.integers(1, 2))):
        kind = data.draw(st.sampled_from(sorted(READS[command])))
        payloads[kind] = mutate[kind](data.draw, payloads[kind])
    if data.draw(st.integers(0, 3)) == 0:  # last, as it may leave no structure to mutate
        kind = data.draw(st.sampled_from(sorted(READS[command])))
        payloads[kind] = _wrong_type(data.draw, payloads[kind])
    refused = False
    if data.draw(st.integers(0, 3)) == 0:  # a cell that is not a number: true and "1" were read as 1
        kind = data.draw(st.sampled_from(sorted(READS[command])))
        cells = _number_cells(payloads[kind], kind)
        if cells:
            cell, value = data.draw(st.sampled_from(cells)), data.draw(st.sampled_from(NOT_NUMBERS))
            payloads[kind] = _replace(payloads[kind], cell, value)
            refused = True
    paths = {kind: folder / f"mutated-{kind}.json" for kind in payloads}
    for kind, payload in payloads.items():
        paths[kind].write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(COMMANDS[command](str(paths["grading"]), str(paths["rep"])))
    lines = err.getvalue().splitlines()
    assert code in ((2,) if refused else (0, 1, 2)), code
    assert len(lines) <= 1 and all(line.startswith(("error: ", "verification failure: ")) for line in lines), lines
    assert "Traceback" not in err.getvalue()
