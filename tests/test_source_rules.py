"""Rules on the library source itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "gtlie").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_check_lives_in_an_assert(path):
    # python -O strips assert statements and sets __debug__ to False, so a
    # check written either way silently disappears.
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert not found, f"assert or __debug__ in the library: {found}"


def test_the_rule_sees_every_library_module():
    assert {p.name for p in SOURCES} >= {"algebra.py", "autos.py", "cli.py", "gtrep.py", "linalg.py"}
