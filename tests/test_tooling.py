"""Source checks: exactness (no floats outside SVG drawing) and a
stdlib-only runtime, read from the syntax trees of the package modules."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "polywander"
MODULES = sorted(SRC.glob("*.py"))
FLOAT_OK = {"render.py"}  # floats there only place SVG coordinates


def test_package_modules_found():
    names = {p.name for p in MODULES}
    assert {"angles.py", "geometry.py", "orbit.py", "cli.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_outside_render(path):
    if path.name in FLOAT_OK:
        return
    hits = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Constant) and isinstance(node.value, float))
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        )
    ]
    assert hits == [], f"{path.name}: float at lines {hits}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_package(path):
    outside = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside += [
            n
            for n in names
            if n.split(".")[0] not in sys.stdlib_module_names
            and n.split(".")[0] != "polywander"
        ]
    assert outside == [], f"{path.name} imports {outside}"
