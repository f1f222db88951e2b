"""Module boundaries: no qackit module imports another module's private names."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "qackit").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_a_sibling(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_sampling_imports_only_the_ir():
    # the samplers read circuits and nothing else of qackit: no oracle, no
    # rewrite pass and no nekomata constructor is loaded with them
    path = next(p for p in SOURCES if p.name == "sampling.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    relative = sorted(
        f"{'.' * node.level}{node.module or ''}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    )
    assert relative == [".ir"]
