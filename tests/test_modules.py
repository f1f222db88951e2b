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
