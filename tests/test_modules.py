"""Module boundaries: no qackit module imports another module's private names,
the samplers and the rewrite passes import only the IR, the verify suites do
not import the CLI, every public name has a caller in the product, the
state-vector oracle has one gate loop, per-state facts are read from the
state, not from an identity cache, and the wire cap is stated once, in the IR."""
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


def _relative_imports(name: str) -> list[str]:
    path = next(p for p in SOURCES if p.name == name)
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(
        f"{'.' * node.level}{node.module or ''}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    )


def test_sampling_imports_only_the_ir():
    # the samplers read circuits and nothing else of qackit: no oracle, no
    # rewrite pass and no nekomata constructor is loaded with them
    assert _relative_imports("sampling.py") == [".ir"]


def test_transforms_imports_only_the_ir():
    # the rewrite passes and constructions load without the oracle
    assert _relative_imports("transforms.py") == [".ir"]


@pytest.mark.parametrize("name", ["ir.py", "statevec.py", "transforms.py"])
def test_per_state_facts_are_read_from_the_state(name):
    # a state computes its own norm error and basis value once, so the IR,
    # the oracle and the rewrite passes keep no cache keyed by object identity
    path = next(p for p in SOURCES if p.name == name)
    calls = [
        f"line {node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id"
    ]
    assert calls == []


def test_verify_suites_stand_apart_from_the_cli():
    # the suites sit under the private-name guard, and the CLI reads their
    # dict object itself, which perfbench's tracer patches in place
    from qackit import cli, verify

    assert "verify.py" in {p.name for p in SOURCES}
    path = next(p for p in SOURCES if p.name == "verify.py")
    loaded = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            loaded |= {getattr(node, "module", None)} | {alias.name for alias in node.names}
    assert not {"cli", "qackit.cli"} & loaded
    assert cli.SUITES is verify.SUITES


# Public names no qackit module calls, each kept for a stated reason.  A new
# public name either gets a caller in the product or a line here.
NO_PRODUCT_CALLER = {
    "unitary": "the dense reference that tests compare circuits against",
    "grid_law": "closed form a nekomata suite in verify.py and the build report are to call",
    "parity_error": "closed form a parity suite in verify.py and the build report are to call",
    "state_from_json": "reader of the `simulate --state-out` format; tests round-trip it",
    "cnot": "circuit vocabulary for callers building circuits by hand",
    "x_gate": "circuit vocabulary for callers building circuits by hand",
    "PLUS": "circuit vocabulary for callers building circuits by hand",
}


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_every_public_name_has_a_product_caller():
    # public: every name a module of the package defines at top level without
    # a leading underscore, exported from __init__ or not
    public = set()
    called = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        public |= {name for name in _top_level_names(tree) if not name.startswith("_")}
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                called.add(node.id)
            elif isinstance(node, ast.Attribute):
                called.add(node.attr)
    assert sorted(public - called - NO_PRODUCT_CALLER.keys()) == []
    # an allowlisted name that gains a caller, or leaves the package, leaves the list
    assert sorted(NO_PRODUCT_CALLER.keys() - (public - called)) == []


def test_statevec_has_one_gate_loop():
    # every input of the oracle, and every column block, runs through one executor
    path = next(p for p in SOURCES if p.name == "statevec.py")
    callers = sorted(
        fn.name
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(fn, ast.FunctionDef)
        and any(
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_apply_in_place"
            for node in ast.walk(fn)
        )
    )
    assert callers == ["_evolve"]




def _assigned(node: ast.AST) -> list[str]:
    """Names and attributes an assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    else:
        return []
    return [getattr(t, "id", getattr(t, "attr", None)) for t in targets]


def _mentions_the_cap(node: ast.AST) -> bool:
    """``node`` names ``MAX_WIRES`` or spells its value."""
    return "MAX_WIRES" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)) or (
        isinstance(node, ast.expr) and ast.unparse(node) in ("1048576", "1 << 20", "2 ** 20")
    )


def test_the_wire_cap_is_stated_once_in_the_ir():
    # the IR refuses an over-wide circuit wherever a width first appears, so
    # no other module keeps a copy of the cap and the CLI checks no width
    assigners = [p.name for p in SOURCES for node in ast.walk(ast.parse(p.read_text())) if "MAX_WIRES" in _assigned(node)]
    assert assigners == ["ir.py"]
    path = next(p for p in SOURCES if p.name == "cli.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = [node.lineno for node in ast.walk(tree) if _mentions_the_cap(node)]
    widths = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and any(getattr(o, "attr", None) == "num_qubits" for o in ast.walk(node))
    ]
    assert reads == [] and widths == []
