"""Every name a module lists in __all__ exists, so a deleted class or
function cannot stay exported; every function the benchmark tracer
wraps exists, so a deletion cannot break a traced benchmark run; and
every private module-level name is used, so a deletion cannot leave a
helper behind."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

MODULES = [
    "cliqueforge",
    "cliqueforge.density",
    "cliqueforge.fixers",
    "cliqueforge.fractional",
    "cliqueforge.gadgets",
    "cliqueforge.graphs",
    "cliqueforge.pipeline",
    "cliqueforge.randgraphs",
    "cliqueforge.solver",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [x for x in module.__all__ if not hasattr(module, x)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_every_traced_name_resolves():
    # perfbench/tracer.py imports only the standard library, so it loads
    # by file path without perfbench on the import path
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{short}.{name}"
        for table in (tracer.TRACED, tracer.COUNTED)
        for short, names in table.items()
        for name in names
        if not hasattr(importlib.import_module(f"cliqueforge.{short}"), name)
    ]
    assert not missing, f"the tracer wraps missing functions: {missing}"


def _private_definitions(tree):
    """(name, node) for each module-level private function, class or
    constant of a parsed module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_helper_is_referenced():
    # a reference is a name or an attribute outside the definition
    # itself; an import or a mention inside a string does not count
    src = Path(__file__).resolve().parents[1] / "src" / "cliqueforge"
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    uses: dict[str, set[int]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, set()).add(id(node))
    orphans = [
        name
        for tree in trees
        for name, node in _private_definitions(tree)
        if not uses.get(name, set()) - {id(n) for n in ast.walk(node)}
    ]
    assert not orphans, f"private names nothing references: {orphans}"
