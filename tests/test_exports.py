"""Every name a module lists in __all__ exists, so a deleted class or
function cannot stay exported; every exported name is used outside the
tests, so a name only the tests reach cannot come back; every function
the benchmark tracer wraps exists, so a deletion cannot break a traced
benchmark run; every private module-level name is used, so a
deletion cannot leave a helper behind; and importing the package loads
neither dataclasses nor inspect, whose import alone costs more than the
whole package."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cliqueforge"
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


def test_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, since this one has long since loaded both;
    # the command line imports every module of the package
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import cliqueforge.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


def test_every_traced_name_resolves():
    # perfbench/tracer.py imports only the standard library, so it loads
    # by file path without perfbench on the import path
    path = ROOT / "perfbench" / "tracer.py"
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


def _parse(folder):
    return [ast.parse(path.read_text()) for path in sorted(folder.rglob("*.py"))]


def _definitions(tree):
    """(name, node) for each module-level function, class or constant of
    a parsed module."""
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
            yield name, node


def _uses(trees):
    """Each name to the ids of the name and attribute nodes that refer to
    it; an import or a mention inside a string does not count."""
    uses: dict[str, set[int]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, set()).add(id(node))
    return uses


def _ids(node):
    return {id(n) for n in ast.walk(node)}


def test_every_private_helper_is_referenced():
    # a reference is a name or an attribute outside the definition itself
    trees = _parse(SRC)
    uses = _uses(trees)
    orphans = [
        name
        for tree in trees
        for name, node in _definitions(tree)
        if name.startswith("_") and not name.startswith("__")
        and not uses.get(name, set()) - _ids(node)
    ]
    assert not orphans, f"private names nothing references: {orphans}"


# independent re-checkers of a density witness, as the verify_* functions
# are of the other constructions; the density module docstring names them
UNREFERENCED_EXPORTS = {"evaluate_rooted_ratio", "evaluate_two_density_ratio"}


def test_every_exported_name_is_referenced_outside_tests():
    # a reference is a name or an attribute in src outside the name's own
    # definition, or one anywhere in perfbench/ or benchmarks/; dunder
    # metadata such as __version__ is read by packaging tools, not called
    trees = _parse(SRC)
    uses = _uses(trees)
    outside = _uses(_parse(ROOT / "perfbench") + _parse(ROOT / "benchmarks"))
    unused = []
    for tree in trees:
        defs = dict(_definitions(tree))
        for name in ast.literal_eval(defs["__all__"].value) if "__all__" in defs else ():
            if name.startswith("__") or name in outside or name in UNREFERENCED_EXPORTS:
                continue
            own = _ids(defs[name]) if name in defs else set()
            if not uses.get(name, set()) - own:
                unused.append(name)
    assert not unused, f"exported names only the tests reach: {unused}"
