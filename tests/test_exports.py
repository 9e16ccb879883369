"""Every name a module lists in __all__ exists, so a deleted class or
function cannot stay exported; every exported name is used outside the
tests, so a name only the tests reach cannot come back; every function
the benchmark tracer wraps exists, so a deletion cannot break a traced
benchmark run; every private module-level name is used, so a
deletion cannot leave a helper behind; and importing the package loads
neither dataclasses nor inspect, whose import alone costs more than the
whole package, nor concurrent.futures and the logging it pulls in, which
only bench's thread pool needs, and no result record compiles the
annotations of its fields at import."""

import ast
import importlib
import importlib.util
import subprocess
import sys
import typing
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


def test_import_loads_no_costly_standard_module():
    # a fresh interpreter, since this one has long since loaded them all;
    # the command line imports every module of the package
    costly = {"dataclasses", "inspect", "concurrent.futures", "logging"}
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import cliqueforge.cli; "
        f"print(sorted({costly!r} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


def test_no_record_field_annotation_is_a_forward_reference():
    # typing.NamedTuple compiles each string annotation into a ForwardRef
    # when the class is made, which doubled the package's import time; so
    # the modules that declare records evaluate their annotations (they
    # do without "from __future__ import annotations")
    records = {
        obj
        for name in MODULES
        for obj in vars(importlib.import_module(name)).values()
        if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
    }
    assert len(records) == 16
    refs = [
        f"{cls.__name__}.{field}"
        for cls in sorted(records, key=lambda cls: cls.__name__)
        for field, kind in getattr(cls, "__annotations__", {}).items()
        if isinstance(kind, typing.ForwardRef)
    ]
    assert not refs, f"record fields annotated with a ForwardRef: {refs}"


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
