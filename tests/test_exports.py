"""Every name a module lists in __all__ exists, so a deleted class or
function cannot stay exported, and every function the benchmark tracer
wraps exists, so a deletion cannot break a traced benchmark run."""

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
