"""Every name a module lists in __all__ exists, so a deleted class or
function cannot stay exported."""

import importlib

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
