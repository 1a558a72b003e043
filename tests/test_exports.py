"""Every name in a module's __all__ exists, so a deletion cannot leave a
dangling export behind."""

import importlib
import pkgutil

import pytest

import descentpoly

MODULES = ["descentpoly"] + [
    f"descentpoly.{info.name}" for info in pkgutil.iter_modules(descentpoly.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
