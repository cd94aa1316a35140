"""Every exported name resolves, so an export of a deleted name fails fast."""

import importlib
import pkgutil

import pytest

import gridsac

MODULES = ["gridsac"] + [f"gridsac.{m.name}" for m in pkgutil.iter_modules(gridsac.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
