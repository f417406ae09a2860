"""The public API: every name a module exports resolves, and the package
exports exactly the public names its __init__ binds."""

import importlib
import pkgutil
import types

import pytest

import ivstrat

MODULES = [ivstrat] + [
    importlib.import_module(f"ivstrat.{info.name}")
    for info in pkgutil.iter_modules(ivstrat.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", ())
    assert [name for name in exported if not hasattr(module, name)] == []
    assert len(set(exported)) == len(exported)


def test_package_exports_exactly_what_it_binds():
    bound = {
        name
        for name, value in vars(ivstrat).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(ivstrat.__all__) == sorted(bound)
