"""The public API: every name a module exports resolves, the package
exports exactly the public names its __init__ binds, and every name the
benchmark imports from the package exists."""

import ast
import importlib
import pathlib
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


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("script", ["traced.py", "workloads.py"])
def test_benchmark_imports_resolve(script):
    tree = ast.parse((PERFBENCH / script).read_text(), filename=script)
    imported, missing = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ivstrat":
            module = importlib.import_module(node.module)
            for alias in node.names:
                imported.append(alias.name)
                if not hasattr(module, alias.name):
                    missing.append(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ivstrat":
                    importlib.import_module(alias.name)
    assert imported  # the script still reaches the package this way
    assert missing == []
