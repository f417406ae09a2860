"""The public API: every name a module exports resolves, the package
exports exactly the public names it binds or resolves on first use, and
every name the benchmark imports from the package exists."""

import ast
import importlib
import pathlib
import pkgutil
import types

import pytest

import ivstrat
from helpers import fresh_python

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
    # dir() lists the names the package resolves on first use, too
    bound = {
        name
        for name in dir(ivstrat)
        if not name.startswith("_") and not isinstance(getattr(ivstrat, name), types.ModuleType)
    }
    assert sorted(ivstrat.__all__) == sorted(bound)


def test_star_import_binds_every_exported_name():
    code = "from ivstrat import *\nimport ivstrat\nprint([n for n in ivstrat.__all__ if n not in globals()])"
    assert fresh_python(code).strip() == "[]"


def test_bare_import_resolves_the_lazy_modules():
    code = (
        "import sys, ivstrat\n"
        "print('ivstrat.simulation' in sys.modules, ivstrat.simulation.run_grid is ivstrat.run_grid,"
        " 'ivstrat.theory' in sys.modules, ivstrat.theory.moments is ivstrat.moments)"
    )
    assert fresh_python(code).split() == ["False", "True", "False", "True"]


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("script", ["common.py", "traced.py", "workloads.py"])
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
