"""The package's public names: every name in a module's __all__ exists, and
the package root imports only names that their module lists in __all__, so a
name deleted from one list and left in another is caught.  The 1-D region
API is kept for callers outside the package only, so deleting it later
touches no package code."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import epsap

MODULES = sorted(info.name for info in pkgutil.iter_modules(epsap.__path__)
                 if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"epsap.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_root_imports_only_names_in_all():
    tree = ast.parse(Path(epsap.__file__).read_text(encoding="utf-8"))
    imported, unlisted = 0, []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            listed = importlib.import_module(f"epsap.{node.module}").__all__
            imported += len(node.names)
            unlisted += [f"{node.module}.{alias.name}" for alias in node.names
                         if alias.name not in listed]
    assert imported > 0 and unlisted == []


def test_package_calls_no_region_api():
    region_api = {"region_new", "region_add_point", "region_closed_empty"}
    calls = []
    for path in sorted(Path(epsap.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in region_api:
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert calls == []
