"""The package's public names and layering: every name in a module's
__all__ exists, is used by the package itself, and the package root imports
only names that their module lists in __all__, so a name deleted from one
list and left in another is caught.  The 1-D region API is gone: only the
search module binds two of its names, to None, for the benchmark's tracer.
Every public search takes errors.DEFAULT_WORK_CAP as its default work cap,
under the one name work_cap, and no public function or command takes a
removed knob: a seed (no answer is drawn at random), a cube tolerance (it
is geometry.DEFAULT_TOL), a provider mode (the interval's size picks it) or
a materialize cap (each builder reads its fixed constant).
The modules import each other only at module level and in no circle, only
geometry reads the integer interval of scales, and the free-set search has
one call site, in the ladder, which each free-set entry point calls once.
Only geometry checks a cube witness, where recognize_cube finds it."""

import ast
import graphlib
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import epsap
from epsap.cli import COMMANDS
from epsap.errors import DEFAULT_WORK_CAP

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


def test_every_public_name_is_used_in_the_package():
    # A use is a name, an attribute or an imported name anywhere in
    # src/epsap but __init__.py, outside the name's own top-level definition;
    # the strings of __all__ are no use.
    used = set()
    for path in Path(epsap.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(stmt, "name", None)  # a def or class statement
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.name if isinstance(node, ast.alias) else None)
                if name != own:
                    used.add(name)
    unused = [f"{name}.{n}" for name in MODULES
              for n in importlib.import_module(f"epsap.{name}").__all__
              if n not in used]
    assert unused == []


def test_every_work_cap_defaults_to_the_shared_one():
    defaults = {}
    for name in MODULES:
        module = importlib.import_module(f"epsap.{name}")
        for fn_name in module.__all__:
            fn = getattr(module, fn_name)
            if inspect.isfunction(fn):
                for param in inspect.signature(fn).parameters.values():
                    if param.name == "work_cap":
                        defaults[f"{name}.{fn_name}"] = param.default
    assert {"colorings.verify_no_mono_ap", "density.find_dense_translate",
            "density.verify_cube_free"} <= set(defaults)
    assert {fn for fn, cap in defaults.items() if cap != DEFAULT_WORK_CAP} == set()


# Names deleted from the public API and the CLI: no answer is drawn at
# random, the cube tolerance is the constant geometry.DEFAULT_TOL,
# apk_free_set picks its provider by the interval's size, every search's
# cap is called work_cap, and every materialize cap is a fixed constant.
REMOVED_PARAMETERS = ("seed", "tol", "mode", "node_cap", "cap")
REMOVED_OPTIONS = ("--seed", "--tol", "--provider", "--format", "--cap")


def test_nothing_public_takes_a_seed():
    found = []
    for name in MODULES:
        module = importlib.import_module(f"epsap.{name}")
        for fn_name in module.__all__:
            fn = getattr(module, fn_name)
            if inspect.isfunction(fn):
                found += [f"{name}.{fn_name}({param})" for param in REMOVED_PARAMETERS
                          if param in inspect.signature(fn).parameters]
    found += [f"{' '.join(command.words)} {option.name}"
              for command in COMMANDS for option in command.options
              if option.name in REMOVED_OPTIONS]
    assert found == []


def test_coloring_checks_take_no_materialize_cap():
    # No caller set one: each reads colorings.DEFAULT_MATERIALIZE_CAP.
    for method in (epsap.verify_no_mono_ap, epsap.Coloring.classes,
                   epsap.Coloring.to_list, epsap.AlternateLabeling.labels):
        assert "cap" not in inspect.signature(method).parameters


def test_package_binds_no_region_api():
    # The 1-D region API is deleted.  bench/tracer.py still wraps
    # region_add_point and region_closed_empty on the search module by name,
    # so search binds those two to None, which nothing calls.
    region_api = ("FeasibleRegion2D", "region_new", "region_add_point", "region_closed_empty")
    for module in (epsap, importlib.import_module("epsap.geometry")):
        assert [n for n in region_api if hasattr(module, n)] == []
    search = importlib.import_module("epsap.search")
    assert {n: getattr(search, n, "unbound") for n in region_api} == {
        "FeasibleRegion2D": "unbound", "region_new": "unbound",
        "region_add_point": None, "region_closed_empty": None}


def _trees():
    """Each package module's name, but __main__'s, with its parsed source."""
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(Path(epsap.__file__).parent.glob("*.py"))
            if path.stem != "__main__"]


def test_no_function_imports_a_package_module():
    deferred = []
    for name, tree in _trees():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                deferred += [f"{name}.{fn.name}" for node in ast.walk(fn)
                             if isinstance(node, ast.ImportFrom) and node.level
                             or isinstance(node, ast.Import)
                             and any(a.name.startswith("epsap") for a in node.names)]
    assert deferred == []


def test_module_imports_form_no_cycle():
    # An edge for every module-level `from .x import ...` and `from . import x`.
    graph = {}
    for name, tree in _trees():
        graph[name] = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                graph[name] |= ({node.module} if node.module
                                else {alias.name for alias in node.names})
    assert graph["search"] and graph["density"]
    order = list(graphlib.TopologicalSorter(graph).static_order())  # raises on a cycle
    assert order.index("geometry") < order.index("search") < order.index("density")


def test_only_geometry_reads_the_scale_interval():
    # The rows and the integer d interval are geometry's alone: no other
    # module binds or reads their update, their window or the unchecked grid.
    interval_api = {"narrowed", "window", "_trusted_grid"}
    uses = []
    for name, tree in _trees():
        if name == "geometry":
            continue
        for node in ast.walk(tree):
            used = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if used in interval_api:
                uses.append(f"{name}:{node.lineno} {used}")
    assert uses == []


def _named(node, name):
    return name in (getattr(node, "id", None), getattr(node, "attr", None))


def _function(tree, name):
    return next(fn for fn in tree.body
                if isinstance(fn, ast.FunctionDef) and fn.name == name)


def test_the_free_set_search_runs_only_on_the_ladder():
    # Every free-set search climbs search._ladder, in every dimension: a
    # second path to _max_free_edges, a call or an alias anywhere in the
    # package, fails here.
    trees = dict(_trees())
    uses = [f"{name}:{node.lineno}" for name, tree in trees.items()
            for node in ast.walk(tree) if _named(node, "_max_free_edges")]
    calls = [node for node in ast.walk(_function(trees["search"], "_ladder"))
             if isinstance(node, ast.Call) and _named(node.func, "_max_free_edges")]
    assert len(uses) == len(calls) == 1


def test_each_free_set_entry_point_climbs_the_ladder_once():
    # exact_f reaches the ladder by one call in every dimension, and a cap
    # is handled only where a search runs: the ladder and the coloring
    # search are the only catchers of SearchCapExceeded in search.py.
    tree = dict(_trees())["search"]
    for name in ("exact_f", "max_exact_ap_free"):
        calls = [node for node in ast.walk(_function(tree, name))
                 if isinstance(node, ast.Call) and _named(node.func, "_ladder")]
        assert len(calls) == 1, name
    catchers = [fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn) if isinstance(node, ast.ExceptHandler)
                and node.type is not None
                and any(_named(n, "SearchCapExceeded") for n in ast.walk(node.type))]
    assert sorted(catchers) == ["_good_coloring", "_ladder"]


def test_every_cube_witness_is_certified_where_it_is_found():
    # recognize_cube checks each witness as it builds it, so no other module
    # checks one again, and its stages build their balls through one probe.
    calls = [f"{name}:{node.lineno}" for name, tree in _trees() if name != "geometry"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _named(node.func, "certifies")]
    assert calls == []
    tree = dict(_trees())["geometry"]
    balls = [node for node in ast.walk(_function(tree, "recognize_cube"))
             if isinstance(node, ast.Call) and _named(node.func, "min_enclosing_ball")]
    assert len(balls) == 1
