"""The package exports only names that exist."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import sgprecond

ROOT = Path(__file__).resolve().parent.parent


def test_every_name_in_all_resolves():
    for info in pkgutil.iter_modules(sgprecond.__path__):
        module = importlib.import_module(f"sgprecond.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"sgprecond.{info.name}.__all__ names missing objects: {missing}"


def test_package_all_lists_every_reexported_name():
    public = {
        name
        for name, value in vars(sgprecond).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(sgprecond.__all__) == sorted(public)


def test_star_import():
    namespace = {}
    exec("from sgprecond import *", namespace)
    assert "GalerkinOperator" in namespace and "jacobi_matrix" in namespace
    modules = [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
    assert not modules, f"star import binds modules: {modules}"


def test_import_leaves_csgraph_unloaded():
    # scipy.sparse.csgraph costs import time and memory on every run
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = (
        "import sys, sgprecond, sgprecond.experiments, sgprecond.cli\n"
        "assert 'scipy.sparse.csgraph' not in sys.modules, 'scipy.sparse.csgraph was imported'\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# (module, imported name) pairs allowed to cross the underscore line: the
# benchmark traces the Ritz solves by wrapping sgprecond.eigsolve._tridiag_eig,
# the name eigsolve imports it under
PRIVATE_IMPORTS_ALLOWED = {("eigsolve", "_tridiag_eig")}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reaches_into_private_names():
    # each object keeps its own underscore state: a module reads underscore
    # attributes of self or cls only, and imports no underscore name
    found = []
    for path in sorted((ROOT / "src" / "sgprecond").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.stem}.py:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Attribute) and _private(node.attr):
                if not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")):
                    found.append(f"{where} reads {ast.unparse(node)}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                module = getattr(node, "module", None) or ""
                for alias in node.names:
                    parts = module.split(".") + alias.name.split(".")
                    if any(map(_private, parts)) and (path.stem, alias.name) not in PRIVATE_IMPORTS_ALLOWED:
                        found.append(f"{where} imports {ast.unparse(node)}")
    assert not found, found
