"""The package exports only names that exist."""

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
