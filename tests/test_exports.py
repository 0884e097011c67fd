"""The package exports only names that exist."""

import importlib
import pkgutil

import sgprecond


def test_every_name_in_all_resolves():
    for info in pkgutil.iter_modules(sgprecond.__path__):
        module = importlib.import_module(f"sgprecond.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"sgprecond.{info.name}.__all__ names missing objects: {missing}"


def test_star_import():
    namespace = {}
    exec("from sgprecond import *", namespace)
    assert "GalerkinOperator" in namespace and "jacobi_matrix" in namespace
