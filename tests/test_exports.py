import importlib
import pkgutil

import pytest

import rmtkit

MODULES = ["rmtkit"] + [f"rmtkit.{m.name}"
                        for m in pkgutil.iter_modules(rmtkit.__path__)]


# The benchmark's layer tracer resolves every name in each module's __all__;
# a stale entry would break every traced run.
@pytest.mark.parametrize("modname", MODULES)
def test_all_names_resolve(modname):
    mod = importlib.import_module(modname)
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing
