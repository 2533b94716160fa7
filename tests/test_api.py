"""Every exported name resolves.

Tools that look up each name of ``plasso.__all__`` and of each submodule's
``__all__`` with ``getattr`` (the span tracer of ``perfbench`` does) crash on
a stale export, so a name removed from a module must leave its ``__all__``
too.
"""

import importlib
import pkgutil

import pytest

import plasso

MODULES = ["plasso"] + [f"plasso.{m.name}"
                        for m in pkgutil.iter_modules(plasso.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate export"
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"

