"""Every name a shapeinv module lists in __all__ exists in that module.

A stale entry, left behind when its definition is deleted, breaks
`from shapeinv.<module> import *` although every direct import still works.
"""

import importlib
import pkgutil

import pytest

import shapeinv

MODULES = [
    module
    for module in (importlib.import_module(f"shapeinv.{info.name}")
                   for info in pkgutil.iter_modules(shapeinv.__path__))
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_all_entry_resolves(module):
    missing = []
    for name in module.__all__:
        try:
            getattr(module, name)
        except AttributeError:
            missing.append(name)
    assert not missing, f"{module.__name__}.__all__ names what it does not define: {missing}"
