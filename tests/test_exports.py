"""Every name a shapeinv module lists in __all__ exists in that module.

A stale entry, left behind when its definition is deleted, breaks
`from shapeinv.<module> import *` although every direct import still works.
The package itself binds no export: each resolves on first use, from the
module that defines it.
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


def test_package_exports_every_name_it_lists():
    assert set(shapeinv.__all__) <= set(dir(shapeinv))
    namespace = {}
    exec("from shapeinv import *", namespace)
    for name in shapeinv.__all__:
        defining = importlib.import_module(f"shapeinv.{shapeinv._SOURCE[name]}")
        assert namespace[name] is getattr(defining, name), name


def test_package_names_follow_their_module(monkeypatch):
    from shapeinv import catalog

    swapped = object()
    monkeypatch.setattr(catalog, "get_family", swapped)
    assert shapeinv.get_family is swapped


def test_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        shapeinv.no_such_name
