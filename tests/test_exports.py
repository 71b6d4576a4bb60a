"""Every module's ``__all__`` names only what the module defines.

``import gmono`` cannot catch a name deleted from a module but left in its
``__all__``: only ``from gmono.<module> import *`` reads the list.
"""

import importlib
import pkgutil

import pytest

import gmono

# Modules that list their exports; __main__ runs the CLI when imported.
MODULES = [
    m.name for m in pkgutil.iter_modules(gmono.__path__)
    if m.name != "__main__"
    and hasattr(importlib.import_module(f"gmono.{m.name}"), "__all__")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"gmono.{name}")
    listed = module.__all__
    assert len(set(listed)) == len(listed)
    assert [n for n in listed if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from gmono.{name} import *", namespace)
    assert set(listed) <= set(namespace)
