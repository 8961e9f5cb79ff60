"""The public surface: each layer's __all__ and the package's exports.

Tools that wrap a layer's public functions read its __all__, so every
name listed there must exist, and every name the package exports must
be listed by the layer that defines it.
"""

import importlib
import inspect
import pkgutil

import pytest

import svl

LAYERS = sorted(m.name for m in pkgutil.iter_modules(svl.__path__)
                if not m.name.startswith("_"))


@pytest.mark.parametrize("layer", LAYERS)
def test_every_listed_name_resolves(layer):
    mod = importlib.import_module(f"svl.{layer}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"svl.{layer}.__all__ lists undefined names {missing}"


def test_every_package_name_is_listed_by_a_layer():
    listed = set()
    for layer in LAYERS:
        listed.update(importlib.import_module(f"svl.{layer}").__all__)
    public = {name for name, obj in vars(svl).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public - listed == set()
