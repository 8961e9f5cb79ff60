"""The public surface: each layer's __all__, the package's exports and
the typed errors of every entry point that takes a count.

Tools that wrap a layer's public functions read its __all__, so every
name listed there must exist, and every name the package exports must
be listed by the layer that defines it.
"""

import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import svl
from svl import DomainError, InvalidArityError

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


def test_package_exports_every_library_layer_name():
    listed = set()
    for layer in LAYERS:
        if layer != "cli":
            listed.update(importlib.import_module(f"svl.{layer}").__all__)
    public = {name for name, obj in vars(svl).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == listed


GGHZ6 = svl.make_gghz(6, 0.3)
GHZ3 = svl.to_density(svl.make_gghz(3, math.pi / 4))

# Each entry point that takes a count, the error it raises for a count
# that is not an integer in its range, and a call that is valid at 4.
COUNTS = {
    "PureState": (InvalidArityError, lambda k: svl.PureState(k, np.eye(16)[0])),
    "DensityMatrix": (InvalidArityError, lambda k: svl.DensityMatrix(k, np.eye(16) / 16)),
    "make_gghz": (InvalidArityError, lambda k: svl.make_gghz(k, 0.3)),
    "make_ms": (InvalidArityError, lambda k: svl.make_ms(k, 0.3)),
    "make_dicke.n": (InvalidArityError, lambda k: svl.make_dicke(k, 2)),
    "make_dicke.m": (InvalidArityError, lambda k: svl.make_dicke(6, k)),
    "maximally_mixed": (InvalidArityError, svl.maximally_mixed),
    "reduce_pure": (IndexError, lambda k: svl.reduce_pure(GGHZ6, (0, 1, k))),
    "bound_gghz_sum_n": (InvalidArityError, lambda k: svl.bound_gghz_sum_n(k, 0.3)),
    "bound_ms_sum_n": (InvalidArityError, lambda k: svl.bound_ms_sum_n(k, 0.3)),
    "sweep_figure": (DomainError, lambda k: svl.sweep_figure("FIG1", k)),
    "OptimizerOptions.restarts": (DomainError, lambda k: svl.OptimizerOptions(restarts=k)),
    "OptimizerOptions.seed": (DomainError, lambda k: svl.OptimizerOptions(seed=k)),
    "svetlichny_grid_search.chunk": (
        DomainError, lambda k: svl.svetlichny_grid_search(GHZ3, math.pi / 2, chunk=k)),
}
HUGE = 10**400
NOT_COUNTS = {"2.5": 2.5, "4.0": 4.0, "True": True, "np.True_": np.True_, "'4'": "4",
              "10**400": HUGE, "-10**5000": -10**5000}
# Any non-negative integer is a seed, and any positive one a chunk size.
UNBOUNDED = ("OptimizerOptions.seed", "svetlichny_grid_search.chunk")


@pytest.mark.parametrize("entry, bad", [
    pytest.param(entry, bad, id=f"{entry}-{name}")
    for entry in COUNTS for name, bad in NOT_COUNTS.items()
    if not (bad is HUGE and entry in UNBOUNDED)])
def test_counts_raise_typed_errors(entry, bad):
    error, call = COUNTS[entry]
    with pytest.raises(error):
        call(bad)


@pytest.mark.parametrize("entry", COUNTS)
def test_counts_accept_numpy_integers(entry):
    out = COUNTS[entry][1](np.int64(4))
    if hasattr(out, "num_qubits"):
        assert type(out.num_qubits) is int
    if isinstance(out, svl.OptimizerOptions):
        assert type(out.restarts) is int
        assert type(out.seed) is int
