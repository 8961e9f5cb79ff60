"""Independent references and the per-operation failure rules.

The oracles here use none of svl's state, partial-trace or tensor code:
amplitudes are written from the family definitions, partial traces are
a tensordot over the dropped axes, the 27 correlations are traces
against explicit Pauli Kronecker products and lambda_1 comes from an
SVD.  The one library routine used as a reference is the grid oracle
svetlichny_grid_search at step pi/8, the same check as acceptance
criterion 09.
"""

from __future__ import annotations

import hashlib
import math
from itertools import product

import numpy as np

ABOVE_TOL = 1e-6   # a value may exceed 4*lambda1 by this much
BELOW_TOL = 1e-9   # a value may fall short of its reference by this much
SATISFIED_TOL = 1e-6   # slack of a trade-off verdict, as in svl.tradeoff
GRID_STEP = math.pi / 8.0

_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))
_PAULI27 = np.array([np.kron(np.kron(a, b), c)
                     for a, b, c in product(_PAULI, repeat=3)])


def amplitudes(family: str, n: int, params: dict) -> np.ndarray:
    """State vector of a family member, qubit 0 the most significant bit."""
    amps = np.zeros(2**n, dtype=complex)
    if family == "GGHZ":
        amps[0], amps[-1] = math.cos(params["theta"]), math.sin(params["theta"])
    elif family == "MS":
        t = params["theta"]
        amps[0], amps[-2], amps[-1] = 1.0, math.cos(t), math.sin(t)
    elif family == "DICKE":
        ones = n - params["m"]
        idx = np.arange(2**n)
        popcount = sum((idx >> b) & 1 for b in range(n))
        amps[popcount == ones] = 1.0
    elif family == "WCLASS":
        for bit, k in zip((8, 4, 2, 1, 0),
                          ("alpha", "beta", "gamma", "delta", "lambda")):
            amps[bit] = params[k]
    else:
        raise ValueError(f"no oracle for family {family!r}")
    return amps / np.linalg.norm(amps)


def reduce(amps: np.ndarray, n: int, keep) -> np.ndarray:
    """Reduced density matrix of |psi><psi| on the kept qubits."""
    psi = amps.reshape((2,) * n)
    dropped = [q for q in range(n) if q not in keep]
    rho = np.tensordot(psi, psi.conj(), axes=(dropped, dropped))
    dim = 2 ** len(keep)
    return rho.reshape(dim, dim)


def tensor(rho: np.ndarray) -> np.ndarray:
    """m[i, j, k] = Tr(rho sigma_i x sigma_j x sigma_k)."""
    return np.einsum("xy,nyx->n", rho, _PAULI27).real.reshape(3, 3, 3)


def bound(m: np.ndarray) -> float:
    """4 * lambda_1 of the 3x9 flattening with the middle index as row."""
    flat = np.transpose(m, (1, 0, 2)).reshape(3, 9)
    return 4.0 * float(np.linalg.svd(flat, compute_uv=False)[0])


def value_failures(value: float, upper: float, reference: float | None) -> list[str]:
    """Failure reasons of one maximized value.

    upper is 4*lambda1; reference is the independent lower reference, or
    None where the check cannot fail (see References.reference).
    """
    out = []
    if value > upper + ABOVE_TOL:
        out.append(f"value {value!r} above 4*lambda1 {upper!r} + {ABOVE_TOL}")
    if reference is not None and value < reference - BELOW_TOL:
        out.append(f"value {value!r} below reference {reference!r} - {BELOW_TOL}")
    return out


def certified(value: float, upper: float) -> bool:
    return abs(upper - value) <= BELOW_TOL


def determinism_failures(keys, digests) -> list[list[str]]:
    """Per record, a failure when its output differs from the first
    output for the same input."""
    first: dict[str, str] = {}
    out = []
    for key, digest in zip(keys, digests):
        seen = first.setdefault(key, digest)
        out.append([] if digest is None or seen is None or digest == seen
                   else [f"output digest {digest} differs from {seen}"])
    return out


class References:
    """Per-run memo of certificates and references, keyed by matrix bytes."""

    def __init__(self, grid_search):
        self._grid_search = grid_search
        self._bounds: dict[str, float] = {}
        self._grids: dict[str, float] = {}

    @staticmethod
    def key(rho: np.ndarray) -> str:
        return hashlib.sha256(np.ascontiguousarray(rho).tobytes()).hexdigest()

    def upper(self, rho: np.ndarray) -> float:
        key = self.key(rho)
        if key not in self._bounds:
            self._bounds[key] = bound(tensor(rho))
        return self._bounds[key]

    def reference(self, rho: np.ndarray, ghz_type: bool, value: float) -> float | None:
        """4*lambda1 on GHZ-type states, where it is attained; elsewhere
        the pi/8 grid oracle.  The grid never exceeds 4*lambda1, so a value
        within BELOW_TOL of 4*lambda1 passes against it whatever it is; the
        grid is computed only for the values below their certificate."""
        upper = self.upper(rho)
        if ghz_type:
            return upper
        if value >= upper - BELOW_TOL:
            return None
        key = self.key(rho)
        if key not in self._grids:
            self._grids[key] = self._grid_search(rho, GRID_STEP)
        return self._grids[key]

    @property
    def grids_computed(self) -> int:
        return len(self._grids)
