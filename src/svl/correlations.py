"""Pauli correlation tensors and the spectral bounds built on them.

The three-qubit tensor m[i, j, k] = Tr(rho sigma_i x sigma_j x sigma_k)
is flattened to a 3x9 matrix with the middle index as the row; its
largest singular value lambda_1 gives the settings-independent bound
4 * lambda_1 on the Svetlichny value.  The tests pin the flattening
convention to a loop oracle and to the known GHZ value 4*sqrt(2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidArityError
from .qstate import DensityMatrix, _array, _derived

__all__ = [
    "PAULIS",
    "CorrelationTensor3",
    "CorrelationMatrix2",
    "correlation_tensor",
    "pair_correlation_matrix",
    "flatten_correlation_tensor",
    "largest_singular_value",
    "svetlichny_upper_bound",
    "chsh_max",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = np.stack([PAULI_X, PAULI_Y, PAULI_Z])
PAULIS.setflags(write=False)

_IMAG_TOL = 1e-10


def _frozen_correlations(x, shape: tuple[int, ...], what: str) -> np.ndarray:
    """x as a read-only contiguous float array of the given shape, its
    entries in [-1, 1] (InvalidArityError, DomainError)."""
    x = _array(x, float, f"correlation {what}")
    if x.shape != shape:
        raise InvalidArityError(f"expected a {'x'.join(map(str, shape))} {what}, "
                                f"got shape {x.shape}")
    if not np.max(np.abs(x)) <= 1.0 + _IMAG_TOL:
        raise DomainError(f"correlation {what} entries must lie in [-1, 1]")
    x.setflags(write=False)
    return x


@dataclass(frozen=True, eq=False)
class CorrelationTensor3:
    """Real 3x3x3 array of triple-Pauli expectation values."""

    m: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", _frozen_correlations(self.m, (3, 3, 3), "tensor"))

    @functools.cached_property
    def _upper_bound(self) -> float:
        """4 * lambda_1, computed once per tensor: the one formula of
        svetlichny_upper_bound and of the certificate maximize_svetlichny's
        exact path must reach."""
        return 4.0 * largest_singular_value(flatten_correlation_tensor(self))


@dataclass(frozen=True, eq=False)
class CorrelationMatrix2:
    """Real 3x3 matrix of pair-Pauli expectation values."""

    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", _frozen_correlations(self.t, (3, 3), "matrix"))


# Tr(rho O) sums rho[abc, def] O[def, abc] over rows abc and columns def.
_TRACES = {2: "abcd,ica,jdb->ij", 3: "abcdef,ida,jeb,kfc->ijk"}


def _pauli_traces(rho: DensityMatrix, k: int, what: str) -> np.ndarray:
    """The real values Tr(rho sigma_i x sigma_j ...) of a k-qubit rho."""
    if rho.num_qubits != k:
        raise InvalidArityError(f"need a {k}-qubit state, got {rho.num_qubits} qubits")
    m = np.einsum(_TRACES[k], rho.entries.reshape((2,) * 2 * k), *(PAULIS,) * k)
    if np.abs(m.imag).max() > _IMAG_TOL:
        raise DomainError(f"correlation {what} has a non-real entry")
    return m.real


def correlation_tensor(rho: DensityMatrix) -> CorrelationTensor3:
    """All 27 values Tr(rho sigma_i x sigma_j x sigma_k), kept in rho's
    memo (qstate._derived): every call on rho, or on a keep of its class,
    returns the one tensor, with its one 4*lambda1 (_upper_bound)."""
    return _derived(rho, "tensor",
                    lambda: CorrelationTensor3(_pauli_traces(rho, 3, "tensor")))


def pair_correlation_matrix(rho: DensityMatrix) -> CorrelationMatrix2:
    """All 9 values Tr(rho sigma_i x sigma_j) for a two-qubit state."""
    return CorrelationMatrix2(_pauli_traces(rho, 2, "matrix"))


def flatten_correlation_tensor(tensor: CorrelationTensor3) -> np.ndarray:
    """3x9 matrix with row index j and column index 3*i + k."""
    return np.transpose(tensor.m, (1, 0, 2)).reshape(3, 9)


def largest_singular_value(mat) -> float:
    """Largest singular value of a 2-D real array-like, from the top
    eigenvalue of its Gram matrix: cheaper and more robust than an SVD."""
    mat = _array(mat, None, "matrix")
    if mat.ndim != 2 or not mat.size:
        raise InvalidArityError(f"expected a 2-D matrix, got shape {mat.shape}")
    if mat.dtype.kind not in "iuf" or not np.isfinite(mat).all():
        raise DomainError("matrix entries must be finite real numbers")
    gram = mat.astype(float) @ mat.T
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def svetlichny_upper_bound(rho: DensityMatrix) -> float:
    """Settings-independent bound 4 * lambda_1 on the Svetlichny value."""
    return correlation_tensor(rho)._upper_bound


def chsh_max(rho: DensityMatrix) -> float:
    """Maximal CHSH expectation 2*sqrt(mu_1 + mu_2) of a two-qubit state.

    mu_1, mu_2 are the two largest eigenvalues of T^t T for the pair
    correlation matrix T.  The result lies in [0, 2*sqrt(2)].
    """
    t = pair_correlation_matrix(rho).t
    mu = np.linalg.eigvalsh(t.T @ t)
    return 2.0 * math.sqrt(max(float(mu[-1] + mu[-2]), 0.0))

