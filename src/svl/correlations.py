"""Pauli correlation tensors and the spectral bounds built on them.

The three-qubit tensor m[i, j, k] = Tr(rho sigma_i x sigma_j x sigma_k)
is flattened to a 3x9 matrix with the middle index as the row; its
largest singular value lambda_1 gives the settings-independent bound
4 * lambda_1 on the Svetlichny value.  A module import self-check pins
the flattening convention to the known GHZ value 4*sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidArityError
from .qstate import DensityMatrix

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


@dataclass(frozen=True, eq=False)
class CorrelationTensor3:
    """Real 3x3x3 array of triple-Pauli expectation values."""

    m: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(self.m, dtype=float)
        if m.shape != (3, 3, 3):
            raise InvalidArityError(f"expected a 3x3x3 tensor, got shape {m.shape}")
        if not np.max(np.abs(m)) <= 1.0 + _IMAG_TOL:
            raise DomainError("correlation tensor entries must lie in [-1, 1]")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)


@dataclass(frozen=True, eq=False)
class CorrelationMatrix2:
    """Real 3x3 matrix of pair-Pauli expectation values."""

    t: np.ndarray

    def __post_init__(self):
        t = np.ascontiguousarray(self.t, dtype=float)
        if t.shape != (3, 3):
            raise InvalidArityError(f"expected a 3x3 matrix, got shape {t.shape}")
        if not np.max(np.abs(t)) <= 1.0 + _IMAG_TOL:
            raise DomainError("correlation matrix entries must lie in [-1, 1]")
        t.setflags(write=False)
        object.__setattr__(self, "t", t)


def correlation_tensor(rho: DensityMatrix) -> CorrelationTensor3:
    """All 27 values Tr(rho sigma_i x sigma_j x sigma_k)."""
    if rho.num_qubits != 3:
        raise InvalidArityError(f"need a 3-qubit state, got {rho.num_qubits} qubits")
    r = rho.entries.reshape(2, 2, 2, 2, 2, 2)
    # Tr(rho O) = sum over rows (a,b,c) and columns (d,e,f) of
    # rho[abc,def] * O[def,abc].
    m = np.einsum("abcdef,ida,jeb,kfc->ijk", r, PAULIS, PAULIS, PAULIS)
    if np.max(np.abs(m.imag)) > _IMAG_TOL:
        raise DomainError("correlation tensor has a non-real entry")
    return CorrelationTensor3(m.real)


def pair_correlation_matrix(rho: DensityMatrix) -> CorrelationMatrix2:
    """All 9 values Tr(rho sigma_i x sigma_j) for a two-qubit state."""
    if rho.num_qubits != 2:
        raise InvalidArityError(f"need a 2-qubit state, got {rho.num_qubits} qubits")
    r = rho.entries.reshape(2, 2, 2, 2)
    t = np.einsum("abcd,ica,jdb->ij", r, PAULIS, PAULIS)
    if np.max(np.abs(t.imag)) > _IMAG_TOL:
        raise DomainError("correlation matrix has a non-real entry")
    return CorrelationMatrix2(t.real)


def flatten_correlation_tensor(tensor: CorrelationTensor3) -> np.ndarray:
    """3x9 matrix with row index j and column index 3*i + k."""
    return np.transpose(tensor.m, (1, 0, 2)).reshape(3, 9)


def largest_singular_value(mat: np.ndarray) -> float:
    # The Gram matrix is 3x3 symmetric, so a direct eigendecomposition is
    # cheaper and more robust than a general SVD.
    gram = mat @ mat.T
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def svetlichny_upper_bound(rho: DensityMatrix) -> float:
    """Settings-independent bound 4 * lambda_1 on the Svetlichny value."""
    return 4.0 * largest_singular_value(
        flatten_correlation_tensor(correlation_tensor(rho))
    )


def chsh_max(rho: DensityMatrix) -> float:
    """Maximal CHSH expectation 2*sqrt(mu_1 + mu_2) of a two-qubit state.

    mu_1, mu_2 are the two largest eigenvalues of T^t T for the pair
    correlation matrix T.  The result lies in [0, 2*sqrt(2)].
    """
    t = pair_correlation_matrix(rho).t
    mu = np.linalg.eigvalsh(t.T @ t)
    return 2.0 * math.sqrt(max(float(mu[-1] + mu[-2]), 0.0))


def _flattening_self_check() -> None:
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1.0 / math.sqrt(2.0)
    rho = DensityMatrix(3, np.outer(ghz, ghz.conj()))
    bound = svetlichny_upper_bound(rho)
    if abs(bound - 4.0 * math.sqrt(2.0)) > 1e-9:
        raise RuntimeError(
            "correlation-tensor flattening convention broken: "
            f"GHZ bound is {bound!r}, expected 4*sqrt(2)"
        )


_flattening_self_check()
