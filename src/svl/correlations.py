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
from .qstate import DensityMatrix, _memo

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
        t = np.ascontiguousarray(self.t, dtype=float)
        if t.shape != (3, 3):
            raise InvalidArityError(f"expected a 3x3 matrix, got shape {t.shape}")
        if not np.max(np.abs(t)) <= 1.0 + _IMAG_TOL:
            raise DomainError("correlation matrix entries must lie in [-1, 1]")
        t.setflags(write=False)
        object.__setattr__(self, "t", t)


def _tensor_table() -> tuple[np.ndarray, np.ndarray]:
    """Gather indices and phases (8, 27) of correlation_tensor.

    Tr(rho O) is the sum over rows (a,b,c) and columns (d,e,f) of
    rho[abc,def] O[def,abc], and each Pauli matrix has one nonzero entry
    per column.  So for row abc and term ijk one column def survives, at
    flat index 8*abc + def of rho, with phase
    sigma_i[d,a] sigma_j[e,b] sigma_k[f,c].
    """
    rows = np.abs(PAULIS).argmax(axis=1)                  # d of sigma_p[:, a]
    phases = np.take_along_axis(PAULIS, rows[:, None], axis=1)[:, 0]
    a, b, c = (x[:, None] for x in np.unravel_index(np.arange(8), (2, 2, 2)))
    i, j, k = np.unravel_index(np.arange(27), (3, 3, 3))
    gather = 8 * np.arange(8)[:, None] + 4 * rows[i, a] + 2 * rows[j, b] + rows[k, c]
    phase = phases[i, a] * phases[j, b] * phases[k, c]
    gather.setflags(write=False)
    phase.setflags(write=False)
    return gather, phase


_GATHER, _PHASE = _tensor_table()


def correlation_tensor(rho: DensityMatrix) -> CorrelationTensor3:
    """All 27 values Tr(rho sigma_i x sigma_j x sigma_k).

    Each value is a sum of 8 phased entries of rho, gathered by
    _tensor_table and summed in row order.  The phases are exactly +-1 or
    +-i, so every product is exact and the sum matches the 4-operand
    einsum over rho and three Pauli matrices bit for bit.  The tensor is
    kept in the memo of rho's entries (qstate._memo), so every call on
    the same checked array, from any DensityMatrix and in any order,
    returns the one tensor; all keeps of a symmetry class share it.  Its
    4*lambda1 (CorrelationTensor3._upper_bound) and maximize_svetlichny's
    closed form (svetlichny._closed_form) are kept with it, so they are
    paid once per matrix too.  Entries without a memo (a view of another
    array) get a new tensor on every call.
    """
    if rho.num_qubits != 3:
        raise InvalidArityError(f"need a 3-qubit state, got {rho.num_qubits} qubits")
    memo = _memo(rho.entries)
    tensor = None if memo is None else memo.get("tensor")
    if tensor is None:
        m = (rho.entries.ravel()[_GATHER] * _PHASE).sum(axis=0).reshape(3, 3, 3)
        if np.abs(m.imag).max() > _IMAG_TOL:
            raise DomainError("correlation tensor has a non-real entry")
        tensor = CorrelationTensor3(m.real)
        if memo is not None:
            memo["tensor"] = tensor
    return tensor


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
    return correlation_tensor(rho)._upper_bound


def chsh_max(rho: DensityMatrix) -> float:
    """Maximal CHSH expectation 2*sqrt(mu_1 + mu_2) of a two-qubit state.

    mu_1, mu_2 are the two largest eigenvalues of T^t T for the pair
    correlation matrix T.  The result lies in [0, 2*sqrt(2)].
    """
    t = pair_correlation_matrix(rho).t
    mu = np.linalg.eigvalsh(t.T @ t)
    return 2.0 * math.sqrt(max(float(mu[-1] + mu[-2]), 0.0))

