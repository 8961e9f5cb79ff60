"""Qubit state constructors, density matrices, and pure-state reductions.

Basis convention: qubit 0 is the most-significant bit of the
computational-basis label, so for four qubits ``|1000>`` means the
first qubit is excited.  All state types are immutable after
construction and every operation here is a pure function.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError, InvalidArityError, NormalizationError

__all__ = [
    "PureState",
    "DensityMatrix",
    "StateSpec",
    "make_gghz",
    "make_ms",
    "make_wclass",
    "make_dicke",
    "to_density",
    "reduce_pure",
    "maximally_mixed",
]


# Largest qubit count of any state, checked before 2**n is computed: a
# 20-qubit state holds 16 MiB, and a huge 2**n cannot even be printed.
MAX_QUBITS = 20

# Entrywise tolerance for norms, Hermiticity and traces.
STRUCTURAL_TOL = 1e-12
# How far below zero the smallest eigenvalue of a density matrix may sit.
PSD_TOL = 1e-10
# Slack accepted on user-supplied coefficients before they are renormalized.
INPUT_NORMALIZATION_TOL = 1e-9

# Eigenvalue checks are skipped above this matrix dimension; producers of
# larger matrices (rank-one projectors, partial traces of valid states)
# preserve positivity by construction.
PSD_CHECK_MAX_DIM = 256

# Largest dense matrix to_density, maximally_mixed and reduce_pure build,
# in bytes, checked before allocating: 4**n complex entries, so n <= 12.
MAX_DENSE_BYTES = 256 * 2**20


def _check_qubits(n: int) -> None:
    if not 1 <= n <= MAX_QUBITS:
        raise InvalidArityError(f"num_qubits must be 1 to {MAX_QUBITS}, got {n}")


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized n-qubit state vector."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_qubits(self.num_qubits)
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.num_qubits,):
            raise InvalidArityError(
                f"expected {2**self.num_qubits} amplitudes for "
                f"{self.num_qubits} qubits, got shape {amps.shape}"
            )
        if not abs(np.linalg.norm(amps) - 1.0) <= STRUCTURAL_TOL:
            raise NormalizationError(
                f"amplitudes have norm {np.linalg.norm(amps)!r}, expected 1"
            )
        object.__setattr__(self, "amplitudes", _freeze(amps))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on n qubits."""

    num_qubits: int
    entries: np.ndarray

    def __post_init__(self):
        _check_qubits(self.num_qubits)
        dim = 2**self.num_qubits
        mat = np.ascontiguousarray(self.entries, dtype=complex)
        if mat.shape != (dim, dim):
            raise InvalidArityError(
                f"expected a {dim}x{dim} matrix for {self.num_qubits} qubits, "
                f"got shape {mat.shape}"
            )
        if not np.isfinite(mat).all():
            raise DomainError("matrix has a non-finite entry")
        # Written as "not (err <= tol)" so that NaN fails every check.
        if not np.abs(mat - mat.conj().T).max() <= STRUCTURAL_TOL:
            raise DomainError("matrix is not Hermitian within tolerance")
        trace = complex(mat.trace())
        if not (abs(trace.real - 1.0) <= STRUCTURAL_TOL and abs(trace.imag) <= STRUCTURAL_TOL):
            raise DomainError(f"trace is {trace!r}, expected 1")
        if dim <= PSD_CHECK_MAX_DIM:
            if not np.linalg.eigvalsh(mat)[0] >= -PSD_TOL:
                raise DomainError("matrix has a negative eigenvalue beyond tolerance")
        object.__setattr__(self, "entries", _freeze(mat))


def _normalized(amps: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(amps))
    if not abs(norm - 1.0) <= INPUT_NORMALIZATION_TOL:
        raise NormalizationError(f"coefficients have norm {norm!r}, expected 1")
    return amps / norm


def make_gghz(n: int, theta: float) -> PureState:
    """Generalized GHZ state cos(theta)|0...0> + sin(theta)|1...1>."""
    if not 3 <= n <= MAX_QUBITS:
        raise InvalidArityError(f"GGHZ state needs 3 to {MAX_QUBITS} qubits, got {n}")
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta!r}")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = math.cos(theta)
    amps[-1] = math.sin(theta)
    return PureState(n, _normalized(amps))


def make_ms(n: int, theta: float) -> PureState:
    """Generalized maximal-slice state.

    Amplitude 1/sqrt(2) on |0...0>, cos(theta)/sqrt(2) on |1...10> and
    sin(theta)/sqrt(2) on |1...11>.
    """
    if not 4 <= n <= MAX_QUBITS:
        raise InvalidArityError(f"MS state needs 4 to {MAX_QUBITS} qubits, got {n}")
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta!r}")
    amps = np.zeros(2**n, dtype=complex)
    s = 1.0 / math.sqrt(2.0)
    amps[0] = s
    amps[-2] = s * math.cos(theta)
    amps[-1] = s * math.sin(theta)
    return PureState(n, _normalized(amps))


def make_wclass(alpha: float, beta: float, gamma: float, delta: float, lam: float) -> PureState:
    """Four-qubit single-excitation state with an optional vacuum term.

    Amplitudes alpha, beta, gamma, delta on |1000>, |0100>, |0010>,
    |0001> and lam on |0000>.  Squared coefficients must sum to 1
    within 1e-9; the stored state is renormalized exactly.
    """
    amps = np.zeros(16, dtype=complex)
    amps[0b1000] = alpha
    amps[0b0100] = beta
    amps[0b0010] = gamma
    amps[0b0001] = delta
    amps[0b0000] = lam
    return PureState(4, _normalized(amps))


def make_dicke(n: int, m: int) -> PureState:
    """Symmetric equal superposition of all basis states with m zeros.

    The second argument counts zeros, not excitations: each term has m
    zeros and n - m ones, so make_dicke(4, 3) is the four-qubit W state
    and make_dicke(n, n) is |0...0>.
    """
    if not 0 <= m <= n <= MAX_QUBITS:
        raise InvalidArityError(f"need 0 <= m <= n <= {MAX_QUBITS}, got m={m}, n={n}")
    idx = np.arange(2**n)
    popcount = np.zeros(2**n, dtype=np.int64)
    for bit in range(n):
        popcount += (idx >> bit) & 1
    amps = np.zeros(2**n, dtype=complex)
    amps[popcount == n - m] = 1.0 / math.sqrt(comb(n, m))
    return PureState(n, amps)


def _check_dense(n: int) -> None:
    size = np.dtype(complex).itemsize * 4**n
    if size > MAX_DENSE_BYTES:
        raise InvalidArityError(
            f"a dense {n}-qubit density matrix takes {size / 2**20:.0f} MiB, "
            f"more than the {MAX_DENSE_BYTES // 2**20} MiB limit")


def to_density(psi: PureState) -> DensityMatrix:
    """Rank-one projector |psi><psi|."""
    _check_dense(psi.num_qubits)
    return DensityMatrix(psi.num_qubits, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def maximally_mixed(n: int) -> DensityMatrix:
    _check_qubits(n)
    _check_dense(n)
    dim = 2**n
    return DensityMatrix(n, np.eye(dim, dtype=complex) / dim)


def _check_keep(keep: Iterable[int], n: int) -> tuple[int, ...]:
    kept = tuple(int(q) for q in keep)
    if not kept:
        raise IndexError("keep must be nonempty")
    if any(q < 0 or q >= n for q in kept):
        raise IndexError(f"kept qubit indices must lie in [0, {n}), got {kept}")
    if any(a >= b for a, b in zip(kept, kept[1:])):
        raise IndexError(f"kept qubit indices must be strictly increasing, got {kept}")
    return kept


def reduce_pure(psi: PureState, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix of |psi><psi| on the kept qubits.

    Kept qubits stay in their original order.  The full projector is
    never formed: the cost is linear in the state-vector size, which
    matters for many-qubit sweeps.
    """
    n = psi.num_qubits
    kept = _check_keep(keep, n)
    _check_dense(len(kept))
    dim = 2 ** len(kept)
    # rho sums over the dropped qubits in any order.  numpy copies a
    # transposed array one stretch of its last axes at a time, so each run
    # of consecutive dropped qubits stays together and the longest goes
    # last (16 qubits: 150 us per copy instead of 250 us, 2-vCPU x86-64 VM).
    ends = (-1, *kept, n)
    runs = sorted((range(a + 1, b) for a, b in zip(ends, ends[1:])), key=len)
    dropped = tuple(q for run in runs for q in run)
    # The one array of the state's size: row i holds the real parts R_i,
    # then the imaginary parts S_i, of the amplitudes whose kept qubits
    # read i.  With a second one (a conjugate copy, say) glibc hands the
    # pages back after every call from 14 qubits up and faults them in
    # again on the next, which doubles the cost of a 16-qubit reduction.
    planes = psi.amplitudes.view(float).reshape((2,) * n + (2,))
    rows = np.transpose(planes, kept + (n,) + dropped).reshape(dim, -1)
    width = 2 ** len(dropped)
    real, imag = rows[:, :width], rows[:, width:]
    rho = np.empty((dim, dim), dtype=complex)
    # Re rho = R R^T + S S^T is rows @ rows.T, taken in two row blocks:
    # numpy sends a product of an array with its own transpose to BLAS
    # syrk, which is twice as slow on these short, wide operands (8 x 2^14
    # floats: 143 us against 72 us on a 2-vCPU x86-64 VM, OpenBLAS 0.3).
    half = dim // 2
    rho.real[:half] = rows[:half] @ rows.T
    rho.real[half:] = rows[half:] @ rows.T
    # Im rho = S R^T - R S^T, antisymmetric by construction.
    cross = imag @ real.T
    rho.imag = cross - cross.T
    return DensityMatrix(len(kept), rho)


_WCLASS_KEYS = ("alpha", "beta", "gamma", "delta", "lambda")
# JSON fields of each family besides "family"; "n" is the qubit count,
# which W-class specs leave implicit (four).
_FIELDS = {
    "GGHZ": ("n", "theta"),
    "MS": ("n", "theta"),
    "WCLASS": _WCLASS_KEYS,
    "DICKE": ("n", "m"),
    "CUSTOM": ("n", "amplitudes"),
}
_FAMILIES = tuple(_FIELDS)


def _check_fields(family: object, given: set, implicit: set = frozenset()) -> None:
    if family not in _FAMILIES:
        raise DomainError(f"unknown family {family!r}, expected one of {_FAMILIES}")
    expected = set(_FIELDS[family]) - implicit
    unknown = given - expected
    if unknown:
        raise DomainError(f"unexpected fields for {family}: {sorted(unknown)}")
    missing = expected - given
    if missing:
        raise DomainError(f"missing fields for {family}: {sorted(missing)}")


def _real(name: str, value: object) -> float:
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise DomainError(f"field {name!r} must be a real number, got {value!r}")


def _integer(name: str, value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value % 1 != 0:
        raise DomainError(f"field {name!r} must be an integer, got {value!r}")
    return int(value)


def _amplitudes(value: object) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or not all(
            isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in value):
        raise DomainError(f"field 'amplitudes' must be a list of [re, im] pairs, "
                          f"got {value!r}")
    return np.array([complex(_real("amplitudes", re), _real("amplitudes", im))
                     for re, im in value], dtype=complex)


@dataclass(frozen=True, eq=False)
class StateSpec:
    """Serializable description of a state family plus its parameters.

    JSON shapes accepted by from_json (field "n" is the qubit count):

      {"family": "GGHZ", "n": 4, "theta": 0.7853981633974483}
      {"family": "MS", "n": 4, "theta": 0.7853981633974483}
      {"family": "WCLASS", "alpha": a, "beta": b, "gamma": g,
       "delta": d, "lambda": l}
      {"family": "DICKE", "n": 4, "m": 3}
      {"family": "CUSTOM", "n": 3, "amplitudes": [[re, im], ...]}

    Construction checks the family, field names and field types, then
    builds the state with the family constructor, which owns every range,
    arity and normalization check.  params are kept as given.
    """

    family: str
    num_qubits: int
    params: Mapping[str, object]
    _pure: PureState = field(init=False, repr=False)

    def __post_init__(self):
        _check_fields(self.family, set(self.params), implicit={"n"})
        n, p = _integer("n", self.num_qubits), self.params
        if self.family == "GGHZ":
            psi = make_gghz(n, _real("theta", p["theta"]))
        elif self.family == "MS":
            psi = make_ms(n, _real("theta", p["theta"]))
        elif self.family == "WCLASS":
            psi = make_wclass(*(_real(k, p[k]) for k in _WCLASS_KEYS))
        elif self.family == "DICKE":
            psi = make_dicke(n, _integer("m", p["m"]))
        else:
            psi = PureState(n, _normalized(_amplitudes(p["amplitudes"])))
        if psi.num_qubits != n:
            raise InvalidArityError(f"{self.family} states have {psi.num_qubits} "
                                    f"qubits, got n={n}")
        object.__setattr__(self, "num_qubits", n)
        object.__setattr__(self, "_pure", psi)

    def to_pure(self) -> PureState:
        return self._pure

    def to_dict(self) -> dict:
        out: dict[str, object] = {"family": self.family}
        if self.family != "WCLASS":
            out["n"] = self.num_qubits
        if self.family == "CUSTOM":
            out["amplitudes"] = [[float(c.real), float(c.imag)]
                                 for c in self.to_pure().amplitudes]
        else:
            out.update({k: v for k, v in self.params.items()})
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "StateSpec":
        if not isinstance(data, Mapping):
            raise DomainError("state JSON must be an object")
        if "family" not in data:
            raise DomainError("state JSON must carry a 'family' field")
        _check_fields(data["family"], set(data) - {"family"})
        params = {k: data[k] for k in data if k not in ("family", "n")}
        return cls(data["family"], data.get("n", 4), params)

    @classmethod
    def from_json(cls, text: str) -> "StateSpec":
        try:
            data = json.loads(text)
        except ValueError as exc:  # also an integer literal too long to convert
            raise DomainError(f"malformed state JSON: {exc}") from exc
        return cls.from_dict(data)
