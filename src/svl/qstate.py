"""Qubit state constructors, density matrices, and partial trace.

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

from .config import DEFAULT_TOLERANCES, PSD_CHECK_MAX_DIM
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
    "partial_trace",
    "reduce_pure",
    "maximally_mixed",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized n-qubit state vector."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.num_qubits < 1:
            raise InvalidArityError("num_qubits must be a positive integer")
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.num_qubits,):
            raise InvalidArityError(
                f"expected {2**self.num_qubits} amplitudes for "
                f"{self.num_qubits} qubits, got shape {amps.shape}"
            )
        if not abs(np.linalg.norm(amps) - 1.0) <= DEFAULT_TOLERANCES.structural:
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
        if self.num_qubits < 1:
            raise InvalidArityError("num_qubits must be a positive integer")
        dim = 2**self.num_qubits
        mat = np.ascontiguousarray(self.entries, dtype=complex)
        if mat.shape != (dim, dim):
            raise InvalidArityError(
                f"expected a {dim}x{dim} matrix for {self.num_qubits} qubits, "
                f"got shape {mat.shape}"
            )
        tol = DEFAULT_TOLERANCES
        # Written as "not (err <= tol)" so that NaN fails every check.
        if not np.max(np.abs(mat - mat.conj().T)) <= tol.structural:
            raise DomainError("matrix is not Hermitian within tolerance")
        trace = np.trace(mat)
        if not (abs(trace.real - 1.0) <= tol.structural and abs(trace.imag) <= tol.structural):
            raise DomainError(f"trace is {trace!r}, expected 1")
        if dim <= PSD_CHECK_MAX_DIM:
            if not np.linalg.eigvalsh(mat)[0] >= -tol.psd:
                raise DomainError("matrix has a negative eigenvalue beyond tolerance")
        object.__setattr__(self, "entries", _freeze(mat))


def _normalized(amps: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(amps)
    if not abs(norm - 1.0) <= DEFAULT_TOLERANCES.input_normalization:
        raise NormalizationError(f"coefficients have norm {norm!r}, expected 1")
    return amps / norm


def make_gghz(n: int, theta: float) -> PureState:
    """Generalized GHZ state cos(theta)|0...0> + sin(theta)|1...1>."""
    if n < 3:
        raise InvalidArityError(f"GGHZ state needs at least 3 qubits, got {n}")
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
    if n < 4:
        raise InvalidArityError(f"MS state needs at least 4 qubits, got {n}")
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
    if not 0 <= m <= n:
        raise InvalidArityError(f"need 0 <= m <= n, got m={m}, n={n}")
    idx = np.arange(2**n)
    popcount = np.zeros(2**n, dtype=np.int64)
    for bit in range(n):
        popcount += (idx >> bit) & 1
    amps = np.zeros(2**n, dtype=complex)
    amps[popcount == n - m] = 1.0 / math.sqrt(comb(n, m))
    return PureState(n, amps)


def to_density(psi: PureState) -> DensityMatrix:
    """Rank-one projector |psi><psi|."""
    return DensityMatrix(psi.num_qubits, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def maximally_mixed(n: int) -> DensityMatrix:
    if n < 1:
        raise InvalidArityError("num_qubits must be a positive integer")
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


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix on the kept qubits, original order preserved."""
    n = rho.num_qubits
    kept = _check_keep(keep, n)
    t = rho.entries.reshape((2,) * (2 * n))
    remaining = n
    # Trace out discarded qubits from the highest index down so that the
    # axis numbering of lower qubits stays valid.
    for q in sorted(set(range(n)) - set(kept), reverse=True):
        t = np.trace(t, axis1=q, axis2=remaining + q)
        remaining -= 1
    k = len(kept)
    return DensityMatrix(k, t.reshape(2**k, 2**k))


def reduce_pure(psi: PureState, keep: Iterable[int]) -> DensityMatrix:
    """Partial trace of |psi><psi| without forming the full projector.

    Equivalent to partial_trace(to_density(psi), keep) but linear in the
    state-vector size, which matters for many-qubit sweeps.
    """
    n = psi.num_qubits
    kept = _check_keep(keep, n)
    dropped = tuple(q for q in range(n) if q not in kept)
    t = psi.amplitudes.reshape((2,) * n)
    a = np.transpose(t, kept + dropped).reshape(2 ** len(kept), -1)
    return DensityMatrix(len(kept), a @ a.conj().T)


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
        except json.JSONDecodeError as exc:
            raise DomainError(f"malformed state JSON: {exc}") from exc
        return cls.from_dict(data)
