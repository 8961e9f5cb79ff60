"""Qubit state constructors, density matrices, and pure-state reductions.

Basis convention: qubit 0 is the most-significant bit of the
computational-basis label, so for four qubits ``|1000>`` means the
first qubit is excited.  All state types are immutable after
construction and every operation here is a pure function.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import InitVar, dataclass, field
from math import comb
from typing import Callable, Iterable, Mapping

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


def _bounded_int(name: str, x: object, low: int, high: float = math.inf,
                 error: type[Exception] = DomainError) -> int:
    """x as an int if it is an integer (numpy too, not a bool) in [low, high].

    Built on operator.index, not numbers.Integral: the ABC check makes
    _check_keep, run on every reduce_pure, 2.5 times slower.
    """
    try:
        k = operator.index(x)
    except TypeError:
        k = None
    if k is None or isinstance(x, bool) or not low <= k <= high:
        # Python refuses to print an integer of more than 4300 digits.
        got = repr(x) if k is None or k.bit_length() <= 64 else f"a {k.bit_length()}-bit integer"
        raise error(f"need an integer {name} in [{low}, {high}], got {got}")
    return k


def _array(x, dtype, what: str) -> np.ndarray:
    """x as a contiguous array of dtype (None: numpy's choice), else
    InvalidArityError for a ragged x and DomainError for another entry."""
    try:
        return np.ascontiguousarray(x, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        try:
            np.asarray(x)
        except ValueError:
            raise InvalidArityError(f"{what} must form an array, got a ragged sequence") from None
        raise DomainError(f"{what} must be numbers") from None


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized n-qubit state vector."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = _bounded_int("num_qubits", self.num_qubits, 1, MAX_QUBITS, InvalidArityError)
        object.__setattr__(self, "num_qubits", n)
        amps = _array(self.amplitudes, complex, "amplitudes")
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

    def __reduce__(self):
        # Unpickling rebuilds through the constructor, so the copy is
        # checked and frozen again and starts without a class table.
        return type(self), (self.num_qubits, self.amplitudes)

    @functools.cached_property
    def _classes(self) -> tuple[tuple[int, ...], dict[tuple[int, ...], DensityMatrix]]:
        """The run starts of the state and the reduced matrix of each
        class's first keep, keyed by class representative."""
        return _run_starts(self), {}


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on n qubits.

    The entries are stored read-only: a contiguous complex array given as
    entries is frozen in place, anything else is copied first.  A matrix
    passes the full checks and gets its own memo (_derived), unless
    reduce_pure hands it a class's checked entries and memo (_shared).
    Writing to a checked array (through setflags or a view taken before
    the freeze) and freezing it again is unsupported.
    """

    num_qubits: int
    entries: np.ndarray
    _shared: InitVar[dict | None] = field(default=None, kw_only=True)

    def __post_init__(self, _shared):
        n = _bounded_int("num_qubits", self.num_qubits, 1, MAX_QUBITS, InvalidArityError)
        object.__setattr__(self, "num_qubits", n)
        dim = 2**self.num_qubits
        mat = _array(self.entries, complex, "entries")
        if mat.shape != (dim, dim):
            raise InvalidArityError(
                f"expected a {dim}x{dim} matrix for {self.num_qubits} qubits, "
                f"got shape {mat.shape}"
            )
        if _shared is None or mat.flags.writeable:
            _check_density(mat)
            _freeze(mat)
            _shared = {}
        object.__setattr__(self, "entries", mat)
        # Not under the InitVar's name: dataclasses.replace would pass it on.
        object.__setattr__(self, "_memo", _shared)

    def __reduce__(self):
        # As for PureState: unpickling checks and freezes the copy again.
        return type(self), (self.num_qubits, self.entries)


def _check_density(mat: np.ndarray) -> None:
    """DomainError unless the square matrix is finite, Hermitian, of unit
    trace and (up to PSD_CHECK_MAX_DIM) positive semidefinite."""
    if not np.isfinite(mat).all():
        raise DomainError("matrix has a non-finite entry")
    # Written as "not (err <= tol)" so that NaN fails every check.
    if not np.abs(mat - mat.conj().T).max() <= STRUCTURAL_TOL:
        raise DomainError("matrix is not Hermitian within tolerance")
    trace = complex(mat.trace())
    if not (abs(trace.real - 1.0) <= STRUCTURAL_TOL and abs(trace.imag) <= STRUCTURAL_TOL):
        raise DomainError(f"trace is {trace!r}, expected 1")
    if len(mat) <= PSD_CHECK_MAX_DIM:
        if not np.linalg.eigvalsh(mat)[0] >= -PSD_TOL:
            raise DomainError("matrix has a negative eigenvalue beyond tolerance")


def _derived(rho: DensityMatrix, key: str, build: Callable[[], object]):
    """rho's memo[key], built by build() on the first call: the one cache
    of what a matrix alone determines, its tensor with its 4*lambda1
    (correlation_tensor) and its closed form or its refusal
    (maximize_svetlichny), shared by the keeps of a class (reduce_pure).
    A view or an array made writeable again builds on every call."""
    if rho.entries.base is not None or rho.entries.flags.writeable:
        return build()
    if key not in rho._memo:  # a kept None counts
        rho._memo[key] = build()
    return rho._memo[key]


def _normalized(amps: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(amps))
    if not abs(norm - 1.0) <= INPUT_NORMALIZATION_TOL:
        raise NormalizationError(f"coefficients have norm {norm!r}, expected 1")
    return amps / norm


def _finite(name: str, x: object) -> None:
    """DomainError unless x is a finite real number (numpy too, not a bool)."""
    if not math.isfinite(_real(name, x)):
        raise DomainError(f"{name} must be finite, got {x!r}")


def make_gghz(n: int, theta: float) -> PureState:
    """Generalized GHZ state cos(theta)|0...0> + sin(theta)|1...1>."""
    n = _bounded_int("n", n, 3, MAX_QUBITS, InvalidArityError)
    _finite("theta", theta)
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = math.cos(theta)
    amps[-1] = math.sin(theta)
    return PureState(n, _normalized(amps))


def make_ms(n: int, theta: float) -> PureState:
    """Generalized maximal-slice state.

    Amplitude 1/sqrt(2) on |0...0>, cos(theta)/sqrt(2) on |1...10> and
    sin(theta)/sqrt(2) on |1...11>.
    """
    n = _bounded_int("n", n, 4, MAX_QUBITS, InvalidArityError)
    _finite("theta", theta)
    amps = np.zeros(2**n, dtype=complex)
    s = 1.0 / math.sqrt(2.0)
    amps[0] = s
    amps[-2] = s * math.cos(theta)
    amps[-1] = s * math.sin(theta)
    return PureState(n, _normalized(amps))


def _wclass_amplitudes(*coefficients: object) -> np.ndarray:
    amps = np.zeros(16, dtype=complex)
    amps[[8, 4, 2, 1, 0]] = [_real(k, c) for k, c in zip(_WCLASS_KEYS, coefficients)]
    return _normalized(amps)


def make_wclass(alpha: float, beta: float, gamma: float, delta: float, lam: float) -> PureState:
    """Four-qubit single-excitation state with an optional vacuum term.

    Real amplitudes alpha, beta, gamma, delta on |1000>, |0100>, |0010>,
    |0001> and lam on |0000>.  Squared coefficients must sum to 1
    within 1e-9; the stored state is renormalized exactly.
    """
    return PureState(4, _wclass_amplitudes(alpha, beta, gamma, delta, lam))


def make_dicke(n: int, m: int) -> PureState:
    """Symmetric equal superposition of all basis states with m zeros.

    The second argument counts zeros, not excitations: each term has m
    zeros and n - m ones, so make_dicke(4, 3) is the four-qubit W state
    and make_dicke(n, n) is |0...0>.
    """
    n = _bounded_int("n", n, 1, MAX_QUBITS, InvalidArityError)
    m = _bounded_int("m", m, 0, n, InvalidArityError)
    ones = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        ones = np.concatenate([ones, ones + 1])
    amps = np.zeros(2**n, dtype=complex)
    amps[ones == n - m] = 1.0 / math.sqrt(comb(n, m))
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
    n = _bounded_int("num_qubits", n, 1, MAX_QUBITS, InvalidArityError)
    _check_dense(n)
    dim = 2**n
    return DensityMatrix(n, np.eye(dim, dtype=complex) / dim)


def _check_keep(keep: Iterable[int], n: int) -> tuple[int, ...]:
    try:
        qubits = iter(keep)
    except TypeError:
        raise IndexError("keep must be an iterable of qubit indices, "
                         f"got {type(keep).__name__}") from None
    kept = tuple(_bounded_int("kept qubit index", q, 0, n - 1, IndexError) for q in qubits)
    if not kept:
        raise IndexError("keep must be nonempty")
    if any(a >= b for a, b in zip(kept, kept[1:])):
        raise IndexError(f"kept qubit indices must be strictly increasing, got {kept}")
    return kept


def reduce_pure(psi: PureState, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix of |psi><psi| on the kept qubits.

    Kept qubits stay in their original order.  The full projector is
    never formed: the cost is linear in the state-vector size, which
    matters for many-qubit sweeps.  Keeps related by a permutation of
    qubits that leaves psi unchanged give the same matrix, so each such
    class of keeps of at most three qubits is reduced once, on its
    representative; the symmetry is found on a state's first reduction,
    and the state keeps it and the matrices (PureState._classes).  Each
    call returns a new DensityMatrix, but the keeps of a class share its
    read-only entries and their memo (_derived), checked once.
    """
    n = psi.num_qubits
    kept = _check_keep(keep, n)
    _check_dense(len(kept))
    if len(kept) > _SHARED_MAX_KEPT:
        return DensityMatrix(len(kept), _reduce(psi, kept))
    start, reduced = psi._classes
    rep = _representative(kept, start)
    first = reduced.get(rep)
    if first is None:
        first = reduced[rep] = DensityMatrix(len(kept), _reduce(psi, rep))
        return first
    return DensityMatrix(len(kept), first.entries, _shared=first._memo)


def _reduce(psi: PureState, kept: tuple[int, ...]) -> np.ndarray:
    """The entries of the reduced density matrix of psi on kept."""
    n = psi.num_qubits
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
    return rho


# Keeps of up to this many qubits (8x8 matrices) share their reductions;
# a larger one would keep a matrix of up to 256 MiB past its caller.
_SHARED_MAX_KEPT = 3


def _run_starts(psi: PureState) -> tuple[int, ...]:
    """start[q], the first qubit of q's run.

    A run is a maximal stretch of consecutive qubits whose adjacent
    transpositions all leave the amplitudes bit for bit unchanged, so psi
    is invariant under every permutation of the run.  Transposing q - 1
    and q swaps the |..01..> and |..10..> quarters of the state vector.
    """
    bits = psi.amplitudes.view(np.uint64)
    start = [0]
    for q in range(1, psi.num_qubits):
        quarters = bits.reshape(2 ** (q - 1), 2, 2, -1)
        a, b = quarters[:, 0, 1], quarters[:, 1, 0]
        # A generic state differs in the first entries already, so it
        # costs O(n) to test rather than O(n 2^n).
        same = np.array_equal(a[0, :8], b[0, :8]) and np.array_equal(a, b)
        start.append(start[-1] if same else q)
    return tuple(start)


def _representative(kept: tuple[int, ...], start: tuple[int, ...]) -> tuple[int, ...]:
    """The keep of kept's class whose qubits open their runs, in order."""
    rep: list[int] = []
    for q in kept:
        rep.append(rep[-1] + 1 if rep and rep[-1] >= start[q] else start[q])
    return tuple(rep)


_WCLASS_KEYS = ("alpha", "beta", "gamma", "delta", "lambda")
# Each family's JSON fields besides "family", and its builder from the
# qubit count n and the params; "n" is the qubit count, which W-class
# specs leave implicit (four).
_FAMILIES = {
    "GGHZ": (("n", "theta"), lambda n, p: make_gghz(n, p["theta"])),
    "MS": (("n", "theta"), lambda n, p: make_ms(n, p["theta"])),
    "WCLASS": (_WCLASS_KEYS, lambda n, p: make_wclass(*(p[k] for k in _WCLASS_KEYS))),
    "DICKE": (("n", "m"), lambda n, p: make_dicke(n, _integer("m", p["m"]))),
    "CUSTOM": (("n", "amplitudes"),
               lambda n, p: PureState(n, _normalized(_amplitudes(p["amplitudes"])))),
}


def _check_fields(family: object, given: set, implicit: set = frozenset()) -> None:
    # A tuple, not the dict: an unhashable family must fail the test too.
    names = tuple(_FAMILIES)
    if family not in names:
        raise DomainError(f"unknown family {family!r}, expected one of {names}")
    expected = set(_FAMILIES[family][0]) - implicit
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
            raise DomainError(f"field {name!r} is too large for a float") from None
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
    """Description of a state family plus its parameters.

    JSON shapes accepted by from_dict (field "n" is the qubit count):

      {"family": "GGHZ", "n": 4, "theta": 0.7853981633974483}
      {"family": "MS", "n": 4, "theta": 0.7853981633974483}
      {"family": "WCLASS", "alpha": a, "beta": b, "gamma": g,
       "delta": d, "lambda": l}
      {"family": "DICKE", "n": 4, "m": 3}
      {"family": "CUSTOM", "n": 3, "amplitudes": [[re, im], ...]}

    Construction checks the family and field names, _FAMILIES' builder
    their values.  params is a copy of the mapping given, values as given.
    """

    family: str
    num_qubits: int
    params: Mapping[str, object]
    _pure: PureState = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.params, Mapping):
            raise DomainError(f"params must be a mapping, got {type(self.params).__name__}")
        object.__setattr__(self, "params", dict(self.params))
        _check_fields(self.family, set(self.params), implicit={"n"})
        n = _integer("n", self.num_qubits)
        psi = _FAMILIES[self.family][1](n, self.params)
        if psi.num_qubits != n:
            raise InvalidArityError(f"{self.family} states have {psi.num_qubits} "
                                    f"qubits, got n={n}")
        object.__setattr__(self, "num_qubits", n)
        object.__setattr__(self, "_pure", psi)

    def to_pure(self) -> PureState:
        return self._pure

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "StateSpec":
        if not isinstance(data, Mapping):
            raise DomainError("state JSON must be an object")
        if "family" not in data:
            raise DomainError("state JSON must carry a 'family' field")
        _check_fields(data["family"], set(data) - {"family"})
        params = {k: data[k] for k in data if k not in ("family", "n")}
        return cls(data["family"], data.get("n", 4), params)
