"""Svetlichny operator construction, evaluation, and maximization.

The operator for settings (a, a', b, b', c, c') is

    S = A((B + B')C + (B - B')C') + A'((B - B')C - (B + B')C')

with each factor a Bloch observable v . sigma.  Expectation values are
multilinear in the six unit vectors, which the optimizer and the grid
oracle both exploit through the correlation tensor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .correlations import PAULIS, correlation_tensor
from .errors import DomainError, InvalidArityError
from .qstate import DensityMatrix

__all__ = [
    "BlochVector",
    "SvetlichnySettings",
    "SvetlichnyMaximum",
    "OptimizerOptions",
    "observable",
    "svetlichny_operator",
    "svetlichny_value",
    "maximize_svetlichny",
    "svetlichny_grid_search",
    "lagrange_max",
]

@dataclass(frozen=True)
class BlochVector:
    """Measurement direction given by polar and azimuthal angles."""

    theta: float
    phi: float = 0.0

    @property
    def cartesian(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array([st * math.cos(self.phi), st * math.sin(self.phi),
                         math.cos(self.theta)])

    @classmethod
    def from_cartesian(cls, v) -> "BlochVector":
        v = np.asarray(v, dtype=float)
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > 1e-9:
            raise DomainError(f"direction has norm {norm!r}, expected 1")
        v = v / norm
        # atan2 of the transverse radius stays accurate near the poles,
        # where acos(z) would flush small x, y components to zero.
        return cls(math.atan2(math.hypot(v[0], v[1]), v[2]),
                   math.atan2(v[1], v[0]))


@dataclass(frozen=True)
class SvetlichnySettings:
    """Six measurement directions, two per party."""

    a: BlochVector
    a_p: BlochVector
    b: BlochVector
    b_p: BlochVector
    c: BlochVector
    c_p: BlochVector

    def angles(self) -> np.ndarray:
        out = np.empty(12)
        for k, v in enumerate((self.a, self.a_p, self.b, self.b_p, self.c, self.c_p)):
            out[2 * k] = v.theta
            out[2 * k + 1] = v.phi
        return out

    def to_dict(self) -> dict:
        return {
            name: {"theta": v.theta, "phi": v.phi}
            for name, v in zip(("a", "a_p", "b", "b_p", "c", "c_p"),
                               (self.a, self.a_p, self.b, self.b_p, self.c, self.c_p))
        }


def observable(v: BlochVector) -> np.ndarray:
    """Traceless Hermitian 2x2 matrix v . sigma with eigenvalues +-1."""
    return np.einsum("i,ijk->jk", v.cartesian, PAULIS)


def _kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """np.kron(np.kron(a, b), c) of 2x2 matrices, by the same products."""
    return (a[:, None, None, :, None, None] * b[:, None, None, :, None]
            * c[:, None, None, :]).reshape(8, 8)


def svetlichny_operator(s: SvetlichnySettings) -> np.ndarray:
    """Hermitian 8x8 Svetlichny operator for the given settings."""
    A, Ap = observable(s.a), observable(s.a_p)
    B, Bp = observable(s.b), observable(s.b_p)
    C, Cp = observable(s.c), observable(s.c_p)
    d = B + Bp
    dp = B - Bp
    return (_kron3(A, d, C) + _kron3(A, dp, Cp)
            + _kron3(Ap, dp, C) - _kron3(Ap, d, Cp))


def svetlichny_value(rho: DensityMatrix, s: SvetlichnySettings) -> float:
    """Expectation Tr(S rho); always within [-4*sqrt(2), 4*sqrt(2)]."""
    if rho.num_qubits != 3:
        raise InvalidArityError(f"need a 3-qubit state, got {rho.num_qubits} qubits")
    val = complex(np.trace(svetlichny_operator(s) @ rho.entries))
    if abs(val.imag) > 1e-10:
        raise DomainError(f"expectation has imaginary residue {val.imag!r}")
    return val.real


# S is the sum over x, y, z in {0, 1} of _SIGN[x, y, z] X_x Y_y Z_z, where
# index 1 picks a party's primed setting: a term is negative when two or
# more of its settings are primed.
_SIGN = np.array([[[1.0, 1.0], [1.0, -1.0]], [[1.0, -1.0], [-1.0, -1.0]]])

# A coefficient vector at most this long keeps its old direction; such a
# party contributes at most twice this much to the value.
_ZERO_COEFFICIENT = 1e-12

# Step lengths tried along each Newton direction, longest first.
_STEPS = 0.5 ** np.arange(8)

# Curvatures at most this share of the largest in size count as flat, and
# the Newton step does not move along them.
_FLAT = 1e-10


# Constant matrices of the Newton step: the 18x18 identity, the 6x6
# identity shaped to broadcast against the (R, 6, 3, 2) tangent frames,
# and the three coordinate axes.
_EYE18 = np.eye(18)
_EYE6_FRAMES = np.eye(6)[:, None, :, None]
_AXES = np.eye(3)

# The (p, q, s) index order of the Hessian block of parties p and q,
# contracted with party s.
_BLOCKS = ((0, 1, 2), (0, 2, 1), (1, 2, 0))


def _operands(m: np.ndarray):
    """The value as a trilinear form of the parties' pairs (a, a'), (b, b'),
    (c, c'), each flattened to 6 entries: form[x i, y j, z k] =
    _SIGN[x, y, z] m[i, j, k].

    Returns the form with each party's axis first (for _coefficients) and
    transposed to each order of _BLOCKS (for _newton_step).  All are views
    of one array: einsum follows the strides it is given, so contiguous
    copies can sum in another order and change the last bits.
    """
    form = (_SIGN[:, None, :, None, :, None] * m[None, :, None, :, None, :]).reshape(6, 6, 6)
    return (tuple(np.moveaxis(form, party, 0) for party in range(3)),
            tuple(np.transpose(form, order) for order in _BLOCKS))


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis of length 3, kept as an axis: the
    products and sums of np.linalg.norm(x, axis=-1, keepdims=True), in its
    order."""
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    return np.sqrt(x0 * x0 + x1 * x1 + x2 * x2)[..., None]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross over the last axis, by its products and differences."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), axis=-1)


def _coefficients(forms: tuple[np.ndarray, ...], v: np.ndarray,
                  party: int) -> np.ndarray:
    """Coefficient vectors of one party's two settings, the others fixed.

    forms comes from _operands, and v holds unit vectors (a, a', b, b',
    c, c') of shape (R, 6, 3).  The value of restart r is the sum over x
    of v[r, 2*party + x] . out[r, x], so out[r, x] / |out[r, x]| is the
    best setting x of that party.  Each restart's result is a sum over
    its own entries, in an order that does not depend on the batch.
    """
    first, second = (k for k in range(3) if k != party)
    pairs = v.reshape(len(v), 3, 6)
    return np.einsum("ijk,rj,rk->ri", forms[party],
                     pairs[:, first], pairs[:, second]).reshape(-1, 2, 3)


def _sweep(forms: tuple[np.ndarray, ...], v: np.ndarray):
    """One see-saw sweep: (a, a'), (b, b') and (c, c') are set in turn to
    their normalized coefficient vectors, which never lowers the value (up
    to the near-zero coefficients that keep their direction).  Returns the
    new directions and their value."""
    v = v.copy()
    for party in range(3):
        coef = _coefficients(forms, v, party)
        norm = _norm(coef)
        pair = v[:, 2 * party:2 * party + 2]
        pair[...] = np.where(norm > _ZERO_COEFFICIENT,
                             coef / np.maximum(norm, _ZERO_COEFFICIENT), pair)
    return v, (pair * coef).sum(axis=(1, 2))


def _newton_step(blocks: tuple[np.ndarray, ...], v: np.ndarray):
    """Newton step of the value on the product of the six unit spheres.

    blocks comes from _operands.
    In a basis of the twelve tangent directions the Riemannian Hessian is
    B^T (H - L) B, with H the Hessian of the trilinear value in the 18
    Cartesian components and L each direction's own coefficient v_k . g_k.
    Each curvature is taken by its size, so the step climbs along every
    eigendirection, also away from a maximum; flat ones are left out.
    Returns the rows of v whose tangent gradient g_k - (v_k . g_k) v_k is
    not exactly zero, and their steps: the others are stationary points
    of the value, and get no step.
    """
    r = len(v)
    pairs = v.reshape(r, 3, 6)
    hess = np.zeros((r, 3, 6, 3, 6))
    for (p, q, s), block in zip(_BLOCKS, blocks):
        hess[:, p, :, q] = np.einsum("ijk,rk->rij", block, pairs[:, s])
        hess[:, q, :, p] = hess[:, p, :, q].transpose(0, 2, 1)
    hess, vec = hess.reshape(r, 18, 18), v.reshape(r, 18)
    grad = (hess @ vec[..., None])[..., 0] / 2.0
    own = np.repeat((grad * vec).reshape(r, 6, 3).sum(axis=2), 3, axis=1)
    rows = np.flatnonzero((grad - own * vec).any(axis=1))
    if rows.size < r:
        v, hess, grad, own = v[rows], hess[rows], grad[rows], own[rows]
        r = rows.size
    if r == 0:
        return rows, v  # no rows, so no steps
    # Two unit tangents per direction, built from the axis it is closest
    # to being orthogonal to, so the cross product never degenerates.
    e1 = _cross(v, _AXES[np.abs(v).argmin(axis=2)])
    e1 /= _norm(e1)
    frame = np.stack([e1, _cross(v, e1)], axis=3)
    basis = (_EYE6_FRAMES * frame[:, :, :, None]).reshape(r, 18, 12)
    back = basis.transpose(0, 2, 1)
    curv, eig = np.linalg.eigh(back @ (hess - own[:, None] * _EYE18) @ basis)
    size = np.abs(curv)
    along = (eig.transpose(0, 2, 1) @ (back @ grad[..., None]))[..., 0]
    along = np.divide(along, size, out=np.zeros_like(along),
                      where=size > _FLAT * size.max(axis=1, keepdims=True))
    return rows, (basis @ (eig @ along[..., None]))[..., 0].reshape(r, 6, 3)


def _seesaw(m: np.ndarray, v: np.ndarray, max_iter: int, tol: float):
    """Alternating maximization from the unit-vector starts v (R, 6, 3).

    Each sweep is one see-saw sweep followed by a Newton step from its
    result, at the best of _STEPS and only if that raises the value, so
    the value never drops; where the see-saw alone crawls (nearly flat
    maxima) the Newton step converges in a few sweeps.  A restart
    converges, and stops, on the first sweep whose see-saw part moves no
    component of any direction more than tol; the Newton step is taken
    only by the restarts that are still moving and not at a stationary
    point.  Returns the directions, the value after the last step, the
    number of sweeps and the converged flag of every restart.
    """
    forms, blocks = _operands(m)
    v = v.copy()
    value = np.zeros(len(v))
    sweeps = np.zeros(len(v), dtype=np.int64)
    converged = np.zeros(len(v), dtype=bool)
    for _ in range(max_iter):
        live = np.flatnonzero(~converged)
        if live.size == 0:
            break
        old = v[live]
        cur, val = _sweep(forms, old)
        done = np.abs(cur - old).max(axis=(1, 2)) <= tol
        moving = np.flatnonzero(~done)
        if moving.size:
            climbing, step = _newton_step(blocks, cur[moving])
            moving = moving[climbing]
        if moving.size:
            trial = cur[moving][:, None] + _STEPS[:, None, None] * step[:, None]
            trial = (trial / _norm(trial)).reshape(-1, 6, 3)
            tval = (trial[:, 4:] * _coefficients(forms, trial, 2)).sum(axis=(1, 2))
            best = (tval.reshape(-1, len(_STEPS)).argmax(axis=1)
                    + len(_STEPS) * np.arange(moving.size))
            up = tval[best] > val[moving]
            cur[moving[up]] = trial[best[up]]
            val[moving[up]] = tval[best[up]]
        v[live] = cur
        value[live] = val
        sweeps[live] += 1
        converged[live] = done
    return v, value, sweeps, converged


@dataclass(frozen=True)
class OptimizerOptions:
    """Controls for the multi-start see-saw over measurement directions.

    restarts: number of independent uniform-random starting points,
        1 to MAX_RESTARTS.
    max_iter: sweep cap per start (one sweep updates all three parties).
    tol: a start converges on the first sweep in which no direction
        moves by more than this in any Cartesian component.
    seed: 64-bit seed from which all restart seeds are derived.
    """

    restarts: int = 64
    max_iter: int = 2000
    tol: float = 1e-10
    seed: int = 42


# Largest restart budget, checked before the starts are drawn: the see-saw
# peaks near 13 KB per restart (its Newton step), so 10**4 take ~130 MB.
MAX_RESTARTS = 10**4


@functools.lru_cache(maxsize=8)
def _starts(seed: int, restarts: int) -> np.ndarray:
    """Unit-vector starts (restarts, 6, 3) of maximize_svetlichny.

    Restart k draws from a generator seeded by (seed, k), so a longer list
    extends a shorter one.  Cached per (seed, restarts) and read-only.
    """
    starts = np.array([np.random.default_rng(child).normal(size=(6, 3))
                       for child in np.random.SeedSequence(seed).spawn(restarts)])
    starts /= _norm(starts)
    starts.setflags(write=False)
    return starts


@dataclass(frozen=True)
class SvetlichnyMaximum:
    """Result of a settings search: value, argmax, and convergence state."""

    value: float
    settings: SvetlichnySettings
    converged: bool
    evaluations: int
    restarts: int


def maximize_svetlichny(rho: DensityMatrix,
                        opts: OptimizerOptions | None = None) -> SvetlichnyMaximum:
    """Maximize Tr(S rho) over all settings by a multi-start see-saw.

    The value is linear in each party's pair of settings, so for fixed
    other settings the best pair is the normalized pair of coefficient
    vectors.  All restarts sweep over the three parties in one batch
    (alternating maximization; Pal and Vertesi, PRA 82, 022116 (2010)),
    and each sweep ends with a safeguarded Newton step (_seesaw).
    Restart k draws its starting unit vectors from a generator seeded
    deterministically by (opts.seed, k) (_starts), and its arithmetic
    does not depend on the other restarts, so enlarging the restart
    budget keeps the earlier restarts unchanged.  evaluations counts
    sweeps over all restarts.  If the best restart used all opts.max_iter
    sweeps without converging, its value is still returned with converged
    set to False.
    """
    if opts is None:
        opts = OptimizerOptions()
    if not 1 <= opts.restarts <= MAX_RESTARTS:
        raise DomainError(f"need 1 to {MAX_RESTARTS} restarts, got {opts.restarts}")
    if rho.num_qubits != 3:
        raise InvalidArityError(f"need a 3-qubit state, got {rho.num_qubits} qubits")
    m = correlation_tensor(rho).m
    v, value, sweeps, converged = _seesaw(m, _starts(opts.seed, opts.restarts),
                                          opts.max_iter, opts.tol)
    best = int(np.argmax(value))
    settings = SvetlichnySettings(*(BlochVector.from_cartesian(u) for u in v[best]))
    return SvetlichnyMaximum(value=svetlichny_value(rho, settings), settings=settings,
                             converged=bool(converged[best]),
                             evaluations=int(sweeps.sum()), restarts=opts.restarts)


def _grid_directions(step: float) -> np.ndarray:
    """Unit vectors at polar and azimuthal angles on multiples of step.

    The first half holds +z and the directions above the equator (on it,
    those with azimuth below pi); the second half is its exact negation,
    so the grid is closed under negation bit for bit.
    """
    if step <= 0:
        raise DomainError("grid step must be positive")
    thetas = np.arange(0.0, math.pi + 0.5 * step, step)
    phis = np.arange(0.0, 2.0 * math.pi - 0.5 * step, step)
    upper = [np.array([0.0, 0.0, 1.0])]
    for th in thetas:
        if th < 1e-12 or th > 0.5 * math.pi + 1e-12:
            continue
        for ph in phis:
            if th > 0.5 * math.pi - 1e-12 and ph > math.pi - 1e-12:
                continue
            upper.append(np.array([math.sin(th) * math.cos(ph),
                                   math.sin(th) * math.sin(ph),
                                   math.cos(th)]))
    upper = np.array(upper)
    return np.concatenate([upper, -upper])


def svetlichny_grid_search(rho: DensityMatrix, step: float = math.pi / 8.0,
                           chunk: int = 32) -> float:
    """Grid lower bound on the Svetlichny maximum.

    Enumerates pairs of grid directions for the second and third parties
    and solves the first party's directions exactly (for fixed others the
    expectation is a . u + a' . w, maximized by unit vectors along u and
    w).  The result therefore dominates a full product grid over all six
    directions at the same step, while staying feasible: the product grid
    itself has ~1e13 points at step pi/8.
    """
    if rho.num_qubits != 3:
        raise InvalidArityError(f"need a 3-qubit state, got {rho.num_qubits} qubits")
    m = correlation_tensor(rho).m
    dirs = _grid_directions(step)
    n = len(dirs)
    if n > 4000:
        raise DomainError(f"grid step {step!r} yields {n} directions; too fine")
    # Three symmetries keep |u| + |w|, and the grid is closed under
    # negation, so a quarter of the candidates reach the same maximum.
    # Swapping b and b' negates the difference vector, which maps onto
    # negating c', so unordered (b, b') pairs suffice; negating both b and
    # b', or both c and c', only negates u and w.  So one pair is kept of
    # each pair and its negation, and c runs over the first half of the
    # grid (dirs[half + i] = -dirs[i]) while c' runs over all of it.
    half = n // 2
    iu, ju = np.triu_indices(n)
    kept = (iu < half) & ((ju < half) | (iu <= ju - half))
    iu, ju = iu[kept], ju[kept]
    dp = dirs[iu] + dirs[ju]
    dm = dirs[iu] - dirs[ju]
    best = 0.0
    for start in range(0, dp.shape[0], chunk):
        sl = slice(start, start + chunk)
        # K[p, i, k] = sum_j m[i, j, k] * d[p, j]
        k_plus = np.einsum("ijk,pj->pik", m, dp[sl])
        k_minus = np.einsum("ijk,pj->pik", m, dm[sl])
        # A1[p, q, i]: contribution of c-grid direction q through b + b'.
        a1 = dirs @ k_plus.transpose(0, 2, 1)
        a2 = dirs @ k_minus.transpose(0, 2, 1)
        n1 = np.einsum("pqi,pqi->pq", a1, a1)
        n2 = np.einsum("pqi,pqi->pq", a2, a2)
        # u(c, c') = A1[c] + A2[c'], w(c, c') = A2[c] - A1[c'], c in the
        # first half.
        u_sq = n1[:, :half, None] + 2.0 * (a1[:, :half] @ a2.transpose(0, 2, 1)) + n2[:, None, :]
        w_sq = n2[:, :half, None] - 2.0 * (a2[:, :half] @ a1.transpose(0, 2, 1)) + n1[:, None, :]
        np.maximum(u_sq, 0.0, out=u_sq)
        np.maximum(w_sq, 0.0, out=w_sq)
        np.sqrt(u_sq, out=u_sq)
        np.sqrt(w_sq, out=w_sq)
        u_sq += w_sq
        best = max(best, float(u_sq.max()))
    return best


def lagrange_max(u, v) -> float:
    """Maximum of sum(u_i x_i) + sum(v_j y_j) over the unit sphere.

    The constraint is sum(x_j^2 + y_j^2) = 1; the maximum is the
    Euclidean norm of the stacked coefficient vector.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (4,) or v.shape != (4,):
        raise InvalidArityError("coefficient arrays must each have length 4")
    return math.sqrt(float(u @ u + v @ v))
