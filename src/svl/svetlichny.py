"""Svetlichny values and their maximization over measurement settings.

The operator for settings (a, a', b, b', c, c') is

    S = A((B + B')C + (B - B')C') + A'((B - B')C - (B + B')C')

with each factor a Bloch observable v . sigma.  Expectation values are
multilinear in the six unit vectors, which the optimizer and the grid
oracle both exploit through the correlation tensor.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import astuple, dataclass

import numpy as np

from .correlations import PAULIS, correlation_tensor, flatten_correlation_tensor
from .errors import DomainError, InvalidArityError
from .qstate import (INPUT_NORMALIZATION_TOL, DensityMatrix, _array, _bounded_int, _derived,
                     _finite, _immutable, _norm, _Rebuilt)

__all__ = [
    "BlochVector",
    "SvetlichnySettings",
    "SvetlichnyMaximum",
    "OptimizerOptions",
    "svetlichny_value",
    "maximize_svetlichny",
    "svetlichny_grid_search",
    "lagrange_max",
]

@dataclass(frozen=True)
class BlochVector(_Rebuilt):
    """Measurement direction given by polar and azimuthal angles."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta", _finite("theta", self.theta))
        object.__setattr__(self, "phi", _finite("phi", self.phi))

    @property
    def cartesian(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array([st * math.cos(self.phi), st * math.sin(self.phi),
                         math.cos(self.theta)])

    @classmethod
    def from_cartesian(cls, v) -> "BlochVector":
        v = _array(v, float, "direction")
        if v.shape != (3,):
            raise InvalidArityError(f"direction needs 3 components, got shape {v.shape}")
        norm = _norm(v)
        if not abs(norm - 1.0) <= INPUT_NORMALIZATION_TOL:  # NaN fails too
            raise DomainError(f"direction has norm {norm!r}, expected 1")
        v = v / norm
        # atan2 of the transverse radius stays accurate near the poles,
        # where acos(z) would flush small x, y components to zero.
        return cls(math.atan2(math.hypot(v[0], v[1]), v[2]),
                   math.atan2(v[1], v[0]))


# S is the sum over x, y, z in {0, 1} of _SIGN[x, y, z] X_x Y_y Z_z, where
# index 1 picks a party's primed setting: a term is negative when two or
# more of its settings are primed.
_SIGN = np.array([[[1.0, 1.0], [1.0, -1.0]], [[1.0, -1.0], [-1.0, -1.0]]])


@dataclass(frozen=True)
class SvetlichnySettings(_Rebuilt):
    """Six measurement directions, two per party."""

    a: BlochVector
    a_p: BlochVector
    b: BlochVector
    b_p: BlochVector
    c: BlochVector
    c_p: BlochVector

    def angles(self) -> np.ndarray:
        return np.array(astuple(self), dtype=float).ravel()

    @functools.cached_property
    def _operator(self) -> np.ndarray:
        """The 8x8 operator S of the module docstring, immutable: built
        once per settings, so a kept closed form reuses it."""
        v = np.array([u.cartesian for u in (self.a, self.a_p, self.b, self.b_p,
                                            self.c, self.c_p)])
        x, y, z = (v @ PAULIS.reshape(3, 4)).reshape(3, 2, 2, 2)
        # d[x, z] sums _SIGN[x, y, z] Y_y: B + B', B - B', B - B' and
        # -(B + B').  Term [x, z] is X_x (x) d[x, z] (x) Z_z, multiplied in
        # np.kron's order; the four terms are summed in _SIGN's order.
        d = np.einsum("xyz,ybe->xzbe", _SIGN, y)
        xd = (x[:, None, :, None, :, None] * d[:, :, None, :, None, :]).reshape(2, 2, 4, 4)
        terms = xd[:, :, :, None, :, None] * z[None, :, None, :, None, :]
        return _immutable(terms.reshape(4, 8, 8).sum(axis=0))


def svetlichny_value(rho: DensityMatrix, s: SvetlichnySettings) -> float:
    """Expectation Tr(S rho); always within [-4*sqrt(2), 4*sqrt(2)].

    One 64-term dot product of rho with the settings' operator (built
    once per settings, SvetlichnySettings._operator): S is Hermitian, so
    Tr(S rho) sums conj(S[i, j]) rho[i, j].  It never builds the
    correlation tensor, so it stays an independent check of the tensor's
    route.  The imaginary residue, bounded by rho's Hermiticity
    (qstate._check_density), is dropped.
    """
    if rho.num_qubits != 3:
        raise InvalidArityError(f"need a 3-qubit state, got {rho.num_qubits} qubits")
    return float(np.vdot(s._operator, rho.entries).real)


# A coefficient vector at most this long keeps its old direction; such a
# party contributes at most twice this much to the value.
_ZERO_COEFFICIENT = 1e-12

# Step lengths tried along each Newton direction, longest first.
_STEPS = 0.5 ** np.arange(8)

# Curvatures at most this share of the largest in size count as flat, and
# the Newton step does not move along them.
_FLAT = 1e-10


# Constants of the Newton step: direction indices, identities, and the
# weights of the point and of the Newton and escape steps at 16 trials.
_SIX, _EYE8, _AXES = np.arange(6), np.eye(8), np.eye(3)
_LADDER = np.vstack([np.ones(16), np.kron(np.eye(2), _STEPS)])


def _table(m: np.ndarray) -> np.ndarray:
    """The value as a symmetric trilinear form of all six directions
    (a, a', b, b', c, c'), flattened to 18 entries: for each order
    (p, q, s) of the parties, block (p, q, s) of the (3, 6, 3, 6, 3, 6)
    table holds form[x i, y j, z k] = _SIGN[x, y, z] m[i, j, k] with its
    axes in that order, and blocks where a party repeats are zero."""
    form = (_SIGN[:, None, :, None, :, None] * m[None, :, None, :, None, :]).reshape(6, 6, 6)
    table = np.zeros((3, 6, 3, 6, 3, 6))
    for order in itertools.permutations(range(3)):
        table[order[0], :, order[1], :, order[2]] = np.transpose(form, order)
    return table.reshape(18, 18, 18)


def _coefficients(table: np.ndarray, v: np.ndarray, party: int) -> np.ndarray:
    """Coefficient vectors of one party's two settings, the others fixed.

    table comes from _table, and v holds unit vectors (a, a', b, b', c,
    c') of shape (R, 6, 3).  The value of restart r is the sum over x of
    v[r, 2*party + x] . out[r, x], so out[r, x] / |out[r, x]| is the best
    setting x of that party.  Each restart's result is a sum over its own
    entries, in an order that does not depend on the batch.
    """
    first, second = (k for k in range(3) if k != party)
    pairs = v.reshape(len(v), 3, 6)
    block = table.reshape(3, 6, 3, 6, 3, 6)[party, :, first, :, second]
    return np.einsum("ijk,rj,rk->ri", block, pairs[:, first],
                     pairs[:, second]).reshape(-1, 2, 3)


def _sweep(table: np.ndarray, v: np.ndarray):
    """One see-saw sweep: (a, a'), (b, b') and (c, c') are set in turn to
    their normalized coefficient vectors, which never lowers the value (up
    to the near-zero coefficients that keep their direction).  Returns the
    new directions and their value."""
    v = v.copy()
    for party in range(3):
        coef = _coefficients(table, v, party)
        norm = np.linalg.norm(coef, axis=-1, keepdims=True)
        pair = v[:, 2 * party:2 * party + 2]
        pair[...] = np.where(norm > _ZERO_COEFFICIENT,
                             coef / np.maximum(norm, _ZERO_COEFFICIENT), pair)
    return v, (pair * coef).sum(axis=(1, 2))


def _schur(table: np.ndarray, v: np.ndarray):
    """Tangent frames (R, 18, 12), gradient (R, 8) and Hessian (R, 8, 8) of
    F(a, a', b, b') = |g_c| + |g_c'|, the value with c, c' at their best,
    at directions v (R, 6, 3) whose c, c' lie along g_c, g_c'.

    A direction's tangents are the first two columns of its Householder
    reflection I - w w^T / (1 + |v_z|), w = v + sign(v_z) z.  On them the
    value's Riemannian Hessian is B^T H B - L (H = table . v, L each
    direction's v_k . g_k), whose (c, c') block is -diag(|g_c|, |g_c|,
    |g_c'|, |g_c'|): F's Hessian is its Schur complement (a zero g_c
    couples nothing), and F's gradient is the value's.
    """
    r = len(v)
    vec = v.reshape(r, 18, 1)
    hess = (table.reshape(324, 18) @ vec).reshape(r, 18, 18)
    grad = hess @ vec / 2.0
    own = np.repeat((grad.reshape(r, 6, 3) * v).sum(axis=2), 2, axis=1)
    w = v + np.copysign(_AXES[2], v[..., 2:])
    basis = np.zeros((r, 6, 3, 6, 2))
    basis[:, _SIX, :, _SIX] = (_AXES[:, :2] - w[..., None] * w[..., None, :2]
                               / (1.0 + np.abs(v[..., 2:, None]))).transpose(1, 0, 2, 3)
    basis = basis.reshape(r, 18, 12)
    full = basis[:, :12, :8].swapaxes(1, 2) @ hess[:, :12] @ basis
    inv = np.divide(1.0, own[:, 8:], out=np.zeros((r, 4)), where=own[:, 8:] > _ZERO_COEFFICIENT)
    cross, grad = full[:, :, 8:], (grad[:, :12].swapaxes(1, 2) @ basis[:, :12, :8])[:, 0]
    return basis, grad, (full[:, :, :8] - own[:, :8, None] * _EYE8
                         + cross * inv[:, None] @ cross.swapaxes(1, 2))


def _newton_step(table: np.ndarray, v: np.ndarray):
    """Best of 16 trials from directions v (R, 6, 3) as a sweep leaves
    them: its directions (R, 6, 3), with c, c' at their best, and value.

    The saddle-free Newton step of F (_schur) takes each curvature by its
    size, so it climbs along every eigendirection not flat.  The escape,
    tried where the largest curvature is positive and not flat, is that
    unit eigenvector signed by the gradient: it climbs even at a saddle,
    where the Newton step vanishes.  Along a tangent step s a setting x
    moves by t in _STEPS to (x + t s) / sqrt(1 + t^2 |s|^2).
    """
    r = len(v)
    basis, grad, hess = _schur(table, v)
    curv, eig = np.linalg.eigh(hess)
    size, along = np.abs(curv), (grad[:, None] @ eig)[:, 0]
    flat = _FLAT * size.max(axis=1)
    mix = np.zeros((r, 8, 2))
    np.divide(along, size, out=mix[..., 0], where=size > flat[:, None])
    mix[:, -1, 1] = np.copysign(1.0, along[:, -1])
    steps = basis[:, :12, :8] @ (eig @ mix)
    scale = np.sqrt(1.0 + (steps * steps).reshape(r, 4, 3, 2).sum(axis=2) @ _LADDER[1:] ** 2)
    trial = ((np.concatenate([v.reshape(r, 18, 1)[:, :12], steps], axis=2) @ _LADDER)
             .reshape(r, 4, 3, 16) / scale[:, :, None]).reshape(r, 12, 16)
    coef = ((table[12:, :6, 6:12].reshape(36, 6) @ trial[:, 6:]).reshape(r, 2, 3, 6, 16)
            * trial[:, None, None, :6]).sum(axis=3)
    norm = np.sqrt((coef * coef).sum(axis=2))
    value = norm.sum(axis=1)
    value[curv[:, -1] <= flat, 8:] = -np.inf
    rows, best = np.arange(r), value.argmax(axis=1)
    coef, norm = coef[rows, :, :, best], norm[rows, :, best, None]
    c = np.where(norm > _ZERO_COEFFICIENT, coef / np.maximum(norm, _ZERO_COEFFICIENT), v[:, 4:])
    return np.concatenate([trial[rows, :, best].reshape(r, 4, 3), c], axis=1), value[rows, best]


# Sweep cap per restart and the largest direction change at which a
# restart converges.  Over the benchmark's maximize-3q and tradeoff-4q
# workloads at seeds 1-12 (1044 maximizations, 132 by see-saw), no
# restart used more than 15 sweeps, and every one converged.
_MAX_SWEEPS = 2000
_TOL = 1e-10


def _seesaw(m: np.ndarray, v: np.ndarray):
    """Alternating maximization from the unit-vector starts v (R, 6, 3).

    Each sweep is a see-saw sweep, then, for the restarts it moved by more
    than _TOL, the best trial of _newton_step unless that lowers the value
    (near a maximum the value cannot resolve the gain of a step that the
    see-saw alone would crawl through).  A restart converges, and stops,
    on the first sweep whose see-saw part moves no component of any
    direction more than _TOL, or stops unconverged after _MAX_SWEEPS.
    Returns the directions, values, sweep counts and converged flags.
    """
    table = _table(m)
    v = v.copy()
    value = np.zeros(len(v))
    sweeps = np.zeros(len(v), dtype=np.int64)
    converged = np.zeros(len(v), dtype=bool)
    for _ in range(_MAX_SWEEPS):
        live = np.flatnonzero(~converged)
        if live.size == 0:
            break
        old = v[live]
        cur, val = _sweep(table, old)
        done = np.abs(cur - old).max(axis=(1, 2)) <= _TOL
        moving = np.flatnonzero(~done)
        if moving.size:
            trial, tval = _newton_step(table, cur[moving])
            up = tval >= val[moving]
            cur[moving[up]], val[moving[up]] = trial[up], tval[up]
        v[live] = cur
        value[live] = val
        sweeps[live] += 1
        converged[live] = done
    return v, value, sweeps, converged


# Restarts per _seesaw call, and the distance from the best value within
# which a restart counts as a hit (maximize_svetlichny).
_BATCH = 8
_HIT_TOL = 1e-9

# Largest restart budget, checked before any start is drawn.  Each batch
# draws its starts only when it runs, and the see-saw holds one batch at
# a time (its Newton step peaks near 15 KB per restart), so the cap
# bounds time, not memory: a call that stops after its first batch costs
# the same at any cap, and where no two restarts agree, 10**4 restarts
# run every batch.
MAX_RESTARTS = 10**4


@dataclass(frozen=True)
class OptimizerOptions(_Rebuilt):
    """Controls for the multi-start see-saw over measurement directions.

    restarts: cap on the uniform-random starting points run, 1 to
        MAX_RESTARTS; maximize_svetlichny stops earlier once two agree.
    seed: non-negative seed from which all restart seeds are derived.
    Both are integers, checked when built (DomainError); the sweep cap
    and the tolerance are fixed (_seesaw).
    """

    restarts: int = 64
    seed: int = 42

    def __post_init__(self):
        object.__setattr__(self, "restarts",
                           _bounded_int("restarts", self.restarts, 1, MAX_RESTARTS))
        object.__setattr__(self, "seed", _bounded_int("seed", self.seed, 0))


@functools.lru_cache(maxsize=8)
def _starts(seed: int, start: int, stop: int) -> np.ndarray:
    """Unit-vector starts (stop - start, 6, 3) of restarts start to
    stop - 1 of maximize_svetlichny.

    Restart k draws from a generator seeded by (seed, k), the child
    SeedSequence(seed).spawn gives as its k-th, so any range of restarts
    is the matching rows of a longer one.  Cached per (seed, start, stop)
    and immutable.
    """
    starts = np.array([np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
                       .normal(size=(6, 3)) for k in range(start, stop)])
    starts /= np.linalg.norm(starts, axis=-1, keepdims=True)
    return _immutable(starts)


@dataclass(frozen=True)
class SvetlichnyMaximum:
    """Result of a settings search: value, argmax, and convergence state.

    restarts counts the see-saw restarts run and hits those within
    _HIT_TOL of value; both are 0 on the closed-form path.
    """

    value: float
    converged: bool
    restarts: int
    hits: int
    evaluations: int
    settings: SvetlichnySettings


# Closed-form settings are accepted when their value is this close to
# 4*lambda1: first on the tensor (_exact_directions), then through
# svetlichny_value.
_EXACT_TOL = 1e-12


def _unit(x: np.ndarray) -> np.ndarray:
    """x / |x| for a real or complex x; the z axis for a zero x."""
    norm = np.linalg.norm(x)
    return x / norm if norm > 0.0 else _AXES[2]


def _phased(x: np.ndarray) -> tuple[np.ndarray, float]:
    """(sqrt(2) e^{i phi} x, phi) for a complex unit vector x, with phi
    chosen so that the real and imaginary parts are unit vectors: their
    squared norms differ by Re(2 e^{2i phi} x . x), which is then 0."""
    phi = 0.5 * (0.5 * math.pi - float(np.angle(x @ x)))
    return math.sqrt(2.0) * complex(math.cos(phi), math.sin(phi)) * x, phi


def _case_a(g: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Directions of case A of _exact_directions."""
    ua = _unit(g[:, np.argmax(np.linalg.norm(g, axis=0))])
    uc = _unit(ua @ g)
    return np.array([ua, -ua, d, d, uc, uc])


def _case_b(g: np.ndarray, gp: np.ndarray, d: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """Directions of case B of _exact_directions."""
    z = g + 1j * gp
    u = _unit(z[:, np.argmax(np.linalg.norm(z, axis=0))])
    alpha, phi_a = _phased(u)
    gamma, phi_c = _phased(_unit(u.conj() @ z))
    cos, sin = math.cos(phi_a + phi_c), math.sin(phi_a + phi_c)
    d, dp = cos * d - sin * dp, sin * d + cos * dp
    return np.array([alpha.real, alpha.imag, (d + dp) / math.sqrt(2.0),
                     (d - dp) / math.sqrt(2.0), gamma.real, gamma.imag])


def _candidates(g: np.ndarray, gp: np.ndarray, d: np.ndarray, dp: np.ndarray,
                degenerate: bool):
    """Case A, then where degenerate cases B and C, of _exact_directions."""
    yield _case_a(g, d)
    if degenerate:
        yield _case_b(g, gp, d, dp)
        # Row i of a 3x3 matrix's cofactors is row i + 1 x row i + 2.
        a, c, b = (np.cross(x[[1, 2, 0]], x[[2, 0, 1]]) for x in (g, gp, g + gp))
        alpha, beta = 0.5 * (a - c), 0.5 * (b - a - c)
        k = np.unravel_index(np.argmax(np.hypot(alpha, beta)), a.shape)
        r = math.hypot(alpha[k], beta[k])
        for sign in (1.0, -1.0) if r > 0.0 else ():
            s = 0.5 * (math.atan2(beta[k], alpha[k])
                       + sign * math.acos(min(max(-0.5 * (a[k] + c[k]) / r, -1.0), 1.0)))
            yield _case_a(math.cos(s) * g + math.sin(s) * gp, math.cos(s) * d + math.sin(s) * dp)


def _exact_directions(tensor) -> SvetlichnySettings | None:
    """Closed-form settings whose value on the tensor is within _EXACT_TOL
    of bound, its 4*lambda1 (tensor._upper_bound), or None.

    Write b + b' = 2 cos(w) d and b - b' = 2 sin(w) d' with d orthogonal
    to d', and G(d)[i, k] = m[i, j, k] d_j.  The value is then
    2 cos(w) <G(d), X> + 2 sin(w) <G(d'), Y> with
    X + iY = (a + ia')(c + ic')^T, and three cases reach 4*lambda1, with
    d and d' the top two left singular vectors of the flattening:

    A (w = 0): G(d) = lambda1 u_a u_c^T has rank one.  Then a = -a' = u_a,
      b = b' = d and c = c' = u_c.  A zero tensor falls here, with any
      directions and value 0.
    B (w = pi/4): lambda1 = lambda2 and Z = G(d) + iG(d') has complex
      rank one, Z = s u v^H.  Then a + ia' and c + ic' are sqrt(2) times
      u and conj(v), each phased so that its real and imaginary parts are
      unit vectors (_phased), and (d, d') turns by the sum of the two
      phases, so that b, b' = (d +- d') / sqrt(2) collect the value
      2 sqrt(2) s = 4 lambda1.
    C (w = 0): lambda1 = lambda2 and G(cos(s) d + sin(s) d') has rank one.
      Its cofactors are (A + C + (A - C) cos 2s + B sin 2s) / 2, with A, C
      those of G(d), G(d') and B = cof(G(d) + G(d')) - A - C; case A is
      tried at both roots s of the one with the largest hypot(A - C, B).

    Each case builds its directions from the largest column of G(d) or
    Z; the settings of the first in the order A, B, C whose value
    reaches bound are returned.  B and C are not tried where lambda1^2 -
    lambda2^2 exceeds bound * _EXACT_TOL: B's value is at most
    2 sqrt(2 (lambda1^2 + lambda2^2)), which then falls short of bound by
    more than _EXACT_TOL.
    """
    bound = tensor._upper_bound
    flat = flatten_correlation_tensor(tensor)
    lam, left = np.linalg.eigh(flat @ flat.T)
    d, dp = left[:, 2], left[:, 1]
    g, gp = (d @ flat).reshape(3, 3), (dp @ flat).reshape(3, 3)
    degenerate = lam[2] - lam[1] <= bound * _EXACT_TOL
    m = tensor.m.reshape(3, 9)
    for v in _candidates(g, gp, d, dp, degenerate):
        # The value's terms [x, y, z]: m contracted with a_x, b_y and c_z.
        value = np.vdot(_SIGN, v[2:4] @ (v[:2] @ m).reshape(2, 3, 3) @ v[4:].T)
        if abs(value - bound) <= _EXACT_TOL:
            return _settings(v)
    return None


def _settings(v: np.ndarray) -> SvetlichnySettings:
    """Settings along the rows of v (6, 3), which the closed form and the
    see-saw leave normalized: the angles of BlochVector.from_cartesian,
    bit for bit, without its input checks."""
    v = (v / np.sqrt([u @ u for u in v])[:, None]).tolist()
    return SvetlichnySettings(*(BlochVector(math.atan2(math.hypot(x, y), z), math.atan2(y, x))
                                for x, y, z in v))


def maximize_svetlichny(rho: DensityMatrix,
                        opts: OptimizerOptions | None = None) -> SvetlichnyMaximum:
    """Maximize Tr(S rho) over all settings: in closed form where the
    4*lambda1 certificate is tight, by a multi-start see-saw elsewhere.

    Exact path: where the correlation tensor falls in case A, B or C of
    _exact_directions (every reduction of the GGHZ and MS families and
    of the FIG4 slice does, as do zero tensors), the settings are built
    from the top singular vectors of its flattening.  They are accepted
    if svetlichny_value on them is within _EXACT_TOL of 4*lambda1, which
    proves them optimal; the result then reads converged True and
    evaluations 0, and does not depend on opts (no start is drawn).  The
    settings, or their refusal, are kept in rho's memo (qstate._derived)
    beside the tensor, so a later call on rho, or on a keep of its class,
    pays only the svetlichny_value check, which every call runs.

    See-saw: the value is linear in each party's pair of settings, so
    the best pair for fixed others is the normalized pair of coefficient
    vectors.  The restarts of a batch sweep over the parties together (Pal
    and Vertesi, PRA 82, 022116 (2010)), and each sweep ends with a
    saddle-free Newton step (Dauphin et al., NeurIPS 2014) on a, a', b,
    b' with c, c' at their best, or a saddle escape (_newton_step).
    Restart k starts from unit vectors drawn with the seed (opts.seed, k)
    (_starts) when its batch runs, and no other restart changes its
    arithmetic.  opts.restarts is a cap: the restarts run in order,
    _BATCH at a time, and stop after the first batch at which at least
    two of all those run so far lie within _HIT_TOL of their best value,
    or at the cap.  So a larger cap runs a superset of the restarts, and
    a cap of at most _BATCH runs all of them.  The result is the first
    best restart run: restarts counts the restarts run, hits those within
    _HIT_TOL of the best, and evaluations their sweeps; a best restart
    stopped unconverged by _MAX_SWEEPS gives its value with converged
    False.  See-saw results are not kept.
    """
    if opts is None:
        opts = OptimizerOptions()
    tensor = correlation_tensor(rho)
    settings = _derived(rho, "closed form", lambda: _exact_directions(tensor))
    if settings is not None:
        value = svetlichny_value(rho, settings)
        if abs(value - tensor._upper_bound) <= _EXACT_TOL:
            return SvetlichnyMaximum(value=value, converged=True, restarts=0, hits=0,
                                     evaluations=0, settings=settings)
    batches = []
    for first in range(0, opts.restarts, _BATCH):
        starts = _starts(opts.seed, first, min(first + _BATCH, opts.restarts))
        batches.append(_seesaw(tensor.m, starts))
        value = np.concatenate([batch[1] for batch in batches])
        hits = int(np.count_nonzero(value >= value.max() - _HIT_TOL))
        if hits >= 2:
            break
    v, value, sweeps, converged = (np.concatenate(part) for part in zip(*batches))
    best = int(np.argmax(value))
    settings = _settings(v[best])
    return SvetlichnyMaximum(value=svetlichny_value(rho, settings),
                             converged=bool(converged[best]), restarts=len(value), hits=hits,
                             evaluations=int(sweeps.sum()), settings=settings)


def _grid_directions(step: float) -> np.ndarray:
    """Unit vectors at polar and azimuthal angles on multiples of step.

    The first half holds +z and the directions above the equator (on it,
    those with azimuth below pi); the second half is its exact negation,
    so the grid is closed under negation bit for bit.  A grid of more
    than 4000 directions raises DomainError before any is built: a step
    of more than 2000 azimuths is refused at once, any other step is
    counted angle by angle before a direction is built.
    """
    _finite("step", step)
    if not step > 0:
        raise DomainError(f"grid step must be positive, got {step!r}")
    # As many azimuths j * step as np.arange(0, 2 pi - step / 2, step)
    # takes; past 2000, one latitude and its negation exceed 4000.
    phis = (2.0 * math.pi - 0.5 * step) / step
    if phis > 2000:
        raise DomainError(f"grid step {step!r} yields more than 4000 directions; too fine")
    phis = max(0, math.ceil(phis))
    # Polar angles i * step in [1e-12, pi/2 + 1e-12] take every azimuth,
    # the equator only those up to pi - 1e-12.
    east = sum(j * step <= math.pi - 1e-12 for j in range(phis))
    thetas = itertools.takewhile(lambda th: th <= 0.5 * math.pi + 1e-12,
                                 (i * step for i in itertools.count()))
    rings = [(th, phis if th <= 0.5 * math.pi - 1e-12 else east) for th in thetas if th >= 1e-12]
    n = 2 * (1 + sum(k for _, k in rings))
    if n > 4000:
        raise DomainError(f"grid step {step!r} yields {n} directions; too fine")
    upper = [np.array([0.0, 0.0, 1.0])]
    upper += [np.array([math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)])
              for th, k in rings for ph in (j * step for j in range(k))]
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
    m = correlation_tensor(rho).m
    size = _bounded_int("chunk", chunk, 1)
    dirs = _grid_directions(step)
    n = len(dirs)
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
    for start in range(0, dp.shape[0], size):
        sl = slice(start, start + size)
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
    u = _array(u, float, "coefficients")
    v = _array(v, float, "coefficients")
    if u.shape != (4,) or v.shape != (4,):
        raise InvalidArityError("coefficient arrays must each have length 4")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise DomainError("coefficients must be finite")
    return _finite("coefficient norm", math.hypot(*u, *v))
