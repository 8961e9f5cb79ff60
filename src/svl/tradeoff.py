"""Closed-form trade-off bounds and the numerical verification harness.

Each bound limits the sum (or sum of squares) of Svetlichny values over
all three-qubit reductions of a state family.  verify_tradeoff pits a
bound against independent numerical maximization of every reduction and
returns a report; sweep_figure tabulates the bound curves.

Two readings exist for formulas whose printed form contains
asymmetric mixed-power terms: "verbatim" evaluates them exactly as
printed, "corrected" restores the symmetry the surrounding terms obey.
Both are exposed and neither is asserted as ground truth for the
W-class bounds.  The four- and n-qubit maximal-slice sum bounds have a
"corrected" reading too; unlike the printed one it is certified: each
of its terms equals the 4*lambda1 bound of the reductions it stands
for, and the maximized values reach those bounds.  Only theorem2,
corollary2, theorem3, FIG2 and FIG3 have "corrected"; verify_tradeoff
and sweep_figure reject it for the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable, Mapping

from .correlations import svetlichny_upper_bound
from .errors import DomainError, InvalidArityError
from .qstate import (MAX_QUBITS, _WCLASS_KEYS, StateSpec, _bounded_int, _finite,
                     _wclass_amplitudes, reduce_pure)
from .svetlichny import OptimizerOptions, maximize_svetlichny

__all__ = [
    "WClassCoefficients",
    "ReductionResult",
    "TradeoffReport",
    "VARIANTS",
    "BOUND_NAMES",
    "FIGURES",
    "bound_gghz_sum",
    "bound_gghz_sum_spectral",
    "bound_gghz_sum_n",
    "bound_ms_sum",
    "bound_ms_sum_spectral",
    "bound_ms_sum_n",
    "bound_wclass_sum",
    "bound_wclass_sum_squares",
    "bound_wclass_sum_squares_spectral",
    "verify_tradeoff",
    "sweep_figure",
]

VARIANTS = ("verbatim", "corrected")
SATISFIED_TOL = 1e-6


@dataclass(frozen=True)
class WClassCoefficients:
    """Amplitudes (alpha, beta, gamma, delta, lam) of a W-class state."""

    alpha: float
    beta: float
    gamma: float
    delta: float
    lam: float = 0.0

    def __post_init__(self):
        # make_wclass's rule, so every WCLASS spec that builds passes here.
        _wclass_amplitudes(self.alpha, self.beta, self.gamma, self.delta, self.lam)


def _check_variant(variant: str, readings: tuple[str, ...] = VARIANTS,
                   of: str = "this bound") -> None:
    if variant not in readings:
        raise DomainError(f"{of} has no {variant!r} reading, only {readings}")


def bound_gghz_sum(theta: float) -> float:
    """Bound 16|cos 2 theta| on the summed values of all GGHZ(4) reductions."""
    return bound_gghz_sum_n(4, theta)


def bound_gghz_sum_spectral(theta: float) -> float:
    """The looser route through per-reduction spectral bounds: 16 max(cos^4, sin^4)."""
    _finite("theta", theta)
    return 16.0 * max(math.cos(theta) ** 4, math.sin(theta) ** 4)


def bound_gghz_sum_n(n: int, theta: float) -> float:
    """Bound 4 C(n,3) |cos 2 theta| for the n-qubit GGHZ state, 4 <= n <= 20."""
    n = _bounded_int("n", n, 4, MAX_QUBITS, InvalidArityError)
    _finite("theta", theta)
    return 4.0 * comb(n, 3) * abs(math.cos(2.0 * theta))


def bound_ms_sum(theta: float, variant: str = "verbatim") -> float:
    """Bound on the summed values of all four MS(4) reductions.

    verbatim:  4 sqrt(2)|cos t| + 12 |cos^2 t + sin(2t)/2|, as printed.
    corrected: 4 sqrt(2)|cos t| + 12 sqrt(cos^4 t + sin^2(2t)/4).

    Dropping qubit 3 of make_ms(4, t) leaves a GHZ-type state with
    coherence cos t, whose 4*lambda1 is 4 sqrt(2)|cos t|.  Dropping
    qubit 0, 1 or 2 leaves an equal mixture of |000> and
    |11>(cos t|0> + sin t|1>), whose only nonzero correlations are
    T[z, z, :] = (sin t cos t, 0, cos^2 t); its 4*lambda1 is four times
    the Euclidean norm of that row, the corrected light term
    (= 4|cos t|).  Both values are attained by the maximization.  The
    printed light term adds the two components instead, which falls
    below the norm exactly where sin 2t < 0, so the verbatim bound is
    exceeded there.
    """
    _finite("theta", theta)
    _check_variant(variant)
    c, s2 = math.cos(theta), math.sin(2.0 * theta)
    if variant == "verbatim":
        light = abs(c**2 + 0.5 * s2)
    else:
        light = math.sqrt(c**4 + 0.25 * s2**2)
    return 4.0 * math.sqrt(2.0) * abs(c) + 12.0 * light


def bound_ms_sum_spectral(theta: float) -> float:
    """The printed spectral-route aggregate 20 cos^2 theta for MS(4) reductions.

    Not an upper bound on the summed values: the maximized sum is
    (4 sqrt(2) + 12)|cos t|, which exceeds 20 cos^2 t wherever
    0 < |cos t| < (4 sqrt(2) + 12) / 20.
    """
    _finite("theta", theta)
    return 20.0 * math.cos(theta) ** 2


def bound_ms_sum_n(n: int, theta: float, variant: str = "verbatim") -> float:
    """n-qubit MS bound, 4 <= n <= 20.

    verbatim:  4 sqrt(2) C(n-1,2)|cos t|
               + 4 (C(n,3) - C(n-1,2)) |cos^2 t + sin(2t)/2|, as printed.
    corrected: 4 C(n-1,2)|cos t|, plus 4 sqrt(2)|cos t| at n = 4.

    The C(n-1,2) reductions of make_ms(n, t) that keep the last qubit are
    the light state of bound_ms_sum, at 4|cos t|.  The others are the
    GHZ-type state at n = 4 (4 sqrt(2)|cos t|) and classical mixtures
    with value 0 for n >= 5.  Each term of the corrected reading is the
    4*lambda1 bound of the reductions it stands for, and the maximized
    values reach them, so it equals the maximized sum; at n = 4 it is
    bound_ms_sum(t, "corrected").  The printed reading swaps the weights:
    at n = 4 its second coefficient is 4, not the 12 of bound_ms_sum.
    """
    n = _bounded_int("n", n, 4, MAX_QUBITS, InvalidArityError)
    _finite("theta", theta)
    _check_variant(variant)
    light = comb(n - 1, 2)
    c = abs(math.cos(theta))
    if variant == "corrected":
        return 4.0 * light * c + (4.0 * math.sqrt(2.0) * c if n == 4 else 0.0)
    return (4.0 * math.sqrt(2.0) * light * c
            + 4.0 * (comb(n, 3) - light)
            * abs(math.cos(theta) ** 2 + 0.5 * math.sin(2.0 * theta)))


def _xy_table(w: WClassCoefficients, variant: str):
    """Per-reduction (x, y, extra) coefficient rows for bound_wclass_sum."""
    a2, b2, g2, d2, l2 = (w.alpha**2, w.beta**2, w.gamma**2, w.delta**2, w.lam**2)
    x1 = (a2 + b2 + g2 - d2 - l2) ** 2
    x2 = (a2 + b2 - g2 + d2 - l2) ** 2
    x3 = (a2 - b2 + g2 + d2 - l2) ** 2
    x4 = (-a2 + b2 + g2 + d2 - l2) ** 2
    y1 = b2 * g2 + a2 * l2 + 1.5 * a2 * b2 + g2 * l2 + 1.5 * a2 * g2 + b2 * l2
    y3 = 1.5 * a2 * d2 + a2 * l2 + 1.5 * a2 * g2 + d2 * l2 + d2 * g2 + l2 * g2
    if variant == "verbatim":
        y2 = b2 * g2 + a2 * l2 + 1.5 * a2 * b2 + d2 * l2 + 1.5 * a2 * d2 + d2 * b2
        y4 = (1.5 * b2 * g2 + b2 * l2 + d2 * g2 + d2 * l2 + g2 * l2
              + 1.5 * d2 * w.beta * w.gamma)
    else:
        y2 = b2 * l2 + a2 * l2 + 1.5 * a2 * b2 + d2 * l2 + 1.5 * a2 * d2 + d2 * b2
        y4 = 1.5 * b2 * g2 + b2 * l2 + d2 * g2 + d2 * l2 + g2 * l2 + 1.5 * b2 * d2
    return [
        (x1, y1, b2 * g2),
        (x2, y2, b2 * d2),
        (x3, y3, d2 * l2),
        (x4, y4, d2 * g2),
    ]


def bound_wclass_sum(w: WClassCoefficients, variant: str = "verbatim") -> float:
    """Summed-value bound for all four reductions of a five-coefficient state.

    Sum over reductions of 2(sqrt(2x + 8y) + sqrt(2x + 8y + 8e)) with the
    per-reduction coefficient rows of _xy_table.  The verbatim reading can
    produce a negative radicand for sign-mixed coefficients; that raises
    DomainError rather than silently clamping.
    """
    _check_variant(variant)
    total = 0.0
    for x, y, extra in _xy_table(w, variant):
        base = 2.0 * x + 8.0 * y
        if base < -1e-15 or base + 8.0 * extra < -1e-15:
            raise DomainError(
                "negative radicand under the verbatim reading; "
                "use variant='corrected' or sign-free coefficients"
            )
        total += 2.0 * (math.sqrt(max(base, 0.0))
                        + math.sqrt(max(base + 8.0 * extra, 0.0)))
    return total


def _require_zero_vacuum(w: WClassCoefficients) -> None:
    if abs(w.lam) > 1e-12:
        raise DomainError(f"bound requires lam = 0, got {w.lam!r}")


def bound_wclass_sum_squares(w: WClassCoefficients) -> float:
    """Sum-of-squares bound 64(1 + a2 g2 + b2 d2 + 2 a2 b2 + 2 b2 g2 + 2 g2 d2).

    Applies to zero-vacuum (lam = 0) states only.
    """
    _require_zero_vacuum(w)
    a2, b2, g2, d2 = w.alpha**2, w.beta**2, w.gamma**2, w.delta**2
    return 64.0 * (1.0 + a2 * g2 + b2 * d2 + 2.0 * a2 * b2 + 2.0 * b2 * g2
                   + 2.0 * g2 * d2)


def bound_wclass_sum_squares_spectral(w: WClassCoefficients,
                                      variant: str = "verbatim") -> float:
    """Competing sum-of-squares bound assembled from per-reduction spectral maxima.

    Evaluated literally as printed under variant="verbatim" (mixed-power
    products such as alpha*beta^2 kept as written); variant="corrected"
    squares the odd factors.  Zero-vacuum states only.  On FIG3's slice
    (alpha = beta = 0, gamma^2 + delta^2 = 1) the corrected reading is
    64(1 + 2 gamma^2 delta^2), bound_wclass_sum_squares there.
    """
    _check_variant(variant)
    _require_zero_vacuum(w)
    a, b, g, d = w.alpha, w.beta, w.gamma, w.delta
    a2, b2, g2, d2 = a * a, b * b, g * g, d * d
    if variant == "verbatim":
        ab2, ag2, ad2 = a * b2, a * g2, a * d2
        bg2, bd2, gd2 = b * g2, b * d2, g * d2
    else:
        ab2, ag2, ad2 = a2 * b2, a2 * g2, a2 * d2
        bg2, bd2, gd2 = b2 * g2, b2 * d2, g2 * d2
    sa = (2.0 * a2 - 1.0) ** 2
    sb = (2.0 * b2 - 1.0) ** 2
    sg = (2.0 * g2 - 1.0) ** 2
    sd = (2.0 * d2 - 1.0) ** 2
    return 8.0 * (
        abs(4.0 * (ab2 + ag2) - 8.0 * bg2 - sd)
        + abs(4.0 * (ab2 + ad2) - 8.0 * bd2 - sg)
        + abs(4.0 * (bg2 + bd2) - 8.0 * gd2 - sa)
        + abs(4.0 * (ag2 + ad2) - 8.0 * gd2 - sb)
        + 8.0 * (ab2 + ag2 + ad2 + 1.5 * bg2 + 1.5 * bd2 + 2.0 * gd2)
        + sa + sb + sg + sd
    )


@dataclass(frozen=True)
class ReductionResult:
    keep: tuple[int, ...]
    value: float
    upper_bound: float
    converged: bool

    def to_dict(self) -> dict:
        return {
            "keep": list(self.keep),
            "value": self.value,
            "upper_bound_4lambda1": self.upper_bound,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class TradeoffReport:
    """Outcome of checking one trade-off bound against maximization."""

    family: str
    params: Mapping[str, object]
    bound_name: str
    mode: str
    variant: str
    per_reduction: tuple[ReductionResult, ...]
    lhs: float
    rhs: float
    satisfied: bool
    gap: float
    converged: bool

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "params": dict(self.params),
            "bound": self.bound_name,
            "mode": self.mode,
            "variant": self.variant,
            "per_reduction": [r.to_dict() for r in self.per_reduction],
            "lhs": self.lhs,
            "rhs": self.rhs,
            "satisfied": self.satisfied,
            "gap": self.gap,
            "converged": self.converged,
        }


def _wcoeffs(spec: StateSpec) -> WClassCoefficients:
    return WClassCoefficients(*(spec.params[k] for k in _WCLASS_KEYS))


@dataclass(frozen=True)
class _BoundRule:
    mode: str
    family: str
    qubits: int | None  # None: any n the formula takes
    variants: tuple[str, ...]
    rhs: Callable[[StateSpec, str], float]


# Registry keyed by the bound identifiers the CLI accepts.  Each rule
# lists the readings its bound has; theorem2, corollary2 and theorem3
# have two.
_BOUND_RULES: dict[str, _BoundRule] = {
    "theorem1": _BoundRule("sum", "GGHZ", 4, ("verbatim",),
                           lambda s, v: bound_gghz_sum(s.params["theta"])),
    "corollary1": _BoundRule("sum", "GGHZ", None, ("verbatim",),
                             lambda s, v: bound_gghz_sum_n(s.num_qubits, s.params["theta"])),
    "theorem2": _BoundRule("sum", "MS", 4, VARIANTS,
                           lambda s, v: bound_ms_sum(s.params["theta"], v)),
    "corollary2": _BoundRule("sum", "MS", None, VARIANTS,
                             lambda s, v: bound_ms_sum_n(s.num_qubits, s.params["theta"], v)),
    "theorem3": _BoundRule("sum", "WCLASS", 4, VARIANTS,
                           lambda s, v: bound_wclass_sum(_wcoeffs(s), v)),
    "eqn3p": _BoundRule("sum_squares", "WCLASS", 4, ("verbatim",),
                        lambda s, v: bound_wclass_sum_squares(_wcoeffs(s))),
}

BOUND_NAMES = tuple(_BOUND_RULES)


def verify_tradeoff(spec: StateSpec, bound: str,
                    opts: OptimizerOptions | None = None,
                    variant: str = "verbatim") -> TradeoffReport:
    """Maximize every three-qubit reduction and compare against a bound.

    The aggregation mode (sum versus sum of squares) is fixed per bound
    and reported as the report's mode.  A variant the bound has no
    reading for raises DomainError.  Optimizer non-convergence is flagged
    on the report, not raised.  The reductions are maximized and listed
    in combinations order; the keeps of one symmetry class share one
    matrix and its memo, which pay for its checks, tensor and closed form
    once (qstate._derived).
    """
    if bound not in BOUND_NAMES:
        raise DomainError(f"unknown bound {bound!r}, expected one of {BOUND_NAMES}")
    rule = _BOUND_RULES[bound]
    _check_variant(variant, rule.variants, f"bound {bound!r}")
    if spec.family != rule.family:
        raise DomainError(f"bound {bound!r} applies to {rule.family} states, "
                          f"got {spec.family}")
    if rule.qubits is not None and spec.num_qubits != rule.qubits:
        raise InvalidArityError(f"bound {bound!r} is a {rule.qubits}-qubit "
                                f"statement, got {spec.num_qubits} qubits")
    rhs = rule.rhs(spec, variant)
    psi = spec.to_pure()
    results = []
    for keep in combinations(range(psi.num_qubits), 3):
        rho = reduce_pure(psi, keep)
        best = maximize_svetlichny(rho, opts)
        results.append(ReductionResult(
            keep=keep,
            value=best.value,
            upper_bound=svetlichny_upper_bound(rho),
            converged=best.converged,
        ))
    if rule.mode == "sum":
        lhs = sum(r.value for r in results)
    else:
        lhs = sum(r.value**2 for r in results)
    return TradeoffReport(
        family=spec.family,
        params=dict(spec.params),
        bound_name=bound,
        mode=rule.mode,
        variant=variant,
        per_reduction=tuple(results),
        lhs=lhs,
        rhs=rhs,
        satisfied=lhs <= rhs + SATISFIED_TOL,
        gap=rhs - lhs,
        converged=all(r.converged for r in results),
    )


# Open-interval endpoints are pulled inward by this much.
_EDGE_NUDGE = 1e-9

# Largest figure grid, checked before the grid is built: a row and its
# CSV or JSON text take ~600 bytes, so 10**5 points stay near 60 MB.
MAX_POINTS = 10**5


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    n = _bounded_int("grid_points", n, 2, MAX_POINTS)
    step = (hi - lo) / (n - 1)
    return [lo + k * step for k in range(n)]


@dataclass(frozen=True)
class _FigureRule:
    columns: tuple[str, ...]
    variants: tuple[str, ...]
    optimized: bool  # runs the optimizer, so takes opts


# Registry keyed by the figure names the CLI accepts, like _BOUND_RULES.
_FIGURE_RULES: dict[str, _FigureRule] = {
    "FIG1": _FigureRule(("theta", "sum_bound", "spectral_bound"), ("verbatim",), False),
    "FIG2": _FigureRule(("theta", "sum_bound", "spectral_bound"), VARIANTS, False),
    "FIG3": _FigureRule(("gamma", "sum_squares_bound", "spectral_bound"), VARIANTS, False),
    "FIG4": _FigureRule(("gamma", "sq_value_abc", "sq_value_acd", "sq_sum",
                         "sum_squares_bound"), ("verbatim",), True),
}

FIGURES = tuple(_FIGURE_RULES)


def sweep_figure(fig: str, grid_points: int = 181,
                 opts: OptimizerOptions | None = None,
                 variant: str = "verbatim"):
    """Tabulate one figure's curves; returns (column_names, rows, converged).

    FIG1: GGHZ sum bound versus its spectral-route counterpart on
        [0, pi/4].
    FIG2: MS sum bound (in the given variant) versus the spectral
        aggregate on the open interval (pi/2, 3*pi/2).
    FIG3: the two W-class sum-of-squares bounds along the slice
        alpha = beta = 0, delta = sqrt(1 - gamma^2), gamma in [0, 1].
    FIG4: maximized squared Svetlichny values of the reductions along
        the same slice, with their sum and the closed-form bound;
        converged is False if any maximization did not converge.  The
        closed-form figures always report converged, and take no opts.
    """
    if fig not in FIGURES:
        raise DomainError(f"unknown figure {fig!r}, expected one of {FIGURES}")
    rule = _FIGURE_RULES[fig]
    _check_variant(variant, rule.variants, f"figure {fig!r}")
    if opts is not None and not rule.optimized:
        raise DomainError(f"figure {fig!r} runs no optimizer, so it takes no opts")
    rows, converged = [], True
    if fig == "FIG1":
        rows = [(t, bound_gghz_sum(t), bound_gghz_sum_spectral(t))
                for t in _linspace(0.0, math.pi / 4.0, grid_points)]
    elif fig == "FIG2":
        rows = [(t, bound_ms_sum(t, variant), bound_ms_sum_spectral(t))
                for t in _linspace(math.pi / 2.0 + _EDGE_NUDGE,
                                   1.5 * math.pi - _EDGE_NUDGE, grid_points)]
    elif fig == "FIG3":
        for g in _linspace(0.0, 1.0, grid_points):
            w = WClassCoefficients(0.0, 0.0, g, math.sqrt(max(1.0 - g * g, 0.0)))
            rows.append((g, bound_wclass_sum_squares(w),
                         bound_wclass_sum_squares_spectral(w, variant)))
    else:
        for g in _linspace(0.0, 1.0, grid_points):
            d = math.sqrt(max(1.0 - g * g, 0.0))
            spec = StateSpec("WCLASS", 4, {"alpha": 0.0, "beta": 0.0, "gamma": g,
                                           "delta": d, "lambda": 0.0})
            report = verify_tradeoff(spec, "eqn3p", opts)
            by_keep = {r.keep: r.value**2 for r in report.per_reduction}
            rows.append((g, by_keep[(0, 1, 2)], by_keep[(0, 2, 3)],
                         report.lhs, report.rhs))
            converged = converged and report.converged
    return rule.columns, rows, converged
