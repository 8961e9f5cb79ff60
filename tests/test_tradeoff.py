import copy
import dataclasses
import json
import math
import pickle
import re
from itertools import combinations

import numpy as np
import pytest

import svl.tradeoff as tradeoff
from svl import (
    FIGURES,
    DomainError,
    InvalidArityError,
    NormalizationError,
    OptimizerOptions,
    StateSpec,
    WClassCoefficients,
    bound_gghz_sum,
    bound_gghz_sum_n,
    bound_gghz_sum_spectral,
    bound_ms_sum,
    bound_ms_sum_n,
    bound_ms_sum_spectral,
    bound_wclass_sum,
    bound_wclass_sum_squares,
    bound_wclass_sum_squares_spectral,
    correlation_tensor,
    make_ms,
    make_wclass,
    maximize_svetlichny,
    reduce_pure,
    svetlichny_grid_search,
    svetlichny_upper_bound,
    sweep_figure,
    verify_tradeoff,
)

from conftest import drop_memos

SQRT2 = math.sqrt(2.0)
FAST = OptimizerOptions(restarts=8)
# A W-class state with four distinct reductions.
_W = np.random.default_rng(7).normal(size=5)
RANDOM_WCLASS = {"family": "WCLASS", **dict(zip(
    ("alpha", "beta", "gamma", "delta", "lambda"), (_W / np.linalg.norm(_W)).tolist()))}


def second_reading_sum_bound(a, b, g, d, l):
    """Independent re-derivation of the four-group summed-value bound."""
    a2, b2, g2, d2, l2 = a * a, b * b, g * g, d * d, l * l
    groups = [
        ((a2 + b2 + g2 - d2 - l2) ** 2,
         b2 * g2 + a2 * l2 + 3 * a2 * b2 / 2 + g2 * l2 + 3 * a2 * g2 / 2 + b2 * l2,
         b2 * g2),
        ((a2 + b2 - g2 + d2 - l2) ** 2,
         b2 * g2 + a2 * l2 + 3 * a2 * b2 / 2 + d2 * l2 + 3 * a2 * d2 / 2 + d2 * b2,
         b2 * d2),
        ((a2 - b2 + g2 + d2 - l2) ** 2,
         3 * a2 * d2 / 2 + a2 * l2 + 3 * a2 * g2 / 2 + d2 * l2 + d2 * g2 + l2 * g2,
         d2 * l2),
        ((-a2 + b2 + g2 + d2 - l2) ** 2,
         3 * b2 * g2 / 2 + b2 * l2 + d2 * g2 + d2 * l2 + g2 * l2 + 3 * d2 * b * g / 2,
         d2 * g2),
    ]
    return sum(2 * (math.sqrt(2 * x + 8 * y) + math.sqrt(2 * x + 8 * y + 8 * e))
               for x, y, e in groups)


def slice_coeffs(gamma):
    return WClassCoefficients(0.0, 0.0, gamma, math.sqrt(max(1 - gamma**2, 0.0)))


class TestGghzBounds:
    def test_sum_bound_values(self):
        assert bound_gghz_sum(0.0) == pytest.approx(16.0)
        assert bound_gghz_sum(math.pi / 4) == pytest.approx(0.0, abs=1e-12)
        assert bound_gghz_sum(math.pi / 6) == pytest.approx(8.0, abs=1e-12)

    def test_spectral_route_dominates(self, rng):
        for theta in rng.uniform(0, math.pi / 4, 50):
            assert bound_gghz_sum(theta) <= bound_gghz_sum_spectral(theta) + 1e-12
        assert bound_gghz_sum(0.0) == pytest.approx(bound_gghz_sum_spectral(0.0))

    def test_n_qubit_values(self):
        assert bound_gghz_sum_n(4, 0.0) == pytest.approx(16.0)
        assert bound_gghz_sum_n(5, 0.0) == pytest.approx(40.0)
        assert bound_gghz_sum_n(6, math.pi / 4) == pytest.approx(0.0, abs=1e-12)

    def test_n_qubit_rejects_small_n(self):
        with pytest.raises(InvalidArityError):
            bound_gghz_sum_n(3, 0.0)

    def test_four_qubit_bound_is_the_n_qubit_bound_at_four(self):
        for theta in [0.0, math.pi / 4, -0.3, -math.pi, 1e6, *np.linspace(-7, 7, 57)]:
            assert bound_gghz_sum(theta) == bound_gghz_sum_n(4, theta)
        for bad in [math.nan, True, "x"]:
            with pytest.raises(DomainError) as four:
                bound_gghz_sum(bad)
            with pytest.raises(DomainError) as n_qubit:
                bound_gghz_sum_n(4, bad)
            assert str(four.value) == str(n_qubit.value)


class TestMsBounds:
    def test_sum_bound_values(self):
        assert bound_ms_sum(math.pi / 2) == pytest.approx(0.0, abs=1e-12)
        assert bound_ms_sum(0.0) == pytest.approx(4 * SQRT2 + 12.0)
        assert bound_ms_sum(math.pi) == pytest.approx(4 * SQRT2 + 12.0)

    def test_spectral_values(self):
        assert bound_ms_sum_spectral(0.0) == pytest.approx(20.0)
        assert bound_ms_sum_spectral(math.pi) == pytest.approx(20.0)
        assert bound_ms_sum_spectral(math.pi / 2) == pytest.approx(0.0, abs=1e-12)

    def test_ordering_holds_midrange_only(self, rng):
        # The two MS aggregates swap order outside (2.096, 3.327); the
        # figure sweep keeps both columns so the swap stays visible.
        for theta in rng.uniform(2.15, 3.27, 50):
            assert bound_ms_sum(theta) <= bound_ms_sum_spectral(theta) + 1e-12
        assert bound_ms_sum(1.8) > bound_ms_sum_spectral(1.8)
        assert bound_ms_sum(4.0) > bound_ms_sum_spectral(4.0)

    def test_corrected_values(self):
        assert bound_ms_sum(0.0, "corrected") == pytest.approx(4 * SQRT2 + 12.0)
        assert bound_ms_sum(math.pi, "corrected") == pytest.approx(4 * SQRT2 + 12.0)
        assert bound_ms_sum(math.pi / 2, "corrected") == pytest.approx(0.0, abs=1e-12)

    def test_corrected_against_verbatim_by_sign_of_sin_2t(self, rng):
        # The readings differ only in the light term: |cos t| against
        # |cos t| |cos t + sin t| = |cos t| sqrt(1 + sin 2t).
        for theta in rng.uniform(0.0, 2 * math.pi, 200):
            s2 = math.sin(2 * theta)
            if abs(s2) < 1e-6 or abs(math.cos(theta)) < 1e-6:
                continue
            corrected = bound_ms_sum(theta, "corrected")
            verbatim = bound_ms_sum(theta, "verbatim")
            if s2 > 0:
                assert corrected < verbatim
            else:
                assert corrected > verbatim
        for theta in (0.0, math.pi / 2, math.pi, 1.5 * math.pi):
            assert bound_ms_sum(theta, "corrected") == pytest.approx(
                bound_ms_sum(theta, "verbatim"), abs=1e-12)

    def test_unknown_variant_rejected(self):
        with pytest.raises(DomainError):
            bound_ms_sum(0.0, "fixed")

    def test_n_qubit_disagrees_with_four_qubit_form(self):
        # At n = 4 the general formula weighs the second term with 4, the
        # four-qubit statement with 12; both are exposed deliberately.
        assert bound_ms_sum_n(4, 0.0) == pytest.approx(12 * SQRT2 + 4.0)
        assert bound_ms_sum(0.0) == pytest.approx(4 * SQRT2 + 12.0)
        assert abs(bound_ms_sum_n(4, 0.0) - bound_ms_sum(0.0)) > 1.0

    def test_n_qubit_values(self):
        assert bound_ms_sum_n(5, math.pi / 2) == pytest.approx(0.0, abs=1e-12)
        assert bound_ms_sum_n(6, 0.0) == pytest.approx(40 * SQRT2 + 40.0)
        with pytest.raises(InvalidArityError):
            bound_ms_sum_n(3, 0.0)

    def test_n_qubit_corrected_values(self):
        assert bound_ms_sum_n(4, 0.0, "corrected") == pytest.approx(12.0 + 4 * SQRT2)
        assert bound_ms_sum_n(6, math.pi, "corrected") == pytest.approx(40.0)
        assert bound_ms_sum_n(8, math.pi / 2, "corrected") == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(DomainError):
            bound_ms_sum_n(5, 0.0, "fixed")

    def test_corrected_n_qubit_reading_is_the_maximized_sum(self):
        # In the style of acceptance criterion 05: every MS reduction
        # reaches its 4*lambda1 (in closed form), the corrected reading
        # equals the maximized sum and, at n = 4, the corrected four-qubit
        # bound.  The printed reading is exceeded exactly where
        # |cos t + sin t| < 3 - 2 sqrt(2) at n = 4, and for n >= 5 holds
        # with at least sqrt(2) times the sum.
        flagged, predicted = [], []
        for n in range(4, 9):
            for theta in np.linspace(0.0, 2 * math.pi, 41):
                psi = make_ms(n, theta)
                maxima = [maximize_svetlichny(reduce_pure(psi, keep), FAST)
                          for keep in combinations(range(n), 3)]
                total = sum(best.value for best in maxima)
                corrected = bound_ms_sum_n(n, theta, "corrected")
                verbatim = bound_ms_sum_n(n, theta)
                assert all(best.evaluations == 0 for best in maxima)
                assert abs(total - corrected) <= 1e-9
                if n == 4:
                    assert corrected == pytest.approx(bound_ms_sum(theta, "corrected"),
                                                      abs=1e-12)
                    if abs(math.cos(theta) + math.sin(theta)) < 3 - 2 * SQRT2:
                        predicted.append(theta)
                else:
                    assert verbatim >= SQRT2 * total - 1e-9
                if total > verbatim + 1e-9:
                    flagged.append(theta)
        assert flagged == predicted
        assert len(flagged) == 2  # 3 pi/4 and 7 pi/4 on this grid


@pytest.mark.parametrize("bound", [
    bound_gghz_sum, bound_gghz_sum_spectral, lambda t: bound_gghz_sum_n(5, t),
    bound_ms_sum, bound_ms_sum_spectral, lambda t: bound_ms_sum_n(5, t),
])
@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, "0.3", True,
                                   pytest.param(-10**5000, id="-10**5000")])
def test_theta_bounds_reject_non_finite_theta(bound, theta):
    with pytest.raises(DomainError, match="theta"):
        bound(theta)


class TestWclassSumBound:
    def test_single_excitation(self):
        w = WClassCoefficients(1.0, 0.0, 0.0, 0.0, 0.0)
        # Each group contributes 2*(sqrt(2) + sqrt(2)).
        assert bound_wclass_sum(w) == pytest.approx(16 * SQRT2, abs=1e-12)

    def test_vacuum_only(self):
        w = WClassCoefficients(0.0, 0.0, 0.0, 0.0, 1.0)
        assert bound_wclass_sum(w) == pytest.approx(16 * SQRT2, abs=1e-12)

    def test_standard_w_matches_second_reading(self):
        w = WClassCoefficients(0.5, 0.5, 0.5, 0.5, 0.0)
        assert bound_wclass_sum(w) == pytest.approx(
            second_reading_sum_bound(0.5, 0.5, 0.5, 0.5, 0.0), abs=1e-12)

    def test_random_tuples_match_second_reading(self, rng):
        for _ in range(20):
            v = np.abs(rng.normal(size=5))
            v /= np.linalg.norm(v)
            w = WClassCoefficients(*v)
            assert bound_wclass_sum(w) == pytest.approx(
                second_reading_sum_bound(*v), abs=1e-12)

    def test_variants_differ_exactly_on_asymmetric_terms(self):
        w = WClassCoefficients(0.1, 0.5, 0.5, 0.5, math.sqrt(1 - 0.76))
        verbatim = bound_wclass_sum(w, "verbatim")
        corrected = bound_wclass_sum(w, "corrected")
        assert verbatim != pytest.approx(corrected, abs=1e-9)

    def test_verbatim_negative_radicand_raises(self):
        w = WClassCoefficients(math.sqrt(0.5), -0.25, 0.25, math.sqrt(0.375), 0.0)
        with pytest.raises(DomainError):
            bound_wclass_sum(w, "verbatim")
        assert bound_wclass_sum(w, "corrected") > 0

    def test_bounds_maximized_sum(self, rng):
        for _ in range(4):
            v = np.abs(rng.normal(size=5))
            v /= np.linalg.norm(v)
            psi = make_wclass(*v)
            total = sum(maximize_svetlichny(reduce_pure(psi, keep), FAST).value
                        for keep in combinations(range(4), 3))
            w = WClassCoefficients(*v)
            assert total <= bound_wclass_sum(w, "verbatim") + 1e-6
            assert total <= bound_wclass_sum(w, "corrected") + 1e-6

    def test_unknown_variant_rejected(self):
        with pytest.raises(DomainError):
            bound_wclass_sum(WClassCoefficients(1, 0, 0, 0, 0), "fixed")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_coefficients(self, bad):
        with pytest.raises(NormalizationError):
            WClassCoefficients(bad, 0.0, 0.0, 1.0)
        with pytest.raises(NormalizationError):
            WClassCoefficients(0.0, 0.0, 0.0, 1.0, bad)

    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            WClassCoefficients(1.0, 1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("big, norm", [(1e300, 1e300), (1e-200, 1e-200)])
    def test_huge_or_tiny_coefficients_name_their_norm(self, big, norm):
        # Their squares overflow or underflow; no RuntimeWarning escapes.
        with pytest.raises(NormalizationError, match=re.escape(f"norm {norm!r}, expected 1")):
            WClassCoefficients(big, 0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma", "delta", "lam"])
    @pytest.mark.parametrize("bad", [1j, None, "0.5", True, np.True_], ids=repr)
    def test_rejects_coefficients_that_are_not_real_numbers(self, field, bad):
        # Zeros elsewhere, so the vector would be normalized were bad read as
        # 1.  Both name lam 'lambda', as a WCLASS spec does.
        coeffs = dict.fromkeys(["alpha", "beta", "gamma", "delta", "lam"], 0.0)
        name = {"lam": "lambda"}.get(field, field)
        for build in (make_wclass, WClassCoefficients):
            with pytest.raises(DomainError, match=f"field '{name}' must be a real number"):
                build(**{**coeffs, field: bad})

    def test_keeps_coefficients_as_given(self):
        w = WClassCoefficients(1, 0, 0, np.float64(0.0))
        assert type(w.alpha) is int and type(w.delta) is np.float64

    @pytest.mark.parametrize("bound", ["theorem3", "eqn3p"])
    @pytest.mark.parametrize("delta", [0.5000000010, 0.5000000015, 0.5000000019])
    def test_spec_normalized_within_tolerance_reaches_every_bound(self, bound, delta):
        # Squared sums off by 1e-9 to 2e-9, norms off by less than 1e-9:
        # the spec builds, so the bound must accept its coefficients too.
        params = {"alpha": 0.5, "beta": 0.5, "gamma": 0.5, "delta": delta,
                  "lambda": 0.0}
        assert 1e-9 <= sum(v * v for v in params.values()) - 1.0 <= 2e-9
        report = verify_tradeoff(StateSpec("WCLASS", 4, params), bound, FAST)
        assert report.satisfied
        rhs = {"theorem3": bound_wclass_sum, "eqn3p": bound_wclass_sum_squares}[bound]
        assert report.rhs == pytest.approx(
            rhs(WClassCoefficients(0.5, 0.5, 0.5, 0.5)), abs=1e-6)

    def test_one_normalization_rule_with_make_wclass(self):
        # The norm, not the squared sum, must lie within 1e-9 of 1.
        inside = (0.5, 0.5, 0.5, 0.5000000019, 0.0)
        outside = (0.5, 0.5, 0.5, 0.5000000021, 0.0)
        for build in (make_wclass, WClassCoefficients):
            build(*inside)
            with pytest.raises(NormalizationError):
                build(*outside)


class TestWclassSumSquaresBounds:
    def test_maximum_point(self):
        w = WClassCoefficients(0.0, math.sqrt(2 / 7), math.sqrt(3 / 7),
                               math.sqrt(2 / 7))
        assert bound_wclass_sum_squares(w) == pytest.approx(704 / 7, abs=1e-12)

    def test_basis_state(self):
        assert bound_wclass_sum_squares(
            WClassCoefficients(1.0, 0.0, 0.0, 0.0)) == pytest.approx(64.0)

    def test_balanced_pair(self):
        w = slice_coeffs(1 / SQRT2)
        assert bound_wclass_sum_squares(w) == pytest.approx(96.0, abs=1e-12)

    def test_vacuum_at_the_zero_tolerance(self):
        # lam = 1e-12 is the largest vacuum amplitude the zero-vacuum
        # bounds accept; twice that is refused.
        at_edge = WClassCoefficients(0.0, 0.0, 0.6, 0.8, 1e-12)
        assert bound_wclass_sum_squares(at_edge) == pytest.approx(
            bound_wclass_sum_squares(slice_coeffs(0.6)), abs=1e-12)
        bound_wclass_sum_squares_spectral(at_edge)
        spec = StateSpec("WCLASS", 4, {"alpha": 0.0, "beta": 0.0, "gamma": 0.6,
                                       "delta": 0.8, "lambda": 1e-12})
        assert verify_tradeoff(spec, "eqn3p", FAST).satisfied
        beyond = WClassCoefficients(0.0, 0.0, 0.6, 0.8, 2e-12)
        with pytest.raises(DomainError):
            bound_wclass_sum_squares(beyond)
        with pytest.raises(DomainError):
            bound_wclass_sum_squares_spectral(beyond)

    def test_rejects_nonzero_vacuum(self):
        w = WClassCoefficients(0.0, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            bound_wclass_sum_squares(w)
        with pytest.raises(DomainError):
            bound_wclass_sum_squares_spectral(w)

    def test_spectral_slice_matches_closed_form(self):
        # On the alpha = beta = 0 slice the printed expression collapses to
        # 32*(2g^2 - 1)^2 + 256*g*(1 - g^2) + 32, derived by hand.
        for gamma in np.linspace(0.0, 1.0, 21):
            w = slice_coeffs(gamma)
            expected = (32 * (2 * gamma**2 - 1) ** 2
                        + 256 * gamma * (1 - gamma**2) + 32)
            assert bound_wclass_sum_squares_spectral(w) == pytest.approx(
                expected, abs=1e-10)

    def test_spectral_slice_endpoints(self):
        assert bound_wclass_sum_squares_spectral(slice_coeffs(0.0)) == pytest.approx(64.0)
        assert bound_wclass_sum_squares_spectral(slice_coeffs(1.0)) == pytest.approx(64.0)

    def test_slice_ordering(self):
        for gamma in np.linspace(0.0, 1.0, 200):
            w = slice_coeffs(gamma)
            assert (bound_wclass_sum_squares(w)
                    <= bound_wclass_sum_squares_spectral(w) + 1e-9)


class TestVerifyTradeoff:
    def test_gghz_satisfied_with_near_equality(self):
        spec = StateSpec("GGHZ", 4, {"theta": math.pi / 3})
        report = verify_tradeoff(spec, "theorem1", FAST)
        assert report.mode == "sum"
        assert report.rhs == pytest.approx(8.0, abs=1e-12)
        assert report.satisfied
        assert report.lhs == pytest.approx(8.0, abs=1e-4)
        assert report.converged
        assert len(report.per_reduction) == 4
        for r in report.per_reduction:
            assert r.value <= r.upper_bound_4lambda1 + 1e-6
            assert r.value <= 4.0 + 1e-6

    def test_report_consistency_and_gap(self):
        spec = StateSpec("GGHZ", 4, {"theta": 0.2})
        report = verify_tradeoff(spec, "theorem1", FAST)
        assert report.satisfied == (report.lhs <= report.rhs + 1e-6)
        assert report.gap == pytest.approx(report.rhs - report.lhs, abs=1e-12)

    def test_ms_bound_fails_where_derivation_breaks(self):
        # For theta in (pi/2, pi) the attainable per-reduction value
        # 4*sqrt(cos^4 + sin^2(2t)/4) exceeds the printed 4|cos^2 + sin(2t)/2|,
        # so the summed bound is genuinely violated; the harness must say so.
        theta = 2 * math.pi / 3
        spec = StateSpec("MS", 4, {"theta": theta})
        report = verify_tradeoff(spec, "theorem2", OptimizerOptions(restarts=16))
        assert report.lhs == pytest.approx(2 * SQRT2 + 6.0, abs=1e-4)
        assert report.rhs == pytest.approx(bound_ms_sum(theta), abs=1e-12)
        assert not report.satisfied
        assert report.gap < 0
        for r in report.per_reduction:
            assert r.value <= r.upper_bound_4lambda1 + 1e-6

    def test_ms_corrected_bound_is_attained(self):
        spec = StateSpec("MS", 4, {"theta": 2 * math.pi / 3})
        report = verify_tradeoff(spec, "theorem2", FAST, variant="corrected")
        assert report.variant == "corrected"
        assert report.rhs == pytest.approx(
            bound_ms_sum(2 * math.pi / 3, "corrected"), abs=1e-12)
        assert report.satisfied
        assert abs(report.gap) <= 1e-6

    def test_wclass_sum_squares_at_maximizer(self):
        spec = StateSpec("WCLASS", 4, {
            "alpha": 0.0, "beta": math.sqrt(2 / 7), "gamma": math.sqrt(3 / 7),
            "delta": math.sqrt(2 / 7), "lambda": 0.0})
        report = verify_tradeoff(spec, "eqn3p", FAST)
        assert report.mode == "sum_squares"
        assert report.rhs == pytest.approx(704 / 7, abs=1e-12)
        assert report.satisfied

    def test_wclass_reductions_reach_the_grid_at_eight_restarts(self):
        # The W-class state that the benchmark draws at seed 203: at 8
        # restarts the angle-space simplex search stopped 0.0149 below
        # the pi/8 grid on reduction (1, 2, 3).
        spec = StateSpec("WCLASS", 4, {
            "alpha": 0.8303496459204502, "beta": 0.33836200904423,
            "gamma": -0.308244092103719, "delta": -0.3178304517167752,
            "lambda": 0.0})
        report = verify_tradeoff(spec, "eqn3p", FAST)
        for r in report.per_reduction:
            grid = svetlichny_grid_search(reduce_pure(spec.to_pure(), r.keep),
                                          math.pi / 8)
            assert r.value >= grid - 1e-9, r.keep
            assert r.converged

    def test_nearly_flat_wclass_maxima_converge_at_eight_restarts(self):
        # The theorem3 state that the benchmark draws at seed 4001: the
        # see-saw without its Newton step used all 2000 sweeps unconverged
        # on every reduction, and on (0, 2, 3), where the second and third
        # singular values of the flattened tensor differ by 7e-4, it
        # stopped 2.9e-7 below the value that 20000 sweeps reach.
        spec = StateSpec("WCLASS", 4, {
            "alpha": 0.5617398159267837, "beta": 0.29319377629381627,
            "gamma": 0.6292626000518837, "delta": 0.4489780000907007,
            "lambda": 0.03054708424077021})
        report = verify_tradeoff(spec, "theorem3", FAST)
        assert report.converged
        assert report.per_reduction[2].keep == (0, 2, 3)
        assert report.per_reduction[2].value >= 3.7585364548720115 - 1e-12

    def test_corollary1_bound_accepts_five_qubits(self):
        spec = StateSpec("GGHZ", 5, {"theta": 0.4})
        report = verify_tradeoff(spec, "corollary1", FAST)
        assert len(report.per_reduction) == 10
        assert report.rhs == pytest.approx(40 * abs(math.cos(0.8)), abs=1e-12)
        assert report.satisfied

    def test_corollary1_bound_six_qubits(self):
        spec = StateSpec("GGHZ", 6, {"theta": 0.7})
        report = verify_tradeoff(spec, "corollary1", OptimizerOptions(restarts=4))
        assert len(report.per_reduction) == 20
        assert report.rhs == pytest.approx(80 * abs(math.cos(1.4)), abs=1e-12)
        assert report.satisfied

    def test_family_mismatch_rejected(self):
        spec = StateSpec("GGHZ", 4, {"theta": 0.3})
        with pytest.raises(DomainError):
            verify_tradeoff(spec, "theorem2", FAST)

    def test_arity_mismatch_rejected(self):
        spec = StateSpec("GGHZ", 5, {"theta": 0.3})
        with pytest.raises(InvalidArityError):
            verify_tradeoff(spec, "theorem1", FAST)

    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_corollary2_corrected_reading_is_attained(self, n):
        spec = StateSpec("MS", n, {"theta": 2.0})
        report = verify_tradeoff(spec, "corollary2", FAST, variant="corrected")
        assert report.variant == "corrected"
        assert report.rhs == bound_ms_sum_n(n, 2.0, "corrected")
        assert report.lhs == pytest.approx(report.rhs, abs=1e-9)
        assert report.satisfied

    def test_unknown_bound_rejected(self):
        spec = StateSpec("GGHZ", 4, {"theta": 0.3})
        for bound in ["theorem9", ["theorem1"]]:
            with pytest.raises(DomainError, match="unknown bound"):
                verify_tradeoff(spec, bound, FAST)

    @pytest.mark.parametrize("bound, spec", [
        ("theorem1", StateSpec("GGHZ", 4, {"theta": 0.3})),
        ("corollary1", StateSpec("GGHZ", 5, {"theta": 0.3})),
        ("eqn3p", StateSpec("WCLASS", 4, {"alpha": 0.6, "beta": 0.0, "gamma": 0.0,
                                          "delta": 0.8, "lambda": 0.0})),
    ])
    def test_one_reading_bounds_reject_corrected(self, bound, spec):
        with pytest.raises(DomainError, match="no 'corrected' reading"):
            verify_tradeoff(spec, bound, FAST, variant="corrected")

    def test_unknown_variant_rejected(self):
        spec = StateSpec("MS", 4, {"theta": 2.0})
        with pytest.raises(DomainError):
            verify_tradeoff(spec, "theorem2", FAST, variant="symmetric")

    @pytest.mark.parametrize("data, bound, classes", [
        ({"family": "GGHZ", "n": 6, "theta": 0.7}, "corollary1", 1),
        ({"family": "MS", "n": 7, "theta": 2.0}, "corollary2", 2),
        (RANDOM_WCLASS, "theorem3", 4),
    ])
    def test_each_class_pays_once_for_its_closed_form_and_bound(
            self, data, bound, classes, closed_form_runs):
        exact, singular = closed_form_runs
        verify_tradeoff(StateSpec.from_dict(data), bound, FAST)
        assert len(exact) == classes
        assert len(singular) == classes

    @pytest.mark.parametrize("data, bound, variant", [
        ({"family": "MS", "n": 7, "theta": 2.0}, "corollary2", "verbatim"),
        ({"family": "MS", "n": 7, "theta": 2.0}, "corollary2", "corrected"),
        ({"family": "GGHZ", "n": 6, "theta": 0.7}, "corollary1", "verbatim"),
        (RANDOM_WCLASS, "theorem3", "verbatim"),
    ])
    def test_class_walk_matches_combinations_order_bytewise(
            self, data, bound, variant, monkeypatch):
        got = verify_tradeoff(StateSpec.from_dict(data), bound, FAST, variant)
        # The reference maximizes the keeps in combinations order on a
        # fresh state, with the matrix memos dropped before each keep.
        spec = StateSpec.from_dict(data)
        psi = spec.to_pure()
        rows = []
        for keep in combinations(range(spec.num_qubits), 3):
            drop_memos(monkeypatch)
            rho = reduce_pure(psi, keep)
            best = maximize_svetlichny(rho, FAST)
            rows.append(tradeoff.ReductionResult(
                keep, best.value, svetlichny_upper_bound(rho), best.converged))
        lhs = sum(r.value for r in rows)
        rhs = tradeoff._BOUND_RULES[bound].rhs(spec, variant)
        want = tradeoff.TradeoffReport(
            spec.family, dict(spec.params), bound, "sum", variant, tuple(rows), lhs, rhs,
            lhs <= rhs + tradeoff.SATISFIED_TOL, rhs - lhs, all(r.converged for r in rows))
        assert json.dumps(dataclasses.asdict(got)) == json.dumps(dataclasses.asdict(want))

    def test_report_round_trips_to_json(self):
        spec = StateSpec("GGHZ", 4, {"theta": 0.3})
        report = verify_tradeoff(spec, "theorem1", FAST)
        data = json.loads(json.dumps(dataclasses.asdict(report)))
        assert data["bound"] == "theorem1"
        assert data["satisfied"] is True
        assert len(data["per_reduction"]) == 4

    def test_spec_keeps_its_own_params(self):
        # The bound reads the spec's params after the state is built, so a
        # caller's later edit to its mapping must reach neither.
        params = {"theta": 0.3}
        spec = StateSpec("GGHZ", 4, params)
        params["theta"] = math.pi / 4
        report = verify_tradeoff(spec, "theorem1", OptimizerOptions(restarts=2))
        assert report.rhs == bound_gghz_sum(0.3)
        assert report.satisfied
        assert report.params == {"theta": 0.3}
        assert pickle.loads(pickle.dumps(spec)).params == {"theta": 0.3}

    def test_spec_params_cannot_be_edited_after_the_state_is_built(self):
        # An edit would pit the built state's maxima against the edited bound.
        spec = StateSpec("GGHZ", 4, {"theta": 0.3})
        with pytest.raises(TypeError):
            spec.params["theta"] = 1.2
        report = verify_tradeoff(spec, "theorem1", OptimizerOptions(restarts=2))
        assert report.params == {"theta": 0.3}
        assert report.rhs == bound_gghz_sum(0.3) and report.satisfied
        assert json.loads(json.dumps(dataclasses.asdict(report)))["params"] == {"theta": 0.3}

    def test_report_params_cannot_be_edited(self):
        # An edit would rewrite the JSON params under the old rhs and verdict.
        report = verify_tradeoff(StateSpec("GGHZ", 4, {"theta": 0.3}), "theorem1",
                                 OptimizerOptions(restarts=2))
        with pytest.raises(TypeError):
            report.params["theta"] = 1.2
        edits = [lambda p: p.__delitem__("theta"), lambda p: p.update(theta=1.2),
                 lambda p: p.setdefault("x", 1), lambda p: p.pop("theta"),
                 lambda p: p.popitem(), lambda p: p.clear()]
        for edit in edits:
            with pytest.raises(TypeError):
                edit(report.params)
        assert report.params == {"theta": 0.3}
        for twin in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
            assert twin == report
            with pytest.raises(TypeError):
                twin.params["theta"] = 1.2
        assert json.dumps(dataclasses.asdict(report)).startswith(
            '{"family": "GGHZ", "params": {"theta": 0.3}, "bound": "theorem1"')


class TestSweepFigure:
    def test_fig1_grid_and_ordering(self):
        cols, rows, converged = sweep_figure("FIG1", 91)
        assert converged
        assert cols == ("theta", "sum_bound", "spectral_bound")
        assert len(rows) == 91
        assert rows[0][0] == 0.0
        assert rows[-1][0] == pytest.approx(math.pi / 4)
        for theta, sum_bound, spectral in rows:
            assert sum_bound <= spectral + 1e-12
        assert rows[0][1] == pytest.approx(rows[0][2], abs=1e-12)
        for theta, sum_bound, spectral in rows[1:]:
            assert sum_bound < spectral - 1e-9

    def test_fig2_open_interval(self):
        cols, rows, _ = sweep_figure("FIG2", 51)
        assert cols == ("theta", "sum_bound", "spectral_bound")
        assert rows[0][0] > math.pi / 2
        assert rows[-1][0] < 1.5 * math.pi
        mid = rows[len(rows) // 2]
        assert mid[1] == pytest.approx(bound_ms_sum(mid[0]), abs=1e-12)

    def test_fig2_variant_reaches_sum_bound_column(self):
        default = sweep_figure("FIG2", 51)
        assert sweep_figure("FIG2", 51, variant="verbatim") == default
        cols, rows, _ = sweep_figure("FIG2", 51, variant="corrected")
        assert cols == default[0]
        for (theta, sum_bound, spectral), old in zip(rows, default[1]):
            assert theta == old[0]
            assert sum_bound == bound_ms_sum(theta, "corrected")
            assert spectral == old[2]

    def test_fig3_columns(self):
        for variant in ("verbatim", "corrected"):
            cols, rows, converged = sweep_figure("FIG3", 41, variant=variant)
            assert converged
            assert cols == ("gamma", "sum_squares_bound", "spectral_bound")
            for gamma, f, g in rows:
                assert f <= g + 1e-9
                # On the slice the corrected reading is 64(1 + 2 g^2 d^2) too.
                assert variant == "verbatim" or abs(f - g) <= 1e-12

    def test_fig4_pairwise_equality_and_bound(self):
        cols, rows, converged = sweep_figure("FIG4", 3, FAST)
        assert converged
        assert cols == ("gamma", "sq_value_abc", "sq_value_acd", "sq_sum",
                        "sum_squares_bound")
        for gamma, s2_abc, s2_acd, total, bound in rows:
            assert total <= bound + 1e-6
            assert total == pytest.approx(2 * (s2_abc + s2_acd), abs=2e-6)

    def test_fig4_reductions_pair_up(self):
        spec = StateSpec("WCLASS", 4, {"alpha": 0.0, "beta": 0.0, "gamma": 0.6,
                                       "delta": 0.8, "lambda": 0.0})
        report = verify_tradeoff(spec, "eqn3p", FAST)
        sq = {r.keep: r.value**2 for r in report.per_reduction}
        assert sq[(0, 1, 2)] == pytest.approx(sq[(0, 1, 3)], abs=1e-6)
        assert sq[(0, 2, 3)] == pytest.approx(sq[(1, 2, 3)], abs=1e-6)

    def test_rejects_bad_figure_and_grid(self):
        for fig in ["FIG9", ["FIG1"]]:
            with pytest.raises(DomainError, match="unknown figure"):
                sweep_figure(fig, 10)
        with pytest.raises(DomainError):
            sweep_figure("FIG1", 1)

    @pytest.mark.parametrize("fig, opts, variant", [
        ("FIG1", None, "corrected"),
        ("FIG4", None, "corrected"),
        ("FIG1", FAST, "verbatim"),
        ("FIG2", FAST, "verbatim"),
        ("FIG3", FAST, "corrected"),
    ])
    def test_rejects_settings_the_figure_does_not_read(self, fig, opts, variant):
        with pytest.raises(DomainError, match=f"figure '{fig}'"):
            sweep_figure(fig, 3, opts, variant)

    def test_grid_cap_is_checked_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the grid-size check")

        # _linspace builds its grid from range(n).
        monkeypatch.setattr(tradeoff, "range", refuse, raising=False)
        for fig in FIGURES:
            with pytest.raises(DomainError, match=str(tradeoff.MAX_POINTS)):
                sweep_figure(fig, tradeoff.MAX_POINTS + 1)


class TestGghzPipeline:
    def test_random_thetas_respect_sum_bound(self, rng):
        for theta in rng.uniform(0, math.pi / 2, 5):
            spec = StateSpec("GGHZ", 4, {"theta": float(theta)})
            report = verify_tradeoff(spec, "theorem1", FAST)
            assert report.satisfied
            for r in report.per_reduction:
                assert r.value <= 4.0 + 1e-6

    def test_corollary1_is_attained(self):
        # Every reduction of GGHZ(n) is cos^2 t |000><000| + sin^2 t |111><111|,
        # whose only triple correlation is T[z,z,z] = cos 2t: its 4*lambda1
        # is 4|cos 2t|, the maximum reaches it, and the sum is the bound.
        for n in range(4, 9):
            for theta in np.linspace(0.0, math.pi, 13):
                spec = StateSpec("GGHZ", n, {"theta": float(theta)})
                psi = spec.to_pure()
                expected = np.zeros((3, 3, 3))
                expected[2, 2, 2] = math.cos(2 * theta)
                for keep in combinations(range(n), 3):
                    m = correlation_tensor(reduce_pure(psi, keep)).m
                    np.testing.assert_allclose(m, expected, rtol=0, atol=1e-15)
                report = verify_tradeoff(spec, "corollary1", FAST)
                for r in report.per_reduction:
                    assert abs(r.value - r.upper_bound_4lambda1) <= 1e-9, (n, theta, r.keep)
                assert abs(report.lhs - bound_gghz_sum_n(n, theta)) <= 1e-9, (n, theta)
