import dataclasses
import json
import math
import re
import time
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svl import (
    BlochVector,
    DensityMatrix,
    DomainError,
    InvalidArityError,
    OptimizerOptions,
    PureState,
    SvetlichnySettings,
    lagrange_max,
    make_dicke,
    make_gghz,
    make_ms,
    make_wclass,
    maximally_mixed,
    maximize_svetlichny,
    reduce_pure,
    svetlichny_grid_search,
    svetlichny_upper_bound,
    svetlichny_value,
    to_density,
)
from svl.svetlichny import (
    MAX_RESTARTS, _SIGN, _coefficients, _exact_directions, _grid_directions,
    _newton_step, _schur, _seesaw, _settings, _starts, _sweep, _table,
)
from svl import correlations
from svl.correlations import PAULIS, correlation_tensor
from svl.qstate import STRUCTURAL_TOL

from conftest import (
    drop_memos,
    kron3,
    obs,
    observable,
    oracle_grid_search,
    oracle_projected_gradient_max,
    oracle_svetlichny_matrix,
    random_density_entries,
    svetlichny_operator,
)

SQRT2 = math.sqrt(2.0)
angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
X_DIR = BlochVector(math.pi / 2.0, 0.0)
Y_DIR = BlochVector(math.pi / 2.0, math.pi / 2.0)
Z_DIR = BlochVector(0.0, 0.0)


def ghz3():
    return to_density(make_gghz(3, math.pi / 4))


def w3():
    # Below its 4*lambda1, so only the see-saw maximizes it.
    return to_density(make_dicke(3, 1))


def optimal_ghz_settings():
    # Reaches +4*sqrt(2) on the GHZ state: x/y axes for the outer parties
    # and the diagonal pair for the middle one.
    return SvetlichnySettings(
        a=X_DIR, a_p=Y_DIR,
        b=BlochVector(math.pi / 2, -math.pi / 4),
        b_p=BlochVector(math.pi / 2, math.pi / 4),
        c=X_DIR, c_p=Y_DIR)


def random_settings(rng):
    return SvetlichnySettings(*(BlochVector(rng.uniform(0, math.pi),
                                            rng.uniform(0, 2 * math.pi))
                                for _ in range(6)))


class TestObservable:
    def test_pauli_axes(self):
        np.testing.assert_allclose(observable(Z_DIR), np.diag([1.0, -1.0]), atol=1e-15)
        np.testing.assert_allclose(observable(X_DIR),
                                   np.array([[0, 1], [1, 0]]), atol=1e-15)
        np.testing.assert_allclose(observable(Y_DIR),
                                   np.array([[0, -1j], [1j, 0]]), atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(theta=angles, phi=angles)
    def test_unit_spectrum(self, theta, phi):
        mat = observable(BlochVector(theta, phi))
        assert abs(np.trace(mat)) < 1e-12
        np.testing.assert_allclose(np.linalg.eigvalsh(mat), [-1.0, 1.0], atol=1e-12)


class TestOperator:
    def test_all_z_cancels(self):
        s = SvetlichnySettings(Z_DIR, Z_DIR, Z_DIR, Z_DIR, Z_DIR, Z_DIR)
        assert np.max(np.abs(svetlichny_operator(s))) < 1e-14

    def test_optimal_settings_on_ghz(self):
        s = optimal_ghz_settings()
        vecs = [v.cartesian for v in (s.a, s.a_p, s.b, s.b_p, s.c, s.c_p)]
        oracle = oracle_svetlichny_matrix(*vecs)
        np.testing.assert_allclose(svetlichny_operator(s), oracle, atol=1e-12)
        assert np.trace(oracle @ ghz3().entries).real == pytest.approx(
            4 * SQRT2, abs=1e-12)

    def test_matches_kron_oracle_exactly(self, rng):
        # svetlichny_operator and the oracle take the same np.kron products;
        # the settings' own operator, which svetlichny_value reads, is
        # built by another route.
        axes = [X_DIR, Y_DIR, Z_DIR, BlochVector(math.pi / 2, math.pi)]
        cases = [random_settings(rng) for _ in range(200)]
        cases += [SvetlichnySettings(*(axes[k % 4] for k in range(i, i + 6)))
                  for i in range(4)]
        for s in cases:
            vecs = [v.cartesian for v in (s.a, s.a_p, s.b, s.b_p, s.c, s.c_p)]
            assert np.array_equal(svetlichny_operator(s),
                                  oracle_svetlichny_matrix(*vecs))
            assert np.abs(s._operator - svetlichny_operator(s)).max() <= 1e-15

    def test_hermitian_and_norm_capped(self, rng):
        for _ in range(20):
            s = random_settings(rng)
            mat = svetlichny_operator(s)
            assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
            assert np.max(np.abs(np.linalg.eigvalsh(mat))) <= 4 * SQRT2 + 1e-9


class TestValue:
    def test_ghz_optimal(self):
        assert svetlichny_value(ghz3(), optimal_ghz_settings()) == pytest.approx(
            4 * SQRT2, abs=1e-12)

    def test_maximally_mixed_any_settings(self, rng):
        for _ in range(5):
            assert svetlichny_value(maximally_mixed(3),
                                    random_settings(rng)) == pytest.approx(
                0.0, abs=1e-12)

    def test_matches_literal_oracle(self, rng):
        for _ in range(20):
            rho = DensityMatrix(3, random_density_entries(3, rng))
            s = random_settings(rng)
            vecs = [v.cartesian for v in (s.a, s.a_p, s.b, s.b_p, s.c, s.c_p)]
            want = np.trace(oracle_svetlichny_matrix(*vecs) @ rho.entries).real
            assert svetlichny_value(rho, s) == pytest.approx(want, abs=1e-10)
            assert abs(svetlichny_value(rho, s)) <= 4 * SQRT2 + 1e-9

    def test_matches_the_operator_in_the_last_bits(self, rng):
        for _ in range(50):
            rho = DensityMatrix(3, random_density_entries(3, rng))
            s = random_settings(rng)
            want = np.trace(svetlichny_operator(s) @ rho.entries).real
            assert abs(svetlichny_value(rho, s) - want) <= 4e-15

    def test_classical_mixture_reads_exactly_zero_in_closed_form(self):
        # (|000><000| + |111><111|)/2 has a zero triple tensor, and its
        # case-A settings have b = b', so D' = B - B' is exactly zero.
        rho = reduce_pure(make_ms(5, 2.0), (0, 1, 2))
        best = maximize_svetlichny(rho, OptimizerOptions(restarts=1))
        assert best.settings.b == best.settings.b_p
        assert best.value == 0.0

    def test_tensor_fast_path_agrees(self, rng):
        # The see-saw's value of a party's best pair, |g| + |h| on fixed
        # settings, against the 8x8 operator with that pair put in.
        for _ in range(20):
            rho = DensityMatrix(3, random_density_entries(3, rng))
            table = _table(correlation_tensor(rho).m)
            s = random_settings(rng)
            vecs = [v.cartesian for v in (s.a, s.a_p, s.b, s.b_p, s.c, s.c_p)]
            for party in range(3):
                coef = _coefficients(table, np.array([vecs]), party)[0]
                assert float(np.sum(coef * vecs[2 * party:2 * party + 2])) == (
                    pytest.approx(svetlichny_value(rho, s), abs=1e-10))
                best = list(vecs)
                best[2 * party:2 * party + 2] = coef / np.linalg.norm(
                    coef, axis=1, keepdims=True)
                moved = SvetlichnySettings(*map(BlochVector.from_cartesian, best))
                assert float(np.linalg.norm(coef, axis=1).sum()) == pytest.approx(
                    svetlichny_value(rho, moved), abs=1e-10)

    def test_rejects_wrong_arity(self):
        with pytest.raises(InvalidArityError):
            svetlichny_value(maximally_mixed(2), optimal_ghz_settings())

    def test_operator_is_built_once_per_settings(self, rng, monkeypatch):
        rho = DensityMatrix(3, random_density_entries(3, rng))
        s = random_settings(rng)
        first = svetlichny_value(rho, s)
        op = s._operator
        assert not op.flags.writeable
        assert op.shape == (8, 8)
        assert np.abs(op - svetlichny_operator(s)).max() <= 1e-15
        assert first == np.vdot(op, rho.entries).real

        def refuse(v):
            raise AssertionError("operator built again")

        monkeypatch.setattr(BlochVector, "cartesian", property(refuse))
        assert svetlichny_value(rho, s) == first
        assert s._operator is op


class TestDroppedResidue:
    """correlation_tensor and svetlichny_value drop the imaginary part of
    their traces, which qstate._check_density's Hermiticity bound keeps
    below 4e-12 and 6.4e-11.  These tests fail once STRUCTURAL_TOL is
    loosened so far that the residue could reach 1e-10."""

    @staticmethod
    def edge_state(rng, perturbation):
        """A random mixed state plus an anti-Hermitian, zero-diagonal
        perturbation scaled to just inside the Hermiticity tolerance."""
        rho = random_density_entries(3, rng)
        rho = (rho + rho.conj().T) / 2
        np.fill_diagonal(perturbation, 0.0)
        scale = 0.999 * STRUCTURAL_TOL / np.abs(perturbation - perturbation.conj().T).max()
        entries = rho + scale * perturbation
        assert 0.99 * STRUCTURAL_TOL < np.abs(entries - entries.conj().T).max() <= STRUCTURAL_TOL
        return DensityMatrix(3, entries)

    @staticmethod
    def residues(rho, settings):
        """The largest |Im| of the 27 Pauli traces and of the values at
        settings, from the modules' own contractions before .real."""
        traces = np.einsum(correlations._TRACES[3], rho.entries.reshape((2,) * 6),
                           PAULIS, PAULIS, PAULIS)
        np.testing.assert_array_equal(correlation_tensor(rho).m, traces.real)
        values = []
        for s in settings:
            value = np.vdot(s._operator, rho.entries)
            assert svetlichny_value(rho, s) == value.real
            values.append(value)
        return np.abs(traces.imag).max(), np.abs(np.imag(values)).max()

    def test_random_perturbations_at_the_edge(self, rng):
        worst_trace = worst_value = 0.0
        for _ in range(100):
            k = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            rho = self.edge_state(rng, k - k.conj().T)
            trace, value = self.residues(rho, [random_settings(rng) for _ in range(20)])
            worst_trace, worst_value = max(worst_trace, trace), max(worst_value, value)
        assert worst_trace <= 4 * STRUCTURAL_TOL and worst_value <= 64 * STRUCTURAL_TOL
        assert worst_trace < 1e-10 and worst_value < 1e-10

    def test_perturbation_aligned_with_a_pauli_product(self, rng):
        # i * P is anti-Hermitian, and Tr((i c P) P) = 8 i c is the
        # bound 4e-12 itself for c = STRUCTURAL_TOL / 2.
        p = kron3(obs(X_DIR.cartesian), obs(Y_DIR.cartesian), obs(X_DIR.cartesian))
        rho = self.edge_state(rng, 1j * p)
        trace, value = self.residues(rho, [random_settings(rng) for _ in range(20)])
        assert 3.9 * STRUCTURAL_TOL < trace <= 4 * STRUCTURAL_TOL
        assert trace < 1e-10 and value < 1e-10


class TestBlochVector:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "x", True])
    def test_rejects_non_finite_angles(self, bad):
        for theta, phi in ((bad, 0.0), (0.5, bad)):
            with pytest.raises(DomainError):
                BlochVector(theta, phi)

    def test_keeps_float_angles(self):
        b = BlochVector(np.float32(0.3), Fraction(1, 3))
        assert type(b.theta) is float and type(b.phi) is float
        assert (b.theta, b.phi) == (float(np.float32(0.3)), 1 / 3)
        data = json.loads(json.dumps(dataclasses.asdict(SvetlichnySettings(*(b,) * 6))))
        assert data["c_p"] == {"theta": b.theta, "phi": b.phi}

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_from_cartesian_rejects_non_finite_components(self, bad):
        for v in ([bad, 0.0, 0.0], [0.0, bad, 1.0]):
            with pytest.raises(DomainError):
                BlochVector.from_cartesian(v)

    @pytest.mark.parametrize("v, norm", [([1e200, 0.0, 0.0], 1e200), ([0.0, 1e-200, 0.0], 1e-200),
                                         ([2.0, 0.0, 0.0], 2.0)])
    def test_from_cartesian_names_the_norm_it_rejects(self, v, norm):
        # Huge or tiny components: their squares overflow or underflow.
        with pytest.raises(DomainError, match=re.escape(f"direction has norm {norm!r}, expected 1")):
            BlochVector.from_cartesian(v)

    @pytest.mark.parametrize("bad", [[0.0, 0.0, 0.0, 1.0], [1.0, 0.0], [[1.0], [0.0], [0.0]],
                                     [], 1.0], ids=repr)
    def test_from_cartesian_rejects_other_shapes(self, bad):
        with pytest.raises(InvalidArityError):
            BlochVector.from_cartesian(bad)


class TestSettings:
    def test_fields_and_angles_list_the_six_settings_in_order(self):
        vectors = [BlochVector(0.1 * k, 0.2 * k) for k in range(1, 6)] + [Z_DIR]
        s = SvetlichnySettings(*vectors)
        data = dataclasses.asdict(s)
        assert list(data) == ["a", "a_p", "b", "b_p", "c", "c_p"]
        assert data == {name: {"theta": v.theta, "phi": v.phi}
                        for name, v in zip(data, vectors)}
        assert all(list(entry) == ["theta", "phi"] for entry in data.values())
        angles = s.angles()
        assert angles.dtype == np.float64 and angles.shape == (12,)
        assert angles.tolist() == [x for v in vectors for x in (v.theta, v.phi)]
        integral = SvetlichnySettings(*[BlochVector(0, 0)] * 6).angles()
        assert integral.dtype == np.float64 and integral.tolist() == [0.0] * 12


class TestSettingsFromRows:
    def test_angles_are_those_of_from_cartesian(self, rng):
        # Unit rows as the closed form and the see-saw leave them, off unit
        # length by rounding: random directions, directions within 1e-9 of
        # +z or -z, and the poles and axes themselves.
        v = rng.normal(size=(2000, 6, 3))
        polar = rng.random(2000) < 0.5
        v[polar, :, :2] *= 10.0 ** rng.uniform(-18, -9, size=(polar.sum(), 6, 1))
        v[polar, :, 2] = np.where(v[polar, :, 2] < 0, -1.0, 1.0)
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        v *= 1.0 + rng.uniform(-4e-16, 4e-16, size=(2000, 6, 1))
        axes = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1e-300, 0.0, 1.0],
                         [0.0, -1e-17, -1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        for rows in [*v, axes]:
            want = SvetlichnySettings(*map(BlochVector.from_cartesian, rows))
            assert _settings(rows).angles().tobytes() == want.angles().tobytes()


class TestMaximize:
    def test_ghz_reaches_maximum(self):
        best = maximize_svetlichny(ghz3(), OptimizerOptions(restarts=16))
        assert best.value == pytest.approx(4 * SQRT2, abs=1e-6)
        assert best.converged

    def test_self_consistency(self):
        best = maximize_svetlichny(ghz3(), OptimizerOptions(restarts=8))
        assert best.value == pytest.approx(
            svetlichny_value(ghz3(), best.settings), abs=1e-12)

    def test_gghz_reductions_stay_classical(self):
        for theta in (0.0, 0.4, 1.1):
            rho = reduce_pure(make_gghz(4, theta), (0, 1, 2))
            best = maximize_svetlichny(rho, OptimizerOptions(restarts=8))
            assert best.value <= 4.0 + 1e-6
            assert best.value == pytest.approx(4 * abs(math.cos(2 * theta)), abs=1e-5)

    def test_ms_first_reduction_bound(self):
        theta = math.pi / 5
        rho = reduce_pure(make_ms(4, theta), (0, 1, 2))
        best = maximize_svetlichny(rho, OptimizerOptions(restarts=16))
        assert best.value <= 4 * SQRT2 * abs(math.cos(theta)) + 1e-6
        assert best.value >= svetlichny_grid_search(rho, math.pi / 4) - 1e-9

    def test_never_exceeds_spectral_bound(self, rng):
        for _ in range(5):
            rho = DensityMatrix(3, random_density_entries(3, rng))
            best = maximize_svetlichny(rho, OptimizerOptions(restarts=8))
            assert best.value <= svetlichny_upper_bound(rho) + 1e-6

    def test_separable_states_stay_below_four(self):
        basis = to_density(PureState(3, np.eye(8)[0].astype(complex)))
        mix = DensityMatrix(3, 0.5 * np.diag(np.eye(8)[0])
                            + 0.5 * np.diag(np.eye(8)[5]).astype(complex))
        for rho in (basis, mix):
            best = maximize_svetlichny(rho, OptimizerOptions(restarts=8))
            assert best.value <= 4.0 + 1e-6

    def test_restart_monotonicity(self):
        rho = reduce_pure(make_ms(4, 1.0), (0, 1, 3))
        small = maximize_svetlichny(rho, OptimizerOptions(restarts=8, seed=5))
        large = maximize_svetlichny(rho, OptimizerOptions(restarts=64, seed=5))
        assert large.value >= small.value - 1e-12

    def test_rotation_invariance(self, rng):
        target = 4 * SQRT2
        for _ in range(20):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            half = rng.uniform(0, 2 * math.pi) / 2
            u2 = math.cos(half) * np.eye(2) - 1j * math.sin(half) * obs(axis)
            u = np.kron(np.kron(u2, u2), u2)
            rotated = DensityMatrix(3, u @ ghz3().entries @ u.conj().T)
            best = maximize_svetlichny(rotated, OptimizerOptions(restarts=8))
            assert best.value == pytest.approx(target, abs=1e-6)

    def test_unconverged_flag(self, monkeypatch):
        monkeypatch.setattr("svl.svetlichny._MAX_SWEEPS", 3)
        best = maximize_svetlichny(w3(), OptimizerOptions(restarts=2))
        assert not best.converged
        assert best.value <= 4 * SQRT2 + 1e-9

    def test_starts_extend_and_are_read_only(self):
        # Any range of restarts, such as one batch, is the matching rows
        # of a longer draw.
        for seed in (0, 42, 12345):
            long = _starts(seed, 0, 64)
            for start, stop in ((0, 8), (8, 16), (56, 64), (3, 11), (63, 64)):
                batch = _starts(seed, start, stop)
                assert batch.shape == (stop - start, 6, 3)
                assert batch.tobytes() == long[start:stop].tobytes()
                assert _starts(seed, start, stop) is batch
                assert not batch.flags.writeable
                with pytest.raises(ValueError):
                    batch[0, 0, 0] = 1.0
            np.testing.assert_allclose(np.linalg.norm(long, axis=2), 1.0, atol=1e-15)

    def test_a_call_draws_only_the_batches_it_runs(self, monkeypatch):
        # The W state stops after its first batch, so a cap of 10**4 draws
        # the same 8 starts as a cap of 8.
        drawn = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: drawn.append(seed) or default_rng(seed))
        _starts.cache_clear()
        best = maximize_svetlichny(w3(), OptimizerOptions(restarts=MAX_RESTARTS, seed=11))
        assert best.restarts == 8
        assert len(drawn) == 8
        assert best == maximize_svetlichny(w3(), OptimizerOptions(restarts=8, seed=11))
        assert len(drawn) == 8

    def test_restart_cap_is_checked_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the restart-count check")

        rho = ghz3()
        for name in ("SeedSequence", "default_rng"):
            monkeypatch.setattr(np.random, name, refuse)
        for restarts in (0, MAX_RESTARTS + 1):
            with pytest.raises(DomainError, match=str(MAX_RESTARTS)):
                maximize_svetlichny(rho, OptimizerOptions(restarts=restarts))

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 2.5), ("seed", True), ("seed", "3"),
        ("restarts", 0), ("restarts", MAX_RESTARTS + 1), ("restarts", 2.5),
        ("restarts", True),
    ])
    def test_options_are_checked_when_built(self, monkeypatch, field, value):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the options check")

        for name in ("SeedSequence", "default_rng"):
            monkeypatch.setattr(np.random, name, refuse)
        with pytest.raises(DomainError, match=field):
            OptimizerOptions(**{field: value})

    def test_options_accept_numpy_integers(self):
        opts = OptimizerOptions(restarts=np.int64(8), seed=np.int64(3))
        best = maximize_svetlichny(ghz3(), opts)
        assert best == maximize_svetlichny(ghz3(), OptimizerOptions(restarts=8, seed=3))
        # No options at all means the defaults.
        assert maximize_svetlichny(w3()) == maximize_svetlichny(w3(), OptimizerOptions())

    def test_cold_and_warm_starts_agree(self):
        rho = w3()
        opts = OptimizerOptions(restarts=8, seed=7)
        _starts.cache_clear()
        cold = maximize_svetlichny(rho, opts)
        warm = maximize_svetlichny(rho, opts)
        assert _starts.cache_info().hits == 1
        assert (cold.value, cold.converged, cold.evaluations) == (
            warm.value, warm.converged, warm.evaluations)
        assert cold.settings.angles().tobytes() == warm.settings.angles().tobytes()

    def test_stationary_restarts_converge_to_the_bound(self, monkeypatch):
        # Every see-saw sweep on a GGHZ reduction lands on directions whose
        # tangent gradient is exactly zero; the Newton step from there must
        # not move them off the maximum.  The closed form, which would take
        # the reduction, is declined.
        rho = reduce_pure(make_gghz(4, 0.3), (0, 1, 2))
        monkeypatch.setattr("svl.svetlichny._exact_directions", lambda tensor: None)
        drop_memos(monkeypatch)
        best = maximize_svetlichny(rho, OptimizerOptions(restarts=8))
        assert best.converged
        assert best.value == pytest.approx(svetlichny_upper_bound(rho), abs=1e-9)

    @pytest.mark.parametrize("state", ["mixed", "wclass"])
    @pytest.mark.parametrize("batch", [1, 8, 20])
    def test_restarts_do_not_depend_on_the_batch(self, rng, state, batch):
        if state == "mixed":
            rho = DensityMatrix(3, random_density_entries(3, rng))
        else:
            coeffs = rng.normal(size=4)
            rho = reduce_pure(make_wclass(*(coeffs / np.linalg.norm(coeffs)), 0.0), (0, 1, 2))
        m = correlation_tensor(rho).m
        starts = rng.normal(size=(64, 6, 3))
        starts /= np.linalg.norm(starts, axis=2, keepdims=True)
        large = _seesaw(m, starts)
        small = _seesaw(m, starts[:batch])
        for big, part in zip(large, small):
            np.testing.assert_array_equal(big[:batch], part)

    def test_table_is_the_symmetric_trilinear_form(self, rng):
        m = rng.normal(size=(3, 3, 3))
        table = _table(m)
        assert table.shape == (18, 18, 18)
        for order in permutations(range(3)):
            assert np.array_equal(np.transpose(table, order), table)
        blocks = table.reshape(3, 6, 3, 6, 3, 6)
        want = (_SIGN[:, None, :, None, :, None] * m[None, :, None, :, None, :])
        assert np.array_equal(blocks[0, :, 1, :, 2], want.reshape(6, 6, 6))
        for p, q, s in product(range(3), repeat=3):
            if len({p, q, s}) < 3:
                assert not blocks[p, :, q, :, s].any()

    @pytest.mark.parametrize("entries, value", [
        (np.eye(8) / 8, 0.0),
        (np.diag(np.eye(8)[0]), 4.0),
        # |0><0| x I/4: local and pair correlations, a zero triple tensor.
        (np.diag([0.25] * 4 + [0.0] * 4), 0.0),
    ])
    def test_degenerate_states(self, entries, value):
        # Each reaches its 4*lambda1 (0 for a zero tensor) in closed form.
        rho = DensityMatrix(3, entries.astype(complex))
        best = maximize_svetlichny(rho, OptimizerOptions(restarts=8))
        assert best.value == pytest.approx(value, abs=1e-12)
        assert best.converged
        assert best.evaluations == 0
        assert np.all(np.isfinite(best.settings.angles()))


def held_out_reductions():
    """(label, matrix) of 110 see-saw reductions, drawn apart from the
    benchmark's inputs: full-rank mixed states from criterion 09's
    generator, rank 1-3 mixed states, W-class reductions, Dicke(n, m)
    reductions for n = 4..8 and p|GHZ><GHZ| + (1 - p)|W><W| mixtures."""
    rng = np.random.default_rng(7001)
    rows = [("mixed", DensityMatrix(3, random_density_entries(3, rng))) for _ in range(20)]
    for rank in (1, 2, 3):
        for _ in range(8):
            g = rng.normal(size=(8, rank)) + 1j * rng.normal(size=(8, rank))
            m = g @ g.conj().T
            rows.append((f"rank {rank}", DensityMatrix(3, m / np.trace(m).real)))
    for _ in range(6):
        coeffs = rng.normal(size=5)
        psi = make_wclass(*(coeffs / np.linalg.norm(coeffs)))
        rows += [(f"wclass {keep}", reduce_pure(psi, keep)) for keep in combinations(range(4), 3)]
    # Dicke(n, n/2) has a zero tensor, which the closed form takes.
    rows += [(f"dicke({n}, {m})", reduce_pure(make_dicke(n, m), (0, 1, 2)))
             for n in range(4, 9) for m in range(1, n) if 2 * m != n]
    # p = 1, the GHZ state, would take the closed form.
    ghz, w = (to_density(psi).entries for psi in (make_gghz(3, math.pi / 4), make_dicke(3, 2)))
    rows += [(f"mixture {p:.2f}", DensityMatrix(3, p * ghz + (1 - p) * w))
             for p in np.linspace(0.0, 0.95, 20)]
    return rows


class TestRestartCap:
    def test_default_cap_reaches_the_full_budget_on_held_out_reductions(self):
        # The stop rule's go/no-go: stopping once two restarts agree loses
        # nothing against running all 64 starts.  A larger cap runs more
        # restarts, so its value is never lower, up to the rounding of
        # svetlichny_value on different settings.
        rows = held_out_reductions()
        assert len(rows) >= 100
        for label, rho in rows:
            full = _seesaw(correlation_tensor(rho).m, _starts(42, 0, 64))[1].max()
            best = maximize_svetlichny(rho)
            assert best.evaluations > 0, label
            assert best.value >= full - 1e-9, label
            previous = -math.inf
            for cap in (1, 7, 8, 9, 16, 64):
                run = maximize_svetlichny(rho, OptimizerOptions(restarts=cap))
                assert run.value >= previous - 1e-12, (label, cap)
                assert run.restarts == cap or run.restarts % 8 == 0, (label, cap)
                assert run.restarts <= cap and 1 <= run.hits <= run.restarts, (label, cap)
                assert run.restarts == cap or run.hits >= 2, (label, cap)
                previous = run.value
            assert run == best

    @pytest.mark.parametrize("cap", [1, 8, 9, 20])
    def test_without_agreement_every_restart_runs(self, monkeypatch, cap):
        # No restart counts as a hit, so the cap runs in full, its last
        # batch partial where the cap is not a multiple of 8, and the
        # result is that of one see-saw call on all the starts.
        monkeypatch.setattr("svl.svetlichny._HIT_TOL", -1.0)
        rho = w3()
        best = maximize_svetlichny(rho, OptimizerOptions(restarts=cap, seed=3))
        v, value, sweeps, converged = _seesaw(correlation_tensor(rho).m, _starts(3, 0, cap))
        k = int(np.argmax(value))
        assert (best.restarts, best.hits) == (cap, 0)
        assert (best.evaluations, best.converged) == (int(sweeps.sum()), bool(converged[k]))
        want = SvetlichnySettings(*(BlochVector.from_cartesian(u) for u in v[k]))
        assert best.settings.angles().tobytes() == want.angles().tobytes()
        assert best.value == pytest.approx(value[k], abs=1e-12)

    def test_stops_after_the_first_batch_with_two_hits(self, monkeypatch):
        batches = []
        monkeypatch.setattr("svl.svetlichny._seesaw",
                            lambda m, v: batches.append(len(v)) or _seesaw(m, v))
        best = maximize_svetlichny(w3(), OptimizerOptions(restarts=64))
        assert batches == [8]
        assert best.restarts == 8 and 2 <= best.hits <= 8


def unit_rows(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def reduced_value(m, ab):
    """|g_c| + |g_c'| at a, a', b, b' (ab, (4, 3)): the value with c and c'
    at their best, by one einsum of _SIGN and m."""
    g = np.einsum("xyz,ijk,xi,yj->zk", _SIGN, m, ab[:2], ab[2:])
    return float(np.linalg.norm(g, axis=1).sum())


# maximize_svetlichny's maxima at 8 and 64 restarts on keep (0, 1, 2) of
# Dicke(n, m), as the Newton step on all six directions found them, before
# c and c' were eliminated from it; Dicke(n, n - 1) is the n-qubit W state.
PINNED_MAXIMA = {
    (4, 3): (2.8284271247461894, 2.8284271247461894),
    (5, 4): (2.023857702507762, 2.023857702507762),
    (6, 5): (1.539600717839003, 1.5396007178390025),
    (7, 6): (1.4456126446484017, 1.4456126446484014),
    (8, 7): (1.4142135623730947, 1.4142135623730951),
    (9, 8): (1.4515494772048467, 1.4515494772048465),
    (10, 9): (1.5999999999999908, 1.599999999999995),
    (4, 1): (2.828427124746189, 2.828427124746189),
    (4, 2): (0.0, 0.0),
    (5, 1): (2.0238577025077626, 2.023857702507762),
    (5, 2): (1.131370849898476, 1.131370849898476),
    (5, 3): (1.131370849898477, 1.131370849898477),
    (6, 1): (1.539600717839002, 1.539600717839003),
    (6, 2): (1.4222222222222216, 1.4222222222222223),
    (6, 3): (1.3877787807814457e-17, 1.3877787807814457e-17),
    (6, 4): (1.4222222222222214, 1.4222222222222223),
    (7, 1): (1.4456126446484014, 1.4456126446484014),
    (7, 2): (1.4456126446484021, 1.4456126446484014),
    (7, 3): (0.6095238095238092, 0.6095238095238092),
    (7, 4): (0.6095238095238094, 0.6095238095238094),
    (7, 5): (1.4456126446484026, 1.4456126446484026),
    (8, 1): (1.4142135623730947, 1.4142135623730947),
    (8, 2): (1.3783375752126326, 1.3783375752126334),
    (8, 3): (0.922138891954147, 0.922138891954147),
    (8, 4): (0.0, 0.0),
    (8, 5): (0.9221388919541469, 0.9221388919541472),
    (8, 6): (1.378337575212633, 1.378337575212633),
}


class TestNewtonStep:
    def test_schur_gradient_and_hessian_match_finite_differences(self, rng):
        # The retraction x -> (x + s) / |x + s| is of second order, so the
        # central differences of F along it give the Riemannian gradient
        # and Hessian on the tangent frames.
        h = 1e-4
        for _ in range(6):
            m = rng.normal(size=(3, 3, 3))
            table = _table(m)
            v, _ = _sweep(table, unit_rows(rng.normal(size=(1, 6, 3))))
            basis, grad, hess = _schur(table, v)
            frames = basis[0, :12, :8].T.reshape(8, 4, 3)

            def f(step):
                return reduced_value(m, unit_rows(v[0, :4] + step))

            want_grad = [(f(h * e) - f(-h * e)) / (2 * h) for e in frames]
            want_hess = [[(f(h * (e + d)) - f(h * (e - d)) - f(h * (d - e)) + f(-h * (e + d)))
                          / (4 * h * h) for d in frames] for e in frames]
            np.testing.assert_allclose(grad[0], want_grad, rtol=0, atol=1e-7)
            np.testing.assert_allclose(hess[0], want_hess, rtol=0, atol=1e-5)
            np.testing.assert_allclose(hess, hess.transpose(0, 2, 1), rtol=0, atol=1e-13)

    def test_reports_the_value_of_its_directions(self, rng):
        # The 16 trial values are computed along the steps, not from the
        # directions returned; both must agree, with c and c' at their best.
        for _ in range(6):
            m = rng.normal(size=(3, 3, 3))
            table = _table(m)
            cur, val = _sweep(table, unit_rows(rng.normal(size=(8, 6, 3))))
            trial, value = _newton_step(table, cur)
            np.testing.assert_allclose(np.linalg.norm(trial, axis=2), 1.0, rtol=0, atol=1e-14)
            want = np.einsum("xyz,ijk,rxi,ryj,rzk->r", _SIGN, m, trial[:, :2], trial[:, 2:4],
                             trial[:, 4:])
            np.testing.assert_allclose(value, want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(value, [reduced_value(m, t[:4]) for t in trial],
                                       rtol=0, atol=1e-12)

    def test_start_near_a_saddle_escapes(self):
        # Keep (0, 1, 2) of the eqn3p state of the tradeoff-4q benchmark at
        # seed 8123.  Without the escape, a restart from this start lingers
        # at a saddle of value 3.44070 for about 50 sweeps before it climbs
        # to the maximum 3.44288.
        psi = make_wclass(-0.32767265371304205, -0.5399734371025937, 0.695852318072383,
                          0.3418316408197976, 0.0)
        m = correlation_tensor(reduce_pure(psi, (0, 1, 2))).m
        start = unit_rows(np.array([[0.025, 0.47, 0.882], [0.026, 0.47, -0.882],
                                    [-0.054, -0.998, -0.01], [-0.001, -0.008, 1.0],
                                    [0.001, 0.009, -1.0], [0.054, 0.998, 0.009]]))
        top = _seesaw(m, _starts(42, 0, 64))[1].max()
        assert _sweep(_table(m), start[None])[1][0] < top - 2e-3
        _, value, sweeps, converged = _seesaw(m, start[None])
        assert converged[0]
        assert sweeps[0] <= 12
        assert abs(value[0] - top) <= 1e-9

    @pytest.mark.parametrize("n, m", list(PINNED_MAXIMA))
    def test_w_and_dicke_maxima_stay_pinned(self, n, m):
        rho = reduce_pure(make_dicke(n, m), (0, 1, 2))
        for restarts, want in zip((8, 64), PINNED_MAXIMA[n, m]):
            best = maximize_svetlichny(rho, OptimizerOptions(restarts=restarts))
            assert abs(best.value - want) <= 1e-9
            assert best.converged
            assert _seesaw(correlation_tensor(rho).m, _starts(42, 0, restarts))[3].all()


def family_reductions():
    """(family, reduction) for every distinct reduced matrix of GGHZ
    (n = 3..5) and MS (n = 4..7) states over a theta grid, of Dicke
    states (n = 3..6) and of the FIG4 slice (gamma = 0, 0.1, ..., 1)."""
    thetas = np.linspace(0.0, 2.0 * math.pi, 7)[:-1] + 0.1
    states = [("GGHZ", make_gghz(n, t)) for n in range(3, 6) for t in thetas]
    states += [("MS", make_ms(n, t)) for n in range(4, 8) for t in thetas]
    states += [("DICKE", make_dicke(n, m)) for n in range(3, 7) for m in range(n + 1)]
    states += [("FIG4", make_wclass(0.0, 0.0, g, math.sqrt(max(1.0 - g * g, 0.0)), 0.0))
               for g in np.linspace(0.0, 1.0, 11)]
    seen = {}
    for family, psi in states:
        for keep in combinations(range(psi.num_qubits), 3):
            rho = reduce_pure(psi, keep)
            seen.setdefault((family, rho.entries.tobytes()), (family, rho))
    return list(seen.values())


def seesaw_only(rho, opts, monkeypatch):
    # The closed form kept from an earlier call on rho is dropped too.
    with monkeypatch.context() as patch:
        patch.setattr("svl.svetlichny._exact_directions", lambda tensor: None)
        drop_memos(patch)
        return maximize_svetlichny(rho, opts)


class TestExactPath:
    def test_agrees_with_the_seesaw_and_takes_every_tight_reduction(self, monkeypatch):
        opts = OptimizerOptions(restarts=16)
        for family, rho in family_reductions():
            best = maximize_svetlichny(rho, opts)
            seesaw = seesaw_only(rho, opts, monkeypatch)
            assert seesaw.evaluations > 0
            tight = abs(seesaw.value - svetlichny_upper_bound(rho)) <= 1e-9
            assert abs(best.value - seesaw.value) <= 1e-9
            assert (best.evaluations == 0) == tight
            # Every GGHZ, MS and FIG4 reduction reaches its 4*lambda1.
            assert tight or family == "DICKE"

    @pytest.mark.parametrize("psi, keep", [
        (make_gghz(3, math.pi / 4), (0, 1, 2)),
        (make_gghz(4, 0.3), (0, 1, 2)),
        (make_ms(4, 2.0), (0, 1, 2)),
        (make_ms(4, 2.0), (0, 1, 3)),
        (make_ms(6, 4.0), (1, 3, 5)),
        (make_dicke(4, 0), (0, 1, 2)),
        (make_wclass(0.0, 0.0, 0.7, math.sqrt(0.51), 0.0), (0, 2, 3)),
    ])
    def test_reaches_the_grid_oracle(self, psi, keep):
        rho = reduce_pure(psi, keep)
        best = maximize_svetlichny(rho, OptimizerOptions(restarts=1))
        assert best.evaluations == 0
        assert best.value >= svetlichny_grid_search(rho, math.pi / 8) - 1e-9
        assert abs(best.value - svetlichny_upper_bound(rho)) <= 1e-12
        assert best.value == svetlichny_value(rho, best.settings)

    @pytest.mark.parametrize("turn", [0.1, 0.3, 0.7, 1.2])
    def test_takes_a_turned_rank_one_plane(self, turn, monkeypatch):
        # (I + ZZZ/2 + XXX/2)/8 with the middle qubit turned about y has a
        # degenerate top plane where neither case A at the top singular
        # vector nor case B holds, only case A at a turn of that plane.
        x, y, z = PAULIS
        rot = math.cos(turn / 2) * np.eye(2) - 1j * math.sin(turn / 2) * y
        u = np.kron(np.kron(np.eye(2), rot), np.eye(2))
        entries = (np.eye(8) + 0.5 * kron3(z, z, z) + 0.5 * kron3(x, x, x)) / 8
        rho = DensityMatrix(3, u @ entries @ u.conj().T)
        best = maximize_svetlichny(rho, OptimizerOptions(restarts=8))
        seesaw = seesaw_only(rho, OptimizerOptions(restarts=8), monkeypatch)
        assert best.evaluations == 0
        assert abs(best.value - svetlichny_upper_bound(rho)) <= 1e-12
        assert best.value >= seesaw.value - 1e-12

    def test_never_taken_below_the_certificate(self, rng):
        states = [w3()] + [DensityMatrix(3, random_density_entries(3, rng))
                           for _ in range(20)]
        for rho in states:
            tensor = correlation_tensor(rho)
            upper = svetlichny_upper_bound(rho)
            assert _exact_directions(tensor) is None
            best = maximize_svetlichny(rho, OptimizerOptions(restarts=8))
            assert best.evaluations > 0
            assert best.value < upper - 1e-9

    def test_independent_of_restarts_and_seed(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the exact path drew starts")

        monkeypatch.setattr("svl.svetlichny._starts", refuse)
        for rho in (ghz3(), reduce_pure(make_ms(5, 2.5), (0, 2, 4))):
            results = [maximize_svetlichny(rho, OptimizerOptions(restarts=r, seed=s))
                       for r, s in ((1, 0), (8, 7), (64, 42), (MAX_RESTARTS, 12345))]
            for best in results:
                assert (best.converged, best.restarts, best.hits, best.evaluations) == (
                    True, 0, 0, 0)
                assert best.value == results[0].value
                assert (best.settings.angles().tobytes()
                        == results[0].settings.angles().tobytes())


class TestClosedFormMemo:
    def test_twin_matrix_gets_its_own_tensor_bound_and_settings(self, closed_form_runs):
        exact, singular = closed_form_runs
        opts = OptimizerOptions(restarts=8)
        rho = reduce_pure(make_ms(5, 2.0), (0, 1, 4))
        twin = DensityMatrix(3, rho.entries.copy())
        tensor = correlation_tensor(rho)
        first = maximize_svetlichny(rho, opts)
        bound = svetlichny_upper_bound(rho)
        assert correlation_tensor(rho) is tensor
        twin_tensor = correlation_tensor(twin)
        second = maximize_svetlichny(twin, opts)
        assert svetlichny_upper_bound(twin) == bound
        assert twin_tensor is not tensor
        assert twin_tensor.m.tobytes() == tensor.m.tobytes()
        assert exact == [tensor, twin_tensor]
        assert len(singular) == 2
        assert second.settings is not first.settings
        assert second == first
        assert second.settings.angles().tobytes() == first.settings.angles().tobytes()
        assert first.evaluations == 0

    def test_alternating_classes_never_swap_settings(self, monkeypatch):
        # The two classes of MS(7): keeps without and with the last qubit.
        opts = OptimizerOptions(restarts=8)
        psi = make_ms(7, 2.0)
        rhos = [reduce_pure(psi, (0, 1, 2)), reduce_pure(psi, (0, 1, 6))]
        fresh = []
        for rho in rhos:
            with monkeypatch.context() as patch:
                drop_memos(patch)
                fresh.append(maximize_svetlichny(DensityMatrix(3, rho.entries.copy()), opts))
        assert fresh[0].settings != fresh[1].settings
        for _ in range(3):
            for rho, want in zip(rhos, fresh):
                best = maximize_svetlichny(rho, opts)
                assert best == want
                assert best.evaluations == 0
                assert best.settings.angles().tobytes() == want.settings.angles().tobytes()

    def test_view_builds_its_closed_form_once(self, closed_form_runs):
        # A matrix copies a view it is given, so it keeps the tensor, its
        # bound and the closed form (or its refusal), to the bytes of a
        # matrix on a copy of the same entries.
        exact, singular = closed_form_runs
        opts = OptimizerOptions(restarts=8)
        for entries in (reduce_pure(make_ms(5, 2.0), (0, 1, 4)).entries, w3().entries):
            del exact[:], singular[:]
            base = np.stack([entries, entries])
            view, copy = DensityMatrix(3, base[1]), DensityMatrix(3, entries.copy())
            assert not np.shares_memory(view.entries, base)
            want = maximize_svetlichny(copy, opts)
            assert maximize_svetlichny(copy, opts) == want
            assert (len(exact), len(singular)) == (1, 1)
            for _ in range(3):
                best = maximize_svetlichny(view, opts)
                assert (len(exact), len(singular)) == (2, 2)
                assert best == want
                assert best.settings.angles().tobytes() == want.settings.angles().tobytes()

    def test_alternating_classes_pay_once_each(self, closed_form_runs, monkeypatch):
        # The keeps of MS(7) in combinations order switch between its two
        # classes 19 times.
        exact, singular = closed_form_runs
        built = []
        tensor = correlations.CorrelationTensor3
        monkeypatch.setattr(correlations, "CorrelationTensor3",
                            lambda m: built.append(m) or tensor(m))
        opts = OptimizerOptions(restarts=8)
        psi = make_ms(7, 2.0)
        for keep in combinations(range(7), 3):
            rho = reduce_pure(psi, keep)
            best = maximize_svetlichny(rho, opts)
            assert best.evaluations == 0
            assert abs(best.value - svetlichny_upper_bound(rho)) <= 1e-12
        assert len(built) == 2
        assert len(singular) == 2
        assert len(exact) == 2

    def test_every_hit_is_checked_through_svetlichny_value(self, monkeypatch):
        # A refused check on a kept closed form sends the call to the see-saw.
        opts = OptimizerOptions(restarts=8)
        rho = reduce_pure(make_gghz(5, 0.3), (0, 1, 2))
        assert maximize_svetlichny(rho, opts).evaluations == 0
        monkeypatch.setattr("svl.svetlichny.svetlichny_value", lambda rho, s: 0.0)
        assert maximize_svetlichny(rho, opts).evaluations > 0


def arange_grid(step):
    """The grid as built before its size was counted from the step: two
    np.arange axes filtered in a double loop."""
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


class TestGridSearch:
    def test_ghz_hits_max_on_coarse_grid(self):
        # The optimal directions lie on the pi/4 grid already.
        assert svetlichny_grid_search(ghz3(), math.pi / 4) == pytest.approx(
            4 * SQRT2, abs=1e-9)

    def test_nested_grids_monotone(self, rng):
        rho = DensityMatrix(3, random_density_entries(3, rng))
        coarse = svetlichny_grid_search(rho, math.pi / 2)
        fine = svetlichny_grid_search(rho, math.pi / 4)
        assert fine >= coarse - 1e-12
        assert fine <= svetlichny_upper_bound(rho) + 1e-9


    @pytest.mark.parametrize("chunk", [0, -1, 2.5, "4", None, True])
    def test_rejects_chunk_below_one(self, chunk):
        with pytest.raises(DomainError):
            svetlichny_grid_search(ghz3(), math.pi / 4, chunk=chunk)

    @pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf, "0.3", True])
    def test_rejects_step_that_is_not_finite_and_positive(self, step):
        with pytest.raises(DomainError):
            svetlichny_grid_search(ghz3(), step)

    def test_accepts_numpy_integer_chunk(self):
        assert (svetlichny_grid_search(ghz3(), math.pi / 4, chunk=np.int64(7))
                == svetlichny_grid_search(ghz3(), math.pi / 4))

    def test_grid_is_closed_under_negation(self):
        for step in (math.pi / 2, math.pi / 4, math.pi / 8, 1.0):
            dirs = _grid_directions(step)
            half = len(dirs) // 2
            np.testing.assert_array_equal(dirs[half:], -dirs[:half])
            np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-15)
        # At step pi/8 the poles and 7 latitudes of 16 azimuths.
        assert len(_grid_directions(math.pi / 8)) == 2 + 7 * 16

    @pytest.mark.parametrize("step", [1e-4, 1e-9, 0.00315, 0.00314])
    def test_too_fine_a_step_is_refused_before_building_the_grid(self, step):
        # Building the ~2e9 directions of step 1e-4 would take about 40 min.
        # Step 0.00315 has 1995 azimuths, so its grid is counted angle by
        # angle; the others have more than 2000 and are refused at once.
        count = "1987022" if step == 0.00315 else "more than 4000"
        message = f"grid step {step!r} yields {count} directions; too fine$"
        start = time.perf_counter()
        with pytest.raises(DomainError, match=message):
            svetlichny_grid_search(ghz3(), step)
        assert time.perf_counter() - start < 1.0

    def test_size_check_agrees_with_the_built_grid(self):
        # Steps around the 4000-direction limit (near 0.07): the multiples
        # of pi/k, whose angles land on the 1e-12 margins, and four steps
        # where the quotient x / step alone miscounts the rounded points
        # i * step up to the margin x = pi/2 + 1e-12 or pi - 1e-12.
        steps = [*np.linspace(0.05, 0.2, 31), *(math.pi / k for k in range(16, 63)),
                 0.11219973762827834, 0.05609986881413917, 0.09519977738147858,
                 0.08490790955645387]
        outcomes = set()
        for step in map(float, steps):
            want = arange_grid(step)
            outcomes.add(len(want) > 4000)
            if len(want) > 4000:
                with pytest.raises(DomainError, match=f" yields {len(want)} directions;"):
                    svetlichny_grid_search(ghz3(), step)
            else:
                assert _grid_directions(step).tobytes() == want.tobytes()
        assert outcomes == {False, True}

    def test_quarter_of_the_pairs_reaches_the_full_enumeration(self, rng):
        dirs = _grid_directions(math.pi / 4)
        states = [ghz3(), reduce_pure(make_ms(4, 1.0), (0, 1, 3))]
        states += [DensityMatrix(3, random_density_entries(3, rng)) for _ in range(4)]
        for rho in states:
            full = oracle_grid_search(correlation_tensor(rho).m, dirs)
            assert abs(svetlichny_grid_search(rho, math.pi / 4) - full) <= 1e-15


class TestTriangleInequality:
    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(-100, 100), y=st.floats(-100, 100), omega=angles)
    def test_holds(self, x, y, omega):
        assert (x * math.cos(omega) + y * math.sin(omega)
                <= math.hypot(x, y) + 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(x=st.floats(0.01, 100), y=st.floats(-100, 100))
    def test_equality_at_tangent(self, x, y):
        omega = math.atan2(y, x)
        lhs = x * math.cos(omega) + y * math.sin(omega)
        assert lhs == pytest.approx(math.hypot(x, y), abs=1e-9, rel=1e-9)


class TestLagrangeMax:
    def test_basis_vector(self):
        assert lagrange_max([1, 0, 0, 0], [0, 0, 0, 0]) == 1.0

    def test_pythagorean(self):
        assert lagrange_max([3, 0, 0, 0], [4, 0, 0, 0]) == pytest.approx(5.0)

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidArityError):
            lagrange_max([1, 2, 3], [0, 0, 0, 0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_coefficients(self, bad):
        with pytest.raises(DomainError):
            lagrange_max([bad, 0, 0, 0], [0] * 4)

    @pytest.mark.parametrize("size", [1e200, 1e-200])
    def test_across_the_float_range(self, size):
        # Their squares overflow to inf and underflow to 0.
        assert lagrange_max([size, 0, 0, 0], [0] * 4) == size
        assert lagrange_max([0] * 4, [0, 0, 0, -size]) == size

    def test_rejects_a_norm_beyond_the_float_range(self):
        with pytest.raises(DomainError):
            lagrange_max([1.7e308] * 4, [1.7e308] * 4)

    def test_matches_projected_gradient(self, rng):
        for _ in range(20):
            u = rng.uniform(-1, 1, 4)
            v = rng.uniform(-1, 1, 4)
            got = lagrange_max(u, v)
            assert got == pytest.approx(
                oracle_projected_gradient_max(u, v), abs=1e-9)
