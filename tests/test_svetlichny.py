import math

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
    make_gghz,
    make_ms,
    maximally_mixed,
    maximize_svetlichny,
    observable,
    reduce_pure,
    svetlichny_grid_search,
    svetlichny_operator,
    svetlichny_upper_bound,
    svetlichny_value,
    to_density,
)
from svl.svetlichny import (
    MAX_RESTARTS, _coefficients, _cross, _grid_directions, _norm,
    _operands, _seesaw, _starts,
)
from svl.correlations import correlation_tensor

from conftest import (
    obs,
    oracle_grid_search,
    oracle_projected_gradient_max,
    oracle_svetlichny_matrix,
    random_density_entries,
)

SQRT2 = math.sqrt(2.0)
angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
X_DIR = BlochVector(math.pi / 2.0, 0.0)
Y_DIR = BlochVector(math.pi / 2.0, math.pi / 2.0)
Z_DIR = BlochVector(0.0, 0.0)


def ghz3():
    return to_density(make_gghz(3, math.pi / 4))


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
        # The broadcast products of _kron3 are those of np.kron.
        axes = [X_DIR, Y_DIR, Z_DIR, BlochVector(math.pi / 2, math.pi)]
        cases = [random_settings(rng) for _ in range(50)]
        cases += [SvetlichnySettings(*(axes[k % 4] for k in range(i, i + 6)))
                  for i in range(4)]
        for s in cases:
            vecs = [v.cartesian for v in (s.a, s.a_p, s.b, s.b_p, s.c, s.c_p)]
            assert np.array_equal(svetlichny_operator(s),
                                  oracle_svetlichny_matrix(*vecs))

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

    def test_tensor_fast_path_agrees(self, rng):
        # The see-saw's value of a party's best pair, |g| + |h| on fixed
        # settings, against the 8x8 operator with that pair put in.
        for _ in range(20):
            rho = DensityMatrix(3, random_density_entries(3, rng))
            forms, _ = _operands(correlation_tensor(rho).m)
            s = random_settings(rng)
            vecs = [v.cartesian for v in (s.a, s.a_p, s.b, s.b_p, s.c, s.c_p)]
            for party in range(3):
                coef = _coefficients(forms, np.array([vecs]), party)[0]
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

    def test_unconverged_flag(self):
        best = maximize_svetlichny(ghz3(), OptimizerOptions(restarts=2, max_iter=3))
        assert not best.converged
        assert best.value <= 4 * SQRT2 + 1e-9

    def test_starts_extend_and_are_read_only(self):
        for seed in (0, 42, 12345):
            short, long = _starts(seed, 8), _starts(seed, 64)
            assert short.tobytes() == long[:8].tobytes()
            assert _starts(seed, 8) is short
            assert not short.flags.writeable
            with pytest.raises(ValueError):
                short[0, 0, 0] = 1.0
            np.testing.assert_allclose(np.linalg.norm(long, axis=2), 1.0, atol=1e-15)

    def test_restart_cap_is_checked_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the restart-count check")

        rho = ghz3()
        for name in ("SeedSequence", "default_rng"):
            monkeypatch.setattr(np.random, name, refuse)
        for restarts in (0, MAX_RESTARTS + 1):
            with pytest.raises(DomainError, match=str(MAX_RESTARTS)):
                maximize_svetlichny(rho, OptimizerOptions(restarts=restarts))

    def test_cold_and_warm_starts_agree(self):
        rho = reduce_pure(make_ms(4, 1.0), (0, 1, 3))
        opts = OptimizerOptions(restarts=8, seed=7)
        _starts.cache_clear()
        cold = maximize_svetlichny(rho, opts)
        warm = maximize_svetlichny(rho, opts)
        assert _starts.cache_info().hits == 1
        assert (cold.value, cold.converged, cold.evaluations) == (
            warm.value, warm.converged, warm.evaluations)
        assert cold.settings.angles().tobytes() == warm.settings.angles().tobytes()

    def test_cross_and_norm_match_numpy_exactly(self, rng):
        # Signed zeros too: an axis-aligned direction keeps exact zeros.
        v = rng.normal(size=(16, 6, 3))
        v[0, :3] = np.eye(3)
        v[1, :3] = -np.eye(3)
        axes = np.eye(3)[np.abs(v).argmin(axis=2)]
        for a, b in ((v, axes), (v, v[::-1])):
            for got, want in ((_cross(a, b), np.cross(a, b)),
                              (_norm(a), np.linalg.norm(a, axis=-1, keepdims=True))):
                assert got.tobytes() == want.tobytes()

    def test_stationary_restarts_skip_the_newton_step(self, monkeypatch):
        # Every see-saw sweep on a GGHZ reduction lands on directions whose
        # tangent gradient is exactly zero, so no Newton frame is built.
        rho = reduce_pure(make_gghz(4, 0.3), (0, 1, 2))
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        best = maximize_svetlichny(rho, OptimizerOptions(restarts=8))
        assert calls == []
        assert best.converged
        assert best.value == pytest.approx(svetlichny_upper_bound(rho), abs=1e-9)

    def test_restarts_do_not_depend_on_the_batch(self, rng):
        rho = DensityMatrix(3, random_density_entries(3, rng))
        m = correlation_tensor(rho).m
        starts = rng.normal(size=(64, 6, 3))
        starts /= np.linalg.norm(starts, axis=2, keepdims=True)
        large = _seesaw(m, starts, 2000, 1e-10)
        small = _seesaw(m, starts[:8], 2000, 1e-10)
        for big, part in zip(large, small):
            np.testing.assert_array_equal(big[:8], part)

    @pytest.mark.parametrize("entries, value", [
        (np.eye(8) / 8, 0.0),
        (np.diag(np.eye(8)[0]), 4.0),
        # |0><0| x I/4: local and pair correlations, a zero triple tensor.
        (np.diag([0.25] * 4 + [0.0] * 4), 0.0),
    ])
    def test_degenerate_states(self, entries, value):
        rho = DensityMatrix(3, entries.astype(complex))
        best = maximize_svetlichny(rho, OptimizerOptions(restarts=8))
        assert best.value == pytest.approx(value, abs=1e-12)
        assert best.converged
        assert np.all(np.isfinite(best.settings.angles()))


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


    def test_grid_is_closed_under_negation(self):
        for step in (math.pi / 2, math.pi / 4, math.pi / 8, 1.0):
            dirs = _grid_directions(step)
            half = len(dirs) // 2
            np.testing.assert_array_equal(dirs[half:], -dirs[:half])
            np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-15)
        # At step pi/8 the poles and 7 latitudes of 16 azimuths.
        assert len(_grid_directions(math.pi / 8)) == 2 + 7 * 16

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

    def test_matches_projected_gradient(self, rng):
        for _ in range(20):
            u = rng.uniform(-1, 1, 4)
            v = rng.uniform(-1, 1, 4)
            got = lagrange_max(u, v)
            assert got == pytest.approx(
                oracle_projected_gradient_max(u, v), abs=1e-9)
