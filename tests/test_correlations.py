import math
from itertools import combinations

import numpy as np
import pytest

from svl import (
    BlochVector,
    CorrelationMatrix2,
    CorrelationTensor3,
    DomainError,
    DensityMatrix,
    InvalidArityError,
    PureState,
    chsh_max,
    correlation_tensor,
    flatten_correlation_tensor,
    lagrange_max,
    largest_singular_value,
    make_dicke,
    make_gghz,
    make_ms,
    maximally_mixed,
    pair_correlation_matrix,
    reduce_pure,
    svetlichny_grid_search,
    svetlichny_upper_bound,
    to_density,
)

from conftest import (
    PAULI,
    kron3,
    obs,
    oracle_flatten,
    oracle_pair_matrix,
    oracle_tensor,
    random_density_entries,
    random_pure,
)

SQRT2 = math.sqrt(2.0)


def ghz3():
    return to_density(make_gghz(3, math.pi / 4))


class TestCorrelationTensor:
    def test_ghz_matches_trace_oracle(self):
        rho = ghz3()
        got = correlation_tensor(rho).m
        np.testing.assert_allclose(got, oracle_tensor(rho.entries), atol=1e-12)

    def test_ghz_known_entries(self):
        m = correlation_tensor(ghz3()).m
        assert m[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        for idx in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
            assert m[idx] == pytest.approx(-1.0, abs=1e-12)
        assert m[2, 2, 2] == pytest.approx(0.0, abs=1e-12)
        assert np.count_nonzero(np.abs(m) > 1e-10) == 4

    def test_maximally_mixed_vanishes(self):
        assert np.max(np.abs(correlation_tensor(maximally_mixed(3)).m)) < 1e-14

    def test_diagonal_gghz_reduction(self):
        theta = 0.6
        rho = reduce_pure(make_gghz(4, theta), (0, 1, 2))
        m = correlation_tensor(rho).m
        assert m[2, 2, 2] == pytest.approx(math.cos(2 * theta), abs=1e-12)
        mask = np.ones((3, 3, 3), dtype=bool)
        mask[2, 2, 2] = False
        assert np.max(np.abs(m[mask])) < 1e-12

    def test_random_states_match_oracle(self, rng):
        for _ in range(5):
            entries = random_density_entries(3, rng)
            got = correlation_tensor(DensityMatrix(3, entries)).m
            np.testing.assert_allclose(got, oracle_tensor(entries), atol=1e-12)

    def test_gather_matches_four_operand_einsum_exactly(self, rng):
        # Tr(rho sigma_i x sigma_j x sigma_k) as one einsum over rho and
        # three Pauli matrices, written out here: correlation_tensor must
        # give these values bit for bit.
        paulis = np.stack(PAULI)
        states = [random_density_entries(3, rng) for _ in range(50)]
        states += [reduce_pure(PureState(4, random_pure(4, rng)), (0, 2, 3)).entries,
                   reduce_pure(make_gghz(4, 0.6), (0, 1, 2)).entries,
                   ghz3().entries, maximally_mixed(3).entries]
        for entries in states:
            r = entries.reshape(2, 2, 2, 2, 2, 2)
            einsum = np.einsum("abcdef,ida,jeb,kfc->ijk", r, paulis, paulis, paulis)
            assert np.array_equal(correlation_tensor(DensityMatrix(3, entries)).m,
                                  einsum.real)

    def test_rejects_wrong_arity(self):
        with pytest.raises(InvalidArityError):
            correlation_tensor(maximally_mixed(2))
        with pytest.raises(InvalidArityError):
            CorrelationTensor3(np.zeros((3, 3)))

    def test_second_call_reuses_the_tensor(self, rng):
        # The maximizer and the 4*lambda1 bound of one reduction share it.
        rho = DensityMatrix(3, random_density_entries(3, rng))
        first = correlation_tensor(rho)
        assert correlation_tensor(rho) is first
        twin = DensityMatrix(3, rho.entries.copy())
        again = correlation_tensor(twin)
        assert again is not first
        np.testing.assert_array_equal(again.m, first.m)
        assert svetlichny_upper_bound(twin) == svetlichny_upper_bound(rho)

    def test_keeps_of_one_class_share_the_tensor(self):
        g = make_gghz(8, 0.4)
        first = correlation_tensor(reduce_pure(g, (0, 1, 2)))
        assert correlation_tensor(reduce_pure(g, (3, 5, 7))) is first

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_tensor_and_matrix_reject_non_finite_entries(self, bad):
        m = np.zeros((3, 3, 3))
        m[1, 2, 0] = bad
        with pytest.raises(DomainError):
            CorrelationTensor3(m)
        t = np.zeros((3, 3))
        t[2, 1] = bad
        with pytest.raises(DomainError):
            CorrelationMatrix2(t)


class TestFlattening:
    def test_zero_tensor(self):
        flat = flatten_correlation_tensor(CorrelationTensor3(np.zeros((3, 3, 3))))
        assert flat.shape == (3, 9)
        assert np.all(flat == 0)

    def test_convention_matches_loop_oracle(self, rng):
        m = rng.uniform(-1, 1, (3, 3, 3))
        flat = flatten_correlation_tensor(CorrelationTensor3(m))
        np.testing.assert_allclose(flat, oracle_flatten(m), atol=0)

    def test_ghz_largest_singular_value(self):
        flat = flatten_correlation_tensor(correlation_tensor(ghz3()))
        assert np.linalg.svd(flat, compute_uv=False)[0] == pytest.approx(
            SQRT2, abs=1e-12)

    def test_largest_singular_value_of_a_list_of_rows(self):
        assert largest_singular_value([[1, 2], [3, 4]]) == pytest.approx(
            5.464985704219043, abs=1e-15)

    @pytest.mark.parametrize("mat", [
        [[1e200, 0.0], [0.0, 1.0]],
        [[1e155, 1e155]],
        [[1e-200, 0.0], [0.0, 0.0]],
        [[5e-324, 0.0]],
    ])
    def test_largest_singular_value_across_the_float_range(self, mat):
        # The squares of these entries leave the float range.
        want = np.linalg.svd(np.array(mat), compute_uv=False)[0]
        assert largest_singular_value(mat) == pytest.approx(want, rel=1e-15, abs=0)

    def test_largest_singular_value_of_zero(self):
        assert largest_singular_value(np.zeros((3, 9))) == 0.0

    def test_largest_singular_value_beyond_the_float_range(self):
        with pytest.raises(DomainError):
            largest_singular_value([[1.7e308, 1.7e308]])

    def test_scaling_keeps_every_bit_on_reductions(self, rng):
        # Scaling by a power of two is exact: the unscaled Gram formula
        # gives the same bits on flattenings that need no scaling.
        states = [DensityMatrix(3, random_density_entries(3, rng)) for _ in range(100)]
        for n in range(4, 11):
            for psi in (make_gghz(n, 0.3), make_ms(n, 2.0), make_dicke(n, n // 2)):
                states += [reduce_pure(psi, keep) for keep in combinations(range(n), 3)]
        for rho in states:
            flat = flatten_correlation_tensor(correlation_tensor(rho))
            unscaled = math.sqrt(max(float(np.linalg.eigvalsh(flat @ flat.T)[-1]), 0.0))
            assert largest_singular_value(flat) == unscaled

    @pytest.mark.parametrize("mat, error", [
        (np.ones(9), InvalidArityError),
        (np.ones((3, 3, 3)), InvalidArityError),
        (np.ones((0, 9)), InvalidArityError),
        (5.0, InvalidArityError),
        ([[1.0, np.nan]], DomainError),
        ([[1.0, np.inf]], DomainError),
        ([[1.0, -np.inf]], DomainError),
        ([[1.0, 1j]], DomainError),
        ([["a", "b"]], DomainError),
        ([[True, False]], DomainError),
        ([[None, 1.0]], DomainError),
    ])
    def test_largest_singular_value_rejects(self, mat, error):
        with pytest.raises(error):
            largest_singular_value(mat)

    @pytest.mark.parametrize("build, error", [
        (lambda: largest_singular_value([[1, 2], [3]]), InvalidArityError),
        (lambda: PureState(1, [[1], 0]), InvalidArityError),
        (lambda: DensityMatrix(1, [[0.5, 0], [0]]), InvalidArityError),
        (lambda: CorrelationTensor3([[[1]], [[1, 2]]]), InvalidArityError),
        (lambda: CorrelationMatrix2([[1, 2], [3]]), InvalidArityError),
        (lambda: lagrange_max([1, 2, 3, [4]], [0] * 4), InvalidArityError),
        (lambda: BlochVector.from_cartesian([1, [0], 0]), InvalidArityError),
        (lambda: DensityMatrix(1, [["x", 0], [0, 0.5]]), DomainError),
        (lambda: PureState(1, [object(), 1]), DomainError),
        (lambda: CorrelationMatrix2([[{}] * 3] * 3), DomainError),
        (lambda: lagrange_max([10**400, 0, 0, 0], [0] * 4), DomainError),
    ])
    def test_array_input_errors_are_typed(self, build, error):
        with pytest.raises(error):
            build()

    def test_diagonal_reduction_singular_value(self):
        rho = reduce_pure(make_gghz(4, 0.0), (0, 1, 2))
        flat = flatten_correlation_tensor(correlation_tensor(rho))
        assert np.linalg.svd(flat, compute_uv=False)[0] == pytest.approx(
            1.0, abs=1e-12)


class TestUpperBound:
    def test_ghz(self):
        assert svetlichny_upper_bound(ghz3()) == pytest.approx(4 * SQRT2, abs=1e-12)

    def test_gghz_reduction_family(self):
        # The spectral bound for the diagonal reduction is 4|cos 2 theta|,
        # which never exceeds the coarser 4 max(cos^4, sin^4) route.
        for theta in np.linspace(0, math.pi / 2, 9):
            rho = reduce_pure(make_gghz(4, theta), (0, 1, 2))
            got = svetlichny_upper_bound(rho)
            assert got == pytest.approx(4 * abs(math.cos(2 * theta)), abs=1e-10)
            quoted = 4 * max(math.cos(theta) ** 4, math.sin(theta) ** 4)
            assert got <= quoted + 1e-10
        assert svetlichny_upper_bound(
            reduce_pure(make_gghz(4, 0.0), (0, 1, 2))) == pytest.approx(4.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert svetlichny_upper_bound(maximally_mixed(3)) == pytest.approx(0.0, abs=1e-12)

    def test_dominates_grid_probe(self, rng):
        for _ in range(200):
            rho = DensityMatrix(3, random_density_entries(3, rng))
            probe = svetlichny_grid_search(rho, math.pi / 2)
            assert svetlichny_upper_bound(rho) >= probe - 1e-9

    def test_dominates_fine_grid_probe(self, rng):
        for _ in range(3):
            rho = DensityMatrix(3, random_density_entries(3, rng))
            probe = svetlichny_grid_search(rho, math.pi / 8)
            assert svetlichny_upper_bound(rho) >= probe - 1e-9

    def test_singular_values_rotation_invariant(self, rng):
        for _ in range(10):
            rho_entries = random_density_entries(3, rng)
            sv = np.linalg.svd(flatten_correlation_tensor(
                correlation_tensor(DensityMatrix(3, rho_entries))), compute_uv=False)
            # Same single-qubit unitary on every qubit.
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(0, 2 * math.pi)
            u2 = (math.cos(angle / 2) * np.eye(2)
                  - 1j * math.sin(angle / 2) * obs(axis))
            u = kron3(u2, u2, u2)
            rotated = DensityMatrix(3, u @ rho_entries @ u.conj().T)
            sv2 = np.linalg.svd(flatten_correlation_tensor(
                correlation_tensor(rotated)), compute_uv=False)
            np.testing.assert_allclose(sv, sv2, atol=1e-10)


class TestChsh:
    def test_bell_state(self):
        bell = PureState(2, np.array([1, 0, 0, 1]) / SQRT2)
        rho = to_density(bell)
        t = pair_correlation_matrix(rho).t
        np.testing.assert_allclose(t, np.diag([1.0, -1.0, 1.0]), atol=1e-12)
        mu = np.linalg.eigvalsh(t.T @ t)
        assert 2 * math.sqrt(mu[-1] + mu[-2]) == pytest.approx(2 * SQRT2, abs=1e-12)
        assert chsh_max(rho) == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_maximally_mixed(self):
        assert chsh_max(maximally_mixed(2)) == pytest.approx(0.0, abs=1e-12)

    def test_product_state(self):
        rho = to_density(PureState(2, np.array([1.0, 0, 0, 0])))
        assert chsh_max(rho) == pytest.approx(2.0, abs=1e-12)

    def test_matches_pair_oracle(self, rng):
        for _ in range(5):
            entries = random_density_entries(2, rng)
            got = pair_correlation_matrix(DensityMatrix(2, entries)).t
            np.testing.assert_allclose(got, oracle_pair_matrix(entries), atol=1e-12)

    def test_rejects_wrong_arity(self):
        with pytest.raises(InvalidArityError):
            chsh_max(maximally_mixed(3))

    def test_dominates_random_settings(self, rng):
        def unit_vectors(n):
            th = rng.uniform(0, math.pi, n)
            ph = rng.uniform(0, 2 * math.pi, n)
            return np.stack([np.sin(th) * np.cos(ph),
                             np.sin(th) * np.sin(ph), np.cos(th)], axis=1)

        for _ in range(200):
            entries = random_density_entries(2, rng)
            bound = chsh_max(DensityMatrix(2, entries))
            t = oracle_pair_matrix(entries)
            a, ap, b, bp = (unit_vectors(1000) for _ in range(4))
            # Tr(rho B_CHSH) = a.T(b + b') + a'.T(b - b'), multilinear in
            # the four unit vectors.
            vals = (np.einsum("ni,ij,nj->n", a, t, b + bp)
                    + np.einsum("ni,ij,nj->n", ap, t, b - bp))
            assert bound >= np.max(np.abs(vals)) - 1e-9

    def test_chsh_tradeoff_over_pairs(self, rng):
        for _ in range(25):
            psi = PureState(3, random_pure(3, rng))
            total = sum(chsh_max(reduce_pure(psi, keep)) ** 2
                        for keep in [(0, 1), (0, 2), (1, 2)])
            assert total <= 12.0 + 1e-9
