import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svl
from svl import (
    DensityMatrix,
    InvalidArityError,
    NormalizationError,
    PureState,
    StateSpec,
    make_dicke,
    make_gghz,
    make_ms,
    make_wclass,
    maximally_mixed,
    reduce_pure,
    to_density,
)
from svl.errors import DomainError
from svl.qstate import MAX_DENSE_BYTES, MAX_QUBITS

from conftest import (
    oracle_reduce_pure,
    random_pure,
)

INV2 = 1.0 / math.sqrt(2.0)


class TestConstructors:
    def test_gghz_equal_weight(self):
        psi = make_gghz(4, math.pi / 4)
        expected = np.zeros(16)
        expected[0] = expected[15] = INV2
        np.testing.assert_allclose(psi.amplitudes, expected, atol=1e-15)

    def test_gghz_product_limit(self):
        psi = make_gghz(4, 0.0)
        assert psi.amplitudes[0] == 1.0
        assert np.count_nonzero(psi.amplitudes) == 1

    def test_gghz_amplitude_placement(self):
        psi = make_gghz(3, 0.3)
        assert psi.amplitudes[0] == pytest.approx(math.cos(0.3), abs=1e-15)
        assert psi.amplitudes[7] == pytest.approx(math.sin(0.3), abs=1e-15)

    def test_gghz_rejects_small_n(self):
        with pytest.raises(InvalidArityError):
            make_gghz(2, 0.1)

    def test_ms_cos_limit(self):
        psi = make_ms(4, 0.0)
        expected = np.zeros(16)
        expected[0b0000] = expected[0b1110] = INV2
        np.testing.assert_allclose(psi.amplitudes, expected, atol=1e-15)

    def test_ms_sin_limit_is_ghz(self):
        np.testing.assert_allclose(
            make_ms(4, math.pi / 2).amplitudes,
            make_gghz(4, math.pi / 4).amplitudes, atol=1e-15)

    def test_ms_three_amplitudes(self):
        psi = make_ms(4, math.pi / 3)
        assert np.count_nonzero(psi.amplitudes) == 3
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)
        assert psi.amplitudes[0b1110] == pytest.approx(INV2 * 0.5, abs=1e-15)
        assert psi.amplitudes[0b1111] == pytest.approx(
            INV2 * math.sin(math.pi / 3), abs=1e-15)

    def test_ms_rejects_small_n(self):
        with pytest.raises(InvalidArityError):
            make_ms(3, 0.1)

    def test_wclass_is_dicke_w(self):
        np.testing.assert_allclose(
            make_wclass(0.5, 0.5, 0.5, 0.5, 0.0).amplitudes,
            make_dicke(4, 3).amplitudes, atol=1e-15)

    def test_wclass_basis_state(self):
        psi = make_wclass(1.0, 0.0, 0.0, 0.0, 0.0)
        assert psi.amplitudes[0b1000] == 1.0
        assert np.count_nonzero(psi.amplitudes) == 1

    def test_wclass_f_maximizer_is_normalized(self):
        psi = make_wclass(0.0, math.sqrt(2 / 7), math.sqrt(3 / 7),
                          math.sqrt(2 / 7), 0.0)
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-15)

    def test_wclass_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            make_wclass(1.0, 1.0, 0.0, 0.0, 0.0)

    def test_dicke_w_state(self):
        psi = make_dicke(4, 3)
        expected = np.zeros(16)
        expected[[0b0001, 0b0010, 0b0100, 0b1000]] = 0.5
        np.testing.assert_allclose(psi.amplitudes, expected, atol=1e-15)

    def test_dicke_two_qubits(self):
        psi = make_dicke(2, 1)
        expected = np.zeros(4)
        expected[[0b01, 0b10]] = INV2
        np.testing.assert_allclose(psi.amplitudes, expected, atol=1e-15)

    def test_dicke_all_zeros(self):
        psi = make_dicke(4, 4)
        assert psi.amplitudes[0] == 1.0
        assert np.count_nonzero(psi.amplitudes) == 1

    @pytest.mark.parametrize("n", range(1, 11))
    def test_dicke_matches_bit_count_loop(self, n):
        for m in range(n + 1):
            expected = np.zeros(2**n, dtype=complex)
            for idx in range(2**n):
                if bin(idx).count("1") == n - m:
                    expected[idx] = 1.0 / math.sqrt(math.comb(n, m))
            assert np.array_equal(make_dicke(n, m).amplitudes, expected)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_gghz_and_ms_reject_non_finite_theta(self, theta):
        with pytest.raises(DomainError):
            make_gghz(3, theta)
        with pytest.raises(DomainError):
            make_ms(4, theta)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_wclass_rejects_non_finite_coefficients(self, bad):
        with pytest.raises(NormalizationError):
            make_wclass(bad, 0.0, 0.0, 0.0, 1.0)

    def test_dicke_rejects_out_of_range(self):
        with pytest.raises(InvalidArityError):
            make_dicke(4, 5)
        with pytest.raises(InvalidArityError):
            make_dicke(4, -1)

    def test_qubit_cap_is_checked_before_allocating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the qubit-count check")

        for name in ("zeros", "arange", "eye"):
            monkeypatch.setattr(np, name, refuse)
        n = MAX_QUBITS + 1
        for build in (lambda: make_gghz(n, 0.0), lambda: make_ms(n, 0.0),
                      lambda: make_dicke(n, 1)):
            with pytest.raises(InvalidArityError, match=str(MAX_QUBITS)):
                build()

    def test_state_classes_cap_qubits_before_sizing(self):
        for n in (0, MAX_QUBITS + 1, 10**5):
            with pytest.raises(InvalidArityError, match=f"1 to {MAX_QUBITS}, got {n}"):
                PureState(n, np.ones(1))
            with pytest.raises(InvalidArityError, match=f"1 to {MAX_QUBITS}, got {n}"):
                DensityMatrix(n, np.ones((1, 1)))

    def test_dense_limit_is_checked_before_allocating(self, monkeypatch):
        # The first qubit count whose 4**n complex entries exceed the limit.
        n = next(n for n in itertools.count(1) if 16 * 4**n > MAX_DENSE_BYTES)
        assert n == 13
        psi = make_gghz(n, 0.3)

        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the dense-size check")

        for name in ("zeros", "eye", "outer", "transpose"):
            monkeypatch.setattr(np, name, refuse)
        for build in (lambda: to_density(psi), lambda: maximally_mixed(n),
                      lambda: maximally_mixed(MAX_QUBITS),
                      lambda: reduce_pure(psi, range(n))):
            with pytest.raises(InvalidArityError, match="256 MiB limit"):
                build()

    @settings(max_examples=40, deadline=None)
    @given(theta=st.floats(-10.0, 10.0), n=st.integers(3, 7))
    def test_constructor_norms(self, theta, n):
        assert np.linalg.norm(make_gghz(n, theta).amplitudes) == pytest.approx(
            1.0, abs=1e-12)
        if n >= 4:
            assert np.linalg.norm(make_ms(n, theta).amplitudes) == pytest.approx(
                1.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 6), data=st.data())
    def test_dicke_norms(self, n, data):
        m = data.draw(st.integers(0, n))
        assert np.linalg.norm(make_dicke(n, m).amplitudes) == pytest.approx(
            1.0, abs=1e-12)


class TestDensity:
    def test_single_qubit_projector(self):
        rho = to_density(PureState(1, np.array([1.0, 0.0])))
        np.testing.assert_allclose(rho.entries, np.diag([1.0, 0.0]), atol=1e-15)

    def test_bell_corners(self):
        bell = PureState(2, np.array([INV2, 0.0, 0.0, INV2]))
        rho = to_density(bell).entries
        assert rho[0, 0] == pytest.approx(0.5)
        assert rho[0, 3] == pytest.approx(0.5)
        assert rho[3, 0] == pytest.approx(0.5)
        assert rho[3, 3] == pytest.approx(0.5)
        assert np.count_nonzero(np.abs(rho) > 1e-14) == 4

    def test_purity(self):
        rho = to_density(make_gghz(4, math.pi / 6)).entries
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        bad = np.eye(2, dtype=complex) / 2
        bad[0, 1] = 0.5
        with pytest.raises(DomainError):
            DensityMatrix(1, bad)

    def test_rejects_bad_trace(self):
        with pytest.raises(DomainError):
            DensityMatrix(1, np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(DomainError):
            DensityMatrix(1, np.diag([1.5, -0.5]).astype(complex))


    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(DomainError):
            DensityMatrix(1, np.array([[bad, 0.0], [0.0, 0.5]]))
        with pytest.raises(DomainError):
            DensityMatrix(1, np.array([[0.5, bad], [bad, 0.5]]))
        with pytest.raises(DomainError):
            DensityMatrix(1, np.full((2, 2), bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_pure_state_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(NormalizationError):
            PureState(1, np.array([bad, 0.0]))


class TestPartialTrace:
    def test_gghz_reduction_is_diagonal(self):
        theta = 0.7
        rho = reduce_pure(make_gghz(4, theta), (0, 1, 2))
        expected = np.zeros((8, 8), dtype=complex)
        expected[0, 0] = math.cos(theta) ** 2
        expected[7, 7] = math.sin(theta) ** 2
        np.testing.assert_allclose(rho.entries, expected, atol=1e-14)

    def test_ms_reduction_keeps_coherence(self):
        theta = 0.9
        rho = reduce_pure(make_ms(4, theta), (0, 1, 2))
        expected = np.zeros((8, 8), dtype=complex)
        expected[0, 0] = expected[7, 7] = 0.5
        expected[0, 7] = expected[7, 0] = 0.5 * math.cos(theta)
        np.testing.assert_allclose(rho.entries, expected, atol=1e-14)

    def test_product_state_reduction(self):
        rho = reduce_pure(make_gghz(4, 0.0), (1, 3))
        np.testing.assert_allclose(rho.entries, np.diag([1.0, 0, 0, 0]), atol=1e-15)

    def test_keep_validation(self):
        psi = make_gghz(4, 0.2)
        with pytest.raises(IndexError):
            reduce_pure(psi, ())
        with pytest.raises(IndexError):
            reduce_pure(psi, (0, 4))
        with pytest.raises(IndexError):
            reduce_pure(psi, (2, 1))
        with pytest.raises(IndexError):
            reduce_pure(psi, (1, 1, 2))

    def test_gghz_reductions_all_equal(self, rng):
        for theta in rng.uniform(0, 2 * math.pi, 20):
            psi = make_gghz(4, theta)
            mats = [reduce_pure(psi, keep).entries
                    for keep in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]]
            for m in mats[1:]:
                np.testing.assert_allclose(m, mats[0], atol=1e-12)

    def test_ms_last_three_reductions_equal_and_match_display(self, rng):
        for theta in rng.uniform(0, 2 * math.pi, 20):
            psi = make_ms(4, theta)
            mats = [reduce_pure(psi, keep).entries
                    for keep in [(0, 1, 3), (0, 2, 3), (1, 2, 3)]]
            expected = np.zeros((8, 8), dtype=complex)
            expected[0, 0] = 0.5
            expected[6, 6] = 0.5 * math.cos(theta) ** 2
            expected[6, 7] = expected[7, 6] = 0.5 * math.cos(theta) * math.sin(theta)
            expected[7, 7] = 0.5 * math.sin(theta) ** 2
            for m in mats:
                np.testing.assert_allclose(m, expected, atol=1e-12)

    def test_reduce_pure_matches_amplitude_oracle(self, rng):
        cases = [(n, tuple(sorted(rng.choice(n, size=k, replace=False))))
                 for n in (3, 5, 8, 11, 14) for k in (1, 2, 3)]
        cases.append((10, tuple(range(10))))  # every qubit kept: a 1024 x 1024 matrix
        for n, keep in cases:
            amps = random_pure(n, rng)
            np.testing.assert_allclose(reduce_pure(PureState(n, amps), keep).entries,
                                       oracle_reduce_pure(amps, n, keep),
                                       rtol=0, atol=1e-14, err_msg=str((n, keep)))

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts minor page faults with getrusage")
    def test_reduce_pure_reuses_its_pages(self):
        # Two state-sized temporaries per call made glibc return the pages
        # of a 16-qubit reduction to the system and fault all ~480 back
        # in on the next call.  A fresh interpreter, so the heap starts
        # clean; one BLAS thread, as in the benchmark.
        code = """
import resource
from itertools import combinations, islice
import numpy as np
from svl import PureState, reduce_pure
rng = np.random.default_rng(7)
amps = rng.normal(size=2**16) + 1j * rng.normal(size=2**16)
psi = PureState(16, amps / np.linalg.norm(amps))
keeps = list(islice(combinations(range(16), 3), 0, 560, 11))[:50]
reduce_pure(psi, keeps[-1])
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for keep in keeps:
    reduce_pure(psi, keep)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(keeps))
"""
        src = os.path.dirname(os.path.dirname(os.path.abspath(svl.__file__)))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert float(out) < 8

    def test_maximally_mixed(self):
        rho = maximally_mixed(3)
        np.testing.assert_allclose(rho.entries, np.eye(8) / 8, atol=1e-15)

    def test_twelve_qubit_reduction(self):
        theta = 0.3
        rho = reduce_pure(make_gghz(12, theta), (0, 5, 11))
        expected = np.zeros((8, 8), dtype=complex)
        expected[0, 0] = math.cos(theta) ** 2
        expected[7, 7] = math.sin(theta) ** 2
        np.testing.assert_allclose(rho.entries, expected, atol=1e-14)


class TestStateSpec:
    def test_gghz_round_trip(self):
        spec = StateSpec.from_json('{"family":"GGHZ","n":4,"theta":0.7853981633974483}')
        assert spec.num_qubits == 4
        back = StateSpec.from_json(spec.to_json())
        np.testing.assert_allclose(back.to_pure().amplitudes,
                                   spec.to_pure().amplitudes, atol=1e-15)

    def test_wclass_spec(self):
        spec = StateSpec.from_json(
            '{"family":"WCLASS","alpha":0.5,"beta":0.5,"gamma":0.5,'
            '"delta":0.5,"lambda":0.0}')
        np.testing.assert_allclose(spec.to_pure().amplitudes,
                                   make_dicke(4, 3).amplitudes, atol=1e-15)

    def test_custom_round_trip(self):
        psi = make_ms(4, 1.2)
        spec = StateSpec("CUSTOM", 4, {
            "amplitudes": [[c.real, c.imag] for c in psi.amplitudes]})
        np.testing.assert_allclose(
            StateSpec.from_json(spec.to_json()).to_pure().amplitudes,
            psi.amplitudes, atol=1e-15)

    def test_rejects_unknown_family(self):
        with pytest.raises(DomainError):
            StateSpec.from_json('{"family":"BELL","n":2}')

    def test_rejects_missing_and_extra_fields(self):
        with pytest.raises(DomainError):
            StateSpec.from_json('{"family":"GGHZ","n":4}')
        with pytest.raises(DomainError):
            StateSpec.from_json('{"family":"GGHZ","n":4,"theta":0,"m":1}')

    def test_rejects_unnormalized_wclass(self):
        with pytest.raises(NormalizationError):
            StateSpec.from_json(
                '{"family":"WCLASS","alpha":1,"beta":1,"gamma":0,'
                '"delta":0,"lambda":0}')

    def test_direct_wclass_with_wrong_qubit_count(self):
        with pytest.raises(InvalidArityError):
            StateSpec("WCLASS", 5, {"alpha": 0.0, "beta": 0.0, "gamma": 0.0,
                                    "delta": 0.0, "lambda": 1.0})

    def test_integral_float_qubit_count_accepted(self):
        spec = StateSpec.from_json('{"family":"GGHZ","n":4.0,"theta":0.3}')
        assert spec.num_qubits == 4 and type(spec.num_qubits) is int
        np.testing.assert_array_equal(spec.to_pure().amplitudes,
                                      make_gghz(4, 0.3).amplitudes)
        dicke = StateSpec.from_json('{"family":"DICKE","n":4,"m":3.0}')
        np.testing.assert_array_equal(dicke.to_pure().amplitudes,
                                      make_dicke(4, 3).amplitudes)

    def test_to_pure_returns_one_state(self):
        spec = StateSpec("MS", 4, {"theta": 1.0})
        assert spec.to_pure() is spec.to_pure()

    @pytest.mark.parametrize("text", [
        '{"family":"GGHZ","n":3,"theta":"a"}',
        '{"family":"GGHZ","n":3,"theta":null}',
        '{"family":"GGHZ","n":3,"theta":false}',
        '{"family":"GGHZ","n":3,"theta":1' + '0' * 400 + '}',
        '{"family":"GGHZ","n":"x","theta":0}',
        '{"family":"GGHZ","n":3.7,"theta":0}',
        '{"family":"GGHZ","n":true,"theta":0}',
        '{"family":"DICKE","n":3,"m":1.9}',
        '{"family":"DICKE","n":3,"m":NaN}',
        '{"family":"CUSTOM","n":1,"amplitudes":5}',
        '{"family":"CUSTOM","n":1,"amplitudes":[[1,0],[0]]}',
        '{"family":"CUSTOM","n":1,"amplitudes":[[1,0],["a",0]]}',
        '{"family":"WCLASS","alpha":"x","beta":0,"gamma":0,"delta":0,"lambda":1}',
        '{"family":["GGHZ"],"n":3,"theta":0}',
        '[1, 2]',
    ])
    def test_rejects_field_types(self, text):
        with pytest.raises(DomainError):
            StateSpec.from_json(text)

    @pytest.mark.parametrize("text, error", [
        ('{"family":"GGHZ","n":3,"theta":NaN}', DomainError),
        ('{"family":"MS","n":4,"theta":Infinity}', DomainError),
        ('{"family":"WCLASS","alpha":NaN,"beta":0,"gamma":0,"delta":0,"lambda":1}',
         NormalizationError),
        ('{"family":"CUSTOM","n":1,"amplitudes":[[NaN,0],[0,0]]}',
         NormalizationError),
    ])
    def test_rejects_non_finite_values(self, text, error):
        with pytest.raises(error):
            StateSpec.from_json(text)

    def test_integer_literal_too_long_to_convert_is_domain_error(self):
        # Python refuses int literals over 4300 digits with a bare ValueError.
        text = '{"family":"GGHZ","n":3,"theta":1' + "0" * 5000 + "}"
        with pytest.raises(DomainError, match="malformed state JSON"):
            StateSpec.from_json(text)
