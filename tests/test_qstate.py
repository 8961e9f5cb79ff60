import collections
import dataclasses
import gc
import itertools
import json
import math
import os
import pickle
import re
import subprocess
import sys
import weakref

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
    correlation_tensor,
    make_dicke,
    make_gghz,
    make_ms,
    make_wclass,
    maximally_mixed,
    reduce_pure,
    to_density,
)
from svl import qstate
from svl.correlations import PAULIS, CorrelationMatrix2, CorrelationTensor3
from svl.errors import DomainError
from svl.qstate import MAX_DENSE_BYTES, MAX_QUBITS
from svl.svetlichny import BlochVector, SvetlichnySettings, _starts

from conftest import (
    oracle_reduce_pure,
    random_density_entries,
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

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, "0.3", True,
                                       pytest.param(-10**5000, id="-10**5000")])
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
            with pytest.raises(InvalidArityError, match=rf"\[1, {MAX_QUBITS}\], got {n}"):
                PureState(n, np.ones(1))
            with pytest.raises(InvalidArityError, match=rf"\[1, {MAX_QUBITS}\], got {n}"):
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

    def test_pickle_rebuilds_through_the_constructor(self):
        psi = make_gghz(6, 0.4)
        reduce_pure(psi, (0, 1, 2))
        reduce_pure(psi, (0, 1, 3))
        copy = pickle.loads(pickle.dumps(psi))
        assert copy.amplitudes.tobytes() == psi.amplitudes.tobytes()
        assert not copy.amplitudes.flags.writeable
        assert "_classes" not in vars(copy)
        assert (reduce_pure(copy, (1, 3, 5)).entries.tobytes()
                == reduce_pure(psi, (1, 3, 5)).entries.tobytes())
        rho = reduce_pure(psi, (0, 2, 4))
        back = pickle.loads(pickle.dumps(rho))
        assert type(back) is DensityMatrix
        assert back.entries.tobytes() == rho.entries.tobytes()
        assert not back.entries.flags.writeable

    def test_pickle_checks_the_copy_again(self):
        psi = make_gghz(3, 0.4)
        object.__setattr__(psi, "amplitudes", 2.0 * psi.amplitudes)
        with pytest.raises(NormalizationError):
            pickle.loads(pickle.dumps(psi))
        rho = maximally_mixed(2)
        object.__setattr__(rho, "entries", 2.0 * rho.entries)
        with pytest.raises(DomainError):
            pickle.loads(pickle.dumps(rho))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_pure_state_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(NormalizationError):
            PureState(1, np.array([bad, 0.0]))

    @pytest.mark.parametrize("build, norm", [
        (lambda: make_wclass(1e300, 1e300, 0.0, 0.0, 0.0), math.sqrt(2.0) * 1e300),
        (lambda: StateSpec("CUSTOM", 1, {"amplitudes": [[1e300, 0], [0, 0]]}), 1e300),
        (lambda: StateSpec("CUSTOM", 1, {"amplitudes": [[0, 1e-200], [0, 0]]}), 1e-200),
        (lambda: PureState(1, [1e200, 0]), 1e200),
        (lambda: PureState(1, [1e-200, 0]), 1e-200),
        (lambda: PureState(1, [1e-200j, 1e-200]), math.sqrt(2.0) * 1e-200),
        (lambda: PureState(1, [5e-324, 0]), 5e-324),
    ], ids=["wclass", "custom-huge", "custom-tiny", "pure-huge", "pure-tiny",
            "pure-tiny-complex", "pure-subnormal"])
    def test_huge_or_tiny_amplitudes_name_their_norm(self, build, norm):
        # Their squares overflow or underflow: the norm is retaken on the
        # amplitudes scaled by a power of two, with no RuntimeWarning.
        with pytest.raises(NormalizationError, match=re.escape(f"norm {norm!r}, expected 1")):
            build()

    @pytest.mark.parametrize("family", qstate._FAMILIES)
    def test_norm_in_range_is_numpys_norm_bit_for_bit(self, family):
        data, build = FAMILY_EXAMPLES[family]
        amps = build().amplitudes
        for x in (amps, 3.0 * amps, amps.real.copy(), np.zeros(4)):
            got = qstate._norm(x)
            assert type(got) is float and got == float(np.linalg.norm(x))

    def test_pure_state_rejects_amplitudes_of_another_length(self):
        with pytest.raises(InvalidArityError, match="expected 8 amplitudes for 3 qubits"):
            PureState(3, np.ones(4) / 2)


@pytest.fixture
def full_checks(monkeypatch):
    """The matrices DensityMatrix runs its full checks on, in call order."""
    checked = []
    check = qstate._check_density
    monkeypatch.setattr(qstate, "_check_density",
                        lambda mat: checked.append(mat) or check(mat))
    return checked


def later_keep(psi, first, keep):
    """reduce_pure(psi, keep) after reduce_pure(psi, first), which shares
    its entries when the keeps are of one class."""
    rho = reduce_pure(psi, first)
    later = reduce_pure(psi, keep)
    assert later.entries is rho.entries
    return later


class TestCheckMemo:
    def test_rewrapped_checked_array_is_checked_in_full(self, full_checks, rng):
        # A second DensityMatrix on a checked array shares nothing with the
        # first: it is checked again and keeps its own tensor.
        rho = DensityMatrix(3, random_density_entries(3, rng))
        assert len(full_checks) == 1
        again = DensityMatrix(3, rho.entries)
        assert again.entries is not rho.entries
        assert again.entries.tobytes() == rho.entries.tobytes()
        assert len(full_checks) == 2
        assert correlation_tensor(again) is correlation_tensor(again)
        assert correlation_tensor(again) is not correlation_tensor(rho)
        # The qubit count and the shape are checked first.
        for n in (0, 2, 4):
            with pytest.raises(InvalidArityError):
                DensityMatrix(n, rho.entries)
        assert len(full_checks) == 2

    def test_replace_and_pickle_are_checked_in_full_with_a_memo_of_their_own(
            self, full_checks, rng):
        rho = reduce_pure(PureState(5, random_pure(5, rng)), (0, 2, 4))
        other = random_density_entries(3, rng)
        tensor = correlation_tensor(rho)
        for build in (lambda: dataclasses.replace(rho, entries=other),
                      lambda: dataclasses.replace(rho),
                      lambda: pickle.loads(pickle.dumps(rho))):
            checked = len(full_checks)
            copy = build()
            assert len(full_checks) == checked + 1
            assert copy._memo is not rho._memo
            assert correlation_tensor(copy) is not tensor
        # Each copy's memo keeps its tensor.
        replaced = dataclasses.replace(rho)
        assert correlation_tensor(replaced) is correlation_tensor(replaced)
        back = pickle.loads(pickle.dumps(rho))
        assert correlation_tensor(back) is correlation_tensor(back)
        swapped = correlation_tensor(dataclasses.replace(rho, entries=other))
        fresh = correlation_tensor(DensityMatrix(3, other.copy()))
        assert swapped.m.tobytes() == fresh.m.tobytes() != tensor.m.tobytes()
        with pytest.raises(TypeError):
            DensityMatrix(3, rho.entries, {})

    @pytest.mark.parametrize("keeps, classes", [
        (list(itertools.combinations(range(7), 3)), 2),
        (list(itertools.combinations(range(7), 3))[::-1], 2),
    ])
    def test_each_class_is_checked_in_full_once(self, full_checks, keeps, classes):
        psi = make_ms(7, 2.0)
        for keep in keeps:
            reduce_pure(psi, keep)
        assert len(full_checks) == classes

    def test_every_distinct_reduction_is_checked_in_full(self, full_checks, rng):
        psi = PureState(6, random_pure(6, rng))
        keeps = list(itertools.combinations(range(6), 3))
        for keep in keeps + keeps:
            reduce_pure(psi, keep)
        assert len(full_checks) == len(keeps)

    def test_copy_is_checked_in_full(self, full_checks, rng):
        rho = DensityMatrix(3, random_density_entries(3, rng))
        twin = DensityMatrix(3, rho.entries.copy())
        assert twin.entries is not rho.entries
        assert len(full_checks) == 2

    @pytest.mark.parametrize("kept", [
        lambda: DensityMatrix(3, np.eye(8) / 8).entries,
        lambda: later_keep(make_gghz(6, 0.4), (0, 1, 2), (3, 4, 5)).entries,
        lambda: CorrelationTensor3(np.zeros((3, 3, 3))).m,
        lambda: CorrelationMatrix2(np.eye(3)).t,
        lambda: PAULIS,
        lambda: SvetlichnySettings(*[BlochVector(0.3, 0.2)] * 6)._observables,
        lambda: _starts(5, 4),
    ], ids=["DensityMatrix", "later keep", "CorrelationTensor3", "CorrelationMatrix2",
            "PAULIS", "observables", "starts"])
    def test_kept_arrays_cannot_be_made_writeable(self, kept):
        with pytest.raises(ValueError):
            kept().setflags(write=True)

    @pytest.mark.parametrize("build, given", [
        (lambda a: DensityMatrix(3, a).entries, lambda: np.eye(8, dtype=complex) / 8),
        (lambda a: CorrelationTensor3(a).m, lambda: np.full((3, 3, 3), 0.5)),
        (lambda a: CorrelationMatrix2(a).t, lambda: np.full((3, 3), 0.5)),
    ], ids=["DensityMatrix", "CorrelationTensor3", "CorrelationMatrix2"])
    def test_callers_array_is_copied_and_left_writeable(self, build, given):
        a = given()
        kept = build(a)
        assert a.flags.writeable
        want = kept.tobytes()
        a.flat[1] = 0.25
        assert kept.tobytes() == want

    def test_pure_state_freezes_the_callers_amplitudes(self):
        # The one exception: the state-sized amplitudes are not copied.
        a = make_gghz(4, 0.4).amplitudes.copy()
        psi = PureState(4, a)
        assert psi.amplitudes is a
        assert not a.flags.writeable

    def test_view_is_copied(self, full_checks):
        base = np.zeros((2, 8, 8), dtype=complex)
        base[0] = np.eye(8) / 8
        view = base[0]
        rho = DensityMatrix(3, view)
        assert view.flags.writeable
        tensor = correlation_tensor(rho)
        assert correlation_tensor(rho) is tensor
        entries, m = rho.entries.tobytes(), tensor.m.tobytes()
        base[0, 0, 1] = 0.5
        assert rho.entries.tobytes() == entries
        assert correlation_tensor(rho).m.tobytes() == m
        assert len(full_checks) == 1

    def test_memo_entries_leave_with_their_matrix(self, rng):
        rhos = [DensityMatrix(3, random_density_entries(3, rng)) for _ in range(1000)]
        tensors = [weakref.ref(correlation_tensor(rho)) for rho in rhos]
        assert all(t() is correlation_tensor(rho) for t, rho in zip(tensors, rhos))
        del rhos
        gc.collect()
        assert all(t() is None for t in tensors)

    def test_memo_entries_leave_with_their_state(self, rng):
        psi = PureState(12, random_pure(12, rng))
        tensors = [weakref.ref(correlation_tensor(reduce_pure(psi, keep)))
                   for keep in itertools.combinations(range(12), 3)]
        # The state keeps the 220 classes' matrices, and so their tensors.
        assert len({id(t()) for t in tensors if t() is not None}) == 220
        dropped = weakref.ref(psi)
        del psi
        gc.collect()
        assert dropped() is None
        assert all(t() is None for t in tensors)


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
        for keep, bad in [((0, 4), 4), ((-1, 2), -1), ((0, 1.9, 2), 1.9), ((0, 1.0, 2), 1.0),
                          ((True, 2), True), ((0, np.bool_(True)), np.bool_(True)),
                          (("0", "1"), "0")]:
            match = re.escape(f"need an integer kept qubit index in [0, 3], got {bad!r}") + "$"
            with pytest.raises(IndexError, match=match):
                reduce_pure(psi, keep)
        for keep, match in [((), "keep must be nonempty$"),
                            ((2, 1), r"strictly increasing, got \(2, 1\)$"),
                            ((1, 1, 2), r"strictly increasing, got \(1, 1, 2\)$"),
                            (None, "must be an iterable of qubit indices, got NoneType$"),
                            (3, "must be an iterable of qubit indices, got int$")]:
            with pytest.raises(IndexError, match=match):
                reduce_pure(psi, keep)
        for keep in [np.arange(3), (np.int64(0), np.int32(1), np.uint8(2)),
                     (q for q in (0, 1, 2))]:
            np.testing.assert_array_equal(reduce_pure(psi, keep).entries,
                                          reduce_pure(psi, (0, 1, 2)).entries)

    def test_endless_keep_fails_after_n_plus_one_entries(self):
        drawn = []

        def zeros():
            for q in itertools.islice(itertools.repeat(0), 10**6):
                drawn.append(q)
                yield q

        with pytest.raises(IndexError, match=r"strictly increasing, got \(0, 0, 0, 0, 0, 0\)$"):
            reduce_pure(make_gghz(5, 0.3), zeros())
        assert len(drawn) <= 6

    def test_later_keeps_check_nothing_again(self, monkeypatch):
        psi = make_dicke(10, 5)
        keeps = list(itertools.combinations(range(10), 3))
        reduce_pure(psi, keeps[0])
        calls = collections.Counter()

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapper

        for name in ("_array", "_bounded_int", "_check_dense"):
            monkeypatch.setattr(qstate, name, counted(name, getattr(qstate, name)))
        monkeypatch.setattr(DensityMatrix, "__init__", counted("__init__", DensityMatrix.__init__))
        for keep in keeps[1:]:
            reduce_pure(psi, keep)
        assert calls == {"__init__": len(keeps) - 1}

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

    @pytest.mark.parametrize("make", [make_gghz, make_ms, lambda n, t: make_dicke(n, n // 2)],
                             ids=["GGHZ", "MS", "DICKE"])
    def test_shared_reductions_match_amplitude_oracle(self, make, rng):
        assert_sweeps_match_oracle([make(n, float(rng.uniform(0, 2 * math.pi)))
                                    for n in range(4, 13)])

    def test_shared_reductions_of_asymmetric_states_match_oracle(self, rng):
        states = [make_wclass(0.0, 0.0, g, math.sqrt(1.0 - g * g), 0.0)
                  for g in (0.0, 0.3, 1 / math.sqrt(2.0), 1.0)]  # the FIG4 slice
        # Symmetric under the swap of qubits 0 and 2 only, which no run of
        # adjacent transpositions carries.
        a = random_pure(5, rng).reshape((2,) * 5)
        states.append(PureState(5, normalized(a + a.transpose(2, 1, 0, 3, 4))))
        # Qubits 2, 3 and 4 of six permute freely; the others do not.
        a = random_pure(6, rng).reshape((2,) * 6)
        sym = sum(a.transpose((0, 1, *(2 + p for p in perm), 5))
                  for perm in itertools.permutations(range(3)))
        states.append(PureState(6, normalized(sym)))
        states += [PureState(n, random_pure(n, rng)) for n in (4, 7, 9)]
        assert_sweeps_match_oracle(states)

    def test_each_class_is_reduced_once(self, kernel_runs, rng):
        keeps = list(itertools.combinations(range(8), 3))
        cases = [(make_gghz(8, 0.4), keeps, 1),
                 (make_gghz(8, 0.4), keeps[::-1], 1),  # first keep is no representative
                 (make_ms(8, 2.0), keeps, 2),
                 (make_dicke(8, 4), keeps, 1),
                 (PureState(8, random_pure(8, rng)), keeps, len(keeps))]
        for psi, order, expected in cases:
            kernel_runs.clear()
            for keep in order:
                reduce_pure(psi, keep)
            assert len(kernel_runs) == expected

    def test_alternating_states_keep_their_classes(self, kernel_runs):
        gghz, ms = make_gghz(8, 0.4), make_ms(8, 2.0)
        for keep in itertools.combinations(range(8), 3):
            reduce_pure(gghz, keep)
            reduce_pure(ms, keep)
        assert len(kernel_runs) == 3  # one class for GGHZ, two for MS

    def test_reduced_state_is_freed_with_its_classes(self):
        psi = make_gghz(12, 0.4)
        reduce_pure(psi, (0, 1, 2))
        dropped = weakref.ref(psi)
        del psi
        gc.collect()
        assert dropped() is None

    def test_one_ulp_off_symmetry_shares_nothing(self, kernel_runs):
        ghz = make_gghz(8, 0.4)
        amps = ghz.amplitudes.copy()
        # Adjacent qubits of 0b01010101 all differ, so every adjacent
        # transposition moves this amplitude onto a zero one.
        amps[0b01010101] = np.nextafter(0.0, 1.0)
        psi = PureState(8, amps)
        keeps = list(itertools.combinations(range(8), 3))
        for keep in keeps:
            reduce_pure(psi, keep)
        assert kernel_runs == keeps

    def test_symmetry_is_tested_once_per_state(self, monkeypatch):
        tests = []
        run_starts = qstate._run_starts
        monkeypatch.setattr(qstate, "_run_starts", lambda psi: tests.append(psi) or run_starts(psi))
        psi = make_gghz(10, 0.4)
        reduce_pure(psi, (3, 5, 9))
        assert tests == [psi]
        for keep in itertools.combinations(range(10), 3):
            reduce_pure(psi, keep)
        assert tests == [psi]

    def test_generic_one_off_compares_a_few_entries(self, monkeypatch, rng):
        sizes = []
        array_equal = np.array_equal
        monkeypatch.setattr(np, "array_equal",
                            lambda a, b: sizes.append(a.size) or array_equal(a, b))
        reduce_pure(PureState(16, random_pure(16, rng)), (3, 9, 13))
        assert sizes and max(sizes) <= 8

    @pytest.mark.parametrize("psi", [make_gghz(8, 0.4), make_ms(8, 2.0), make_dicke(8, 4)],
                             ids=["GGHZ", "MS", "DICKE"])
    def test_one_off_reduction_matches_sweep(self, psi):
        swept = {keep: reduce_pure(psi, keep).entries
                 for keep in itertools.combinations(range(8), 3)}
        one_off = reduce_pure(PureState(8, psi.amplitudes), (5, 6, 7)).entries
        assert one_off.tobytes() == swept[5, 6, 7].tobytes()

    def test_each_call_returns_its_own_read_only_matrix(self):
        psi = make_gghz(6, 0.4)
        rhos = [reduce_pure(psi, keep) for keep in [(0, 1, 2), (0, 1, 2), (2, 4, 5)]]
        assert len({id(rho) for rho in rhos}) == 3
        for rho in rhos:
            assert not rho.entries.flags.writeable
            with pytest.raises(ValueError):
                rho.entries[0, 0] = 0.0
            np.testing.assert_array_equal(rho.entries, rhos[0].entries)

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


@pytest.fixture
def kernel_runs(monkeypatch):
    """The keeps that reduce_pure's kernel reduces, in call order."""
    runs = []
    kernel = qstate._reduce
    monkeypatch.setattr(qstate, "_reduce", lambda psi, keep: runs.append(keep) or kernel(psi, keep))
    return runs


def normalized(a):
    return (a / np.linalg.norm(a)).ravel()


def assert_sweeps_match_oracle(states):
    """Every three-qubit reduction of each state within 1e-14, swept in
    order and, on a copy of the state, in reverse order."""
    for psi in states:
        n = psi.num_qubits
        keeps = list(itertools.combinations(range(n), 3))
        for state, order in ((psi, keeps), (PureState(n, psi.amplitudes), keeps[::-1])):
            for keep in order:
                np.testing.assert_allclose(reduce_pure(state, keep).entries,
                                           oracle_reduce_pure(psi.amplitudes, n, keep),
                                           rtol=0, atol=1e-14, err_msg=str((n, keep)))


# One spec of each family and its state, built by the family constructor.
FAMILY_EXAMPLES = {
    "GGHZ": ({"n": 5, "theta": 0.3}, lambda: make_gghz(5, 0.3)),
    "MS": ({"n": 5, "theta": 2.0}, lambda: make_ms(5, 2.0)),
    "WCLASS": ({"alpha": 0.6, "beta": 0.0, "gamma": 0.0, "delta": 0.8, "lambda": 0.0},
               lambda: make_wclass(0.6, 0.0, 0.0, 0.8, 0.0)),
    "DICKE": ({"n": 5, "m": 2}, lambda: make_dicke(5, 2)),
    "CUSTOM": ({"n": 2, "amplitudes": [[0.5, 0.0], [0.0, 0.5], [0.5, 0.0], [0.0, 0.5]]},
               lambda: PureState(2, np.array([0.5, 0.5j, 0.5, 0.5j]))),
}


class TestStateSpec:
    @pytest.mark.parametrize("family", qstate._FAMILIES)
    def test_each_family_builds_with_its_constructor(self, family):
        data, build = FAMILY_EXAMPLES[family]
        spec = StateSpec.from_dict({"family": family, **data})
        assert spec.family == family
        assert spec.to_pure().amplitudes.tobytes() == build().amplitudes.tobytes()

    @pytest.mark.parametrize("params", [None, 0.3, [("theta", 0.3)]])
    def test_rejects_params_that_are_not_a_mapping(self, params):
        with pytest.raises(DomainError, match="params must be a mapping"):
            StateSpec("GGHZ", 4, params)

    def test_gghz_spec(self):
        spec = from_json('{"family":"GGHZ","n":4,"theta":0.7853981633974483}')
        assert spec.num_qubits == 4
        np.testing.assert_array_equal(spec.to_pure().amplitudes,
                                      make_gghz(4, 0.7853981633974483).amplitudes)

    def test_wclass_spec(self):
        spec = from_json(
            '{"family":"WCLASS","alpha":0.5,"beta":0.5,"gamma":0.5,'
            '"delta":0.5,"lambda":0.0}')
        np.testing.assert_allclose(spec.to_pure().amplitudes,
                                   make_dicke(4, 3).amplitudes, atol=1e-15)

    def test_custom_spec(self):
        psi = make_ms(4, 1.2)
        text = json.dumps({"family": "CUSTOM", "n": 4,
                           "amplitudes": [[c.real, c.imag] for c in psi.amplitudes]})
        np.testing.assert_allclose(from_json(text).to_pure().amplitudes,
                                   psi.amplitudes, atol=1e-15)

    def test_rejects_unknown_family(self):
        with pytest.raises(DomainError):
            from_json('{"family":"BELL","n":2}')

    def test_rejects_missing_and_extra_fields(self):
        with pytest.raises(DomainError):
            from_json('{"family":"GGHZ","n":4}')
        with pytest.raises(DomainError):
            from_json('{"family":"GGHZ","n":4,"theta":0,"m":1}')

    def test_rejects_unnormalized_wclass(self):
        with pytest.raises(NormalizationError):
            from_json(
                '{"family":"WCLASS","alpha":1,"beta":1,"gamma":0,'
                '"delta":0,"lambda":0}')

    def test_direct_wclass_with_wrong_qubit_count(self):
        with pytest.raises(InvalidArityError):
            StateSpec("WCLASS", 5, {"alpha": 0.0, "beta": 0.0, "gamma": 0.0,
                                    "delta": 0.0, "lambda": 1.0})

    def test_integral_float_qubit_count_accepted(self):
        spec = from_json('{"family":"GGHZ","n":4.0,"theta":0.3}')
        assert spec.num_qubits == 4 and type(spec.num_qubits) is int
        np.testing.assert_array_equal(spec.to_pure().amplitudes,
                                      make_gghz(4, 0.3).amplitudes)
        dicke = from_json('{"family":"DICKE","n":4,"m":3.0}')
        np.testing.assert_array_equal(dicke.to_pure().amplitudes,
                                      make_dicke(4, 3).amplitudes)

    def test_params_are_read_only(self):
        # An edit would leave the built state and the bound disagreeing.
        spec = StateSpec("GGHZ", 4, {"theta": 0.3})
        with pytest.raises(TypeError):
            spec.params["theta"] = 1.2
        with pytest.raises(TypeError):
            del spec.params["theta"]
        assert spec.params == {"theta": 0.3}
        copy = pickle.loads(pickle.dumps(spec))
        assert (copy.family, copy.num_qubits, copy.params) == ("GGHZ", 4, spec.params)
        assert copy.to_pure().amplitudes.tobytes() == spec.to_pure().amplitudes.tobytes()
        with pytest.raises(TypeError):
            copy.params["theta"] = 1.2

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
        '{"n": 4}',
    ])
    def test_rejects_field_types(self, text):
        with pytest.raises(DomainError):
            from_json(text)

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
            from_json(text)


def from_json(text):
    """The spec of a JSON text, by the path the CLI takes."""
    return StateSpec.from_dict(json.loads(text))
