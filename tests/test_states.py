import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgeo.errors import (
    BadDims,
    NonPositive,
    NotDescending,
    NotGauge,
    NotHermitian,
    NotNormalized,
    SpectrumMismatch,
)
from qgeo.linalg import frobenius, sample_haar_unitary
from qgeo.states import (
    connecting_gauge,
    density_state,
    frame_to_state,
    gauge_act,
    gauge_element,
    make_spectrum,
    purification_frame,
    purify,
    random_frame,
    random_gauge,
    random_gauge_algebra,
    rank_one_partial_trace,
)


class TestSpectrum:
    def test_pure(self):
        sigma = make_spectrum((1.0,), (1,))
        assert sigma.k == 1
        assert np.allclose(sigma.p_matrix, [[1.0]])

    def test_two_level(self):
        sigma = make_spectrum((0.7, 0.3), (1, 1))
        assert sigma.k == 2
        assert np.array_equal(sigma.block_mask, np.eye(2, dtype=bool))

    def test_degenerate_block(self):
        sigma = make_spectrum((0.4, 0.2), (1, 3))
        assert sigma.k == 4
        assert np.allclose(sigma.full, [0.4, 0.2, 0.2, 0.2])
        assert np.array_equal(sigma.block_mask[1:, 1:], np.ones((3, 3), dtype=bool))
        assert not sigma.block_mask[0, 1:].any() and not sigma.block_mask[1:, 0].any()
        # three blocks: the mask is exactly where a P-commuting matrix may live
        sigma = make_spectrum((0.3, 0.1, 0.05), (2, 3, 2))
        expected = np.zeros((7, 7), dtype=bool)
        for blk in sigma.blocks:
            expected[blk, blk] = True
        assert np.array_equal(sigma.block_mask, expected)
        p = sigma.p_matrix
        commuting = np.where(sigma.block_mask, np.arange(49.0).reshape(7, 7), 0)
        assert np.allclose(commuting @ p, p @ commuting)

    def test_derived_data_is_cached_and_read_only(self):
        sigma = make_spectrum((0.3, 0.1, 0.05), (2, 3, 2))
        for name in ("full", "p_matrix", "block_mask"):
            value = getattr(sigma, name)
            assert getattr(sigma, name) is value
            with pytest.raises(ValueError):
                value[0, ...] = 0
        assert sigma.blocks is sigma.blocks and sigma.k == 7
        fresh = make_spectrum((0.3, 0.1, 0.05), (2, 3, 2))
        assert sigma == fresh and hash(sigma) == hash(fresh)
        assert sigma != make_spectrum((0.25, 0.125), (2, 4))

    def test_mults_default_to_ones(self):
        sigma = make_spectrum((0.7, 0.3))
        assert sigma.mults == (1, 1)

    def test_errors(self):
        with pytest.raises(NotNormalized):
            make_spectrum((0.5, 0.3), (1, 1))
        with pytest.raises(NotDescending):
            make_spectrum((0.3, 0.7), (1, 1))
        with pytest.raises(NotDescending):
            make_spectrum((0.5, 0.5), (1, 1))
        with pytest.raises(NonPositive):
            make_spectrum((1.5, -0.5), (1, 1))
        with pytest.raises(BadDims):
            make_spectrum((0.5,), (1, 1))

    @settings(max_examples=30, deadline=None)
    @given(weights=st.lists(st.floats(0.1, 1.0), min_size=1, max_size=5))
    def test_normalized_descending_construction(self, weights):
        raw = np.cumsum(np.asarray(weights) + 0.05)[::-1]
        values = raw / raw.sum()
        sigma = make_spectrum(values)
        assert abs(float(np.sum(sigma.full)) - 1.0) <= 1e-12


class TestPurify:
    def test_diagonal_case(self):
        sigma = make_spectrum((0.7, 0.3))
        state = density_state(np.diag([0.7, 0.3, 0.0]), sigma)
        frame = purify(state)
        expected = np.array([[np.sqrt(0.7), 0], [0, np.sqrt(0.3)], [0, 0]])
        assert np.allclose(frame.psi, expected, atol=1e-14)

    def test_pure_state(self):
        sigma = make_spectrum((1.0,))
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 0] = 1.0
        frame = purify(density_state(rho, sigma))
        assert np.allclose(frame.psi, [[1.0], [0.0], [0.0]], atol=1e-14)

    def test_roundtrip_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n + 1))
            raw = np.cumsum(rng.uniform(0.2, 1.0, size=k))[::-1]
            sigma = make_spectrum(raw / raw.sum())
            frame = random_frame(sigma, n, rng)
            state = frame_to_state(frame)
            again = purify(state)
            assert frobenius(frame_to_state(again).rho - state.rho) <= 1e-9

    def test_deterministic(self, mixed_frame):
        state = frame_to_state(mixed_frame)
        assert np.array_equal(purify(state).psi, purify(state).psi)

    def test_spectrum_mismatch(self):
        sigma = make_spectrum((0.8, 0.2))
        with pytest.raises(SpectrumMismatch):
            density_state(np.diag([0.7, 0.3, 0.0]), sigma)


class TestFrames:
    def test_frame_to_state_column(self):
        sigma = make_spectrum((1.0,))
        frame = purification_frame(np.array([[1.0], [0.0]]), sigma)
        assert np.allclose(frame_to_state(frame).rho, np.diag([1.0, 0.0]))

    def test_purification_frame_rejects_invalid(self):
        sigma = make_spectrum((0.7, 0.3))
        with pytest.raises(BadDims):
            purification_frame(np.eye(3)[:, :1], sigma)  # one column, rank 2
        with pytest.raises(SpectrumMismatch):
            purification_frame(np.eye(3)[:, :2], sigma)  # psi†psi = I, not P
        psi = np.eye(3)[:, :2] * np.sqrt([0.7, 0.3])
        assert np.array_equal(purification_frame(psi, sigma).psi, psi)

    def test_frames_are_read_only_copies(self, rng):
        sigma = make_spectrum((0.6, 0.4))
        raw = np.array(random_frame(sigma, 3, rng).psi)
        frame = purification_frame(raw, sigma)
        assert raw.flags.writeable
        for f in (frame, random_frame(sigma, 3, rng), purify(frame_to_state(frame)),
                  gauge_act(frame, np.diag([1j, -1.0]))):
            assert not f.psi.flags.writeable
            with pytest.raises(ValueError):
                f.psi[0, 0] = 0.0
        before = frame.psi.copy()
        raw[0, 0] += 1.0
        assert np.array_equal(frame.psi, before)

    def test_gauge_act_preserves_state(self, mixed_frame, rng):
        u = random_gauge(mixed_frame.sigma, rng)
        moved = gauge_act(mixed_frame, u)
        assert frobenius(moved.psi.conj().T @ moved.psi - mixed_frame.sigma.p_matrix) <= 1e-10
        assert frobenius(frame_to_state(moved).rho - frame_to_state(mixed_frame).rho) <= 1e-12

    def test_gauge_act_identity_and_phase(self, rng):
        sigma = make_spectrum((1.0,))
        frame = random_frame(sigma, 3, rng)
        assert np.allclose(gauge_act(frame, np.eye(1)).psi, frame.psi)
        theta = 0.7
        moved = gauge_act(frame, np.array([[np.exp(1j * theta)]]))
        assert np.allclose(moved.psi, frame.psi * np.exp(1j * theta))

    def test_gauge_act_rejects_non_gauge(self, mixed_frame, rng):
        with pytest.raises(NotGauge):
            gauge_act(mixed_frame, 2.0 * np.eye(3))
        # unitary but not commuting with P (mixes the two blocks)
        u = np.zeros((3, 3), dtype=complex)
        u[0, 1] = u[1, 0] = u[2, 2] = 1.0
        with pytest.raises(NotGauge):
            gauge_act(mixed_frame, u)

    def test_random_frame_contract(self, rng):
        sigma = make_spectrum((0.7, 0.3))
        frame = random_frame(sigma, 4, rng)
        assert frobenius(frame.psi.conj().T @ frame.psi - np.diag([0.7, 0.3])) <= 1e-10
        with pytest.raises(BadDims):
            random_frame(sigma, 1, rng)

    def test_random_gauge_block_structure(self, rng):
        sigma = make_spectrum((0.5, 0.25), (1, 2))
        u = random_gauge(sigma, rng)
        p = sigma.p_matrix
        assert frobenius(u @ p - p @ u) == 0.0
        assert frobenius(u.conj().T @ u - np.eye(3)) <= 1e-12
        assert u[0, 1] == 0 and u[0, 2] == 0

    def test_random_gauge_algebra_valid(self, rng):
        sigma = make_spectrum((0.5, 0.25), (1, 2))
        xi = random_gauge_algebra(sigma, rng)
        gauge_element(xi.xi, sigma)  # validates anti-Hermiticity + commutation

    def test_gauge_element_rejects_invalid(self):
        sigma = make_spectrum((0.5, 0.25), (1, 2))
        with pytest.raises(NotGauge):
            gauge_element(np.eye(3), sigma)  # Hermitian, not anti-Hermitian
        off_block = np.zeros((3, 3), dtype=complex)
        off_block[0, 1] = 1.0
        off_block[1, 0] = -1.0
        with pytest.raises(NotGauge):
            gauge_element(off_block, sigma)  # couples the two blocks

    def test_fiber_transitivity(self, mixed_frame, rng):
        phi = purify(frame_to_state(mixed_frame))
        u = connecting_gauge(mixed_frame, phi)
        p = mixed_frame.sigma.p_matrix
        assert frobenius(u.conj().T @ u - np.eye(3)) <= 1e-8
        assert frobenius(u @ p - p @ u) <= 1e-8
        assert frobenius(mixed_frame.psi @ u - phi.psi) <= 1e-8


class TestPartialTrace:
    def test_pure_column(self):
        sigma = make_spectrum((1.0,))
        frame = purification_frame(np.array([[1.0], [0.0]]), sigma)
        assert np.allclose(rank_one_partial_trace(frame), np.diag([1.0, 0.0]))

    def test_diagonal_frame(self):
        sigma = make_spectrum((0.7, 0.3))
        psi = np.array([[np.sqrt(0.7), 0.0], [0.0, np.sqrt(0.3)]])
        frame = purification_frame(psi, sigma)
        assert np.allclose(rank_one_partial_trace(frame), np.diag([0.7, 0.3]))

    def test_matches_frame_to_state(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, min(n, 4) + 1))
            raw = np.cumsum(rng.uniform(0.2, 1.0, size=k))[::-1]
            sigma = make_spectrum(raw / raw.sum())
            frame = random_frame(sigma, n, rng)
            assert frobenius(rank_one_partial_trace(frame)
                             - frame_to_state(frame).rho) <= 1e-10


class TestDensityState:
    def test_trace_validation(self):
        sigma = make_spectrum((0.7, 0.3))
        with pytest.raises(NotNormalized):
            density_state(np.diag([0.7, 0.4]), sigma)

    def test_checks_rho_once_by_name(self, monkeypatch):
        import qgeo.linalg

        labels = []
        check = qgeo.linalg._check_defect

        def recording(m, tol, name, *args, **kwargs):
            labels.append(name)
            return check(m, tol, name, *args, **kwargs)

        monkeypatch.setattr(qgeo.linalg, "_check_defect", recording)
        sigma = make_spectrum((0.7, 0.3))
        density_state(np.diag([0.7, 0.3, 0.0]), sigma)
        assert labels == ["rho"]
        with pytest.raises(NotHermitian, match="^rho: "):
            density_state(np.array([[0.7, 0.1], [0.0, 0.3]]), sigma)

    def test_representative_change_keeps_spectrum(self, rng):
        sigma = make_spectrum((0.6, 0.4))
        frame = random_frame(sigma, 4, rng)
        rho = frame_to_state(frame).rho
        u = sample_haar_unitary(4, rng)
        density_state(u @ rho @ u.conj().T, sigma)  # validates fine
