import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgeo.errors import BadDims, NotAntiHermitian, NotHermitian
from qgeo.geometry import momentum_map
from qgeo.linalg import (
    check_observable,
    frobenius,
    hermitian_eigensystem,
    sample_haar_unitary,
    sample_hermitian,
    sample_isometry,
    trial_rng,
    unitary_exponential_family,
)
from qgeo.states import density_state, make_spectrum
from qgeo.uncertainty import evolve


class TestEigensystem:
    def test_identity(self):
        values, vectors = hermitian_eigensystem(np.eye(3, dtype=complex))
        assert np.allclose(values, [1, 1, 1])
        assert frobenius(vectors.conj().T @ vectors - np.eye(3)) < 1e-12

    def test_diagonal_reorders_descending(self):
        values, vectors = hermitian_eigensystem(np.diag([0.3, 0.7]).astype(complex))
        assert np.allclose(values, [0.7, 0.3])
        # permutation-phase matrix mapping new order to old slots
        rebuilt = (vectors * values) @ vectors.conj().T
        assert np.allclose(rebuilt, np.diag([0.3, 0.7]))

    def test_roundtrip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            m = sample_hermitian(n, rng)
            values, vectors = hermitian_eigensystem(m)
            scale = max(1.0, frobenius(m))
            assert frobenius((vectors * values) @ vectors.conj().T - m) <= 1e-10 * scale
            assert frobenius(vectors.conj().T @ vectors - np.eye(n)) <= 1e-10 * scale
            assert np.all(np.diff(values) <= 1e-14)

    def test_degenerate_spectrum(self):
        rng = np.random.default_rng(3)
        u = sample_haar_unitary(4, rng)
        m = u @ np.diag([2.0, 2.0, 1.0, 1.0]) @ u.conj().T
        values, vectors = hermitian_eigensystem(m)
        assert np.allclose(values, [2, 2, 1, 1], atol=1e-12)
        assert frobenius((vectors * values) @ vectors.conj().T - m) < 1e-12

    def test_matches_lapack_eigenvalues(self):
        # planted spectra U diag(lam) U†, so the reference does not come from
        # the LAPACK routine under test
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            lam = rng.uniform(-2.0, 2.0, n)
            u = sample_haar_unitary(n, rng)
            m = (u * lam) @ u.conj().T
            values, _ = hermitian_eigensystem(m)
            assert np.allclose(values, np.sort(lam)[::-1], atol=1e-11)

    def test_degenerate_output_repeatable(self):
        rng = np.random.default_rng(5)
        u = sample_haar_unitary(5, rng)
        m = (u * np.array([1.5, 1.5, 1.5, -0.5, -0.5])) @ u.conj().T
        first = hermitian_eigensystem(m)
        second = hermitian_eigensystem(m)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(BadDims):
            hermitian_eigensystem(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_zero_matrix(self):
        values, vectors = hermitian_eigensystem(np.zeros((3, 3)))
        assert np.allclose(values, 0)
        assert np.allclose(vectors, np.eye(3))


def _with_fault(m: np.ndarray, fault: str) -> np.ndarray:
    m = m.copy()
    if fault == "non_hermitian":
        m[0, -1] += 0.5
    elif fault == "non_finite":
        m[1, 1] = np.nan
    return m


def _accepts(m, n: int) -> bool:
    try:
        check_observable(m, n)
    except NotHermitian:
        return False
    return True


class TestCheckObservable:
    @pytest.mark.parametrize("stacked", [False, True], ids=["matrix", "stack"])
    @pytest.mark.parametrize("fault, exc, match", [
        ("non_hermitian", NotHermitian, "obs 'A'"),
        ("wrong_size", BadDims, "dimension"),
        ("non_finite", BadDims, "non-finite"),
    ])
    def test_rejects_bad_input(self, stacked, fault, exc, match):
        rng = np.random.default_rng(11)
        n = 4 if fault == "wrong_size" else 3
        good = sample_hermitian(n, rng)
        bad = _with_fault(sample_hermitian(n, rng), fault)
        assert np.array_equal(check_observable(good, n), good)
        m = np.stack([good, bad, good]) if stacked else bad
        with pytest.raises(exc, match=match):
            check_observable(m, 3, name="obs 'A'")

    def test_stack_decision_matches_slices(self):
        rng = np.random.default_rng(12)
        n = 3
        for _ in range(40):
            slices = [sample_hermitian(n, rng) + eps * sample_hermitian(n, rng) * 1j
                      for eps in rng.choice([0.0, 1e-13, 3e-12, 1e-6], size=3)]
            stack = np.stack(slices)
            assert _accepts(stack, n) == all(_accepts(m, n) for m in slices)
            if _accepts(stack, n):
                assert np.array_equal(check_observable(stack, n), stack)


@pytest.mark.parametrize("call", [
    hermitian_eigensystem,
    lambda m: density_state(m, make_spectrum([0.7, 0.3])),
    lambda m: unitary_exponential_family(1j * m),
    lambda m: momentum_map(m, 1j * np.eye(2)),
    lambda m: momentum_map(np.eye(2), 1j * m),
    lambda m: evolve(m, density_state(np.diag([0.7, 0.3]), make_spectrum([0.7, 0.3])), 1.0, 4),
], ids=["hermitian_eigensystem", "density_state", "unitary_exponential_family",
        "momentum_map_psi", "momentum_map_xi", "evolve"])
def test_one_matrix_functions_reject_stacks(call):
    stack = np.stack([np.diag([0.7, 0.3]), np.diag([0.7, 0.3])]).astype(complex)
    with pytest.raises(BadDims):
        call(stack)


class TestUnitaryExponential:
    def test_zero_generator(self):
        assert np.allclose(unitary_exponential_family(np.zeros((2, 2)))(1.0), np.eye(2))

    def test_scalar_phase(self):
        u = unitary_exponential_family(np.array([[1j]]))(np.pi)
        assert np.allclose(u, [[-1.0]], atol=1e-12)

    def test_2x2_rotation(self):
        x = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        u = unitary_exponential_family(x)(np.pi / 2)
        assert np.allclose(u, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)
        assert frobenius(u.conj().T @ u - np.eye(2)) < 1e-12

    def test_rejects_non_anti_hermitian(self):
        with pytest.raises(NotAntiHermitian):
            unitary_exponential_family(np.eye(2))

    def test_time_array_stacks_scalar_calls(self):
        rng = np.random.default_rng(13)
        for n in range(1, 17):
            flow = unitary_exponential_family(1j * sample_hermitian(n, rng))
            ts = rng.uniform(-2.0, 2.0, size=5)
            assert np.array_equal(flow(ts), np.stack([flow(t) for t in ts]))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), s=st.floats(-1, 1), t=st.floats(-1, 1))
    def test_group_law(self, seed, s, t):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        x = 1j * sample_hermitian(n, rng)
        norm = frobenius(x)
        if norm > 1.0:
            x = x / norm
        flow = unitary_exponential_family(x)
        lhs = flow(s + t)
        rhs = flow(s) @ flow(t)
        assert frobenius(lhs - rhs) <= 1e-9


class TestSamplers:
    def test_isometry_contract(self):
        v = sample_isometry(4, 2, np.random.default_rng(7))
        assert frobenius(v.conj().T @ v - np.eye(2)) <= 1e-12

    def test_haar_unitary_determinant(self):
        u = sample_haar_unitary(3, np.random.default_rng(5))
        assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-12

    def test_hermitian_is_selfadjoint(self):
        m = sample_hermitian(5, np.random.default_rng(9))
        assert frobenius(m - m.conj().T) <= 1e-14

    def test_determinism(self):
        a = sample_hermitian(6, np.random.default_rng(42))
        b = sample_hermitian(6, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_trial_rng_paths_differ(self):
        a = sample_hermitian(4, trial_rng(42, 1, 0))
        b = sample_hermitian(4, trial_rng(42, 1, 1))
        c = sample_hermitian(4, trial_rng(42, 1, 0))
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_bad_dims(self):
        with pytest.raises(BadDims):
            sample_isometry(2, 3, np.random.default_rng(0))
        with pytest.raises(BadDims):
            sample_hermitian(0, np.random.default_rng(0))
