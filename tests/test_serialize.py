import json

import numpy as np
import pytest

from qgeo.errors import BadDims
from qgeo.linalg import sample_hermitian
from qgeo.serialize import (
    dumps,
    load_observables,
    load_state,
    matrix_digest,
    matrix_from_json,
    matrix_to_json,
    spectrum_from_json,
)
from qgeo.states import make_spectrum


class TestMatrixCodec:
    def test_roundtrip(self, rng):
        m = sample_hermitian(4, rng) + 1j * 0  # keep complex dtype
        obj = matrix_to_json(m)
        assert obj["rows"] == 4 and obj["cols"] == 4
        back = matrix_from_json(obj)
        assert np.array_equal(back, m)

    def test_rectangular(self):
        m = np.arange(6, dtype=float).reshape(2, 3) + 0j
        back = matrix_from_json(matrix_to_json(m))
        assert np.array_equal(back, m)

    def test_encoder_rejects_non_matrix(self):
        with pytest.raises(BadDims):
            matrix_to_json(np.zeros((2, 2, 2)))

    def test_shape_mismatch_rejected(self):
        obj = {"rows": 2, "cols": 2, "re": [[1.0, 0.0]], "im": [[0.0, 0.0]]}
        with pytest.raises(BadDims):
            matrix_from_json(obj)

    def test_missing_keys_rejected(self):
        with pytest.raises(BadDims):
            matrix_from_json({"rows": 1, "cols": 1, "re": [[1.0]]})

    def test_nonfinite_rejected(self):
        obj = {"rows": 1, "cols": 1, "re": [[float("nan")]], "im": [[0.0]]}
        with pytest.raises(BadDims):
            matrix_from_json(obj)


class TestStateFile:
    def _state_obj(self, with_spectrum=True):
        obj = {
            "hbar": 1.0,
            "rho": matrix_to_json(np.diag([0.7, 0.3, 0.0]).astype(complex)),
        }
        if with_spectrum:
            obj["spectrum"] = {"values": [0.7, 0.3], "mults": [1, 1]}
        return obj

    def test_load_with_spectrum(self):
        hbar, state = load_state(self._state_obj())
        assert hbar == 1.0
        assert state.sigma.k == 2

    def test_load_without_spectrum_needs_override(self):
        with pytest.raises(BadDims):
            load_state(self._state_obj(with_spectrum=False))
        sigma = make_spectrum((0.7, 0.3))
        _, state = load_state(self._state_obj(with_spectrum=False), spectrum=sigma)
        assert state.sigma == sigma

    def test_spectrum_block_parsing(self):
        sigma = spectrum_from_json({"values": [0.5, 0.25], "mults": [1, 2]})
        assert sigma.k == 3

    def test_observables(self):
        obj = {"A": matrix_to_json(np.eye(2).astype(complex))}
        obs = load_observables(obj)
        assert set(obs) == {"A"}
        with pytest.raises(BadDims):
            load_observables({})


class TestDeterminism:
    def test_dumps_stable(self):
        payload = {"b": 1.0, "a": [1, 2], "c": {"y": 0.1, "x": -0.25}}
        assert dumps(payload) == dumps(json.loads(dumps(payload)))

    def test_digest_content_addressed(self, rng):
        m = sample_hermitian(3, rng)
        assert matrix_digest(m) == matrix_digest(m.copy())
        assert matrix_digest(m) != matrix_digest(m + 1e-12)
