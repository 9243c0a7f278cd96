import numpy as np
import pytest

from qgeo.geometry import GeometryContext
from qgeo.spin import build_spin, build_ensemble, ensemble_spec
from qgeo.states import make_spectrum, random_frame


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def ctx():
    return GeometryContext(hbar=1.0)


@pytest.fixture
def demo_spec():
    """The worked s=1 ensemble: p=(0.7, 0.3) on m=(1, 0)."""
    return ensemble_spec(1.0, (1.0, 0.0), (0.7, 0.3))


@pytest.fixture
def demo(demo_spec):
    spin = build_spin(1.0)
    state, frame = build_ensemble(demo_spec)
    return spin, state, frame


@pytest.fixture
def mixed_frame(rng):
    """Generic rank-3 frame in dimension 5 with a degenerate block."""
    sigma = make_spectrum((0.5, 0.25), (1, 2))
    return random_frame(sigma, 5, rng)
