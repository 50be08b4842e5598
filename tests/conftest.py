import numpy as np
import pytest

from ellipsf import cascade, spectral

# The worked bivariate fixtures plus the univariate reduction.
MATRICES = {
    "A1": [[1, -1], [1, 1]],    # quincunx, Q2 = I
    "A2": [[0, -2], [1, 1]],    # isotropic but fails the Riesz test
    "A3": [[1, -2], [1, 0]],    # same rotation as A2, good decay
    "A4": [[2, 0], [0, 2]],     # diagonal, det 4
    "uni": [[2]],               # univariate: cardinal B-splines
}

_profile_cache: dict = {}
_grid_cache: dict = {}


@pytest.fixture(scope="session")
def profiles():
    """profiles(name, m=1) -> cached SpectralProfile."""
    def get(name, m=1):
        key = (name, m)
        if key not in _profile_cache:
            _profile_cache[key] = spectral.make_profile(MATRICES[name], m=m)
        return _profile_cache[key]
    return get


@pytest.fixture(scope="session")
def grids(profiles):
    """grids(name, m=1, J=5) -> cached cascade LatticeGrid of phi^m."""
    def get(name, m=1, J=5):
        key = (name, m, J)
        if key not in _grid_cache:
            p = profiles(name, m)
            _grid_cache[key] = cascade.sample_phi(p.A, *p.refinement, J)
        return _grid_cache[key]
    return get


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
