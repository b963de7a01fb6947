import numpy as np
import pytest
from hypothesis import settings

from nullheat import Domain, GaussianKernel, build_model

# CI selects this with --hypothesis-profile=ci: five times hypothesis's
# default 100 examples, derandomized, so each run draws the same examples
settings.register_profile("ci", derandomize=True, deadline=None, max_examples=500)


@pytest.fixture
def domain():
    return Domain(length=1.0, omega_lo=0.3, omega_hi=0.8)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture
def stable_pipeline(domain):
    """Gaussian(5, 0.2) coupling at N=16 on the standard window."""
    return build_model(domain, GaussianKernel(5.0, 0.2), 16)


@pytest.fixture
def lattice_hole_table():
    """64 x 64 grid-kernel table ones + 0.01 (u v^T - v u^T) with
    u = (0, 1, -1, ..., 1, -1, 0) and v = (0, 1, -1, 2, -2, ..., 31, -31, 0):
    asymmetric by 0.6, while its interpolant is symmetric on a 33 x 33 lattice."""
    u, v = np.zeros(64), np.zeros(64)
    u[1:63] = np.tile([1.0, -1.0], 31)
    v[1:63] = np.repeat(np.arange(1.0, 32.0), 2) * np.tile([1.0, -1.0], 31)
    return np.ones((64, 64)) + 0.01 * (np.outer(u, v) - np.outer(v, u))
