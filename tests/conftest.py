import numpy as np
import pytest

from nullheat import Domain, GaussianKernel, build_model


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
