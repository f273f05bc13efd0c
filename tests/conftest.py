import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run, and slow shared
# hosts do not turn a slow example into a failure
settings.register_profile("nhspec", derandomize=True, deadline=None)
settings.load_profile("nhspec")


def random_complex_symmetric(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


def random_real_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
