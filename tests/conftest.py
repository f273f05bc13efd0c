import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run, and slow shared
# hosts do not turn a slow example into a failure
settings.register_profile("nhspec", derandomize=True, deadline=None)
settings.load_profile("nhspec")

# hypothesis also mixes the literals of every loaded local module outside
# tests/ (here all of src/nhspec) into its draws, so deleting or adding a
# constant in the library would redraw every property test; an empty pool
# keeps the draws a function of the tests alone
try:
    from hypothesis.internal.conjecture import providers as _providers
except ImportError:                 # a hypothesis without that module
    _providers = None
if hasattr(_providers, "_get_local_constants"):
    _providers._get_local_constants = lambda: _providers._local_constants


def random_complex_symmetric(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


def random_real_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
