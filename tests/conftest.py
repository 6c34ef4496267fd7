import collections

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default", deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def lu_solves(monkeypatch):
    """Counts the solve() calls on the factorizations of scipy's splu, by
    the order of the factorized matrix."""
    counts = collections.Counter()
    real = spla.splu

    class CountingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            counts[self.lu.shape[0]] += 1
            return self.lu.solve(b)

        def __getattr__(self, attr):
            return getattr(self.lu, attr)

    monkeypatch.setattr(spla, "splu",
                        lambda A, **kwargs: CountingLU(real(A, **kwargs)))
    return counts
