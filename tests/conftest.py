import collections
import os
import sys

# one BLAS/OpenMP thread: the solver's vectors are small, and threads only
# contend; the variables are read when NumPy loads its BLAS, so they are set
# here, before the first import of NumPy
if "numpy" in sys.modules:
    raise RuntimeError("NumPy was imported before tests/conftest.py, so its "
                       "BLAS thread count can no longer be set")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402
from hypothesis import HealthCheck, settings  # noqa: E402

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
