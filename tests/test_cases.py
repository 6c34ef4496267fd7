"""Initial data for the physical test problems."""

import numpy as np
import pytest

from chns_imex import mms
from chns_imex.cases import DUMP_TIMES, TEST3_AMP, initial_state
from chns_imex.grid import GridSpec
from chns_imex.model import ModelParams

PARAMS = ModelParams(cp=1e4)


@pytest.mark.parametrize("test", [1, 2, 3])
def test_shapes_and_positivity(test):
    grid = GridSpec(dim=2, M=16)
    U = initial_state(test, grid, PARAMS)
    assert U.rho.shape == (16, 16)
    assert U.m[0].shape == (15, 16)
    assert U.m[1].shape == (16, 15)
    assert U.q.shape == (16, 16)
    assert np.all(U.rho > 0)
    np.testing.assert_allclose(U.rho, 1.0, atol=2 * PARAMS.delta)


def test_test1_fields():
    grid = GridSpec(dim=2, M=8)
    d = PARAMS.delta
    U = initial_state(1, grid, PARAMS)
    x = grid.cell_centers()
    X, Y = np.meshgrid(x, x, indexing="ij")
    np.testing.assert_allclose(
        U.rho, 1.0 + d * np.cos(2 * np.pi * X) * np.cos(np.pi * Y),
        rtol=1e-14)
    c = U.c()
    np.testing.assert_allclose(
        c, 0.1 * (1 - d) * np.cos(np.pi * X) * np.cos(np.pi * Y), atol=1e-14)
    # the velocity is O(1) (vortical), the density perturbation O(delta)
    assert np.abs(U.velocities()[0]).max() > 1.0


def test_test2_concentration_offset():
    grid = GridSpec(dim=2, M=16)
    U1 = initial_state(1, grid, PARAMS)
    U2 = initial_state(2, grid, PARAMS)
    np.testing.assert_allclose(U2.c() - U1.c(), 0.75, rtol=0, atol=1e-13)
    assert 0.65 <= U2.c().min() and U2.c().max() <= 0.85
    # same flow field
    np.testing.assert_allclose(U1.velocities()[0], U2.velocities()[0],
                               atol=1e-15)
    np.testing.assert_allclose(U1.rho, U2.rho, atol=1e-15)


@pytest.mark.parametrize("cp", [3.7, 1e2, 1e4, 1e8])
def test_tests_1_2_are_the_manufactured_solution_at_t0(cp):
    """Test 2's initial state is byte for byte exact_state(grid, params, 0);
    Test 1's density and momenta are too, and its concentration is the
    wave alone, 0.1 (1 - delta) cos(pi x) cos(pi y), without the mean 3/4
    of Test 2's."""
    params = ModelParams(cp=cp)
    d = params.delta
    for M in (8, 13, 16, 64, 128):
        grid = GridSpec(dim=2, M=M)
        exact = mms.exact_state(grid, params, 0.0)
        U1, U2 = (initial_state(test, grid, params) for test in (1, 2))
        x, y = grid.coords()
        wave = 0.1 * (1.0 - d) * np.cos(np.pi * x) * np.cos(np.pi * y)
        pairs = [(U2.rho, exact.rho), (U2.q, exact.q),
                 *zip(U2.m, exact.m), (U1.rho, exact.rho),
                 *zip(U1.m, exact.m), (U1.q, exact.rho * wave),
                 (U2.q, exact.rho * (0.75 + wave))]
        for a, b in pairs:
            assert a.shape == b.shape and a.flags.c_contiguous
            assert a.tobytes() == b.tobytes()


def test_test3_quiescent_zero_mean():
    grid = GridSpec(dim=2, M=32)
    U = initial_state(3, grid, PARAMS, seed=4)
    assert np.all(U.rho == 1.0)
    assert np.abs(U.m[0]).max() == 0.0
    assert np.abs(U.m[1]).max() == 0.0
    c = U.c()
    assert abs(c.mean()) < 1e-24
    assert np.abs(c).max() <= 2 * TEST3_AMP
    assert np.abs(c).max() > 0.0


def test_test3_seed_determinism():
    grid = GridSpec(dim=2, M=16)
    a = initial_state(3, grid, PARAMS, seed=7)
    b = initial_state(3, grid, PARAMS, seed=7)
    other = initial_state(3, grid, PARAMS, seed=8)
    np.testing.assert_array_equal(a.q, b.q)
    assert np.any(a.q != other.q)


def test_dimension_and_test_validation():
    with pytest.raises(ValueError):
        initial_state(1, GridSpec(dim=1, M=16), PARAMS)
    with pytest.raises(ValueError):
        initial_state(4, GridSpec(dim=2, M=16), PARAMS)


def test_dump_times_schedule():
    assert DUMP_TIMES[0] == 0.0
    assert DUMP_TIMES[-1] == 0.1
    assert list(DUMP_TIMES) == sorted(DUMP_TIMES)
