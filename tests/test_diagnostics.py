"""Conservation totals, low-Mach metrics, error norms, observed orders."""

from dataclasses import replace

import numpy as np
import pytest

from chns_imex.cases import initial_state
from chns_imex.diagnostics import (ap_metrics, c_extrema, compute_eoc,
                                   conservation_errors, conserved_totals,
                                   error_norm, total_energy)
from chns_imex.grid import GridSpec
from chns_imex.imex import Integrator
from chns_imex.model import ModelParams
from chns_imex.state import state_from_primitives

PARAMS = ModelParams(cp=1e2)


def _uniform_state(grid, rho0=1.0, c0=0.0):
    M = grid.M
    if grid.dim == 1:
        return state_from_primitives(np.full(M, rho0),
                                     (np.zeros(M - 1),), np.full(M, c0))
    return state_from_primitives(np.full((M, M), rho0),
                                 (np.zeros((M - 1, M)), np.zeros((M, M - 1))),
                                 np.full((M, M), c0))


def test_conserved_totals_quadrature():
    grid = GridSpec(dim=2, M=8)
    U = _uniform_state(grid, rho0=1.5, c0=0.2)
    tot = conserved_totals(U, grid)
    assert tot["mass"] == pytest.approx(1.5)          # integral over [0,1]^2
    assert tot["phase"] == pytest.approx(0.3)
    assert tot["mom_x"] == pytest.approx(0.0)
    assert tot["mom_y"] == pytest.approx(0.0)


def test_conservation_errors_are_absolute_drifts():
    grid = GridSpec(dim=1, M=8)
    U0 = _uniform_state(grid, rho0=1.0, c0=0.1)
    U1 = _uniform_state(grid, rho0=1.0 + 1e-3, c0=0.1)
    err = conservation_errors(U1, U0, grid)
    assert err["mass"] == pytest.approx(1e-3, rel=1e-10)
    assert err["phase"] == pytest.approx(1e-4, rel=1e-6)


def test_ap_metrics_flat_rest_state():
    grid = GridSpec(dim=2, M=16)
    U = _uniform_state(grid, rho0=1.3, c0=0.1)
    m = ap_metrics(U, grid, PARAMS)
    assert m["div_v_norm"] == 0.0
    assert m["rho_flatness"] <= 1e-15          # mean roundoff only
    assert m["grad_p_stiff_norm"] == 0.0


def test_ap_metrics_divergence_matches_dense_operator():
    """The divergence metric is the max-norm of the no-slip flux-difference
    divergence of the face velocities."""
    grid = GridSpec(dim=1, M=16)
    M, h = grid.M, grid.h
    rho = np.ones(M)
    v1 = np.sin(2 * np.pi * grid.interior_faces())
    U = state_from_primitives(rho, (v1,), np.zeros(M))
    from chns_imex.operators import mat_dual
    expected = float(np.abs(mat_dual(M, h).toarray() @ v1).max())
    m = ap_metrics(U, grid, PARAMS)
    assert m["div_v_norm"] == pytest.approx(expected, rel=1e-13)


def test_ap_metrics_pressure_gradient_scale():
    grid = GridSpec(dim=1, M=8)
    rho = np.ones(8)
    rho[4:] = 1.0 + 1e-3
    U = state_from_primitives(rho, (np.zeros(7),), np.zeros(8))
    m = ap_metrics(U, grid, PARAMS)
    from chns_imex import model
    dp = (model.p1(rho[4], PARAMS) + model.p2(rho[4], PARAMS)
          - model.p1(rho[0], PARAMS) - model.p2(rho[0], PARAMS))
    assert m["grad_p_stiff_norm"] == pytest.approx(abs(dp) / grid.h, rel=1e-9)
    assert m["rho_flatness"] == pytest.approx(5e-4, rel=1e-9)


def test_c_extrema():
    grid = GridSpec(dim=1, M=8)
    c = np.linspace(-0.4, 0.9, 8)
    U = state_from_primitives(np.ones(8), (np.zeros(7),), c)
    lo, hi = c_extrema(U)
    assert lo == pytest.approx(-0.4)
    assert hi == pytest.approx(0.9)


def test_total_energy_uniform_state_closed_form():
    grid = GridSpec(dim=2, M=8)
    rho0, c0 = 1.2, 0.3
    U = _uniform_state(grid, rho0=rho0, c0=c0)
    p = PARAMS
    from chns_imex import model
    # the potential -g rho y over the unit square, whose mean height is 1/2
    expected = rho0 * model.free_energy_density(rho0, p) \
        + rho0 * float(model.psi(np.array([c0]))[0]) - p.g * rho0 * 0.5
    assert total_energy(U, grid, p) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("test,T", [(1, 0.01), (3, 0.006)])
def test_energy_does_not_rise_between_steps(test, T):
    """On Tests 1 and 3 at M = 32 and C_p = 1e4 the total energy falls on
    every accepted step.  The gravitational potential is needed for that:
    without it the energy of Test 3, whose heavy phase sinks, rises."""
    grid, params = GridSpec(dim=2, M=32), ModelParams(cp=1e4)
    U0 = initial_state(test, grid, params, seed=0)
    energies = {params.g: [], 0.0: []}

    def record(U, rec=None):
        for g, e in energies.items():
            e.append(total_energy(U, grid, replace(params, g=g)))

    record(U0)
    res = Integrator(grid, params).run_to_time(U0, T, on_step=record)
    assert res.n_steps >= 5
    assert (np.diff(energies[params.g]) < 0).all()
    if test == 3:
        assert (np.diff(energies[0.0]) > 0).any()


def test_total_energy_kinetic_term():
    grid = GridSpec(dim=1, M=4)
    rho = np.ones(4)
    v1 = np.array([2.0, -1.0, 0.5])
    U = state_from_primitives(rho, (v1,), np.zeros(4))
    p = PARAMS
    base = total_energy(_uniform_state(grid), grid, p)
    kin = 0.5 * grid.h * float((v1 ** 2).sum())    # rho = 1
    assert total_energy(U, grid, p) - base == pytest.approx(kin, rel=1e-12)


def test_error_norm_is_scaled_l1():
    grid = GridSpec(dim=1, M=4)
    U = _uniform_state(grid, rho0=1.0, c0=0.0)
    exact_rho = U.rho + 0.25
    exact_m = (U.m[0] + 1.0,)
    exact_q = U.q - 0.5
    # |drho| = 4*0.25, |dm| = 3*1, |dq| = 4*0.5 -> weighted by h = 1/4
    assert error_norm(U, exact_rho, exact_m, exact_q, grid) \
        == pytest.approx((1.0 + 3.0 + 2.0) * 0.25)


def test_compute_eoc_exact_second_order():
    Ms = [8, 16, 32]
    errors = [1.0, 0.25, 0.0625]
    eoc = compute_eoc(Ms, errors)
    assert eoc[0] is None
    assert eoc[1] == pytest.approx(2.0)
    assert eoc[2] == pytest.approx(2.0)
