"""Implicit stage solvers: SPD structure, solver agreement, Newton behavior."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.fft import dct, dst

from chns_imex.cases import initial_state
from chns_imex.grid import GridSpec
from chns_imex.imex import Integrator
from chns_imex.model import ModelParams, NonPositiveDensityError
from chns_imex.operators import (dct_frequencies, laplacian_eigenvalues,
                                 laplacian_nd, mat_dual)
from chns_imex import solvers
from chns_imex.solvers import (SPLU_SYMMETRIC, HydroSolver,
                               LinearSolverConfig, SolveStats, SolverFailure,
                               assemble_c_matrix, c_stage_operator,
                               free_slip_schur_inverse, solve_c_stage)
from chns_imex.spatial import SpatialDiscretization

import oracles

PARAMS = ModelParams(cp=1e2)


# ---------------------------------------------------------------------------
# concentration system
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim,M", [(1, 8), (1, 16), (2, 8)])
def test_c_matrix_spd_and_matches_dense(dim, M, rng):
    grid = GridSpec(dim=dim, M=M)
    n = M if dim == 1 else M * M
    rho = 1.0 + 0.5 * rng.uniform(-1, 1, n)
    dta, eps = 0.02, 1e-4
    A = assemble_c_matrix(rho.reshape((M, M) if dim == 2 else (M,),
                                      order="F"), dta, eps, grid).toarray()
    dense = oracles.dense_c_matrix(rho, dta, eps, M, grid.h, dim)
    np.testing.assert_allclose(A, dense, rtol=1e-13,
                               atol=1e-13 * np.abs(dense).max())
    np.testing.assert_allclose(A, A.T, atol=1e-13 * np.abs(A).max())
    w = np.linalg.eigvalsh(A)
    assert w.min() > 0.0


def test_laplacian_built_once_and_left_unchanged(rng):
    """The Neumann Laplacian is cached per grid; assembling the c-matrix
    reads it without changing it."""
    grid = GridSpec(dim=2, M=8)
    L = laplacian_nd(grid.dim, grid.M, grid.h)
    assert laplacian_nd(grid.dim, grid.M, grid.h) is L
    before = (L.data.copy(), L.indices.copy(), L.indptr.copy())
    assemble_c_matrix(1.0 + 0.3 * rng.uniform(-1, 1, (8, 8)), 0.01, 1e-4,
                      grid)
    assert laplacian_nd(grid.dim, grid.M, grid.h) is L
    for a, b in zip(before, (L.data, L.indices, L.indptr)):
        assert np.array_equal(a, b)


def test_c_matrix_rejects_nonpositive_density():
    grid = GridSpec(dim=1, M=8)
    rho = np.ones(8)
    rho[3] = -0.1
    with pytest.raises(NonPositiveDensityError):
        assemble_c_matrix(rho, 0.01, 1e-4, grid)


def _dense_c_solve(rho, rhs, dta, eps, grid):
    """The c-system solved densely from the assembled matrix."""
    A = assemble_c_matrix(rho, dta, eps, grid).toarray()
    x = np.linalg.solve(A, np.ravel(rhs, order="F"))
    return x.reshape(rho.shape, order="F")


@pytest.mark.parametrize("dim,M", [(1, 64), (2, 16)])
def test_linear_solvers_agree(dim, M, rng):
    """CG agrees with a dense solve of the assembled matrix."""
    grid = GridSpec(dim=dim, M=M)
    shape = (M,) if dim == 1 else (M, M)
    rho = 1.0 + 0.3 * rng.uniform(-1, 1, shape)
    rhs = rng.standard_normal(shape)
    dta, eps = 0.01, 1e-4
    x = solve_c_stage(rho, rhs, dta, eps, grid)
    ref = _dense_c_solve(rho, rhs, dta, eps, grid)
    np.testing.assert_allclose(x, ref, rtol=1e-9,
                               atol=1e-9 * np.abs(ref).max())


def test_solve_c_stage_zero_dta_is_pointwise():
    grid = GridSpec(dim=1, M=8)
    rho = np.linspace(1.0, 2.0, 8)
    rhs = np.linspace(-1.0, 1.0, 8)
    out = solve_c_stage(rho, rhs, 0.0, 1e-4, grid)
    np.testing.assert_allclose(out, rhs / rho, rtol=1e-15)


def test_solve_c_stage_residual_small(rng):
    grid = GridSpec(dim=2, M=16)
    rho = 1.0 + 0.3 * rng.uniform(-1, 1, (16, 16))
    rhs = rng.standard_normal((16, 16))
    dta, eps = 0.004, 1e-4
    A = assemble_c_matrix(rho, dta, eps, grid)
    x = solve_c_stage(rho, rhs, dta, eps, grid)
    res = A @ np.ravel(x, order="F") - np.ravel(rhs, order="F")
    assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(rhs)


@pytest.mark.parametrize("M", [4, 8, 12, 64])
@pytest.mark.parametrize("dim", [1, 2])
def test_c_stage_operator_matches_assembled_matrix(dim, M, rng):
    """CG's operator is the assembled c-matrix, and applies the Laplacian
    matrix as the Neumann stencil does (M = 12: 1/h^2 rounds)."""
    grid = GridSpec(dim=dim, M=M)
    rho = rng.uniform(0.5, 1.5, (M,) * dim)
    dta, eps = grid.h / 2, 1e-3
    A = assemble_c_matrix(rho, dta, eps, grid)
    op = c_stage_operator(rho, dta, eps, grid)
    for x in rng.standard_normal((3, rho.size)):
        Ax = A @ x
        np.testing.assert_allclose(op.matvec(x), Ax, rtol=0,
                                   atol=1e-13 * np.abs(Ax).max())
        f = x.reshape(rho.shape, order="F")
        stencil = np.ravel(rho * f - dta * oracles.ch_convex_stencil(
            f, rho, eps, grid.h), order="F")
        np.testing.assert_allclose(op.matvec(x), stencil, rtol=1e-13,
                                   atol=1e-13 * np.abs(stencil).max())


@pytest.mark.parametrize("dta", [1e-4, 1e-2])
@pytest.mark.parametrize("dim,M", [(1, 64), (2, 16), (2, 64)])
def test_cg_exact_at_constant_density(dim, M, dta, rng):
    """At a constant density the DCT preconditioner is the exact inverse:
    CG converges in one iteration, to the dense solution."""
    grid = GridSpec(dim=dim, M=M)
    rho = np.full((M,) * dim, 1.3)
    rhs = rng.standard_normal(rho.shape)
    stats = SolveStats()
    x = solve_c_stage(rho, rhs, dta, 1e-4, grid, stats)
    assert stats.lin_iters == 1
    ref = _dense_c_solve(rho, rhs, dta, 1e-4, grid)
    np.testing.assert_allclose(x, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("M", [32, 64, 128])
@pytest.mark.parametrize("cp", [1e2, 1e4])
def test_cg_iterations_do_not_grow_with_M(cp, M):
    """On Test 1 initial data at the CFL dt*a of the first stage, CG takes
    at most 10 iterations at every M (Jacobi-preconditioned CG took
    112-272 at M = 64-128)."""
    grid, params = GridSpec(dim=2, M=M), ModelParams(cp=cp)
    U0 = initial_state(1, grid, params)
    integ = Integrator(grid, params)
    dta = integ.select_dt(U0) * integ.tab.a[0, 0]
    stats = SolveStats()
    x = solve_c_stage(U0.rho, U0.q, dta, params.eps, grid, stats)
    assert 0 < stats.lin_iters <= 10
    A = assemble_c_matrix(U0.rho, dta, params.eps, grid)
    b = np.ravel(U0.q, order="F")
    res = b - A @ np.ravel(x, order="F")
    assert np.linalg.norm(res) <= 1e-13 * np.linalg.norm(b)


def test_cg_iterations_pinned_on_gate_test3():
    """The mean-density preconditioner keeps CG at no more than 8
    iterations per step (two c-stages) on the Test 3 run of
    scripts/cli_gate.py (M=32, C_p=1e4, T=0.004, seed 0); 8 is the measured
    maximum there, and at M=64 too."""
    grid, params = GridSpec(dim=2, M=32), ModelParams(cp=1e4)
    U0 = initial_state(3, grid, params, seed=0)
    res = Integrator(grid, params).run_to_time(U0, 0.004)
    iters = [rec.lin_iters for rec in res.steps]
    assert res.n_steps > 0 and 0 < min(iters) and max(iters) <= 8, iters


def test_c_stage_rejects_nonpositive_density(monkeypatch):
    """A nonpositive density is a NonPositiveDensityError before any
    linear solve starts."""
    def no_solve(*args, **kwargs):
        raise AssertionError("linear solver called")

    monkeypatch.setattr(spla, "cg", no_solve)
    grid = GridSpec(dim=2, M=8)
    rho = np.ones((8, 8))
    rho[2, 5] = 0.0
    with pytest.raises(NonPositiveDensityError):
        solve_c_stage(rho, np.ones((8, 8)), 0.01, 1e-4, grid)


@pytest.fixture
def splu_calls(monkeypatch):
    """Counts the calls of scipy's splu."""
    calls = []
    real = spla.splu

    def counting(A, **kwargs):
        calls.append(A.shape)
        return real(A, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    return calls


def test_unknown_linear_solver_rejected():
    with pytest.raises(ValueError):
        LinearSolverConfig(method="sor")


# ---------------------------------------------------------------------------
# hydro Newton solver
# ---------------------------------------------------------------------------

def _random_stage_problem(hydro, grid, rng, dta, stiff=False):
    """Build r so that a known smooth state solves the stage system, then
    perturb the initial guess."""
    M = grid.M
    if grid.dim == 1:
        rho = 1.0 + 0.2 * rng.uniform(-1, 1, M)
        v1 = 0.2 * rng.standard_normal(M - 1)
        z_true = hydro.spatial.pack(rho, v1)
    else:
        rho = 1.0 + 0.2 * rng.uniform(-1, 1, (M, M))
        v1 = 0.2 * rng.standard_normal((M - 1, M))
        v2 = 0.2 * rng.standard_normal((M, M - 1))
        z_true = hydro.spatial.pack(rho, v1, v2)
    r = hydro.residual(z_true, np.zeros_like(z_true), dta)
    z0 = z_true.copy()
    z0[:hydro.nc] = 1.0            # flat-density initial guess
    z0[hydro.nc:] *= 0.5
    return z_true, z0, r


@pytest.mark.parametrize("dim", [1, 2])
def test_newton_recovers_manufactured_root(dim, rng):
    grid = GridSpec(dim=dim, M=8)
    hydro = HydroSolver(grid, PARAMS)
    z_true, z0, r = _random_stage_problem(hydro, grid, rng, dta=0.01)
    stats = SolveStats()
    z = hydro.solve(z0, r, 0.01, stats)
    assert np.abs(z - z_true).max() < 1e-8
    assert stats.newton_iters <= 20


def test_newton_monotone_on_random_problems():
    """Accepted iterates decrease the scaled residual norm monotonically
    across a population of random stage problems."""
    rng = np.random.default_rng(7)
    grid = GridSpec(dim=1, M=16)
    count = 0
    for k in range(100):
        cp = 10.0 ** rng.uniform(2, 6)
        params = ModelParams(cp=cp)
        hydro = HydroSolver(grid, params)
        dta = float(10.0 ** rng.uniform(-5, -2))
        z_true, z0, r = _random_stage_problem(hydro, grid, rng, dta)
        stats = SolveStats()
        z = hydro.solve(z0, r, dta, stats)
        hist = stats.history
        assert all(b < a for a, b in zip(hist, hist[1:])), \
            f"non-monotone history on problem {k}: {hist}"
        res = hydro.residual(z, r, dta)
        assert np.isfinite(res).all()
        count += 1
    assert count == 100


def test_line_search_evaluates_each_trial_once(monkeypatch):
    """From densities off by up to 90% (2D, C_p = 1e4), Newton rejects
    full chord steps, at least one of them at a nonpositive density, and
    still converges with a strictly decreasing scaled norm.  Every trial
    point is evaluated by exactly one residual call: the initial guess,
    one full step per iteration and one per damped trial, the accepted
    trial's residual being the next iteration's."""
    grid = GridSpec(dim=2, M=8)
    hydro = HydroSolver(grid, ModelParams(cp=1e4))
    rng = np.random.default_rng(1)
    M, dta = grid.M, 0.005
    rho = 1.0 + 0.3 * rng.uniform(-1, 1, (M, M))
    v1 = 0.3 * rng.standard_normal((M - 1, M))
    v2 = 0.3 * rng.standard_normal((M, M - 1))
    z_true = hydro.spatial.pack(rho, v1, v2)
    r = hydro.residual(z_true, np.zeros_like(z_true), dta)
    z0 = hydro.spatial.pack(rho * (1.0 + 0.9 * rng.uniform(-1, 1, (M, M))),
                            np.zeros_like(v1), np.zeros_like(v2))

    points, damped = [], []
    residual, trial = HydroSolver.residual, HydroSolver._trial

    def recorded(self, z, *args):
        points.append(z.copy())
        return residual(self, z, *args)

    def counted(self, z, *args):
        damped.append(z)
        return trial(self, z, *args)

    monkeypatch.setattr(HydroSolver, "residual", recorded)
    monkeypatch.setattr(HydroSolver, "_trial", counted)
    stats = SolveStats()
    z = hydro.solve(z0, r, dta, stats)
    assert np.abs(z - z_true).max() < 1e-6
    hist = stats.history
    assert all(b < a for a, b in zip(hist, hist[1:]))
    assert damped
    assert any((p[:hydro.nc] <= 0).any() for p in points)
    assert len(points) == 1 + stats.newton_iters + len(damped)
    assert len({p.tobytes() for p in points}) == len(points)


def test_newton_converges_at_stiff_pressure(rng):
    grid = GridSpec(dim=1, M=32)
    params = ModelParams(cp=1e8)
    hydro = HydroSolver(grid, params)
    dta = 1e-4
    z_true, z0, r = _random_stage_problem(hydro, grid, rng, dta)
    stats = SolveStats()
    z = hydro.solve(z0, r, dta, stats)
    # verify in the scaled norm the solver itself uses
    w = hydro._row_scaling(z, dta)
    assert np.linalg.norm(w * hydro.residual(z, r, dta)) < 1e-8


def test_newton_failure_reported(monkeypatch):
    monkeypatch.setattr(solvers, "NEWTON_MAXIT", 1)
    monkeypatch.setattr(solvers, "NEWTON_TOL_ABS", 0.0)
    monkeypatch.setattr(solvers, "NEWTON_TOL_REL", 0.0)
    grid = GridSpec(dim=1, M=8)
    hydro = HydroSolver(grid, PARAMS)
    rng = np.random.default_rng(3)
    z_true, z0, r = _random_stage_problem(hydro, grid, rng, dta=0.01)
    with pytest.raises(SolverFailure):
        hydro.solve(z0, r, 0.01)


def _schur_complement(J, n):
    """S = J_vv - J_vr diag(J_rr)^-1 J_rv of a Jacobian whose first n
    unknowns are the densities."""
    J = J.tocsr()
    inv_d = sp.diags(1.0 / J.diagonal()[:n])
    return (J[n:, n:] - J[n:, :n] @ inv_d @ J[:n, n:]).tocsc()


def _lu_nnz(lu):
    return lu.L.nnz + lu.U.nnz


@pytest.mark.parametrize("cp", [1e2, 1e8])
def test_schur_factorization_fills_less_than_full_jacobian(cp, rng):
    """The kept factorization, an LU of the velocity Schur complement S,
    keeps fewer entries in L+U than the whole Jacobian's under either
    ordering, and solves S as accurately as SuperLU's default COLAMD
    ordering does (relative residual at most 10x COLAMD's)."""
    grid = GridSpec(dim=2, M=16)
    hydro = HydroSolver(grid, ModelParams(cp=cp))
    dta = 1e-3
    _, z0, r = _random_stage_problem(hydro, grid, rng, dta)
    hydro._refresh(z0, dta, SolveStats())
    J = oracles.full_jacobian(hydro, z0, dta)
    S = _schur_complement(J, hydro.nc)
    b = -hydro.residual(z0, r, dta)[hydro.nc:]

    def rel_residual(lu):
        return np.linalg.norm(S @ lu.solve(b) - b) / np.linalg.norm(b)

    kept = _lu_nnz(hydro._lu)
    assert kept < _lu_nnz(spla.splu(J, **SPLU_SYMMETRIC))
    assert kept < _lu_nnz(spla.splu(J, permc_spec="COLAMD"))
    assert rel_residual(hydro._lu) \
        <= 10 * rel_residual(spla.splu(S, permc_spec="COLAMD"))


@pytest.mark.parametrize("dta", [1e-3, 1e-2])
@pytest.mark.parametrize("cp", [1e2, 1e8])
def test_chord_direction_exact_in_velocity_rows(cp, dta, rng):
    """Block elimination through d = diag(J_rr) with the LU of S solves the
    velocity rows of J delta = b to round-off and leaves N delta_rho in the
    density rows; the correction, solved with the spectral inverse of S at
    rest, cuts the error against the full-Jacobian solve at least 3-fold
    (measured: 4.5 to 16-fold on these far-from-rest problems)."""
    grid = GridSpec(dim=2, M=16)
    hydro = HydroSolver(grid, ModelParams(cp=cp))
    _, z0, r = _random_stage_problem(hydro, grid, rng, dta)
    hydro._refresh(z0, dta, SolveStats())
    J = oracles.full_jacobian(hydro, z0, dta)
    b = -hydro.residual(z0, r, dta)
    n, nb = hydro.nc, np.linalg.norm(b)
    exact = spla.spsolve(J, b)
    plain = hydro._eliminate(b, hydro._lu.solve)
    corrected = hydro._direction(b, SolveStats())
    assert np.linalg.norm((J @ plain - b)[n:]) <= 1e-13 * nb
    assert np.linalg.norm(corrected - exact) \
        <= np.linalg.norm(plain - exact) / 3


@pytest.mark.parametrize("still", [True, False])
def test_chord_direction_corrects_only_a_moving_stage(still, rng, lu_solves):
    """Every Newton iteration takes one LU solve of S; a stage linearized at
    rest (v = 0, so N = 0) takes no correction, a moving one a spectral
    correction per iteration.  stats.lu_solves and
    stats.spectral_corrections count them."""
    grid = GridSpec(dim=2, M=16)
    hydro = HydroSolver(grid, PARAMS)
    dta = 1e-2
    _, z0, r = _random_stage_problem(hydro, grid, rng, dta)
    if still:
        z0[hydro.nc:] = 0.0
    stats = SolveStats()
    hydro.solve(z0, r, dta, stats)
    assert stats.factorizations == 1
    faces = z0.size - hydro.nc
    assert lu_solves[faces] == stats.lu_solves == stats.newton_iters > 0
    assert stats.spectral_corrections == (0 if still else stats.newton_iters)


@pytest.mark.parametrize("cp", [1e2, 1e8])
@pytest.mark.parametrize("M", [8, 12])
@pytest.mark.parametrize("dim", [1, 2])
def test_free_slip_schur_inverse_matches_dense_solve(dim, M, cp, rng):
    """The spectral inverse solves the assembled free-slip operator
    rbar I + dta B_fs + dta^2 rbar p2' D^T D to 1e-12 of the solution, at
    a dta where that operator's condition number is at most about 2e3."""
    grid, params, rbar, dta = GridSpec(dim=dim, M=M), ModelParams(cp=cp), \
        1.07, 1e-4
    P = oracles.dense_free_slip_schur(M, grid.h, params, dim, rbar, dta)
    r = rng.standard_normal(P.shape[0])
    x = free_slip_schur_inverse(SpatialDiscretization(grid, params), rbar,
                                dta)(r)
    ref = np.linalg.solve(P, r)
    np.testing.assert_allclose(x, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("M", [8, 12])
def test_dct_frequencies_diagonalize_flux_difference(M):
    """D of `mat_dual` maps the orthonormal DST-I basis of the faces to w
    times the orthonormal DCT-II basis of the cells, and the squares of w
    summed over the axes are minus `laplacian_eigenvalues`, bit for bit
    the closed form -(4/h^2) sin^2(pi m / 2M) that the c-stage
    preconditioner divides by."""
    h = 1.0 / M
    w, wsq = dct_frequencies(M, h)
    S = dst(np.eye(M - 1), type=1, axis=0, norm="ortho")
    C = dct(np.eye(M), type=2, axis=0, norm="ortho")
    np.testing.assert_allclose(C @ (mat_dual(M, h) @ S.T),
                               np.eye(M)[:, 1:] * w[1:], atol=1e-12 / h)
    lam1 = -4.0 / h**2 * np.sin(np.pi * np.arange(M) / (2 * M)) ** 2
    assert np.array_equal(laplacian_eigenvalues(1, M, h), lam1)
    assert np.array_equal(laplacian_eigenvalues(2, M, h),
                          lam1[:, None] + lam1[None, :])
    np.testing.assert_allclose(wsq, w**2, rtol=1e-15)


@pytest.mark.parametrize("bad", ["compression", "nan"])
def test_refresh_rejects_nonpositive_density_diagonal(bad, splu_calls):
    """Where dta * div_h v <= -2, d = diag(J_rr) is not positive, and where
    v is not finite neither is d; the refresh raises SolverFailure before
    anything is factorized."""
    grid = GridSpec(dim=2, M=16)
    hydro = HydroSolver(grid, PARAMS)
    dta = 1e-2
    xf = np.arange(1, grid.M) * grid.h - 0.5      # face coordinates
    v1 = np.repeat(xf[:, None], grid.M, axis=1)
    if bad == "nan":
        v1[3, 4] = np.nan
    else:                       # dta * div_h v = -4, so d = -1
        v1 *= -2.0 / dta
    z = hydro.spatial.pack(np.ones((grid.M, grid.M)), v1, v1.T.copy())
    stats = SolveStats()
    with pytest.raises(SolverFailure):
        hydro._refresh(z, dta, stats)
    assert splu_calls == []
    assert hydro._lu is None and stats.factorizations == 0


def test_lu_reuse_across_solves(rng):
    """The chord factorization is reused for nearby stage systems."""
    grid = GridSpec(dim=1, M=16)
    hydro = HydroSolver(grid, PARAMS)
    dta = 0.01
    s1, s2 = SolveStats(), SolveStats()
    _, z0, r = _random_stage_problem(hydro, grid, rng, dta)
    hydro.solve(z0, r, dta, s1)
    _, z0b, rb = _random_stage_problem(hydro, grid, rng, dta)
    hydro.solve(z0b, rb, dta, s2)
    assert s1.factorizations >= 1
    assert s2.factorizations == 0
    # a very different dt*alpha invalidates the cache
    s3 = SolveStats()
    _, z0c, rc = _random_stage_problem(hydro, grid, rng, dta * 10)
    hydro.solve(z0c, rc, dta * 10, s3)
    assert s3.factorizations >= 1
