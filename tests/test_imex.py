"""Time integrator: tableau structure, update identities, step control."""

import collections
import re
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chns_imex import solvers
from chns_imex.grid import GridSpec
from chns_imex.imex import (DEFAULT_CFL, MAX_RETRIES, Integrator, RunResult,
                            make_tableau)
from chns_imex.cases import initial_state
from chns_imex.diagnostics import compute_eoc, error_norm
from chns_imex.mms import exact_momenta, exact_state, make_forcing
from chns_imex.model import ModelParams
from chns_imex.solvers import LinearSolverConfig, SolverFailure
from chns_imex.state import State, state_from_primitives

import oracles

PARAMS = ModelParams(cp=1e2)


# ---------------------------------------------------------------------------
# tableaus
# ---------------------------------------------------------------------------

def test_ee_ie_tableau():
    tab = make_tableau("ee_ie")
    assert tab.stages == 1
    assert tab.at[0, 0] == 0.0 and tab.bt[0] == 1.0
    assert tab.a[0, 0] == 1.0 and tab.b[0] == 1.0
    assert np.array_equal(tab.a[-1], tab.b)        # stiffly accurate


def test_star_dirksa_tableau_order_conditions():
    tab = make_tableau("star_dirksa")
    s = 1.0 / np.sqrt(2.0)
    assert tab.stages == 2
    assert np.array_equal(tab.a[-1], tab.b)        # stiffly accurate
    # both quadrature rules are consistent
    assert tab.bt.sum() == pytest.approx(1.0)
    assert tab.b.sum() == pytest.approx(1.0)
    # second-order conditions, including the IMEX coupling ones
    ct = tab.ct                      # explicit abscissae
    c = tab.a.sum(axis=1)            # implicit abscissae
    for weights in (tab.bt, tab.b):
        for absc in (ct, c):
            assert weights @ absc == pytest.approx(0.5, abs=1e-14)
    # lower-triangular explicit part, DIRK implicit part
    assert np.allclose(np.triu(tab.at), 0.0)
    assert np.allclose(np.triu(tab.a, 1), 0.0)
    assert np.all(np.diag(tab.a) == pytest.approx(1.0 - s))


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        make_tableau("rk4")


def test_unknown_linear_solver_rejected_before_stepping():
    with pytest.raises(ValueError, match="unknown linear solver 'mg'"):
        Integrator(GridSpec(dim=1, M=8), PARAMS,
                   linear_cfg=LinearSolverConfig(method="mg"))



@pytest.mark.parametrize("cfl", [-0.4, 0.0, np.inf, np.nan])
def test_nonpositive_or_non_finite_cfl_rejected(cfl):
    """A negative CFL number would march backwards in time."""
    with pytest.raises(ValueError, match="cfl must be positive and finite"):
        Integrator(GridSpec(dim=1, M=8), PARAMS, cfl=cfl)


@pytest.mark.parametrize("T", [np.inf, np.nan, -1.0])
def test_run_to_non_finite_time_rejected(T):
    """A run to T = inf would never return, and one to T < 0 would return
    its initial state as if it had reached T; each fails before any
    step."""
    grid, params, integ = _small_problem("star_dirksa")
    U0 = exact_state(grid, params, 0.0)
    with pytest.raises(ValueError, match="final time must be finite"):
        integ.run_to_time(U0, T, on_step=pytest.fail)


@pytest.mark.parametrize("field, index, value, message", [
    ("rho", (3, 4), np.nan, "non-finite value in rho"),
    ("rho", (0, 0), 0.0, "nonpositive value in rho"),
    ("rho", (7, 7), -1.0, "nonpositive value in rho"),
    ("m", (0, 2, 3), np.inf, "non-finite value in m[0]"),
    ("m", (1, 5, 6), -np.inf, "non-finite value in m[1]"),
    ("q", (1, 1), np.nan, "non-finite value in q"),
], ids=["nan-rho", "zero-rho", "negative-rho", "inf-m0", "minus-inf-m1",
        "nan-q"])
def test_run_rejects_an_invalid_initial_state(field, index, value, message):
    """A non-finite value in any field of U0, or a nonpositive density,
    fails before the first step with a ValueError naming the field, where
    a NaN density once took six attempts and ended in a SolverFailure
    that blamed the cfl."""
    grid, params = GridSpec(dim=2, M=8), ModelParams(cp=1e2)
    integ = Integrator(grid, params, forcing=make_forcing(grid, params))
    U0 = exact_state(grid, params, 0.0)
    U0.check_valid()
    if field == "m":
        U0.m[index[0]][index[1:]] = value
    else:
        getattr(U0, field)[index] = value
    integ.step = pytest.fail
    with pytest.raises(ValueError,
                       match=f"^{re.escape(f'initial state: {message}')}$"):
        integ.run_to_time(U0, 0.01, on_step=pytest.fail)


# ---------------------------------------------------------------------------
# single-step identities
# ---------------------------------------------------------------------------

def _small_problem(scheme, cp=1e2, M=8):
    grid = GridSpec(dim=1, M=M)
    params = ModelParams(cp=cp)
    integ = Integrator(grid, params, scheme=scheme,
                       forcing=make_forcing(grid, params))
    return grid, params, integ


def test_stiffly_accurate_update_equals_b_weighted_sum(monkeypatch):
    """The step ends at its last stage state, which is U0 plus the
    b-weighted sum of the stage tendencies recovered from the stage
    states, K_i = (U_i - U0 - dt sum_j<i a_ij K_j) / (dt a_ii)."""
    grid, params, integ = _small_problem("star_dirksa")
    U0 = exact_state(grid, params, 0.0)
    dt = 0.5 * integ.select_dt(U0)
    stages = []
    real_stage = integ._solve_stage

    def recording_stage(*args):
        stages.append(real_stage(*args))
        return stages[-1]

    monkeypatch.setattr(integ, "_solve_stage", recording_stage)
    from chns_imex.solvers import SolveStats
    U1 = integ.attempt_step(U0, 0.0, dt, SolveStats())
    assert len(stages) == integ.tab.stages
    a = integ.tab.a
    K = []
    for i, Ui in enumerate(stages):
        pre = U0.copy()
        for j in range(i):
            pre.axpy(dt * a[i, j], K[j])
        K.append((Ui - pre) * (1.0 / (dt * a[i, i])))
    acc = U0.copy()
    for bj, Kj in zip(integ.tab.b, K):
        acc.axpy(dt * bj, Kj)
    scale = np.abs(U1.rho).max()
    np.testing.assert_allclose(U1.rho, acc.rho, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(U1.m[0], acc.m[0], rtol=0, atol=1e-10 * scale)
    np.testing.assert_allclose(U1.q, acc.q, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("scheme", ["ee_ie", "star_dirksa"])
def test_step_conserves_mass_and_phase(scheme):
    grid, params, integ = _small_problem(scheme)
    integ.forcing = None
    U0 = exact_state(grid, params, 0.0)
    dt = 0.5 * integ.select_dt(U0)
    from chns_imex.solvers import SolveStats
    U1 = integ.attempt_step(U0, 0.0, dt, SolveStats())
    assert abs(U1.rho.sum() - U0.rho.sum()) < 1e-11 * abs(U0.rho.sum())
    assert abs(U1.q.sum() - U0.q.sum()) < 1e-10 * max(1.0, abs(U0.q.sum()))


def test_temporal_orders():
    """Errors against a small-step reference scale ~dt^2 for the two-stage
    scheme and ~dt for the one-stage scheme."""
    grid = GridSpec(dim=1, M=8)
    params = ModelParams(cp=1e2)
    T = 0.01

    def run(scheme, cfl):
        integ = Integrator(grid, params, scheme=scheme, cfl=cfl,
                           forcing=make_forcing(grid, params))
        U0 = exact_state(grid, params, 0.0)
        return integ.run_to_time(U0, T).state

    for scheme, lo, hi in (("star_dirksa", 1.6, 2.4), ("ee_ie", 0.7, 1.4)):
        ref = run(scheme, 0.0125)
        errs = []
        for cfl in (0.4, 0.2):
            U = run(scheme, cfl)
            d = U - ref
            errs.append(max(np.abs(d.rho).max(), np.abs(d.m[0]).max(),
                            np.abs(d.q).max()))
        order = np.log2(errs[0] / errs[1])
        assert lo <= order <= hi, f"{scheme}: order {order}, errors {errs}"


def test_mms_accuracy_uniform_in_cp():
    """Uniform accuracy in the Mach number: with C_p1 fixed, the 2D
    manufactured-solution errors at M = 16, 32, 64 move by less than 5%
    from C_p = 1e2 to 1e8, and stay second order from M = 32 to 64."""
    Ms = (16, 32, 64)
    errors = {}
    for cp in (1e2, 1e4, 1e6, 1e8):
        params = ModelParams(cp=cp, cp1=10.0)
        errors[cp] = []
        for M in Ms:
            grid = GridSpec(dim=2, M=M)
            integ = Integrator(grid, params,
                               forcing=make_forcing(grid, params))
            res = integ.run_to_time(exact_state(grid, params, 0.0), 0.01)
            ref = exact_state(grid, params, res.t)
            errors[cp].append(error_norm(
                res.state, ref.rho, exact_momenta(grid, params, res.t),
                ref.q, grid))
    for cp, errs in errors.items():
        for M, e, e0 in zip(Ms, errs, errors[1e2]):
            assert abs(e - e0) <= 0.05 * e0, \
                f"C_p={cp:g}, M={M}: error {e:.4e} against {e0:.4e}"
        order = compute_eoc(Ms, errs)[-1]
        assert order >= 1.85, f"C_p={cp:g}: order {order:.3f} at M=64"


def test_gap_to_incompressible_limit_falls_like_inverse_cp():
    """Asymptotic preservation, against the limit scheme itself: Test 1 at
    M = 16, C_p1 = 10, T = 0.01 and the fixed dt = 0.4 h / (2 + sqrt(gamma
    C_p1)), run at C_p = 1e6, 1e8 and 1e10 and by `oracles.
    IncompressibleLimit` from the delta = 0 data.  C_p times the gap of
    the face velocities and of q stays within a factor 2 of its value at
    C_p = 1e8 (measured: 133, 118 and 118 for v; 3.8, 4.3 and 4.3 for q),
    so the gap falls like 1/C_p to the discrete limit.  Beyond 1e10 the
    Newton stopping rule and the round-off of rho ~ 1 stop it falling
    (8.1e3 for v at 1e12)."""
    grid, T = GridSpec(dim=2, M=16), 0.01
    dt = 0.4 * grid.h / (2.0 + np.sqrt(ModelParams().gamma * 10.0))

    def run(cls, params, U0):
        integ = cls(grid, params)
        integ.select_dt = lambda U: dt
        return integ.run_to_time(U0, T).state

    # delta = 1e-300 rounds 1 +- delta to 1: the delta = 0 initial data
    zero_delta = ModelParams(cp=1e300, cp1=10.0)
    lim = run(oracles.IncompressibleLimit, zero_delta,
              initial_state(1, grid, zero_delta))
    gaps = {}
    for cp in (1e6, 1e8, 1e10):
        params = ModelParams(cp=cp, cp1=10.0)
        U = run(Integrator, params, initial_state(1, grid, params))
        gaps[cp] = cp * np.array([
            max(np.abs(a - b).max()
                for a, b in zip(U.velocities(), lim.velocities())),
            np.abs(U.q - lim.q).max()])
    for cp, gap in gaps.items():
        ratio = gap / gaps[1e8]
        assert ((0.5 <= ratio) & (ratio <= 2.0)).all(), \
            f"C_p={cp:g}: C_p * (v, q) gaps {gap}, at 1e8 {gaps[1e8]}"


@pytest.mark.parametrize("cp", [1e2, 1e8])
def test_temporal_orders_2d_at_fixed_grid(cp):
    """The order in time alone: the 2D manufactured solution at M = 16,
    T = 0.01, C_p1 = 10, with N = 4, 8, 16 fixed steps against N = 128.
    The momenta are second order at every C_p; so is the density at
    C_p = 1e2, but at 1e8 it is first order (1.14-1.16 measured): its
    O(1/C_p) perturbation is the pressure, which is first order in time in
    the low-Mach limit, as for the algebraic variable of an index-2 DAE
    under a stiffly accurate DIRK of stage order 1."""
    grid, T = GridSpec(dim=2, M=16), 0.01
    params = ModelParams(cp=cp, cp1=10.0)

    def run(N):
        integ = Integrator(grid, params, forcing=make_forcing(grid, params))
        integ.select_dt = lambda U: T / N
        res = integ.run_to_time(exact_state(grid, params, 0.0), T)
        assert res.n_steps == N
        return res.state

    ref = run(128)
    err_m, err_rho = [], []
    for N in (4, 8, 16):
        U = run(N)
        err_m.append(max(np.abs(a - b).max() for a, b in zip(U.m, ref.m)))
        err_rho.append(np.abs(U.rho - ref.rho).max())
    order_m = np.log2(np.divide(err_m[:-1], err_m[1:]))
    order_rho = np.log2(np.divide(err_rho[:-1], err_rho[1:]))
    assert (order_m >= 1.9).all(), f"momentum orders {order_m}"
    if cp == 1e2:
        assert (order_rho >= 1.9).all(), f"density orders {order_rho}"
    else:
        assert ((1.0 <= order_rho) & (order_rho <= 1.35)).all(), \
            f"density orders {order_rho}"


def test_test1_initial_layer_stalls_fixed_steps_near_inverse_root_cp():
    """Test 1's data are divergence-free but their pressure is not the
    incompressible one, so they start an O(Mach) acoustic layer that fixed
    steps of the size used here do not resolve.  At M = 16 to T = 0.002,
    with N = 16, 32, 64, 128 fixed steps against N = 256, the momentum
    errors at C_p = 1e8 stop falling near sqrt(1/C_p) (measured 3.0e-4,
    2.8e-4, 4.4e-4, 1.2e-4), while at C_p = 1e4 the same study falls at
    second order (6.9e-5, 1.7e-5, 4.1e-6, 8.1e-7: orders 2.01-2.32)."""
    grid, T = GridSpec(dim=2, M=16), 0.002

    def errors(cp):
        params = ModelParams(cp=cp)

        def run(N):
            integ = Integrator(grid, params)
            integ.select_dt = lambda U: T / N
            res = integ.run_to_time(initial_state(1, grid, params), T)
            assert res.n_steps == N
            return res.state

        ref = run(256)
        return np.array([max(np.abs(a - b).max()
                             for a, b in zip(run(N).m, ref.m))
                         for N in (16, 32, 64, 128)])

    stiff = errors(1e8)
    assert np.all((0.5e-4 <= stiff) & (stiff <= 5e-4)), stiff
    assert stiff.min() > stiff[0] / 4, stiff
    soft = errors(1e4)
    orders = np.log2(soft[:-1] / soft[1:])
    assert np.all(orders >= 1.9), orders


#: the alias runs of the parametrized tests below; the warning itself is
#: asserted by test_direct_is_a_deprecated_alias_of_cg
IGNORE_DIRECT_ALIAS = pytest.mark.filterwarnings(
    "ignore:linear solver 'direct' is deprecated:DeprecationWarning")


@IGNORE_DIRECT_ALIAS
@pytest.mark.parametrize("method", ["cg", "direct"])
def test_step_records_krylov_iterations(method, monkeypatch):
    """lin_iters sums the CG iterations of all concentration stages of a
    step."""
    import scipy.sparse.linalg as spla
    from chns_imex.cases import initial_state
    grid = GridSpec(dim=2, M=16)
    params = ModelParams(cp=1e4)
    integ = Integrator(grid, params,
                       linear_cfg=LinearSolverConfig(method=method))
    U0 = initial_state(1, grid, params)
    seen = {"iters": 0}
    real_cg = spla.cg

    def counting_cg(A, b, *args, callback=None, **kwargs):
        def count(xk):
            seen["iters"] += 1
            if callback is not None:
                callback(xk)
        return real_cg(A, b, *args, callback=count, **kwargs)

    monkeypatch.setattr(spla, "cg", counting_cg)
    _, rec = integ.step(U0, 0.0, integ.select_dt(U0))
    assert rec.lin_iters == seen["iters"] > 0


def test_direct_is_a_deprecated_alias_of_cg(monkeypatch):
    """`direct` warns and solves as `cg`: three steps of Test 3 are bit for
    bit the same, and every factorization of the run is a Newton one, made
    by HydroSolver._refresh; an unknown method is still refused."""
    import scipy.sparse.linalg as spla
    from chns_imex.cases import initial_state
    from chns_imex.solvers import HydroSolver
    with pytest.raises(ValueError, match="unknown linear solver 'lu'"):
        LinearSolverConfig(method="lu")
    with pytest.warns(DeprecationWarning, match="solves as 'cg'"):
        direct = LinearSolverConfig(method="direct")
    real_splu, real_refresh = spla.splu, HydroSolver._refresh
    refreshing, splu_in_refresh = [], []

    def refresh(self, *args, **kwargs):
        refreshing.append(True)
        try:
            return real_refresh(self, *args, **kwargs)
        finally:
            refreshing.pop()

    def splu(A, **kwargs):
        splu_in_refresh.append(bool(refreshing))
        return real_splu(A, **kwargs)

    monkeypatch.setattr(HydroSolver, "_refresh", refresh)
    monkeypatch.setattr(spla, "splu", splu)
    grid, params = GridSpec(dim=2, M=16), ModelParams(cp=1e4)
    runs = []
    for cfg in (LinearSolverConfig(method="cg"), direct):
        del splu_in_refresh[:]
        integ = Integrator(grid, params, linear_cfg=cfg)
        U, t, records = initial_state(3, grid, params, seed=0), 0.0, []
        for _ in range(3):
            U, rec = integ.step(U, t, integ.select_dt(U))
            t = rec.t
            records.append(rec)
        assert all(splu_in_refresh)
        assert len(splu_in_refresh) == sum(r.factorizations
                                           for r in records) > 0
        runs.append((U, [(r.dt, r.lin_iters) for r in records]))
    (U_cg, steps_cg), (U_direct, steps_direct) = runs
    assert steps_direct == steps_cg
    for a, b in ((U_direct.rho, U_cg.rho), (U_direct.q, U_cg.q),
                 *zip(U_direct.m, U_cg.m)):
        assert np.array_equal(a, b)


def test_step_records_final_newton_residual():
    """newton_res is the largest final scaled Newton residual over a step's
    stages: finite, >= 0 and within the Newton tolerance on every record."""
    from chns_imex.cases import initial_state
    grid = GridSpec(dim=2, M=16)
    params = ModelParams(cp=1e4)
    integ = Integrator(grid, params)
    solves = []             # (stats, final norm, tolerance) of each solve
    real_solve = integ.hydro.solve

    def spy(z0, r, dta, stats):
        first = len(stats.history)
        z = real_solve(z0, r, dta, stats)
        tol = solvers.NEWTON_TOL_ABS \
            + solvers.NEWTON_TOL_REL * stats.history[first]
        solves.append((stats, stats.history[-1], tol))
        return z

    integ.hydro.solve = spy
    records = []

    def check(U, rec):
        step = [s for s in solves if s[0] is solves[-1][0]]
        assert len(step) == integ.tab.stages
        assert np.isfinite(rec.newton_res) and rec.newton_res >= 0.0
        assert rec.newton_res == max(final for _, final, _ in step)
        assert all(final <= tol for _, final, tol in step)
        records.append(rec)

    U0 = initial_state(1, grid, params)
    integ.run_to_time(U0, 0.01, on_step=check)
    assert len(records) >= 3
    assert any(rec.newton_res > 0.0 for rec in records)


def _test1_steps(grid, params, n):
    """n steps of Test 1 from t = 0 at the CFL dt; returns (state, records)."""
    from chns_imex.cases import initial_state
    integ = Integrator(grid, params)
    U, t, records = initial_state(1, grid, params), 0.0, []
    for _ in range(n):
        U, rec = integ.step(U, t, integ.select_dt(U))
        t = rec.t
        records.append(rec)
    return U, records


def test_step_records_newton_lu_solves(lu_solves):
    """lu_solves counts the solves with the Newton factorizations of a
    step, one per Newton iteration, and spectral_corrections the directions
    corrected by the spectral inverse: over three steps of Test 1 the first
    sums to the solves made on the factors and to the Newton iterations,
    and the second is positive once the fluid moves and at most that."""
    grid = GridSpec(dim=2, M=16)
    _, records = _test1_steps(grid, ModelParams(cp=1e4), 3)
    faces = 2 * grid.M * (grid.M - 1)
    iters = sum(rec.newton_iters for rec in records)
    assert sum(rec.lu_solves for rec in records) == lu_solves[faces] \
        == iters > 0
    assert 0 < sum(rec.spectral_corrections for rec in records) <= iters


def test_stiff_stages_take_one_newton_iteration():
    """In the low-Mach limit one chord serves every stage, and each
    direction, corrected against the Jacobian of the current iterate, meets
    the tolerance at once: 8 steps of Test 1 at M = 16 and C_p = 1e8 take
    one factorization and exactly one Newton iteration per stage (16 in
    all; a correction against the chord's own Jacobian took 27)."""
    _, records = _test1_steps(GridSpec(dim=2, M=16), ModelParams(cp=1e8), 8)
    assert [rec.newton_iters for rec in records] == [2] * 8
    assert sum(rec.factorizations for rec in records) == 1


def test_newton_call_pattern_matches_step_records(monkeypatch):
    """The Newton counts can be read off the calls: one Jacobian per
    factorization, and one residual called directly from
    HydroSolver.solve before its first iteration and one per iteration
    (its full step); every other residual is a damped line-search trial of
    HydroSolver._trial.  Over three steps of Test 1 the calls agree with
    the step records."""
    calls = collections.Counter()
    Hydro = solvers.HydroSolver

    def counted(name, fn):
        def wrapper(self, *args):
            calls[name] += 1
            if name == "residual" \
                    and sys._getframe(1).f_code.co_name == "solve":
                calls["direct residual"] += 1
            return fn(self, *args)
        return wrapper

    for name in ("solve", "residual", "jacobian", "_trial"):
        monkeypatch.setattr(Hydro, name, counted(name, getattr(Hydro, name)))
    _, records = _test1_steps(GridSpec(dim=2, M=16), ModelParams(cp=1e4), 3)
    assert all(rec.retries == 0 for rec in records)
    iters = sum(rec.newton_iters for rec in records)
    assert calls["jacobian"] == sum(rec.factorizations for rec in records) > 0
    assert calls["solve"] == 3 * 2                # two stages per step
    assert calls["direct residual"] == calls["solve"] + iters
    assert calls["residual"] == calls["direct residual"] + calls["_trial"]
    assert calls["residual"] == sum(rec.residuals for rec in records)


def test_step_records_newton_sublayer_seconds():
    """The seconds of the Newton sub-layers are each nonnegative, positive
    on every step whose counter is (residuals; factorizations for the
    refreshes; LU solves for the eliminations and the Jacobian products,
    one each per direction; spectral corrections), and sum to at most the
    step's Newton seconds, on three steps of Test 1 that factorize and
    correct."""
    _, records = _test1_steps(GridSpec(dim=2, M=16), ModelParams(cp=1e4), 3)
    counted = (("residual_s", "residuals"), ("refresh_s", "factorizations"),
               ("lu_solve_s", "lu_solves"), ("jacobian_product_s", "lu_solves"),
               ("spectral_s", "spectral_corrections"))
    for rec in records:
        for seconds, count in counted:
            assert getattr(rec, seconds) >= 0.0
            assert (getattr(rec, seconds) > 0.0) >= (getattr(rec, count) > 0)
        assert sum(getattr(rec, s) for s, _ in counted) <= rec.newton_s
    for _, count in counted:
        assert sum(getattr(rec, count) for rec in records) > 0


def test_step_records_layer_seconds():
    """The seconds of the explicit tendency, the Newton solves and the
    c-stage are each positive on a Test 1 step and sum to at most the
    step's wall time."""
    from chns_imex.cases import initial_state
    grid, params = GridSpec(dim=2, M=16), ModelParams(cp=1e4)
    integ = Integrator(grid, params)
    U = initial_state(1, grid, params)
    dt = integ.select_dt(U)
    t0 = time.perf_counter()
    _, rec = integ.step(U, 0.0, dt)
    wall = time.perf_counter() - t0
    layers = (rec.explicit_s, rec.newton_s, rec.cstage_s)
    assert all(s > 0.0 for s in layers)
    assert sum(layers) <= wall


@pytest.mark.parametrize("cp", [1e2, 1e4, 1e8])
def test_schur_chord_step_matches_full_jacobian_lu(cp, monkeypatch):
    """Four steps of Test 1 take the same Newton iterations and
    factorizations, step by step, as with the LU of the whole Jacobian in
    place of the Schur elimination, each direction then corrected alike
    against the Jacobian of its iterate, and end in the same state to 1e-9
    of its largest value."""
    from chns_imex.solvers import HydroSolver
    grid, params = GridSpec(dim=2, M=32), ModelParams(cp=cp)
    U, records = _test1_steps(grid, params, 4)
    monkeypatch.setattr(HydroSolver, "_refresh",
                        oracles.full_jacobian_refresh)
    monkeypatch.setattr(HydroSolver, "_direction",
                        oracles.full_jacobian_direction)
    U_ref, records_ref = _test1_steps(grid, params, 4)

    def work(recs):
        return [(rec.newton_iters, rec.factorizations) for rec in recs]

    assert work(records) == work(records_ref)
    for f, ref in zip((U.rho, U.q, *U.m), (U_ref.rho, U_ref.q, *U_ref.m)):
        assert np.abs(f - ref).max() <= 1e-9 * np.abs(ref).max()


def test_compression_beyond_the_step_halves_dt(monkeypatch, caplog):
    """Two face velocities of +-1 colliding at a cell give dta * div_h v =
    -3 at the given dt, so d = diag(J_rr) = -0.5: the step fails with
    SolverFailure, before anything non-finite reaches SuperLU, and
    succeeds at dt / 2 (d = 0.25)."""
    import scipy.sparse.linalg as spla
    grid = GridSpec(dim=2, M=16)
    M, h = grid.M, grid.h
    xf = np.arange(1, M) * h
    v1 = np.repeat(np.where(xf < 0.5, 1.0, -1.0)[:, None], M, axis=1)
    U0 = state_from_primitives(np.ones((M, M)), (v1, v1.T.copy()),
                               np.zeros((M, M)))
    integ = Integrator(grid, PARAMS)
    dt = 1.5 * h / (2.0 * integ.tab.a[0, 0])   # div_h v = -4/h at one cell
    real_splu = spla.splu

    def finite_splu(A, **kwargs):
        assert np.isfinite(A.data).all()
        return real_splu(A, **kwargs)

    monkeypatch.setattr(spla, "splu", finite_splu)
    with caplog.at_level("WARNING", logger="chns_imex.imex"):
        _, rec = integ.step(U0, 0.0, dt)
    assert rec.retries == 1 and rec.dt == pytest.approx(dt / 2)
    assert "nonpositive diagonal" in caplog.records[0].getMessage()


# ---------------------------------------------------------------------------
# step-size control and run loop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim, v", [(1, ()), (2, (np.zeros((3, 4)),))])
def test_state_needs_one_face_velocity_per_axis(dim, v):
    """A velocity list that does not match the dimension of the density is
    refused, instead of building a State with too few momenta."""
    rho = np.ones((4,) * dim)
    with pytest.raises(ValueError, match="face velocities for a"):
        state_from_primitives(rho, v, np.zeros(rho.shape))


def test_select_dt_cfl_bound():
    grid = GridSpec(dim=1, M=16)
    params = ModelParams(cp=1e4)
    integ = Integrator(grid, params)
    rho = np.full(16, 1.0)
    U = state_from_primitives(rho, (np.zeros(15),), np.zeros(16))
    from chns_imex import model
    speed = float(model.sound_speed(1.0, params))
    assert integ.select_dt(U) == pytest.approx(DEFAULT_CFL * grid.h / speed)
    # the bound uses only the non-stiff pressure cp1 = sqrt(cp), so the step
    # shrinks like cp^(1/4) instead of the acoustic cp^(1/2)
    integ8 = Integrator(grid, ModelParams(cp=1e8), cfl=0.4)
    dt8 = integ8.select_dt(U)
    assert dt8 == pytest.approx(
        0.4 * grid.h / float(model.sound_speed(1.0, ModelParams(cp=1e8))))
    assert dt8 / integ.select_dt(U) == pytest.approx((1e4 / 1e8) ** 0.25)


def test_run_to_time_dumps_and_final_time():
    grid, params, integ = _small_problem("star_dirksa")
    U0 = exact_state(grid, params, 0.0)
    T = 0.004
    res = integ.run_to_time(U0, T, dump_times=[0.0, 0.002, T])
    assert isinstance(res, RunResult)
    assert res.t == pytest.approx(T, abs=1e-12)
    assert set(res.dumps) == {0.0, 0.002, T}
    # the dump at t=0 is the initial state
    np.testing.assert_array_equal(res.dumps[0.0].rho, U0.rho)
    # steps land exactly on the dump times
    assert any(abs(r.t - 0.002) < 1e-12 for r in res.steps)
    assert res.n_steps == len(res.steps)


@pytest.mark.parametrize("dumps", [[0.002, 0.002], [0.002, 0.002 + 1e-13]])
def test_close_dump_times_share_one_step(dumps):
    """Dump times within 1e-12 of each other are recorded by the step that
    reaches the first: the run takes the steps of a run with that one dump
    time, and takes no step shorter than 1e-12."""
    grid, params, _ = _small_problem("star_dirksa")
    U0 = exact_state(grid, params, 0.0)
    runs = [_small_problem("star_dirksa")[2].run_to_time(U0, 0.004,
                                                         dump_times=d)
            for d in (dumps, dumps[:1])]
    assert [r.dt for r in runs[0].steps] == [r.dt for r in runs[1].steps]
    assert set(runs[0].dumps) == set(dumps)
    for d in dumps:
        np.testing.assert_array_equal(runs[0].dumps[d].rho,
                                      runs[1].dumps[dumps[0]].rho)


@pytest.mark.parametrize("dump", [np.nan, np.inf, -1.0, 0.5])
def test_unreachable_dump_time_rejected(dump):
    """A dump time that is not finite, before 0 or past T could never be
    recorded; the run fails before any step instead of dropping it."""
    grid, params, integ = _small_problem("star_dirksa")
    U0 = exact_state(grid, params, 0.0)
    with pytest.raises(ValueError, match=r"dump times must lie in \[0, T\]"):
        integ.run_to_time(U0, 0.001, dump_times=[0.0005, dump],
                          on_step=lambda U, rec: pytest.fail("stepped"))


def test_on_step_callback_sees_every_step():
    grid, params, integ = _small_problem("star_dirksa")
    U0 = exact_state(grid, params, 0.0)
    seen = []
    res = integ.run_to_time(U0, 0.003,
                            on_step=lambda U, rec: seen.append(rec.t))
    assert len(seen) == res.n_steps
    assert seen == sorted(seen)
    assert seen[-1] == pytest.approx(res.t)


def test_step_retries_then_succeeds(monkeypatch):
    grid, params, integ = _small_problem("star_dirksa")
    U0 = exact_state(grid, params, 0.0)
    dt = 0.5 * integ.select_dt(U0)
    real = Integrator.attempt_step
    calls = {"n": 0}

    def flaky(self, Un, t, dt_, stats):
        calls["n"] += 1
        if calls["n"] == 1:
            raise SolverFailure("synthetic failure")
        return real(self, Un, t, dt_, stats)

    monkeypatch.setattr(Integrator, "attempt_step", flaky)
    U1, rec = integ.step(U0, 0.0, dt)
    assert rec.retries == 1
    assert rec.dt == pytest.approx(dt / 2)


def test_retried_step_records_only_the_accepted_attempt(monkeypatch):
    """A step whose second stage fails is retried at dt/2, and its record
    counts the retry's work alone: the counts of a clean step at dt/2 on a
    fresh Integrator, without the failed attempt's first stage.  The failed
    attempt drops the kept Newton chord: the retry's first stage starts
    with hydro.chord None, although the failed first stage had built one."""
    grid, params, integ = _small_problem("star_dirksa")
    U0 = exact_state(grid, params, 0.0)
    dt = integ.select_dt(U0)
    real = integ._solve_stage
    calls = {"n": 0}
    chords = []

    def fail_stage_2_once(hat, tilde, dta, stats):
        chords.append(integ.hydro.chord)
        calls["n"] += 1
        if calls["n"] == 2:
            raise SolverFailure("synthetic failure")
        return real(hat, tilde, dta, stats)

    monkeypatch.setattr(integ, "_solve_stage", fail_stage_2_once)
    _, rec = integ.step(U0, 0.0, dt)
    assert calls["n"] == 2 + integ.tab.stages
    assert rec.retries == 1 and rec.dt == dt / 2
    assert chords[1] is not None and chords[2] is None
    _, clean = _small_problem("star_dirksa")[2].step(U0, 0.0, dt / 2)
    assert clean.factorizations > 0 and clean.newton_iters > 0
    for name in ("newton_iters", "factorizations", "lu_solves"):
        assert getattr(rec, name) == getattr(clean, name), name


def test_step_gives_up_after_max_retries(monkeypatch):
    grid, params, integ = _small_problem("star_dirksa")
    U0 = exact_state(grid, params, 0.0)

    def always_fail(self, Un, t, dt_, stats):
        raise SolverFailure("synthetic failure")

    monkeypatch.setattr(Integrator, "attempt_step", always_fail)
    with pytest.raises(SolverFailure, match="halvings") as err:
        integ.step(U0, 0.0, 1e-3)
    assert MAX_RETRIES == 5
    msg = str(err.value)
    # the last attempt ran at 1e-3 / 2^5, and the message names the likely
    # cause beside the symptom
    assert "last dt=3.125e-05, cfl=0.4" in msg
    assert "synthetic failure" in msg
    assert "cfl beyond the explicit stability limit of the star_dirksa" in msg


# ---------------------------------------------------------------------------
# discrete symmetry of a whole step
# ---------------------------------------------------------------------------

#: relative asymmetry a step may leave: the LU and CG solves sum in grid
#: order, not mirror order.  Measured worst case 2.3e-14 (v1, M=4..16,
#: C_p in {1e2, 1e8}, 8 seeds each).
MIRROR_TOL = 1e-12


@settings(max_examples=25)
@given(M=st.integers(4, 16), cp=st.sampled_from([1e2, 1e8]),
       seed=st.integers(0, 2**32 - 1))
def test_step_keeps_mirror_symmetry_in_x(M, cp, seed):
    """Gravity acts along y, so the 2D system is symmetric under the
    mirror x -> 1 - x: a step from data with rho, q and v2 even and v1 odd
    about x = 1/2 keeps that parity.  Stencil or ghost-parity errors along
    x break it; the oracles, which share the conventions, cannot see them."""
    rng = np.random.default_rng(seed)

    def even(a):
        return 0.5 * (a + a[::-1])

    rho = 1.0 + 0.1 * even(rng.uniform(-1, 1, (M, M)))
    c = even(rng.uniform(-0.9, 0.9, (M, M)))
    m1 = rng.standard_normal((M - 1, M))
    m1 = 0.15 * (m1 - m1[::-1])
    m2 = 0.3 * even(rng.standard_normal((M, M - 1)))
    U = State(rho=rho, q=rho * c, m=(m1, m2))
    integ = Integrator(GridSpec(dim=2, M=M), ModelParams(cp=cp))
    U1, _ = integ.step(U, 0.0, integ.select_dt(U))
    for name, f, parity in (("rho", U1.rho, 1.0), ("q", U1.q, 1.0),
                            ("m[0]", U1.m[0], -1.0), ("m[1]", U1.m[1], 1.0)):
        asym = np.abs(f - parity * f[::-1]).max()
        assert asym <= MIRROR_TOL * np.abs(f).max(), name


#: relative difference a two-step run may leave between the swapped run and
#: the swapped result: the grid orders of the LU and the CG sums are
#: not swapped with the fields.  Measured worst case 2.4e-14, M=4..16,
#: C_p in {1e2, 1e8}, 104 cases.
SWAP_TOL = 1e-11


@IGNORE_DIRECT_ALIAS
@pytest.mark.parametrize("method", ["cg", "direct"])
@settings(max_examples=15)
@given(M=st.integers(4, 16), cp=st.sampled_from([1e2, 1e8]),
       seed=st.integers(0, 2**32 - 1))
def test_steps_commute_with_axis_swap(method, M, cp, seed):
    """Without gravity the 2D system is symmetric under x <-> y, so two
    steps of the swapped state give the swapped result."""
    rng = np.random.default_rng(seed)
    rho = 1.0 + 0.1 * rng.uniform(-1, 1, (M, M))
    c = rng.uniform(-0.9, 0.9, (M, M))
    m = (0.15 * rng.standard_normal((M - 1, M)),
         0.15 * rng.standard_normal((M, M - 1)))
    U = State(rho=rho, q=rho * c, m=m)
    grid, params = GridSpec(dim=2, M=M), ModelParams(cp=cp, g=0.0)
    cfg = LinearSolverConfig(method=method)
    runs = []
    for V in (U, oracles.swap_xy(U)):
        integ = Integrator(grid, params, linear_cfg=cfg)
        dt = integ.select_dt(U)
        for _ in range(2):
            V, _ = integ.step(V, 0.0, dt)
        runs.append(V)
    want, got = oracles.swap_xy(runs[0]), runs[1]
    for f, a, b in (("rho", got.rho, want.rho), ("q", got.q, want.q),
                    *((f"m[{k}]", got.m[k], want.m[k]) for k in (0, 1))):
        assert np.abs(a - b).max() <= SWAP_TOL * np.abs(b).max(), f


# ---------------------------------------------------------------------------
# the Cahn-Hilliard time scale
# ---------------------------------------------------------------------------

def test_cfl_step_damps_test3_phase_separation():
    """The CFL step does not resolve Test 3's spinodal growth: linearized
    at c = 0 and rho = 1 the fastest mode grows at sigma_max = 1/(4 eps),
    and at M = 32 the CFL step has dt * sigma_max of about 2.4, where the
    convex-concave split damps the unstable modes.  At T = 0.006, max|c|
    at the default cfl stays more than 100 times below that of a run at
    one eighth of it."""
    from chns_imex.cases import initial_state
    grid, params = GridSpec(dim=2, M=32), ModelParams(cp=1e4)
    sigma_max = 1.0 / (4.0 * params.eps)
    c_max, dt_sigma = {}, {}
    for cfl in (DEFAULT_CFL, DEFAULT_CFL / 8):
        U0 = initial_state(3, grid, params, seed=0)
        res = Integrator(grid, params, cfl=cfl).run_to_time(U0, 0.006)
        c_max[cfl] = np.abs(res.state.q / res.state.rho).max()
        dt_sigma[cfl] = max(r.dt for r in res.steps) * sigma_max
    assert dt_sigma[DEFAULT_CFL] > 1.0 > dt_sigma[DEFAULT_CFL / 8]
    assert c_max[DEFAULT_CFL / 8] >= 100.0 * c_max[DEFAULT_CFL]


class _NoSpeedReuse(Integrator):
    """The integrator with the reuse of known speeds patched out: every
    attempt computes the speed of the state it starts from."""

    def attempt_step(self, Un, *args):
        self._known = (None, 0.0)
        return super().attempt_step(Un, *args)


@pytest.mark.parametrize("cfl,T", [(DEFAULT_CFL, 0.003), (1.2, 0.0091)],
                         ids=["plain", "retried"])
def test_each_state_speed_is_computed_once(cfl, T, monkeypatch):
    """A Test 1 run (M = 16, C_p = 1e8) computes the speed of each state
    once: `_state_speed` runs once for the initial state in select_dt and
    `stages` times per accepted step (stages + 1 without the reuse).  The
    run ends bit for bit in the state of a run with the reuse patched out,
    also past the stable cfl, where steps are retried."""
    grid, params = GridSpec(dim=2, M=16), ModelParams(cp=1e8)
    calls = []
    speed = Integrator._state_speed
    monkeypatch.setattr(Integrator, "_state_speed",
                        lambda self, U: calls.append(1) or speed(self, U))
    runs = []
    for cls in (Integrator, _NoSpeedReuse):
        calls.clear()
        integ = cls(grid, params, cfl=cfl)
        runs.append(integ.run_to_time(initial_state(1, grid, params), T))
        retries = sum(rec.retries for rec in runs[-1].steps)
        if retries == 0:
            extra = 0 if cls is Integrator else runs[-1].n_steps
            assert len(calls) == 1 + (integ.tab.stages * runs[-1].n_steps
                                      + extra)
    assert (retries > 0) == (cfl > 1)
    U, V = (r.state for r in runs)
    assert len(runs[0].steps) == len(runs[1].steps)
    for a, b in zip((U.rho, U.q, *U.m), (V.rho, V.q, *V.m)):
        assert np.array_equal(a, b)
