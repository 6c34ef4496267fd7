"""The benchmark's fixed solver runs and their correctness checks.

Every case is 2D, uses the default `star_dirksa` scheme and default physics,
and is sized so that one run to T lasts a few seconds on one core.  The
reference step counts and manufactured-solution errors below were recorded
from this code; a change that moves them is caught by `check`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from chns_imex import GridSpec, Integrator, LinearSolverConfig, ModelParams
from chns_imex.cases import initial_state
from chns_imex.diagnostics import compute_eoc, error_norm
from chns_imex.mms import exact_momenta, exact_state, make_forcing

#: conservation tolerance on the raw sums of rho and q (acceptance crit. 5)
DRIFT_TOL = 1e-9
#: bound on the running max |c| (acceptance criterion 6)
C_BOUND = 1.05
#: relative tolerance on the manufactured-solution error at each M: loose
#: enough for round-off from reordered arithmetic, tight enough that any
#: change of the discretization or of a solver tolerance shows
MMS_ERROR_RTOL = 1e-6
#: least observed order of the 2D manufactured solution at M=64 (crit. 3)
MMS_MIN_ORDER = 1.85


@dataclass(frozen=True)
class Case:
    test: int | None          # physical test problem; None = manufactured
    M: int
    cp: float
    T: float
    steps: int                # reference count of accepted steps
    solver: str = "cg"
    mms_error: float | None = None   # reference error at T (manufactured)

    @property
    def label(self) -> str:
        kind = "mms" if self.test is None else f"test{self.test}"
        return f"{kind}-M{self.M}-cp{self.cp:g}-{self.solver}"


WORKLOADS = {
    "test1-stiff": (Case(test=1, M=64, cp=1e8, T=0.002, steps=42),),
    "test1-fine": (Case(test=1, M=128, cp=1e4, T=0.00083, steps=4),),
    "mms2d": tuple(Case(test=None, M=M, cp=1e2, T=0.01, steps=n, mms_error=e)
                   for M, n, e in ((16, 3, 0.005975367181168622),
                                   (32, 5, 0.0016107504371736946),
                                   (64, 10, 0.000408715271517272))),
    "test3-direct": (Case(test=3, M=64, cp=1e4, T=0.006, steps=13,
                          solver="direct"),),
}


def build_initial(case: Case, seed: int):
    """Grid, parameters, initial data and forcing of one case."""
    grid = GridSpec(dim=2, M=case.M)
    params = ModelParams(cp=case.cp)
    if case.test is None:
        return grid, params, exact_state(grid, params, 0.0), \
            make_forcing(grid, params)
    # only Test 3 draws from the seed (its random perturbation)
    return grid, params, initial_state(case.test, grid, params, seed=seed), \
        None


def build_integrator(case: Case, grid, params, forcing) -> Integrator:
    return Integrator(grid, params, forcing=forcing,
                      linear_cfg=LinearSolverConfig(method=case.solver))


def check(case: Case, grid, params, U0, res, c_max) -> tuple[list, float]:
    """Failed checks of one finished run, and its error (manufactured
    solution only, else nan)."""
    bad = []
    U = res.state
    if res.n_steps != case.steps:
        bad.append(f"steps {res.n_steps} != reference {case.steps}")
    for name, a, b in (("mass", U.rho, U0.rho), ("phase", U.q, U0.q)):
        drift = abs(float(a.sum()) - float(b.sum()))
        if not drift <= DRIFT_TOL:
            bad.append(f"{name} drift {drift:.3e} > {DRIFT_TOL:g}")
    if not c_max <= C_BOUND:
        bad.append(f"max|c| {c_max:.6f} > {C_BOUND}")
    err = float("nan")
    if case.test is None:
        ref = exact_state(grid, params, res.t)
        mom = exact_momenta(grid, params, res.t)
        err = error_norm(U, ref.rho, mom, ref.q, grid)
        if not abs(err - case.mms_error) <= MMS_ERROR_RTOL * case.mms_error:
            bad.append(f"error {err!r} != reference {case.mms_error!r} "
                       f"(rtol {MMS_ERROR_RTOL:g})")
    return bad, err


def check_order(cases, errors) -> list:
    """Failed order check of a complete manufactured-solution ladder."""
    if any(c.test is not None for c in cases) or len(errors) < 2:
        return []
    order = compute_eoc([c.M for c in cases], errors)[-1]
    if not order >= MMS_MIN_ORDER:
        return [f"observed order {order:.4f} at M={cases[-1].M} "
                f"< {MMS_MIN_ORDER}"]
    return []


def c_abs_max(U) -> float:
    return float(np.max(np.abs(U.q / U.rho)))
