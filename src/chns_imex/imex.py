"""IMEX partitioned Runge-Kutta time integration.

Each stage first assembles the explicit "hat" data, then solves the implicit
subsystems in sequence: a Newton iteration for density and velocities,
followed by a linear SPD solve for the concentration.  The stage tendency is
reconstructed algebraically from the solved stage state.  Both schemes are
stiffly accurate (the last row of the implicit tableau is its weights), so a
step ends at its last stage state.

The time step is chosen from a CFL condition on the *non-stiff* part of the
characteristic speed (advection plus the non-stiff pressure sound speed),
evaluated at the previous step's stage states, so the step size stays uniform
as the stiff pressure coefficient grows.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import model
from .grid import GridSpec
from .model import ModelParams, NonPositiveDensityError
from .solvers import (HydroSolver, LinearSolverConfig, SolverFailure,
                      SolveStats, solve_c_stage)
from .state import State, state_from_primitives

log = logging.getLogger(__name__)

DEFAULT_CFL = 0.4
MAX_RETRIES = 5


@dataclass
class ButcherPair:
    """An explicit tableau (at, bt) paired with a stiffly accurate DIRK
    tableau (a, b): a[-1] == b."""
    name: str
    at: np.ndarray
    bt: np.ndarray
    a: np.ndarray
    b: np.ndarray

    @property
    def stages(self) -> int:
        return len(self.bt)

    @property
    def ct(self) -> np.ndarray:
        return self.at.sum(axis=1)


def make_tableau(name: str) -> ButcherPair:
    if name == "ee_ie":
        return ButcherPair("ee_ie",
                           at=np.array([[0.0]]), bt=np.array([1.0]),
                           a=np.array([[1.0]]), b=np.array([1.0]))
    if name == "star_dirksa":
        s = 1.0 / np.sqrt(2.0)
        return ButcherPair("star_dirksa",
                           at=np.array([[0.0, 0.0], [1.0 + s, 0.0]]),
                           bt=np.array([s, 1.0 - s]),
                           a=np.array([[1.0 - s, 0.0], [s, 1.0 - s]]),
                           b=np.array([s, 1.0 - s]))
    raise ValueError(f"unknown scheme {name!r}")


@dataclass(kw_only=True)
class StepRecord(SolveStats):
    """The solver counters and seconds of a step's accepted attempt, at the
    time t it ends, with its dt and the halvings retried before it."""
    t: float
    dt: float
    retries: int


@dataclass
class RunResult:
    state: State
    t: float
    steps: list = field(default_factory=list)
    dumps: dict = field(default_factory=dict)

    @property
    def n_steps(self) -> int:
        return len(self.steps)


class Integrator:
    """Steps the system with the IMEX pair `scheme` at the CFL number cfl.
    `linear_cfg` is kept for library callers only; it is validated and
    otherwise unused: every concentration method solves as `cg` (see
    LinearSolverConfig)."""

    def __init__(self, grid: GridSpec, params: ModelParams,
                 scheme: str = "star_dirksa", cfl: float = DEFAULT_CFL,
                 forcing=None,
                 linear_cfg: LinearSolverConfig | None = None):
        if not 0 < cfl < np.inf:
            raise ValueError(f"cfl must be positive and finite, got {cfl}")
        self.grid = grid
        self.params = params
        self.tab = make_tableau(scheme)
        self.cfl = cfl
        self.forcing = forcing
        self.hydro = HydroSolver(grid, params)
        self.sp = self.hydro.spatial
        self._speed = None    # lagged non-stiff characteristic speed
        #: the last state whose speed is known, and that speed: the state
        #: the last accepted step returned, or the one select_dt measured
        self._known = (None, 0.0)

    # -- time-step selection -------------------------------------------------

    def _state_speed(self, U: State) -> float:
        v = max(float(np.max(np.abs(w))) for w in U.velocities())
        s = float(np.max(model.sound_speed(U.rho, self.params)))
        return v + s

    def select_dt(self, U: State) -> float:
        speed = self._speed
        if speed is None:
            speed = self._state_speed(U)
            self._known = (U, speed)
        if speed <= 0.0:
            return self.cfl * self.grid.h
        return self.cfl * self.grid.h / speed

    # -- one stage ------------------------------------------------------------

    def _solve_stage(self, hat: State, z0: np.ndarray, dta: float,
                     stats: SolveStats) -> State:
        """The stage state of the hat data, from the packed initial guess
        z0 = [rho; v] of the Newton solve."""
        r = self.sp.pack(hat.rho, *hat.m)
        t0 = time.perf_counter()
        z = self.hydro.solve(z0, r, dta, stats)
        t1 = time.perf_counter()
        stats.newton_s += t1 - t0
        rho, v = self.sp.unpack(z)
        C = solve_c_stage(rho, hat.q, dta, self.params.eps, self.grid, stats)
        stats.cstage_s += time.perf_counter() - t1
        return state_from_primitives(rho, v, C)

    # -- one step ------------------------------------------------------------

    def attempt_step(self, Un: State, t: float, dt: float,
                     stats: SolveStats) -> State:
        """One step from Un; the speed of Un is taken as known if Un is the
        state of `_known`, which no caller changes in place.  Each stage's
        explicit state gives its face velocities to the explicit tendency
        and, as the Newton initial guess, to the implicit stage."""
        tab = self.tab
        s = tab.stages
        K: list[State] = []
        known, speed = self._known
        speeds = [speed if Un is known else self._state_speed(Un)]
        for i in range(s):
            tilde = Un.copy()
            for j in range(i):
                tilde.axpy(dt * tab.at[i, j], K[j])
            tilde.check_valid()
            frc = self.forcing(t + tab.ct[i] * dt) if self.forcing else None
            t0 = time.perf_counter()
            v = tilde.velocities()
            E = self.sp.explicit_tendency(tilde, frc, v)
            stats.explicit_s += time.perf_counter() - t0
            hat_pre = Un.copy()
            for j in range(i):
                hat_pre.axpy(dt * tab.a[i, j], K[j])
            dta = dt * tab.a[i, i]
            hat = hat_pre.copy().axpy(dta, E)
            U_i = self._solve_stage(hat, self.sp.pack(tilde.rho, *v), dta,
                                    stats)
            U_i.check_valid()
            if i + 1 < s:               # read by the later stages only
                K.append((U_i - hat_pre) * (1.0 / dta))
            speeds.append(self._state_speed(U_i))
        self._speed = max(speeds)
        self._known = (U_i, speeds[-1])
        return U_i

    def step(self, Un: State, t: float, dt: float):
        """Advance one step with up to MAX_RETRIES halvings on failure.
        A step that still fails raises SolverFailure with the last dt and
        the cfl, since a cfl past the pair's stability limit is the likely
        cause."""
        retries = 0
        while True:
            # a fresh record per attempt: it counts the accepted one only
            rec = StepRecord(t=t + dt, dt=dt, retries=retries)
            try:
                return self.attempt_step(Un, t, dt, rec), rec
            except (SolverFailure, NonPositiveDensityError,
                    FloatingPointError) as exc:
                self.hydro.chord = None
                retries += 1
                if retries > MAX_RETRIES:
                    raise SolverFailure(
                        f"step at t={t:.6g} failed after {MAX_RETRIES} "
                        f"halvings (last dt={dt:.3e}, cfl={self.cfl:g}): "
                        f"{exc}; the likely cause is a cfl beyond the "
                        f"explicit stability limit of the {self.tab.name} "
                        f"pair") from exc
                dt *= 0.5
                log.warning("retrying step at t=%.6g with dt=%.3e (%s)",
                            t, dt, exc)

    # -- run loop ------------------------------------------------------------

    def run_to_time(self, U0: State, T: float,
                    dump_times=None, on_step=None) -> RunResult:
        """Integrate from t = 0 to T, recording snapshots at the dump times.

        A step records every dump time it reaches within `tiny`, so equal
        or nearly equal dump times share one snapshot and no step is
        shorter than `tiny`.  A negative or non-finite T, and a dump time
        outside [0, T] (beyond `tiny`) or not finite, raise ValueError.
        `on_step(state, record)` is invoked after every accepted step.
        """
        if not 0 <= T < np.inf:
            raise ValueError(f"final time must be finite and nonnegative, "
                             f"got {T}")
        tiny = 1e-12
        dump_times = list(dump_times or [])
        bad = [d for d in dump_times if not -tiny <= d <= T + tiny]
        if bad:
            raise ValueError(f"dump times must lie in [0, T] = [0, {T:g}], "
                             f"got {', '.join(f'{d:g}' for d in bad)}")
        dumps_left = sorted(d for d in dump_times if d > tiny)
        result = RunResult(state=U0.copy(), t=0.0)
        if any(abs(d) <= tiny for d in dump_times):
            result.dumps[0.0] = U0.copy()
        U, t = U0.copy(), 0.0
        self._speed = None
        while t < T - tiny:
            dt = self.select_dt(U)
            target = dumps_left[0] if dumps_left else T
            dt = min(dt, min(target, T) - t)
            U, rec = self.step(U, t, dt)
            t = rec.t
            result.steps.append(rec)
            if on_step is not None:
                on_step(U, rec)
            while dumps_left and t >= dumps_left[0] - tiny:
                result.dumps[dumps_left.pop(0)] = U.copy()
        result.state, result.t = U, t
        return result
