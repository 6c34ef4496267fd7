"""Finite-difference IMEX solver for isentropic two-phase flow.

Staggered-grid discretization of the compressible
Cahn-Hilliard-Navier-Stokes system with a Mach-uniform implicit-explicit
partitioned Runge-Kutta integrator.
"""

from .grid import GridSpec
from .imex import ButcherPair, Integrator, RunResult, make_tableau
from .model import ModelParams, NonPositiveDensityError
from .solvers import (HydroSolver, LinearSolverConfig, SolverFailure,
                      solve_c_stage)
from .spatial import SpatialDiscretization
from .state import State, state_from_primitives

__version__ = "0.1.0"

__all__ = [
    "ButcherPair", "GridSpec", "HydroSolver", "Integrator",
    "LinearSolverConfig", "ModelParams", "NonPositiveDensityError",
    "RunResult", "SolverFailure", "SpatialDiscretization", "State",
    "make_tableau", "solve_c_stage", "state_from_primitives", "__version__",
]
