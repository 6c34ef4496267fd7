"""Finite-difference IMEX solver for isentropic two-phase flow.

Staggered-grid discretization of the compressible
Cahn-Hilliard-Navier-Stokes system with a Mach-uniform implicit-explicit
partitioned Runge-Kutta integrator.
"""

import os

#: thread-pool variables of the BLAS/OpenMP runtimes NumPy and SciPy may
#: load.  Each one the caller has not set is set to one thread: the solver's
#: vectors are small, so more threads only contend.  The runtimes read them
#: when NumPy loads, so this runs before the package imports NumPy, and has
#: no effect where NumPy was imported first.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

from .grid import GridSpec  # noqa: E402
from .imex import ButcherPair, Integrator, RunResult, make_tableau  # noqa: E402
from .model import ModelParams, NonPositiveDensityError  # noqa: E402
from .solvers import (HydroSolver, LinearSolverConfig, SolverFailure,  # noqa: E402
                      solve_c_stage)
from .spatial import SpatialDiscretization  # noqa: E402
from .state import State, state_from_primitives  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "ButcherPair", "GridSpec", "HydroSolver", "Integrator",
    "LinearSolverConfig", "ModelParams", "NonPositiveDensityError",
    "RunResult", "SolverFailure", "SpatialDiscretization", "State",
    "make_tableau", "solve_c_stage", "state_from_primitives", "__version__",
]
