"""Initial data for the physical test problems.

Test 1: smooth acoustic/vortical perturbation with the concentration centred
        in the spinodal region (phase separation sets in immediately): the
        manufactured solution of `mms` at t = 0, without the mean 3/4 of c.
Test 2: the manufactured solution at t = 0, whose concentration is offset
        to 3/4 (stable mixture).
Test 3: quiescent uniform state with a tiny uniform random concentration
        perturbation of exactly zero mean (seeded).

All three are two-dimensional; the amplitude of the perturbations scales with
the squared Mach number delta so the data is well-prepared for small delta.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec
from .mms import concentration_wave, exact_c, exact_rho, exact_velocity
from .model import ModelParams
from .state import State, state_from_primitives

TEST3_AMP = np.sqrt(3.0) * 1e-10
DUMP_TIMES = (0.0, 0.01, 0.03, 0.05, 0.07, 0.1)


def initial_state(test: int, grid: GridSpec, params: ModelParams,
                  seed: int = 0) -> State:
    if grid.dim != 2:
        raise ValueError("the physical test problems are two-dimensional")

    if test in (1, 2):
        # mms.exact_state at t = 0, with Test 1's c the wave alone
        d, c = params.delta, concentration_wave if test == 1 else exact_c
        v = [exact_velocity(k, d, grid.coords(k, sparse=True), 0.0)
             for k in range(2)]
        at = d, grid.coords(sparse=True), 0.0
        return state_from_primitives(exact_rho(*at), v, c(*at))

    if test == 3:
        M = grid.M
        rng = np.random.default_rng(seed)
        c = rng.uniform(-TEST3_AMP, TEST3_AMP, size=(M, M))
        c -= c.mean()
        return state_from_primitives(
            np.ones((M, M)), (np.zeros((M - 1, M)), np.zeros((M, M - 1))), c)

    raise ValueError(f"unknown test problem {test}")
