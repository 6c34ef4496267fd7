"""Initial data for the physical test problems.

Test 1: smooth acoustic/vortical perturbation with the concentration centred
        in the spinodal region (phase separation sets in immediately).
Test 2: the same flow with the concentration offset to 3/4 (stable mixture).
Test 3: quiescent uniform state with a tiny uniform random concentration
        perturbation of exactly zero mean (seeded).

All three are two-dimensional; the amplitude of the perturbations scales with
the squared Mach number delta so the data is well-prepared for small delta.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec
from .model import ModelParams
from .state import State, state_from_primitives

TEST3_AMP = np.sqrt(3.0) * 1e-10
DUMP_TIMES = (0.0, 0.01, 0.03, 0.05, 0.07, 0.1)


def initial_state(test: int, grid: GridSpec, params: ModelParams,
                  seed: int = 0) -> State:
    if grid.dim != 2:
        raise ValueError("the physical test problems are two-dimensional")
    d = params.delta
    X, Y = grid.coords()
    Xfx, Yfx = grid.coords(0)
    Xfy, Yfy = grid.coords(1)

    if test in (1, 2):
        rho = 1.0 + d * np.cos(2 * np.pi * X) * np.cos(np.pi * Y)
        v1 = (1.0 + d) * (1.0 - np.cos(2 * np.pi * Xfx)) \
            * np.sin(2 * np.pi * Yfx)
        v2 = (1.0 + d) * (np.cos(2 * np.pi * Yfy) - 1.0) \
            * np.sin(2 * np.pi * Xfy)
        c = 0.1 * (1.0 - d) * np.cos(np.pi * X) * np.cos(np.pi * Y)
        if test == 2:
            c = 0.75 + c
        return state_from_primitives(rho, (v1, v2), c)

    if test == 3:
        rng = np.random.default_rng(seed)
        c = rng.uniform(-TEST3_AMP, TEST3_AMP, size=(grid.M, grid.M))
        c -= c.mean()
        rho = np.ones((grid.M, grid.M))
        return state_from_primitives(
            rho, (np.zeros(Xfx.shape), np.zeros(Xfy.shape)), c)

    raise ValueError(f"unknown test problem {test}")
