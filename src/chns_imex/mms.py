"""Manufactured (forced) solutions for the order-of-convergence studies.

The exact space-time fields are divergence-free at t=0 with density constant
in space to leading order in the squared Mach number delta.  The forcing that
makes them exact solutions of the continuous system was derived symbolically
offline and committed as the generated module _forcing.py, in the factored
form the differentiation gives (not expanded) and as one function per
staggered location: (s_rho, s_q) at the cell centres and s_m_k at the faces
normal to axis k.  Regenerate it from the repository root with

    python scripts/derive_forcing.py

The test suite certifies it against an independent high-order
finite-difference residual oracle, and checks that the script still renders
the committed module.
"""

from __future__ import annotations

import numpy as np

from . import _forcing
from .grid import GridSpec
from .model import ModelParams
from .state import State, state_from_primitives


def exact_solution(dim: int, delta: float, x, t, y=None):
    """Pointwise exact fields; returns (rho, v1, c) in 1D and
    (rho, v1, v2, c) in 2D."""
    if dim == 1:
        rho = 1.0 + delta * np.cos(2 * np.pi * x) * (t + 1.0)
        v1 = np.zeros(np.shape(x))
        c = 0.75 - 0.1 * (1.0 - delta) * np.cos(np.pi * x) * (t - 1.0)
        return rho, v1, c
    rho = 1.0 + delta * np.cos(2 * np.pi * x) * np.cos(np.pi * y) * (t + 1.0)
    v1 = (1.0 + delta) * (1.0 - np.cos(2 * np.pi * x)) \
        * np.sin(2 * np.pi * y) * (1.0 - 2.0 * t**2)
    v2 = (1.0 + delta) * (1.0 - np.cos(2 * np.pi * y)) \
        * np.sin(2 * np.pi * x) * (2.0 * t**2 - 1.0)
    c = 0.75 - 0.1 * (1.0 - delta) * np.cos(np.pi * x) * np.cos(np.pi * y) \
        * (t - 1.0)
    return rho, v1, v2, c


def _exact_at(grid: GridSpec, params: ModelParams, t: float,
              face: int | None = None):
    """Exact (rho, v_1.., c) at the cell centres, or at the faces normal
    to axis `face`: every factor of `exact_solution` depends on one
    coordinate, so it is evaluated on the broadcastable vectors of
    `GridSpec.coords(sparse=True)` and only the products are full arrays."""
    x, *y = grid.coords(face, sparse=True)
    return exact_solution(grid.dim, params.delta, x, t, *y)


def exact_state(grid: GridSpec, params: ModelParams, t: float) -> State:
    """Exact solution sampled on the staggered grid as a conserved state."""
    rho, *_, c = _exact_at(grid, params, t)
    v = [_exact_at(grid, params, t, k)[1 + k] for k in range(grid.dim)]
    return state_from_primitives(rho, v, c)


def exact_momenta(grid: GridSpec, params: ModelParams, t: float):
    """Pointwise exact momenta rho* v* at the faces (for error norms)."""
    out = []
    for k in range(grid.dim):
        f = _exact_at(grid, params, t, k)
        out.append(f[0] * f[1 + k])
    return tuple(out)


def forcing_state(grid: GridSpec, params: ModelParams, t: float) -> State:
    """Forcing sampled at the staggered locations, as a tendency: each
    generated function is evaluated only where its component lives, on the
    broadcastable coordinate vectors of `GridSpec.coords(sparse=True)`, and
    only its results are broadcast to the full arrays."""
    p = params
    args = (t, p.delta, p.cp, p.gamma, p.nu, p.lam, p.eps, p.g)

    def full(s, pts):
        shape = np.broadcast_shapes(*(x.shape for x in pts))
        return np.broadcast_to(s, shape).astype(float)

    pts = grid.coords(sparse=True)
    s_rho, s_q = (full(s, pts) for s in _forcing.CELL[grid.dim](*pts, *args))
    m = []
    for k, face in enumerate(_forcing.FACE[grid.dim]):   # a bare array each
        pts = grid.coords(k, sparse=True)
        m.append(full(face(*pts, *args), pts))
    return State(rho=s_rho, q=s_q, m=tuple(m))


def make_forcing(grid: GridSpec, params: ModelParams):
    """Forcing callback t -> State for the time integrator."""
    return lambda t: forcing_state(grid, params, t)
