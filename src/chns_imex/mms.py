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


def _transverse(w, pts):
    """The x-wave w times cos(pi y) for each transverse axis y of the
    points pts = (x[, y]), in axis order."""
    for y in pts[1:]:
        w = w * np.cos(np.pi * y)
    return w


def exact_rho(delta: float, pts, t):
    """Pointwise exact density at the points pts = (x[, y])."""
    return 1.0 + _transverse(delta * np.cos(2 * np.pi * pts[0]), pts) \
        * (t + 1.0)


def exact_velocity(k: int, delta: float, pts, t):
    """Pointwise exact velocity component along axis k at the points pts:
    zero in 1D, and in 2D the curl of a stream function, so divergence
    free."""
    if not 0 <= k < len(pts):
        raise ValueError(f"no velocity component {k} on a "
                         f"{len(pts)}-dimensional grid")
    if len(pts) == 1:
        return np.zeros(np.shape(pts[0]))
    v = (1.0 + delta) * (1.0 - np.cos(2 * np.pi * pts[k]))
    for y in pts[:k] + pts[k + 1:]:
        v = v * np.sin(2 * np.pi * y)
    return v * (1.0 - 2.0 * t**2, 2.0 * t**2 - 1.0)[k]


def concentration_wave(delta: float, pts, t):
    """The wave of the exact concentration about its mean 3/4."""
    return _transverse(0.1 * (1.0 - delta) * np.cos(np.pi * pts[0]), pts) \
        * (1.0 - t)


def exact_c(delta: float, pts, t):
    """Pointwise exact concentration: 3/4 plus its wave."""
    return 0.75 + concentration_wave(delta, pts, t)


def _at(grid: GridSpec, params: ModelParams, t: float,
        face: int | None = None) -> tuple:
    """Arguments (delta, pts, t) of the exact fields at the cell centres,
    or at the faces normal to axis `face`: every factor of a field depends
    on one coordinate, so it is evaluated on the broadcastable vectors pts
    of `GridSpec.coords(sparse=True)` and only the products are full
    arrays."""
    return params.delta, grid.coords(face, sparse=True), t


def exact_state(grid: GridSpec, params: ModelParams, t: float) -> State:
    """Exact solution sampled on the staggered grid as a conserved state:
    rho and c at the cell centres, v_k at the faces normal to axis k."""
    at = _at(grid, params, t)
    v = [exact_velocity(k, *_at(grid, params, t, k)) for k in range(grid.dim)]
    return state_from_primitives(exact_rho(*at), v, exact_c(*at))


def exact_momenta(grid: GridSpec, params: ModelParams, t: float):
    """Pointwise exact momenta rho* v* at the faces (for error norms)."""
    faces = [_at(grid, params, t, k) for k in range(grid.dim)]
    return tuple(exact_rho(*at) * exact_velocity(k, *at)
                 for k, at in enumerate(faces))


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
