"""WENO5 (Jiang-Shu) point-value reconstruction on primal and dual grids.

`weno5_point` reconstructs at the interface between the 3rd and 4th of five
consecutive samples, biased to the left (upwind).  The right-biased state at
the same interface is obtained by applying the operator to the reversed
stencil.  Interface state arrays are produced from ghost-extended fields so
every physical interface (walls included) has both states.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import GHOST

WENO_EPS = 1e-6
D_LIN = np.array([0.1, 0.6, 0.3])


def _weno5(w: np.ndarray) -> np.ndarray:
    """Reconstruction for stacked stencils; last axis holds the 5 samples."""
    v0, v1, v2, v3, v4 = (w[..., k] for k in range(5))
    b0 = 13.0 / 12.0 * (v0 - 2 * v1 + v2) ** 2 + 0.25 * (v0 - 4 * v1 + 3 * v2) ** 2
    b1 = 13.0 / 12.0 * (v1 - 2 * v2 + v3) ** 2 + 0.25 * (v1 - v3) ** 2
    b2 = 13.0 / 12.0 * (v2 - 2 * v3 + v4) ** 2 + 0.25 * (3 * v2 - 4 * v3 + v4) ** 2
    a0 = D_LIN[0] / (WENO_EPS + b0) ** 2
    a1 = D_LIN[1] / (WENO_EPS + b1) ** 2
    a2 = D_LIN[2] / (WENO_EPS + b2) ** 2
    s = a0 + a1 + a2
    q0 = (2 * v0 - 7 * v1 + 11 * v2) / 6.0
    q1 = (-v1 + 5 * v2 + 2 * v3) / 6.0
    q2 = (2 * v2 + 5 * v3 - v4) / 6.0
    return (a0 * q0 + a1 * q1 + a2 * q2) / s


def weno5_point(stencil) -> float:
    """Left-biased reconstruction between the 3rd and 4th of 5 samples."""
    w = np.asarray(stencil, dtype=float)
    if w.shape != (5,):
        raise ValueError("stencil must contain exactly 5 samples")
    return float(_weno5(w[None, :])[0])


def _windows(ext: np.ndarray, axis: int) -> np.ndarray:
    """All length-5 sliding windows along an axis; window axis appended last."""
    return sliding_window_view(ext, 5, axis=axis)


def _take(w: np.ndarray, axis: int, start: int, count: int) -> np.ndarray:
    idx = [slice(None)] * (w.ndim - 1)
    idx[axis] = slice(start, start + count)
    return w[tuple(idx) + (slice(None),)]


def reconstruct_lr_cells(ext: np.ndarray, ax: int, g: int = GHOST):
    """Left/right states at all interfaces 0..M from an extended cell field.

    Returns (minus, plus): minus[k] is the left-biased state at interface
    k+1/2 built from cells k-2..k+2, plus[k] the right-biased state from
    cells k-1..k+3 (reversed stencil).
    """
    M = ext.shape[ax] - 2 * g
    w = _windows(ext, ax)
    # cell i lives at extended index i+g-1; window starting at p covers
    # cells (p-g+1)..(p-g+5)
    minus = _weno5(_take(w, ax, g - 3, M + 1))
    plus = _weno5(_take(w, ax, g - 2, M + 1)[..., ::-1])
    return minus, plus


def reconstruct_lr_faces(ext: np.ndarray, ax: int, g: int = GHOST):
    """Left/right states at cell centers 1..M from an extended face field.

    The extended array includes the wall faces; face i+1/2 lives at extended
    index i+g.  minus[i-1] is the state at center i from faces i-5/2..i+3/2,
    plus[i-1] from faces i-3/2..i+5/2 (reversed stencil).
    """
    M = ext.shape[ax] - 2 * g - 1
    w = _windows(ext, ax)
    minus = _weno5(_take(w, ax, g - 2, M))
    plus = _weno5(_take(w, ax, g - 1, M)[..., ::-1])
    return minus, plus
