"""WENO5 (Jiang-Shu) point-value reconstruction on primal and dual grids.

One kernel serves both interface states.  For a target with the five
samples v0..v4 it returns the left-biased state at its right edge (between
v2 and v3) and the right-biased state at its left edge (between v1 and v2),
which is the same reconstruction applied to the reversed stencil.  Under
reversal the smoothness indicators map as beta0 <-> beta2 and beta1 -> beta1
(Jiang & Shu, JCP 126, 1996), so the two states share their three betas
and only the linear weights d0 and d2 swap.  The samples are five shifted
slices of a ghost-extended field, so every physical interface (walls
included) gets both states.
"""

from __future__ import annotations

import numpy as np

from .grid import GHOST, _slc

WENO_EPS = 1e-6
D_LIN = np.array([0.1, 0.6, 0.3])


def _beta(d2, d1):
    """13/12 d2^2 + 1/4 d1^2, computed in the storage of d2 and d1."""
    np.square(d2, out=d2)
    d2 *= 13.0 / 12.0
    np.square(d1, out=d1)
    d1 *= 0.25
    d2 += d1
    return d2


def _mix(a0, a1, a2, q0, q1, q2):
    """(a0 q0 + a1 q1 + a2 q2) / (a0 + a1 + a2), in the storage of q0..q2."""
    q0 *= a0
    q1 *= a1
    q0 += q1
    q2 *= a2
    q0 += q2
    q0 /= a0 + a1 + a2
    return q0


def _weno5_edges(v0, v1, v2, v3, v4):
    """(right, left) WENO5 states of targets with stencils v0..v4.

    right is the left-biased state between v2 and v3, left the state
    between v1 and v2 from the reversed stencil v4..v0.  The in-place
    updates keep the operation order of the formulas, so right rounds
    exactly like a one-sided evaluation; left differs from one only in
    the rounding of its shared betas (a few ulp of max |v|).
    """
    v1x2, v2x2, v3x2, v2x3, v2x5, v2x11 = (2 * v1, 2 * v2, 2 * v3, 3 * v2,
                                           5 * v2, 11 * v2)
    b0 = v0 - v1x2
    b0 += v2
    d = v0 - 4 * v1
    d += v2x3
    b0 = _beta(b0, d)
    b1 = v1 - v2x2
    b1 += v3
    b1 = _beta(b1, v1 - v3)
    b2 = v2 - v3x2
    b2 += v4
    d = v2x3 - 4 * v3
    d += v4
    b2 = _beta(b2, d)
    # (eps + beta)^2 of the three sub-stencils, shared by both edges
    for b in (b0, b1, b2):
        b += WENO_EPS
        np.square(b, out=b)

    q0 = 2 * v0
    q0 -= 7 * v1
    q0 += v2x11
    q1 = v2x5 - v1
    q1 += v3x2
    q2 = v2x2 + 5 * v3
    q2 -= v4
    for q in (q0, q1, q2):
        q /= 6.0
    right = _mix(D_LIN[0] / b0, D_LIN[1] / b1, D_LIN[2] / b2, q0, q1, q2)

    q0 = 2 * v4
    q0 -= 7 * v3
    q0 += v2x11
    q1 = v2x5 - v3
    q1 += v1x2
    q2 = v2x2 + 5 * v1
    q2 -= v0
    for q in (q0, q1, q2):
        q /= 6.0
    left = _mix(D_LIN[0] / b2, D_LIN[1] / b1, D_LIN[2] / b0, q0, q1, q2)
    return right, left


def weno5_point(stencil) -> float:
    """Left-biased reconstruction between the 3rd and 4th of 5 samples."""
    w = np.asarray(stencil, dtype=float)
    if w.shape != (5,):
        raise ValueError("stencil must contain exactly 5 samples")
    return float(_weno5_edges(*w[:, None])[0][0])


def _edges(ext: np.ndarray, ax: int, first: int, count: int):
    """(right, left) states of the targets at extended indices
    first..first+count-1 along ax."""
    lo = first - 2
    return _weno5_edges(*(_slc(ext, ax, slice(lo + s, lo + s + count))
                          for s in range(5)))


def reconstruct_lr_cells(ext: np.ndarray, ax: int, g: int = GHOST):
    """Left/right states at all interfaces 0..M from an extended cell field.

    Returns (minus, plus): minus[k] is the left-biased state at interface
    k+1/2 built from cells k-2..k+2, plus[k] the right-biased state from
    cells k-1..k+3 (reversed stencil).
    """
    M = ext.shape[ax] - 2 * g
    # cell i lives at extended index i+g-1: interface k+1/2 is the right
    # edge of cell k and the left edge of cell k+1, for k = 0..M
    right, left = _edges(ext, ax, g - 1, M + 2)
    return _slc(right, ax, slice(None, -1)), _slc(left, ax, slice(1, None))


def reconstruct_lr_faces(ext: np.ndarray, ax: int, g: int = GHOST):
    """Left/right states at cell centers 1..M from an extended face field.

    The extended array includes the wall faces; face i+1/2 lives at extended
    index i+g.  minus[i-1] is the state at center i from faces i-5/2..i+3/2,
    plus[i-1] from faces i-3/2..i+5/2 (reversed stencil).
    """
    M = ext.shape[ax] - 2 * g - 1
    # center i is the right edge of face i-1/2 and the left edge of i+1/2
    right, left = _edges(ext, ax, g, M + 1)
    return _slc(right, ax, slice(None, -1)), _slc(left, ax, slice(1, None))
