"""WENO5 (Jiang-Shu) point-value reconstruction on primal and dual grids.

The kernel works in difference form along the line.  A target with the five
samples v0..v4 has the first differences Dk = v(k+1) - vk, k = 0..3, and its
left-biased state at its right edge (between v2 and v3) is

    right = v2 + (a0 c0 + a1 c1 + a2 c2) / (6 (a0 + a1 + a2)),
    c0 = 5 D1 - 2 D0,   c1 = D1 + 2 D2,   c2 = 4 D2 - D3,
    ak = dk (eps + bk)^-2,
    b0 = 13/12 (D1 - D0)^2 + 1/4 (3 D1 - D0)^2,
    b1 = 13/12 (D2 - D1)^2 + 1/4 (D1 + D2)^2,
    b2 = 13/12 (D3 - D2)^2 + 1/4 (3 D2 - D3)^2

(Jiang & Shu, JCP 126, 1996).  The differences and the term
13/12 (Delta D)^2 are computed once per line, and each beta reads the latter
at its own shift.  The right-biased state at the left edge (between v1 and
v2) is the same reconstruction of the reversed stencil, whose differences
are -D3..-D0.  Its betas are b2, b1, b0, so both states share them, and

    left = v2 - (a0' c0' + a1' c1' + a2' c2') / (6 (a0' + a1' + a2')),
    c0' = 5 D2 - 2 D3,   c1' = D2 + 2 D1,   c2' = 4 D1 - D0,
    a0' = d0 (eps + b2)^-2,   a1' = a1,   a2' = d2 (eps + b0)^-2.

It runs the operations of `right` in the same order, and rounding commutes
with negation, so the left state of a field is bit for bit the right state
of the mirrored field.

The entry points reconstruct every line of an array along one axis.  Fields
that share axis, staggered location and shape are stacked along a further
axis and reconstructed in one call; each line is computed exactly as it
would be alone.  The samples come from a ghost-extended field, so every
physical interface (walls included) gets both states.
"""

from __future__ import annotations

import numpy as np

from .grid import GHOST, _slc

WENO_EPS = 1e-6
D_LIN = np.array([0.1, 0.6, 0.3])


def _weno5_states(ext: np.ndarray, ax: int, first: int, count: int):
    """(right, left) states of the targets at indices first..first+count-1
    along ax of ext (the samples first-2..first+count+1 are read)."""
    seg = _slc(ext, ax, slice(first - 2, first + count + 2))
    D = _slc(seg, ax, slice(1, None)) - _slc(seg, ax, slice(None, -1))
    S = _slc(D, ax, slice(1, None)) - _slc(D, ax, slice(None, -1))
    np.square(S, out=S)
    S *= 13.0 / 12.0
    # the multiples of D the windows read, each computed once per line
    D2, D3, D5 = 2 * D, 3 * D, 5 * D
    D4 = 2 * D2

    def at(a, s):
        """The entry s of each target's window (D0..D3, or S0..S2)."""
        return _slc(a, ax, slice(s, s + count))

    def beta(lin, s):
        """(eps + S_s + lin^2 / 4)^2, in the storage of lin."""
        np.square(lin, out=lin)
        lin *= 0.25
        lin += at(S, s)
        lin += WENO_EPS
        np.square(lin, out=lin)
        return lin

    # (eps + beta)^2 of the three sub-stencils, shared by both states
    e0 = beta(at(D3, 1) - at(D, 0), 0)
    e1 = beta(at(D, 1) + at(D, 2), 1)
    e2 = beta(at(D3, 2) - at(D, 3), 2)
    a1 = D_LIN[1] / e1

    def state(e_lo, e_hi, c0, c1, c2):
        """(a0 c0 + a1 c1 + a2 c2) / (6 (a0 + a1 + a2)), in the storage of
        c0..c2, with a0 = d0 / e_lo and a2 = d2 / e_hi."""
        a0 = D_LIN[0] / e_lo
        a2 = D_LIN[2] / e_hi
        c0 *= a0
        c1 *= a1
        c0 += c1
        c2 *= a2
        c0 += c2
        a0 += a1
        a0 += a2
        a0 *= 6.0
        c0 /= a0
        return c0

    v2 = at(seg, 2)
    right = state(e0, e2, at(D5, 1) - at(D2, 0), at(D, 1) + at(D2, 2),
                  at(D4, 2) - at(D, 3))
    right += v2
    left = state(e2, e0, at(D5, 2) - at(D2, 3), at(D, 2) + at(D2, 1),
                 at(D4, 1) - at(D, 0))
    np.subtract(v2, left, out=left)
    return right, left


def _reconstruct_lr(ext: np.ndarray, ax: int, first: int):
    """(minus, plus) at the interfaces between the targets first..n-1-first
    along ax of ext (n samples): minus is the right state of the target
    before each interface, plus the left state of the one after."""
    right, left = _weno5_states(ext, ax, first, ext.shape[ax] - 2 * first)
    return _slc(right, ax, slice(None, -1)), _slc(left, ax, slice(1, None))


def reconstruct_lr_cells(ext: np.ndarray, ax: int):
    """Left/right states at all interfaces 0..M from an extended cell field.

    Returns (minus, plus): minus[k] is the left-biased state at interface
    k+1/2 built from cells k-2..k+2, plus[k] the right-biased state from
    cells k-1..k+3 (reversed stencil).
    """
    # cell i lives at extended index i+GHOST-1: interface k+1/2 is the
    # right edge of cell k and the left edge of cell k+1, for k = 0..M
    return _reconstruct_lr(ext, ax, GHOST - 1)


def reconstruct_lr_faces(ext: np.ndarray, ax: int):
    """Left/right states at cell centers 1..M from an extended face field.

    The extended array includes the wall faces; face i+1/2 lives at extended
    index i+GHOST.  minus[i-1] is the state at center i from faces
    i-5/2..i+3/2, plus[i-1] from faces i-3/2..i+5/2 (reversed stencil).
    """
    # center i is the right edge of face i-1/2 and the left edge of i+1/2
    return _reconstruct_lr(ext, ax, GHOST)
