"""Staggered (MAC) grid layouts, finite-difference operators and ghost cells.

Scalars (density rho and phase momentum q = rho*c) live at cell centers
x_i = (i - 1/2)h.  The horizontal momentum lives on vertical faces
x_{i+1/2} (shape (M-1, M) in 2D) and the vertical momentum on horizontal
faces (shape (M, M-1)).  No-slip faces on the wall are not stored; they are
identically zero.  Arrays are indexed [i, j] with axis 0 = x and axis 1 = y.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

#: axis labels for output columns and keys, in array-axis order (axis 0 = x)
AXES = ("x", "y")

#: ghost layers added on each side; enough for WENO5 and the 6-point transfer
GHOST = 3

#: sixth-order transfer weights (midpoint interpolation on 6 neighbours)
MU6 = np.array([3.0, -25.0, 150.0, 150.0, -25.0, 3.0]) / 256.0


class ShapeError(ValueError):
    """Field shape incompatible with the requested operator."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [0,1]^dim with M cells per axis and spacing h = 1/M."""

    dim: int
    M: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.M < 4:
            raise ValueError(f"M must be >= 4, got {self.M}")

    @property
    def h(self) -> float:
        return 1.0 / self.M

    def cell_centers(self) -> np.ndarray:
        return (np.arange(1, self.M + 1) - 0.5) * self.h

    def interior_faces(self) -> np.ndarray:
        return np.arange(1, self.M) * self.h

    def coords(self, face: int | None = None, sparse: bool = False) -> tuple:
        """Coordinate arrays (one per axis, indexing 'ij') of the cell
        centres, or of the interior faces normal to axis `face`; with
        `sparse`, one vector per axis shaped to broadcast against the
        others."""
        xc, xf = self.cell_centers(), self.interior_faces()
        return tuple(np.meshgrid(*[xf if k == face else xc
                                   for k in range(self.dim)], indexing="ij",
                                 sparse=sparse))


def axis_sum(terms):
    """Sum of per-axis terms in axis order, the first term taken as is, so
    rounding and signed zeros match a hand-written t_x + t_y."""
    return functools.reduce(operator.add, terms)


def _check_axis(f: np.ndarray, ax: int):
    if ax >= f.ndim:
        raise ShapeError(f"axis {ax} out of range for array of ndim {f.ndim}")


def _slc(f: np.ndarray, ax: int, s: slice):
    """Slice f along axis ax, full slices elsewhere."""
    idx = [slice(None)] * f.ndim
    idx[ax] = s
    return f[tuple(idx)]


# ---------------------------------------------------------------------------
# Ghost-cell extension (mirror reflections about the walls)
# ---------------------------------------------------------------------------

def _mirror(f: np.ndarray, ax: int, sign, skip: int) -> np.ndarray:
    """f with GHOST mirror ghosts on each side along ax: the first GHOST
    samples after the `skip` end ones, reversed and times sign."""
    _check_axis(f, ax)
    n = f.shape[ax]
    if n < GHOST + skip:
        raise ShapeError(f"need at least {GHOST + skip} samples along "
                         f"axis {ax}")
    left = sign * np.flip(_slc(f, ax, slice(skip, GHOST + skip)), axis=ax)
    right = sign * np.flip(_slc(f, ax, slice(n - GHOST - skip, n - skip)),
                           axis=ax)
    return np.concatenate([left, f, right], axis=ax)


def _walls(f: np.ndarray, ax: int) -> np.ndarray:
    """Interior face values (M-1 along ax) with the zero no-slip wall face
    added at each end (M+1)."""
    _check_axis(f, ax)
    shape = list(f.shape)
    shape[ax] = 1
    zero = np.zeros(shape, dtype=f.dtype)
    return np.concatenate([zero, f, zero], axis=ax)


def extend_cell(f: np.ndarray, ax: int, sign) -> np.ndarray:
    """Extend a cell-positioned axis by GHOST mirror ghosts on each side.

    sign=+1 mirrors values (rho, c, q:  f_0 = f_1, f_-1 = f_2, ...),
    sign=-1 mirrors with a sign flip (velocity components).  An array sign
    broadcast against f gives each field of a stack its own parity.
    """
    return _mirror(f, ax, sign, 0)


def extend_face_interior(f: np.ndarray, ax: int) -> np.ndarray:
    """Extend interior face values (M-1 along axis) across no-slip walls.

    The wall faces (value 0) are inserted, then GHOST odd-mirror ghosts are
    added on each side: v_{1/2 - k} = -v_{1/2 + k}.  Output length
    M + 1 + 2 GHOST.
    """
    return _mirror(_walls(f, ax), ax, -1, 1)


# ---------------------------------------------------------------------------
# Staggered differences and averages along an axis
# ---------------------------------------------------------------------------

def diff(f: np.ndarray, ax: int) -> np.ndarray:
    """Forward difference f_{i+1} - f_i along an axis (n -> n-1).

    Over h it is the gradient of a cell field at the interior faces, and
    its negation over h is the transpose of `dual`."""
    return _slc(f, ax, slice(1, None)) - _slc(f, ax, slice(None, -1))


def dual(f: np.ndarray, ax: int, h: float) -> np.ndarray:
    """D_M along an axis: flux difference of interior-face values with
    homogeneous wall faces, (M-1) -> M."""
    return diff(_walls(f, ax), ax) / h


def center(f: np.ndarray, ax: int, h: float) -> np.ndarray:
    """Centered derivative at cell centers (M -> M): the two-apart
    difference with the end values repeated, so the wall rows are
    one-sided with the same 1/(2h)."""
    e = np.concatenate([_slc(f, ax, slice(0, 1)), f,
                        _slc(f, ax, slice(-1, None))], axis=ax)
    return (_slc(e, ax, slice(2, None)) - _slc(e, ax, slice(None, -2))) \
        / (2 * h)


def face_average(f: np.ndarray, ax: int) -> np.ndarray:
    """A_M along an axis: neighbour mean, cells -> interior faces."""
    return 0.5 * (_slc(f, ax, slice(1, None)) + _slc(f, ax, slice(None, -1)))


# ---------------------------------------------------------------------------
# Sixth-order grid transfer
# ---------------------------------------------------------------------------

def _transfer6(ext: np.ndarray, ax: int, start: int) -> np.ndarray:
    """mu-weighted sums of 6 consecutive samples of ext along ax, the first
    window at `start` and as many as fit with `start` samples left over at
    the far end."""
    count = ext.shape[ax] - 2 * start - 5
    acc = MU6[0] * _slc(ext, ax, slice(start, start + count))
    for k in range(1, 6):
        acc = acc + MU6[k] * _slc(ext, ax, slice(start + k, start + k + count))
    return acc


def cells_to_faces6(ext: np.ndarray, ax: int) -> np.ndarray:
    """Interpolate an extended cell field to all faces 0..M (length M+1)."""
    # face i+1/2 (i = 0..M) uses cells i-2..i+3
    return _transfer6(ext, ax, GHOST - 3)


def faces_to_cells6(ext: np.ndarray, ax: int) -> np.ndarray:
    """Interpolate an extended face field (walls included) to cells 1..M."""
    # cell i (i = 1..M) uses faces i-5/2..i+5/2
    return _transfer6(ext, ax, GHOST - 2)
