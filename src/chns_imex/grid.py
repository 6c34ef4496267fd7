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

def extend_cell(f: np.ndarray, ax: int, sign, g: int = GHOST) -> np.ndarray:
    """Extend a cell-positioned axis by g mirror ghosts on each side.

    sign=+1 mirrors values (rho, c, q:  f_0 = f_1, f_-1 = f_2, ...),
    sign=-1 mirrors with a sign flip (velocity components).  An array sign
    broadcast against f gives each field of a stack its own parity.
    """
    _check_axis(f, ax)
    if f.shape[ax] < g:
        raise ShapeError(f"need at least {g} cells along axis {ax}")
    left = sign * np.flip(_slc(f, ax, slice(0, g)), axis=ax)
    right = sign * np.flip(_slc(f, ax, slice(-g, None)), axis=ax)
    return np.concatenate([left, f, right], axis=ax)


def extend_face_interior(f: np.ndarray, ax: int, g: int = GHOST) -> np.ndarray:
    """Extend interior face values (M-1 along axis) across no-slip walls.

    The wall faces (value 0) are inserted, then g odd-mirror ghosts are added
    on each side: v_{1/2 - k} = -v_{1/2 + k}.  Output length M + 1 + 2g.
    """
    _check_axis(f, ax)
    if f.shape[ax] < g:
        raise ShapeError(f"need at least {g} interior faces along axis {ax}")
    shape = list(f.shape)
    shape[ax] = 1
    zero = np.zeros(shape, dtype=f.dtype)
    left = -np.flip(_slc(f, ax, slice(0, g)), axis=ax)
    right = -np.flip(_slc(f, ax, slice(-g, None)), axis=ax)
    return np.concatenate([left, zero, f, zero, right], axis=ax)


def extend_face_full(f: np.ndarray, ax: int, sign, g: int = GHOST) -> np.ndarray:
    """Extend a quantity sampled at all faces 0..M (length M+1) by mirror ghosts.

    sign=+1 for even quantities (rho at faces, rho v^2 + p1), sign=-1 for odd
    ones, or an array of signs as in `extend_cell`.  The wall values
    themselves are kept as given.
    """
    _check_axis(f, ax)
    if f.shape[ax] < g + 1:
        raise ShapeError(f"need at least {g + 1} faces along axis {ax}")
    left = sign * np.flip(_slc(f, ax, slice(1, g + 1)), axis=ax)
    right = sign * np.flip(_slc(f, ax, slice(-g - 1, -1)), axis=ax)
    return np.concatenate([left, f, right], axis=ax)


# ---------------------------------------------------------------------------
# One-dimensional finite-difference / averaging operators along an axis
# ---------------------------------------------------------------------------

def apply_fd_operator(kind: str, ax: int, f: np.ndarray, h: float) -> np.ndarray:
    """Apply one of the basic staggered-grid operators along an axis.

    kind='center'   : centered derivative at cell centers (M -> M),
                      one-sided rows at the walls with the same 1/(2h) factor.
    kind='dual'     : flux difference of interior-face values with homogeneous
                      wall faces ((M-1) -> M).
    kind='average'  : arithmetic mean of cell neighbours (M -> M-1).
    """
    _check_axis(f, ax)
    n = f.shape[ax]
    if kind == "center":
        out = np.empty_like(f, dtype=float)
        _set(out, ax, slice(1, -1),
             (_slc(f, ax, slice(2, None)) - _slc(f, ax, slice(0, -2))) / (2 * h))
        _set(out, ax, slice(0, 1),
             (_slc(f, ax, slice(1, 2)) - _slc(f, ax, slice(0, 1))) / (2 * h))
        _set(out, ax, slice(-1, None),
             (_slc(f, ax, slice(-1, None)) - _slc(f, ax, slice(-2, -1))) / (2 * h))
        return out
    if kind == "dual":
        shape = list(f.shape)
        shape[ax] = n + 1
        out = np.empty(shape, dtype=float)
        _set(out, ax, slice(1, -1),
             (_slc(f, ax, slice(1, None)) - _slc(f, ax, slice(0, -1))) / h)
        _set(out, ax, slice(0, 1), _slc(f, ax, slice(0, 1)) / h)
        _set(out, ax, slice(-1, None), -_slc(f, ax, slice(-1, None)) / h)
        return out
    if kind == "average":
        return 0.5 * (_slc(f, ax, slice(1, None)) + _slc(f, ax, slice(0, -1)))
    raise ValueError(f"unknown operator kind {kind!r}")


def _set(out: np.ndarray, ax: int, s: slice, val: np.ndarray):
    idx = [slice(None)] * out.ndim
    idx[ax] = s
    out[tuple(idx)] = val


def dual_transpose(f: np.ndarray, ax: int, h: float) -> np.ndarray:
    """D_M^T along an axis: (f_i - f_{i+1})/h at interior faces (M -> M-1).

    This is the negated centered gradient at faces; the stiff pressure term
    in the momentum tendency is exactly dual_transpose(p2(rho)).
    """
    return (_slc(f, ax, slice(0, -1)) - _slc(f, ax, slice(1, None))) / h


def face_average(f: np.ndarray, ax: int) -> np.ndarray:
    """A_M along an axis: neighbour mean, cells -> interior faces."""
    return apply_fd_operator("average", ax, f, 1.0)


# ---------------------------------------------------------------------------
# Sixth-order grid transfer
# ---------------------------------------------------------------------------

def _window_dot(ext: np.ndarray, ax: int, start: int, count: int) -> np.ndarray:
    """mu-weighted sum of 6 consecutive samples for count targets."""
    acc = MU6[0] * _slc(ext, ax, slice(start, start + count))
    for k in range(1, 6):
        acc = acc + MU6[k] * _slc(ext, ax, slice(start + k, start + k + count))
    return acc


def cells_to_faces6(ext: np.ndarray, ax: int, g: int = GHOST) -> np.ndarray:
    """Interpolate an extended cell field to all faces 0..M (length M+1)."""
    if g < 3:
        raise ShapeError("transfer6 needs at least 3 ghost layers")
    M = ext.shape[ax] - 2 * g
    # face i+1/2 (i = 0..M) uses cells i-2..i+3
    return _window_dot(ext, ax, g - 3, M + 1)


def faces_to_cells6(ext: np.ndarray, ax: int, g: int = GHOST) -> np.ndarray:
    """Interpolate an extended face field (walls included) to cells 1..M."""
    if g < 3:
        raise ShapeError("transfer6 needs at least 3 ghost layers")
    M = ext.shape[ax] - 2 * g - 1
    # cell i (i = 1..M) uses faces i-5/2..i+5/2
    return _window_dot(ext, ax, g - 2, M)
