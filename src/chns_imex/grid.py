"""Staggered (MAC) grid layouts and finite-difference operators.

Scalars (density rho and phase momentum q = rho*c) live at cell centers
x_i = (i - 1/2)h.  The horizontal momentum lives on vertical faces
x_{i+1/2} (shape (M-1, M) in 2D) and the vertical momentum on horizontal
faces (shape (M, M-1)).  No-slip faces on the wall are not stored; they are
identically zero.  Arrays are indexed [i, j] with axis 0 = x and axis 1 = y.

No field carries ghost cells.  The compiled passes of the explicit tendency
(`weno`) continue a field beyond a wall, in a scratch copy of each line, as
its mirror image times its parity, and so do its sixth-order transfers
between cells and faces;
their NumPy form, with ghost arrays, is the reference the tests keep.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

#: axis labels for output columns and keys, in array-axis order (axis 0 = x)
AXES = ("x", "y")


class ShapeError(ValueError):
    """Field shape incompatible with the requested operator."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [0,1]^dim with M cells per axis and spacing h = 1/M.
    dim and M are integers (NumPy integers are stored as int)."""

    dim: int
    M: int

    def __post_init__(self):
        for name in ("dim", "M"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got "
                                 f"{value!r}") from None
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
# No-slip walls and staggered differences and averages along an axis
# ---------------------------------------------------------------------------

def _walls(f: np.ndarray, ax: int) -> np.ndarray:
    """Interior face values (M-1 along ax) with the zero no-slip wall face
    added at each end (M+1)."""
    _check_axis(f, ax)
    shape = list(f.shape)
    shape[ax] = 1
    zero = np.zeros(shape, dtype=f.dtype)
    return np.concatenate([zero, f, zero], axis=ax)


def diff(f: np.ndarray, ax: int) -> np.ndarray:
    """Forward difference f_{i+1} - f_i along an axis (n -> n-1).

    Over h it is the gradient of a cell field at the interior faces, and
    its negation over h is the transpose of `dual`."""
    return _slc(f, ax, slice(1, None)) - _slc(f, ax, slice(None, -1))


def dual(f: np.ndarray, ax: int, h: float) -> np.ndarray:
    """D_M along an axis: flux difference of interior-face values with
    homogeneous wall faces, (M-1) -> M."""
    return diff(_walls(f, ax), ax) / h


def face_average(f: np.ndarray, ax: int) -> np.ndarray:
    """A_M along an axis: neighbour mean, cells -> interior faces."""
    return 0.5 * (_slc(f, ax, slice(1, None)) + _slc(f, ax, slice(None, -1)))

