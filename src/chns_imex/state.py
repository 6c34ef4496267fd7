"""Conserved-variable container on the staggered grid.

Fields: rho and q = rho*c at cell centers, momenta at faces (mx at vertical
faces, my at horizontal faces; my is absent in 1D).  Supports the linear
combinations needed by Runge-Kutta stage arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import AXES, GridSpec, face_average


@dataclass
class State:
    rho: np.ndarray
    mx: np.ndarray
    q: np.ndarray
    my: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return 1 if self.my is None else 2

    def copy(self) -> "State":
        return State(self.rho.copy(), self.mx.copy(), self.q.copy(),
                     None if self.my is None else self.my.copy())

    def __add__(self, other: "State") -> "State":
        return State(self.rho + other.rho, self.mx + other.mx,
                     self.q + other.q,
                     None if self.my is None else self.my + other.my)

    def __sub__(self, other: "State") -> "State":
        return State(self.rho - other.rho, self.mx - other.mx,
                     self.q - other.q,
                     None if self.my is None else self.my - other.my)

    def __mul__(self, a: float) -> "State":
        return State(a * self.rho, a * self.mx, a * self.q,
                     None if self.my is None else a * self.my)

    __rmul__ = __mul__

    def axpy(self, a: float, other: "State"):
        """In-place self += a*other."""
        self.rho += a * other.rho
        self.mx += a * other.mx
        self.q += a * other.q
        if self.my is not None:
            self.my += a * other.my
        return self

    @property
    def momenta(self) -> tuple:
        """Face momenta in axis order: (mx,) in 1D, (mx, my) in 2D."""
        return (self.mx,) if self.my is None else (self.mx, self.my)

    @momenta.setter
    def momenta(self, m):
        self.mx = m[0]
        self.my = m[1] if len(m) > 1 else None

    def velocities(self) -> tuple:
        """Face velocities in axis order: momenta over face-averaged rho."""
        return tuple(m / face_average(self.rho, a)
                     for a, m in zip(AXES, self.momenta))

    def zeros_like(self) -> "State":
        return State(np.zeros_like(self.rho), np.zeros_like(self.mx),
                     np.zeros_like(self.q),
                     None if self.my is None else np.zeros_like(self.my))

    def v1(self) -> np.ndarray:
        return self.mx / face_average(self.rho, "x")

    def v2(self) -> np.ndarray:
        return self.my / face_average(self.rho, "y")

    def c(self) -> np.ndarray:
        return self.q / self.rho

    def check_valid(self):
        arrays = [self.rho, self.mx, self.q]
        if self.my is not None:
            arrays.append(self.my)
        for a in arrays:
            if not np.all(np.isfinite(a)):
                raise FloatingPointError("non-finite value in state")
        if np.any(self.rho <= 0):
            raise FloatingPointError("nonpositive density in state")


def state_from_primitives(grid: GridSpec, rho: np.ndarray, v1: np.ndarray,
                          c: np.ndarray, v2: np.ndarray | None = None) -> State:
    """Build conserved variables from rho, interior-face velocities and c."""
    mx = face_average(rho, "x") * v1
    my = None
    if grid.dim == 2:
        my = face_average(rho, "y") * v2
    return State(rho=np.asarray(rho, dtype=float), mx=mx,
                 q=rho * c, my=my)
