"""Conserved-variable container on the staggered grid.

Fields: rho and q = rho*c at cell centers, and the face momenta m in axis
order: m[k] lives on the faces normal to axis k (one array in 1D, two in
2D).  Supports the linear combinations needed by Runge-Kutta stage
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import face_average


@dataclass
class State:
    rho: np.ndarray
    q: np.ndarray
    m: tuple

    def copy(self) -> "State":
        return State(self.rho.copy(), self.q.copy(),
                     tuple(mk.copy() for mk in self.m))

    def __sub__(self, other: "State") -> "State":
        return State(self.rho - other.rho, self.q - other.q,
                     tuple(a - b for a, b in zip(self.m, other.m)))

    def __mul__(self, a: float) -> "State":
        return State(a * self.rho, a * self.q, tuple(a * mk for mk in self.m))

    __rmul__ = __mul__

    def axpy(self, a: float, other: "State"):
        """In-place self += a*other."""
        self.rho += a * other.rho
        self.q += a * other.q
        for mk, ok in zip(self.m, other.m):
            mk += a * ok
        return self

    def velocities(self) -> tuple:
        """Face velocities in axis order: momenta over face-averaged rho."""
        return tuple(mk / face_average(self.rho, k)
                     for k, mk in enumerate(self.m))

    def c(self) -> np.ndarray:
        return self.q / self.rho

    def check_valid(self):
        """Raise FloatingPointError naming the first of rho, m[0], ..., q
        with a non-finite value, or rho if it has a nonpositive one."""
        names = ["rho", *(f"m[{k}]" for k in range(len(self.m))), "q"]
        for name, a in zip(names, (self.rho, *self.m, self.q)):
            if not np.all(np.isfinite(a)):
                raise FloatingPointError(f"non-finite value in {name}")
        if np.any(self.rho <= 0):
            raise FloatingPointError("nonpositive value in rho")


def state_from_primitives(rho: np.ndarray, v, c: np.ndarray) -> State:
    """Build conserved variables from rho, the interior-face velocities in
    axis order and c; one velocity array per axis of rho."""
    if len(v) != np.ndim(rho):
        raise ValueError(f"{len(v)} face velocities for a "
                         f"{np.ndim(rho)}D density")
    return State(rho=np.asarray(rho, dtype=float), q=rho * c,
                 m=tuple(face_average(rho, k) * vk for k, vk in enumerate(v)))
