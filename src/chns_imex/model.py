"""Equation of state, pressure splitting, and the double-well potential.

The total pressure p(rho) = C_p rho^gamma is split into a non-stiff part
p1 = C_{p,1} rho^gamma (kept explicit, enters the CFL condition) and a stiff
part p2 = C_{p,2} rho^gamma (treated implicitly).  The squared Mach number is
delta = 1/C_p.  The double-well potential psi(c) = (c^2-1)^2/4 is split into
a convex part (psi1' = 2c, implicit) and a concave part (psi2' = c^3 - 3c,
explicit) so the Cahn-Hilliard update is unconditionally stable; the
compiled sources pass of the explicit tendency takes psi2'' = 3c^2 - 3.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


class NonPositiveDensityError(ValueError):
    """Density lost positivity; signals solver failure upstream."""


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters; defaults match the reference experiments."""

    cp: float = 1e2
    cp1: float | None = None     # default sqrt(cp)
    gamma: float = 5.0 / 3.0
    nu: float = 1.0
    lam: float = 0.1
    eps: float = 1e-4
    g: float = -10.0

    def __post_init__(self):
        if not self.cp > 0:
            raise ValueError("cp must be positive")
        if self.cp1 is None:
            object.__setattr__(self, "cp1", float(np.sqrt(self.cp)))
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if not (self.cp1 > 0):
            raise ValueError("cp1 must be positive")
        if self.cp2 < 0:
            raise ValueError("cp2 = cp - cp1 must be nonnegative")
        if self.gamma <= 1:
            raise ValueError("gamma must exceed 1")
        if self.nu <= 0 or self.lam <= 0 or self.eps <= 0:
            raise ValueError("nu, lam, eps must be positive")

    @property
    def cp2(self) -> float:
        return self.cp - self.cp1

    @property
    def delta(self) -> float:
        """Squared Mach number, 1/cp."""
        return 1.0 / self.cp


def _check_positive(rho: np.ndarray | float):
    if np.any(np.asarray(rho) <= 0.0):
        raise NonPositiveDensityError("nonpositive density in EOS evaluation")


def p1(rho, params: ModelParams):
    _check_positive(rho)
    return params.cp1 * rho ** params.gamma


def p2(rho, params: ModelParams):
    _check_positive(rho)
    return params.cp2 * rho ** params.gamma


def p2_centered(rho, params: ModelParams, rho_ref: float):
    """p2(rho) - p2(rho_ref), evaluated without cancellation.

    For stiff coefficients (cp2 up to 1e8) the absolute rounding error of
    p2(rho) swamps discrete pressure gradients of nearly uniform density;
    since the discrete gradient annihilates constants exactly, the centered
    value can be substituted and is accurate to relative precision via
    expm1/log1p.
    """
    _check_positive(rho)
    _check_positive(rho_ref)
    rel = (np.asarray(rho) - rho_ref) / rho_ref
    return params.cp2 * rho_ref ** params.gamma \
        * np.expm1(params.gamma * np.log1p(rel))


def dp1(rho, params: ModelParams):
    _check_positive(rho)
    return params.gamma * params.cp1 * rho ** (params.gamma - 1.0)


def dp2(rho, params: ModelParams):
    _check_positive(rho)
    return params.gamma * params.cp2 * rho ** (params.gamma - 1.0)


def sound_speed(rho, params: ModelParams):
    """Non-stiff sound speed sqrt(p1'(rho)) used in Rusanov viscosities/CFL."""
    return np.sqrt(dp1(rho, params))


# ---------------------------------------------------------------------------
# Double-well potential and its convex/concave split
# ---------------------------------------------------------------------------

def psi(c):
    return 0.25 * (np.asarray(c) ** 2 - 1.0) ** 2


def free_energy_density(rho, params: ModelParams):
    """Specific potential energy f_e(rho) = cp rho^(gamma-1)/(gamma-1)."""
    _check_positive(rho)
    return params.cp * rho ** (params.gamma - 1.0) / (params.gamma - 1.0)
