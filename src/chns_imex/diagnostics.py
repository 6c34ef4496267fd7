"""Diagnostics: conservation, low-Mach metrics, errors and convergence rates."""

from __future__ import annotations

import numpy as np

from . import model
from .grid import AXES, GridSpec, axis_sum, diff, dual
from .model import ModelParams
from .state import State


def conserved_totals(U: State, grid: GridSpec) -> dict:
    """Cell-volume-weighted totals of the conserved fields."""
    w = grid.h ** grid.dim
    out = {"mass": w * float(U.rho.sum()),
           "phase": w * float(U.q.sum())}
    for k, mk in enumerate(U.m):
        out["mom_" + AXES[k]] = w * float(mk.sum())
    return out


def conservation_errors(U: State, U0: State, grid: GridSpec) -> dict:
    """Absolute drift of the conserved totals relative to the initial state."""
    a, b = conserved_totals(U, grid), conserved_totals(U0, grid)
    return {k: abs(a[k] - b[k]) for k in a}


def ap_metrics(U: State, grid: GridSpec, params: ModelParams) -> dict:
    """Low-Mach indicators: velocity divergence, density flatness, and the
    stiff pressure-gradient magnitude (full pressure)."""
    h = grid.h
    div = axis_sum([dual(vk, k, h) for k, vk in enumerate(U.velocities())])
    p_full = model.p1(U.rho, params) + model.p2(U.rho, params)
    gp = max(float(np.max(np.abs(diff(p_full, k) / h)))
             for k in range(grid.dim))
    return {"div_v_norm": float(np.max(np.abs(div))),
            "rho_flatness": float(np.max(np.abs(U.rho - U.rho.mean()))),
            "grad_p_stiff_norm": gp}


def c_extrema(U: State) -> tuple[float, float]:
    c = U.q / U.rho
    return float(c.min()), float(c.max())


def total_energy(U: State, grid: GridSpec, params: ModelParams) -> float:
    """Kinetic + internal + interfacial + gravitational potential energy
    (quadrature at native points); the potential is -g rho y, y the cell
    centre coordinate of the last axis, the one gravity acts along."""
    w = grid.h ** grid.dim
    kin = axis_sum([0.5 * float((mk * vk).sum())
                    for mk, vk in zip(U.m, U.velocities())])
    c = U.q / U.rho
    internal = float((U.rho * model.free_energy_density(U.rho, params)).sum())
    mix = float((U.rho * model.psi(c)).sum())
    interf = 0.5 * params.eps * axis_sum([
        float(((diff(c, k) / grid.h) ** 2).sum())
        for k in range(grid.dim)])
    potential = -params.g * float((U.rho * grid.cell_centers()).sum())
    return w * (kin + internal + mix + interf + potential)


def error_norm(U: State, exact_rho, exact_momenta, exact_q,
               grid: GridSpec) -> float:
    """Scaled l1 error summed over all conserved components.

    Momenta are compared against the pointwise product of the exact density
    and velocity at the faces.
    """
    w = grid.h ** grid.dim
    e = float(np.abs(U.rho - exact_rho).sum())
    for mk, ek in zip(U.m, exact_momenta):
        e += float(np.abs(mk - ek).sum())
    e += float(np.abs(U.q - exact_q).sum())
    return w * e


def compute_eoc(Ms, errors) -> list:
    """Observed orders between successive grids (None for the first row)."""
    out = [None]
    for k in range(1, len(Ms)):
        ratio = np.log(errors[k - 1] / errors[k]) / np.log(Ms[k] / Ms[k - 1])
        out.append(float(ratio))
    return out
