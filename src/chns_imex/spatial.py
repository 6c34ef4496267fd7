"""Semi-discrete tendency operators on the staggered grid.

The right-hand side is split for IMEX integration into terms evaluated at an
explicit ("tilde") state and terms evaluated at the implicit state:

* convective:  mass transport div(rho_* v) from the implicit state plus its
  Rusanov diffusion from the explicit state; momentum and phase-momentum
  fluxes fully explicit (WENO5-reconstructed Rusanov fluxes);
* pressure/gravity:  stiff pressure gradient -grad p2 implicit, gravity on
  the explicit density;
* capillary:  explicit, from the explicit concentration;
* Cahn-Hilliard:  convex part (2 Laplacian and the fourth-order term)
  implicit, concave flux-form part explicit;
* viscous:  implicit.

All operators are matrix-free; sparse assemblies of the same operators live
in the operators module and in the test-suite oracles.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import model
from .grid import (AXES, GHOST, GridSpec, _slc, apply_fd_operator,
                   axis_sum, cells_to_faces6, dual_transpose, extend_cell,
                   extend_face_full, extend_face_interior, face_average,
                   faces_to_cells6, laplacian_neumann)
from .model import ModelParams
from .state import State
from .weno import reconstruct_lr_cells, reconstruct_lr_faces

log = logging.getLogger(__name__)


def _grad_to_faces(f: np.ndarray, axis, h: float) -> np.ndarray:
    """Two-point gradient of a cell field at interior faces: (f_{i+1}-f_i)/h."""
    return -dual_transpose(f, axis, h)


def _diff(f: np.ndarray, ax: int) -> np.ndarray:
    """Forward difference f[i+1] - f[i] along an axis."""
    return _slc(f, ax, slice(1, None)) - _slc(f, ax, slice(None, -1))


@dataclass
class SpatialDiscretization:
    grid: GridSpec
    params: ModelParams
    _warned_sound: bool = field(default=False, repr=False)

    # -- small helpers ----------------------------------------------------

    def _sound(self, rho: np.ndarray) -> np.ndarray:
        """Non-stiff sound speed; nonpositive reconstructed densities fall
        back to zero sound speed (advective bound only), logged once."""
        bad = rho <= 0.0
        if np.any(bad):
            if not self._warned_sound:
                log.warning("nonpositive reconstructed density; "
                            "using |v| bound for the numerical viscosity")
                self._warned_sound = True
            safe = np.where(bad, 1.0, rho)
            s = model.sound_speed(safe, self.params)
            return np.where(bad, 0.0, s)
        return model.sound_speed(rho, self.params)

    def _lam(self, vm, vp, rm, rp) -> np.ndarray:
        return np.maximum(np.abs(vm) + self._sound(rm),
                          np.abs(vp) + self._sound(rp))

    def _dual(self, f, axis):
        return apply_fd_operator("dual", axis, f, self.grid.h)

    # -- convection --------------------------------------------------------

    def convective(self, Ut: State, U: State) -> State:
        """Mass transport div(rho_* v) from the implicit state plus Rusanov
        fluxes from the explicit state, one pass per axis.

        The mass diffusion and the phase-momentum flux along an axis share
        its Rusanov speed.  Momentum component a gets the normal flux
        rho v_a^2 + p1 along a and the corner flux rho v1 v2 along every
        transverse axis.
        """
        g, h, p = GHOST, self.grid.h, self.params
        axes = AXES[:self.grid.dim]
        out = self.mass_divergence(U)
        v = Ut.velocities()
        v_ext = [extend_face_interior(va, a) for a, va in zip(axes, v)]
        v_cell = [faces_to_cells6(ve, a) for a, ve in zip(axes, v_ext)]
        rho_ext = [extend_cell(Ut.rho, a, "sym") for a in axes]

        # mass: Rusanov diffusion from WENO states at the faces 0..M; the
        # wall entries cancel by the mirror symmetry of the density
        lam_rho = []
        for k, a in enumerate(axes):
            r_m, r_p = reconstruct_lr_cells(rho_ext[k], a)
            w_m, w_p = reconstruct_lr_cells(
                extend_cell(v_cell[k], a, "odd"), a)
            lam = self._lam(w_m, w_p, r_m, r_p)
            lam_rho.append(lam)
            d = 0.5 * lam * (r_p - r_m)
            out.rho += self._dual(_slc(d, k, slice(1, -1)), a)

        # momentum: dual-grid reconstruction of rho v_a^2 + p1 and rho v_a
        mom = []
        for k, a in enumerate(axes):
            rho_f = cells_to_faces6(rho_ext[k], a)      # faces 0..M along a
            v_full = _slc(v_ext[k], k, slice(g, -g))
            flux = rho_f * v_full**2 + model.p1(rho_f, p)
            F_m, F_p = reconstruct_lr_faces(extend_face_full(flux, a, 1.0), a)
            m_m, m_p = reconstruct_lr_faces(
                extend_face_full(rho_f * v_full, a, -1.0), a)
            w_m, w_p = reconstruct_lr_faces(
                extend_face_full(v_full, a, -1.0), a)
            r_m, r_p = reconstruct_lr_faces(extend_face_full(rho_f, a, 1.0), a)
            lam = self._lam(w_m, w_p, r_m, r_p)
            Fhat = 0.5 * (F_p + F_m) - 0.5 * lam * (m_p - m_m)
            m_a = dual_transpose(Fhat, a, h)
            rho_fi = _slc(rho_f, k, slice(1, -1))
            for j, b in enumerate(axes):
                if j == k:
                    continue
                # corner flux at the a-faces: v_b brought there by corner
                # averaging along a and a sixth-order transfer along b.
                # Across a b-wall both velocity components are odd, so the
                # flux rho v1 v2 is even and the momentum rho v_a is odd.
                vb = faces_to_cells6(
                    extend_face_interior(face_average(v[j], a), b), b)
                v_at = list(v)
                v_at[j] = vb
                qty = rho_fi * v_at[0] * v_at[1]
                c_m, c_p = reconstruct_lr_cells(extend_cell(qty, b, "sym"), b)
                m_m, m_p = reconstruct_lr_cells(
                    extend_cell(rho_fi * v[k], b, "odd"), b)
                w_m, w_p = reconstruct_lr_cells(extend_cell(vb, b, "odd"), b)
                r_m, r_p = reconstruct_lr_cells(
                    extend_cell(rho_fi, b, "sym"), b)
                lam = self._lam(w_m, w_p, r_m, r_p)
                Ghat = 0.5 * (c_p + c_m) - 0.5 * lam * (m_p - m_m)
                m_a += -_diff(Ghat, j) / h
            mom.append(m_a)
        out.momenta = mom

        # phase momentum: primal reconstruction of rho c v_a
        dq = []
        for k, a in enumerate(axes):
            r_m, r_p = reconstruct_lr_cells(
                extend_cell(Ut.q * v_cell[k], a, "odd"), a)
            q_m, q_p = reconstruct_lr_cells(extend_cell(Ut.q, a, "sym"), a)
            Fc = 0.5 * (r_p + r_m) - 0.5 * lam_rho[k] * (q_p - q_m)
            dq.append(-_diff(Fc, k) / h)
        out.q = axis_sum(dq)
        return out

    # -- pressure and gravity ----------------------------------------------

    def pressure(self, U: State) -> State:
        """Implicit stiff pressure gradient -grad p2."""
        out = U.zeros_like()
        p2 = model.p2_centered(U.rho, self.params, float(U.rho.mean()))
        out.momenta = [dual_transpose(p2, a, self.grid.h)
                       for a in AXES[:self.grid.dim]]
        return out

    def gravity(self, Ut: State) -> State:
        """Explicit buoyancy source on the vertical momentum."""
        out = Ut.zeros_like()
        if self.grid.dim == 1:
            out.mx = self.params.g * face_average(Ut.rho, "x")
        else:
            out.my = self.params.g * face_average(Ut.rho, "y")
        return out

    # -- capillary forces ---------------------------------------------------

    def capillary(self, Ut: State) -> State:
        h, eps = self.grid.h, self.params.eps
        out = Ut.zeros_like()
        c = Ut.c()
        if self.grid.dim == 1:
            cx2 = apply_fd_operator("center", "x", c, h) ** 2
            out.mx = -0.5 * eps * _grad_to_faces(cx2, "x", h)
            return out
        cx2 = apply_fd_operator("center", "x", c, h) ** 2
        cy2 = apply_fd_operator("center", "y", c, h) ** 2
        corner_cx = face_average(_grad_to_faces(c, "x", h), "y")
        corner_cy = face_average(_grad_to_faces(c, "y", h), "x")
        cxcy = corner_cx * corner_cy
        out.mx = eps * (0.5 * _grad_to_faces(cy2 - cx2, "x", h)
                        - self._dual(cxcy, "y"))
        out.my = eps * (0.5 * _grad_to_faces(cx2 - cy2, "y", h)
                        - self._dual(cxcy, "x"))
        return out

    # -- Cahn-Hilliard -------------------------------------------------------

    def ch_convex(self, U: State) -> State:
        """Implicit (convex) phase-field tendency."""
        h, eps = self.grid.h, self.params.eps
        out = U.zeros_like()
        lap = laplacian_neumann(U.q / U.rho, h)
        out.q = 2.0 * lap - eps * laplacian_neumann(lap / U.rho, h)
        return out

    def ch_concave(self, Ut: State) -> State:
        """Explicit (concave) phase-field tendency in flux form."""
        h = self.grid.h
        out = Ut.zeros_like()
        ct = Ut.q / Ut.rho
        psi2 = model.ddpsi2(ct)
        for ax in AXES[:self.grid.dim]:
            a = 0 if ax == "x" else 1
            hi = [slice(None)] * ct.ndim
            lo = [slice(None)] * ct.ndim
            hi[a], lo[a] = slice(1, None), slice(None, -1)
            hi, lo = tuple(hi), tuple(lo)
            flux = 0.5 * (psi2[hi] + psi2[lo]) * (ct[hi] - ct[lo]) / h
            out.q += self._dual(flux, ax)
        return out

    # -- viscosity -----------------------------------------------------------

    def _dtd(self, v: np.ndarray, axis) -> np.ndarray:
        """D^T D along an axis: wall-anchored negated second difference."""
        return dual_transpose(self._dual(v, axis), axis, self.grid.h)

    def _rop(self, v: np.ndarray, axis) -> np.ndarray:
        """Negated second difference transverse to a face field, with the
        stronger (-3v) no-slip wall rows."""
        a = 0 if axis in (0, "x") else 1
        h2 = self.grid.h ** 2
        out = np.empty_like(v, dtype=float)
        mid = [slice(None)] * v.ndim
        hi = [slice(None)] * v.ndim
        lo = [slice(None)] * v.ndim
        mid[a], hi[a], lo[a] = slice(1, -1), slice(2, None), slice(None, -2)
        out[tuple(mid)] = (2 * v[tuple(mid)] - v[tuple(hi)]
                           - v[tuple(lo)]) / h2
        first = [slice(None)] * v.ndim
        second = [slice(None)] * v.ndim
        first[a], second[a] = slice(0, 1), slice(1, 2)
        out[tuple(first)] = (3 * v[tuple(first)] - v[tuple(second)]) / h2
        last = [slice(None)] * v.ndim
        penult = [slice(None)] * v.ndim
        last[a], penult[a] = slice(-1, None), slice(-2, -1)
        out[tuple(last)] = (3 * v[tuple(last)] - v[tuple(penult)]) / h2
        return out

    def viscous_apply(self, v1: np.ndarray, v2: np.ndarray | None = None):
        """Apply the symmetric viscous blocks to face velocities.

        Returns (A11 v1 + A12 v2, A21 v1 + A22 v2) in 2D, (A v,) in 1D.
        Along its own axis a component feels (2 nu + lam) D^T D; along a
        transverse axis b it feels nu times the no-slip second difference
        and (nu + lam) times the grad-div coupling to v_b.
        """
        nu, lam, h = self.params.nu, self.params.lam, self.grid.h
        axes = AXES[:self.grid.dim]
        v = (v1, v2)[:self.grid.dim]
        out = []
        for k, a in enumerate(axes):
            acc = (2 * nu + lam) * self._dtd(v[k], a)
            for j, b in enumerate(axes):
                if j != k:
                    acc = acc + nu * self._rop(v[k], b) \
                        + (nu + lam) * dual_transpose(self._dual(v[j], b),
                                                      a, h)
            out.append(acc)
        return tuple(out)

    def viscous(self, U: State) -> State:
        out = U.zeros_like()
        out.momenta = [-a for a in self.viscous_apply(*U.velocities())]
        return out

    # -- IMEX split and full right-hand side ----------------------------------

    def mass_divergence(self, U: State) -> State:
        """Implicit centered mass transport -div(rho_* v)."""
        out = U.zeros_like()
        out.rho = axis_sum([-self._dual(m, a)
                            for a, m in zip(AXES, U.momenta)])
        return out

    def explicit_tendency(self, Ut: State,
                          forcing: State | None = None) -> State:
        """All terms evaluated at the explicitly-known stage state."""
        out = self.convective(Ut, Ut.zeros_like())
        for t in (self.gravity(Ut), self.capillary(Ut), self.ch_concave(Ut)):
            out.axpy(1.0, t)
        if forcing is not None:
            out.axpy(1.0, forcing)
        return out

    def implicit_tendency(self, U: State) -> State:
        """All terms evaluated at the implicitly-solved stage state."""
        out = self.mass_divergence(U)
        for t in (self.pressure(U), self.ch_convex(U), self.viscous(U)):
            out.axpy(1.0, t)
        return out

    def total_rhs(self, Ut: State, U: State,
                  forcing: State | None = None) -> State:
        return self.explicit_tendency(Ut, forcing).axpy(
            1.0, self.implicit_tendency(U))
