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

import functools
import logging
import operator
from dataclasses import dataclass, field

import numpy as np

from . import model
from .grid import (GHOST, GridSpec, _set, _slc, apply_fd_operator, axis_sum,
                   cells_to_faces6, dual_transpose, extend_cell,
                   extend_face_full, extend_face_interior, face_average,
                   faces_to_cells6, laplacian_neumann)
from .model import ModelParams
from .state import State
from .weno import reconstruct_lr_cells, reconstruct_lr_faces

log = logging.getLogger(__name__)


def _grad_to_faces(f: np.ndarray, ax: int, h: float) -> np.ndarray:
    """Two-point gradient of a cell field at interior faces: (f_{i+1}-f_i)/h."""
    return -dual_transpose(f, ax, h)


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

    def _dual(self, f, ax: int):
        return apply_fd_operator("dual", ax, f, self.grid.h)

    # -- convection --------------------------------------------------------

    def convective(self, Ut: State, U: State) -> State:
        """Mass transport div(rho_* v) from the implicit state plus Rusanov
        fluxes from the explicit state, one pass per axis.

        The mass diffusion and the phase-momentum flux along an axis share
        its Rusanov speed.  Momentum component k gets the normal flux
        rho v_k^2 + p1 along k and the corner flux rho v1 v2 along every
        transverse axis.
        """
        g, h, p = GHOST, self.grid.h, self.params
        axes = range(self.grid.dim)
        out = self.mass_divergence(U)
        v = Ut.velocities()
        v_ext = [extend_face_interior(vk, k) for k, vk in enumerate(v)]
        v_cell = [faces_to_cells6(ve, k) for k, ve in enumerate(v_ext)]
        rho_ext = [extend_cell(Ut.rho, k, "sym") for k in axes]

        # mass: Rusanov diffusion from WENO states at the faces 0..M; the
        # wall entries cancel by the mirror symmetry of the density
        lam_rho = []
        for k in axes:
            r_m, r_p = reconstruct_lr_cells(rho_ext[k], k)
            w_m, w_p = reconstruct_lr_cells(
                extend_cell(v_cell[k], k, "odd"), k)
            lam = self._lam(w_m, w_p, r_m, r_p)
            lam_rho.append(lam)
            d = 0.5 * lam * (r_p - r_m)
            out.rho += self._dual(_slc(d, k, slice(1, -1)), k)

        # momentum: dual-grid reconstruction of rho v_k^2 + p1 and rho v_k
        mom = []
        for k in axes:
            rho_f = cells_to_faces6(rho_ext[k], k)      # faces 0..M along k
            v_full = _slc(v_ext[k], k, slice(g, -g))
            flux = rho_f * v_full**2 + model.p1(rho_f, p)
            F_m, F_p = reconstruct_lr_faces(extend_face_full(flux, k, 1.0), k)
            m_m, m_p = reconstruct_lr_faces(
                extend_face_full(rho_f * v_full, k, -1.0), k)
            w_m, w_p = reconstruct_lr_faces(
                extend_face_full(v_full, k, -1.0), k)
            r_m, r_p = reconstruct_lr_faces(extend_face_full(rho_f, k, 1.0), k)
            lam = self._lam(w_m, w_p, r_m, r_p)
            Fhat = 0.5 * (F_p + F_m) - 0.5 * lam * (m_p - m_m)
            m_k = dual_transpose(Fhat, k, h)
            rho_fi = _slc(rho_f, k, slice(1, -1))
            for j in axes:
                if j == k:
                    continue
                # corner flux at the k-faces: v_j brought there by corner
                # averaging along k and a sixth-order transfer along j.
                # Across a j-wall both velocity components are odd, so the
                # flux rho v1 v2 is even and the momentum rho v_k is odd.
                vj = faces_to_cells6(
                    extend_face_interior(face_average(v[j], k), j), j)
                v_at = list(v)
                v_at[j] = vj
                qty = rho_fi * v_at[0] * v_at[1]
                c_m, c_p = reconstruct_lr_cells(extend_cell(qty, j, "sym"), j)
                m_m, m_p = reconstruct_lr_cells(
                    extend_cell(rho_fi * v[k], j, "odd"), j)
                w_m, w_p = reconstruct_lr_cells(extend_cell(vj, j, "odd"), j)
                r_m, r_p = reconstruct_lr_cells(
                    extend_cell(rho_fi, j, "sym"), j)
                lam = self._lam(w_m, w_p, r_m, r_p)
                Ghat = 0.5 * (c_p + c_m) - 0.5 * lam * (m_p - m_m)
                m_k += -_diff(Ghat, j) / h
            mom.append(m_k)
        out.m = tuple(mom)

        # phase momentum: primal reconstruction of rho c v_k
        dq = []
        for k in axes:
            r_m, r_p = reconstruct_lr_cells(
                extend_cell(Ut.q * v_cell[k], k, "odd"), k)
            q_m, q_p = reconstruct_lr_cells(extend_cell(Ut.q, k, "sym"), k)
            Fc = 0.5 * (r_p + r_m) - 0.5 * lam_rho[k] * (q_p - q_m)
            dq.append(-_diff(Fc, k) / h)
        out.q = axis_sum(dq)
        return out

    # -- pressure and gravity ----------------------------------------------

    def pressure(self, U: State) -> State:
        """Implicit stiff pressure gradient -grad p2."""
        out = U.zeros_like()
        p2 = model.p2_centered(U.rho, self.params, float(U.rho.mean()))
        out.m = tuple(dual_transpose(p2, k, self.grid.h)
                      for k in range(self.grid.dim))
        return out

    def gravity(self, Ut: State) -> State:
        """Explicit buoyancy source on the momentum of the last axis."""
        out = Ut.zeros_like()
        last = self.grid.dim - 1
        out.m = out.m[:last] + (self.params.g * face_average(Ut.rho, last),)
        return out

    # -- capillary forces ---------------------------------------------------

    def capillary(self, Ut: State) -> State:
        """Explicit capillary force: momentum k gets
        eps (grad_k(sum_{j!=k} c_j^2 - c_k^2)/2 - sum_{j!=k} dual_j(corner)),
        c_j the centered derivatives and corner the product, in axis order,
        of the face gradients of c averaged to the cell corners."""
        h, eps, dim = self.grid.h, self.params.eps, self.grid.dim
        out = Ut.zeros_like()
        c = Ut.c()
        c2 = [apply_fd_operator("center", k, c, h) ** 2 for k in range(dim)]
        grads = []
        for k in range(dim):
            gk = _grad_to_faces(c, k, h)
            for j in range(dim):
                if j != k:
                    gk = face_average(gk, j)      # to the cell corners
            grads.append(gk)
        corner = functools.reduce(operator.mul, grads)
        mom = []
        for k in range(dim):
            others = [j for j in range(dim) if j != k]
            # -c_k^2 first: in 1D the sum is just -c_k^2
            s = sum((c2[j] for j in others), -c2[k])
            t = 0.5 * _grad_to_faces(s, k, h)
            for j in others:
                t = t - self._dual(corner, j)
            mom.append(eps * t)
        out.m = tuple(mom)
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
        for k in range(self.grid.dim):
            flux = face_average(psi2, k) * _diff(ct, k) / h
            out.q += self._dual(flux, k)
        return out

    # -- viscosity -----------------------------------------------------------

    def _dtd(self, v: np.ndarray, ax: int) -> np.ndarray:
        """D^T D along an axis: wall-anchored negated second difference."""
        return dual_transpose(self._dual(v, ax), ax, self.grid.h)

    def _rop(self, v: np.ndarray, ax: int) -> np.ndarray:
        """Negated second difference transverse to a face field, with the
        stronger (-3v) no-slip wall rows."""
        h2 = self.grid.h ** 2

        def at(s):
            return _slc(v, ax, s)

        out = np.empty_like(v, dtype=float)
        _set(out, ax, slice(1, -1), (2 * at(slice(1, -1)) - at(slice(2, None))
                                     - at(slice(None, -2))) / h2)
        _set(out, ax, slice(0, 1), (3 * at(slice(0, 1)) - at(slice(1, 2))) / h2)
        _set(out, ax, slice(-1, None),
             (3 * at(slice(-1, None)) - at(slice(-2, -1))) / h2)
        return out

    def viscous_apply(self, *v: np.ndarray):
        """Apply the symmetric viscous blocks to face velocities in axis
        order.

        Returns (A11 v1 + A12 v2, A21 v1 + A22 v2) in 2D, (A v,) in 1D.
        Along its own axis a component feels (2 nu + lam) D^T D; along a
        transverse axis j it feels nu times the no-slip second difference
        and (nu + lam) times the grad-div coupling to v_j.
        """
        nu, lam, h = self.params.nu, self.params.lam, self.grid.h
        out = []
        for k, vk in enumerate(v):
            acc = (2 * nu + lam) * self._dtd(vk, k)
            for j, vj in enumerate(v):
                if j != k:
                    acc = acc + nu * self._rop(vk, j) \
                        + (nu + lam) * dual_transpose(self._dual(vj, j),
                                                      k, h)
            out.append(acc)
        return tuple(out)

    def viscous(self, U: State) -> State:
        out = U.zeros_like()
        out.m = tuple(-a for a in self.viscous_apply(*U.velocities()))
        return out

    # -- IMEX split and full right-hand side ----------------------------------

    def mass_divergence(self, U: State) -> State:
        """Implicit centered mass transport -div(rho_* v)."""
        out = U.zeros_like()
        out.rho = axis_sum([-self._dual(mk, k) for k, mk in enumerate(U.m)])
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
