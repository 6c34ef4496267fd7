"""Semi-discrete tendency operators on the staggered grid.

The right-hand side is split for IMEX integration into terms evaluated at an
explicit ("tilde") state and terms evaluated at the implicit state:

* convective:  mass transport div(rho_* v) from the implicit state
  (`mass_divergence`, part of `hydro_tendency`) plus its Rusanov diffusion
  from the explicit state; momentum and phase-momentum fluxes fully explicit
  (`rusanov`: WENO5-reconstructed Rusanov fluxes);
* pressure/gravity:  stiff pressure gradient -grad p2 implicit, gravity on
  the explicit density;
* capillary:  explicit, from the explicit concentration;
* Cahn-Hilliard:  convex part (2 Laplacian and the fourth-order term)
  implicit, concave flux-form part explicit;
* viscous:  implicit.

The implicit hydro terms (mass transport, stiff pressure, viscosity) have one
array-level definition, `hydro_tendency`, which the Newton residual of the
solvers module evaluates.  The viscous term is applied as the sparse blocks
of `operators.viscous_blocks`, the same matrices the Newton Jacobian holds;
every other term is a stencil on the field arrays.
"""

from __future__ import annotations

import functools
import logging
import operator
from dataclasses import dataclass, field

import numpy as np

from . import model
from .grid import (GHOST, GridSpec, _slc, apply_fd_operator, axis_sum,
                   cells_to_faces6, dual_transpose, extend_cell,
                   extend_face_full, extend_face_interior, face_average,
                   faces_to_cells6, laplacian_neumann)
from .model import ModelParams
from .operators import viscous_blocks
from .state import State
from .weno import reconstruct_lr_cells, reconstruct_lr_faces

log = logging.getLogger(__name__)

#: mirror parity of the four fields of a reconstructed stack
_PARITY = np.array([1.0, -1.0, -1.0, 1.0])


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

    def _rusanov_flux(self, minus, plus) -> np.ndarray:
        """Rusanov flux 0.5 (F+ + F-) - 0.5 lam (u+ - u-) from the states of
        a stack [F, u, v, rho]: a flux, its conserved quantity, the normal
        velocity and the density, which give the speed lam."""
        (F_m, u_m, v_m, r_m), (F_p, u_p, v_p, r_p) = minus, plus
        lam = self._lam(v_m, v_p, r_m, r_p)
        return 0.5 * (F_p + F_m) - 0.5 * lam * (u_p - u_m)

    def rusanov(self, Ut: State) -> State:
        """The explicit convective terms: WENO5-reconstructed Rusanov fluxes
        from the explicit state, one pass per axis.

        A pass reconstructs one stack of four fields per staggered location,
        ghost-extended once with a parity per field (even, odd, odd, even):
        [rho, v_k, q v_k, q] at the cells along k, v_k transferred to the
        cells, where the mass diffusion and the phase-momentum flux share
        the Rusanov speed;
        [rho v_k^2 + p1, rho v_k, v_k, rho] at the faces along k, the normal
        flux of momentum component k; and [rho v1 v2, rho v_k, v_j, rho] at
        the k-faces along every transverse axis j, its corner flux.
        """
        g, h, p = GHOST, self.grid.h, self.params
        dim = self.grid.dim
        parity = _PARITY.reshape((-1,) + (1,) * dim)
        v = Ut.velocities()
        diff, dq, mom = [], [], []
        for k in range(dim):
            v_ext = extend_face_interior(v[k], k)
            v_cell = faces_to_cells6(v_ext, k)
            cells = extend_cell(np.stack([Ut.rho, v_cell, Ut.q * v_cell,
                                          Ut.q]), k + 1, parity)
            (r_m, w_m, f_m, q_m), (r_p, w_p, f_p, q_p) = \
                reconstruct_lr_cells(cells, k + 1)
            lam = self._lam(w_m, w_p, r_m, r_p)
            # mass: Rusanov diffusion from WENO states at the faces 0..M; the
            # wall entries cancel by the mirror symmetry of the density
            d = 0.5 * lam * (r_p - r_m)
            diff.append(self._dual(_slc(d, k, slice(1, -1)), k))
            # phase momentum: primal reconstruction of rho c v_k
            Fc = 0.5 * (f_p + f_m) - 0.5 * lam * (q_p - q_m)
            dq.append(-_diff(Fc, k) / h)

            # momentum: dual-grid reconstruction of rho v_k^2 + p1 and rho v_k
            rho_f = cells_to_faces6(cells[0], k)        # faces 0..M along k
            v_full = _slc(v_ext, k, slice(g, -g))
            flux = rho_f * v_full**2 + model.p1(rho_f, p)
            faces = extend_face_full(np.stack([flux, rho_f * v_full, v_full,
                                               rho_f]), k + 1, parity)
            m_k = dual_transpose(
                self._rusanov_flux(*reconstruct_lr_faces(faces, k + 1)), k, h)
            rho_fi = _slc(rho_f, k, slice(1, -1))
            for j in range(dim):
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
                corners = extend_cell(np.stack([qty, rho_fi * v[k], vj,
                                                rho_fi]), j + 1, parity)
                Ghat = self._rusanov_flux(
                    *reconstruct_lr_cells(corners, j + 1))
                m_k += -_diff(Ghat, j) / h
            mom.append(m_k)
        return State(axis_sum(diff), axis_sum(dq), tuple(mom))

    # -- gravity -------------------------------------------------------------

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

    @staticmethod
    def ch_convex_term(c: np.ndarray, rho: np.ndarray, eps: float,
                       h: float) -> np.ndarray:
        """The convex Cahn-Hilliard term 2 L c - eps L(L c / rho) on cell
        arrays, L the Neumann Laplacian.  The only definition of the
        operator the concentration stage solves with; `ch_convex` applies
        it to c = q/rho, the c-stage CG to its iterates."""
        lap = laplacian_neumann(c, h)
        return 2.0 * lap - eps * laplacian_neumann(lap / rho, h)

    def ch_convex(self, U: State) -> State:
        """Implicit (convex) phase-field tendency."""
        out = U.zeros_like()
        out.q = self.ch_convex_term(U.q / U.rho, U.rho, self.params.eps,
                                    self.grid.h)
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

    # -- implicit hydro terms ------------------------------------------------

    def _mass_transport(self, m) -> np.ndarray:
        """-div m of the face momenta m, in axis order."""
        return axis_sum([-self._dual(mk, k) for k, mk in enumerate(m)])

    def _pressure_force(self, rho: np.ndarray) -> list:
        """-grad p2 at the faces of each axis.  The centered stiff pressure
        is identical under the discrete gradient, but free of cancellation
        noise at large cp2."""
        p2 = model.p2_centered(rho, self.params, float(rho.mean()))
        return [dual_transpose(p2, k, self.grid.h)
                for k in range(self.grid.dim)]

    def viscous_apply(self, *v: np.ndarray):
        """Apply the symmetric viscous blocks B[k][j] of
        operators.viscous_blocks to face velocities in axis order.

        Returns (B11 v1 + B12 v2, B21 v1 + B22 v2) in 2D, (B v,) in 1D.
        """
        g, p = self.grid, self.params
        B = viscous_blocks(g.dim, g.M, g.h, p.nu, p.lam)
        flat = [np.ravel(vj, order="F") for vj in v]
        return tuple(axis_sum([Bkj @ vj for Bkj, vj in zip(Bk, flat)])
                     .reshape(vk.shape, order="F")
                     for Bk, vk in zip(B, v))

    def hydro_tendency(self, rho: np.ndarray, m, v) -> tuple:
        """The implicit hydro tendency T on arrays, for the density rho and
        the face momenta m = A(rho) v and velocities v in axis order.

        Returns (T_rho, T_m): the mass transport -div m, and per axis k
        the stiff pressure force -grad p2 plus the viscous force -(B v)_k.
        """
        visc = self.viscous_apply(*v)
        return self._mass_transport(m), \
            tuple(f - a for f, a in zip(self._pressure_force(rho), visc))

    def mass_divergence(self, U: State) -> State:
        """Implicit centered mass transport -div(rho_* v)."""
        out = U.zeros_like()
        out.rho = self._mass_transport(U.m)
        return out

    def pressure(self, U: State) -> State:
        """Implicit stiff pressure gradient -grad p2."""
        out = U.zeros_like()
        out.m = tuple(self._pressure_force(U.rho))
        return out

    def viscous(self, U: State) -> State:
        """Implicit viscous force -B v."""
        out = U.zeros_like()
        out.m = tuple(-a for a in self.viscous_apply(*U.velocities()))
        return out

    # -- IMEX split ---------------------------------------------------------

    def explicit_tendency(self, Ut: State,
                          forcing: State | None = None) -> State:
        """All terms evaluated at the explicitly-known stage state."""
        out = self.rusanov(Ut)
        for t in (self.gravity(Ut), self.capillary(Ut), self.ch_concave(Ut)):
            out.axpy(1.0, t)
        if forcing is not None:
            out.axpy(1.0, forcing)
        return out

    def implicit_tendency(self, U: State) -> State:
        """All terms evaluated at the implicitly-solved stage state."""
        out = self.ch_convex(U)
        out.rho, out.m = self.hydro_tendency(U.rho, U.m, U.velocities())
        return out
