"""Semi-discrete tendency operators on the staggered grid.

The right-hand side is split for IMEX integration into terms evaluated at an
explicit ("tilde") state and terms evaluated at the implicit state:

* convective:  mass transport div(rho_* v) from the implicit state (part of
  `hydro_tendency`) plus its Rusanov diffusion from the explicit state;
  momentum and phase-momentum fluxes fully explicit (`rusanov`:
  WENO5-reconstructed Rusanov fluxes);
* pressure/gravity:  stiff pressure gradient -grad p2 implicit, gravity on
  the explicit density;
* capillary:  explicit, from the explicit concentration;
* Cahn-Hilliard:  convex part (2 Laplacian and the fourth-order term)
  implicit, concave flux-form part explicit;
* viscous:  implicit.

The implicit terms are the sparse matrices of `operators.implicit_operators`
applied to packed column-major vectors: `hydro_tendency` (mass transport,
stiff pressure, viscosity), which the Newton residual of the solvers module
evaluates and whose Jacobian is built from the same matrices, and
`ch_convex_term`, which the concentration solve applies.  The explicit terms
are stencils on the field arrays.
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
                   faces_to_cells6)
from .model import ModelParams
from .operators import implicit_operators
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

    def __post_init__(self):
        g, p = self.grid, self.params
        #: the implicit operators of the grid, shared through their cache
        self.ops = implicit_operators(g.dim, g.M, g.h, p.nu, p.lam)
        #: field shape per packed block: cells, then the faces of each axis
        self.shapes = [(g.M,) * g.dim] + [
            tuple(g.M - 1 if i == k else g.M for i in range(g.dim))
            for k in range(g.dim)]
        self._split = np.cumsum([np.prod(s) for s in self.shapes])[:-1]

    # -- packed vectors: [rho; v_1; v_2], each flattened column-major ------

    @staticmethod
    def pack(*fields) -> np.ndarray:
        """Stack fields into one column-major vector: a cell field and the
        face fields of each axis in axis order, or the face fields alone."""
        return np.concatenate([np.ravel(f, order="F") for f in fields])

    def unpack(self, z):
        """Split a packed [rho; v_1; ...] into (rho, [v_1, ...]) field-shaped
        views; 1D has the single v_1."""
        rho, *v = (f.reshape(s, order="F")
                   for f, s in zip(np.split(z, self._split), self.shapes))
        return rho, v

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
                       L) -> np.ndarray:
        """The convex Cahn-Hilliard term 2 L c - eps L(L c / rho) on
        column-major cell vectors, L the Neumann Laplacian matrix.  The only
        definition of the operator the concentration stage solves with;
        `ch_convex` applies it to c = q/rho, the c-stage CG to its
        iterates."""
        lap = L @ c
        return 2.0 * lap - eps * (L @ (lap / rho))

    def ch_convex(self, U: State) -> State:
        """Implicit (convex) phase-field tendency."""
        out = U.zeros_like()
        rho = np.ravel(U.rho, order="F")
        out.q = self.ch_convex_term(np.ravel(U.q, order="F") / rho, rho,
                                    self.params.eps, self.ops.L) \
            .reshape(U.q.shape, order="F")
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

    def hydro_tendency(self, rho: np.ndarray, m: np.ndarray,
                       v: np.ndarray) -> tuple:
        """The implicit hydro tendency T on packed vectors, for the density
        rho, the face momenta m = (A rho) v and the face velocities v.

        Returns (T_rho, T_m): the mass transport -D m, and the stiff
        pressure force G p2 = D^T p2 less the viscous force B v.  The
        centered stiff pressure is identical under G, which annihilates
        constants, but free of cancellation noise at large cp2."""
        ops = self.ops
        p2 = model.p2_centered(rho, self.params, float(rho.mean()))
        return -(ops.D @ m), ops.G @ p2 - ops.B @ v

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
        t_rho, t_m = self.hydro_tendency(np.ravel(U.rho, order="F"),
                                         self.pack(*U.m),
                                         self.pack(*U.velocities()))
        out.rho, m = self.unpack(np.concatenate([t_rho, t_m]))
        out.m = tuple(m)
        return out
