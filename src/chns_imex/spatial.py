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
from .grid import (GHOST, GridSpec, _slc, axis_sum, cells_to_faces6, center,
                   diff, dual, extend_cell, extend_face_interior,
                   face_average, faces_to_cells6)
from .model import ModelParams
from .operators import implicit_operators
from .state import State
from .weno import reconstruct_lr_cells, reconstruct_lr_faces, rusanov_flux

log = logging.getLogger(__name__)

#: mirror parity of the fields [F, u, v, rho] of a face or corner stack: an
#: even flux, an odd momentum and velocity, an even density
_PARITY = np.array([1.0, -1.0, -1.0, 1.0])
#: the same for the cell stack [q v_k, q, v_k, rho]: the flux is odd
_PARITY_CELLS = np.array([-1.0, 1.0, -1.0, 1.0])


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
        # where each block starts in [rho; v_1; ...], and its length last
        self._starts = np.cumsum([0] + [np.prod(s) for s in self.shapes])

    # -- packed vectors: [rho; v_1; v_2], each flattened column-major ------

    @staticmethod
    def pack(*fields) -> np.ndarray:
        """Stack fields into one column-major vector: a cell field and the
        face fields of each axis in axis order, or the face fields alone."""
        return np.concatenate([np.ravel(f, order="F") for f in fields])

    def unpack(self, z):
        """Split a packed [rho; v_1; ...] into (rho, [v_1, ...]), or packed
        face velocities [v_1; ...] alone into [v_1, ...], as field-shaped
        views; 1D has the single v_1."""
        faces = int(z.size < self._starts[-1])      # 1 when rho is absent
        off = self._starts[faces:] - self._starts[faces]
        views = [z[a:b].reshape(s, order="F")
                 for a, b, s in zip(off, off[1:], self.shapes[faces:])]
        return views if faces else (views[0], views[1:])

    # -- small helpers ----------------------------------------------------

    def _sound(self, rho: np.ndarray) -> np.ndarray:
        """Non-stiff sound speed; nonpositive reconstructed densities fall
        back to zero sound speed (advective bound only), logged once.  The
        positivity scan is the one of `model.sound_speed`."""
        try:
            return model.sound_speed(rho, self.params)
        except model.NonPositiveDensityError:
            pass
        if not self._warned_sound:
            log.warning("nonpositive reconstructed density; "
                        "using |v| bound for the numerical viscosity")
            self._warned_sound = True
        bad = rho <= 0.0
        s = model.sound_speed(np.where(bad, 1.0, rho), self.params)
        return np.where(bad, 0.0, s)

    # -- convection --------------------------------------------------------

    def _rusanov_flux(self, minus, plus, diffusion=False):
        """(flux, mass diffusion) of `weno.rusanov_flux` from the states of a
        stack [F, u, v, rho], with the sound speeds of `_sound` at the
        reconstructed densities."""
        return rusanov_flux(minus, plus, self._sound(minus[3]),
                            self._sound(plus[3]), diffusion)

    def rusanov(self, Ut: State) -> State:
        """The explicit convective terms: WENO5-reconstructed Rusanov fluxes
        from the explicit state, one pass per axis.

        A pass reconstructs one stack [F, u, v, rho] per staggered location
        (a flux, its conserved quantity, the normal velocity and the
        density, which give the Rusanov speed), each field mirrored at the
        walls with its parity:
        [q v_k, q, v_k, rho] at the cells along k, v_k transferred to the
        cells, where the phase-momentum flux and the mass diffusion share
        the Rusanov speed;
        [rho v_k^2 + p1, rho v_k, v_k, rho] at the faces along k, the normal
        flux of momentum component k; and [rho v1 v2, rho v_k, v_j, rho] at
        the k-faces along every transverse axis j, its corner flux.
        """
        h, p = self.grid.h, self.params
        dim = self.grid.dim
        v = Ut.velocities()
        mass, dq, mom = [], [], []
        for k in range(dim):
            v_ext = extend_face_interior(v[k], k)
            v_cell = faces_to_cells6(v_ext, k)
            Fc, d = self._rusanov_flux(*reconstruct_lr_cells(
                np.stack([Ut.q * v_cell, Ut.q, v_cell, Ut.rho]), k + 1,
                _PARITY_CELLS), diffusion=True)
            # mass: Rusanov diffusion from WENO states at the faces 0..M; the
            # wall entries cancel by the mirror symmetry of the density
            mass.append(dual(_slc(d, k, slice(1, -1)), k, h))
            # phase momentum: primal reconstruction of rho c v_k
            dq.append(-diff(Fc, k) / h)

            # momentum: dual-grid reconstruction of rho v_k^2 + p1 and rho v_k
            # the density at the faces 0..M along k, from its mirror ghosts
            rho_f = cells_to_faces6(extend_cell(Ut.rho, k, 1.0), k)
            v_full = _slc(v_ext, k, slice(GHOST, -GHOST))
            flux = rho_f * v_full**2 + model.p1(rho_f, p)
            faces = np.stack([flux, rho_f * v_full, v_full, rho_f])
            m_k = -diff(self._rusanov_flux(*reconstruct_lr_faces(
                faces, k + 1, _PARITY))[0], k) / h
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
                corners = np.stack([qty, rho_fi * v[k], vj, rho_fi])
                Ghat = self._rusanov_flux(*reconstruct_lr_cells(
                    corners, j + 1, _PARITY))[0]
                m_k += -diff(Ghat, j) / h
            mom.append(m_k)
        return State(axis_sum(mass), axis_sum(dq), tuple(mom))

    # -- gravity -------------------------------------------------------------

    def gravity(self, Ut: State) -> np.ndarray:
        """Explicit buoyancy source on the momentum of the last axis."""
        return self.params.g * face_average(Ut.rho, self.grid.dim - 1)

    # -- capillary forces ---------------------------------------------------

    def capillary(self, Ut: State) -> tuple:
        """Explicit capillary force, one array per momentum: momentum k gets
        eps (grad_k(sum_{j!=k} c_j^2 - c_k^2)/2 - sum_{j!=k} dual_j(corner)),
        c_j the centered derivatives and corner the product, in axis order,
        of the face gradients of c averaged to the cell corners."""
        h, eps, dim = self.grid.h, self.params.eps, self.grid.dim
        c = Ut.c()
        c2 = [center(c, k, h) ** 2 for k in range(dim)]
        grads = []
        for k in range(dim):
            gk = diff(c, k) / h
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
            t = 0.5 * (diff(s, k) / h)
            for j in others:
                t = t - dual(corner, j, h)
            mom.append(eps * t)
        return tuple(mom)

    # -- Cahn-Hilliard -------------------------------------------------------

    @staticmethod
    def ch_convex_term(c: np.ndarray, rho: np.ndarray, eps: float,
                       L) -> np.ndarray:
        """The convex Cahn-Hilliard term 2 L c - eps L(L c / rho) on
        column-major cell vectors, L the Neumann Laplacian matrix.  The only
        definition of the operator the concentration stage solves with: the
        c-stage CG applies it to its iterates."""
        lap = L @ c
        return 2.0 * lap - eps * (L @ (lap / rho))

    def ch_concave(self, Ut: State) -> np.ndarray:
        """Explicit (concave) phase-field tendency of q in flux form."""
        h = self.grid.h
        ct = Ut.q / Ut.rho
        psi2 = model.ddpsi2(ct)
        return axis_sum(dual(face_average(psi2, k) * diff(ct, k) / h, k, h)
                        for k in range(self.grid.dim))

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
        """All terms evaluated at the explicitly-known stage state, summed
        into the Rusanov tendency in place: gravity, capillarity, the
        concave Cahn-Hilliard part, then the forcing."""
        out = self.rusanov(Ut)
        np.add(out.m[-1], self.gravity(Ut), out=out.m[-1])
        for mk, fk in zip(out.m, self.capillary(Ut)):
            mk += fk
        out.q += self.ch_concave(Ut)
        if forcing is not None:
            out.axpy(1.0, forcing)
        return out
