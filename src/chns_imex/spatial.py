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

The implicit terms are the matrices of `operators.implicit_operators`
applied to packed column-major vectors: `hydro_tendency` (mass transport,
stiff pressure, viscosity), one compiled pass of their stencils
(`operators.stencils`) byte for byte the CSR products, whose Newton
residual, Jacobian product and elimination the solvers module applies with
the same stencils and whose Jacobian it builds from the same matrices, and
`ch_convex_term`, which the concentration solve applies.  The explicit terms
are stencils on the field arrays: NumPy expressions, except the Rusanov
terms, which two compiled passes of `weno` form around the six WENO5
reconstructions of a tendency, NumPy keeping only the powers of the
equation of state (p1 and the sound speeds, one call each).
"""

from __future__ import annotations

import functools
import logging
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import model
from .grid import GridSpec, axis_sum, center, diff, dual, face_average
from .model import ModelParams
from .kernels import lib, ptr
from .operators import implicit_operators, stencils
from .state import State
from .weno import (reconstruct_lr_cells, reconstruct_lr_faces, rusanov_stacks,
                   rusanov_tendency, stack_layout)

log = logging.getLogger(__name__)


@dataclass
class SpatialDiscretization:
    grid: GridSpec
    params: ModelParams
    _warned_sound: bool = field(default=False, repr=False)

    def __post_init__(self):
        g, p = self.grid, self.params
        #: the implicit operators of the grid and their compiled stencils,
        #: shared through their caches
        self.ops = implicit_operators(g.dim, g.M, g.h, p.nu, p.lam)
        self.stencils = stencils(g.dim, g.M, g.h, p.nu, p.lam)
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

    def rusanov(self, Ut: State) -> State:
        """The explicit convective terms: WENO5-reconstructed Rusanov fluxes
        from the explicit state.

        One stack [F, u, v, rho] per axis and staggered location holds a
        flux, its conserved quantity, the normal velocity and the density,
        which give the Rusanov speed, each field mirrored at the walls with
        its parity: [q v_k, q, v_k, rho] at the cells along k, v_k
        transferred to the cells, where the phase-momentum flux and the
        mass diffusion share the Rusanov speed; [rho v_k^2 + p1, rho v_k,
        v_k, rho] at the faces along k, the normal flux of momentum
        component k; and [rho v1 v2, rho v_k, v_j, rho] at the k-faces along
        every transverse axis j, its corner flux.

        Five steps: `rusanov_stacks` forms every stack in one buffer; p1 of
        the face densities, in one call, completes the face fluxes; one
        reconstruction per stack writes its states into one buffer, where
        the densities of all of them form one row; one `_sound` call takes
        their sound speeds; and `rusanov_tendency` forms the fluxes and
        their differences.
        """
        g = self.grid
        stacks, cols, out = stack_layout(g.dim, g.M)
        x = rusanov_stacks(Ut.rho, Ut.q, Ut.velocities())
        faces = slice(cols[g.dim], cols[2 * g.dim])
        x[0, faces] += model.p1(x[3, faces], self.params)
        states = np.empty((4, 2 * out[-1]))
        for (on_faces, ax, parity, shape, size), a, b in zip(stacks, cols,
                                                              out):
            n = math.prod(size)
            reconstruct = reconstruct_lr_faces if on_faces \
                else reconstruct_lr_cells
            reconstruct(x[:, a:a + math.prod(shape)].reshape(4, *shape),
                        ax + 1, parity, out=tuple(
                            states[:, c:c + n].reshape(4, *size)
                            for c in (b, out[-1] + b)))
        # free the stacks for the sound speeds and fluxes to reuse: fresh
        # buffers of megabytes would page-fault anew in every call
        del x
        rho, q, m = rusanov_tendency(states, self._sound(states[3]), g.dim,
                                     g.M, g.h)
        return State(rho, q, m)

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
        pressure force G p2 = D^T p2 less the viscous force B v, in one
        compiled pass of the stencils, byte for byte the CSR products.  The
        centered stiff pressure is identical under G, which annihilates
        constants, but free of cancellation noise at large cp2."""
        st = self.stencils
        m, v = (np.ascontiguousarray(a, dtype=float) for a in (m, v))
        if np.shape(rho) != (st.nc,) or m.shape != (st.nf,) \
                or v.shape != (st.nf,):
            raise ValueError(f"no packed cells and faces: {np.shape(rho)}, "
                             f"{m.shape}, {v.shape}")
        p2 = model.p2_centered(rho, self.params, float(rho.mean()))
        out, scratch = np.empty(st.nc + st.nf), np.empty(st.nf)
        lib.hydro_tendency(st.address, ptr(m), ptr(p2), ptr(v), ptr(out),
                           ptr(scratch))
        return out[:st.nc], out[st.nc:]

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
