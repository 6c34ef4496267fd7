"""Implicit-stage solvers.

Each implicit Runge-Kutta stage splits into (a) a nonlinear system for the
density and face velocities, solved with a damped Newton method on
H(z) = U(z) - dt*a_ii*T(z) - r, with U(z) the density and face momenta of z
and T the implicit hydro tendency of SpatialDiscretization.hydro_tendency,
and (b) a linear SPD system for the concentration.  Both work on packed
column-major vectors with the cached matrices of
`operators.implicit_operators`: the four blocks of the Newton Jacobian are
built from them, and the residual, the Jacobian product and the two halves
of the block elimination around the Schur solve apply them as the compiled
stencils of `operators.stencils`, one C pass each and byte for byte the
CSR products and NumPy expressions they replaced (`tests/oracles.py`);
NumPy keeps the powers of the equation of state.  Only the
velocity Schur complement S = J_vv - J_vr d^-1 J_rv of a chord Jacobian is
factorized, with d the diagonal of the density block J_rr; the density
unknowns are eliminated through d with one LU solve of S.  The defect of
that direction against the Jacobian of the current iterate, applied
matrix-free, holds the off-diagonal (advective) part of J_rr and whatever
the iterate has moved since the chord was built; where it exceeds the
Newton tolerance, one correction solves the same elimination for it, its
S-solve the exact spectral inverse of S at rest under free-slip walls and
at the mean density (DST-I/DCT-II transforms and a Sherman-Morrison solve
per mode), built with each factorization.  The factorization and the
vectors a direction's elimination needs are kept as one Chord, reused
across iterations and across the stages a solver object serves while dt*a
stays within LU_KEY_TOLERANCE of the chord's, and refreshed whenever the
damped line search stalls, so the monotone decrease of ||H||_2 is always
enforced.
The line search evaluates each trial point once and keeps the residual of
the accepted one for the next iteration: one residual per Newton
iteration, its full chord step, and one more per damped trial.  Newton
stops at NEWTON_TOL_ABS + NEWTON_TOL_REL ||H(z0)|| in a row-scaled norm;
an initial guess is accepted only if its residual meets that unscaled
too.

The concentration system is solved by matrix-free CG to the criterion
||b - A x|| <= LINEAR_TOL ||b||, applying the operator with the Laplacian
matrix the assembly uses (`SpatialDiscretization.ch_convex_term`), and
preconditioned by the exact inverse of the constant-coefficient operator at
the mean density, which the DCT-II diagonalizes.  In the low-Mach regime the
density is nearly flat, so CG takes a few iterations per solve at every grid
size.  `assemble_c_matrix` builds the same matrix explicitly; the solver
does not use it, it is the reference the operator is checked against.  The
counters of both solves go into a SolveStats, which the integrator's
per-step StepRecord extends, with the seconds of the Newton sub-layers:
the residuals, the refreshes, the LU eliminations, the Jacobian products
and the spectral corrections.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.fft import dct, dctn, dst, idct, idctn, idst

from . import model
from .grid import GridSpec
from .kernels import lib, ptr
from .model import ModelParams, NonPositiveDensityError
from .operators import dct_frequencies, laplacian_eigenvalues, laplacian_nd
from .spatial import SpatialDiscretization


#: SuperLU in its symmetric mode, for the Schur complement of the Newton
#: Jacobian: it is structurally symmetric with a positive diagonal, so a
#: minimum-degree ordering of A^T + A with diagonal pivots fills less than
#: the default COLAMD ordering with partial pivoting (the whole Newton
#: Jacobian at M=128: 8.3 M against 13.6 M entries in L+U; its Schur
#: complement fills 3.0 M).  A zero diagonal entry still gets an
#: off-diagonal pivot.  The zero threshold is needed: with the default 1.0
#: the same ordering fills 8x more than COLAMD (whole Jacobian, M=32).
SPLU_SYMMETRIC = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options=dict(SymmetricMode=True))
#: a kept Chord is dropped, and rebuilt by the next Newton iteration, once
#: dt*a differs from its `dta` by more than this fraction (the implicit
#: blocks scale with it).  On the benchmark runs a looser key keeps the
#: chord through a short final step at 13 Newton iterations where 0.2
#: rebuilds it and takes 4 (mms2d M = 64 at 0.3, Test 3 M = 64 at 0.6); a
#: tighter one rebuilds where 0.2 keeps it (0.1: one more factorization at
#: mms2d M = 32, 4 iterations instead of 9; 0.05: also Test 1 M = 64).
LU_KEY_TOLERANCE = 0.2

#: the concentration solvers a LinearSolverConfig may name; "direct" is a
#: deprecated alias that solves as "cg"
LINEAR_METHODS = ("direct", "cg")
#: Newton stops once the scaled residual norm is at most
#: NEWTON_TOL_ABS + NEWTON_TOL_REL * (the initial one), and fails after
#: NEWTON_MAXIT iterations or once the line search damps below DAMPING_FLOOR
NEWTON_TOL_ABS = 1e-11
NEWTON_TOL_REL = 1e-9
NEWTON_MAXIT = 30
DAMPING_FLOOR = 2.0 ** -20
#: relative residual of the concentration solves, near machine precision:
#: the concentration system conserves the phase total exactly only up to
#: the linear residual, and the sum over ~1e4 cells and ~1e2 solves
#: amplifies it; the mean-density preconditioner is exact up to the
#: density's spread, so this costs few CG iterations (Test 1: at most 10
#: per solve at M = 32...128)
LINEAR_TOL = 1e-14
CG_MAXITER = 20000


class SolverFailure(RuntimeError):
    """Newton or linear solver did not reach its tolerance."""


@dataclass
class LinearSolverConfig:
    """The concentration method by name.  Every method solves as `cg`;
    `direct` is accepted with a DeprecationWarning."""
    method: str = "cg"            # one of LINEAR_METHODS

    def __post_init__(self):
        if self.method not in LINEAR_METHODS:
            raise ValueError(f"unknown linear solver {self.method!r}; "
                             f"expected one of {LINEAR_METHODS}")
        if self.method == "direct":
            warnings.warn("linear solver 'direct' is deprecated and solves "
                          "as 'cg'", DeprecationWarning, stacklevel=3)


@dataclass
class SolveStats:
    newton_iters: int = 0
    #: largest final scaled Newton residual over the converged solves
    newton_res: float = 0.0
    #: CG iterations of the concentration solves
    lin_iters: int = 0
    #: Newton (chord Jacobian) factorizations
    factorizations: int = 0
    #: solves with the Newton factorization: one per Newton direction
    lu_solves: int = 0
    #: Newton directions corrected for their defect against the Jacobian
    #: of the current iterate, each by one application of the spectral
    #: Schur inverse
    spectral_corrections: int = 0
    #: Newton residual evaluations: one per solve, one per iteration's
    #: full step and one per damped trial
    residuals: int = 0
    #: seconds (time.perf_counter) in the explicit tendencies, the Newton
    #: solves and the concentration solves
    explicit_s: float = 0.0
    newton_s: float = 0.0
    cstage_s: float = 0.0
    #: the seconds of newton_s spent in the residuals, the refreshes (the
    #: Jacobian, the Schur complement and its factorization), the
    #: eliminations with the LU, the Jacobian products of the directions'
    #: defects and the spectral corrections
    residual_s: float = 0.0
    refresh_s: float = 0.0
    lu_solve_s: float = 0.0
    jacobian_product_s: float = 0.0
    spectral_s: float = 0.0
    #: accepted residual norms per Newton iteration (scaled norm)
    history: list = field(default_factory=list)


class Chord(NamedTuple):
    """The kept Newton chord: the LU of the Schur complement S of the
    chord Jacobian J = [[J_rr, J_rv], [J_vr, J_vv]], the dt*a it was built
    for, and what its elimination needs next to it: the vectors
    [1/d; v; p2'(rho); A rho] at the chord's point [rho; v], with
    d = diag(J_rr), from which the compiled elimination applies the
    coupling blocks J_vr = diag(v) A - dta G diag(p2'(rho)) and
    J_rv = dta D diag(A rho), and the spectral inverse of S at rest
    (`free_slip_schur_inverse`) that solves the correction.  The
    correction's defect is taken against the Jacobian of the current
    iterate, so the chord serves only as the preconditioner.  Nothing
    else of the Jacobian is kept: `HydroSolver._refresh` frees the blocks
    and the CSR S before it factorizes."""
    lu: spla.SuperLU
    dta: float
    coupling: np.ndarray
    inv_P: Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# Hydro subsystem (density + velocities)
# ---------------------------------------------------------------------------

def free_slip_schur_inverse(spatial: SpatialDiscretization, rbar: float,
                            dta: float):
    """r -> P^-1 r on packed face velocities, for the velocity Schur
    complement at rest and at the flat density rbar under free-slip walls,
    P = rbar I + dta B_fs + dta^2 rbar p2'(rbar) D^T D, where B_fs is
    `viscous_blocks` with the transverse second difference R replaced by
    the Neumann one (minus `mat_laplacian_neumann`).

    Velocity k is transformed by the orthonormal DST-I along k and the
    DCT-II along every other axis; with w the per-axis factors of
    `dct_frequencies`, P is a I + gamma w w^T in each cell mode, with
    a = rbar + dta nu |w|^2 and gamma = dta (nu + lam) + dta^2 rbar p2',
    and Sherman-Morrison inverts it:
    x_k = r_k / a - c w_k (w.r), c = gamma / (a (a + gamma |w|^2)).  It is
    evaluated as x_k = (1/a - c w_k^2) r_k - c w_k sum_{j!=k} w_j r_j, the
    first factor formed without cancellation, so in 1D it is one division
    by a + gamma w^2 to round-off.  Each velocity is stacked with its own
    axis first, so one `dst` and one `dct` per other axis (none in 1D)
    transform all of them.  The packed layout is that of `spatial.pack`."""
    grid, params = spatial.grid, spatial.params
    dim, M = grid.dim, grid.M
    w = dct_frequencies(M, grid.h)[0][1:].reshape((M - 1,) + (1,) * (dim - 1))
    wsq = -laplacian_eigenvalues(dim, M, grid.h)
    a = rbar + dta * params.nu * wsq
    gamma = dta * (params.nu + params.lam) \
        + dta**2 * rbar * float(model.dp2(rbar, params))
    # a and wsq are symmetric in the axes, so their modes m_0 >= 1 are in
    # the order of every stacked velocity, and their row m_0 = 0 holds the
    # sum over the other axes
    denom = a[1:] * (a[1:] + gamma * wsq[1:])
    own = (a[1:] + gamma * wsq[0]) / denom
    wc = w * (gamma / denom)
    # velocity k with its own axis first, and back
    order = [(k,) + tuple(i for i in range(dim) if i != k)
             for k in range(dim)]
    back = [tuple(np.argsort(o)) for o in order]
    stacked = (dim, M - 1) + (M,) * (dim - 1)

    def apply(r):
        f = np.empty(stacked)
        for k, x in enumerate(spatial.unpack(r)):
            f[k] = x.transpose(order[k])
        f = dst(f, type=1, axis=1, norm="ortho", overwrite_x=True)
        for ax in range(2, dim + 1):
            f = dct(f, type=2, axis=ax, norm="ortho", overwrite_x=True)
        wf = w * f
        wr = np.zeros(a.shape)                  # w.r per cell mode
        for k in range(dim):
            wr.transpose(order[k])[1:] += wf[k]
        for k in range(dim):
            wf[k] -= wr.transpose(order[k])[1:]
        f *= own
        wf *= wc
        f += wf
        for ax in range(2, dim + 1):
            f = idct(f, type=2, axis=ax, norm="ortho", overwrite_x=True)
        f = idst(f, type=1, axis=1, norm="ortho", overwrite_x=True)
        return spatial.pack(*(x.transpose(back[k]) for k, x in enumerate(f)))

    return apply


def _scale_rows(X: sp.csr_matrix, s: np.ndarray) -> sp.csr_matrix:
    """diag(s) X for a CSR matrix X, without a sparse product."""
    Y = X.copy()
    Y.data *= np.repeat(s, np.diff(X.indptr))
    return Y


def _scale_cols(X: sp.csr_matrix, s: np.ndarray) -> sp.csr_matrix:
    """X diag(s) for a CSR matrix X, without a sparse product."""
    Y = X.copy()
    Y.data *= s[X.indices]
    return Y


class HydroSolver:
    """Damped Newton solver for the implicit density/velocity subsystem on
    the packed vector z = [rho; v] of `SpatialDiscretization.pack`.

    The residual evaluates the implicit hydro tendency of `spatial`, and
    the Jacobian is built from the same matrices `spatial.ops`: the face
    average A, the flux difference D, its transpose G and the viscous
    matrix B.  The residual, the Jacobian product and the two halves of
    the chord's elimination around its Schur solve apply them as the
    compiled stencils `spatial.stencils`, one pass each, byte for byte
    their CSR products; NumPy keeps the powers of the equation of state.
    """

    def __init__(self, grid: GridSpec, params: ModelParams):
        self.grid = grid
        self.params = params
        self.spatial = SpatialDiscretization(grid, params)
        self.nc = grid.M ** grid.dim
        #: the kept Chord, None until the first solve and after a failed
        #: step
        self.chord: Chord | None = None

    def _vector(self, x, size: int) -> np.ndarray:
        """x as a contiguous float vector of the given size: the compiled
        passes read no bounds."""
        x = np.ascontiguousarray(x, dtype=float)
        if x.shape != (size,):
            raise ValueError(f"a vector of shape {x.shape} where {size} "
                             f"values are packed")
        return x

    def residual(self, z, r, dta):
        """H(z) = U(z) - dta*T(z) - r: the density and face momenta
        m = (A rho) v of z = [rho; v] less dta times their implicit hydro
        tendency, less r."""
        st = self.spatial.stencils
        z, r = (self._vector(a, st.nc + st.nf) for a in (z, r))
        rho = z[:self.nc]
        if np.any(rho <= 0):
            raise NonPositiveDensityError("nonpositive density in Newton iterate")
        p2 = model.p2_centered(rho, self.params, float(rho.mean()))
        out, scratch = np.empty(z.size), np.empty(2 * st.nf)
        lib.hydro_residual(st.address, ptr(z), ptr(p2), ptr(r), dta,
                           ptr(out), ptr(scratch))
        return out

    def jacobian(self, z, dta) -> tuple:
        """The blocks (J_rr, J_rv, J_vr, J_vv) of the Jacobian of the
        residual at z = [rho; v], with m = (A rho) v:
        J_rr = I + dta D diag(v) A,  J_rv = dta D diag(A rho),
        J_vr = diag(v) A - dta G diag(p2'(rho)), G = D^T,
        J_vv = diag(A rho) + dta B."""
        ops, n = self.spatial.ops, self.nc
        rho, v = z[:n], z[n:]
        rho_f = ops.A @ rho
        J_rr = sp.identity(n, format="csr") \
            + dta * (_scale_cols(ops.D, v) @ ops.A)
        J_rv = dta * _scale_cols(ops.D, rho_f)
        J_vr = _scale_rows(ops.A, v) \
            - dta * _scale_cols(ops.G, model.dp2(rho, self.params))
        J_vv = sp.diags(rho_f, format="csr") + dta * ops.B
        return J_rr, J_rv, J_vr, J_vv

    def _row_scaling(self, z0, dta) -> np.ndarray:
        """Row-equilibration weights for the convergence norm.

        The momentum rows carry Jacobian entries of size dt*a*(p2'/h + visc),
        up to ~1e5 for stiff pressure; in the unscaled 2-norm the residual
        then cannot drop below ~|J|*eps_mach*|z| no matter how well the
        system is solved.  Measuring convergence (and the line search) in the
        equilibrated norm makes the tolerance meaningful at every stiffness;
        the Newton direction itself is invariant under row scaling.
        """
        rho = z0[:self.nc]
        h = self.grid.h
        p = self.params
        amp = 1.0 + dta * (float(np.max(model.dp2(rho, p))) / h
                           + (2 * p.nu + p.lam) * 8.0 / h**2)
        w = np.ones_like(z0)
        w[self.nc:] = 1.0 / amp
        return w

    def _trial(self, z, r, dta, w, stats: SolveStats):
        """(H(z), its scaled norm) for a damped line-search trial; the norm
        is inf, and H None, where z has a nonpositive density."""
        t0 = time.perf_counter()
        stats.residuals += 1
        try:
            res = self.residual(z, r, dta)
        except NonPositiveDensityError:
            return None, np.inf
        finally:
            stats.residual_s += time.perf_counter() - t0
        return res, float(np.linalg.norm(w * res))

    def solve(self, z0: np.ndarray, r: np.ndarray, dta: float,
              stats: SolveStats | None = None):
        """Damped (chord) Newton iteration; returns the converged vector."""
        stats = stats if stats is not None else SolveStats()
        z = z0.copy()
        w = self._row_scaling(z0, dta)
        t0 = time.perf_counter()
        res = self.residual(z, r, dta)
        stats.residual_s += time.perf_counter() - t0
        stats.residuals += 1
        nrm = float(np.linalg.norm(w * res))
        tol = NEWTON_TOL_ABS + NEWTON_TOL_REL * nrm
        stats.history.append(nrm)
        # the scaled norm divides the momentum rows by amp ~ dta p2'/h, so
        # at large C_p an O(1) momentum residual falls below NEWTON_TOL_ABS:
        # the initial guess is accepted only if it also meets tol unscaled
        if nrm <= tol and float(np.linalg.norm(res)) <= tol:
            stats.newton_res = max(stats.newton_res, nrm)
            return z
        fresh = False
        if self.chord is not None and abs(dta - self.chord.dta) \
                > LU_KEY_TOLERANCE * abs(self.chord.dta):
            self.chord = None
        for it in range(NEWTON_MAXIT):
            if self.chord is None or (it > 0 and it % 8 == 0 and not fresh):
                self._refresh(z, dta, stats)
                fresh = True
            delta = self._direction(z, -res, dta, w, tol, stats)
            # every trial point is evaluated once, and the accepted one's
            # residual is the next iteration's.  The full step is evaluated
            # here and the damped trials in _trial: perfbench/spans.py counts
            # Newton iterations as the residuals called directly by solve()
            cand = z + delta
            t0 = time.perf_counter()
            try:
                cand_res = self.residual(cand, r, dta)
                cand_nrm = float(np.linalg.norm(w * cand_res))
            except NonPositiveDensityError:
                cand_res, cand_nrm = None, np.inf
            stats.residual_s += time.perf_counter() - t0
            stats.residuals += 1
            alpha = 1.0
            while not cand_nrm < nrm:
                alpha *= 0.5
                # a stale factorization that needs heavy damping is
                # refreshed, so the floor is reached only on a fresh one
                if alpha < 0.25 and not fresh:
                    self._refresh(z, dta, stats)
                    fresh = True
                    delta = self._direction(z, -res, dta, w, tol, stats)
                    alpha = 1.0
                if alpha < DAMPING_FLOOR:
                    raise SolverFailure("Newton damping underflow")
                cand = z + alpha * delta
                cand_res, cand_nrm = self._trial(cand, r, dta, w, stats)
            z, res, nrm = cand, cand_res, cand_nrm
            stats.newton_iters += 1
            stats.history.append(nrm)
            if nrm <= tol:
                stats.newton_res = max(stats.newton_res, nrm)
                return z
            fresh = False
        raise SolverFailure(f"Newton did not converge: |H| = {nrm:.3e}, "
                            f"tol = {tol:.3e}")

    def _refresh(self, z, dta, stats: SolveStats):
        """Factorize the Schur complement S = J_vv - J_vr d^-1 J_rv of the
        Jacobian at z, with d = diag(J_rr) = 1 + (dta/2) div_h v, and keep
        it as the Chord with the vectors its elimination applies J_vr and
        J_rv from, the spectral inverse built at the mean density of z.  A
        d that is not finite and positive is a SolverFailure, so the step
        is retried at a smaller dt.  The blocks and the CSR S are freed
        before the factorization: `splu` runs beside the CSC S and what
        the Chord keeps, and nothing else of the refresh."""
        t0 = time.perf_counter()
        J_rr, J_rv, J_vr, J_vv = self.jacobian(z, dta)
        d = J_rr.diagonal()
        del J_rr
        if not (np.isfinite(d).all() and (d > 0).all()):
            # dta * div_h v <= -2 somewhere: the compression outruns the step
            raise SolverFailure("density block of the Newton Jacobian has "
                                "a non-finite or nonpositive diagonal "
                                f"(min {d.min():.3e})")
        inv_d = 1.0 / d
        S = (J_vv - J_vr @ _scale_rows(J_rv, inv_d)).tocsc()
        del J_vv, J_rv, J_vr
        rho, v = z[:self.nc], z[self.nc:]
        coupling = np.concatenate([inv_d, v, model.dp2(rho, self.params),
                                   self.spatial.stencils.apply("A", rho)])
        inv_P = free_slip_schur_inverse(self.spatial, float(rho.mean()), dta)
        self.chord = None           # the old LU is freed before the new one
        lu = spla.splu(S, **SPLU_SYMMETRIC)
        self.chord = Chord(lu, dta, coupling, inv_P)
        stats.factorizations += 1
        stats.refresh_s += time.perf_counter() - t0

    def _jacobian_times(self, z, delta, dta) -> np.ndarray:
        """J(z) delta for the Jacobian of the residual at z = [rho; v],
        applied with the stencils of the matrices of `jacobian` and nothing
        assembled: [d_rho + dta D dm; dm - dta (G (p2'(rho) d_rho) - B d_v)]
        with dm = (A d_rho) v + (A rho) d_v."""
        st = self.spatial.stencils
        z, delta = (self._vector(a, st.nc + st.nf) for a in (z, delta))
        dp = model.dp2(z[:self.nc], self.params)
        out, scratch = np.empty(z.size), np.empty(2 * st.nf)
        lib.hydro_jacobian_times(st.address, ptr(z), ptr(delta), ptr(dp),
                                 dta, ptr(out), ptr(scratch))
        return out

    def _eliminate(self, b, solve_S) -> np.ndarray:
        """The solution of the chord Jacobian with J_rr replaced by diag(d),
        for b: solve_S for the velocities of
        b_v - J_vr (b_rho / d), then the densities (b_rho - J_rv dv) / d,
        the couplings applied from the chord's vectors."""
        ch, st = self.chord, self.spatial.stencils
        b = self._vector(b, st.nc + st.nf)
        c, pb = ptr(ch.coupling), ptr(b)
        t, scratch = np.empty(st.nf), np.empty(st.nc)
        lib.chord_forward(st.address, c, ch.dta, pb, ptr(t), ptr(scratch))
        dv = self._vector(solve_S(t), st.nf)
        out = np.empty(b.size)
        lib.chord_back(st.address, c, ch.dta, pb, ptr(dv), ptr(out))
        return out

    def _direction(self, z, b, dta, w, tol, stats: SolveStats) -> np.ndarray:
        """The Newton direction at z for b = -H(z).  The elimination with the
        LU of the kept chord's S leaves the defect r = b - J(z) delta against
        the Jacobian at z: the advective part of J_rr that d leaves out, and
        whatever z has moved since the chord was built.  Where r exceeds the
        Newton tolerance tol in the row-scaled norm w, one correction solves
        the chord's elimination for r, its S-solve the spectral inverse at
        rest."""
        ch = self.chord
        t0 = time.perf_counter()
        delta = self._eliminate(b, ch.lu.solve)
        t1 = time.perf_counter()
        stats.lu_solves += 1
        r = self._jacobian_times(z, delta, dta)
        np.subtract(b, r, out=r)
        correct = np.linalg.norm(w * r) > tol
        t2 = time.perf_counter()
        if correct:
            delta += self._eliminate(r, ch.inv_P)
            stats.spectral_corrections += 1
            stats.spectral_s += time.perf_counter() - t2
        stats.lu_solve_s += t1 - t0
        stats.jacobian_product_s += t2 - t1
        return delta


# ---------------------------------------------------------------------------
# Concentration stage system (SPD)
# ---------------------------------------------------------------------------

def assemble_c_matrix(rho: np.ndarray, dta: float, eps: float,
                      grid: GridSpec) -> sp.csr_matrix:
    """diag(rho) - 2*dta*L + dta*eps*L diag(1/rho) L with the Neumann
    Laplacian L; symmetric positive definite for positive rho."""
    rv = np.ravel(rho, order="F")
    if np.any(rv <= 0):
        raise NonPositiveDensityError("nonpositive density in c-system")
    L = laplacian_nd(grid.dim, grid.M, grid.h)
    A = sp.diags(rv) - (2.0 * dta) * L \
        + (dta * eps) * (L @ sp.diags(1.0 / rv) @ L)
    return A.tocsr()


def c_stage_operator(rho: np.ndarray, dta: float, eps: float,
                     grid: GridSpec) -> spla.LinearOperator:
    """The c-matrix of `assemble_c_matrix` applied to column-major vectors
    with the same Laplacian matrix L:
    x -> rho x - dta (2 L x - eps L(L x / rho))."""
    if np.any(rho <= 0):
        raise NonPositiveDensityError("nonpositive density in c-system")
    rv = np.ravel(rho, order="F")
    L = laplacian_nd(grid.dim, grid.M, grid.h)

    def matvec(x):
        return rv * x - dta * SpatialDiscretization.ch_convex_term(
            x, rv, eps, L)

    return spla.LinearOperator((rv.size, rv.size), matvec=matvec,
                               dtype=float)


def c_stage_preconditioner(rho: np.ndarray, dta: float, eps: float,
                           grid: GridSpec) -> spla.LinearOperator:
    """The exact inverse of the c-matrix at the constant density
    rho_bar = mean(rho), through the DCT-II that diagonalizes the Neumann
    Laplacian with eigenvalues Lam:
    r -> idctn(dctn(r) / (rho_bar - 2 dta Lam + (dta eps / rho_bar) Lam^2))."""
    shape, n = rho.shape, rho.size
    rbar = float(rho.mean())
    lam = laplacian_eigenvalues(grid.dim, grid.M, grid.h)
    symbol = rbar - (2.0 * dta) * lam + (dta * eps / rbar) * lam**2

    def matvec(r):
        f = dctn(r.reshape(shape, order="F"), type=2, norm="ortho")
        return np.ravel(idctn(f / symbol, type=2, norm="ortho"), order="F")

    return spla.LinearOperator((n, n), matvec=matvec, dtype=float)


def solve_c_stage(rho: np.ndarray, rhs_hat: np.ndarray, dta: float,
                  eps: float, grid: GridSpec,
                  stats: SolveStats | None = None) -> np.ndarray:
    """Solve the SPD concentration system; rhs_hat is the hat of rho*c.

    CG runs matrix-free, preconditioned by the mean-density inverse; its
    iterations are added to stats.lin_iters."""
    stats = stats if stats is not None else SolveStats()
    if dta == 0.0:
        return rhs_hat / rho
    A = c_stage_operator(rho, dta, eps, grid)
    P = c_stage_preconditioner(rho, dta, eps, grid)

    def count(_xk):
        stats.lin_iters += 1

    x, info = spla.cg(A, np.ravel(rhs_hat, order="F"), rtol=LINEAR_TOL,
                      atol=0.0, maxiter=CG_MAXITER, M=P, callback=count)
    if info != 0:
        raise SolverFailure(f"CG failed with info={info}")
    return x.reshape(rho.shape, order="F")
