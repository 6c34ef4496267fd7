"""Implicit-stage solvers.

Each implicit Runge-Kutta stage splits into (a) a nonlinear system for the
density and face velocities, solved with a damped Newton method on
H(z) = U(z) - dt*a_ii*T(z) - r, with U(z) the density and face momenta of z
and T the implicit hydro tendency of SpatialDiscretization.hydro_tendency,
and (b) a linear SPD system for the concentration.  The Newton Jacobian is
assembled from the sparse operators of the operators module; its sparse LU
factorization is reused across iterations (and callers may reuse a solver
object across stages), and refreshed whenever the damped line search
stalls, so the monotone decrease of ||H||_2 is always enforced.

The concentration system is solved by matrix-free CG or, with the direct
method, by a sparse LU of the assembled matrix.  CG applies the operator by
stencils (`SpatialDiscretization.ch_convex_term`) and is preconditioned by
the exact inverse of the constant-coefficient operator at the mean density,
which the DCT-II diagonalizes; in the low-Mach regime the density is nearly
flat, so CG takes a few iterations per solve at every grid size.  The
direct LU may be kept across stages and steps (a `ChordLU`); a kept
factorization is refined, x <- x + LU^-1 (b - A x), to
CG's criterion ||b - A x|| <= tol ||b||; once the contraction so far shows
that REFINE_MAX corrections cannot get there, the matrix is factorized anew.
Both kept factorizations are rebuilt once dt*a moves by more than
LU_KEY_TOLERANCE.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.fft import dctn, idctn

from . import model
from .grid import GridSpec, axis_sum, face_average
from .model import ModelParams, NonPositiveDensityError
from .operators import (_along, laplacian_eigenvalues, laplacian_nd,
                        mat_average, mat_dual, viscous_blocks)
from .spatial import SpatialDiscretization


#: SuperLU in its symmetric mode, for both factorized matrices (the Newton
#: Jacobian and the c-matrix): they are structurally symmetric with positive
#: diagonals, so a minimum-degree ordering of A^T + A with diagonal pivots
#: fills less than the default COLAMD ordering with partial pivoting (Newton
#: Jacobian at M=128: 8.3 M against 13.6 M entries in L+U).  A zero diagonal
#: entry still gets an off-diagonal pivot.  The zero threshold is needed:
#: with the default 1.0 the same ordering fills 8x more than COLAMD (M=32).
SPLU_SYMMETRIC = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options=dict(SymmetricMode=True))
#: a kept factorization is rebuilt once dt*a differs from the value it was
#: built for by more than this fraction (the implicit blocks scale with it)
LU_KEY_TOLERANCE = 0.2
#: refinement corrections a kept c-matrix factorization may take in one
#: solve before the c-stage factorizes anew (Test 3, M=64: about 4 each)
REFINE_MAX = 8

#: the concentration solvers a LinearSolverConfig may name
LINEAR_METHODS = ("direct", "cg")


class SolverFailure(RuntimeError):
    """Newton or linear solver did not reach its tolerance."""


@dataclass
class NewtonConfig:
    tol_abs: float = 1e-11
    tol_rel: float = 1e-9
    maxit: int = 30
    damping_floor: float = 2.0 ** -20


@dataclass
class LinearSolverConfig:
    method: str = "cg"            # one of LINEAR_METHODS
    #: near-machine tolerance: the concentration system conserves the phase
    #: total exactly only up to the linear residual, and the sum over ~1e4
    #: cells and ~1e2 solves amplifies it; the mean-density preconditioner
    #: is exact up to the density's spread, so the tight tolerance costs few
    #: CG iterations (Test 1: at most 10 per solve at M = 32...128)
    tol: float = 1e-14
    maxiter: int = 20000

    def __post_init__(self):
        if self.method not in LINEAR_METHODS:
            raise ValueError(f"unknown linear solver {self.method!r}; "
                             f"expected one of {LINEAR_METHODS}")


@dataclass
class SolveStats:
    newton_iters: int = 0
    #: largest final scaled Newton residual over the converged solves
    newton_res: float = 0.0
    #: iterations of the concentration solves: CG iterations, or the
    #: refinement corrections of a direct solve on a kept factorization
    lin_iters: int = 0
    #: Newton (chord Jacobian) factorizations; c-matrix ones are not counted
    factorizations: int = 0
    #: accepted residual norms per Newton iteration (scaled norm)
    history: list = field(default_factory=list)


class ChordLU:
    """A sparse LU factorization kept for reuse, and the dt*a it was built
    for.  It is stale once dt*a moves by more than LU_KEY_TOLERANCE."""

    def __init__(self):
        self.lu = None
        self.key = None

    def current(self, key: float):
        """The kept factorization, or None when there is none or it is stale
        for key (a stale one is dropped)."""
        if self.lu is not None \
                and abs(key - self.key) > LU_KEY_TOLERANCE * abs(self.key):
            self.drop()
        return self.lu

    def refactorize(self, A: sp.csc_matrix, key: float):
        """Factorize A for key, freeing the old factorization first."""
        self.drop()
        self.lu = spla.splu(A, **SPLU_SYMMETRIC)
        self.key = key
        return self.lu

    def drop(self):
        self.lu = None
        self.key = None


# ---------------------------------------------------------------------------
# Hydro subsystem (density + velocities)
# ---------------------------------------------------------------------------

class HydroSolver:
    """Damped Newton solver for the implicit density/velocity subsystem.

    The residual evaluates the implicit hydro tendency of `spatial`.  The
    Jacobian is assembled from per-axis operator lists: D[k] (face flux
    difference), A[k] (face average of cell values), G[k] (grad-transpose,
    cells -> faces) and the viscous blocks B[k][j] coupling velocity j into
    momentum k.
    """

    def __init__(self, grid: GridSpec, params: ModelParams,
                 cfg: NewtonConfig | None = None):
        self.grid = grid
        self.params = params
        self.cfg = cfg or NewtonConfig()
        self.spatial = SpatialDiscretization(grid, params)
        M, h, dim = grid.M, grid.h, grid.dim
        D = mat_dual(M, h)
        A = mat_average(M)
        cells = (M,) * dim
        self.D = [_along({k: D}, cells) for k in range(dim)]
        self.A = [_along({k: A}, cells) for k in range(dim)]
        self.G = [_along({k: D.T}, cells) for k in range(dim)]
        self.B = viscous_blocks(dim, M, h, params.nu, params.lam)
        self.nc = M ** dim
        #: field shape per block: cells, then the faces of each axis
        self.shapes = [cells] + [tuple(M - 1 if i == k else M
                                       for i in range(dim))
                                 for k in range(dim)]
        self._split = np.cumsum([np.prod(s) for s in self.shapes])[:-1]
        self._chord = ChordLU()

    @property
    def _lu(self):
        """The chord Jacobian's factorization, None until the first solve."""
        return self._chord.lu

    # vector packing: [rho; v1; v2], each flattened column-major

    def pack(self, rho, *v):
        """Stack rho and the face fields of each axis into one vector."""
        return np.concatenate([np.ravel(f, order="F") for f in (rho, *v)])

    def unpack(self, z):
        """Split z into (rho, [v1, v2]) field-shaped views; 1D has the
        single v1."""
        rho, *v = (f.reshape(s, order="F")
                   for f, s in zip(np.split(z, self._split), self.shapes))
        return rho, v

    def residual(self, z, r, dta):
        """H(z) = U(z) - dta*T(z) - r: the density and face momenta of z
        less dta times their implicit hydro tendency, less r."""
        rho, v = self.unpack(z)
        if np.any(rho <= 0):
            raise NonPositiveDensityError("nonpositive density in Newton iterate")
        m = [face_average(rho, k) * vk for k, vk in enumerate(v)]
        t_rho, t_m = self.spatial.hydro_tendency(rho, m, v)
        return self.pack(rho, *m) - dta * self.pack(t_rho, *t_m) - r

    def jacobian(self, z, dta) -> sp.csr_matrix:
        rho, *v = np.split(z, self._split)
        dp2 = sp.diags(model.dp2(rho, self.params))
        dgV = [sp.diags(vk) for vk in v]
        dgR = [sp.diags(A @ rho) for A in self.A]
        J00 = sp.identity(self.nc, format="csr") \
            + dta * axis_sum([D @ dv @ A
                              for D, dv, A in zip(self.D, dgV, self.A)])
        rows = [[J00] + [dta * (D @ dr) for D, dr in zip(self.D, dgR)]]
        for k in range(self.grid.dim):
            row = [dgV[k] @ self.A[k] - dta * (self.G[k] @ dp2)]
            for j, B in enumerate(self.B[k]):
                row.append(dgR[k] + dta * B if j == k else dta * B)
            rows.append(row)
        return sp.bmat(rows, format="csc")

    def _row_scaling(self, z0, dta) -> np.ndarray:
        """Row-equilibration weights for the convergence norm.

        The momentum rows carry Jacobian entries of size dt*a*(p2'/h + visc),
        up to ~1e5 for stiff pressure; in the unscaled 2-norm the residual
        then cannot drop below ~|J|*eps_mach*|z| no matter how well the
        system is solved.  Measuring convergence (and the line search) in the
        equilibrated norm makes the tolerance meaningful at every stiffness;
        the Newton direction itself is invariant under row scaling.
        """
        rho, _ = self.unpack(z0)
        h = self.grid.h
        p = self.params
        amp = 1.0 + dta * (float(np.max(model.dp2(rho, p))) / h
                           + (2 * p.nu + p.lam) * 8.0 / h**2)
        w = np.ones_like(z0)
        w[self.nc:] = 1.0 / amp
        return w

    def _norm(self, z, r, dta, w):
        try:
            return float(np.linalg.norm(w * self.residual(z, r, dta)))
        except NonPositiveDensityError:
            return np.inf

    def solve(self, z0: np.ndarray, r: np.ndarray, dta: float,
              stats: SolveStats | None = None):
        """Damped (chord) Newton iteration; returns the converged vector."""
        cfg = self.cfg
        stats = stats if stats is not None else SolveStats()
        z = z0.copy()
        w = self._row_scaling(z0, dta)
        res = self.residual(z, r, dta)
        nrm0 = float(np.linalg.norm(w * res))
        tol = cfg.tol_abs + cfg.tol_rel * nrm0
        stats.history.append(nrm0)
        nrm = nrm0
        fresh = False
        self._chord.current(dta)     # drops one kept for a distant dt*a
        for it in range(cfg.maxit):
            if nrm <= tol:
                stats.newton_res = max(stats.newton_res, nrm)
                return z
            if self._lu is None or (it > 0 and it % 8 == 0 and not fresh):
                self._refresh(z, dta, stats)
                fresh = True
            delta = self._lu.solve(-res)
            alpha, z_new, nrm_new = 1.0, None, np.inf
            while alpha >= cfg.damping_floor:
                cand = z + alpha * delta
                n = self._norm(cand, r, dta, w)
                if n < nrm:
                    z_new, nrm_new = cand, n
                    break
                alpha *= 0.5
                # a stale factorization that needs heavy damping is refreshed
                if alpha < 0.25 and not fresh:
                    self._refresh(z, dta, stats)
                    fresh = True
                    delta = self._lu.solve(-res)
                    alpha = 1.0
            if z_new is None:
                if not fresh:
                    self._refresh(z, dta, stats)
                    fresh = True
                    continue
                raise SolverFailure("Newton damping underflow")
            z, nrm = z_new, nrm_new
            res = self.residual(z, r, dta)
            nrm = float(np.linalg.norm(w * res))
            stats.newton_iters += 1
            stats.history.append(nrm)
            fresh = False
        if nrm <= tol:
            stats.newton_res = max(stats.newton_res, nrm)
            return z
        raise SolverFailure(f"Newton did not converge: |H| = {nrm:.3e}, "
                            f"tol = {tol:.3e}")

    def _refresh(self, z, dta, stats: SolveStats):
        self._chord.refactorize(self.jacobian(z, dta), dta)
        stats.factorizations += 1

    def invalidate(self):
        self._chord.drop()


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
    """The c-matrix of `assemble_c_matrix` applied by stencils to
    column-major vectors: x -> rho x - dta (2 L x - eps L(L x / rho))."""
    if np.any(rho <= 0):
        raise NonPositiveDensityError("nonpositive density in c-system")
    shape, n = rho.shape, rho.size

    def matvec(x):
        f = x.reshape(shape, order="F")
        Af = rho * f - dta * SpatialDiscretization.ch_convex_term(
            f, rho, eps, grid.h)
        return np.ravel(Af, order="F")

    return spla.LinearOperator((n, n), matvec=matvec, dtype=float)


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
                  cfg: LinearSolverConfig | None = None,
                  stats: SolveStats | None = None,
                  chord: ChordLU | None = None) -> np.ndarray:
    """Solve the SPD concentration system; rhs_hat is the hat of rho*c.

    CG runs matrix-free with the mean-density preconditioner.  The direct
    method assembles the matrix and reuses the factorization kept in
    `chord` while it is fresh for dta (without one it factorizes every
    call).  CG iterations and refinement corrections are added to
    stats.lin_iters."""
    cfg = cfg or LinearSolverConfig()
    stats = stats if stats is not None else SolveStats()
    if dta == 0.0:
        return rhs_hat / rho
    b = np.ravel(rhs_hat, order="F")
    if cfg.method == "direct":
        A = assemble_c_matrix(rho, dta, eps, grid)
        x = _solve_direct(A, b, dta, cfg.tol, chord or ChordLU(), stats)
    else:
        def count(_xk):
            stats.lin_iters += 1

        x, info = spla.cg(c_stage_operator(rho, dta, eps, grid), b,
                          rtol=cfg.tol, atol=0.0, maxiter=cfg.maxiter,
                          M=c_stage_preconditioner(rho, dta, eps, grid),
                          callback=count)
        if info != 0:
            raise SolverFailure(f"CG failed with info={info}")
    return x.reshape(rho.shape, order="F")


def _solve_direct(A: sp.csr_matrix, b: np.ndarray, dta: float, tol: float,
                  chord: ChordLU, stats: SolveStats) -> np.ndarray:
    """Refine on the kept factorization until ||b - A x|| <= tol ||b||;
    factorize A anew when there is none, or when the residual, shrinking at
    its last ratio for the corrections left, would not reach the bound."""
    lu = chord.current(dta)
    if lu is not None:
        x = lu.solve(b)
        bound = tol * np.linalg.norm(b)
        prev = np.inf
        for k in range(REFINE_MAX + 1):
            r = b - A @ x
            nr = np.linalg.norm(r)
            if nr <= bound:
                return x
            # also stops when the residual grows, at the last correction
            # (exponent 0) and on a non-finite residual
            if not nr * (nr / prev) ** (REFINE_MAX - k) <= bound:
                break
            x += lu.solve(r)
            stats.lin_iters += 1
            prev = nr
    return chord.refactorize(A.tocsc(), dta).solve(b)
