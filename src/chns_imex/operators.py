"""Sparse 1D operator matrices and their Kronecker-product 2D assemblies,
and the compiled stencils read off them.

Fields indexed [i, j] (i = x) are vectorized column-major (order='F'), so an
operator acting along x is kron(I, Op) and along y is kron(Op, I).  The
implicit terms are these matrices and nothing else: `implicit_operators`
holds, per grid, the face average, the flux difference and its transpose
on the packed vector [rho; v_1; ...; v_dim] and the viscous block matrix,
and `laplacian_nd` the Neumann Laplacian.  The Newton Jacobian is built
from them.  `stencils` holds, per grid, the first four as compiled
stencils (`_hydro.c`), and `laplacian_stencil` the Laplacian: each row of
a CSR matrix, in its stored order, is a term list, and the rows of a
MAC-grid line that share one list shifted by a column form a run whose
terms read contiguous stretches.  The hydro tendency, the Newton residual,
the Jacobian product and the chord's elimination apply the first four,
and the concentration solve's operator the Laplacian, byte for byte the
CSR products.  The DST-I/DCT-II
factors of the flux difference give the Neumann Laplacian's eigenvalues,
which precondition the concentration solve, and diagonalize the free-slip
velocity operator of the Newton correction.
"""

from __future__ import annotations

import ctypes
import functools
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .grid import axis_sum
from .kernels import lib, ptr


def _along(ops: dict, shape) -> sp.csr_matrix:
    """Lift 1D operators {axis: op} to a column-major field of the given
    shape: op acts along its axis, the identity along every other axis
    (kron(I, op) along x, kron(op, I) along y).  The sizes in `shape` of
    the axes in ops are unused."""
    factors = [ops.get(ax, sp.identity(n, format="csr"))
               for ax, n in enumerate(shape)]
    return functools.reduce(sp.kron, reversed(factors)).tocsr()


def mat_dual(M: int, h: float, star: bool = False) -> sp.csr_matrix:
    """Flux difference of interior-face values, M x (M-1); wall rows +-1/h
    (or +-2/h for the starred variant)."""
    w = 2.0 if star else 1.0
    main, low = np.ones(M - 1), -np.ones(M - 1)
    main[0], low[-1] = w, -w
    return sp.diags([main, low], [0, -1], shape=(M, M - 1), format="csr") / h


def mat_average(M: int) -> sp.csr_matrix:
    """Neighbour mean, (M-1) x M."""
    return sp.diags([0.5, 0.5], [0, 1], shape=(M - 1, M), format="csr")


def mat_laplacian_neumann(M: int, h: float) -> sp.csr_matrix:
    """1D Neumann Laplacian with one-sided wall rows (M x M)."""
    main = -2.0 * np.ones(M)
    main[0] = main[-1] = -1.0
    off = np.ones(M - 1)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr") / h**2


@functools.lru_cache
def laplacian_nd(dim: int, M: int, h: float) -> sp.csr_matrix:
    """Neumann Laplacian of a cell field: the 1D one along every axis.

    Built once per grid; every caller shares the matrix and must not
    modify it."""
    L = mat_laplacian_neumann(M, h)
    return axis_sum([_along({k: L}, (M,) * dim) for k in range(dim)])


@functools.lru_cache
def dct_frequencies(M: int, h: float):
    """The 1D factors (w, w^2) of the orthonormal DST-I/DCT-II transforms:
    w_m = (2/h) sin(pi m / 2M), m = 0..M-1, and its square taken from the
    sine's square, so that `laplacian_eigenvalues` rounds as the closed
    form -(4/h^2) sin^2(pi m / 2M).

    The flux difference D of `mat_dual` maps DST-I mode m = 1..M-1 of a
    face field to w_m times DCT-II mode m of a cell field, so D^T D has the
    DST-I eigenvalues w_m^2 (m >= 1) and the Neumann Laplacian the DCT-II
    eigenvalues -w_m^2.

    Built once per grid; every caller shares the arrays and must not
    modify them."""
    s = np.sin(np.pi * np.arange(M) / (2 * M))
    return 2.0 / h * s, 4.0 / h**2 * s**2


@functools.lru_cache
def laplacian_eigenvalues(dim: int, M: int, h: float) -> np.ndarray:
    """Eigenvalues of `laplacian_nd` on the DCT-II basis, as a (M,)*dim
    array: minus the sum over axes of the squares w_m^2 of
    `dct_frequencies`, -(4/h^2) sin^2(pi m / 2M), m = 0..M-1.

    Built once per grid; every caller shares the array and must not
    modify it."""
    wsq = dct_frequencies(M, h)[1]
    return -axis_sum([wsq.reshape([M if i == k else 1 for i in range(dim)])
                      for k in range(dim)])


def viscous_blocks(dim: int, M: int, h: float, nu: float, lam: float):
    """The symmetric velocity blocks B[k][j] of the implicit viscous
    operator, coupling velocity j into momentum k.

    The only definition of the viscous operator: `implicit_operators`
    joins the blocks into the one matrix, cached per grid and viscosities,
    that the tendency applies and the Newton Jacobian holds.

    A diagonal block is (2nu+lam) D^T D along its own axis plus nu times
    the wall-damped second difference R along every transverse axis; an
    off-diagonal block is the grad-div coupling (nu+lam) D^T_k D_j, D^T
    along k and D along j in one Kronecker product.  In 1D this is the
    single block (2nu+lam) D^T D of size (M-1) x (M-1).
    """
    D = mat_dual(M, h)
    DtD = (D.T @ D).tocsr()
    Dp = mat_dual(M + 1, h)
    Dps = mat_dual(M + 1, h, star=True)
    R = (Dp.T @ Dps).tocsr()          # M x M wall-damped second difference
    cells = (M,) * dim
    B = []
    for k in range(dim):
        face = tuple(M - 1 if i == k else M for i in range(dim))
        row = []
        for j in range(dim):
            if j == k:
                blk = (2 * nu + lam) * _along({k: DtD}, face)
                for i in range(dim):
                    if i != k:
                        blk = blk + nu * _along({i: R}, face)
            else:
                blk = (nu + lam) * _along({k: D.T, j: D}, cells)
            row.append(blk.tocsr())
        B.append(tuple(row))
    return tuple(B)


class ImplicitOperators(NamedTuple):
    """The matrices of the implicit terms on one grid, acting on
    column-major cell vectors and on the packed face vector
    v = [v_1; ...; v_dim] of the interior faces of each axis in turn."""
    #: face average, cells -> all interior faces
    A: sp.csr_matrix
    #: flux difference, all interior faces -> cells (the divergence)
    D: sp.csr_matrix
    #: its transpose D^T, the negated gradient, cells -> faces
    G: sp.csr_matrix
    #: the viscous blocks of `viscous_blocks` as one matrix on v
    B: sp.csr_matrix


@functools.lru_cache
def implicit_operators(dim: int, M: int, h: float, nu: float,
                       lam: float) -> ImplicitOperators:
    """The implicit operators of one grid and viscosities, built once;
    every caller shares the matrices and must not modify them."""
    cells = (M,) * dim
    A = sp.vstack([_along({k: mat_average(M)}, cells) for k in range(dim)],
                  format="csr")
    D = sp.hstack([_along({k: mat_dual(M, h)}, cells) for k in range(dim)],
                  format="csr")
    return ImplicitOperators(
        A=A, D=D, G=D.T.tocsr(),
        B=sp.bmat(viscous_blocks(dim, M, h, nu, lam), format="csr"))


def _runs(X: sp.csr_matrix):
    """The rows of a CSR matrix as runs: maximal stretches of rows each of
    which has the terms of the row before, with the same coefficients, each
    one column further on.  Returns (run, src, coef): per run its first
    row, its number of rows and the first and end index of its terms, and
    per term the column it reads in the run's first row and its
    coefficient, in the stored order of that row."""
    n, nnz, col, val = X.shape[0], np.diff(X.indptr), X.indices, X.data
    row = np.repeat(np.arange(n), nnz)
    same = np.r_[False, nnz[1:] == nnz[:-1]]
    ok = same[row]
    prev = np.flatnonzero(ok) - nnz[row[ok]]   # that term in the row before
    ok[ok] = (col[ok] == col[prev] + 1) \
        & (val[ok].view(np.int64) == val[prev].view(np.int64))
    first = ~same | (np.bincount(row, ~ok, minlength=n) > 0)
    start = np.flatnonzero(first)
    terms = np.cumsum(np.r_[0, nnz[start]])
    run = np.column_stack([start, np.diff(np.r_[start, n]), terms[:-1],
                           terms[1:]])
    entries = first[row]
    return (np.ascontiguousarray(run, dtype=np.intp),
            col[entries].astype(np.intp), val[entries].copy())


class _Op(ctypes.Structure):
    _fields_ = [("nrun", ctypes.c_ssize_t), ("run", ctypes.c_void_p),
                ("src", ctypes.c_void_p), ("coef", ctypes.c_void_p)]


class _Hydro(ctypes.Structure):
    _fields_ = [("nc", ctypes.c_ssize_t), ("nf", ctypes.c_ssize_t),
                *[(name, _Op) for name in ImplicitOperators._fields]]


class Stencil:
    """One CSR matrix as a compiled stencil (the `Op` of `_hydro.c`), read
    off it by `_runs`: a run is the stretch of a MAC-grid line whose rows
    share one stencil, so each of its terms reads a contiguous stretch of
    the operand, and a row adds its terms in the stored order of its CSR
    row from +0.0, byte for byte the CSR product.  `address` is what the
    compiled passes take."""

    def __init__(self, X: sp.csr_matrix):
        self.shape = X.shape
        self.arrays = run, src, coef = _runs(X)
        if (np.diff(run[:, 2:]) < 1).any():
            raise ValueError("an empty row: every row of a stencil adds "
                             "one term or more")
        self.struct = _Op(len(run), ptr(run), ptr(src), ptr(coef))
        self.address = ctypes.addressof(self.struct)


class Stencils:
    """The implicit operators of one grid as compiled `Stencil`s, in the
    `Hydro` of `_hydro.c` whose `address` the compiled passes take."""

    def __init__(self, ops: ImplicitOperators):
        self.ops = ops
        self.nc, self.nf = ops.D.shape
        self._stencils = [Stencil(X) for X in ops]
        A, _, G, _ = (s.arrays for s in self._stencils)
        # the chord's J_vr takes A's and G's coefficients term by term
        if not all(np.array_equal(a, g) for a, g in zip(A[:2], G[:2])):
            raise ValueError("the face average and the gradient differ in "
                             "their stencils")
        self._struct = _Hydro(self.nc, self.nf,
                              *[s.struct for s in self._stencils])
        self.address = ctypes.addressof(self._struct)

    def apply(self, name: str, x: np.ndarray) -> np.ndarray:
        """X x for the operator X of `ImplicitOperators` named `name`, by its
        stencil."""
        X = getattr(self.ops, name)
        x = np.ascontiguousarray(x, dtype=float)
        if x.shape != X.shape[1:]:
            raise ValueError(f"{name} takes {X.shape[1]} values, not "
                             f"{x.shape}")
        y = np.empty(X.shape[0])
        lib.stencil_apply(self.address + getattr(_Hydro, name).offset,
                          ptr(x), ptr(y))
        return y


@functools.lru_cache
def stencils(dim: int, M: int, h: float, nu: float, lam: float) -> Stencils:
    """The `Stencils` of `implicit_operators` of one grid and viscosities,
    built once; every caller shares them.  They read the matrices that
    cache held when they were built, so a caller that clears it clears
    this cache too."""
    return Stencils(implicit_operators(dim, M, h, nu, lam))


@functools.lru_cache
def laplacian_stencil(dim: int, M: int, h: float) -> Stencil:
    """The `Stencil` of `laplacian_nd`, which the operator of the
    concentration stage applies, built once per grid; every caller shares
    it.  It reads the matrix that cache held when it was built."""
    return Stencil(laplacian_nd(dim, M, h))
