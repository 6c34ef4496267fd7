"""Sparse 1D operator matrices and their Kronecker-product 2D assemblies.

Fields indexed [i, j] (i = x) are vectorized column-major (order='F'), so an
operator acting along x is kron(I, Op) and along y is kron(Op, I).  The
implicit terms are these matrices and nothing else: `implicit_operators`
holds, per grid, the face average, the flux difference and its transpose
on the packed vector [rho; v_1; ...; v_dim], the viscous block matrix and
the Neumann Laplacian.  The tendency applies them (see the spatial
module), the Newton Jacobian is built from them, and the concentration
solve applies and assembles the same Laplacian.  The DST-I/DCT-II factors of the flux
difference give the Neumann Laplacian's eigenvalues, which precondition the
concentration solve, and diagonalize the free-slip velocity operator of the
Newton correction.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .grid import axis_sum


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
    D = sp.lil_matrix((M, M - 1))
    D[0, 0] = w
    for i in range(1, M - 1):
        D[i, i - 1] = -1.0
        D[i, i] = 1.0
    D[M - 1, M - 2] = -w
    return (D / h).tocsr()


def mat_average(M: int) -> sp.csr_matrix:
    """Neighbour mean, (M-1) x M."""
    A = sp.lil_matrix((M - 1, M))
    for i in range(M - 1):
        A[i, i] = 0.5
        A[i, i + 1] = 0.5
    return A.tocsr()


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
    #: the Neumann Laplacian of a cell field, `laplacian_nd`
    L: sp.csr_matrix


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
        B=sp.bmat(viscous_blocks(dim, M, h, nu, lam), format="csr"),
        L=laplacian_nd(dim, M, h))
