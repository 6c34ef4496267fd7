"""Sparse 1D operator matrices and their Kronecker-product 2D assemblies.

Fields indexed [i, j] (i = x) are vectorized column-major (order='F'), so an
operator acting along x is kron(I, Op) and along y is kron(Op, I).  These
matrices back the Newton Jacobian and the c-system assembly;
tendency evaluation itself is matrix-free (see the spatial module).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


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


def laplacian_nd(dim: int, M: int, h: float) -> sp.csr_matrix:
    L = mat_laplacian_neumann(M, h)
    if dim == 1:
        return L
    I = sp.identity(M, format="csr")
    return (sp.kron(I, L) + sp.kron(L, I)).tocsr()


def viscous_blocks(dim: int, M: int, h: float, nu: float, lam: float):
    """The symmetric velocity blocks of the implicit viscous operator.

    2D returns (A11, A12, A21, A22) with A11 acting on v1 (length (M-1)*M,
    x-fastest), A22 on v2 (length M*(M-1)).  1D returns the single block
    (2nu+lam) D^T D of size (M-1) x (M-1).
    """
    D = mat_dual(M, h)
    DtD = (D.T @ D).tocsr()
    if dim == 1:
        return ((2 * nu + lam) * DtD,)
    Dp = mat_dual(M + 1, h)
    Dps = mat_dual(M + 1, h, star=True)
    R = (Dp.T @ Dps).tocsr()          # M x M wall-damped second difference
    I_M = sp.identity(M, format="csr")
    I_Mm1 = sp.identity(M - 1, format="csr")
    A11 = (2 * nu + lam) * sp.kron(I_M, DtD) + nu * sp.kron(R, I_Mm1)
    A22 = (2 * nu + lam) * sp.kron(DtD, I_M) + nu * sp.kron(I_Mm1, R)
    A12 = (nu + lam) * sp.kron(D, D.T)
    A21 = (nu + lam) * sp.kron(D.T, D)
    return A11.tocsr(), A12.tocsr(), A21.tocsr(), A22.tocsr()
