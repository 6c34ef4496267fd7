"""Independent slow reference implementations used as test oracles.

Everything here is written index-by-index from the flux definitions, with its
own ghost-value helpers, deliberately avoiding the vectorized machinery of
the package (only the scalar 5-point WENO kernel and the transfer weights are
shared, since those are certified separately against polynomial exactness).
The stencils of the implicit terms are the exception: the viscous operator,
the mass transport, the pressure force and the Neumann Laplacian are written
with the grid's slice helpers, and are the references the package's sparse
matrices are checked against.  `convective` is not an oracle: it sums the package's own
implicit mass transport and explicit Rusanov terms into the quantity that
`convective_1d`/`convective_2d` compute.  `full_jacobian_refresh` and
`full_jacobian_direction` are the Newton chord step before the Schur
complement: the whole (rho, v) Jacobian (`full_jacobian`) factorized and
solved exactly.
`dense_free_slip_schur` assembles the free-slip operator whose inverse the
Newton correction applies spectrally.
"""

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import block_diag

from chns_imex import model
from chns_imex.grid import (GHOST, MU6, _set, _slc, apply_fd_operator,
                            dual_transpose)
from chns_imex.operators import laplacian_nd, mat_average, mat_dual
from chns_imex.state import State
from chns_imex.weno import D_LIN, WENO_EPS, weno5_point


# ---------------------------------------------------------------------------
# ghost-value accessors (single reflection is enough for 3 ghost layers)
# ---------------------------------------------------------------------------

def cell_val(f, i, sign):
    """Cell field value at arbitrary integer index (0-based)."""
    M = len(f)
    if i < 0:
        return sign * f[-1 - i]
    if i >= M:
        return sign * f[2 * M - 1 - i]
    return f[i]


def face_val(full, k, sign):
    """Full face field (walls included, len M+1) at arbitrary index."""
    M = len(full) - 1
    if k < 0:
        return sign * full[-k]
    if k > M:
        return sign * full[2 * M - k]
    return full[k]


def vel_full(v):
    """Interior-face velocities -> full face array with zero walls."""
    return np.concatenate([[0.0], v, [0.0]])


def c2f6(f, k, sign=1.0):
    """Sixth-order cell->face transfer at face k: cells k-3..k+2 (0-based)."""
    return sum(MU6[j] * cell_val(f, k - 3 + j, sign) for j in range(6))


def f2c6(full, i, sign=1.0):
    """Sixth-order face->cell transfer at cell i: faces i-2..i+3."""
    return sum(MU6[j] * face_val(full, i - 2 + j, sign) for j in range(6))


def weno_cells(f, k, sign):
    """(minus, plus) interface states at face k from a cell field."""
    minus = weno5_point([cell_val(f, k - 3 + j, sign) for j in range(5)])
    plus = weno5_point([cell_val(f, k + 2 - j, sign) for j in range(5)])
    return minus, plus


def weno_faces(full, i, sign):
    """(minus, plus) states at cell center i (0-based) from a face field."""
    minus = weno5_point([face_val(full, i - 2 + j, sign) for j in range(5)])
    plus = weno5_point([face_val(full, i + 3 - j, sign) for j in range(5)])
    return minus, plus


def weno5_one_sided(w):
    """Left-biased WENO5 of stacked stencils (last axis holds the 5
    samples), each stencil with its own smoothness indicators."""
    v0, v1, v2, v3, v4 = (w[..., k] for k in range(5))
    b0 = 13.0 / 12.0 * (v0 - 2 * v1 + v2) ** 2 + 0.25 * (v0 - 4 * v1 + 3 * v2) ** 2
    b1 = 13.0 / 12.0 * (v1 - 2 * v2 + v3) ** 2 + 0.25 * (v1 - v3) ** 2
    b2 = 13.0 / 12.0 * (v2 - 2 * v3 + v4) ** 2 + 0.25 * (3 * v2 - 4 * v3 + v4) ** 2
    a0 = D_LIN[0] / (WENO_EPS + b0) ** 2
    a1 = D_LIN[1] / (WENO_EPS + b1) ** 2
    a2 = D_LIN[2] / (WENO_EPS + b2) ** 2
    s = a0 + a1 + a2
    q0 = (2 * v0 - 7 * v1 + 11 * v2) / 6.0
    q1 = (-v1 + 5 * v2 + 2 * v3) / 6.0
    q2 = (2 * v2 + 5 * v3 - v4) / 6.0
    return (a0 * q0 + a1 * q1 + a2 * q2) / s


def weno_lr_windows(ext, ax, faces, g=GHOST):
    """(minus, plus) of `weno.reconstruct_lr_faces` (faces=True) or
    `reconstruct_lr_cells`, each state from its own sliding window: minus
    from the window starting at `first`, plus from the reversed window one
    sample later."""
    n = ext.shape[ax] - 2 * g - (1 if faces else -1)
    first = g - 2 if faces else g - 3
    w = sliding_window_view(ext, 5, axis=ax)

    def take(start):
        idx = [slice(None)] * ext.ndim
        idx[ax] = slice(start, start + n)
        return w[tuple(idx)]

    return (weno5_one_sided(take(first)),
            weno5_one_sided(take(first + 1)[..., ::-1]))


def sound(r, params):
    return model.sound_speed(r, params) if r > 0 else 0.0


def lam_max(vm, vp, rm, rp, params):
    return max(abs(vm) + sound(rm, params), abs(vp) + sound(rp, params))


# ---------------------------------------------------------------------------
# the package's convective terms, as the oracles below define them
# ---------------------------------------------------------------------------

def convective(disc, Ut, U):
    """Implicit mass transport from U plus the explicit Rusanov terms from
    Ut, as `SpatialDiscretization` splits them; the quantity that
    `convective_1d`/`convective_2d` compute."""
    out = disc.rusanov(Ut)
    out.rho = disc.implicit_tendency(U).rho + out.rho
    return out


# ---------------------------------------------------------------------------
# 1D convective tendency from the flux definitions
# ---------------------------------------------------------------------------

def convective_1d(Ut, U, h, params):
    M = len(Ut.rho)
    rho_t, q_t = Ut.rho, Ut.q
    V = vel_full(Ut.velocities()[0])   # explicit face velocities, walls zero
    MX = vel_full(U.m[0])              # implicit centered mass flux rho_* v
    vc = np.array([f2c6(V, i, -1.0) for i in range(M)])
    rho_f = np.array([c2f6(rho_t, k, 1.0) for k in range(M + 1)])

    F_rho = np.empty(M + 1)
    F_q = np.empty(M + 1)
    for k in range(M + 1):
        rm, rp = weno_cells(rho_t, k, 1.0)
        vm, vp = weno_cells(vc, k, -1.0)
        lam = lam_max(vm, vp, rm, rp, params)
        F_rho[k] = face_val(MX, k, -1.0) - 0.5 * lam * (rp - rm)
        qm, qp = weno_cells(q_t, k, 1.0)
        rvm, rvp = weno_cells(q_t * vc, k, -1.0)
        F_q[k] = 0.5 * (rvp + rvm) - 0.5 * lam * (qp - qm)

    Phi = rho_f * V**2 + model.p1(rho_f, params)
    Mom = rho_f * V
    Fc = np.empty(M)
    for i in range(M):
        pm, pp = weno_faces(Phi, i, 1.0)
        mm, mp = weno_faces(Mom, i, -1.0)
        vm, vp = weno_faces(V, i, -1.0)
        rm, rp = weno_faces(rho_f, i, 1.0)
        lam = lam_max(vm, vp, rm, rp, params)
        Fc[i] = 0.5 * (pp + pm) - 0.5 * lam * (mp - mm)

    t_rho = -(F_rho[1:] - F_rho[:-1]) / h
    t_q = -(F_q[1:] - F_q[:-1]) / h
    t_mx = (Fc[:-1] - Fc[1:]) / h
    return t_rho, t_mx, t_q


# ---------------------------------------------------------------------------
# 2D convective tendency (scalar loops; slow, use only for small M)
# ---------------------------------------------------------------------------

def _line_mass_flux(rho_line, q_line, v_full, mx_full, h, params):
    """Rusanov mass and phase fluxes along one grid line (walls included)."""
    M = len(rho_line)
    vc = np.array([f2c6(v_full, i, -1.0) for i in range(M)])
    F_rho = np.empty(M + 1)
    F_q = np.empty(M + 1)
    for k in range(M + 1):
        rm, rp = weno_cells(rho_line, k, 1.0)
        vm, vp = weno_cells(vc, k, -1.0)
        lam = lam_max(vm, vp, rm, rp, params)
        F_rho[k] = face_val(mx_full, k, -1.0) - 0.5 * lam * (rp - rm)
        qm, qp = weno_cells(q_line, k, 1.0)
        rvm, rvp = weno_cells(q_line * vc, k, -1.0)
        F_q[k] = 0.5 * (rvp + rvm) - 0.5 * lam * (qp - qm)
    return F_rho, F_q


def _line_self_mom_flux(rho_f, v_full, h, params):
    """Normal momentum flux rho v^2 + p1 reconstructed at the M centers."""
    M = len(rho_f) - 1
    Phi = rho_f * v_full**2 + model.p1(rho_f, params)
    Mom = rho_f * v_full
    Fc = np.empty(M)
    for i in range(M):
        pm, pp = weno_faces(Phi, i, 1.0)
        mm, mp = weno_faces(Mom, i, -1.0)
        vm, vp = weno_faces(v_full, i, -1.0)
        rm, rp = weno_faces(rho_f, i, 1.0)
        lam = lam_max(vm, vp, rm, rp, params)
        Fc[i] = 0.5 * (pp + pm) - 0.5 * lam * (mp - mm)
    return Fc


def _line_corner_flux(rho_row, v_row, w_row, h, params):
    """Transverse momentum flux rho*v*w along a row of M samples.

    v is the momentum component carried (odd across the walls of this axis),
    w the transporting velocity (odd); rho even.  Returns fluxes at the M+1
    interfaces of the row.
    """
    M = len(rho_row)
    qty = rho_row * v_row * w_row
    mom = rho_row * v_row
    G = np.empty(M + 1)
    for k in range(M + 1):
        cm, cp = weno_cells(qty, k, 1.0)
        mm, mp = weno_cells(mom, k, -1.0)
        wm, wp = weno_cells(w_row, k, -1.0)
        rm, rp = weno_cells(rho_row, k, 1.0)
        lam = lam_max(wm, wp, rm, rp, params)
        G[k] = 0.5 * (cp + cm) - 0.5 * lam * (mp - mm)
    return G


def convective_2d(Ut, U, h, params):
    M = Ut.rho.shape[0]
    rho_t, q_t = Ut.rho, Ut.q
    v1, v2 = Ut.velocities()
    t_rho = np.zeros((M, M))
    t_q = np.zeros((M, M))
    t_mx = np.zeros((M - 1, M))
    t_my = np.zeros((M, M - 1))

    # mass and phase: sweep x-lines then y-lines
    for j in range(M):
        F_rho, F_q = _line_mass_flux(rho_t[:, j], q_t[:, j],
                                     vel_full(v1[:, j]), vel_full(U.m[0][:, j]),
                                     h, params)
        t_rho[:, j] += -(F_rho[1:] - F_rho[:-1]) / h
        t_q[:, j] += -(F_q[1:] - F_q[:-1]) / h
    for i in range(M):
        G_rho, G_q = _line_mass_flux(rho_t[i, :], q_t[i, :],
                                     vel_full(v2[i, :]), vel_full(U.m[1][i, :]),
                                     h, params)
        t_rho[i, :] += -(G_rho[1:] - G_rho[:-1]) / h
        t_q[i, :] += -(G_q[1:] - G_q[:-1]) / h

    # x-momentum: normal flux along x rows (j fixed)
    rho_xf = np.empty((M + 1, M))
    for j in range(M):
        for k in range(M + 1):
            rho_xf[k, j] = c2f6(rho_t[:, j], k, 1.0)
        Fc = _line_self_mom_flux(rho_xf[:, j], vel_full(v1[:, j]), h, params)
        t_mx[:, j] += (Fc[:-1] - Fc[1:]) / h
    # x-momentum: corner flux along y (i.e. at fixed interior x-face k)
    #   v2 at x-faces: corner average in x then 6th-order y-transfer
    corner_v2 = np.empty((M - 1, M - 1))   # at corners (xf k, yf l)
    for k in range(M - 1):
        corner_v2[k, :] = 0.5 * (v2[k, :] + v2[k + 1, :])
    for k in range(M - 1):
        v2_row = np.array([f2c6(vel_full(corner_v2[k, :]), j, -1.0)
                           for j in range(M)])
        G = _line_corner_flux(rho_xf[k + 1, :], v1[k, :], v2_row, h, params)
        t_mx[k, :] += -(G[1:] - G[:-1]) / h

    # y-momentum: mirrored
    rho_yf = np.empty((M, M + 1))
    for i in range(M):
        for k in range(M + 1):
            rho_yf[i, k] = c2f6(rho_t[i, :], k, 1.0)
        Gc = _line_self_mom_flux(rho_yf[i, :], vel_full(v2[i, :]), h, params)
        t_my[i, :] += (Gc[:-1] - Gc[1:]) / h
    corner_v1 = np.empty((M - 1, M - 1))
    for l in range(M - 1):
        corner_v1[:, l] = 0.5 * (v1[:, l] + v1[:, l + 1])
    for l in range(M - 1):
        v1_row = np.array([f2c6(vel_full(corner_v1[:, l]), i, -1.0)
                           for i in range(M)])
        F = _line_corner_flux(rho_yf[:, l + 1], v2[:, l], v1_row, h, params)
        t_my[:, l] += -(F[1:] - F[:-1]) / h
    return t_rho, t_mx, t_my, t_q


# ---------------------------------------------------------------------------
# capillary tendency via explicit stencils
# ---------------------------------------------------------------------------

def capillary_2d(Ut, h, params):
    """Capillary forces from central gradients of c, scalar loops."""
    eps = params.eps
    c = Ut.c()
    M = c.shape[0]

    def dcx(i, j):    # centered x-derivative at cell (one-sided at walls)
        return (cell_val(c[:, j], i + 1, 1.0)
                - cell_val(c[:, j], i - 1, 1.0)) / (2 * h)

    def dcy(i, j):
        return (cell_val(c[i, :], j + 1, 1.0)
                - cell_val(c[i, :], j - 1, 1.0)) / (2 * h)

    cx2 = np.array([[dcx(i, j) ** 2 for j in range(M)] for i in range(M)])
    cy2 = np.array([[dcy(i, j) ** 2 for j in range(M)] for i in range(M)])

    # corner gradients at (k+1/2, l+1/2): two-point differences + averages
    gx = (c[1:, :] - c[:-1, :]) / h            # (M-1, M) at x-faces
    gy = (c[:, 1:] - c[:, :-1]) / h            # (M, M-1) at y-faces
    corner_cx = 0.5 * (gx[:, :-1] + gx[:, 1:])   # (M-1, M-1)
    corner_cy = 0.5 * (gy[:-1, :] + gy[1:, :])
    prod = corner_cx * corner_cy

    t_mx = np.zeros((M - 1, M))
    t_my = np.zeros((M, M - 1))
    for k in range(M - 1):
        for j in range(M):
            d = (cy2[k + 1, j] - cx2[k + 1, j]
                 - cy2[k, j] + cx2[k, j]) / h
            row = prod[k, :]
            pr = row[j] if j < M - 1 else 0.0
            pl = row[j - 1] if j >= 1 else 0.0
            t_mx[k, j] = eps * (0.5 * d - (pr - pl) / h)
    for i in range(M):
        for l in range(M - 1):
            d = (cx2[i, l + 1] - cy2[i, l + 1]
                 - cx2[i, l] + cy2[i, l]) / h
            col = prod[:, l]
            pr = col[i] if i < M - 1 else 0.0
            pl = col[i - 1] if i >= 1 else 0.0
            t_my[i, l] = eps * (0.5 * d - (pr - pl) / h)
    return t_mx, t_my


# ---------------------------------------------------------------------------
# stencils of the implicit terms
# ---------------------------------------------------------------------------

def laplacian_neumann(f, h):
    """Second-order Neumann Laplacian on a cell-centered field (1D or 2D).

    Interior rows are the 3/5-point stencil; wall rows drop the outside
    neighbour, e.g. (f_2 - f_1)/h^2, which is the stencil with a symmetric
    ghost.  Symmetric, negative semidefinite, constants in the kernel.
    """
    out = np.zeros_like(f, dtype=float)
    for ax in range(f.ndim):
        _set(out, ax, slice(1, -1),
             _slc(out, ax, slice(1, -1))
             + (_slc(f, ax, slice(2, None)) - 2 * _slc(f, ax, slice(1, -1))
                + _slc(f, ax, slice(0, -2))) / h**2)
        _set(out, ax, slice(0, 1),
             _slc(out, ax, slice(0, 1))
             + (_slc(f, ax, slice(1, 2)) - _slc(f, ax, slice(0, 1))) / h**2)
        _set(out, ax, slice(-1, None),
             _slc(out, ax, slice(-1, None))
             + (_slc(f, ax, slice(-2, -1)) - _slc(f, ax, slice(-1, None)))
             / h**2)
    return out


def ch_convex_stencil(c, rho, eps, h):
    """2 L c - eps L(L c / rho) on cell arrays, L the Neumann stencil."""
    lap = laplacian_neumann(c, h)
    return 2.0 * lap - eps * laplacian_neumann(lap / rho, h)


def mass_transport(m, h):
    """-div m of the face momenta m, in axis order: the flux difference of
    each face field, homogeneous at the walls."""
    return -sum(apply_fd_operator("dual", k, mk, h) for k, mk in enumerate(m))


def pressure_force(rho, params, h):
    """-grad p2 at the faces of each axis, from the centered stiff pressure
    (identical under the gradient, without its cancellation at large
    cp2)."""
    p2 = model.p2_centered(rho, params, float(rho.mean()))
    return [dual_transpose(p2, k, h) for k in range(rho.ndim)]


def _dtd(v, ax, h):
    """D^T D along an axis: wall-anchored negated second difference."""
    return dual_transpose(apply_fd_operator("dual", ax, v, h), ax, h)


def _rop(v, ax, h):
    """Negated second difference transverse to a face field, with the
    stronger (-3v) no-slip wall rows."""
    h2 = h ** 2

    def at(s):
        return _slc(v, ax, s)

    out = np.empty_like(v, dtype=float)
    _set(out, ax, slice(1, -1), (2 * at(slice(1, -1)) - at(slice(2, None))
                                 - at(slice(None, -2))) / h2)
    _set(out, ax, slice(0, 1), (3 * at(slice(0, 1)) - at(slice(1, 2))) / h2)
    _set(out, ax, slice(-1, None),
         (3 * at(slice(-1, None)) - at(slice(-2, -1))) / h2)
    return out


def viscous_stencil(v, h, nu, lam):
    """The symmetric viscous operator applied to face velocities v in axis
    order; returns one face field per axis.

    Along its own axis a component feels (2 nu + lam) D^T D; along a
    transverse axis j it feels nu times the no-slip second difference
    and (nu + lam) times the grad-div coupling to v_j.
    """
    out = []
    for k, vk in enumerate(v):
        acc = (2 * nu + lam) * _dtd(vk, k, h)
        for j, vj in enumerate(v):
            if j != k:
                acc = acc + nu * _rop(vk, j, h) \
                    + (nu + lam) * dual_transpose(
                        apply_fd_operator("dual", j, vj, h), k, h)
        out.append(acc)
    return out


def dense_viscous_blocks(M, h, params, dim):
    """Dense blocks B[k][j] of the viscous stencil, column by column from
    unit face velocities (column-major vectorization)."""
    shapes = [tuple(M - 1 if i == k else M for i in range(dim))
              for k in range(dim)]
    sizes = [int(np.prod(s)) for s in shapes]
    B = [[np.zeros((nk, nj)) for nj in sizes] for nk in sizes]
    for j, sj in enumerate(shapes):
        for col in range(sizes[j]):
            v = [np.zeros(s) for s in shapes]
            unit = np.zeros(sizes[j])
            unit[col] = 1.0
            v[j] = unit.reshape(sj, order="F")
            for k, out in enumerate(viscous_stencil(v, h, params.nu,
                                                    params.lam)):
                B[k][j][:, col] = np.ravel(out, order="F")
    return B


# ---------------------------------------------------------------------------
# dense matrices for the linear/implicit parts
# ---------------------------------------------------------------------------

def mat_center(M: int, h: float) -> sp.csr_matrix:
    """Centered first derivative at cell centers, one-sided wall rows (M x M)."""
    D = sp.lil_matrix((M, M))
    for i in range(1, M - 1):
        D[i, i - 1] = -1.0
        D[i, i + 1] = 1.0
    D[0, 0], D[0, 1] = -1.0, 1.0
    D[M - 1, M - 2], D[M - 1, M - 1] = -1.0, 1.0
    return (D / (2 * h)).tocsr()


def dense_implicit_ops(M, h, params, dim):
    """Dense Kronecker assemblies of the implicit operators; the viscous
    blocks come from the stencil above."""
    D = mat_dual(M, h).toarray()
    A = mat_average(M).toarray()
    G = D.T
    L = laplacian_nd(dim, M, h).toarray()
    B = dense_viscous_blocks(M, h, params, dim)
    if dim == 1:
        return {"Dx": D, "Ax": A, "Gx": G, "L": L, "B11": B[0][0]}
    I = np.eye(M)
    out = {
        "Dx": np.kron(I, D), "Dy": np.kron(D, I),
        "Ax": np.kron(I, A), "Ay": np.kron(A, I),
        "Gx": np.kron(I, G), "Gy": np.kron(G, I),
        "L": L,
    }
    out.update(B11=B[0][0], B12=B[0][1], B21=B[1][0], B22=B[1][1])
    return out


def dense_c_matrix(rho_flat, dta, eps, M, h, dim):
    L = laplacian_nd(dim, M, h).toarray()
    return (np.diag(rho_flat) - 2.0 * dta * L
            + dta * eps * L @ np.diag(1.0 / rho_flat) @ L)


def swap_xy(U):
    """Mirror a 2D state in the diagonal x = y."""
    return State(rho=U.rho.T.copy(), q=U.q.T.copy(),
                 m=(U.m[1].T.copy(), U.m[0].T.copy()))


# ---------------------------------------------------------------------------
# the chord Newton step on the whole Jacobian
# ---------------------------------------------------------------------------

def full_jacobian(hydro, z, dta):
    """The whole Jacobian of the hydro residual, from its four blocks."""
    J_rr, J_rv, J_vr, J_vv = hydro.jacobian(z, dta)
    return sp.bmat([[J_rr, J_rv], [J_vr, J_vv]], format="csc")


def full_jacobian_refresh(hydro, z, dta, stats):
    """Stands in for `HydroSolver._refresh`: factorize the whole Jacobian."""
    hydro._chord.refactorize(full_jacobian(hydro, z, dta), dta)
    stats.factorizations += 1


def full_jacobian_direction(hydro, b, stats):
    """Stands in for `HydroSolver._direction`: one solve with the LU of the
    whole Jacobian."""
    stats.lu_solves += 1
    return hydro._lu.solve(b)


# ---------------------------------------------------------------------------
# the free-slip velocity Schur operator
# ---------------------------------------------------------------------------

def _kron_along(ops, shape):
    """Dense lift of 1D operators {axis: op} to a column-major field of the
    given shape (identity along the other axes)."""
    out = np.eye(1)
    for ax, n in enumerate(shape):
        out = np.kron(ops.get(ax, np.eye(n)), out)
    return out


def dense_free_slip_schur(M, h, params, dim, rbar, dta):
    """rbar I + dta B_fs + dta^2 rbar p2'(rbar) D^T D on the packed face
    velocities, assembled densely: B_fs is the viscous operator with the
    Neumann second difference (one-sided wall rows) across each face field
    in place of the no-slip one, and D = [D_1 ... D_dim] the divergence."""
    D1 = mat_dual(M, h).toarray()
    neumann = (np.diag(np.r_[1.0, 2.0 * np.ones(M - 2), 1.0])
               - np.eye(M, k=1) - np.eye(M, k=-1)) / h**2
    faces = [tuple(M - 1 if i == k else M for i in range(dim))
             for k in range(dim)]
    Dk = [_kron_along({k: D1}, f) for k, f in enumerate(faces)]
    D = np.hstack(Dk)
    # minus the Laplacian of each face field: D^T D along its own axis, the
    # Neumann second difference across it
    lap = block_diag(*[Dk[k].T @ Dk[k]
                       + sum(_kron_along({i: neumann}, f)
                             for i in range(dim) if i != k)
                       for k, f in enumerate(faces)])
    B = params.nu * lap + (params.nu + params.lam) * D.T @ D
    return rbar * np.eye(D.shape[1]) + dta * B \
        + dta**2 * rbar * float(model.dp2(rbar, params)) * D.T @ D
