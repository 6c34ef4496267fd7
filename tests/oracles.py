"""Independent slow reference implementations used as test oracles.

Everything here is written index-by-index from the flux definitions, with its
own ghost-value helpers, deliberately avoiding the vectorized machinery of
the package (only the WENO5 kernel, applied to one 5-point stencil by
`weno5_point`, and the transfer weights are shared, since those are
certified separately against polynomial exactness).  The NumPy forms of
the compiled passes, which must match them bit for bit, are `rusanov` (the
whole explicit Rusanov tendency: ghost arrays from `extend_cell` and
`extend_face_interior`, the six-point transfers `cells_to_faces6` and
`faces_to_cells6`, the products, then per stack `reconstruct_lr` and
`rusanov_flux`, then the differences), `reconstruct_lr` (mirror ghosts from
`extend_cell` or `extend_face_full`, then the NumPy kernel `weno5_states`)
and `rusanov_tendency` (the fluxes and differences of a states buffer).
The stencils of the implicit terms are the exception: the viscous operator,
the mass transport, the pressure force and the Neumann Laplacian are written
with the grid's slice helpers, and are the references the package's sparse
matrices are checked against.  `ch_convex`, `implicit_tendency` and
`convective` are not oracles: the first two apply the package's own
implicit terms to a State, and `convective` sums its implicit mass
transport and explicit Rusanov terms into the quantity that
`convective_1d`/`convective_2d` compute.  `full_jacobian_refresh` and
`full_jacobian_direction` are the Newton direction before the Schur
complement: the whole (rho, v) chord Jacobian (`full_jacobian`) factorized
and solved exactly, then corrected as the solver corrects its own.
`dense_free_slip_schur` assembles the free-slip operator whose inverse the
Newton correction applies spectrally.  `hydro_tendency`, `residual`,
`jacobian_times` and `eliminate` are the Newton algebra as the CSR products
and NumPy expressions that the compiled stencils replaced; the package must
match them byte for byte.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import block_diag

from chns_imex import model
from chns_imex.grid import _slc, _walls, axis_sum, diff, dual, face_average
from chns_imex.operators import laplacian_nd, mat_average, mat_dual
from chns_imex.model import NonPositiveDensityError
from chns_imex.solvers import (SPLU_SYMMETRIC, HydroSolver, _scale_cols,
                               _scale_rows)
from chns_imex.state import State
from chns_imex.weno import (D_LIN, PARITY, PARITY_CELLS, WENO_EPS,
                            reconstruct_lr_cells, stack_layout)


#: ghost layers added on each side; enough for WENO5 and the 6-point transfer
GHOST = 3

#: sixth-order transfer weights (midpoint interpolation on 6 neighbours)
MU6 = np.array([3.0, -25.0, 150.0, 150.0, -25.0, 3.0]) / 256.0


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


def extend_face_full(f, ax, sign):
    """A face field with its walls (faces 0..M along ax) extended by GHOST
    mirror ghosts on each side: face -k is face k times sign, face M+k is
    face M-k times sign; an array sign broadcast against f gives each
    field of a stack its own parity."""
    left = sign * np.flip(_slc(f, ax, slice(1, GHOST + 1)), axis=ax)
    right = sign * np.flip(_slc(f, ax, slice(-GHOST - 1, -1)), axis=ax)
    return np.concatenate([left, f, right], axis=ax)


def _mirror(f, ax, sign, skip):
    """f with GHOST mirror ghosts on each side along ax: the first GHOST
    samples after the `skip` end ones, reversed and times sign."""
    n = f.shape[ax]
    left = sign * np.flip(_slc(f, ax, slice(skip, GHOST + skip)), axis=ax)
    right = sign * np.flip(_slc(f, ax, slice(n - GHOST - skip, n - skip)),
                           axis=ax)
    return np.concatenate([left, f, right], axis=ax)


def extend_cell(f, ax, sign):
    """Extend a cell-positioned axis by GHOST mirror ghosts on each side.

    sign=+1 mirrors values (rho, c, q:  f_0 = f_1, f_-1 = f_2, ...),
    sign=-1 mirrors with a sign flip (velocity components).  An array sign
    broadcast against f gives each field of a stack its own parity.
    """
    return _mirror(f, ax, sign, 0)


def extend_face_interior(f, ax):
    """Extend interior face values (M-1 along axis) across no-slip walls.

    The wall faces (value 0) are inserted, then GHOST odd-mirror ghosts are
    added on each side: v_{1/2 - k} = -v_{1/2 + k}.  Output length
    M + 1 + 2 GHOST.
    """
    return _mirror(_walls(f, ax), ax, -1, 1)


def _transfer6(ext, ax, start):
    """mu-weighted sums of 6 consecutive samples of ext along ax, the first
    window at `start` and as many as fit with `start` samples left over at
    the far end."""
    count = ext.shape[ax] - 2 * start - 5
    acc = MU6[0] * _slc(ext, ax, slice(start, start + count))
    for k in range(1, 6):
        acc = acc + MU6[k] * _slc(ext, ax, slice(start + k, start + k + count))
    return acc


def cells_to_faces6(ext, ax):
    """Interpolate an extended cell field to all faces 0..M (length M+1)."""
    # face i+1/2 (i = 0..M) uses cells i-2..i+3
    return _transfer6(ext, ax, GHOST - 3)


def faces_to_cells6(ext, ax):
    """Interpolate an extended face field (walls included) to cells 1..M."""
    # cell i (i = 1..M) uses faces i-5/2..i+5/2
    return _transfer6(ext, ax, GHOST - 2)


def vel_full(v):
    """Interior-face velocities -> full face array with zero walls."""
    return np.concatenate([[0.0], v, [0.0]])


def c2f6(f, k, sign=1.0):
    """Sixth-order cell->face transfer at face k: cells k-3..k+2 (0-based)."""
    return sum(MU6[j] * cell_val(f, k - 3 + j, sign) for j in range(6))


def f2c6(full, i, sign=1.0):
    """Sixth-order face->cell transfer at cell i: faces i-2..i+3."""
    return sum(MU6[j] * face_val(full, i - 2 + j, sign) for j in range(6))


def weno5_point(stencil) -> float:
    """Left-biased reconstruction between the 3rd and 4th of 5 samples: the
    package's kernel on one stencil."""
    w = np.asarray(stencil, dtype=float)
    if w.shape != (5,):
        raise ValueError("stencil must contain exactly 5 samples")
    # as a line of five cells: interface 3 lies between the 3rd and 4th
    return float(reconstruct_lr_cells(w, 0, 1.0)[0][3])


def weno5_states(ext, ax, first, count):
    """(right, left) states of the targets first..first+count-1 along ax of
    a ghost-extended array, with the operations of the compiled kernel in
    the same order, each over whole arrays."""
    seg = _slc(ext, ax, slice(first - 2, first + count + 2))
    D = _slc(seg, ax, slice(1, None)) - _slc(seg, ax, slice(None, -1))
    S = _slc(D, ax, slice(1, None)) - _slc(D, ax, slice(None, -1))
    np.square(S, out=S)
    S *= 13.0 / 12.0
    # the multiples of D the windows read, each computed once per line
    D2, D3, D5 = 2 * D, 3 * D, 5 * D
    D4 = 2 * D2

    def at(a, s):
        """The entry s of each target's window (D0..D3, or S0..S2)."""
        return _slc(a, ax, slice(s, s + count))

    def beta(lin, s):
        """(eps + S_s + lin^2 / 4)^2, in the storage of lin."""
        np.square(lin, out=lin)
        lin *= 0.25
        lin += at(S, s)
        lin += WENO_EPS
        np.square(lin, out=lin)
        return lin

    # (eps + beta)^2 of the three sub-stencils, shared by both states
    e0 = beta(at(D3, 1) - at(D, 0), 0)
    e1 = beta(at(D, 1) + at(D, 2), 1)
    e2 = beta(at(D3, 2) - at(D, 3), 2)
    a1 = D_LIN[1] / e1

    def state(e_lo, e_hi, c0, c1, c2):
        """(a0 c0 + a1 c1 + a2 c2) / (6 (a0 + a1 + a2)), in the storage of
        c0..c2, with a0 = d0 / e_lo and a2 = d2 / e_hi."""
        a0 = D_LIN[0] / e_lo
        a2 = D_LIN[2] / e_hi
        c0 *= a0
        c1 *= a1
        c0 += c1
        c2 *= a2
        c0 += c2
        a0 += a1
        a0 += a2
        a0 *= 6.0
        c0 /= a0
        return c0

    v2 = at(seg, 2)
    right = state(e0, e2, at(D5, 1) - at(D2, 0), at(D, 1) + at(D2, 2),
                  at(D4, 2) - at(D, 3))
    right += v2
    left = state(e2, e0, at(D5, 2) - at(D2, 3), at(D, 2) + at(D2, 1),
                 at(D4, 1) - at(D, 0))
    np.subtract(v2, left, out=left)
    return right, left


def reconstruct_lr(f, ax, parity, faces):
    """The NumPy reference of `weno.reconstruct_lr_faces` (faces=True) or
    `reconstruct_lr_cells`: f extended by mirror ghosts with one sign, or
    one per field along axis 0, then `weno5_states` of every target."""
    sign = np.reshape(parity, np.shape(parity) + (1,) * (f.ndim - 1))
    ext = (extend_face_full if faces else extend_cell)(f, ax, sign)
    first = GHOST if faces else GHOST - 1
    ax = range(f.ndim)[ax]
    right, left = weno5_states(ext, ax, first, ext.shape[ax] - 2 * first)
    return _slc(right, ax, slice(None, -1)), _slc(left, ax, slice(1, None))


def rusanov_flux(minus, plus, s_minus, s_plus, diffusion=False):
    """The NumPy reference of `weno.rusanov_flux`: the expressions it
    replaced, on the states of a stack [F, u, v, rho]."""
    (F_m, u_m, v_m, r_m), (F_p, u_p, v_p, r_p) = minus, plus
    lam = np.maximum(np.abs(v_m) + s_minus, np.abs(v_p) + s_plus)
    flux = 0.5 * (F_p + F_m) - 0.5 * lam * (u_p - u_m)
    return flux, 0.5 * lam * (r_p - r_m) if diffusion else None


def rusanov(disc, Ut):
    """The NumPy reference of `SpatialDiscretization.rusanov`, the code it
    replaced: per axis, ghost-extended fields, the six-point transfers and
    the products in NumPy, `reconstruct_lr` and `rusanov_flux` of each
    stack with the sound speeds of `disc._sound` on each side, then the
    differences."""
    h, p, dim = disc.grid.h, disc.params, disc.grid.dim
    v = Ut.velocities()

    def flux(stack, ax, parity, faces, diffusion=False):
        minus, plus = reconstruct_lr(stack, ax + 1, parity, faces)
        return rusanov_flux(minus, plus, disc._sound(minus[3]),
                            disc._sound(plus[3]), diffusion)

    mass, dq, mom = [], [], []
    for k in range(dim):
        v_ext = extend_face_interior(v[k], k)
        v_cell = faces_to_cells6(v_ext, k)
        Fc, d = flux(np.stack([Ut.q * v_cell, Ut.q, v_cell, Ut.rho]), k,
                     PARITY_CELLS, False, diffusion=True)
        # the wall entries of the mass diffusion cancel by the mirror
        # symmetry of the density
        mass.append(dual(_slc(d, k, slice(1, -1)), k, h))
        dq.append(-diff(Fc, k) / h)
        # the density at the faces 0..M along k, from its mirror ghosts
        rho_f = cells_to_faces6(extend_cell(Ut.rho, k, 1.0), k)
        v_full = _slc(v_ext, k, slice(GHOST, -GHOST))
        F = rho_f * v_full**2 + model.p1(rho_f, p)
        faces = np.stack([F, rho_f * v_full, v_full, rho_f])
        m_k = -diff(flux(faces, k, PARITY, True)[0], k) / h
        rho_fi = _slc(rho_f, k, slice(1, -1))
        for j in range(dim):
            if j == k:
                continue
            # v_j at the k-faces: corner averaging along k and a sixth-order
            # transfer along j.  Across a j-wall both velocity components
            # are odd, so the flux rho v1 v2 is even and rho v_k odd.
            vj = faces_to_cells6(
                extend_face_interior(face_average(v[j], k), j), j)
            v_at = list(v)
            v_at[j] = vj
            corners = np.stack([rho_fi * v_at[0] * v_at[1], rho_fi * v[k],
                                vj, rho_fi])
            m_k += -diff(flux(corners, j, PARITY, False)[0], j) / h
        mom.append(m_k)
    return State(axis_sum(mass), axis_sum(dq), tuple(mom))


def rusanov_tendency(states, sound, dim, M, h):
    """The NumPy reference of `weno.rusanov_tendency`: `rusanov_flux` of
    each stack of `stack_layout`, then the differences of `rusanov` above,
    as a State."""
    stacks, _, cols = stack_layout(dim, M)
    half = cols[-1]
    fluxes = []
    for (*_, size), a, b in zip(stacks, cols, cols[1:]):
        minus, plus = (states[:, c + a:c + b].reshape(4, *size)
                       for c in (0, half))
        fluxes.append(rusanov_flux(minus, plus, sound[a:b].reshape(size),
                                   sound[half + a:half + b].reshape(size),
                                   True))
    mass = [dual(_slc(fluxes[k][1], k, slice(1, -1)), k, h)
            for k in range(dim)]
    dq = [-diff(fluxes[k][0], k) / h for k in range(dim)]
    mom = [-diff(fluxes[dim + k][0], k) / h for k in range(dim)]
    if dim == 2:
        for k in range(dim):
            mom[k] += -diff(fluxes[2 * dim + k][0], 1 - k) / h
    return State(axis_sum(mass), axis_sum(dq), tuple(mom))


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


def weno_lr_windows(ext, ax, faces):
    """(minus, plus) of `weno.reconstruct_lr_faces` (faces=True) or
    `reconstruct_lr_cells`, each state from its own sliding window: minus
    from the window starting at `first`, plus from the reversed window one
    sample later."""
    n = ext.shape[ax] - 2 * GHOST - (1 if faces else -1)
    first = GHOST - 2 if faces else GHOST - 3
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
# the package's implicit and convective terms as States, in the form the
# oracles below compute
# ---------------------------------------------------------------------------

def ch_convex(disc, U):
    """The implicit (convex) phase-field tendency of U as a State: the
    package's `ch_convex_term` applied to c = q/rho, zero elsewhere."""
    rho = np.ravel(U.rho, order="F")
    g = disc.grid
    q = disc.ch_convex_term(np.ravel(U.q, order="F") / rho, rho,
                            disc.params.eps, laplacian_nd(g.dim, g.M, g.h)) \
        .reshape(U.q.shape, order="F")
    return State(np.zeros(U.rho.shape), q,
                 tuple(np.zeros(mk.shape) for mk in U.m))


def implicit_tendency(disc, U):
    """All the terms `SpatialDiscretization` evaluates at the implicit
    stage state, as a State: `ch_convex` plus the package's
    `hydro_tendency`."""
    out = ch_convex(disc, U)
    t_rho, t_m = disc.hydro_tendency(np.ravel(U.rho, order="F"),
                                     disc.pack(*U.m),
                                     disc.pack(*U.velocities()))
    out.rho, m = disc.unpack(np.concatenate([t_rho, t_m]))
    out.m = tuple(m)
    return out


def convective(disc, Ut, U):
    """Implicit mass transport from U plus the explicit Rusanov terms from
    Ut, as `SpatialDiscretization` splits them; the quantity that
    `convective_1d`/`convective_2d` compute."""
    out = disc.rusanov(Ut)
    out.rho = implicit_tendency(disc, U).rho + out.rho
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
# concave Cahn-Hilliard tendency via scalar loops
# ---------------------------------------------------------------------------

def ch_concave(Ut, h):
    """Explicit (concave) Cahn-Hilliard tendency of q in 1D or 2D: per axis,
    the difference over h of the face fluxes avg(psi2''(c)) (c+ - c) / h,
    psi2'' = 3 c^2 - 3 and c+ the next cell along the axis; the wall
    fluxes are zero."""
    c = Ut.q / Ut.rho
    M = c.shape[0]

    def flux(cell, k, i):      # at the face between cells i and i+1 along k
        if not 0 <= i < M - 1:
            return 0.0
        a = cell[:k] + (i,) + cell[k + 1:]
        b = cell[:k] + (i + 1,) + cell[k + 1:]
        avg = 0.5 * ((3.0 * c[a] ** 2 - 3.0) + (3.0 * c[b] ** 2 - 3.0))
        return avg * (c[b] - c[a]) / h

    out = np.zeros(c.shape)
    for cell in np.ndindex(c.shape):
        for k in range(c.ndim):
            i = cell[k]
            out[cell] += (flux(cell, k, i) - flux(cell, k, i - 1)) / h
    return out


# ---------------------------------------------------------------------------
# stencils of the implicit terms
# ---------------------------------------------------------------------------

def _set(out, ax, s, val):
    """Assign val to the slice s of out along axis ax."""
    idx = [slice(None)] * out.ndim
    idx[ax] = s
    out[tuple(idx)] = val


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
    return -sum(dual(mk, k, h) for k, mk in enumerate(m))


def pressure_force(rho, params, h):
    """-grad p2 at the faces of each axis, from the centered stiff pressure
    (identical under the gradient, without its cancellation at large
    cp2)."""
    p2 = model.p2_centered(rho, params, float(rho.mean()))
    return [-diff(p2, k) / h for k in range(rho.ndim)]


def _dtd(v, ax, h):
    """D^T D along an axis: wall-anchored negated second difference."""
    return -diff(dual(v, ax, h), ax) / h


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
                    + (nu + lam) * (-diff(dual(vj, j, h), k) / h)
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
# the Newton algebra as CSR products: the forms the compiled stencils of
# `_hydro.c` replaced, which they must match byte for byte
# ---------------------------------------------------------------------------

def hydro_tendency(disc, rho, m, v):
    """`SpatialDiscretization.hydro_tendency` as CSR products:
    (-(D m), G p2 - B v)."""
    ops = disc.ops
    p2 = model.p2_centered(rho, disc.params, float(rho.mean()))
    return -(ops.D @ m), ops.G @ p2 - ops.B @ v


def residual(hydro, z, r, dta):
    """`HydroSolver.residual` as CSR products and NumPy expressions."""
    rho, v = z[:hydro.nc], z[hydro.nc:]
    if np.any(rho <= 0):
        raise NonPositiveDensityError("nonpositive density in Newton iterate")
    m = (hydro.spatial.ops.A @ rho) * v
    t_rho, t_m = hydro_tendency(hydro.spatial, rho, m, v)
    return np.concatenate([rho - dta * t_rho, m - dta * t_m]) - r


def jacobian_times(hydro, z, delta, dta):
    """`HydroSolver._jacobian_times` as CSR products and in-place NumPy
    operations."""
    ops, n = hydro.spatial.ops, hydro.nc
    rho, v = z[:n], z[n:]
    d_rho, d_v = delta[:n], delta[n:]
    dm = ops.A @ d_rho
    dm *= v
    rho_f = ops.A @ rho
    rho_f *= d_v
    dm += rho_f
    dp = model.dp2(rho, hydro.params)
    dp *= d_rho
    out = np.empty_like(delta)
    out_rho, out_v = out[:n], out[n:]
    out_rho[:] = ops.D @ dm
    out_rho *= dta
    out_rho += d_rho
    out_v[:] = ops.G @ dp
    out_v -= ops.B @ d_v
    out_v *= -dta
    out_v += dm
    return out


def chord_couplings(hydro):
    """(1/d, J_rv, J_vr) of the kept chord as the CSR matrices
    `HydroSolver.jacobian` builds, from the chord's vectors."""
    ch, ops, n = hydro.chord, hydro.spatial.ops, hydro.nc
    inv_d, v, dp, rho_f = np.split(ch.coupling, np.cumsum(
        [n, ops.A.shape[0], n]))
    J_rv = ch.dta * _scale_cols(ops.D, rho_f)
    J_vr = _scale_rows(ops.A, v) - ch.dta * _scale_cols(ops.G, dp)
    return inv_d, J_rv, J_vr


def eliminate(hydro, b, solve_S):
    """`HydroSolver._eliminate` with the chord's couplings as CSR
    matrices."""
    inv_d, J_rv, J_vr = chord_couplings(hydro)
    b_rho, b_v = b[:hydro.nc], b[hydro.nc:]
    dv = solve_S(b_v - J_vr @ (inv_d * b_rho))
    return np.concatenate([inv_d * (b_rho - J_rv @ dv), dv])


# ---------------------------------------------------------------------------
# the chord Newton step on the whole Jacobian
# ---------------------------------------------------------------------------

#: the solver's own refresh, kept before a test patches HydroSolver with the
#: stand-ins below
_schur_refresh = HydroSolver._refresh


def full_jacobian(hydro, z, dta):
    """The whole Jacobian of the hydro residual, from its four blocks."""
    J_rr, J_rv, J_vr, J_vv = hydro.jacobian(z, dta)
    return sp.bmat([[J_rr, J_rv], [J_vr, J_vv]], format="csc")


def full_jacobian_refresh(hydro, z, dta, stats):
    """Stands in for `HydroSolver._refresh`: the same Chord, with the LU of
    the whole Jacobian in place of the LU of its Schur complement."""
    _schur_refresh(hydro, z, dta, stats)
    lu = spla.splu(full_jacobian(hydro, z, dta), **SPLU_SYMMETRIC)
    hydro.chord = hydro.chord._replace(lu=lu)


def full_jacobian_direction(hydro, z, b, dta, w, tol, stats):
    """Stands in for `HydroSolver._direction`: one solve with the LU of the
    whole chord Jacobian, and the same correction: where the defect against
    the assembled Jacobian at z exceeds tol in the norm w, one elimination
    through the chord's spectral inverse."""
    ch = hydro.chord
    delta = ch.lu.solve(b)
    stats.lu_solves += 1
    r = b - full_jacobian(hydro, z, dta) @ delta
    if np.linalg.norm(w * r) > tol:
        delta += hydro._eliminate(r, ch.inv_P)
        stats.spectral_corrections += 1
    return delta


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
