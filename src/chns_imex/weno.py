"""WENO5 (Jiang-Shu) point-value reconstruction on primal and dual grids.

The kernel works in difference form along the line.  A target with the five
samples v0..v4 has the first differences Dk = v(k+1) - vk, k = 0..3, and its
left-biased state at its right edge (between v2 and v3) is

    right = v2 + (a0 c0 + a1 c1 + a2 c2) / (6 (a0 + a1 + a2)),
    c0 = 5 D1 - 2 D0,   c1 = D1 + 2 D2,   c2 = 4 D2 - D3,
    ak = dk (eps + bk)^-2,
    b0 = 13/12 (D1 - D0)^2 + 1/4 (3 D1 - D0)^2,
    b1 = 13/12 (D2 - D1)^2 + 1/4 (D1 + D2)^2,
    b2 = 13/12 (D3 - D2)^2 + 1/4 (3 D2 - D3)^2

(Jiang & Shu, JCP 126, 1996).  The right-biased state at the left edge
(between v1 and v2) is the same reconstruction of the reversed stencil,
whose differences are -D3..-D0.  Its betas are b2, b1, b0, so both states
share them, and

    left = v2 - (a0' c0' + a1' c1' + a2' c2') / (6 (a0' + a1' + a2')),
    c0' = 5 D2 - 2 D3,   c1' = D2 + 2 D1,   c2' = 4 D1 - D0,
    a0' = d0 (eps + b2)^-2,   a1' = a1,   a2' = d2 (eps + b0)^-2.

The kernel is the C function `weno5_lr` of `_weno5.c`, built with the
system's `cc` when this module is imported and loaded with `ctypes`.  It
reads each target's five samples once and writes both states in one pass,
taking the operations of `right` and `left` above in the order written,
with floating-point contraction off; the NumPy form of the same operations
is the reference of the tests.  Rounding commutes with negation, so the
left state of a field is bit for bit the right state of the mirrored
field.

The entry points reconstruct every line of an array along one axis.  Fields
that share axis, staggered location and shape are stacked along a further
axis and reconstructed in one call; each line is computed exactly as it
would be alone.  The kernel reads the fields without ghosts: beyond each
wall it takes the mirror image of the line times the parity of its field,
so every physical interface (walls included) gets both states.
`rusanov_flux` forms the Rusanov flux of a reconstructed stack in a second
pass, in the order of operations of the NumPy expression it replaces.
"""

from __future__ import annotations

import ctypes
import math
import pathlib
import subprocess
import tempfile

import numpy as np

WENO_EPS = 1e-6
D_LIN = np.array([0.1, 0.6, 0.3])

#: the compiler command that builds the kernel: for this host's vector
#: units, and with no contraction into fused multiply-adds, so each state
#: rounds as the operations above; the `#pragma GCC ivdep` of each loop
#: tells the compiler that its outputs overlap none of its inputs
CC = ("cc", "-O3", "-march=native", "-std=c99", "-ffp-contract=off",
      "-fPIC", "-shared")
SOURCE = pathlib.Path(__file__).with_name("_weno5.c")


def _build():
    """The library of SOURCE, compiled with CC into a temporary directory
    and loaded, with the argument types of `weno5_lr` and
    `rusanov_flux`."""
    with tempfile.TemporaryDirectory() as tmp:
        cmd = [*CC, str(SOURCE), "-o", str(pathlib.Path(tmp, "_weno5.so"))]
        try:
            subprocess.run(cmd, check=True, capture_output=True, text=True)
        except (OSError, subprocess.CalledProcessError) as exc:
            detail = getattr(exc, "stderr", None) or exc
            raise ImportError(f"cannot build the WENO5 kernel with "
                              f"`{' '.join(cmd)}`: {detail}") from None
        lib = ctypes.CDLL(cmd[-1])
    size, ptr, real = ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_double
    lib.weno5_lr.argtypes = (ptr, ptr, *[size] * 5, *[real] * 4, *[ptr] * 3)
    lib.rusanov_flux.argtypes = (*[ptr] * 4, size, ptr, ptr)
    lib.weno5_lr.restype = lib.rusanov_flux.restype = None
    return lib


_lib = _build()


def _reconstruct_lr(f: np.ndarray, ax: int, parity, skip: int):
    """(minus, plus) of the kernel for the lines of f along ax, mirrored
    beyond the walls (skip 0: cells, skip 1: faces with the walls)."""
    f = np.ascontiguousarray(f, dtype=float)
    sign = np.ravel(np.asarray(parity, dtype=float))
    shape, ax = f.shape, range(f.ndim)[ax]    # ax < 0 counts from the end
    # the kernel reads no bounds: check them here
    if shape[ax] < 3:
        raise ValueError(f"a line of {shape[ax]} samples is too short to "
                         f"mirror; WENO5 needs at least 3")
    if sign.size != 1 and (ax == 0 or sign.size != shape[0]):
        raise ValueError(f"{sign.size} signs for {shape[0]} fields: give "
                         f"one per field along axis 0, or one for all")
    outer, inner = math.prod(shape[:ax]), math.prod(shape[ax + 1:])
    out = shape[:ax] + (shape[ax] + 1 - 2 * skip,) + shape[ax + 1:]
    minus, plus, junk = np.empty(out), np.empty(out), np.empty(inner)
    _lib.weno5_lr(f.ctypes.data, sign.ctypes.data, outer // sign.size,
                  outer, shape[ax], inner, skip, WENO_EPS, *D_LIN,
                  minus.ctypes.data, plus.ctypes.data, junk.ctypes.data)
    return minus, plus


def reconstruct_lr_cells(f: np.ndarray, ax: int, parity):
    """Left/right states at all interfaces 0..M of a cell field (M cells
    along ax), continued beyond each wall by its mirror image times parity:
    one sign for all lines, or one per field of a stack along axis 0.

    Returns (minus, plus): minus[k] is the left-biased state at interface
    k+1/2 built from cells k-2..k+2, plus[k] the right-biased state from
    cells k-1..k+3 (reversed stencil); cells 0, -1, -2 are cells 1, 2, 3
    times parity, and so on at the far wall.
    """
    return _reconstruct_lr(f, ax, parity, 0)


def reconstruct_lr_faces(f: np.ndarray, ax: int, parity):
    """Left/right states at cell centers 1..M from a face field with its
    walls (faces 1/2..M+1/2 along ax), mirrored about the wall faces times
    parity, as in `reconstruct_lr_cells`.

    minus[i-1] is the state at center i from faces i-5/2..i+3/2, plus[i-1]
    from faces i-3/2..i+5/2 (reversed stencil); face 1/2 - k is face
    1/2 + k times parity.
    """
    return _reconstruct_lr(f, ax, parity, 1)


def rusanov_flux(minus: np.ndarray, plus: np.ndarray, s_minus: np.ndarray,
                 s_plus: np.ndarray, diffusion: bool = False):
    """(flux, mass diffusion) from the states of a stack [F, u, v, rho]
    and the sound speeds at the reconstructed densities: the Rusanov flux
    0.5 (F+ + F-) - 0.5 lam (u+ - u-), lam = max(|v-| + s-, |v+| + s+),
    and with `diffusion` 0.5 lam (rho+ - rho-) (else None), each rounded
    as that NumPy expression."""
    minus, plus, s_minus, s_plus = (np.ascontiguousarray(a, dtype=float)
                                    for a in (minus, plus, s_minus, s_plus))
    if not (minus.shape == plus.shape == (4,) + s_minus.shape
            and s_plus.shape == s_minus.shape):
        raise ValueError(f"states {minus.shape} and {plus.shape} do not "
                         f"stack four fields of the speeds {s_minus.shape} "
                         f"and {s_plus.shape}")
    flux = np.empty(s_minus.shape)
    mass = np.empty(s_minus.shape) if diffusion else None
    _lib.rusanov_flux(minus.ctypes.data, plus.ctypes.data,
                      s_minus.ctypes.data, s_plus.ctypes.data, s_minus.size,
                      flux.ctypes.data, None if mass is None
                      else mass.ctypes.data)
    return flux, mass
