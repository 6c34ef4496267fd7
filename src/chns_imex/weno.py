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

The kernel is the C function of `_weno5.c`, built with the system's `cc`
when this module is imported and loaded with `ctypes`.  It reads each
target's five samples once and writes both states in one pass, taking the
operations of `right` and `left` above in the order written, with
floating-point contraction off; the NumPy form of the same operations is
the reference of the tests.  Rounding commutes with negation, so the
left state of a field is bit for bit the right state of the mirrored
field.

The entry points reconstruct every line of an array along one axis.  Fields
that share axis, staggered location and shape are stacked along a further
axis and reconstructed in one call; each line is computed exactly as it
would be alone.  The samples come from a ghost-extended field, so every
physical interface (walls included) gets both states.
"""

from __future__ import annotations

import ctypes
import math
import pathlib
import subprocess
import tempfile

import numpy as np

from .grid import GHOST, _slc

WENO_EPS = 1e-6
D_LIN = np.array([0.1, 0.6, 0.3])

#: the compiler command that builds the kernel; no contraction into fused
#: multiply-adds, so each state rounds as the operations above
CC = ("cc", "-O3", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared")
SOURCE = pathlib.Path(__file__).with_name("_weno5.c")


def _build():
    """The kernel `weno5_states` of SOURCE, compiled with CC into a
    temporary directory and loaded."""
    with tempfile.TemporaryDirectory() as tmp:
        cmd = [*CC, str(SOURCE), "-o", str(pathlib.Path(tmp, "_weno5.so"))]
        try:
            subprocess.run(cmd, check=True, capture_output=True, text=True)
        except (OSError, subprocess.CalledProcessError) as exc:
            detail = getattr(exc, "stderr", None) or exc
            raise ImportError(f"cannot build the WENO5 kernel with "
                              f"`{' '.join(cmd)}`: {detail}") from None
        kernel = ctypes.CDLL(cmd[-1]).weno5_states
    size = ctypes.c_ssize_t
    kernel.argtypes = (ctypes.c_void_p, size, size, size, size, size,
                       *[ctypes.c_double] * 4, ctypes.c_void_p,
                       ctypes.c_void_p)
    kernel.restype = None
    return kernel


_kernel = _build()


def _weno5_states(ext: np.ndarray, ax: int, first: int, count: int):
    """(right, left) states of the targets at indices first..first+count-1
    along ax of ext (the samples first-2..first+count+1 are read)."""
    ext = np.ascontiguousarray(ext, dtype=float)
    shape, ax = ext.shape, range(ext.ndim)[ax]    # ax < 0 counts from the end
    # the kernel reads no bounds: check them here
    if not 2 <= first <= shape[ax] - count - 2:
        raise ValueError(f"targets {first}..{first + count - 1} need samples "
                         f"outside 0..{shape[ax] - 1}")
    out = shape[:ax] + (count,) + shape[ax + 1:]
    right, left = np.empty(out), np.empty(out)
    _kernel(ext.ctypes.data, math.prod(shape[:ax]), shape[ax],
            math.prod(shape[ax + 1:]), first, count, WENO_EPS, *D_LIN,
            right.ctypes.data, left.ctypes.data)
    return right, left


def _reconstruct_lr(ext: np.ndarray, ax: int, first: int):
    """(minus, plus) at the interfaces between the targets first..n-1-first
    along ax of ext (n samples): minus is the right state of the target
    before each interface, plus the left state of the one after."""
    right, left = _weno5_states(ext, ax, first, ext.shape[ax] - 2 * first)
    return _slc(right, ax, slice(None, -1)), _slc(left, ax, slice(1, None))


def reconstruct_lr_cells(ext: np.ndarray, ax: int):
    """Left/right states at all interfaces 0..M from an extended cell field.

    Returns (minus, plus): minus[k] is the left-biased state at interface
    k+1/2 built from cells k-2..k+2, plus[k] the right-biased state from
    cells k-1..k+3 (reversed stencil).
    """
    # cell i lives at extended index i+GHOST-1: interface k+1/2 is the
    # right edge of cell k and the left edge of cell k+1, for k = 0..M
    return _reconstruct_lr(ext, ax, GHOST - 1)


def reconstruct_lr_faces(ext: np.ndarray, ax: int):
    """Left/right states at cell centers 1..M from an extended face field.

    The extended array includes the wall faces; face i+1/2 lives at extended
    index i+GHOST.  minus[i-1] is the state at center i from faces
    i-5/2..i+3/2, plus[i-1] from faces i-3/2..i+5/2 (reversed stencil).
    """
    # center i is the right edge of face i-1/2 and the left edge of i+1/2
    return _reconstruct_lr(ext, ax, GHOST)
