"""WENO5 (Jiang-Shu) point-value reconstruction on primal and dual grids,
and the compiled passes of the explicit Rusanov tendency around it.

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

The kernel is the C function `weno5_lr` of `_weno5.c`, in the library
that `kernels` builds with the system's `cc` at import.  It
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
so every physical interface (walls included) gets both states.  Along
either sweep axis each line is copied, with three mirror rows on each side,
into scratch, and one call runs over all its targets there.
The fields of a stack need not be adjacent, only each C-contiguous and all
equally far apart, so a call can read and write the rows of a larger
buffer.

The same library holds the rest of the explicit tendency in two passes
around the reconstructions (see `spatial.SpatialDiscretization.rusanov`):
`rusanov_stacks` forms every stack of a tendency in one buffer, with the
sixth-order transfers and the products, and `rusanov_tendency` forms each
Rusanov flux and mass diffusion and their differences over h, in the
order of operations of the NumPy form it replaced.  `faces_to_cells` is the
transfer of the velocities to the cells alone.
"""

from __future__ import annotations

import ctypes
import functools
import math

import numpy as np

from .kernels import lib as _lib, ptr

WENO_EPS = 1e-6
D_LIN = np.array([0.1, 0.6, 0.3])

def _rows(a: np.ndarray, ax: int):
    """The distance in doubles between the rows a[0], a[1], ... of a float
    array whose rows are C-contiguous (for ax 0, which sweeps axis 0
    itself: 0 if a is C-contiguous), or None."""
    if a.dtype != float:
        return None
    if ax == 0:
        return 0 if a.flags.c_contiguous else None
    ok = a[0].flags.c_contiguous and a.strides[0] % a.itemsize == 0
    return a.strides[0] // a.itemsize if ok else None


def _reconstruct_lr(f, ax: int, parity, skip: int, out):
    """(minus, plus) of the kernel for the lines of f along ax, mirrored
    beyond the walls (skip 0: cells, skip 1: faces with the walls), into
    `out` if given."""
    f = np.asarray(f)
    shape, ax = f.shape, range(f.ndim)[ax]    # ax < 0 counts from the end
    sign = np.ravel(np.asarray(parity, dtype=float))
    # the kernel reads no bounds: check them here
    if shape[ax] < 3:
        raise ValueError(f"a line of {shape[ax]} samples is too short to "
                         f"mirror; WENO5 needs at least 3")
    if sign.size != 1 and (ax == 0 or sign.size != shape[0]):
        raise ValueError(f"{sign.size} signs for {shape[0]} fields: give "
                         f"one per field along axis 0, or one for all")
    f_rows = _rows(f, ax)
    if f_rows is None:
        f = np.ascontiguousarray(f, dtype=float)
        f_rows = _rows(f, ax)
    rows = shape[0] if ax else 1
    if sign.size != rows:
        sign = np.full(rows, sign[0])
    size = shape[:ax] + (shape[ax] + 1 - 2 * skip,) + shape[ax + 1:]
    minus, plus = out if out is not None else (np.empty(size),
                                               np.empty(size))
    out_rows = _rows(minus, ax)
    if not (minus.shape == plus.shape == size and out_rows is not None
            and _rows(plus, ax) == out_rows and minus.flags.writeable
            and plus.flags.writeable):
        raise ValueError(f"out must be two writeable float arrays of shape "
                         f"{size} with C-contiguous rows, equally far apart")
    inner = math.prod(shape[ax + 1:])
    scratch = np.empty((3 * shape[ax] + 10) * inner)
    _lib.weno5_lr(ptr(f), f_rows, ptr(sign), rows,
                  math.prod(shape[1:ax]), shape[ax], inner, skip, WENO_EPS,
                  *D_LIN, ptr(minus), ptr(plus), out_rows,
                  ptr(scratch))
    return minus, plus


def reconstruct_lr_cells(f: np.ndarray, ax: int, parity, out=None):
    """Left/right states at all interfaces 0..M of a cell field (M cells
    along ax), continued beyond each wall by its mirror image times parity:
    one sign for all lines, or one per field of a stack along axis 0.

    Returns (minus, plus), written into `out` if given: two arrays of that
    shape whose fields along axis 0 are C-contiguous and equally far apart,
    such as rows of a larger buffer.  minus[k] is the left-biased state at
    interface k+1/2 built from cells k-2..k+2, plus[k] the right-biased
    state from cells k-1..k+3 (reversed stencil); cells 0, -1, -2 are cells
    1, 2, 3 times parity, and so on at the far wall.
    """
    return _reconstruct_lr(f, ax, parity, 0, out)


def reconstruct_lr_faces(f: np.ndarray, ax: int, parity, out=None):
    """Left/right states at cell centers 1..M from a face field with its
    walls (faces 1/2..M+1/2 along ax), mirrored about the wall faces times
    parity, as in `reconstruct_lr_cells`.

    minus[i-1] is the state at center i from faces i-5/2..i+3/2, plus[i-1]
    from faces i-3/2..i+5/2 (reversed stencil); face 1/2 - k is face
    1/2 + k times parity.
    """
    return _reconstruct_lr(f, ax, parity, 1, out)


def _along(shape: tuple, ax: int, n: int) -> tuple:
    """shape with n samples along ax."""
    return shape[:ax] + (n,) + shape[ax + 1:]


def faces_to_cells(v: np.ndarray, ax: int) -> np.ndarray:
    """The sixth-order transfer of interior face values along ax (M-1) to
    the M cells, cell i from faces i-5/2..i+5/2: the wall faces are zero
    and beyond them the faces mirror with a flipped sign, as a velocity's
    do."""
    v = np.ascontiguousarray(v, dtype=float)
    ax = range(v.ndim)[ax]    # ax < 0 counts from the end
    M = v.shape[ax] + 1
    if M < 3:
        raise ValueError(f"{M - 1} interior faces are too few; the "
                         f"transfer needs at least 2")
    inner = math.prod(v.shape[ax + 1:])
    out, scratch = np.empty(_along(v.shape, ax, M)), np.empty((M + 7) * inner)
    _lib.transfer6(ptr(v), math.prod(v.shape[:ax]), M, inner, 1,
                   -1.0, ptr(scratch), ptr(out))
    return out


#: mirror parity of the fields [F, u, v, rho] of a face or corner stack: an
#: even flux, an odd momentum and velocity, an even density
PARITY = np.array([1.0, -1.0, -1.0, 1.0])
#: the same for the cell stack [q v_k, q, v_k, rho]: the flux is odd
PARITY_CELLS = np.array([-1.0, 1.0, -1.0, 1.0])


@functools.lru_cache
def stack_layout(dim: int, M: int):
    """The stacks of an explicit tendency on M cells per axis, in the order
    of `rusanov_stacks`: per axis k the cells, then per axis k the faces
    with their walls, then in 2D per axis k the interior k-faces swept
    along the other axis.  Returns the stacks as (faces, sweep axis,
    parity, field shape, state shape), and the first column of each stack
    in the stacks buffer and of its states in the states buffer, each with
    the number of columns last."""
    cells = (M,) * dim
    corners = [_along(cells, k, M - 1) for k in range(dim)]
    stacks = ([(False, k, PARITY_CELLS, cells, _along(cells, k, M + 1))
               for k in range(dim)]
              + [(True, k, PARITY, _along(cells, k, M + 1), cells)
                 for k in range(dim)]
              + [(False, 1 - k, PARITY, s, _along(s, 1 - k, M + 1))
                 for k, s in enumerate(corners) if dim == 2])
    return (stacks, *(np.cumsum([0] + [math.prod(st[i]) for st in stacks])
                      for i in (3, 4)))


def _pointers(arrays):
    """A C array of the data pointers of arrays."""
    return (ctypes.c_void_p * len(arrays))(*[ptr(a) for a in arrays])


def rusanov_stacks(rho: np.ndarray, q: np.ndarray, v) -> np.ndarray:
    """The stacks of an explicit tendency from the cell fields rho, q and
    the interior-face velocities v in axis order, as rows 0..3 of one
    buffer: stack s in the columns cols[s]..cols[s+1] of `stack_layout`,
    the face stacks without p1."""
    dim, M = rho.ndim, rho.shape[0]
    rho, q, *v = (np.ascontiguousarray(a, dtype=float) for a in (rho, q, *v))
    want = [(M,) * dim] * 2 + [_along((M,) * dim, k, M - 1)
                               for k in range(dim)]
    if dim not in (1, 2) or M < 4 or [a.shape for a in (rho, q, *v)] != want:
        raise ValueError(f"fields of shapes {[a.shape for a in (rho, q, *v)]}"
                         f" are no state of a 1D or 2D grid of at least 4 "
                         f"cells per axis")
    cols = stack_layout(dim, M)[1]
    x = np.empty((4, cols[-1]))
    scratch = np.empty((M + 7) * M + (M - 1) ** 2)
    _lib.rusanov_stacks(dim, M, ptr(rho), ptr(q), _pointers(v),
                        ptr(cols), cols[-1], ptr(x),
                        ptr(scratch))
    return x


def rusanov_tendency(states: np.ndarray, sound: np.ndarray, dim: int,
                     M: int, h: float):
    """(rho, q, momenta) of the explicit convective tendency from the
    reconstructed stacks: rows 0..3 of `states` hold the minus states of
    stack s in the columns cols[s]..cols[s+1] of `stack_layout`, and the
    plus states after all of them; `sound` the sound speeds at their
    densities."""
    cols = stack_layout(dim, M)[2]
    half = cols[-1]
    if states.shape != (4, 2 * half) or sound.shape != (2 * half,):
        raise ValueError(f"states {states.shape} and sound speeds "
                         f"{sound.shape} do not hold {half} columns a side")
    states, sound = (np.ascontiguousarray(a, dtype=float)
                     for a in (states, sound))
    # the outputs accumulate from -0.0, the identity of addition
    cells = (M,) * dim
    rho, q = np.full(cells, -0.0), np.full(cells, -0.0)
    m = [np.full(_along(cells, k, M - 1), -0.0) for k in range(dim)]
    fluxes = np.empty(2 * half)
    _lib.rusanov_tendency(dim, M, h, ptr(states), ptr(sound),
                          ptr(cols), half, ptr(fluxes),
                          ptr(rho), ptr(q), _pointers(m))
    return rho, q, tuple(m)
