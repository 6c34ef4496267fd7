"""The package's compiled library: every C source in SOURCES, built with
the system's `cc` into one shared library when this module is imported and
loaded with `ctypes`.

`_weno5.c` holds the passes of the explicit tendency (see `weno`), and
`_hydro.c` the implicit hydro terms of the Newton solve as stencils (see
`operators.stencils`).  Both are built with contraction off, so each value
rounds as the NumPy or sparse form the tests keep as its reference.  Every
call passes its arrays by the address `ptr` reads.
"""

from __future__ import annotations

import ctypes
import pathlib
import subprocess
import tempfile

#: the compiler command that builds the library: for this host's vector
#: units, and with no contraction into fused multiply-adds, so each value
#: rounds as its reference form; the `#pragma GCC ivdep` of each loop
#: tells the compiler that its outputs overlap none of its inputs
CC = ("cc", "-O3", "-march=native", "-std=c99", "-ffp-contract=off",
      "-fPIC", "-shared")
SOURCES = tuple(pathlib.Path(__file__).with_name(name)
                for name in ("_weno5.c", "_hydro.c"))

_size, _ptr, _real = ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_double
#: the argument types of the entry points; every one returns nothing
SIGNATURES = {
    "weno5_lr": (_ptr, _size, _ptr, *[_size] * 5, *[_real] * 4, _ptr, _ptr,
                 _size, _ptr),
    "transfer6": (_ptr, *[_size] * 4, _real, _ptr, _ptr),
    "rusanov_stacks": (_size, _size, *[_ptr] * 4, _size, _ptr, _ptr),
    "rusanov_tendency": (_size, _size, _real, *[_ptr] * 3, _size,
                         *[_ptr] * 4),
    "stencil_apply": (_ptr, _ptr, _ptr),
    "hydro_tendency": (_ptr, *[_ptr] * 5),
    "hydro_residual": (_ptr, *[_ptr] * 3, _real, _ptr, _ptr),
    "hydro_jacobian_times": (_ptr, *[_ptr] * 3, _real, _ptr, _ptr),
    "chord_forward": (_ptr, _ptr, _real, *[_ptr] * 3),
    "chord_back": (_ptr, _ptr, _real, *[_ptr] * 3),
}


def _build():
    """The library of SOURCES, compiled with CC into a temporary directory
    and loaded, with the argument types of its entry points."""
    with tempfile.TemporaryDirectory() as tmp:
        cmd = [*CC, *map(str, SOURCES), "-o",
               str(pathlib.Path(tmp, "_kernels.so"))]
        try:
            subprocess.run(cmd, check=True, capture_output=True, text=True)
        except (OSError, subprocess.CalledProcessError) as exc:
            detail = getattr(exc, "stderr", None) or exc
            raise ImportError(f"cannot build the compiled kernels with "
                              f"`{' '.join(cmd)}`: {detail}") from None
        lib = ctypes.CDLL(cmd[-1])
    for name, argtypes in SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, None
    return lib


lib = _build()


def ptr(a) -> int:
    """The address of the first element of the array a.  Of NumPy's ways
    to read it, `a.ctypes.data` measured cheapest (1.2-1.3 us against
    1.3-1.5 us for `a.__array_interface__["data"][0]`, NumPy 2.4 on a
    2-vCPU host); every kernel call reads its addresses here."""
    return a.ctypes.data
