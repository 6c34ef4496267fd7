"""The package's compiled library: every C source in SOURCES, built with
the system's `cc` into one shared library when this module is imported and
loaded with `ctypes`.

`_weno5.c` holds the passes of the explicit tendency (see `weno` and
`spatial.SpatialDiscretization.sources`), and `_hydro.c` the implicit
terms as stencils (see `operators.Stencil`): the hydro terms of the Newton
solve and the operator of the concentration solve.  Both are built with
contraction off, so each value rounds as the NumPy or sparse form the
tests keep as its reference.  Every call passes its arrays by the address
`ptr` reads.
"""

from __future__ import annotations

import ctypes
import pathlib
import re
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

#: the prototype of an entry point, a function of SOURCES that is not
#: static and returns nothing; each of its arguments is a pointer or one of
#: the types of CTYPES
PROTOTYPE = re.compile(r"^void (\w+)\(([^)]*)\)", re.M)
CTYPES = {"ptrdiff_t": ctypes.c_ssize_t, "double": ctypes.c_double}


def _build():
    """The library of SOURCES, compiled with CC into a temporary directory
    and loaded, with the argument types of each entry point read from its
    prototype."""
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
    for name, params in PROTOTYPE.findall(
            "".join(source.read_text() for source in SOURCES)):
        fn = getattr(lib, name)
        fn.restype = None
        fn.argtypes = [ctypes.c_void_p if "*" in p else CTYPES[p.split()[-2]]
                       for p in params.split(",")]
    return lib


lib = _build()


def ptr(a) -> int:
    """The address of the first element of the array a.  Of NumPy's ways
    to read it, `a.ctypes.data` measured cheapest (1.2-1.3 us against
    1.3-1.5 us for `a.__array_interface__["data"][0]`, NumPy 2.4 on a
    2-vCPU host); every kernel call reads its addresses here."""
    return a.ctypes.data


def pointers(arrays):
    """A C array of the addresses of arrays, for a pass that takes one
    array per axis."""
    return (ctypes.c_void_p * len(arrays))(*[ptr(a) for a in arrays])
