"""Derive the manufactured-solution forcing terms symbolically.

Plugs the prescribed exact solutions into the continuous equations and emits
the residual (the forcing that makes them exact) as a generated module,
src/chns_imex/_forcing.py.  The source terms are kept in the factored form
the differentiation gives (no expansion before common-subexpression
elimination), and each staggered location gets its own function: per
dimension, one for the cell centres returning (s_rho, s_q) and one per face
axis k returning s_m_k.  Run from the repository root:

    python scripts/derive_forcing.py

`render()` returns the module source without writing it; the test suite
checks that it evaluates to the committed module.
"""

from __future__ import annotations

import pathlib

import sympy as sp
from sympy.printing.numpy import NumPyPrinter

x, y, t = sp.symbols("x y t", real=True)
delta, cp, gamma, nu, lam, eps, g = sp.symbols(
    "delta cp gamma nu lam eps g", positive=True, real=True)
# gravity is signed; re-declare without positivity
g = sp.Symbol("g", real=True)
COORDS = {1: ["x"], 2: ["x", "y"]}


def exact(dim):
    """(rho, [v_1, ..., v_dim], c) of the manufactured solution: the x-waves
    of rho and c times cos(pi y) per transverse axis y, and v zero in 1D."""
    X = (x, y)[:dim]
    transverse = sp.prod([sp.cos(sp.pi * xj) for xj in X[1:]])
    rho = 1 + delta * sp.cos(2 * sp.pi * x) * transverse * (t + 1)
    v = [sp.Integer(0)] if dim == 1 else [
        (1 + delta) * (1 - sp.cos(2 * sp.pi * xk))
        * sp.prod([sp.sin(2 * sp.pi * xj) for xj in X if xj != xk])
        * (1 - 2 * t**2, 2 * t**2 - 1)[k] for k, xk in enumerate(X)]
    # the wave of c times 1 - t, written -(t - 1) as _forcing.py was
    # derived: sympy keeps the two forms apart
    c = sp.Rational(3, 4) - sp.Rational(1, 10) * (1 - delta) \
        * sp.cos(sp.pi * x) * transverse * (t - 1)
    return rho, v, c


def pressure(rho):
    return cp * rho**gamma


def dpsi(c):
    return c**3 - c


def forcing(dim):
    """[s_rho, s_m_1, ..., s_m_dim, s_q]: the residual of the exact
    solution in the continuous equations, gravity on the last axis."""
    rho, v, c = exact(dim)
    X = (x, y)[:dim]
    dc = [sp.diff(c, xk) for xk in X]
    div = lambda w: sum(sp.diff(wk, xk) for wk, xk in zip(w, X))
    lap = lambda f: sum(sp.diff(f, xk, 2) for xk in X)
    mu = dpsi(c) - (eps / rho) * lap(c)
    s_m = []
    for k, xk in enumerate(X):
        others = [j for j in range(dim) if j != k]
        s = sp.diff(rho * v[k], t) + div([rho * v[k] * vj for vj in v]) \
            + sp.diff(pressure(rho), xk) \
            - (eps / 2) * sp.diff(sum(dc[j]**2 for j in others) - dc[k]**2,
                                  xk) \
            + eps * sum(sp.diff(dc[k] * dc[j], X[j]) for j in others) \
            - nu * lap(v[k]) - (nu + lam) * sp.diff(div(v), xk)
        s_m.append(s - rho * g if k == dim - 1 else s)
    s_rho = sp.diff(rho, t) + div([rho * vk for vk in v])
    s_q = sp.diff(rho * c, t) + div([rho * c * vk for vk in v]) - lap(mu)
    return [e.doit() for e in (s_rho, *s_m, s_q)]


def emit_function(name, args, exprs, printer):
    """Source of `name(*args)`: a bare array for one expression, else a
    tuple."""
    reps, reduced = sp.cse(exprs, optimizations="basic")
    lines = [f"def {name}({', '.join(args)}):"]
    for sym, e in reps:
        lines.append(f"    {sym} = {printer.doprint(e)}")
    out = ", ".join(printer.doprint(e) for e in reduced)
    lines.append(f"    return {out}" if len(reduced) == 1
                 else f"    return ({out})")
    return "\n".join(lines)


HEADER = '''"""Closed-form manufactured-solution forcing terms.

GENERATED by scripts/derive_forcing.py -- do not edit by hand.
Each function returns source terms that, added to the right-hand side, make
the prescribed space-time fields an exact solution of the continuous
equations, at one staggered location: `cell_<d>d` gives (s_rho, s_q) at the
cell centres, `face_<d>d_<k>` gives s_m_k at the faces normal to axis k.
Arguments are coordinate arrays plus scalar parameters.  `CELL[dim]` and
`FACE[dim][k]` look them up by dimension.
"""

import numpy
'''

PARAMS = ["t", "delta", "cp", "gamma", "nu", "lam", "eps", "g"]


def render() -> str:
    """Source of the generated module."""
    printer = NumPyPrinter()
    parts = [HEADER]
    for dim in COORDS:
        args = COORDS[dim] + PARAMS
        s_rho, *s_m, s_q = forcing(dim)
        parts.append(emit_function(f"cell_{dim}d", args, [s_rho, s_q],
                                   printer))
        for k, e in enumerate(s_m):
            parts.append(emit_function(f"face_{dim}d_{k}", args, [e],
                                       printer))
    faces = {dim: ", ".join(f"face_{dim}d_{k}" for k in range(dim))
             for dim in COORDS}
    parts.append(f"CELL = {{1: cell_1d, 2: cell_2d}}\n"
                 f"FACE = {{1: ({faces[1]},), 2: ({faces[2]})}}\n")
    return "\n\n\n".join(parts)


def main():
    dest = pathlib.Path(__file__).resolve().parents[1] / "src" / \
        "chns_imex" / "_forcing.py"
    dest.write_text(render())
    print(f"wrote {dest}")


if __name__ == "__main__":
    main()
