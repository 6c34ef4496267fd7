"""Manufactured solution and forcing certified against the continuous system.

The committed symbolic forcing is verified by assembling the PDE residual of
the exact fields with high-order finite differences: for the exact fields the
residual must equal the forcing at every point.
"""

import numpy as np
import pytest

from chns_imex import mms
from chns_imex.grid import GridSpec
from chns_imex.model import ModelParams

# 8th-order central first- and second-derivative weights (unit spacing)
W1 = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0,
               4 / 5, -1 / 5, 4 / 105, -1 / 280])
W2 = np.array([-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72,
               8 / 5, -1 / 5, 8 / 315, -1 / 560])
OFF = np.arange(-4, 5)


def d1(f, x, h=4e-3):
    return sum(w * f(x + k * h) for w, k in zip(W1, OFF)) / h


def d2(f, x, h=4e-3):
    return sum(w * f(x + k * h) for w, k in zip(W2, OFF)) / h ** 2


# ---------------------------------------------------------------------------
# exact fields
# ---------------------------------------------------------------------------

def test_exact_fields_1d_at_t0():
    x = np.linspace(0, 1, 9)
    p = ModelParams(cp=1e2)
    rho, v1, c = mms.exact_solution(1, p.delta, x, 0.0)
    np.testing.assert_allclose(rho, 1.0 + p.delta * np.cos(2 * np.pi * x))
    assert np.all(v1 == 0.0)
    np.testing.assert_allclose(
        c, 0.75 + 0.1 * (1 - p.delta) * np.cos(np.pi * x))


def test_exact_velocity_divergence_free_2d():
    """The manufactured 2D velocity is divergence-free for all t."""
    rng = np.random.default_rng(0)
    d = 1e-2
    for _ in range(10):
        x, y, t = rng.uniform(0.1, 0.9, 3)
        dv1 = d1(lambda s: mms.exact_solution(2, d, s, t, y=y)[1], x)
        dv2 = d1(lambda s: mms.exact_solution(2, d, x, t, y=s)[2], y)
        assert abs(dv1 + dv2) < 1e-10


def test_initial_discrete_divergence_roundoff():
    """The sampled initial velocity is discretely divergence-free to
    round-off: the two cosine difference quotients cancel exactly on the
    staggered grid."""
    from chns_imex.diagnostics import ap_metrics
    p = ModelParams(cp=1e2)
    for M in (16, 64):
        grid = GridSpec(dim=2, M=M)
        U = mms.exact_state(grid, p, 0.0)
        assert ap_metrics(U, grid, p)["div_v_norm"] < 1e-11


def test_exact_density_well_prepared():
    """Density deviates from 1 by O(delta); delta = 1/cp."""
    for cp in (1e2, 1e6):
        p = ModelParams(cp=cp)
        assert p.delta == pytest.approx(1.0 / cp)
        x = np.linspace(0, 1, 33)
        rho = mms.exact_solution(1, p.delta, x, 0.5)[0]
        # amplitude delta*(1+t) at t = 0.5
        assert np.abs(rho - 1.0).max() <= 1.5 * p.delta * (1 + 1e-12)


def test_exact_state_and_momenta_consistent():
    grid = GridSpec(dim=2, M=8)
    p = ModelParams(cp=1e2)
    U = mms.exact_state(grid, p, 0.2)
    assert U.rho.shape == (8, 8)
    assert U.m[0].shape == (7, 8) and U.m[1].shape == (8, 7)
    m1, m2 = mms.exact_momenta(grid, p, 0.2)
    assert m1.shape == (7, 8) and m2.shape == (8, 7)
    # state momenta use face-averaged density, the pointwise ones the exact
    # face density: both are O(delta) close for the well-prepared data
    assert np.abs(U.m[0] - m1).max() < 5 * p.delta
    assert np.all(U.rho > 0)


def test_make_forcing_matches_forcing_state():
    grid = GridSpec(dim=1, M=16)
    p = ModelParams(cp=1e2)
    f = mms.make_forcing(grid, p)(0.37)
    g = mms.forcing_state(grid, p, 0.37)
    np.testing.assert_array_equal(f.rho, g.rho)
    np.testing.assert_array_equal(f.m[0], g.m[0])
    np.testing.assert_array_equal(f.q, g.q)


def test_mass_forcing_1d_analytic():
    """With zero velocity the mass forcing is exactly d rho/dt."""
    grid = GridSpec(dim=1, M=32)
    p = ModelParams(cp=1e2)
    for t in (0.0, 0.4):
        f = mms.forcing_state(grid, p, t)
        x = grid.cell_centers()
        np.testing.assert_allclose(f.rho, p.delta * np.cos(2 * np.pi * x),
                                   rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# forcing vs finite-difference PDE residual
# ---------------------------------------------------------------------------

def _residual_1d(x, t, p):
    d, cp, g = p.delta, p.cp, p.g
    nu2 = 2 * p.nu + p.lam
    eps = p.eps

    def rho(s, tt=None):
        return mms.exact_solution(1, d, s, t if tt is None else tt)[0]

    def v(s, tt=None):
        return mms.exact_solution(1, d, s, t if tt is None else tt)[1]

    def c(s, tt=None):
        return mms.exact_solution(1, d, s, t if tt is None else tt)[2]

    r, u, cc = rho(x), v(x), c(x)
    cx, cxx = d1(c, x), d2(c, x)
    s_rho = d1(lambda tt: rho(x, tt), t) + d1(lambda s: rho(s) * v(s), x)
    s_m = (d1(lambda tt: rho(x, tt) * v(x, tt), t)
           + d1(lambda s: rho(s) * v(s) ** 2 + cp * rho(s) ** p.gamma, x)
           - nu2 * d2(v, x)
           + eps * cx * cxx            # capillary force is -eps c_x c_xx
           - g * r)
    lapc_over_rho = lambda s: d2(c, s) / rho(s)
    s_q = (d1(lambda tt: rho(x, tt) * c(x, tt), t)
           + d1(lambda s: rho(s) * c(s) * v(s), x)
           - (2.0 * cxx + 6.0 * cc * cx ** 2 + (3 * cc ** 2 - 3) * cxx)
           + eps * d2(lapc_over_rho, x, h=1.2e-2))
    return s_rho, s_m, s_q


def test_forcing_1d_matches_pde_residual():
    p = ModelParams(cp=1e2)
    args = (p.delta, p.cp, p.gamma, p.nu, p.lam, p.eps, p.g)
    rng = np.random.default_rng(11)
    from chns_imex import _forcing
    for _ in range(6):
        x, t = rng.uniform(0.1, 0.9), rng.uniform(0.0, 0.5)
        s_rho, s_m, s_q = _forcing.forcing_1d(np.array([x]), t, *args)
        f_rho, f_m, f_q = _residual_1d(x, t, p)
        assert float(np.ravel(s_rho)[0]) == pytest.approx(f_rho, abs=2e-7)
        assert float(np.ravel(s_m)[0]) == pytest.approx(
            f_m, abs=2e-7 * max(1.0, abs(f_m)))
        assert float(np.ravel(s_q)[0]) == pytest.approx(f_q, abs=2e-6)


def _residual_2d(x, y, t, p):
    d, cp, g = p.delta, p.cp, p.g
    nu, lam, eps = p.nu, p.lam, p.eps

    def F(i):
        return lambda xx, yy, tt: mms.exact_solution(2, d, xx, tt, y=yy)[i]

    rho, v1, v2, c = F(0), F(1), F(2), F(3)

    def dx(f):
        return d1(lambda s: f(s, y, t), x)

    def dy(f):
        return d1(lambda s: f(x, s, t), y)

    def dt_(f):
        return d1(lambda s: f(x, y, s), t)

    def dxx(f):
        return d2(lambda s: f(s, y, t), x)

    def dyy(f):
        return d2(lambda s: f(x, s, t), y)

    r = rho(x, y, t)
    cc = c(x, y, t)
    cx = dx(c)
    cy = dy(c)
    lapc = dxx(c) + dyy(c)
    divv_x = d1(lambda s: d1(lambda u: v1(u, y, t), s)
                + d1(lambda u: v2(s, u, t), y), x, h=6e-3)
    divv_y = d1(lambda s: d1(lambda u: v1(u, s, t), x)
                + d1(lambda u: v2(x, u, t), s), y, h=6e-3)

    def pr(xx, yy, tt):
        return cp * rho(xx, yy, tt) ** p.gamma

    s_rho = (dt_(lambda xx, yy, tt: rho(xx, yy, tt))
             + dx(lambda xx, yy, tt: rho(xx, yy, tt) * v1(xx, yy, tt))
             + dy(lambda xx, yy, tt: rho(xx, yy, tt) * v2(xx, yy, tt)))
    s_m1 = (dt_(lambda xx, yy, tt: rho(xx, yy, tt) * v1(xx, yy, tt))
            + dx(lambda xx, yy, tt: rho(xx, yy, tt) * v1(xx, yy, tt) ** 2
                 + pr(xx, yy, tt))
            + dy(lambda xx, yy, tt: rho(xx, yy, tt) * v1(xx, yy, tt)
                 * v2(xx, yy, tt))
            - nu * (dxx(v1) + dyy(v1)) - (nu + lam) * divv_x
            + eps * cx * lapc)
    s_m2 = (dt_(lambda xx, yy, tt: rho(xx, yy, tt) * v2(xx, yy, tt))
            + dy(lambda xx, yy, tt: rho(xx, yy, tt) * v2(xx, yy, tt) ** 2
                 + pr(xx, yy, tt))
            + dx(lambda xx, yy, tt: rho(xx, yy, tt) * v1(xx, yy, tt)
                 * v2(xx, yy, tt))
            - nu * (dxx(v2) + dyy(v2)) - (nu + lam) * divv_y
            + eps * cy * lapc
            - g * r)

    def lapc_over_rho(xx, yy):
        return (d2(lambda s: c(s, yy, t), xx)
                + d2(lambda s: c(xx, s, t), yy)) / rho(xx, yy, t)

    biharm = (d2(lambda s: lapc_over_rho(s, y), x, h=1.2e-2)
              + d2(lambda s: lapc_over_rho(x, s), y, h=1.2e-2))
    s_q = (dt_(lambda xx, yy, tt: rho(xx, yy, tt) * c(xx, yy, tt))
           + dx(lambda xx, yy, tt: rho(xx, yy, tt) * c(xx, yy, tt)
                * v1(xx, yy, tt))
           + dy(lambda xx, yy, tt: rho(xx, yy, tt) * c(xx, yy, tt)
                * v2(xx, yy, tt))
           - (2.0 * lapc + 6.0 * cc * (cx ** 2 + cy ** 2)
              + (3 * cc ** 2 - 3) * lapc)
           + eps * biharm)
    return s_rho, s_m1, s_m2, s_q


def test_forcing_2d_matches_pde_residual():
    p = ModelParams(cp=1e2)
    args = (p.delta, p.cp, p.gamma, p.nu, p.lam, p.eps, p.g)
    rng = np.random.default_rng(5)
    from chns_imex import _forcing
    for _ in range(4):
        x, y, t = rng.uniform(0.1, 0.9, 2).tolist() + [rng.uniform(0.0, 0.4)]
        s = _forcing.forcing_2d(np.array([x]), np.array([y]), t, *args)
        f = _residual_2d(x, y, t, p)
        labels = ("rho", "m1", "m2", "q")
        for got, want, lab in zip(s, f, labels):
            scale = max(1.0, abs(want))
            assert float(np.ravel(got)[0]) == pytest.approx(
                want, abs=5e-6 * scale), lab
