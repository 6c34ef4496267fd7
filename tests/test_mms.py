"""Manufactured solution and forcing certified against the continuous system.

The committed symbolic forcing is verified by assembling the PDE residual of
the exact fields with high-order finite differences: for the exact fields the
residual must equal the forcing at every point.  The generator script must
still render the committed module.
"""

import collections
import importlib.util
import inspect
import pathlib

import numpy as np
import pytest

from chns_imex import _forcing, mms
from chns_imex.cases import initial_state
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


def exact_fields(delta, pts, t):
    """(rho, v_1, ..., v_dim, c) of the manufactured solution at the points
    pts = (x[, y])."""
    return (mms.exact_rho(delta, pts, t),
            *(mms.exact_velocity(k, delta, pts, t) for k in range(len(pts))),
            mms.exact_c(delta, pts, t))


# ---------------------------------------------------------------------------
# exact fields
# ---------------------------------------------------------------------------

def test_exact_fields_1d_at_t0():
    x = np.linspace(0, 1, 9)
    p = ModelParams(cp=1e2)
    rho, v1, c = exact_fields(p.delta, (x,), 0.0)
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
        dv1 = d1(lambda s: mms.exact_velocity(0, d, (s, y), t), x)
        dv2 = d1(lambda s: mms.exact_velocity(1, d, (x, s), t), y)
        assert abs(dv1 + dv2) < 1e-10


def test_exact_velocity_refuses_an_axis_outside_the_grid():
    """exact_velocity(k) takes an axis k of the points it is given; any
    other k raises, where any k != 0 once gave axis 1's velocity."""
    x = np.linspace(0.0, 1.0, 5)
    for pts in ((x,), (x, x)):
        for k in (-1, len(pts), len(pts) + 1):
            with pytest.raises(ValueError, match=f"no velocity component "
                                                 f"{k} on a {len(pts)}-"):
                mms.exact_velocity(k, 1e-2, pts, 0.3)


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
        rho = mms.exact_rho(p.delta, (x,), 0.5)
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


@pytest.mark.parametrize("dim", [1, 2])
def test_forcing_state_samples_each_location(dim):
    """rho and q come from the cell function at the cell centres, m_k from
    the axis-k face function at the faces normal to axis k: bit for bit the
    full arrays each returns on the full coordinate arrays, though
    forcing_state evaluates it on broadcastable coordinate vectors."""
    p = ModelParams(cp=1e2)
    t = 0.37
    args = (t, p.delta, p.cp, p.gamma, p.nu, p.lam, p.eps, p.g)
    for M in (8, 12, 16):
        grid = GridSpec(dim=dim, M=M)
        f = mms.forcing_state(grid, p, t)
        s_rho, s_q = getattr(_forcing, f"cell_{dim}d")(*grid.coords(), *args)
        np.testing.assert_array_equal(f.rho, s_rho)
        np.testing.assert_array_equal(f.q, s_q)
        assert len(f.m) == dim
        for k in range(dim):
            want = getattr(_forcing, f"face_{dim}d_{k}")(*grid.coords(k),
                                                         *args)
            assert f.m[k].shape == want.shape == grid.coords(k)[0].shape
            np.testing.assert_array_equal(f.m[k], want)



def _sampled_fields(M):
    """Every array of the Test 1-3 initial states (seed 3) and of the exact
    state and momenta in 1D and 2D on an M-grid."""
    p = ModelParams(cp=1e2)
    out = []
    for test in (1, 2, 3):
        U = initial_state(test, GridSpec(dim=2, M=M), p, seed=3)
        out += [U.rho, U.q, *U.m]
    for dim in (1, 2):
        grid = GridSpec(dim=dim, M=M)
        U = mms.exact_state(grid, p, 0.37)
        out += [U.rho, U.q, *U.m, *mms.exact_momenta(grid, p, 0.37)]
    return out


def test_initial_and_exact_fields_sample_coordinate_vectors(monkeypatch):
    """initial_state, exact_state and exact_momenta ask GridSpec.coords for
    broadcastable vectors only, and each array they return is bit for bit
    (values, shape, C order) the one they return on the full coordinate
    arrays."""
    coords = GridSpec.coords
    requests = []

    def spy(self, face=None, sparse=False):
        requests.append(sparse)
        return coords(self, face, sparse)

    monkeypatch.setattr(GridSpec, "coords", spy)
    got = [_sampled_fields(M) for M in (8, 12, 16)]
    assert requests and all(requests)
    monkeypatch.setattr(GridSpec, "coords",
                        lambda self, face=None, sparse=False:
                        coords(self, face))
    want = [_sampled_fields(M) for M in (8, 12, 16)]
    for fields, full in zip(got, want):
        assert len(fields) == len(full)
        for a, b in zip(fields, full):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.flags.c_contiguous and b.flags.c_contiguous
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_exact_fields_are_evaluated_only_where_used(dim, monkeypatch):
    """exact_state evaluates rho and c once each at the cell centres and v_k
    once at the faces normal to axis k; exact_momenta evaluates rho and v_k
    once each at those faces; no other field or location is evaluated."""
    grid = GridSpec(dim=dim, M=12)
    p = ModelParams(cp=1e2)
    locations = {loc: grid.coords(loc, sparse=True)
                 for loc in (None, *range(dim))}
    calls = []

    def where(pts):
        return next((loc for loc, ref in locations.items()
                     if len(pts) == len(ref) and all(
                         a.shape == b.shape and np.array_equal(a, b)
                         for a, b in zip(pts, ref))), "elsewhere")

    def spy(field):
        sig = inspect.signature(field)

        def wrapped(*args, **kwargs):
            a = sig.bind(*args, **kwargs).arguments
            calls.append((field.__name__, a.get("k"), where(a["pts"])))
            return field(*args, **kwargs)
        return wrapped

    for name in ("exact_rho", "exact_velocity", "exact_c"):
        monkeypatch.setattr(mms, name, spy(getattr(mms, name)))

    mms.exact_state(grid, p, 0.37)
    assert collections.Counter(calls) == collections.Counter(
        [("exact_rho", None, None), ("exact_c", None, None),
         *(("exact_velocity", k, k) for k in range(dim))])
    calls.clear()
    mms.exact_momenta(grid, p, 0.37)
    assert collections.Counter(calls) == collections.Counter(
        [*(("exact_rho", None, k) for k in range(dim)),
         *(("exact_velocity", k, k) for k in range(dim))])


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
        return mms.exact_rho(d, (s,), t if tt is None else tt)

    def v(s, tt=None):
        return mms.exact_velocity(0, d, (s,), t if tt is None else tt)

    def c(s, tt=None):
        return mms.exact_c(d, (s,), t if tt is None else tt)

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
    for _ in range(6):
        x, t = rng.uniform(0.1, 0.9), rng.uniform(0.0, 0.5)
        s_rho, s_q = _forcing.cell_1d(np.array([x]), t, *args)
        s_m = _forcing.face_1d_0(np.array([x]), t, *args)
        f_rho, f_m, f_q = _residual_1d(x, t, p)
        assert float(np.ravel(s_rho)[0]) == pytest.approx(f_rho, abs=2e-7)
        assert float(np.ravel(s_m)[0]) == pytest.approx(
            f_m, abs=2e-7 * max(1.0, abs(f_m)))
        assert float(np.ravel(s_q)[0]) == pytest.approx(f_q, abs=2e-6)


def _residual_2d(x, y, t, p):
    d, cp, g = p.delta, p.cp, p.g
    nu, lam, eps = p.nu, p.lam, p.eps

    def F(i):
        return lambda xx, yy, tt: exact_fields(d, (xx, yy), tt)[i]

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
    for _ in range(4):
        x, y, t = rng.uniform(0.1, 0.9, 2).tolist() + [rng.uniform(0.0, 0.4)]
        pt = (np.array([x]), np.array([y]), t, *args)
        s_rho, s_q = _forcing.cell_2d(*pt)
        s = (s_rho, _forcing.face_2d_0(*pt), _forcing.face_2d_1(*pt), s_q)
        f = _residual_2d(x, y, t, p)
        labels = ("rho", "m1", "m2", "q")
        for got, want, lab in zip(s, f, labels):
            scale = max(1.0, abs(want))
            assert float(np.ravel(got)[0]) == pytest.approx(
                want, abs=5e-6 * scale), lab


# ---------------------------------------------------------------------------
# generated module vs its generator
# ---------------------------------------------------------------------------

def test_generated_forcing_matches_generator():
    """The committed _forcing.py evaluates like a fresh rendering of
    scripts/derive_forcing.py.  Values are compared, not text, because the
    names common-subexpression elimination picks may differ across sympy
    versions."""
    pytest.importorskip("sympy")
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / \
        "derive_forcing.py"
    spec = importlib.util.spec_from_file_location("derive_forcing", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    fresh = {}
    exec(compile(script.render(), "<rendered _forcing>", "exec"), fresh)

    p = ModelParams(cp=1e2)
    rng = np.random.default_rng(3)
    for dim in (1, 2):
        pts = [rng.uniform(0.0, 1.0, 16) for _ in range(dim)]
        t = rng.uniform(0.0, 0.5)
        args = (*pts, t, p.delta, p.cp, p.gamma, p.nu, p.lam, p.eps, p.g)
        names = [f"cell_{dim}d"] + [f"face_{dim}d_{k}" for k in range(dim)]
        for tables in (fresh, vars(_forcing)):
            assert tables["CELL"][dim].__name__ == names[0]
            assert [f.__name__ for f in tables["FACE"][dim]] == names[1:]
        for name in names:
            got = np.atleast_2d(fresh[name](*args))
            want = np.atleast_2d(getattr(_forcing, name)(*args))
            assert got.shape == want.shape, name
            np.testing.assert_allclose(got, want, rtol=1e-13,
                                       atol=1e-13 * np.abs(want).max(),
                                       err_msg=name)
