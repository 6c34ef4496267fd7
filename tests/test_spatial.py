"""Tendency operators vs independent scalar-loop and dense-matrix oracles."""

import logging

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from chns_imex import model, spatial
from chns_imex.grid import GridSpec
from chns_imex.imex import Integrator
from chns_imex.mms import forcing_state
from chns_imex.model import ModelParams
from chns_imex.operators import (implicit_operators, mat_dual, stencils,
                                 viscous_blocks)
from chns_imex.solvers import HydroSolver
from chns_imex.spatial import SpatialDiscretization
from chns_imex.state import state_from_primitives

import oracles

PARAMS = ModelParams(cp=1e2)


def random_state(grid, rng, amp=0.3):
    M = grid.M
    if grid.dim == 1:
        rho = 1.0 + amp * rng.uniform(-1, 1, M)
        v1 = amp * rng.standard_normal(M - 1)
        c = amp * rng.uniform(-1, 1, M)
        return state_from_primitives(rho, (v1,), c)
    rho = 1.0 + amp * rng.uniform(-1, 1, (M, M))
    v1 = amp * rng.standard_normal((M - 1, M))
    v2 = amp * rng.standard_normal((M, M - 1))
    c = amp * rng.uniform(-1, 1, (M, M))
    return state_from_primitives(rho, (v1, v2), c)


def packed(disc, U):
    """(rho, m, v) of U as the packed vectors `hydro_tendency` takes."""
    return (np.ravel(U.rho, order="F"), disc.pack(*U.m),
            disc.pack(*U.velocities()))


@pytest.mark.parametrize("dim", [1, 2])
def test_unpack_inverts_pack(dim, rng):
    """`unpack` returns the fields `pack` stacked, from the whole
    [rho; v_1; ...] or from the face velocities alone."""
    grid = GridSpec(dim=dim, M=6)
    U = random_state(grid, rng)
    disc = SpatialDiscretization(grid, PARAMS)
    v = U.velocities()
    rho, v_all = disc.unpack(disc.pack(U.rho, *v))
    v_alone = disc.unpack(disc.pack(*v))
    assert np.array_equal(rho, U.rho)
    for got in (v_all, v_alone):
        assert len(got) == dim
        assert all(np.array_equal(a, b) for a, b in zip(got, v))


# ---------------------------------------------------------------------------
# convection vs scalar-loop oracle
# ---------------------------------------------------------------------------

def smooth_state(grid):
    """A smooth state: density, velocities and concentration from products
    of sines and cosines of the coordinates."""
    def wave(coords, f):
        return np.prod([f(np.pi * x) for x in coords], axis=0)
    rho = 1.0 + 0.2 * wave(grid.coords(), np.cos)
    v = [0.3 * wave(grid.coords(face=k), np.sin) for k in range(grid.dim)]
    return state_from_primitives(rho, v, 0.5 * wave(grid.coords(), np.cos))


def dip_state(grid, rng):
    """Random velocities and concentration over a density with a sharp dip
    to 0.09 along the first axis, where some WENO states of the face
    densities are nonpositive."""
    rho = np.ones((grid.M,) * grid.dim)
    rho[5:8] = 0.09
    U = random_state(grid, rng)
    return state_from_primitives(rho, U.velocities(), U.c())


@pytest.mark.parametrize("cp", [1e2, 1e8])
@pytest.mark.parametrize("M", [4, 5, 9, 16, 64])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["smooth", "random"])
def test_rusanov_is_byte_equal_to_numpy_form(kind, dim, M, cp, rng):
    """The compiled passes of `rusanov` give byte for byte, signed zeros
    included, the tendency of its NumPy form, on smooth and random states
    and a uniform state at rest, whose differences are all signed zeros."""
    grid = GridSpec(dim=dim, M=M)
    disc = SpatialDiscretization(grid, ModelParams(cp=cp))
    states = [smooth_state(grid) if kind == "smooth"
              else random_state(grid, rng)]
    if kind == "smooth":
        rest = smooth_state(grid)
        states.append(state_from_primitives(
            np.full_like(rest.rho, 1.3), [np.zeros_like(m) for m in rest.m],
            np.full_like(rest.rho, 0.2)))
    for U in states:
        got, ref = disc.rusanov(U), oracles.rusanov(disc, U)
        for a, b in zip((got.rho, got.q, *got.m), (ref.rho, ref.q, *ref.m)):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_rusanov_is_byte_equal_at_nonpositive_reconstructed_density(
        dim, caplog, rng):
    """Where a reconstructed density is nonpositive, the compiled passes
    still give the NumPy form's tendency byte for byte, and warn once."""
    grid = GridSpec(dim=dim, M=16)
    U = dip_state(grid, rng)
    with caplog.at_level(logging.WARNING, logger=spatial.log.name):
        got = SpatialDiscretization(grid, PARAMS).rusanov(U)
    assert len(caplog.records) == 1
    ref = oracles.rusanov(SpatialDiscretization(grid, PARAMS), U)
    for a, b in zip((got.rho, got.q, *got.m), (ref.rho, ref.q, *ref.m)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("M", [4, 8])
def test_convective_1d_matches_oracle(M, rng):
    grid = GridSpec(dim=1, M=max(M, 4))
    Ut = random_state(grid, rng)
    U = random_state(grid, rng)
    disc = SpatialDiscretization(grid, PARAMS)
    out = oracles.convective(disc, Ut, U)
    t_rho, t_mx, t_q = oracles.convective_1d(Ut, U, grid.h, PARAMS)
    scale = max(np.abs(t_rho).max(), np.abs(t_mx).max(), np.abs(t_q).max())
    np.testing.assert_allclose(out.rho, t_rho, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(out.m[0], t_mx, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(out.q, t_q, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("M", [4, 8])
def test_convective_2d_matches_oracle(M, rng):
    grid = GridSpec(dim=2, M=M)
    Ut = random_state(grid, rng)
    U = random_state(grid, rng)
    disc = SpatialDiscretization(grid, PARAMS)
    out = oracles.convective(disc, Ut, U)
    t_rho, t_mx, t_my, t_q = oracles.convective_2d(Ut, U, grid.h, PARAMS)
    scale = max(np.abs(t).max() for t in (t_rho, t_mx, t_my, t_q))
    np.testing.assert_allclose(out.rho, t_rho, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(out.m[0], t_mx, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(out.m[1], t_my, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(out.q, t_q, rtol=1e-12, atol=1e-12 * scale)


def test_nonpositive_reconstructed_density_falls_back_to_velocity_bound(
        monkeypatch, caplog, rng):
    """Next to a sharp dip of the density the sixth-order face densities
    stay positive but some of their WENO states do not: there the sound
    speed is zero, so the Rusanov speed is the |v| bound; the warning is
    logged once over two calls, and the tendency is the pointwise
    oracle's."""
    grid = GridSpec(dim=1, M=16)
    rho = np.ones(16)
    rho[5:8] = 0.09
    Ut = state_from_primitives(rho, (0.3 * rng.standard_normal(15),),
                               0.3 * rng.uniform(-1, 1, 16))
    disc = SpatialDiscretization(grid, PARAMS)
    speeds = []

    def spy(rho, _sound=disc._sound):
        speeds.append((rho.copy(), _sound(rho)))
        return speeds[-1][1]

    monkeypatch.setattr(disc, "_sound", spy)
    with caplog.at_level(logging.WARNING, logger=spatial.log.name):
        disc.rusanov(Ut)
        out = oracles.convective(disc, Ut, Ut)
    assert [r.getMessage() for r in caplog.records] == [
        "nonpositive reconstructed density; using |v| bound for the "
        "numerical viscosity"]
    low = [(r <= 0.0, s) for r, s in speeds]
    assert sum(np.count_nonzero(bad) for bad, _ in low) > 0
    assert all(np.all(s[bad] == 0.0) and np.all(s[~bad] > 0.0)
               for bad, s in low)
    t_rho, t_mx, t_q = oracles.convective_1d(Ut, Ut, grid.h, PARAMS)
    scale = max(np.abs(t_rho).max(), np.abs(t_mx).max(), np.abs(t_q).max())
    for got, want in ((out.rho, t_rho), (out.m[0], t_mx), (out.q, t_q)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


# ---------------------------------------------------------------------------
# capillary forces
# ---------------------------------------------------------------------------

def test_capillary_2d_matches_oracle(rng):
    grid = GridSpec(dim=2, M=8)
    Ut = random_state(grid, rng)
    disc = SpatialDiscretization(grid, PARAMS)
    out = disc.capillary(Ut)
    t_mx, t_my = oracles.capillary_2d(Ut, grid.h, PARAMS)
    scale = max(np.abs(t_mx).max(), np.abs(t_my).max())
    assert len(out) == 2
    np.testing.assert_allclose(out[0], t_mx, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(out[1], t_my, rtol=1e-12, atol=1e-12 * scale)


def test_capillary_1d_explicit_formula(rng):
    grid = GridSpec(dim=1, M=8)
    h = grid.h
    Ut = random_state(grid, rng)
    c = Ut.c()
    # centered derivative squared at cells (one-sided at the walls)
    cx = np.empty(8)
    cx[1:-1] = (c[2:] - c[:-2]) / (2 * h)
    cx[0] = (c[1] - c[0]) / (2 * h)
    cx[-1] = (c[-1] - c[-2]) / (2 * h)
    expected = -0.5 * PARAMS.eps * (cx[1:] ** 2 - cx[:-1] ** 2) / h
    out = SpatialDiscretization(grid, PARAMS).capillary(Ut)
    (m_x,) = out
    np.testing.assert_allclose(m_x, expected, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# implicit (linear-structure) terms vs dense Kronecker assemblies
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2])
def test_mass_divergence_matches_dense(dim, rng):
    """The mass transport of the tendency, -D m, is minus the flux
    difference of each face momentum; the pressure and viscous parts drop
    out at zero velocity and a flat density."""
    M = 8
    grid = GridSpec(dim=dim, M=M)
    U = random_state(grid, rng)
    ops = oracles.dense_implicit_ops(M, grid.h, PARAMS, dim)
    disc = SpatialDiscretization(grid, PARAMS)
    _, m, v = packed(disc, U)
    t_rho, t_m = disc.hydro_tendency(np.ones(grid.M ** dim), m,
                                     np.zeros_like(v))
    expected = -ops["Dx"] @ np.ravel(U.m[0], order="F")
    if dim == 2:
        expected = expected - ops["Dy"] @ np.ravel(U.m[1], order="F")
    np.testing.assert_allclose(t_rho, expected, rtol=1e-12, atol=1e-13)
    assert np.all(t_m == 0)


@pytest.mark.parametrize("dim", [1, 2])
def test_pressure_matches_dense_gradient(dim, rng):
    """At zero momentum and velocity the tendency is the pressure force
    D^T p2 alone, and the mass transport vanishes."""
    M = 8
    grid = GridSpec(dim=dim, M=M)
    U = random_state(grid, rng)
    ops = oracles.dense_implicit_ops(M, grid.h, PARAMS, dim)
    disc = SpatialDiscretization(grid, PARAMS)
    rho, m, _ = packed(disc, U)
    t_rho, t_m = disc.hydro_tendency(rho, np.zeros_like(m),
                                     np.zeros_like(m))
    _, force = disc.unpack(np.concatenate([t_rho, t_m]))
    p2 = model.p2(rho, PARAMS)
    np.testing.assert_allclose(np.ravel(force[0], order="F"), ops["Gx"] @ p2,
                               rtol=1e-11, atol=1e-9)
    if dim == 2:
        np.testing.assert_allclose(np.ravel(force[1], order="F"),
                                   ops["Gy"] @ p2, rtol=1e-11, atol=1e-9)
    assert np.all(t_rho == 0)


def test_pressure_gradient_annihilates_constants():
    grid = GridSpec(dim=2, M=8)
    disc = SpatialDiscretization(grid, ModelParams(cp=1e8))
    zero = np.zeros(2 * 8 * 7)
    _, t_m = disc.hydro_tendency(np.full(64, 1.3), zero, zero)
    assert np.abs(t_m).max() == 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_viscous_matches_dense_blocks(dim, rng):
    """At a flat density the momentum tendency is the viscous force -B v
    alone."""
    M = 8
    grid = GridSpec(dim=dim, M=M)
    U = random_state(grid, rng)
    ops = oracles.dense_implicit_ops(M, grid.h, PARAMS, dim)
    disc = SpatialDiscretization(grid, PARAMS)
    _, m, v = packed(disc, U)
    _, t_m = disc.hydro_tendency(np.ones(M ** dim), m, v)
    v1 = np.ravel(U.velocities()[0], order="F")
    if dim == 1:
        np.testing.assert_allclose(-t_m, ops["B11"] @ v1,
                                   rtol=1e-12, atol=1e-9)
        return
    v2 = np.ravel(U.velocities()[1], order="F")
    n1 = v1.size
    np.testing.assert_allclose(-t_m[:n1],
                               ops["B11"] @ v1 + ops["B12"] @ v2,
                               rtol=1e-12, atol=1e-9)
    np.testing.assert_allclose(-t_m[n1:],
                               ops["B21"] @ v1 + ops["B22"] @ v2,
                               rtol=1e-12, atol=1e-9)


def test_viscous_blocks_against_hand_assembly():
    """Dense hand assembly of the symmetric viscous operator from first
    principles (grad-div plus transverse Laplacian with no-slip wall rows)."""
    M, h = 8, 0.125
    nu, lam = 1.0, 0.1
    D = mat_dual(M, h).toarray()
    DtD = D.T @ D                                  # (M-1, M-1)
    # transverse negated second difference with 3/-1 wall rows
    R = np.zeros((M, M))
    for i in range(M):
        R[i, i] = 2.0
        if i > 0:
            R[i, i - 1] = -1.0
        if i < M - 1:
            R[i, i + 1] = -1.0
    R[0, 0] = R[-1, -1] = 3.0
    R /= h ** 2

    ((B1,),) = viscous_blocks(1, M, h, nu, lam)
    np.testing.assert_allclose(B1.toarray(), (2 * nu + lam) * DtD, atol=1e-10)

    (B11, B12), (B21, B22) = viscous_blocks(2, M, h, nu, lam)
    I_M = np.eye(M)
    I_f = np.eye(M - 1)
    np.testing.assert_allclose(
        B11.toarray(),
        np.kron(I_M, (2 * nu + lam) * DtD) + np.kron(R, nu * I_f),
        atol=1e-10)
    np.testing.assert_allclose(
        B22.toarray(),
        np.kron((2 * nu + lam) * DtD, I_M) + np.kron(nu * I_f, R),
        atol=1e-10)
    # mixed blocks: adjoint pair, overall operator symmetric dissipative
    np.testing.assert_allclose(B12.toarray(), B21.toarray().T, atol=1e-12)
    full = np.block([[B11.toarray(), B12.toarray()],
                     [B21.toarray(), B22.toarray()]])
    np.testing.assert_allclose(full, full.T, atol=1e-12)
    w = np.linalg.eigvalsh(full)
    assert w.min() >= -1e-9          # positive semidefinite (dissipative)


def test_viscous_blocks_built_once_and_shared(rng):
    """An integrator builds the implicit operators once; its Newton
    residual (through the stencils read off them), its Jacobian and its
    tendency use the same matrices, and the viscous matrix is the viscous
    blocks joined."""
    grid = GridSpec(dim=2, M=8)
    implicit_operators.cache_clear()
    stencils.cache_clear()
    integ = Integrator(grid, PARAMS)
    U = random_state(grid, rng)
    oracles.implicit_tendency(integ.sp, U)
    z = integ.sp.pack(U.rho, *U.velocities())
    integ.hydro.residual(z, np.zeros_like(z), 0.01)
    integ.hydro.jacobian(z, 0.01)
    assert implicit_operators.cache_info().misses == 1
    ops = implicit_operators(grid.dim, grid.M, grid.h, PARAMS.nu, PARAMS.lam)
    assert integ.sp.ops is ops and integ.hydro.spatial.ops is ops
    assert integ.hydro.spatial.stencils.ops is ops
    B = viscous_blocks(grid.dim, grid.M, grid.h, PARAMS.nu, PARAMS.lam)
    assert (ops.B != sp.bmat(B)).nnz == 0


@pytest.mark.parametrize("dim", [1, 2])
def test_ch_convex_matches_dense_laplacian(dim, rng):
    """The convex Cahn-Hilliard tendency applies the Laplacian matrix as
    the Neumann stencil does."""
    M = 8
    grid = GridSpec(dim=dim, M=M)
    U = random_state(grid, rng)
    out = oracles.ch_convex(SpatialDiscretization(grid, PARAMS), U)
    expected = oracles.ch_convex_stencil(U.q / U.rho, U.rho, PARAMS.eps,
                                         grid.h)
    np.testing.assert_allclose(out.q, expected, rtol=1e-13, atol=1e-13)
    assert np.all(out.rho == 0) and np.all(out.m[0] == 0)


@pytest.mark.parametrize("dim", [1, 2])
def test_ch_concave_matches_oracle(dim, rng):
    """The concave Cahn-Hilliard tendency is the scalar-loop flux
    difference, and with no flux through the walls its cell sum vanishes."""
    grid = GridSpec(dim=dim, M=8)
    Ut = random_state(grid, rng)
    got = SpatialDiscretization(grid, PARAMS).ch_concave(Ut)
    want = oracles.ch_concave(Ut, grid.h)
    scale = np.abs(want).max()
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
    assert abs(got.sum()) < 1e-12 * scale * got.size


def _fields(U):
    return (U.rho, U.q, *U.m)


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "mms"])
@pytest.mark.parametrize("dim", [1, 2])
def test_explicit_tendency_is_the_sum_of_its_terms(dim, forced, rng):
    """The explicit tendency is, bit for bit, the Rusanov terms plus gravity
    on the last momentum, the capillary forces, the concave Cahn-Hilliard
    part and the forcing, added in that order; neither the stage state nor
    the forcing is changed by it."""
    grid = GridSpec(dim=dim, M=8)
    disc = SpatialDiscretization(grid, PARAMS)
    Ut = random_state(grid, rng)
    frc = forcing_state(grid, PARAMS, 0.3) if forced else None
    before = [U.copy() for U in (Ut, frc) if U is not None]
    got = disc.explicit_tendency(Ut, frc)

    rus = disc.rusanov(Ut)
    mom = list(rus.m)
    mom[-1] = mom[-1] + disc.gravity(Ut)
    mom = [mk + fk for mk, fk in zip(mom, disc.capillary(Ut))]
    want = [rus.rho, rus.q + disc.ch_concave(Ut), *mom]
    if forced:
        want = [w + f for w, f in zip(want, _fields(frc))]
    assert all(np.array_equal(a, b) for a, b in zip(_fields(got), want,
                                                      strict=True))
    for old, new in zip(before, (Ut, frc)):
        assert all(np.array_equal(a, b)
                   for a, b in zip(_fields(old), _fields(new), strict=True))


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2])
def test_mass_and_phase_tendencies_sum_to_zero(dim, rng):
    grid = GridSpec(dim=dim, M=8)
    disc = SpatialDiscretization(grid, PARAMS)
    Ut = random_state(grid, rng)
    U = random_state(grid, rng)
    out = disc.explicit_tendency(Ut).axpy(
        1.0, oracles.implicit_tendency(disc, U))
    scale = max(np.abs(out.rho).max(), np.abs(out.q).max())
    assert abs(out.rho.sum()) < 1e-12 * scale * out.rho.size
    assert abs(out.q.sum()) < 1e-12 * scale * out.q.size


@pytest.mark.parametrize("dim", [1, 2])
def test_uniform_rest_state_only_feels_gravity(dim):
    grid = GridSpec(dim=dim, M=8)
    M = grid.M
    rho0 = 1.2
    if dim == 1:
        U = state_from_primitives(np.full(M, rho0), (np.zeros(M - 1),),
                                  np.full(M, 0.3))
    else:
        U = state_from_primitives(np.full((M, M), rho0),
                                  (np.zeros((M - 1, M)), np.zeros((M, M - 1))),
                                  np.full((M, M), 0.3))
    disc = SpatialDiscretization(grid, PARAMS)
    out = disc.explicit_tendency(U).axpy(
        1.0, oracles.implicit_tendency(disc, U))
    assert np.abs(out.rho).max() < 1e-12
    assert np.abs(out.q).max() < 1e-12
    if dim == 1:
        np.testing.assert_allclose(out.m[0], PARAMS.g * rho0, rtol=1e-12)
    else:
        assert np.abs(out.m[0]).max() < 1e-9       # no horizontal force
        np.testing.assert_allclose(out.m[1], PARAMS.g * rho0, rtol=1e-12)


@settings(max_examples=30)
@given(M=st.integers(4, 12), cp=st.sampled_from([1e2, 1e8]),
       seed=st.integers(0, 2**32 - 1))
def test_axis_swap_commutes_with_tendencies(M, cp, seed):
    """Without gravity the equations are symmetric under x <-> y, so each
    tendency of the swapped state is the swapped tendency.  The oracles
    share the operators' wall and parity conventions; this check does not."""
    grid = GridSpec(dim=2, M=M)
    disc = SpatialDiscretization(grid, ModelParams(cp=cp, g=0.0))
    U = random_state(grid, np.random.default_rng(seed))
    tendencies = {"explicit_tendency": disc.explicit_tendency,
                  "implicit_tendency": lambda V: oracles.implicit_tendency(
                      disc, V)}
    for name, tendency in tendencies.items():
        want = oracles.swap_xy(tendency(U))
        got = tendency(oracles.swap_xy(U))
        for f, a, b in (("rho", got.rho, want.rho), ("q", got.q, want.q),
                        *((f"m[{k}]", got.m[k], want.m[k]) for k in (0, 1))):
            scale = max(np.abs(b).max(), np.finfo(float).tiny)
            assert np.abs(a - b).max() <= 1e-12 * scale, f"{name}.{f}"


@pytest.mark.parametrize("dim, calls", [(1, 2), (2, 6)])
def test_explicit_tendency_reconstructs_one_stack_per_location(
        dim, calls, monkeypatch, rng):
    """One explicit tendency reconstructs one stack of four fields per axis
    and staggered location: 2 WENO calls in 1D and 6 in 2D, covering the
    points of 8 and 24 single-field reconstructions."""
    M = 8
    seen = []
    for name in ("reconstruct_lr_cells", "reconstruct_lr_faces"):
        def counted(*args, _fn=getattr(spatial, name), **kwargs):
            minus, plus = _fn(*args, **kwargs)
            seen.append((args[0].shape[0], minus.size))
            return minus, plus
        monkeypatch.setattr(spatial, name, counted)
    grid = GridSpec(dim=dim, M=M)
    SpatialDiscretization(grid, PARAMS).explicit_tendency(
        random_state(grid, rng))
    # per field and axis: interfaces of the cells, centres of the faces,
    # and in 2D the interfaces of the k-faces along the transverse axis
    per_field = (M + 1) + M if dim == 1 \
        else 2 * ((M + 1) * M + M * M + (M - 1) * (M + 1))
    assert len(seen) == calls
    assert all(fields == 4 for fields, _ in seen)
    assert sum(points for _, points in seen) == 4 * per_field


# ---------------------------------------------------------------------------
# implicit hydro residual and Jacobian
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2])
def test_hydro_residual_matches_implicit_tendency(dim, rng):
    """The Newton residual is z - dt*a*(implicit hydro tendency) - r in the
    conserved variables; cross-check the matrix form against the stencils
    of the mass transport, the pressure force and the viscous operator, on
    a dyadic grid and on one (M = 12) where 1/h rounds."""
    dta = 0.013
    for M in (8, 12):
        grid = GridSpec(dim=dim, M=M)
        hydro = HydroSolver(grid, PARAMS)
        U = random_state(grid, rng)
        v = U.velocities()
        z = hydro.spatial.pack(U.rho, *v)
        res = hydro.residual(z, np.zeros_like(z), dta)

        h = grid.h
        t_rho = oracles.mass_transport(U.m, h)
        visc = oracles.viscous_stencil(v, h, PARAMS.nu, PARAMS.lam)
        t_m = [f - a for f, a in zip(oracles.pressure_force(U.rho, PARAMS, h),
                                     visc)]
        expected = hydro.spatial.pack(
            U.rho - dta * t_rho,
            *(mk - dta * tk for mk, tk in zip(U.m, t_m)))
        np.testing.assert_allclose(res, expected, rtol=1e-13,
                                   atol=1e-13 * np.abs(expected).max())


@pytest.mark.parametrize("dim", [1, 2])
def test_hydro_jacobian_matches_finite_differences(dim, rng):
    grid = GridSpec(dim=dim, M=8)
    hydro = HydroSolver(grid, PARAMS)
    U = random_state(grid, rng, amp=0.2)
    z = hydro.spatial.pack(U.rho, *U.velocities())
    r = np.zeros_like(z)
    dta = 0.007
    J = oracles.full_jacobian(hydro, z, dta).toarray()
    e = 1e-7
    for _ in range(20):
        d = rng.standard_normal(z.size)
        d /= np.linalg.norm(d)
        fd = (hydro.residual(z + e * d, r, dta)
              - hydro.residual(z - e * d, r, dta)) / (2 * e)
        Jd = J @ d
        assert np.linalg.norm(Jd - fd) <= 1e-6 * max(1.0, np.linalg.norm(Jd))


def test_hydro_jacobian_matches_dense_kronecker(rng):
    """Assemble the exact Jacobian of the residual by differentiating the
    dense Kronecker form by hand and compare entrywise."""
    M, dim = 6, 2
    grid = GridSpec(dim=dim, M=M)
    hydro = HydroSolver(grid, PARAMS)
    ops = oracles.dense_implicit_ops(M, grid.h, PARAMS, dim)
    U = random_state(grid, rng, amp=0.2)
    rho = np.ravel(U.rho, order="F")
    v1 = np.ravel(U.velocities()[0], order="F")
    v2 = np.ravel(U.velocities()[1], order="F")
    z = np.concatenate([rho, v1, v2])
    dta = 0.011
    Dx, Dy, Ax, Ay, Gx, Gy = (ops[k] for k in
                              ("Dx", "Dy", "Ax", "Ay", "Gx", "Gy"))
    dp2 = model.dp2(rho, PARAMS)
    nc = M * M
    J = np.zeros((z.size, z.size))
    J[:nc, :nc] = np.eye(nc) + dta * (Dx @ np.diag(v1) @ Ax
                                      + Dy @ np.diag(v2) @ Ay)
    J[:nc, nc:nc + v1.size] = dta * Dx @ np.diag(Ax @ rho)
    J[:nc, nc + v1.size:] = dta * Dy @ np.diag(Ay @ rho)
    J[nc:nc + v1.size, :nc] = np.diag(v1) @ Ax - dta * Gx @ np.diag(dp2)
    J[nc + v1.size:, :nc] = np.diag(v2) @ Ay - dta * Gy @ np.diag(dp2)
    J[nc:nc + v1.size, nc:nc + v1.size] = (np.diag(Ax @ rho)
                                           + dta * ops["B11"])
    J[nc:nc + v1.size, nc + v1.size:] = dta * ops["B12"]
    J[nc + v1.size:, nc:nc + v1.size] = dta * ops["B21"]
    J[nc + v1.size:, nc + v1.size:] = np.diag(Ay @ rho) + dta * ops["B22"]
    got = oracles.full_jacobian(hydro, z, dta).toarray()
    np.testing.assert_allclose(got, J, rtol=1e-12, atol=1e-12 * np.abs(J).max())
