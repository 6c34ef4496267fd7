"""Equation of state, pressure splitting, potential splitting."""

import logging

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chns_imex import model, spatial
from chns_imex.grid import GridSpec
from chns_imex.model import ModelParams, NonPositiveDensityError

import oracles


def test_defaults():
    p = ModelParams()
    assert p.cp == 1e2
    assert p.cp1 == pytest.approx(10.0)
    assert p.cp2 == pytest.approx(90.0)
    assert p.delta == pytest.approx(1e-2)
    assert p.gamma == pytest.approx(5.0 / 3.0)
    assert (p.nu, p.lam, p.eps, p.g) == (1.0, 0.1, 1e-4, -10.0)


@given(st.floats(1.0, 1e8))
def test_pressure_split_consistent(cp):
    p = ModelParams(cp=cp)
    rho = np.linspace(0.5, 1.5, 7)
    total = model.p1(rho, p) + model.p2(rho, p)
    np.testing.assert_allclose(total, cp * rho ** p.gamma, rtol=1e-12)


def test_validation_errors():
    with pytest.raises(ValueError):
        ModelParams(cp=1.0, cp1=2.0)     # cp2 < 0
    with pytest.raises(ValueError):
        ModelParams(gamma=1.0)
    with pytest.raises(ValueError):
        ModelParams(nu=-1.0)
    with pytest.raises(ValueError, match="cp must be positive"):
        ModelParams(cp=-1.0)


@pytest.mark.parametrize("field,value", [
    ("cp", np.inf), ("cp1", np.inf), ("gamma", np.nan), ("nu", np.nan),
    ("lam", np.inf), ("eps", np.nan), ("g", -np.inf)])
def test_non_finite_parameters_rejected(field, value):
    """NaN passes every comparison test, and C_p = inf gives C_p2 = nan; a
    non-finite value would reach the solvers as a singular matrix."""
    with pytest.raises(ValueError, match="must be finite"):
        ModelParams(**{field: value})


def test_nonpositive_density_raises():
    p = ModelParams()
    with pytest.raises(NonPositiveDensityError):
        model.p1(np.array([1.0, -0.5]), p)
    with pytest.raises(NonPositiveDensityError):
        model.sound_speed(0.0, p)


def test_sound_speed_definition():
    p = ModelParams(cp=1e4)
    rho = np.array([0.7, 1.0, 1.3])
    np.testing.assert_allclose(model.sound_speed(rho, p) ** 2,
                               p.gamma * p.cp1 * rho ** (p.gamma - 1.0),
                               rtol=1e-13)


def test_derivatives_finite_difference():
    p = ModelParams(cp=37.0, cp1=4.0)
    rho, d = 1.13, 1e-6
    fd1 = (model.p1(rho + d, p) - model.p1(rho - d, p)) / (2 * d)
    fd2 = (model.p2(rho + d, p) - model.p2(rho - d, p)) / (2 * d)
    assert model.dp1(rho, p) == pytest.approx(fd1, rel=1e-8)
    assert model.dp2(rho, p) == pytest.approx(fd2, rel=1e-8)


def test_p2_centered_matches_difference():
    p = ModelParams(cp=1e2)
    rho = np.linspace(0.6, 1.4, 9)
    ref = 1.05
    np.testing.assert_allclose(model.p2_centered(rho, p, ref),
                               model.p2(rho, p) - model.p2(ref, p),
                               rtol=1e-10, atol=1e-10)


def test_p2_centered_accurate_at_stiff_cp():
    """At cp=1e8 the centered form retains relative accuracy where the
    naive difference has only ~1e-8 absolute accuracy."""
    p = ModelParams(cp=1e8)
    u = 2.0 ** -25                     # exactly representable in 1 + u
    got = float(model.p2_centered(np.array([1.0 + u]), p, 1.0)[0])
    exact = p.cp2 * p.gamma * u * (1 + (p.gamma - 1) / 2 * u)  # series
    assert got == pytest.approx(exact, rel=1e-9)


def test_potential_split():
    c = np.linspace(-1.5, 1.5, 11)
    # psi'(c) = c^3 - c splits into 2c (convex) + c^3 - 3c (concave), and
    # ddpsi2 is the derivative of the concave part
    d = 1e-6
    fd = (model.psi(c + d) - model.psi(c - d)) / (2 * d)
    np.testing.assert_allclose(fd, 2 * c + (c**3 - 3 * c),
                               rtol=1e-7, atol=1e-7)
    fd = ((c + d)**3 - 3 * (c + d) - (c - d)**3 + 3 * (c - d)) / (2 * d)
    np.testing.assert_allclose(oracles.ddpsi2(c), fd, rtol=1e-7, atol=1e-7)
    np.testing.assert_allclose(model.psi(np.array([1.0, -1.0, 0.0])),
                               [0.0, 0.0, 0.25], atol=1e-15)


def test_free_energy_density():
    p = ModelParams(cp=10.0, cp1=5.0, gamma=2.0)
    assert model.free_energy_density(2.0, p) == pytest.approx(20.0)


def test_batched_powers_match_per_piece_calls(rng, caplog):
    """The explicit tendency takes p1 and the sound speeds of many arrays in
    one call on a buffer holding them all.  That is bit for bit the same as
    one call per array on this NumPy's dispatch path: random densities in
    [0.5, 1.5], cut into pieces of odd lengths at odd offsets; and
    `_sound` of a buffer with one nonpositive density changes that entry
    only, and warns once."""
    params = ModelParams(cp=1e8)
    for _ in range(100):
        lengths = 2 * rng.integers(0, 60, 5) + 1
        start = 2 * rng.integers(0, 4) + 1
        buf = rng.uniform(0.5, 1.5, start + lengths.sum())
        ends = start + np.cumsum(lengths)
        pieces = [buf[a:b] for a, b in zip([start, *ends[:-1]], ends)]
        for fn in (model.p1, model.sound_speed):
            whole = fn(buf[start:], params)
            parts = np.concatenate([fn(p, params) for p in pieces])
            assert whole.tobytes() == parts.tobytes()
    disc = spatial.SpatialDiscretization(GridSpec(dim=1, M=8), params)
    rho = rng.uniform(0.5, 1.5, 203)
    bad = rho.copy()
    bad[101] = -0.1
    with caplog.at_level(logging.WARNING, logger=spatial.log.name):
        good, fell = disc._sound(rho), disc._sound(bad)
        disc._sound(bad)
    assert fell[101] == 0.0
    assert np.delete(fell, 101).tobytes() == np.delete(good, 101).tobytes()
    assert len(caplog.records) == 1
