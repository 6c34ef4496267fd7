"""WENO5 kernel: polynomial exactness, order of accuracy, symmetry.

The kernel reconstructs the point value at the interface between the 3rd and
4th of five consecutive samples, treating the samples as cell averages
(standard finite-difference WENO semantics).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chns_imex.grid import GHOST
from chns_imex.weno import D_LIN, reconstruct_lr_cells, reconstruct_lr_faces

import oracles
from oracles import weno5_point

#: the kernel works in differences and shares the smoothness indicators of
#: both states, which rounds them differently from a one-sided evaluation;
#: measured worst 2.7 ulp (minus) and 3.6 ulp (plus) of the field's largest
#: magnitude over 1080 fields of the kinds below
STATE_ULPS = 8


def _candidates(v):
    q0 = (2 * v[0] - 7 * v[1] + 11 * v[2]) / 6.0
    q1 = (-v[1] + 5 * v[2] + 2 * v[3]) / 6.0
    q2 = (2 * v[2] + 5 * v[3] - v[4]) / 6.0
    return np.array([q0, q1, q2])


def _cell_averages(poly, centers, h=1.0):
    P = poly.integ()
    return np.array([(P(x + h / 2) - P(x - h / 2)) / h for x in centers])


@given(st.lists(st.floats(-5, 5), min_size=5, max_size=5))
def test_linear_scheme_exact_on_quartics(coeffs):
    """The optimal-weight combination maps cell averages of a quartic to its
    exact point value at the interface."""
    poly = np.polynomial.Polynomial(coeffs)
    v = _cell_averages(poly, np.arange(-2.0, 3.0))
    linear = float(D_LIN @ _candidates(v))
    assert linear == pytest.approx(poly(0.5), rel=1e-9, abs=1e-9)


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
def test_weno_exact_on_quadratics(a, b, c):
    """Each candidate is exact on quadratic data, so any convex combination
    (hence the full nonlinear reconstruction) is too."""
    poly = np.polynomial.Polynomial([a, b, c])
    v = _cell_averages(poly, np.arange(-2.0, 3.0))
    assert weno5_point(v) == pytest.approx(poly(0.5), rel=1e-9, abs=1e-9)


def test_linear_weights_random_quartics():
    rng = np.random.default_rng(1)
    for _ in range(20):
        poly = np.polynomial.Polynomial(rng.standard_normal(5))
        v = _cell_averages(poly, np.arange(-2.0, 3.0))
        linear = float(D_LIN @ _candidates(v))
        np.testing.assert_allclose(linear, poly(0.5), rtol=1e-10, atol=1e-10)


def _sin_averages(M):
    """Cell averages of sin(2 pi x) on M cells plus 2 ghost cells per side."""
    h = 1.0 / M
    edges = np.arange(-2, M + 3) * h
    prim = -np.cos(2 * np.pi * edges) / (2 * np.pi)
    return (prim[1:] - prim[:-1]) / h


def test_fifth_order_convergence():
    """Interface reconstruction of sin(2 pi x) converges at 5th order
    (observed order >= 4.7 between M=32 and M=128)."""
    errs = {}
    for M in (32, 128):
        h = 1.0 / M
        v = _sin_averages(M)
        err = 0.0
        for k in range(M):
            # v[k:k+5] covers cells k-2..k+2; the reconstructed interface
            # sits between cells k and k+1, i.e. at x = (k+1) h
            rec = weno5_point(v[k:k + 5])
            err = max(err, abs(rec - np.sin(2 * np.pi * (k + 1) * h)))
        errs[M] = err
    order = np.log(errs[32] / errs[128]) / np.log(128 / 32)
    assert order >= 4.7


def _field(kind, shape, rng):
    if kind == "smooth":
        x = np.linspace(0.0, 1.0, shape[0])[:, None] \
            + 0.3 * np.linspace(0.0, 1.0, shape[1])[None, :]
        return 1e4 * (1.0 + np.sin(2 * np.pi * x))
    if kind == "step":
        x = np.arange(shape[0])[:, None] + 0.5 * np.arange(shape[1])[None, :]
        return np.where(x > shape[0] / 2, 2.5, -1e-3)
    return 10.0 ** rng.uniform(-6, 6) * rng.standard_normal(shape)


def _reconstruct(faces):
    return reconstruct_lr_faces if faces else reconstruct_lr_cells


def _ext(kind, faces, ax, M, rng):
    """A 2D extended field with M targets along ax and 7 lines."""
    shape = [M + 2 * GHOST + (1 if faces else 0), 7]
    ext = _field(kind, shape, rng)
    return ext.T.copy() if ax == 1 else ext


@pytest.mark.parametrize("kind", ["smooth", "step", "random"])
@pytest.mark.parametrize("faces", [False, True], ids=["cells", "faces"])
@pytest.mark.parametrize("ax", [0, 1])
@pytest.mark.parametrize("M", [4, 17, 64])
def test_shared_beta_states_match_one_sided_windows(kind, faces, ax, M, rng):
    """Both states from one kernel agree with one-sided evaluations on
    sliding windows within STATE_ULPS ulp of the field's largest
    magnitude."""
    ext = _ext(kind, faces, ax, M, rng)
    minus, plus = _reconstruct(faces)(ext, ax)
    bound = STATE_ULPS * np.finfo(float).eps * np.abs(ext).max()
    for got, ref in zip((minus, plus),
                        oracles.weno_lr_windows(ext, ax, faces)):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= bound


def test_reversal_swaps_states(rng):
    """The left state of a field is bit for bit the right state of the
    mirrored field, and the other way round, on cells and faces, smooth,
    step and random fields, along both axes of 2D arrays."""
    for kind, faces, ax, M in itertools.product(
            ("smooth", "step", "random"), (False, True), (0, 1), (4, 17, 64)):
        ext = _ext(kind, faces, ax, M, rng)
        minus, plus = _reconstruct(faces)(ext, ax)
        minus_r, plus_r = _reconstruct(faces)(np.flip(ext, ax).copy(), ax)
        assert np.array_equal(minus, np.flip(plus_r, ax)), (kind, faces, ax)
        assert np.array_equal(plus, np.flip(minus_r, ax)), (kind, faces, ax)


@pytest.mark.parametrize("faces", [False, True], ids=["cells", "faces"])
@pytest.mark.parametrize("ax", [0, 1])
@pytest.mark.parametrize("M", [4, 17, 64])
def test_stack_reconstructs_like_single_fields(faces, ax, M, rng):
    """A stack of fields reconstructed in one call gives each field's
    states bit for bit as reconstructing it alone."""
    fields = [_ext(kind, faces, ax, M, rng)
              for kind in ("smooth", "step", "random", "random")]
    minus, plus = _reconstruct(faces)(np.stack(fields), ax + 1)
    for f, m, p in zip(fields, minus, plus):
        m1, p1 = _reconstruct(faces)(f, ax)
        assert np.array_equal(m, m1) and np.array_equal(p, p1)


def test_reconstruct_shapes():
    M = 8
    ext_c = np.zeros(M + 2 * GHOST)
    m, p = reconstruct_lr_cells(ext_c, 0)
    assert m.shape == (M + 1,) and p.shape == (M + 1,)
    ext_f = np.zeros(M + 1 + 2 * GHOST)
    m, p = reconstruct_lr_faces(ext_f, 0)
    assert m.shape == (M,) and p.shape == (M,)


def test_point_input_validation():
    with pytest.raises(ValueError):
        weno5_point([1.0, 2.0, 3.0])


def test_monotone_data_essentially_bounded():
    """Reconstructions on smooth monotone data stay within the local data
    range up to a small essentially-non-oscillatory margin."""
    x = np.linspace(0, 1, 25)
    v = np.tanh(5 * (x - 0.5))
    for k in range(len(v) - 5):
        rec = weno5_point(v[k:k + 5])
        lo, hi = v[k:k + 5].min(), v[k:k + 5].max()
        margin = 0.05 * (hi - lo) + 1e-12
        assert lo - margin <= rec <= hi + margin
