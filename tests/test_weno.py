"""WENO5 kernel: polynomial exactness, order of accuracy, symmetry.

The kernel reconstructs the point value at the interface between the 3rd and
4th of five consecutive samples, treating the samples as cell averages
(standard finite-difference WENO semantics).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chns_imex.weno import (D_LIN, reconstruct_lr_cells, reconstruct_lr_faces,
                            weno5_point)

import oracles

#: the right-biased states share their smoothness indicators with the
#: left-biased ones, which rounds them differently from a one-sided
#: evaluation; measured worst 3 ulp of the field's largest magnitude
PLUS_ULPS = 8


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


def test_reversal_swaps_states(rng):
    f = rng.standard_normal(20)
    g = 3
    minus, plus = reconstruct_lr_cells(f, 0, g=g)
    minus_r, plus_r = reconstruct_lr_cells(f[::-1].copy(), 0, g=g)
    np.testing.assert_allclose(minus, plus_r[::-1], atol=1e-13)
    np.testing.assert_allclose(plus, minus_r[::-1], atol=1e-13)


def _field(kind, shape, rng):
    if kind == "smooth":
        x = np.linspace(0.0, 1.0, shape[0])[:, None] \
            + 0.3 * np.linspace(0.0, 1.0, shape[1])[None, :]
        return 1e4 * (1.0 + np.sin(2 * np.pi * x))
    if kind == "step":
        x = np.arange(shape[0])[:, None] + 0.5 * np.arange(shape[1])[None, :]
        return np.where(x > shape[0] / 2, 2.5, -1e-3)
    return 10.0 ** rng.uniform(-6, 6) * rng.standard_normal(shape)


@pytest.mark.parametrize("kind", ["smooth", "step", "random"])
@pytest.mark.parametrize("faces", [False, True], ids=["cells", "faces"])
@pytest.mark.parametrize("ax", [0, 1])
@pytest.mark.parametrize("M", [4, 17, 64])
def test_shared_beta_states_match_one_sided_windows(kind, faces, ax, M, rng):
    """Both states from one kernel agree with one-sided evaluations on
    sliding windows: the left-biased states bit for bit, the right-biased
    ones within PLUS_ULPS ulp of the field's largest magnitude."""
    g = 3
    shape = [M + 2 * g + (1 if faces else 0), 7]
    ext = _field(kind, shape, rng)
    if ax == 1:
        ext = ext.T.copy()
    minus, plus = (reconstruct_lr_faces if faces
                   else reconstruct_lr_cells)(ext, ax, g=g)
    ref_minus, ref_plus = oracles.weno_lr_windows(ext, ax, faces, g=g)
    assert np.array_equal(minus, ref_minus)
    bound = PLUS_ULPS * np.finfo(float).eps * np.abs(ext).max()
    assert plus.shape == ref_plus.shape
    assert np.abs(plus - ref_plus).max() <= bound


def test_reconstruct_shapes():
    g = 3
    M = 8
    ext_c = np.zeros(M + 2 * g)
    m, p = reconstruct_lr_cells(ext_c, 0, g=g)
    assert m.shape == (M + 1,) and p.shape == (M + 1,)
    ext_f = np.zeros(M + 1 + 2 * g)
    m, p = reconstruct_lr_faces(ext_f, 0, g=g)
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
