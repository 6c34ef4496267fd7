"""WENO5 kernel: polynomial exactness, order of accuracy, symmetry, and the
compiled kernel against its NumPy form.

The kernel reconstructs the point value at the interface between the 3rd and
4th of five consecutive samples, treating the samples as cell averages
(standard finite-difference WENO semantics).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chns_imex import solvers, weno
from chns_imex.cases import initial_state
from chns_imex.grid import GHOST, GridSpec
from chns_imex.imex import Integrator
from chns_imex.model import ModelParams
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
    if kind == "scales":
        return rng.choice([-1.0, 1.0], shape) \
            * 10.0 ** rng.uniform(-6, 6, shape)
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


@pytest.mark.parametrize("kind", ["smooth", "step", "random", "scales"])
@pytest.mark.parametrize("faces", [False, True], ids=["cells", "faces"])
@pytest.mark.parametrize("M", [4, 17, 64])
def test_compiled_kernel_matches_numpy_reference(kind, faces, M, rng):
    """The compiled kernel gives bit for bit the states of its NumPy form
    along every axis of 1D fields, 2D fields and 4-field stacks, and on a
    reversed (non-contiguous) view."""
    first = GHOST if faces else GHOST - 1
    cases = []
    for ax in (0, 1):
        ext = _ext(kind, faces, ax, M, rng)
        stack = np.stack([_ext(kind, faces, ax, M, rng) for _ in range(4)])
        cases += [(ext, ax), (stack, ax + 1), (np.flip(ext, ax), ax)]
    cases.append((_ext(kind, faces, 0, M, rng)[:, 3], 0))
    for ext, ax in cases:
        count = ext.shape[ax] - 2 * first
        got = weno._weno5_states(ext, ax, first, count)
        ref = oracles.weno5_states(ext, ax, first, count)
        for g, r in zip(got, ref):
            assert np.array_equal(g, r), (ext.shape, ax)


@pytest.mark.parametrize("cc", [("no-such-cc",), ("cc", "--no-such-flag")])
def test_failed_build_raises_import_error_naming_the_command(cc, monkeypatch):
    """A kernel that cannot be built raises ImportError with the command,
    its flags and what the compiler (or the system) said, and nothing
    else in its chain."""
    command = cc + weno.CC[1:]
    monkeypatch.setattr(weno, "CC", command)
    with pytest.raises(ImportError) as info:
        weno._build()
    msg = str(info.value)
    assert " ".join(command) in msg
    assert msg.split("`: ", 1)[1].strip()
    assert info.value.__cause__ is None and info.value.__suppress_context__


def test_chaotic_retried_run_is_bit_identical_with_numpy_kernel(monkeypatch):
    """Test 1 at M = 16, C_p = 1e8 and cfl 1.2, past its explicit limit,
    takes damped line-search trials and retries; the run with the compiled
    kernel and the run with its NumPy form end in the same state."""
    trials = []
    trial = solvers.HydroSolver._trial
    monkeypatch.setattr(solvers.HydroSolver, "_trial",
                        lambda self, *a: trials.append(1) or trial(self, *a))
    grid, params = GridSpec(dim=2, M=16), ModelParams(cp=1e8)

    def run():
        integ = Integrator(grid, params, cfl=1.2)
        return integ.run_to_time(initial_state(1, grid, params), 0.0091)

    compiled = run()
    monkeypatch.setattr(weno, "_weno5_states", oracles.weno5_states)
    reference = run()
    assert sum(rec.retries for rec in compiled.steps) >= 1 and trials
    assert len(compiled.steps) == len(reference.steps)
    U, V = compiled.state, reference.state
    for a, b in zip((U.rho, U.q, *U.m), (V.rho, V.q, *V.m)):
        assert np.array_equal(a, b)


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


def test_kernel_rejects_targets_without_samples():
    """The kernel reads no bounds, so targets whose stencils leave the
    array are refused before it runs; a negative axis counts from the
    end."""
    ext = np.arange(14.0).reshape(2, 7)
    for first, count in ((1, 1), (2, 4), (5, 1)):
        with pytest.raises(ValueError, match="need samples outside 0..6"):
            weno._weno5_states(ext, 1, first, count)
    right, left = weno._weno5_states(ext, -1, 2, 3)
    assert np.array_equal(right, weno._weno5_states(ext, 1, 2, 3)[0])
    assert right.shape == left.shape == (2, 3)


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
