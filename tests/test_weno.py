"""WENO5 kernel: polynomial exactness, order of accuracy, symmetry, and the
compiled kernels (states and Rusanov fluxes) against their NumPy forms.

The kernel reconstructs the point value at the interface between the 3rd and
4th of five consecutive samples, treating the samples as cell averages
(standard finite-difference WENO semantics).
"""

import ctypes
import itertools
import math
import pathlib
import re
import subprocess

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chns_imex import kernels, solvers, weno
from chns_imex.cases import initial_state
from chns_imex.grid import GridSpec
from chns_imex.imex import Integrator
from chns_imex.model import ModelParams
from chns_imex.spatial import SpatialDiscretization
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


def _line(kind, faces, ax, M, rng):
    """A 2D field without ghosts, M cells or M + 1 faces (walls included)
    along ax, and 7 lines."""
    f = _field(kind, [M + (1 if faces else 0), 7], rng)
    return f.T.copy() if ax == 1 else f


def _extend(f, ax, parity, faces):
    """f with the mirror ghosts the kernel writes into its scratch copy."""
    return (oracles.extend_face_full if faces else oracles.extend_cell)(
        f, ax, parity)


@pytest.mark.parametrize("kind", ["smooth", "step", "random"])
@pytest.mark.parametrize("faces", [False, True], ids=["cells", "faces"])
@pytest.mark.parametrize("ax", [0, 1])
@pytest.mark.parametrize("M", [4, 17, 64])
def test_shared_beta_states_match_one_sided_windows(kind, faces, ax, M, rng):
    """Both states from one kernel agree with one-sided evaluations on
    sliding windows of the mirrored field within STATE_ULPS ulp of the
    field's largest magnitude, for either parity."""
    f = _line(kind, faces, ax, M, rng)
    bound = STATE_ULPS * np.finfo(float).eps * np.abs(f).max()
    for parity in (1.0, -1.0):
        states = _reconstruct(faces)(f, ax, parity)
        windows = oracles.weno_lr_windows(_extend(f, ax, parity, faces), ax,
                                          faces)
        for got, ref in zip(states, windows):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= bound


#: per-field parities of a 4-field stack that give each field either sign
STACK_PARITIES = (np.array([1.0, -1.0, 1.0, -1.0]),
                  np.array([-1.0, 1.0, -1.0, 1.0]))


@pytest.mark.parametrize("kind", ["smooth", "step", "random", "scales"])
@pytest.mark.parametrize("faces", [False, True], ids=["cells", "faces"])
@pytest.mark.parametrize("M", [4, 5, 9, 17, 64])
def test_compiled_kernel_matches_numpy_reference(kind, faces, M, rng):
    """The compiled kernel, mirroring each line at the walls in a scratch
    copy, gives bit for bit the states of its NumPy form on the
    ghost-extended field: along both axes of 2D fields and the middle and
    last axes of 4-field stacks, with either parity per field, on a
    reversed (non-contiguous) view and on a strided column.  The line
    lengths M + 1 and M + 2 of the targets and the 7 lines across are no
    multiple of a vector width."""
    cases = []
    for ax in (0, 1):
        f = _line(kind, faces, ax, M, rng)
        stack = np.stack([_line(kind, faces, ax, M, rng) for _ in range(4)])
        cases += [(g, ax, parity) for g in (f, np.flip(f, ax))
                  for parity in (1.0, -1.0)]
        cases += [(stack, ax + 1, parity) for parity in STACK_PARITIES]
    cases.append((_line(kind, faces, 0, M, rng)[:, 3], 0, -1.0))
    for f, ax, parity in cases:
        got = _reconstruct(faces)(f, ax, parity)
        ref = oracles.reconstruct_lr(f, ax, parity, faces)
        for g, r in zip(got, ref):
            assert np.array_equal(g, r), (f.shape, ax, parity)


@pytest.mark.parametrize("M", [4, 5, 9, 17, 64])
def test_compiled_flux_matches_numpy_reference(M, rng):
    """`rusanov_tendency` gives bit for bit the tendency of the NumPy flux
    and difference expressions it replaced, on the states of a 2D
    tendency's stacks at mixed scales, with zero sound speeds, a NaN speed
    and a NaN velocity, and refuses states of another layout."""
    half, h = weno.stack_layout(2, M)[2][-1], 1.0 / M
    states = _field("scales", (4, 2 * half), rng)
    sound = np.abs(_field("scales", (2 * half,), rng))
    sound[:M] = sound[half + 5:half + 5 + M] = 0.0
    sound[3] = states[2, half + 7] = np.nan
    rho, q, m = weno.rusanov_tendency(states, sound, 2, M, h)
    ref = oracles.rusanov_tendency(states, sound, 2, M, h)
    for g, r in zip((rho, q, *m), (ref.rho, ref.q, *ref.m)):
        assert np.array_equal(g, r, equal_nan=True)
    assert any(np.isnan(g).any() for g in (rho, q, *m))
    with pytest.raises(ValueError, match="do not hold"):
        weno.rusanov_tendency(states[:, 1:], sound, 2, M, h)


def test_rusanov_stacks_refuses_fields_of_no_grid():
    """The stacks pass reads no bounds, so fields that are no 1D or 2D
    state of at least 4 cells per axis are refused before it runs."""
    rho, v = np.ones((6, 6)), (np.zeros((5, 6)), np.zeros((6, 5)))
    assert weno.rusanov_stacks(rho, rho, v).shape[0] == 4
    cube, small = np.ones((6, 6, 6)), np.ones((3, 3))
    for bad in ((rho, rho, v[:1]), (rho, rho, v[::-1]), (cube, cube, v),
                (small, small, (np.zeros((2, 3)), np.zeros((3, 2))))):
        with pytest.raises(ValueError, match="no state"):
            weno.rusanov_stacks(*bad)


#: the loops marked `#pragma GCC ivdep` in each source of the library
IVDEP_LOOPS = {"_weno5.c": 20, "_hydro.c": 17}


def test_kernel_loops_are_vectorized(tmp_path):
    """Every loop marked `#pragma GCC ivdep` in each source of the compiled
    library compiles to vector code with CC, so an edit cannot fall back to
    scalar code unnoticed, and every source compiles without a
    warning."""
    assert sorted(p.name for p in kernels.SOURCES) == sorted(IVDEP_LOOPS)
    for source in kernels.SOURCES:
        cmd = [*kernels.CC, "-Wall", "-Wextra", "-Werror",
               "-fopt-info-vec-optimized", "-c", str(source),
               "-o", str(tmp_path / "kernel.o")]
        report = subprocess.run(cmd, check=True, capture_output=True,
                                text=True).stderr
        lines = source.read_text().splitlines()
        # the loop starts on the line after its pragma, 1-based
        loops = [i + 2 for i, line in enumerate(lines)
                 if line.strip() == "#pragma GCC ivdep"]
        assert len(loops) == IVDEP_LOOPS[source.name]
        for n in loops:
            assert any(f"{source.name}:{n}:" in row
                       and "loop vectorized" in row
                       for row in report.splitlines()), (source, n, report)


#: the ctypes type of a C parameter that is not a pointer, by its type
C_TYPES = {"ptrdiff_t": ctypes.c_ssize_t, "double": ctypes.c_double}


def test_entry_points_take_argument_types_from_their_prototypes():
    """Every `lib.<name>` that a module of the package calls is a `void`
    function of the C sources, and nothing else is: each takes c_void_p for
    a pointer parameter of its prototype, c_ssize_t for a ptrdiff_t and
    c_double for a double, and returns nothing, so ctypes refuses a call
    with one argument too few or a float for an integer before the C code
    runs."""
    package = pathlib.Path(kernels.__file__).parent
    called = {name for module in package.glob("*.py")
              for name in re.findall(r"\b_?lib\.(\w+)\(",
                                     module.read_text())}
    text = "".join(source.read_text() for source in kernels.SOURCES)
    assert called == set(re.findall(r"^void (\w+)\(", text, re.M))
    for name in sorted(called):
        params = re.search(rf"^void {name}\((.*?)\)", text, re.M | re.S)[1]
        want = [ctypes.c_void_p if "*" in d else C_TYPES[d.split()[-2]]
                for d in params.split(",")]
        fn = getattr(kernels.lib, name)
        assert fn.restype is None
        assert list(fn.argtypes) == want, name
        with pytest.raises(TypeError, match=f"at least {len(want)} "
                                            f"arguments \\({len(want) - 1} "
                                            f"given\\)"):
            fn(*[0] * (len(want) - 1))
        if ctypes.c_ssize_t in want:
            args = [0.5 if t is ctypes.c_ssize_t else 0 for t in want]
            with pytest.raises(ctypes.ArgumentError):
                fn(*args)


@pytest.mark.parametrize("cc", [("no-such-cc",), ("cc", "--no-such-flag")])
def test_failed_build_raises_import_error_naming_the_command(cc, monkeypatch):
    """A library that cannot be built raises ImportError with the command,
    its flags and what the compiler (or the system) said, and nothing
    else in its chain."""
    command = cc + kernels.CC[1:]
    monkeypatch.setattr(kernels, "CC", command)
    with pytest.raises(ImportError) as info:
        kernels._build()
    msg = str(info.value)
    assert " ".join(command) in msg
    assert msg.split("`: ", 1)[1].strip()
    assert info.value.__cause__ is None and info.value.__suppress_context__


def test_chaotic_retried_run_is_bit_identical_with_numpy_kernel(monkeypatch):
    """Test 1 at M = 16, C_p = 1e8 and cfl 1.2, past its explicit limit,
    takes damped line-search trials and retries; the run with the compiled
    passes and the run with the NumPy forms of the Rusanov terms and the
    explicit sources, and the CSR forms of the Newton residual, Jacobian
    product, elimination and hydro tendency and of the concentration
    stage's operator, end in the same state."""
    trials = []
    trial = solvers.HydroSolver._trial
    monkeypatch.setattr(solvers.HydroSolver, "_trial",
                        lambda self, *a: trials.append(1) or trial(self, *a))
    grid, params = GridSpec(dim=2, M=16), ModelParams(cp=1e8)

    def run():
        integ = Integrator(grid, params, cfl=1.2)
        return integ.run_to_time(initial_state(1, grid, params), 0.0091)

    compiled = run()
    monkeypatch.setattr(SpatialDiscretization, "rusanov", oracles.rusanov)
    monkeypatch.setattr(SpatialDiscretization, "sources", oracles.sources)
    monkeypatch.setattr(solvers, "c_stage_operator", oracles.c_stage_operator)
    monkeypatch.setattr(SpatialDiscretization, "hydro_tendency",
                        oracles.hydro_tendency)
    for name, form in (("residual", oracles.residual),
                       ("_jacobian_times", oracles.jacobian_times),
                       ("_eliminate", oracles.eliminate)):
        monkeypatch.setattr(solvers.HydroSolver, name, form)
    reference = run()
    assert sum(rec.retries for rec in compiled.steps) >= 1 and trials
    assert len(compiled.steps) == len(reference.steps)
    U, V = compiled.state, reference.state
    for a, b in zip((U.rho, U.q, *U.m), (V.rho, V.q, *V.m)):
        assert np.array_equal(a, b)


def test_reversal_swaps_states(rng):
    """The left state of a field is bit for bit the right state of the
    mirrored field, and the other way round, on cells and faces, smooth,
    step and random fields of either parity, along both axes of 2D
    arrays."""
    for kind, faces, ax, M, parity in itertools.product(
            ("smooth", "step", "random"), (False, True), (0, 1), (4, 17, 64),
            (1.0, -1.0)):
        f = _line(kind, faces, ax, M, rng)
        minus, plus = _reconstruct(faces)(f, ax, parity)
        minus_r, plus_r = _reconstruct(faces)(np.flip(f, ax).copy(), ax,
                                              parity)
        assert np.array_equal(minus, np.flip(plus_r, ax)), (kind, faces, ax)
        assert np.array_equal(plus, np.flip(minus_r, ax)), (kind, faces, ax)


@pytest.mark.parametrize("faces", [False, True], ids=["cells", "faces"])
@pytest.mark.parametrize("ax", [0, 1])
@pytest.mark.parametrize("M", [4, 17, 64])
def test_stack_reconstructs_like_single_fields(faces, ax, M, rng):
    """A stack of fields reconstructed in one call, each with its own
    parity, gives each field's states bit for bit as reconstructing it
    alone."""
    fields = [_line(kind, faces, ax, M, rng)
              for kind in ("smooth", "step", "random", "random")]
    parity = STACK_PARITIES[0]
    minus, plus = _reconstruct(faces)(np.stack(fields), ax + 1, parity)
    for f, sign, m, p in zip(fields, parity, minus, plus):
        m1, p1 = _reconstruct(faces)(f, ax, sign)
        assert np.array_equal(m, m1) and np.array_equal(p, p1)


@pytest.mark.parametrize("faces", [False, True], ids=["cells", "faces"])
def test_reconstruct_writes_into_rows_of_a_buffer(faces, rng):
    """A stack read from, and its states written into, column blocks of
    larger buffers (rows far apart, each C-contiguous) gives the states of
    fresh arrays along either axis; other outputs are refused."""
    M = 9
    n = M + 1 if faces else M
    for ax in (1, 2):
        field = (n, M) if ax == 1 else (M, n)
        size = (M, M) if faces \
            else (field[0] + (ax == 1), field[1] + (ax == 2))
        buf = rng.standard_normal((4, 3 * n * M))
        stack = buf[:, 5:5 + n * M].reshape(4, *field)
        states = np.full((4, 4 * math.prod(size)), np.nan)
        out = tuple(states[:, c:c + math.prod(size)].reshape(4, *size)
                    for c in (1, 2 * math.prod(size)))
        got = _reconstruct(faces)(stack, ax, STACK_PARITIES[0], out=out)
        ref = _reconstruct(faces)(stack.copy(), ax, STACK_PARITIES[0])
        assert all(g is o for g, o in zip(got, out))
        for g, r in zip(out, ref):
            assert np.array_equal(g, r)
        assert np.isnan(states[:, 0]).all()
        for bad in ((out[0], out[1][:, :-1]), (out[0], out[1][::-1]),
                    (out[0], np.empty((4, *size), dtype=np.float32))):
            with pytest.raises(ValueError, match="out must be"):
                _reconstruct(faces)(stack, ax, STACK_PARITIES[0], out=bad)


def test_reconstruct_shapes():
    M = 8
    m, p = reconstruct_lr_cells(np.zeros(M), 0, 1.0)
    assert m.shape == (M + 1,) and p.shape == (M + 1,)
    m, p = reconstruct_lr_faces(np.zeros(M + 1), 0, 1.0)
    assert m.shape == (M,) and p.shape == (M,)


def test_point_input_validation():
    with pytest.raises(ValueError):
        weno5_point([1.0, 2.0, 3.0])


def test_kernel_rejects_targets_without_samples():
    """The kernel reads no bounds, so lines too short for the mirror
    images its stencils read, and signs that are neither one for all nor
    one per field of a stack, are refused before it runs; a negative axis
    counts from the end."""
    for n in (1, 2):
        for reconstruct in (reconstruct_lr_cells, reconstruct_lr_faces):
            with pytest.raises(ValueError, match=f"a line of {n} samples"):
                reconstruct(np.ones((2, n)), 1, 1.0)
    f = np.arange(21.0).reshape(3, 7)
    for ax, parity in ((1, [1.0, -1.0]), (0, [1.0, -1.0, 1.0])):
        with pytest.raises(ValueError, match="signs for 3 fields"):
            reconstruct_lr_cells(f, ax, parity)
    minus, plus = reconstruct_lr_cells(f, -1, [1.0, -1.0, 1.0])
    assert np.array_equal(minus, reconstruct_lr_cells(f, 1, [1, -1, 1])[0])
    assert minus.shape == plus.shape == (3, 8)


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
