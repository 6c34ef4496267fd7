"""The compiled stencils of the implicit operators and the Laplacian
(`operators.stencils`, `operators.laplacian_stencil`, `_hydro.c`) and the
Newton and concentration-stage passes built from them, byte for byte
against the CSR products and NumPy expressions of `oracles`."""

import numpy as np
import pytest
import scipy.sparse as sp

from chns_imex.grid import GridSpec
from chns_imex.model import ModelParams, NonPositiveDensityError
from chns_imex.operators import (_runs, implicit_operators, laplacian_nd,
                                 laplacian_stencil, stencils)
from chns_imex.kernels import lib, ptr
from chns_imex.solvers import HydroSolver, SolveStats, c_stage_operator
from chns_imex.spatial import SpatialDiscretization

import oracles

GRIDS = [(dim, M) for dim in (1, 2) for M in (4, 5, 17, 64)]


def _same(a, b) -> bool:
    """a and b hold the same bytes: signed zeros and NaNs count."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def _vectors(n, rng):
    """Random values at mixed scales, signed zeros, and +-1e300, whose
    products overflow, each of length n."""
    return (rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n),
            rng.choice([0.0, -0.0], n),
            rng.choice([1e300, -1e300], n))


@pytest.mark.parametrize("dim,M", GRIDS)
def test_stencils_equal_csr_products(dim, M, rng):
    """A, D, G and B applied by their stencils equal the products with
    their CSR matrices byte for byte, on random, signed-zero and +-1e300
    vectors (the last overflow to +-inf and meet as NaN alike)."""
    st = stencils(dim, M, 1.0 / M, 1.0, 0.1)
    for name in ("A", "D", "G", "B"):
        X = getattr(st.ops, name)
        for x in _vectors(X.shape[1], rng):
            assert _same(st.apply(name, x), X @ x), (name, x[:3])
    with pytest.raises(ValueError, match="takes"):
        st.apply("B", np.ones(1))
    L, X = laplacian_stencil(dim, M, 1.0 / M), laplacian_nd(dim, M, 1.0 / M)
    for x in _vectors(X.shape[1], rng):
        y = np.empty(X.shape[0])
        lib.stencil_apply(L.address, ptr(x), ptr(y))
        assert _same(y, X @ x), ("L", x[:3])


@pytest.mark.parametrize("dim", [1, 2])
def test_stencils_are_runs_along_the_lines(dim):
    """The stencils are built once per grid from its cached implicit
    operators and Laplacian, and on a grid of M = 64 the
    rows of runs at least M - 3 long (the interior of each line) are at
    least 90% of every operator's rows: each term of such a run reads a
    contiguous stretch, which is where the speed comes from."""
    M = 64
    st = stencils(dim, M, 1.0 / M, 1.0, 0.1)
    assert stencils(dim, M, 1.0 / M, 1.0, 0.1) is st
    assert SpatialDiscretization(GridSpec(dim, M), ModelParams()).stencils \
        is st and st.ops is implicit_operators(dim, M, 1.0 / M, 1.0, 0.1)
    L = laplacian_stencil(dim, M, 1.0 / M)
    assert laplacian_stencil(dim, M, 1.0 / M) is L
    for X, s in (*zip(st.ops, st._stencils),
                 (laplacian_nd(dim, M, 1.0 / M), L)):
        run = s.arrays[0]
        assert run[:, 1].sum() == X.shape[0]
        assert run[run[:, 1] >= M - 3, 1].sum() >= 0.9 * X.shape[0]


#: the term counts that `stencil_apply` of `_hydro.c` has a vector loop for
VECTOR_TERMS = {2, 3, 4, 5, 6, 8, 9}


@pytest.mark.parametrize("dim,counts", [
    (1, {"A": {2}, "D": {2}, "G": {2}, "B": {3}, "L": {3}}),
    (2, {"A": {2}, "D": {3, 4}, "G": {2}, "B": {6, 8, 9}, "L": {4, 5}})])
def test_runs_of_many_rows_have_a_vector_loop(dim, counts):
    """On the grids of M = 4 .. 40, 64 and 128 the runs of more than one
    row of A, D, G, B and the Laplacian L have these term counts, each in
    VECTOR_TERMS, so no operator edit sends a line's interior to the
    scalar loop unnoticed."""
    params = ModelParams()
    seen = {name: set() for name in counts}
    for M in (*range(4, 41), 64, 128):
        ops = implicit_operators.__wrapped__(dim, M, 1.0 / M, params.nu,
                                             params.lam)
        for name, X in (*zip(ops._fields, ops),
                        ("L", laplacian_nd.__wrapped__(dim, M, 1.0 / M))):
            run = _runs(X)[0]
            seen[name].update(np.diff(run[run[:, 1] > 1, 2:]).ravel().tolist())
    assert seen == counts
    assert set().union(*counts.values()) <= VECTOR_TERMS


def test_runs_follow_the_stored_rows():
    """A run holds rows whose terms are those of the row before, one
    column further on with the same coefficients; an explicit zero is a
    term, and a shifted coefficient that differs in its sign bit starts a
    new run."""
    X = sp.csr_matrix(np.array([[1.0, 2.0, 0.0, 0.0],
                                [0.0, 1.0, 2.0, 0.0],
                                [0.0, 0.0, 1.0, 2.0],
                                [3.0, 0.0, 0.0, 0.0]]))
    X.data[X.data == 3.0] = -0.0
    run, src, coef = _runs(X)
    assert run.tolist() == [[0, 3, 0, 2], [3, 1, 2, 3]]
    assert src.tolist() == [0, 1, 0] and _same(coef, np.array([1., 2, -0.]))
    Y = sp.csr_matrix(([0.0, -0.0], [0, 1], [0, 1, 2]), shape=(2, 2))
    assert _runs(Y)[0].tolist() == [[0, 1, 0, 1], [1, 1, 1, 2]]


def _stage(hydro, rng, dta):
    """A random iterate z, right-hand side r and direction delta of a
    stage problem, far from rest but with dta div_h v > -1, which the chord
    needs."""
    n, nf, h = hydro.nc, hydro.spatial.stencils.nf, hydro.grid.h
    z = np.r_[1.0 + 0.3 * rng.uniform(-1, 1, n),
              0.1 * min(1.0, h / dta) * rng.standard_normal(nf)]
    r = rng.standard_normal(n + nf)
    return z, r, rng.standard_normal(n + nf)


@pytest.mark.parametrize("cp", [1e2, 1e8])
@pytest.mark.parametrize("dim,M", GRIDS)
def test_newton_passes_equal_csr_forms(dim, M, cp, rng):
    """The residual, the Jacobian product, the chord's elimination and the
    hydro tendency equal their CSR forms in `oracles` byte for byte; the
    elimination also against the couplings of `HydroSolver.jacobian` at the
    chord's point, through the LU and through the spectral inverse."""
    hydro = HydroSolver(GridSpec(dim, M), ModelParams(cp=cp))
    n = hydro.nc
    for dta in (1e-4, 1e-2):
        z, r, delta = _stage(hydro, rng, dta)
        assert _same(hydro.residual(z, r, dta),
                     oracles.residual(hydro, z, r, dta))
        assert _same(hydro._jacobian_times(z, delta, dta),
                     oracles.jacobian_times(hydro, z, delta, dta))
        rho, v = z[:n], z[n:]
        m = hydro.spatial.ops.A @ rho * v
        for got, ref in zip(hydro.spatial.hydro_tendency(rho, m, v),
                            oracles.hydro_tendency(hydro.spatial, rho, m, v)):
            assert _same(got, ref)
        hydro._refresh(z, dta, SolveStats())
        J_rr, J_rv, J_vr, _ = hydro.jacobian(z, dta)
        inv_d, *couplings = oracles.chord_couplings(hydro)
        assert _same(inv_d, 1.0 / J_rr.diagonal())
        for got, ref in zip(couplings, (J_rv, J_vr)):
            assert (got != ref).nnz == 0
        for solve_S in (hydro.chord.lu.solve, hydro.chord.inv_P):
            assert _same(hydro._eliminate(delta, solve_S),
                         oracles.eliminate(hydro, delta, solve_S))


def test_elimination_equals_csr_form_where_couplings_vanish(rng):
    """Without a stiff pressure (C_p = C_p1) and at rest on half the faces,
    J_vr drops those entries from its CSR matrix; the compiled elimination,
    which adds them as exact zeros, still equals the CSR form."""
    hydro = HydroSolver(GridSpec(2, 8), ModelParams(cp=1.0, cp1=1.0))
    z, _, b = _stage(hydro, rng, 1e-2)
    z[hydro.nc::2] = 0.0
    hydro._refresh(z, 1e-2, SolveStats())
    J_vr = hydro.jacobian(z, 1e-2)[2]
    assert J_vr.nnz < hydro.spatial.ops.A.nnz
    assert _same(hydro._eliminate(b, hydro.chord.lu.solve),
                 oracles.eliminate(hydro, b, hydro.chord.lu.solve))


def test_residual_refuses_nonpositive_density_and_other_vectors(rng):
    """A nonpositive density in the iterate raises NonPositiveDensityError
    before the compiled pass runs; a vector of another size is refused (the
    pass reads no bounds), and one of another type converted."""
    hydro = HydroSolver(GridSpec(2, 8), ModelParams())
    z, r, _ = _stage(hydro, rng, 1e-2)
    z[5] = 0.0
    with pytest.raises(NonPositiveDensityError, match="Newton iterate"):
        hydro.residual(z, r, 1e-2)
    z[5] = 1.0
    with pytest.raises(ValueError, match="packed"):
        hydro.residual(z[:-1], r, 1e-2)
    assert _same(hydro.residual(z.astype(np.float32), r, 1e-2),
                 oracles.residual(hydro, z.astype(np.float32).astype(float),
                                  r, 1e-2))


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("M", [4, 5, 16, 33, 64])
@pytest.mark.parametrize("dim", [1, 2])
def test_c_stage_operator_equals_numpy_form(dim, M, layout, rng):
    """The compiled operator of the concentration stage gives byte for byte
    the CSR products and NumPy expressions of `oracles.c_stage_operator`,
    at random positive densities given as a C-ordered array or as the
    F-ordered view of `unpack`, on random, signed-zero and +-1e300
    vectors and a strided one; a vector of another size, and densities of
    another grid, are refused, since the pass reads no bounds."""
    grid = GridSpec(dim, M)
    rho = rng.uniform(0.1, 3.0, (M,) * dim)
    if layout == "F":
        disc = SpatialDiscretization(grid, ModelParams())
        rho = disc.unpack(disc.pack(rho, *(np.zeros(s)
                                           for s in disc.shapes[1:])))[0]
    for dta, eps in ((0.5 / M, 1e-3), (3e-5, 1e-4)):
        op = c_stage_operator(rho, dta, eps, grid)
        ref = oracles.c_stage_operator(rho, dta, eps, grid)
        for x in _vectors(rho.size, rng):
            assert _same(op.matvec(x), ref.matvec(x)), (dta, x[:3])
        x = rng.standard_normal(2 * rho.size)[::2]
        assert _same(op.matvec(x), ref.matvec(x))
    with pytest.raises(ValueError, match="dimension mismatch"):
        op.matvec(np.ones(rho.size - 1))
    with pytest.raises(ValueError, match="densities on a grid"):
        c_stage_operator(np.ones((M + 1,) * dim), 0.1, 1e-3, grid)
