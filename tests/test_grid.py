"""Staggered operators vs dense matrices, ghost rules, transfer exactness."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chns_imex.grid import GridSpec, diff, dual, face_average
from chns_imex.operators import (laplacian_nd, mat_average, mat_dual,
                                 mat_laplacian_neumann)
from chns_imex.weno import faces_to_cells
from oracles import (GHOST, cells_to_faces6, center, extend_cell,
                     extend_face_full, extend_face_interior, faces_to_cells6,
                     laplacian_neumann, mat_center)

#: each staggered primitive as f, axis, h -> values, and its dense 1D
#: matrix for M cells, with the length of its input along the axis
PRIMITIVES = {
    "diff": (lambda f, ax, h: diff(f, ax),
             lambda M, h: -h * mat_dual(M, h).T, lambda M: M),
    "dual": (dual, mat_dual, lambda M: M - 1),
    "center": (center, mat_center, lambda M: M),
    "average": (lambda f, ax, h: face_average(f, ax),
                lambda M, h: mat_average(M), lambda M: M),
}


@pytest.mark.parametrize("M", [4, 8, 16])
@pytest.mark.parametrize("kind,mat", [
    ("center", lambda M, h: mat_center(M, h)),
    ("dual", lambda M, h: mat_dual(M, h)),
    ("average", lambda M, h: mat_average(M)),
])
def test_operators_match_dense(M, kind, mat, rng):
    h = 1.0 / M
    n = M - 1 if kind == "dual" else M
    f = rng.standard_normal(n)
    dense = mat(M, h).toarray() @ f
    np.testing.assert_allclose(PRIMITIVES[kind][0](f, 0, h), dense,
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
def test_operators_2d_axis(axis, rng):
    """Every primitive acts along the given axis of a 2D field as its dense
    1D matrix, and leaves the other axis alone."""
    M, h = 8, 1.0 / 8
    for kind, (op, mat, n) in PRIMITIVES.items():
        shape = [M, M]
        shape[axis] = n(M)
        f = rng.standard_normal(shape)
        D = mat(M, h).toarray()
        expected = D @ f if axis == 0 else (D @ f.T).T
        np.testing.assert_allclose(op(f, axis, h), expected, atol=1e-14,
                                   err_msg=kind)


def test_dual_transpose_matches_matrix(rng):
    """The transpose of `dual` is the negated forward difference over h."""
    M, h = 8, 0.125
    f = rng.standard_normal(M)
    D = mat_dual(M, h).toarray()
    np.testing.assert_allclose(-diff(f, 0) / h, D.T @ f, atol=1e-13)


def test_laplacian_symmetric(rng):
    M, h = 12, 1.0 / 12
    for shape in [(M,), (M, M)]:
        f = rng.standard_normal(shape)
        g = rng.standard_normal(shape)
        lhs = np.sum(laplacian_neumann(f, h) * g)
        rhs = np.sum(f * laplacian_neumann(g, h))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("M", [4, 8, 16])
def test_laplacian_negative_semidefinite(dim, M):
    L = laplacian_nd(dim, M, 1.0 / M).toarray()
    np.testing.assert_allclose(L, L.T, atol=1e-12)
    w = np.linalg.eigvalsh(L)
    assert w.max() <= 1e-8
    # constants are in the kernel
    assert abs(L.sum()) < 1e-8


def test_laplacian_matches_matrix(rng):
    M, h = 8, 0.125
    f = rng.standard_normal(M)
    L = mat_laplacian_neumann(M, h).toarray()
    np.testing.assert_allclose(laplacian_neumann(f, h), L @ f, atol=1e-11)


@pytest.mark.parametrize("deg", range(6))
def test_transfer6_polynomial_exact(deg):
    """The 6-point transfer reproduces degree <= 5 polynomials exactly."""
    M, h = 16, 1.0 / 16
    g = GHOST
    coeffs = np.arange(1.0, deg + 2)
    poly = np.polynomial.Polynomial(coeffs)
    xc_ext = (np.arange(1 - g, M + g + 1) - 0.5) * h
    xf_ext = np.arange(-g, M + g + 1) * h
    faces = cells_to_faces6(poly(xc_ext), 0)
    np.testing.assert_allclose(faces, poly(np.arange(M + 1) * h),
                               rtol=1e-12, atol=1e-12)
    cells = faces_to_cells6(poly(xf_ext), 0)
    np.testing.assert_allclose(cells, poly((np.arange(1, M + 1) - 0.5) * h),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("shape", [(4,), (9,), (64,), (3, 5), (8, 8),
                                   (5, 16)])
def test_compiled_transfer_matches_numpy_form(shape, rng):
    """`faces_to_cells` gives bit for bit the sixth-order transfer of the
    ghost-extended interior faces, along every axis, middle or last, and
    the same when the axis counts from the end: the NumPy form it
    replaced."""
    for ax in range(len(shape)):
        v = rng.standard_normal(shape)
        v[(0,) * len(shape)] = 0.0
        got = faces_to_cells(v, ax)
        ref = faces_to_cells6(extend_face_interior(v, ax), ax)
        assert got.tobytes() == ref.tobytes(), (shape, ax)
        back = faces_to_cells(v, ax - len(shape))
        assert back.shape == got.shape, (shape, ax)
        assert back.tobytes() == got.tobytes(), (shape, ax)
    with pytest.raises(ValueError, match="too few"):
        faces_to_cells(np.ones((1, 5)), 0)


@given(st.integers(0, 1))
def test_extend_cell_reflection(parity):
    rng = np.random.default_rng(parity)
    f = rng.standard_normal(8)
    sgn = 1.0 if parity == 0 else -1.0
    ext = extend_cell(f, 0, sgn)
    g = GHOST
    for k in range(g):
        assert ext[g - 1 - k] == sgn * f[k]
        assert ext[g + 8 + k] == sgn * f[7 - k]
    np.testing.assert_array_equal(ext[g:-g], f)


def test_extend_face_interior_rules(rng):
    v = rng.standard_normal(7)   # M = 8 interior faces
    ext = extend_face_interior(v, 0)
    g = GHOST
    assert ext[g] == 0.0 and ext[g + 8] == 0.0          # wall faces
    for k in range(1, g + 1):
        assert ext[g - k] == -ext[g + k]                 # odd about wall
    np.testing.assert_array_equal(ext[g + 1:g + 8], v)


def test_extend_face_full_signs(rng):
    f = rng.standard_normal(9)   # faces 0..8
    for sign in (1.0, -1.0):
        ext = extend_face_full(f, 0, sign)
        g = GHOST
        for k in range(1, g + 1):
            assert ext[g - k] == sign * f[k]
            assert ext[g + 8 + k] == sign * f[8 - k]


def test_face_average():
    f = np.array([1.0, 3.0, 5.0])
    np.testing.assert_allclose(face_average(f, 0), [2.0, 4.0])


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(dim=3, M=8)
    with pytest.raises(ValueError):
        GridSpec(dim=1, M=2)
    for dim, M in ((2, 8.5), (2.0, 8), (2, "8")):
        with pytest.raises(ValueError, match="must be an integer"):
            GridSpec(dim=dim, M=M)
    g = GridSpec(dim=np.int64(2), M=np.int32(8))
    assert (g.dim, g.M) == (2, 8) and type(g.M) is int and g == GridSpec(2, 8)
    g = GridSpec(dim=2, M=10)
    assert g.h == 0.1
    assert len(g.cell_centers()) == 10
    assert len(g.interior_faces()) == 9


@pytest.mark.parametrize("dim", [1, 2])
def test_coords_refuse_a_face_that_is_not_an_axis(dim):
    """coords(face) takes None (the cell centres) or an axis 0..dim-1; any
    other face raises, where it once returned the cell centres."""
    g = GridSpec(dim=dim, M=8)
    centres = g.coords()
    for face in (dim, dim + 1, -1):
        for sparse in (False, True):
            with pytest.raises(ValueError, match="face must be None or an "
                                                 "axis"):
                g.coords(face, sparse=sparse)
    for k in range(dim):
        faces = g.coords(k)
        assert faces[k].shape[k] == 7
        assert all(a.shape == faces[0].shape for a in faces)
    assert all(a.shape == (8,) * dim for a in centres)
