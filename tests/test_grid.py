"""Staggered operators vs dense matrices, ghost rules, transfer exactness."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chns_imex.grid import (GHOST, GridSpec, apply_fd_operator, cells_to_faces6,
                            dual_transpose, extend_cell, extend_face_full,
                            extend_face_interior, face_average,
                            faces_to_cells6)
from chns_imex.operators import (laplacian_nd, mat_average, mat_dual,
                                 mat_laplacian_neumann)
from oracles import laplacian_neumann, mat_center


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
    np.testing.assert_allclose(apply_fd_operator(kind, 0, f, h), dense,
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
def test_operators_2d_axis(axis, rng):
    M, h = 8, 1.0 / 8
    f = rng.standard_normal((M, M))
    out = apply_fd_operator("center", axis, f, h)
    D = mat_center(M, h).toarray()
    expected = D @ f if axis == 0 else (D @ f.T).T
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_dual_transpose_matches_matrix(rng):
    M, h = 8, 0.125
    f = rng.standard_normal(M)
    D = mat_dual(M, h).toarray()
    np.testing.assert_allclose(dual_transpose(f, 0, h), D.T @ f, atol=1e-13)


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
    g = GridSpec(dim=2, M=10)
    assert g.h == 0.1
    assert len(g.cell_centers()) == 10
    assert len(g.interior_faces()) == 9
