import numpy as np
import pytest

from oracles import face_trace
from pnpdg.field import Field
from pnpdg.mesh import Mesh, build_mesh_1d, build_mesh_2d


def _edges(m, d):
    """Cell edges of direction d, recovered from the centres and the spacing."""
    h = m.spacing[d]
    return np.append(m.axes[d] - h / 2, m.axes[d][-1] + h / 2)


def test_unit_interval_ten_cells():
    m = build_mesh_1d(0, 1, 10)
    assert m.shape == (10,) and m.n_cells == 10
    assert abs(m.spacing[0] - 0.1) < 1e-15
    np.testing.assert_allclose(_edges(m, 0), np.arange(11) / 10, atol=1e-15)


def test_pi_interval():
    m = build_mesh_1d(0, np.pi, 10)
    assert abs(m.spacing[0] - np.pi / 10) < 1e-15


def test_too_few_cells_rejected():
    with pytest.raises(ValueError):
        build_mesh_1d(0, 1, 1)
    with pytest.raises(ValueError):
        build_mesh_1d(1, 1, 4)


def test_2d_counts():
    m = build_mesh_2d(1, 1, 20, 20)
    assert m.n_cells == 400
    assert m.shape == (20, 20) and m.dim == 2
    m = build_mesh_2d(1, 1, 2, 2)
    assert m.n_cells == 4
    m = build_mesh_2d(1, 1, 3, 2)
    assert m.n_cells == 6 and m.grid == (2, 3)


def test_2d_pi_square():
    m = build_mesh_2d(np.pi, np.pi, 10, 10)
    assert abs(m.spacing[0] - np.pi / 10) < 1e-15
    assert abs(m.spacing[1] - np.pi / 10) < 1e-15


def test_2d_bad_dimensions_rejected():
    with pytest.raises(ValueError):
        build_mesh_2d(0.0, 1.0, 4, 4)
    with pytest.raises(ValueError):
        build_mesh_2d(1.0, 1.0, 1, 4)


def test_cells_tile_domain_exactly():
    m = build_mesh_2d(2.5, 1.5, 5, 3)
    assert m.lo == (0.0, 0.0) and m.hi == (2.5, 1.5)
    assert abs(_edges(m, 0)[-1] - 2.5) < 1e-14
    assert abs(_edges(m, 1)[-1] - 1.5) < 1e-14
    assert _edges(m, 0)[0] == 0.0 and _edges(m, 1)[0] == 0.0


def test_affine_map_roundtrip():
    # physical points built from (cell, reference coordinate) locate back to both
    m = build_mesh_1d(-2, 3, 7)
    cells = np.array([0, 3, 6])
    xi = np.array([-0.7, 0.2, 0.99])
    found, (back,) = m.locate(m.axes[0][cells] + 0.5 * m.spacing[0] * xi)
    assert np.all(found == cells)
    assert np.max(np.abs(back - xi)) < 1e-14
    m = build_mesh_2d(2.5, 1.5, 5, 3)
    j, l = np.array([0, 2, 4]), np.array([2, 0, 1])
    xi, eta = np.array([-0.9, 0.1, 0.8]), np.array([0.5, -0.99, 0.0])
    x = m.axes[0][j] + 0.5 * m.spacing[0] * xi
    y = m.axes[1][l] + 0.5 * m.spacing[1] * eta
    found, (bx, by) = m.locate(x, y)
    assert np.all(found == l * 5 + j)
    assert max(np.abs(bx - xi).max(), np.abs(by - eta).max()) < 1e-14


def test_spacing_and_axes_match_the_per_dimension_formulas():
    # the golden outputs stay bitwise only while these are the 1D and 2D
    # formulas: (x_hi - x_lo)/n and x_lo + h(k + 1/2); lx/nx and dx(k + 1/2)
    m = build_mesh_1d(-2, 3, 7)
    h = (3.0 - -2.0) / 7
    assert m.spacing == (h,)
    assert np.array_equal(m.axes[0], -2.0 + h * (np.arange(7) + 0.5))
    m = build_mesh_2d(2.5, 1.5, 5, 3)
    dx, dy = 2.5 / 5, 1.5 / 3
    assert m.spacing == (dx, dy)
    assert np.array_equal(m.axes[0], dx * (np.arange(5) + 0.5))
    assert np.array_equal(m.axes[1], dy * (np.arange(3) + 0.5))


def test_quadrature_is_built_once_per_mesh():
    m = Mesh((0.0,), (1.0,), (4,))
    assert m.quadrature is m.quadrature
    assert m.quadrature is not Mesh((0.0,), (1.0,), (4,)).quadrature


def test_face_adjacency_involutive():
    # a field carrying its own cell index exposes which cells meet each face;
    # cell (j, l) has index l*nx + j
    m = build_mesh_2d(1, 1, 4, 3)
    nx, ny = m.shape
    coeffs = np.zeros((m.n_cells, 6))
    coeffs[:, 0] = np.arange(m.n_cells)
    f = Field(m, coeffs)
    for i in range(1, nx):
        for l in range(ny):
            tr = face_trace(f, ("x", i, l))
            assert tr.w_minus[0] == l * nx + i - 1
            assert tr.w_plus[0] == l * nx + i
    for i in range(1, ny):
        for j in range(nx):
            tr = face_trace(f, ("y", i, j))
            assert tr.w_minus[0] == (i - 1) * nx + j
            assert tr.w_plus[0] == i * nx + j
