import numpy as np
import pytest

from oracles import face_trace
from pnpdg.field import Field
from pnpdg.mesh import build_mesh_1d, build_mesh_2d


def test_unit_interval_ten_cells():
    m = build_mesh_1d(0, 1, 10)
    assert abs(m.h - 0.1) < 1e-15
    np.testing.assert_allclose(m.interfaces, np.arange(11) / 10, atol=1e-15)


def test_pi_interval():
    m = build_mesh_1d(0, np.pi, 10)
    assert abs(m.h - np.pi / 10) < 1e-15


def test_too_few_cells_rejected():
    with pytest.raises(ValueError):
        build_mesh_1d(0, 1, 1)
    with pytest.raises(ValueError):
        build_mesh_1d(1, 1, 4)


def test_2d_counts():
    m = build_mesh_2d(1, 1, 20, 20)
    assert m.n_cells == 400
    assert m.n_interior_faces == 760
    m = build_mesh_2d(1, 1, 2, 2)
    assert m.n_cells == 4
    assert m.n_interior_faces == 4


def test_2d_pi_square():
    m = build_mesh_2d(np.pi, np.pi, 10, 10)
    assert abs(m.dx - np.pi / 10) < 1e-15
    assert abs(m.dy - np.pi / 10) < 1e-15


def test_2d_bad_dimensions_rejected():
    with pytest.raises(ValueError):
        build_mesh_2d(0.0, 1.0, 4, 4)
    with pytest.raises(ValueError):
        build_mesh_2d(1.0, 1.0, 1, 4)


def test_cells_tile_domain_exactly():
    m = build_mesh_2d(2.5, 1.5, 5, 3)
    assert abs(m.xc[-1] + m.dx / 2 - 2.5) < 1e-14
    assert abs(m.yc[-1] + m.dy / 2 - 1.5) < 1e-14


def test_affine_map_roundtrip():
    m = build_mesh_1d(-2, 3, 7)
    cells = np.array([0, 3, 6])
    xi = np.array([-0.7, 0.2, 0.99])
    x = m.from_reference(cells, xi)
    assert np.max(np.abs(m.to_reference(cells, x) - xi)) < 1e-14
    assert np.all(m.cell_of(x) == cells)


def test_face_adjacency_involutive():
    # a field carrying its own cell index exposes which cells meet each face
    m = build_mesh_2d(1, 1, 4, 3)
    coeffs = np.zeros((m.n_cells, 6))
    coeffs[:, 0] = np.arange(m.n_cells)
    f = Field(m, coeffs)
    for i in range(1, m.nx):
        for l in range(m.ny):
            tr = face_trace(f, ("x", i, l))
            assert tr.w_minus[0] == m.cell_index(i - 1, l)
            assert tr.w_plus[0] == m.cell_index(i, l)
    for i in range(1, m.ny):
        for j in range(m.nx):
            tr = face_trace(f, ("y", i, j))
            assert tr.w_minus[0] == m.cell_index(j, i - 1)
            assert tr.w_plus[0] == m.cell_index(j, i)
