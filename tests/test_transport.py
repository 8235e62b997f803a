import numpy as np
import pytest

from pnpdg.basis import basis_for
from oracles import decomposition_cell_averages, zero_field
from pnpdg.field import Field, FluxParams, l1_error, project_l2
from pnpdg.mesh import build_mesh_1d, build_mesh_2d
from pnpdg.positivity import build_test_set, build_weight, weighted_projection
from pnpdg.transport import apply_mass_inverse, np_rhs
P = FluxParams(4.0, 1 / 6)


def unit_weight(mesh):
    return build_weight(zero_field(mesh), 1.0)


def random_weight(mesh, rng, scale=0.3):
    nb = 3 if mesh.dim == 1 else 6
    psi = Field(mesh, scale * rng.normal(size=(mesh.n_cells, nb)))
    return build_weight(psi, 1.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_constant_state_is_steady(dim, rng):
    mesh = build_mesh_1d(0, 1, 5) if dim == 1 else build_mesh_2d(1, 1, 3, 2)
    nb = 3 if dim == 1 else 6
    g = Field(mesh, np.tile([2.0] + [0.0] * (nb - 1), (mesh.n_cells, 1)))
    w = random_weight(mesh, rng)
    rhs = np_rhs(g, w, P)
    assert np.max(np.abs(rhs)) < 1e-13


@pytest.mark.parametrize("dim", [1, 2])
def test_mass_conservation_single_rhs(dim, rng):
    # v = 1 components telescope: total weak-form mass change is zero
    mesh = build_mesh_1d(0, 1, 7) if dim == 1 else build_mesh_2d(1.5, 1, 4, 3)
    nb = 3 if dim == 1 else 6
    g = Field(mesh, rng.normal(size=(mesh.n_cells, nb)))
    w = random_weight(mesh, rng)
    rhs = np_rhs(g, w, P)
    assert abs(rhs[:, 0].sum()) < 1e-13 * max(1.0, np.abs(rhs[:, 0]).max())


def test_manufactured_diffusion_rate():
    # unit weight reduces the update to the DDG heat scheme; the evolved
    # zero-flux profile converges at third order
    T = 0.01
    errs = []
    for n in (10, 20):
        mesh = build_mesh_1d(0, 1, n)
        u = project_l2(lambda x: 2 + np.cos(np.pi * x), mesh)
        w = unit_weight(mesh)
        dt = 0.01 * mesh.spacing[0]**2
        b = basis_for(mesh)
        for _ in range(round(T / dt)):
            s1 = Field(mesh, u.coeffs + dt * apply_mass_inverse(mesh, b, np_rhs(u, w, P)))
            s2 = Field(mesh, s1.coeffs + dt * apply_mass_inverse(mesh, b, np_rhs(s1, w, P)))
            u = Field(mesh, 0.5 * (u.coeffs + s2.coeffs))
        errs.append(l1_error(u, lambda x: 2 + np.cos(np.pi * x) * np.exp(-np.pi**2 * T)))
    order = np.log2(errs[0] / errs[1])
    assert order > 2.5, f"observed order {order}"


@pytest.mark.parametrize("dim", [1, 2])
def test_cell_average_equivalence_oracle(dim, rng):
    # one explicit step's averages from the full update match the
    # decomposition/quadrature form to roundoff
    mesh = build_mesh_1d(0, 1, 7) if dim == 1 else build_mesh_2d(1, 1.3, 4, 3)
    nb = 3 if dim == 1 else 6
    dt = 1e-4
    for _ in range(20):
        c = Field(mesh, rng.normal(size=(mesh.n_cells, nb)))
        c.coeffs[:, 0] += 3.0
        w = random_weight(mesh, rng)
        g = weighted_projection(c, w)
        ts = build_test_set(w, FluxParams(1.0, 1 / 6))
        rhs = np_rhs(g, w, FluxParams(1.0, 1 / 6))
        full = c.coeffs[:, 0] + dt * apply_mass_inverse(mesh, basis_for(mesh), rhs)[:, 0]
        oracle = decomposition_cell_averages(g, w, ts, FluxParams(1.0, 1 / 6), dt)
        assert np.max(np.abs(full - oracle)) < 1e-12


def test_mass_inverse_shape():
    mesh = build_mesh_2d(1, 1, 2, 2)
    rhs = np.ones((4, 6))
    out = apply_mass_inverse(mesh, basis_for(mesh), rhs)
    assert out.shape == (4, 6)
    # leading mode: divide by cell area (gram entry 4 times dxdy/4)
    assert abs(out[0, 0] - 1.0 / (mesh.spacing[0] * mesh.spacing[1])) < 1e-14
