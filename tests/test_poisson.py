import logging

import numpy as np
import pytest

from pnpdg.benchmarks import build_benchmark
from pnpdg.field import Field, FluxParams, l1_error, project_l2
from pnpdg.mesh import build_mesh_1d, build_mesh_2d
from pnpdg.poisson import (BoundaryCondition, assemble_load, assemble_operator, dirichlet,
                           gamma_d, neumann)

P16 = FluxParams(4.0, 1 / 6)


def bc_dir_both():
    return {"left": dirichlet(), "right": dirichlet()}


def bc_dir_neu(sigma=lambda t: 0.0):
    return {"left": dirichlet(), "right": neumann(sigma)}


def test_gamma_d_values():
    assert abs(gamma_d(0.0) - 4.0) < 1e-15
    assert abs(gamma_d(1 / 6) - 7 / 3) < 1e-14


def test_assemble_symmetric_positive_definite():
    m = build_mesh_1d(0, 1, 4)
    op = assemble_operator(m, P16, bc_dir_both())
    A = op.matrix.toarray()
    assert A.shape == (12, 12)
    assert np.abs(A - A.T).max() / np.abs(A).max() < 1e-12
    assert np.linalg.eigvalsh(A).min() > 0


def test_low_penalty_warns_but_assembles(caplog):
    m = build_mesh_1d(0, 1, 4)
    with caplog.at_level(logging.WARNING, logger="pnpdg"):
        op = assemble_operator(m, FluxParams(0.1, 1 / 6), bc_dir_both())
    assert any("threshold" in r.message for r in caplog.records)
    A = op.matrix.toarray()
    assert np.abs(A - A.T).max() / np.abs(A).max() < 1e-12


def test_positive_definite_above_threshold():
    # beta0 just above gamma_d(1/6) = 7/3 suffices with the floored boundary penalty
    m = build_mesh_1d(0, 1, 4)
    for b0 in (7 / 3 + 0.05, 4.0, 16.0):
        op = assemble_operator(m, FluxParams(b0, 1 / 6), bc_dir_both())
        assert np.linalg.eigvalsh(op.matrix.toarray()).min() > 0


def test_2d_matrix_dimension():
    m = build_mesh_2d(1, 1, 2, 2)
    bc = {s: dirichlet(lambda t, x: 0.0) for s in ("left", "right", "bottom", "top")}
    op = assemble_operator(m, FluxParams(16.0, 1 / 6), bc)
    assert op.matrix.shape == (24, 24)
    A = op.matrix.toarray()
    assert np.abs(A - A.T).max() / np.abs(A).max() < 1e-12
    assert np.linalg.eigvalsh(A).min() > 0


@pytest.mark.parametrize("n", [5, 9])
def test_symmetry_various_meshes(n, rng):
    m = build_mesh_1d(-1.0, 1.7, n)
    op = assemble_operator(m, FluxParams(4.0, 1 / 6), bc_dir_neu())
    A = op.matrix.toarray()
    assert np.abs(A - A.T).max() / np.abs(A).max() < 1e-12
    m2 = build_mesh_2d(2.0, 0.7, n, n - 2)
    bc = {"left": dirichlet(lambda t, s: 0.0), "right": dirichlet(lambda t, s: 0.0),
          "bottom": neumann(lambda t, s: 0.0), "top": neumann(lambda t, s: 0.0)}
    op = assemble_operator(m2, FluxParams(16.0, 1 / 6), bc)
    A = op.matrix.toarray()
    assert np.abs(A - A.T).max() / np.abs(A).max() < 1e-12


def test_zero_load_zero_solution():
    m = build_mesh_1d(0, 1, 6)
    op = assemble_operator(m, P16, bc_dir_both())
    psi = op.solve(np.zeros(18))
    assert np.max(np.abs(psi.coeffs)) == 0.0


def test_load_uniform_density():
    m = build_mesh_1d(0, 1, 4)
    op = assemble_operator(m, P16, bc_dir_both())
    c = Field(m, np.tile([1.0, 0, 0], (4, 1)))
    b = assemble_load(op, c.coeffs[None], [1.0], t=0.0).reshape(4, 3)
    np.testing.assert_allclose(b[:, 0], m.spacing[0], atol=1e-15)
    assert np.max(np.abs(b[:, 1:])) < 1e-15


def test_neutral_densities_give_zero_potential():
    m = build_mesh_1d(0, 1, 5)
    op = assemble_operator(m, P16, bc_dir_both())
    c = Field(m, np.tile([2.0, 0, 0], (5, 1)))
    b = assemble_load(op, np.stack([c.coeffs, c.coeffs]), [1.0, -1.0], t=0.0)
    psi = op.solve(b)
    assert np.max(np.abs(psi.coeffs)) < 1e-11


def test_manufactured_convergence_1d():
    exact = lambda x: np.sin(np.pi * x)
    errs = []
    for n in (10, 20, 40):
        m = build_mesh_1d(0, 1, n)
        op = assemble_operator(m, P16, bc_dir_both())
        b = assemble_load(op, [], [], rho0=lambda x: np.pi**2 * np.sin(np.pi * x))
        errs.append(l1_error(op.solve(b), exact))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(orders > 2.8)


def test_example1_poisson_convergence():
    # projected exact densities at t=0; psi error drops ~8x per mesh halving
    t = 0.0
    errs = []
    for n in (10, 20):
        m = build_mesh_1d(0, 1, n)
        op = assemble_operator(m, P16, bc_dir_neu(lambda tt: -np.exp(-tt) / 60.0))
        c1 = project_l2(lambda x: x**2 * (1 - x)**2, m)
        c2 = project_l2(lambda x: x**2 * (1 - x)**3, m)
        b = assemble_load(op, np.stack([c1.coeffs, c2.coeffs]), [1.0, -1.0], t=t)
        psi = op.solve(b)
        errs.append(l1_error(psi, lambda x: -(10 * x**7 - 28 * x**6 + 21 * x**5) / 420.0))
    ratio = errs[0] / errs[1]
    assert 6.0 < ratio < 10.5


def test_solve_linear_in_load(rng):
    m = build_mesh_1d(0, 1, 6)
    op = assemble_operator(m, P16, bc_dir_both())
    b1 = rng.normal(size=18)
    b2 = rng.normal(size=18)
    a, c = 2.3, -0.7
    lhs = op.solve(a * b1 + c * b2).coeffs
    rhs = a * op.solve(b1).coeffs + c * op.solve(b2).coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_stability_constant_under_perturbation(rng):
    # response to a density perturbation scales linearly: the measured
    # constant is identical when the perturbation is halved
    m = build_mesh_1d(0, 1, 8)
    op = assemble_operator(m, P16, bc_dir_both())
    c0 = project_l2(lambda x: 1 + x, m)
    direction = rng.normal(size=c0.coeffs.shape)
    ratios = []
    for delta in (1e-2, 5e-3):
        c1 = Field(m, c0.coeffs + delta * direction)
        b0 = assemble_load(op, c0.coeffs[None], [1.0], t=0.0)
        b1 = assemble_load(op, c1.coeffs[None], [1.0], t=0.0)
        dpsi = op.solve(b1).coeffs - op.solve(b0).coeffs
        ratios.append(np.linalg.norm(dpsi) / (delta * np.linalg.norm(direction)))
    assert abs(ratios[0] - ratios[1]) < 1e-8 * ratios[0]


def test_factorization_reuse_bitwise(rng):
    m = build_mesh_1d(0, 1, 6)
    op1 = assemble_operator(m, P16, bc_dir_both())
    op2 = assemble_operator(m, P16, bc_dir_both())
    for _ in range(100):
        b = rng.normal(size=18)
        assert np.array_equal(op1.solve(b).coeffs, op2.solve(b).coeffs)


def test_pure_neumann_requires_gauge():
    m = build_mesh_1d(0, 1, 4)
    op = assemble_operator(m, P16, {"left": neumann(), "right": neumann()})
    assert op.gauge
    c = Field(m, np.tile([1.0, 0, 0], (4, 1)))
    b = assemble_load(op, np.stack([c.coeffs, c.coeffs]), [1.0, -1.0], t=0.0)
    psi = op.solve(b)
    assert np.max(np.abs(psi.coeffs)) < 1e-12


@pytest.mark.parametrize("mesh, sides", [
    (build_mesh_1d(0, 1, 4), ("left",)),
    (build_mesh_1d(0, 1, 4), ("left", "right", "middle")),
    (build_mesh_1d(0, 1, 4), ("left", "right", "bottom", "top")),
    (build_mesh_2d(1, 1, 2, 2), ("left", "right", "bottom")),
], ids=["missing", "extra", "2d-names-on-1d", "missing-2d"])
def test_boundary_side_names_checked(mesh, sides):
    with pytest.raises(ValueError, match="boundary sides"):
        assemble_operator(mesh, P16, {s: dirichlet() for s in sides})


def test_gauged_solution_has_zero_mean():
    m = build_mesh_1d(0, 1, 8)
    op = assemble_operator(m, P16, {"left": neumann(), "right": neumann()})
    assert op.gauge
    # neutral-in-total but nonuniform load
    c1 = project_l2(lambda x: 1 + np.pi * np.sin(np.pi * x), m)
    c2 = project_l2(lambda x: 4 - 2 * x, m)
    b = assemble_load(op, np.stack([c1.coeffs, c2.coeffs]), [1.0, -1.0], t=0.0)
    psi = op.solve(b)
    assert abs(psi.coeffs[:, 0].sum() * m.spacing[0]) < 1e-12
    resid = op.matrix @ psi.coeffs.ravel() - b
    # residual orthogonal to the complement of the constant mode
    assert np.abs(resid - resid.reshape(8, 3)[:, 0].mean() * np.tile([1, 0, 0], 8)).max() < 1e-10


def test_symmetric_ordering_fill():
    # minimum degree on A + A^T: 249,389 factor entries at Example 4 N=20,
    # where the default COLAMD ordering gave 472,729
    problem = build_benchmark("example4", 20)
    op = assemble_operator(problem.mesh, problem.poisson_params, problem.poisson_bc)
    assert op._lu.L.nnz + op._lu.U.nnz <= 300_000


@pytest.mark.parametrize("case", [("example1", 5), ("example1", 40), ("example2", 10),
                                  ("example4", 20), ("example3-1", 40), "mixed"])
def test_matrix_bitwise_symmetric_csc(case):
    if case == "mixed":
        # Dirichlet and Neumann sides in both directions on cells with dx != dy
        bc = {"left": dirichlet(lambda t, s: 0.0), "right": neumann(lambda t, s: 0.0),
              "bottom": neumann(lambda t, s: 0.0), "top": dirichlet(lambda t, s: 0.0)}
        op = assemble_operator(build_mesh_2d(2.0, 0.7, 7, 4), FluxParams(4.0, 1 / 6), bc)
    else:
        problem = build_benchmark(*case)
        op = assemble_operator(problem.mesh, problem.poisson_params, problem.poisson_bc)
    # Example 2 is pure Neumann: SuperLU factors the gauge-bordered matrix
    assert op.gauge == (case == ("example2", 10))
    for A in (op.matrix, op.system):
        assert A.format == "csc"
        assert (A != A.T).nnz == 0


@pytest.mark.parametrize("n", [5, 10, 20, 80])
def test_example2_gauge_solve_residual(n):
    problem = build_benchmark("example2", n)
    mesh = problem.mesh
    op = assemble_operator(mesh, problem.poisson_params, problem.poisson_bc)
    cs = np.stack([project_l2(sp.c_init, mesh).coeffs for sp in problem.species])
    b = assemble_load(op, cs, problem.charges, t=0.0, rho0=problem.rho0,
                      source=problem.poisson_source)
    b[::3] -= b[::3].mean()   # exactly neutral, so the gauge multiplier is zero
    psi = op.solve(b).coeffs
    assert np.abs(op.matrix @ psi.ravel() - b).max() <= 1e-12 * np.abs(b).max()
    assert abs(psi[:, 0].sum()) <= 1e-12 * np.abs(psi).max()


@pytest.mark.parametrize("name", ["example1", "example3-3"])
def test_density_load_is_diagonal_mass(name):
    # Example 3-3, not 3-1: the 3-1 densities carry no net charge
    problem = build_benchmark(name, 40)
    mesh = problem.mesh
    # zero boundary data, so the load is the density part alone
    bc = {s: BoundaryCondition(b.kind, lambda t, *x: 0.0) for s, b in problem.poisson_bc.items()}
    op = assemble_operator(mesh, problem.poisson_params, bc)
    cs = np.stack([project_l2(sp.c_init, mesh).coeffs for sp in problem.species])
    b = assemble_load(op, cs, problem.charges, t=0.0)
    quad = mesh.quadrature
    ref = quad.load(quad.values(sum(q * c for q, c in zip(problem.charges, cs))))
    assert np.abs(b - ref.ravel()).max() <= 1e-15 * np.abs(ref).max()
