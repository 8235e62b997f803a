import numpy as np
import pytest

from oracles import (FaceTrace, ddg_flux, eval_field, eval_grad, eval_second, face_trace,
                     weight_from_values)
from pnpdg.basis import BASIS_1D, BASIS_2D, RULE, tables_for
from pnpdg.field import Field, FluxParams, l1_error, project_l2, weighted_cell_average
from pnpdg.mesh import build_mesh_1d, build_mesh_2d
from pnpdg.quadrature import gauss_rule


def test_basis_orthogonality():
    # Gram matrices diagonal under the reference measure
    t1 = tables_for(build_mesh_1d(0, 1, 2))
    G = np.einsum("q,qm,ql->ml", RULE.weights, t1.vol, t1.vol)
    assert np.max(np.abs(G - np.diag(BASIS_1D.gram))) < 1e-14
    t2 = tables_for(build_mesh_2d(1, 1, 2, 2))
    w2 = RULE.weights[:, None] * RULE.weights[None, :]
    G = np.einsum("qs,qsm,qsl->ml", w2, t2.vol, t2.vol)
    assert np.max(np.abs(G - np.diag(BASIS_2D.gram))) < 1e-14


def test_project_constant():
    m = build_mesh_1d(0, 1, 6)
    f = project_l2(lambda x: 3.0 + 0 * x, m)
    np.testing.assert_allclose(f.coeffs[:, 0], 3.0, atol=1e-14)
    assert np.max(np.abs(f.coeffs[:, 1:])) < 1e-14


def test_project_linear_2d_exact():
    m = build_mesh_2d(1, 1, 4, 4)
    f = project_l2(lambda x, y: x + y, m)
    assert l1_error(f, lambda x, y: x + y) < 1e-13


def test_project_quartic_converges_cubically():
    ref = lambda x: x**2 * (1 - x) ** 2
    errs = [l1_error(project_l2(ref, build_mesh_1d(0, 1, n)), ref) for n in (10, 20)]
    order = np.log2(errs[0] / errs[1])
    assert order > 2.7


def test_projection_idempotent():
    m = build_mesh_1d(0, 2, 5)
    f = project_l2(lambda x: np.sin(3 * x) + x**2, m)

    def evaluator(x):
        cells, (xi,) = m.locate(x)
        return np.einsum("...m,...m->...", f.coeffs[cells], BASIS_1D.vals(xi))

    g = project_l2(evaluator, m)
    assert np.max(np.abs(f.coeffs - g.coeffs)) < 1e-13


def test_projection_reproduces_quadratics(rng):
    m1 = build_mesh_1d(-1, 2, 4)
    m2 = build_mesh_2d(2, 1, 3, 2)
    for _ in range(100):
        a = rng.normal(size=6)
        p1 = lambda x: a[0] + a[1] * x + a[2] * x**2
        f = project_l2(p1, m1)
        assert l1_error(f, p1) < 1e-13
        p2 = lambda x, y: a[0] + a[1] * x + a[2] * y + a[3] * x * x + a[4] * x * y + a[5] * y * y
        f = project_l2(p2, m2)
        assert l1_error(f, p2) < 1e-12


def test_eval_constant_and_second_derivative():
    m = build_mesh_1d(0, 1, 2)
    f = Field(m, np.array([[1.0, 0, 0], [1.0, 0, 0]]))
    assert eval_field(f, 0, 0.3) == 1.0
    g = project_l2(lambda x: x**2, m)
    for cell in (0, 1):
        for xi in (-0.5, 0.0, 0.7):
            assert abs(eval_second(g, cell, xi) - 2.0) < 1e-12


def test_eval_grad_matches_finite_differences(rng):
    m = build_mesh_1d(0, 1, 3)
    f = Field(m, rng.normal(size=(3, 3)))
    step = 1e-5
    for cell in range(3):
        for xi in (-0.4, 0.25):
            fd = (eval_field(f, cell, xi + step) - eval_field(f, cell, xi - step)) / (2 * step)
            fd_phys = fd * 2.0 / m.spacing[0]
            assert abs(eval_grad(f, cell, xi) - fd_phys) < 1e-6
    m2 = build_mesh_2d(1, 2, 2, 2)
    f2 = Field(m2, rng.normal(size=(4, 6)))
    g = eval_grad(f2, 1, (0.1, -0.3))
    fdx = (eval_field(f2, 1, (0.1 + step, -0.3)) - eval_field(f2, 1, (0.1 - step, -0.3))) \
        / (2 * step) * 2.0 / m2.spacing[0]
    fdy = (eval_field(f2, 1, (0.1, -0.3 + step)) - eval_field(f2, 1, (0.1, -0.3 - step))) \
        / (2 * step) * 2.0 / m2.spacing[1]
    assert abs(g[0] - fdx) < 1e-6 and abs(g[1] - fdy) < 1e-6


def test_face_trace_constant_field():
    m = build_mesh_1d(0, 1, 4)
    f = project_l2(lambda x: 2.5 + 0 * x, m)
    tr = face_trace(f, 2)
    assert abs(tr.jump) < 1e-14
    assert abs(tr.avg - 2.5) < 1e-14


def test_face_trace_linear_field():
    m = build_mesh_1d(0, 1, 2)
    f = project_l2(lambda x: x, m)
    tr = face_trace(f, 1)
    assert abs(tr.jump) < 1e-14
    assert abs(tr.dn_avg - 1.0) < 1e-13
    assert abs(tr.d2n_jump) < 1e-12


def test_face_trace_two_constants():
    m = build_mesh_1d(0, 1, 2)
    f = Field(m, np.array([[1.0, 0, 0], [2.0, 0, 0]]))
    tr = face_trace(f, 1)
    assert abs(tr.jump - 1.0) < 1e-14
    assert abs(tr.avg - 1.5) < 1e-14


def test_face_trace_boundary_one_sided():
    m = build_mesh_1d(0, 1, 2)
    f = project_l2(lambda x: x, m)
    tr = face_trace(f, 0)
    assert tr.w_minus is None and tr.jump is None
    assert abs(tr.w_plus) < 1e-14


def test_ddg_flux_values():
    p = FluxParams(4.0, 1 / 6)
    tr = FaceTrace(1.0, 1.0, 2.0, 2.0, 0.0, 0.0, 0.5)
    assert abs(ddg_flux(tr, p) - 2.0) < 1e-14
    tr = FaceTrace(0.0, 0.01, 2.0, 2.0, 0.0, 3.0, 0.1)
    assert abs(ddg_flux(tr, p) - 2.45) < 1e-14
    tr = FaceTrace(0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    assert abs(ddg_flux(tr, FluxParams(1.0, 1 / 8)) - 1.0) < 1e-14


def test_ddg_flux_linear_in_trace(rng):
    p = FluxParams(3.0, 0.2)
    d1 = rng.normal(size=6)
    d2 = rng.normal(size=6)
    a, b = 0.7, -1.3
    t1 = FaceTrace(*d1, 0.25)
    t2 = FaceTrace(*d2, 0.25)
    t12 = FaceTrace(*(a * d1 + b * d2), 0.25)
    assert abs(ddg_flux(t12, p) - (a * ddg_flux(t1, p) + b * ddg_flux(t2, p))) < 1e-13


def test_ddg_flux_consistency_on_smooth_field():
    # globally quadratic field: flux equals the pointwise normal derivative
    m = build_mesh_1d(0, 1, 5)
    f = project_l2(lambda x: 1 + 2 * x + 3 * x**2, m)
    for i in range(1, 5):
        x = m.lo[0] + i * m.spacing[0]
        tr = face_trace(f, i)
        for p in (FluxParams(4.0, 1 / 6), FluxParams(1.0, 1 / 8)):
            assert abs(ddg_flux(tr, p) - (2 + 6 * x)) < 1e-11


def test_l1_error_basic():
    m = build_mesh_1d(0, 1, 4)
    f = project_l2(lambda x: x * (1 - x), m)
    assert l1_error(f, lambda x: x * (1 - x)) < 1e-14
    g = Field(m, f.coeffs + np.array([0.5, 0, 0]))
    assert abs(l1_error(g, lambda x: x * (1 - x)) - 0.5) < 1e-13


def test_cell_averages():
    m = build_mesh_1d(0, 1, 3)
    f = Field(m, np.array([[2.0, 0, 0]] * 3))
    vol = np.ones((3, RULE.n))
    w = weight_from_values(m, vol)
    np.testing.assert_allclose(f.cell_averages, 2.0)
    np.testing.assert_allclose(weighted_cell_average(f, w), 2.0, atol=1e-14)
    odd = Field(m, np.array([[0.0, 1.0, 0]] * 3))
    assert np.max(np.abs(weighted_cell_average(odd, w))) < 1e-15


def test_weighted_average_exponential_weight():
    # cell [-1, 1]: field xi with weight e^-xi; oracle by 10-point quadrature
    m = build_mesh_1d(-3, 1, 2)
    f = Field(m, np.array([[0.0, 1, 0], [0.0, 1, 0]]))
    xq = m.quadrature.points[0]
    w = weight_from_values(m, np.exp(-(xq - m.axes[0][:, None]) / (m.spacing[0] / 2)))
    fine = gauss_rule(10)
    oracle = np.sum(fine.weights * fine.nodes * np.exp(-fine.nodes)) \
        / np.sum(fine.weights * np.exp(-fine.nodes))
    got = weighted_cell_average(f, w, cell=1)
    assert abs(oracle - (-0.31303528549933134)) < 1e-5   # sanity on the quoted value
    # production value is defined through the 4-point rule; its quadrature
    # error on the exponential integrand is ~1e-6
    assert abs(got - oracle) < 5e-6


def test_weighted_average_rejects_bad_weight():
    m = build_mesh_1d(0, 1, 2)
    f = Field(m, np.ones((2, 3)))
    with pytest.raises(ValueError):
        weight_from_values(m, -np.ones((2, RULE.n)))


def test_eval_second_2d_hessian():
    m = build_mesh_2d(1, 1, 2, 2)
    f = project_l2(lambda x, y: x**2 + x * y + y**2, m)
    H = eval_second(f, 2, (0.3, -0.4))
    np.testing.assert_allclose(H, [[2.0, 1.0], [1.0, 2.0]], atol=1e-11)
