import numpy as np
import pytest

from pnpdg.basis import RULE, basis_for
from pnpdg.exceptions import InadmissibleCellError, NumericalFatalError, OverflowGuardError
from pnpdg.field import Field, FluxParams, project_l2, weighted_cell_average
from pnpdg.mesh import build_mesh_1d, build_mesh_2d
from oracles import (choose_gamma, decomposition_weights, eval_field, face_trace,
                     weight_from_values, zero_field)
from oracles import test_interval as admissible_interval
from pnpdg.positivity import (build_test_set, build_weight, cfl_mu0, scaling_limiter,
                              weighted_projection)
from pnpdg.positivity import test_set_values as values_on_test_set

PP = FluxParams(1.0, 1 / 6)


def unit_weight(mesh):
    return build_weight(zero_field(mesh), 1.0)


def random_psi(mesh, rng, scale=0.5):
    nb = 3 if mesh.dim == 1 else 6
    return Field(mesh, scale * rng.normal(size=(mesh.n_cells, nb)))


def test_weight_of_zero_potential_is_one():
    m = build_mesh_1d(0, 1, 4)
    w = unit_weight(m)
    assert np.max(np.abs(w.vol - 1.0)) == 0.0
    assert np.max(np.abs(w.faces[0] - 1.0)) == 0.0


def test_weight_constant_potential():
    m = build_mesh_1d(0, 1, 3)
    psi = project_l2(lambda x: np.log(2.0) + 0 * x, m)
    w = build_weight(psi, 1.0)
    assert np.max(np.abs(w.vol - 0.5)) < 1e-14


def test_weight_trace_value():
    m = build_mesh_1d(0, 1, 2)
    psi = project_l2(lambda x: x, m)
    w = build_weight(psi, -1.0)
    assert abs(w.faces[0][-1, 0] - np.e) < 1e-13   # the right boundary face


@pytest.mark.parametrize("dim", [1, 2])
def test_face_weights_match_pointwise_traces(dim, rng):
    # {M} at every node of every face against exp(-q psi) of the oracle
    # traces: the mean of the two sides inside, one-sided on the boundary;
    # two species, dx != dy in 2D
    mesh = build_mesh_1d(0, 1, 5) if dim == 1 else build_mesh_2d(1.0, 0.6, 4, 3)
    q = np.array([1.0, -2.0])
    psi = random_psi(mesh, rng, scale=0.3)
    w = build_weight(psi, q)
    # face grid index -> oracle face key, per direction
    if dim == 1:
        keys = [{(i,): i for i in range(mesh.n_cells + 1)}]
    else:
        nx, ny = mesh.shape
        keys = [{(row, i): ("x", i, row) for row in range(ny) for i in range(nx + 1)},
                {(i, col): ("y", i, col) for i in range(ny + 1) for col in range(nx)}]
    assert len(w.faces) == dim
    for f, faces in zip(w.faces, keys):
        assert f.shape[0] == 2 and f.shape[-1] == RULE.n ** (dim - 1)
        assert len(faces) == np.prod(f.shape[1:-1])
        for idx, face in faces.items():
            tr = face_trace(psi, face)
            sides = [v for v in (tr.w_minus, tr.w_plus) if v is not None]
            for s, qs in enumerate(q):
                ref = sum(np.exp(-qs * np.asarray(v)) for v in sides) / len(sides)
                assert np.all(np.abs(f[(s,) + idx] - ref) <= 1e-14 * ref)


def test_overflow_guard():
    m = build_mesh_1d(0, 1, 2)
    psi = project_l2(lambda x: 1000.0 + 0 * x, m)
    with pytest.raises(OverflowGuardError):
        build_weight(psi, 1.0)


def test_weighted_projection_identity_and_scaling(rng):
    m = build_mesh_1d(0, 1, 5)
    c = Field(m, rng.normal(size=(5, 3)))
    g = weighted_projection(c, unit_weight(m))
    assert np.max(np.abs(g.coeffs - c.coeffs)) < 1e-13
    psi = project_l2(lambda x: np.log(2.0) + 0 * x, m)
    g = weighted_projection(c, build_weight(psi, 1.0))   # M = 1/2... M = exp(-ln2) = 0.5
    assert np.max(np.abs(g.coeffs - 2.0 * c.coeffs)) < 1e-12


def test_weighted_projection_residual():
    # int(g M r) = int(c r) for every basis r, checked with the shared rule
    m = build_mesh_1d(0, 1, 2)
    c = project_l2(lambda x: 1 + x, m)
    psi = project_l2(lambda x: x, m)
    w = build_weight(psi, 1.0)
    g = weighted_projection(c, w)
    from pnpdg.basis import tables_for
    t = tables_for(m)
    gm = (g.coeffs @ t.vol.T) * w.vol
    res = np.einsum("q,nq,qm->nm", RULE.weights, gm, t.vol) - c.coeffs * c.basis.gram
    assert np.max(np.abs(res)) < 1e-12


def contrast_psi(mesh, rng, bound=5.0):
    """Random P2 potential with |psi| <= bound: every Legendre product is at
    most 1 in size, so each cell's coefficient sum bounds psi there."""
    p = rng.normal(size=(mesh.n_cells, basis_for(mesh).nb))
    return Field(mesh, p * (bound / np.abs(p).sum(axis=1, keepdims=True)))


@pytest.mark.parametrize("dim", [1, 2])
def test_weighted_projection_residual_high_contrast(dim, rng):
    # |q psi| <= 5 lets M vary by up to e^10 within a cell. The residual of
    # int(g M r) = int(c r) is measured against the size of its terms,
    # sum_l |W_rl| |g_l|, which bounds the error of a backward-stable solve
    mesh = build_mesh_1d(0, 1, 9) if dim == 1 else build_mesh_2d(1.0, 0.6, 5, 3)
    quad = mesh.quadrature
    vals, wq = quad.tables.vol_flat, quad.tables.w_flat
    for _ in range(40):
        w = build_weight(contrast_psi(mesh, rng), rng.choice([-1.0, 1.0]))
        c = Field(mesh, rng.normal(size=(mesh.n_cells, vals.shape[1])))
        g = weighted_projection(c, w)
        mw = w.vol.reshape(mesh.n_cells, -1) * wq
        res = (quad.values(g.coeffs) * mw) @ vals - (quad.values(c.coeffs) * wq) @ vals
        size = ((np.abs(g.coeffs) @ np.abs(vals).T) * mw) @ np.abs(vals)
        assert np.all(np.abs(res) <= 1e-13 * size)


@pytest.mark.parametrize("dim", [1, 2])
def test_weighted_projection_rejects_nonpositive_weight(dim):
    # a negative node value of M makes the weighted Gram indefinite, so the
    # elimination meets a nonpositive pivot
    mesh = build_mesh_1d(0, 1, 3) if dim == 1 else build_mesh_2d(1.0, 1.0, 2, 2)
    w = weight_from_values(mesh, np.ones((mesh.n_cells, RULE.n ** dim)))
    w.vol[1, 0] = -1.0e3   # one node of cell 1
    c = Field(mesh, np.ones((mesh.n_cells, basis_for(mesh).nb)))
    with pytest.raises(NumericalFatalError, match="pivot"):
        weighted_projection(c, w)


def test_interval_unit_weight():
    m = build_mesh_1d(0, 1, 3)
    a, b = admissible_interval(unit_weight(m), 1)
    assert abs(a + 1 / 3) < 1e-14
    assert abs(b - 1 / 3) < 1e-14


def test_interval_scale_invariant():
    m = build_mesh_1d(0, 1, 3)
    w7 = weight_from_values(m, 7.0 * np.ones((3, RULE.n)))
    a, b = admissible_interval(w7, 0)
    assert abs(a + 1 / 3) < 1e-14 and abs(b - 1 / 3) < 1e-14


def test_interval_exponential_oracle():
    # one cell mapped to [-1, 1]; oracle moments from a 10-point rule
    m = build_mesh_1d(-3, 1, 2)
    xq = m.quadrature.points[0]
    w = weight_from_values(m, np.exp(-(xq - m.axes[0][:, None]) / (m.spacing[0] / 2)))
    a, b = admissible_interval(w, 1)
    nodes, weights = np.polynomial.legendre.leggauss(10)
    mom = [0.5 * np.sum(weights * nodes**k * np.exp(-nodes)) for k in range(3)]
    a_ref = (mom[1] - mom[2]) / (mom[0] - mom[1])
    b_ref = (mom[1] + mom[2]) / (mom[0] + mom[1])
    # production moments come from the shared 4-point rule; ~1e-5 gap expected
    assert abs(a - a_ref) < 2e-5 and abs(b - b_ref) < 2e-5
    assert -1 < a < b < 1


def test_choose_gamma_cases():
    assert choose_gamma(-1 / 3, 1 / 3, 1 / 6) == 0.0
    assert abs(choose_gamma(0.1, 0.9, 1 / 6) - 1 / 3) < 1e-15
    with pytest.raises(InadmissibleCellError):
        choose_gamma(0.4, 0.9, 1 / 6)
    # uncapped expert mode takes the raw midpoint
    assert abs(choose_gamma(0.4, 0.9, 1 / 24, cap=False) - 0.65) < 1e-15


def test_decomposition_weights_unit():
    m = build_mesh_1d(0, 1, 3)
    w = unit_weight(m)
    w1, w2, w3 = decomposition_weights(w, 0, 0.0)
    assert abs(w1 - 1 / 6) < 1e-14
    assert abs(w2 - 2 / 3) < 1e-14
    assert abs(w3 - 1 / 6) < 1e-14
    # identity on p = xi^2: 1/6*1 + 2/3*0 + 1/6*1 = <xi^2> = 1/3
    assert abs(w1 + w3 - 1 / 3) < 1e-14


def test_decomposition_identity_randomized(rng):
    # asymmetric weight: identity against the weighted quadrature for quadratics
    m = build_mesh_1d(-3, 1, 2)
    xq = m.quadrature.points[0]
    w = weight_from_values(m, np.exp(-(xq - m.axes[0][:, None]) / (m.spacing[0] / 2)))
    ts = build_test_set(w, FluxParams(1.0, 1 / 6))
    for _ in range(50):
        p = rng.normal(size=3)
        for cell in (0, 1):
            pts = np.array([-1.0, ts.gammas[cell, 0], 1.0])
            vals = p[0] + p[1] * pts + p[2] * pts**2
            lhs = float(ts.line_weights[cell, 0] @ vals)
            mom = w.lines[cell, 0]
            rhs = p[0] * mom[0] + p[1] * mom[1] + p[2] * mom[2]
            assert abs(lhs - rhs) < 1e-12


def test_test_set_randomized_properties(rng):
    m = build_mesh_1d(0, 1, 8)
    for _ in range(25):
        w = build_weight(random_psi(m, rng), 1.0)
        ts = build_test_set(w, FluxParams(1.0, 1 / 6))
        assert np.all(-1 < ts.lo) and np.all(ts.lo < ts.hi) and np.all(ts.hi < 1)
        assert np.all(ts.line_weights > 0)
        assert np.all((ts.lo < ts.gammas) & (ts.gammas < ts.hi))


def test_test_set_2d_lines(rng):
    m = build_mesh_2d(1, 1, 3, 2)
    w = build_weight(random_psi(m, rng, scale=0.2), -1.0)
    ts = build_test_set(w, FluxParams(1.0, 1 / 6))
    assert ts.gammas.shape == (6, 2 * RULE.n)   # x lines, then y lines
    assert np.all(ts.line_weights > 0)
    a, b = admissible_interval(w, 3, line=2)
    assert abs(a - ts.lo[3, 2]) < 1e-15 and abs(b - ts.hi[3, 2]) < 1e-15
    w1, w2_, w3 = decomposition_weights(w, 3, ts.gammas[3, 2], line=2)
    assert abs(w1 - ts.line_weights[3, 2, 0]) < 1e-15


@pytest.mark.parametrize("dim", [1, 2])
def test_test_set_values_match_pointwise_oracle(dim, rng):
    # two species, dx != dy in 2D; output per cell: the lines of x then of y,
    # each at xi_d = -1, gamma and +1, with the line's cross node fixed
    mesh = build_mesh_1d(0, 1, 5) if dim == 1 else build_mesh_2d(1.0, 0.6, 4, 3)
    nb, nq = basis_for(mesh).nb, RULE.n
    w = build_weight(random_psi(mesh, rng, scale=0.2), np.array([1.0, -1.0]))
    ts = build_test_set(w, PP)
    g = Field(mesh, rng.normal(size=(2, mesh.n_cells, nb)))
    vals = values_on_test_set(g, ts)
    n_lines = ts.gammas.shape[-1]
    assert vals.shape == (2, mesh.n_cells, 3 * n_lines)
    for i in range(2):
        gi = Field(mesh, g.coeffs[i])
        scale = np.abs(gi.coeffs).sum(axis=-1).max()
        for cell in range(mesh.n_cells):
            for line in range(n_lines):
                d, s = divmod(line, nq)
                for k, xi in enumerate((-1.0, ts.gammas[i, cell, line], 1.0)):
                    cross = RULE.nodes[s]
                    point = (xi,) if dim == 1 else (xi, cross) if d == 0 else (cross, xi)
                    assert abs(vals[i, cell, 3 * line + k] - eval_field(gi, cell, point)) \
                        <= 1e-14 * scale


def test_limiter_inactive_on_nonnegative():
    m = build_mesh_1d(0, 1, 4)
    w = unit_weight(m)
    g = project_l2(lambda x: 1 + 0.5 * np.sin(6 * x), m)
    ts = build_test_set(w, PP)
    out, rep = scaling_limiter(g, w, ts)
    assert rep.n_limited == 0
    assert np.array_equal(out.coeffs, g.coeffs)
    assert np.all(rep.theta == 1.0)


def test_limiter_single_cell_formula():
    # avg 1, min on the test set -0.5 -> theta = 2/3 and new minimum 0
    m = build_mesh_1d(0, 1, 2)
    w = unit_weight(m)
    g = Field(m, np.array([[1.0, 1.5, 0.0], [1.0, 0.0, 0.0]]))
    ts = build_test_set(w, PP)
    out, rep = scaling_limiter(g, w, ts)
    assert abs(rep.theta[0] - 2 / 3) < 1e-14
    vals = values_on_test_set(out, ts)
    assert abs(vals[0].min()) < 1e-14
    assert abs(weighted_cell_average(out, w)[0] - 1.0) < 1e-14


@pytest.mark.parametrize("dim", [1, 2])
def test_limiter_invariants_randomized(dim, rng):
    if dim == 1:
        m = build_mesh_1d(0, 1, 6)
    else:
        m = build_mesh_2d(1, 1, 3, 3)
    nb = 3 if dim == 1 else 6
    for _ in range(20):
        w = build_weight(random_psi(m, rng, scale=0.3), 1.0)
        coeffs = rng.normal(size=(m.n_cells, nb))
        coeffs[:, 0] = np.abs(coeffs[:, 0]) + 0.8   # positive weighted averages
        g = Field(m, coeffs)
        if np.any(weighted_cell_average(g, w) <= 0):
            continue
        ts = build_test_set(w, PP)
        out, rep = scaling_limiter(g, w, ts)
        assert np.all((0 <= rep.theta) & (rep.theta <= 1))
        avg_in = weighted_cell_average(g, w)
        avg_out = weighted_cell_average(out, w)
        assert np.max(np.abs(avg_out - avg_in) / np.abs(avg_in)) < 1e-12
        assert values_on_test_set(out, ts).min() >= -1e-14
        again, rep2 = scaling_limiter(out, w, ts)
        assert np.max(np.abs(again.coeffs - out.coeffs)) < 1e-13


def test_limiter_rejects_nonpositive_average():
    m = build_mesh_1d(0, 1, 2)
    w = unit_weight(m)
    g = Field(m, np.array([[-1.0, 0, 0], [1.0, 0, 0]]))
    ts = build_test_set(w, PP)
    with pytest.raises(NumericalFatalError):
        scaling_limiter(g, w, ts)


def test_cfl_worked_value():
    # unit weight, beta0=1, beta1=1/6, gamma=0: both candidate terms are 1/2
    m = build_mesh_1d(0, 1, 4)
    w = unit_weight(m)
    ts = build_test_set(w, PP)
    mu0 = cfl_mu0(w, ts, PP)
    assert isinstance(mu0, float)
    assert abs(mu0 - 0.5) < 1e-13


def test_cfl_beta1_quarter_degenerate():
    # at beta1 = 1/4 the second candidate term is +inf; mu0 stays finite
    m = build_mesh_1d(0, 1, 4)
    w = unit_weight(m)
    p = FluxParams(1.0, 0.25)
    ts = build_test_set(w, p)
    mu0 = cfl_mu0(w, ts, p)
    assert np.isfinite(mu0) and mu0 > 0


def test_cfl_scale_invariance(rng):
    # uniform rescaling of M (shift psi by a constant) leaves mu0 unchanged:
    # the decomposition weights and the face values scale together
    m = build_mesh_1d(0, 1, 5)
    psi = random_psi(m, rng, scale=0.3)
    psi2 = Field(m, psi.coeffs.copy())
    psi2.coeffs[:, 0] += np.log(2.0)
    p = FluxParams(2.0, 1 / 6)
    w1 = build_weight(psi, 1.0)
    r1 = cfl_mu0(w1, build_test_set(w1, p), p)
    w2 = build_weight(psi2, 1.0)
    r2 = cfl_mu0(w2, build_test_set(w2, p), p)
    assert abs(r1 - r2) < 1e-12 * abs(r1)


def test_cfl_invalid_outside_range():
    m = build_mesh_1d(0, 1, 4)
    w = unit_weight(m)
    p = FluxParams(1.0, 1 / 24)
    ts = build_test_set(w, p)
    assert np.isnan(cfl_mu0(w, ts, p))


def test_cfl_2d_directional_minimum(rng):
    # mu0 is the minimum over the x and the y lines; swapping the axes of a
    # dx != dy mesh and transposing psi swaps the two line sets, so the bound
    # stays put only if both directions enter it
    m = build_mesh_2d(1, 2, 3, 4)
    mt = build_mesh_2d(2, 1, 4, 3)
    psi = random_psi(m, rng, scale=0.3)
    # cell (row l, column j) of m is (j, l) of mt; the basis swaps its
    # x and y degrees, (0,0) (1,0) (0,1) (2,0) (1,1) (0,2) -> 0 2 1 5 4 3
    coeffs = psi.coeffs.reshape(m.grid + (6,)).transpose(1, 0, 2).reshape(-1, 6)
    psi_t = Field(mt, coeffs[:, [0, 2, 1, 5, 4, 3]])
    p = FluxParams(1.0, 1 / 6)
    mu0 = []
    for field in (psi, psi_t):
        w = build_weight(field, 1.0)
        mu0.append(cfl_mu0(w, build_test_set(w, p), p))
    assert mu0[0] > 0
    assert abs(mu0[1] - mu0[0]) <= 1e-14 * mu0[0]
