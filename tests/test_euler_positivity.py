"""The positivity theorem of one forward-Euler stage, as a property test.

For a P2 potential with |q psi| <= 5, charges in [-2, 2] and a transformed
density g = c / M that the scaling limiter has made nonnegative on the
test set, one Euler step of the transport update at the mesh ratio
mu = mu0 keeps every cell average nonnegative, up to roundoff. The step
uses the largest dt whose mesh ratio, summed over the directions as the
driver sums it, does not exceed mu0: the bound itself, not a margin below
it.

In 1D the update of a cell average is linear in the test-set values of g,
with coefficients that are nonnegative when mu <= mu0, and one of them is
zero at mu0. A random g seldom puts its weight on that point, so the second
test steps every Lagrange basis function of every cell on the test set:
the nonnegative data that make the step as tight as it can be.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pnpdg.basis import basis_for, legendre_vals
from pnpdg.exceptions import InadmissibleCellError
from pnpdg.field import Field, FluxParams
from pnpdg.mesh import build_mesh_1d, build_mesh_2d
from pnpdg.positivity import (build_test_set, build_weight, cfl_mu0, scaling_limiter,
                              weighted_projection)
from pnpdg.transport import apply_mass_inverse, np_rhs

MESHES = (build_mesh_1d(0.0, 1.0, 6), build_mesh_1d(-0.3, 0.9, 4),
          build_mesh_2d(1.0, 0.6, 4, 3), build_mesh_2d(0.5, 1.2, 2, 5))
PARAMS = (FluxParams(1.0, 1 / 8), FluxParams(1.0, 1 / 6), FluxParams(4.0, 1 / 6),
          FluxParams(2.0, 1 / 4))


def _driver_mu(dt, mesh):
    return sum(dt / h ** 2 for h in mesh.spacing)


def _step_at_bound(mu0, mesh):
    """The largest dt whose mesh ratio is at most mu0."""
    dt = mu0 / sum(1.0 / h ** 2 for h in mesh.spacing)
    while _driver_mu(dt, mesh) > mu0:
        dt = np.nextafter(dt, 0.0)
    return dt


@st.composite
def weights(draw, meshes=MESHES):
    mesh = draw(st.sampled_from(meshes))
    params = draw(st.sampled_from(PARAMS))
    q = draw(arrays(np.float64, (2,), elements=st.floats(-2.0, 2.0)))
    raw = draw(arrays(np.float64, (mesh.n_cells, basis_for(mesh).nb),
                      elements=st.floats(-1.0, 1.0)))
    # |psi| is at most the sum of its |coefficients| on a cell (every basis
    # function is bounded by 1); scaled so that |q psi| <= qpsi_max. The two
    # factors are scaled apart, and |q| below 1e-3 counts as 1e-3, so a
    # subnormal q or raw cannot make the scale overflow
    qpsi_max = draw(st.floats(0.0, 5.0))
    size = np.abs(raw).sum(axis=-1).max()
    psi = raw / size * (qpsi_max / max(np.abs(q).max(), 1e-3)) if size > 0 else raw
    w = build_weight(Field(mesh, psi), q)
    try:
        ts = build_test_set(w, params)
    except InadmissibleCellError:
        assume(False)   # no admissible test set: the theorem claims nothing
    return mesh, w, ts, params


def _euler_averages(g, w, params, dt):
    """Cell averages before and after one Euler step of every density whose
    weighted projection is g."""
    mesh = g.mesh
    tb = basis_for(mesh)
    before = (w.vol * (g.coeffs @ tb.vol_flat.T)) @ tb.mean_vol
    inc = apply_mass_inverse(mesh, np_rhs(g, w, params))
    return before, before + dt * inc[..., 0]


@settings(max_examples=150, deadline=None)
@given(weights(), st.data())
def test_euler_step_at_mu0_keeps_cell_averages_nonnegative(weight, data):
    mesh, w, ts, params = weight
    n, nb = mesh.n_cells, basis_for(mesh).nb
    c = data.draw(arrays(np.float64, (2, n, nb), elements=st.floats(-2.0, 2.0)))
    c[..., 0] = data.draw(arrays(np.float64, (2, n), elements=st.floats(0.05, 2.0)))
    g, _ = scaling_limiter(weighted_projection(Field(mesh, c), w), w, ts)
    mu0 = cfl_mu0(w, ts, params)
    dt = _step_at_bound(mu0, mesh)
    assert _driver_mu(dt, mesh) <= mu0
    before, after = _euler_averages(g, w, params, dt)
    assert after.min() >= -1e-14 * before.max()


@settings(max_examples=100, deadline=None)
@given(weights(meshes=MESHES[:2]))
def test_euler_step_at_mu0_is_nonnegative_in_every_test_value(weight):
    # g is one Lagrange basis function of one cell on {-1, gamma, 1} and zero
    # elsewhere: nonnegative on the test set, but with zero averages outside
    # the cell, which the limiter (rightly) refuses, so it is not applied
    mesh, w, ts, params = weight
    dt = _step_at_bound(cfl_mu0(w, ts, params), mesh)
    nodes = np.stack([-np.ones_like(ts.gammas), ts.gammas, np.ones_like(ts.gammas)], -1)
    # Legendre coefficients of the Lagrange basis of every cell and species
    lagrange = np.linalg.inv(legendre_vals(nodes)[..., 0, :, :]).swapaxes(-1, -2)
    for cell in range(mesh.n_cells):
        for k in range(3):
            coeffs = np.zeros(lagrange.shape[:-1])
            coeffs[:, cell] = lagrange[:, cell, k]
            before, after = _euler_averages(Field(mesh, coeffs), w, params, dt)
            assert after.min() >= -1e-14 * before.max(), (cell, k)
