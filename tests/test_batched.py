"""Species-batched positivity and transport kernels.

A stage runs every kernel once on all species, with a leading species axis.
Each batched result must equal the single-species call bit for bit, so the
batched time loop reproduces the per-species one exactly.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pnpdg.basis import basis_for
from pnpdg.field import Field, FluxParams
from pnpdg.mesh import build_mesh_1d, build_mesh_2d
from pnpdg.positivity import (build_test_set, build_weight, cfl_mu0, scaling_limiter,
                              weighted_cell_average, weighted_projection)
from pnpdg.positivity import test_set_values as values_on_test_set
from pnpdg.transport import apply_mass_inverse, np_rhs

P = FluxParams(2.0, 1 / 6)
CHARGES = np.array([1.0, -2.0])


def _mesh(dim):
    return build_mesh_1d(0, 1, 7) if dim == 1 else build_mesh_2d(1, 1.3, 4, 3)


def _source(dim):
    if dim == 1:
        return lambda t, x: np.sin(3 * x) + t
    return lambda t, x, y: np.cos(x) * y + t


def _stage(dim, rng):
    """Potential and two species' densities with some cells needing the limiter."""
    mesh = _mesh(dim)
    nb = basis_for(mesh).nb
    psi = Field(mesh, 0.3 * rng.normal(size=(mesh.n_cells, nb)))
    c = rng.normal(size=(2, mesh.n_cells, nb))
    c[..., 0] = np.abs(c[..., 0]) + 0.8
    return mesh, psi, c


def _assert_same_arrays(batched, single, i):
    for f in fields(single):
        assert np.array_equal(getattr(batched, f.name)[i], getattr(single, f.name)), f.name


@pytest.mark.parametrize("dim", [1, 2])
def test_batched_kernels_match_single_species_bitwise(dim, rng):
    mesh, psi, c = _stage(dim, rng)
    sources = [_source(dim), None]
    wb = build_weight(psi, CHARGES)
    gb = weighted_projection(Field(mesh, c), wb)
    tsb = build_test_set(wb, P)
    lb, repb = scaling_limiter(gb, wb, tsb)
    mub = cfl_mu0(wb, tsb, P)
    rhsb = np_rhs(lb, wb, P, source=sources, t=0.3)
    incb = apply_mass_inverse(mesh, rhsb)
    assert repb.n_limited > 0 and type(repb.n_limited) is int   # a JSON-safe count
    assert repb.theta.shape == (2, mesh.n_cells)

    n_limited, mu0 = 0, np.inf
    for i, q in enumerate(CHARGES):
        w = build_weight(psi, float(q))
        assert np.array_equal(wb.vol[i], w.vol)
        assert np.array_equal(wb.lines[i], w.lines)
        assert len(wb.faces) == len(w.faces) == dim
        for fb, f in zip(wb.faces, w.faces):
            assert np.array_equal(fb[i], f)
        g = weighted_projection(Field(mesh, c[i]), w)
        assert np.array_equal(gb.coeffs[i], g.coeffs)
        ts = build_test_set(w, P)
        _assert_same_arrays(tsb, ts, i)
        assert np.array_equal(values_on_test_set(gb, tsb)[i], values_on_test_set(g, ts))
        lim, rep = scaling_limiter(g, w, ts)
        assert np.array_equal(lb.coeffs[i], lim.coeffs)
        assert np.array_equal(repb.theta[i], rep.theta)
        assert repb.min_pre[i] == rep.min_pre
        assert repb.min_post[i] == rep.min_post
        n_limited += rep.n_limited
        mu0 = min(mu0, cfl_mu0(w, ts, P))
        rhs = np_rhs(lim, w, P, source=sources[i], t=0.3)
        assert np.array_equal(rhsb[i], rhs)
        assert np.array_equal(incb[i], apply_mass_inverse(mesh, rhs))
    assert repb.n_limited == n_limited
    assert mub == mu0


@pytest.mark.parametrize("dim", [1, 2])
def test_closed_form_post_limit_minimum(dim, rng):
    # the report's min_post is theta*mn + (1-theta)*wbar, not a second
    # evaluation of the test set; both must agree to roundoff
    mesh, psi, c = _stage(dim, rng)
    w = build_weight(psi, CHARGES)
    g = weighted_projection(Field(mesh, c), w)
    ts = build_test_set(w, P)
    out, rep = scaling_limiter(g, w, ts)
    assert rep.n_limited > 0
    scale = np.abs(values_on_test_set(g, ts)).max()
    evaluated = values_on_test_set(out, ts).min(axis=(-2, -1))
    assert np.all(np.abs(rep.min_post - evaluated) <= 1e-15 * scale)


def _data(dim):
    mesh = _mesh(dim)
    nb = basis_for(mesh).nb
    n = mesh.n_cells
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    return st.tuples(
        st.just(mesh),
        arrays(np.float64, (n, nb), elements=unit),                     # psi / 0.3
        arrays(np.float64, (2,), elements=st.floats(-2.0, 2.0)),        # charges
        arrays(np.float64, (2, n, nb), elements=st.floats(-2.0, 2.0)),  # higher modes
        arrays(np.float64, (2, n), elements=st.floats(0.05, 2.0)),      # cell averages
    )


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_limiter_properties_batched(dim, data):
    # random admissible potential and positive-average data for two species:
    # the limiter keeps weighted cell averages and leaves the test set >= 0
    mesh, psi, q, c, avg = data.draw(_data(dim))
    c = c.copy()
    c[..., 0] = avg
    w = build_weight(Field(mesh, 0.3 * psi), q)
    g = weighted_projection(Field(mesh, c), w)
    ts = build_test_set(w, P)
    out, rep = scaling_limiter(g, w, ts)
    before = weighted_cell_average(g, w)
    after = weighted_cell_average(out, w)
    assert np.all(np.abs(after - before) <= 1e-13 * np.abs(before))
    scale = np.abs(values_on_test_set(g, ts)).max()
    assert values_on_test_set(out, ts).min() >= -1e-14 * scale
    assert np.all((0.0 <= rep.theta) & (rep.theta <= 1.0))
