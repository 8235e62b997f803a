"""The shared DDG face kernel against the independent per-face oracle.

`FaceTables.flux` is the one place the DDG flux is written; transport, the
decomposition oracle and the Poisson assembly all call it. Here it must
give, at every interior face of random P2 fields, the traces and the flux
that `face_trace` and `ddg_flux` compute one face at a time straight from
the Legendre basis.
"""

import numpy as np
import pytest

from oracles import ddg_flux, face_trace
from pnpdg.basis import RULE, basis_for
from pnpdg.field import Field, FluxParams
from pnpdg.mesh import build_mesh_1d, build_mesh_2d


def _interior_faces(mesh, d):
    """Oracle face keys of direction d in the kernel's (grid) order."""
    if mesh.dim == 1:
        return list(range(1, mesh.n_cells))
    if d == 0:
        return [("x", i, l) for l in range(mesh.shape[1]) for i in range(1, mesh.shape[0])]
    return [("y", i, j) for i in range(1, mesh.shape[1]) for j in range(mesh.shape[0])]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("params", [FluxParams(4.0, 1 / 6), FluxParams(1.5, 0.23)],
                         ids=["beta4-1_6", "beta1.5-0.23"])
def test_face_kernel_matches_per_face_oracle(dim, params, rng):
    mesh = build_mesh_1d(-0.5, 1.2, 7) if dim == 1 else build_mesh_2d(1.3, 0.7, 5, 4)
    tb = basis_for(mesh)
    for _ in range(5):
        f = Field(mesh, rng.normal(size=(mesh.n_cells, basis_for(mesh).nb)))
        c = f.coeffs.reshape(mesh.grid + (-1,))
        for d, (ft, h) in enumerate(zip(tb.faces, mesh.spacing)):
            gm, gp, flux = ft.flux(c, h, params)
            keys = _interior_faces(mesh, d)
            assert flux.shape == (len(keys), RULE.n ** (dim - 1))
            scale = np.abs(flux).max()
            for k, key in enumerate(keys):
                tr = face_trace(f, key)
                np.testing.assert_allclose(gm[k], tr.w_minus, rtol=0, atol=1e-14 * scale)
                np.testing.assert_allclose(gp[k], tr.w_plus, rtol=0, atol=1e-14 * scale)
                np.testing.assert_allclose(flux[k], ddg_flux(tr, params), rtol=0,
                                           atol=1e-13 * scale)


def test_face_kernel_takes_leading_axes(rng):
    # a species axis in front gives each species' single-field flux
    mesh = build_mesh_2d(1.0, 1.0, 4, 3)
    tb = basis_for(mesh)
    c = rng.normal(size=(2,) + mesh.grid + (6,))
    for ft, h in zip(tb.faces, mesh.spacing):
        batched = ft.flux(c, h, FluxParams(4.0, 1 / 6))
        for i in range(2):
            single = ft.flux(c[i], h, FluxParams(4.0, 1 / 6))
            for b, s in zip(batched, single):
                assert np.array_equal(b[i], s)
