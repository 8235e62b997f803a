"""Explicit DDG update for the transformed transport equation dt c = div(M grad g).

`np_rhs` returns weak-form increments (the right-hand side tested against
each basis function, before mass inversion). Zero-flux boundaries are
enforced weakly: the boundary numerical flux of g is zero and {g} = g, so
boundary faces contribute nothing. Both the volume and the face terms loop
over the directions; each direction's interior-face flux comes from the
shared kernel `FaceTables.flux`.

`np_rhs` and `apply_mass_inverse` take the leading axes of their inputs:
with g and the weight field of all m species of a stage, shapes
(m, n_cells, ...), one call gives the increments of every species.
"""

import numpy as np


def np_rhs(g, weight, params, source=None, t=0.0):
    """Weak-form time increments, shape (..., n_cells, nb).

    `source` is f(t, x[, y]) or None for a field without leading axes; for
    a field with a species axis it is a sequence of one such entry per
    species. A SeparableSource loads through its cached spatial loads.
    """
    mesh = g.mesh
    quad = mesh.quadrature
    faces = g.basis.faces
    c = g.coeffs
    lead = c.shape[:-2]
    mw = weight.vol * g.basis.w_flat
    rhs = np.zeros(c.shape)
    for ft, k in zip(faces, quad.stiffness):
        rhs -= k * ((mw * (c @ ft.dvol.T)) @ ft.dvol)
    on_grid = rhs.reshape(lead + mesh.grid + (-1,))
    c = c.reshape(on_grid.shape)
    for d, (ft, h, fw) in enumerate(zip(faces, mesh.spacing, quad.face_weights)):
        gm, gp, flux = ft.flux(c, h, params)
        mf = weight.faces[d][ft.inner].reshape(flux.shape)
        mflux = (mf * flux) * fw
        mhalf = (mf * (0.5 * (gp - gm))) * fw   # g_inner - {g} = -/+ half on the minus/plus side
        s = 2.0 / h
        shape = on_grid[ft.minus].shape
        on_grid[ft.minus] += (mflux @ ft.v_m - s * (mhalf @ ft.d_m)).reshape(shape)
        on_grid[ft.plus] -= (mflux @ ft.v_p + s * (mhalf @ ft.d_p)).reshape(shape)
    if callable(source):
        rhs += quad.load_source(source, t)
    elif source is not None:
        for i, f in enumerate(source):
            if f is not None:
                rhs[i] += quad.load_source(f, t)
    return rhs


def apply_mass_inverse(mesh, rhs):
    """Invert the diagonal unweighted mass matrix on weak-form increments."""
    return rhs / mesh.quadrature.mass

