"""Explicit DDG update for the transformed transport equation dt c = div(M grad g).

`np_rhs` returns weak-form increments (the right-hand side tested against
each basis function, before mass inversion). Zero-flux boundaries are
enforced weakly: the boundary numerical flux of g is zero and {g} = g, so
boundary faces contribute nothing.

`np_rhs` and `apply_mass_inverse` take the leading axes of their inputs:
with g and the weight field of all m species of a stage, shapes
(m, n_cells, ...), one call gives the increments of every species.

`decomposition_cell_averages` advances only the cell averages through the
quadrature/decomposition identity; it must agree with the v = 1 component
of the full update to roundoff and serves as a consistency oracle.
"""

import numpy as np

from .basis import tables_for
from .positivity import test_set_values


def np_rhs(g, weight, params, source=None, t=0.0):
    """Weak-form time increments, shape (..., n_cells, nb).

    `source` is f(t, x[, y]) or None for a field without leading axes; for
    a field with a species axis it is a sequence of one such entry per
    species.
    """
    if g.mesh.dim == 1:
        return _rhs_1d(g, weight, params, source, t)
    return _rhs_2d(g, weight, params, source, t)


def _add_sources(rhs, source, load):
    """Add the load of `source` (one callable, or one entry per species)."""
    if source is None:
        return
    if callable(source):
        rhs += load(source)
        return
    for r, f in zip(rhs, source):
        if f is not None:
            r += load(f)


def apply_mass_inverse(mesh, basis, rhs):
    """Invert the diagonal unweighted mass matrix on weak-form increments."""
    vol = mesh.h / 2.0 if mesh.dim == 1 else mesh.dx * mesh.dy / 4.0
    return rhs / (vol * basis.gram)


def _rhs_1d(g, weight, params, source, t):
    mesh = g.mesh
    rule = weight.rule
    tb = tables_for(mesh, rule)
    h = mesh.h
    b0, b1 = params.beta0, params.beta1
    c = g.coeffs
    dg_ref = c @ tb.dvol.T
    rhs = -(2.0 / h) * ((weight.vol * rule.weights * dg_ref) @ tb.dvol)
    s = 2.0 / h
    cm = c[..., :-1, :]        # minus (left) and plus (right) cells of interior faces
    cp = c[..., 1:, :]
    gl = cm @ tb.at_r          # minus-side traces on interior faces
    gr = cp @ tb.at_l
    dgl = s * (cm @ tb.d_at_r)
    dgr = s * (cp @ tb.d_at_l)
    ddgl = s * s * (cm @ tb.d2_at_r)
    ddgr = s * s * (cp @ tb.d2_at_l)
    flux = (b0 / h) * (gr - gl) + 0.5 * (dgl + dgr) + b1 * h * (ddgr - ddgl)
    mf = weight.face[..., 1:-1]
    avg = 0.5 * (gl + gr)
    mflux = mf * flux
    rhs[..., :-1, :] += mflux[..., None] * tb.at_r \
        + (mf * (gl - avg) * s)[..., None] * tb.d_at_r
    rhs[..., 1:, :] -= mflux[..., None] * tb.at_l \
        + (mf * (gr - avg) * s)[..., None] * tb.d_at_l
    _add_sources(rhs, source, lambda f: np.einsum(
        "q,nq,qm->nm", rule.weights, f(t, mesh.quad_points(rule)), tb.vol) * (h / 2.0))
    return rhs


def _rhs_2d(g, weight, params, source, t):
    mesh = g.mesh
    rule = weight.rule
    tb = tables_for(mesh, rule)
    nx, ny, dx, dy, nq = mesh.nx, mesh.ny, mesh.dx, mesh.dy, rule.n
    b0, b1 = params.beta0, params.beta1
    n = mesh.n_cells
    c = g.coeffs
    lead = c.shape[:-2]
    mw = weight.vol.reshape(lead + (n, -1)) * tb.w2_flat
    rhs = -(dy / dx) * ((mw * (c @ tb.dxi_flat.T)) @ tb.dxi_flat)
    rhs -= (dx / dy) * ((mw * (c @ tb.deta_flat.T)) @ tb.deta_flat)
    rhs = rhs.reshape(lead + (ny, nx, -1))
    c3 = c.reshape(lead + (ny, nx, -1))
    faces = lead + (-1, 6)

    # interior x-faces: (..., ny*(nx-1), nq) arrays over the face quadrature nodes
    sx = 2.0 / dx
    cl = c3[..., :, :-1, :].reshape(faces)
    cr = c3[..., :, 1:, :].reshape(faces)
    gl = cl @ tb.x_r.T
    gr = cr @ tb.x_l.T
    flux = (b0 / dx) * (gr - gl) + 0.5 * sx * (cl @ tb.dx_r.T + cr @ tb.dx_l.T) \
        + b1 * dx * sx * sx * (cr @ tb.d2x_l.T - cl @ tb.d2x_r.T)
    mf = weight.xface[..., :, 1:-1, :].reshape(lead + (-1, nq))
    half = 0.5 * (gr - gl)      # g_inner - {g} = -/+ half on the minus/plus side
    fw = rule.weights * (dy / 2.0)
    mflux = (mf * flux) * fw
    mhalf = (mf * half) * fw
    shp = lead + (ny, nx - 1, 6)
    rhs[..., :, :-1, :] += (mflux @ tb.x_r - sx * (mhalf @ tb.dx_r)).reshape(shp)
    rhs[..., :, 1:, :] -= (mflux @ tb.x_l + sx * (mhalf @ tb.dx_l)).reshape(shp)

    # interior y-faces: (..., (ny-1)*nx, nq)
    sy = 2.0 / dy
    cb = c3[..., :-1, :, :].reshape(faces)
    ct = c3[..., 1:, :, :].reshape(faces)
    gb = cb @ tb.y_t.T
    gt = ct @ tb.y_b.T
    flux = (b0 / dy) * (gt - gb) + 0.5 * sy * (cb @ tb.dy_t.T + ct @ tb.dy_b.T) \
        + b1 * dy * sy * sy * (ct @ tb.d2y_b.T - cb @ tb.d2y_t.T)
    mf = weight.yface[..., 1:-1, :, :].reshape(lead + (-1, nq))
    half = 0.5 * (gt - gb)
    fw = rule.weights * (dx / 2.0)
    mflux = (mf * flux) * fw
    mhalf = (mf * half) * fw
    shp = lead + (ny - 1, nx, 6)
    rhs[..., :-1, :, :] += (mflux @ tb.y_t - sy * (mhalf @ tb.dy_t)).reshape(shp)
    rhs[..., 1:, :, :] -= (mflux @ tb.y_b + sy * (mhalf @ tb.dy_b)).reshape(shp)

    rhs = rhs.reshape(lead + (n, -1))
    _add_sources(rhs, source, lambda f: (f(t, *mesh.quad_points(rule)).reshape(n, -1)
                                         * tb.w2_flat) @ tb.vol_flat * (dx * dy / 4.0))
    return rhs


def _face_flux_1d(g, weight, params):
    """Interior-face {M} * flux values, padded with the zero boundary fluxes."""
    mesh = g.mesh
    tb = tables_for(mesh, weight.rule)
    s = 2.0 / mesh.h
    c = g.coeffs
    gl = c[:-1] @ tb.at_r
    gr = c[1:] @ tb.at_l
    flux = (params.beta0 / mesh.h) * (gr - gl) \
        + 0.5 * s * ((c[:-1] @ tb.d_at_r) + (c[1:] @ tb.d_at_l)) \
        + params.beta1 * mesh.h * s * s * ((c[1:] @ tb.d2_at_l) - (c[:-1] @ tb.d2_at_r))
    out = np.zeros(mesh.n_cells + 1)
    out[1:-1] = weight.face[1:-1] * flux
    return out


def decomposition_cell_averages(g, weight, testset, params, dt):
    """Cell averages after one explicit step, via the decomposition identity.

    Writes the weighted average of g as the positive combination over the
    test set and adds the mesh-ratio-scaled face flux differences; in 2D
    the two directional contributions are blended with mu_x/mu, mu_y/mu
    and integrated by the face quadrature.
    """
    mesh = g.mesh
    vals = test_set_values(g, testset)
    if mesh.dim == 1:
        mu = dt / mesh.h ** 2
        mflux = _face_flux_1d(g, weight, params)
        gavg = np.einsum("ni,ni->n", testset.weights, vals)
        return gavg + mu * mesh.h * (mflux[1:] - mflux[:-1])
    nx, ny, dx, dy, nq = mesh.nx, mesh.ny, mesh.dx, mesh.dy, weight.rule.n
    mu_x = dt / dx ** 2
    mu_y = dt / dy ** 2
    mu = mu_x + mu_y
    tb = tables_for(mesh, weight.rule)
    c3 = g.coeffs.reshape(ny, nx, -1)
    n = mesh.n_cells
    vx = vals[:, :3 * nq].reshape(n, nq, 3)
    vy = vals[:, 3 * nq:].reshape(n, nq, 3)

    sxf = 2.0 / dx
    gl = np.einsum("yxm,sm->yxs", c3[:, :-1], tb.x_r)
    gr = np.einsum("yxm,sm->yxs", c3[:, 1:], tb.x_l)
    fx = (params.beta0 / dx) * (gr - gl) \
        + 0.5 * sxf * (np.einsum("yxm,sm->yxs", c3[:, :-1], tb.dx_r)
                       + np.einsum("yxm,sm->yxs", c3[:, 1:], tb.dx_l)) \
        + params.beta1 * dx * sxf * sxf * (np.einsum("yxm,sm->yxs", c3[:, 1:], tb.d2x_l)
                                           - np.einsum("yxm,sm->yxs", c3[:, :-1], tb.d2x_r))
    mfx = np.zeros((ny, nx + 1, nq))
    mfx[:, 1:-1] = weight.xface[:, 1:-1] * fx

    syf = 2.0 / dy
    gb = np.einsum("yxm,sm->yxs", c3[:-1], tb.y_t)
    gt = np.einsum("yxm,sm->yxs", c3[1:], tb.y_b)
    fy = (params.beta0 / dy) * (gt - gb) \
        + 0.5 * syf * (np.einsum("yxm,sm->yxs", c3[:-1], tb.dy_t)
                       + np.einsum("yxm,sm->yxs", c3[1:], tb.dy_b)) \
        + params.beta1 * dy * syf * syf * (np.einsum("yxm,sm->yxs", c3[1:], tb.d2y_b)
                                           - np.einsum("yxm,sm->yxs", c3[:-1], tb.d2y_t))
    mfy = np.zeros((ny + 1, nx, nq))
    mfy[1:-1] = weight.yface[1:-1] * fy

    h1 = np.einsum("nsi,nsi->ns", testset.weights_x, vx) \
        + mu * dx * (mfx[:, 1:] - mfx[:, :-1]).reshape(n, nq)
    h2 = np.einsum("nsi,nsi->ns", testset.weights_y, vy) \
        + mu * dy * (mfy[1:] - mfy[:-1]).reshape(n, nq)
    omega = weight.rule.avg_weights
    return (mu_x / mu) * (h1 @ omega) + (mu_y / mu) * (h2 @ omega)
