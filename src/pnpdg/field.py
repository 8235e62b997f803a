"""Piecewise-P2 modal fields: projection, evaluation, traces, DDG flux, norms.

A Field stores one coefficient vector per cell, shape (n_cells, nb). A
field may carry leading axes, (..., n_cells, nb): the time loop holds all
species of one stage as a single (m_species, n_cells, nb) field, and
`cell_averages` and `weighted_cell_average` act per leading index.
Evaluation uses the modal expansion on the reference element with
chain-rule factors 2/h per derivative per direction.
"""

from dataclasses import dataclass

import numpy as np

from .basis import basis_for, tables_for
from .quadrature import gauss_rule

DEFAULT_RULE = gauss_rule(4)


@dataclass
class FluxParams:
    """DDG diffusive flux parameters (jump penalty beta0, second-derivative
    jump weight beta1)."""

    beta0: float
    beta1: float

    def in_positivity_range(self):
        return self.beta0 >= 1.0 and 0.125 <= self.beta1 <= 0.25


class Field:
    def __init__(self, mesh, coeffs, role="scalar"):
        self.mesh = mesh
        self.basis = basis_for(mesh)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[-2:] != (mesh.n_cells, self.basis.nb):
            raise ValueError(
                f"coefficient array shape {coeffs.shape} != (..., {mesh.n_cells}, "
                f"{self.basis.nb})"
            )
        self.coeffs = coeffs
        self.role = role

    def copy(self):
        return Field(self.mesh, self.coeffs.copy(), self.role)

    @property
    def cell_averages(self):
        # leading modal coefficient is the cell mean
        return self.coeffs[..., 0]

    def __repr__(self):
        return f"Field(role={self.role!r}, cells={self.mesh.n_cells}, dim={self.mesh.dim})"


def zero_field(mesh, role="scalar"):
    return Field(mesh, np.zeros((mesh.n_cells, basis_for(mesh).nb)), role)


def project_l2(f, mesh, rule=DEFAULT_RULE, role="scalar"):
    """Per-cell L2 projection of a callable f onto the P2 space.

    f takes vectorized physical coordinates: f(x) in 1D, f(x, y) in 2D.
    """
    t = tables_for(mesh, rule)
    if mesh.dim == 1:
        fq = np.asarray(f(mesh.quad_points(rule)), dtype=float)
        coeffs = fq @ t.proj.T
    else:
        xq, yq = mesh.quad_points(rule)
        fq = np.asarray(f(xq, yq), dtype=float).reshape(mesh.n_cells, -1)
        coeffs = fq @ t.proj.T
    return Field(mesh, coeffs, role)


def eval_field(field, cell, point):
    """Value of the modal expansion at a reference point of one cell."""
    b = field.basis
    if field.mesh.dim == 1:
        return float(field.coeffs[cell] @ b.vals(np.asarray(point, dtype=float)))
    xi, eta = point
    return float(field.coeffs[cell] @ b.vals(np.asarray(xi, float), np.asarray(eta, float)))


def eval_grad(field, cell, point):
    """Physical gradient at a reference point (scalar in 1D, length-2 vector in 2D)."""
    m = field.mesh
    b = field.basis
    if m.dim == 1:
        return float(field.coeffs[cell] @ b.dvals(np.asarray(point, float))) * (2.0 / m.h)
    xi, eta = (np.asarray(p, float) for p in point)
    gx = float(field.coeffs[cell] @ b.dxi(xi, eta)) * (2.0 / m.dx)
    gy = float(field.coeffs[cell] @ b.deta(xi, eta)) * (2.0 / m.dy)
    return np.array([gx, gy])


def eval_second(field, cell, point):
    """Physical second derivative: scalar in 1D, 2x2 Hessian in 2D."""
    m = field.mesh
    b = field.basis
    if m.dim == 1:
        return float(field.coeffs[cell] @ b.d2vals(np.asarray(point, float))) * (2.0 / m.h) ** 2
    xi, eta = (np.asarray(p, float) for p in point)
    hxx = float(field.coeffs[cell] @ b.dxi2(xi, eta)) * (2.0 / m.dx) ** 2
    hyy = float(field.coeffs[cell] @ b.deta2(xi, eta)) * (2.0 / m.dy) ** 2
    hxy = float(field.coeffs[cell] @ b.dxideta(xi, eta)) * (2.0 / m.dx) * (2.0 / m.dy)
    return np.array([[hxx, hxy], [hxy, hyy]])


def eval_at_points(field, x, y=None):
    """Evaluate at arbitrary physical points (used for reference-field errors)."""
    m = field.mesh
    if m.dim == 1:
        cells = m.cell_of(x)
        xi = m.to_reference(cells, x)
        return np.einsum("...m,...m->...", field.coeffs[cells], field.basis.vals(xi))
    cells = m.cell_of(x, y)
    j, l = m.cell_jl(cells)
    xi = 2.0 * (np.asarray(x) - m.xc[j]) / m.dx
    eta = 2.0 * (np.asarray(y) - m.yc[l]) / m.dy
    return np.einsum("...m,...m->...", field.coeffs[cells], field.basis.vals(xi, eta))


def cell_average(field, cell=None):
    if cell is None:
        return field.coeffs[:, 0].copy()
    return float(field.coeffs[cell, 0])


def weighted_cell_average(field, weight, cell=None):
    """M-weighted mean per cell: int(M w) / int(M), by the shared quadrature.

    `weight` is a WeightField on the same mesh; its cached volume values
    define the quadrature. A constant weight reduces to the plain average.
    Leading axes of the field and the weight broadcast: the result has shape
    (..., n_cells), or (...) for one `cell`.
    """
    rule = weight.rule
    t = tables_for(field.mesh, rule)
    if field.mesh.dim == 1:
        num = np.einsum("q,...nq,...nq->...n", rule.weights, weight.vol,
                        field.coeffs @ t.vol.T)
        den = np.einsum("q,...nq->...n", rule.weights, weight.vol)
    else:
        w2 = rule.weights[:, None] * rule.weights[None, :]
        vals = np.einsum("...nm,stm->...nst", field.coeffs, t.vol)
        num = np.einsum("st,...nst,...nst->...n", w2, weight.vol, vals)
        den = np.einsum("st,...nst->...n", w2, weight.vol)
    if np.any(den <= 0):
        raise ValueError("nonpositive weight integral in weighted_cell_average")
    out = num / den
    if cell is None:
        return out
    return out[..., cell]


@dataclass
class FaceTrace:
    """Two-sided trace data on one face point set, oriented minus -> plus.

    On boundary faces the absent side is None and jump/average stay None.
    Scalars in 1D; arrays over the face quadrature nodes in 2D.
    """

    w_minus: object
    w_plus: object
    dn_minus: object
    dn_plus: object
    d2n_minus: object
    d2n_plus: object
    h_e: float

    @property
    def jump(self):
        if self.w_minus is None or self.w_plus is None:
            return None
        return self.w_plus - self.w_minus

    @property
    def avg(self):
        if self.w_minus is None or self.w_plus is None:
            return None
        return 0.5 * (self.w_minus + self.w_plus)

    @property
    def dn_avg(self):
        if self.dn_minus is None or self.dn_plus is None:
            return None
        return 0.5 * (self.dn_minus + self.dn_plus)

    @property
    def d2n_jump(self):
        if self.d2n_minus is None or self.d2n_plus is None:
            return None
        return self.d2n_plus - self.d2n_minus


def face_trace(field, face, rule=DEFAULT_RULE):
    """Extract the FaceTrace of a field on one face.

    1D: `face` is the interface index 0..n_cells. 2D: ('x', i, l) is the
    vertical face between cell columns i-1 and i on row l (i in 0..nx);
    ('y', i, j) is the horizontal face between cell rows i-1 and i on
    column j (i in 0..ny). Orientation is +x / +y (minus side below).
    """
    m = field.mesh
    c = field.coeffs
    if m.dim == 1:
        t = tables_for(m, rule)
        s = 2.0 / m.h
        left = face - 1 if face > 0 else None
        right = face if face < m.n_cells else None
        wm = dm = d2m = wp = dp = d2p = None
        if left is not None:
            wm = float(c[left] @ t.at_r)
            dm = s * float(c[left] @ t.d_at_r)
            d2m = s * s * float(c[left] @ t.d2_at_r)
        if right is not None:
            wp = float(c[right] @ t.at_l)
            dp = s * float(c[right] @ t.d_at_l)
            d2p = s * s * float(c[right] @ t.d2_at_l)
        return FaceTrace(wm, wp, dm, dp, d2m, d2p, m.h)
    t = tables_for(m, rule)
    axis, i, row = face
    if axis == "x":
        s = 2.0 / m.dx
        left = m.cell_index(i - 1, row) if i > 0 else None
        right = m.cell_index(i, row) if i < m.nx else None
        tv_m, td_m, td2_m = t.x_r, t.dx_r, t.d2x_r
        tv_p, td_p, td2_p = t.x_l, t.dx_l, t.d2x_l
        h_e = m.dx
    else:
        s = 2.0 / m.dy
        left = m.cell_index(row, i - 1) if i > 0 else None
        right = m.cell_index(row, i) if i < m.ny else None
        tv_m, td_m, td2_m = t.y_t, t.dy_t, t.d2y_t
        tv_p, td_p, td2_p = t.y_b, t.dy_b, t.d2y_b
        h_e = m.dy
    wm = dm = d2m = wp = dp = d2p = None
    if left is not None:
        wm, dm, d2m = tv_m @ c[left], s * (td_m @ c[left]), s * s * (td2_m @ c[left])
    if right is not None:
        wp, dp, d2p = tv_p @ c[right], s * (td_p @ c[right]), s * s * (td2_p @ c[right])
    return FaceTrace(wm, wp, dm, dp, d2m, d2p, h_e)


def ddg_flux(trace, params):
    """Numerical flux beta0*[w]/h_e + {dn w} + beta1*h_e*[dn^2 w]."""
    return (params.beta0 / trace.h_e) * trace.jump + trace.dn_avg \
        + params.beta1 * trace.h_e * trace.d2n_jump


def l1_error(field, reference, rule=DEFAULT_RULE, t=None):
    """Sum over cells of int |field - reference| by the given quadrature.

    `reference` is a callable (of x or x, y; with leading t argument when
    `t` is given) or another Field, possibly on a finer mesh.
    """
    m = field.mesh
    tb = tables_for(m, rule)
    if m.dim == 1:
        xq = m.quad_points(rule)
        ref = _ref_values(reference, t, (xq,))
        vals = field.coeffs @ tb.vol.T
        return float(np.einsum("q,nq->", rule.weights, np.abs(vals - ref)) * (m.h / 2.0))
    xq, yq = m.quad_points(rule)
    ref = _ref_values(reference, t, (xq, yq))
    w2 = rule.weights[:, None] * rule.weights[None, :]
    vals = np.einsum("nm,stm->nst", field.coeffs, tb.vol)
    return float(np.einsum("st,nst->", w2, np.abs(vals - ref)) * (m.dx * m.dy / 4.0))


def _ref_values(reference, t, coords):
    if isinstance(reference, Field):
        return eval_at_points(reference, *coords)
    if t is None:
        return np.asarray(reference(*coords), dtype=float)
    return np.asarray(reference(t, *coords), dtype=float)
