"""Piecewise-P2 modal fields: projection, evaluation, weighted averages, norms.

A Field stores one coefficient vector per cell, shape (n_cells, nb). A
field may carry leading axes, (..., n_cells, nb): the time loop holds all
species of one stage as a single (m_species, n_cells, nb) field, and
`cell_averages` and `weighted_cell_average` act per leading index.
Values at quadrature nodes, integrals and projections go through the
mesh's cached `CellQuadrature`.
"""

from dataclasses import dataclass

import numpy as np

from .basis import basis_for


@dataclass
class FluxParams:
    """DDG diffusive flux parameters (jump penalty beta0, second-derivative
    jump weight beta1)."""

    beta0: float
    beta1: float

    def in_positivity_range(self):
        return self.beta0 >= 1.0 and 0.125 <= self.beta1 <= 0.25


class Field:
    def __init__(self, mesh, coeffs):
        self.mesh = mesh
        self.basis = basis_for(mesh)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[-2:] != (mesh.n_cells, self.basis.nb):
            raise ValueError(
                f"coefficient array shape {coeffs.shape} != (..., {mesh.n_cells}, "
                f"{self.basis.nb})"
            )
        self.coeffs = coeffs

    @property
    def cell_averages(self):
        # leading modal coefficient is the cell mean
        return self.coeffs[..., 0]

    def __repr__(self):
        return f"Field(shape={self.coeffs.shape}, dim={self.mesh.dim})"


def project_l2(f, mesh):
    """Per-cell L2 projection of a callable f onto the P2 space.

    f takes vectorized physical coordinates: f(x) in 1D, f(x, y) in 2D.
    """
    quad = mesh.quadrature
    return Field(mesh, quad.project(np.asarray(f(*quad.points), dtype=float)))


def eval_at_points(field, *x):
    """Evaluate at arbitrary physical points (used for reference-field errors)."""
    cells, xi = field.mesh.locate(*x)
    return np.einsum("...m,...m->...", field.coeffs[cells], field.basis.vals(*xi))


def weighted_cell_average(field, weight, cell=None):
    """M-weighted mean per cell: int(M w) / int(M), by the shared quadrature.

    `weight` is a WeightField on the same mesh; its volume values define
    the quadrature and int(M) comes from its zeroth line moments. A
    constant weight reduces to the plain average. Leading axes of the field
    and the weight broadcast: the result has shape (..., n_cells), or (...)
    for one `cell`.
    """
    mesh = field.mesh
    quad = mesh.quadrature
    num = (weight.vol * quad.values(field.coeffs)) @ (quad.tables.w_flat / 2 ** mesh.dim)
    # the zeroth moments of the x lines, averaged over the cross direction
    across = quad.tables.faces[0].weights / 2 ** (mesh.dim - 1)
    den = weight.lines[..., :len(across), 0] @ across
    if np.any(den <= 0):
        raise ValueError("nonpositive weight integral in weighted_cell_average")
    out = num / den
    if cell is None:
        return out
    return out[..., cell]


def l1_error(field, reference, t=None):
    """Sum over cells of int |field - reference| by the mesh's quadrature.

    `reference` is a callable (of x or x, y; with leading t argument when
    `t` is given) or another Field, possibly on a finer mesh.
    """
    quad = field.mesh.quadrature
    ref = _ref_values(reference, t, quad.points)
    return quad.integrate(np.abs(quad.values(field.coeffs) - ref))


def _ref_values(reference, t, coords):
    if isinstance(reference, Field):
        return eval_at_points(reference, *coords)
    if t is None:
        return np.asarray(reference(*coords), dtype=float)
    return np.asarray(reference(t, *coords), dtype=float)
