"""Piecewise-P2 modal fields: projection, evaluation, norms.

A Field stores one coefficient vector per cell, shape (n_cells, nb). A
field may carry leading axes, (..., n_cells, nb): the time loop holds all
species of one stage as a single (m_species, n_cells, nb) field, and
`cell_averages` acts per leading index.
Values at quadrature nodes, integrals and projections go through the
mesh's cached `CellQuadrature`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .basis import basis_for
from .exceptions import ConfigError


@dataclass
class FluxParams:
    """DDG diffusive flux parameters (jump penalty beta0, second-derivative
    jump weight beta1)."""

    beta0: float
    beta1: float

    def __post_init__(self):
        for name in ("beta0", "beta1"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")

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
