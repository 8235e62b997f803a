"""Uniform structured meshes: 1D interval partitions and 2D tensor rectangles.

Meshes are immutable after construction and safe to share across threads.
2D cells are flattened row-major over y: cell (j, l) -> index l*nx + j.
`shape` gives the cells per direction and `spacing` the cell size per
direction; a per-cell array reshaped to `grid` (the shape reversed) has x
as its last axis.
"""

import math

import numpy as np

from .basis import CellQuadrature

# boundary side names per direction: (low, high)
SIDES = (("left", "right"), ("bottom", "top"))


class _Mesh:
    def _set_grid(self, shape, spacing, origin, axes):
        self.shape = shape
        self.spacing = spacing
        self.origin = origin
        self.axes = axes
        self.dim = len(shape)
        self.n_cells = math.prod(shape)
        self.grid = shape[::-1]
        self.cell_volume = math.prod(spacing)
        self._quadratures = {}

    def quadrature(self, rule):
        """The CellQuadrature of `rule` on this mesh, built once per rule."""
        if rule.n not in self._quadratures:
            self._quadratures[rule.n] = CellQuadrature(self, rule)
        return self._quadratures[rule.n]

    def locate(self, *x):
        """Cells containing physical points (clipped to the domain) and the
        points' reference coordinates there, one array per direction."""
        idx = [np.clip(np.floor((np.asarray(xd) - lo) / h).astype(int), 0, n - 1)
               for xd, lo, h, n in zip(x, self.origin, self.spacing, self.shape)]
        xi = tuple(2.0 * (np.asarray(xd) - c[i]) / h
                   for xd, c, i, h in zip(x, self.axes, idx, self.spacing))
        return np.ravel_multi_index(idx[::-1], self.grid), xi

    def cell_of(self, *x):
        """Cell indices containing physical points (clipped to the domain)."""
        return self.locate(*x)[0]


class Mesh1D(_Mesh):
    def __init__(self, x_lo, x_hi, n):
        if n < 2:
            raise ValueError(f"need at least 2 cells, got n={n}")
        if not x_hi > x_lo:
            raise ValueError(f"empty interval [{x_lo}, {x_hi}]")
        self.x_lo = float(x_lo)
        self.x_hi = float(x_hi)
        n = int(n)
        self.h = (self.x_hi - self.x_lo) / n
        self.interfaces = self.x_lo + self.h * np.arange(n + 1)
        self.centers = self.x_lo + self.h * (np.arange(n) + 0.5)
        self.interfaces.flags.writeable = False
        self.centers.flags.writeable = False
        self._set_grid((n,), (self.h,), (self.x_lo,), (self.centers,))

    @property
    def n_interior_faces(self):
        return self.n_cells - 1

    def to_reference(self, cells, x):
        """Map physical x in the given cells to reference coordinates in [-1, 1]."""
        return 2.0 * (np.asarray(x) - self.centers[cells]) / self.h

    def from_reference(self, cells, xi):
        return self.centers[cells] + 0.5 * self.h * np.asarray(xi)

    def quad_points(self, rule):
        """Physical quadrature nodes, shape (n_cells, rule.n), read-only."""
        return self.quadrature(rule).points[0]


class Mesh2D(_Mesh):
    def __init__(self, lx, ly, nx, ny):
        if nx < 2 or ny < 2:
            raise ValueError(f"need at least 2 cells per direction, got ({nx}, {ny})")
        if not (lx > 0 and ly > 0):
            raise ValueError(f"nonpositive domain extents ({lx}, {ly})")
        self.lx = float(lx)
        self.ly = float(ly)
        self.nx = int(nx)
        self.ny = int(ny)
        self.dx = self.lx / self.nx
        self.dy = self.ly / self.ny
        self.xc = self.dx * (np.arange(self.nx) + 0.5)
        self.yc = self.dy * (np.arange(self.ny) + 0.5)
        self.xc.flags.writeable = False
        self.yc.flags.writeable = False
        self._set_grid((self.nx, self.ny), (self.dx, self.dy), (0.0, 0.0), (self.xc, self.yc))

    @property
    def n_interior_faces(self):
        return (self.nx - 1) * self.ny + self.nx * (self.ny - 1)

    def cell_index(self, j, l):
        return l * self.nx + j


def build_mesh_1d(x_lo, x_hi, n):
    return Mesh1D(x_lo, x_hi, n)


def build_mesh_2d(lx, ly, nx, ny):
    return Mesh2D(lx, ly, nx, ny)
