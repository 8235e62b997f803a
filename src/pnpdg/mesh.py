"""Uniform structured meshes: 1D interval partitions and 2D tensor rectangles.

Meshes are immutable after construction and safe to share across threads.
2D cells are flattened row-major over y: cell (j, l) -> index l*nx + j.
`shape` gives the cells per direction, `spacing` the cell size and `axes`
the cell centres per direction; a per-cell array reshaped to `grid` (the
shape reversed) has x as its last axis.
"""

import math
from functools import cached_property

import numpy as np

from .basis import CellQuadrature

# boundary side names per direction: (low, high)
SIDES = (("left", "right"), ("bottom", "top"))


class Mesh:
    """The box [lo, hi] cut into `shape` equal cells, one entry per direction."""

    def __init__(self, lo, hi, shape):
        self.lo = tuple(float(a) for a in lo)
        self.hi = tuple(float(b) for b in hi)
        self.shape = tuple(int(n) for n in shape)
        if min(self.shape) < 2:
            raise ValueError(f"need at least 2 cells per direction, got {self.shape}")
        if not all(b > a for a, b in zip(self.lo, self.hi)):
            raise ValueError(f"empty domain [{self.lo}, {self.hi}]")
        self.spacing = tuple((b - a) / n for a, b, n in zip(self.lo, self.hi, self.shape))
        self.axes = tuple(a + h * (np.arange(n) + 0.5)
                          for a, h, n in zip(self.lo, self.spacing, self.shape))
        for c in self.axes:
            c.flags.writeable = False
        self.dim = len(self.shape)
        self.n_cells = math.prod(self.shape)
        self.grid = self.shape[::-1]
        self.cell_volume = math.prod(self.spacing)

    @cached_property
    def quadrature(self):
        """The scheme's CellQuadrature on this mesh, built on first use."""
        return CellQuadrature(self)

    def locate(self, *x):
        """Cells containing physical points (clipped to the domain) and the
        points' reference coordinates there, one array per direction."""
        idx = [np.clip(np.floor((np.asarray(xd) - lo) / h).astype(int), 0, n - 1)
               for xd, lo, h, n in zip(x, self.lo, self.spacing, self.shape)]
        xi = tuple(2.0 * (np.asarray(xd) - c[i]) / h
                   for xd, c, i, h in zip(x, self.axes, idx, self.spacing))
        return np.ravel_multi_index(idx[::-1], self.grid), xi


def build_mesh_1d(x_lo, x_hi, n):
    return Mesh((x_lo,), (x_hi,), (n,))


def build_mesh_2d(lx, ly, nx, ny):
    return Mesh((0.0, 0.0), (lx, ly), (nx, ny))
