"""Uniform structured meshes: 1D interval partitions and 2D tensor rectangles.

Meshes are immutable after construction and safe to share across threads.
2D cells are flattened row-major over y: cell (j, l) -> index l*nx + j.
"""

import numpy as np


class Mesh1D:
    def __init__(self, x_lo, x_hi, n):
        if n < 2:
            raise ValueError(f"need at least 2 cells, got n={n}")
        if not x_hi > x_lo:
            raise ValueError(f"empty interval [{x_lo}, {x_hi}]")
        self.x_lo = float(x_lo)
        self.x_hi = float(x_hi)
        self.n_cells = int(n)
        self.h = (self.x_hi - self.x_lo) / self.n_cells
        self.interfaces = self.x_lo + self.h * np.arange(self.n_cells + 1)
        self.centers = self.x_lo + self.h * (np.arange(self.n_cells) + 0.5)
        self.interfaces.flags.writeable = False
        self.centers.flags.writeable = False

    dim = 1

    @property
    def n_interior_faces(self):
        return self.n_cells - 1

    def cell_of(self, x):
        """Cell indices containing physical points x (clipped to the domain)."""
        idx = np.floor((np.asarray(x) - self.x_lo) / self.h).astype(int)
        return np.clip(idx, 0, self.n_cells - 1)

    def to_reference(self, cells, x):
        """Map physical x in the given cells to reference coordinates in [-1, 1]."""
        return 2.0 * (np.asarray(x) - self.centers[cells]) / self.h

    def from_reference(self, cells, xi):
        return self.centers[cells] + 0.5 * self.h * np.asarray(xi)

    def quad_points(self, rule):
        """Physical quadrature nodes, shape (n_cells, rule.n)."""
        return self.centers[:, None] + 0.5 * self.h * rule.nodes[None, :]


class Mesh2D:
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

    dim = 2

    @property
    def n_cells(self):
        return self.nx * self.ny

    @property
    def n_interior_faces(self):
        return (self.nx - 1) * self.ny + self.nx * (self.ny - 1)

    def cell_index(self, j, l):
        return l * self.nx + j

    def cell_jl(self, n):
        return n % self.nx, n // self.nx

    def cell_of(self, x, y):
        j = np.clip(np.floor(np.asarray(x) / self.dx).astype(int), 0, self.nx - 1)
        l = np.clip(np.floor(np.asarray(y) / self.dy).astype(int), 0, self.ny - 1)
        return l * self.nx + j

    def centers(self, n):
        j, l = self.cell_jl(np.asarray(n))
        return self.xc[j], self.yc[l]

    def quad_points(self, rule):
        """Physical tensor quadrature nodes: two arrays of shape (n_cells, n, n).

        First index of the (n, n) block varies the x-node, second the y-node.
        """
        q = rule.nodes
        x = self.xc[None, :, None, None] + 0.5 * self.dx * q[None, None, :, None]
        y = self.yc[:, None, None, None] + 0.5 * self.dy * q[None, None, None, :]
        shape = (self.n_cells, rule.n, rule.n)
        return (np.broadcast_to(x, (self.ny, self.nx, rule.n, rule.n)).reshape(shape),
                np.broadcast_to(y, (self.ny, self.nx, rule.n, rule.n)).reshape(shape))


def build_mesh_1d(x_lo, x_hi, n):
    return Mesh1D(x_lo, x_hi, n)


def build_mesh_2d(lx, ly, nx, ny):
    return Mesh2D(lx, ly, nx, ny)
