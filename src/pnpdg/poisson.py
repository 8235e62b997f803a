"""DDG discretization of the Poisson equation with mixed Dirichlet/Neumann data.

The bilinear form uses the diffusive-flux jump pairing on interior faces,

    beta0/h_e [u][v] + {dn u}[v] + {dn v}[u] + beta1 h_e ([dn^2 u][v] + [dn^2 v][u]),

which is symmetric: it is beta0/h_e [u][v] + F0(u)[v] + F0(v)[u] with F0
the transport's DDG flux less its penalty, so the interior blocks come from
the same kernel, `FaceTables.flux`, applied to the basis functions. Its
quadratic form has the same penalty structure as the
one-sided flux pairing, so coercivity holds for beta0 above the usual
threshold gamma_d. Dirichlet faces carry penalty/consistency terms

    bb/h_e u v - dn(u) v - u dn(v),    bb = max(beta0, 2*gamma_d(k, 0)),

with the floor applied because the plain boundary penalty is exactly
critical at beta0 = k^2 (the assembled matrix becomes singular there).
Neumann faces contribute only load terms. The sparse matrix is constant in
time; it is factorized once and the factorization reused for every load.
The matrix is symmetric, so SuperLU orders it by minimum degree on A + A^T
in symmetric mode; threshold pivoting is kept, because the zero-mean-gauge
bordered matrix has a zero diagonal entry.

The load is int((sum_i q_i c_i + rho0 + f) v) plus the boundary terms. The
density part is the diagonal P2 mass matrix times the charge coefficients
(the integrand has degree 4, which the 4-point rule integrates exactly),
and a time-separable source f loads through its cached spatial loads
(`CellQuadrature.load_source`).
"""

import logging
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .basis import basis_for
from .exceptions import NumericalFatalError
from .field import Field
from .mesh import SIDES

log = logging.getLogger("pnpdg")


def gamma_d(k, beta1):
    """Coercivity threshold for the jump penalty: k^2 (1 - b1(k^2-1) + b1^2 (k^2-1)^2 / 3)."""
    if k not in (1, 2):
        raise ValueError(f"unsupported polynomial degree k={k}")
    m = k * k - 1
    return k * k * (1.0 - beta1 * m + (beta1 * beta1 / 3.0) * m * m)


@dataclass
class BoundaryCondition:
    kind: str      # 'dirichlet' | 'neumann'
    data: object   # callable: f(t) in 1D, f(t, s) along the face in 2D

    def __post_init__(self):
        if self.kind not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")


def dirichlet(data=lambda t, *s: 0.0):
    return BoundaryCondition("dirichlet", data)


def neumann(data=lambda t, *s: 0.0):
    return BoundaryCondition("neumann", data)


@dataclass
class PoissonBC:
    """Per-side boundary conditions; keys 'left','right' (+ 'bottom','top' in 2D)."""

    sides: dict
    zero_mean_gauge: bool = False

    def dirichlet_sides(self):
        return [s for s, bc in self.sides.items() if bc.kind == "dirichlet"]

    def validate(self, mesh):
        want = {name for pair in SIDES[:mesh.dim] for name in pair}
        if set(self.sides) != want:
            raise ValueError(f"boundary sides {sorted(self.sides)} != expected {sorted(want)}")
        if not self.dirichlet_sides() and not self.zero_mean_gauge:
            raise NumericalFatalError(
                "pure-Neumann Poisson problem without zero_mean_gauge; "
                "the operator would be singular"
            )


@dataclass
class LoadSpec:
    """Right-hand-side data: species charges, fixed charge, optional extra source."""

    charges: list
    rho0: object = None           # rho0(x[, y])
    extra_source: object = None   # f(t, x[, y]), manufactured problems only


class PoissonOperator:
    def __init__(self, mesh, params, bc, matrix, boundary_penalty):
        self.mesh = mesh
        self.params = params
        self.bc = bc
        self.matrix = matrix
        self.boundary_penalty = boundary_penalty
        self.gauge = bc.zero_mean_gauge and not bc.dirichlet_sides()
        self.ndof = matrix.shape[0]
        self.nb = basis_for(mesh).nb
        if self.gauge:
            m = np.zeros(self.ndof)
            m[::self.nb] = mesh.cell_volume
            matrix = sps.bmat([[matrix, m[:, None]], [m[None, :], None]])
        self._lu = spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                             options=dict(SymmetricMode=True))

    def solve(self, load):
        """Solve for the potential field; the cached factorization is reused."""
        if self.gauge:
            rhs = np.concatenate([load, [0.0]])
            sol = self._lu.solve(rhs)[:-1]
        else:
            sol = self._lu.solve(load)
        if not np.all(np.isfinite(sol)):
            raise NumericalFatalError("Poisson solve produced non-finite values")
        return Field(self.mesh, sol.reshape(self.mesh.n_cells, self.nb))


def _sides(quad, d):
    """Both boundary sides of direction d: name, one-sided trace and normal
    derivative tables, outward normal sign and the boundary cells."""
    ft = quad.tables.faces[d]
    lo, hi = quad.boundary_cells[d]
    return ((SIDES[d][0], ft.v_p, ft.d_p, -1.0, lo), (SIDES[d][1], ft.v_m, ft.d_m, 1.0, hi))


def assemble_operator(mesh, params, bc):
    """Assemble and factorize the Poisson DDG matrix for the given mesh/BC."""
    bc.validate(mesh)
    thresh = gamma_d(2, params.beta1)
    if params.beta0 <= thresh:
        log.warning(
            "Poisson beta0=%g is at or below the interior coercivity threshold "
            "gamma_d(beta1)=%g; the bound is sufficient only, continuing", params.beta0, thresh,
        )
    bb = max(params.beta0, 2.0 * gamma_d(2, 0.0))
    quad = mesh.quadrature
    tb = quad.tables
    nb = basis_for(mesh).nb
    cells = np.arange(mesh.n_cells).reshape(mesh.grid + (1,))
    every = cells.ravel()
    svol = sum(k * ((ft.dvol.T * tb.w_flat) @ ft.dvol) for ft, k in zip(tb.faces, quad.stiffness))
    blocks = [(svol, every, every)]
    for d, (ft, h, fw) in enumerate(zip(tb.faces, mesh.spacing, quad.face_weights)):
        # interior faces couple the stacked dofs of their (minus, plus) cells
        F = _interior_face_block(ft, h, fw, params, nb)
        pair = (cells[ft.minus].ravel(), cells[ft.plus].ravel())
        for i, r in enumerate(pair):
            for j, col in enumerate(pair):
                blocks.append((F[i * nb:(i + 1) * nb, j * nb:(j + 1) * nb], r, col))
        for name, tv, td, sign, side in _sides(quad, d):
            if bc.sides[name].kind == "dirichlet":
                blocks.append((_dirichlet_block(tv, td, sign, h, fw, bb), side, side))
    # tile each dense (nb, nb) block over its cell pairs, block by block in
    # the order above: the duplicate entries sum in that order
    mats, row_cells, col_cells = zip(*blocks)
    vals = np.repeat(np.stack(mats), [len(r) for r in row_cells], axis=0)
    shift = np.arange(nb)
    rows = nb * np.concatenate(row_cells)[:, None, None] + shift[:, None]
    cols = nb * np.concatenate(col_cells)[:, None, None] + shift
    rows, cols = (np.broadcast_to(x, vals.shape).ravel() for x in (rows, cols))
    nd = nb * mesh.n_cells
    A = sps.csr_matrix((vals.ravel(), (rows, cols)), shape=(nd, nd))
    return PoissonOperator(mesh, params, bc, A, bb)


def _interior_face_block(ft, h, fw, params, nb):
    """Symmetric interior-face block over the stacked (minus, plus) cell dofs.

    The pairing is beta0/h [u][v] + F0(u)[v] + F0(v)[u], integrated with the
    face weights fw, where F0 is the DDG flux without its penalty term; the
    shared kernel gives F0 and the jump of every basis function of the two
    cells.
    """
    unit = np.eye(2 * nb).reshape((2 * nb, 2) + (1,) * (-ft.axis - 2) + (nb,))
    gm, gp, flux0 = (a.reshape(2 * nb, -1) for a in ft.flux(unit, h, replace(params, beta0=0.0)))
    jmp = gp - gm
    P = (flux0 * fw) @ jmp.T
    return (params.beta0 / h) * ((jmp * fw) @ jmp.T) + (P + P.T)


def _dirichlet_block(tv, td, sign, h_e, face_w, bb):
    dn = sign * (2.0 / h_e) * td
    def pair(u, v):
        return np.einsum("s,sm,sl->ml", face_w, u, v)
    return (bb / h_e) * pair(tv, tv) - pair(tv, dn) - pair(dn, tv)


def assemble_load(op, densities, load, t=0.0):
    """Right-hand-side vector at time t for the stacked density coefficients
    `densities`, (m_species, n_cells, nb), and the boundary data."""
    mesh = op.mesh
    quad = mesh.quadrature
    bb = op.boundary_penalty
    gram = basis_for(mesh).gram
    charge = sum((q * c for q, c in zip(load.charges, densities)),
                 np.zeros((mesh.n_cells, len(gram))))
    b = (quad.jac * gram) * charge
    if load.rho0 is not None:
        b += quad.load(load.rho0(*quad.points))
    if load.extra_source is not None:
        b += quad.load_source(load.extra_source, t)
    for d, (h, fw, tangent) in enumerate(zip(mesh.spacing, quad.face_weights, quad.face_points)):
        for name, tv, td, sign, side in _sides(quad, d):
            bcs = op.bc.sides[name]
            if bcs.kind == "dirichlet":
                tv = (bb / h) * tv - sign * (2.0 / h) * td
            # data are scalar or (n_side, ns) values at the side's face nodes
            b[side] += (np.asarray(bcs.data(t, *tangent), dtype=float) * fw) @ tv
    return b.ravel()
