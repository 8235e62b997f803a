"""DDG discretization of the Poisson equation with mixed Dirichlet/Neumann data.

The bilinear form uses the diffusive-flux jump pairing on interior faces,

    beta0/h_e [u][v] + {dn u}[v] + {dn v}[u] + beta1 h_e ([dn^2 u][v] + [dn^2 v][u]),

which is symmetric: it is beta0/h_e [u][v] + F0(u)[v] + F0(v)[u] with F0
the transport's DDG flux less its penalty, so the interior blocks come from
the same kernel, `FaceTables.flux`, applied to the basis functions. Its
quadratic form has the same penalty structure as the one-sided flux
pairing, so coercivity holds for beta0 above the usual threshold gamma_d.
Dirichlet faces carry penalty/consistency terms

    bb/h_e u v - dn(u) v - u dn(v),    bb = max(beta0, 2*gamma_d(k, 0)),

with the floor applied because the plain boundary penalty is exactly
critical at beta0 = k^2 (the assembled matrix becomes singular there).
Neumann faces contribute only load terms. The matrix is assembled once,
as CSC, and is symmetric bit for bit, with the zero-mean-gauge border or
without: every dense block is a sum of Q + Q^T terms and no two blocks
share an entry. It is factorized as assembled (minimum degree on A + A^T
in symmetric mode; threshold pivoting stays for the bordered matrix's zero
diagonal entry) and the factorization is reused for every load. The load
row of every boundary side is precomputed with the matrix.

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
    """The DDG matrix, factorized once, and the load row of every boundary side.

    `matrix` is the CSC matrix of the form; `system`, the matrix SuperLU
    factors, is `matrix` bordered by the cell-volume row and column under the
    zero-mean gauge and `matrix` itself otherwise. `boundary_rows` holds, per
    side, its data, cells, face weights, face-node coordinates and trace row:
    (bb/h) v - dn(v) on a Dirichlet side and v on a Neumann side.
    """

    def __init__(self, mesh, matrix, boundary_rows, gauge):
        self.mesh = mesh
        self.matrix = self.system = matrix
        self.boundary_rows = boundary_rows
        self.gauge = gauge
        if gauge:
            m = np.zeros(matrix.shape[0])
            m[::basis_for(mesh).nb] = mesh.cell_volume
            self.system = sps.bmat([[matrix, m[:, None]], [m[None, :], None]], format="csc")
        self._lu = spla.splu(self.system, permc_spec="MMD_AT_PLUS_A",
                             options=dict(SymmetricMode=True))

    def solve(self, load):
        """Solve for the potential field; the cached factorization is reused."""
        rhs = np.concatenate([load, [0.0]]) if self.gauge else load
        sol = self._lu.solve(rhs)[:len(load)]
        if not np.all(np.isfinite(sol)):
            raise NumericalFatalError("Poisson solve produced non-finite values")
        return Field(self.mesh, sol.reshape(self.mesh.n_cells, -1))


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
    # every dense block is a sum of Q + Q^T terms, so exactly symmetric, and
    # no two blocks share an entry: A == A^T holds bitwise
    Q = sum((0.5 * k) * ((ft.dvol.T * tb.w_flat) @ ft.dvol)
            for ft, k in zip(tb.faces, quad.stiffness))
    diag = np.broadcast_to(Q + Q.T, (mesh.n_cells, nb, nb)).copy()
    blocks, pairs, boundary_rows = [diag], [(cells.ravel(), cells.ravel())], []
    for d, (ft, h, fw) in enumerate(zip(tb.faces, mesh.spacing, quad.face_weights)):
        F = _interior_face_block(ft, h, fw, params, nb)
        minus, plus = cells[ft.minus].ravel(), cells[ft.plus].ravel()
        diag[minus] += F[:nb, :nb]
        diag[plus] += F[nb:, nb:]
        # an interior face couples its (minus, plus) cells by a block and its transpose
        blocks += [np.broadcast_to(F[:nb, nb:], (len(minus), nb, nb)),
                   np.broadcast_to(F[nb:, :nb], (len(minus), nb, nb))]
        pairs += [(minus, plus), (plus, minus)]
        for name, tv, td, sign, side in zip(SIDES[d], (ft.v_p, ft.v_m), (ft.d_p, ft.d_m),
                                             (-1.0, 1.0), quad.boundary_cells[d]):
            # Dirichlet: bb/h u v - dn(u) v - u dn(v) in the matrix, the data
            # times (bb/h) v - dn(v) in the load
            bcs, row = bc.sides[name], tv
            if bcs.kind == "dirichlet":
                dn = sign * (2.0 / h) * td
                tw = tv.T * fw
                Q = (0.5 * bb / h) * (tw @ tv) - tw @ dn
                diag[side] += Q + Q.T
                row = (bb / h) * tv - dn
            boundary_rows.append((bcs.data, side, fw, quad.face_points[d], row))
    vals = np.concatenate(blocks)
    row_cells, col_cells = (np.concatenate(x) for x in zip(*pairs))
    shift = np.arange(nb)
    rows = np.broadcast_to(nb * row_cells[:, None, None] + shift[:, None], vals.shape)
    cols = np.broadcast_to(nb * col_cells[:, None, None] + shift, vals.shape)
    nd = nb * mesh.n_cells
    A = sps.csc_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(nd, nd))
    gauge = bc.zero_mean_gauge and not bc.dirichlet_sides()
    return PoissonOperator(mesh, A, boundary_rows, gauge)


def _interior_face_block(ft, h, fw, params, nb):
    """Symmetric interior-face block over the stacked (minus, plus) cell dofs.

    The pairing beta0/h [u][v] + F0(u)[v] + F0(v)[u], integrated with the
    face weights fw, where F0 is the DDG flux without its penalty term, is
    Q + Q^T for Q = beta0/(2h) [u][v] + F0(u)[v]; the shared kernel gives F0
    and the jump of every basis function of the two cells.
    """
    unit = np.eye(2 * nb).reshape((2 * nb, 2) + (1,) * (-ft.axis - 2) + (nb,))
    gm, gp, flux0 = (a.reshape(2 * nb, -1) for a in ft.flux(unit, h, replace(params, beta0=0.0)))
    jmp = gp - gm
    Q = (0.5 * params.beta0 / h) * ((jmp * fw) @ jmp.T) + (flux0 * fw) @ jmp.T
    return Q + Q.T


def assemble_load(op, densities, load, t=0.0):
    """Right-hand-side vector at time t for the stacked density coefficients
    `densities`, (m_species, n_cells, nb), and the boundary data."""
    quad = op.mesh.quadrature
    gram = basis_for(op.mesh).gram
    charge = sum((q * c for q, c in zip(load.charges, densities)),
                 np.zeros((op.mesh.n_cells, len(gram))))
    b = (quad.jac * gram) * charge
    if load.rho0 is not None:
        b += quad.load(load.rho0(*quad.points))
    if load.extra_source is not None:
        b += quad.load_source(load.extra_source, t)
    for data, side, fw, tangent, row in op.boundary_rows:
        # data are scalar or (n_side, ns) values at the side's face nodes
        b[side] += (np.asarray(data(t, *tangent), dtype=float) * fw) @ row
    return b.ravel()
