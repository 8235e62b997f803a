"""DDG discretization of the Poisson equation with mixed Dirichlet/Neumann data.

The bilinear form uses the diffusive-flux jump pairing on interior faces,

    beta0/h_e [u][v] + {dn u}[v] + {dn v}[u] + beta1 h_e ([dn^2 u][v] + [dn^2 v][u]),

which is symmetric; its quadratic form has the same penalty structure as the
one-sided flux pairing, so coercivity holds for beta0 above the usual
threshold gamma_d. Dirichlet faces carry penalty/consistency terms

    bb/h_e u v - dn(u) v - u dn(v),    bb = max(beta0, 2*gamma_d(k, 0)),

with the floor applied because the plain boundary penalty is exactly
critical at beta0 = k^2 (the assembled matrix becomes singular there).
Neumann faces contribute only load terms. The sparse matrix is constant in
time; it is factorized once and the factorization reused for every load.
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from .basis import tables_for
from .exceptions import NumericalFatalError
from .field import DEFAULT_RULE, Field

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


def dirichlet(data=lambda t: 0.0):
    return BoundaryCondition("dirichlet", data)


def neumann(data=lambda t: 0.0):
    return BoundaryCondition("neumann", data)


@dataclass
class PoissonBC:
    """Per-side boundary conditions; keys 'left','right' (+ 'bottom','top' in 2D)."""

    sides: dict
    zero_mean_gauge: bool = False

    def dirichlet_sides(self):
        return [s for s, bc in self.sides.items() if bc.kind == "dirichlet"]

    def validate(self, mesh):
        want = {"left", "right"} if mesh.dim == 1 else {"left", "right", "bottom", "top"}
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
    def __init__(self, mesh, params, bc, rule, matrix, boundary_penalty):
        self.mesh = mesh
        self.params = params
        self.bc = bc
        self.rule = rule
        self.matrix = matrix
        self.boundary_penalty = boundary_penalty
        self.gauge = bc.zero_mean_gauge and not bc.dirichlet_sides()
        self.ndof = matrix.shape[0]
        if self.gauge:
            m = np.zeros(self.ndof)
            vol = mesh.h if mesh.dim == 1 else mesh.dx * mesh.dy
            nb = 3 if mesh.dim == 1 else 6
            m[::nb] = vol
            bordered = sps.bmat(
                [[matrix, m[:, None]], [m[None, :], None]], format="csc"
            )
            self._lu = spla.splu(bordered)
        else:
            self._lu = spla.splu(matrix.tocsc())

    def solve(self, load):
        """Solve for the potential field; the cached factorization is reused."""
        if self.gauge:
            rhs = np.concatenate([load, [0.0]])
            sol = self._lu.solve(rhs)[:-1]
        else:
            sol = self._lu.solve(load)
        if not np.all(np.isfinite(sol)):
            raise NumericalFatalError("Poisson solve produced non-finite values")
        nb = 3 if self.mesh.dim == 1 else 6
        return Field(self.mesh, sol.reshape(self.mesh.n_cells, nb), role="potential")


def _coo_blocks(blocks, row_bases, col_bases, nb_r, nb_c):
    """Tile identical or per-face dense blocks over faces given dof base offsets."""
    nfaces = len(row_bases)
    b = np.broadcast_to(blocks, (nfaces, nb_r, nb_c))
    rows = (row_bases[:, None, None] + np.arange(nb_r)[None, :, None])
    cols = (col_bases[:, None, None] + np.arange(nb_c)[None, None, :])
    rows = np.broadcast_to(rows, (nfaces, nb_r, nb_c))
    cols = np.broadcast_to(cols, (nfaces, nb_r, nb_c))
    return rows.ravel(), cols.ravel(), b.ravel()


def assemble_operator(mesh, params, bc, rule=DEFAULT_RULE):
    """Assemble and factorize the Poisson DDG matrix for the given mesh/BC."""
    bc.validate(mesh)
    thresh = gamma_d(2, params.beta1)
    if params.beta0 <= thresh:
        log.warning(
            "Poisson beta0=%g is at or below the interior coercivity threshold "
            "gamma_d(beta1)=%g; the bound is sufficient only, continuing", params.beta0, thresh,
        )
    bb = max(params.beta0, 2.0 * gamma_d(2, 0.0))
    if mesh.dim == 1:
        A = _assemble_1d(mesh, params, bc, rule, bb)
    else:
        A = _assemble_2d(mesh, params, bc, rule, bb)
    return PoissonOperator(mesh, params, bc, rule, A, bb)


def _face_block(tv_m, tv_p, td_m, td_p, td2_m, td2_p, h_e, face_w, beta0, beta1):
    """Symmetric interior-face block over the stacked (minus, plus) cell dofs.

    Per-side trace tables are (ns, nb) over the face points; face_w are the
    quadrature weights times the face Jacobian (a single 1 in 1D).
    """
    z = np.zeros_like(tv_m)
    tv_m, tv_p = np.concatenate([tv_m, z], 1), np.concatenate([z, tv_p], 1)
    td_m, td_p = np.concatenate([td_m, z], 1), np.concatenate([z, td_p], 1)
    td2_m, td2_p = np.concatenate([td2_m, z], 1), np.concatenate([z, td2_p], 1)
    s = 2.0 / h_e
    jmp = tv_p - tv_m
    avg_d = 0.5 * s * (td_m + td_p)
    jmp_d2 = s * s * (td2_p - td2_m)
    def pair(u, v):
        return np.einsum("s,sm,sl->ml", face_w, u, v)
    F = (beta0 / h_e) * pair(jmp, jmp)
    F += pair(jmp, avg_d) + pair(avg_d, jmp)
    F += beta1 * h_e * (pair(jmp, jmp_d2) + pair(jmp_d2, jmp))
    return F


def _dirichlet_block(tv, td, sign, h_e, face_w, bb):
    dn = sign * (2.0 / h_e) * td
    def pair(u, v):
        return np.einsum("s,sm,sl->ml", face_w, u, v)
    return (bb / h_e) * pair(tv, tv) - pair(tv, dn) - pair(dn, tv)


def _assemble_1d(mesh, params, bc, rule, bb):
    t = tables_for(mesh, rule)
    n, h = mesh.n_cells, mesh.h
    svol = (2.0 / h) * np.einsum("q,qm,ql->ml", rule.weights, t.dvol, t.dvol)
    one = np.ones(1)
    F = _face_block(
        t.at_r[None, :], t.at_l[None, :], t.d_at_r[None, :], t.d_at_l[None, :],
        t.d2_at_r[None, :], t.d2_at_l[None, :], h, one, params.beta0, params.beta1,
    )
    rows, cols, vals = [], [], []
    base = 3 * np.arange(n)
    r, c, v = _coo_blocks(svol, base, base, 3, 3)
    rows.append(r); cols.append(c); vals.append(v)
    # interior faces couple stacked dofs of cells (i-1, i)
    fb = 3 * np.arange(n - 1)
    for bi, rb in enumerate((fb, fb + 3)):
        for bj, cb in enumerate((fb, fb + 3)):
            blk = F[3 * bi:3 * bi + 3, 3 * bj:3 * bj + 3]
            r, c, v = _coo_blocks(blk, rb, cb, 3, 3)
            rows.append(r); cols.append(c); vals.append(v)
    for side, tv, td, sign, cell in (
        ("left", t.at_l, t.d_at_l, -1.0, 0),
        ("right", t.at_r, t.d_at_r, +1.0, n - 1),
    ):
        if bc.sides[side].kind == "dirichlet":
            blk = _dirichlet_block(tv[None, :], td[None, :], sign, h, one, bb)
            r, c, v = _coo_blocks(blk, np.array([3 * cell]), np.array([3 * cell]), 3, 3)
            rows.append(r); cols.append(c); vals.append(v)
    return sps.csr_matrix(
        sps.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(3 * n, 3 * n),
        )
    )


def _assemble_2d(mesh, params, bc, rule, bb):
    t = tables_for(mesh, rule)
    nx, ny, dx, dy = mesh.nx, mesh.ny, mesh.dx, mesh.dy
    w2 = rule.weights[:, None] * rule.weights[None, :]
    svol = (dy / dx) * np.einsum("st,stm,stl->ml", w2, t.dxi, t.dxi) \
        + (dx / dy) * np.einsum("st,stm,stl->ml", w2, t.deta, t.deta)
    Fx = _face_block(t.x_r, t.x_l, t.dx_r, t.dx_l, t.d2x_r, t.d2x_l,
                     dx, rule.weights * (dy / 2.0), params.beta0, params.beta1)
    Fy = _face_block(t.y_t, t.y_b, t.dy_t, t.dy_b, t.d2y_t, t.d2y_b,
                     dy, rule.weights * (dx / 2.0), params.beta0, params.beta1)
    rows, cols, vals = [], [], []
    base = 6 * np.arange(mesh.n_cells)
    r, c, v = _coo_blocks(svol, base, base, 6, 6)
    rows.append(r); cols.append(c); vals.append(v)
    # interior x-faces: cells (j, l) and (j+1, l)
    j, l = np.meshgrid(np.arange(nx - 1), np.arange(ny), indexing="ij")
    left = 6 * (l.ravel() * nx + j.ravel())
    _append_face(rows, cols, vals, Fx, left, left + 6)
    # interior y-faces: cells (j, l) and (j, l+1)
    j, l = np.meshgrid(np.arange(nx), np.arange(ny - 1), indexing="ij")
    below = 6 * (l.ravel() * nx + j.ravel())
    _append_face(rows, cols, vals, Fy, below, below + 6 * nx)
    side_faces = {
        "left": (t.x_l, t.dx_l, -1.0, dx, dy, 6 * (np.arange(ny) * nx)),
        "right": (t.x_r, t.dx_r, +1.0, dx, dy, 6 * (np.arange(ny) * nx + nx - 1)),
        "bottom": (t.y_b, t.dy_b, -1.0, dy, dx, 6 * np.arange(nx)),
        "top": (t.y_t, t.dy_t, +1.0, dy, dx, 6 * ((ny - 1) * nx + np.arange(nx))),
    }
    for side, (tv, td, sign, h_e, h_tan, bases) in side_faces.items():
        if bc.sides[side].kind == "dirichlet":
            blk = _dirichlet_block(tv, td, sign, h_e, rule.weights * (h_tan / 2.0), bb)
            r, c, v = _coo_blocks(blk, bases, bases, 6, 6)
            rows.append(r); cols.append(c); vals.append(v)
    nd = 6 * mesh.n_cells
    return sps.csr_matrix(
        sps.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(nd, nd),
        )
    )


def _append_face(rows, cols, vals, F, minus_base, plus_base):
    for bi, rb in enumerate((minus_base, plus_base)):
        for bj, cb in enumerate((minus_base, plus_base)):
            blk = F[6 * bi:6 * bi + 6, 6 * bj:6 * bj + 6]
            r, c, v = _coo_blocks(blk, rb, cb, 6, 6)
            rows.append(r); cols.append(c); vals.append(v)


def assemble_load(op, densities, load, t=0.0):
    """Right-hand-side vector for given densities and boundary data at time t."""
    mesh, rule = op.mesh, op.rule
    tb = tables_for(mesh, rule)
    bb = op.boundary_penalty
    if mesh.dim == 1:
        xq = mesh.quad_points(rule)
        src = np.zeros_like(xq)
        for q, c in zip(load.charges, densities):
            src += q * (c.coeffs @ tb.vol.T)
        if load.rho0 is not None:
            src += load.rho0(xq)
        if load.extra_source is not None:
            src += load.extra_source(t, xq)
        b = np.einsum("q,nq,qm->nm", rule.weights, src, tb.vol) * (mesh.h / 2.0)
        h = mesh.h
        for side, tv, td, sign, cell in (
            ("left", tb.at_l, tb.d_at_l, -1.0, 0),
            ("right", tb.at_r, tb.d_at_r, +1.0, mesh.n_cells - 1),
        ):
            bcs = op.bc.sides[side]
            if bcs.kind == "dirichlet":
                dn = sign * (2.0 / h) * td
                b[cell] += float(bcs.data(t)) * ((bb / h) * tv - dn)
            else:
                b[cell] += float(bcs.data(t)) * tv
        return b.ravel()
    src = np.zeros((mesh.n_cells, rule.n * rule.n))
    for q, c in zip(load.charges, densities):
        src += q * (c.coeffs @ tb.vol_flat.T)
    if load.rho0 is not None or load.extra_source is not None:
        xq, yq = mesh.quad_points(rule)
        if load.rho0 is not None:
            src += load.rho0(xq, yq).reshape(mesh.n_cells, -1)
        if load.extra_source is not None:
            src += load.extra_source(t, xq, yq).reshape(mesh.n_cells, -1)
    b = ((src * tb.w2_flat) @ tb.vol_flat) * (mesh.dx * mesh.dy / 4.0)
    qn = rule.nodes
    face_data = {
        "left": (tb.x_l, tb.dx_l, -1.0, mesh.dx, mesh.dy,
                 np.arange(mesh.ny) * mesh.nx, mesh.yc[:, None] + 0.5 * mesh.dy * qn[None, :]),
        "right": (tb.x_r, tb.dx_r, +1.0, mesh.dx, mesh.dy,
                  np.arange(mesh.ny) * mesh.nx + mesh.nx - 1,
                  mesh.yc[:, None] + 0.5 * mesh.dy * qn[None, :]),
        "bottom": (tb.y_b, tb.dy_b, -1.0, mesh.dy, mesh.dx,
                   np.arange(mesh.nx), mesh.xc[:, None] + 0.5 * mesh.dx * qn[None, :]),
        "top": (tb.y_t, tb.dy_t, +1.0, mesh.dy, mesh.dx,
                (mesh.ny - 1) * mesh.nx + np.arange(mesh.nx),
                mesh.xc[:, None] + 0.5 * mesh.dx * qn[None, :]),
    }
    for side, (tv, td, sign, h_e, h_tan, cells, s_pts) in face_data.items():
        bcs = op.bc.sides[side]
        data = np.asarray(bcs.data(t, s_pts), dtype=float)
        data = np.broadcast_to(data, s_pts.shape)
        fw = rule.weights * (h_tan / 2.0)
        if bcs.kind == "dirichlet":
            dn = sign * (2.0 / h_e) * td
            b[cells] += np.einsum("s,fs,sm->fm", fw, data, (bb / h_e) * tv - dn)
        else:
            b[cells] += np.einsum("s,fs,sm->fm", fw, data, tv)
    return b.ravel()
