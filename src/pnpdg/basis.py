"""Modal Legendre bases of degree 2 on the reference element, their tables
and the DDG face flux.

1D: {1, xi, (3 xi^2 - 1)/2}, orthogonal on [-1, 1].
2D: the six tensor products of total degree <= 2 on [-1, 1]^2.

The first basis function is 1, so the leading modal coefficient of any
field is its cell average.

Per-cell arrays are laid out on the cell grid, (..., *mesh.grid, nb), with
x the last grid axis. Direction d (0 = x, 1 = y) has one `FaceTables`:
its trace tables on the faces normal to d, its volume derivative table and
its face weights. 1D is the x-direction alone, with one node per face and
face weight 1, so one flux kernel, `FaceTables.flux`, serves both
dimensions.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np

K = 2  # fixed polynomial degree


def legendre_vals(xi):
    """Values of L0, L1, L2 at xi; output shape xi.shape + (3,)."""
    xi = np.asarray(xi, dtype=float)
    return np.stack([np.ones_like(xi), xi, 0.5 * (3.0 * xi * xi - 1.0)], axis=-1)


def legendre_dvals(xi):
    xi = np.asarray(xi, dtype=float)
    return np.stack([np.zeros_like(xi), np.ones_like(xi), 3.0 * xi], axis=-1)


def legendre_d2vals(xi):
    xi = np.asarray(xi, dtype=float)
    z = np.zeros_like(xi)
    return np.stack([z, z, np.full_like(xi, 3.0)], axis=-1)


LEGENDRE = (legendre_vals, legendre_dvals, legendre_d2vals)

# reference Gram diagonal: int_{-1}^{1} L_m^2 dxi
GRAM_1D = np.array([2.0, 2.0 / 3.0, 2.0 / 5.0])

# basis functions as per-direction Legendre degrees, total degree <= 2
PAIRS_1D = ((0,), (1,), (2,))
PAIRS_2D = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


# the scheme's Gauss rule: every weighted integral uses it, so the weighted
# average equals the test-set decomposition and the limiter keeps it exactly.
# It is the 4-point Gauss-Legendre rule on [-1, 1], written out: nodes
# -/+sqrt(3/7 +/- (2/7) sqrt(6/5)) in increasing order and weights
# (18 -/+ sqrt(30))/36, these as literal doubles (the closed form rounds the
# outer weight 2 ulp away from the one every stored output was computed with)
_X = [math.sqrt(3 / 7 + s * math.sqrt(6 / 5)) for s in (2 / 7, -2 / 7)]
_W = [float.fromhex("0x1.64340f7e7b669p-2"), float.fromhex("0x1.4de5f840c24cap-1")]
RULE = SimpleNamespace(n=4, nodes=np.array([-_X[0], -_X[1], _X[1], _X[0]]),
                       weights=np.array(_W + _W[::-1]))
RULE.nodes.flags.writeable = RULE.weights.flags.writeable = False


def _node_grid(k):
    """Tensor grid of the rule's nodes in k directions: k arrays of shape (nq,)*k."""
    return np.meshgrid(*[RULE.nodes] * k, indexing="ij")


def _tensor_weights(k):
    """Tensor-product weights of the rule in k directions, flattened like the grid."""
    w = np.ones(1)
    for _ in range(k):
        w = np.multiply.outer(w, RULE.weights).ravel()
    return w


class FaceTables:
    """DDG tables of direction d on the reference element.

    `v_m`, `d_m`, `d2_m` are the value, d/dxi_d and d2/dxi_d2 traces of the
    minus-side cell (at xi_d = +1), `v_p`, `d_p`, `d2_p` those of the
    plus-side cell (at xi_d = -1), each (ns, nb) over the ns face nodes.
    `dvol` is d/dxi_d at the volume nodes, `weights` the reference face
    weights, `line_coeffs` the Legendre coefficients along d of every basis
    function on the quadrature lines through the face nodes, (nb, ns*3),
    and `axis` the grid axis of d in a (..., *grid, nb) array.
    `minus`, `plus` and `inner` index the minus- and plus-side cells of the
    interior faces in such an array, and the interior faces in an array
    over all faces.
    """

    def __init__(self, basis, d):
        self.dim = dim = basis.dim
        self.axis = -(d + 2)
        # the faces' minus-side cells, plus-side cells, and the interior faces
        self.minus, self.plus, self.inner = (self.at(s) for s in (
            slice(None, -1), slice(1, None), slice(1, -1)))
        tangent = [a.ravel() for a in _node_grid(dim - 1)]
        self.weights = _tensor_weights(dim - 1)

        def table(k, xi):   # k-th derivative along d
            return basis.table(tuple(k if i == d else 0 for i in range(dim)), *xi)

        for side, names in ((1.0, ("v_m", "d_m", "d2_m")), (-1.0, ("v_p", "d_p", "d2_p"))):
            xi = tangent[:d] + [np.full(len(self.weights), side)] + tangent[d:]
            for k, name in enumerate(names):
                setattr(self, name, table(k, xi))
        self.dvol = table(1, _node_grid(dim)).reshape(-1, basis.nb)
        # on the line of direction d through face node s, basis function m is
        # a Legendre series in xi_d with coefficients line_coeffs[m, 3s:3s+3]; one
        # line per cell and the identity in 1D
        line = np.zeros((basis.nb, len(self.weights), K + 1))
        for m, p in enumerate(basis.pairs):
            line[m, :, p[d]] = math.prod((legendre_vals(x)[:, a] for x, a in
                                          zip(tangent, p[:d] + p[d + 1:])), start=1.0)
        self.line_coeffs = line.reshape(basis.nb, -1)

    def at(self, s):
        """Index of grid position(s) `s` along this direction."""
        return (Ellipsis, s) + (slice(None),) * (-self.axis - 1)

    def flux(self, c, h, params):
        """DDG flux beta0 [w]/h + {dn w} + beta1 h [dn^2 w] on every interior face.

        `c` holds modal coefficients on the cell grid, (..., *grid, nb);
        returns the minus- and plus-side traces of w and the flux, each
        (..., n_faces, ns) with the faces in grid order.
        """
        flat = c.shape[:c.ndim - self.dim - 1] + (-1, c.shape[-1])
        cm, cp = c[self.minus].reshape(flat), c[self.plus].reshape(flat)
        gm, gp = cm @ self.v_m.T, cp @ self.v_p.T
        s = 2.0 / h
        flux = (params.beta0 / h) * (gp - gm) + 0.5 * s * (cm @ self.d_m.T + cp @ self.d_p.T) \
            + params.beta1 * h * s * s * (cp @ self.d2_p.T - cm @ self.d2_m.T)
        return gm, gp, flux


def _polish_projection(vals, weights, gram):
    """Projection table P with P @ vals = I to quadratic precision.

    The Newton polish brings P @ vals closer to I, yet projecting through P
    is not exact (a constant keeps ~1e-16 in its higher modes); the neutral
    state is exact by `SpeciesSpec.init_coeffs` and `weighted_projection`'s
    `m_ref`.
    """
    P = (vals * weights[:, None]).T / gram[:, None]
    for _ in range(2):
        P = P + (np.eye(P.shape[0]) - P @ vals) @ P
    return P


class Basis:
    """Tensor products of Legendre polynomials, one degree tuple per function,
    and their tables under the scheme's rule: the values at the tensor
    quadrature nodes (`vol`, flattened to (nq^dim, nb) in `vol_flat`), the
    weighted products of pairs of them (`vol_pairs`, whose columns
    `pair_rows[m]` hold row m of the upper triangle), the projection and
    moment tables, the moment and coefficient tables of every
    quadrature line, one FaceTables per direction, `nodes_traces` (the
    values at the volume nodes stacked over the high and the low trace of
    every direction) and the weights of the cell mean."""

    def __init__(self, pairs):
        self.pairs = pairs
        self.dim = dim = len(pairs[0])
        self.nb = len(pairs)
        self.gram = np.array([math.prod(GRAM_1D[a] for a in p) for p in pairs])
        q = RULE.nodes
        self.vol = self.vals(*_node_grid(dim))
        self.vol_flat = self.vol.reshape(-1, self.nb)
        self.w_flat = _tensor_weights(dim)
        # weighted projection table: per volume node the products
        # w_q phi_m phi_l, m <= l, with the rows m of the upper triangle one
        # after another, and a last row with the reference Gram matrix on
        # the same entries
        pairs = [(i, j) for i in range(self.nb) for j in range(i, self.nb)]
        m, l = np.array(pairs).T
        self.vol_pairs = np.concatenate([
            self.w_flat[:, None] * self.vol_flat[:, m] * self.vol_flat[:, l],
            [[self.gram[i] if i == j else 0.0 for i, j in pairs]]])
        ends = list(itertools.accumulate(range(self.nb, 0, -1)))
        self.pair_rows = tuple(slice(e - self.nb + i, e) for i, e in enumerate(ends))
        # weighted moment table: node -> weights/2 * (1, xi, xi^2), one direction
        self.mom = 0.5 * RULE.weights[:, None] * np.stack([np.ones_like(q), q, q * q], -1)
        # the same moments on every quadrature line of every direction, x
        # lines first: node values (..., nq^dim) -> (..., n_lines * 3)
        unit = np.eye(len(self.w_flat)).reshape((-1,) + (RULE.n,) * dim)
        self.line_mom = np.concatenate(
            [np.tensordot(unit, self.mom, axes=([1 + d], [0])).reshape(len(unit), -1)
             for d in range(dim)], axis=1)
        self.proj = _polish_projection(self.vol_flat, self.w_flat, self.gram)
        self.faces = tuple(FaceTables(self, d) for d in range(dim))
        # the line coefficients of every quadrature line, x lines first, as
        # rows k * n_lines + line: modal coefficients -> a_k on every line
        lines = np.concatenate([f.line_coeffs for f in self.faces], axis=1)
        self.line_coeffs = np.ascontiguousarray(
            lines.reshape(self.nb, -1, K + 1).transpose(2, 1, 0).reshape(-1, self.nb))
        # rows: the volume nodes, then per direction the xi_d = +1 and the
        # xi_d = -1 traces; one product evaluates a field at all of them
        self.nodes_traces = np.concatenate(
            [self.vol_flat] + [v for f in self.faces for v in (f.v_m, f.v_p)])
        # weights of the cell mean over the volume nodes, and over the x lines
        # (one per cross node)
        self.mean_vol = self.w_flat / 2 ** dim
        self.mean_x_lines = self.faces[0].weights / 2 ** (dim - 1)

    def table(self, orders, *xi):
        """Basis derivatives of the given order per direction at reference
        points xi (one coordinate array per direction); shape xi.shape + (nb,)."""
        leg = [LEGENDRE[k](x) for k, x in zip(orders, xi)]
        out = []
        for p in self.pairs:
            v = leg[0][..., p[0]]
            for f, a in zip(leg[1:], p[1:]):
                v = v * f[..., a]
            out.append(v)
        return np.stack(out, axis=-1)

    def vals(self, *xi):
        return self.table((0,) * self.dim, *xi)

    def __repr__(self):
        return f"Basis(P2, dim={self.dim})"


BASIS_1D = Basis(PAIRS_1D)
BASIS_2D = Basis(PAIRS_2D)


def basis_for(mesh):
    return (BASIS_1D, BASIS_2D)[mesh.dim - 1]


class SeparableSource(tuple):
    """A time-separable source sum_k a_k(t) s_k(x[, y]): a tuple of
    (time factor a_k, spatial function s_k) terms.

    Called as f(t, x[, y]) it returns the sum, like any plain source.
    `CellQuadrature.load_source` loads each s_k once per mesh, so
    the load at a time t costs one small product a(t) @ S.
    """

    def __new__(cls, *terms):
        return super().__new__(cls, terms)

    def __call__(self, t, *x):
        return sum(a(t) * s(*x) for a, s in self)

    def factors(self, t):
        return np.array([a(t) for a, _ in self], dtype=float)


class CellQuadrature:
    """The scheme's tensor Gauss rule on every cell of one mesh.

    `points` are the physical nodes per direction, (n_cells, nq^dim) each,
    read-only, and `mass` the diagonal of the P2 mass matrix, J * gram,
    read-only. `values` evaluates modal coefficients at the nodes,
    `integrate` sums node values over the cells, `project` maps node values
    to L2-projected coefficients and `load` gives int(v phi_m) per cell;
    `load_source` gives int(f(t) phi_m) for a source f.
    Per direction d: `face_weights[d]` are the physical face weights,
    `boundary_cells[d]` the cells on the low and the high boundary side,
    `face_points[d]` the tangential coordinates of those sides' face nodes,
    (n_side, ns) per other direction, and `stiffness[d]` = J (2/h_d)^2.
    """

    def __init__(self, mesh):
        self.basis = basis_for(mesh)
        dim, h = mesh.dim, mesh.spacing
        node = [c[:, None] + 0.5 * hd * RULE.nodes[None, :] for c, hd in zip(mesh.axes, h)]
        full = mesh.grid + (RULE.n,) * dim
        points = []
        for d, x in enumerate(node):
            shape = [1] * (2 * dim)
            shape[dim - 1 - d], shape[dim + d] = x.shape
            points.append(np.broadcast_to(x.reshape(shape), full).reshape(mesh.n_cells, -1))
            points[-1].flags.writeable = False
        self.points = tuple(points)
        self.jac = mesh.cell_volume / 2 ** dim
        self.mass = self.jac * self.basis.gram
        self.mass.flags.writeable = False
        others = [[i for i in range(dim) if i != d] for d in range(dim)]
        self.face_weights = tuple(f.weights * math.prod(h[i] / 2.0 for i in o)
                                  for f, o in zip(self.basis.faces, others))
        self.face_points = tuple(tuple(node[i] for i in o) for o in others)
        cells = np.arange(mesh.n_cells).reshape(mesh.grid + (1,))
        self.boundary_cells = tuple((cells[f.at(0)].ravel(), cells[f.at(-1)].ravel())
                                    for f in self.basis.faces)
        self.stiffness = tuple(math.prod(h[i] for i in o) * 2 ** (2 - dim) / h[d]
                               for d, o in enumerate(others))
        self._separable = {}

    def values(self, coeffs):
        return coeffs @ self.basis.vol_flat.T

    def integrate(self, v):
        return float(np.einsum("q,nq->", self.basis.w_flat, v)) * self.jac

    def project(self, v):
        return v @ self.basis.proj.T

    def load(self, v):
        return ((v * self.basis.w_flat) @ self.basis.vol_flat) * self.jac

    def load_source(self, f, t):
        """int(f(t, x) phi_m) per cell. A plain callable is evaluated at the
        nodes; a SeparableSource combines the loads of its spatial terms,
        computed on its first use with this quadrature."""
        if not isinstance(f, SeparableSource):
            return self.load(f(t, *self.points))
        shape = self.points[0].shape
        S = self._separable.get(f)
        if S is None:
            S = self._separable[f] = np.stack(
                [self.load(np.broadcast_to(s(*self.points), shape)).ravel() for _, s in f])
        return (f.factors(t) @ S).reshape(shape[0], -1)
