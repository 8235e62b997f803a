"""Positivity machinery for the transformed transport unknown g = c / M.

The exponential weight M = exp(-q psi) is kept at the volume quadrature
nodes and, as the face mean {M}, at the face nodes. Per quadrature line
(one per cell in 1D; in 2D the lines along x through the y nodes, then
those along y through the x nodes) the weighted moments of {1, xi, xi^2}
determine

  * an admissible interval (a, b) of interior test nodes,
  * a three-point test set {-1, gamma, 1} (scaled to the cell),
  * positive decomposition weights w1, w2, w3 with
        <p> = w1 p(-1) + w2 p(gamma) + w3 p(1)   for every quadratic p,
    where <.> is the weighted average computed with the same quadrature.

Nonnegativity of g on the test set plus a mesh-ratio bound mu <= mu0 makes
the explicit update keep cell averages of c positive; the scaling limiter
restores test-set nonnegativity without changing weighted cell averages.

Every kernel here takes optional leading axes. `build_weight` with an
array of charges q, shape (m,), gives weights for m species at once, and
every weight, moment, test set, limited field and bound then carries a
leading species axis: (m, n_cells, ...). The time loop runs each kernel
once per stage on all species this way. With a scalar q the shapes are
those of one species.

All decomposition weights are weighted integrals of the Lagrange basis on
{-1, gamma, 1}; this makes the decomposition identity hold to roundoff at
the discrete level because both sides use one quadrature rule.
"""

from dataclasses import dataclass

import numpy as np

from .basis import basis_for
from .exceptions import InadmissibleCellError, NumericalFatalError, OverflowGuardError
from .field import Field

OVERFLOW_LIMIT = 700.0  # |q psi| beyond this overflows double-precision exp


class WeightField:
    """Positive weights M = exp(-q psi_h) where the scheme needs them.

    `vol` holds M at the volume quadrature nodes, (..., n, nq^dim) in the
    node order of `Basis.vol_flat`. `faces[d]` holds {M} on the faces
    normal to direction d, (..., *face grid, ns) in grid order: the mean of
    the two traces on interior faces, the one-sided trace on boundary
    faces; 1D has `faces[0]`, (..., n+1, 1). `lines` holds the weighted
    moments <xi_d^k> on every quadrature line of the cells, (..., n,
    n_lines, 3): one line per cell in 1D; in 2D the first nq lines run
    along x, one per y node, and the next nq along y, one per x node.
    The leading axes are those of q: none for one species, (m,) for an
    array of m charges.
    """

    def __init__(self, mesh, vol, faces):
        self.mesh = mesh
        self.vol = vol
        self.faces = faces
        self.lines = (vol @ basis_for(mesh).line_mom).reshape(vol.shape[:-1] + (-1, 3))


def weighted_cell_average(field, weight):
    """M-weighted mean per cell: int(M w) / int(M), by the shared quadrature.

    `weight` is a WeightField on the same mesh; its volume values define
    the quadrature and int(M) comes from its zeroth line moments. A
    constant weight reduces to the plain average. Leading axes of the field
    and the weight broadcast: the result has shape (..., n_cells).
    """
    basis = field.basis
    num = (weight.vol * field.mesh.quadrature.values(field.coeffs)) @ basis.mean_vol
    # the zeroth moments of the x lines, averaged over the cross direction
    den = weight.lines[..., :len(basis.mean_x_lines), 0] @ basis.mean_x_lines
    if (den <= 0).any():
        raise ValueError("nonpositive weight integral in weighted_cell_average")
    return num / den


def build_weight(psi, q):
    """M = exp(-q psi) at the volume nodes and its face means.

    `q` is one charge, or an array of charges whose shape leads every array.
    Aborts with OverflowGuardError if |q psi| exceeds the double-precision
    exponent guard at any volume or trace node, or is not a number there.
    """
    mesh = psi.mesh
    basis = psi.basis
    # psi at the volume nodes, then on the high (xi_d = +1) and the low
    # (xi_d = -1) side of every cell, direction by direction
    nodes = psi.coeffs @ basis.nodes_traces.T
    worst = float(np.abs(nodes).max()) * float(np.max(np.abs(q)))
    if not worst <= OVERFLOW_LIMIT:   # NaN, from a NaN psi or q = 0 times inf, fails too
        raise OverflowGuardError("psi is not finite" if not np.isfinite(nodes).all() else
                                 f"|q*psi| reaches {worst:.3g} > {OVERFLOW_LIMIT:g}; "
                                 "exp would overflow")
    e = np.exp(-np.reshape(q, np.shape(q) + (1, 1)) * nodes)
    grid = e.shape[:-2] + mesh.grid + (-1,)
    nv = start = len(basis.vol_flat)
    faces = []
    for ft in basis.faces:
        ns = len(ft.weights)
        hi = e[..., start:start + ns].reshape(grid)
        lo = e[..., start + ns:start + 2 * ns].reshape(grid)
        start += 2 * ns
        shape = list(hi.shape)
        shape[ft.axis] += 1
        f = np.empty(shape)
        inner = np.add(hi[ft.minus], lo[ft.plus], out=f[ft.inner])
        inner *= 0.5
        f[ft.at(0)] = lo[ft.at(0)]
        f[ft.at(-1)] = hi[ft.at(-1)]
        faces.append(f)
    # M at the volume nodes is a view into the one exp result
    return WeightField(mesh, e[..., :nv], tuple(faces))


@dataclass
class TestSet:
    """Interval ends `lo`, `hi` and interior node `gammas` of every
    quadrature line, (..., n, n_lines), and the line's decomposition weights
    `line_weights`, (..., n, n_lines, 3); the lines are those of
    `WeightField.lines` and the leading axes those of the weight."""

    lo: np.ndarray
    hi: np.ndarray
    gammas: np.ndarray
    line_weights: np.ndarray


def build_test_set(weight, params):
    """Admissible test set and decomposition weights on every quadrature line.

    The interval (a, b) of interior nodes comes from the line moments m0, m1,
    m2. Inside the positivity range the nodes are capped at |gamma| <= 8 beta1
    - 1 and an empty interval raises; outside it they are the interval
    midpoints. The weights are the weighted integrals of the Lagrange basis
    on {-1, gamma, 1}."""
    m = weight.lines
    m0, m1, m2 = m[..., 0], m[..., 1], m[..., 2]
    a = (m1 - m2) / (m0 - m1)
    b = (m1 + m2) / (m0 + m1)
    g = 0.5 * (a + b)
    if params.in_positivity_range():
        lim = 8.0 * params.beta1 - 1.0
        np.minimum(np.maximum(g, -lim, out=g), lim, out=g)
        ok = (a < g) & (g < b)
        if not ok.all():
            i = int(np.argmin(ok.ravel()))
            raise InadmissibleCellError(
                np.unravel_index(i, ok.shape), float(a.ravel()[i]), float(b.ravel()[i]), lim
            )
    gp, gm = 1.0 + g, 1.0 - g
    gm0 = g * m0
    w = np.empty(g.shape + (3,))
    np.divide(gm0 - gp * m1 + m2, 2.0 * gp, out=w[..., 0])
    np.divide(m0 - m2, 1.0 - g * g, out=w[..., 1])
    # -g m0 + (1 - g) m1 + m2, bit for bit
    np.divide(gm * m1 - gm0 + m2, 2.0 * gm, out=w[..., 2])
    return TestSet(a, b, g, w)


def weighted_projection(c, weight):
    """Solve the per-cell weighted mass systems int(g M r) = int(c r) for g.

    The weighted average of the result equals the plain cell average of c
    (take r = 1), which is what the limiter conserves. The systems of every
    leading index and cell, B in all, are laid out batch-last and solved
    together by symmetric Gaussian elimination (LDL^T) without pivoting on
    the rows of W's upper triangle, (nb - m, B) each: W is symmetric
    positive definite when M > 0, since the Gauss weights are positive, so
    a nonpositive pivot means a nonpositive weight.
    """
    gram = c.basis.gram
    nb = len(gram)
    coeffs = c.coeffs.reshape(-1, nb)
    mv = weight.vol.reshape(len(coeffs), -1)
    # W = m_ref * diag(gram) + Q[(M - m_ref) phi_m phi_l], m_ref one node value
    # of M per cell: a cell-constant weight gives an exactly diagonal W (the
    # plain quadrature Gram has ~1e-16 off-diagonal roundoff), so where M and
    # c are both constant g has exactly zero higher modes and the constant
    # steady state is an exact discrete fixed point. With M - m_ref at the
    # nodes and m_ref last, one product with `vol_pairs` gives the upper
    # triangle of W
    m_ref = mv[:, 0]
    dev = np.empty((len(mv), mv.shape[1] + 1))
    np.subtract(mv, m_ref[:, None], out=dev[:, :-1])
    dev[:, -1] = m_ref
    W = c.basis.vol_pairs.T @ dev.T
    rows = [W[s] for s in c.basis.pair_rows]    # rows[m] = W[m, m:]
    # solve for the deviation from the plain cell average
    avg = coeffs[:, 0]
    x = (coeffs * gram).T - avg * rows[0]
    # W = L D L^T: L x = rhs during the elimination, then D, then L^T
    L = np.empty((nb, nb, len(avg)))    # unit lower triangle, below the diagonal
    for k in range(nb):
        d, u = rows[k][0], rows[k][1:]
        if not d.min() > 0.0:
            raise NumericalFatalError(
                "weighted mass matrix has a nonpositive pivot (non-positive weight?)")
        if k + 1 < nb:
            f = np.divide(u, d, out=L[k + 1:, k])
            for i in range(nb - k - 1):
                rows[k + 1 + i] -= f[i] * u[i:]
            x[k + 1:] -= f * x[k]
        x[k] /= d
    for k in range(nb - 1, 0, -1):
        x[:k] -= L[k, :k] * x[k]
    x[0] += avg
    if not np.isfinite(x).all():
        raise NumericalFatalError("weighted mass solve failed (non-positive weight?)")
    return Field(c.mesh, x.T.reshape(c.coeffs.shape))


def test_set_values(g, testset):
    """Values of g on every test point, (..., n, n_lines * 3): per quadrature
    line, at xi_d = -1, gamma and 1.

    On a line of direction d, g is a Legendre quadratic a0 + a1 L1 + a2 L2
    in xi_d; one table gives a_k on every line, k outermost. The values are
    written with the test points outermost and the cells innermost and
    returned as a view of that buffer, so a minimum over each cell's test
    points reduces over contiguous rows.
    """
    shape = testset.gammas.shape
    # (n_lines, cells of every leading index)
    gam = testset.gammas.reshape(-1, shape[-1]).T.copy()
    a0, a1, a2 = (g.basis.line_coeffs @ g.coeffs.reshape(-1, g.basis.nb).T).reshape(
        (3,) + gam.shape)
    out = np.empty((shape[-1], 3, gam.shape[1]))
    even = a0 + a2
    np.subtract(even, a1, out=out[:, 0])
    np.add(even, a1, out=out[:, 2])
    # a0 + gamma (a1 + 1.5 gamma a2) - a2 / 2, one rounding per operation
    t = 1.5 * gam
    t *= a2
    t += a1
    t *= gam
    t += a0
    np.multiply(0.5, a2, out=even)
    np.subtract(t, even, out=out[:, 1])
    return out.reshape(-1, gam.shape[1]).T.reshape(shape[:-1] + (-1,))


@dataclass
class LimiterReport:
    """Scaling factors per cell (..., n), the number of cells limited over
    all leading indices, and the test-set minima before and after limiting
    per leading index (floats for a field without leading axes)."""

    theta: np.ndarray
    n_limited: int
    min_pre: object
    min_post: object


def scaling_limiter(g, weight, testset):
    """Shrink g toward its weighted cell average until it is >= 0 on the test set.

    Weighted cell averages are preserved exactly; a nonpositive weighted
    average means positivity of the underlying density was already lost
    upstream and is treated as fatal. Where no test value is negative, g
    itself is returned, with theta = 1.
    """
    wbar = weighted_cell_average(g, weight)
    if (wbar <= 0.0).any():
        i = np.unravel_index(np.argmin(wbar), wbar.shape)
        raise NumericalFatalError(
            f"nonpositive weighted cell average {wbar[i]:.6g} in cell {i[-1]}; "
            "positivity lost before limiting"
        )
    mn = test_set_values(g, testset).min(axis=-1)
    neg = mn < 0.0
    if not neg.any():     # nothing to limit: g itself, theta = 1
        low = mn.min(axis=-1)
        return g, LimiterReport(np.ones_like(wbar), 0, low, low)
    theta = np.divide(wbar, wbar - mn, out=np.ones_like(wbar), where=neg)
    # the test-set values are affine in theta: each cell's new minimum is
    # theta*mn + (1-theta)*wbar, and exactly mn where theta = 1
    shift = (1.0 - theta) * wbar
    out = g.coeffs * theta[..., None]
    out[..., 0] += shift
    post = theta * mn
    post += shift
    return Field(g.mesh, out), LimiterReport(theta, int(np.count_nonzero(neg)),
                                             mn.min(axis=-1), post.min(axis=-1))


def _mu0_terms(w1, w3, m0, m2, g, m_lo, m_hi, params):
    """Three candidate bounds per cell/line; nonpositive denominators bind nothing.

    The test value at xi = -1 leaves through the low face with the factor
    alpha3(-g) = b0 + (8 b1 - 3 - g) / (2(1 + g)) and through the high face
    with alpha1(g) = (8 b1 - 1 + g) / (2(1 + g)); the value at xi = 1 is its
    mirror image, alpha3(g) on the high face and alpha1(-g) on the low one.
    Each pair shares its denominator, and x - g is x + (-g) bit for bit.
    """
    b0, c1, c3 = params.beta0, 8.0 * params.beta1 - 1.0, 8.0 * params.beta1 - 3.0
    dp, dm = 2.0 * (1.0 + g), 2.0 * (1.0 - g)
    d1 = (b0 + (c3 - g) / dp) * m_lo + (c1 + g) / dp * m_hi
    d3 = (b0 + (c3 + g) / dm) * m_hi + (c1 - g) / dm * m_lo
    d2 = 2.0 * (1.0 - 4.0 * params.beta1) * (m_lo + m_hi)
    out = np.divide(w1, d1, out=np.full(g.shape, np.inf), where=d1 > 0)
    np.minimum(out, np.divide(w3, d3, out=np.full(g.shape, np.inf), where=d3 > 0), out=out)
    np.minimum(out, np.divide(m0 - m2, d2, out=np.full(g.shape, np.inf), where=d2 > 0),
               out=out)
    return out


def cfl_mu0(weight, testset, params):
    """Mesh-ratio bound mu0 = sup {dt/h^2 : positivity guaranteed}, the
    minimum over every quadrature line and every leading index of the weight
    field (every species of a stage). NaN when the flux parameters sit
    outside the proven range: no guarantee is claimed there."""
    if not params.in_positivity_range():
        return float("nan")
    mesh = weight.mesh
    # {M} on the low and the high face of every line, written per direction
    # through a (..., *grid, dim, lines per direction) view
    lo, hi = np.empty(testset.gammas.shape), np.empty(testset.gammas.shape)
    grid = lo.shape[:-2] + mesh.grid + (mesh.dim, -1)
    for d, (ft, mf) in enumerate(zip(basis_for(mesh).faces, weight.faces)):
        lo.reshape(grid)[..., d, :] = mf[ft.minus]
        hi.reshape(grid)[..., d, :] = mf[ft.plus]
    m, w = weight.lines, testset.line_weights
    return float(_mu0_terms(w[..., 0], w[..., 2], m[..., 0], m[..., 2], testset.gammas,
                             lo, hi, params).min())
