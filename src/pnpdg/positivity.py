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

from .basis import tables_for
from .exceptions import InadmissibleCellError, NumericalFatalError, OverflowGuardError
from .field import Field, weighted_cell_average

OVERFLOW_LIMIT = 700.0  # |q psi| beyond this overflows double-precision exp


class WeightField:
    """Positive weights M = exp(-q psi_h) where the scheme needs them.

    `vol` holds M at the volume quadrature nodes, (..., n, nq^dim) in the
    node order of `Tables.vol_flat`. `faces[d]` holds {M} on the faces
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
        self.lines = (vol @ tables_for(mesh).line_mom).reshape(vol.shape[:-1] + (-1, 3))


def build_weight(psi, q):
    """M = exp(-q psi) at the volume nodes and its face means.

    `q` is one charge, or an array of charges whose shape leads every array.
    Aborts with OverflowGuardError if |q psi| exceeds the double-precision
    exponent guard at any volume or trace node.
    """
    mesh = psi.mesh
    t = tables_for(mesh)
    vol = psi.coeffs @ t.vol_flat.T
    # psi on the high (xi_d = +1) and the low (xi_d = -1) side of every cell
    traces = [(psi.coeffs @ ft.v_m.T, psi.coeffs @ ft.v_p.T) for ft in t.faces]
    _guard(q, [vol] + [e for pair in traces for e in pair])
    faces = []
    for ft, pair in zip(t.faces, traces):
        hi, lo = (_exp_weight(q, e).reshape(np.shape(q) + mesh.grid + (-1,)) for e in pair)
        shape = list(hi.shape)
        shape[ft.axis] += 1
        f = np.empty(shape)
        f[ft.inner] = 0.5 * (hi[ft.minus] + lo[ft.plus])
        f[ft.at(0)] = lo[ft.at(0)]
        f[ft.at(-1)] = hi[ft.at(-1)]
        faces.append(f)
    return WeightField(mesh, _exp_weight(q, vol), tuple(faces))


def _exp_weight(q, v):
    """exp(-q v), with the shape of q leading that of v."""
    q = np.reshape(q, np.shape(q) + (1,) * v.ndim)
    return np.exp(-q * v)


def _guard(q, arrays):
    worst = max(float(np.max(np.abs(a))) for a in arrays) * float(np.max(np.abs(q)))
    if worst > OVERFLOW_LIMIT:
        raise OverflowGuardError(
            f"|q*psi| reaches {worst:.3g} > {OVERFLOW_LIMIT:g}; exp would overflow"
        )


def _intervals(m0, m1, m2):
    a = (m1 - m2) / (m0 - m1)
    b = (m1 + m2) / (m0 + m1)
    return a, b


def _select_gammas(a, b, beta1, cap):
    g = 0.5 * (a + b)
    if cap:
        lim = 8.0 * beta1 - 1.0
        g = np.clip(g, -lim, lim)
        bad = ~((a < g) & (g < b))
        if np.any(bad):
            i = int(np.argmax(bad.ravel()))
            raise InadmissibleCellError(
                np.unravel_index(i, bad.shape), float(a.ravel()[i]), float(b.ravel()[i]), lim
            )
    return g


def _lagrange_weights(m0, m1, m2, g):
    """Weighted integrals of the Lagrange basis on {-1, g, 1}."""
    w1 = (g * m0 - (1.0 + g) * m1 + m2) / (2.0 * (1.0 + g))
    w2 = (m0 - m2) / (1.0 - g * g)
    w3 = (-g * m0 + (1.0 - g) * m1 + m2) / (2.0 * (1.0 - g))
    return w1, w2, w3


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

    Inside the positivity range the nodes are capped at |gamma| <= 8 beta1 - 1
    and an empty interval raises; outside it they are the interval midpoints."""
    m = weight.lines
    m0, m1, m2 = m[..., 0], m[..., 1], m[..., 2]
    a, b = _intervals(m0, m1, m2)
    g = _select_gammas(a, b, params.beta1, params.in_positivity_range())
    w = np.stack(_lagrange_weights(m0, m1, m2, g), axis=-1)
    return TestSet(a, b, g, w)


def weighted_projection(c, weight):
    """Solve the per-cell weighted mass systems int(g M r) = int(c r) for g.

    The weighted average of the result equals the plain cell average of c
    (take r = 1), which is what the limiter conserves. The systems of every
    leading index and cell, B in all, are laid out batch-last, (nb, nb, B),
    and solved together by Gaussian elimination without pivoting: W is
    symmetric positive definite when M > 0, since the Gauss weights are
    positive, so a nonpositive pivot means a nonpositive weight.
    """
    t = tables_for(c.mesh)
    gram = c.basis.gram
    nb = len(gram)
    coeffs = c.coeffs.reshape(-1, nb)
    mv = weight.vol.reshape(len(coeffs), -1)
    # W = m_ref * diag(gram) + Q[(M - m_ref) phi_m phi_l], m_ref one node value
    # of M per cell: a cell-constant weight gives an exactly diagonal W (the
    # plain quadrature Gram has ~1e-16 off-diagonal roundoff), so where M and
    # c are both constant g has exactly zero higher modes and the constant
    # steady state is an exact discrete fixed point
    m_ref = mv[:, 0]
    W = t.vol_outer.T @ ((mv - m_ref[:, None]) * t.w_flat).T
    W[::nb + 1] += gram[:, None] * m_ref    # the diagonal rows of the flat W
    W = W.reshape(nb, nb, -1)
    # solve for the deviation from the plain cell average
    avg = coeffs[:, 0]
    x = (coeffs * gram).T - avg * W[:, 0]
    for k in range(nb):
        if not W[k, k].min() > 0.0:
            raise NumericalFatalError(
                "weighted mass matrix has a nonpositive pivot (non-positive weight?)")
        f = W[k + 1:, k] / W[k, k]
        W[k + 1:, k + 1:] -= f[:, None] * W[k, k + 1:]
        x[k + 1:] -= f * x[k]
    for k in reversed(range(nb)):
        x[k] /= W[k, k]
        x[:k] -= W[:k, k] * x[k]
    x[0] += avg
    if not np.all(np.isfinite(x)):
        raise NumericalFatalError("weighted mass solve failed (non-positive weight?)")
    return Field(c.mesh, x.T.reshape(c.coeffs.shape))


def test_set_values(g, testset):
    """Values of g on every test point, (..., n, n_lines * 3): per quadrature
    line, at xi_d = -1, gamma and 1.

    On a line of direction d, g is a Legendre quadratic a0 + a1 L1 + a2 L2
    in xi_d; one table gives the coefficients of every line.
    """
    gam = testset.gammas
    coef = g.coeffs @ tables_for(g.mesh).line_coeffs
    a = coef.reshape(gam.shape + (3,))
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    even = a0 + a2
    at_g = a0 + gam * (a1 + 1.5 * gam * a2) - 0.5 * a2
    return np.stack([even - a1, at_g, even + a1], axis=-1).reshape(coef.shape)


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
    upstream and is treated as fatal.
    """
    wbar = weighted_cell_average(g, weight)
    if np.any(wbar <= 0.0):
        i = np.unravel_index(np.argmin(wbar), wbar.shape)
        raise NumericalFatalError(
            f"nonpositive weighted cell average {wbar[i]:.6g} in cell {i[-1]}; "
            "positivity lost before limiting"
        )
    vals = test_set_values(g, testset)
    mn = vals.min(axis=-1)
    theta = np.ones_like(wbar)
    neg = mn < 0.0
    theta[neg] = wbar[neg] / (wbar[neg] - mn[neg])
    out = g.coeffs * theta[..., None]
    out[..., 0] += (1.0 - theta) * wbar
    limited = Field(g.mesh, out)
    # the test-set values are affine in theta: each cell's new minimum is
    # theta*mn + (1-theta)*wbar, and exactly mn where theta = 1
    post = theta * mn + (1.0 - theta) * wbar
    return limited, LimiterReport(theta, int(neg.sum()), mn.min(axis=-1),
                                  post.min(axis=-1))


def _alpha1(gamma, beta1):
    return (8.0 * beta1 - 1.0 + gamma) / (2.0 * (1.0 + gamma))


def _alpha3(gamma, beta0, beta1):
    return beta0 + (8.0 * beta1 - 3.0 + gamma) / (2.0 * (1.0 - gamma))


def _mu0_terms(w1, w3, m0, m2, g, m_lo, m_hi, params):
    """Three candidate bounds per cell/line; nonpositive denominators bind nothing."""
    b0, b1 = params.beta0, params.beta1
    d1 = _alpha3(-g, b0, b1) * m_lo + _alpha1(g, b1) * m_hi
    d3 = _alpha3(g, b0, b1) * m_lo + _alpha1(-g, b1) * m_hi
    d2 = 2.0 * (1.0 - 4.0 * b1) * (m_lo + m_hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(d1 > 0, w1 / d1, np.inf)
        t3 = np.where(d3 > 0, w3 / d3, np.inf)
        t2 = np.where(d2 > 0, (m0 - m2) / d2, np.inf)
    return np.minimum(np.minimum(t1, t3), t2)


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
    for d, (ft, mf) in enumerate(zip(tables_for(mesh).faces, weight.faces)):
        lo.reshape(grid)[..., d, :] = mf[ft.minus]
        hi.reshape(grid)[..., d, :] = mf[ft.plus]
    m, w = weight.lines, testset.line_weights
    return float(_mu0_terms(w[..., 0], w[..., 2], m[..., 0], m[..., 2], testset.gammas,
                             lo, hi, params).min())
