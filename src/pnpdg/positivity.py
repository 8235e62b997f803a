"""Positivity machinery for the transformed transport unknown g = c / M.

The exponential weight M = exp(-q psi) is cached at quadrature and trace
points. Per cell (per quadrature line in 2D) the weighted moments of
{1, xi, xi^2} determine

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
every cache, moment, test set, limited field and bound then carries a
leading species axis: (m, n_cells, ...). The time loop runs each kernel
once per stage on all species this way. With a scalar q the shapes are
those of one species.

All decomposition weights are weighted integrals of the Lagrange basis on
{-1, gamma, 1}; this makes the decomposition identity hold to roundoff at
the discrete level because both sides use one quadrature rule.
"""

from dataclasses import dataclass

import numpy as np

from .basis import legendre_vals, tables_for
from .exceptions import InadmissibleCellError, NumericalFatalError, OverflowGuardError
from .field import DEFAULT_RULE, Field, weighted_cell_average

OVERFLOW_LIMIT = 700.0  # |q psi| beyond this overflows double-precision exp


class WeightField:
    """Cached positive weights M = exp(-q psi_h) at volume and trace points.

    1D caches: vol (..., n, nq), tr_l / tr_r (..., n), face (..., n+1)
    with interior face values {M} and one-sided boundary values.
    2D caches: vol (..., n, nq, nq) indexed [cell, x-node, y-node],
    per-side traces (..., n, nq), and face averages xface
    (..., ny, nx+1, nq), yface (..., ny+1, nx, nq).
    The leading axes are those of q: none for one species, (m,) for an
    array of m charges.
    """

    def __init__(self, mesh, rule, q, caches):
        self.mesh = mesh
        self.rule = rule
        self.q = q
        for name, arr in caches.items():
            setattr(self, name, arr)
        self._mom = None
        self._mom_x = None
        self._mom_y = None

    @property
    def moments(self):
        """1D weighted moments <xi^k>, shape (..., n, 3)."""
        if self._mom is None:
            tb = tables_for(self.mesh, self.rule)
            self._mom = self.vol @ tb.mom
        return self._mom

    def moments_along(self, axis):
        """2D weighted moments per quadrature line: <xi^k>_j(y_l^s) for axis 'x'
        (shape (..., n, nq, 3), middle index = the fixed cross line), likewise 'y'."""
        tb = tables_for(self.mesh, self.rule)
        if axis == "x":
            if self._mom_x is None:
                self._mom_x = np.tensordot(self.vol, tb.mom, axes=([-2], [0]))
            return self._mom_x
        if self._mom_y is None:
            self._mom_y = self.vol @ tb.mom
        return self._mom_y


def build_weight(psi, q, rule=DEFAULT_RULE):
    """Cache M = exp(-q psi) wherever the scheme needs it.

    `q` is one charge, or an array of charges whose shape leads every cache.
    Aborts with OverflowGuardError if |q psi| exceeds the double-precision
    exponent guard at any cached point.
    """
    mesh = psi.mesh
    t = tables_for(mesh, rule)
    lead = np.shape(q)
    if mesh.dim == 1:
        expo = {
            "vol": psi.coeffs @ t.vol.T,
            "tr_l": psi.coeffs @ t.at_l,
            "tr_r": psi.coeffs @ t.at_r,
        }
        _guard(q, expo.values())
        caches = {k: _exp_weight(q, v) for k, v in expo.items()}
        tr_l, tr_r = caches["tr_l"], caches["tr_r"]
        face = np.empty(lead + (mesh.n_cells + 1,))
        face[..., 1:-1] = 0.5 * (tr_r[..., :-1] + tr_l[..., 1:])
        face[..., 0] = tr_l[..., 0]
        face[..., -1] = tr_r[..., -1]
        caches["face"] = face
        return WeightField(mesh, rule, q, caches)
    nx, ny, nq = mesh.nx, mesh.ny, rule.n
    expo = {
        "vol": (psi.coeffs @ t.vol_flat.T).reshape(mesh.n_cells, nq, nq),
        "tr_xl": psi.coeffs @ t.x_l.T,
        "tr_xr": psi.coeffs @ t.x_r.T,
        "tr_yb": psi.coeffs @ t.y_b.T,
        "tr_yt": psi.coeffs @ t.y_t.T,
    }
    _guard(q, expo.values())
    caches = {k: _exp_weight(q, v) for k, v in expo.items()}
    grid = lead + (ny, nx, nq)
    xl = caches["tr_xl"].reshape(grid)
    xr = caches["tr_xr"].reshape(grid)
    yb = caches["tr_yb"].reshape(grid)
    yt = caches["tr_yt"].reshape(grid)
    xface = np.empty(lead + (ny, nx + 1, nq))
    xface[..., 1:-1, :] = 0.5 * (xr[..., :-1, :] + xl[..., 1:, :])
    xface[..., 0, :] = xl[..., 0, :]
    xface[..., -1, :] = xr[..., -1, :]
    yface = np.empty(lead + (ny + 1, nx, nq))
    yface[..., 1:-1, :, :] = 0.5 * (yt[..., :-1, :, :] + yb[..., 1:, :, :])
    yface[..., 0, :, :] = yb[..., 0, :, :]
    yface[..., -1, :, :] = yt[..., -1, :, :]
    caches["xface"] = xface
    caches["yface"] = yface
    return WeightField(mesh, rule, q, caches)


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
class TestSet1D:
    """Per-cell interval, interior node and decomposition weights; the
    leading axes are those of the weight field."""

    rule: object
    a: np.ndarray        # (..., n)
    b: np.ndarray
    gamma: np.ndarray
    weights: np.ndarray  # (..., n, 3)


@dataclass
class TestSet2D:
    """Per-direction line data: arrays indexed (..., cell, cross-line node)."""

    rule: object
    ax: np.ndarray
    bx: np.ndarray
    gamma_x: np.ndarray     # (..., n, nq)
    weights_x: np.ndarray   # (..., n, nq, 3)
    ay: np.ndarray
    by: np.ndarray
    gamma_y: np.ndarray
    weights_y: np.ndarray

    @property
    def n_points(self):
        return 6 * self.rule.n


def build_test_set(weight, params, cap=True):
    """Admissible test set and decomposition weights for every cell."""
    if weight.mesh.dim == 1:
        m = weight.moments
        a, b = _intervals(m[..., 0], m[..., 1], m[..., 2])
        g = _select_gammas(a, b, params.beta1, cap)
        w = np.stack(_lagrange_weights(m[..., 0], m[..., 1], m[..., 2], g), axis=-1)
        return TestSet1D(weight.rule, a, b, g, w)
    mx = weight.moments_along("x")
    ax, bx = _intervals(mx[..., 0], mx[..., 1], mx[..., 2])
    gx = _select_gammas(ax, bx, params.beta1, cap)
    wx = np.stack(_lagrange_weights(mx[..., 0], mx[..., 1], mx[..., 2], gx), axis=-1)
    my = weight.moments_along("y")
    ay, by = _intervals(my[..., 0], my[..., 1], my[..., 2])
    gy = _select_gammas(ay, by, params.beta1, cap)
    wy = np.stack(_lagrange_weights(my[..., 0], my[..., 1], my[..., 2], gy), axis=-1)
    return TestSet2D(weight.rule, ax, bx, gx, wx, ay, by, gy, wy)


def weighted_projection(c, weight):
    """Solve the per-cell weighted mass systems int(g M r) = int(c r) for g.

    The weighted average of the result equals the plain cell average of c
    (take r = 1), which is what the limiter conserves. The leading axes of
    c and the weight match; all systems go to one batched solve.
    """
    mesh = c.mesh
    rule = weight.rule
    t = tables_for(mesh, rule)
    nb = c.basis.nb
    lead = c.coeffs.shape[:-2]
    if mesh.dim == 1:
        mv, qw = weight.vol, rule.weights
    else:
        mv, qw = weight.vol.reshape(lead + (mesh.n_cells, -1)), t.w_flat
    # W = m_ref * diag(gram) + Q[(M - m_ref) phi_m phi_l], m_ref one node value
    # of M per cell: a cell-constant weight gives an exactly diagonal W (the
    # plain quadrature Gram has ~1e-16 off-diagonal roundoff), so where M and
    # c are both constant g has exactly zero higher modes and the constant
    # steady state is an exact discrete fixed point
    m_ref = mv[..., :1]
    W = (((mv - m_ref) * qw) @ t.vol_outer).reshape(lead + (-1, nb, nb))
    W[..., np.arange(nb), np.arange(nb)] += m_ref * c.basis.gram
    # solve for the deviation from the plain cell average
    avg = c.coeffs[..., :1]
    rhs = c.coeffs * c.basis.gram - avg * W[..., :, 0]
    g = np.linalg.solve(W, rhs[..., None])[..., 0]
    g[..., 0] += avg[..., 0]
    if not np.all(np.isfinite(g)):
        raise NumericalFatalError("weighted mass solve failed (non-positive weight?)")
    return Field(mesh, g, role="auxiliary")


def test_set_values(g, testset):
    """Evaluate a field on every test point; (..., n, 3) in 1D, (..., n, 6*nq) in 2D."""
    mesh = g.mesh
    t = tables_for(mesh, testset.rule)
    if mesh.dim == 1:
        at_g = np.einsum("...m,...m->...", g.coeffs, legendre_vals(testset.gamma))
        return np.stack([g.coeffs @ t.at_l, at_g, g.coeffs @ t.at_r], axis=-1)
    ly = legendre_vals(testset.rule.nodes)   # (nq, 3) 1D Legendre along the cross line
    pairs = g.basis.pairs
    # x-direction triples on each y-line: xi in {-1, gamma_x, +1}, eta = node
    gxv = legendre_vals(testset.gamma_x)     # (..., n, nq, 3)
    phix = np.stack([gxv[..., a] * ly[:, b] for a, b in pairs], axis=-1)
    at_gx = np.einsum("...nm,...nsm->...ns", g.coeffs, phix)
    vx = np.stack([g.coeffs @ t.x_l.T, at_gx, g.coeffs @ t.x_r.T], axis=-1)  # (..., n, nq, 3)
    gyv = legendre_vals(testset.gamma_y)
    phiy = np.stack([ly[:, a] * gyv[..., b] for a, b in pairs], axis=-1)
    at_gy = np.einsum("...nm,...nsm->...ns", g.coeffs, phiy)
    vy = np.stack([g.coeffs @ t.y_b.T, at_gy, g.coeffs @ t.y_t.T], axis=-1)
    shape = vx.shape[:-2] + (-1,)
    return np.concatenate([vx.reshape(shape), vy.reshape(shape)], axis=-1)


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
    limited = Field(g.mesh, out, role=g.role)
    # the test-set values are affine in theta: each cell's new minimum is
    # theta*mn + (1-theta)*wbar, and exactly mn where theta = 1
    post = theta * mn + (1.0 - theta) * wbar
    return limited, LimiterReport(theta, int(neg.sum()), mn.min(axis=-1),
                                  post.min(axis=-1))


@dataclass
class CflReport:
    """Mesh-ratio bound mu0 = sup {dt/h^2 : positivity guaranteed}.

    `valid` is False when the flux parameters sit outside the proven range,
    in which case mu0 is NaN and no guarantee is claimed.
    """

    mu0: float
    valid: bool
    mu0_x: float = None
    mu0_y: float = None
    per_cell: np.ndarray = None

    def mu(self, mesh, dt):
        if mesh.dim == 1:
            return dt / mesh.h ** 2
        return dt / mesh.dx ** 2 + dt / mesh.dy ** 2


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
    """Largest guaranteed-positive mesh ratio, the minimum over every leading
    index of the weight field (every species of a stage)."""
    if not params.in_positivity_range():
        return CflReport(float("nan"), False)
    mesh = weight.mesh
    if mesh.dim == 1:
        m = weight.moments
        lo = weight.face[..., :-1]
        hi = weight.face[..., 1:]
        terms = _mu0_terms(
            testset.weights[..., 0], testset.weights[..., 2],
            m[..., 0], m[..., 2], testset.gamma, lo, hi, params,
        )
        return CflReport(float(terms.min()), True, per_cell=terms)
    nq = weight.rule.n
    lines = weight.xface.shape[:-3] + (-1, nq)
    mx = weight.moments_along("x")
    lo = weight.xface[..., :-1, :].reshape(lines)
    hi = weight.xface[..., 1:, :].reshape(lines)
    tx = _mu0_terms(
        testset.weights_x[..., 0], testset.weights_x[..., 2],
        mx[..., 0], mx[..., 2], testset.gamma_x, lo, hi, params,
    )
    my = weight.moments_along("y")
    lo = weight.yface[..., :-1, :, :].reshape(lines)
    hi = weight.yface[..., 1:, :, :].reshape(lines)
    ty = _mu0_terms(
        testset.weights_y[..., 0], testset.weights_y[..., 2],
        my[..., 0], my[..., 2], testset.gamma_y, lo, hi, params,
    )
    mu0_x = float(tx.min())
    mu0_y = float(ty.min())
    return CflReport(min(mu0_x, mu0_y), True, mu0_x=mu0_x, mu0_y=mu0_y)
