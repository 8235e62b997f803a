"""Per-point and per-face reference helpers for the tests.

These evaluate the modal expansion, the two-sided traces of one face and
the DDG flux one point at a time, straight from the Legendre basis, and
restate the per-cell test-interval and decomposition-weight formulas. The
solver's batched kernels are checked against them.

`decomposition_cell_averages` advances only the cell averages through the
quadrature/decomposition identity; it must agree with the v = 1 component
of the full update to roundoff.

`boltzmann_state` solves the discrete Poisson-Boltzmann problem, whose
solutions are the charged steady states of the scheme, from the Boltzmann
densities of `steady_state_init` and `fit_steady_amplitudes`.
"""

from dataclasses import dataclass

import numpy as np

from pnpdg.basis import RULE, basis_for
from pnpdg.driver import total_mass
from pnpdg.exceptions import InadmissibleCellError, NumericalFatalError
from pnpdg.field import Field
from pnpdg.positivity import WeightField, test_set_values


def zero_field(mesh):
    return Field(mesh, np.zeros((mesh.n_cells, basis_for(mesh).nb)))


def _table(field, orders, point):
    return field.basis.table(orders, *np.atleast_1d(np.asarray(point, dtype=float)))


def eval_field(field, cell, point):
    """Value of the modal expansion at a reference point of one cell."""
    return float(field.coeffs[cell] @ field.basis.vals(*np.atleast_1d(np.asarray(point, float))))


def eval_grad(field, cell, point):
    """Physical gradient at a reference point (scalar in 1D, length-2 vector in 2D)."""
    m = field.mesh
    if m.dim == 1:
        return float(field.coeffs[cell] @ _table(field, (1,), point)) * (2.0 / m.spacing[0])
    sx, sy = (2.0 / h for h in m.spacing)
    gx = float(field.coeffs[cell] @ _table(field, (1, 0), point)) * sx
    gy = float(field.coeffs[cell] @ _table(field, (0, 1), point)) * sy
    return np.array([gx, gy])


def eval_second(field, cell, point):
    """Physical second derivative: scalar in 1D, 2x2 Hessian in 2D."""
    m = field.mesh
    if m.dim == 1:
        return float(field.coeffs[cell] @ _table(field, (2,), point)) * (2.0 / m.spacing[0]) ** 2
    sx, sy = (2.0 / h for h in m.spacing)
    hxx = float(field.coeffs[cell] @ _table(field, (2, 0), point)) * sx ** 2
    hyy = float(field.coeffs[cell] @ _table(field, (0, 2), point)) * sy ** 2
    hxy = float(field.coeffs[cell] @ _table(field, (1, 1), point)) * sx * sy
    return np.array([[hxx, hxy], [hxy, hyy]])


@dataclass
class FaceTrace:
    """Two-sided trace data on one face point set, oriented minus -> plus.

    On boundary faces the absent side is None and jump/average stay None.
    Scalars in 1D; arrays over the face quadrature nodes in 2D.
    """

    w_minus: object
    w_plus: object
    dn_minus: object
    dn_plus: object
    d2n_minus: object
    d2n_plus: object
    h_e: float

    @property
    def jump(self):
        if self.w_minus is None or self.w_plus is None:
            return None
        return self.w_plus - self.w_minus

    @property
    def avg(self):
        if self.w_minus is None or self.w_plus is None:
            return None
        return 0.5 * (self.w_minus + self.w_plus)

    @property
    def dn_avg(self):
        if self.dn_minus is None or self.dn_plus is None:
            return None
        return 0.5 * (self.dn_minus + self.dn_plus)

    @property
    def d2n_jump(self):
        if self.d2n_minus is None or self.d2n_plus is None:
            return None
        return self.d2n_plus - self.d2n_minus


def face_trace(field, face):
    """Extract the FaceTrace of a field on one face.

    1D: `face` is the interface index 0..n_cells. 2D: ('x', i, l) is the
    vertical face between cell columns i-1 and i on row l (i in 0..nx);
    ('y', i, j) is the horizontal face between cell rows i-1 and i on
    column j (i in 0..ny). Orientation is +x / +y (minus side below).
    """
    m = field.mesh
    c = field.coeffs
    b = field.basis
    if m.dim == 1:
        s = 2.0 / m.spacing[0]
        left = face - 1 if face > 0 else None
        right = face if face < m.n_cells else None
        wm = dm = d2m = wp = dp = d2p = None
        if left is not None:
            wm, dm, d2m = (s ** k * float(c[left] @ b.table((k,), np.array(1.0)))
                           for k in range(3))
        if right is not None:
            wp, dp, d2p = (s ** k * float(c[right] @ b.table((k,), np.array(-1.0)))
                           for k in range(3))
        return FaceTrace(wm, wp, dm, dp, d2m, d2p, m.spacing[0])
    axis, i, row = face
    q = RULE.nodes
    ones = np.ones(RULE.n)
    index = np.arange(m.n_cells).reshape(m.grid)
    if axis == "x":
        s = 2.0 / m.spacing[0]
        left = index[row, i - 1] if i > 0 else None
        right = index[row, i] if i < m.shape[0] else None
        minus = [b.table((k, 0), ones, q) for k in range(3)]
        plus = [b.table((k, 0), -ones, q) for k in range(3)]
        h_e = m.spacing[0]
    else:
        s = 2.0 / m.spacing[1]
        left = index[i - 1, row] if i > 0 else None
        right = index[i, row] if i < m.shape[1] else None
        minus = [b.table((0, k), q, ones) for k in range(3)]
        plus = [b.table((0, k), q, -ones) for k in range(3)]
        h_e = m.spacing[1]
    wm = dm = d2m = wp = dp = d2p = None
    if left is not None:
        wm, dm, d2m = (s ** k * (t @ c[left]) for k, t in enumerate(minus))
    if right is not None:
        wp, dp, d2p = (s ** k * (t @ c[right]) for k, t in enumerate(plus))
    return FaceTrace(wm, wp, dm, dp, d2m, d2p, h_e)


def ddg_flux(trace, params):
    """Numerical flux beta0*[w]/h_e + {dn w} + beta1*h_e*[dn^2 w]."""
    return (params.beta0 / trace.h_e) * trace.jump + trace.dn_avg \
        + params.beta1 * trace.h_e * trace.d2n_jump


def weight_from_values(mesh, vol):
    """Assemble a WeightField, without face means, from explicit positive
    volume values (n_cells, nq^dim)."""
    if np.any(vol <= 0):
        raise ValueError("weight volume values must be positive")
    return WeightField(mesh, vol, ())


def test_interval(weight, cell, line=0):
    """Admissible interior-node interval (a, b) on one quadrature line of a
    cell (the index into `WeightField.lines`; the only line in 1D)."""
    m0, m1, m2 = weight.lines[cell, line]
    a = (m1 - m2) / (m0 - m1)
    b = (m1 + m2) / (m0 + m1)
    if not (-1.0 < a < b < 1.0):
        raise NumericalFatalError(
            f"test interval ordering violated in cell {cell}: a={a}, b={b}"
        )
    return float(a), float(b)


def choose_gamma(a, b, beta1, cap=True):
    """Interior test node: the midpoint of (a, b), clamped to |gamma| <= 8 beta1 - 1.

    With cap=False (expert override for beta1 outside [1/8, 1/4]) the raw
    midpoint is used. A clamped value leaving (a, b) is inadmissible.
    """
    g = 0.5 * (a + b)
    if cap:
        lim = 8.0 * beta1 - 1.0
        g = min(max(g, -lim), lim)
        if not (a < g < b):
            raise InadmissibleCellError("?", a, b, lim)
    return g


def decomposition_weights(weight, cell, gamma, line=0):
    """Positive decomposition weights on one quadrature line of a cell for
    interior node gamma: the weighted integrals of the Lagrange basis on
    {-1, gamma, 1}."""
    m0, m1, m2 = weight.lines[cell, line]
    g = gamma
    w = ((g * m0 - (1.0 + g) * m1 + m2) / (2.0 * (1.0 + g)),
         (m0 - m2) / (1.0 - g * g),
         (-g * m0 + (1.0 - g) * m1 + m2) / (2.0 * (1.0 - g)))
    if min(w) <= 0:
        raise NumericalFatalError(
            f"nonpositive decomposition weight in cell {cell}: gamma={gamma} outside (a, b)"
        )
    return tuple(float(x) for x in w)


def decomposition_cell_averages(g, weight, testset, params, dt):
    """Cell averages after one explicit step, via the decomposition identity.

    Per direction and quadrature line, writes the weighted average of g as
    the positive combination over the test set and adds the mesh-ratio
    scaled face flux differences; the directional contributions are blended
    with mu_d/mu and integrated by the face quadrature.
    """
    mesh = g.mesh
    n = mesh.n_cells
    vals = test_set_values(g, testset).reshape(n, mesh.dim, -1, 3)
    mus = [dt / h ** 2 for h in mesh.spacing]
    mu = sum(mus)
    c = g.coeffs.reshape(mesh.grid + (-1,))
    out = 0.0
    weights = testset.line_weights.reshape(n, mesh.dim, -1, 3)
    for d, (ft, h, mf) in enumerate(zip(basis_for(mesh).faces, mesh.spacing,
                                        weight.faces)):
        mflux = np.zeros(mf.shape)   # zero flux on the boundary faces
        mflux[ft.inner] = mf[ft.inner] * ft.flux(c, h, params)[2].reshape(mf[ft.inner].shape)
        line = np.einsum("nsi,nsi->ns", weights[:, d], vals[:, d]) \
            + mu * h * np.diff(mflux, axis=ft.axis).reshape(n, -1)
        out = out + (mus[d] / mu) * (line @ (ft.weights / 2 ** (mesh.dim - 1)))
    return out


def steady_state_init(problem, amplitudes, phi):
    """Stacked densities c_inf * exp(-q phi_h), projected cell by cell."""
    quad = problem.mesh.quadrature
    phivals = quad.values(phi.coeffs)
    amps = np.asarray(amplitudes, dtype=float)[:, None, None]
    q = np.asarray(problem.charges, dtype=float)[:, None, None]
    return Field(problem.mesh, quad.project(amps * np.exp(-q * phivals)))


def fit_steady_amplitudes(state, psi=None):
    """Amplitudes c_inf matching each species' current total mass for exp(-q psi)."""
    quad = state.mesh.quadrature
    if psi is None:
        psi = state.prepared_stage().psi
    psivals = quad.values(psi.coeffs)
    return [m / quad.integrate(np.exp(-q * psivals))
            for m, q in zip(total_mass(state), state.problem.charges)]


def boltzmann_state(state, max_iter=200):
    """Replace the densities of `state` by the discrete Poisson-Boltzmann
    state of their masses; returns the last change of psi.

    Picard iteration: c_i is exp(-q_i psi) projected cell by cell and scaled
    to species i's mass (`steady_state_init`, `fit_steady_amplitudes`), then
    psi solves the package's Poisson problem for c. It stops once psi
    changes by at most 4 eps max|psi|; c and the Poisson solution of c then
    form a Boltzmann state c_i = A_i exp(-q_i psi) to that change.
    """
    psi = state.prepared_stage().psi
    for _ in range(max_iter):
        state.c = steady_state_init(state.problem, fit_steady_amplitudes(state, psi), psi)
        new = state.prepared_stage().psi
        change = float(np.abs(new.coeffs - psi.coeffs).max())
        if change <= 4 * np.finfo(float).eps * np.abs(psi.coeffs).max():
            break
        psi = new
    return change
