"""Coupled time loop: Poisson solve, exponential weights, weighted projection,
limiter, explicit transport update, diagnostics.

Each explicit stage runs the full pipeline on the current densities; the
two-stage method is the convex (Heun) combination of such stages, so the
positivity guarantee of a single stage carries over. The state holds the
densities of all species as one (m_species, n_cells, nb) field, and each
stage runs every positivity and transport kernel once on it. Runs are
deterministic: identical configuration produces bitwise-identical
trajectories.
"""

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .basis import basis_for
from .exceptions import ConfigError, NumericalFatalError
from .field import Field, FluxParams, l1_error, project_l2
from .poisson import LoadSpec, PoissonBC, assemble_load, assemble_operator
from .positivity import build_test_set, build_weight, cfl_mu0, scaling_limiter, \
    test_set_values, weighted_projection
from .transport import apply_mass_inverse, np_rhs

log = logging.getLogger("pnpdg")

ENTROPY_CLIP = 1e-14
MAX_HALVINGS = 60   # adaptive CFL: step halvings allowed per step
CFL_MODES = ("monitor", "strict", "adaptive")


def check_time_settings(T, dt, mu, rk, cfl_mode, cadence):
    """Rejects time settings that could hang a run, end it silently or run a
    scheme other than the one asked for. T, dt and mu, each unless None,
    must be finite with T >= 0, dt > 0 and mu > 0; rk and cadence must be
    integers, not bools, with rk 1 or 2 and cadence >= 1; cfl_mode must be
    one of CFL_MODES."""
    for name, value in (("t_final", T), ("dt", dt), ("mu", mu)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    if T is not None and T < 0:
        raise ConfigError(f"t_final must be >= 0, got {T}")
    for name, value in (("dt", dt), ("mu", mu)):
        if value is not None and value <= 0:
            raise ConfigError(f"{name} must be > 0, got {value}")
    for name, value in (("rk", rk), ("cadence", cadence)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    if rk not in (1, 2):
        raise ConfigError(f"rk must be 1 or 2, got {rk}")
    if cfl_mode not in CFL_MODES:
        raise ConfigError(f"cfl must be one of {CFL_MODES}, got {cfl_mode!r}")
    if cadence < 1:
        raise ConfigError("cadence must be >= 1")


@dataclass
class SpeciesSpec:
    """One charged species: charge, initial density, optional manufactured
    source f(t, x[, y]) and exact solution for error reporting.

    `init_coeffs` bypasses the quadrature projection with exact per-cell
    modal coefficients (used for states whose DG representation is known in
    closed form, e.g. constants)."""

    charge: float
    c_init: object
    source: object = None
    exact: object = None
    name: str = "c"
    init_coeffs: object = None


@dataclass
class ProblemSpec:
    mesh: object
    species: list
    poisson_bc: PoissonBC
    np_params: FluxParams
    poisson_params: FluxParams
    rho0: object = None
    poisson_source: object = None    # extra Poisson load f(t, x[, y])
    psi_exact: object = None
    name: str = "custom"

    @property
    def charges(self):
        return [s.charge for s in self.species]

    def load_spec(self):
        return LoadSpec(self.charges, self.rho0, self.poisson_source)


@dataclass
class SimConfig:
    T: float
    dt: float = None
    mu: float = None          # mesh ratio dt/h^2; used when dt is None
    rk: int = 2
    limiter: bool = True
    cfl_mode: str = "monitor"  # monitor | strict | adaptive
    cadence: int = 1
    override_admissibility: bool = False

    def __post_init__(self):
        check_time_settings(self.T, self.dt, self.mu, self.rk, self.cfl_mode, self.cadence)

    def resolve_dt(self, mesh):
        if self.dt is not None:
            return float(self.dt)
        mu = 0.01 if self.mu is None else self.mu
        h = min(mesh.spacing)
        return mu * h * h


@dataclass
class DiagnosticsRecord:
    t: float
    masses: list
    energy: float
    min_avgs: list
    min_g_pre: list
    min_g_post: list
    n_limited: int
    mu0: float


@dataclass
class RunResult:
    state: object
    diagnostics: list
    errors: dict


@dataclass(slots=True)
class _StagePrep:
    """dt-independent part of one explicit stage at a fixed time.

    `weight` and `g` carry a leading species axis. `mu0` is NaN
    outside the positivity range, where no CFL check applies."""

    t: float
    psi: Field
    weight: object
    g: Field
    mu0: float
    n_limited: int
    min_g_pre: list
    min_g_post: list


class State:
    """Time, densities `c` (one (m_species, n_cells, nb) Field) and the
    factorized Poisson operator of a run."""

    def __init__(self, problem, config):
        self.problem = problem
        self.config = config
        self.t = 0.0
        self.operator = None
        self._c = None
        self._prep = None
        self._cfl_warned = False

    @property
    def mesh(self):
        return self.problem.mesh

    @property
    def c(self):
        return self._c

    @c.setter
    def c(self, field):
        # new densities invalidate the stage prepared from the old ones; the
        # array turns read-only, so it cannot change under the cached stage
        field.coeffs.flags.writeable = False
        self._c = field
        self._prep = None

    def prepared_stage(self):
        """The prepared stage of the current densities and time, cached until
        either changes."""
        if self._prep is None or self._prep.t != self.t:
            self._prep = _prepare_stage(self, self.c, self.t)
        return self._prep


def init(problem, config):
    """Project initial data and assemble/factorize the Poisson operator."""
    if not problem.np_params.in_positivity_range():
        if not config.override_admissibility:
            raise ConfigError(
                f"transport flux parameters (beta0={problem.np_params.beta0}, "
                f"beta1={problem.np_params.beta1}) are outside the provable range "
                "beta0 >= 1, 1/8 <= beta1 <= 1/4; set override_admissibility to run anyway"
            )
        log.warning(
            "override: transport parameters (beta0=%g, beta1=%g) outside the provable "
            "positivity range; positivity guarantees are void for this run",
            problem.np_params.beta0, problem.np_params.beta1,
        )
    state = State(problem, config)
    mesh = problem.mesh
    points = mesh.quadrature.points
    coeffs = []
    for sp in problem.species:
        if sp.init_coeffs is not None:
            coeffs.append(np.tile(np.asarray(sp.init_coeffs, float), (mesh.n_cells, 1)))
        else:
            coeffs.append(project_l2(sp.c_init, mesh).coeffs)
        vals = sp.c_init(*points)
        if np.min(vals) < 0:
            log.warning("initial data for species %s is negative at quadrature nodes "
                        "(min %.3g)", sp.name, float(np.min(vals)))
    state.c = Field(mesh, np.stack(coeffs))
    state.operator = assemble_operator(mesh, problem.poisson_params, problem.poisson_bc)
    return state


def _prepare_stage(state, c, t, need_cfl=True):
    """Poisson solve, weights, projections, test sets and limiting at time t
    for the stacked densities c."""
    pb = state.problem
    load = assemble_load(state.operator, c.coeffs, pb.load_spec(), t)
    psi = state.operator.solve(load)
    w = build_weight(psi, np.array(pb.charges, dtype=float))
    g = weighted_projection(c, w)
    ts = build_test_set(w, pb.np_params)
    if state.config.limiter:
        g, rep = scaling_limiter(g, w, ts)
        n_limited = rep.n_limited
        min_pre, min_post = rep.min_pre.tolist(), rep.min_post.tolist()
    else:
        n_limited = 0
        min_pre = min_post = test_set_values(g, ts).min(axis=(-2, -1)).tolist()
    mu0 = cfl_mu0(w, ts, pb.np_params) if need_cfl else np.inf
    return _StagePrep(t, psi, w, g, mu0, n_limited, min_pre, min_post)


def _advance(state, c, prep, dt):
    pb = state.problem
    mesh = pb.mesh
    rhs = np_rhs(prep.g, prep.weight, pb.np_params,
                 source=[sp.source for sp in pb.species], t=prep.t)
    return Field(mesh, c.coeffs + dt * apply_mass_inverse(mesh, basis_for(mesh), rhs))


def _check_cfl(state, prep, dt):
    """Returns the (possibly reduced) step size per the configured CFL mode."""
    if math.isnan(prep.mu0):
        return dt
    mu = sum(dt / h ** 2 for h in state.mesh.spacing)
    if mu <= prep.mu0:
        return dt
    if state.config.cfl_mode == "strict":
        raise NumericalFatalError(
            f"mesh ratio {mu:.6g} exceeds the positivity bound mu0={prep.mu0:.6g} "
            f"at t={prep.t:.6g} (strict CFL mode)"
        )
    if state.config.cfl_mode == "adaptive":
        for _ in range(MAX_HALVINGS):
            dt *= 0.5
            mu *= 0.5
            if mu <= prep.mu0:
                break
        else:
            raise NumericalFatalError(
                f"adaptive CFL: mesh ratio still above mu0={prep.mu0:.6g} after "
                f"{MAX_HALVINGS} step halvings at t={prep.t:.6g}"
            )
        log.info("adaptive CFL: step size reduced to %.6g at t=%.6g", dt, prep.t)
        return dt
    if not state._cfl_warned:
        log.warning("mesh ratio %.6g exceeds positivity bound mu0=%.6g at t=%.6g "
                    "(monitor mode; further violations not logged)", mu, prep.mu0, prep.t)
        state._cfl_warned = True
    return dt


def pnp_step(state, dt):
    """Advance the coupled system by one step (Euler or two-stage Heun).

    Returns the stage-1 prep used, for diagnostics. The prepared stage of
    the current state is cached on the State and reused while neither the
    time nor the densities change (the record at t_n shares the stage-1
    solve of step n).
    """
    prep = state.prepared_stage()
    dt = _check_cfl(state, prep, dt)
    s1 = _advance(state, state.c, prep, dt)
    if state.config.rk == 2:
        prep2 = _prepare_stage(state, s1, state.t + dt, need_cfl=False)
        s2 = _advance(state, s1, prep2, dt)
        state.c = Field(state.mesh, 0.5 * (state.c.coeffs + s2.coeffs))
    else:
        state.c = s1
    state.t += dt
    return prep


def _record(state, prep):
    masses = total_mass(state)
    energy = free_energy(state, psi=prep.psi)
    return DiagnosticsRecord(
        t=state.t,
        masses=masses,
        energy=energy,
        min_avgs=state.c.cell_averages.min(axis=-1).tolist(),
        min_g_pre=list(prep.min_g_pre),
        min_g_post=list(prep.min_g_post),
        n_limited=prep.n_limited,
        mu0=prep.mu0,
    )


def run(problem, config, diagnostics=True):
    """Full simulation: initialization, time loop, diagnostics, error report.

    With diagnostics=False no DiagnosticsRecord is built (the result's list
    is empty); the trajectory and the errors are the same. Errors are L1
    norms by the scheme's 4-point rule.
    """
    state = init(problem, config)
    dt = config.resolve_dt(problem.mesh)
    records = []
    if diagnostics:
        records.append(_record(state, state.prepared_stage()))
    step = 0
    tiny = 1e-12 * max(dt, 1.0)
    while state.t < config.T - tiny:
        dt_step = min(dt, config.T - state.t)
        pnp_step(state, dt_step)
        step += 1
        is_last = state.t >= config.T - tiny
        if diagnostics and (step % config.cadence == 0 or is_last):
            records.append(_record(state, state.prepared_stage()))
    errors = {}
    for sp, coeffs in zip(problem.species, state.c.coeffs):
        if sp.exact is not None:
            errors[sp.name] = l1_error(Field(problem.mesh, coeffs), sp.exact, t=state.t)
    if problem.psi_exact is not None:
        errors["psi"] = l1_error(state.prepared_stage().psi, problem.psi_exact, t=state.t)
    return RunResult(state, records, errors)


def total_mass(state):
    """Total mass of every species, in species order."""
    return (state.c.cell_averages.sum(axis=-1) * state.mesh.cell_volume).tolist()


def free_energy(state, psi=None):
    """Diagnostic free energy: sum_i int c_i ln c_i + 0.5 int (sum_i q_i c_i + rho0) psi.

    This is a reporting convention, not a reproduced quantity; densities
    below 1e-14 are clipped inside the logarithm.
    """
    quad = state.mesh.quadrature
    if psi is None:
        psi = state.prepared_stage().psi
    cvals = quad.values(state.c.coeffs)
    rho = state.problem.rho0(*quad.points) if state.problem.rho0 else 0.0
    n_clipped = int((cvals < ENTROPY_CLIP).sum())
    if n_clipped:
        log.debug("free_energy: clipped %d density values below %g inside log",
                  n_clipped, ENTROPY_CLIP)
    # per species, then summed in species order
    entropy = sum(quad.integrate(e) for e in cvals * np.log(np.maximum(cvals, ENTROPY_CLIP)))
    charge = sum(q * v for q, v in zip(state.problem.charges, cvals)) + rho
    return entropy + 0.5 * quad.integrate(charge * quad.values(psi.coeffs))


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
