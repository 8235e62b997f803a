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

from .exceptions import ConfigError, NumericalFatalError
from .field import Field, FluxParams, l1_error, project_l2
from .poisson import assemble_load, assemble_operator
from .positivity import LimiterReport, build_test_set, build_weight, cfl_mu0, \
    scaling_limiter, test_set_values, weighted_projection
from .transport import apply_mass_inverse, np_rhs

log = logging.getLogger("pnpdg")

ENTROPY_CLIP = 1e-14
MAX_HALVINGS = 60   # adaptive CFL: step halvings allowed per step
CFL_MODES = ("monitor", "strict", "adaptive")


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
    poisson_bc: dict                 # side name -> BoundaryCondition
    np_params: FluxParams
    poisson_params: FluxParams
    rho0: object = None
    poisson_source: object = None    # extra Poisson load f(t, x[, y])
    psi_exact: object = None
    name: str = "custom"

    @property
    def charges(self):
        return [s.charge for s in self.species]


@dataclass
class SimConfig:
    T: float
    dt: float = None          # give exactly one of dt and mu
    mu: float = None          # sets dt = mu min(h)^2; a stage checks sum_d dt/h_d^2 <= mu0
    rk: int = 2
    limiter: bool = True
    cfl_mode: str = "monitor"  # monitor | strict | adaptive
    cadence: int = 1
    override_admissibility: bool = False

    def __post_init__(self):
        """Rejects settings that could hang a run, end it silently or run a
        scheme other than the one asked for. T, dt and mu must be finite with
        T >= 0, dt > 0 and mu > 0; rk and cadence must be integers, not
        bools, with rk 1 or 2 and cadence >= 1; cfl_mode must be one of
        CFL_MODES. T and exactly one of dt and mu are required."""
        for name, value in (("t_final", self.T), ("dt", self.dt), ("mu", self.mu)):
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.T is not None and self.T < 0:
            raise ConfigError(f"t_final must be >= 0, got {self.T}")
        for name, value in (("dt", self.dt), ("mu", self.mu)):
            if value is not None and value <= 0:
                raise ConfigError(f"{name} must be > 0, got {value}")
        for name, value in (("rk", self.rk), ("cadence", self.cadence)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.rk not in (1, 2):
            raise ConfigError(f"rk must be 1 or 2, got {self.rk}")
        if self.cfl_mode not in CFL_MODES:
            raise ConfigError(f"cfl must be one of {CFL_MODES}, got {self.cfl_mode!r}")
        if self.cadence < 1:
            raise ConfigError("cadence must be >= 1")
        if self.T is None:
            raise ConfigError("t_final is required")
        if (self.dt is None) == (self.mu is None):
            raise ConfigError("give exactly one of dt and mu")

    def resolve_dt(self, mesh):
        if self.dt is not None:
            return float(self.dt)
        h = min(mesh.spacing)
        return self.mu * h * h


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
    """dt-independent part of one explicit stage at a fixed time. `weight`
    and `g` carry a leading species axis. `mu0` is NaN outside the positivity
    range, where no CFL check applies. Without the limiter, `report` holds
    theta = 1 and equal test-set minima."""

    t: float
    psi: Field
    weight: object
    g: Field
    mu0: float
    report: LimiterReport


class State:
    """One run's time, densities `c` (one (m_species, n_cells, nb) Field),
    factorized Poisson operator, and the charges and sources every stage
    reads, taken from the problem once."""

    def __init__(self, problem, config):
        self.problem = problem
        self.config = config
        self.charges = np.array(problem.charges, dtype=float)
        self.charges.flags.writeable = False
        self.sources = [sp.source for sp in problem.species]
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
    load = assemble_load(state.operator, c.coeffs, state.charges, t, pb.rho0, pb.poisson_source)
    psi = state.operator.solve(load)
    w = build_weight(psi, state.charges)
    g = weighted_projection(c, w)
    ts = build_test_set(w, pb.np_params)
    if state.config.limiter:
        g, rep = scaling_limiter(g, w, ts)
    else:
        mn = test_set_values(g, ts).min(axis=(-2, -1))
        rep = LimiterReport(np.ones(g.coeffs.shape[:-1]), 0, mn, mn)
    mu0 = cfl_mu0(w, ts, pb.np_params) if need_cfl else np.inf
    return _StagePrep(t, psi, w, g, mu0, rep)


def _advance(state, c, prep, dt):
    pb = state.problem
    mesh = pb.mesh
    rhs = np_rhs(prep.g, prep.weight, pb.np_params, source=state.sources, t=prep.t)
    return Field(mesh, c.coeffs + dt * apply_mass_inverse(mesh, rhs))


def _check_cfl(state, prep, dt, halvings, stage):
    """The step size the configured CFL mode allows for one stage, and the
    step halvings made so far in this step (adaptive mode: at most
    MAX_HALVINGS over both stages)."""
    if math.isnan(prep.mu0):
        return dt, halvings
    mu = sum(dt / h ** 2 for h in state.mesh.spacing)
    if mu <= prep.mu0:
        return dt, halvings
    if state.config.cfl_mode == "strict":
        raise NumericalFatalError(
            f"mesh ratio {mu:.6g} exceeds the positivity bound mu0={prep.mu0:.6g} "
            f"at stage {stage}, t={prep.t:.6g} (strict CFL mode)"
        )
    if state.config.cfl_mode == "adaptive":
        while mu > prep.mu0:
            if halvings == MAX_HALVINGS:
                raise NumericalFatalError(
                    f"adaptive CFL: mesh ratio still above mu0={prep.mu0:.6g} after "
                    f"{MAX_HALVINGS} step halvings at stage {stage}, t={prep.t:.6g}"
                )
            dt *= 0.5
            mu *= 0.5
            halvings += 1
        log.info("adaptive CFL: step size reduced to %.6g at stage %d, t=%.6g",
                 dt, stage, prep.t)
        return dt, halvings
    if not state._cfl_warned:
        log.warning("mesh ratio %.6g exceeds positivity bound mu0=%.6g at t=%.6g "
                    "(monitor mode; further violations not logged)", mu, prep.mu0, prep.t)
        state._cfl_warned = True
    return dt, halvings


def pnp_step(state, dt):
    """Advance the coupled system by one step (Euler or two-stage Heun).

    Returns the stage-1 prep used, for diagnostics. The prepared stage of
    the current state is cached on the State and reused while neither the
    time nor the densities change (the record at t_n shares the stage-1
    solve of step n).

    Strict and adaptive CFL modes check both Heun stages: the positivity of
    an Euler stage carries over to their convex combination only if each
    stage meets mu <= mu0. When stage 2 needs a smaller step, adaptive mode
    restarts the whole step with it; stage 1's prep does not depend on dt
    and is reused.
    """
    prep = state.prepared_stage()
    halvings = 0
    while True:
        dt, halvings = _check_cfl(state, prep, dt, halvings, stage=1)
        s1 = _advance(state, state.c, prep, dt)
        if state.config.rk == 1:
            new = s1
            break
        # monitor mode leaves stage 2 unchecked: its mu0 is then inf
        prep2 = _prepare_stage(state, s1, state.t + dt,
                               need_cfl=state.config.cfl_mode != "monitor")
        dt2, halvings = _check_cfl(state, prep2, dt, halvings, stage=2)
        if dt2 == dt:
            s2 = _advance(state, s1, prep2, dt)
            new = Field(state.mesh, 0.5 * (state.c.coeffs + s2.coeffs))
            break
        dt = dt2    # restart the whole step at the smaller dt
    state.c = new
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
        min_g_pre=prep.report.min_pre.tolist(),
        min_g_post=prep.report.min_post.tolist(),
        n_limited=prep.report.n_limited,
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
