"""Coupled time loop: Poisson solve, exponential weights, weighted projection,
limiter, explicit transport update, diagnostics.

Each explicit stage runs the full pipeline on the current densities; the
two-stage method is the convex (Heun) combination of such stages, so the
positivity guarantee of a single stage carries over. A stage stacks the
densities of all species into one (m_species, n_cells, nb) field and runs
each positivity and transport kernel once on it; the increment is split
back into one Field per species. Runs are deterministic: identical
configuration produces bitwise-identical trajectories.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .basis import basis_for
from .exceptions import ConfigError, NumericalFatalError
from .field import DEFAULT_RULE, Field, FluxParams, l1_error, project_l2
from .poisson import LoadSpec, PoissonBC, assemble_load, assemble_operator
from .positivity import build_test_set, build_weight, cfl_mu0, scaling_limiter, \
    test_set_values, weighted_projection
from .quadrature import gauss_rule
from .transport import apply_mass_inverse, np_rhs

log = logging.getLogger("pnpdg")

ENTROPY_CLIP = 1e-14
MAX_HALVINGS = 60   # adaptive CFL: step halvings allowed per step


def check_time_settings(T, dt=None, mu=None):
    """Rejects a final time, step size or mesh ratio that could hang a run or
    end it silently: each given value must be finite, T >= 0, dt > 0, mu > 0."""
    for name, value in (("t_final", T), ("dt", dt), ("mu", mu)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    if T is not None and T < 0:
        raise ConfigError(f"t_final must be >= 0, got {T}")
    for name, value in (("dt", dt), ("mu", mu)):
        if value is not None and value <= 0:
            raise ConfigError(f"{name} must be > 0, got {value}")


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
    quad_n: int = 4

    def __post_init__(self):
        check_time_settings(self.T, self.dt, self.mu)

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


class _StagePrep:
    """dt-independent part of one explicit stage at a fixed time.

    `weight`, `g` and `testset` carry a leading species axis."""

    __slots__ = ("t", "psi", "weight", "g", "testset", "mu0", "cfl_valid",
                 "n_limited", "min_g_pre", "min_g_post")

    def __init__(self, t, psi, weight, g, testset, mu0, cfl_valid,
                 n_limited, min_g_pre, min_g_post):
        self.t = t
        self.psi = psi
        self.weight = weight
        self.g = g
        self.testset = testset
        self.mu0 = mu0
        self.cfl_valid = cfl_valid
        self.n_limited = n_limited
        self.min_g_pre = min_g_pre
        self.min_g_post = min_g_post


class State:
    def __init__(self, problem, config):
        self.problem = problem
        self.config = config
        self.rule = gauss_rule(config.quad_n)
        self.t = 0.0
        self.operator = None
        self.c = []
        self._prep = None
        self._cfl_warned = False

    @property
    def mesh(self):
        return self.problem.mesh

    def prepared_stage(self):
        """The prepared stage at the current time: the cached one if its time
        matches, else a new one, which is cached."""
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
    points = mesh.quadrature(state.rule).points
    for sp in problem.species:
        if sp.init_coeffs is not None:
            f = Field(mesh, np.tile(np.asarray(sp.init_coeffs, float), (mesh.n_cells, 1)),
                      role="density")
        else:
            f = project_l2(sp.c_init, mesh, state.rule, role="density")
        vals = sp.c_init(*points)
        if np.min(vals) < 0:
            log.warning("initial data for species %s is negative at quadrature nodes "
                        "(min %.3g)", sp.name, float(np.min(vals)))
        state.c.append(f)
    state.operator = assemble_operator(mesh, problem.poisson_params, problem.poisson_bc,
                                       state.rule)
    return state


def _prepare_stage(state, cs, t, need_cfl=True):
    """Poisson solve, weights, projections, test sets and limiting at time t."""
    pb = state.problem
    load = assemble_load(state.operator, cs, pb.load_spec(), t)
    psi = state.operator.solve(load)
    cap = pb.np_params.in_positivity_range()
    c = Field(pb.mesh, np.stack([ci.coeffs for ci in cs]), role="density")
    w = build_weight(psi, np.array(pb.charges, dtype=float), state.rule)
    g = weighted_projection(c, w)
    ts = build_test_set(w, pb.np_params, cap=cap)
    if state.config.limiter:
        g, rep = scaling_limiter(g, w, ts)
        n_limited = rep.n_limited
        min_pre, min_post = rep.min_pre.tolist(), rep.min_post.tolist()
    else:
        n_limited = 0
        min_pre = min_post = test_set_values(g, ts).min(axis=(-2, -1)).tolist()
    if not cap:
        mu0 = float("nan")
    elif need_cfl:
        mu0 = cfl_mu0(w, ts, pb.np_params).mu0
    else:
        mu0 = np.inf
    return _StagePrep(t, psi, w, g, ts, mu0, cap, n_limited, min_pre, min_post)


def _advance(state, cs, prep, dt):
    pb = state.problem
    mesh = pb.mesh
    rhs = np_rhs(prep.g, prep.weight, pb.np_params,
                 source=[sp.source for sp in pb.species], t=prep.t)
    inc = apply_mass_inverse(mesh, basis_for(mesh), rhs)
    return [Field(mesh, c.coeffs + dt * d, role=c.role) for c, d in zip(cs, inc)]


def _check_cfl(state, prep, dt):
    """Returns the (possibly reduced) step size per the configured CFL mode."""
    if not prep.cfl_valid:
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
    the current state is cached on the State and reused when the time
    matches (the record at t_n shares the stage-1 solve of step n).
    """
    prep = state.prepared_stage()
    dt = _check_cfl(state, prep, dt)
    s1 = _advance(state, state.c, prep, dt)
    if state.config.rk == 2:
        prep2 = _prepare_stage(state, s1, state.t + dt, need_cfl=False)
        s2 = _advance(state, s1, prep2, dt)
        state.c = [Field(state.mesh, 0.5 * (a.coeffs + b.coeffs), role=a.role)
                   for a, b in zip(state.c, s2)]
    else:
        state.c = s1
    state.t += dt
    state._prep = None
    return prep


def _record(state, prep):
    pb = state.problem
    masses = [total_mass(state, i) for i in range(len(pb.species))]
    energy = free_energy(state, psi=prep.psi)
    return DiagnosticsRecord(
        t=state.t,
        masses=masses,
        energy=energy,
        min_avgs=[float(c.cell_averages.min()) for c in state.c],
        min_g_pre=list(prep.min_g_pre),
        min_g_post=list(prep.min_g_post),
        n_limited=prep.n_limited,
        mu0=prep.mu0,
    )


def run(problem, config, diagnostics=True):
    """Full simulation: initialization, time loop, diagnostics, error report.

    With diagnostics=False no DiagnosticsRecord is built (the result's list
    is empty); the trajectory and the errors are the same. Errors are L1
    norms by the fixed 4-point rule, whatever the scheme's `quad_n`: a
    coarser rule can vanish on the leading error term of a P2 field.
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
    for sp, c in zip(problem.species, state.c):
        if sp.exact is not None:
            errors[sp.name] = l1_error(c, sp.exact, DEFAULT_RULE, t=state.t)
    if problem.psi_exact is not None:
        errors["psi"] = l1_error(state.prepared_stage().psi, problem.psi_exact, DEFAULT_RULE,
                                 t=state.t)
    return RunResult(state, records, errors)


def total_mass(state, species):
    return float(state.c[species].cell_averages.sum() * state.mesh.cell_volume)


def minima(state):
    """Per-species minimum cell average."""
    return [float(c.cell_averages.min()) for c in state.c]


def free_energy(state, psi=None):
    """Diagnostic free energy: sum_i int c_i ln c_i + 0.5 int (sum_i q_i c_i + rho0) psi.

    This is a reporting convention, not a reproduced quantity; densities
    below 1e-14 are clipped inside the logarithm.
    """
    quad = state.mesh.quadrature(state.rule)
    if psi is None:
        psi = state.prepared_stage().psi
    cvals = [quad.values(c.coeffs) for c in state.c]
    rho = state.problem.rho0(*quad.points) if state.problem.rho0 else 0.0
    entropy = 0.0
    n_clipped = 0
    for v in cvals:
        clipped = np.maximum(v, ENTROPY_CLIP)
        n_clipped += int((v < ENTROPY_CLIP).sum())
        entropy += quad.integrate(v * np.log(clipped))
    if n_clipped:
        log.debug("free_energy: clipped %d density values below %g inside log",
                  n_clipped, ENTROPY_CLIP)
    charge = sum(q * v for q, v in zip(state.problem.charges, cvals)) + rho
    return entropy + 0.5 * quad.integrate(charge * quad.values(psi.coeffs))


def steady_state_init(problem, amplitudes, phi, rule=None):
    """Densities c_inf * exp(-q phi_h), projected cell by cell."""
    quad = problem.mesh.quadrature(rule or gauss_rule(4))
    phivals = quad.values(phi.coeffs)
    return [Field(problem.mesh, quad.project(amp * np.exp(-sp.charge * phivals)), role="density")
            for sp, amp in zip(problem.species, amplitudes)]


def fit_steady_amplitudes(state, psi=None):
    """Amplitudes c_inf matching each species' current total mass for exp(-q psi)."""
    quad = state.mesh.quadrature(state.rule)
    if psi is None:
        psi = _prepare_stage(state, state.c, state.t).psi
    psivals = quad.values(psi.coeffs)
    return [total_mass(state, i) / quad.integrate(np.exp(-sp.charge * psivals))
            for i, sp in enumerate(state.problem.species)]
