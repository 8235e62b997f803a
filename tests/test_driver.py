import logging
from dataclasses import replace

import numpy as np
import pytest

import pnpdg.driver as driver
from oracles import boltzmann_state, fit_steady_amplitudes, steady_state_init, zero_field
from pnpdg.basis import RULE, SeparableSource
from pnpdg.benchmarks import build_benchmark
from pnpdg.driver import (MAX_HALVINGS, SimConfig, SpeciesSpec, free_energy, init, pnp_step,
                          run, total_mass)
from pnpdg.exceptions import ConfigError, NumericalFatalError
from pnpdg.field import Field, l1_error, project_l2
from pnpdg.mesh import SIDES
from pnpdg.poisson import dirichlet, neumann

EPS = np.finfo(float).eps
# bounds of the charged steady state, in eps times the largest density: per
# step also times the mesh ratio mu. Measured on the meshes below, rk 1 and
# 2: at most 36 eps mu per step in 1D and 109 eps mu in 2D, and 1.2 eps
# after 1000 steps at mu0/2.
STEADY_STEP_K = 500
STEADY_DRIFT_K = 10


def test_example2_initial_masses():
    problem = build_benchmark("example2", 10)
    state = init(problem, SimConfig(T=0.1, mu=0.01))
    assert np.abs(np.array(total_mass(state)) - 3.0).max() < 1e-12


def test_constant_initial_data_projection_exact():
    problem = build_benchmark("neutral", 8)
    state = init(problem, SimConfig(T=0.1, mu=0.01))
    assert state.c.coeffs.shape == (2, 8, 3)
    assert np.max(np.abs(state.c.coeffs[..., 0] - 3.0)) < 1e-13
    assert np.max(np.abs(state.c.coeffs[..., 1:])) < 1e-13


def test_example4_initial_minima_positive():
    problem = build_benchmark("example4", 20)
    state = init(problem, SimConfig(T=0.1, dt=1e-5))
    assert np.all(state.c.cell_averages.min(axis=-1) > 0)


@pytest.mark.parametrize("mu_factor,tol,dim", [
    pytest.param(0.1, 1e-13, 1, id="0.1-1e-13"),
    pytest.param(1.0, 1e-13, 1, id="1.0-1e-13"),
    pytest.param(10.0, 1e-13, 1, id="10.0-1e-13"),
    pytest.param(10.0, 1e-13, 2, id="2d-10.0-1e-13"),
])
def test_neutral_state_is_fixed_point(mu_factor, tol, dim):
    # per-step deviation of the exactly-constant state; one step per ratio
    problem = build_benchmark("neutral", 8, dim=dim)
    state = init(problem, SimConfig(T=1.0, mu=mu_factor, rk=1))
    dt = mu_factor * state.mesh.spacing[0]**2
    before = state.c.coeffs.copy()
    pnp_step(state, dt)
    assert np.max(np.abs(state.c.coeffs - before)) < tol


def test_neutral_state_fixed_point_sustained():
    # at a stable ratio the state stays put step after step
    problem = build_benchmark("neutral", 8)
    state = init(problem, SimConfig(T=1.0, mu=0.01))
    dt = 0.01 * state.mesh.spacing[0]**2
    before = state.c.coeffs.copy()
    for _ in range(100):
        pnp_step(state, dt)
    assert np.max(np.abs(state.c.coeffs - before)) < 1e-13


@pytest.mark.parametrize("dim", [0, 3])
def test_neutral_rejects_unsupported_dim(dim):
    with pytest.raises(ValueError, match="dim"):
        build_benchmark("neutral", 8, dim=dim)


@pytest.mark.parametrize("name,kwargs", [
    ("example1", {"variant": "b"}), ("example3-4a", {"variant": "a"}),
    ("example4", {"dim": 2, "perturb": 0.3}), ("neutral", {"variant": "b"}),
])
def test_registry_rejects_keywords_it_does_not_take(name, kwargs):
    with pytest.raises(TypeError):
        build_benchmark(name, 4, **kwargs)


def test_steady_state_init_zero_potential():
    problem = build_benchmark("neutral", 8)
    phi = zero_field(problem.mesh)
    densities = steady_state_init(problem, [3.0, 3.0], phi)
    assert densities.coeffs.shape == (2, 8, 3)
    assert np.max(np.abs(densities.coeffs[..., 0] - 3.0)) < 1e-13


def test_steady_state_init_uncharged_species(rng):
    problem = build_benchmark("neutral", 8)
    problem.species[0] = SpeciesSpec(0.0, lambda x: 1.0 + 0 * x, name="n0")
    phi = Field(problem.mesh, rng.normal(size=(8, 3)))
    densities = steady_state_init(problem, [5.0, 5.0], phi)
    assert np.max(np.abs(densities.coeffs[0, :, 0] - 5.0)) < 1e-12
    assert np.max(np.abs(densities.coeffs[0, :, 1:])) < 1e-12


def test_free_energy_values():
    problem = build_benchmark("neutral", 8)
    state = init(problem, SimConfig(T=0.1, mu=0.01))
    # c1 = c2 = 3, psi = 0: E = 2 * 3 ln 3 over the unit interval
    assert abs(free_energy(state) - 6 * np.log(3.0)) < 1e-12
    problem.species = [problem.species[0]]
    state = init(problem, SimConfig(T=0.1, mu=0.01))
    state.c = Field(problem.mesh, project_l2(lambda x: 1.0 + 0 * x, problem.mesh).coeffs[None])
    psi0 = zero_field(problem.mesh)
    assert abs(free_energy(state, psi=psi0)) < 1e-12


def test_run_zero_final_time():
    problem = build_benchmark("neutral", 8)
    res = run(problem, SimConfig(T=0.0, mu=0.01))
    assert len(res.diagnostics) == 1
    assert res.diagnostics[0].t == 0.0


def test_run_determinism():
    problem1 = build_benchmark("example2", 5)
    r1 = run(problem1, SimConfig(T=0.005, mu=0.01))
    problem2 = build_benchmark("example2", 5)
    r2 = run(problem2, SimConfig(T=0.005, mu=0.01))
    assert [d.masses for d in r1.diagnostics] == [d.masses for d in r2.diagnostics]
    assert [d.energy for d in r1.diagnostics] == [d.energy for d in r2.diagnostics]
    assert np.array_equal(r1.state.c.coeffs, r2.state.c.coeffs)
    times = [d.t for d in r1.diagnostics]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_out_of_range_parameters_need_override():
    problem = build_benchmark("example1", 5)
    problem.np_params = problem.np_params.__class__(4.0, 1 / 24)
    with pytest.raises(ConfigError):
        init(problem, SimConfig(T=0.01, mu=0.01))
    state = init(problem, SimConfig(T=0.01, mu=0.01, override_admissibility=True))
    assert state is not None


def test_strict_cfl_raises():
    problem = build_benchmark("example2", 8)
    state = init(problem, SimConfig(T=1.0, mu=0.01, cfl_mode="strict"))
    with pytest.raises(NumericalFatalError):
        pnp_step(state, 1.0)   # mesh ratio far above the bound


@pytest.mark.parametrize("mode", ["monitor", "strict", "adaptive"])
def test_no_cfl_check_outside_the_positivity_range(mode, caplog):
    # beta1 = 1/24 has no proven bound: mu0 is NaN, so a mesh ratio far above
    # any in-range bound neither raises, shrinks the (Euler) step nor warns
    problem = build_benchmark("example2", 8)
    problem.np_params = problem.np_params.__class__(4.0, 1 / 24)
    state = init(problem, SimConfig(T=1.0, mu=0.01, rk=1, cfl_mode=mode,
                                    override_admissibility=True))
    assert np.isnan(state.prepared_stage().mu0)
    dt = 10.0 * state.mesh.spacing[0] ** 2
    with caplog.at_level(logging.INFO, logger="pnpdg"):
        pnp_step(state, dt)
    assert state.t == dt
    assert not any("mesh ratio" in r.message or "adaptive CFL" in r.message
                   for r in caplog.records)


def test_adaptive_cfl_reduces_step():
    problem = build_benchmark("example2", 8)
    state = init(problem, SimConfig(T=1.0, mu=0.01, cfl_mode="adaptive"))
    t_before = state.t
    pnp_step(state, 1.0)
    assert 0 < state.t - t_before < 1.0


@pytest.mark.parametrize("kwargs", [
    dict(T=0.1, dt=0.0), dict(T=0.1, dt=-1e-5), dict(T=0.1, dt=float("nan")),
    dict(T=0.1, mu=0.0), dict(T=0.1, mu=-0.01), dict(T=0.1, mu=float("inf")),
    dict(T=float("nan")), dict(T=float("inf")), dict(T=-1.0),
])
def test_sim_config_rejects_bad_time_settings(kwargs):
    with pytest.raises(ConfigError):
        SimConfig(**kwargs)


@pytest.mark.parametrize("kwargs,match", [
    (dict(rk=3), "rk must be 1 or 2"),
    (dict(cfl_mode="strictt"), "cfl must be one of"),
    (dict(cadence=0), "cadence must be >= 1"),
    (dict(cadence=1.5), "cadence must be an integer"),
    (dict(cadence=True), "cadence must be an integer"),
    (dict(rk=True), "rk must be an integer"),
    (dict(rk=2.0), "rk must be an integer"),
], ids=["rk", "cfl_mode", "cadence", "cadence-1.5", "cadence-True", "rk-True", "rk-2.0"])
def test_sim_config_rejects_bad_scheme_settings(kwargs, match):
    # none of these may fall back to another scheme or fail inside the run
    with pytest.raises(ConfigError, match=match):
        SimConfig(T=0.1, **kwargs)


@pytest.mark.parametrize("kwargs,match", [
    (dict(T=None, mu=0.01), "t_final is required"),
    (dict(T=0.1, dt=1e-5, mu=0.01), "exactly one of dt and mu"),
    (dict(T=0.1), "exactly one of dt and mu"),
], ids=["no-T", "dt-and-mu", "neither"])
def test_sim_config_requires_t_and_one_step_setting(kwargs, match):
    # the parser rejects each of these; a library caller must not get a
    # TypeError inside the run, a silently dropped mu or a made-up step size
    with pytest.raises(ConfigError, match=match):
        SimConfig(**kwargs)


def test_sim_config_accepts_numpy_integers():
    problem = build_benchmark("example2", 6)
    res = run(problem, SimConfig(T=4e-3, dt=1e-3, rk=np.int64(1), cadence=np.int32(2)))
    assert [r.t for r in res.diagnostics] == pytest.approx([0.0, 2e-3, 4e-3])


@pytest.mark.parametrize("shrink,ok", [(1.0, True), (0.99, False)])
def test_adaptive_cfl_halvings_are_capped(shrink, ok):
    # mu0 set so that exactly MAX_HALVINGS halvings reach it (shrink 1), or
    # just one more would; neither loop runs without end
    problem = build_benchmark("example2", 8)
    state = init(problem, SimConfig(T=1.0, mu=0.01, cfl_mode="adaptive"))
    dt = 1e-3
    prep = state.prepared_stage()
    prep.mu0 = shrink * dt / state.mesh.spacing[0] ** 2 * 0.5 ** MAX_HALVINGS
    if ok:
        pnp_step(state, dt)
        assert state.t == dt * 0.5 ** MAX_HALVINGS
    else:
        with pytest.raises(NumericalFatalError, match="halvings"):
            pnp_step(state, dt)


def test_example2_run_mass_and_energy():
    problem = build_benchmark("example2", 8)
    res = run(problem, SimConfig(T=0.02, mu=0.01))
    masses = np.array([d.masses for d in res.diagnostics])
    drift = np.abs(masses - masses[0]).max() / masses[0].max()
    assert drift < 1e-11
    energies = [d.energy for d in res.diagnostics]
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-8)


def test_steady_state_reinit_is_stationary():
    # relax toward equilibrium, refit amplitudes, re-project: the
    # reconstructed state moves by < 1e-8 per step
    problem = build_benchmark("example2", 8)
    res = run(problem, SimConfig(T=1.0, mu=0.01, cadence=1000))
    state = res.state
    psi = state.prepared_stage().psi
    amps = fit_steady_amplitudes(state)
    state.c = steady_state_init(problem, amps, psi)
    dt = 0.01 * state.mesh.spacing[0]**2
    before = state.c.coeffs.copy()
    pnp_step(state, dt)
    assert np.abs(state.c.coeffs - before).max() < 1e-8


def _biased(name, n, bias):
    """The registry problem with Poisson data psi = 0 on the left side,
    psi = bias on the right side and zero Neumann data elsewhere."""
    problem = build_benchmark(name, n)
    sides = {s: neumann() for pair in SIDES[:problem.mesh.dim] for s in pair}
    sides["left"], sides["right"] = dirichlet(), dirichlet(lambda t, *s: bias)
    return replace(problem, poisson_bc=sides)


@pytest.mark.parametrize("rk", [1, 2])
@pytest.mark.parametrize("name, n", [("example2", 10), ("example4", 8)], ids=["1d", "2d"])
def test_charged_steady_state_is_a_fixed_point_to_roundoff(name, n, rk):
    # the Boltzmann state of charges +1 and -1 under a bias of 2, where psi
    # reaches about 1.9: one step at mesh ratio mu = dt sum_d 1/h_d^2 <= mu0
    # moves it by at most STEADY_STEP_K eps mu max|c|, and 1000 steps at
    # mu0/2 by at most STEADY_DRIFT_K eps max|c|
    state = init(_biased(name, n, 2.0), SimConfig(T=1.0, mu=0.01, rk=rk))
    change = boltzmann_state(state)
    steady, prep = state.c, state.prepared_stage()
    assert change <= 4 * EPS * np.abs(prep.psi.coeffs).max()
    assert np.abs(prep.psi.coeffs).max() > 1.5
    scale = np.abs(steady.coeffs).max()
    inv_h2 = sum(h ** -2 for h in state.mesh.spacing)
    for frac in (0.1, 0.5, 1.0):
        state.c, state.t = steady, 0.0
        mu = frac * prep.mu0
        pnp_step(state, mu / inv_h2)
        assert np.abs(state.c.coeffs - steady.coeffs).max() <= STEADY_STEP_K * EPS * mu * scale
    state.c, state.t = steady, 0.0
    for _ in range(1000):
        pnp_step(state, 0.5 * prep.mu0 / inv_h2)
    assert np.abs(state.c.coeffs - steady.coeffs).max() <= STEADY_DRIFT_K * EPS * scale


@pytest.mark.parametrize("rk", [1, 2])
def test_replacing_densities_drops_the_prepared_stage(rk):
    # a stage prepared before the densities were replaced at the same time
    # must not be used to advance the new densities
    steps = []
    for warm in (True, False):
        problem = build_benchmark("example2", 10)
        state = init(problem, SimConfig(T=1.0, mu=0.01, rk=rk))
        if warm:
            state.prepared_stage()
        const = np.zeros_like(state.c.coeffs)
        const[..., 0] = 2.0
        state.c = Field(state.mesh, const)
        pnp_step(state, 1e-4)
        steps.append(state.c.coeffs)
    assert np.array_equal(steps[0], steps[1])


def test_editing_densities_in_place_is_refused():
    # an in-place write would leave the prepared stage of the old densities
    # in the cache; the state's coefficient array is read-only instead
    problem = build_benchmark("example2", 10)
    config = SimConfig(T=1.0, mu=0.01, rk=1)
    state = init(problem, config)
    state.prepared_stage()
    with pytest.raises(ValueError):
        state.c.coeffs[..., 0] = 2.0
    pnp_step(state, 1e-4)
    cold = init(problem, config)
    pnp_step(cold, 1e-4)
    assert np.array_equal(state.c.coeffs, cold.c.coeffs)


def _residual_points_1d(rng, n=40):
    return rng.uniform(0.02, 0.98, size=n), rng.uniform(0.0, 0.2, size=n)


def test_example1_sources_satisfy_pde(rng):
    sympy = pytest.importorskip("sympy")
    x, t = sympy.symbols("x t")
    c1 = x**2 * (1 - x)**2 * sympy.exp(-t)
    c2 = x**2 * (1 - x)**3 * sympy.exp(-t)
    psi = -(10 * x**7 - 28 * x**6 + 21 * x**5) * sympy.exp(-t) / 420
    f1 = sympy.lambdify((t, x), sympy.diff(c1, t)
                        - sympy.diff(sympy.diff(c1, x) + c1 * sympy.diff(psi, x), x))
    f2 = sympy.lambdify((t, x), sympy.diff(c2, t)
                        - sympy.diff(sympy.diff(c2, x) - c2 * sympy.diff(psi, x), x))
    problem = build_benchmark("example1", 5)
    xs, ts = _residual_points_1d(rng)
    assert np.max(np.abs(problem.species[0].source(ts, xs) - f1(ts, xs))) < 1e-10
    assert np.max(np.abs(problem.species[1].source(ts, xs) - f2(ts, xs))) < 1e-10
    # Poisson residual of the exact solution
    assert np.max(np.abs(problem.psi_exact(0.0, np.array([0.0])))) < 1e-14


# (case, amplitude set): the registry id is their concatenation
@pytest.mark.parametrize("case,variant", [("example3-1", None), ("example3-3", None),
                                          ("example3-4", "a"), ("example3-4", "c")])
def test_example3_sources_satisfy_pde(case, variant, rng):
    sympy = pytest.importorskip("sympy")
    problem = build_benchmark(case + (variant or ""), 4)
    x, y, t = sympy.symbols("x y t")
    # recover the parameters from the exact solutions
    a1 = float(problem.species[0].exact(0.0, 0.0, 0.0)) / 2
    a2 = float(problem.species[1].exact(0.0, 0.0, 0.0)) / 2
    a3 = float(problem.psi_exact(0.0, 0.0, 0.0))
    al = -np.log(problem.psi_exact(1.0, 0.0, 0.0) / a3)
    E = sympy.exp(-al * t)
    C = sympy.cos(x) * sympy.cos(y)
    c1s, c2s, psis = a1 * (E * C + 1), a2 * (E * C + 1), a3 * E * C

    def np_op(c, q):
        return sympy.diff(c, t) - (
            sympy.diff(sympy.diff(c, x) + q * c * sympy.diff(psis, x), x)
            + sympy.diff(sympy.diff(c, y) + q * c * sympy.diff(psis, y), y))

    f1 = sympy.lambdify((t, x, y), np_op(c1s, 1))
    f2 = sympy.lambdify((t, x, y), np_op(c2s, -1))
    f3 = sympy.lambdify((t, x, y), -(sympy.diff(psis, x, 2) + sympy.diff(psis, y, 2))
                        - (c1s - c2s))
    xs = rng.uniform(0, np.pi, size=30)
    ys = rng.uniform(0, np.pi, size=30)
    ts = rng.uniform(0, 0.05, size=30)
    assert np.max(np.abs(problem.species[0].source(ts, xs, ys) - f1(ts, xs, ys))) < 1e-10
    assert np.max(np.abs(problem.species[1].source(ts, xs, ys) - f2(ts, xs, ys))) < 1e-10
    assert np.max(np.abs(problem.poisson_source(ts, xs, ys) - f3(ts, xs, ys))) < 1e-10


@pytest.mark.parametrize("name", ["example1", "example3-1", "example3-2", "example3-3",
                                  "example3-4a", "example3-4b", "example3-4c"])
def test_registry_sources_are_separable(name):
    problem = build_benchmark(name, 6)
    quad = problem.mesh.quadrature
    sources = [sp.source for sp in problem.species] + [problem.poisson_source]
    sources = [f for f in sources if f is not None]
    assert sources and all(isinstance(f, SeparableSource) for f in sources)
    for f in sources:
        for t in (0.0, 0.37, 2.5):
            vals = f(t, *quad.points)
            assert np.array_equal(vals, sum(a(t) * s(*quad.points) for a, s in f))
            ref = quad.load(vals)
            assert np.abs(quad.load_source(f, t) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_zero_step_is_identity():
    problem = build_benchmark("example2", 6)
    state = init(problem, SimConfig(T=0.1, mu=0.01))
    before = state.c.coeffs.copy()
    pnp_step(state, 0.0)
    assert state.t == 0.0
    assert np.array_equal(state.c.coeffs, before)


def test_errors_use_the_fixed_four_point_rule():
    # a coarser rule can vanish on the leading P3 error term of a P2 field;
    # the reported L1 error is the one of the scheme's 4-point rule
    T = 0.002
    problem = build_benchmark("example1", 10)
    result = run(problem, SimConfig(T=T, mu=0.01))
    assert result.state.t == T
    assert RULE.n == 4
    c = Field(problem.mesh, result.state.c.coeffs[0])
    assert result.errors["c1"] == l1_error(c, problem.species[0].exact, t=T)


def test_run_without_diagnostics():
    # same trajectory and errors, no records
    problem = build_benchmark("example1", 5)
    config = SimConfig(T=0.002, mu=0.01)
    full = run(problem, config)
    bare = run(problem, config, diagnostics=False)
    assert bare.diagnostics == []
    assert bare.errors == full.errors
    assert np.array_equal(full.state.c.coeffs, bare.state.c.coeffs)


def _bind_at_stage_2(monkeypatch, state, dt, factor):
    """Replaces the driver's cfl_mu0: no bound for stage 1 (the first call),
    `factor` times the mesh ratio of dt for every later call (stage 2)."""
    bound = factor * sum(dt / h ** 2 for h in state.mesh.spacing)
    calls = []

    def fake(weight, testset, params):
        calls.append(weight)
        return np.inf if len(calls) == 1 else bound

    monkeypatch.setattr(driver, "cfl_mu0", fake)
    return calls


def test_strict_cfl_checks_heun_stage_2(monkeypatch):
    problem = build_benchmark("example2", 8)
    state = init(problem, SimConfig(T=1.0, mu=0.01, cfl_mode="strict"))
    dt = 1e-4
    _bind_at_stage_2(monkeypatch, state, dt, 0.75)
    with pytest.raises(NumericalFatalError, match="stage 2"):
        pnp_step(state, dt)
    assert state.t == 0.0


def test_adaptive_cfl_restarts_the_step_for_stage_2(monkeypatch):
    # stage 2 binds between the mesh ratios of dt/2 and dt: one halving, and
    # the whole step is redone at dt/2
    dt = 1e-4
    problem = build_benchmark("example2", 8)
    plain = init(problem, SimConfig(T=1.0, mu=0.01))
    pnp_step(plain, 0.5 * dt)
    state = init(problem, SimConfig(T=1.0, mu=0.01, cfl_mode="adaptive"))
    calls = _bind_at_stage_2(monkeypatch, state, dt, 0.75)
    pnp_step(state, dt)
    assert len(calls) == 3     # stage 1 once, stage 2 at dt and at dt/2
    assert state.t == 0.5 * dt
    assert np.array_equal(state.c.coeffs, plain.c.coeffs)


def test_monitor_cfl_leaves_stage_2_unchecked(monkeypatch):
    dt = 1e-4
    problem = build_benchmark("example2", 8)
    plain = init(problem, SimConfig(T=1.0, mu=0.01))
    pnp_step(plain, dt)
    state = init(problem, SimConfig(T=1.0, mu=0.01))
    calls = _bind_at_stage_2(monkeypatch, state, dt, 0.75)
    pnp_step(state, dt)
    assert len(calls) == 1
    assert state.t == dt
    assert np.array_equal(state.c.coeffs, plain.c.coeffs)


def test_adaptive_halvings_of_both_stages_share_the_cap(monkeypatch):
    # stage 1 takes all MAX_HALVINGS halvings; stage 2 then needs one more
    problem = build_benchmark("example2", 8)
    state = init(problem, SimConfig(T=1.0, mu=0.01, cfl_mode="adaptive"))
    dt = 1e-3
    small = dt * 0.5 ** MAX_HALVINGS
    _bind_at_stage_2(monkeypatch, state, small, 0.75)
    state.prepared_stage().mu0 = small / state.mesh.spacing[0] ** 2
    with pytest.raises(NumericalFatalError, match="halvings at stage 2"):
        pnp_step(state, dt)
