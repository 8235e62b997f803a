import numpy as np
import pytest

from oracles import zero_field
from pnpdg.basis import RULE, SeparableSource
from pnpdg.benchmarks import build_benchmark
from pnpdg.driver import (MAX_HALVINGS, SimConfig, SpeciesSpec, fit_steady_amplitudes,
                          free_energy, init, pnp_step, run, steady_state_init, total_mass)
from pnpdg.exceptions import ConfigError, NumericalFatalError
from pnpdg.field import Field, l1_error, project_l2


def test_example2_initial_masses():
    problem, _ = build_benchmark("example2", 10)
    state = init(problem, SimConfig(T=0.1))
    assert np.abs(np.array(total_mass(state)) - 3.0).max() < 1e-12


def test_constant_initial_data_projection_exact():
    problem, _ = build_benchmark("neutral", 8)
    state = init(problem, SimConfig(T=0.1))
    assert state.c.coeffs.shape == (2, 8, 3)
    assert np.max(np.abs(state.c.coeffs[..., 0] - 3.0)) < 1e-13
    assert np.max(np.abs(state.c.coeffs[..., 1:])) < 1e-13


def test_example4_initial_minima_positive():
    problem, _ = build_benchmark("example4", 20)
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
    problem, _ = build_benchmark("neutral", 8, dim=dim)
    state = init(problem, SimConfig(T=1.0, mu=mu_factor, rk=1))
    dt = mu_factor * state.mesh.spacing[0]**2
    before = state.c.coeffs.copy()
    pnp_step(state, dt)
    assert np.max(np.abs(state.c.coeffs - before)) < tol


def test_neutral_state_fixed_point_sustained():
    # at a stable ratio the state stays put step after step
    problem, _ = build_benchmark("neutral", 8)
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


def test_steady_state_init_zero_potential():
    problem, _ = build_benchmark("neutral", 8)
    phi = zero_field(problem.mesh)
    densities = steady_state_init(problem, [3.0, 3.0], phi)
    assert densities.coeffs.shape == (2, 8, 3)
    assert np.max(np.abs(densities.coeffs[..., 0] - 3.0)) < 1e-13


def test_steady_state_init_uncharged_species(rng):
    problem, _ = build_benchmark("neutral", 8)
    problem.species[0] = SpeciesSpec(0.0, lambda x: 1.0 + 0 * x, name="n0")
    phi = Field(problem.mesh, rng.normal(size=(8, 3)))
    densities = steady_state_init(problem, [5.0, 5.0], phi)
    assert np.max(np.abs(densities.coeffs[0, :, 0] - 5.0)) < 1e-12
    assert np.max(np.abs(densities.coeffs[0, :, 1:])) < 1e-12


def test_free_energy_values():
    problem, _ = build_benchmark("neutral", 8)
    state = init(problem, SimConfig(T=0.1))
    # c1 = c2 = 3, psi = 0: E = 2 * 3 ln 3 over the unit interval
    assert abs(free_energy(state) - 6 * np.log(3.0)) < 1e-12
    problem.species = [problem.species[0]]
    state = init(problem, SimConfig(T=0.1))
    state.c = Field(problem.mesh, project_l2(lambda x: 1.0 + 0 * x, problem.mesh).coeffs[None])
    psi0 = zero_field(problem.mesh)
    assert abs(free_energy(state, psi=psi0)) < 1e-12


def test_run_zero_final_time():
    problem, _ = build_benchmark("neutral", 8)
    res = run(problem, SimConfig(T=0.0))
    assert len(res.diagnostics) == 1
    assert res.diagnostics[0].t == 0.0


def test_run_determinism():
    problem1, _ = build_benchmark("example2", 5)
    r1 = run(problem1, SimConfig(T=0.005, mu=0.01))
    problem2, _ = build_benchmark("example2", 5)
    r2 = run(problem2, SimConfig(T=0.005, mu=0.01))
    assert [d.masses for d in r1.diagnostics] == [d.masses for d in r2.diagnostics]
    assert [d.energy for d in r1.diagnostics] == [d.energy for d in r2.diagnostics]
    assert np.array_equal(r1.state.c.coeffs, r2.state.c.coeffs)
    times = [d.t for d in r1.diagnostics]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_out_of_range_parameters_need_override():
    problem, _ = build_benchmark("example1", 5)
    problem.np_params = problem.np_params.__class__(4.0, 1 / 24)
    with pytest.raises(ConfigError):
        init(problem, SimConfig(T=0.01))
    state = init(problem, SimConfig(T=0.01, override_admissibility=True))
    assert state is not None


def test_strict_cfl_raises():
    problem, _ = build_benchmark("example2", 8)
    state = init(problem, SimConfig(T=1.0, cfl_mode="strict"))
    with pytest.raises(NumericalFatalError):
        pnp_step(state, 1.0)   # mesh ratio far above the bound


def test_adaptive_cfl_reduces_step():
    problem, _ = build_benchmark("example2", 8)
    state = init(problem, SimConfig(T=1.0, cfl_mode="adaptive"))
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
], ids=["rk", "cfl_mode", "cadence"])
def test_sim_config_rejects_bad_scheme_settings(kwargs, match):
    # none of these may fall back to another scheme or fail inside the run
    with pytest.raises(ConfigError, match=match):
        SimConfig(T=0.1, **kwargs)


@pytest.mark.parametrize("shrink,ok", [(1.0, True), (0.99, False)])
def test_adaptive_cfl_halvings_are_capped(shrink, ok):
    # mu0 set so that exactly MAX_HALVINGS halvings reach it (shrink 1), or
    # just one more would; neither loop runs without end
    problem, _ = build_benchmark("example2", 8)
    state = init(problem, SimConfig(T=1.0, cfl_mode="adaptive"))
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
    problem, _ = build_benchmark("example2", 8)
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
    problem, _ = build_benchmark("example2", 8)
    res = run(problem, SimConfig(T=1.0, mu=0.01, cadence=1000))
    state = res.state
    psi = state.prepared_stage().psi
    amps = fit_steady_amplitudes(state)
    state.c = steady_state_init(problem, amps, psi)
    dt = 0.01 * state.mesh.spacing[0]**2
    before = state.c.coeffs.copy()
    pnp_step(state, dt)
    assert np.abs(state.c.coeffs - before).max() < 1e-8


@pytest.mark.parametrize("rk", [1, 2])
def test_replacing_densities_drops_the_prepared_stage(rk):
    # a stage prepared before the densities were replaced at the same time
    # must not be used to advance the new densities
    steps = []
    for warm in (True, False):
        problem, _ = build_benchmark("example2", 10)
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
    problem, _ = build_benchmark("example2", 10)
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
    problem, _ = build_benchmark("example1", 5)
    xs, ts = _residual_points_1d(rng)
    assert np.max(np.abs(problem.species[0].source(ts, xs) - f1(ts, xs))) < 1e-10
    assert np.max(np.abs(problem.species[1].source(ts, xs) - f2(ts, xs))) < 1e-10
    # Poisson residual of the exact solution
    assert np.max(np.abs(problem.psi_exact(0.0, np.array([0.0])))) < 1e-14


@pytest.mark.parametrize("case,variant", [("example3-1", None), ("example3-3", None),
                                          ("example3-4", "a"), ("example3-4", "c")])
def test_example3_sources_satisfy_pde(case, variant, rng):
    sympy = pytest.importorskip("sympy")
    kwargs = {"variant": variant} if variant else {}
    problem, _ = build_benchmark(case, 4, **kwargs)
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


@pytest.mark.parametrize("name,kwargs", [
    ("example1", {}), ("example3-1", {}), ("example3-2", {}), ("example3-3", {}),
    ("example3-4", {"variant": "a"}), ("example3-4", {"variant": "b"}),
    ("example3-4", {"variant": "c"}),
])
def test_registry_sources_are_separable(name, kwargs):
    problem, _ = build_benchmark(name, 6, **kwargs)
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
    problem, _ = build_benchmark("example2", 6)
    state = init(problem, SimConfig(T=0.1))
    before = state.c.coeffs.copy()
    pnp_step(state, 0.0)
    assert state.t == 0.0
    assert np.array_equal(state.c.coeffs, before)


def test_errors_use_the_fixed_four_point_rule():
    # a coarser rule can vanish on the leading P3 error term of a P2 field;
    # the reported L1 error is the one of the scheme's 4-point rule
    T = 0.002
    problem, _ = build_benchmark("example1", 10)
    result = run(problem, SimConfig(T=T, mu=0.01))
    assert result.state.t == T
    assert RULE.n == 4
    c = Field(problem.mesh, result.state.c.coeffs[0])
    assert result.errors["c1"] == l1_error(c, problem.species[0].exact, t=T)


def test_run_without_diagnostics():
    # same trajectory and errors, no records
    problem, _ = build_benchmark("example1", 5)
    config = SimConfig(T=0.002, mu=0.01)
    full = run(problem, config)
    bare = run(problem, config, diagnostics=False)
    assert bare.diagnostics == []
    assert bare.errors == full.errors
    assert np.array_equal(full.state.c.coeffs, bare.state.c.coeffs)
