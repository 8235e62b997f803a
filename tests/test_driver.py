import numpy as np
import pytest

from pnpdg.benchmarks import build_benchmark
from pnpdg.driver import (SimConfig, SpeciesSpec, _prepare_stage, fit_steady_amplitudes,
                          free_energy, init, minima, pnp_step, run, steady_state_init,
                          total_mass)
from pnpdg.exceptions import ConfigError, NumericalFatalError
from pnpdg.field import Field, l1_error, project_l2, zero_field
from pnpdg.quadrature import gauss_rule


def test_example2_initial_masses():
    problem, _ = build_benchmark("example2", 10)
    state = init(problem, SimConfig(T=0.1))
    assert abs(total_mass(state, 0) - 3.0) < 1e-12
    assert abs(total_mass(state, 1) - 3.0) < 1e-12


def test_constant_initial_data_projection_exact():
    problem, _ = build_benchmark("neutral", 8)
    state = init(problem, SimConfig(T=0.1))
    for c in state.c:
        assert np.max(np.abs(c.coeffs[:, 0] - 3.0)) < 1e-13
        assert np.max(np.abs(c.coeffs[:, 1:])) < 1e-13


def test_example4_initial_minima_positive():
    problem, _ = build_benchmark("example4", 20)
    state = init(problem, SimConfig(T=0.1, dt=1e-5))
    assert all(v > 0 for v in minima(state))


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
    h = state.mesh.h if dim == 1 else state.mesh.dx
    dt = mu_factor * h**2
    before = [c.coeffs.copy() for c in state.c]
    pnp_step(state, dt)
    for c, b in zip(state.c, before):
        assert np.max(np.abs(c.coeffs - b)) < tol


def test_neutral_state_fixed_point_sustained():
    # at a stable ratio the state stays put step after step
    problem, _ = build_benchmark("neutral", 8)
    state = init(problem, SimConfig(T=1.0, mu=0.01))
    dt = 0.01 * state.mesh.h**2
    before = [c.coeffs.copy() for c in state.c]
    for _ in range(100):
        pnp_step(state, dt)
    for c, b in zip(state.c, before):
        assert np.max(np.abs(c.coeffs - b)) < 1e-13


def test_steady_state_init_zero_potential():
    problem, _ = build_benchmark("neutral", 8)
    phi = zero_field(problem.mesh, role="potential")
    densities = steady_state_init(problem, [3.0, 3.0], phi)
    for c in densities:
        assert np.max(np.abs(c.coeffs[:, 0] - 3.0)) < 1e-13


def test_steady_state_init_uncharged_species(rng):
    problem, _ = build_benchmark("neutral", 8)
    problem.species[0] = SpeciesSpec(0.0, lambda x: 1.0 + 0 * x, name="n0")
    phi = Field(problem.mesh, rng.normal(size=(8, 3)), role="potential")
    densities = steady_state_init(problem, [5.0, 5.0], phi)
    assert np.max(np.abs(densities[0].coeffs[:, 0] - 5.0)) < 1e-12
    assert np.max(np.abs(densities[0].coeffs[:, 1:])) < 1e-12


def test_free_energy_values():
    problem, _ = build_benchmark("neutral", 8)
    state = init(problem, SimConfig(T=0.1))
    # c1 = c2 = 3, psi = 0: E = 2 * 3 ln 3 over the unit interval
    assert abs(free_energy(state) - 6 * np.log(3.0)) < 1e-12
    problem.species = [problem.species[0]]
    state = init(problem, SimConfig(T=0.1))
    state.c[0] = project_l2(lambda x: 1.0 + 0 * x, problem.mesh, role="density")
    psi0 = zero_field(problem.mesh, role="potential")
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
    assert np.array_equal(r1.state.c[0].coeffs, r2.state.c[0].coeffs)
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
    prep = _prepare_stage(state, state.c, state.t)
    amps = fit_steady_amplitudes(state, psi=prep.psi)
    state.c = steady_state_init(problem, amps, prep.psi, rule=state.rule)
    dt = 0.01 * state.mesh.h**2
    before = [c.coeffs.copy() for c in state.c]
    state._prep = None
    pnp_step(state, dt)
    change = max(np.abs(c.coeffs - b).max() for c, b in zip(state.c, before))
    assert change < 1e-8


def test_quadrature_order_insensitivity():
    # volume integrals with the exponential weight: running the scheme with a
    # 6-point rule changes the Example 1 errors by well under one percent
    # (errors always measured with the standard 4-point rule)
    from pnpdg.quadrature import gauss_rule
    errs = {}
    for nq in (4, 6):
        problem, _ = build_benchmark("example1", 10)
        res = run(problem, SimConfig(T=0.01, mu=0.01, quad_n=nq, cadence=100))
        T = res.state.t
        errs[nq] = {
            sp.name: l1_error(c, sp.exact, gauss_rule(4), t=T)
            for sp, c in zip(problem.species, res.state.c)
        }
    for name in ("c1", "c2"):
        rel = abs(errs[4][name] - errs[6][name]) / errs[6][name]
        assert rel < 0.01, f"{name}: 4- vs 6-point relative change {rel}"


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


def test_zero_step_is_identity():
    problem, _ = build_benchmark("example2", 6)
    state = init(problem, SimConfig(T=0.1))
    before = [c.coeffs.copy() for c in state.c]
    pnp_step(state, 0.0)
    assert state.t == 0.0
    for c, b in zip(state.c, before):
        assert np.array_equal(c.coeffs, b)


def test_errors_use_the_fixed_four_point_rule():
    # with quad_n = 3 the leading P3 error term of a P2 field vanishes at the
    # scheme's nodes; the reported L1 error must still be the 4-point one
    T = 0.002
    problem, _ = build_benchmark("example1", 10)
    result = run(problem, SimConfig(T=T, mu=0.01, quad_n=3))
    assert result.state.t == T
    c = result.state.c[0]
    assert result.errors["c1"] == l1_error(c, problem.species[0].exact, gauss_rule(4), t=T)
    assert result.errors["c1"] != l1_error(c, problem.species[0].exact, gauss_rule(3), t=T)


def test_run_without_diagnostics():
    # same trajectory and errors, no records
    problem, _ = build_benchmark("example1", 5)
    config = SimConfig(T=0.002, mu=0.01)
    full = run(problem, config)
    bare = run(problem, config, diagnostics=False)
    assert bare.diagnostics == []
    assert bare.errors == full.errors
    for a, b in zip(full.state.c, bare.state.c):
        assert np.array_equal(a.coeffs, b.coeffs)
