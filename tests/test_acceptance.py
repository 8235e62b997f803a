"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The default run covers
every criterion at the documented mesh/time settings (about 5 minutes).
Setting PNPDG_FULL_ACCEPTANCE=1 extends the 2D convergence coverage to the
slower table rows (t = 0.01 for every case, the solution-scale variants)
and PNPDG_FULL_ACCEPTANCE=max additionally runs N in {30, 40} and the
t = 0.1 row (tens of minutes).
"""

import logging
import os
import time

import numpy as np
import pytest

import pnpdg
from pnpdg import FluxParams, SimConfig, build_benchmark, run
from pnpdg.driver import init, pnp_step
from pnpdg.field import Field
from pnpdg.mesh import build_mesh_1d, build_mesh_2d
from pnpdg.poisson import assemble_load, assemble_operator, dirichlet, gamma_d
from pnpdg.positivity import (build_test_set, build_weight, cfl_mu0, scaling_limiter,
                              weighted_cell_average, weighted_projection)
from pnpdg.positivity import test_set_values as values_on_test_set
from pnpdg.transport import apply_mass_inverse, np_rhs
from oracles import decomposition_cell_averages, zero_field

logging.disable(logging.WARNING)

FULL = os.environ.get("PNPDG_FULL_ACCEPTANCE", "")
MESHES_1D = (5, 10, 20, 40)

# --- stored reference values -------------------------------------------------
# Example 1 reference errors {(T, beta1): {h: (c1, c2, psi)}} and orders
EX1_ERRORS = {
    (0.01, 1 / 6): {0.2: (2.0624e-4, 1.3872e-4, 8.1931e-5),
                    0.1: (5.4529e-5, 3.5665e-5, 8.7833e-6),
                    0.05: (9.1862e-6, 6.1522e-6, 9.6769e-7),
                    0.025: (1.3082e-6, 8.9366e-7, 1.1148e-7)},
    (0.01, 1 / 24): {0.2: (1.0164e-4, 8.4562e-5, 7.1174e-5),
                     0.1: (8.4066e-6, 7.8862e-6, 7.4710e-6),
                     0.05: (7.8352e-7, 6.7092e-7, 8.2247e-7),
                     0.025: (8.5408e-8, 6.5765e-8, 9.5078e-8)},
    (0.1, 1 / 6): {0.2: (2.6995e-4, 1.7356e-4, 7.5599e-5),
                   0.1: (6.4304e-5, 3.9933e-5, 8.3213e-6),
                   0.05: (1.0421e-5, 6.6252e-6, 9.3043e-7),
                   0.025: (1.4658e-6, 9.4952e-7, 1.0777e-7)},
    (0.1, 1 / 24): {0.2: (9.3406e-5, 8.1835e-5, 6.3855e-5),
                    0.1: (7.7940e-6, 7.5466e-6, 6.7668e-6),
                    0.05: (7.4802e-7, 6.6124e-7, 7.4491e-7),
                    0.025: (9.4980e-8, 6.7140e-8, 8.5650e-8)},
}
EX1_ORDERS = {
    (0.01, 1 / 6): {"c1": (2.43, 2.69, 2.81), "c2": (2.43, 2.66, 2.78),
                    "psi": (3.17, 3.15, 3.12)},
    (0.01, 1 / 24): {"c1": (3.41, 3.31, 3.20), "c2": (3.44, 3.45, 3.35),
                     "psi": (3.18, 3.15, 3.11)},
    (0.1, 1 / 6): {"c1": (2.51, 2.73, 2.83), "c2": (2.50, 2.70, 2.80),
                   "psi": (3.15, 3.14, 3.11)},
    (0.1, 1 / 24): {"c1": (3.31, 3.18, 2.98), "c2": (3.42, 3.41, 3.30),
                    "psi": (3.18, 3.15, 3.12)},
}

# Example 3 tables: {(case, variant, t): {N: (c1, c2, psi)}}
EX3 = {
    ("example3-1", None, 0.001): {10: (2.1205e-06, 2.1205e-06, 2.4658e-06),
                                  20: (2.7552e-07, 2.7552e-07, 2.8821e-07),
                                  30: (8.1374e-08, 8.1374e-08, 8.3538e-08),
                                  40: (3.4254e-08, 3.4254e-08, 3.4884e-08)},
    ("example3-2", None, 0.001): {10: (2.2132e-06, 2.2132e-06, 2.5216e-06),
                                  20: (2.7552e-07, 2.7552e-07, 2.8898e-07)},
    ("example3-3", None, 0.001): {10: (4.2411e-05, 2.1207e-05, 5.0437e-05),
                                  20: (5.5113e-06, 2.7558e-06, 5.7797e-06)},
    ("example3-1", None, 0.01): {10: (2.22520e-06, 2.22520e-06, 2.46582e-06),
                                 20: (2.75811e-07, 2.75812e-07, 2.88210e-07)},
    ("example3-2", None, 0.01): {10: (2.22520e-06, 2.22520e-06, 2.52159e-06),
                                 20: (2.75811e-07, 2.75812e-07, 2.88977e-07)},
    ("example3-3", None, 0.01): {10: (4.45250e-05, 2.22621e-05, 5.04492e-05),
                                 20: (5.51716e-06, 2.75865e-06, 5.77974e-06)},
    ("example3-3", None, 0.1): {10: (4.50511e-05, 2.25252e-05, 5.05368e-05),
                                20: (5.53926e-06, 2.76971e-06, 5.77936e-06)},
    ("example3-4", "a", 0.01): {10: (4.70196e-03, 1.25563e-03, 2.44062e-03),
                                20: (5.57018e-04, 1.49662e-04, 2.85363e-04)},
    ("example3-4", "b", 0.01): {10: (4.70152e-03, 2.51073e-03, 2.44014e-03),
                                20: (5.57010e-04, 2.99314e-04, 2.85349e-04)},
}


def _say(n, label, ok, extra=""):
    print(f"ACCEPTANCE {n:>2} ({label}): {'PASS' if ok else 'FAIL'}{extra}")


def _run_ex1_table(T, beta1, limiter=True):
    """Errors per mesh for one Example 1 table."""
    out = []
    for n in MESHES_1D:
        problem = build_benchmark("example1", n)
        problem.np_params = FluxParams(4.0, beta1)
        sim = SimConfig(T=T, mu=0.01, cadence=10**9, limiter=limiter,
                        override_admissibility=beta1 < 0.125)
        res = run(problem, sim)
        out.append((1.0 / n, res.errors))
    return out


@pytest.fixture(scope="module")
def ex1_tables():
    t0 = time.time()
    tables = {key: _run_ex1_table(*key) for key in EX1_ERRORS}
    return tables, time.time() - t0


@pytest.fixture(scope="module")
def ex2_run():
    problem = build_benchmark("example2", 10)
    return run(problem, SimConfig(T=0.5, mu=0.01, cadence=1))


@pytest.fixture(scope="module")
def ex4_run():
    problem = build_benchmark("example4", 20)
    return run(problem, SimConfig(T=0.1, dt=1e-5, cadence=1))


def _orders(errs):
    return [np.log2(a / b) for a, b in zip(errs[:-1], errs[1:])]


def test_criterion_01_example1_convergence(ex1_tables):
    tables, elapsed = ex1_tables
    bad = []
    for (T, b1), rows in tables.items():
        ref_tab = EX1_ERRORS[(T, b1)]
        ref_orders = EX1_ORDERS[(T, b1)]
        series = {"c1": [], "c2": [], "psi": []}
        for h, errors in rows:
            for i, name in enumerate(("c1", "c2", "psi")):
                mine = errors[name]
                ref = ref_tab[h][i]
                ratio = mine / ref
                series[name].append(mine)
                if not (1 / 1.5 <= ratio <= 1.5):
                    bad.append(f"T={T} b1={b1:.4f} h={h} {name}: "
                               f"{mine:.4e} vs reference {ref:.4e} (x{ratio:.3f})")
        for name in series:
            for got, want in zip(_orders(series[name]), ref_orders[name]):
                if abs(got - want) > 0.3:
                    bad.append(f"T={T} b1={b1:.4f} {name} order {got:.2f} "
                               f"vs reference {want:.2f}")
    ok = not bad and elapsed < 300
    _say(1, "Example 1 convergence vs reference tables", ok,
         f"  [{elapsed:.0f}s, {len(bad)} violation(s)]")
    if elapsed >= 300:
        bad.append(f"runtime {elapsed:.0f}s exceeds the 5-minute target")
    assert not bad, "criterion 1 violations:\n" + "\n".join(bad)


def test_criterion_02_example3_convergence():
    t0 = time.time()
    jobs = [("example3-1", None, 0.001), ("example3-2", None, 0.001),
            ("example3-3", None, 0.001)]
    sizes = [10, 20]
    if FULL:
        jobs += [("example3-1", None, 0.01), ("example3-2", None, 0.01),
                 ("example3-3", None, 0.01), ("example3-4", "a", 0.01),
                 ("example3-4", "b", 0.01)]
    if FULL == "max":
        jobs += [("example3-3", None, 0.1)]
    bad = []
    for case, variant, T in jobs:
        table = EX3[(case, variant, T)]
        ns = sizes + ([30, 40] if (FULL == "max" and 30 in table) else [])
        errs = {"c1": [], "c2": [], "psi": []}
        for n in ns:
            problem = build_benchmark(case + (variant or ""), n)
            res = run(problem, SimConfig(T=T, mu=1.6e-5, cadence=10**9))
            for i, name in enumerate(("c1", "c2", "psi")):
                mine = res.errors[name]
                errs[name].append(mine)
                ratio = mine / table[n][i]
                if not (0.9 <= ratio <= 1.1):
                    bad.append(f"{case}{variant or ''} t={T} N={n} {name}: "
                               f"{mine:.4e} vs {table[n][i]:.4e} (x{ratio:.3f})")
        for name, es in errs.items():
            for o in _orders(es):
                if o < 2.8:
                    bad.append(f"{case}{variant or ''} t={T} {name} order {o:.2f} < 2.8")
    _say(2, "Example 3 2D convergence vs reference tables", not bad,
         f"  [{time.time()-t0:.0f}s, {len(jobs)} cases]")
    assert not bad, "criterion 2 violations:\n" + "\n".join(bad)


def test_criterion_03_positivity_example4(ex4_run):
    res = ex4_run
    min_avg = min(min(d.min_avgs) for d in res.diagnostics)
    ok_pos = min_avg > 0.0
    # limiter forcibly off: the raw reconstruction dips negative near t = 0
    problem = build_benchmark("example4", 20)
    res_off = run(problem, SimConfig(T=1e-3, dt=1e-5, limiter=False, cadence=1))
    min_g = min(min(d.min_g_pre) for d in res_off.diagnostics)
    ok_neg = min_g < 0.0
    _say(3, "Example 4 positivity with limiter; negative raw g without", ok_pos and ok_neg,
         f"  [min avg {min_avg:.3e}, raw min g {min_g:.3e}]")
    assert ok_pos, f"minimum cell average {min_avg} not strictly positive"
    assert ok_neg, f"pre-limiter g minimum {min_g} never went negative near t=0"


def test_criterion_04_mass_conservation(ex2_run, ex4_run):
    worst = 0.0
    for res in (ex2_run, ex4_run):
        masses = np.array([d.masses for d in res.diagnostics])
        drift = np.abs(masses - masses[0]).max(axis=0) / np.abs(masses[0])
        worst = max(worst, float(drift.max()))
    _say(4, "mass conservation (Examples 2 and 4)", worst <= 1e-10,
         f"  [worst relative drift {worst:.2e}]")
    assert worst <= 1e-10


def test_criterion_05_energy_decay(ex2_run):
    energies = np.array([d.energy for d in ex2_run.diagnostics])
    increases = np.diff(energies)
    worst = float(increases.max())
    _say(5, "free-energy decay (Example 2, T=0.5)", worst <= 1e-8,
         f"  [max per-step increase {worst:.2e}]")
    assert worst <= 1e-8


def test_criterion_06_steady_state_preservation():
    # the theorem is for the forward-Euler scheme; one step per ratio from
    # the exactly-represented constant state
    bad = []
    detail = []
    for mu_factor in (0.1, 1.0, 10.0):
        problem = build_benchmark("neutral", 8)
        state = init(problem, SimConfig(T=1.0, mu=mu_factor, rk=1))
        dt = mu_factor * state.mesh.spacing[0]**2
        before = state.c.coeffs.copy()
        pnp_step(state, dt)
        change = float(np.abs(state.c.coeffs - before).max())
        detail.append(f"{mu_factor}h^2: {change:.2e}")
        if change >= 1e-13:
            bad.append(f"dt={mu_factor}h^2: per-step change {change:.3e} >= 1e-13")
    _say(6, "steady-state fixed point per step", not bad, "  [" + ", ".join(detail) + "]")
    assert not bad, "criterion 6 violations:\n" + "\n".join(bad)


def test_criterion_07_positive_decomposition(rng=None):
    rng = np.random.default_rng(7)
    bad = 0
    mesh1 = build_mesh_1d(0, 1, 16)
    for _ in range(250):
        psi = Field(mesh1, 0.6 * rng.normal(size=(16, 3)))
        w = build_weight(psi, 1.0)
        ts = build_test_set(w, FluxParams(1.0, 1 / 6))
        if not (np.all(-1 < ts.lo) and np.all(ts.lo < ts.hi) and np.all(ts.hi < 1)
                and np.all(ts.line_weights > 0)):
            bad += 1
            continue
        p = rng.normal(size=3)
        pts = np.stack([-np.ones_like(ts.gammas), ts.gammas, np.ones_like(ts.gammas)], -1)
        vals = p[0] + p[1] * pts + p[2] * pts**2
        lhs = np.einsum("nsi,nsi->ns", ts.line_weights, vals)
        m = w.lines
        rhs = p[0] * m[..., 0] + p[1] * m[..., 1] + p[2] * m[..., 2]
        if np.max(np.abs(lhs - rhs)) > 1e-12:
            bad += 1
    mesh2 = build_mesh_2d(1, 1, 4, 4)
    for _ in range(250):
        psi = Field(mesh2, 0.4 * rng.normal(size=(16, 6)))
        w = build_weight(psi, -1.0)
        ts = build_test_set(w, FluxParams(1.0, 1 / 6))
        if not (np.all(ts.lo < ts.gammas) and np.all(ts.gammas < ts.hi)
                and np.all(ts.line_weights > 0)):
            bad += 1
            continue
        p = rng.normal(size=3)
        pts = np.stack([-np.ones_like(ts.gammas), ts.gammas, np.ones_like(ts.gammas)], -1)
        vals = p[0] + p[1] * pts + p[2] * pts**2
        lhs = np.einsum("nsi,nsi->ns", ts.line_weights, vals)
        m = w.lines
        rhs = p[0] * m[..., 0] + p[1] * m[..., 1] + p[2] * m[..., 2]
        if np.max(np.abs(lhs - rhs)) > 1e-12:
            bad += 1
    _say(7, "positive decomposition, 500 randomized instances", bad == 0,
         f"  [{500 - bad}/500]")
    assert bad == 0


def _positivity_stress(rng, n_trials, dim):
    # draws whose weight field admits no interior test node are rejected:
    # the positivity hypotheses are not satisfiable on such a mesh
    if dim == 1:
        mesh = build_mesh_1d(0, 1, 8)
        q, scale = 1.0, 0.6
    else:
        mesh = build_mesh_2d(1, 1.4, 4, 3)
        q, scale = -1.0, 0.4
    nb = 3 if dim == 1 else 6
    params = FluxParams(1.0, 1 / 6)
    failures = 0
    done = 0
    while done < n_trials:
        psi = Field(mesh, scale * rng.normal(size=(mesh.n_cells, nb)))
        w = build_weight(psi, q)
        try:
            ts = build_test_set(w, params)
        except pnpdg.InadmissibleCellError:
            continue
        coeffs = rng.normal(size=(mesh.n_cells, nb))
        coeffs[:, 0] = rng.uniform(0.2, 1.5, size=mesh.n_cells)
        c = Field(mesh, coeffs)
        g = weighted_projection(c, w)
        g, _rep = scaling_limiter(g, w, ts)
        mu0 = cfl_mu0(w, ts, params)
        if dim == 1:
            dt = 0.9 * mu0 * mesh.spacing[0]**2
        else:
            dt = 0.9 * mu0 / (1 / mesh.spacing[0]**2 + 1 / mesh.spacing[1]**2)
        rhs = np_rhs(g, w, params)
        c_new = c.coeffs[:, 0] + dt * apply_mass_inverse(mesh, rhs)[:, 0]
        if not np.all(c_new > 0):
            failures += 1
        done += 1
    return failures


def test_criterion_08_cfl_worked_value_and_stress():
    w = build_weight(zero_field(build_mesh_1d(0, 1, 4)), 1.0)
    params = FluxParams(1.0, 1 / 6)
    ts = build_test_set(w, params)
    mu0 = cfl_mu0(w, ts, params)
    ok_value = abs(mu0 - 0.5) < 1e-13
    rng = np.random.default_rng(8)
    failures = _positivity_stress(rng, 350, dim=1) + _positivity_stress(rng, 150, dim=2)
    _say(8, "CFL worked value 1/2 and positivity stress", ok_value and failures == 0,
         f"  [mu0={mu0!r}, stress {500 - failures}/500]")
    assert ok_value, f"mu0 = {mu0!r} != 1/2"
    assert failures == 0, f"{failures}/500 positivity stress failures"


def test_criterion_09_limiter_suite(ex1_tables):
    rng = np.random.default_rng(9)
    mesh = build_mesh_1d(0, 1, 8)
    bad = []
    for _ in range(100):
        psi = Field(mesh, 0.5 * rng.normal(size=(8, 3)))
        w = build_weight(psi, 1.0)
        coeffs = rng.normal(size=(8, 3))
        coeffs[:, 0] = rng.uniform(0.3, 2.0, size=8)
        g = Field(mesh, coeffs)
        if np.any(weighted_cell_average(g, w) <= 0):
            continue
        ts = build_test_set(w, FluxParams(1.0, 1 / 6))
        out, rep = scaling_limiter(g, w, ts)
        a_in = weighted_cell_average(g, w)
        a_out = weighted_cell_average(out, w)
        if np.max(np.abs(a_out - a_in) / np.abs(a_in)) > 1e-12:
            bad.append("weighted average not preserved")
        if values_on_test_set(out, ts).min() < -1e-14:
            bad.append("post-limiter minimum below -1e-14")
        if not np.all((0 <= rep.theta) & (rep.theta <= 1)):
            bad.append("theta outside [0, 1]")
        again, _ = scaling_limiter(out, w, ts)
        if np.max(np.abs(again.coeffs - out.coeffs)) > 1e-13:
            bad.append("not idempotent")
    # limiter on/off accuracy on the criterion-1 table. Both exact densities
    # vanish at x = 0 and x = 1, so the limiter acts in boundary cells at
    # every step. For a nonnegative exact solution u, limiting moves p by at
    # most a fixed multiple of its own error, |p_lim - p| <= C |p - u|
    # (Zhang & Shu, JCP 2010), so the limited error is at most (1 + C) times
    # the unlimited one for every h and the asymptotic order is kept. On
    # 5-40 cells the observed orders still differ by up to 0.4, so the check
    # is that bound per mesh and field; a limiter that destroys accuracy
    # (e.g. over-shrinking limited cells) exceeds it by orders of magnitude.
    tables, _ = ex1_tables
    on_rows = tables[(0.01, 1 / 6)]
    off_rows = _run_ex1_table(0.01, 1 / 6, limiter=False)
    for (h, on), (_, off) in zip(on_rows, off_rows):
        for name in ("c1", "c2", "psi"):
            ratio = on[name] / off[name]
            if ratio > 2.0:
                bad.append(f"h={h} {name}: error with limiter {on[name]:.4e} vs without "
                           f"{off[name]:.4e} (x{ratio:.2f} > 2)")
    _say(9, "limiter invariants and accuracy bound", not bad,
         f"  [{len(bad)} violation(s)]")
    assert not bad, "criterion 9 violations:\n" + "\n".join(bad)


def test_criterion_10_cell_average_equivalence():
    rng = np.random.default_rng(10)
    params = FluxParams(1.0, 1 / 6)
    worst = 0.0
    for dim in (1, 2):
        mesh = build_mesh_1d(0, 1, 9) if dim == 1 else build_mesh_2d(1, 1.2, 4, 3)
        nb = 3 if dim == 1 else 6
        for _ in range(50):
            coeffs = rng.normal(size=(mesh.n_cells, nb))
            coeffs[:, 0] += 3.0
            c = Field(mesh, coeffs)
            psi = Field(mesh, 0.4 * rng.normal(size=(mesh.n_cells, nb)))
            w = build_weight(psi, 1.0)
            g = weighted_projection(c, w)
            ts = build_test_set(w, params)
            dt = 1e-4
            rhs = np_rhs(g, w, params)
            full = c.coeffs[:, 0] + dt * apply_mass_inverse(mesh, rhs)[:, 0]
            oracle = decomposition_cell_averages(g, w, ts, params, dt)
            worst = max(worst, float(np.abs(full - oracle).max()))
    _say(10, "cell-average decomposition equivalence", worst <= 1e-12,
         f"  [worst |diff| {worst:.2e}]")
    assert worst <= 1e-12


def test_criterion_11_poisson_solver():
    # manufactured convergence
    errs = []
    for n in (10, 20, 40):
        mesh = build_mesh_1d(0, 1, n)
        bc = {"left": dirichlet(), "right": dirichlet()}
        op = assemble_operator(mesh, FluxParams(4.0, 1 / 6), bc)
        b = assemble_load(op, [], [], rho0=lambda x: np.pi**2 * np.sin(np.pi * x))
        errs.append(pnpdg.l1_error(op.solve(b), lambda x: np.sin(np.pi * x)))
    orders = _orders(errs)
    ok_order = all(o >= 2.8 for o in orders)
    # symmetry and positive definiteness above gamma_d
    gd = gamma_d(1 / 6)
    ok_gd = abs(gd - 7 / 3) < 1e-14
    sym_ok = True
    pd_ok = True
    for b0 in (gd + 0.05, 4.0, 16.0):
        mesh = build_mesh_1d(0, 1, 6)
        bc = {"left": dirichlet(), "right": dirichlet()}
        op = assemble_operator(mesh, FluxParams(b0, 1 / 6), bc)
        A = op.matrix.toarray()
        sym_ok &= np.abs(A - A.T).max() / np.abs(A).max() <= 1e-12
        pd_ok &= np.linalg.eigvalsh(A).min() > 0
    ok = ok_order and ok_gd and sym_ok and pd_ok
    _say(11, "Poisson solver: order/symmetry/definiteness", ok,
         f"  [orders {[f'{o:.2f}' for o in orders]}]")
    assert ok_order, f"manufactured orders {orders}"
    assert ok_gd and sym_ok and pd_ok
