"""Golden outputs: six short runs against the files in tests/golden/.

`MODE` is "bitwise" unless a change claims to move results by roundoff
only; then it is "roundoff", and every column must lie within
`ROUNDOFF_FACTOR` times the floor stored with it (see tests/golden/regen.py
for how the floors are measured, and how to regenerate the files). In
either mode the masses stay within 1e-12 relative and the limiter count is
unchanged.
"""

from pathlib import Path

import numpy as np
import pytest

import golden.regen as regen
import pnpdg.driver as driver
from golden.regen import CASES, _Rounded, deviation, run_case
from pnpdg.benchmarks import build_benchmark
from pnpdg.driver import SimConfig, init, pnp_step

GOLDEN = Path(__file__).resolve().parent / "golden"
MODE = "roundoff"
ROUNDOFF_FACTOR = 10.0


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(name):
    stored = np.load(GOLDEN / f"{name}.npz")
    cols = run_case(name)
    assert set(cols) == {k for k in stored.files if not k.startswith("floor_")}
    assert np.array_equal(cols["theta_count"], stored["theta_count"])
    assert np.all(np.abs(cols["masses"] - stored["masses"]) <= 1e-12 * np.abs(stored["masses"]))
    for key, value in cols.items():
        if MODE == "bitwise":
            assert np.array_equal(value, stored[key], equal_nan=True), key
        else:
            dev = deviation(value, stored[key])
            assert dev <= ROUNDOFF_FACTOR * stored[f"floor_{key}"], \
                f"{key}: deviation {dev:.3e}, floor {float(stored[f'floor_{key}']):.3e}"


def test_adaptive_case_halves_its_steps():
    # the one adaptive-mode case: its stored steps, which the run must match,
    # are shorter than the configured dt
    dt = CASES["example4-adaptive"][3]["dt"]
    steps = np.diff(np.load(GOLDEN / "example4-adaptive.npz")["t"])
    assert steps.min() < 0.75 * dt


def test_neutral_state_stays_exact():
    problem = build_benchmark("neutral", 8, dim=2)
    state = init(problem, SimConfig(T=1.0, mu=0.01))
    start = state.c.coeffs.copy()
    for _ in range(5):
        pnp_step(state, 0.01 * min(problem.mesh.spacing) ** 2)
    assert np.abs(state.c.coeffs - start).max() == 0.0


def test_rounded_inputs_move_outputs():
    # the floor measurement of regen.py: one rounding of every Poisson matrix,
    # Poisson load and source entry moves some column and leaves all finite
    exact = run_case("example2")
    saved = driver.assemble_operator
    with _Rounded(1):
        cols = run_case("example2")
    assert driver.assemble_operator is saved
    assert all(np.all(np.isfinite(v)) for v in cols.values())
    assert any(deviation(cols[k], exact[k]) > 0 for k in cols)


def test_zero_rounding_reproduces_the_run(monkeypatch):
    # the harness must perturb the solver's own arithmetic: with the rounding
    # set to zero it reproduces the plain run byte for byte, so the floors
    # measure roundoff on the production path (cached separable sources too)
    exact = run_case("example1")
    monkeypatch.setattr(regen, "HALF_EPS", 0.0)
    with _Rounded(1):
        cols = run_case("example1")
    for key, value in exact.items():
        assert value.tobytes() == cols[key].tobytes(), key
