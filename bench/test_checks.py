"""Tests of the benchmark's output checks: each corrupted output must fail.

    python -m pytest bench/
"""

import math

import pytest

from checks import CheckError
from workloads import WORKLOADS

EX1 = WORKLOADS["ex1-conv-1d"]
EX4 = WORKLOADS["ex4-relax-2d"]


def _fmt(v):
    return f"{v:.12e}"


def write_errors(path, sizes, errors):
    """errors.csv in the solver's layout: h, then (err, order) per field."""
    names = list(errors)
    lines = [",".join(["h"] + [f"{p}_{n}" for n in names for p in ("err", "order")])]
    for i, h in enumerate(sizes):
        row = [_fmt(h)]
        for n in names:
            e = errors[n]
            order = "" if i == 0 else _fmt(math.log(e[i - 1] / e[i]) / math.log(sizes[i - 1] / h))
            row += [_fmt(e[i]), order]
        lines.append(",".join(row))
    (path / "errors.csv").write_text("\n".join(lines) + "\n")


def write_relaxation(path, masses, n_rows, n_cells, cell_area, min_avg=0.01, mass_scale=1.0):
    """diagnostics.csv and snapshots of a run whose cells all hold the mean density."""
    lines = ["# energy column: diagnostic convention",
             "t,mass_1,mass_2,energy,min_avg_1,min_avg_2,min_g_1,min_g_2,theta_count,mu0"]
    for k in range(n_rows):
        t = EX4.t_final * k / (n_rows - 1)
        lines.append(",".join([_fmt(t)] + [_fmt(m) for m in masses] + [_fmt(-0.48)]
                              + [_fmt(min_avg), _fmt(0.01), _fmt(0.0), _fmt(0.0)]
                              + ["4" if k == 0 else "0", _fmt(0.0108)]))
    (path / "diagnostics.csv").write_text("\n".join(lines) + "\n")
    for i, m in enumerate(masses, start=1):
        avg = m * mass_scale / (n_cells * cell_area)
        rows = ["cell,coef_0,coef_1,coef_2,coef_3,coef_4,coef_5"]
        rows += [f"{c},{_fmt(avg)},0,0,0,0,0" for c in range(n_cells)]
        (path / f"snapshot_c{i}.csv").write_text("\n".join(rows) + "\n")


@pytest.fixture(scope="module")
def ex1_proj():
    return EX1.reference()


@pytest.fixture(scope="module")
def ex4_masses():
    return EX4.reference()


def ex1_sizes():
    return [1.0 / n for n in EX1.sizes]


def test_error_table_at_three_times_projection_passes(tmp_path, ex1_proj):
    write_errors(tmp_path, ex1_sizes(), {f: [3.0 * p for p in v] for f, v in ex1_proj.items()})
    EX1.check(tmp_path, ex1_proj)


def test_order_two_error_table_fails(tmp_path, ex1_proj):
    errors = {f: [2.0 * v[0] / 4**i for i in range(len(v))] for f, v in ex1_proj.items()}
    write_errors(tmp_path, ex1_sizes(), errors)
    with pytest.raises(CheckError, match="finest order"):
        EX1.check(tmp_path, ex1_proj)


def test_error_below_projection_error_fails(tmp_path, ex1_proj):
    errors = {f: [3.0 * p for p in v] for f, v in ex1_proj.items()}
    errors["psi"][2] = 0.5 * ex1_proj["psi"][2]
    write_errors(tmp_path, ex1_sizes(), errors)
    with pytest.raises(CheckError, match=r"psi at h=0.05: .* 0\.500x the projection error"):
        EX1.check(tmp_path, ex1_proj)


def _relaxation(tmp_path, masses, **kw):
    n = EX4.sizes[0]
    write_relaxation(tmp_path, masses, EX4.steps + 1, n * n, (1.0 / n) ** 2, **kw)


def test_exact_relaxation_output_passes(tmp_path, ex4_masses):
    _relaxation(tmp_path, ex4_masses)
    EX4.check(tmp_path, ex4_masses)


def test_negative_cell_average_fails(tmp_path, ex4_masses):
    _relaxation(tmp_path, ex4_masses, min_avg=-1e-12)
    with pytest.raises(CheckError, match="min_avg_1 = .* <= 0"):
        EX4.check(tmp_path, ex4_masses)


def test_mass_off_by_1e8_fails(tmp_path, ex4_masses):
    _relaxation(tmp_path, ex4_masses, mass_scale=1.0 + 1e-8)
    with pytest.raises(CheckError, match="snapshot_c1: mass"):
        EX4.check(tmp_path, ex4_masses)
