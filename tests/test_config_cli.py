import functools
from pathlib import Path

import numpy as np
import pytest

from pnpdg.benchmarks import BENCHMARKS
from pnpdg.cli import main
from pnpdg.config import RunConfig, config_sizes, parse_config, resolve
from pnpdg.csvio import observed_orders
from pnpdg.driver import SimConfig, init, run
from pnpdg.exceptions import ConfigError
from pnpdg.field import FluxParams

MINIMAL = """
[benchmark]
id = example1
"""

FULL = """
# full configuration
[benchmark]
id = example3-4b

[mesh]
sizes = 10 20

[scheme]
np_beta0 = 16
np_beta1 = 0.16666666666666666
poisson_beta0 = 16
poisson_beta1 = 0.16666666666666666
limiter = true
override_admissibility = false

[time]
t_final = 0.001
mu = 1.6e-05
rk = 2
cfl = monitor

[output]
dir = results
cadence = 10
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    problem, sim = resolve(cfg)
    assert problem.np_params.beta0 == 4.0
    assert abs(problem.np_params.beta1 - 1 / 6) < 1e-15
    assert sim.mu == 0.01
    assert sim.T == 0.01
    assert config_sizes(cfg) == [5, 10, 20, 40]


def test_full_config_sets_every_key():
    cfg = parse_config(FULL)
    assert cfg == RunConfig(
        benchmark="example3-4b", sizes=[10, 20], out_dir="results",
        np_params=dict(beta0=16.0, beta1=1 / 6), poisson_params=dict(beta0=16.0, beta1=1 / 6),
        sim=dict(limiter=True, override_admissibility=False, T=0.001, mu=1.6e-5, rk=2,
                 cfl_mode="monitor", cadence=10))
    problem, sim = resolve(cfg)
    assert problem.name == "example3-4b" and problem.mesh.n_cells == 100
    assert (sim.T, sim.mu, sim.cadence) == (0.001, 1.6e-5, 10)
    assert problem.np_params == FluxParams(16.0, 1 / 6)
    assert problem.poisson_params == FluxParams(16.0, 1 / 6)
    assert sim == SimConfig(T=0.001, mu=1.6e-5, rk=2, limiter=True, cfl_mode="monitor",
                            cadence=10, override_admissibility=False)
    # scheme and time keys set away from their defaults reach their owners
    text = FULL.replace("np_beta0 = 16", "np_beta0 = 2").replace(
        "poisson_beta1 = 0.16666666666666666", "poisson_beta1 = 0.2").replace(
        "limiter = true", "limiter = false").replace(
        "override_admissibility = false", "override_admissibility = true").replace(
        "rk = 2", "rk = 1").replace("cfl = monitor", "cfl = adaptive")
    problem, sim = resolve(parse_config(text), 20)
    assert problem.mesh.n_cells == 400
    assert problem.np_params == FluxParams(2.0, 1 / 6)
    assert problem.poisson_params == FluxParams(16.0, 0.2)
    assert sim == SimConfig(T=0.001, mu=1.6e-5, rk=1, limiter=False, cfl_mode="adaptive",
                            cadence=10, override_admissibility=True)


def test_config_dt_replaces_the_registry_mu():
    # example1's registry step is mu = 0.01; a file dt takes its place
    _, sim = resolve(parse_config(MINIMAL + "[time]\ndt = 2e-5\n"))
    assert (sim.dt, sim.mu, sim.T) == (2e-5, None, 0.01)
    # example4's registry step is dt = 1e-5; a file mu takes its place
    _, sim = resolve(parse_config("[benchmark]\nid = example4\n[time]\nmu = 0.004\n"))
    assert (sim.dt, sim.mu, sim.T) == (None, 0.004, 0.1)


def test_unknown_key_reports_line():
    text = "[benchmark]\nid = example1\n\n[mesh]\nresolution = 5\n"
    with pytest.raises(ConfigError) as e:
        parse_config(text)
    assert "line 5" in str(e.value)
    assert "resolution" in str(e.value)


def test_unknown_section_reports_line():
    with pytest.raises(ConfigError) as e:
        parse_config("[solver]\nx = 1\n")
    assert "line 1" in str(e.value)


def test_type_error_reports_line():
    with pytest.raises(ConfigError) as e:
        parse_config("[benchmark]\nid = example1\n[time]\nrk = fast\n")
    assert "line 4" in str(e.value)


def test_empty_config_requires_benchmark():
    with pytest.raises(ConfigError) as e:
        parse_config("")
    assert "benchmark id required" in str(e.value)


def test_beta1_outside_range_rejected():
    # the range is checked once, by init, after every override is applied
    text = "[benchmark]\nid = example1\n[scheme]\nnp_beta1 = 0.04\n"
    with pytest.raises(ConfigError, match="1/8 <= beta1 <= 1/4"):
        init(*resolve(parse_config(text)))
    ok = parse_config(text + "override_admissibility = true\n")
    assert ok.np_params == {"beta1": 0.04}
    assert run(*resolve(ok)).state.t == pytest.approx(0.01)


def test_cli_override_flag_admits_config_beta1(tmp_path, capsys):
    out = tmp_path / "conv"
    cfg = _write(tmp_path, "b1.cfg", f"""
[benchmark]
id = example1
[mesh]
sizes = 5 10
[scheme]
np_beta1 = {1 / 24!r}
[time]
t_final = 0.002
[output]
dir = {out}
""")
    assert main(["convergence", "--config", cfg]) == 2
    assert "1/8 <= beta1 <= 1/4" in capsys.readouterr().err
    assert not out.exists()
    assert main(["convergence", "--config", cfg, "--override-admissibility"]) == 0
    assert (out / "errors.csv").exists()


def test_dt_and_mu_conflict():
    with pytest.raises(ConfigError):
        parse_config("[benchmark]\nid = example1\n[time]\ndt = 1e-4\nmu = 0.01\n")


@pytest.mark.parametrize("dim", [0, 3, -1])
def test_bad_custom_dim_rejected(dim):
    with pytest.raises(ConfigError, match="dim"):
        parse_config(f"[benchmark]\nid = neutral\n[custom]\ndim = {dim}\n")
    assert parse_config("[benchmark]\nid = neutral\n[custom]\ndim = 2\n").custom == {"dim": 2}


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


NEUTRAL_CFG = """
[benchmark]
id = neutral
[mesh]
sizes = 8
[time]
t_final = 0.001
mu = 0.01
[output]
dir = {out}
"""


def test_cli_run_deterministic(tmp_path):
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    c1 = _write(tmp_path, "a.cfg", NEUTRAL_CFG.format(out=out1))
    c2 = _write(tmp_path, "b.cfg", NEUTRAL_CFG.format(out=out2))
    assert main(["run", "--config", c1]) == 0
    assert main(["run", "--config", c2]) == 0
    for name in ("diagnostics.csv", "snapshot_c1.csv", "snapshot_c2.csv", "snapshot_psi.csv"):
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2, name
    header = (out1 / "diagnostics.csv").read_text().splitlines()
    assert header[1].startswith("t,mass_1,mass_2,energy,min_avg_1,min_avg_2,"
                                "min_g_1,min_g_2,theta_count,mu0")


EXAMPLE4_CFG = """
[benchmark]
id = example4
[mesh]
sizes = 6
[time]
t_final = 0.003
dt = 1e-4
[output]
dir = {out}
cadence = 1
"""


def test_cli_run_writes_post_limit_minima(tmp_path):
    # min_g_post_1..m follow mu0; after limiting the test-set minima are
    # nonnegative up to roundoff, and equal the raw minima where no cell of
    # the row was limited
    out = tmp_path / "o"
    assert main(["run", "--config", _write(tmp_path, "e4.cfg", EXAMPLE4_CFG.format(out=out))]) == 0
    lines = (out / "diagnostics.csv").read_text().splitlines()
    cols = lines[1].split(",")
    assert cols[cols.index("mu0") + 1:] == ["min_g_post_1", "min_g_post_2"]
    rows = [dict(zip(cols, line.split(","))) for line in lines[2:]]
    assert len(rows) == 31
    scale = max(abs(float(r[k])) for r in rows for k in cols if k.startswith(("min_g", "min_avg")))
    assert int(rows[0]["theta_count"]) > 0 and float(rows[0]["min_g_2"]) < 0
    for r in rows:
        for i in (1, 2):
            assert float(r[f"min_g_post_{i}"]) >= -1e-14 * scale
            if r["theta_count"] == "0":
                assert r[f"min_g_post_{i}"] == r[f"min_g_{i}"]


def test_cli_exit_code_config_error(tmp_path):
    bad = _write(tmp_path, "bad.cfg", "[benchmark]\nid = nosuch\n")
    assert main(["run", "--config", bad]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_cli_case_without_amplitude_set_is_config_error(tmp_path, capsys):
    # Example 3 case 4 is three registry ids, one per amplitude set
    cfg = _write(tmp_path, "v.cfg", f"[benchmark]\nid = example3-4\n"
                 f"[output]\ndir = {tmp_path / 'out'}\n")
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "unknown benchmark 'example3-4'" in err
    assert all(name in err for name in BENCHMARKS)
    assert not (tmp_path / "out").exists()


def test_cli_exit_code_numerical_fatal(tmp_path):
    cfg = _write(tmp_path, "strict.cfg", """
[benchmark]
id = neutral
[mesh]
sizes = 8
[time]
t_final = 0.01
mu = 5.0
cfl = strict
[output]
dir = {}
""".format(tmp_path / "out"))
    assert main(["run", "--config", cfg]) == 3


def test_cli_convergence_needs_two_sizes(tmp_path):
    cfg = _write(tmp_path, "one.cfg", NEUTRAL_CFG.format(out=tmp_path / "o"))
    assert main(["convergence", "--config", cfg]) == 2


def test_cli_convergence_example1(tmp_path, capsys):
    out = tmp_path / "conv"
    cfg = _write(tmp_path, "conv.cfg", """
[benchmark]
id = example1
[mesh]
sizes = 5 10
[time]
t_final = 0.005
[output]
dir = {}
""".format(out))
    assert main(["convergence", "--config", cfg]) == 0
    lines = (out / "errors.csv").read_text().splitlines()
    assert lines[0] == "h,err_c1,order_c1,err_c2,order_c2,err_psi,order_psi"
    rows = [ln.split(",") for ln in lines[1:]]
    assert rows[0][2] == ""          # no order on the coarsest mesh
    # recompute the printed order from the error columns
    e1 = [float(r[1]) for r in rows]
    h = [float(r[0]) for r in rows]
    expect = np.log(e1[0] / e1[1]) / np.log(h[0] / h[1])
    assert abs(float(rows[1][2]) - expect) < 1e-9
    # 13 significant digits in the error entries
    assert "e-" in rows[0][1] and len(rows[0][1].split("e")[0].replace(".", "").lstrip("-")) >= 12


def test_cli_snapshots_match_the_final_state(tmp_path):
    # each species' snapshot is its slice of the stacked densities
    out = tmp_path / "snap"
    cfg = _write(tmp_path, "e2.cfg", """
[benchmark]
id = example2
[mesh]
sizes = 6
[time]
t_final = 0.002
mu = 0.01
[output]
dir = {}
""".format(out))
    assert main(["run", "--config", cfg]) == 0
    problem, sim = resolve(parse_config((tmp_path / "e2.cfg").read_text()))
    state = run(problem, sim).state
    expected = {"c1": state.c.coeffs[0], "c2": state.c.coeffs[1],
                "psi": state.prepared_stage().psi.coeffs}
    for name, coeffs in expected.items():
        snap = np.loadtxt(out / f"snapshot_{name}.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(snap[:, 0], np.arange(6))
        np.testing.assert_allclose(snap[:, 1:], coeffs, rtol=1e-12, atol=0)


def test_cli_flags_override(tmp_path):
    out = tmp_path / "flags"
    cfg = _write(tmp_path, "f.cfg", NEUTRAL_CFG.format(out=out))
    assert main(["run", "--config", cfg, "--rk", "1", "--no-limiter",
                 "--cfl", "strict", "--out", str(out)]) == 0
    assert (out / "diagnostics.csv").exists()


def test_cli_steady_check(tmp_path, capsys):
    out = tmp_path / "sc"
    cfg = _write(tmp_path, "s.cfg", """
[benchmark]
id = neutral
[mesh]
sizes = 8
[time]
t_final = 0.0
mu = 0.01
rk = 1
[output]
dir = {}
""".format(out))
    assert main(["steady-check", "--config", cfg]) == 0
    lines = (out / "steady.csv").read_text().splitlines()
    assert lines[0] == "step,t,max_change"
    assert len(lines) == 101
    changes = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert max(changes) < 1e-13


@pytest.mark.parametrize("t_final, start", [("0", "t=0:"), ("1e-3", "t=0.001:")])
def test_cli_steady_check_reports_its_start_time(tmp_path, capsys, t_final, start):
    cfg = _write(tmp_path, "s.cfg", f"[benchmark]\nid = neutral\n[mesh]\nsizes = 6\n"
                 f"[time]\nt_final = {t_final}\n[output]\ndir = {tmp_path / 'sc'}\n")
    assert main(["steady-check", "--config", cfg]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith(f"steady check after {start} 100 steps of dt=")


def test_cli_steady_check_perturbed_relaxes(tmp_path):
    # perturbed neutral state: per-step changes decay across the window
    out = tmp_path / "relax"
    cfg = _write(tmp_path, "p.cfg", """
[benchmark]
id = neutral
[mesh]
sizes = 8
[time]
t_final = 0.0
mu = 0.01
[custom]
perturb = 0.02
[output]
dir = {}
""".format(out))
    assert main(["steady-check", "--config", cfg]) == 0
    changes = [float(ln.split(",")[2])
               for ln in (out / "steady.csv").read_text().splitlines()[1:]]
    assert changes[-1] < 0.2 * changes[0]
    drops = sum(b < a for a, b in zip(changes, changes[1:]))
    assert drops > 0.9 * (len(changes) - 1)


def test_observed_orders_helper():
    errs = [1e-2, 1.25e-3]
    out = observed_orders([0.2, 0.1], errs)
    assert out[0] is None and abs(out[1] - 3.0) < 1e-12
    out = observed_orders([10, 20], errs, inverse=True)
    assert abs(out[1] - 3.0) < 1e-12
    # a pair with a zero error has no order
    out = observed_orders([0.2, 0.1, 0.05, 0.025], [1e-2, 0.0, 0.0, 1e-3])
    assert out[0] is None and all(np.isnan(o) for o in out[1:])


def test_cli_convergence_of_an_exact_fixed_point(tmp_path, capsys):
    # the neutral constant state is an exact fixed point: every error is 0
    out = tmp_path / "conv"
    cfg = _write(tmp_path, "conv.cfg", f"[benchmark]\nid = neutral\n[mesh]\nsizes = 4 8\n"
                 f"[time]\nt_final = 0.001\n[output]\ndir = {out}\n")
    assert main(["convergence", "--config", cfg]) == 0
    lines = (out / "errors.csv").read_text().splitlines()
    assert lines[1:] == ["2.500000000000e-01," + ",".join(["0.000000000000e+00", ""] * 3),
                         "1.250000000000e-01," + ",".join(["0.000000000000e+00", "nan"] * 3)]
    rows = capsys.readouterr().out.splitlines()[1:3]
    assert [r.split() for r in rows] == [["0.25"] + ["0.0000e+00", "--"] * 3,
                                         ["0.125"] + ["0.0000e+00", "--"] * 3]


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_every_registry_id_converges_from_the_cli(tmp_path, name):
    out = tmp_path / "conv"
    cfg = _write(tmp_path, "conv.cfg", f"[benchmark]\nid = {name}\n[mesh]\nsizes = 2 4\n"
                 f"[time]\nt_final = 4e-5\n[output]\ndir = {out}\n")
    assert main(["convergence", "--config", cfg]) == 0
    assert (out / "errors.csv").is_file()


@pytest.mark.parametrize("line", [
    "dt = 0", "dt = -1e-5", "dt = nan", "dt = inf",
    "mu = 0", "mu = -0.01", "mu = nan",
    "t_final = nan", "t_final = inf", "t_final = -1",
])
def test_bad_time_settings_rejected(line):
    with pytest.raises(ConfigError, match=line.split()[0]):
        parse_config(MINIMAL + "[time]\n" + line + "\n")


def test_repeated_size_reports_line(tmp_path, capsys):
    # a repeated size would give a zero log ratio in the observed orders
    text = "[benchmark]\nid = example1\n[mesh]\nsizes = 5 5\n"
    with pytest.raises(ConfigError, match="line 4: .*repeat"):
        parse_config(text)
    out = tmp_path / "conv"
    cfg = _write(tmp_path, "rep.cfg", text + f"[output]\ndir = {out}\n")
    assert main(["convergence", "--config", cfg]) == 2
    assert "repeat" in capsys.readouterr().err
    assert not out.exists()


def test_key_set_twice_names_both_lines():
    text = "[benchmark]\nid = example1\n[time]\ncfl = strict\ncfl = monitor\n"
    with pytest.raises(ConfigError, match="line 5: 'cfl' is already set on line 4"):
        parse_config(text)
    # also across two headers of the same section
    with pytest.raises(ConfigError, match="line 6: 'mu' is already set on line 4"):
        parse_config("[benchmark]\nid = example1\n[time]\nmu = 0.01\n[time]\nmu = 0.02\n")


@pytest.mark.parametrize("name", sorted(set(BENCHMARKS) - {"neutral"}))
def test_custom_section_on_other_ids_is_config_error(tmp_path, capsys, name):
    text = f"[benchmark]\nid = {name}\n[custom]\ndim = 2\n"
    with pytest.raises(ConfigError, match=f"does not apply to '{name}'"):
        parse_config(text)
    out = tmp_path / "out"
    cfg = _write(tmp_path, "c.cfg", text + f"[output]\ndir = {out}\n")
    assert main(["run", "--config", cfg]) == 2
    assert "[custom]" in capsys.readouterr().err
    assert not out.exists()


def test_readme_configuration_block_resolves():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Configuration", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(block)
    problem, sim = resolve(cfg)
    assert problem.name == cfg.benchmark and problem.mesh.n_cells == config_sizes(cfg)[0]
    assert set(cfg.sim) == {"T", "mu", "rk", "limiter", "override_admissibility",
                            "cfl_mode", "cadence"}


def test_readme_library_block_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(block, {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("section, line", [
    ("scheme", "poisson_beta0 = nan"),
    ("time", "t_final = -1"),
    ("time", "rk = 3"),
    ("time", "cfl = sometimes"),
    ("output", "cadence = 0"),
    ("custom", "dim = 3"),
])
def test_cli_resolve_error_reports_line(tmp_path, capsys, section, line):
    # values that parse but that the registry or SimConfig rejects
    out = tmp_path / "out"
    cfg = _write(tmp_path, "r.cfg", f"[benchmark]\nid = neutral\n[mesh]\nsizes = 4\n"
                 f"[{section}]\n{line}\n[output]\ndir = {out}\n")
    assert main(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error: line 6: " in err and line.split()[0] in err
    assert not out.exists()


@pytest.mark.parametrize("line, code", [
    ("poisson_beta0 = nan", 2),
    ("poisson_beta0 = inf", 2),
    ("poisson_beta1 = nan", 2),
    ("np_beta1 = nan\noverride_admissibility = true", 2),
    # finite, but the matrix overflows and SuperLU finds its factor singular
    ("poisson_beta1 = 1e300", 3),
])
def test_cli_bad_flux_parameter_exit_code(tmp_path, capsys, line, code):
    out = tmp_path / "out"
    cfg = _write(tmp_path, "f.cfg", f"[benchmark]\nid = example1\n[mesh]\nsizes = 5\n"
                 f"[time]\nt_final = 1e-4\n[scheme]\n{line}\n[output]\ndir = {out}\n")
    assert main(["run", "--config", cfg]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert f"config error: line 8: {line.split()[0]} must be finite" in err
        assert not out.exists()
    else:
        assert "numerical fatal: Poisson matrix factorization failed" in err


@pytest.mark.parametrize("command, text, sizes", [
    ("convergence", "id = example1\n[time]\nt_final = 1e-4", [5, 5, 10, 20, 40]),
    ("convergence", "id = example1\n[mesh]\nsizes = 5 10\n[time]\nt_final = 1e-4", [5, 5, 10]),
    # no exact solution: a reference run on 4 x 10 cells
    ("convergence", "id = example2\n[mesh]\nsizes = 5 10\n[time]\nt_final = 1e-4",
     [5, 5, 10, 40]),
    ("run", "id = example4\n[time]\nt_final = 2e-5", [20, 20]),
    ("steady-check", "id = neutral\n[time]\nt_final = 0", [8, 8]),
], ids=["convergence-default-sizes", "convergence", "convergence-reference", "run",
        "steady-check"])
def test_each_command_builds_each_mesh_once(tmp_path, monkeypatch, command, text, sizes):
    # one build when the configuration is parsed, then one per mesh the command runs
    name = text.split()[2]
    builder, defaults = BENCHMARKS[name]
    built = []

    @functools.wraps(builder)
    def counted(n, **kwargs):
        built.append(n)
        return builder(n, **kwargs)

    monkeypatch.setitem(BENCHMARKS, name, (counted, defaults))
    cfg = _write(tmp_path, "c.cfg", f"[benchmark]\n{text}\n[output]\ndir = {tmp_path / 'o'}\n")
    assert main([command, "--config", cfg]) == 0
    assert sorted(built) == sorted(sizes)
