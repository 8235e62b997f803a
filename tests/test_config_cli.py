import numpy as np
import pytest

from pnpdg.cli import main
from pnpdg.config import config_sizes, parse_config, resolve, serialize_config
from pnpdg.csvio import observed_orders
from pnpdg.driver import run
from pnpdg.exceptions import ConfigError

MINIMAL = """
[benchmark]
id = example1
"""

FULL = """
# full configuration
[benchmark]
id = example3-4
variant = b

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


def test_round_trip_identity():
    for text in (MINIMAL, FULL):
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        assert parse_config(serialize_config(again)) == again


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
    text = "[benchmark]\nid = example1\n[scheme]\nnp_beta1 = 0.04\n"
    with pytest.raises(ConfigError) as e:
        parse_config(text)
    assert "[1/8, 1/4]" in str(e.value)
    ok = parse_config(text + "override_admissibility = true\n")
    assert ok.np_beta1 == 0.04


def test_dt_and_mu_conflict():
    with pytest.raises(ConfigError):
        parse_config("[benchmark]\nid = example1\n[time]\ndt = 1e-4\nmu = 0.01\n")


@pytest.mark.parametrize("dim", [0, 3, -1])
def test_bad_custom_dim_rejected(dim):
    with pytest.raises(ConfigError, match="dim"):
        parse_config(f"[benchmark]\nid = neutral\n[custom]\ndim = {dim}\n")
    assert parse_config("[benchmark]\nid = neutral\n[custom]\ndim = 2\n").custom_dim == 2


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


def test_cli_exit_code_config_error(tmp_path):
    bad = _write(tmp_path, "bad.cfg", "[benchmark]\nid = nosuch\n")
    assert main(["run", "--config", bad]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2


@pytest.mark.parametrize("bench,variant", [("example3-4", "z"), ("example1", "b")])
def test_cli_bad_variant_is_config_error(tmp_path, capsys, bench, variant):
    # an unknown variant, and a variant for a benchmark that takes none
    cfg = _write(tmp_path, "v.cfg", f"[benchmark]\nid = {bench}\nvariant = {variant}\n"
                 f"[output]\ndir = {tmp_path / 'out'}\n")
    assert main(["run", "--config", cfg]) == 2
    assert "variant" in capsys.readouterr().err
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


@pytest.mark.parametrize("line", [
    "dt = 0", "dt = -1e-5", "dt = nan", "dt = inf",
    "mu = 0", "mu = -0.01", "mu = nan",
    "t_final = nan", "t_final = inf", "t_final = -1",
])
def test_bad_time_settings_rejected(line):
    with pytest.raises(ConfigError, match=line.split()[0]):
        parse_config(MINIMAL + "[time]\n" + line + "\n")
