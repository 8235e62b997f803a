"""tools/ab_inprocess.py: ABBA blocks of one tree against itself on a tiny
neutral run, and the rule that calls a difference resolved."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

TOOLS = Path(__file__).resolve().parents[1] / "tools"
SRC = TOOLS.parent / "src" / "pnpdg"


def _load_tool():
    sys.path.insert(0, str(TOOLS))   # the tool imports its git helper from bench_pairs
    try:
        spec = importlib.util.spec_from_file_location("ab_inprocess", TOOLS / "ab_inprocess.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(str(TOOLS))
    return mod


ab = _load_tool()

TINY = SimpleNamespace(
    command="run", sizes=(4,), steps=4,
    config="[benchmark]\nid = neutral\n[mesh]\nsizes = 4\n[time]\nt_final = 4e-4\ndt = 1e-4\n")


def test_same_tree_under_two_names(tmp_path):
    names = {"parent": "pnpdg_ab_test_a", "change": "pnpdg_ab_test_b"}
    try:
        packages = {s: ab.load_package(name, SRC) for s, name in names.items()}
        assert packages["parent"].cli is not packages["change"].cli
        assert packages["parent"].cli.__name__ == "pnpdg_ab_test_a.cli"
        out = ab.compare(packages, TINY, 2, tmp_path)
    finally:
        for key in [k for k in sys.modules if k.split(".")[0] in names.values()]:
            del sys.modules[key]
    for s in ("parent", "change"):
        for m in ab.METRICS:
            assert len(out[s][m]["values"]) == 2
            assert out[s][m]["median"] > 0
    assert set(out["change_won"]) == set(ab.METRICS)
    assert all(0 <= won <= 2 for won in out["change_won"].values())
    # the call count is deterministic: identical code gives identical counts
    assert out["parent"]["calls_per_stage"] == out["change"]["calls_per_stage"] > 0
    assert (tmp_path / "out" / "diagnostics.csv").is_file()


def _processes(forward, swapped, control):
    return {p: {"relative_change": {m: rel for m in ab.METRICS}}
            for p, rel in zip(ab.PROCESSES, (forward, swapped, control))}


def test_resolved_needs_agreement_beyond_the_control():
    assert ab.resolved(_processes(-0.10, -0.08, 0.02))["cpu_s"]["resolved"]
    assert ab.resolved(_processes(0.05, 0.04, -0.03))["step_ms"]["resolved"]
    # within the A/A spread, or the two processes disagree in sign
    assert not ab.resolved(_processes(-0.10, -0.08, 0.09))["cpu_s"]["resolved"]
    assert not ab.resolved(_processes(-0.10, 0.08, 0.01))["cpu_s"]["resolved"]
    summary = ab.resolved(_processes(-0.10, -0.08, 0.02))["cpu_s"]
    assert (summary["forward"], summary["swapped"], summary["control"]) == (-0.10, -0.08, 0.02)
