"""The summary of tools/bench_pairs.py on canned bench/run.py results."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


bench_pairs = _load_tool()


def _result(step_ms, rss=None, correct=True, failed=0):
    metrics = {"step_ms": {"value": step_ms, "unit": "ms"}}
    if rss is not None:
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MiB"}
    return {"correct": correct, "attempted": 3, "failed": failed, "metrics": metrics}


def test_summary_of_canned_pairs():
    steps = [(10.0, 8.0), (12.0, 9.0), (11.0, 11.0), (9.0, 10.0), (10.0, 7.0)]
    pairs = [{"parent": _result(p, rss=60.0), "change": _result(c, rss=61.0)}
             for p, c in steps]
    pairs[4]["change"] = _result(7.0, correct=False, failed=1)   # no peak_rss_mb
    out = bench_pairs.summarize(pairs, {"step_ms": "lower", "peak_rss_mb": "lower",
                                        "cpu_s": "lower"})
    step = out["step_ms"]
    assert step["pairs"] == 5
    assert step["change_won"] == 3          # the tie (11, 11) counts for neither
    assert step["parent"]["values"] == [10.0, 12.0, 11.0, 9.0, 10.0]
    # inclusive quartiles of 9, 10, 10, 11, 12 and of 7, 8, 9, 10, 11
    assert (step["parent"]["q1"], step["parent"]["median"], step["parent"]["q3"]) == \
        (10.0, 10.0, 11.0)
    assert (step["change"]["q1"], step["change"]["median"], step["change"]["q3"]) == \
        (8.0, 9.0, 10.0)
    assert step["relative_change"] == pytest.approx(-0.1)
    rss = out["peak_rss_mb"]
    assert rss["pairs"] == 4 and rss["change_won"] == 0
    assert "cpu_s" not in out                # reported by no run
    assert out["runs"] == {"all_correct": False, "failed_operations": 1, "errors": 0}


def test_higher_is_better_and_single_pair():
    pairs = [{"parent": _result(2.0), "change": {"error": "exit code 1: boom"}},
             {"parent": _result(2.0), "change": _result(3.0)}]
    out = bench_pairs.summarize(pairs, {"step_ms": "higher"})
    step = out["step_ms"]
    assert step["pairs"] == 1 and step["change_won"] == 1
    assert step["change"]["q1"] == step["change"]["median"] == step["change"]["q3"] == 3.0
    assert out["runs"]["errors"] == 1 and not out["runs"]["all_correct"]


def test_fewer_than_ten_pairs_are_refused(capsys):
    with pytest.raises(SystemExit):
        bench_pairs.main(["--topic", "t", "--workload", "ex1-conv-1d", "--pairs", "9"])
    assert "at least 10" in capsys.readouterr().err
