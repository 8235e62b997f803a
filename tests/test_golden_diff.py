"""The column and file comparisons of tools/golden_diff.py on canned data."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load_tool():
    sys.path.insert(0, str(TOOLS))   # the tool imports its git helper from bench_pairs
    try:
        spec = importlib.util.spec_from_file_location("golden_diff", TOOLS / "golden_diff.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(str(TOOLS))
    return mod


golden_diff = _load_tool()


def test_compare_canned_columns():
    base = {"same": np.array([1.0, np.nan, 3.0]), "moved": np.array([1.0, 2.0]),
            "signed_zero": np.array([0.0]), "reshaped": np.zeros(3), "unfloored": np.ones(2),
            "zero_floor": np.ones(1), "dropped": np.ones(1)}
    new = {"same": np.array([1.0, np.nan, 3.0]), "moved": np.array([1.0, 2.0 + 2 ** -51]),
           "signed_zero": np.array([-0.0]), "reshaped": np.zeros(4),
           "unfloored": np.array([1.0, 1.5]), "zero_floor": np.array([2.0]),
           "added": np.ones(1)}
    floors = {"same": 0.0, "moved": 2 ** -53, "signed_zero": 1e-17, "reshaped": 1.0,
              "zero_floor": 0.0}
    out = golden_diff.compare(base, new, floors)
    assert out == {
        "same": "bitwise",
        "moved": "deviation 4.44e-16, 4 x floor",
        "signed_zero": "deviation 0, 0 x floor",     # equal values, different bytes
        "reshaped": "deviation inf, inf x floor",
        "unfloored": "deviation 0.5, no floor",
        "zero_floor": "deviation 1, floor 0",
        "dropped": "only in the base",
        "added": "only in the new run",
    }


def test_compare_files_canned_dirs(tmp_path):
    base, new = tmp_path / "base", tmp_path / "new"
    for root, files in ((base, {"conv/errors.csv": b"h,err\n0.2,1e-3\n",
                                "conv/stdout": b"wrote <out>/errors.csv\nexit status 0\n",
                                "run/snapshot_c1.csv": b"cell,c0\n0,1\n"}),
                        (new, {"conv/errors.csv": b"h,err\n0.2,1.000000000001e-3\n",
                               "conv/stdout": b"wrote <out>/errors.csv\nexit status 0\n",
                               "run/snapshot_psi.csv": b"cell,c0\n0,1\n"})):
        for name, data in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_bytes(data)
    assert golden_diff.compare_files(base, new) == {
        "conv/errors.csv": "differs",
        "conv/stdout": "identical",
        "run/snapshot_c1.csv": "only in the base",
        "run/snapshot_psi.csv": "only in the new run",
    }
