"""Golden columns and CLI output files of a revision against the working tree.

    python3 tools/golden_diff.py REV

runs `run_case` (tests/golden/regen.py) for every golden case of the
committed tree of REV, exported with `git archive`, and of the working
tree, each tree in its own process with its own `src` and `tests` on the
path. It prints, per case and column, "bitwise" when both runs give the
same bytes, and otherwise the largest absolute deviation over the column's
floor stored in the working tree's golden file. A case or column that only
one side has is named as such.

It then runs the `pnpdg` commands of `CLI_RUNS` with each tree's package
and compares every file they write byte for byte, and their stdout and
exit status, with the output directory replaced by a placeholder. The exit
status is 0 when every column both sides have is bitwise and every CLI
file matches, 1 otherwise.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from bench_pairs import ROOT, export

GOLDEN = ROOT / "tests" / "golden"
# name -> (pnpdg command, configuration text) of the compared CLI runs
CLI_RUNS = {
    "run-example4": ("run", "[benchmark]\nid = example4\n[mesh]\nsizes = 6\n"
                            "[time]\nt_final = 3e-4\n[output]\ncadence = 1\n"),
    # no [mesh] sizes: the registry's default mesh size and step
    "run-neutral": ("run", "[benchmark]\nid = neutral\n[time]\nt_final = 2e-3\n"),
    "convergence-example1": ("convergence", "[benchmark]\nid = example1\n[mesh]\n"
                                            "sizes = 5 10\n[time]\nt_final = 0.002\n"),
    "convergence-example2": ("convergence", "[benchmark]\nid = example2\n[mesh]\n"
                                            "sizes = 5 10\n[time]\nt_final = 0.002\n"),
    "steady-check-neutral": ("steady-check", "[benchmark]\nid = neutral\n[mesh]\n"
                                             "sizes = 6\n[time]\nt_final = 0\n"),
}
DUMP = """import sys, numpy as np
from golden.regen import CASES, run_case
for name in CASES:
    np.savez(f"{sys.argv[1]}/{name}.npz", **run_case(name))
"""


def dump_cases(tree, out):
    """Columns of every golden case of `tree`, one `<case>.npz` each in `out`."""
    out.mkdir()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(tree / "tests")])}
    subprocess.run([sys.executable, "-c", DUMP, str(out)], cwd=tree, env=env, check=True)
    return {p.stem: dict(np.load(p)) for p in sorted(out.glob("*.npz"))}


def run_cli(tree, out):
    """Every CLI_RUNS entry with `tree`'s package, writing into out/<name>/;
    its stdout, with that directory replaced by "<out>", and its exit
    status go to out/<name>/stdout."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    for name, (command, text) in CLI_RUNS.items():
        dest = out / name
        dest.mkdir(parents=True)
        cfg = out / f"{name}.cfg"
        cfg.write_text(text)
        proc = subprocess.run([sys.executable, "-m", "pnpdg.cli", command, "--config",
                               str(cfg), "--out", str(dest)],
                              cwd=tree, env=env, capture_output=True, text=True)
        cfg.unlink()
        (dest / "stdout").write_text(proc.stdout.replace(str(dest), "<out>")
                                     + f"exit status {proc.returncode}\n")


def compare_files(base, new):
    """Per file path under the directories `base` and `new`: "identical",
    "differs", or the side that lacks it."""
    def files(root):
        return {p.relative_to(root).as_posix(): p for p in root.rglob("*") if p.is_file()}
    a, b = files(base), files(new)
    out = {}
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            out[key] = "only in " + ("the base" if key in a else "the new run")
        else:
            out[key] = "identical" if a[key].read_bytes() == b[key].read_bytes() else "differs"
    return out


def compare(base, new, floors):
    """Per column: "bitwise", the deviation over its floor, or the side that
    lacks it. `base` and `new` map column names to arrays, `floors` maps
    them to the stored floors (a missing floor is reported as such)."""
    from golden.regen import deviation
    out = {}
    for key in sorted(set(base) | set(new)):
        if key not in new or key not in base:
            out[key] = "only in " + ("the base" if key in base else "the new run")
            continue
        a, b = base[key], new[key]
        if a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes():
            out[key] = "bitwise"
            continue
        dev, floor = deviation(b, a), floors.get(key)
        ratio = "no floor" if floor is None else f"{dev / floor:.3g} x floor" if floor \
            else "floor 0"
        out[key] = f"deviation {dev:.3g}, {ratio}"
    return out


def main(argv=None):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        sys.exit(__doc__)
    rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="golden-diff-") as tmp:
        tmp = Path(tmp)
        export(rev, tmp / "rev")
        base = dump_cases(tmp / "rev", tmp / "base")
        new = dump_cases(ROOT, tmp / "new")
        run_cli(tmp / "rev", tmp / "cli-base")
        run_cli(ROOT, tmp / "cli-new")
        files = compare_files(tmp / "cli-base", tmp / "cli-new")
    all_same = True
    for case in sorted(set(base) | set(new)):
        if case not in base or case not in new:
            print(f"{case}: only in " + (rev if case in base else "the working tree"))
            continue
        stored = GOLDEN / f"{case}.npz"
        floors = {k[6:]: float(v) for k, v in np.load(stored).items()
                  if k.startswith("floor_")} if stored.exists() else {}
        print(case)
        for key, text in compare(base[case], new[case], floors).items():
            print(f"  {key:12s} {text}")
            all_same &= text == "bitwise"
    print("cli")
    for key, text in files.items():
        print(f"  {key:40s} {text}")
        all_same &= text == "identical"
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
