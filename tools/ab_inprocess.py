"""In-process A/B timing of two revisions, recorded beside the pair medians
of a BENCH_<topic>.json speed record.

    python3 tools/ab_inprocess.py --topic positivity-stage --parent HEAD~1 \
        --change HEAD --workload ex3-conv-2d --blocks 20

Both revisions are exported with `bench_pairs.export`. A child process
imports the `src/pnpdg` of each under its own package name (the package's
imports are relative, so a renamed copy is a complete second solver) and
runs a workload's `pnpdg.cli.main` command in alternating blocks: parent
then change in even blocks, change then parent in odd ones (ABBA). Each
run is timed like an operation of bench/run.py: `cpu_s` is the process CPU
time of the command, and `step_ms` that time less the summed `pnpdg.init`
CPU time of the workload's meshes, per time step. The host's noise then
falls on both sides alike; what is left is the bias of one process, which
the import order and the package names can shift. So every workload runs
in three processes:

  * forward: the parent imported first;
  * swapped: the change imported first, under the parent's package name;
  * control: the parent against itself (A/A).

A relative change of the medians counts as resolved only when the forward
and swapped processes agree in sign and both exceed, in magnitude, the
control's relative change. Each process also records per side the cProfile
`total_calls` per explicit stage of the time loop (pnp_step without
diagnostics, on the workload's largest mesh), which is the same on every
repeat. The results go under the `in_process` key of BENCH_<topic>.json,
next to what tools/bench_pairs.py wrote there, or to --out.
"""

import os

# one BLAS thread, as in bench/run.py; set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import cProfile
import gc
import importlib.util
import io
import json
import pstats
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import ROOT, SIDES, export

METRICS = ("cpu_s", "step_ms")
PROFILED_STEPS = 10
# process -> the trees imported, in import order, as (side, tree side, package name)
PROCESSES = {
    "forward": (("parent", "parent", "pnpdg_a"), ("change", "change", "pnpdg_b")),
    "swapped": (("change", "change", "pnpdg_a"), ("parent", "parent", "pnpdg_b")),
    "control": (("parent", "parent", "pnpdg_a"), ("change", "parent", "pnpdg_b")),
}


def load_package(name, pkgdir):
    """The package in `pkgdir` imported as `name`, with its `cli` module."""
    spec = importlib.util.spec_from_file_location(
        name, Path(pkgdir) / "__init__.py", submodule_search_locations=[str(pkgdir)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    importlib.import_module(f"{name}.cli")
    return pkg


def run_command(pkg, workload, workdir):
    """One run of the workload's command: its cpu_s and step_ms."""
    cfg_path, out = workdir / "run.cfg", workdir / "out"
    cfg_path.write_text(workload.config)
    cfg = pkg.parse_config(workload.config)
    setup = 0.0
    for n in workload.sizes:
        problem, sim = pkg.resolve(cfg, n)
        t0 = time.process_time()
        pkg.init(problem, sim)
        setup += time.process_time() - t0
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.process_time()
        rc = pkg.cli.main([workload.command, "--config", str(cfg_path), "--out", str(out)])
        cpu = time.process_time() - t0
    if rc != 0:
        raise RuntimeError(f"{workload.command} exited with {rc}")
    return {"cpu_s": cpu, "step_ms": 1e3 * (cpu - setup) / workload.steps}


def calls_per_stage(pkg, workload):
    """cProfile total_calls per explicit stage of PROFILED_STEPS steps on
    the workload's largest mesh, after one unprofiled step."""
    problem, sim = pkg.resolve(pkg.parse_config(workload.config), max(workload.sizes))
    state = pkg.init(problem, sim)
    dt = sim.resolve_dt(problem.mesh)
    pkg.pnp_step(state, dt)
    prof = cProfile.Profile()
    prof.enable()
    for _ in range(PROFILED_STEPS):
        pkg.pnp_step(state, dt)
    prof.disable()
    # less one: the profiler counts its own disable()
    return (pstats.Stats(prof).total_calls - 1) / (PROFILED_STEPS * sim.rk)


def compare(packages, workload, blocks, workdir):
    """Alternating ABBA blocks of the workload on `packages` (side ->
    package): per side the runs' values, medians and calls per stage, the
    blocks the change won on each metric and the relative change of the
    medians."""
    runs = {s: {m: [] for m in METRICS} for s in SIDES}
    won = dict.fromkeys(METRICS, 0)
    for b in range(blocks):
        block = {}
        for s in SIDES if b % 2 == 0 else SIDES[::-1]:
            block[s] = run_command(packages[s], workload, workdir)
        for m in METRICS:
            for s in SIDES:
                runs[s][m].append(block[s][m])
            won[m] += block["change"][m] < block["parent"][m]
    out = {s: {m: {"median": statistics.median(v), "values": v} for m, v in runs[s].items()}
           for s in SIDES}
    for s in SIDES:
        out[s]["calls_per_stage"] = calls_per_stage(packages[s], workload)
    out["change_won"] = won
    out["relative_change"] = {m: out["change"][m]["median"] / out["parent"][m]["median"] - 1.0
                              for m in METRICS}
    return out


def resolved(processes):
    """Per metric, the relative changes of the three processes and whether
    the difference is resolved (see the module docstring)."""
    out = {}
    for m in METRICS:
        rel = {p: processes[p]["relative_change"][m] for p in PROCESSES}
        fwd, swp, aa = rel["forward"], rel["swapped"], abs(rel["control"])
        rel["resolved"] = fwd * swp > 0 and min(abs(fwd), abs(swp)) > aa
        out[m] = rel
    return out


def _child(args):
    """One process: import the trees in the given order and names, compare."""
    sys.path.insert(0, args.bench)
    from workloads import WORKLOADS
    packages = {}
    for spec in args.child:
        side, tree, name = spec.split(":")
        packages[side] = load_package(name, Path(tree) / "src" / "pnpdg")
    with tempfile.TemporaryDirectory(prefix="ab-inprocess-") as tmp:
        result = compare(packages, WORKLOADS[args.workload[0]], args.blocks, Path(tmp))
    result["import_order"] = [spec.split(":")[0] for spec in args.child]
    result["names"] = {spec.split(":")[0]: spec.split(":")[2] for spec in args.child}
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--topic")
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--blocks", type=int, default=20)
    parser.add_argument("--out", help="write here instead of BENCH_<topic>.json")
    # internal: one process of the comparison, side:tree:package-name in import order
    parser.add_argument("--child", nargs=2, help=argparse.SUPPRESS)
    parser.add_argument("--bench", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(args)
        return 0
    if (args.topic is None) == (args.out is None):
        parser.error("give exactly one of --topic and --out")
    if args.blocks < 2:
        parser.error("--blocks must be at least 2")
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.topic}.json"
    with tempfile.TemporaryDirectory(prefix="ab-inprocess-") as tmp:
        trees = {s: Path(tmp) / s for s in SIDES}
        commits = {s: export(rev, trees[s]) for s, rev in zip(SIDES, (args.parent, args.change))}
        section = {"commits": commits, "blocks": args.blocks,
                   "started": time.strftime("%Y-%m-%dT%H:%M:%S"), "workloads": {}}
        for workload in args.workload:
            processes = {}
            for name, order in PROCESSES.items():
                cmd = [sys.executable, __file__, "--workload", workload,
                       "--blocks", str(args.blocks), "--bench", str(trees["change"] / "bench"),
                       "--child", *(f"{s}:{trees[t]}:{p}" for s, t, p in order)]
                proc = subprocess.run(cmd, capture_output=True, text=True)
                if proc.returncode != 0:
                    sys.exit(f"{workload} {name}: {proc.stderr.strip()[-2000:]}")
                processes[name] = json.loads(proc.stdout.strip().splitlines()[-1])
                print(f"{workload} {name}: " + ", ".join(
                    f"{m} {processes[name]['relative_change'][m]:+.2%} "
                    f"({processes[name]['change_won'][m]}/{args.blocks})" for m in METRICS),
                    file=sys.stderr)
            section["workloads"][workload] = {"summary": resolved(processes),
                                              "processes": processes}
            section["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S")
            # written after every workload, so an interrupted run keeps the
            # workloads it finished
            record = json.loads(out.read_text()) if out.is_file() else {"topic": args.topic}
            record["in_process"] = section
            out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
