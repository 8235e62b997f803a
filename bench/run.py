"""pnpdg benchmark: run one workload for a fixed time, check every output,
print the metrics.

    python3 bench/run.py --workload ex1-conv-1d --seed 1 --seconds 40 --trace 0

Run from the repository root; the solver is imported from ./src, and the
command exits non-zero without a result when that is missing. One
operation is one `pnpdg` command through `pnpdg.cli.main` followed by the
checks of its outputs; operations repeat until --seconds have passed. Each
operation first times `pnpdg.init` on every mesh of the workload (set-up,
three times), then times the command. Times are the process's CPU time
(user + system, all threads), which on a shared host stays steady where
wall time does not; each operation's wall time goes to the run record.
BLAS runs on one thread unless the environment says otherwise. With
--trace 1 the solver's public functions are wrapped (see tracer.py) and
per-layer metrics are printed instead of the end-to-end ones. The workloads are fixed problems of the paper, so --seed
is recorded but changes no input.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A record of the run, with the
software versions, BLAS, CPU count and commit, goes to bench/results/.
"""

import os

# one BLAS thread, so CPU time counts work and not idle spinning; set
# before numpy is first imported (by checks and workloads)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import ctypes
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from checks import CheckError
from tracer import Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"
RESULTS_DIR = BENCH_DIR / "results"
SETUP_REPEATS = 3   # set-up is short and noisy: time it several times per operation


def _import_solver():
    src = ROOT / "src"
    if not (src / "pnpdg" / "__init__.py").is_file():
        sys.exit(f"benchmark: pnpdg sources not found in {src}")
    sys.path.insert(0, str(src))
    import pnpdg
    import pnpdg.cli
    if Path(pnpdg.__file__).resolve().parent != src / "pnpdg":
        sys.exit(f"benchmark: imported pnpdg from {pnpdg.__file__}, not from {src}")
    return pnpdg


def _blas_threads(numpy):
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(numpy),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def run_operation(pnpdg, workload, cfg, argv, out_dir, ref, tracer):
    """One command and its checks; returns the operation's record."""
    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    setups = []
    for _ in range(SETUP_REPEATS):
        setup = 0.0
        for n in workload.sizes:
            problem, sim = pnpdg.resolve(cfg, n)
            t0 = time.process_time()
            pnpdg.init(problem, sim)
            setup += time.process_time() - t0
        setups.append(setup)
    op = {"setup_s": statistics.median(setups), "setups_s": setups, "status": "ok"}
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            c0, t0 = time.process_time(), time.perf_counter()
            if tracer is None:
                rc = pnpdg.cli.main(argv)
                wall = time.perf_counter() - t0
            else:
                tracer.reset()
                rc, wall = tracer.run_root(pnpdg.cli.main, argv)
            cpu = time.process_time() - c0
    except Exception:
        traceback.print_exc()
        op.update(status="error", cpu_s=None, wall_s=None)
        return op
    op.update(cpu_s=cpu, wall_s=wall)
    if rc != 0:
        op["status"] = f"exit code {rc}"
        return op
    try:
        workload.check(out_dir, ref)
    except (CheckError, OSError, KeyError, ValueError) as e:
        print(f"benchmark: {workload.name}: output check failed: {e}", file=sys.stderr)
        op["status"] = "check failed"
        return op
    if tracer is not None:
        layers = tracer.metrics(wall)
        total = tracer.self_total()
        if abs(total - wall) > 1e-9 * max(wall, 1.0):
            print(f"benchmark: self times sum to {total!r}, traced wall {wall!r}",
                  file=sys.stderr)
            op["status"] = "trace sum mismatch"
        op["layers"] = layers
    return op


def summarize(workload, ops, traced):
    """Metrics of the run: medians over operations (untraced), or the
    per-layer figures of the operation with the median traced wall time."""
    timed = [op for op in ops if op["cpu_s"] is not None] or ops
    if traced:
        with_layers = sorted((op for op in timed if "layers" in op), key=lambda o: o["wall_s"])
        if not with_layers:
            return {}
        layers = with_layers[(len(with_layers) - 1) // 2]["layers"]
        return {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    cpus = [op["cpu_s"] or 0.0 for op in timed]
    setups = [op["setup_s"] for op in timed]
    setup_samples = [s for op in timed for s in op["setups_s"]]
    steps = workload.steps
    return {
        "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "step_ms": {"value": statistics.median(
            1e3 * (c - s) / steps for c, s in zip(cpus, setups)), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MiB"},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    pnpdg = _import_solver()
    workload = WORKLOADS[args.workload]
    cfg = pnpdg.parse_config(workload.config)
    tag = f"{workload.name}-{os.getpid()}"
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    cfg_path = WORK_DIR / f"{tag}.cfg"
    out_dir = WORK_DIR / tag
    cfg_path.write_text(workload.config)
    argv = [workload.command, "--config", str(cfg_path), "--out", str(out_dir)]
    ref = workload.reference()

    tracer = Tracer() if args.trace else None
    ops = []
    try:
        if tracer is not None:
            tracer.install()
        # whole operations only; stop when the next one would probably end
        # after --seconds, so a run lasts about --seconds however slow an
        # operation is
        start = time.perf_counter()
        durations = []
        while not ops or (time.perf_counter() - start + statistics.median(durations)
                          <= args.seconds):
            t0 = time.perf_counter()
            ops.append(run_operation(pnpdg, workload, cfg, argv, out_dir, ref, tracer))
            durations.append(time.perf_counter() - t0)
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(out_dir, ignore_errors=True)
        cfg_path.unlink(missing_ok=True)
        with contextlib.suppress(OSError):   # still in use by another run
            WORK_DIR.rmdir()

    failed = sum(op["status"] != "ok" for op in ops)
    correct = not any(op["status"] in ("check failed", "trace sum mismatch") for op in ops)
    result = {"correct": correct, "attempted": len(ops), "failed": failed,
              "metrics": summarize(workload, ops, bool(args.trace))}

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, steps=workload.steps,
                  time=time.strftime("%Y-%m-%dT%H:%M:%S"), environment=environment(),
                  operations=[{k: v for k, v in op.items() if k != "layers"} for op in ops])
    stamp = time.strftime("%Y%m%d-%H%M%S")
    path = RESULTS_DIR / f"{workload.name}-trace{args.trace}-seed{args.seed}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
