"""Alternating parent/change pairs of bench/run.py, summarised into one
BENCH_<topic>.json speed record.

    python3 tools/bench_pairs.py --topic positivity-stage --parent HEAD~1 \
        --change HEAD --workload ex1-conv-1d

Each side is the committed tree of its revision, exported with
`git archive` into its own temporary directory, so both run exactly the
committed files and nothing is registered in the repository. Pair i, from
1, runs `bench/run.py --workload W --seed i --seconds S --trace 0` once on
each side, one after the other, with S the `run_seconds` of BENCHMARK.json;
the parent goes first in odd pairs and the change in even ones. A record
takes at least 10 pairs per workload (the default). The record holds, per workload and end-to-end metric
of BENCHMARK.json, each side's median and quartiles, the pairs the change
won (ties count for neither side) and the relative change of the medians;
every run's result; the seeds, both commits and the tree hashes of their
`src` and `bench`; and the environment the benchmark reports.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
MIN_PAIRS = 10


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev, dest):
    """The committed tree of `rev` in `dest`; returns its identifiers."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return {"rev": rev, "commit": _git("rev-parse", f"{rev}^{{commit}}"),
            "src_tree": _git("rev-parse", f"{rev}:src"),
            "bench_tree": _git("rev-parse", f"{rev}:bench")}


def _run(tree, workload, seed, seconds):
    """One bench/run.py invocation: its result line, or an error entry."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    records = sorted((tree / "bench" / "results").glob("*.json"),
                     key=lambda p: p.stat().st_mtime)
    if records:
        result["environment"] = json.loads(records[-1].read_text()).get("environment")
    return result


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs, metrics):
    """Per-metric statistics of one workload's pairs.

    `pairs` is a list of {"parent": result, "change": result} with the
    results of bench/run.py; `metrics` maps metric name to "lower" or
    "higher" (which is better). A pair counts for a metric only when both
    of its runs report it.
    """
    out = {}
    for name, better in metrics.items():
        values = {s: [] for s in SIDES}
        won = counted = 0
        for pair in pairs:
            v = [pair[s].get("metrics", {}).get(name, {}).get("value") for s in SIDES]
            if None in v:
                continue
            counted += 1
            for s, x in zip(SIDES, v):
                values[s].append(x)
            won += v[1] < v[0] if better == "lower" else v[1] > v[0]
        if not counted:
            continue
        stats = {}
        for s in SIDES:
            q1, med, q3 = _quartiles(values[s])
            stats[s] = {"median": med, "q1": q1, "q3": q3, "values": values[s]}
        stats.update(pairs=counted, change_won=won, better=better,
                     relative_change=stats["change"]["median"] / stats["parent"]["median"] - 1.0)
        out[name] = stats
    runs = [pair[s] for pair in pairs for s in SIDES]
    out["runs"] = {"all_correct": all(r.get("correct") is True for r in runs),
                   "failed_operations": sum(r.get("failed", 0) for r in runs),
                   "errors": sum("error" in r for r in runs)}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--topic", required=True)
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    out = ROOT / f"BENCH_{args.topic}.json"
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {s: Path(tmp) / s for s in SIDES}
        commits = {s: export(rev, trees[s]) for s, rev in zip(SIDES, (args.parent, args.change))}
        record = {"topic": args.topic, "commits": commits, "seconds": seconds,
                  "started": time.strftime("%Y-%m-%dT%H:%M:%S"), "workloads": {}}
        environment = None
        for workload in args.workload:
            pairs = []
            for seed in range(1, args.pairs + 1):
                order = SIDES if seed % 2 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for s in order:
                    pair[s] = _run(trees[s], workload, seed, seconds)
                    environment = environment or pair[s].pop("environment", None)
                    pair[s].pop("environment", None)
                print(f"{workload} pair {seed}/{args.pairs}: " + ", ".join(
                    f"{s} step_ms {pair[s].get('metrics', {}).get('step_ms', {}).get('value')}"
                    for s in SIDES), file=sys.stderr)
                pairs.append(pair)
            # written after every workload, so an interrupted run keeps the
            # workloads it finished
            record["workloads"][workload] = {"summary": summarize(pairs, metrics),
                                             "pairs": pairs}
            record.update(environment=environment,
                          finished=time.strftime("%Y-%m-%dT%H:%M:%S"))
            out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
