"""Golden outputs: short fixed runs stored at full precision, each column
with its measured roundoff floor.

    PYTHONPATH=src python tests/golden/regen.py [case ...] [--only KEY ...]

rewrites `<case>.npz` in this directory for the named cases (all by
default). With `--only`, just the named columns and their floors are
rewritten and every other array is kept as stored, so a change meant to
move one column does not also take in the roundoff drift that earlier
commits left in the others. A file holds, as float64 arrays, the final
coefficients of every species (`c`), the potential (`psi`), one entry per
diagnostics row (`t`, `masses`, `energy`, `min_avgs`, `min_g_pre`,
`min_g_post`, `theta_count`, `mu0`) and the errors (`err_<name>`).

Each column `<key>` comes with `floor_<key>`: the largest absolute
deviation from the stored values over three seeded runs in which every
Poisson matrix entry, every assembled Poisson load entry and every loaded
transport source entry x is replaced by x + s*x*eps/2 with a random sign
s. That is a rounding of each entry, so the floor is how far roundoff in
those inputs alone moves the column. `tests/test_golden.py` compares a
run against these files.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

import pnpdg.driver as driver
from pnpdg.benchmarks import build_benchmark
from pnpdg.driver import SimConfig, run
from pnpdg.poisson import PoissonOperator

HERE = Path(__file__).resolve().parent
SEEDS = (1, 2, 3)
HALF_EPS = 0.5 * np.finfo(float).eps

# case -> (registry id, mesh size, registry keywords, SimConfig keywords)
CASES = {
    "example1": ("example1", 10, {}, dict(T=0.01, mu=0.01, limiter=True)),
    "example2": ("example2", 10, {}, dict(T=0.01, mu=0.01)),
    "example3-1": ("example3-1", 10, {}, dict(T=1e-3, mu=1.6e-5)),
    "example4": ("example4", 20, {}, dict(T=3e-4, dt=1e-5, cadence=1)),
    "neutral": ("neutral", 8, dict(dim=2, perturb=0.1), dict(T=2e-3, mu=0.01)),
    # dt is above the t = 0 bound (mesh ratio 0.016 > mu0 = 0.0109), so the
    # adaptive mode halves the step
    "example4-adaptive": ("example4", 20, {}, dict(T=3e-4, dt=2e-5, cadence=1,
                                                   cfl_mode="adaptive")),
}


def run_case(name):
    """Columns of one case, keyed as in the stored file (floors excluded)."""
    bench, n, kwargs, sim = CASES[name]
    problem = build_benchmark(bench, n, **kwargs)
    result = run(problem, SimConfig(**sim))
    recs = result.diagnostics
    out = {
        "c": result.state.c.coeffs,
        "psi": result.state.prepared_stage().psi.coeffs,
        "t": np.array([r.t for r in recs]),
        "energy": np.array([r.energy for r in recs]),
        "theta_count": np.array([r.n_limited for r in recs], dtype=float),
        "mu0": np.array([r.mu0 for r in recs]),
    }
    for key in ("masses", "min_avgs", "min_g_pre", "min_g_post"):
        out[key] = np.array([getattr(r, key) for r in recs])
    for err_name, err in result.errors.items():
        out[f"err_{err_name}"] = np.array(err)
    return out


def deviation(a, b):
    """Largest absolute difference of two columns; inf if their shapes or
    their non-finite entries differ."""
    if a.shape != b.shape or not np.array_equal(np.isfinite(a), np.isfinite(b)):
        return np.inf
    fin = np.isfinite(a)
    if not np.array_equal(a[~fin], b[~fin], equal_nan=True):
        return np.inf
    return float(np.max(np.abs(a[fin] - b[fin]), initial=0.0))


class _Rounded:
    """Replaces the driver's Poisson assembly, Poisson load and transport RHS
    with versions whose entries are each perturbed by one rounding."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.saved = (driver.assemble_operator, driver.assemble_load, driver.np_rhs)

    def _round(self, x):
        return x + self.rng.choice((-1.0, 1.0), size=np.shape(x)) * x * HALF_EPS

    def __enter__(self):
        assemble_operator, assemble_load, np_rhs = self.saved

        def rounded_operator(*args, **kwargs):
            op = assemble_operator(*args, **kwargs)
            A = op.matrix.copy()
            A.data = self._round(A.data)   # each stored entry on its own
            return PoissonOperator(op.mesh, A, op.boundary_rows, op.gauge)

        def rounded_load(*args, **kwargs):
            return self._round(assemble_load(*args, **kwargs))

        def rounded_rhs(g, weight, params, source=None, t=0.0):
            rhs = np_rhs(g, weight, params, t=t)
            if source is None:
                return rhs
            quad = g.mesh.quadrature
            for i, f in enumerate(source):
                if f is not None:
                    rhs[i] += self._round(quad.load_source(f, t))
            return rhs

        driver.assemble_operator, driver.assemble_load, driver.np_rhs = (
            rounded_operator, rounded_load, rounded_rhs)
        return self

    def __exit__(self, *exc):
        driver.assemble_operator, driver.assemble_load, driver.np_rhs = self.saved


def floors(name, golden):
    out = {key: 0.0 for key in golden}
    for seed in SEEDS:
        with _Rounded(seed):
            cols = run_case(name)
        for key in golden:
            out[key] = max(out[key], deviation(cols[key], golden[key]))
    return out


def regenerate(name, only=()):
    """Rewrite `<name>.npz`: every column, or just those in `only`."""
    golden = run_case(name)
    unknown = set(only) - set(golden)
    if unknown:
        raise KeyError(f"{name} has no column {sorted(unknown)}")
    floor = floors(name, golden)
    arrays = {**golden, **{f"floor_{k}": np.array(v) for k, v in floor.items()}}
    if only:
        stored = dict(np.load(HERE / f"{name}.npz"))
        arrays = {**stored, **{k: arrays[k] for key in only for k in (key, f"floor_{key}")}}
    np.savez_compressed(HERE / f"{name}.npz", **arrays)
    return golden, floor


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cases", nargs="*", metavar="case")
    parser.add_argument("--only", action="append", default=[], metavar="KEY")
    args = parser.parse_args(argv)
    for name in args.cases or CASES:
        golden, floor = regenerate(name, args.only)
        print(name)
        for key in args.only or golden:
            scale = float(np.max(np.abs(golden[key]), initial=0.0))
            print(f"  {key:12s} max {scale:10.3e}  floor {floor[key]:10.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
