"""Command-line front end: run / convergence / steady-check.

Exit codes: 0 success, 2 configuration error, 3 numerical fatal
(positivity loss, inadmissible cell, solver breakdown).
"""

import argparse
import logging
import os
import sys

import numpy as np

from . import csvio
from .config import config_sizes, parse_config, resolve
from .driver import CFL_MODES, pnp_step, run
from .exceptions import ConfigError, NumericalFatalError, PnpdgError
from .field import Field, l1_error

log = logging.getLogger("pnpdg")


def _load_config(args):
    try:
        with open(args.config) as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}")
    cfg = parse_config(text)
    if args.out:
        cfg.out_dir = args.out
    if args.override_admissibility:
        cfg.sim["override_admissibility"] = True
    if args.cfl:
        cfg.sim["cfl_mode"] = args.cfl
    if args.rk:
        cfg.sim["rk"] = args.rk
    if args.no_limiter:
        cfg.sim["limiter"] = False
    return cfg


def cmd_run(args):
    cfg = _load_config(args)
    sizes = config_sizes(cfg)
    if len(sizes) > 1:
        log.info("run uses the first mesh size %d (of %s)", sizes[0], sizes)
    problem, sim = resolve(cfg)
    result = run(problem, sim)
    out = cfg.out_dir
    csvio.write_diagnostics(os.path.join(out, "diagnostics.csv"), result.diagnostics)
    for sp, coeffs in zip(problem.species, result.state.c.coeffs):
        csvio.write_snapshot(os.path.join(out, f"snapshot_{sp.name}.csv"), coeffs)
    psi = result.state.prepared_stage().psi
    csvio.write_snapshot(os.path.join(out, "snapshot_psi.csv"), psi.coeffs)
    for name, err in result.errors.items():
        print(f"l1 error {name}: {err:.6e}")
    last = result.diagnostics[-1]
    print(f"final t={last.t:.6g}  masses={['%.9g' % m for m in last.masses]}  "
          f"min_avg={['%.3e' % m for m in last.min_avgs]}")
    print(f"wrote diagnostics and snapshots to {out}/")
    return 0


def _reference_result(cfg, sizes, refine=4):
    ref_n = max(sizes) * refine
    log.info("no exact solution: computing reference on %d cells (refinement %dx)",
             ref_n, refine)
    problem, sim = resolve(cfg, ref_n)
    state = run(problem, sim, diagnostics=False).state
    return state.c, state.prepared_stage().psi, ref_n


def cmd_convergence(args):
    cfg = _load_config(args)
    sizes = config_sizes(cfg)
    if len(sizes) < 2:
        raise ConfigError("convergence study needs at least 2 mesh sizes")
    errors, ref = {}, None
    for n in sizes:
        problem, sim = resolve(cfg, n)
        result = run(problem, sim, diagnostics=False)
        if problem.psi_exact is not None and all(sp.exact is not None
                                                 for sp in problem.species):
            errs = result.errors
        else:
            if ref is None:
                ref = _reference_result(cfg, sizes)
            ref_c, ref_psi, _ = ref
            state = result.state
            errs = {sp.name: l1_error(Field(problem.mesh, c), Field(ref_c.mesh, rc))
                    for sp, c, rc in zip(problem.species, state.c.coeffs, ref_c.coeffs)}
            errs["psi"] = l1_error(state.prepared_stage().psi, ref_psi)
        for name, err in errs.items():
            errors.setdefault(name, []).append(err)
    names, mesh = list(errors), problem.mesh
    if mesh.dim == 1:
        col0, col0_name, inverse = [(mesh.hi[0] - mesh.lo[0]) / n for n in sizes], "h", False
    else:
        col0, col0_name, inverse = sizes, "N", True
    orders = {n: csvio.observed_orders(col0, errors[n], inverse) for n in names}
    path = os.path.join(cfg.out_dir, "errors.csv")
    csvio.write_errors(path, col0_name, col0, errors, orders, inverse=inverse)
    header = f"{col0_name:>10s} " + " ".join(f"{('err_'+n):>13s} {('ord_'+n):>8s}"
                                             for n in names)
    print(header)
    for i, v in enumerate(col0):
        cells = []
        for n in names:
            o = orders[n][i]
            o_str = "--" if o is None or np.isnan(o) else f"{o:8.2f}"
            cells.append(f"{errors[n][i]:13.4e} {o_str:>8s}")
        v_str = f"{v:10.4g}" if not inverse else f"{v:10d}"
        print(v_str + " " + " ".join(cells))
    if ref is not None:
        print(f"reference: self-computed on {ref[2]} cells (4x the finest mesh)")
    print(f"wrote {path}")
    return 0


def cmd_steady_check(args, n_steps=100):
    cfg = _load_config(args)
    problem, sim = resolve(cfg)
    state = run(problem, sim, diagnostics=False).state
    t0 = state.t
    dt = sim.resolve_dt(problem.mesh)
    rows = []
    for step in range(n_steps):
        before = state.c.coeffs.copy()
        pnp_step(state, dt)
        change = float(np.abs(state.c.coeffs - before).max())
        rows.append((step + 1, state.t, change))
    path = os.path.join(cfg.out_dir, "steady.csv")
    csvio.write_steady_report(path, rows)
    changes = [r[2] for r in rows]
    print(f"steady check after t={t0:.6g}: {n_steps} steps of dt={dt:.3e}")
    print(f"max change per step: first {changes[0]:.3e}, "
          f"median {sorted(changes)[len(changes)//2]:.3e}, last {changes[-1]:.3e}")
    print(f"wrote {path}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pnpdg",
        description="Positivity-preserving third-order DDG solver for "
                    "Poisson-Nernst-Planck systems",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", cmd_run), ("convergence", cmd_convergence),
                     ("steady-check", cmd_steady_check)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to run configuration")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--override-admissibility", action="store_true",
                       help="allow flux parameters outside the provable positivity range")
        p.add_argument("--cfl", choices=CFL_MODES, default=None)
        p.add_argument("--rk", type=int, choices=(1, 2), default=None)
        p.add_argument("--no-limiter", action="store_true")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericalFatalError as e:
        print(f"numerical fatal: {e}", file=sys.stderr)
        return 3
    except PnpdgError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
