"""Per-layer self time and call counts for one pnpdg command.

The tracer replaces public functions where the solver looks them up (the
module globals of `pnpdg.cli`, `pnpdg.driver` and `pnpdg.positivity`, the
`pnpdg.csvio` writers and `PoissonOperator.solve`) with timing wrappers.
A wrapped call's self time is its duration minus that of the wrapped calls
it makes; the root span is the whole command, so the self times of all
buckets add up to the traced wall time. Calls made outside a root span
(the set-up timing) pass through untimed. `restore` puts the originals
back.
"""

import functools
import importlib
from collections import defaultdict
from time import perf_counter

# (owner, attribute, metric key, self-time bucket): owner is a module or
# 'module:Class'; the bucket defaults to the key. driver.run and
# driver.pnp_step give their self time to the driver's own bucket.
_WRAPS = (
    ("pnpdg.cli", "run", "driver.run", "driver"),
    ("pnpdg.cli", "l1_error", "field.l1_error", None),
    ("pnpdg.driver", "pnp_step", "driver.pnp_step", "driver"),
    ("pnpdg.driver", "free_energy", "driver.free_energy", None),
    ("pnpdg.driver", "total_mass", "driver.total_mass", None),
    ("pnpdg.driver", "project_l2", "field.project_l2", None),
    ("pnpdg.driver", "l1_error", "field.l1_error", None),
    ("pnpdg.driver", "assemble_operator", "poisson.assemble_operator", None),
    ("pnpdg.driver", "assemble_load", "poisson.assemble_load", None),
    ("pnpdg.driver", "build_weight", "positivity.build_weight", None),
    ("pnpdg.driver", "weighted_projection", "positivity.weighted_projection", None),
    ("pnpdg.driver", "build_test_set", "positivity.build_test_set", None),
    ("pnpdg.driver", "scaling_limiter", "positivity.scaling_limiter", None),
    ("pnpdg.driver", "test_set_values", "positivity.test_set_values", None),
    ("pnpdg.driver", "cfl_mu0", "positivity.cfl_mu0", None),
    ("pnpdg.driver", "np_rhs", "transport.np_rhs", None),
    ("pnpdg.driver", "apply_mass_inverse", "transport.apply_mass_inverse", None),
    ("pnpdg.positivity", "test_set_values", "positivity.test_set_values", None),
    ("pnpdg.positivity", "weighted_cell_average", "field.weighted_cell_average", None),
    ("pnpdg.csvio", "write_diagnostics", "csvio.write", None),
    ("pnpdg.csvio", "write_errors", "csvio.write", None),
    ("pnpdg.csvio", "write_snapshot", "csvio.write", None),
    ("pnpdg.csvio", "write_steady_report", "csvio.write", None),
    ("pnpdg.poisson:PoissonOperator", "solve", "poisson.solve", None),
)

ROOT = "cli"

# keys reported as <key>.self_s and <key>.calls
TIMED = (
    "poisson.assemble_operator", "poisson.assemble_load", "poisson.solve",
    "positivity.build_weight", "positivity.weighted_projection",
    "positivity.build_test_set", "positivity.scaling_limiter",
    "positivity.test_set_values", "positivity.cfl_mu0",
    "field.project_l2", "field.weighted_cell_average", "field.l1_error",
    "transport.np_rhs", "transport.apply_mass_inverse",
    "driver.free_energy", "driver.total_mass",
)


def _resolve(path):
    """'module' or 'module:Class' to the object whose attribute is replaced."""
    mod, _, cls = path.partition(":")
    owner = importlib.import_module(mod)
    return getattr(owner, cls) if cls else owner


class Tracer:
    def __init__(self):
        self._stack = []
        self._saved = []
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.cells_checked = 0
        self.cells_limited = 0

    def install(self):
        for path, attr, key, bucket in _WRAPS:
            owner = _resolve(path)
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, key, bucket or key))

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _wrap(self, fn, key, bucket):
        stack = self._stack
        limiter = key == "positivity.scaling_limiter"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                stack[-1][0] += dur
                self.self_s[bucket] += dur - frame[0]
                self.calls[key] += 1
            if limiter:
                report = result[1]
                self.cells_checked += report.theta.size
                self.cells_limited += report.n_limited
            return result
        return wrapper

    def run_root(self, fn, *args):
        """Run fn as the root span; returns (result, wall seconds)."""
        frame = [0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = perf_counter() - t0
            self._stack.pop()
            self.self_s[ROOT] += wall - frame[0]
        return result, wall

    def metrics(self, wall):
        """Per-layer metrics of the last root span: name -> (value, unit)."""
        out = {}
        for key in TIMED:
            out[f"{key}.self_s"] = (self.self_s[key], "s")
            out[f"{key}.calls"] = (self.calls[key], "count")
        out["driver.pnp_step.calls"] = (self.calls["driver.pnp_step"], "count")
        out["csvio.write_s"] = (self.self_s["csvio.write"], "s")
        out["driver.self_s"] = (self.self_s["driver"], "s")
        out["cli.self_s"] = (self.self_s[ROOT], "s")
        out["positivity.scaling_limiter.cells_checked"] = (self.cells_checked, "count")
        out["positivity.scaling_limiter.cells_limited"] = (self.cells_limited, "count")
        out["positivity.scaling_limiter.limited_frac"] = (
            self.cells_limited / self.cells_checked if self.cells_checked else 0.0, "ratio")
        out["trace.wall_s"] = (wall, "s")
        return out

    def self_total(self):
        """Sum of every bucket's self time; equals the root span's wall time."""
        return sum(self.self_s.values())
