"""The three benchmark workloads: fixed pnpdg configurations, their step
counts and the checks of their outputs.

The inputs are the paper's fixed test problems, so nothing here is random;
every reference value the checks use is computed in `checks`.
"""

import math
from dataclasses import dataclass

import numpy as np

import checks

# Example 1 (1D, [0, 1]) and Example 3-1 (2D, [0, pi]^2) exact solutions,
# written out from the problem statements independently of the solver's
# registry.
def _ex1_exact(t):
    e = math.exp(-t)
    return {
        "c1": lambda x: x**2 * (1 - x)**2 * e,
        "c2": lambda x: x**2 * (1 - x)**3 * e,
        "psi": lambda x: -(10 * x**7 - 28 * x**6 + 21 * x**5) * e / 420.0,
    }


def _ex3_1_exact(t, alpha=1e-3, a1=1e-3, a2=1e-3, a3=1e-3):
    e = math.exp(-alpha * t)
    return {
        "c1": lambda x, y: a1 * (e * np.cos(x) * np.cos(y) + 1.0),
        "c2": lambda x, y: a2 * (e * np.cos(x) * np.cos(y) + 1.0),
        "psi": lambda x, y: a3 * e * np.cos(x) * np.cos(y),
    }


def count_steps(t_final, dt):
    """Time steps the solver's loop takes to reach t_final (same arithmetic)."""
    t, steps = 0.0, 0
    tiny = 1e-12 * max(dt, 1.0)
    while t < t_final - tiny:
        t += min(dt, t_final - t)
        steps += 1
    return steps


@dataclass(frozen=True)
class Workload:
    name: str
    command: str         # pnpdg sub-command
    config: str          # config file text
    sizes: tuple         # meshes the command runs (cells per direction)
    dts: tuple           # time step on each mesh
    t_final: float
    make_reference: object   # (workload) -> values the checks compare against
    check_outputs: object    # (workload, out_dir, reference); raises CheckError

    @property
    def steps(self):
        return sum(count_steps(self.t_final, dt) for dt in self.dts)

    def reference(self):
        """Values the output checks compare against; computed once per run."""
        return self.make_reference(self)

    def check(self, out_dir, ref):
        self.check_outputs(self, out_dir, ref)


def _ex1_reference(w):
    exact = _ex1_exact(w.t_final)
    return {f: [checks.projection_error_1d(g, 0.0, 1.0, n) for n in w.sizes]
            for f, g in exact.items()}


def _ex1_check(w, out_dir, proj):
    # measured error / projection error: 2.3-5.6; finest-pair orders
    # c1 2.80, c2 2.77, psi 2.99
    checks.check_error_table(out_dir, "h", [1.0 / n for n in w.sizes], proj,
                             {"c1": 2.5, "c2": 2.5, "psi": 2.8}, max_ratio=8.0)


def _ex3_reference(w):
    exact = _ex3_1_exact(w.t_final)
    return {f: [checks.projection_error_2d(g, math.pi, math.pi, n) for n in w.sizes]
            for f, g in exact.items()}


def _ex3_check(w, out_dir, proj):
    # measured error / projection error: 1.08-1.38; orders c 2.94, psi 3.02
    checks.check_error_table(out_dir, "N", list(w.sizes), proj,
                             {"c1": 2.8, "c2": 2.8, "psi": 2.8}, max_ratio=2.0)


def _ex4_reference(w):
    c1 = lambda x, y: (np.pi * np.sin(np.pi * x) + np.pi * np.sin(np.pi * y)) / 20.0
    c2 = lambda x, y: x**2 * (1 - x)**2 + y**2 * (1 - y)**2
    return [checks.integral_2d(c, 1.0, 1.0) for c in (c1, c2)]


def _ex4_check(w, out_dir, masses):
    n = w.sizes[0]
    dx = 1.0 / n
    mu = 2.0 * w.dts[0] / dx**2          # dt/dx^2 + dt/dy^2
    checks.check_relaxation(out_dir, w.steps, w.t_final, mu, dx * dx, masses)


_EX1_MU = 0.01
_EX3_MU = 1.6e-5

WORKLOADS = {w.name: w for w in (
    # 1D, at most 40 x 3 arrays: per-call numpy overhead dominates; the
    # limiter acts in the boundary cells at every stage and diagnostics are
    # recorded after every step (default cadence)
    Workload(
        name="ex1-conv-1d",
        command="convergence",
        config="""\
[benchmark]
id = example1
[mesh]
sizes = 5 10 20 40
[scheme]
np_beta0 = 4
np_beta1 = 0.16666666666666666
limiter = true
[time]
t_final = 0.01
mu = 0.01
rk = 2
""",
        sizes=(5, 10, 20, 40),
        dts=tuple(_EX1_MU * (1.0 / n) ** 2 for n in (5, 10, 20, 40)),
        t_final=0.01,
        make_reference=_ex1_reference,
        check_outputs=_ex1_check,
    ),
    # 2D N=20 relaxation with diagnostics and CSV output at every step; the
    # limiter checks every cell but acts only at t = 0
    Workload(
        name="ex4-relax-2d",
        command="run",
        config="""\
[benchmark]
id = example4
[mesh]
sizes = 20
[time]
t_final = 0.003
dt = 1e-5
rk = 2
[output]
cadence = 1
""",
        sizes=(20,),
        dts=(1e-5,),
        t_final=0.003,
        make_reference=_ex4_reference,
        check_outputs=_ex4_check,
    ),
    # 2D N=20 and N=40 (9,600 unknowns): the largest factorization and
    # solves; manufactured sources at every stage, no cell limited, no
    # diagnostics recorded (cadence beyond the step count)
    Workload(
        name="ex3-conv-2d",
        command="convergence",
        config="""\
[benchmark]
id = example3-1
[mesh]
sizes = 20 40
[time]
t_final = 1e-5
mu = 1.6e-5
rk = 2
[output]
cadence = 1000000000
""",
        sizes=(20, 40),
        dts=tuple(_EX3_MU * (math.pi / n) ** 2 for n in (20, 40)),
        t_final=1e-5,
        make_reference=_ex3_reference,
        check_outputs=_ex3_check,
    ),
)}
