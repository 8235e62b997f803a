"""Benchmark problem registry.

Each entry pairs a builder, which returns the ProblemSpec (with its flux
parameter pairs) for a given mesh size, with the default run settings,
which do not depend on the mesh size: final time, mesh ratio or step size,
and the mesh sizes of a convergence study. Initial data, sources, boundary
data and exact solutions are hard-coded; the manufactured sources are
time-separable (`SeparableSource`), and the test suite validates them
against the continuous operator.
"""

import functools
import math

import numpy as np

from .basis import SeparableSource, basis_for
from .driver import ProblemSpec, SpeciesSpec
from .exceptions import ConfigError
from .field import FluxParams
from .mesh import SIDES, build_mesh_1d, build_mesh_2d
from .poisson import dirichlet, neumann


def _example1(n):
    mesh = build_mesh_1d(0.0, 1.0, n)

    def e1(t):
        return np.exp(-t)

    def e2(t):
        return np.exp(-2 * t)

    f1 = SeparableSource(
        (e2, lambda x: (50 * x**9 - 198 * x**8 + 292 * x**7 - 189 * x**6 + 45 * x**5) / 30.0),
        (e1, lambda x: -x**4 + 2 * x**3 - 13 * x**2 + 12 * x - 2),
    )
    f2 = SeparableSource(
        (e2, lambda x: (x - 1) * (110 * x**9 - 430 * x**8 + 623 * x**7 - 393 * x**6
                                  + 90 * x**5) / 60.0),
        (e1, lambda x: (x - 1) * (x**4 - 2 * x**3 + 21 * x**2 - 16 * x + 2)),
    )

    species = [
        SpeciesSpec(1.0, lambda x: x**2 * (1 - x)**2, source=f1,
                    exact=lambda t, x: x**2 * (1 - x)**2 * np.exp(-t), name="c1"),
        SpeciesSpec(-1.0, lambda x: x**2 * (1 - x)**3, source=f2,
                    exact=lambda t, x: x**2 * (1 - x)**3 * np.exp(-t), name="c2"),
    ]
    bc = {
        "left": dirichlet(lambda t: 0.0),
        "right": neumann(lambda t: -np.exp(-t) / 60.0),
    }
    return ProblemSpec(
        mesh, species, bc, FluxParams(4.0, 1/6), FluxParams(4.0, 1/6),
        psi_exact=lambda t, x: -(10 * x**7 - 28 * x**6 + 21 * x**5) * np.exp(-t) / 420.0,
        name="example1",
    )


def _example2(n):
    mesh = build_mesh_1d(0.0, 1.0, n)
    species = [
        SpeciesSpec(1.0, lambda x: 1 + np.pi * np.sin(np.pi * x), name="c1"),
        SpeciesSpec(-1.0, lambda x: 4 - 2 * x, name="c2"),
    ]
    bc = {
        "left": neumann(lambda t: 0.0),
        "right": neumann(lambda t: 0.0),
    }
    return ProblemSpec(
        mesh, species, bc, FluxParams(4.0, 1/6), FluxParams(4.0, 1/6), name="example2",
    )


# Example 3 registry id -> solution parameters (alpha, alpha1, alpha2,
# alpha3), Dirichlet layout ("all", or "x": x-faces Dirichlet, y-faces
# Neumann) and default final time. Case 3 uses the doubled amplitudes
# (2, 2, 1, 2)e-2: the published error table scales linearly with
# (alpha1, alpha2, alpha3) and matches these values, not the halved set.
# Case 4 has three amplitude sets, a to c.
_EX3_CASES = {
    "example3-1": ((1e-3, 1e-3, 1e-3, 1e-3), "all", 0.001),
    "example3-2": ((1e-3, 1e-3, 1e-3, 1e-3), "x", 0.001),
    "example3-3": ((2e-2, 2e-2, 1e-2, 2e-2), "x", 0.001),
    "example3-4a": ((1.0, 1.0, 0.5, 1.0), "all", 0.01),
    "example3-4b": ((1.0, 1.0, 1.0, 1.0), "all", 0.01),
    "example3-4c": ((1.0, 2.0, 2.0, 2.0), "all", 0.01),
}


def _example3(case, n):
    (al, a1, a2, a3), bctype, _ = _EX3_CASES[case]
    mesh = build_mesh_2d(np.pi, np.pi, n, n)

    def c1_ex(t, x, y):
        return a1 * (np.exp(-al * t) * np.cos(x) * np.cos(y) + 1.0)

    def c2_ex(t, x, y):
        return a2 * (np.exp(-al * t) * np.cos(x) * np.cos(y) + 1.0)

    def psi_ex(t, x, y):
        return a3 * np.exp(-al * t) * np.cos(x) * np.cos(y)

    # the sources are sums of e^{-alpha t}, e^{-2 alpha t} and constant terms
    def e1(t):
        return np.exp(-al * t)

    def e2(t):
        return np.exp(-2 * al * t)

    def one(t):
        return 1.0

    def cc(x, y):
        return np.cos(x) * np.cos(y)

    def drift2(x, y):
        # the e^{-2 alpha t} part of the manufactured drift terms
        return 2 * cc(x, y)**2 - (np.sin(x)**2 * np.cos(y)**2 + np.cos(x)**2 * np.sin(y)**2)

    f1 = SeparableSource((e1, lambda x, y: a1 * (2 - al + 2 * a3) * cc(x, y)),
                         (e2, lambda x, y: a1 * a3 * drift2(x, y)))
    f2 = SeparableSource((e1, lambda x, y: a2 * (2 - al - 2 * a3) * cc(x, y)),
                         (e2, lambda x, y: -a2 * a3 * drift2(x, y)))
    f3 = SeparableSource((e1, lambda x, y: (2 * a3 - (a1 - a2)) * cc(x, y)),
                         (one, lambda x, y: a2 - a1))

    species = [
        SpeciesSpec(1.0, lambda x, y: c1_ex(0.0, x, y), source=f1, exact=c1_ex, name="c1"),
        SpeciesSpec(-1.0, lambda x, y: c2_ex(0.0, x, y), source=f2, exact=c2_ex, name="c2"),
    ]
    sides = {
        "left": dirichlet(lambda t, s: psi_ex(t, 0.0, s)),
        "right": dirichlet(lambda t, s: psi_ex(t, np.pi, s)),
    }
    if bctype == "all":
        sides["bottom"] = dirichlet(lambda t, s: psi_ex(t, s, 0.0))
        sides["top"] = dirichlet(lambda t, s: psi_ex(t, s, np.pi))
    else:
        # outward normal derivative of the exact potential on the y-faces
        sides["bottom"] = neumann(lambda t, s: a3 * np.exp(-al * t) * np.cos(s) * np.sin(0.0))
        sides["top"] = neumann(lambda t, s: -a3 * np.exp(-al * t) * np.cos(s) * np.sin(np.pi))
    return ProblemSpec(
        mesh, species, sides, FluxParams(16.0, 1/6), FluxParams(16.0, 1/6),
        poisson_source=f3, psi_exact=psi_ex, name=case,
    )


def _example4(n):
    mesh = build_mesh_2d(1.0, 1.0, n, n)
    species = [
        SpeciesSpec(1.0, lambda x, y: (np.pi * np.sin(np.pi * x)
                                       + np.pi * np.sin(np.pi * y)) / 20.0, name="c1"),
        SpeciesSpec(-1.0, lambda x, y: x**2 * (1 - x)**2 + y**2 * (1 - y)**2, name="c2"),
    ]
    bc = {
        "left": dirichlet(lambda t, s: 0.0),
        "right": dirichlet(lambda t, s: 0.0),
        "bottom": neumann(lambda t, s: 0.0),
        "top": neumann(lambda t, s: 0.0),
    }
    return ProblemSpec(
        mesh, species, bc, FluxParams(16.0, 1/6), FluxParams(16.0, 1/6), name="example4",
    )


def _neutral(n, dim=1, value=3.0, perturb=0.0):
    """Electroneutral constant state: an exact discrete fixed point.

    On the unit interval (dim 1) or square (dim 2), each species optionally
    perturbed by +-perturb * prod_d sin(2 pi x_d); Dirichlet on the left
    side, Neumann elsewhere."""
    meshes = {1: lambda: build_mesh_1d(0.0, 1.0, n), 2: lambda: build_mesh_2d(1.0, 1.0, n, n)}
    if dim not in meshes:
        raise ConfigError(f"neutral: dim must be 1 or 2, got {dim!r}")
    mesh = meshes[dim]()

    def make_init(sign):
        # the product runs left to right: sign * perturb * sin(2 pi x) * sin(2 pi y)
        return lambda *x: value * (1 + math.prod((np.sin(2 * np.pi * xd) for xd in x),
                                                 start=sign * perturb))
    sides = {name: neumann() for pair in SIDES[:dim] for name in pair}
    sides["left"] = dirichlet()
    # the unperturbed constant has an exact modal representation
    nb = basis_for(mesh).nb
    exact_coeffs = None if perturb else [value] + [0.0] * (nb - 1)
    species = [
        SpeciesSpec(1.0, make_init(+1), name="c1", init_coeffs=exact_coeffs),
        SpeciesSpec(-1.0, make_init(-1), name="c2", init_coeffs=exact_coeffs),
    ]
    return ProblemSpec(
        mesh, species, sides, FluxParams(4.0, 1/6), FluxParams(4.0, 1/6),
        name="neutral",
    )


# registry id -> (builder of the problem at mesh size n, default run settings)
BENCHMARKS = {
    "example1": (_example1, dict(T=0.01, mu=0.01, sizes=[5, 10, 20, 40])),
    "example2": (_example2, dict(T=0.5, mu=0.01, sizes=[5, 10, 20])),
    **{case: (functools.partial(_example3, case), dict(T=T, mu=1.6e-5, sizes=[10, 20]))
       for case, (_, _, T) in _EX3_CASES.items()},
    "example4": (_example4, dict(T=0.1, dt=1e-5, sizes=[20])),
    # parameterized by the [custom] config section
    "neutral": (_neutral, dict(T=0.01, mu=0.01, sizes=[8, 16])),
}


def build_benchmark(name, n, **kwargs):
    """The problem of registry entry `name` at mesh size n."""
    if name not in BENCHMARKS:
        raise KeyError(f"unknown benchmark {name!r}; known: {sorted(BENCHMARKS)}")
    return BENCHMARKS[name][0](n, **kwargs)
