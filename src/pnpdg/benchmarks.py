"""Benchmark problem registry.

Each entry builds a ProblemSpec for a given mesh size together with the
default run settings (final time, mesh-ratio or step size, flux parameter
pairs, mesh sizes for convergence studies). Initial data, sources, boundary
data and exact solutions are hard-coded; the manufactured sources are
time-separable (`SeparableSource`), and the test suite validates them
against the continuous operator.
"""

import math

import numpy as np

from .basis import SeparableSource, basis_for
from .driver import ProblemSpec, SpeciesSpec
from .field import FluxParams
from .mesh import SIDES, build_mesh_1d, build_mesh_2d
from .poisson import PoissonBC, dirichlet, neumann


def _example1(n, **_):
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
    bc = PoissonBC({
        "left": dirichlet(lambda t: 0.0),
        "right": neumann(lambda t: -np.exp(-t) / 60.0),
    })
    problem = ProblemSpec(
        mesh, species, bc, FluxParams(4.0, 1/6), FluxParams(4.0, 1/6),
        psi_exact=lambda t, x: -(10 * x**7 - 28 * x**6 + 21 * x**5) * np.exp(-t) / 420.0,
        name="example1",
    )
    return problem, dict(T=0.01, mu=0.01, sizes=[5, 10, 20, 40])


def _example2(n, **_):
    mesh = build_mesh_1d(0.0, 1.0, n)
    species = [
        SpeciesSpec(1.0, lambda x: 1 + np.pi * np.sin(np.pi * x), name="c1"),
        SpeciesSpec(-1.0, lambda x: 4 - 2 * x, name="c2"),
    ]
    bc = PoissonBC({
        "left": neumann(lambda t: 0.0),
        "right": neumann(lambda t: 0.0),
    }, zero_mean_gauge=True)
    problem = ProblemSpec(
        mesh, species, bc, FluxParams(4.0, 1/6), FluxParams(4.0, 1/6), name="example2",
    )
    return problem, dict(T=0.5, mu=0.01, sizes=[5, 10, 20])


# Example 3 solution-parameter sets (alpha, alpha1, alpha2, alpha3) and the
# Dirichlet layout: "all" or "x" (x-faces Dirichlet, y-faces Neumann).
# Case 3 uses the doubled amplitudes (2, 2, 1, 2)e-2: the published error
# table scales linearly with (alpha1, alpha2, alpha3) and matches these
# values, not the halved set.
_EX3_CASES = {
    "example3-1": ((1e-3, 1e-3, 1e-3, 1e-3), "all"),
    "example3-2": ((1e-3, 1e-3, 1e-3, 1e-3), "x"),
    "example3-3": ((2e-2, 2e-2, 1e-2, 2e-2), "x"),
}
# registry id -> its variants, for the entries that take a `variant` keyword
VARIANTS = {
    "example3-4": {
        "a": (1.0, 1.0, 0.5, 1.0),
        "b": (1.0, 1.0, 1.0, 1.0),
        "c": (1.0, 2.0, 2.0, 2.0),
    },
}


def _example3(case, n, variant=None):
    if case == "example3-4":
        variant = variant or "a"
        if variant not in VARIANTS[case]:
            raise ValueError(f"example3-4 variant must be one of {sorted(VARIANTS[case])}")
        params, bctype = VARIANTS[case][variant], "all"
        default_T = 0.01
    else:
        params, bctype = _EX3_CASES[case]
        default_T = 0.001
    al, a1, a2, a3 = params
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
    problem = ProblemSpec(
        mesh, species, PoissonBC(sides), FluxParams(16.0, 1/6), FluxParams(16.0, 1/6),
        poisson_source=f3, psi_exact=psi_ex,
        name=case if case != "example3-4" else f"{case}{variant}",
    )
    return problem, dict(T=default_T, mu=1.6e-5, sizes=[10, 20])


def _example4(n, **_):
    mesh = build_mesh_2d(1.0, 1.0, n, n)
    species = [
        SpeciesSpec(1.0, lambda x, y: (np.pi * np.sin(np.pi * x)
                                       + np.pi * np.sin(np.pi * y)) / 20.0, name="c1"),
        SpeciesSpec(-1.0, lambda x, y: x**2 * (1 - x)**2 + y**2 * (1 - y)**2, name="c2"),
    ]
    bc = PoissonBC({
        "left": dirichlet(lambda t, s: 0.0),
        "right": dirichlet(lambda t, s: 0.0),
        "bottom": neumann(lambda t, s: 0.0),
        "top": neumann(lambda t, s: 0.0),
    })
    problem = ProblemSpec(
        mesh, species, bc, FluxParams(16.0, 1/6), FluxParams(16.0, 1/6), name="example4",
    )
    return problem, dict(T=0.1, dt=1e-5, sizes=[20])


def _neutral(n, dim=1, value=3.0, perturb=0.0, **_):
    """Electroneutral constant state: an exact discrete fixed point.

    On the unit interval (dim 1) or square (dim 2), each species optionally
    perturbed by +-perturb * prod_d sin(2 pi x_d); Dirichlet on the left
    side, Neumann elsewhere."""
    meshes = {1: lambda: build_mesh_1d(0.0, 1.0, n), 2: lambda: build_mesh_2d(1.0, 1.0, n, n)}
    if dim not in meshes:
        raise ValueError(f"neutral: dim must be 1 or 2, got {dim!r}")
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
    problem = ProblemSpec(
        mesh, species, PoissonBC(sides), FluxParams(4.0, 1/6), FluxParams(4.0, 1/6),
        name="neutral",
    )
    return problem, dict(T=0.01, mu=0.01, sizes=[8, 16])


BENCHMARKS = {
    "example1": _example1,
    "example2": _example2,
    "example3-1": lambda n, **kw: _example3("example3-1", n, **kw),
    "example3-2": lambda n, **kw: _example3("example3-2", n, **kw),
    "example3-3": lambda n, **kw: _example3("example3-3", n, **kw),
    "example3-4": lambda n, **kw: _example3("example3-4", n, **kw),
    "example4": _example4,
    "neutral": _neutral,   # parameterized by the [custom] config section
}


def build_benchmark(name, n, **kwargs):
    """Problem and default settings for registry entry `name` at mesh size n."""
    if name not in BENCHMARKS:
        raise KeyError(f"unknown benchmark {name!r}; known: {sorted(BENCHMARKS)}")
    return BENCHMARKS[name](n, **kwargs)
