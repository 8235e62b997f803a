"""Positivity-preserving third-order DDG solver for Poisson-Nernst-Planck systems."""

from .basis import SeparableSource
from .benchmarks import BENCHMARKS, build_benchmark
from .config import RunConfig, parse_config, resolve
from .driver import (DiagnosticsRecord, ProblemSpec, RunResult, SimConfig, SpeciesSpec,
                     free_energy, init, pnp_step, run, total_mass)
from .exceptions import (ConfigError, InadmissibleCellError, NumericalFatalError,
                         OverflowGuardError, PnpdgError)
from .field import Field, FluxParams, eval_at_points, l1_error, project_l2
from .mesh import Mesh, build_mesh_1d, build_mesh_2d
from .poisson import (BoundaryCondition, PoissonOperator, assemble_load, assemble_operator,
                      dirichlet, gamma_d, neumann)
from .positivity import (LimiterReport, TestSet, WeightField,
                         build_test_set, build_weight, cfl_mu0, scaling_limiter,
                         test_set_values, weighted_cell_average, weighted_projection)
from .transport import apply_mass_inverse, np_rhs

__version__ = "0.1.0"
