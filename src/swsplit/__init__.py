"""Semi-implicit splitting solver for the 2-D shallow water equations.

A two-stage explicit update integrates the stiff sources (Coriolis,
Chezy drag, wind) with a short step, an implicit theta-scheme advances
the gravity-wave part with a long one, and a closed-form stability
analysis rates the explicit step before every outer iteration.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .config import Config, ConfigError, load_config
from .explicit_step import taylor_galerkin_increment
from .fem import FemMatrices, assemble, helmholtz_matrix
from .forcing import Forcings, ForcingError, TimeSeries, load_tide, load_wind
from .implicit_step import (ElevationSolver, LinearSolveStats, SolverError,
                            apply_boundaries, conjugate_gradient, elevation_rhs,
                            solve_elevation, velocity_correction)
from .mesh import Mesh, MeshError, build_mesh, load_mesh
from .simulator import (GateError, GateVerdict, OutputWriter, RunConfig,
                        RunSummary, load_snapshot, mass_integral, run,
                        stability_gate, step)
from .stability import (PhysicalParams, StabilityReport, build_report,
                        critical_time_step, cubic_coefficients, drag_coefficient,
                        is_convergent_cubic, modulus_cubic_coefficients,
                        source_amplification_matrix, coupled_amplification_matrix,
                        source_update_matrix, step_coefficients, velocity_mode_modulus)
from .state import State, initial_state

# no submodule: `import *` must not rebind a caller's `mesh` or `state`
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
