"""Backward-in-time fixed-point construction of damped electric fields
for collisionless plasmas on the periodic line, with parameter sweeps.

The package solves for the electric field whose characteristics
transport a prescribed asymptotic phase-space profile, verifies the
field-strength, density, trajectory, and derivative inequalities that
certify the construction, and sweeps a scalar profile parameter z by
collocation.
"""

from .params import (
    AdmissibilityError, AssumptionReport, BoundCheck, DampingParams,
    check_assumptions, minimal_start_time,
    require_admissible, tail_integral, tail_integral_moment,
)
from .profiles import (
    Amplitude, HypothesisError, Mode, ProfileCheckReport, ProfileSpec,
    check_decay, check_profile, check_smoothness, eval_profile,
    neutral_density, profile_fourier, require_hypotheses, shifted_difference,
    sup_gradient,
)
from .fields import (
    FieldTable, NormReport, PhaseGrid, TimeGrid, XGrid, read_field_csv,
    spectral_dx, weighted_norm, weighted_sup, write_field_csv,
)
from .scattering import (
    ConvergenceError, SolveResult, TrajectoryTable, VariationalSups,
    deposit_density, deposit_density_pert, field_map_zero, picard_solve,
    solve_characteristics, solve_variational,
)
from .uq import (
    CollocationError, CorollaryReport, GpcTable, TheoremReport, ZEnsemble,
    check_corollary, check_theorem_bounds, fd_weights, gpc_coefficients,
    project_stack, run_collocation, write_gpc_csv,
)
from .config import ConfigError, RunConfig, load_config, parse_config

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
