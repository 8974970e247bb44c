"""Potts spin glass free energy: finite-size simulation, the matrix-path
variational functional, and replica-structure diagnostics."""

from .cascade import (
    CascadeSample,
    CascadeSpec,
    coincidence_masses,
    sample_cascade,
    sample_overlap_array,
    verify_y_identity,
)
from .core import (
    EvalResult,
    LagrangeMultipliers,
    MonotonePath,
    OverlapArray,
    StateDistribution,
    path_delta,
    round_distribution,
)
from .diagnostics import (
    SyncFit,
    gg_polynomial_extension_check,
    gg_residual,
    interpolation_curve,
    legendre_gap,
    sync_fit,
)
from .functional import (
    QuadratureSpec,
    eval_f1_restricted,
    eval_f2,
    eval_lower_bound,
    eval_parisi,
    eval_phi,
    eval_phi_cascade_mc,
)
from .model import (
    DisorderInstance,
    PerturbationSpec,
    ass_covariance_check,
    enumerate_free_energy,
    hamiltonian,
    mcmc_free_energy,
    overlap,
    perturbation_covariance,
)
from .optimize import (
    OptimizerReport,
    PathParametrization,
    inner_minimize,
    outer_maximize,
    simplex_grid,
)
from .util import BudgetError, ValidationError

__version__ = "0.1.0"
