"""Pseudospectral laboratory for forced active scalar equations on the torus.

The package simulates

    d theta/dt + u . grad(theta) = -kappa Lambda^gamma theta + S

on [0, 2pi]^d with the drift u determined from theta by a divergence-free
Fourier multiplier law (magnetogeostrophic family, perpendicular Riesz
transform, or custom tables), and ships the verification machinery around
it: constitutive-law audits, energy ledgers, maximum-principle and
absorbing-set monitors, analyticity-radius tracking, vanishing-diffusivity
sweeps, tangent/Lyapunov dynamics, and attractor semidistance studies.
"""

__version__ = "0.1.0"

from .errors import (
    ActiveScalarError,
    BlowUpError,
    CheckpointError,
    ConfigError,
    ContractViolationError,
    DegenerateTangentError,
    EstimationError,
    GevreyOverflowError,
    GridMismatchError,
    InvalidFieldError,
    ObserverError,
    StabilityError,
    SweepAbortedError,
)
from .grid import (
    GridSpec,
    SpectralField,
    VectorField,
    advect,
    analytic_decay_field,
    divergence_residual,
    fractional_laplacian,
    from_physical,
    gevrey_norm,
    gradient,
    h1_inner,
    l2_inner,
    linf_norm,
    random_band_field,
    single_mode_field,
    sobolev_norm,
    to_physical,
)
from .multipliers import (
    AssumptionReport,
    MultiplierSpec,
    SymbolTable,
    apply_drift,
    build_symbol_table,
    load_custom_symbol_file,
    mg_symbol,
    sqg_symbol,
    symbol_lipschitz_estimate,
    verify_assumptions,
)
from .stepping import (
    SimulationState,
    SolverConfig,
    cfl_dt,
    linear_propagator,
    run,
    step,
)
from .diagnostics import (
    DiagnosticRecord,
    EnergyLedgerRecorder,
    absorbing_entry_time,
    analyticity_radius_estimate,
    energy_balance_residual,
    max_principle_check,
    record,
    residual_convergence_order,
    smallness_condition,
)
from .tangent import (
    LyapunovResult,
    TangentBundle,
    fd_consistency,
    linearized_rhs,
    lyapunov_run,
    reorthonormalize,
    tangent_step,
)
from .experiments import (
    AttractorCloud,
    SweepPlan,
    attractor_sample,
    gevrey_radius_track,
    kappa_sweep,
    nu_sweep_attractor,
    semidistance,
)
