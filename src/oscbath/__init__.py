"""Covariance-matrix simulator for two coupled oscillators in a thermal bath.

Evolves the 4x4 covariance matrix of two position-coupled, asymmetric
harmonic oscillators under Markovian damping, and tracks purity,
logarithmic negativity and Gaussian quantum discord over time and over
parameter sweeps. See the README for the CLI and the acceptance suite.
"""

from .errors import (
    DomainError,
    InvalidParameters,
    NonPhysicalInput,
    OscbathError,
    OutOfRange,
    SteadyStateUnavailable,
    UnknownFigure,
)
from .model import (
    SystemParams,
    ValidationResult,
    check_covariance,
    coupling_bound,
    initial_squeezed_vacuum,
    mode_frequencies,
    require_valid,
    validate,
)
from .dynamics import (
    build_diffusion,
    build_drift,
    mat_exp,
    ode_oracle,
    propagate,
    steady_state,
    steady_state_available,
    thermal_coth,
)
from .measures import (
    CorrelationReport,
    SymplecticData,
    check_physical,
    f_entropy,
    full_report,
    gaussian_discord,
    invariants,
    log_negativity,
    purity,
    report_from_data,
)
from .sweep import (
    DEFAULT_GRID,
    DEFAULT_SWEEP_VALUES,
    FIGURE_IDS,
    SUDDEN_DEATH_THRESHOLD,
    FigurePreset,
    SuddenDeathReport,
    SweepOutcome,
    TimeGrid,
    Trajectory,
    TrajectoryRecord,
    detect_sudden_death,
    evolve_trajectory,
    figure_preset,
    sweep_parameter,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "OscbathError",
    "InvalidParameters",
    "SteadyStateUnavailable",
    "NonPhysicalInput",
    "DomainError",
    "OutOfRange",
    "UnknownFigure",
    # model
    "SystemParams",
    "ValidationResult",
    "validate",
    "require_valid",
    "mode_frequencies",
    "coupling_bound",
    "initial_squeezed_vacuum",
    "check_covariance",
    # dynamics
    "thermal_coth",
    "build_drift",
    "build_diffusion",
    "mat_exp",
    "propagate",
    "steady_state",
    "steady_state_available",
    "ode_oracle",
    # measures
    "SymplecticData",
    "CorrelationReport",
    "invariants",
    "check_physical",
    "purity",
    "log_negativity",
    "f_entropy",
    "gaussian_discord",
    "full_report",
    "report_from_data",
    # sweep
    "TimeGrid",
    "TrajectoryRecord",
    "Trajectory",
    "SweepOutcome",
    "SuddenDeathReport",
    "FigurePreset",
    "evolve_trajectory",
    "sweep_parameter",
    "detect_sudden_death",
    "figure_preset",
    "FIGURE_IDS",
    "DEFAULT_SWEEP_VALUES",
    "DEFAULT_GRID",
    "SUDDEN_DEATH_THRESHOLD",
]
