"""Simulation and verification of symmetric learning dynamics on weighted
cyclic (rock-paper-scissors) zero-sum games.

Two symmetric learners — best-response fictitious play and lazy projected
gradient descent — share one dual state y^t, the running stepsize-scaled sum
of payoff vectors.  The package exposes the primal maps, the dual-space
energies they monotonically grow, the region geometry of the projection, and
a harness that turns the theory (regret rates, energy case bounds, cycling,
subspace confinement) into reproducible checks and CSV/JSON artifacts.
"""

from .errors import (
    ArithmeticOverflow,
    ConfigInvalid,
    DimensionMismatch,
    DimensionTooLarge,
    DimensionTooSmall,
    IoError,
    NonpositiveRegret,
    NonpositiveWeight,
    NoVertexReached,
    ProjectionInfeasible,
    RpsDynamicsError,
    SingularSystem,
    TooCloseToBoundary,
    TooFewPhases,
)
from .game import (
    NashResult,
    Number,
    RpsMatrix,
    SimplexPoint,
    duality_gap,
    gamma,
    interior_nash,
    make_rps,
)
from .dynamics import (
    Algorithm,
    Arithmetic,
    LearnerConfig,
    TiebreakKind,
    TiebreakRule,
    Trajectory,
    energy_fp,
    energy_gd,
    find_support,
    fp_primal,
    gd_primal,
    run,
)
from .analysis import (
    BoundaryInvariance,
    Ledger,
    PhaseSummary,
    RegionKind,
    RegionTag,
    RegionTrace,
    RegretReport,
    SmallStepVerdict,
    boundary_invariance_check,
    check_dual_subspace,
    classify_region,
    detect_phases,
    energy_growth_ledger,
    fit_regret_slope,
    ledger_summary,
    regret,
    regret_at,
    region_trace,
    small_stepsize_energy_check,
    verify_cycling,
)
from .oracle import grad_fd, project_bruteforce, regret_direct
from .experiment import (
    ExperimentSpec,
    RunResult,
    SweepResult,
    config_hash,
    load_config,
    parse_config,
    run_experiment,
    run_sweep,
    with_arithmetic,
    with_seed,
)
from .presets import FigurePreset, all_presets, get_preset
from .verification import CheckResult, TrajectoryStore, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "RpsDynamicsError", "DimensionTooSmall", "DimensionTooLarge",
    "DimensionMismatch", "NonpositiveWeight", "SingularSystem",
    "ConfigInvalid", "ArithmeticOverflow",
    "NoVertexReached", "TooFewPhases", "NonpositiveRegret",
    "TooCloseToBoundary", "IoError",
    "ProjectionInfeasible",
    # game
    "Number", "RpsMatrix", "make_rps", "SimplexPoint", "NashResult",
    "interior_nash", "gamma", "duality_gap",
    # dynamics
    "Algorithm", "Arithmetic", "TiebreakKind", "TiebreakRule",
    "LearnerConfig", "Trajectory", "run", "find_support",
    "gd_primal", "fp_primal", "energy_fp", "energy_gd",
    # analysis
    "RegionKind", "RegionTag", "classify_region", "RegionTrace", "region_trace",
    "RegretReport", "regret",
    "regret_at", "fit_regret_slope", "PhaseSummary", "detect_phases",
    "verify_cycling", "Ledger", "energy_growth_ledger", "ledger_summary",
    "check_dual_subspace",
    "BoundaryInvariance", "boundary_invariance_check", "SmallStepVerdict",
    "small_stepsize_energy_check",
    # oracle
    "project_bruteforce", "regret_direct", "grad_fd",
    # harness
    "ExperimentSpec", "parse_config", "load_config", "config_hash",
    "run_experiment", "run_sweep", "RunResult", "SweepResult",
    "with_seed", "with_arithmetic",
    "FigurePreset", "all_presets", "get_preset",
    "CheckResult", "TrajectoryStore", "run_suite",
]
