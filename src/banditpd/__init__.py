"""Distributed bandit online primal-dual optimization under time-varying
constraints: simulation engine, metrics, and experiment CLI."""

__version__ = "0.1.0"

from .engine import (
    InvariantViolation,
    RoundRecord,
    RunConfig,
    RunTrace,
    run_horizon,
)
from .geometry import Box, Halfspace, project_intersection
from .metrics import (
    ComparatorOptions,
    ComparatorResult,
    MetricSeries,
    bound_envelope,
    cumulative_loss,
    evaluate_trace,
    fit_loglog_slope,
    network_ccv,
    network_regret,
    solve_offline_comparator,
)
from .network import (
    GraphSchedule,
    build_mixing,
    generate_round_graph,
    validate_double_stochasticity,
    validate_joint_connectivity,
)
from .oracle import ProblemBounds, StreamFactory
from .problems import RegressionProblemSpec, compute_bounds
from .schedule import ScheduleParams, default_gamma0, round_params

__all__ = [
    "Box",
    "ComparatorOptions",
    "ComparatorResult",
    "GraphSchedule",
    "Halfspace",
    "InvariantViolation",
    "MetricSeries",
    "ProblemBounds",
    "RegressionProblemSpec",
    "RoundRecord",
    "RunConfig",
    "RunTrace",
    "ScheduleParams",
    "StreamFactory",
    "bound_envelope",
    "build_mixing",
    "compute_bounds",
    "cumulative_loss",
    "default_gamma0",
    "evaluate_trace",
    "fit_loglog_slope",
    "generate_round_graph",
    "network_ccv",
    "network_regret",
    "project_intersection",
    "round_params",
    "run_horizon",
    "solve_offline_comparator",
    "validate_double_stochasticity",
    "validate_joint_connectivity",
    "__version__",
]
