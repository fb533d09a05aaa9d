"""Discrete-event simulation and closed-form verification tools for
asynchronous federated optimization with heterogeneous clients."""

__version__ = "0.1.0"

from .core import (
    ConfigurationError,
    Fleet,
    StalenessCapError,
    UnsupportedConfigError,
    convergence_residual,
    distribution_weights,
    uniform_importances,
    weighted_optimum,
)
from .engine import MemberRun, RunConfig, Seeds, Trajectory, run, run_members, run_scalar_ensemble
from .objectives import (
    GlmObjective,
    QuadraticObjective,
    SyntheticShardConfig,
    local_sgd,
    make_synthetic_shards,
)
from .oracle import OracleState, expectation_recursion, expected_round_time, phi, variance_recursion
from .timing import FleetState, HardwareModel, PolicyKind, WaitPolicy, advance_round, staleness_bound
from .weights import WeightScheme, chi_square_bias, plan_weights, verify_window_assumption, window_stats
