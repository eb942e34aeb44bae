"""Stochastic state-reduction simulator for two-state superpositions.

Simulates the collapse of a qubit superposition driven by a mean-reverting
colored field, alongside its analytic limiting cases: the white-noise
diffusion it converges to for short correlation times, the jump-like
stochastic Schrodinger unraveling, the static-field (frozen) limit, and
the dephasing master equation obeyed by the ensemble mean. Ensembles are
deterministic functions of a master seed and are reduced with compensated
summation, so results are bitwise reproducible regardless of chunking.
"""
from ._version import __version__
from .config import (
    EXPERIMENT_DEFAULTS,
    Experiment,
    ExperimentConfig,
    build_trajectory_config,
    make_config,
    parse_config_file,
)
from .dynamics import PhysicsParams, Scheme, TrajectoryConfig
from .engine import EnsembleResult, derive_stream, simulate_ensemble
from .errors import (
    ConfigError,
    InconclusiveError,
    IntegratorInstabilityError,
    InvalidParameterError,
    NotApplicableError,
    SimulationError,
)
from .master import STEADY_SECOND_MOMENT, effective_diffusion, gksl_residual
from .noise import NoiseKind, NoiseModel, autocorrelation, simulate_paths, steady_samples
from .observables import (
    CollapseStats,
    CompensatedAccumulator,
    EnsembleSummary,
    born_deviation,
    collapse_statistics,
    ks_distance,
)
from .harness import run_experiment

__all__ = [
    "__version__",
    # noise
    "NoiseKind",
    "NoiseModel",
    "steady_samples",
    "autocorrelation",
    "simulate_paths",
    # dynamics
    "PhysicsParams",
    "Scheme",
    "TrajectoryConfig",
    # observables
    "CompensatedAccumulator",
    "EnsembleSummary",
    "CollapseStats",
    "collapse_statistics",
    "ks_distance",
    "born_deviation",
    # master-equation reference
    "STEADY_SECOND_MOMENT",
    "effective_diffusion",
    "gksl_residual",
    # engine
    "derive_stream",
    "simulate_ensemble",
    "EnsembleResult",
    # configuration and orchestration
    "Experiment",
    "ExperimentConfig",
    "EXPERIMENT_DEFAULTS",
    "parse_config_file",
    "make_config",
    "build_trajectory_config",
    "run_experiment",
    # errors
    "SimulationError",
    "InvalidParameterError",
    "IntegratorInstabilityError",
    "NotApplicableError",
    "InconclusiveError",
    "ConfigError",
]
