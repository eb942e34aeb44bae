"""Experiment definitions, defaults, and configuration plumbing.

An ExperimentConfig is the flat, user-facing bundle of settings for one
named experiment. Values are resolved in three layers, later wins:
built-in defaults for the experiment, then a config file of ``key = value``
lines, then explicit command-line overrides. The resolved bundle is
translated into one or more TrajectoryConfig objects by the runners.
"""
from __future__ import annotations

import math
import numbers
import os
from dataclasses import asdict, dataclass
from enum import Enum

from .dynamics import PhysicsParams, Scheme, TrajectoryConfig
from .errors import ConfigError
from .master import effective_diffusion
from .noise import NoiseKind, NoiseModel

__all__ = [
    "Experiment",
    "ExperimentConfig",
    "EXPERIMENT_DEFAULTS",
    "parse_config_file",
    "make_config",
    "build_trajectory_config",
]


class Experiment(str, Enum):
    """Named experiment presets exposed by the command-line interface."""

    FIG1A = "fig1a"
    FIG1B = "fig1b"
    BORN_SWEEP = "born-sweep"
    FDR_SWEEP = "fdr-sweep"
    WEAK_EQUIVALENCE = "weak-equivalence"
    NOISE_VALIDATION = "noise-validation"
    FROZEN_LIMIT = "frozen-limit"
    GKSL_CHECK = "gksl-check"


@dataclass
class ExperimentConfig:
    """Resolved settings for one experiment run."""

    experiment: Experiment
    n_traj: int
    master_seed: int
    output_dir: str
    decimation: int
    J: float
    G: float
    gamma: float
    tau: float
    dt: float
    T: float
    z0: float
    noise: NoiseKind
    scheme: Scheme

    def __post_init__(self) -> None:
        if not isinstance(self.experiment, Experiment):
            self.experiment = Experiment(self.experiment)
        if not isinstance(self.noise, NoiseKind):
            self.noise = NoiseKind(self.noise)
        if not isinstance(self.scheme, Scheme):
            self.scheme = Scheme(self.scheme)
        for key in sorted(_INT_KEYS | _FLOAT_KEYS):
            value = getattr(self, key)
            if key in _INT_KEYS:
                cast, kind, noun = int, numbers.Integral, "an integer"
            else:  # non-finite floats are refused where the run is configured
                cast, kind, noun = float, numbers.Real, "a real number"
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{key} must be {noun}, got {value!r}")
            try:  # numpy numbers too: the manifest is JSON
                setattr(self, key, cast(value))
            except OverflowError:  # an integer or fraction beyond the float range
                raise ConfigError(f"{key} is too large for a float") from None
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise ConfigError(f"output_dir must be a str or os.PathLike, got {self.output_dir!r}")
        self.output_dir = os.fspath(self.output_dir)
        if self.n_traj < 1:
            raise ConfigError(f"n_traj must be at least 1, got {self.n_traj}")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError(
                f"master_seed must be a 64-bit nonnegative integer, got {self.master_seed}"
            )
        if self.decimation < 1:
            raise ConfigError(f"decimation must be at least 1, got {self.decimation}")

    def to_flat_dict(self) -> dict:
        """Flat, JSON-friendly view (enums become their string values)."""
        out = asdict(self)
        out["experiment"] = self.experiment.value
        out["noise"] = self.noise.value
        out["scheme"] = self.scheme.value
        return out


_COMMON = dict(
    master_seed=20260823,
    output_dir="results",
    gamma=0.0,
    z0=0.6,
    noise=NoiseKind.OU,
    scheme=Scheme.SUV_COLORED,
)

# Per-experiment defaults. Noise strengths are paired so the white-noise
# diffusion constant Deff^2 = 2 G^2 tau E[xi^2] is 2 wherever an effective
# white-noise comparison is meaningful (G=1, tau=1 OU and G=10, tau=0.01 OU
# both give Deff^2 = 2).
EXPERIMENT_DEFAULTS: dict[Experiment, dict] = {
    Experiment.FIG1A: dict(
        _COMMON, n_traj=20000, decimation=10, J=2.0, G=1.0, gamma=0.5, tau=1.0, dt=1e-3, T=1.0
    ),
    Experiment.FIG1B: dict(
        _COMMON, n_traj=50000, decimation=100, J=2.0, G=10.0, tau=0.01, dt=1e-3, T=2.5
    ),
    Experiment.BORN_SWEEP: dict(
        _COMMON, n_traj=20000, decimation=100, J=2.0, G=10.0, tau=0.01, dt=1e-3, T=8.0
    ),
    Experiment.FDR_SWEEP: dict(
        _COMMON, n_traj=2000, decimation=100, J=2.0, G=10.0, tau=0.01, dt=1e-3, T=16.0
    ),
    Experiment.WEAK_EQUIVALENCE: dict(
        _COMMON, n_traj=50000, decimation=100, J=2.0, G=10.0, tau=0.01, dt=1e-3, T=1.0
    ),
    Experiment.NOISE_VALIDATION: dict(
        _COMMON, n_traj=20000, decimation=1, J=0.0, G=1.0, tau=1.0, dt=0.005, T=10.0
    ),
    Experiment.FROZEN_LIMIT: dict(
        _COMMON,
        n_traj=20000,
        decimation=100,
        J=1.0,
        G=1.0,
        tau=1.0,
        dt=0.01,
        T=25.0,
        noise=NoiseKind.FROZEN_SBM,
    ),
    Experiment.GKSL_CHECK: dict(
        _COMMON,
        n_traj=20000,
        decimation=10,
        J=2.0,
        G=10.0,
        tau=0.01,
        dt=1e-3,
        T=1.5,
        scheme=Scheme.WHITE_ITO,
    ),
}

_INT_KEYS = frozenset({"n_traj", "master_seed", "decimation"})
_FLOAT_KEYS = frozenset({"J", "G", "gamma", "tau", "dt", "T", "z0"})
_ENUM_KEYS = {"noise": NoiseKind, "scheme": Scheme}
_STR_KEYS = frozenset({"output_dir"})
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | set(_ENUM_KEYS) | _STR_KEYS


def parse_config_file(path: str) -> dict:
    """Read ``key = value`` settings from a text file.

    Blank lines and ``#`` comments (full-line or trailing) are ignored.
    Keys must be known setting names; values are converted to the setting's
    type. Raises ConfigError on unknown keys or malformed values.
    """
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(
                f"{path}:{lineno}: unknown setting {key!r} "
                f"(known: {', '.join(sorted(_ALL_KEYS))})"
            )
        try:
            values[key] = _convert(key, text)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return values


def _convert(key: str, text: str):
    """The value of setting ``key`` written as ``text``; a malformed text
    raises ConfigError naming the setting."""
    try:
        if key in _INT_KEYS:
            return int(text)
        if key in _FLOAT_KEYS:
            value = float(text)
            if not math.isfinite(value):
                raise ValueError(text)
            return value
        if key in _ENUM_KEYS:
            return _ENUM_KEYS[key](text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r}") from exc
    return text


def make_config(experiment, file_values: dict | None = None, **cli_overrides) -> ExperimentConfig:
    """Resolve an ExperimentConfig from defaults, file values, and overrides.

    ``cli_overrides`` entries with value None are treated as absent. A
    noise or scheme the experiment cannot honour raises ConfigError.
    """
    if not isinstance(experiment, Experiment):
        try:
            experiment = Experiment(experiment)
        except ValueError:
            known = ", ".join(e.value for e in Experiment)
            raise ConfigError(f"unknown experiment {experiment!r} (known: {known})") from None
    settings = dict(EXPERIMENT_DEFAULTS[experiment])
    for source in (file_values or {}, cli_overrides):
        for key, value in source.items():
            if value is None:
                continue
            if key not in _ALL_KEYS:
                raise ConfigError(f"unknown setting {key!r}")
            settings[key] = _convert(key, value) if isinstance(value, str) else value
    _check_ignored_overrides(experiment, settings)
    return ExperimentConfig(experiment=experiment, **settings)


def _check_ignored_overrides(experiment: Experiment, settings: dict) -> None:
    """Reject a noise or scheme setting that the experiment cannot honour,
    so no manifest records a setting the artifacts do not reflect."""
    if experiment is Experiment.NOISE_VALIDATION:
        defaults = EXPERIMENT_DEFAULTS[experiment]
        changed = [k for k in ("scheme", "noise") if settings[k] != defaults[k]]
        if changed:
            given = ", ".join(f"--{k} {_ENUM_KEYS[k](settings[k]).value}" for k in changed)
            raise ConfigError(
                f"noise-validation always simulates both ou and sbm paths and runs "
                f"no integration scheme, so it does not take --scheme or --noise "
                f"(got {given})"
            )
    if experiment is Experiment.WEAK_EQUIVALENCE:
        scheme = Scheme(settings["scheme"])
        if scheme is not EXPERIMENT_DEFAULTS[experiment]["scheme"]:
            raise ConfigError(
                f"weak-equivalence always compares the white-strat and suv-colored "
                f"schemes, so it does not take --scheme (got --scheme {scheme.value})"
            )
    if experiment in (Experiment.FDR_SWEEP, Experiment.WEAK_EQUIVALENCE):
        kind = NoiseKind(settings["noise"])
        if not kind.is_evolving:
            raise ConfigError(
                f"{experiment.value} sets its couplings from the effective diffusion Deff "
                f"of an evolving noise kind (ou or sbm), so it does not take "
                f"--noise {kind.value}"
            )
    if experiment is Experiment.FIG1B and settings["noise"] == NoiseKind.SBM:
        raise ConfigError(
            "fig1b does not take --noise sbm: its companion ensemble already uses "
            "sbm noise, and both would be written to fig1b_sbm.csv"
        )


def build_trajectory_config(
    cfg: ExperimentConfig, *, J=None, G=None, tau=None, z0=None, noise=None, scheme=None,
    seed=None,
) -> TrajectoryConfig:
    """Translate experiment settings into one integrator configuration.

    Each keyword that is not None replaces the corresponding experiment-level
    value (seed replaces master_seed); runners use them to span parameter
    grids and companion schemes under one master seed.

    The white-noise diffusion constant Deff is derived here from the
    steady-state variance of the selected noise kind, so this is where a
    scheme driven directly by a Wiener process of strength Deff is refused
    without an evolving noise kind to define it. TrajectoryConfig checks
    that a colored scheme has a noise process, and make_config that the
    experiment can honour the noise and scheme.
    """
    J = float(cfg.J if J is None else J)
    G = float(cfg.G if G is None else G)
    tau = float(cfg.tau if tau is None else tau)
    z0 = float(cfg.z0 if z0 is None else z0)
    kind = NoiseKind(cfg.noise if noise is None else noise)
    scheme = Scheme(cfg.scheme if scheme is None else scheme)
    seed = int(cfg.master_seed if seed is None else seed)

    if scheme.uses_deff and not kind.is_evolving:
        raise ConfigError(
            f"scheme {scheme.value!r} needs an evolving noise kind (ou or sbm) to "
            f"define its diffusion strength, got {kind.value!r}"
        )
    deff = effective_diffusion(G, tau, kind) if kind.is_evolving else 0.0
    params = PhysicsParams(J=J, G=G, gamma=cfg.gamma, Deff=deff)
    noise_model = NoiseModel(kind=kind, tau=tau)
    return TrajectoryConfig(
        params=params, noise=noise_model, dt=cfg.dt, T=cfg.T, z0=z0, scheme=scheme, seed=seed
    )
