"""Experiment runners: named simulation presets producing CSV artifacts.

Each runner maps a resolved ExperimentConfig to one or more ensemble runs
and writes its results under the output directory, returning the list of
file names written. All ensembles within one experiment draw from disjoint
stream-index ranges of the same master seed, so a whole experiment is a
pure function of its configuration.
"""
from __future__ import annotations

import math
import os

import numpy as np

from . import engine
from .config import Experiment, ExperimentConfig, build_trajectory_config
from .dynamics import Scheme, _whole_steps
from .engine import _record_at, derive_stream, simulate, simulate_paths
from .errors import ConfigError, InconclusiveError
from .master import STEADY_SECOND_MOMENT, effective_diffusion, gksl_residual
from .noise import NoiseKind, NoiseModel, autocorrelation, steady_samples
from .noise import _autocovariance, _lag_sums
from .observables import CompensatedAccumulator, born_deviation, collapse_statistics, ks_distance
from .output import write_ensemble_csv, write_table_csv, write_trajectory_csv

__all__ = ["EPS_COLLAPSE", "BORN_Z0_GRID", "FDR_RATIO_GRID", "FDR_Z0_GRID", "RUNNERS"]

# The benchmark's tracer (perfbench/spans.py) wraps simulate_ensemble, which the
# runners call, and autocorrelation, which nothing here calls, until its rows move.
simulate_ensemble = simulate

# Collapse classification threshold: z >= 1 - eps is |0>, z <= eps is |1>.
EPS_COLLAPSE = 1e-4

BORN_Z0_GRID = (0.1, 0.25, 0.5, 0.6, 0.75, 0.9)
FDR_RATIO_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
FDR_Z0_GRID = (0.25, 0.5, 0.6, 0.75)

_BORN_HEADER = ["z0", "n_traj", "frac_zero", "frac_one", "frac_unresolved", "deviation",
                "binomial_se"]


def _born_row(z0, stats):
    """Shared row shape for collapse-fraction tables; the deviation field
    is left empty when too many trajectories are unresolved at the horizon."""
    try:
        deviation = born_deviation(stats, z0)
    except InconclusiveError:
        deviation = None
    se = math.sqrt(z0 * (1.0 - z0) / stats.n_traj)
    return [z0, stats.n_traj, stats.frac_zero, stats.frac_one, stats.frac_unresolved, deviation, se]


def _recorded_jobs(cfg, *traj_cfgs):
    """Recorded jobs of cfg.n_traj trajectories, the k-th from index k n_traj."""
    n = cfg.n_traj
    return [(traj_cfg, n, k * n, cfg.decimation) for k, traj_cfg in enumerate(traj_cfgs)]


def _write_recorded(cfg, outdir, jobs, summaries, names):
    """Write each recorded job's summary to its ``(csv_name, stem)`` of
    ``names`` and, for one trajectory, its series to
    ``<stem>_trajectory.csv``, with the colored field that simulate_paths
    gives at its index, column 0 of each block copied before the next is
    stepped. Returns the names written."""
    written = []
    for (traj_cfg, _, offset, _), summary, (csv_name, stem) in zip(jobs, summaries, names):
        write_ensemble_csv(os.path.join(outdir, csv_name), summary)
        written.append(csv_name)
        if summary.n_traj == 1:
            xi = None
            if traj_cfg.scheme.uses_colored_noise:
                blocks = simulate_paths(traj_cfg.noise, traj_cfg.n_steps, traj_cfg.dt,
                                        traj_cfg.seed, offset, 1)
                path = np.concatenate([block[:, 0].copy() for block in blocks])
                xi = path[_record_at(traj_cfg.n_steps, cfg.decimation)]
            name = f"{stem}_trajectory.csv"
            write_trajectory_csv(os.path.join(outdir, name), summary.times, summary.mean_z, xi)
            written.append(name)
    return written


def run_fig1a(cfg: ExperimentConfig, outdir: str) -> list[str]:
    """Smooth collapse trajectories versus the diffusive jump unraveling.

    Runs the colored-noise ensemble and a stochastic-Schrodinger companion
    with the same initial state, writing one ensemble CSV for each. With
    n_traj = 1 the decimated single trajectories are written too.
    """
    jobs = _recorded_jobs(
        cfg, build_trajectory_config(cfg), build_trajectory_config(cfg, scheme=Scheme.SSE)
    )
    names = [("fig1a_suv.csv", "fig1a_suv"), ("fig1a_sse.csv", "fig1a_sse")]
    return _write_recorded(cfg, outdir, jobs, simulate_ensemble(jobs), names)


def run_fig1b(cfg: ExperimentConfig, outdir: str) -> list[str]:
    """Fast-noise ensemble dephasing for both noise processes.

    The headline run uses the configured noise (Gaussian by default) and
    is named after it, ``fig1b_<noise>.csv``; a companion run swaps in the
    bounded process at the same couplings, ``fig1b_sbm.csv``.
    """
    jobs = _recorded_jobs(
        cfg, build_trajectory_config(cfg), build_trajectory_config(cfg, noise=NoiseKind.SBM)
    )
    stem = f"fig1b_{cfg.noise.value}"
    names = [(f"{stem}.csv", stem), ("fig1b_sbm.csv", "fig1b_sbm")]
    return _write_recorded(cfg, outdir, jobs, simulate_ensemble(jobs), names)


def run_born_sweep(cfg: ExperimentConfig, outdir: str) -> list[str]:
    """Collapse fractions across initial weights, against the Born rule."""
    n = cfg.n_traj
    jobs = [
        (build_trajectory_config(cfg, z0=z0), n, i * n, None) for i, z0 in enumerate(BORN_Z0_GRID)
    ]
    rows = [
        _born_row(z0, collapse_statistics(final_z, EPS_COLLAPSE))
        for z0, final_z in zip(BORN_Z0_GRID, simulate_ensemble(jobs))
    ]
    write_table_csv(os.path.join(outdir, "born_sweep.csv"), _BORN_HEADER, rows)
    return ["born_sweep.csv"]


def run_fdr_sweep(cfg: ExperimentConfig, outdir: str) -> list[str]:
    """Collapse fractions across the drift-to-diffusion ratio grid.

    J is set to ratio * Deff^2 for each grid ratio; the balanced column
    (ratio 1) satisfies the fluctuation-dissipation relation and should
    reproduce the Born fractions, the others should deviate systematically.
    """
    deff2 = effective_diffusion(cfg.G, cfg.tau, cfg.noise) ** 2
    n = cfg.n_traj
    cells = [(ratio, z0) for ratio in FDR_RATIO_GRID for z0 in FDR_Z0_GRID]
    jobs = [
        (build_trajectory_config(cfg, J=ratio * deff2, z0=z0), n, cell * n, None)
        for cell, (ratio, z0) in enumerate(cells)
    ]
    rows = [
        [ratio, ratio * deff2, deff2] + _born_row(z0, collapse_statistics(final_z, EPS_COLLAPSE))
        for (ratio, z0), final_z in zip(cells, simulate_ensemble(jobs))
    ]
    header = ["j_over_deff2", "J", "deff2"] + _BORN_HEADER
    write_table_csv(os.path.join(outdir, "fdr_sweep.csv"), header, rows)
    return ["fdr_sweep.csv"]


def run_weak_equivalence(cfg: ExperimentConfig, outdir: str) -> list[str]:
    """Distributional match of colored-noise collapse to its white limit.

    Compares final-z samples of the colored model against the Stratonovich
    white-noise model at equal Deff^2, for a fast branch (the configured
    tau) and a slow branch (tau scaled up 100x with G scaled down 10x,
    which leaves Deff^2 unchanged). The yardstick is the self-distance of
    two disjoint white ensembles.
    """
    n = cfg.n_traj
    white_cfg = build_trajectory_config(cfg, scheme=Scheme.WHITE_STRAT)
    branches = [
        ("fast", cfg.tau, cfg.G, 2 * n),
        ("slow", 100.0 * cfg.tau, cfg.G / 10.0, 3 * n),
    ]
    jobs = [(white_cfg, n, 0, None), (white_cfg, n, n, None)] + [
        (build_trajectory_config(cfg, tau=tau, G=G, scheme=Scheme.SUV_COLORED), n, offset, None)
        for _, tau, G, offset in branches
    ]
    white_a, white_b, *colored = simulate_ensemble(jobs)
    ks_self = ks_distance(white_a, white_b)

    deff2 = effective_diffusion(cfg.G, cfg.tau, cfg.noise) ** 2
    rows = []
    for (name, tau, G, _), final_z in zip(branches, colored):
        ks_white = ks_distance(final_z, white_a)
        rows.append([name, tau, G, deff2, n, ks_white, ks_self, 3.0 * ks_self])
    header = ["branch", "tau", "G", "deff2", "n_traj", "ks_vs_white", "ks_self_white", "bound_3x_self"]
    write_table_csv(os.path.join(outdir, "weak_equivalence.csv"), header, rows)
    return ["weak_equivalence.csv"]


# The rate fit's lags are k tau / 4 for k = 0..12. Entries 0, 4 and 8 are
# the report lags 0, tau and 2 tau as the same floats, since k * 0.25 is
# exact.
_FIT_LAGS = 13
_REPORT_ENTRIES = (0, 4, 8)
_STEADY_SAMPLES = 100000


def _fit_lags(tau: float) -> list[float]:
    """Lags of the rate fit, in units of time."""
    return [k * 0.25 * tau for k in range(_FIT_LAGS)]


def _noise_chunk(task):
    """Noise validation's chunk ``(model, n_steps, dt, seed, first_index, m,
    lags, steady_stream)``: the :func:`_lag_sums` group rows of the m paths
    from stream index first_index, and the KS distance of _STEADY_SAMPLES
    draws from ``derive_stream(*steady_stream)``, None without a stream."""
    model, n_steps, dt, seed, first, m, lags, steady = task
    rows = _lag_sums(simulate_paths(model, n_steps, dt, seed, first, m), lags, first)[0]
    if steady is None:
        return rows, None
    draws = steady_samples(model, _STEADY_SAMPLES, derive_stream(*steady))
    return rows, _steady_ks(model.kind, draws)


def _noise_statistics(kinds, n_steps, dt, n, quarter_steps):
    """Per kind ``(model, seed, first_index, steady_stream)`` of ``kinds``:
    the estimates at lags k * quarter_steps, k < _FIT_LAGS, of its n
    steady-state paths of n_steps steps from stream index first_index, and
    its first chunk's KS distance. The engine's :func:`_tasks` cuts each
    kind's paths into chunks of whole groups, stepped in one pool call, and
    the caller folds each kind's rows in group order, so no estimate
    depends on the chunk width or the worker count."""
    lags = [k * quarter_steps for k in range(_FIT_LAGS)]
    folds = [CompensatedAccumulator(3 * _FIT_LAGS) for _ in kinds]
    tasks, sinks, ks = [], [], []
    for fold, (model, seed, first, steady) in zip(folds, kinds):
        for ((_, m),), i, _ in engine._tasks([(model, n, first)], engine._MAX_CHUNK_WIDTH, None):
            tasks.append((model, n_steps, dt, seed, i, m, lags, steady if i == first else None))
            sinks.append(fold)

    def consume(pieces):  # a chunk's (rows, distance) is one piece
        for i, (rows, distance) in pieces:
            sinks[i].add_rows(rows)
            if distance is not None:
                ks.append(distance)

    engine._map_in_workers(_noise_chunk, tasks, consume)
    return [(_autocovariance(fold.total, lags, n, n_steps + 1), d) for fold, d in zip(folds, ks)]


def run_noise_validation(cfg: ExperimentConfig, outdir: str) -> list[str]:
    """Statistical checks of the noise processes themselves.

    For each process: the stationary autocovariance at lags {0, tau, 2 tau}
    against its exponential target, an exponential-rate fit over lags up to
    3 tau, and a one-sample KS distance of fresh steady-state draws against
    the exact stationary law. The autocovariance is estimated once per lag
    of the fit grid, which holds the three report lags, while the paths are
    stepped in chunks (:func:`_noise_statistics`). Raises ConfigError,
    before any path is stepped, when tau / 4 is not a whole number of steps
    or 3 tau exceeds the horizon, and InconclusiveError, before any file is
    written, when an autocovariance on the fit grid is not positive, since
    its logarithm would make the fitted rate NaN.
    """
    n, tau, dt = cfg.n_traj, cfg.tau, cfg.dt
    n_steps = _whole_steps(cfg.T, dt)
    models = [NoiseModel(kind=kind, tau=tau) for kind in (NoiseKind.OU, NoiseKind.SBM)]
    q = _whole_steps(0.25 * tau, dt, "tau / 4")
    if (_FIT_LAGS - 1) * q > n_steps:
        raise ConfigError(
            f"the rate fit's longest lag 3 tau = {3.0 * tau:g} exceeds the horizon T = {cfg.T}"
        )

    seed = cfg.master_seed
    kinds = [(model, seed, i * n, (seed, 2 * n + i)) for i, model in enumerate(models)]
    lags = _fit_lags(tau)
    acf_rows, rate_rows, steady_rows = [], [], []
    for model, (values, ks) in zip(models, _noise_statistics(kinds, n_steps, dt, n, q)):
        kind = model.kind
        for j in _REPORT_ENTRIES:
            target = STEADY_SECOND_MOMENT[kind] * math.exp(-lags[j] / tau)
            error = abs(values[j] - target) / target
            acf_rows.append([kind.value, lags[j], values[j], target, error])
        if not np.all(values > 0.0):
            j = int(np.argmin(values > 0.0))
            raise InconclusiveError(
                f"{kind.value} autocovariance at lag {lags[j]:g} is {values[j]:.3g}, "
                "not positive: no decay rate can be fitted; raise n_traj or T"
            )
        rate_rows.append([kind.value, -np.polyfit(np.array(lags), np.log(values), 1)[0], 1.0 / tau])
        steady_rows.append([kind.value, _STEADY_SAMPLES, ks])
    tables = {
        "noise_autocorr.csv": (["model", "lag", "estimate", "target", "rel_error"], acf_rows),
        "noise_rates.csv": (["model", "rate", "target"], rate_rows),
        "noise_steady.csv": (["model", "n_samples", "ks_distance"], steady_rows),
    }
    for name, (header, rows) in tables.items():
        write_table_csv(os.path.join(outdir, name), header, rows)
    return list(tables)


def _steady_ks(kind: NoiseKind, draws: np.ndarray) -> float:
    """One-sample KS distance against the exact stationary CDF."""
    x = np.sort(draws)
    n = x.size
    cdf = np.clip((x + 1.0) / 2.0, 0.0, 1.0) if kind.is_bounded else _normal_cdf(x)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF 0.5 (1 + erf(x / sqrt 2)), with math.erf on each
    value: numpy has no erf. The division is the one IEEE operation the
    scalar form performs, done on the whole array."""
    scaled = x / math.sqrt(2.0)
    return 0.5 * (1.0 + np.fromiter(map(math.erf, scaled.tolist()), float, x.size))


def run_frozen_limit(cfg: ExperimentConfig, outdir: str) -> list[str]:
    """Collapse fractions under a frozen (static) field draw."""
    (final_z,) = simulate_ensemble([(build_trajectory_config(cfg), cfg.n_traj, 0, None)])
    stats = collapse_statistics(final_z, EPS_COLLAPSE)
    rows = [[cfg.J, cfg.G] + _born_row(cfg.z0, stats)]
    write_table_csv(os.path.join(outdir, "frozen_born.csv"), ["J", "G"] + _BORN_HEADER, rows)
    return ["frozen_born.csv"]


def run_gksl_check(cfg: ExperimentConfig, outdir: str) -> list[str]:
    """Ensemble means against the analytic dephasing master equation."""
    traj_cfg = build_trajectory_config(cfg)
    jobs = _recorded_jobs(cfg, traj_cfg)
    (summary,) = simulate_ensemble(jobs)
    written = _write_recorded(cfg, outdir, jobs, [summary], [("gksl_ensemble.csv", "gksl")])

    res_z, res_off = gksl_residual(summary, traj_cfg.params.Deff)
    rows = zip(summary.times, res_z, res_off)
    write_table_csv(os.path.join(outdir, "gksl_residual.csv"), ["t", "res_z", "res_offdiag"], rows)
    written.append("gksl_residual.csv")
    return written


RUNNERS = {
    Experiment.FIG1A: run_fig1a,
    Experiment.FIG1B: run_fig1b,
    Experiment.BORN_SWEEP: run_born_sweep,
    Experiment.FDR_SWEEP: run_fdr_sweep,
    Experiment.WEAK_EQUIVALENCE: run_weak_equivalence,
    Experiment.NOISE_VALIDATION: run_noise_validation,
    Experiment.FROZEN_LIMIT: run_frozen_limit,
    Experiment.GKSL_CHECK: run_gksl_check,
}
