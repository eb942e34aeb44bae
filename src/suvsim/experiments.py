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

from .config import Experiment, ExperimentConfig, build_trajectory_config
from .dynamics import Scheme, _whole_steps
from .engine import derive_stream, simulate_ensemble
from .errors import ConfigError, InconclusiveError
from .master import STEADY_SECOND_MOMENT, effective_diffusion, gksl_residual
from .noise import NoiseKind, NoiseModel, autocorrelation, simulate_paths, steady_samples
from .observables import born_deviation, collapse_statistics, ks_distance
from .output import write_ensemble_csv, write_table_csv, write_trajectory_csv

__all__ = ["EPS_COLLAPSE", "BORN_Z0_GRID", "FDR_RATIO_GRID", "FDR_Z0_GRID", "RUNNERS"]

# Collapse classification threshold: z >= 1 - eps is |0>, z <= eps is |1>.
EPS_COLLAPSE = 1e-4

BORN_Z0_GRID = (0.1, 0.25, 0.5, 0.6, 0.75, 0.9)
FDR_RATIO_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
FDR_Z0_GRID = (0.25, 0.5, 0.6, 0.75)

_BORN_HEADER = [
    "z0",
    "n_traj",
    "frac_zero",
    "frac_one",
    "frac_unresolved",
    "deviation",
    "binomial_se",
]


def _born_row(z0, stats):
    """Shared row shape for collapse-fraction tables; the deviation field
    is left empty when too many trajectories are unresolved at the horizon."""
    try:
        deviation = born_deviation(stats, z0)
    except InconclusiveError:
        deviation = None
    se = math.sqrt(z0 * (1.0 - z0) / stats.n_traj)
    return [
        z0,
        stats.n_traj,
        stats.frac_zero,
        stats.frac_one,
        stats.frac_unresolved,
        deviation,
        se,
    ]


def _maybe_dump_trajectory(result, outdir, stem, written):
    if result.n_traj == 1 and result.summary is not None:
        name = f"{stem}_trajectory.csv"
        write_trajectory_csv(
            os.path.join(outdir, name),
            result.summary.times,
            result.summary.mean_z,
            result.single_xi,
        )
        written.append(name)


def run_fig1a(cfg: ExperimentConfig, outdir: str) -> list[str]:
    """Smooth collapse trajectories versus the diffusive jump unraveling.

    Runs the colored-noise ensemble and a stochastic-Schrodinger companion
    with the same initial state, writing one ensemble CSV for each. With
    n_traj = 1 the decimated single trajectories are written too.
    """
    written = []
    n = cfg.n_traj
    suv = simulate_ensemble(build_trajectory_config(cfg), n, decimation=cfg.decimation)
    write_ensemble_csv(os.path.join(outdir, "fig1a_suv.csv"), suv.summary)
    written.append("fig1a_suv.csv")
    _maybe_dump_trajectory(suv, outdir, "fig1a_suv", written)

    sse = simulate_ensemble(
        build_trajectory_config(cfg, scheme=Scheme.SSE),
        n,
        decimation=cfg.decimation,
        index_offset=n,
    )
    write_ensemble_csv(os.path.join(outdir, "fig1a_sse.csv"), sse.summary)
    written.append("fig1a_sse.csv")
    _maybe_dump_trajectory(sse, outdir, "fig1a_sse", written)
    return written


def run_fig1b(cfg: ExperimentConfig, outdir: str) -> list[str]:
    """Fast-noise ensemble dephasing for both noise processes.

    The headline run uses the configured noise (Gaussian by default) and
    is named after it, ``fig1b_<noise>.csv``; a companion run swaps in the
    bounded process at the same couplings, ``fig1b_sbm.csv``.
    """
    written = []
    n = cfg.n_traj
    stem = f"fig1b_{cfg.noise.value}"
    headline = simulate_ensemble(build_trajectory_config(cfg), n, decimation=cfg.decimation)
    write_ensemble_csv(os.path.join(outdir, f"{stem}.csv"), headline.summary)
    written.append(f"{stem}.csv")
    _maybe_dump_trajectory(headline, outdir, stem, written)

    sbm = simulate_ensemble(
        build_trajectory_config(cfg, noise=NoiseKind.SBM),
        n,
        decimation=cfg.decimation,
        index_offset=n,
    )
    write_ensemble_csv(os.path.join(outdir, "fig1b_sbm.csv"), sbm.summary)
    written.append("fig1b_sbm.csv")
    _maybe_dump_trajectory(sbm, outdir, "fig1b_sbm", written)
    return written


def run_born_sweep(cfg: ExperimentConfig, outdir: str) -> list[str]:
    """Collapse fractions across initial weights, against the Born rule."""
    rows = []
    n = cfg.n_traj
    for i, z0 in enumerate(BORN_Z0_GRID):
        result = simulate_ensemble(
            build_trajectory_config(cfg, z0=z0),
            n,
            index_offset=i * n,
            record_series=False,
        )
        stats = collapse_statistics(result.final_z, EPS_COLLAPSE)
        rows.append(_born_row(z0, stats))
    write_table_csv(os.path.join(outdir, "born_sweep.csv"), _BORN_HEADER, rows)
    return ["born_sweep.csv"]


def run_fdr_sweep(cfg: ExperimentConfig, outdir: str) -> list[str]:
    """Collapse fractions across the drift-to-diffusion ratio grid.

    J is set to ratio * Deff^2 for each grid ratio; the balanced column
    (ratio 1) satisfies the fluctuation-dissipation relation and should
    reproduce the Born fractions, the others should deviate systematically.
    """
    deff2 = effective_diffusion(cfg.G, cfg.tau, cfg.noise) ** 2
    rows = []
    n = cfg.n_traj
    cell = 0
    for ratio in FDR_RATIO_GRID:
        for z0 in FDR_Z0_GRID:
            result = simulate_ensemble(
                build_trajectory_config(cfg, J=ratio * deff2, z0=z0),
                n,
                index_offset=cell * n,
                record_series=False,
            )
            stats = collapse_statistics(result.final_z, EPS_COLLAPSE)
            rows.append([ratio, ratio * deff2, deff2] + _born_row(z0, stats))
            cell += 1
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
    white_a = simulate_ensemble(white_cfg, n, record_series=False)
    white_b = simulate_ensemble(white_cfg, n, index_offset=n, record_series=False)
    ks_self = ks_distance(white_a.final_z, white_b.final_z)

    deff2 = effective_diffusion(cfg.G, cfg.tau, cfg.noise) ** 2
    branches = [
        ("fast", cfg.tau, cfg.G, 2 * n),
        ("slow", 100.0 * cfg.tau, cfg.G / 10.0, 3 * n),
    ]
    rows = []
    for name, tau, G, offset in branches:
        colored = simulate_ensemble(
            build_trajectory_config(cfg, tau=tau, G=G, scheme=Scheme.SUV_COLORED),
            n,
            index_offset=offset,
            record_series=False,
        )
        ks_white = ks_distance(colored.final_z, white_a.final_z)
        rows.append([name, tau, G, deff2, n, ks_white, ks_self, 3.0 * ks_self])
    header = ["branch", "tau", "G", "deff2", "n_traj", "ks_vs_white", "ks_self_white", "bound_3x_self"]
    write_table_csv(os.path.join(outdir, "weak_equivalence.csv"), header, rows)
    return ["weak_equivalence.csv"]


# The rate fit's lags are k tau / 4 for k = 0..12. Entries 0, 4 and 8 are
# the report lags 0, tau and 2 tau as the same floats, since k * 0.25 is
# exact.
_FIT_LAGS = 13
_REPORT_ENTRIES = (0, 4, 8)


def _fit_grid_autocovariances(paths, tau: float, quarter_steps: int):
    """Lags of the rate fit and the autocovariance estimate of steady-state
    ``paths`` at each, one :func:`autocorrelation` call per lag; tau / 4 is
    ``quarter_steps`` steps of the paths' grid."""
    lags = [k * 0.25 * tau for k in range(_FIT_LAGS)]
    values = [autocorrelation(paths, k * quarter_steps) for k in range(_FIT_LAGS)]
    return lags, np.array(values)


def run_noise_validation(cfg: ExperimentConfig, outdir: str) -> list[str]:
    """Statistical checks of the noise processes themselves.

    For each process: the stationary autocovariance at lags {0, tau, 2 tau}
    against its exponential target, an exponential-rate fit over lags up to
    3 tau, and a one-sample KS distance of fresh steady-state draws against
    the exact stationary law. The autocovariance is estimated once per lag
    of the fit grid, which holds the three report lags. Raises ConfigError,
    before any path is simulated, when tau / 4 is not a whole number of
    steps or 3 tau exceeds the horizon, and InconclusiveError, before any
    file is written, when an autocovariance on the fit grid is not
    positive, since its logarithm would make the fitted rate NaN.
    """
    n = cfg.n_traj
    tau = cfg.tau
    dt = cfg.dt
    n_steps = _whole_steps(cfg.T, dt)
    models = [NoiseModel(kind=kind, tau=tau) for kind in (NoiseKind.OU, NoiseKind.SBM)]
    q = _whole_steps(0.25 * tau, dt, "tau / 4")
    if (_FIT_LAGS - 1) * q > n_steps:
        raise ConfigError(
            f"the rate fit's longest lag 3 tau = {3.0 * tau:g} exceeds the horizon T = {cfg.T}"
        )

    acf_rows = []
    rate_rows = []
    steady_rows = []
    for model_index, model in enumerate(models):
        kind = model.kind
        streams = [derive_stream(cfg.master_seed, model_index * n + i) for i in range(n)]
        paths = simulate_paths(model, n_steps, dt, streams)
        lags, values = _fit_grid_autocovariances(paths, tau, q)
        del paths
        variance = STEADY_SECOND_MOMENT[kind]
        for j in _REPORT_ENTRIES:
            target = variance * math.exp(-lags[j] / tau)
            acf_rows.append(
                [kind.value, lags[j], values[j], target, abs(values[j] - target) / target]
            )
        if not np.all(values > 0.0):
            j = int(np.argmin(values > 0.0))
            raise InconclusiveError(
                f"{kind.value} autocovariance at lag {lags[j]:g} is {values[j]:.3g}, "
                "not positive: no decay rate can be fitted; raise n_traj or T"
            )
        rate = -np.polyfit(np.array(lags), np.log(values), 1)[0]
        rate_rows.append([kind.value, rate, 1.0 / tau])

        draws = steady_samples(model, 100000, derive_stream(cfg.master_seed, 2 * n + model_index))
        steady_rows.append([kind.value, draws.size, _steady_ks(kind, draws)])

    write_table_csv(
        os.path.join(outdir, "noise_autocorr.csv"),
        ["model", "lag", "estimate", "target", "rel_error"],
        acf_rows,
    )
    write_table_csv(
        os.path.join(outdir, "noise_rates.csv"), ["model", "rate", "target"], rate_rows
    )
    write_table_csv(
        os.path.join(outdir, "noise_steady.csv"),
        ["model", "n_samples", "ks_distance"],
        steady_rows,
    )
    return ["noise_autocorr.csv", "noise_rates.csv", "noise_steady.csv"]


def _steady_ks(kind: NoiseKind, draws: np.ndarray) -> float:
    """One-sample KS distance against the exact stationary CDF."""
    x = np.sort(draws)
    n = x.size
    if kind.is_bounded:
        cdf = np.clip((x + 1.0) / 2.0, 0.0, 1.0)
    else:
        cdf = 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2.0)) for v in x]))
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def run_frozen_limit(cfg: ExperimentConfig, outdir: str) -> list[str]:
    """Collapse fractions under a frozen (static) field draw."""
    result = simulate_ensemble(
        build_trajectory_config(cfg), cfg.n_traj, record_series=False
    )
    stats = collapse_statistics(result.final_z, EPS_COLLAPSE)
    rows = [[cfg.J, cfg.G] + _born_row(cfg.z0, stats)]
    write_table_csv(
        os.path.join(outdir, "frozen_born.csv"), ["J", "G"] + _BORN_HEADER, rows
    )
    return ["frozen_born.csv"]


def run_gksl_check(cfg: ExperimentConfig, outdir: str) -> list[str]:
    """Ensemble means against the analytic dephasing master equation."""
    written = []
    traj_cfg = build_trajectory_config(cfg)
    result = simulate_ensemble(traj_cfg, cfg.n_traj, decimation=cfg.decimation)
    write_ensemble_csv(os.path.join(outdir, "gksl_ensemble.csv"), result.summary)
    written.append("gksl_ensemble.csv")
    _maybe_dump_trajectory(result, outdir, "gksl", written)

    res_z, res_off = gksl_residual(result.summary, traj_cfg.params.Deff)
    rows = zip(result.summary.times, res_z, res_off)
    write_table_csv(
        os.path.join(outdir, "gksl_residual.csv"), ["t", "res_z", "res_offdiag"], rows
    )
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
