"""The benchmark's workloads and the inputs generated for them.

Every workload is an existing experiment preset, reached through the same
path as ``suvsim run``: generated command-line arguments plus a generated
``key = value`` config file. The config file sets only the ensemble size
and the master seed; everything else is the preset's own default, so the
workloads stay valid while the package changes underneath them. The
workload seed is written to ``master_seed`` unchanged.

This module imports nothing from suvsim at import time, so the set-up
probe pays for the package import inside :func:`resolve_config`, exactly
as a command-line user does.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "write_inputs", "resolve_config", "trajectory_steps"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``ensembles`` is how many ensembles of ``n_traj`` members one
    repetition integrates (for ``noise-validation``: how many sets of
    noise paths), which turns the resolved config into trajectory-steps.
    """

    name: str
    experiment: str
    n_traj: int
    ensembles: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "recorded-series",
            "fig1a",
            2000,
            2,  # the colored ensemble and its SSE companion
            "fig1a: recorded time series with qv, so observation and the "
            "row-by-row compensated fold run on every recorded step",
        ),
        Workload(
            "wide-sweep",
            "born-sweep",
            2500,  # one full engine chunk at T=8 (20M-element draw budget)
            6,  # one ensemble per z0 of the Born grid
            "born-sweep at a full engine chunk: final-only, long horizon, "
            "kernel-throughput bound; its draw matrix sets peak RSS",
        ),
        Workload(
            "noise-paths",
            "noise-validation",
            4000,
            2,  # OU paths and SBM paths
            "noise-validation: the only user of simulate_paths, "
            "autocorrelation and steady_samples, the noise layer outside the engine",
        ),
    )
}


def write_inputs(workload: Workload, seed: int, workdir: str) -> list[str]:
    """Write the config file for (workload, seed) into workdir.

    Returns the ``suvsim`` command-line arguments that run it, with the
    artifacts going to ``workdir/out``.
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit nonnegative integer, got {seed}")
    path = os.path.join(workdir, "input.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# benchmark workload {workload.name}\n")
        fh.write(f"n_traj = {workload.n_traj}\n")
        fh.write(f"master_seed = {seed}\n")
    out = os.path.join(workdir, "out")
    return ["run", workload.experiment, "--config", path, "--out", out]


def resolve_config(argv: list[str]):
    """Resolve ``suvsim`` command-line arguments into an ExperimentConfig,
    the way the CLI does before it runs the experiment."""
    from suvsim.cli import build_parser
    from suvsim.config import make_config, parse_config_file

    args = build_parser().parse_args(argv)
    file_values = parse_config_file(args.config) if args.config else None
    return make_config(
        args.experiment,
        file_values,
        master_seed=args.seed,
        n_traj=args.n_traj,
        output_dir=args.out,
        noise=args.noise,
        scheme=args.scheme,
    )


def trajectory_steps(workload: Workload, cfg) -> int:
    """Trajectory-steps one repetition performs (the engine's step count
    is max(1, round(T / dt)))."""
    return workload.ensembles * cfg.n_traj * max(1, round(cfg.T / cfg.dt))
