"""Deterministic vectorized ensemble execution.

Trajectories are integrated in lockstep over chunks of the ensemble, but
every per-trajectory quantity is a pure function of (master seed,
trajectory index): each trajectory owns a private counter-based stream,
and its draw order is fixed by scheme and noise kind:

* colored schemes: the field draws of :func:`suvsim.noise._draw_field`, a
  steady-state initial value (standard normal for OU kinds, uniform for SBM
  kinds), then one standard normal per step for evolving kinds;
* Wiener-driven schemes: one standard normal per step (scaled by sqrt(dt)).

The per-step normals are drawn in time blocks of a few hundred steps as
the step loop reaches them, so a chunk holds one (m, block) buffer rather
than an (m, n_steps) matrix. A counter-based stream yields the same
sequence however its draws are split into calls, so the block length
changes no output bit.

Each scheme is one entry of a (step, amplitude, observe) table, looked up
once per chunk.

Ensemble statistics are folded one trajectory at a time, in index order,
with compensated summation. Together these make every output bitwise
independent of chunk size and of how many trajectories run concurrently,
and byte-identical across repeated runs of the same configuration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .dynamics import (
    Scheme,
    TrajectoryConfig,
    _renormalize,
    _sse_em,
    _suv_heun,
    _unnormalized_heun,
    _white_ito_em,
    _white_strat_heun,
    _z_colored_heun,
    _z_white_heun,
)
from .errors import IntegratorInstabilityError, InvalidParameterError
from .noise import NoiseKind, _draw_field, _ou_coefficients, _ou_update, _sbm_update
from .noise import _stream_normals
from .observables import CompensatedAccumulator, EnsembleSummary

__all__ = ["EnsembleResult", "derive_stream", "simulate_ensemble"]

# Upper bound on elements of a chunk's (m, n_steps) matrix of squared
# amplitude increments (dq_rows, kept by recorded runs for the quadratic
# variation); bounds peak memory.
_CHUNK_ELEMENT_BUDGET = 20_000_000


def derive_stream(master_seed: int, trajectory_index: int) -> np.random.Generator:
    """Private random stream for one trajectory.

    Streams come from a counter-based generator keyed on (seed, index), so
    they are statistically independent across indices, reproducible, and
    independent of execution order.
    """
    if master_seed < 0:
        raise InvalidParameterError(f"master_seed must be nonnegative, got {master_seed}")
    if trajectory_index < 0:
        raise InvalidParameterError(
            f"trajectory_index must be nonnegative, got {trajectory_index}"
        )
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(trajectory_index,))
    return np.random.Generator(np.random.Philox(seq))


@dataclass
class EnsembleResult:
    """Outputs of one ensemble run.

    summary is None when time series were not recorded; single_z/single_xi
    hold the decimated trajectory dump when the ensemble has exactly one
    trajectory (single_xi is None for schemes without a colored field).
    """

    config: TrajectoryConfig
    n_traj: int
    final_z: np.ndarray
    summary: EnsembleSummary | None = None
    single_z: np.ndarray | None = None
    single_xi: np.ndarray | None = None


def simulate_ensemble(
    cfg: TrajectoryConfig,
    n_traj: int,
    decimation: int = 10,
    index_offset: int = 0,
    chunk_size: int | None = None,
    record_series: bool = True,
) -> EnsembleResult:
    """Run an ensemble of trajectories and reduce it deterministically.

    Parameters
    ----------
    cfg : TrajectoryConfig
        Scheme, physics, grid and master seed.
    n_traj : int
        Ensemble size; trajectory i uses the stream derived from
        (cfg.seed, index_offset + i).
    decimation : int
        Statistics are emitted every ``decimation`` steps (plus the final
        step); internal updates still happen every step.
    index_offset : int
        Offset of the stream indices, used to draw disjoint independent
        ensembles under one master seed.
    chunk_size : int, optional
        Trajectories integrated per lockstep batch. Affects memory and
        speed only; results are bitwise identical for any value.
    record_series : bool
        Record time series (means, stderrs, quadratic variation). Off for
        distribution-only runs, which keeps just the final z values.

    An IntegratorInstabilityError names the trajectory index and the step
    at which a state degenerated.
    """
    if n_traj < 1:
        raise InvalidParameterError(f"n_traj must be at least 1, got {n_traj}")
    if decimation < 1:
        raise InvalidParameterError(f"decimation must be at least 1, got {decimation}")
    if index_offset < 0:
        raise InvalidParameterError(f"index_offset must be nonnegative, got {index_offset}")

    n_steps = cfg.n_steps
    record_at = np.zeros(n_steps + 1, dtype=bool)
    if record_series:
        record_at[::decimation] = True
        record_at[n_steps] = True
    out_idx = np.flatnonzero(record_at)
    times = out_idx * cfg.dt
    n_out = out_idx.size

    if record_series:
        acc_z = CompensatedAccumulator(n_out)
        acc_z2 = CompensatedAccumulator(n_out)
        acc_off = CompensatedAccumulator(n_out)
        acc_off2 = CompensatedAccumulator(n_out)
        acc_dq = CompensatedAccumulator(n_steps)

    final_z = np.empty(n_traj)
    single_z = single_xi = None

    if chunk_size is None:
        chunk_size = max(1, min(n_traj, _CHUNK_ELEMENT_BUDGET // max(n_steps, 1)))
    elif chunk_size < 1:
        raise InvalidParameterError(f"chunk_size must be at least 1, got {chunk_size}")

    for start in range(0, n_traj, chunk_size):
        m = min(chunk_size, n_traj - start)
        streams = [derive_stream(cfg.seed, index_offset + start + i) for i in range(m)]
        z_rows, off_rows, dq_rows, xi_rows, fz = _integrate_chunk(
            cfg,
            streams,
            record_at,
            need_xi=(n_traj == 1),
            first_index=index_offset + start,
        )
        final_z[start : start + m] = fz
        if record_series:
            acc_z.add_rows(z_rows)
            acc_z2.add_rows(z_rows * z_rows)
            acc_off.add_rows(off_rows)
            acc_off2.add_rows(off_rows * off_rows)
            acc_dq.add_rows(dq_rows)
        if n_traj == 1 and record_series:
            single_z = z_rows[0].copy()
            single_xi = None if xi_rows is None else xi_rows[0].copy()

    summary = None
    if record_series:
        mean_z = acc_z.total / n_traj
        mean_off = acc_off.total / n_traj
        if n_traj > 1:
            stderr_z = _stderr(acc_z.total, acc_z2.total, n_traj)
            stderr_off = _stderr(acc_off.total, acc_off2.total, n_traj)
        else:
            stderr_z = stderr_off = None
        step_means = np.maximum(acc_dq.total / n_traj, 0.0)
        qv = np.cumsum(np.concatenate(([0.0], step_means)))[out_idx]
        summary = EnsembleSummary(
            times=times,
            mean_z=mean_z,
            mean_offdiag=mean_off,
            qv=qv,
            n_traj=n_traj,
            stderr_z=stderr_z,
            stderr_offdiag=stderr_off,
        )

    return EnsembleResult(
        config=cfg,
        n_traj=n_traj,
        final_z=final_z,
        summary=summary,
        single_z=single_z,
        single_xi=single_xi,
    )


def _stderr(s1: np.ndarray, s2: np.ndarray, n: int) -> np.ndarray:
    """Standard error of the mean from compensated sums of x and x^2."""
    var = np.clip((s2 - s1 * s1 / n) / (n - 1), 0.0, None)
    return np.sqrt(var / n)


# Scheme table: step(state, drive, dt, params) advances an (a, b) amplitude
# pair, or z for scalar schemes, by one step driven by xi (colored schemes) or
# dW; amplitude(state) feeds the quadratic variation; observe(state) returns
# (z, offdiag). Steps look the kernels up in this module's globals per call.


def _step_suv(s, xi, dt, p):
    return _renormalize(*_suv_heun(*s, xi, dt, p.J, p.G))


def _step_unnormalized(s, xi, dt, p):
    # An overflow surfaces as the named error below, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = _unnormalized_heun(*s, xi, dt, p.J, p.G)
    finite = np.isfinite(a) & np.isfinite(b)
    if not finite.all():
        row = int(np.argmin(finite))
        raise IntegratorInstabilityError("unnormalized amplitudes overflowed", row=row)
    return a, b


def _step_sse(s, dw, dt, p):
    return _renormalize(*_sse_em(*s, dw, dt, p.gamma))


def _step_white_strat(s, dw, dt, p):
    return _renormalize(*_white_strat_heun(*s, dw, dt, p.J, p.Deff))


def _step_white_ito(s, dw, dt, p):
    return _renormalize(*_white_ito_em(*s, dw, dt, p.J, p.Deff))


def _step_z_colored(z, xi, dt, p):
    return _z_colored_heun(z, xi, dt, p.J, p.G)


def _step_z_white(z, dw, dt, p):
    return _z_white_heun(z, dw, dt, p.J, p.Deff)


def _observe_normalized(s):
    a, b = s
    return a * a, a * b


def _observe_unnormalized(s):
    a, b = s
    nrm2 = a * a + b * b
    return a * a / nrm2, a * b / nrm2


def _observe_z(z):
    return z, np.sqrt(z) * np.sqrt(1.0 - z)


_first = itemgetter(0)
_SCHEMES = {
    Scheme.SUV_COLORED: (_step_suv, _first, _observe_normalized),
    Scheme.UNNORMALIZED_SUV: (_step_unnormalized, _first, _observe_unnormalized),
    Scheme.SSE: (_step_sse, _first, _observe_normalized),
    Scheme.WHITE_STRAT: (_step_white_strat, _first, _observe_normalized),
    Scheme.WHITE_ITO: (_step_white_ito, _first, _observe_normalized),
    Scheme.Z_COLORED: (_step_z_colored, np.sqrt, _observe_z),
    Scheme.Z_WHITE: (_step_z_white, np.sqrt, _observe_z),
}


def _integrate_chunk(cfg, streams, record_at, need_xi, first_index):
    """Integrate one lockstep batch (row 0 has stream index first_index)."""
    scheme = cfg.scheme
    step, amplitude, observe = _SCHEMES[scheme]
    p = cfg.params
    dt = cfg.dt
    n_steps = cfg.n_steps
    m = len(streams)
    record_series = bool(record_at.any())
    n_out = int(record_at.sum())

    colored = scheme.uses_colored_noise
    xi = advance = None
    if colored:
        xi, blocks = _draw_field(cfg.noise, streams, n_steps)
        if cfg.noise.kind is NoiseKind.OU:
            decay, sigma = _ou_coefficients(dt, cfg.noise.tau)
            advance = lambda x, n: _ou_update(x, decay, sigma, n)  # noqa: E731
        elif cfg.noise.kind is NoiseKind.SBM:
            advance = lambda x, n: _sbm_update(x, dt, cfg.noise.tau, n)  # noqa: E731
        else:  # a frozen field draws nothing: one empty block spans every step
            blocks = (np.empty((0, n_steps)),)
    else:
        blocks = _stream_normals(streams, n_steps)
        sqrt_dt = math.sqrt(dt)

    if scheme.is_scalar:
        state = np.full(m, cfg.z0)
    else:
        state = (np.full(m, math.sqrt(cfg.z0)), np.full(m, math.sqrt(1.0 - cfg.z0)))

    z_rows = np.empty((m, n_out)) if record_series else None
    off_rows = np.empty((m, n_out)) if record_series else None
    dq_rows = np.empty((m, n_steps)) if record_series else None
    xi_rows = np.empty((m, n_out)) if (need_xi and colored and record_series) else None

    def record(pos):
        z_rows[:, pos], off_rows[:, pos] = observe(state)
        if xi_rows is not None:
            xi_rows[:, pos] = xi

    pos = 0
    if record_series:  # the grid always starts at t = 0
        alpha = amplitude(state)
        record(0)
        pos = 1

    k = 0  # global step index across blocks
    try:
        for block in blocks:
            if not colored:
                block *= sqrt_dt  # dW = sqrt(dt) n
            for draws in block.T:
                state = step(state, xi if colored else draws, dt, p)
                if advance is not None:
                    xi = advance(xi, draws)
                if record_series:
                    new_alpha = amplitude(state)
                    delta = new_alpha - alpha
                    dq_rows[:, k] = delta * delta
                    alpha = new_alpha
                    if record_at[k + 1]:
                        record(pos)
                        pos += 1
                k += 1
    except IntegratorInstabilityError as exc:
        raise IntegratorInstabilityError(
            f"trajectory {first_index + exc.row}, step {k + 1}: {exc}"
        ) from exc

    return z_rows, off_rows, dq_rows, xi_rows, observe(state)[0]
