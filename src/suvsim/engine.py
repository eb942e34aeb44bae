"""Deterministic vectorized ensemble execution.

Trajectories are integrated in lockstep over chunks of the ensemble,
whose width the engine picks (see _MAX_CHUNK_WIDTH), but every
per-trajectory quantity is a pure function of (master seed, trajectory
index): each trajectory owns a private counter-based stream, and its draw
order is fixed by scheme and noise kind:

* colored schemes: the field draws of :func:`suvsim.noise._draw_field`, a
  steady-state initial value (standard normal for OU kinds, uniform for SBM
  kinds), then one standard normal per step for evolving kinds;
* Wiener-driven schemes: one standard normal per step (scaled by sqrt(dt)).

The per-step normals are drawn in time-major blocks of a few hundred steps
as the step loop reaches them, so a chunk holds one (block, m) buffer
rather than an (m, n_steps) matrix, and each step reads its draws as one
contiguous row. A counter-based stream yields the same sequence however
its draws are split into calls, so the block length changes no output bit.

Each scheme is one entry of a (step, amplitude, observe) table, looked up
once per chunk. The step loop allocates no arrays: once per chunk it sets up
a workspace of scratch vectors that the kernels compute in, and two state
buffers that the state alternates between, each step reading one and
writing the other (the field xi is advanced in place). The kernels perform
the same floating-point operations, in the same order, as plain array
expressions would.

Ensemble statistics are folded one trajectory at a time, in index order,
with compensated summation. One accumulator takes rows whose columns are
the recorded z, offdiag and squared amplitude increments followed by z^2
and offdiag^2, built a small tile of trajectories at a time; compensated
summation acts column by column, so this gives the bits of one fold per
series. Together these make every output bitwise independent of chunk
size and of how many trajectories run concurrently, and byte-identical
across repeated runs of the same configuration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
    _workspace,
    _z_colored_heun,
    _z_white_heun,
)
from .errors import IntegratorInstabilityError, InvalidParameterError
from .noise import NoiseKind, _draw_field, _ou_coefficients, _ou_update, _sbm_update
from .noise import _stream_normals
from .observables import CompensatedAccumulator, EnsembleSummary

__all__ = ["EnsembleResult", "derive_stream", "simulate_ensemble"]

# Chunk width: at most _MAX_CHUNK_WIDTH trajectories, and for a recorded run
# at most _CHUNK_ELEMENT_BUDGET elements of its (m, 2 n_out + n_steps)
# matrix of observations and squared amplitude increments (for the
# quadratic variation). A final-only run holds no such matrix, so its width
# does not depend on the horizon.
_MAX_CHUNK_WIDTH = 10_000
_CHUNK_ELEMENT_BUDGET = 20_000_000
# Trajectories per tile of the fold: the squared observations are formed
# for this many rows at a time, never for a whole chunk.
_FOLD_ROWS = 16


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

    summary is None when time series were not recorded. For a recorded
    ensemble of exactly one trajectory, summary.mean_z is that trajectory's
    z series bit for bit, and single_xi holds its field on the same grid
    (None for schemes without a colored field).
    """

    config: TrajectoryConfig
    n_traj: int
    final_z: np.ndarray
    summary: EnsembleSummary | None = None
    single_xi: np.ndarray | None = None


def simulate_ensemble(
    cfg: TrajectoryConfig,
    n_traj: int,
    decimation: int = 10,
    index_offset: int = 0,
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
    record_series : bool
        Record time series (means, stderrs, quadratic variation). Off for
        distribution-only runs, which keeps just the final z values.

    The engine sizes its own lockstep chunks (see _MAX_CHUNK_WIDTH); every
    output is bitwise the same for any chunk width.
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
        acc = CompensatedAccumulator(4 * n_out + n_steps)
        tile = np.empty((_FOLD_ROWS, 4 * n_out + n_steps))

    final_z = np.empty(n_traj)
    single_xi = None

    width = min(n_traj, _MAX_CHUNK_WIDTH)
    if record_series:
        width = max(1, min(width, _CHUNK_ELEMENT_BUDGET // (2 * n_out + n_steps)))

    for start in range(0, n_traj, width):
        m = min(width, n_traj - start)
        streams = [derive_stream(cfg.seed, index_offset + start + i) for i in range(m)]
        rows, xi_rows, fz = _integrate_chunk(
            cfg,
            streams,
            record_at,
            need_xi=(n_traj == 1),
            first_index=index_offset + start,
        )
        final_z[start : start + m] = fz
        if record_series:
            _fold(acc, rows, n_out, tile)
        if xi_rows is not None:
            single_xi = xi_rows[0].copy()

    summary = None
    if record_series:
        total = acc.total
        sum_z, sum_off = total[:n_out], total[n_out : 2 * n_out]
        sum_z2, sum_off2 = total[-2 * n_out : -n_out], total[-n_out:]
        mean_z = sum_z / n_traj
        mean_off = sum_off / n_traj
        if n_traj > 1:
            stderr_z = _stderr(sum_z, sum_z2, n_traj)
            stderr_off = _stderr(sum_off, sum_off2, n_traj)
        else:
            stderr_z = stderr_off = None
        step_means = np.maximum(total[2 * n_out : 2 * n_out + n_steps] / n_traj, 0.0)
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
        single_xi=single_xi,
    )


def _fold(acc, rows, n_out, tile):
    """Fold a chunk's [z | offdiag | dq] rows into acc as
    [z | offdiag | dq | z^2 | offdiag^2], a tile of rows at a time."""
    width = rows.shape[1]
    for first in range(0, len(rows), len(tile)):
        part = rows[first : first + len(tile)]
        block = tile[: len(part)]
        block[:, :width] = part
        np.multiply(part[:, : 2 * n_out], part[:, : 2 * n_out], out=block[:, width:])
        acc.add_rows(block)


def _stderr(s1: np.ndarray, s2: np.ndarray, n: int) -> np.ndarray:
    """Standard error of the mean from compensated sums of x and x^2."""
    var = np.clip((s2 - s1 * s1 / n) / (n - 1), 0.0, None)
    return np.sqrt(var / n)


# Scheme table: step(state, drive, dt, params, out, raw, ws) advances an
# (a, b) amplitude pair, or z for scalar schemes, by one step driven by xi
# (colored schemes) or dW into the state buffer ``out``, through the scratch
# pair ``raw`` (the step before renormalization) and the workspace ``ws``;
# amplitude(state, out) feeds the quadratic variation; observe(state, z,
# offdiag, ws) writes the observables. Steps look the kernels up in this
# module's globals per call.


def _step_suv(s, xi, dt, p, out, raw, ws):
    return _renormalize(*_suv_heun(*s, xi, dt, p.J, p.G, raw, ws), out, ws)


def _step_unnormalized(s, xi, dt, p, out, raw, ws):
    # An overflow surfaces as the named error below, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = _unnormalized_heun(*s, xi, dt, p.J, p.G, out, ws)
    t = ws[0]
    if not (np.abs(a, out=t).max() < math.inf and np.abs(b, out=t).max() < math.inf):
        finite = np.isfinite(a) & np.isfinite(b)
        row = int(np.argmin(finite))
        raise IntegratorInstabilityError("unnormalized amplitudes overflowed", row=row)
    return out


def _step_sse(s, dw, dt, p, out, raw, ws):
    return _renormalize(*_sse_em(*s, dw, dt, p.gamma, raw, ws), out, ws)


def _step_white_strat(s, dw, dt, p, out, raw, ws):
    return _renormalize(*_white_strat_heun(*s, dw, dt, p.J, p.Deff, raw, ws), out, ws)


def _step_white_ito(s, dw, dt, p, out, raw, ws):
    return _renormalize(*_white_ito_em(*s, dw, dt, p.J, p.Deff, raw, ws), out, ws)


def _step_z_colored(z, xi, dt, p, out, raw, ws):
    return _z_colored_heun(z, xi, dt, p.J, p.G, out, ws)


def _step_z_white(z, dw, dt, p, out, raw, ws):
    return _z_white_heun(z, dw, dt, p.J, p.Deff, out, ws)


def _amplitude_a(s, out):
    return s[0]


def _amplitude_z(z, out):
    return np.sqrt(z, out=out)


def _observe_normalized(s, z, off, ws):
    a, b = s
    np.multiply(a, a, out=z)
    np.multiply(a, b, out=off)


def _observe_unnormalized(s, z, off, ws):
    # a * a / nrm2, a * b / nrm2 with nrm2 = a * a + b * b
    a, b = s
    nrm2 = ws[0]
    np.multiply(a, a, out=z)
    np.multiply(b, b, out=off)
    np.add(z, off, out=nrm2)
    np.divide(z, nrm2, out=z)
    np.multiply(a, b, out=off)
    np.divide(off, nrm2, out=off)


def _observe_z(s, z, off, ws):
    # s, sqrt(s) * sqrt(1.0 - s)
    t = ws[0]
    np.copyto(z, s)
    np.sqrt(s, out=off)
    np.subtract(1.0, s, out=t)
    np.sqrt(t, out=t)
    np.multiply(off, t, out=off)


_SCHEMES = {
    Scheme.SUV_COLORED: (_step_suv, _amplitude_a, _observe_normalized),
    Scheme.UNNORMALIZED_SUV: (_step_unnormalized, _amplitude_a, _observe_unnormalized),
    Scheme.SSE: (_step_sse, _amplitude_a, _observe_normalized),
    Scheme.WHITE_STRAT: (_step_white_strat, _amplitude_a, _observe_normalized),
    Scheme.WHITE_ITO: (_step_white_ito, _amplitude_a, _observe_normalized),
    Scheme.Z_COLORED: (_step_z_colored, _amplitude_z, _observe_z),
    Scheme.Z_WHITE: (_step_z_white, _amplitude_z, _observe_z),
}


def _integrate_chunk(cfg, streams, record_at, need_xi, first_index):
    """Integrate one lockstep batch (row 0 has stream index first_index).

    Returns the recorded (m, 2 n_out + n_steps) matrix with columns
    [z | offdiag | squared amplitude increments] (None for a final-only
    run), the recorded field rows (or None) and the final z of every row.
    """
    scheme = cfg.scheme
    step, amplitude, observe = _SCHEMES[scheme]
    p = cfg.params
    dt = cfg.dt
    n_steps = cfg.n_steps
    m = len(streams)
    record_series = bool(record_at.any())
    n_out = int(record_at.sum())

    ws = _workspace(m)
    colored = scheme.uses_colored_noise
    xi = advance = None
    if colored:
        xi, blocks = _draw_field(cfg.noise, streams, n_steps)
        if cfg.noise.kind is NoiseKind.OU:
            decay, sigma = _ou_coefficients(dt, cfg.noise.tau)
            advance = lambda x, n: _ou_update(x, decay, sigma, n, x, ws)  # noqa: E731
        elif cfg.noise.kind is NoiseKind.SBM:
            advance = lambda x, n: _sbm_update(x, dt, cfg.noise.tau, n, x, ws)  # noqa: E731
        else:  # a frozen field draws nothing: one empty block spans every step
            blocks = (np.empty((n_steps, 0)),)
    else:
        blocks = _stream_normals(streams, n_steps)
        sqrt_dt = math.sqrt(dt)

    # The state alternates between two buffers: a step reads one and writes
    # the other, so the previous amplitude stays intact for the increment.
    if scheme.is_scalar:
        state, spare, raw = np.full(m, cfg.z0), np.empty(m), None
    else:
        state = (np.full(m, math.sqrt(cfg.z0)), np.full(m, math.sqrt(1.0 - cfg.z0)))
        spare, raw = (np.empty(m), np.empty(m)), (np.empty(m), np.empty(m))

    rows = np.empty((m, 2 * n_out + n_steps)) if record_series else None
    xi_rows = np.empty((m, n_out)) if (need_xi and colored and record_series) else None
    if record_series:
        z_rows, off_rows, dq_rows = np.split(rows, [n_out, 2 * n_out], axis=1)

    def record(pos):
        observe(state, z_rows[:, pos], off_rows[:, pos], ws)
        if xi_rows is not None:
            xi_rows[:, pos] = xi

    pos = 0
    if record_series:  # the grid always starts at t = 0
        alpha, alpha_spare = amplitude(state, np.empty(m)), np.empty(m)
        record(0)
        pos = 1

    k = 0  # global step index across blocks
    try:
        for block in blocks:
            if not colored:
                block *= sqrt_dt  # dW = sqrt(dt) n
            for draws in block:
                step(state, xi if colored else draws, dt, p, spare, raw, ws)
                state, spare = spare, state
                if advance is not None:
                    advance(xi, draws)
                if record_series:
                    new_alpha = amplitude(state, alpha_spare)
                    delta = np.subtract(new_alpha, alpha, out=ws[0])
                    np.multiply(delta, delta, out=dq_rows[:, k])
                    alpha, alpha_spare = new_alpha, alpha
                    if record_at[k + 1]:
                        record(pos)
                        pos += 1
                k += 1
    except IntegratorInstabilityError as exc:
        raise IntegratorInstabilityError(
            f"trajectory {first_index + exc.row}, step {k + 1}: {exc}"
        ) from exc

    final_z = np.empty(m)
    observe(state, final_z, ws[1], ws)
    return rows, xi_rows, final_z
