"""Deterministic vectorized ensemble execution.

Trajectories are integrated in lockstep over chunks of the ensemble,
whose width the engine picks (see _MAX_CHUNK_WIDTH), but every
per-trajectory quantity is a pure function of (master seed, trajectory
index): trajectory i reads lane i % 16 of the stream of group i // 16
(:func:`derive_stream`). A stream draws all 16 lanes in every call, in an
order fixed by scheme and noise kind:

* colored schemes: the field draws of :func:`_field`, 16 steady-state
  values (standard normal for OU kinds, uniform for SBM kinds), then
  16 standard normals per step for evolving kinds;
* Wiener-driven schemes: 16 standard normals per step (scaled by sqrt(dt)).

Each stream draws its per-step normals a few hundred steps at a time, into
its own contiguous part of one group-major slab, and each step gathers its
slice of the slab into one contiguous row. The contract relies on one
property of the streams: each is keyed on (seed, group), drawn from its
start, and yields the same sequence however its draws are split into
calls, so neither the block length nor the cut of the chunks changes an
output bit. :func:`_field` is the one setup of a field's draws and advance,
for the chunks and for :func:`simulate_paths`.

Each scheme is one entry of a (step, amplitude, observe) table, looked up
once per chunk. The step loop allocates no arrays: once per chunk it sets up
a workspace of scratch rows that the kernels compute in, and a state and
its spare, each step reading one and writing the other (the field xi is
advanced in place). An amplitude state is one (2, m) array with rows a
and b, as is each scratch pair, so every kernel applies sigma3 - m to
both rows in one call (see the kernel comment in :mod:`suvsim.dynamics`
for why row b keeps its bits). The kernels perform the same
floating-point operations, in the same order, as plain array expressions
would. The one exception is a chunk whose rows step with different J
under a white-noise scheme: its amplitude kernels form the scaled
coupling 0.5 J, and z-scalar-white 2 J, as a temporary vector on every
call.

Ensemble statistics are reduced in an order fixed by trajectory index
(:mod:`suvsim.observables`): a chunk holds whole stream groups (an
ensemble's first and last may be partial) and returns one row of sums per
group, added in index order as it steps, and the caller folds the rows in
group order with compensated summation. So every output is bitwise
independent of chunk width and worker count, and byte-identical across
repeated runs. A recorded chunk's rows hold its groups' recorded z,
offdiag, z^2 and offdiag^2 and squared amplitude increments; noise
validation's chunks of :func:`simulate_paths` paths give rows of lag sums.

The one public entry point is :func:`simulate`, which runs all the
ensembles of a call, recorded or final-only, on one task list:
:func:`_tasks` cuts them into chunks of whole groups, the cells of a sweep
sharing chunks, and :func:`_chunk` steps each chunk, deriving the streams
of its groups, on the W workers that :func:`_map_in_workers` forks for
the call: each worker steps every W-th chunk and sends each result
through a pipe of its own, and the caller reads them back in task order.
Noise validation cuts its path sets with the same :func:`_tasks` onto the
same workers. A recorded chunk never records the field: a one-trajectory
run's field is the path :func:`simulate_paths` gives at its index. The
worker count changes no chunk width, so no output bit and no error
message depends on it.
"""
from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import threading
import time
from dataclasses import replace
from itertools import accumulate, repeat

import numpy as np

from .dynamics import (
    Scheme,
    TrajectoryConfig,
    _aligned_rows,
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
from .errors import (
    IntegratorInstabilityError,
    InvalidParameterError,
    NotApplicableError,
    SimulationError,
    check_integer,
)
from .noise import NoiseKind, _ou_coefficients, _ou_update, _sbm_update, steady_samples
from .observables import _FOLD_ROWS, CompensatedAccumulator, EnsembleSummary, _fold_groups

__all__ = ["derive_stream", "simulate", "simulate_paths"]

# Chunk width: at most _MAX_CHUNK_WIDTH trajectories, and for a recorded run
# at most _CHUNK_ELEMENT_BUDGET elements of the (groups, 4 n_out + n_steps)
# group sums a chunk returns. A chunk is at least one group of _FOLD_ROWS,
# whatever the cap.
_MAX_CHUNK_WIDTH = 10_000
_CHUNK_ELEMENT_BUDGET = 20_000_000
# Independent units of work run on at most this many forked worker processes.
_MAX_WORKERS = 2
# True in a forked worker of _map_in_workers, whose own calls run in-process.
_in_worker = False
# Time steps per block of drawn normals and per fold of a recorded chunk's
# held rows, so a chunk holds (_BLOCK_STEPS, m) buffers, not (n_steps, m)
# matrices. A Philox stream's sequence and a group sum's order do not depend
# on how the steps are split, so this sets memory only.
_BLOCK_STEPS = 256


def derive_stream(master_seed: int, group_index: int) -> np.random.Generator:
    """Random stream of group g, whose lanes 0 to 15 are the draws of
    trajectories 16 g to 16 g + 15: a counter-based generator (Philox) keyed
    on (seed, g), so streams are statistically independent across groups,
    reproducible, and independent of execution order.
    """
    for name, value in (("master_seed", master_seed), ("group_index", group_index)):
        check_integer(name, value, 0)
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(group_index,))
    return np.random.Generator(np.random.Philox(seq))


def simulate_paths(model, n_steps: int, dt: float, seed: int, first_index: int, n: int):
    """Steady-state noise paths, time-major: an iterator over n_steps + 1
    (1, n) blocks, one per grid point from t = 0.

    Column r is the path of stream index i = first_index + r (lane i % 16 of
    group i // 16), drawn and advanced by :func:`_field` as the field of a
    colored ensemble is: a pure function of seed, i, model, dt and n_steps,
    whatever other paths run alongside it, and the field of a one-trajectory
    colored run at index_offset i. Each block is a view of the field that
    the next step advances in place (a frozen kind's never changes), so a
    consumer reads (or copies) each block before it asks for the next. The
    arguments are checked, and the steady-state values drawn, at the call.
    """
    if model.kind is NoiseKind.NONE:
        raise NotApplicableError("cannot simulate paths for noise kind 'none'")
    for name, value in (("n_steps", n_steps), ("seed", seed), ("first_index", first_index)):
        check_integer(name, value, 0)
    check_integer("n", n, 1)
    if not dt > 0:
        raise InvalidParameterError(f"dt must be positive, got {dt}")
    ws = _aligned_rows(2, n)
    xi, rows, advance = _field(model, dt, seed, first_index, n, n_steps, ws)

    def paths():
        block = xi[None]
        yield block
        for normals in rows:
            if advance is not None:
                advance(normals)
            yield block

    return paths()


def simulate(jobs) -> list:
    """Run each job's ensemble and reduce it deterministically: per job, in
    order, an EnsembleSummary if it is recorded, its array of final z if not.

    A job is ``(cfg, n_traj, index_offset, decimation)``; trajectory i has
    the stream index index_offset + i, so disjoint offsets draw independent
    ensembles under one master seed. A recorded job records every
    ``decimation`` steps and at the last. A final-only job (decimation None)
    gives, as the final z of trajectory i, the last mean_z of the recorded
    job ``(cfg, 1, index_offset + i, d)`` bit for bit. With one trajectory,
    mean_z is its z series and its field the path of :func:`simulate_paths`
    at its index. No output bit depends on the chunk width, the worker
    count or the other jobs of the call.

    Consecutive final-only jobs that :func:`_continues` joins (the cells of
    a sweep) share lockstep chunks. :func:`_tasks` cuts every job into
    chunks, all stepped in one :func:`_map_in_workers` call whose consumer
    folds each recorded chunk into its job's sums as it arrives. A malformed
    job raises an InvalidParameterError naming its position before any
    chunk steps. The IntegratorInstabilityError raised is the first failing
    chunk's in job and index order, as in a serial run; a shared chunk's
    names its earliest failing step and, at it, the lowest failing row.
    """
    runs = []  # (jobs that share chunks, record_at or None, chunk cap, results)
    for k, job in enumerate(jobs):
        try:
            cfg, n_traj, index_offset, decimation = job
        except (TypeError, ValueError) as exc:
            raise InvalidParameterError(
                f"job {k} is not (cfg, n_traj, index_offset, decimation or None): {exc}"
            ) from None
        if not isinstance(cfg, TrajectoryConfig):
            raise InvalidParameterError(
                f"job {k}: cfg must be a TrajectoryConfig, got {type(cfg).__name__}"
            )
        check_integer("n_traj", n_traj, 1)
        check_integer("index_offset", index_offset, 0)
        if decimation is not None:
            check_integer("decimation", decimation, 1)
            record_at = _record_at(cfg.n_steps, decimation)
            width = 4 * np.count_nonzero(record_at) + cfg.n_steps  # of the group sums
            cap = min(_MAX_CHUNK_WIDTH, _FOLD_ROWS * (_CHUNK_ELEMENT_BUDGET // width))
            runs.append(([job], record_at, cap, CompensatedAccumulator(width)))
        elif runs and runs[-1][1] is None and _continues(runs[-1][0][-1], job):
            runs[-1][0].append(job)
        else:
            runs.append(([job], None, _MAX_CHUNK_WIDTH, []))

    tasks, takers = [], []
    for run, record_at, cap, sink in runs:
        take = sink.append if record_at is None else sink.add_rows
        for task in _tasks(run, cap, record_at):
            tasks.append(task)
            takers.append(take)

    def consume(results):  # each chunk's result as it arrives, in task order
        take = iter(takers)
        for result in results:
            next(take)(result)
            del result  # not held while the next chunk steps

    _map_in_workers(_chunk, tasks, consume)
    out = []
    for run, record_at, _, sink in runs:
        if record_at is None:  # the chunks' rows are the run's jobs' rows in job order
            out += np.split(np.concatenate(sink), list(accumulate(job[1] for job in run))[:-1])
            continue
        (cfg, n_traj, _, _), total = run[0], sink.total
        out_idx = np.flatnonzero(record_at)
        sum_z, sum_off, sum_z2, sum_off2 = total[: 4 * out_idx.size].reshape(4, -1)
        step_means = np.maximum(total[4 * out_idx.size :] / n_traj, 0.0)
        out.append(EnsembleSummary(
            times=out_idx * cfg.dt, mean_z=sum_z / n_traj, mean_offdiag=sum_off / n_traj,
            qv=np.cumsum(np.concatenate(([0.0], step_means)))[out_idx], n_traj=n_traj,
            stderr_z=_stderr(sum_z, sum_z2, n_traj),
            stderr_offdiag=_stderr(sum_off, sum_off2, n_traj),
        ))
    return out


def _continues(prev, job):
    """True when the final-only ``job`` can share lockstep chunks with the
    job ``prev`` before it: their configs differ at most in z0 and J, which
    a chunk holds per row, and job's stream indices start where prev's end."""
    (a, n, offset, _), (b, _, next_offset, _) = prev, job
    key = lambda c: {**vars(c), "z0": None, "params": {**vars(c.params), "J": None}}  # noqa: E731
    return next_offset == offset + n and key(a) == key(b)


def _record_at(n_steps, decimation):
    """Mask of the recorded grid points: every decimation-th step, and the last."""
    record_at = np.zeros(n_steps + 1, dtype=bool)
    record_at[::decimation] = True
    record_at[n_steps] = True
    return record_at


def _tasks(run, cap, record_at):
    """Yield the chunks ``(cells, first_index, record_at)`` of a run of jobs
    that share lockstep chunks: ceil(groups / max(1, cap // _FOLD_ROWS))
    chunks of the stream groups the run touches, that differ by at most one
    group. ``cells`` holds ``(cfg, rows)`` pairs in row order; the rows are
    the stream indices first_index, first_index + 1, ..."""
    ends = list(accumulate(n for _, n, *_ in run))
    first, total = int(run[0][2]), ends[-1]
    lane = first % _FOLD_ROWS
    groups = (lane + total - 1) // _FOLD_ROWS + 1
    k = -(-groups // max(1, cap // _FOLD_ROWS))
    bounds = [min(total, max(0, groups * i // k * _FOLD_ROWS - lane)) for i in range(k + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        cells = tuple(
            (cfg, min(hi, end) - max(lo, end - n))
            for (cfg, n, *_), end in zip(run, ends)
            if end - n < hi and end > lo
        )
        yield cells, first + lo, record_at


def _chunk(task):
    """Step one chunk ``(cells, first_index, record_at)`` of :func:`_tasks`,
    recorded or final-only alike. Each row starts from its own cell's z0, as
    a float, and a per-row J is passed only when the cells' J values differ,
    so a chunk of one config steps with scalar J. A MemoryError becomes a
    SimulationError that names the chunk, in a worker as in the caller."""
    cells, first, record_at = task
    cfg = cells[0][0]
    counts = [rows for _, rows in cells]
    z0 = np.repeat(np.array([c.z0 for c, _ in cells], dtype=float), counts)
    couplings = [c.params.J for c, _ in cells]
    J = np.repeat(couplings, counts) if len(set(couplings)) > 1 else None
    try:
        return _integrate_chunk(cfg, z0, record_at, first, J)
    except MemoryError as exc:
        raise SimulationError(
            f"out of memory stepping the chunk of {len(z0)} trajectories from trajectory {first}"
        ) from exc


def _map_in_workers(fn, tasks, consume=list):
    """``consume(results)``, where ``results`` iterates over ``fn(task)`` for
    every task, in task order; the default returns the results as a list.

    The tasks run on W = min(_MAX_WORKERS, usable cores, tasks) worker
    processes forked for the call, or in the calling process when W is
    below 2, or the caller is itself one of these workers or a daemonic
    ``multiprocessing`` process. Worker w steps tasks w, w + W, w + 2W, ...
    and pickles ``(ok, result or exception)`` into a pipe of its own after
    each; it stops after its first failure. The caller reads task i from
    worker i mod W, so ``results`` yields each result as soon as it and
    every earlier one have arrived, and ``consume``, which runs in the
    calling process, can fold one while later tasks run. Results must
    pickle; ``fn`` need not, since the workers are forked. The error
    raised is that of the first failing task in task order, the one a
    serial run raises. Once ``consume`` returns or raises, or a task
    fails, the workers still running are killed, and every worker is
    reaped before the call returns. A worker that ends abruptly (killed by
    the OOM killer, say) raises a SimulationError, as does a result or an
    exception that cannot be pickled, naming its task; a killed caller's
    workers exit (:func:`_exit_with_parent`).
    """
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(_MAX_WORKERS, len(affinity(0)), len(tasks)) if affinity else 1
    mp = sys.modules.get("multiprocessing")  # imported by any daemonic caller
    if workers < 2 or _in_worker or (mp is not None and mp.current_process().daemon):
        return consume(map(fn, tasks))
    caller, pids, pipes = os.getpid(), [], []
    try:
        for w in range(workers):
            fd, out = os.pipe()
            pipes.append(open(fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, tasks, w, workers, out, pipes, caller)
            finally:  # in the caller: a worker leaves through _serve's os._exit
                os.close(out)
            pids.append(pid)
        return consume(_results(pipes, len(tasks)))
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _serve(fn, tasks, w, workers, out, pipes, caller):
    """The life of forked worker w of :func:`_map_in_workers`: step tasks
    w, w + W, ... (W = ``workers``), writing each one's pickled ``(ok,
    result or exception)`` to the pipe ``out``, until the first failure.
    It closes the read ends it inherited and always leaves through
    os._exit, so it never returns into the caller's code."""
    global _in_worker
    try:
        _in_worker = True
        for pipe in pipes:
            os.close(pipe.fileno())
        _exit_with_parent(caller)
        with open(out, "wb") as sink:
            for i in range(w, len(tasks), workers):
                try:
                    ok, value = True, fn(tasks[i])
                except Exception as exc:
                    ok, value = False, exc
                try:
                    data = pickle.dumps((ok, value), pickle.HIGHEST_PROTOCOL)
                except Exception as exc:
                    what = "result of" if ok else f"{type(value).__name__} raised by"
                    error = SimulationError(f"the {what} task {i} cannot be pickled: {exc}")
                    ok, data = False, pickle.dumps((False, error))
                sink.write(data)
                sink.flush()
                if not ok:
                    break
                del value, data  # not held while the next task steps
    finally:
        os._exit(0)


def _results(pipes, n):
    """The n results of :func:`_map_in_workers`' workers, task i read from
    ``pipes[i % len(pipes)]``: each is yielded and dropped before the next
    is read; a failed task's exception is raised."""
    for i in range(n):
        try:
            ok, value = pickle.load(pipes[i % len(pipes)])
        except (EOFError, pickle.UnpicklingError):  # nothing more, or a truncated pickle
            raise SimulationError("a worker process ended abruptly") from None
        if not ok:
            raise value
        yield value
        del value


def _exit_with_parent(parent):
    """Worker set-up: a daemon thread ends the worker, idle or busy, once
    its parent ``parent`` is gone. No thread runs in the caller."""
    def watch():
        while os.getppid() == parent:
            time.sleep(0.25)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _stderr(s1: np.ndarray, s2: np.ndarray, n: int) -> np.ndarray | None:
    """Standard error of the mean from compensated sums of x and x^2 over n
    samples, or None for one sample."""
    if n == 1:
        return None
    var = np.clip((s2 - s1 * s1 / n) / (n - 1), 0.0, None)
    return np.sqrt(var / n)


# Scheme table: step(state, drive, dt, params, out, raw, ws) advances a
# (2, m) amplitude state with rows a and b, or z for scalar schemes, by one
# step driven by xi (colored schemes) or dW into the state buffer ``out``,
# through the scratch pair ``raw`` (the step before renormalization) and
# the workspace ``ws``; amplitude(state, out) feeds the quadratic
# variation; observe(state, obs, ws) writes z and offdiag into the rows of
# the (2, m) pair ``obs``. Steps look the kernels up in this module's
# globals per call.


def _step_suv(s, xi, dt, p, out, raw, ws):
    return _renormalize(_suv_heun(s, xi, dt, p.J, p.G, raw, ws), out, ws)


def _step_unnormalized(s, xi, dt, p, out, raw, ws):
    # An overflow surfaces as the named error below, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        _unnormalized_heun(s, xi, dt, p.J, p.G, out, ws)
    if not np.abs(out, out=ws[0:2]).max() < math.inf:
        row = int(np.argmin(np.isfinite(out).all(axis=0)))
        raise IntegratorInstabilityError("unnormalized amplitudes overflowed", row=row)
    return out


def _step_sse(s, dw, dt, p, out, raw, ws):
    return _renormalize(_sse_em(s, dw, dt, p.gamma, raw, ws), out, ws)


def _step_white_strat(s, dw, dt, p, out, raw, ws):
    return _renormalize(_white_strat_heun(s, dw, dt, p.J, p.Deff, raw, ws), out, ws)


def _step_white_ito(s, dw, dt, p, out, raw, ws):
    return _renormalize(_white_ito_em(s, dw, dt, p.J, p.Deff, raw, ws), out, ws)


def _step_z_colored(z, xi, dt, p, out, raw, ws):
    return _z_colored_heun(z, xi, dt, p.J, p.G, out, ws)


def _step_z_white(z, dw, dt, p, out, raw, ws):
    return _z_white_heun(z, dw, dt, p.J, p.Deff, out, ws)


def _amplitude_a(s, out):
    return s[0]


def _amplitude_z(z, out):
    return np.sqrt(z, out=out)


def _observe_normalized(s, obs, ws):
    # a * a, a * b
    np.multiply(s[0], s, out=obs)


def _observe_unnormalized(s, obs, ws):
    # (a * a, a * b) / nrm2 with nrm2 = a * a + b * b
    nrm2 = ws[0]
    np.multiply(s, s, out=obs)
    np.add(obs[0], obs[1], out=nrm2)
    np.multiply(s[0], s[1], out=obs[1])
    np.divide(obs, nrm2, out=obs)


def _observe_z(s, obs, ws):
    # s, sqrt(s) * sqrt(1.0 - s)
    z, off = obs
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


def _padded_row(groups, lane):
    """An uninitialized row of ``groups`` runs of _FOLD_ROWS lanes, one per
    group stream, whose element ``lane`` starts on a 64-byte cache line."""
    return _aligned_rows(1, groups * _FOLD_ROWS + 8)[0][-lane % 8 :][: groups * _FOLD_ROWS]


def _stream_normals(streams, lane, m, n_steps: int, scale=None):
    """Yield the standard normals (times ``scale``, if given) of ``n_steps``
    steps, one m-wide row per step whose column c is lane (lane + c) % 16
    of stream (lane + c) // 16. Per block of at most _BLOCK_STEPS steps,
    each stream draws its (steps, 16) part of a group-major slab in one
    call, and each step gathers its slice of the slab into one
    :func:`_padded_row`, which the next step overwrites, so a consumer uses
    (or copies) each row before asking for the next."""
    groups, width = len(streams), min(n_steps, _BLOCK_STEPS)
    slab = _aligned_rows(groups, width * _FOLD_ROWS).reshape(groups, width, _FOLD_ROWS)
    row = _padded_row(groups, lane)
    gather, draws = row.reshape(-1, _FOLD_ROWS), row[lane : lane + m]
    for start in range(0, n_steps, _BLOCK_STEPS):
        steps = min(_BLOCK_STEPS, n_steps - start)
        for g, part in zip(streams, slab[:, :steps]):
            g.standard_normal(out=part)
            if scale is not None:
                np.multiply(part, scale, out=part)
        for s in range(steps):
            np.copyto(gather, slab[:, s])
            yield draws


def _field(model, dt, seed, first, m, n_steps, ws):
    """``(xi, rows, advance)``: the draws of the m trajectories from stream
    index ``first`` on, from the streams of the groups they touch.

    For a field ``model``, each stream draws _FOLD_ROWS steady-state values,
    whose lanes make up ``xi`` (uniform on [-1, 1] for bounded kinds,
    N(0, 1) otherwise), then, if the kind evolves, the normals of the
    :func:`_stream_normals` rows. ``advance(normals)`` steps ``xi`` in place
    through the scratch vectors ``ws``, looking the update kernels up in
    this module's globals on every call. A frozen field draws nothing more:
    ``advance`` is None and ``rows`` yields None for each of the n_steps.
    With ``model`` None (a Wiener-driven scheme), ``xi`` and ``advance``
    are None and the rows are the Wiener increments sqrt(dt) n.
    """
    g0, lane = divmod(int(first), _FOLD_ROWS)
    streams = [derive_stream(seed, g0 + g) for g in range((lane + m - 1) // _FOLD_ROWS + 1)]
    if model is None:
        return None, _stream_normals(streams, lane, m, n_steps, math.sqrt(dt)), None
    row = _padded_row(len(streams), lane)
    row.reshape(-1, _FOLD_ROWS)[:] = [steady_samples(model, _FOLD_ROWS, g) for g in streams]
    xi = row[lane : lane + m]
    if model.kind.is_frozen:
        return xi, repeat(None, n_steps), None
    if model.kind is NoiseKind.OU:
        decay, sigma = _ou_coefficients(dt, model.tau)
        advance = lambda n: _ou_update(xi, decay, sigma, n, xi, ws)  # noqa: E731
    else:
        advance = lambda n: _sbm_update(xi, dt, model.tau, n, xi, ws)  # noqa: E731
    return xi, _stream_normals(streams, lane, m, n_steps), advance


def _integrate_chunk(cfg, z0, record_at, first_index, J):
    """Integrate one lockstep batch (row 0 has stream index first_index).

    ``z0`` is the per-row float array of initial populations, and ``J``,
    when not None, a per-row array that replaces cfg.params.J. A per-row J
    enters the kernels where a scalar would, as one operand of an
    elementwise product, so each row steps with the bits of a run of its
    own; the same holds for the per-row z0, since np.sqrt and math.sqrt are
    both correctly rounded.

    Returns one array. With a grid ``record_at``, it is the chunk's (groups,
    4 n_out + n_steps) group sums: per group it touches, the sums of
    [z | offdiag | z^2 | offdiag^2] on that grid and of every step's
    squared amplitude increment, added one row at a time in index order:
    the loop holds them time-major and :func:`_fold_groups` adds them in
    every _BLOCK_STEPS steps and at the last. A final-only chunk
    (``record_at`` None) returns the final z of every row.
    """
    scheme = cfg.scheme
    step, amplitude, observe = _SCHEMES[scheme]
    p = cfg.params if J is None else replace(cfg.params, J=J)
    dt, n_steps = cfg.dt, cfg.n_steps
    m, lane = len(z0), first_index % _FOLD_ROWS

    ws = _workspace(m)
    colored = scheme.uses_colored_noise
    noise = cfg.noise if colored else None
    xi, rows, advance = _field(noise, dt, cfg.seed, first_index, m, n_steps, ws)

    # The state alternates between two buffers: a step reads one and writes
    # the other, so the previous amplitude stays intact for the increment.
    # An amplitude state, its spare and the scratch pair are (2, m) arrays.
    if scheme.is_scalar:
        state, spare = _aligned_rows(2, m)
        np.copyto(state, z0)
        raw = None
    else:
        state, spare, raw = _aligned_rows(6, m).reshape(3, 2, m)
        state[0], state[1] = z0, 1.0 - z0
        np.sqrt(state, out=state)

    sums = None
    if record_at is not None:  # the grid always starts at t = 0
        out_idx = np.flatnonzero(record_at)
        n_out = out_idx.size
        sums = np.empty(((lane + m - 1) // _FOLD_ROWS + 1, 4 * n_out + n_steps))
        grid = sums[:, : 4 * n_out].reshape(-1, 4, n_out).transpose(1, 2, 0)
        increments = sums[:, 4 * n_out :].T
        # the most grid points per fold; t = 0 folds with the first steps
        held = np.bincount(np.maximum(out_idx - 1, 0) // _BLOCK_STEPS).max()
        obs = _aligned_rows(2 * held, m).reshape(2, held, m)  # z, offdiag
        dq = _aligned_rows(min(n_steps, _BLOCK_STEPS), m)
        alpha, alpha_spare = _aligned_rows(2, m)
        alpha = amplitude(state, alpha)
        observe(state, obs[:, 0], ws)
        pos, done = 1, 0  # grid points held, and folded

    k = 0  # steps taken
    try:
        for draws in rows:
            step(state, xi if colored else draws, dt, p, spare, raw, ws)
            state, spare = spare, state
            if advance is not None:
                advance(draws)
            k += 1
            if sums is not None:
                new_alpha = amplitude(state, alpha_spare)
                delta = np.subtract(new_alpha, alpha, out=ws[0])
                np.multiply(delta, delta, out=dq[(k - 1) % _BLOCK_STEPS])
                alpha, alpha_spare = new_alpha, alpha
                if record_at[k]:
                    observe(state, obs[:, pos], ws)
                    pos += 1
                if k % _BLOCK_STEPS == 0 or k == n_steps:
                    first = (k - 1) // _BLOCK_STEPS * _BLOCK_STEPS
                    _fold_groups(dq[: k - first], increments[first:k], lane)
                    rec = obs[:, :pos]
                    _fold_groups(rec, grid[:2, done : done + pos], lane)
                    _fold_groups(np.square(rec, out=rec), grid[2:, done : done + pos], lane)
                    pos, done = 0, done + pos
    except IntegratorInstabilityError as exc:
        raise IntegratorInstabilityError(
            f"trajectory {first_index + exc.row}, step {k + 1}: {exc}"
        ) from exc

    if sums is not None:
        return sums
    final = np.empty((2, m))  # z, offdiag
    observe(state, final, ws)
    return final[0]
