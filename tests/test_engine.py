"""Tests of the vectorized ensemble engine: stream derivation, bitwise
agreement with a per-step replay through the step kernels, determinism
under chunking, worker counts, offsets, and reruns, the reduction order
of recorded runs, mirror symmetry, and the lifetime of the worker
processes, for the chunks and for noise-validation's noise path sets."""
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from conftest import child_pids, first_overflow, lane_draws, overflow_steps, path_matrix

import suvsim.engine as engine
import suvsim.experiments as experiments
from suvsim import (
    IntegratorInstabilityError,
    InvalidParameterError,
    NoiseKind,
    NoiseModel,
    PhysicsParams,
    Scheme,
    SimulationError,
    TrajectoryConfig,
    derive_stream,
    make_config,
    run_experiment,
    simulate,
    simulate_paths,
    steady_samples,
)
from suvsim.dynamics import (
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
from suvsim.cli import main
from suvsim.engine import _BLOCK_STEPS
from suvsim.noise import _ou_coefficients, _ou_update, _sbm_update


def _cfg(scheme, kind=NoiseKind.OU, tau=1.0, seed=123, dt=1e-3, T=0.02, z0=0.6,
         J=2.0, G=1.0, gamma=0.5, Deff=0.0):
    return TrajectoryConfig(
        params=PhysicsParams(J=J, G=G, gamma=gamma, Deff=Deff),
        noise=NoiseModel(kind=kind, tau=tau),
        dt=dt,
        T=T,
        z0=z0,
        scheme=scheme,
        seed=seed,
    )


def test_derive_stream_is_deterministic_and_index_separated():
    assert derive_stream(7, 3).standard_normal() == derive_stream(7, 3).standard_normal()
    assert derive_stream(7, 3).standard_normal() != derive_stream(7, 4).standard_normal()
    assert derive_stream(7, 3).standard_normal() != derive_stream(8, 3).standard_normal()
    with pytest.raises(InvalidParameterError):
        derive_stream(-1, 0)
    with pytest.raises(InvalidParameterError):
        derive_stream(0, -1)


def _replay(cfg, index=0):
    """Step trajectory ``index`` alone, one scalar normal per step.

    The engine draws each group stream's normals in time blocks of all 16
    lanes; this replay takes trajectory ``index``'s lane of them
    (:func:`lane_draws`, after the steady-state field value of a colored
    scheme) and steps one-trajectory arrays through the kernels, into fresh
    buffers at every step. Returns the state after every step, initial
    state first, as (2, 1) amplitude arrays or (z,) tuples, and the field
    value the next step would see.
    """
    p, dt, kind, tau = cfg.params, cfg.dt, cfg.noise.kind, cfg.noise.tau

    def pair():
        return np.empty((2, 1))

    def norm(s):
        return _renormalize(s, pair(), _workspace(1))

    step = {
        Scheme.SUV_COLORED: lambda s, d: norm(_suv_heun(s, d, dt, p.J, p.G, pair(), _workspace(1))),
        Scheme.UNNORMALIZED_SUV: lambda s, d: _unnormalized_heun(s, d, dt, p.J, p.G, pair(), _workspace(1)),
        Scheme.SSE: lambda s, d: norm(_sse_em(s, d, dt, p.gamma, pair(), _workspace(1))),
        Scheme.WHITE_STRAT: lambda s, d: norm(_white_strat_heun(s, d, dt, p.J, p.Deff, pair(), _workspace(1))),
        Scheme.WHITE_ITO: lambda s, d: norm(_white_ito_em(s, d, dt, p.J, p.Deff, pair(), _workspace(1))),
        Scheme.Z_COLORED: lambda s, d: (_z_colored_heun(s[0], d, dt, p.J, p.G, np.empty(1), _workspace(1)),),
        Scheme.Z_WHITE: lambda s, d: (_z_white_heun(s[0], d, dt, p.J, p.Deff, np.empty(1), _workspace(1)),),
    }[cfg.scheme]
    colored = cfg.scheme.uses_colored_noise
    steady = ("uniform" if kind.is_bounded else "normal") if colored else None
    value, normals = lane_draws(cfg.seed, index, cfg.n_steps, steady)
    xi = np.array([value]) if colored else None
    if cfg.scheme.is_scalar:
        state = (np.array([cfg.z0]),)
    else:
        state = np.array([[math.sqrt(cfg.z0)], [math.sqrt(1.0 - cfg.z0)]])
    states, xis = [state], [xi]
    for normal in normals:
        if not colored:
            state = step(state, math.sqrt(dt) * normal)
        else:
            state = step(state, xi)
            if kind is NoiseKind.OU:
                xi = _ou_update(xi, *_ou_coefficients(dt, tau), normal, np.empty(1), pair())
            elif kind is NoiseKind.SBM:
                xi = _sbm_update(xi, dt, tau, normal, np.empty(1), pair())
        states.append(state)
        xis.append(xi)
    return states, xis


def _z(scheme, state):
    """Population z of a replayed state, computed as the engine observes it."""
    if scheme.is_scalar:
        return state[0][0]
    a, b = state[0][0], state[1][0]
    return a * a / (a * a + b * b) if scheme is Scheme.UNNORMALIZED_SUV else a * a


def _assert_engine_matches_replay(cfg, index=0):
    """The one-trajectory run at index_offset ``index``, recorded or
    final-only, steps as the replay does, and for a colored scheme the
    simulate_paths path on its stream is the replay's field; returns that
    path (None for other schemes)."""
    (res,) = simulate([(cfg, 1, index, 1)])
    states, xis = _replay(cfg, index)
    zs = np.array([_z(cfg.scheme, s) for s in states])
    assert np.array_equal(res.mean_z, zs)
    (final_z,) = simulate([(cfg, 1, index, None)])
    assert final_z[0] == zs[-1]
    if not cfg.scheme.uses_colored_noise:
        return None
    (path,) = path_matrix(simulate_paths(cfg.noise, cfg.n_steps, cfg.dt, cfg.seed, index, 1))
    assert np.array_equal(path, np.concatenate(xis))
    return path


def test_single_trajectory_matches_scalar_ops_colored_ou():
    _assert_engine_matches_replay(_cfg(Scheme.SUV_COLORED, kind=NoiseKind.OU))


def test_single_trajectory_matches_scalar_ops_colored_sbm():
    _assert_engine_matches_replay(_cfg(Scheme.SUV_COLORED, kind=NoiseKind.SBM, tau=0.5))


def test_single_trajectory_matches_scalar_ops_frozen():
    path = _assert_engine_matches_replay(_cfg(Scheme.SUV_COLORED, kind=NoiseKind.FROZEN_SBM))
    # The field is the single frozen draw, constant in time.
    assert np.all(path == path[0])
    assert abs(path[0]) <= 1.0


def test_single_trajectory_matches_scalar_ops_unnormalized():
    _assert_engine_matches_replay(_cfg(Scheme.UNNORMALIZED_SUV, kind=NoiseKind.FROZEN_OU))


def test_single_trajectory_matches_scalar_ops_wiener():
    _assert_engine_matches_replay(_cfg(Scheme.SSE, kind=NoiseKind.NONE))
    for scheme in (Scheme.WHITE_STRAT, Scheme.WHITE_ITO):
        _assert_engine_matches_replay(_cfg(scheme, kind=NoiseKind.NONE, Deff=math.sqrt(2.0)))


def test_single_trajectory_matches_scalar_ops_z_tracks():
    _assert_engine_matches_replay(_cfg(Scheme.Z_COLORED, kind=NoiseKind.OU))
    _assert_engine_matches_replay(_cfg(Scheme.Z_WHITE, kind=NoiseKind.NONE, Deff=math.sqrt(2.0)))


def test_streamed_draws_match_replay_across_block_boundaries(monkeypatch):
    # Two full draw blocks and a partial one: the engine's blocked draws
    # continue each stream exactly where the previous block stopped.
    n_steps = 2 * _BLOCK_STEPS + 7
    T = n_steps * 1e-3
    cfgs = (
        _cfg(Scheme.SUV_COLORED, kind=NoiseKind.OU, T=T),
        _cfg(Scheme.SUV_COLORED, kind=NoiseKind.SBM, tau=0.5, T=T),
        _cfg(Scheme.WHITE_ITO, kind=NoiseKind.NONE, Deff=math.sqrt(2.0), T=T),
    )
    for cfg in cfgs:
        assert cfg.n_steps == n_steps
        _assert_engine_matches_replay(cfg)
        replayed = [_z(cfg.scheme, _replay(cfg, i)[0][-1]) for i in range(3)]
        for width in (1, 2, engine._MAX_CHUNK_WIDTH):
            monkeypatch.setattr(engine, "_MAX_CHUNK_WIDTH", width)
            (final_z,) = simulate([(cfg, 3, 0, None)])
            assert final_z.tolist() == replayed


def test_engine_calls_each_traced_layer_once_per_step_per_chunk(monkeypatch):
    # A per-layer trace wraps these module globals of the engine and counts
    # calls to them (kernel calls, noise-update calls); every chunk must
    # call each exactly once per step, recorded or final-only. A final-only
    # run at one worker steps its chunks in the caller, where the trace
    # sees them too. A chunk holds at least one group of _FOLD_ROWS, so
    # three groups at cap 1 make three chunks.
    names = ("_suv_heun", "_renormalize", "_ou_update")
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(engine, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(engine, name, counted)
    cfg = _cfg(Scheme.SUV_COLORED, kind=NoiseKind.OU, T=0.3)
    assert cfg.n_steps == 300
    monkeypatch.setattr(engine, "_MAX_CHUNK_WIDTH", 1)
    monkeypatch.setattr(engine, "_MAX_WORKERS", 1)
    n = 3 * engine._FOLD_ROWS
    for decimation in (10, None):  # recorded, then final-only
        counts.update(dict.fromkeys(names, 0))
        simulate([(cfg, n, 0, decimation)])
        assert counts == dict.fromkeys(names, 3 * 300)


def _final_only_jobs():
    """Final-only jobs of a colored OU, a colored SBM and a white Ito
    ensemble, of 40 trajectories each from indices 0, 5 and 10:
    they touch 3, 3 and 4 groups of _FOLD_ROWS (16 + 16 + 8, 11 + 16 + 13
    and 6 + 16 + 16 + 2), so that narrow caps cut them into 10 chunks."""
    cfgs = (
        _cfg(Scheme.SUV_COLORED, kind=NoiseKind.OU, T=0.05),
        _cfg(Scheme.SUV_COLORED, kind=NoiseKind.SBM, tau=0.5, T=0.05),
        _cfg(Scheme.WHITE_ITO, kind=NoiseKind.NONE, Deff=math.sqrt(2.0), T=0.05),
    )
    return [(cfg, 40, 5 * i, None) for i, cfg in enumerate(cfgs)]


def test_worker_count_does_not_change_any_output_bit(monkeypatch):
    # Final-only chunks may run on forked workers. At 1 and 2 workers and
    # at any chunk width, a batch of jobs and each job run alone give the
    # final z that the serial recorded path gives: the last mean z of a
    # one-trajectory recorded run at each index, exact since n = 1.
    jobs = _final_only_jobs()
    expect = [
        np.array([
            simulate([(cfg, 1, off + i, cfg.n_steps)])[0].mean_z[-1]
            for i in range(n)
        ])
        for cfg, n, off, _ in jobs
    ]
    default = engine._MAX_CHUNK_WIDTH
    for workers in (1, 2):
        monkeypatch.setattr(engine, "_MAX_WORKERS", workers)
        for width in (1, 7, default):
            monkeypatch.setattr(engine, "_MAX_CHUNK_WIDTH", width)
            batch = simulate(jobs)
            alone = [simulate([job])[0] for job in jobs]
            for want, got, single in zip(expect, batch, alone):
                assert np.array_equal(want, got) and np.array_equal(want, single)


def _sweep_jobs():
    """Runs of six jobs of 5 trajectories with mixed z0 and J on contiguous
    stream ranges, one run per scheme whose kernels take J; consecutive runs
    differ in scheme, so only the jobs within a run share chunks. A run's
    first group of _FOLD_ROWS ends inside its fourth job. The last two cells
    start from the integer z0 = 1 and 0, which every chunk, even one of
    those cells alone, must step as floats."""
    families = (
        dict(scheme=Scheme.SUV_COLORED, kind=NoiseKind.OU),
        dict(scheme=Scheme.UNNORMALIZED_SUV, kind=NoiseKind.SBM, tau=0.5),
        dict(scheme=Scheme.Z_COLORED, kind=NoiseKind.OU),
        dict(scheme=Scheme.WHITE_STRAT, kind=NoiseKind.NONE, Deff=math.sqrt(2.0)),
        dict(scheme=Scheme.WHITE_ITO, kind=NoiseKind.NONE, Deff=math.sqrt(2.0)),
        dict(scheme=Scheme.Z_WHITE, kind=NoiseKind.NONE, Deff=math.sqrt(2.0)),
    )
    cells = ((0.25, 2.0), (0.5, 2.0), (0.6, -1.5), (0.75, 4.0), (1, 2.0), (0, 2.0))  # (z0, J)
    jobs, offset = [], 0
    for family in families:
        for z0, J in cells:
            jobs.append((_cfg(T=0.02, z0=z0, J=J, **family), 5, offset, None))
            offset += 5
    return jobs


def test_jobs_that_differ_in_z0_and_j_share_chunks_bit_for_bit(monkeypatch):
    # Jobs that differ only in z0 and J, on touching stream ranges, share
    # lockstep chunks: each row starts from its own z0 and steps with its
    # own J. At any chunk cap (1 and 7 cut chunks inside jobs) and worker count,
    # every job equals its own separate call bit for bit.
    jobs = _sweep_jobs()
    alone = [simulate([job])[0] for job in jobs]
    for workers in (1, 2):
        monkeypatch.setattr(engine, "_MAX_WORKERS", workers)
        for width in (1, 7, engine._MAX_CHUNK_WIDTH):
            monkeypatch.setattr(engine, "_MAX_CHUNK_WIDTH", width)
            batch = simulate(jobs)
            assert len(batch) == len(jobs)
            for want, got in zip(alone, batch):
                assert np.array_equal(want, got)


def test_only_jobs_that_can_share_chunks_are_merged(monkeypatch, tmp_path):
    # Chunk widths, logged by a stub chunk in whichever process steps it:
    # jobs merge only when their configs differ at most in z0 and J and
    # their stream ranges touch, and a run of jobs is cut into
    # chunks of whole groups of _FOLD_ROWS, as equal as groups allow,
    # whatever the worker count. A recorded run goes through the same
    # planner, under the smaller of _MAX_CHUNK_WIDTH and the cap at which
    # the group sums a chunk returns fit its element budget; no cap cuts a
    # group.
    log = tmp_path / "widths"

    def chunk(cfg, z0, record_at, first_index, J):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{first_index} {len(z0)}\n")
        if record_at is None:
            return np.zeros(len(z0))
        groups = (first_index + len(z0) - 1) // 16 - first_index // 16 + 1
        return np.zeros((groups, 4 * int(record_at.sum()) + cfg.n_steps))

    monkeypatch.setattr(engine, "_integrate_chunk", chunk)
    cfg = _cfg(Scheme.SUV_COLORED, T=1.0)
    other = _cfg(Scheme.SUV_COLORED, T=1.0, z0=0.25, J=3.0)
    cases = [  # final-only jobs, chunk widths
        ([(cfg, 3, 0, None), (other, 3, 3, None)], [6]),  # merged: only z0 and J differ
        ([(cfg, 3, 0, None), (_cfg(Scheme.SUV_COLORED, T=2.0), 3, 3, None)], [3, 3]),  # T differs
        ([(cfg, 3, 0, None), (_cfg(Scheme.SUV_COLORED, T=1.0, G=2.0), 3, 3, None)],
         [3, 3]),  # G differs
        ([(cfg, 3, 0, None), (other, 3, 4, None)], [3, 3]),  # a gap between the ranges
        # both from 0, as in criterion 5
        ([(cfg, 4000, 0, None), (other, 4000, 0, None)], [4000, 4000]),
        ([(cfg, 4000, 0, None)], [4000]),
        ([(cfg, 6000, 0, None), (other, 9000, 6000, None)], [7504, 7496]),  # 469 + 469 groups
    ]

    def logged_widths():
        logged = sorted(tuple(map(int, line.split())) for line in log.read_text().splitlines())
        return [width for _, width in logged]

    # recorded runs of 23 (101 grid points and 1000 steps, so group sums of
    # 4 * 101 + 1000 = 1404 columns): (cap, element budget, widths)
    cap, budget = engine._MAX_CHUNK_WIDTH, engine._CHUNK_ELEMENT_BUDGET
    recorded = [  # from index 4: 12 rows of group 0, 11 of group 1
        (cap, budget, [23]),
        (7, budget, [12, 11]),  # whole groups, not 5 + 6 + 6 + 6
        (cap, 2 * 1404, [23]),  # the budget holds both groups' sums
        (cap, 2 * 1404 - 1, [12, 11]),  # the budget binds at one group
        (cap, 1403, [12, 11]),  # a chunk is one group even when none fits
    ]
    for workers in (1, 2):
        monkeypatch.setattr(engine, "_MAX_WORKERS", workers)
        for jobs, widths in cases:
            log.write_text("")
            finals = simulate(jobs)
            assert [len(z) for z in finals] == [n for _, n, _, _ in jobs]
            assert logged_widths() == widths
        for width, elements, widths in recorded:
            monkeypatch.setattr(engine, "_MAX_CHUNK_WIDTH", width)
            monkeypatch.setattr(engine, "_CHUNK_ELEMENT_BUDGET", elements)
            log.write_text("")
            assert simulate([(cfg, 23, 4, 10)])[0].n_traj == 23
            assert logged_widths() == widths
        monkeypatch.setattr(engine, "_MAX_CHUNK_WIDTH", cap)
        monkeypatch.setattr(engine, "_CHUNK_ELEMENT_BUDGET", budget)


def test_failing_merged_chunk_names_its_earliest_failing_step(monkeypatch):
    # Two unnormalized cells share one chunk; alone, each overflows at the
    # step its replay gives, the second at an earlier one. The shared chunk
    # raises the earliest failing step's error, at 1 and 2 workers, beside
    # a third job that runs to its horizon.
    def cfg(J, z0, T=120.0):
        return _cfg(Scheme.UNNORMALIZED_SUV, kind=NoiseKind.FROZEN_OU, dt=0.01, T=T, z0=z0,
                    J=J, seed=2)

    first, second = (cfg(8.0, 0.6), 2, 0, None), (cfg(9.9, 0.9), 2, 2, None)
    steps = [overflow_steps(c, range(i, i + n)) for c, n, i, _ in (first, second)]
    assert min(steps[1].values()) < min(steps[0].values())  # the second fails first
    with pytest.raises(IntegratorInstabilityError,
                       match=f"^{first_overflow(steps[0], range(0, 2))}: "):
        simulate([first])
    message = f"{first_overflow(steps[1], range(2, 4))}: unnormalized amplitudes overflowed"
    for workers in (1, 2):
        monkeypatch.setattr(engine, "_MAX_WORKERS", workers)
        with pytest.raises(IntegratorInstabilityError) as info:
            simulate([first, second, (cfg(9.9, 0.9, T=1.0), 1, 4, None)])
        assert str(info.value) == message


def test_worker_count_does_not_change_any_experiment_file(monkeypatch, tmp_path):
    # noise-validation's two noise kinds are tasks of the workers' pool,
    # as the chunks of fig1a's and fig1b's recorded ensembles are. At 1 and 2
    # workers every file, the single-trajectory dumps and the manifests
    # included, is the same bytes. At 2 workers no noise-validation path
    # set is stepped in the caller, at 1 both are; the three colored
    # trajectory dumps step their one path in the caller.
    log = tmp_path / "pids"

    def logged(*args, _fn=experiments.simulate_paths):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{args[5]} {os.getpid()}\n")  # paths, process
        return _fn(*args)

    monkeypatch.setattr(experiments, "simulate_paths", logged)
    runs = [
        ("fig1a", {"n_traj": 40, "T": 0.1}),
        ("fig1a", {"n_traj": 1, "T": 0.1}),
        ("fig1b", {"n_traj": 40, "T": 0.1}),
        ("fig1b", {"n_traj": 1, "T": 0.1}),
        ("noise-validation", {"n_traj": 100, "tau": 0.5, "T": 2.0, "dt": 0.005}),
    ]
    parallel = len(os.sched_getaffinity(0)) >= 2
    files = {}
    for workers in (1, 2):
        monkeypatch.setattr(engine, "_MAX_WORKERS", workers)
        base = tmp_path / f"workers{workers}"
        base.mkdir()
        monkeypatch.chdir(base)  # the manifests record the same relative output_dir
        log.write_text("")
        for i, (experiment, overrides) in enumerate(runs):
            run_experiment(make_config(experiment, overrides, output_dir=f"run{i}"))
        calls = [line.split() for line in log.read_text().splitlines()]
        assert [pid for n, pid in calls if n == "1"] == [str(os.getpid())] * 3
        pids = [pid for n, pid in calls if n != "1"]
        assert len(pids) == 2
        if workers == 2 and parallel:
            assert str(os.getpid()) not in pids
        else:
            assert set(pids) == {str(os.getpid())}
        files[workers] = {
            path.relative_to(base): path.read_bytes() for path in base.rglob("*") if path.is_file()
        }
    assert len(files[1]) == 4 * 2 + 2 * 2 + 3 + 5  # csvs, trajectory dumps, manifests
    assert files[1] == files[2]


def test_final_only_chunks_run_in_worker_processes(monkeypatch, tmp_path):
    # With two usable cores every chunk runs in a worker process, never in
    # the caller; with one worker, every chunk runs in the caller.
    log = tmp_path / "pids"

    def chunk(*args, _fn=engine._integrate_chunk, **kwargs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return _fn(*args, **kwargs)

    monkeypatch.setattr(engine, "_integrate_chunk", chunk)
    monkeypatch.setattr(engine, "_MAX_CHUNK_WIDTH", 2)
    jobs = _final_only_jobs()  # 3 jobs of 40, a chunk per group: 10 chunks
    parallel = len(os.sched_getaffinity(0)) >= 2
    for workers in (1, 2):
        log.write_text("")
        monkeypatch.setattr(engine, "_MAX_WORKERS", workers)
        simulate(jobs)
        pids = log.read_text().split()
        assert len(pids) == 10
        if workers == 2 and parallel:
            assert str(os.getpid()) not in pids and len(set(pids)) <= 2
        else:
            assert set(pids) == {str(os.getpid())}


def _assert_same_summary(want, got):
    assert want.n_traj == got.n_traj
    for name in ("times", "mean_z", "mean_offdiag", "qv", "stderr_z", "stderr_offdiag"):
        assert np.array_equal(getattr(want, name), getattr(got, name)), name


def test_one_call_of_mixed_jobs_matches_separate_calls_bit_for_bit(monkeypatch):
    # One simulate call maps every job's chunks on one task list: recorded
    # jobs, a run of final-only jobs that share chunks, and final-only jobs
    # on their own, interleaved. At 1 and 2 workers, and at a cap of 7 that
    # cuts every job into several chunks, each output is bit for bit what a
    # call of its job alone returns.
    recorded = [
        (_cfg(Scheme.SUV_COLORED, T=0.05), 40, 5, 3),
        (_cfg(Scheme.SSE, kind=NoiseKind.NONE, T=0.05), 23, 45, 10),
        (_cfg(Scheme.Z_WHITE, kind=NoiseKind.NONE, Deff=math.sqrt(2.0), T=0.05), 30, 0, 1),
    ]
    final_only = _sweep_jobs()[:6] + _final_only_jobs()
    jobs = [recorded[0], *final_only[:6], recorded[1], *final_only[6:], recorded[2]]
    alone = [simulate([job])[0] for job in jobs]
    for workers in (1, 2):
        monkeypatch.setattr(engine, "_MAX_WORKERS", workers)
        for width in (7, engine._MAX_CHUNK_WIDTH):
            monkeypatch.setattr(engine, "_MAX_CHUNK_WIDTH", width)
            out = simulate(jobs)
            assert len(out) == len(jobs)
            for (*_, decimation), want, got in zip(jobs, alone, out):
                if decimation is None:
                    assert np.array_equal(want, got)
                else:
                    _assert_same_summary(want, got)


def test_fig1a_steps_both_ensembles_in_worker_processes(monkeypatch, tmp_path):
    # fig1a's two recorded ensembles are one chunk each, and one engine call
    # maps both: with two usable cores both chunks step in workers, none in
    # the caller; with one worker, both step in the caller.
    log = tmp_path / "pids"

    def chunk(*args, _fn=engine._integrate_chunk, **kwargs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return _fn(*args, **kwargs)

    monkeypatch.setattr(engine, "_integrate_chunk", chunk)
    parallel = len(os.sched_getaffinity(0)) >= 2
    for workers in (1, 2):
        log.write_text("")
        monkeypatch.setattr(engine, "_MAX_WORKERS", workers)
        out = tmp_path / f"workers{workers}"
        run_experiment(make_config("fig1a", {"n_traj": 40, "T": 0.1}, output_dir=str(out)))
        pids = log.read_text().split()
        assert len(pids) == 2
        if workers == 2 and parallel:
            assert str(os.getpid()) not in pids
        else:
            assert set(pids) == {str(os.getpid())}


def test_failing_jobs_raise_the_earlier_jobs_error(monkeypatch):
    # Two unnormalized jobs that do not share chunks, a recorded one and a
    # final-only one, both overflow; the later job overflows at an earlier
    # step. At 1 and 2 workers, one call raises the earlier job's error,
    # the one a serial run raises.
    def cfg(J, z0):
        return _cfg(Scheme.UNNORMALIZED_SUV, kind=NoiseKind.FROZEN_OU, dt=0.01, T=120.0, z0=z0,
                    J=J, seed=2)

    first, second = (cfg(8.0, 0.6), 2, 0, 12000), (cfg(9.9, 0.9), 2, 2, None)
    steps = [overflow_steps(c, range(i, i + n)) for c, n, i, _ in (first, second)]
    assert min(steps[1].values()) < min(steps[0].values())
    message = f"{first_overflow(steps[0], range(0, 2))}: unnormalized amplitudes overflowed"
    for workers in (1, 2):
        monkeypatch.setattr(engine, "_MAX_WORKERS", workers)
        with pytest.raises(IntegratorInstabilityError) as info:
            simulate([first, second])
        assert str(info.value) == message


def test_memory_error_in_a_chunk_names_the_chunk(monkeypatch, tmp_path, capsys):
    # A MemoryError while a chunk steps becomes a SimulationError naming the
    # chunk's first trajectory and width, in a worker as in the caller, and
    # the command line reports it as an error. At a cap of 16, the 40
    # trajectories from index 5 step chunks of 11, 16 and 13.
    def chunk(cfg, z0, record_at, first_index, J):
        raise MemoryError

    monkeypatch.setattr(engine, "_integrate_chunk", chunk)
    monkeypatch.setattr(engine, "_MAX_CHUNK_WIDTH", 16)
    message = "^out of memory stepping the chunk of 11 trajectories from trajectory 5$"
    for workers in (1, 2):
        monkeypatch.setattr(engine, "_MAX_WORKERS", workers)
        with pytest.raises(SimulationError, match=message):
            simulate([(_cfg(Scheme.SUV_COLORED), 40, 5, None)])
        with pytest.raises(SimulationError, match=message):
            simulate([(_cfg(Scheme.SUV_COLORED), 40, 5, 10)])
    assert main(["run", "fig1a", "--n-traj", "4", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory stepping the chunk of 4 trajectories from trajectory 0\n"


def test_no_worker_outlives_the_call(monkeypatch):
    # No worker is left after a normal return, nor after a worker raised
    # while the other was still stepping. When several chunks fail, the
    # error raised is the first failing chunk's, not the first to arrive.
    monkeypatch.setattr(engine, "_MAX_WORKERS", 2)
    monkeypatch.setattr(engine, "_MAX_CHUNK_WIDTH", 2)
    cfg = _cfg(Scheme.SUV_COLORED)
    simulate([(cfg, 48, 0, None)])  # three chunks of one group each
    assert child_pids() == []

    def failing(cfg, z0, record_at, first_index, J):
        if first_index == 0:
            return np.zeros(len(z0))
        if first_index == 16:
            time.sleep(0.5)  # the chunk at 32 fails first
        raise IntegratorInstabilityError(f"trajectory {first_index}, step 1: failed")

    monkeypatch.setattr(engine, "_integrate_chunk", failing)
    with pytest.raises(IntegratorInstabilityError, match="^trajectory 16, step 1: failed$"):
        simulate([(cfg, 48, 0, None)])
    assert child_pids() == []


def _run_in_daemon(jobs):
    assert multiprocessing.current_process().daemon
    return simulate(jobs)


def test_daemonic_caller_runs_its_chunks_in_process(monkeypatch):
    # A pool worker is daemonic and may not start processes of its own, so
    # a call made inside one steps its chunks itself, with the same bits.
    monkeypatch.setattr(engine, "_MAX_WORKERS", 2)
    monkeypatch.setattr(engine, "_MAX_CHUNK_WIDTH", 3)
    jobs = _final_only_jobs()
    expect = simulate(jobs)
    pool = multiprocessing.get_context("fork").Pool(1)
    try:
        got = pool.apply_async(_run_in_daemon, (jobs,)).get(timeout=60)
    finally:
        pool.terminate()
        pool.join()
    for want, have in zip(expect, got):
        assert np.array_equal(want, have)


def test_final_only_run_holds_no_per_step_draw_matrix():
    # The normals are drawn in blocks as the steps reach them, so a
    # final-only colored run stays far below the m * n_steps * 8 bytes an
    # up-front draw matrix would take (16 MB here).
    cfg = _cfg(Scheme.SUV_COLORED, kind=NoiseKind.OU, T=4.0)
    m = 500
    tracemalloc.start()
    try:
        simulate([(cfg, m, 0, None)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m * cfg.n_steps * 8 / 4


def test_a_step_of_every_scheme_allocates_no_vector():
    # The step loop allocates nothing: at scalar couplings, with the state,
    # its spare, the scratch pair and the workspace set up first, three
    # steps of every scheme peak far below one m-wide vector.
    m = 50_000
    rng = np.random.default_rng(5)
    p = PhysicsParams(J=2.0, G=1.0, gamma=0.5, Deff=math.sqrt(2.0))
    z0 = rng.uniform(0.05, 0.95, m)
    drive = 0.03 * rng.standard_normal(m)  # the field, or dW
    for scheme, (step, _, _) in engine._SCHEMES.items():
        ws = _workspace(m)
        if scheme.is_scalar:
            state, spare, raw = z0.copy(), np.empty(m), None
        else:
            state, spare, raw = np.empty((3, 2, m))
            np.sqrt((z0, 1.0 - z0), out=state)
        tracemalloc.start()
        try:
            for _ in range(3):
                step(state, drive, 1e-3, p, spare, raw, ws)
                state, spare = spare, state
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * 8 / 4, (scheme.value, peak)


def test_recorded_run_holds_no_matrix_of_the_horizon(monkeypatch):
    # A recorded chunk holds a few hundred steps' increments and grid points
    # at a time and folds them into its group sums as it steps. At one
    # worker, where both 200-wide chunks step in the caller, the peak grows
    # from T = 1 to T = 4 by no more than the group sums a chunk returns
    # (13 rows of 4 n_out + n_steps), and stays below what one
    # (200, 2 n_out + n_steps) per-trajectory matrix took at T = 1.
    monkeypatch.setattr(engine, "_MAX_CHUNK_WIDTH", 200)
    monkeypatch.setattr(engine, "_MAX_WORKERS", 1)
    peaks, sums = [], []
    for T in (1.0, 4.0):
        cfg = _cfg(Scheme.SUV_COLORED, kind=NoiseKind.OU, T=T)
        n_out = cfg.n_steps // 10 + 1
        sums.append(13 * (4 * n_out + cfg.n_steps) * 8)
        tracemalloc.start()
        try:
            simulate([(cfg, 400, 0, 10)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 1.2 * (sums[1] - sums[0])
    assert peaks[1] < 200 * (2 * 101 + 1000) * 8


def test_recorded_chunks_are_folded_as_they_arrive(monkeypatch):
    # At 2 workers the caller folds each chunk's group sums as it arrives,
    # so it holds a few chunks' sums at a time, never all 8 chunks' (here
    # 10 groups x 2504 columns, 200 KB per chunk).
    cfg = _cfg(Scheme.SUV_COLORED, kind=NoiseKind.OU, T=0.5)
    monkeypatch.setattr(engine, "_MAX_CHUNK_WIDTH", 160)
    monkeypatch.setattr(engine, "_MAX_WORKERS", 2)
    engine._map_in_workers(abs, [0, 1])  # the pool's first imports are not the fold's
    sums = 160 // engine._FOLD_ROWS * (4 * (cfg.n_steps + 1) + cfg.n_steps) * 8
    tracemalloc.start()
    try:
        simulate([(cfg, 8 * 160, 0, 1)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * sums


def _slow_square(i):
    time.sleep(0.1 if i else 0.0)
    return i * i


def test_pool_stops_when_its_consumer_stops(monkeypatch):
    # A consumer that raises after the first result (as noise-validation
    # does on an unfittable rate) or returns early gets no more results:
    # the workers are killed at once and none outlives the call.
    monkeypatch.setattr(engine, "_MAX_WORKERS", 2)
    seen = []

    def stop_at_first(results):
        for result in results:
            seen.append(result)
            raise ValueError("stop")

    with pytest.raises(ValueError, match="stop"):
        engine._map_in_workers(_slow_square, list(range(40)), stop_at_first)
    assert seen == [0]
    assert child_pids() == []
    started = time.monotonic()
    assert engine._map_in_workers(_slow_square, list(range(40)), next) == 0
    assert time.monotonic() - started < 1.0  # 39 slow tasks would take 2 s on 2 workers
    assert child_pids() == []
    assert engine._map_in_workers(_slow_square, [3, 1, 2]) == [9, 1, 4]


def _fail_first(i):
    if i == 0:
        raise ValueError("task 0 failed")
    time.sleep(30)
    return i


def _unpicklable(i):
    if i == 1:
        return threading.Lock()
    if i == 2:
        raise ValueError(threading.Lock())
    return i


def test_a_failing_task_stops_every_worker_at_once(monkeypatch):
    # The first failure is raised as soon as it arrives, and the worker
    # still stepping a 30 s task is killed, not waited for. A result or an
    # exception that cannot be pickled raises a SimulationError naming its
    # task (tasks 1 and 3 step on the second worker).
    monkeypatch.setattr(engine, "_MAX_WORKERS", 2)
    started = time.monotonic()
    with pytest.raises(ValueError, match="^task 0 failed$"):
        engine._map_in_workers(_fail_first, [0, 1])
    assert time.monotonic() - started < 10.0
    assert child_pids() == []
    with pytest.raises(SimulationError, match="^the result of task 1 cannot be pickled: "):
        engine._map_in_workers(_unpicklable, [0, 1, 0, 0])
    with pytest.raises(SimulationError,
                       match="^the ValueError raised by task 3 cannot be pickled: "):
        engine._map_in_workers(_unpicklable, [0, 0, 0, 2])
    assert child_pids() == []


_KILLED_WORKER = """
import os, signal
from suvsim import SimulationError
from suvsim.engine import _map_in_workers

caller = os.getpid()


def task(i):
    if i == 3 and os.getpid() != caller:  # a worker dies, never the caller
        os.kill(os.getpid(), signal.SIGKILL)
    return i


try:
    _map_in_workers(task, list(range(8)))
except SimulationError as exc:
    print(exc)
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable cores")
def test_a_killed_worker_raises_instead_of_hanging():
    # A worker killed mid-task (by the OOM killer, say) raises a
    # SimulationError at once. The call runs in its own interpreter under a
    # timeout, so a hang fails this test instead of stalling the suite.
    src = os.path.dirname(os.path.dirname(engine.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _KILLED_WORKER], env=env, timeout=60,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "a worker process ended abruptly" in done.stdout


_KILLED_CALLER = """
import glob, time
from suvsim.engine import _map_in_workers


def task(i):
    time.sleep(60 if i else 0)  # each worker is busy when the caller is killed
    return i


def consume(results):
    next(results)
    for path in glob.glob("/proc/self/task/*/children"):
        print(open(path).read().strip(), end=" ")
    print(flush=True)
    time.sleep(60)  # killed here


_map_in_workers(task, list(range(4)), consume)
"""


def _alive(pid):
    """True while process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable cores")
def test_no_worker_outlives_a_killed_caller():
    # A caller killed with SIGKILL cannot kill its workers; they notice, in
    # the middle of a task, that their parent is gone and exit within seconds.
    src = os.path.dirname(os.path.dirname(engine.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    caller = subprocess.Popen([sys.executable, "-c", _KILLED_CALLER], env=env,
                              stdout=subprocess.PIPE, text=True)
    workers = []
    try:
        workers = [int(pid) for pid in caller.stdout.readline().split()]
        assert len(workers) == 2
        caller.kill()
        caller.wait(timeout=10)
        deadline = time.monotonic() + 10.0
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, workers))
    finally:
        caller.kill()
        caller.wait()
        caller.stdout.close()
        for pid in filter(_alive, workers):
            os.kill(pid, signal.SIGKILL)


_FRESH_CALLER = """
import sys, threading
import suvsim.engine as engine
from suvsim import NoiseKind, NoiseModel, PhysicsParams, Scheme, TrajectoryConfig, simulate

steps, map_in_workers = [], engine._map_in_workers


def spy(fn, tasks, consume):
    def counted(results):
        for result in results:
            steps.append((len(tasks), threading.active_count()))
            yield result

    return map_in_workers(fn, tasks, lambda results: consume(counted(results)))


engine._map_in_workers = spy
cfg = TrajectoryConfig(params=PhysicsParams(J=2.0, G=1.0), noise=NoiseModel(NoiseKind.OU, 1.0),
                       dt=1e-3, T=0.02, z0=0.6, scheme=Scheme.SUV_COLORED, seed=3)
simulate([(cfg, 20, 0, 5), (cfg, 20, 20, 5)])
print(steps, [name for name in ("multiprocessing", "concurrent.futures") if name in sys.modules])
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable cores")
def test_workers_cost_the_caller_no_thread_and_no_pool_import():
    # In a fresh interpreter, two recorded jobs step one chunk each on two
    # workers. The caller runs no thread of its own while it folds them, and
    # imports neither multiprocessing nor concurrent.futures.
    src = os.path.dirname(os.path.dirname(engine.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _FRESH_CALLER], env=env, timeout=60,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[0] == "[(2, 1), (2, 1)] []"


def test_final_only_chunks_do_not_narrow_with_the_horizon(monkeypatch):
    # A final-only run records no per-step matrix, so its chunk widths are
    # the same at 1000 steps as at 16000.
    widths = []

    def chunk(cfg, z0, record_at, first_index, J):
        widths.append(len(z0))
        return np.zeros(len(z0))

    monkeypatch.setattr(engine, "_integrate_chunk", chunk)
    by_horizon = []
    for T in (1.0, 16.0):
        widths.clear()
        simulate([(_cfg(Scheme.SUV_COLORED, T=T), 4000, 0, None)])
        by_horizon.append(list(widths))
    assert by_horizon[0] == by_horizon[1] == [4000]


def test_chunk_size_does_not_change_any_output_bit(monkeypatch):
    # At every chunk cap and worker count, recorded summaries and final z
    # are the same bits. Chunks are whole groups of _FOLD_ROWS, so at caps
    # 1 and 7 the 23 trajectories step 2 chunks (16 + 7), the 50 step 4
    # (16 + 16 + 16 + 2), which the pool splits between 2 workers, and the
    # 41 from index 5 step 3 (11 + 16 + 14), partial groups at both ends.
    cfg = _cfg(Scheme.SUV_COLORED, T=0.1, seed=321)
    default = engine._MAX_CHUNK_WIDTH
    for n_traj, offset in ((23, 0), (50, 0), (41, 5)):
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(engine, "_MAX_WORKERS", workers)
            for width in (1, 7, default):
                monkeypatch.setattr(engine, "_MAX_CHUNK_WIDTH", width)
                runs.append((simulate([(cfg, n_traj, offset, 10)])[0],
                             *simulate([(cfg, n_traj, offset, None)])))
        ref, ref_z = runs[0]
        for other, final_z in runs[1:]:
            assert np.array_equal(ref_z, final_z)
            assert np.array_equal(ref.mean_z, other.mean_z)
            assert np.array_equal(ref.stderr_z, other.stderr_z)
            assert np.array_equal(ref.mean_offdiag, other.mean_offdiag)
            assert np.array_equal(ref.stderr_offdiag, other.stderr_offdiag)
            assert np.array_equal(ref.qv, other.qv)


def _lane_cfgs():
    """A colored OU, a colored SBM, a frozen and a white Ito config."""
    return (
        _cfg(Scheme.SUV_COLORED, kind=NoiseKind.OU, T=0.05),
        _cfg(Scheme.SUV_COLORED, kind=NoiseKind.SBM, tau=0.5, T=0.05),
        _cfg(Scheme.Z_COLORED, kind=NoiseKind.FROZEN_OU, T=0.05),
        _cfg(Scheme.WHITE_ITO, kind=NoiseKind.NONE, Deff=math.sqrt(2.0), T=0.05),
    )


def test_a_chunk_derives_one_stream_per_group_it_touches(monkeypatch):
    # Streams are derived per group of 16, never per trajectory: each chunk
    # derives, once, the stream of every group its rows touch, at any chunk
    # cap, recorded or final-only; simulate_paths derives its range's. Two
    # jobs that do not share chunks each derive the group they share.
    keys = []

    def counted(seed, group, _fn=engine.derive_stream):
        keys.append(group)
        return _fn(seed, group)

    monkeypatch.setattr(engine, "derive_stream", counted)
    monkeypatch.setattr(engine, "_MAX_WORKERS", 1)  # chunks run in the caller, in order
    colored, sbm, _, white = _lane_cfgs()
    cases = [  # run, chunk cap, group keys
        (lambda: simulate([(colored, 40, 5, None)]), None, [0, 1, 2]),
        (lambda: simulate([(colored, 40, 5, None)]), 16, [0, 1, 2]),
        (lambda: simulate([(white, 40, 5, None)]), 1, [0, 1, 2]),
        (lambda: simulate([(sbm, 40, 5, 10)]), None, [0, 1, 2]),
        (lambda: simulate([(sbm, 40, 5, 10)]), 32, [0, 1, 2]),
        (lambda: simulate([(colored, 1, 37, None)]), None, [2]),
        (lambda: simulate([(colored, 10, 0, None), (white, 10, 10, None)]), None, [0, 0, 1]),
        (lambda: simulate_paths(sbm.noise, 10, sbm.dt, sbm.seed, 5, 40), None, [0, 1, 2]),
    ]
    default = engine._MAX_CHUNK_WIDTH
    for run, cap, want in cases:
        monkeypatch.setattr(engine, "_MAX_CHUNK_WIDTH", cap or default)
        keys.clear()
        run()
        assert keys == want


def test_index_offset_selects_the_same_subensemble():
    # Trajectory i reads lane i % 16 of the stream of group i // 16, so a
    # sub-ensemble steps as its rows of a batch from index 0 do: from 3 and
    # from 10 (inside groups), and alone at index_offset 15, 16 and 17 (the
    # last lane of group 0, the first two of group 1), recorded or
    # final-only, for every draw order.
    cfg = _cfg(Scheme.SSE, kind=NoiseKind.NONE, T=0.05)
    full, part = simulate([(cfg, 8, 0, None), (cfg, 5, 3, None)])
    assert np.array_equal(full[3:8], part)
    for cfg in _lane_cfgs():
        (batch,) = simulate([(cfg, 40, 0, None)])
        (inner,) = simulate([(cfg, 20, 10, None)])
        assert np.array_equal(inner, batch[10:30])
        for i in (15, 16, 17):
            (alone,) = simulate([(cfg, 1, i, None)])
            (recorded,) = simulate([(cfg, 1, i, cfg.n_steps)])
            assert alone[0] == recorded.mean_z[-1] == batch[i]


def test_repeat_run_is_bitwise_identical():
    cfg = _cfg(Scheme.WHITE_STRAT, kind=NoiseKind.NONE, Deff=1.0, T=0.1)
    (a,) = simulate([(cfg, 40, 0, 20)])
    (b,) = simulate([(cfg, 40, 0, 20)])
    assert np.array_equal(a.mean_z, b.mean_z)
    assert np.array_equal(a.qv, b.qv)
    assert np.array_equal(*(simulate([(cfg, 40, 0, None)])[0] for _ in range(2)))


def test_quadratic_variation_separates_smooth_from_rough_paths():
    # Colored-noise paths are differentiable: their QV scales linearly in
    # dt. Wiener-driven paths accumulate QV independent of dt.
    def qv_at(scheme, kind, dt, **kw):
        cfg = _cfg(scheme, kind=kind, dt=dt, T=0.5, seed=77, **kw)
        return simulate([(cfg, 300, 0, cfg.n_steps)])[0].qv[-1]

    smooth = [qv_at(Scheme.SUV_COLORED, NoiseKind.OU, dt) for dt in (1e-3, 5e-4)]
    assert 0.35 < smooth[1] / smooth[0] < 0.65
    rough = [qv_at(Scheme.SSE, NoiseKind.NONE, dt) for dt in (1e-3, 5e-4)]
    assert 0.8 < rough[1] / rough[0] < 1.25
    assert rough[0] > 50.0 * smooth[0]


def _grouped_neumaier_sum(values):
    """The engine's sum of ``values``, in index order: each group of
    _FOLD_ROWS consecutive values is summed one float at a time, and the
    group sums are added with Neumaier compensation, one at a time."""
    total = comp = 0.0
    for first in range(0, len(values), engine._FOLD_ROWS):
        group = values[first : first + engine._FOLD_ROWS]
        x = group[0]
        for v in group[1:]:
            x = x + v
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp


def test_fold_groups_adds_each_groups_rows_one_at_a_time_in_order():
    # Each group sum is the group's first trajectory plus the others in turn,
    # for any number of held steps (the fold takes 16 at a time) and a
    # partial last group, into a strided view like the chunk's transposed
    # group sums. Trajectories are scaled by 1e-8 to 1e8, so any other
    # order of the additions would round differently.
    rng = np.random.default_rng(5)
    for shape in ((1, 37), (40, 37), (2, 3, 40), (2, 20, 16), (3, 5)):
        rows = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape[-1])
        groups = -(-shape[-1] // engine._FOLD_ROWS)
        want = np.empty(shape[:-1] + (groups,))
        for g in range(groups):
            first = g * engine._FOLD_ROWS
            total = rows[..., first].copy()
            for col in range(first + 1, min(first + engine._FOLD_ROWS, shape[-1])):
                total = total + rows[..., col]
            want[..., g] = total
        out = np.empty((groups,) + shape[:-1] + (3,))[..., 1]  # strided, groups first
        engine._fold_groups(rows, np.moveaxis(out, 0, -1))
        assert np.array_equal(np.moveaxis(out, 0, -1), want)


def test_engine_qv_matches_observables_reconstruction():
    # Rebuild every amplitude increment through the per-step replay, sum
    # each step's squares over trajectories in index order, in groups (of
    # 16 and 1 here) and then over the groups, take the mean and its running
    # sum: the engine series must match bit for bit at the recorded grid
    # points, and so must mean z. The horizons end inside the first draw
    # block, exactly at its end, and inside the third, where a chunk folds
    # its held steps at block ends; a frozen field is one block of every
    # step, and its chunk folds at the same step counts.
    n_traj, dec = 17, 7
    cases = [
        (NoiseKind.OU, 20),
        (NoiseKind.OU, _BLOCK_STEPS),
        (NoiseKind.OU, 2 * _BLOCK_STEPS + 7),
        (NoiseKind.FROZEN_OU, 2 * _BLOCK_STEPS + 7),
    ]
    for kind, n_steps in cases:
        cfg = _cfg(Scheme.SUV_COLORED, kind=kind, T=n_steps * 1e-3, seed=9)
        assert cfg.n_steps == n_steps
        (res,) = simulate([(cfg, n_traj, 0, dec)])
        incs = np.empty((n_traj, n_steps))
        zs = np.empty((n_traj, n_steps + 1))
        for i in range(n_traj):
            states = _replay(cfg, i)[0]
            a = np.array([s[0][0] for s in states])
            incs[i] = np.diff(a)
            zs[i] = [_z(cfg.scheme, s) for s in states]
        means = [max(_grouped_neumaier_sum(col * col) / n_traj, 0.0) for col in incs.T]
        qv_full = np.cumsum([0.0] + means)
        out_idx = np.append(np.arange(0, n_steps, dec), n_steps)
        assert np.array_equal(res.qv, qv_full[out_idx]), (kind, n_steps)
        mean_z = [_grouped_neumaier_sum(zs[:, t]) / n_traj for t in out_idx]
        assert np.array_equal(res.mean_z, mean_z), (kind, n_steps)


def test_scalar_schemes_record_the_observables_of_their_amplitude_twins():
    # z-scalar-colored and z-scalar-white step z alone, and record the mean
    # z, the mean offdiag sqrt(z) sqrt(1 - z) and the qv of sqrt(z) that
    # suv-colored and white-strat record from their amplitudes, within the
    # schemes' discretization differences: each bound is 5 to 10 times the
    # difference measured at this configuration (J = Deff^2 = 2).
    bounds = {  # max |mean_z|, max |mean_offdiag| and qv's relative error
        (Scheme.Z_COLORED, Scheme.SUV_COLORED): (5e-7, 2e-6, 2e-5),
        (Scheme.Z_WHITE, Scheme.WHITE_STRAT): (1e-3, 5e-3, 2e-2),
    }
    for schemes, (z_tol, off_tol, qv_tol) in bounds.items():
        jobs = [(_cfg(s, T=0.5, seed=3, Deff=math.sqrt(2.0)), 64, 0, 10) for s in schemes]
        scalar, twin = simulate(jobs)
        assert np.abs(scalar.mean_z - twin.mean_z).max() <= z_tol, schemes
        assert np.abs(scalar.mean_offdiag - twin.mean_offdiag).max() <= off_tol, schemes
        assert scalar.qv == pytest.approx(twin.qv, rel=qv_tol, abs=0), schemes


def test_stderr_matches_sample_formula():
    cfg = _cfg(Scheme.SSE, kind=NoiseKind.NONE, T=0.05)
    n = 50
    (res,) = simulate([(cfg, n, 0, cfg.n_steps)])
    (final_z,) = simulate([(cfg, n, 0, None)])
    expected = np.std(final_z, ddof=1) / math.sqrt(n)
    assert res.stderr_z[-1] == pytest.approx(expected, rel=1e-10)
    assert res.mean_z[-1] == pytest.approx(np.mean(final_z), rel=1e-12)


def test_recording_grid_includes_start_stride_and_final_step():
    cfg = _cfg(Scheme.SUV_COLORED, T=0.01)  # 10 steps
    (res,) = simulate([(cfg, 2, 0, 3)])
    assert np.array_equal(res.times, np.array([0, 3, 6, 9, 10]) * cfg.dt)
    (only_final,) = simulate([(cfg, 2, 0, 100)])
    assert np.array_equal(only_final.times, np.array([0, 10]) * cfg.dt)


def test_result_flags_and_minimal_outputs():
    cfg = _cfg(Scheme.SUV_COLORED, T=0.01)
    (multi,) = simulate([(cfg, 2, 0, 1)])
    assert multi.stderr_z is not None

    (single,) = simulate([(cfg, 1, 0, 1)])
    assert single.stderr_z is None
    assert single.n_traj == 1

    (bare,) = simulate([(cfg, 3, 0, None)])
    assert bare.shape == (3,)


def test_engine_input_guards(monkeypatch):
    # Bad sizes, and a job too short, too long, or with an experiment's
    # settings as its cfg, raise an InvalidParameterError (a malformed job's
    # names its position) before any chunk of the call steps.
    def no_chunk(*args):
        raise AssertionError("a chunk stepped")

    monkeypatch.setattr(engine, "_integrate_chunk", no_chunk)
    cfg = _cfg(Scheme.SUV_COLORED)
    good = (cfg, 3, 0, None)
    shape = r"is not \(cfg, n_traj, index_offset, decimation or None\)"
    cases = [
        ([(cfg, 0, 0, 10)], None),
        ([(cfg, 1, 0, 0)], None),
        ([(cfg, 1, -1, 10)], None),
        ([(cfg, 10)], rf"^job 0 {shape}: not enough values to unpack \(expected 4, got 2\)$"),
        ([good, (cfg, 3, 0, 10, 1)], rf"^job 1 {shape}: too many values to unpack"),
        ([good, good, (make_config("born-sweep"), 3, 0, None)],
         "^job 2: cfg must be a TrajectoryConfig, got ExperimentConfig$"),
    ]
    for jobs, message in cases:
        with pytest.raises(InvalidParameterError, match=message):
            simulate(jobs)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda cfg: simulate([(cfg, 2.5, 0, 10)]), "n_traj"),
        (lambda cfg: simulate([(cfg, True, 0, 10)]), "n_traj"),
        (lambda cfg: simulate([(cfg, 3, 1.0, 10)]), "index_offset"),
        (lambda cfg: simulate([(cfg, 3, 0, 1.5)]), "decimation"),
        (lambda cfg: simulate([(cfg, 3, 0, True)]), "decimation"),
        (lambda cfg: simulate([(cfg, 2.5, 0, None)]), "n_traj"),
        (lambda cfg: simulate([(cfg, 3, 0.5, None)]), "index_offset"),
        (lambda cfg: simulate([(cfg, 3, False, None)]), "index_offset"),
        (lambda cfg: simulate_paths(cfg.noise, 2.5, cfg.dt, 0, 0, 1), "n_steps"),
        (lambda cfg: derive_stream(0.5, 0), "master_seed"),
        (lambda cfg: derive_stream(0, 1.0), "group_index"),
        (lambda cfg: steady_samples(cfg.noise, 2.5, derive_stream(0, 0)), "n"),
    ],
)
def test_engine_rejects_non_integer_sizes_by_name(call, name):
    # ExperimentConfig's rule: bools and non-integers are refused, with an
    # InvalidParameterError that names the argument, before any work; the
    # public noise and stream calls share the engine's check.
    with pytest.raises(InvalidParameterError, match=f"^{name} must be an integer"):
        call(_cfg(Scheme.SUV_COLORED))


def test_engine_accepts_numpy_integer_sizes():
    cfg = _cfg(Scheme.SUV_COLORED)
    (want,) = simulate([(cfg, 3, 2, 4)])
    (got,) = simulate([(cfg, np.int64(3), np.uint8(2), np.int32(4))])
    assert np.array_equal(want.mean_z, got.mean_z)
    assert np.array_equal(want.qv, got.qv)
    want_z, got_z = simulate([(cfg, 3, 2, None), (cfg, np.int64(3), np.int64(2), None)])
    assert np.array_equal(want_z, got_z)


@pytest.mark.parametrize("scheme", [Scheme.SUV_COLORED, Scheme.Z_COLORED], ids=lambda s: s.value)
@pytest.mark.parametrize(
    "kind", [NoiseKind.OU, NoiseKind.SBM, NoiseKind.FROZEN_OU, NoiseKind.FROZEN_SBM],
    ids=lambda k: k.value,
)
def test_noise_paths_are_the_field_a_colored_run_sees(scheme, kind):
    # One noise generator: a path of simulate_paths on stream (seed, i) is,
    # bit for bit, the field of the replay that a one-trajectory colored run
    # at index_offset i matches, across a draw-block boundary.
    cfg = _cfg(scheme, kind=kind, tau=0.5, T=(_BLOCK_STEPS + 7) * 1e-3)
    for i in (0, 5):
        _assert_engine_matches_replay(cfg, i)


def test_negated_draws_from_the_mirrored_state_mirror_every_amplitude_scheme(monkeypatch):
    # Negating every drawn normal and steady draw and starting from 1 - z0
    # maps each trajectory's (a, b) to (b, a) exactly: a sign flip is exact,
    # and so are commuted sums and products. So offdiag = a b keeps its bits
    # and z_A + z_B = a^2 + b^2 stays within round-off of the norm. The
    # z-scalar schemes are left out: 1 - z rounds.
    cases = [
        (Scheme.SUV_COLORED, dict(kind=NoiseKind.OU)),
        (Scheme.SUV_COLORED, dict(kind=NoiseKind.SBM, tau=0.5)),
        (Scheme.SUV_COLORED, dict(kind=NoiseKind.FROZEN_SBM)),
        (Scheme.WHITE_STRAT, dict(kind=NoiseKind.NONE, Deff=math.sqrt(2.0))),
        (Scheme.WHITE_ITO, dict(kind=NoiseKind.NONE, Deff=math.sqrt(2.0))),
        (Scheme.SSE, dict(kind=NoiseKind.NONE)),
        (Scheme.UNNORMALIZED_SUV, dict(kind=NoiseKind.FROZEN_OU)),
    ]

    def negated_normals(*args, _fn=engine._stream_normals):
        for row in _fn(*args):
            yield np.negative(row, out=row)

    def negated_steady(model, n, rng, _fn=engine.steady_samples):
        return -_fn(model, n, rng)

    def run(cfg):
        return simulate([(cfg, 40, 0, 10)])[0]

    for z0 in (0.6, 0.25):
        assert 1.0 - (1.0 - z0) == z0
        for scheme, noise in cases:
            mirrored = [_cfg(scheme, T=0.2, z0=z, seed=31, **noise) for z in (z0, 1.0 - z0)]
            with monkeypatch.context() as patch:
                patch.setattr(engine, "_stream_normals", negated_normals)
                patch.setattr(engine, "steady_samples", negated_steady)
                b = run(mirrored[1])
            a = run(mirrored[0])
            # without the negated draws the mirrored start does not mirror
            assert not np.array_equal(a.mean_offdiag, run(mirrored[1]).mean_offdiag)
            assert np.array_equal(a.mean_offdiag, b.mean_offdiag), (scheme, noise)
            assert np.max(np.abs(a.mean_z + b.mean_z - 1.0)) <= 4.4e-16, (scheme, noise)
