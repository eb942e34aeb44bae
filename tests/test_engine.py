"""Tests of the vectorized ensemble engine: stream derivation, bitwise
agreement with a per-step replay through the step kernels, and determinism
under chunking, offsets, and reruns."""
import math
import tracemalloc

import numpy as np
import pytest

import suvsim.engine as engine
from suvsim import (
    InvalidParameterError,
    NoiseKind,
    NoiseModel,
    PhysicsParams,
    Scheme,
    TrajectoryConfig,
    derive_stream,
    simulate_ensemble,
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
from suvsim.noise import _BLOCK_STEPS, _ou_coefficients, _ou_update, _sbm_update


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
    """Step trajectory ``index`` alone, drawing one scalar normal per step.

    The engine draws each stream's normals in time blocks; this replay takes
    them one at a time from the same stream (after the steady-state field
    value of a colored scheme) and steps length-1 arrays through the
    kernels, into fresh buffers at every step. Returns the state after
    every step, initial state first, as (a, b) or (z,) tuples, and the
    field value the next step would see.
    """
    rng = derive_stream(cfg.seed, index)
    p, dt, kind, tau = cfg.params, cfg.dt, cfg.noise.kind, cfg.noise.tau

    def pair():
        return np.empty(1), np.empty(1)

    def norm(s):
        return _renormalize(*s, pair(), _workspace(1))

    step = {
        Scheme.SUV_COLORED: lambda s, d: norm(_suv_heun(*s, d, dt, p.J, p.G, pair(), _workspace(1))),
        Scheme.UNNORMALIZED_SUV: lambda s, d: _unnormalized_heun(*s, d, dt, p.J, p.G, pair(), _workspace(1)),
        Scheme.SSE: lambda s, d: norm(_sse_em(*s, d, dt, p.gamma, pair(), _workspace(1))),
        Scheme.WHITE_STRAT: lambda s, d: norm(_white_strat_heun(*s, d, dt, p.J, p.Deff, pair(), _workspace(1))),
        Scheme.WHITE_ITO: lambda s, d: norm(_white_ito_em(*s, d, dt, p.J, p.Deff, pair(), _workspace(1))),
        Scheme.Z_COLORED: lambda s, d: (_z_colored_heun(s[0], d, dt, p.J, p.G, np.empty(1), _workspace(1)),),
        Scheme.Z_WHITE: lambda s, d: (_z_white_heun(s[0], d, dt, p.J, p.Deff, np.empty(1), _workspace(1)),),
    }[cfg.scheme]
    colored = cfg.scheme.uses_colored_noise
    xi = None
    if colored:
        xi = np.array([rng.uniform(-1.0, 1.0) if kind.is_bounded else rng.standard_normal()])
    if cfg.scheme.is_scalar:
        state = (np.array([cfg.z0]),)
    else:
        state = (np.array([math.sqrt(cfg.z0)]), np.array([math.sqrt(1.0 - cfg.z0)]))
    states, xis = [state], [xi]
    for _ in range(cfg.n_steps):
        if not colored:
            state = step(state, math.sqrt(dt) * rng.standard_normal())
        else:
            state = step(state, xi)
            if kind is NoiseKind.OU:
                xi = _ou_update(xi, *_ou_coefficients(dt, tau), rng.standard_normal(), np.empty(1), pair())
            elif kind is NoiseKind.SBM:
                xi = _sbm_update(xi, dt, tau, rng.standard_normal(), np.empty(1), pair())
        states.append(state)
        xis.append(xi)
    return states, xis


def _z(scheme, state):
    """Population z of a replayed state, computed as the engine observes it."""
    if scheme.is_scalar:
        return state[0][0]
    a, b = state[0][0], state[1][0]
    return a * a / (a * a + b * b) if scheme is Scheme.UNNORMALIZED_SUV else a * a


def _assert_engine_matches_replay(cfg):
    res = simulate_ensemble(cfg, n_traj=1, decimation=1)
    states, xis = _replay(cfg)
    zs = np.array([_z(cfg.scheme, s) for s in states])
    assert np.array_equal(res.summary.mean_z, zs)
    assert res.final_z[0] == zs[-1]
    if cfg.scheme.uses_colored_noise:
        assert np.array_equal(res.single_xi, np.concatenate(xis))
    else:
        assert res.single_xi is None
    return res


def test_single_trajectory_matches_scalar_ops_colored_ou():
    _assert_engine_matches_replay(_cfg(Scheme.SUV_COLORED, kind=NoiseKind.OU))


def test_single_trajectory_matches_scalar_ops_colored_sbm():
    _assert_engine_matches_replay(_cfg(Scheme.SUV_COLORED, kind=NoiseKind.SBM, tau=0.5))


def test_single_trajectory_matches_scalar_ops_frozen():
    res = _assert_engine_matches_replay(_cfg(Scheme.SUV_COLORED, kind=NoiseKind.FROZEN_SBM))
    # The recorded field is the single frozen draw, constant in time.
    assert np.all(res.single_xi == res.single_xi[0])
    assert abs(res.single_xi[0]) <= 1.0


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
            res = simulate_ensemble(cfg, n_traj=3, record_series=False)
            assert res.final_z.tolist() == replayed


def test_engine_calls_each_traced_layer_once_per_step_per_chunk(monkeypatch):
    # A per-layer trace wraps these module globals of the engine and counts
    # calls to them (kernel calls, noise-update calls); every chunk must
    # call each exactly once per step.
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
    simulate_ensemble(cfg, n_traj=3)
    assert counts == dict.fromkeys(names, 3 * 300)


def test_final_only_run_holds_no_per_step_draw_matrix():
    # The normals are drawn in blocks as the steps reach them, so a
    # final-only colored run stays far below the m * n_steps * 8 bytes an
    # up-front draw matrix would take (16 MB here).
    cfg = _cfg(Scheme.SUV_COLORED, kind=NoiseKind.OU, T=4.0)
    m = 500
    tracemalloc.start()
    try:
        simulate_ensemble(cfg, n_traj=m, record_series=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m * cfg.n_steps * 8 / 4


def test_final_only_chunks_do_not_narrow_with_the_horizon(monkeypatch):
    # A final-only run records no per-step matrix, so its chunk widths are
    # the same at 1000 steps as at 16000.
    widths = []

    def chunk(cfg, streams, record_at, need_xi, first_index):
        widths.append(len(streams))
        return None, None, np.zeros(len(streams))

    monkeypatch.setattr(engine, "_integrate_chunk", chunk)
    by_horizon = []
    for T in (1.0, 16.0):
        widths.clear()
        simulate_ensemble(_cfg(Scheme.SUV_COLORED, T=T), n_traj=4000, record_series=False)
        by_horizon.append(list(widths))
    assert by_horizon[0] == by_horizon[1] == [4000]


def test_chunk_size_does_not_change_any_output_bit(monkeypatch):
    cfg = _cfg(Scheme.SUV_COLORED, T=0.1, seed=321)
    runs = []
    for width in (1, 7, engine._MAX_CHUNK_WIDTH):
        monkeypatch.setattr(engine, "_MAX_CHUNK_WIDTH", width)
        runs.append(simulate_ensemble(cfg, n_traj=23, decimation=10))
    ref = runs[0]
    for other in runs[1:]:
        assert np.array_equal(ref.final_z, other.final_z)
        assert np.array_equal(ref.summary.mean_z, other.summary.mean_z)
        assert np.array_equal(ref.summary.stderr_z, other.summary.stderr_z)
        assert np.array_equal(ref.summary.mean_offdiag, other.summary.mean_offdiag)
        assert np.array_equal(ref.summary.qv, other.summary.qv)


def test_index_offset_selects_the_same_subensemble():
    cfg = _cfg(Scheme.SSE, kind=NoiseKind.NONE, T=0.05)
    full = simulate_ensemble(cfg, n_traj=8, record_series=False)
    part = simulate_ensemble(cfg, n_traj=5, index_offset=3, record_series=False)
    assert np.array_equal(full.final_z[3:8], part.final_z)


def test_repeat_run_is_bitwise_identical():
    cfg = _cfg(Scheme.WHITE_STRAT, kind=NoiseKind.NONE, Deff=1.0, T=0.1)
    a = simulate_ensemble(cfg, n_traj=40, decimation=20)
    b = simulate_ensemble(cfg, n_traj=40, decimation=20)
    assert np.array_equal(a.final_z, b.final_z)
    assert np.array_equal(a.summary.mean_z, b.summary.mean_z)
    assert np.array_equal(a.summary.qv, b.summary.qv)


def test_quadratic_variation_separates_smooth_from_rough_paths():
    # Colored-noise paths are differentiable: their QV scales linearly in
    # dt. Wiener-driven paths accumulate QV independent of dt.
    def qv_at(scheme, kind, dt, **kw):
        cfg = _cfg(scheme, kind=kind, dt=dt, T=0.5, seed=77, **kw)
        return simulate_ensemble(cfg, n_traj=300, decimation=cfg.n_steps).summary.qv[-1]

    smooth = [qv_at(Scheme.SUV_COLORED, NoiseKind.OU, dt) for dt in (1e-3, 5e-4)]
    assert 0.35 < smooth[1] / smooth[0] < 0.65
    rough = [qv_at(Scheme.SSE, NoiseKind.NONE, dt) for dt in (1e-3, 5e-4)]
    assert 0.8 < rough[1] / rough[0] < 1.25
    assert rough[0] > 50.0 * smooth[0]


def _neumaier_sum(values):
    """Neumaier compensated sum of ``values`` in order, one float at a time."""
    total = comp = 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp


def test_engine_qv_matches_observables_reconstruction():
    # Rebuild every amplitude increment through the per-step replay, fold
    # each step's squares over trajectories in index order, take the mean
    # and its running sum: the engine series must match bit for bit at the
    # recorded grid points.
    cfg = _cfg(Scheme.SUV_COLORED, T=0.02, seed=9)
    n_traj, dec = 4, 7
    res = simulate_ensemble(cfg, n_traj=n_traj, decimation=dec)
    incs = np.empty((n_traj, cfg.n_steps))
    for i in range(n_traj):
        a = np.array([s[0][0] for s in _replay(cfg, i)[0]])
        incs[i] = np.diff(a)
    means = [max(_neumaier_sum(col * col) / n_traj, 0.0) for col in incs.T]
    qv_full = np.cumsum([0.0] + means)
    out_idx = np.array([0, 7, 14, 20])
    assert np.array_equal(res.summary.qv, qv_full[out_idx])


def test_stderr_matches_sample_formula():
    cfg = _cfg(Scheme.SSE, kind=NoiseKind.NONE, T=0.05)
    n = 50
    res = simulate_ensemble(cfg, n_traj=n, decimation=cfg.n_steps)
    expected = np.std(res.final_z, ddof=1) / math.sqrt(n)
    assert res.summary.stderr_z[-1] == pytest.approx(expected, rel=1e-10)
    assert res.summary.mean_z[-1] == pytest.approx(np.mean(res.final_z), rel=1e-12)


def test_recording_grid_includes_start_stride_and_final_step():
    cfg = _cfg(Scheme.SUV_COLORED, T=0.01)  # 10 steps
    res = simulate_ensemble(cfg, n_traj=2, decimation=3)
    assert np.array_equal(res.summary.times, np.array([0, 3, 6, 9, 10]) * cfg.dt)
    only_final = simulate_ensemble(cfg, n_traj=2, decimation=100)
    assert np.array_equal(only_final.summary.times, np.array([0, 10]) * cfg.dt)


def test_result_flags_and_minimal_outputs():
    cfg = _cfg(Scheme.SUV_COLORED, T=0.01)
    multi = simulate_ensemble(cfg, n_traj=2, decimation=1)
    assert multi.single_xi is None
    assert multi.summary.stderr_z is not None

    single = simulate_ensemble(cfg, n_traj=1, decimation=1)
    assert single.summary.stderr_z is None
    assert single.single_xi.shape == single.summary.times.shape

    bare = simulate_ensemble(cfg, n_traj=3, record_series=False)
    assert bare.summary is None and bare.single_xi is None
    assert bare.final_z.shape == (3,)


def test_engine_input_guards():
    cfg = _cfg(Scheme.SUV_COLORED)
    with pytest.raises(InvalidParameterError):
        simulate_ensemble(cfg, n_traj=0)
    with pytest.raises(InvalidParameterError):
        simulate_ensemble(cfg, n_traj=1, decimation=0)
    with pytest.raises(InvalidParameterError):
        simulate_ensemble(cfg, n_traj=1, index_offset=-1)
