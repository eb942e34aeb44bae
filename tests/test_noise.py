"""Tests of the noise processes: transition kernels, steady laws, purity."""
import math

import numpy as np
import pytest

from suvsim import (
    InvalidParameterError,
    NoiseKind,
    NoiseModel,
    NotApplicableError,
    PhysicsParams,
    Scheme,
    TrajectoryConfig,
    autocorrelation,
    derive_stream,
    simulate_ensemble,
    simulate_paths,
    steady_samples,
)
from suvsim.dynamics import _renormalize, _sse_em, _workspace
from suvsim.noise import (
    _BLOCK_STEPS,
    _TILE_STREAMS,
    _draw_field,
    _ou_coefficients,
    _ou_update,
    _sbm_update,
)


def _ou(xi, decay, sigma, normals):
    return _ou_update(xi, decay, sigma, normals, np.empty(len(xi)), _workspace(len(xi)))


def _sbm(xi, dt, tau, normals):
    return _sbm_update(xi, dt, tau, normals, np.empty(len(xi)), _workspace(len(xi)))


def test_noise_kind_properties_partition_all_kinds():
    assert NoiseKind.OU.is_evolving and not NoiseKind.OU.is_frozen
    assert NoiseKind.SBM.is_evolving and NoiseKind.SBM.is_bounded
    assert NoiseKind.FROZEN_OU.is_frozen and not NoiseKind.FROZEN_OU.is_evolving
    assert NoiseKind.FROZEN_SBM.is_frozen and NoiseKind.FROZEN_SBM.is_bounded
    assert not NoiseKind.NONE.is_frozen and not NoiseKind.NONE.is_evolving
    assert not NoiseKind.OU.is_bounded


def test_noise_model_requires_positive_tau_for_evolving_kinds():
    with pytest.raises(InvalidParameterError):
        NoiseModel(kind=NoiseKind.OU, tau=0.0)
    with pytest.raises(InvalidParameterError):
        NoiseModel(kind=NoiseKind.SBM, tau=-1.0)
    # Frozen kinds ignore tau entirely.
    NoiseModel(kind=NoiseKind.FROZEN_SBM, tau=0.0)


def test_wiener_increment_scales_draw_by_sqrt_dt():
    # A Wiener-driven scheme steps with dW = sqrt(dt) n, where n is the
    # trajectory's next standard normal.
    for dt in (0.25e-2, 1e-3):
        cfg = TrajectoryConfig(
            params=PhysicsParams(J=0.0, G=0.0, gamma=0.5),
            noise=NoiseModel(kind=NoiseKind.NONE),
            dt=dt,
            T=dt,
            z0=0.6,
            scheme=Scheme.SSE,
            seed=3,
        )
        dw = math.sqrt(dt) * derive_stream(3, 0).standard_normal()
        amps = np.array([math.sqrt(0.6)]), np.array([math.sqrt(0.4)])
        raw = _sse_em(*amps, np.array([dw]), dt, 0.5, (np.empty(1), np.empty(1)), _workspace(1))
        a, _ = _renormalize(*raw, (np.empty(1), np.empty(1)), _workspace(1))
        assert simulate_ensemble(cfg, 1, record_series=False).final_z[0] == a[0] * a[0]


def test_ou_step_decay_factor_at_one_correlation_time():
    # With a zero innovation the exact transition is a pure decay e^(-dt/tau);
    # at dt = tau the factor is e^(-1).
    decay, sigma = _ou_coefficients(1.0, 1.0)
    out = _ou(np.array([1.0]), decay, sigma, np.array([0.0]))
    assert out[0] == 0.36787944117144233


def test_ou_step_innovation_variance_completes_steady_state():
    # xi' = xi e^(-dt/tau) + sqrt(1 - e^(-2 dt/tau)) n keeps Var = 1 in
    # steady state; check the innovation coefficient through a unit draw.
    decay, sigma = _ou_coefficients(0.5, 1.0)
    out = _ou(np.array([0.0]), decay, sigma, np.array([1.0]))
    assert decay == math.exp(-0.5)
    assert out[0] == pytest.approx(math.sqrt(1.0 - decay * decay), rel=1e-15)


def test_ou_step_rejects_bad_grid():
    # An OU path needs a positive step and a positive correlation time.
    with pytest.raises(InvalidParameterError):
        simulate_paths(NoiseModel(kind=NoiseKind.OU, tau=1.0), 10, -0.1, [derive_stream(0, 0)])
    with pytest.raises(InvalidParameterError):
        NoiseModel(kind=NoiseKind.OU, tau=0.0)


def test_sbm_step_drift_only_moves_toward_zero():
    out = _sbm(np.array([1.0, -1.0]), 1e-3, 1.0, np.array([0.0, 0.0]))
    assert np.array_equal(out, [0.999, -0.999])


def test_sbm_step_clamps_discretization_overshoot():
    # A huge innovation near the boundary overshoots; the step must clamp.
    out = _sbm(np.array([0.999, -0.999]), 1e-3, 1.0, np.array([50.0, -50.0]))
    assert np.array_equal(out, [1.0, -1.0])


def test_field_updates_match_allocating_expressions_bit_for_bit():
    # Two consecutive in-place steps, as the engine and simulate_paths take
    # them, of three fields away from the SBM clamp, against the plain
    # expressions of the transitions.
    xi0 = np.array([0.3, -0.6, 0.85])
    draws = np.array([[0.4, -1.2, 0.9], [-0.7, 0.2, -1.5]])
    dt, tau = 1e-3, 0.5
    decay, sigma = _ou_coefficients(dt, tau)
    ws = _workspace(3)
    xi_ou, xi_sbm = xi0.copy(), xi0.copy()
    ref_ou, ref_sbm = xi0, xi0
    for normals in draws:
        _ou_update(xi_ou, decay, sigma, normals, xi_ou, ws)
        _sbm_update(xi_sbm, dt, tau, normals, xi_sbm, ws)
        ref_ou = ref_ou * decay + sigma * normals
        ratio = dt / tau
        ref_sbm = np.clip(
            ref_sbm - ref_sbm * ratio
            + np.sqrt(np.clip(1.0 - ref_sbm * ref_sbm, 0.0, None) * ratio) * normals,
            -1.0,
            1.0,
        )
        assert np.array_equal(xi_ou, ref_ou)
        assert np.array_equal(xi_sbm, ref_sbm)
    assert np.all(np.abs(xi_sbm) < 0.99)  # the clamp never acted


def test_sbm_diffusion_vanishes_at_boundary():
    # At |xi| = 1 the diffusion coefficient is zero, so even a large draw
    # only produces the deterministic drift.
    out = _sbm(np.array([1.0]), 1e-3, 1.0, np.array([50.0]))
    assert out[0] == 0.999


def test_sample_steady_state_distributions():
    # Each stream's first draw is its path's steady-state initial value:
    # uniform on [-1, 1] for SBM kinds, standard normal for OU kinds.
    streams = [derive_stream(2024, i) for i in range(500)]
    xs, normals = _draw_field(NoiseModel(kind=NoiseKind.FROZEN_SBM), streams, 10)
    assert normals is None
    assert np.all(np.abs(xs) <= 1.0)
    assert xs[7] == derive_stream(2024, 7).uniform(-1.0, 1.0)
    # An evolving kind then draws its per-step normals in time-major blocks
    # whose column r continues stream r: two full blocks and a partial one,
    # over two full tiles of streams and a partial one. Blocks share one
    # buffer, so each is copied before the next is drawn.
    n_steps = 2 * _BLOCK_STEPS + 7
    m = 2 * _TILE_STREAMS + 5
    streams = [derive_stream(5, i) for i in range(m)]
    ou, blocks = _draw_field(NoiseModel(kind=NoiseKind.OU), streams, n_steps)
    blocks = [b.copy() for b in blocks]
    assert [b.shape for b in blocks] == [(_BLOCK_STEPS, m), (_BLOCK_STEPS, m), (7, m)]
    normals = np.concatenate(blocks, axis=0)
    for r in range(m):
        fresh = derive_stream(5, r)
        assert ou[r] == fresh.standard_normal()
        assert np.array_equal(normals[:, r], fresh.standard_normal(n_steps))
    with pytest.raises(NotApplicableError):
        steady_samples(NoiseModel(kind=NoiseKind.NONE), 1, derive_stream(2024, 0))


def test_steady_samples_moments_match_invariant_laws():
    n = 40000
    ou = steady_samples(NoiseModel(kind=NoiseKind.OU), n, derive_stream(11, 0))
    sbm = steady_samples(NoiseModel(kind=NoiseKind.SBM), n, derive_stream(11, 1))
    assert np.mean(ou) == pytest.approx(0.0, abs=4 / math.sqrt(n))
    assert np.mean(ou * ou) == pytest.approx(1.0, rel=0.05)
    assert np.all(np.abs(sbm) <= 1.0)
    assert np.mean(sbm * sbm) == pytest.approx(1.0 / 3.0, rel=0.05)
    with pytest.raises(InvalidParameterError):
        steady_samples(NoiseModel(kind=NoiseKind.OU), 0, derive_stream(11, 2))


def test_ou_relaxation_from_sharp_initial_condition():
    # Started at xi = 3, the ensemble mean of the exact OU transition decays
    # as 3 e^(-t/tau).
    n, tau, dt = 4000, 1.0, 0.01
    n_steps = 100
    decay, sigma = _ou_coefficients(dt, tau)
    xi, ws = np.full(n, 3.0), _workspace(n)
    for normals in derive_stream(21, 0).standard_normal((n_steps, n)):
        _ou_update(xi, decay, sigma, normals, xi, ws)
    assert xi.mean() == pytest.approx(3.0 * math.exp(-1.0), abs=0.05)


def test_ou_autocorrelation_decays_exponentially():
    n, tau, dt = 3000, 1.0, 0.02
    n_steps = 250
    streams = [derive_stream(31, i) for i in range(n)]
    paths = simulate_paths(NoiseModel(kind=NoiseKind.OU, tau=tau), n_steps, dt, streams)
    var = autocorrelation(paths, 0)
    at_tau = autocorrelation(paths, 50)  # tau / dt steps
    assert var == pytest.approx(1.0, rel=0.05)
    assert at_tau == pytest.approx(math.exp(-1.0), rel=0.08)


def test_sbm_autocorrelation_starts_at_one_third():
    n, tau, dt = 3000, 1.0, 0.01
    streams = [derive_stream(32, i) for i in range(n)]
    paths = simulate_paths(NoiseModel(kind=NoiseKind.SBM, tau=tau), 150, dt, streams)
    assert np.all(np.abs(paths) <= 1.0)
    assert autocorrelation(paths, 0) == pytest.approx(1.0 / 3.0, rel=0.05)


def test_autocorrelation_validates_lag_and_shape():
    paths = np.zeros((3, 10))
    with pytest.raises(InvalidParameterError):
        autocorrelation(paths, 1.5)  # not a whole number of steps
    with pytest.raises(InvalidParameterError):
        autocorrelation(paths, 10)  # longer than the paths
    with pytest.raises(InvalidParameterError):
        autocorrelation(np.zeros(10), 0)  # not 2-d
    with pytest.raises(InvalidParameterError):
        autocorrelation(np.zeros((0, 10)), 0)  # empty
    with pytest.raises(InvalidParameterError):
        autocorrelation(paths, -1)
    assert autocorrelation(paths, 9) == 0.0


def test_frozen_paths_are_constant_rows():
    streams = [derive_stream(41, i) for i in range(5)]
    paths = simulate_paths(NoiseModel(kind=NoiseKind.FROZEN_SBM), 20, 0.1, streams)
    assert paths.shape == (5, 21)
    assert np.all(paths == paths[:, :1])
    assert np.all(np.abs(paths[:, 0]) <= 1.0)
    # Frozen draws are per-stream steady-state samples, so rows differ.
    assert len(np.unique(paths[:, 0])) == 5


def test_paths_are_pure_functions_of_their_stream():
    # Simulating a path alongside others must not change it.
    model = NoiseModel(kind=NoiseKind.OU, tau=0.5)
    batch = simulate_paths(model, 50, 0.01, [derive_stream(51, i) for i in range(4)])
    solo = simulate_paths(model, 50, 0.01, [derive_stream(51, 2)])
    assert np.array_equal(batch[2], solo[0])


def test_simulate_paths_validations():
    model = NoiseModel(kind=NoiseKind.OU, tau=1.0)
    with pytest.raises(InvalidParameterError):
        simulate_paths(model, -1, 0.01, [derive_stream(0, 0)])
    with pytest.raises(InvalidParameterError):
        simulate_paths(model, 10, 0.0, [derive_stream(0, 0)])
    with pytest.raises(InvalidParameterError):
        simulate_paths(model, 10, 0.01, [])
    with pytest.raises(NotApplicableError):
        simulate_paths(NoiseModel(kind=NoiseKind.NONE), 10, 0.01, [derive_stream(0, 0)])
