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
    StateCorruptionError,
    TrajectoryConfig,
    autocorrelation,
    derive_stream,
    simulate_ensemble,
    simulate_paths,
    steady_samples,
)
from suvsim.dynamics import _renormalize, _sse_em
from suvsim.noise import _BLOCK_STEPS, _draw_field, _ou_coefficients, _ou_update, _sbm_update


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
        a, _ = _renormalize(*_sse_em(*amps, np.array([dw]), dt, 0.5))
        assert simulate_ensemble(cfg, 1, record_series=False).final_z[0] == a[0] * a[0]


def test_ou_step_decay_factor_at_one_correlation_time():
    # With a zero innovation the exact transition is a pure decay e^(-dt/tau);
    # at dt = tau the factor is e^(-1).
    decay, sigma = _ou_coefficients(1.0, 1.0)
    out = _ou_update(np.array([1.0]), decay, sigma, np.array([0.0]))
    assert out[0] == 0.36787944117144233


def test_ou_step_innovation_variance_completes_steady_state():
    # xi' = xi e^(-dt/tau) + sqrt(1 - e^(-2 dt/tau)) n keeps Var = 1 in
    # steady state; check the innovation coefficient through a unit draw.
    decay, sigma = _ou_coefficients(0.5, 1.0)
    out = _ou_update(np.array([0.0]), decay, sigma, np.array([1.0]))
    assert decay == math.exp(-0.5)
    assert out[0] == pytest.approx(math.sqrt(1.0 - decay * decay), rel=1e-15)


def test_ou_step_rejects_bad_grid():
    # An OU path needs a positive step and a positive correlation time.
    with pytest.raises(InvalidParameterError):
        simulate_paths(NoiseModel(kind=NoiseKind.OU, tau=1.0), 10, -0.1, [derive_stream(0, 0)])
    with pytest.raises(InvalidParameterError):
        NoiseModel(kind=NoiseKind.OU, tau=0.0)


def test_sbm_step_drift_only_moves_toward_zero():
    out = _sbm_update(np.array([1.0, -1.0]), 1e-3, 1.0, np.array([0.0, 0.0]))
    assert np.array_equal(out, [0.999, -0.999])


def test_sbm_step_clamps_discretization_overshoot():
    # A huge innovation near the boundary overshoots; the step must clamp.
    out = _sbm_update(np.array([0.999, -0.999]), 1e-3, 1.0, np.array([50.0, -50.0]))
    assert np.array_equal(out, [1.0, -1.0])


def test_sbm_step_rejects_out_of_range_field():
    for xi0 in (1.5, -1.5):
        with pytest.raises(StateCorruptionError):
            simulate_paths(NoiseModel(kind=NoiseKind.SBM), 10, 1e-3, [derive_stream(0, 0)], xi0=xi0)


def test_sbm_diffusion_vanishes_at_boundary():
    # At |xi| = 1 the diffusion coefficient is zero, so even a large draw
    # only produces the deterministic drift.
    out = _sbm_update(np.array([1.0]), 1e-3, 1.0, np.array([50.0]))
    assert out[0] == 0.999


def test_sample_steady_state_distributions():
    # Each stream's first draw is its path's steady-state initial value:
    # uniform on [-1, 1] for SBM kinds, standard normal for OU kinds.
    streams = [derive_stream(2024, i) for i in range(500)]
    xs, normals = _draw_field(NoiseModel(kind=NoiseKind.FROZEN_SBM), streams, 10)
    assert normals is None
    assert np.all(np.abs(xs) <= 1.0)
    assert xs[7] == derive_stream(2024, 7).uniform(-1.0, 1.0)
    # An evolving kind then draws its per-step normals in time blocks that
    # continue each stream: two full blocks and a partial one here. Blocks
    # share one buffer, so each is copied before the next is drawn.
    n_steps = 2 * _BLOCK_STEPS + 7
    streams = [derive_stream(5, i) for i in range(3)]
    ou, blocks = _draw_field(NoiseModel(kind=NoiseKind.OU), streams, n_steps)
    blocks = [b.copy() for b in blocks]
    assert [b.shape[1] for b in blocks] == [_BLOCK_STEPS, _BLOCK_STEPS, 7]
    normals = np.concatenate(blocks, axis=1)
    fresh = derive_stream(5, 2)
    assert ou[2] == fresh.standard_normal()
    assert np.array_equal(normals[2], fresh.standard_normal(n_steps))
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
    # Started at xi0 = 3, the ensemble mean decays as 3 e^(-t/tau).
    n, tau, dt = 4000, 1.0, 0.01
    n_steps = 100
    streams = [derive_stream(21, i) for i in range(n)]
    paths = simulate_paths(NoiseModel(kind=NoiseKind.OU, tau=tau), n_steps, dt, streams, xi0=3.0)
    assert np.all(paths[:, 0] == 3.0)
    mean_at_tau = paths[:, n_steps].mean()
    assert mean_at_tau == pytest.approx(3.0 * math.exp(-1.0), abs=0.05)


def test_ou_autocorrelation_decays_exponentially():
    n, tau, dt = 3000, 1.0, 0.02
    n_steps = 250
    streams = [derive_stream(31, i) for i in range(n)]
    paths = simulate_paths(NoiseModel(kind=NoiseKind.OU, tau=tau), n_steps, dt, streams)
    var = autocorrelation(paths, 0.0, dt)
    at_tau = autocorrelation(paths, tau, dt)
    assert var == pytest.approx(1.0, rel=0.05)
    assert at_tau == pytest.approx(math.exp(-1.0), rel=0.08)


def test_sbm_autocorrelation_starts_at_one_third():
    n, tau, dt = 3000, 1.0, 0.01
    streams = [derive_stream(32, i) for i in range(n)]
    paths = simulate_paths(NoiseModel(kind=NoiseKind.SBM, tau=tau), 150, dt, streams)
    assert np.all(np.abs(paths) <= 1.0)
    assert autocorrelation(paths, 0.0, dt) == pytest.approx(1.0 / 3.0, rel=0.05)


def test_autocorrelation_validates_lag_and_shape():
    paths = np.zeros((3, 10))
    with pytest.raises(InvalidParameterError):
        autocorrelation(paths, 0.0015, 0.001)  # not a multiple of dt
    with pytest.raises(InvalidParameterError):
        autocorrelation(paths, 0.010, 0.001)  # longer than the paths
    with pytest.raises(InvalidParameterError):
        autocorrelation(np.zeros(10), 0.0, 0.001)  # not 2-d
    with pytest.raises(InvalidParameterError):
        autocorrelation(paths, -0.001, 0.001)


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
    with pytest.raises(StateCorruptionError):
        simulate_paths(NoiseModel(kind=NoiseKind.SBM), 10, 0.01, [derive_stream(0, 0)], xi0=1.2)
