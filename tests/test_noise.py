"""Tests of the noise processes: transition kernels, steady laws, purity."""
import math

import numpy as np
import pytest
from conftest import lane_draws, path_matrix

from suvsim import (
    EXPERIMENT_DEFAULTS,
    Experiment,
    InvalidParameterError,
    NoiseKind,
    NoiseModel,
    NotApplicableError,
    PhysicsParams,
    Scheme,
    TrajectoryConfig,
    autocorrelation,
    derive_stream,
    simulate,
    simulate_paths,
    steady_samples,
)
from suvsim.dynamics import _renormalize, _sse_em, _workspace
from suvsim.engine import _BLOCK_STEPS, _field
from suvsim.experiments import _fit_lags, _noise_statistics, _normal_cdf, _slope, _steady_ks
from suvsim.noise import _ou_coefficients, _ou_update, _sbm_update


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
        amps = np.array([[math.sqrt(0.6)], [math.sqrt(0.4)]])
        raw = _sse_em(amps, np.array([dw]), dt, 0.5, np.empty((2, 1)), _workspace(1))
        a, _ = _renormalize(raw, np.empty((2, 1)), _workspace(1))
        assert simulate([(cfg, 1, 0, None)])[0][0] == a[0] * a[0]


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
        simulate_paths(NoiseModel(kind=NoiseKind.OU, tau=1.0), 10, -0.1, 0, 0, 1)
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
    # Each group stream's first 16 draws are its lanes' steady-state initial
    # values: uniform on [-1, 1] for SBM kinds, standard normal for OU kinds.
    frozen = NoiseModel(kind=NoiseKind.FROZEN_SBM)
    xs, rows, advance = _field(frozen, 0.1, 2024, 0, 500, 10, None)
    assert advance is None and list(rows) == [None] * 10  # no draw, but every step
    assert np.all(np.abs(xs) <= 1.0)
    assert xs[7] == lane_draws(2024, 7, 0, "uniform")[0]
    assert xs[499] == lane_draws(2024, 499, 0, "uniform")[0]
    # An evolving kind then draws its per-step normals into a group-major
    # slab, a block of steps at a time, and gathers one m-wide row per
    # step whose column r continues lane r of its group stream: two full
    # blocks and a 7-step tail, over a partial first group (from lane 5), a
    # whole one and a partial last one. The rows are views of one buffer,
    # so each is copied before the next is gathered.
    n_steps = 2 * _BLOCK_STEPS + 7
    m = 2 * 16 + 7
    ou, rows, _ = _field(NoiseModel(kind=NoiseKind.OU), 0.1, 5, 5, m, n_steps, _workspace(m))
    seen = [(row.shape, row.ctypes.data, row.copy()) for row in rows]
    assert {(shape, at) for shape, at, _ in seen} == {((m,), seen[0][1])}  # one buffer
    normals = np.array([row for *_, row in seen])
    assert normals.shape == (n_steps, m)
    for r in range(m):
        steady, lane = lane_draws(5, 5 + r, n_steps, "normal")
        assert ou[r] == steady
        assert np.array_equal(normals[:, r], lane)
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
    with pytest.raises(InvalidParameterError, match="^n must be at least 1, got 0$"):
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
    paths = simulate_paths(NoiseModel(kind=NoiseKind.OU, tau=tau), n_steps, dt, 31, 0, n)
    var, at_tau = autocorrelation(paths, [0, 50])  # tau / dt = 50 steps
    assert var == pytest.approx(1.0, rel=0.05)
    assert at_tau == pytest.approx(math.exp(-1.0), rel=0.08)


def test_sbm_autocorrelation_starts_at_one_third():
    n, tau, dt = 3000, 1.0, 0.01
    paths = path_matrix(simulate_paths(NoiseModel(kind=NoiseKind.SBM, tau=tau), 150, dt, 32, 0, n))
    assert np.all(np.abs(paths) <= 1.0)
    assert autocorrelation([paths.T], [0])[0] == pytest.approx(1.0 / 3.0, rel=0.05)


def test_autocorrelation_validates_lag_and_shape():
    paths = [np.zeros((10, 3))]  # one time-major block of 3 paths
    with pytest.raises(InvalidParameterError):
        autocorrelation(paths, [0, 1.5])  # not a whole number of steps
    with pytest.raises(InvalidParameterError):
        autocorrelation(paths, [10])  # longer than the paths
    with pytest.raises(InvalidParameterError):
        autocorrelation([np.zeros(10)], [0])  # not 2-d
    # A path matrix is no block stream: it iterates as 1-d rows, and its
    # first row is refused by the block shape it lacks.
    with pytest.raises(InvalidParameterError, match=r"^blocks must be \(steps, n_traj\) arrays "
                       r"with n_traj >= 1, got \(10,\)$"):
        autocorrelation(np.zeros((3, 10)), [0])
    with pytest.raises(InvalidParameterError):
        autocorrelation([np.zeros((10, 0))], [0])  # no path
    with pytest.raises(InvalidParameterError):
        autocorrelation(paths, [-1])
    with pytest.raises(InvalidParameterError, match="^lag must be an integer, got True$"):
        autocorrelation(paths, [True])  # a bool is no number of steps
    with pytest.raises(InvalidParameterError, match="lags must be a sequence of steps, got 3"):
        autocorrelation(paths, 3)
    assert autocorrelation(paths, [9]).tolist() == [0.0]
    assert autocorrelation(paths, []).shape == (0,)
    # Streamed blocks: the lags' type and sign are checked before the first
    # block is requested, their range once the stream has ended.
    requested = []

    def blocks(shapes):
        for shape in shapes:
            requested.append(shape)
            yield np.zeros(shape)

    with pytest.raises(InvalidParameterError):
        autocorrelation(blocks([(10, 3)]), [0, -1])
    assert requested == []
    with pytest.raises(InvalidParameterError, match=r"in \[0, 10\), got 10"):
        autocorrelation(blocks([(1, 3), (9, 3)]), [10])
    with pytest.raises(InvalidParameterError, match="every block must have 3 columns"):
        autocorrelation(blocks([(1, 3), (9, 4)]), [0])
    with pytest.raises(InvalidParameterError):
        autocorrelation(blocks([(10,)]), [0])
    with pytest.raises(InvalidParameterError):
        autocorrelation(blocks([]), [0])
    assert autocorrelation(blocks([(1, 3), (9, 3)]), [9]).tolist() == [0.0]


def _ou_paths(seed, n, n_steps):
    return path_matrix(simulate_paths(NoiseModel(kind=NoiseKind.OU, tau=0.5), n_steps, 0.01,
                                      seed, 0, n))


def test_autocorrelation_of_a_lag_grid_matches_one_lag_at_a_time():
    # Each lag's estimate is the plain mean(x y) - mean(x) mean(y) over all
    # time origins, summed in another order, so within a relative 1e-12; and
    # its bits are its own, whatever the other lags and their order. Lags
    # beyond the ring's length and beyond a window's wrap the lagged rows
    # around the ring.
    paths = _ou_paths(33, 64, 120)
    rows = [paths.T]
    lags = [100, 0, 25, 7, 50, 25, 120, 1, 16, 17]
    got = autocorrelation(rows, lags)
    for k, value in zip(lags, got):
        x, y = paths[:, : paths.shape[1] - k], paths[:, k:]
        assert value == pytest.approx(np.mean(x * y) - np.mean(x) * np.mean(y), rel=1e-12, abs=0)
        assert autocorrelation(rows, [k])[0] == value
    assert np.array_equal(autocorrelation(rows, lags[::-1]), got[::-1])


def test_streamed_blocks_give_the_bits_of_the_path_matrix():
    # The estimator's windows are fixed by absolute time, so feeding the
    # paths as time-major blocks of any length, simulate_paths' own blocks
    # included, gives the bits of the whole path matrix as one block.
    paths = _ou_paths(34, 40, 600)
    lags = [0, 1, 15, 16, 33, 250, 600]
    rows = paths.T
    expect = autocorrelation([rows], lags)
    for size in (1, 7, 256):
        blocks = (rows[i : i + size] for i in range(0, len(rows), size))
        assert np.array_equal(autocorrelation(blocks, lags), expect)
    blocks = simulate_paths(NoiseModel(kind=NoiseKind.OU, tau=0.5), 600, 0.01, 34, 0, 40)
    assert np.array_equal(autocorrelation(blocks, lags), expect)


def test_noise_statistics_give_the_estimates_of_the_path_matrix():
    # noise-validation's chunks never build the path matrix, and still give,
    # bit for bit, the estimates of autocorrelation on the matrix of the same
    # simulate_paths range, for both evolving kinds: from a group edge, the
    # two sum the same groups of 16 paths. Each kind's KS distance is that
    # of its own steady stream's draws.
    models = [NoiseModel(kind=kind, tau=0.5) for kind in (NoiseKind.OU, NoiseKind.SBM)]
    kinds = [(model, 35, 32, (35, i)) for i, model in enumerate(models)]
    stats = _noise_statistics(kinds, 300, 0.01, 50, 13)
    for (model, *_, steady), (values, ks) in zip(kinds, stats):
        paths = path_matrix(simulate_paths(model, 300, 0.01, 35, 32, 50))
        assert np.array_equal(values, autocorrelation([paths.T], [13 * k for k in range(13)]))
        draws = steady_samples(model, 100000, derive_stream(*steady))
        assert ks == _steady_ks(model.kind, draws)


def test_rate_fit_is_the_least_squares_slope_of_polyfit():
    # noise-validation's decay rate is a closed-form least-squares slope of
    # the log autocovariance on the fit grid. It gives np.polyfit's slope,
    # up to rounding: on an exact exponential at the preset's 13 lags, and
    # on seeded noisy decays at short, smoke and preset correlation times.
    def agree(lags, y):
        want = np.polyfit(lags, y, 1)[0]
        return abs(_slope(lags, y) - want) <= 1e-14 * abs(want)

    tau = EXPERIMENT_DEFAULTS[Experiment.NOISE_VALIDATION]["tau"]
    lags = np.array(_fit_lags(tau))
    assert agree(lags, np.log(np.exp(-lags / tau) / 3.0))
    rng = np.random.default_rng(37)
    for tau in (0.01, 0.5, 1.0):
        lags = np.array(_fit_lags(tau))
        for _ in range(200):
            noise = 1.0 + 0.05 * rng.standard_normal(len(lags))
            assert agree(lags, np.log(np.exp(-lags / tau) * noise / 3.0))


def test_normal_cdf_is_bit_for_bit_the_scalar_erf_loop():
    # The steady KS distance of OU draws keeps the bits of the scalar form.
    x = np.sort(steady_samples(NoiseModel(kind=NoiseKind.OU), 100000, derive_stream(36, 0)))
    x = np.concatenate((x, [0.0, -0.0, 1e-300, -40.0, 40.0]))
    expect = 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2.0)) for v in x]))
    assert np.array_equal(_normal_cdf(x), expect)


def test_frozen_paths_are_constant_rows():
    paths = path_matrix(simulate_paths(NoiseModel(kind=NoiseKind.FROZEN_SBM), 20, 0.1, 41, 0, 5))
    assert paths.shape == (5, 21)
    assert np.all(paths == paths[:, :1])
    assert np.all(np.abs(paths[:, 0]) <= 1.0)
    # Frozen draws are per-stream steady-state samples, so rows differ.
    assert len(np.unique(paths[:, 0])) == 5


def test_paths_are_pure_functions_of_their_stream():
    # Simulating a path alongside others must not change it: column r of a
    # range is lane (first + r) % 16 of its group's stream, so a range that
    # starts or ends inside a group of 16, or holds one path, gives the
    # columns of a wider range, across a draw-block boundary, for every kind.
    n_steps = _BLOCK_STEPS + 7
    for kind in (NoiseKind.OU, NoiseKind.SBM, NoiseKind.FROZEN_OU):
        model = NoiseModel(kind=kind, tau=0.5)
        wide = path_matrix(simulate_paths(model, n_steps, 0.01, 51, 0, 50))
        for first, n in ((2, 1), (3, 10), (15, 2), (16, 16), (17, 30), (31, 19), (49, 1)):
            part = path_matrix(simulate_paths(model, n_steps, 0.01, 51, first, n))
            assert np.array_equal(part, wide[first : first + n])


def test_simulate_paths_validations():
    # Bad arguments are refused by name at the call, before any block is
    # requested.
    model = NoiseModel(kind=NoiseKind.OU, tau=1.0)
    with pytest.raises(InvalidParameterError, match="^n_steps must be nonnegative, got -1$"):
        simulate_paths(model, -1, 0.01, 0, 0, 1)
    with pytest.raises(InvalidParameterError, match="^dt must be positive"):
        simulate_paths(model, 10, 0.0, 0, 0, 1)
    with pytest.raises(InvalidParameterError, match="^seed must be nonnegative, got -1$"):
        simulate_paths(model, 10, 0.01, -1, 0, 1)
    with pytest.raises(InvalidParameterError, match="^first_index must be nonnegative, got -2$"):
        simulate_paths(model, 10, 0.01, 0, -2, 1)
    with pytest.raises(InvalidParameterError, match="^n must be at least 1, got 0$"):
        simulate_paths(model, 10, 0.01, 0, 0, 0)
    for args, name in (((0.5, 0, 1), "seed"), ((0, 1.0, 1), "first_index"), ((0, 0, True), "n")):
        with pytest.raises(InvalidParameterError, match=f"^{name} must be an integer"):
            simulate_paths(model, 10, 0.01, *args)
    with pytest.raises(NotApplicableError):
        simulate_paths(NoiseModel(kind=NoiseKind.NONE), 10, 0.01, 0, 0, 1)
