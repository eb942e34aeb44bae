"""Tests of the step kernels and the trajectory configuration: fixed
points, arithmetic, guards, cross-checks. Kernels act on arrays with one
entry per trajectory and write into caller-owned buffers; most of these
tests use length-1 arrays and fresh buffers."""
import dataclasses
import math

import numpy as np
import pytest
from conftest import first_overflow, overflow_steps

import suvsim.engine as engine
from suvsim import (
    ConfigError,
    IntegratorInstabilityError,
    InvalidParameterError,
    NoiseKind,
    NoiseModel,
    PhysicsParams,
    Scheme,
    TrajectoryConfig,
    derive_stream,
    make_config,
    run_experiment,
    simulate,
    simulate_paths,
)
from suvsim.dynamics import (
    _aligned_rows,
    _renormalize,
    _sse_em,
    _suv_heun,
    _suv_rate,
    _unnormalized_heun,
    _unnormalized_rate,
    _white_ito_em,
    _white_strat_heun,
    _workspace,
    _z_colored_heun,
    _z_colored_rate,
    _z_white_heun,
)

P = PhysicsParams(J=2.0, G=1.0)


def _amps(z):
    """Length-1 amplitude arrays of the normalized state with weight z on |0>."""
    return np.array([math.sqrt(z)]), np.array([math.sqrt(1.0 - z)])


def _fresh(kernel, *args):
    """Call a kernel with new output buffers and workspace sized like its
    first argument; the z kernels write one array, the others a pair."""
    n = len(args[0])
    out = np.empty(n) if kernel in (_z_colored_heun, _z_white_heun) else (np.empty(n), np.empty(n))
    return kernel(*args, out, _workspace(n))


def _norm(pair):
    return _fresh(_renormalize, *pair)


def _suv(a, b, xi, dt, p=P):
    return _norm(_fresh(_suv_heun, a, b, xi, dt, p.J, p.G))


def test_physics_params_validation():
    with pytest.raises(InvalidParameterError):
        PhysicsParams(J=1.0, G=1.0, gamma=-0.5)
    # A non-finite coupling is refused by name: the stability guard is False
    # for NaN, and the scalar schemes would return NaN final z unflagged.
    for name in ("J", "G", "gamma", "Deff"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidParameterError, match=f"^{name} must be finite"):
                PhysicsParams(**{"J": 1.0, "G": 1.0, name: value})


def test_scheme_properties_partition_schemes():
    # Every scheme is driven by a colored field, by a Wiener process of
    # strength Deff (the white limit), or, for sse alone, by one of rate gamma.
    colored = {s for s in Scheme if s.uses_colored_noise}
    deff = {s for s in Scheme if s.uses_deff}
    assert colored == {Scheme.SUV_COLORED, Scheme.UNNORMALIZED_SUV, Scheme.Z_COLORED}
    assert deff == {Scheme.WHITE_STRAT, Scheme.WHITE_ITO, Scheme.Z_WHITE}
    assert colored.isdisjoint(deff)
    assert set(Scheme) - colored - deff == {Scheme.SSE}
    assert {s for s in Scheme if s.is_scalar} == {Scheme.Z_COLORED, Scheme.Z_WHITE}


def test_generator_matrix_values_and_zero_expectation():
    # At z = 0.6, xi = 0.5, J = 2, G = 1: m = 0.2, J m + G xi = 0.9, so the
    # generator is diag(0.36, -0.54) and the amplitude drift is
    # 0.36 * sqrt(0.6) = 0.2788548009269340.
    a, b = _amps(0.6)
    ka, kb = _fresh(_suv_rate, a, b, P.G * 0.5, P.J)
    assert ka[0] == pytest.approx(0.36 * a[0], rel=1e-14)
    assert kb[0] == pytest.approx(-0.54 * b[0], rel=1e-14)
    assert abs(ka[0] - 0.27885480092693403) < 5e-16
    # <Gcal> = a ka + b kb = 0: this is what preserves the norm.
    assert abs(a[0] * ka[0] + b[0] * kb[0]) < 1e-15


def test_pointer_states_are_fixed_points_of_every_scheme():
    dt = 1e-3
    dw = math.sqrt(dt) * 1.3
    deff = math.sqrt(2.0)
    for z0 in (0.0, 1.0):
        a, b = _amps(z0)
        z = np.array([z0])
        for out in (
            _suv(a, b, 0.7, dt),
            _norm(_fresh(_sse_em, a, b, dw, dt, 0.5)),
            _norm(_fresh(_white_strat_heun, a, b, dw, dt, 2.0, deff)),
            _norm(_fresh(_white_ito_em, a, b, dw, dt, 2.0, deff)),
        ):
            assert out[0][0] ** 2 == z0
        assert _fresh(_z_colored_heun, z, 0.7, dt, 2.0, 1.0)[0] == z0
        assert _fresh(_z_white_heun, z, dw, dt, 2.0, deff)[0] == z0


def test_balanced_state_with_zero_field_is_stationary():
    # At z = 1/2, m = 0, so with xi = 0 the whole generator vanishes.
    a, b = _amps(0.5)
    out_a, _ = _suv(a, b, 0.0, 1e-3)
    assert out_a[0] * out_a[0] == a[0] * a[0]


def test_suv_drift_direction_follows_field_sign():
    a, b = _amps(0.6)
    up, _ = _suv(a, b, 0.0, 1e-3)  # J m > 0 pushes z up
    assert up[0] ** 2 > a[0] ** 2
    down, _ = _suv(a, b, -3.0, 1e-3)  # strong negative field wins
    assert down[0] ** 2 < a[0] ** 2


def test_suv_step_matches_two_stage_heun_arithmetic():
    a0, b0 = math.sqrt(0.6), math.sqrt(0.4)
    xi, dt, J, G = 0.5, 1e-3, 2.0, 1.0

    def rate(a, b):
        m = a * a - b * b
        r = J * m + G * xi
        return 0.5 * (1.0 - m) * r * a, -0.5 * (1.0 + m) * r * b

    ka, kb = rate(a0, b0)
    ka2, kb2 = rate(a0 + dt * ka, b0 + dt * kb)
    a = a0 + 0.5 * dt * (ka + ka2)
    b = b0 + 0.5 * dt * (kb + kb2)
    nrm = math.sqrt(a * a + b * b)
    out_a, out_b = _suv(*_amps(0.6), xi, dt)
    assert out_a[0] == a / nrm and out_b[0] == b / nrm


def test_suv_step_keeps_norm_tight_along_a_path():
    a, b = _amps(0.6)
    for _ in range(2000):
        a, b = _suv(a, b, 0.8, 1e-3)
    assert abs(a[0] * a[0] + b[0] * b[0] - 1.0) <= 1e-9
    assert 0.6 < a[0] * a[0] <= 1.0


def test_sse_step_matches_euler_maruyama_arithmetic():
    a0, b0 = math.sqrt(0.6), math.sqrt(0.4)
    gamma, dt, draw = 0.5, 1e-3, 1.3
    dw = math.sqrt(dt) * draw
    m = a0 * a0 - b0 * b0
    da = 0.5 * (-gamma * (1.0 - m) ** 2 * dt + 2.0 * math.sqrt(gamma) * (1.0 - m) * dw) * a0
    db = 0.5 * (-gamma * (1.0 + m) ** 2 * dt - 2.0 * math.sqrt(gamma) * (1.0 + m) * dw) * b0
    a, b = a0 + da, b0 + db
    nrm = math.sqrt(a * a + b * b)
    out_a, out_b = _norm(_fresh(_sse_em, *_amps(0.6), np.array([dw]), dt, gamma))
    assert out_a[0] == a / nrm and out_b[0] == b / nrm


def test_sse_z_is_statistically_a_martingale():
    # E[z_t] = z_0 for the norm-preserving white-noise scheme: at a short
    # horizon, and at one where every trajectory has collapsed, so that the
    # mean is the probability of collapse to |0>, which is z_0 for this
    # bounded martingale (Gisin, PRL 52, 1657 (1984)).
    for n, gamma, T, seed in ((2000, 0.5, 0.2, 61), (20000, 2.0, 4.0, 7)):
        cfg = TrajectoryConfig(
            params=PhysicsParams(J=2.0, G=1.0, gamma=gamma),
            noise=NoiseModel(kind=NoiseKind.NONE),
            dt=1e-3,
            T=T,
            z0=0.6,
            scheme=Scheme.SSE,
            seed=seed,
        )
        (finals,) = simulate([(cfg, n, 0, None)])
        se = finals.std(ddof=1) / math.sqrt(n)
        assert abs(finals.mean() - 0.6) < 3.0 * se, (n, gamma, T)


def test_white_steps_match_their_kernels():
    J, deff = 2.0, math.sqrt(2.0)
    a0, b0 = math.sqrt(0.6), math.sqrt(0.4)
    dt, draw = 1e-3, -0.7
    dw = math.sqrt(dt) * draw

    m = a0 * a0 - b0 * b0
    fa = 0.5 * J * m * (1.0 - m) * a0
    fb = -0.5 * J * m * (1.0 + m) * b0
    ga = 0.5 * deff * (1.0 - m) * a0
    gb = -0.5 * deff * (1.0 + m) * b0
    ap = a0 + fa * dt + ga * dw
    bp = b0 + fb * dt + gb * dw
    mp = ap * ap - bp * bp
    fa2 = 0.5 * J * mp * (1.0 - mp) * ap
    fb2 = -0.5 * J * mp * (1.0 + mp) * bp
    ga2 = 0.5 * deff * (1.0 - mp) * ap
    gb2 = -0.5 * deff * (1.0 + mp) * bp
    a = a0 + 0.5 * dt * (fa + fa2) + 0.5 * dw * (ga + ga2)
    b = b0 + 0.5 * dt * (fb + fb2) + 0.5 * dw * (gb + gb2)
    nrm = math.sqrt(a * a + b * b)
    out_a, out_b = _norm(_fresh(_white_strat_heun, *_amps(0.6), np.array([dw]), dt, J, deff))
    assert out_a[0] == a / nrm and out_b[0] == b / nrm

    c = 0.25 * deff * deff
    var = 1.0 - m * m
    ca = c * (0.5 * (1.0 - m) ** 2 - var) * a0
    cb = c * (0.5 * (1.0 + m) ** 2 - var) * b0
    ai = a0 + (fa + ca) * dt + ga * dw
    bi = b0 + (fb + cb) * dt + gb * dw
    nrmi = math.sqrt(ai * ai + bi * bi)
    outi_a, outi_b = _norm(_fresh(_white_ito_em, *_amps(0.6), np.array([dw]), dt, J, deff))
    assert outi_a[0] == ai / nrmi and outi_b[0] == bi / nrmi


def test_ito_conversion_drift_is_identity_at_balanced_state():
    # At m = 0 the conversion drift Cs is proportional to the identity, so
    # after renormalization the Ito and Stratonovich one-steps agree up to
    # O(dt^1.5) corrector terms: the gap shrinks 8x when dt shrinks 4x.
    def gap(dt):
        dw = np.array([math.sqrt(dt) * 0.9])
        zs = _norm(_fresh(_white_strat_heun, *_amps(0.5), dw, dt, 0.0, 1.0))[0][0] ** 2
        zi = _norm(_fresh(_white_ito_em, *_amps(0.5), dw, dt, 0.0, 1.0))[0][0] ** 2
        return abs(zs - zi)

    g1, g2 = gap(1e-4), gap(2.5e-5)
    assert g1 < 2e-7
    assert 7.5 < g1 / g2 < 8.5


def test_unnormalized_norm_growth_tracks_generator_expectation():
    # Delta N = 2 dt <Ghat> + O(dt^2), with <Ghat> = (1/2)(J m + G xi) m.
    a, b = _amps(0.6)
    dt, xi = 1e-4, 0.5
    m = a[0] * a[0] - b[0] * b[0]
    ghat = 0.5 * (P.J * m + P.G * xi) * m
    out_a, out_b = _fresh(_unnormalized_heun, a, b, xi, dt, P.J, P.G)
    dn = out_a[0] * out_a[0] + out_b[0] * out_b[0] - 1.0
    assert abs(dn - 2.0 * dt * ghat) < 2.0 * dt * dt


def test_unnormalized_and_normalized_schemes_agree_after_projection():
    # The two schemes differ by a pure rescaling; projecting the
    # unnormalized state back to the sphere reproduces the normalized z.
    an, bn = au, bu = _amps(0.6)
    for _ in range(1000):
        an, bn = _suv(an, bn, 0.5, 1e-3)
        au, bu = _fresh(_unnormalized_heun, au, bu, 0.5, 1e-3, P.J, P.G)
    norm2 = au[0] * au[0] + bu[0] * bu[0]
    assert norm2 > 1.5  # the norm really grew
    assert abs(an[0] * an[0] - au[0] * au[0] / norm2) < 1e-7


def test_unnormalized_step_flags_overflow(monkeypatch):
    # With J = 9 the unnormalized norm grows like exp(J t / 2) until it
    # overflows. The error names the failing trajectory by its stream index
    # (row, chunk start and index_offset) and the step at which it failed.
    cfg = TrajectoryConfig(
        params=PhysicsParams(J=9.0, G=1.0),
        noise=NoiseModel(kind=NoiseKind.FROZEN_OU),
        dt=0.01,
        T=200.0,
        z0=0.6,
        scheme=Scheme.UNNORMALIZED_SUV,
        seed=2,
    )
    # Each trajectory's overflow step comes from a replay. 19 to 47 fill
    # groups 1 (19 to 31) and 2 (32 to 47).
    short = dataclasses.replace(cfg, T=80.0)
    steps = overflow_steps(cfg, range(3))
    short_steps = overflow_steps(short, range(19, 48))
    first_chunk = first_overflow(short_steps, range(19, 32))
    earliest = [min(k for i, k in short_steps.items() if lo <= i < hi)
                for lo, hi in ((19, 32), (32, 48))]
    assert earliest[1] < earliest[0]  # the second group fails first
    wide = engine._MAX_CHUNK_WIDTH
    def recorded():
        simulate([(short, 29, 19, 10)])

    def final_only():
        simulate([(short, 29, 19, None)])

    cases = [  # run, chunk width cap, workers, failure
        (lambda: simulate([(cfg, 3, 0, 10)]), wide, 2, first_overflow(steps, range(3))),
        (lambda: simulate([(cfg, 2, 1, 10)]), wide, 2,
         first_overflow(steps, range(1, 3))),  # offset + row
        (recorded, wide, 2, first_overflow(short_steps, range(19, 48))),  # one batch
        # One group per chunk: 19 to 31, then 32 to 47. On two workers the
        # second chunk, which fails at an earlier step, may fail first;
        # the first failing chunk's error wins, recorded or final-only.
        (recorded, 1, 1, first_chunk),
        (recorded, 1, 2, first_chunk),
        (final_only, 1, 1, first_chunk),
        (final_only, 1, 2, first_chunk),
    ]
    for run, width, workers, where in cases:
        monkeypatch.setattr(engine, "_MAX_CHUNK_WIDTH", width)
        monkeypatch.setattr(engine, "_MAX_WORKERS", workers)
        with pytest.raises(IntegratorInstabilityError) as info:
            run()
        assert str(info.value) == f"{where}: unnormalized amplitudes overflowed"


def test_scalar_z_track_matches_amplitude_dynamics():
    # dz/dt = 2 z (1-z)[J(2z-1) + G xi] is the exact z-image of the
    # amplitude pair; the two Heun discretizations agree to O(dt^2) per
    # step and stay within 1e-6 over a thousand steps.
    a, b = _amps(0.6)
    z = np.array([0.6])
    one_step = abs(_suv(a, b, 0.5, 1e-3)[0][0] ** 2 - _fresh(_z_colored_heun, z, 0.5, 1e-3, P.J, P.G)[0])
    assert one_step < 1e-10
    for _ in range(1000):
        a, b = _suv(a, b, 0.5, 1e-3)
        z = _fresh(_z_colored_heun, z, 0.5, 1e-3, P.J, P.G)
    assert abs(a[0] * a[0] - z[0]) < 1e-6


@pytest.mark.parametrize("scheme", [Scheme.SUV_COLORED, Scheme.Z_COLORED], ids=lambda s: s.value)
def test_colored_schemes_converge_at_second_order_on_the_exact_logistic(scheme):
    # A frozen field and J = 0 make the colored ODE logistic,
    # dz/dt = 2 G xi z (1 - z), solved by
    # z(t) = z0 e^(2 G xi t) / (1 - z0 + z0 e^(2 G xi t)), with xi each
    # trajectory's field on its stream. The Heun steps (with the
    # renormalization, for the amplitudes) must reach T = 1 with an error
    # that falls fourfold at each halving of dt from 0.02 to 0.0025.
    n, z0 = 64, 0.6
    noise = NoiseModel(kind=NoiseKind.FROZEN_OU)
    (xi,) = next(simulate_paths(noise, 0, 1.0, 3, 0, n))  # the t = 0 row
    growth = np.exp(2.0 * xi)
    exact = z0 * growth / (1.0 - z0 + z0 * growth)
    errors = []
    for dt in (0.02, 0.01, 0.005, 0.0025):
        cfg = TrajectoryConfig(params=PhysicsParams(J=0.0, G=1.0), noise=noise, dt=dt, T=1.0,
                               z0=z0, scheme=scheme, seed=3)
        (final_z,) = simulate([(cfg, n, 0, None)])
        errors.append(np.max(np.abs(final_z - exact)))
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(3.6 <= r <= 4.4 for r in ratios), ratios


@pytest.mark.parametrize(
    "scheme, low, high",
    [(Scheme.Z_WHITE, 1.6, 2.5), (Scheme.WHITE_STRAT, 1.6, 2.5), (Scheme.WHITE_ITO, 1.15, 1.7)],
    ids=["z-scalar-white", "white-strat", "white-ito"],
)
def test_white_schemes_converge_at_their_strong_order_on_the_exact_logistic(scheme, low, high):
    # At J = 0 the white z equation dz = 2 Deff z (1 - z) o dW solves as
    # logit z(t) = logit z0 + 2 Deff W_t: the Stratonovich chain rule, which
    # the Ito form with its conversion drift shares. Every dt steps on sums
    # of one fine path's Wiener increments, so all see the same W. The RMS
    # error at T = 1 must halve at each halving of dt from 0.02 to 0.0025
    # for the Heun schemes (strong order 1 on scalar noise), and fall by
    # about sqrt 2 for Euler-Maruyama (order 1/2). Bands hold over 40 seeds.
    n, z0, deff, h = 512, 0.6, math.sqrt(2.0), 0.02 / 64  # h: the fine step
    dw = math.sqrt(h) * derive_stream(4, 0).standard_normal((3200, n))
    exact = 1.0 / (1.0 + (1.0 - z0) / z0 * np.exp(-2.0 * deff * dw.sum(axis=0)))
    kernel = {Scheme.WHITE_STRAT: _white_strat_heun, Scheme.WHITE_ITO: _white_ito_em}.get(scheme)
    errors = []
    for per in (64, 32, 16, 8):  # fine steps per coarse step
        z = np.full(n, z0)
        a, b = np.sqrt(z), np.sqrt(1.0 - z)
        for d in dw.reshape(-1, per, n).sum(axis=1):
            if kernel is None:
                z = _fresh(_z_white_heun, z, d, per * h, 0.0, deff)
            else:
                a, b = _norm(_fresh(kernel, a, b, d, per * h, 0.0, deff))
        if kernel is not None:
            z = a * a
        errors.append(math.sqrt(np.mean((z - exact) ** 2)))
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(low <= r <= high for r in ratios), ratios


def test_scalar_steps_validate_inputs():
    # The z-track schemes take their inputs from TrajectoryConfig, which
    # rejects a z0 outside [0, 1] and a nonpositive dt ...
    for scheme in (Scheme.Z_COLORED, Scheme.Z_WHITE):
        with pytest.raises(ConfigError):
            _config(scheme=scheme, z0=1.3)
        with pytest.raises(ConfigError):
            _config(scheme=scheme, dt=0.0)
    # ... and their kernels clamp an overshooting Heun step onto [0, 1].
    z = np.array([0.9, 0.1])
    assert np.array_equal(_fresh(_z_colored_heun, z, np.array([500.0, -500.0]), 1e-2, 2.0, 1.0), [0.0, 1.0])
    assert np.array_equal(_fresh(_z_white_heun, z, np.array([10.0, -10.0]), 1e-3, 0.0, 1.0), [0.0, 1.0])
    out = _fresh(_z_white_heun, np.array([0.5]), np.array([math.sqrt(1e-3) * 0.4]), 1e-3, 2.0, 1.0)
    assert 0.0 <= out[0] <= 1.0


def _config(**kw):
    defaults = dict(
        params=P,
        noise=NoiseModel(kind=NoiseKind.OU, tau=1.0),
        dt=1e-3,
        T=1.0,
        z0=0.6,
        scheme=Scheme.SUV_COLORED,
        seed=1,
    )
    defaults.update(kw)
    return TrajectoryConfig(**defaults)


def test_trajectory_config_validations(tmp_path):
    assert _config().n_steps == 1000
    # A horizon that is not a whole number of steps is rejected, not rounded
    # (to 0 or 1 step, or to 10 steps for T = 0.0105).
    for T in (1e-4, 0.0105, 1.0 + 3e-7):
        with pytest.raises(ConfigError, match="not a whole number of steps"):
            _config(T=T)
    with pytest.raises(ConfigError):
        _config(dt=0.0)
    with pytest.raises(ConfigError):
        _config(T=-1.0)
    for make in (lambda: _config(T=math.inf),
                 lambda: run_experiment(make_config("fig1a", T=math.inf, output_dir=str(tmp_path)))):
        with pytest.raises(ConfigError, match="^T must be finite"):  # not an OverflowError
            make()
    with pytest.raises(ConfigError):
        _config(z0=1.5)
    for seed in (1.5, True, np.float64(3.0)):  # a bool would fail only in the stream derivation
        with pytest.raises(ConfigError, match="seed must be an integer"):
            _config(seed=seed)
    # A numpy integer seed is stored as an int, as ExperimentConfig does.
    numpy_seed = _config(seed=np.int64(3), T=0.05)
    assert type(numpy_seed.seed) is int and numpy_seed == _config(seed=3, T=0.05)
    want, got = simulate([(_config(seed=3, T=0.05), 4, 0, None), (numpy_seed, 4, 0, None)])
    assert np.array_equal(want, got)
    # Stability guard: dt * max(J, G, gamma, Deff^2) must stay below 0.1.
    with pytest.raises(ConfigError):
        _config(params=PhysicsParams(J=200.0, G=1.0), dt=1e-3)


def test_trajectory_config_warns_on_unresolved_correlation_time():
    with pytest.warns(UserWarning):
        _config(noise=NoiseModel(kind=NoiseKind.OU, tau=0.005), dt=1e-3)


# Allocating plain-expression forms of the kernels that no exact test pins
# otherwise; the in-place kernels must reproduce them bit for bit.


def _ref_unnormalized_rate(a, b, xi, J, G):
    nrm2 = a * a + b * b
    m = (a * a - b * b) / nrm2
    r = 0.5 * (J * m + G * xi)
    return r * a, -r * b


def _ref_unnormalized_heun(a, b, xi, dt, J, G):
    ka, kb = _ref_unnormalized_rate(a, b, xi, J, G)
    ka2, kb2 = _ref_unnormalized_rate(a + dt * ka, b + dt * kb, xi, J, G)
    return a + 0.5 * dt * (ka + ka2), b + 0.5 * dt * (kb + kb2)


def _ref_z_colored_rate(z, xi, J, G):
    return 2.0 * z * (1.0 - z) * (J * (2.0 * z - 1.0) + G * xi)


def _ref_z_colored_heun(z, xi, dt, J, G):
    k1 = _ref_z_colored_rate(z, xi, J, G)
    k2 = _ref_z_colored_rate(z + dt * k1, xi, J, G)
    return np.clip(z + 0.5 * dt * (k1 + k2), 0.0, 1.0)


def _ref_z_white_heun(z, dw, dt, J, deff):
    f1 = 2.0 * J * z * (1.0 - z) * (2.0 * z - 1.0)
    g1 = 2.0 * deff * z * (1.0 - z)
    zp = z + f1 * dt + g1 * dw
    f2 = 2.0 * J * zp * (1.0 - zp) * (2.0 * zp - 1.0)
    g2 = 2.0 * deff * zp * (1.0 - zp)
    return np.clip(z + 0.5 * dt * (f1 + f2) + 0.5 * dw * (g1 + g2), 0.0, 1.0)


def test_kernels_match_allocating_expressions_bit_for_bit():
    # Eight trajectories with distinct states (unnormalized amplitudes for
    # the unnormalized scheme) and drives, two consecutive steps through two
    # alternating output buffers and one shared workspace, as the engine
    # runs them.
    rng = np.random.default_rng(8)
    n = 8
    z0 = rng.uniform(0.05, 0.95, n)
    amps = (rng.uniform(0.2, 1.5, n), rng.uniform(0.2, 1.5, n))
    xi = rng.standard_normal(n)
    dw = math.sqrt(1e-2) * rng.standard_normal(n)
    dt, J, G, deff = 1e-2, 2.0, 1.3, math.sqrt(2.0)
    cases = (
        (_unnormalized_heun, _ref_unnormalized_heun, amps, (xi, dt, J, G)),
        (_z_colored_heun, _ref_z_colored_heun, (z0,), (xi, dt, J, G)),
        (_z_white_heun, _ref_z_white_heun, (z0,), (dw, dt, J, deff)),
    )
    ws = _workspace(n)
    for kernel, reference, state, drive in cases:
        pair = len(state) == 2
        buffers = [(np.empty(n), np.empty(n)) if pair else np.empty(n) for _ in range(2)]
        expected = state
        for k in range(2):
            out = kernel(*state, *drive, buffers[k], ws)
            state = out if pair else (out,)
            expected = reference(*expected, *drive)
            expected = expected if pair else (expected,)
            for got, want in zip(state, expected):
                assert np.array_equal(got, want), (kernel.__name__, k)
    # The rates alone, where a reordering is not hidden by the small dt.
    ka, kb = _unnormalized_rate(*amps, G * xi, J, (np.empty(n), np.empty(n)), ws)
    ref_ka, ref_kb = _ref_unnormalized_rate(*amps, xi, J, G)
    assert np.array_equal(ka, ref_ka) and np.array_equal(kb, ref_kb)
    k = _z_colored_rate(z0, G * xi, J, np.empty(n), np.empty(n))
    assert np.array_equal(k, _ref_z_colored_rate(z0, xi, J, G))


def test_step_vectors_start_on_cache_lines():
    # Every row of the step loop's vectors starts on a 64-byte line, whatever
    # the width, so kernel speed does not depend on malloc's placement.
    for n, m in ((13, 1), (13, 7), (2, 2000), (6, 7501), (0, 5)):
        rows = _aligned_rows(n, m)
        assert rows.shape == (n, m)
        assert all(row.ctypes.data % 64 == 0 and row.flags.c_contiguous for row in rows)
    assert all(v.ctypes.data % 64 == 0 for v in _workspace(999))


def _ref_defect(a, b):
    """The norm defect of the parent's renormalization, |a'^2 + b'^2 - 1|."""
    nrm = np.sqrt(a * a + b * b)
    a, b = a / nrm, b / nrm
    return np.abs(a * a + b * b - 1.0)


def test_renormalize_rejects_degenerate_rows_by_name():
    good = np.array([0.6, 0.8, 0.3, 0.5])
    rest = np.sqrt(1.0 - good * good)
    for row, bad_a, bad_b in ((1, math.nan, 0.5), (2, math.inf, 0.1), (3, 0.0, 0.0)):
        a, b = good.copy(), rest.copy()
        a[row], b[row] = bad_a, bad_b
        with pytest.raises(IntegratorInstabilityError) as info:
            _norm((a, b))
        assert str(info.value) == "non-finite or zero-norm state"
        assert info.value.row == row
    # A subnormal squared norm survives the first guard but leaves a large
    # defect, above one in the first case and below one in the second.
    for bad_a, bad_b in ((1e-160, 1e-160), (7e-161, 3e-161)):
        a, b = good.copy(), rest.copy()
        a[2], b[2] = bad_a, bad_b
        defect = _ref_defect(a, b)
        with pytest.raises(IntegratorInstabilityError) as info:
            _norm((a, b))
        assert str(info.value) == (
            f"norm defect {np.max(defect):.3g} after renormalization exceeds 1e-09"
        )
        assert info.value.row == 2


def test_renormalize_defect_stays_within_its_docstring_bound():
    # _renormalize checks the defect only below a squared norm of 2^-1022;
    # above it, its docstring bounds the defect by 10u + O(u^2). Amplitudes
    # over the whole range of finite squared norms from 2^-1022 up, one in
    # four with one component that squares to a subnormal or to zero, stay
    # within 11u.
    rng = np.random.default_rng(3)
    size = 200_000
    radius = np.exp2(rng.uniform(-511.0, 512.0, size))
    angle = rng.uniform(0.0, 0.5 * math.pi, size)
    angle[::4] = np.exp2(rng.uniform(-1100.0, -500.0, size)[::4])
    a, b = radius * np.cos(angle), radius * np.sin(angle)
    with np.errstate(over="ignore"):
        nrm2 = a * a + b * b
    keep = (nrm2 >= 2.0**-1022) & (nrm2 < math.inf)
    a, b = a[keep], b[keep]
    assert a.size > size // 2 and np.count_nonzero(b * b < 2.0**-1022) > size // 8
    oa, ob = _norm((a, b))
    assert np.max(np.abs(oa * oa + ob * ob - 1.0)) <= 11 * 2.0**-53
