"""Tests of the step kernels and the trajectory configuration: fixed
points, arithmetic, guards, cross-checks. Kernels act on arrays with one
entry per trajectory and write into caller-owned buffers; most of these
tests use length-1 arrays and fresh buffers."""
import dataclasses
import math

import numpy as np
import pytest

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
    simulate_ensemble,
)
from suvsim.dynamics import (
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
    # E[z_t] = z_0 for the norm-preserving white-noise scheme.
    n = 2000
    cfg = TrajectoryConfig(
        params=PhysicsParams(J=2.0, G=1.0, gamma=0.5),
        noise=NoiseModel(kind=NoiseKind.NONE),
        dt=1e-3,
        T=0.2,
        z0=0.6,
        scheme=Scheme.SSE,
        seed=61,
    )
    finals = simulate_ensemble(cfg, n, record_series=False).final_z
    se = finals.std(ddof=1) / math.sqrt(n)
    assert abs(finals.mean() - 0.6) < 3.0 * se


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
    # Alone, trajectories 0, 1 and 2 overflow at steps 9004, 6927 and 6760.
    short = dataclasses.replace(cfg, T=80.0)  # trajectory 0 survives this horizon
    wide = engine._MAX_CHUNK_WIDTH
    cases = [  # config, chunk width cap, run arguments, failure
        (cfg, wide, dict(n_traj=3), "trajectory 2, step 6760"),  # row 2 of one batch
        (short, 1, dict(n_traj=3), "trajectory 1, step 6927"),  # second batch
        (cfg, wide, dict(n_traj=2, index_offset=1), "trajectory 2, step 6760"),  # offset + row 1
    ]
    for c, width, kw, where in cases:
        monkeypatch.setattr(engine, "_MAX_CHUNK_WIDTH", width)
        with pytest.raises(IntegratorInstabilityError) as info:
            simulate_ensemble(c, **kw)
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


def test_trajectory_config_validations():
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
    with pytest.raises(ConfigError):
        _config(z0=1.5)
    with pytest.raises(ConfigError):
        _config(seed=1.5)
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
