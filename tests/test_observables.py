"""Tests of ensemble statistics: compensated sums, quadratic variation,
collapse classification, and distribution distance."""
import numpy as np
import pytest
import scipy.stats

from suvsim import (
    CollapseStats,
    CompensatedAccumulator,
    EnsembleSummary,
    InconclusiveError,
    InvalidParameterError,
    NoiseKind,
    NoiseModel,
    PhysicsParams,
    Scheme,
    TrajectoryConfig,
    born_deviation,
    collapse_statistics,
    ks_distance,
    simulate_ensemble,
)


def test_compensated_sum_recovers_cancelled_small_term():
    acc = CompensatedAccumulator()
    for x in (1e16, 1.0, -1e16):
        acc.add(x)
    assert float(acc.total) == 1.0  # naive summation returns 0.0 here


def test_compensated_sum_is_batch_invariant():
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((100, 4)) * 10.0 ** rng.integers(-8, 8, (100, 1))
    whole = CompensatedAccumulator(4)
    whole.add_rows(rows)
    split = CompensatedAccumulator(4)
    split.add_rows(rows[:37])
    split.add_rows(rows[37:])
    assert np.array_equal(whole.total, split.total)


def test_quadratic_variation_small_case(monkeypatch):
    # The engine's qv is the running sum of the per-step trajectory means of
    # the squared amplitude increments. Two trajectories with increments
    # (0.1, 0.2) and (0.3, 0.4) come in as chunk rows
    # [z | offdiag | squared increments] on a two-step grid.
    import suvsim.engine as engine

    increments = {0: [0.1, 0.2], 1: [0.3, 0.4]}

    def chunk(cfg, streams, record_at, need_xi, first_index):
        row = [0.6] * 3 + [0.4] * 3 + list(np.square(increments[first_index]))
        return np.array([row]), None, np.array([0.6])

    monkeypatch.setattr(engine, "_integrate_chunk", chunk)
    cfg = TrajectoryConfig(
        params=PhysicsParams(J=2.0, G=1.0),
        noise=NoiseModel(kind=NoiseKind.OU),
        dt=0.01,
        T=0.02,
        z0=0.6,
        scheme=Scheme.SUV_COLORED,
        seed=1,
    )
    monkeypatch.setattr(engine, "_MAX_CHUNK_WIDTH", 1)
    qv = simulate_ensemble(cfg, n_traj=2, decimation=1).summary.qv
    assert qv == pytest.approx([0.0, 0.05, 0.15], rel=1e-14)
    assert np.all(np.diff(qv) >= 0.0)


def _summary(**kw):
    n = 3
    fields = dict(
        times=np.linspace(0.0, 0.2, n),
        mean_z=np.full(n, 0.6),
        mean_offdiag=np.full(n, 0.4),
        qv=np.array([0.0, 0.1, 0.2]),
        n_traj=10,
    )
    fields.update(kw)
    return EnsembleSummary(**fields)


def test_ensemble_summary_accepts_roundoff_headroom():
    s = _summary(mean_z=np.array([0.6, 1.0 + 1e-10, 0.0 - 1e-10]))
    assert s.stderr_z is None


def test_ensemble_summary_validations():
    with pytest.raises(InvalidParameterError):
        _summary(mean_z=np.full(4, 0.6))
    with pytest.raises(InvalidParameterError):
        _summary(stderr_z=np.zeros(2))
    with pytest.raises(InvalidParameterError):
        _summary(n_traj=0)
    with pytest.raises(InvalidParameterError):
        _summary(mean_z=np.array([0.6, 1.1, 0.6]))
    with pytest.raises(InvalidParameterError):
        _summary(mean_offdiag=np.array([0.4, -0.6, 0.4]))
    with pytest.raises(InvalidParameterError):
        _summary(qv=np.array([0.0, 0.2, 0.1]))


def test_collapse_stats_fractions():
    s = CollapseStats(n_zero=3, n_one=5, n_unresolved=2)
    assert s.n_traj == 10
    assert s.frac_zero == 0.3
    assert s.frac_one == 0.5
    assert s.frac_unresolved == 0.2
    assert s.frac_zero + s.frac_one + s.frac_unresolved == 1.0
    with pytest.raises(InvalidParameterError):
        CollapseStats(n_zero=-1, n_one=2, n_unresolved=0)
    with pytest.raises(InvalidParameterError):
        CollapseStats(n_zero=0, n_one=0, n_unresolved=0)


def test_collapse_classification_thresholds_are_inclusive():
    z = [0.9999, 0.99995, 0.00005, 0.0001, 0.5, 0.3]
    s = collapse_statistics(z, eps_collapse=1e-4)
    assert (s.n_zero, s.n_one, s.n_unresolved) == (2, 2, 2)
    for bad in (0.0, 0.5, -0.1):
        with pytest.raises(InvalidParameterError):
            collapse_statistics(z, eps_collapse=bad)
    with pytest.raises(InvalidParameterError):
        collapse_statistics([], eps_collapse=1e-4)


def test_ks_distance_extremes_and_symmetry():
    assert ks_distance([0.1, 0.5, 0.9], [0.1, 0.5, 0.9]) == 0.0
    assert ks_distance([0.0, 0.0], [1.0, 1.0, 1.0]) == 1.0
    a = [0.2, 0.8, 0.4]
    b = [0.1, 0.9]
    assert ks_distance(a, b) == ks_distance(b, a)
    assert ks_distance(a, b) == ks_distance(list(reversed(a)), b)
    with pytest.raises(InvalidParameterError):
        ks_distance([], [0.1])


def test_ks_distance_matches_reference_implementation():
    rng = np.random.default_rng(13)
    a = rng.standard_normal(400)
    b = rng.standard_normal(500) * 1.2 + 0.1
    ours = ks_distance(a, b)
    ref = scipy.stats.ks_2samp(a, b).statistic
    assert abs(ours - ref) < 1e-12


def test_born_deviation_and_inconclusive_guard():
    assert born_deviation(CollapseStats(600, 400, 0), 0.6) == 0.0
    dev = born_deviation(CollapseStats(612, 379, 9), 0.6)
    assert dev == pytest.approx(0.012, rel=1e-12)
    with pytest.raises(InconclusiveError):
        born_deviation(CollapseStats(600, 390, 10), 0.6)
    with pytest.raises(InvalidParameterError):
        born_deviation(CollapseStats(600, 400, 0), 1.5)
