"""Acceptance suite: statistical verification of the model's analytic limits.

Each test exercises one headline claim end to end through the installed
package, records a one-line verdict for the terminal report, and then
asserts the claim at its stated tolerance. Ensemble sizes, seeds, and
tolerances are fixed so every run is reproducible bit for bit.
"""
import math

import numpy as np
import pytest

import suvsim.engine as engine
from suvsim import (
    NoiseKind,
    NoiseModel,
    PhysicsParams,
    Scheme,
    TrajectoryConfig,
    born_deviation,
    collapse_statistics,
    effective_diffusion,
    ks_distance,
    make_config,
    run_experiment,
    simulate,
)
from suvsim.dynamics import _renormalize, _suv_heun, _unnormalized_heun, _workspace
from suvsim.experiments import (
    _REPORT_ENTRIES,
    EPS_COLLAPSE,
    _fit_lags,
    _noise_statistics,
)
from suvsim.output import write_ensemble_csv

DEFF = effective_diffusion(10.0, 0.01, NoiseKind.OU)  # sqrt(2), shared scale


def _traj(scheme, *, seed, J=2.0, G=1.0, gamma=0.0, deff=0.0, kind=NoiseKind.OU,
          tau=1.0, dt=1e-3, T=1.0, z0=0.6):
    return TrajectoryConfig(
        params=PhysicsParams(J=J, G=G, gamma=gamma, Deff=deff),
        noise=NoiseModel(kind=kind, tau=tau),
        dt=dt,
        T=T,
        z0=z0,
        scheme=scheme,
        seed=seed,
    )


def test_smooth_collapse_has_vanishing_quadratic_variation(criterion_report):
    # Colored-noise paths are differentiable: their quadratic variation
    # scales linearly to zero with dt. The diffusive unraveling keeps a
    # finite quadratic variation at the same step size. The four ensembles
    # run in one engine call, so their chunks share the pool.
    n = 2000
    dts = (1e-2, 1e-3, 1e-4)
    cfgs = [_traj(Scheme.SUV_COLORED, seed=8, J=2.0, G=1.0, tau=1.0, dt=dt) for dt in dts]
    cfgs.append(_traj(Scheme.SSE, seed=7, J=0.0, G=0.0, gamma=0.5, kind=NoiseKind.NONE, dt=1e-3))
    *colored, diffusive = (s.qv[-1] for s in simulate([(c, n, 0, c.n_steps) for c in cfgs]))
    ratio = diffusive / colored[1]
    slope = np.polyfit(np.log(dts), np.log(colored), 1)[0]
    ok = ratio >= 100.0 and 0.8 <= slope <= 1.2
    criterion_report(
        1,
        ok,
        f"qv ratio diffusive/colored {ratio:.1f} (need >= 100), "
        f"colored qv slope vs dt {slope:.4f} (need in [0.8, 1.2])",
    )
    assert ratio >= 100.0
    assert 0.8 <= slope <= 1.2


def test_fast_noise_ensemble_dephases_at_the_analytic_rate(criterion_report):
    # At the fluctuation-dissipation point the ensemble mean of z stays
    # put while the mean off-diagonal decays at rate Deff^2 / 2.
    cfg = _traj(
        Scheme.SUV_COLORED, seed=41, J=2.0, G=10.0, tau=0.01, dt=1e-3, T=2.5
    )
    (s,) = simulate([(cfg, 10000, 0, 100)])
    dev = np.abs(s.mean_z - 0.6)
    margin = 3.0 * s.stderr_z + 1e-12
    z_ok = bool(np.all(dev <= margin))
    worst = float(np.max(dev / np.where(margin > 0, margin, 1.0)))

    mask = s.mean_offdiag > 0.02
    slope = np.polyfit(s.times[mask], np.log(s.mean_offdiag[mask]), 1)[0]
    rate_ratio = -slope / (0.5 * DEFF * DEFF)
    off_ok = abs(rate_ratio - 1.0) <= 0.05
    criterion_report(
        2,
        z_ok and off_ok,
        f"max |mean_z - z0| at {worst:.2f} of the 3-sigma margin (need <= 1), "
        f"offdiag decay rate / (Deff^2/2) = {rate_ratio:.4f} (need within 5%)",
    )
    assert z_ok
    assert off_ok


def test_noise_processes_match_their_stationary_laws(criterion_report):
    # Autocovariance at lags {0, tau, 2 tau}, exponential decay rate, and
    # one-sample KS distance of steady draws, for both processes, through
    # noise-validation's own statistics, whose chunks step on the engine's
    # pool, as the experiment runs them.
    n, tau, dt, n_steps = 20000, 1.0, 0.005, 2000
    kinds = (
        (NoiseKind.OU, 1.0, 301, 0.03, (303, 1)),
        (NoiseKind.SBM, 1.0 / 3.0, 302, 0.05, (303, 0)),
    )
    paths = [(NoiseModel(kind=kind, tau=tau), seed, 0, steady)
             for kind, _, seed, _, steady in kinds]
    lags = _fit_lags(tau)
    results = {}
    steady_ks = {}
    for (kind, variance, _, acf_tol, _), (values, ks) in zip(
        kinds, _noise_statistics(paths, n_steps, dt, n, 50)  # tau / 4 = 50 dt
    ):
        rels = []
        for j in _REPORT_ENTRIES:
            target = variance * math.exp(-lags[j] / tau)
            rels.append(abs(values[j] - target) / target)
        rate = -np.polyfit(lags, np.log(values), 1)[0]
        results[kind] = (max(rels), abs(rate * tau - 1.0), acf_tol)
        steady_ks[kind] = ks

    sbm_ks, ou_ks = steady_ks[NoiseKind.SBM], steady_ks[NoiseKind.OU]
    acf_ok = all(worst <= tol for worst, _, tol in results.values())
    rate_ok = all(rate_err <= 0.05 for _, rate_err, _ in results.values())
    ks_ok = sbm_ks < 0.01 and ou_ks < 0.01
    ou_res, sbm_res = results[NoiseKind.OU], results[NoiseKind.SBM]
    criterion_report(
        3,
        acf_ok and rate_ok and ks_ok,
        f"acf rel err ou {ou_res[0]:.4f} (<= 0.03) sbm {sbm_res[0]:.4f} (<= 0.05), "
        f"rate err ou {ou_res[1]:.4f} sbm {sbm_res[1]:.4f} (<= 0.05), "
        f"steady ks ou {ou_ks:.5f} sbm {sbm_ks:.5f} (< 0.01)",
    )
    assert acf_ok
    assert rate_ok
    assert ks_ok


def test_frozen_field_reproduces_initial_weights(criterion_report):
    # A static uniform field draw collapses each trajectory toward the
    # pointer state on its side of the moving repeller; the ensemble
    # fractions must land on the initial weights within binomial error.
    n = 20000
    cfg = _traj(
        Scheme.SUV_COLORED, seed=55, J=1.0, G=1.0, kind=NoiseKind.FROZEN_SBM,
        dt=0.01, T=25.0,
    )
    (final_z,) = simulate([(cfg, n, 0, None)])
    stats = collapse_statistics(final_z, EPS_COLLAPSE)
    dev = born_deviation(stats, 0.6)  # raises if >= 1% unresolved
    bound = 3.0 * math.sqrt(0.6 * 0.4 / n)
    ok = abs(dev) <= bound
    criterion_report(
        4,
        ok,
        f"frozen-field collapse fraction deviation {dev:+.5f} "
        f"(need |dev| <= {bound:.5f}), unresolved {stats.frac_unresolved:.4f}",
    )
    assert ok


def test_born_rule_holds_exactly_at_the_balance_point(criterion_report):
    # With J = Deff^2 the collapse fraction matches the initial weight;
    # detuning J to 4 Deff^2 produces a deviation far outside noise.
    n = 20000
    bound = 3.0 * math.sqrt(0.6 * 0.4 / n)

    balanced_cfg = _traj(
        Scheme.SUV_COLORED, seed=99, J=2.0, G=10.0, tau=0.01, dt=1e-3, T=8.0
    )
    detuned_cfg = _traj(
        Scheme.SUV_COLORED, seed=101, J=8.0, G=10.0, tau=0.01, dt=1e-3, T=4.0
    )
    balanced, detuned = simulate([(balanced_cfg, n, 0, None), (detuned_cfg, n, 0, None)])
    dev_bal = born_deviation(collapse_statistics(balanced, EPS_COLLAPSE), 0.6)
    dev_det = born_deviation(collapse_statistics(detuned, EPS_COLLAPSE), 0.6)

    ok = abs(dev_bal) <= bound and abs(dev_det) > bound
    criterion_report(
        5,
        ok,
        f"deviation {dev_bal:+.5f} at J = Deff^2 (need within {bound:.5f}), "
        f"{dev_det:+.5f} at J = 4 Deff^2 (need outside)",
    )
    assert abs(dev_bal) <= bound
    assert abs(dev_det) > bound


def test_short_correlation_times_converge_to_the_white_limit(criterion_report):
    # Final-z distributions: colored noise at tau = 0.01 must be KS-close
    # to the Stratonovich white-noise model (within 3x the white model's
    # self-distance across disjoint ensembles); tau = 1 must not be.
    n = 50000
    white_cfg = _traj(Scheme.WHITE_STRAT, seed=1234, J=2.0, G=10.0, deff=DEFF,
                      kind=NoiseKind.NONE)
    fast_cfg = _traj(Scheme.SUV_COLORED, seed=777, J=2.0, G=10.0, tau=0.01)
    slow_cfg = _traj(Scheme.SUV_COLORED, seed=778, J=2.0, G=1.0, tau=1.0)
    white_a, white_b, fast, slow = simulate([
        (white_cfg, n, 0, None), (white_cfg, n, n, None), (fast_cfg, n, 0, None),
        (slow_cfg, n, 0, None),
    ])
    ks_self = ks_distance(white_a, white_b)
    ks_fast = ks_distance(fast, white_a)
    ks_slow = ks_distance(slow, white_a)
    ok = ks_fast < 3.0 * ks_self and ks_slow > 3.0 * ks_self
    criterion_report(
        6,
        ok,
        f"ks to white limit: tau=0.01 {ks_fast:.5f} (need < {3 * ks_self:.5f}), "
        f"tau=1 {ks_slow:.5f} (need > {3 * ks_self:.5f})",
    )
    assert ks_fast < 3.0 * ks_self
    assert ks_slow > 3.0 * ks_self


def test_ito_and_stratonovich_forms_agree_in_law(criterion_report):
    # The conversion drift makes the Ito integrator sample the same law as
    # the Stratonovich one: their KS distance must sit within twice the
    # Stratonovich self-distance.
    n = 50000
    base = dict(J=2.0, G=10.0, deff=DEFF, kind=NoiseKind.NONE)
    strat_cfg = _traj(Scheme.WHITE_STRAT, seed=401, **base)
    ito_cfg = _traj(Scheme.WHITE_ITO, seed=401, **base)
    strat, ito, strat_b = simulate(
        [(strat_cfg, n, 0, None), (ito_cfg, n, n, None), (strat_cfg, n, 2 * n, None)]
    )
    ks_self = ks_distance(strat, strat_b)
    ks_cross = ks_distance(strat, ito)
    ok = ks_cross < 2.0 * ks_self
    criterion_report(
        7,
        ok,
        f"ks strat vs ito {ks_cross:.5f} (need < 2x self-distance {2 * ks_self:.5f})",
    )
    assert ok


def test_reproducibility_and_consistency_properties(criterion_report, tmp_path, monkeypatch):
    # Bundle of structural guarantees: chunk invariance, stream purity,
    # byte-identical reruns, norm preservation, normalized/unnormalized
    # consistency, quadratic-variation additivity, and exact CSV floats.
    failures = []

    cfg = _traj(Scheme.SUV_COLORED, seed=2024, T=0.1)
    paths = [(NoiseModel(kind=NoiseKind.SBM, tau=0.02), 2024, 5, (2024, 9))]  # from lane 5
    runs = []
    for width in (1, 13, engine._MAX_CHUNK_WIDTH):  # the default width last
        monkeypatch.setattr(engine, "_MAX_CHUNK_WIDTH", width)
        ((acf, _),) = _noise_statistics(paths, 100, 1e-3, 60, 5)
        runs.append((simulate([(cfg, 60, 0, 10)])[0], *simulate([(cfg, 60, 0, None)]), acf))
    ref, ref_z, ref_acf = runs[0]
    if not all(
        np.array_equal(ref_z, final_z)
        and np.array_equal(ref.mean_z, s.mean_z)
        and np.array_equal(ref.qv, s.qv)
        and np.array_equal(ref_acf, acf)
        for s, final_z, acf in runs[1:]
    ):
        failures.append("chunk invariance")

    full, part = simulate([(cfg, 9, 0, None), (cfg, 5, 4, None)])
    if not np.array_equal(full[4:9], part):
        failures.append("stream purity")

    manifests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        manifests.append(
            run_experiment(
                make_config("frozen-limit", {"n_traj": 150, "T": 1.0}, output_dir=str(out))
            )
        )
        del out
    same_files = manifests[0]["files"] == manifests[1]["files"]
    same_bytes = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in manifests[0]["files"]
    )
    if not (same_files and same_bytes):
        failures.append("byte-identical rerun")

    # Norm preservation and normalized/unnormalized consistency, on the
    # step kernels with one trajectory (J = 2, G = 1), each step writing
    # into fresh buffers.
    def pair():
        return np.empty(1), np.empty(1)

    def suv(a, b, xi):
        raw = _suv_heun(a, b, xi, 1e-3, 2.0, 1.0, pair(), _workspace(1))
        return _renormalize(*raw, pair(), _workspace(1))

    a, b = np.array([math.sqrt(0.6)]), np.array([math.sqrt(0.4)])
    worst_defect = 0.0
    for _ in range(500):
        a, b = suv(a, b, 0.8)
        worst_defect = max(worst_defect, abs(a[0] * a[0] + b[0] * b[0] - 1.0))
    if worst_defect > 1e-9:
        failures.append("norm preservation")

    an = au = np.array([math.sqrt(0.6)])
    bn = bu = np.array([math.sqrt(0.4)])
    for _ in range(1000):
        an, bn = suv(an, bn, 0.5)
        au, bu = _unnormalized_heun(au, bu, 0.5, 1e-3, 2.0, 1.0, pair(), _workspace(1))
    if abs(an[0] * an[0] - au[0] * au[0] / (au[0] * au[0] + bu[0] * bu[0])) > 1e-7:
        failures.append("normalized/unnormalized consistency")

    # The qv at every recorded step is the running sum over all steps, so a
    # coarser recording grid reads the same values at the steps it keeps.
    fine = simulate([(cfg, 9, 0, 1)])[0].qv
    for dec in (3, 7, 13):
        coarse = simulate([(cfg, 9, 0, dec)])[0].qv
        if not np.array_equal(coarse, fine[np.r_[0 : cfg.n_steps : dec, cfg.n_steps]]):
            failures.append(f"qv additivity at decimation {dec}")

    (res,) = simulate([(_traj(Scheme.SUV_COLORED, seed=5, T=0.02), 6, 0, 5)])
    csv_path = tmp_path / "round_trip.csv"
    write_ensemble_csv(str(csv_path), res)
    lines = csv_path.read_text().strip().splitlines()[1:]
    round_trip = all(
        float(line.split(",")[1]) == res.mean_z[j]
        and float(line.split(",")[5]) == res.qv[j]
        for j, line in enumerate(lines)
    )
    if not round_trip:
        failures.append("csv float round-trip")

    ok = not failures
    detail = (
        "chunk invariance, stream purity, byte-identical rerun, norm "
        "preservation, scheme consistency, qv additivity, csv round-trip all hold"
        if ok
        else "failed: " + ", ".join(failures)
    )
    criterion_report(8, ok, detail)
    assert ok, failures
