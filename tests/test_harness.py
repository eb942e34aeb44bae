"""Tests of configuration resolution, experiment runners, file output, and
the command-line entry point."""
import csv
import json
import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from conftest import path_matrix

import suvsim.engine as engine
from suvsim import (
    EXPERIMENT_DEFAULTS,
    ConfigError,
    Experiment,
    InconclusiveError,
    NoiseKind,
    NoiseModel,
    PhysicsParams,
    Scheme,
    SimulationError,
    TrajectoryConfig,
    __version__,
    build_trajectory_config,
    effective_diffusion,
    make_config,
    parse_config_file,
    run_experiment,
    simulate,
    simulate_paths,
)
from suvsim.cli import build_parser, main
from suvsim.harness import MANIFEST_NAME
from suvsim.output import (
    ENSEMBLE_HEADER,
    format_value,
    sha256_file,
    write_ensemble_csv,
    write_json_atomic,
    write_table_csv,
    write_trajectory_csv,
)


def test_parse_config_file_types_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a comment line\n"
        "\n"
        "n_traj = 250\n"
        "tau = 0.5   # trailing comment\n"
        "noise = sbm\n"
        "output_dir = out\n"
    )
    values = parse_config_file(str(path))
    assert values == {
        "n_traj": 250,
        "tau": 0.5,
        "noise": NoiseKind.SBM,
        "output_dir": "out",
    }
    assert isinstance(values["n_traj"], int)


def test_parse_config_file_rejects_bad_lines(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_traj 250\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_file(str(bad))
    bad.write_text("\nbogus = 3\n")
    with pytest.raises(ConfigError, match="2: unknown setting 'bogus'"):
        parse_config_file(str(bad))
    bad.write_text("tau = fast\n")
    with pytest.raises(ConfigError, match="bad value for tau"):
        parse_config_file(str(bad))
    bad.write_text("dt = inf\n")
    with pytest.raises(ConfigError, match="bad value for dt"):
        parse_config_file(str(bad))
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file(str(tmp_path / "missing.cfg"))


def test_make_config_layers_defaults_file_and_overrides():
    cfg = make_config("fig1a")
    assert cfg.experiment is Experiment.FIG1A
    assert cfg.n_traj == 20000 and cfg.J == 2.0 and cfg.gamma == 0.5
    assert cfg.scheme is Scheme.SUV_COLORED and cfg.noise is NoiseKind.OU

    layered = make_config("fig1a", {"n_traj": 500, "tau": 0.25}, n_traj=100, master_seed=None)
    assert layered.n_traj == 100  # command line beats the file
    assert layered.tau == 0.25  # the file beats the defaults
    assert layered.master_seed == cfg.master_seed  # None means "not given"
    assert make_config("fig1a", noise="sbm").noise is NoiseKind.SBM


def test_make_config_rejects_bad_input(tmp_path):
    with pytest.raises(ConfigError, match="unknown experiment"):
        make_config("warp-drive")
    with pytest.raises(ConfigError, match="unknown setting"):
        make_config("fig1a", {"speed": 3})
    with pytest.raises(ConfigError):
        make_config("fig1a", master_seed=-1)
    with pytest.raises(ConfigError):
        make_config("fig1a", master_seed=2**64)
    with pytest.raises(ConfigError):
        make_config("fig1a", n_traj=0)
    with pytest.raises(ConfigError):
        make_config("fig1a", decimation=0)
    # Integer settings take integers only, numpy integers included; a float
    # would be truncated or fail deep inside a run.
    for key, value in (("master_seed", 1.5), ("n_traj", 2.5), ("decimation", 2.5),
                       ("n_traj", True)):
        with pytest.raises(ConfigError, match=f"^{key} must be an integer, got {value}$"):
            make_config("frozen-limit", **{key: value})
    # A string value from a Python caller is parsed as a config file's is.
    with pytest.raises(ConfigError, match="^bad value for scheme: 'bogus'$"):
        make_config("fig1a", scheme="bogus")
    with pytest.raises(ConfigError, match="^bad value for J: 'abc'$"):
        make_config("fig1a", J="abc")
    seeded = make_config("frozen-limit", master_seed=np.uint64(1), n_traj=np.int64(50))
    assert (type(seeded.master_seed), type(seeded.n_traj)) == (int, int)
    # Float settings take real numbers only and are stored as floats, and
    # output_dir takes a str or path-like and is stored as a str, so the
    # manifest records what ran instead of failing after every CSV is written.
    for key, value in (("J", True), ("T", 1j), ("z0", Decimal("0.5"))):
        message = f"^{key} must be a real number, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigError, match=message):
            make_config("fig1a", **{key: value})
    # float() raises OverflowError on an integer or fraction too large for
    # a double; a library caller gets a ConfigError that names the key.
    for key, value in (("J", 10**400), ("T", 10**400), ("z0", Fraction(-(10**400), 3))):
        with pytest.raises(ConfigError, match=f"^{key} is too large for a float$"):
            make_config("fig1a", **{key: value})
    assert make_config("fig1a", J=10**300).J == 1e300  # large but in range
    for value in (3, b"results"):
        with pytest.raises(ConfigError, match="^output_dir must be a str or os.PathLike, got"):
            make_config("fig1a", output_dir=value)
    typed = make_config("fig1a", {"n_traj": 5, "T": 0.05}, J=np.float32(2.0), z0=Fraction(1, 4),
                        output_dir=tmp_path / "typed")
    assert (typed.J, typed.z0, typed.output_dir) == (2.0, 0.25, str(tmp_path / "typed"))
    assert (type(typed.J), type(typed.z0)) == (float, float)
    assert run_experiment(typed)["config"]["J"] == 2.0
    # noise-validation simulates both noise processes and no scheme, so a
    # scheme or noise other than its preset's would only mislabel the run.
    with pytest.raises(ConfigError, match=r"--scheme or --noise \(got --scheme sse\)"):
        make_config("noise-validation", scheme="sse")
    with pytest.raises(ConfigError, match=r"\(got --noise frozen-ou\)"):
        make_config("noise-validation", {"noise": "frozen-ou"})
    assert make_config("noise-validation", noise="ou", scheme="suv-colored").noise is NoiseKind.OU
    # weak-equivalence always runs its white-strat and suv-colored pair.
    with pytest.raises(ConfigError, match=r"does not take --scheme \(got --scheme sse\)"):
        make_config("weak-equivalence", scheme="sse")
    assert make_config("weak-equivalence", scheme="suv-colored").scheme is Scheme.SUV_COLORED
    # fig1b's companion is the sbm ensemble; an sbm headline would share its name.
    with pytest.raises(ConfigError, match="fig1b does not take --noise sbm"):
        make_config("fig1b", noise="sbm")


def test_fig1b_names_its_headline_ensemble_after_its_noise(tmp_path):
    cfg = make_config("fig1b", {"n_traj": 1, "T": 0.05}, output_dir=str(tmp_path),
                      noise="frozen-ou")
    assert sorted(run_experiment(cfg)["files"]) == [
        "fig1b_frozen-ou.csv",
        "fig1b_frozen-ou_trajectory.csv",
        "fig1b_sbm.csv",
        "fig1b_sbm_trajectory.csv",
    ]


def test_experiment_defaults_cover_every_preset():
    assert set(EXPERIMENT_DEFAULTS) == set(Experiment)
    for exp in Experiment:
        assert make_config(exp).experiment is exp
    fast, slow = make_config("fig1b"), make_config("fig1a")
    assert fast.G == 10.0 and fast.tau == 0.01
    assert make_config("gksl-check").scheme is Scheme.WHITE_ITO
    assert make_config("frozen-limit").noise is NoiseKind.FROZEN_SBM
    # The fast and slow noise presets share one white-noise diffusion scale.
    assert effective_diffusion(fast.G, fast.tau, fast.noise) == math.sqrt(2.0)
    assert effective_diffusion(slow.G, slow.tau, slow.noise) == math.sqrt(2.0)


def test_build_trajectory_config_fills_derived_couplings():
    cfg = make_config("fig1b")
    traj = build_trajectory_config(cfg)
    assert traj.params.Deff == math.sqrt(2.0)
    assert traj.scheme is Scheme.SUV_COLORED and traj.seed == cfg.master_seed
    override = build_trajectory_config(cfg, scheme=Scheme.SSE, seed=42, z0=0.25)
    assert override.scheme is Scheme.SSE
    assert override.seed == 42 and override.z0 == 0.25
    # The overrides are named parameters: a misspelt one raises, where it
    # would otherwise leave the experiment's value in place.
    with pytest.raises(TypeError, match="z_0"):
        build_trajectory_config(make_config("born-sweep"), z_0=0.3)


def test_build_trajectory_config_guards_scheme_noise_pairs():
    with pytest.raises(ConfigError, match="evolving noise kind"):
        build_trajectory_config(make_config("gksl-check"), noise=NoiseKind.FROZEN_OU)
    with pytest.raises(ConfigError, match="noise process"):
        build_trajectory_config(make_config("fig1a"), noise=NoiseKind.NONE)


def test_engine_rejects_colored_scheme_without_noise_process():
    # The pairing is rejected where the engine's configuration is built,
    # so no ensemble can start with it.
    for scheme in (s for s in Scheme if s.uses_colored_noise):
        with pytest.raises(ConfigError, match="driven by a colored field and needs a noise"):
            TrajectoryConfig(
                params=PhysicsParams(J=2.0, G=1.0),
                noise=NoiseModel(kind=NoiseKind.NONE),
                dt=1e-3,
                T=0.01,
                z0=0.6,
                scheme=scheme,
                seed=1,
            )


def test_format_value_round_trips_floats():
    assert format_value(None) == ""
    assert format_value("label") == "label"
    assert format_value(7) == "7"
    for x in (0.1, 1.0 / 3.0, 1e-17, -2.5e300):
        assert float(format_value(x)) == x


def _small_ensemble():
    cfg = TrajectoryConfig(
        params=PhysicsParams(J=2.0, G=1.0),
        noise=NoiseModel(kind=NoiseKind.OU, tau=1.0),
        dt=1e-3,
        T=0.02,
        z0=0.6,
        scheme=Scheme.SUV_COLORED,
        seed=5,
    )
    return simulate([(cfg, 6, 0, 5)])[0]


def test_ensemble_csv_round_trips_exact_floats(tmp_path):
    res = _small_ensemble()
    path = tmp_path / "ens.csv"
    write_ensemble_csv(str(path), res)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ENSEMBLE_HEADER
    body = rows[1:]
    assert len(body) == res.times.size
    for j, row in enumerate(body):
        assert float(row[0]) == res.times[j]
        assert float(row[1]) == res.mean_z[j]
        assert float(row[2]) == res.stderr_z[j]
        assert float(row[5]) == res.qv[j]


def test_trajectory_csv_leaves_field_column_empty_without_noise(tmp_path):
    path = tmp_path / "traj.csv"
    write_trajectory_csv(str(path), [0.0, 0.1], [0.6, 0.7], xi=None)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "z", "xi"]
    assert rows[1] == ["0.0", "0.6", ""]
    assert not (tmp_path / "traj.csv.tmp").exists()
    # A short column fails the write instead of truncating the file.
    before = path.read_bytes()
    with pytest.raises(ValueError):
        write_trajectory_csv(str(path), [0.0, 0.1, 0.2], [0.6, 0.7, 0.8], xi=[1.0, 2.0])
    assert path.read_bytes() == before


def test_csv_write_replaces_the_file_only_when_complete(tmp_path):
    path = tmp_path / "table.csv"
    write_table_csv(str(path), ["x"], [[1.0], [2.0]])
    before = path.read_bytes()

    def failing_rows():
        yield [3.0]
        raise RuntimeError("producer failed")

    with pytest.raises(RuntimeError):
        write_table_csv(str(path), ["x"], failing_rows())
    assert path.read_bytes() == before
    assert not (tmp_path / "table.csv.tmp").exists()


def test_json_atomic_write_sorts_keys_and_cleans_up(tmp_path):
    path = tmp_path / "doc.json"
    write_json_atomic(str(path), {"b": 1, "a": 2})
    text = path.read_text()
    assert json.loads(text) == {"a": 2, "b": 1}
    assert text.index('"a"') < text.index('"b"')
    assert not (tmp_path / "doc.json.tmp").exists()


def test_run_experiment_manifest_checksums_and_round_trip(tmp_path):
    out = tmp_path / "out"
    cfg = make_config("frozen-limit", {"n_traj": 200, "T": 2.0}, output_dir=str(out))
    manifest = run_experiment(cfg)
    assert manifest["experiment"] == "frozen-limit"
    assert manifest["config"]["n_traj"] == 200
    assert manifest["files"]
    for name, digest in manifest["files"].items():
        assert sha256_file(str(out / name)) == digest
    assert json.loads((out / MANIFEST_NAME).read_text()) == manifest
    # The manifest's configuration echo rebuilds the identical config.
    flat = manifest["config"]
    rebuilt = make_config(
        flat["experiment"], {k: v for k, v in flat.items() if k != "experiment"}
    )
    assert rebuilt == cfg


def test_rerun_writes_byte_identical_artifacts(tmp_path):
    def run_into(d):
        cfg = make_config("frozen-limit", {"n_traj": 150, "T": 1.0}, output_dir=str(d))
        return run_experiment(cfg)

    m1 = run_into(tmp_path / "a")
    m2 = run_into(tmp_path / "b")
    assert m1["files"] == m2["files"]
    for name in m1["files"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


_SMOKE_OVERRIDES = {
    Experiment.FIG1A: {"n_traj": 100, "T": 0.1},
    Experiment.FIG1B: {"n_traj": 100, "T": 0.1},
    Experiment.BORN_SWEEP: {"n_traj": 50, "T": 0.5},
    Experiment.FDR_SWEEP: {"n_traj": 20, "T": 0.5},
    Experiment.WEAK_EQUIVALENCE: {"n_traj": 100, "T": 0.2},
    # dt must divide the lag grid of the rate fit (multiples of tau/4).
    Experiment.NOISE_VALIDATION: {"n_traj": 100, "tau": 0.5, "T": 2.0, "dt": 0.005},
    Experiment.FROZEN_LIMIT: {"n_traj": 100, "T": 1.0},
    Experiment.GKSL_CHECK: {"n_traj": 100, "T": 0.2},
}


@pytest.mark.parametrize("experiment", list(Experiment), ids=[e.value for e in Experiment])
def test_every_experiment_preset_runs(tmp_path, experiment):
    cfg = make_config(experiment, _SMOKE_OVERRIDES[experiment], output_dir=str(tmp_path))
    manifest = run_experiment(cfg)
    assert manifest["files"]
    for name in manifest["files"]:
        path = tmp_path / name
        assert path.exists() and path.stat().st_size > 0
    assert (tmp_path / MANIFEST_NAME).exists()


def test_deff_presets_refuse_a_frozen_noise_before_the_run(tmp_path, capsys):
    # fdr-sweep and weak-equivalence set their couplings from the Deff of
    # the configured noise, so a noise kind without one is refused when the
    # command line is resolved, naming --noise, and the previous run's
    # manifest stays in place.
    manifest = tmp_path / MANIFEST_NAME
    manifest.write_text('{"files": {}}\n')
    for experiment in ("fdr-sweep", "weak-equivalence"):
        for noise in ("frozen-ou", "frozen-sbm"):
            assert main(["run", experiment, "--noise", noise, "--out", str(tmp_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {experiment} sets its couplings")
            assert err.endswith(f"does not take --noise {noise}\n")
    assert manifest.read_text() == '{"files": {}}\n'


def test_failed_run_leaves_no_stale_manifest(tmp_path):
    # A manifest vouches for the files next to it, so a run that fails
    # after starting must not leave the previous run's manifest behind.
    stale = tmp_path / MANIFEST_NAME
    stale.write_text('{"files": {}}\n')
    cfg = make_config("gksl-check", {"n_traj": 10, "T": 0.01}, output_dir=str(tmp_path),
                      noise="frozen-ou")
    with pytest.raises(ConfigError, match="evolving noise kind"):
        run_experiment(cfg)
    assert not stale.exists()


def test_noise_validation_writes_no_unfittable_rate(tmp_path, monkeypatch):
    # With 4 paths per kind, autocovariances on the rate-fit grid are
    # negative for both kinds, and a logarithm would be written as a NaN
    # rate: the run stops before any file is written, with the error of
    # the first kind, OU, although both kinds ran, at one worker or two.
    for workers in (1, 2):
        monkeypatch.setattr(engine, "_MAX_WORKERS", workers)
        cfg = make_config("noise-validation", {"n_traj": 4, "tau": 0.5, "T": 2.0},
                          output_dir=str(tmp_path))
        with pytest.raises(InconclusiveError, match="ou autocovariance at lag 0.5 is -0.0325"):
            run_experiment(cfg)
        assert not any(tmp_path.iterdir())
    # Its paths, like every ensemble, span a positive whole number of steps.
    cfg = make_config("noise-validation", {"n_traj": 64, "tau": 0.5, "T": 2.0005},
                      output_dir=str(tmp_path))
    with pytest.raises(ConfigError, match="not a whole number of steps"):
        run_experiment(cfg)
    cfg = make_config("noise-validation", {"n_traj": 64, "T": -1.0}, output_dir=str(tmp_path))
    with pytest.raises(ConfigError, match="T must be positive, got -1.0"):
        run_experiment(cfg)


def test_noise_validation_checks_its_lag_grid_before_simulating(tmp_path, monkeypatch):
    # The rate fit's lags are multiples of tau / 4 up to 3 tau: a grid that
    # is not whole steps of dt, or outruns the horizon, is refused before
    # any path is stepped.
    import suvsim.experiments as experiments

    def no_paths(*args, **kwargs):
        raise AssertionError("paths stepped")

    monkeypatch.setattr(experiments, "simulate_paths", no_paths)
    cfg = make_config("noise-validation", {"n_traj": 64, "tau": 0.31, "T": 2.0},
                      output_dir=str(tmp_path))
    with pytest.raises(ConfigError, match="tau / 4 = 0.0775 is not a whole number of steps"):
        run_experiment(cfg)
    cfg = make_config("noise-validation", {"n_traj": 64, "tau": 0.5, "T": 1.45},
                      output_dir=str(tmp_path))
    with pytest.raises(ConfigError, match="longest lag 3 tau = 1.5 exceeds the horizon"):
        run_experiment(cfg)
    assert not any(tmp_path.iterdir())


def test_noise_validation_estimates_each_fit_lag_once(tmp_path, monkeypatch):
    # The report lags 0, tau and 2 tau sit on the 13-lag fit grid, so each
    # noise kind takes one estimate of the whole grid. At one worker both
    # kinds run in the caller, where the counter sees them.
    import suvsim.experiments as experiments

    calls = []

    def counted(paths, lags, _fn=experiments.autocorrelation):
        calls.append(list(lags))
        return _fn(paths, lags)

    monkeypatch.setattr(experiments, "autocorrelation", counted)
    monkeypatch.setattr(engine, "_MAX_WORKERS", 1)
    run_experiment(make_config("noise-validation", _SMOKE_OVERRIDES[Experiment.NOISE_VALIDATION],
                               output_dir=str(tmp_path)))
    assert calls == [[25 * k for k in range(13)]] * 2  # tau / 4 = 25 dt


def test_every_cli_configuration_runs_or_raises_simulation_error(tmp_path):
    # Every experiment x scheme x noise choice the command line accepts
    # either runs or fails with a SimulationError naming the problem.
    noises = [k.value for k in NoiseKind if k is not NoiseKind.NONE]
    outcomes = {"ran": 0, "rejected": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # under-resolved tau warnings
        for experiment in Experiment:
            for scheme in Scheme:
                for noise in noises:
                    try:
                        cfg = make_config(experiment, {"n_traj": 2, "T": 0.05},
                                          output_dir=str(tmp_path), scheme=scheme.value,
                                          noise=noise)
                    except ConfigError:  # rejected before any run starts
                        outcomes["rejected"] += 1
                        continue
                    try:
                        run_experiment(cfg)
                    except SimulationError:
                        outcomes["rejected"] += 1
                        assert not (tmp_path / MANIFEST_NAME).exists()
                    else:
                        outcomes["ran"] += 1
    assert outcomes == {"ran": 119, "rejected": 105}


def test_single_trajectory_runs_dump_decimated_paths(tmp_path):
    cfg = make_config("fig1a", {"n_traj": 1, "T": 0.05}, output_dir=str(tmp_path))
    manifest = run_experiment(cfg)
    assert "fig1a_suv_trajectory.csv" in manifest["files"]
    assert "fig1a_sse_trajectory.csv" in manifest["files"]
    with open(tmp_path / "fig1a_suv_trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "z", "xi"]
    assert rows[1][2] != ""  # colored scheme records its field
    with open(tmp_path / "fig1a_sse_trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][2] == ""  # diffusive scheme has no field to record

    # 55 steps, not a multiple of the decimation of 10: the dump's field is
    # the simulate_paths path on the run's stream at steps 0, 10, ..., 50, 55.
    out = tmp_path / "uneven"
    cfg = make_config("fig1a", {"n_traj": 1, "T": 0.055}, output_dir=str(out))
    run_experiment(cfg)
    traj_cfg = build_trajectory_config(cfg)
    assert traj_cfg.n_steps == 55 and cfg.decimation == 10
    (path,) = path_matrix(simulate_paths(traj_cfg.noise, 55, traj_cfg.dt, cfg.master_seed, 0, 1))
    with open(out / "fig1a_suv_trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [float(t) for t, _, _ in rows] == [k * cfg.dt for k in (0, 10, 20, 30, 40, 50, 55)]
    assert [float(xi) for _, _, xi in rows] == path[[0, 10, 20, 30, 40, 50, 55]].tolist()


def test_cli_runs_experiment_with_overrides(tmp_path, capsys):
    cfg_file = tmp_path / "small.cfg"
    cfg_file.write_text("n_traj = 120\nT = 1.0\n")
    out = tmp_path / "res"
    code = main(
        ["run", "frozen-limit", "--config", str(cfg_file), "--out", str(out), "--seed", "7"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert f"wrote {out}/frozen_born.csv" in captured.out
    assert f"wrote {out}/{MANIFEST_NAME}" in captured.out
    manifest = json.loads((out / MANIFEST_NAME).read_text())
    assert manifest["config"]["master_seed"] == 7
    assert manifest["config"]["n_traj"] == 120


def test_cli_reports_errors_on_stderr(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n")
    code = main(["run", "fig1a", "--config", str(bad)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    # A zero step reaches the step count of a run that builds no trajectory
    # configuration, and is named there rather than dividing by zero.
    bad.write_text("dt = 0\n")
    code = main(["run", "noise-validation", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 1
    assert "error: dt must be positive, got 0.0" in capsys.readouterr().err


def test_cli_version_and_argument_validation(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main([])  # a command is required
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "fig1a", "--noise", "none"])
