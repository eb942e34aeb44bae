"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""
import json
import os
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gate  # noqa: E402
import run  # noqa: E402
from spans import (  # noqa: E402
    METRIC_NAME,
    PER_LAYER,
    SPAN_METRICS,
    TARGETS,
    Tracer,
    aggregate,
    check_spans,
    layer_metrics,
    self_times,
    unit_of,
)
from workloads import WORKLOADS, resolve_config, write_inputs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

# root [0, 10] holds a [1, 4] and b [5, 9]; a holds a1 [2, 3].
TREE = [
    ("root", 0.0, 10.0, -1),
    ("a", 1.0, 4.0, 0),
    ("a1", 2.0, 3.0, 1),
    ("b", 5.0, 9.0, 0),
]


def test_self_times_of_a_synthetic_span_tree():
    assert self_times(TREE) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(TREE)) == 10.0
    rows = aggregate(TREE + [("b", 9.5, 9.75, 0)])
    assert rows["b"] == {"self": 4.25, "total": 4.25, "calls": 2}
    assert rows["root"]["self"] == 2.75
    assert check_spans(TREE) == []


def test_span_check_rejects_broken_trees():
    outside = TREE + [("c", 2.0, 11.0, 0)]
    assert any("outside its parent" in p for p in check_spans(outside))
    assert any("negative self time" in p for p in check_spans(outside))
    assert check_spans(TREE + [None]) == ["a span was opened but never closed"]


def test_layer_self_times_and_unattributed_add_up_to_the_wall():
    tracer = Tracer(targets=())
    tracer.spans = [
        ("harness.run_experiment", 0.0, 10.0, -1),
        ("engine.ensemble", 1.0, 9.0, 0),
        ("engine.chunk", 2.0, 8.0, 1),
        ("dynamics.kernel", 3.0, 4.0, 2),
        ("dynamics.kernel", 4.0, 6.0, 2),
    ]
    out = layer_metrics(tracer, 10.0)
    assert out["dynamics.kernel_s"] == 3.0
    assert out["dynamics.kernel_calls"] == 2
    assert out["dynamics.kernel_us_per_call"] == 1.5e6
    assert out["engine.chunk_self_s"] == 3.0
    assert out["engine.ensemble_s"] == 8.0
    assert out["engine.ensemble_self_s"] == 2.0
    assert out["observables.fold_s"] == 0.0
    assert out["trace.unattributed_s"] == 2.0
    own = [out[m] for m, (_, field) in SPAN_METRICS.items() if field == "self"]
    assert sum(own) + out["trace.unattributed_s"] == out["trace.wall_s"] == 10.0


def test_tracer_wraps_restores_and_reports_absent_targets(monkeypatch):
    fake = types.ModuleType("fake_layers")
    exec(
        "def inner(x):\n    return x + 1\n"
        "def outer(rows):\n    return inner(len(rows))\n",
        fake.__dict__,
    )
    monkeypatch.setitem(sys.modules, "fake_layers", fake)
    original = fake.inner
    tracer = Tracer(
        targets=(
            ("fake_layers", "outer", "x.outer", ("x.rows", lambda a, k: len(a[0]), "sum")),
            ("fake_layers", "inner", "x.inner", None),
            ("fake_layers", "renamed", "engine.chunk", ("engine.draw_matrix_mb", len, "max")),
            ("no_such_module", "f", "noise.paths", None),
        )
    )
    with tracer, tracer.root():
        assert fake.outer([1, 2, 3]) == 4
        assert fake.outer([1]) == 2
    assert fake.inner is original
    assert tracer.absent == {"engine.chunk", "engine.draw_matrix_mb", "noise.paths"}
    assert tracer.counters == {"x.rows": 4}
    names = [(name, parent) for name, _, _, parent in tracer.spans]
    assert names == [
        ("harness.run_experiment", -1),
        ("x.outer", 0),
        ("x.inner", 1),
        ("x.outer", 0),
        ("x.inner", 3),
    ]
    assert check_spans(tracer.spans) == []
    out = layer_metrics(tracer, tracer.spans[0][2] - tracer.spans[0][1])
    for metric in ("engine.chunk_self_s", "engine.chunks", "engine.draw_matrix_mb", "noise.paths_s"):
        assert metric not in out
    assert out["dynamics.kernel_s"] == 0.0


def test_metric_names_follow_the_rule_and_match_benchmark_json():
    e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    layer = [m["name"] for m in BENCHMARK["per_layer"]]
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    for name in e2e + layer + workloads:
        assert METRIC_NAME.fullmatch(name), name
    assert len(set(e2e + layer)) == len(e2e + layer)
    assert tuple(e2e) == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.UNITS
    assert tuple(layer) == PER_LAYER
    assert all(m["unit"] == unit_of(m["name"]) for m in BENCHMARK["per_layer"])
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert not METRIC_NAME.fullmatch("trace overhead")
    assert not METRIC_NAME.fullmatch("_leading")


def test_every_wrap_target_exists_in_the_package():
    import suvsim.engine

    original = suvsim.engine._suv_heun
    tracer = Tracer()
    with tracer:
        assert suvsim.engine._suv_heun is not original
    assert suvsim.engine._suv_heun is original
    assert tracer.absent == set() and len(TARGETS) > 0


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_seed_passes_through_to_master_seed(tmp_path, seed):
    for workload in WORKLOADS.values():
        cfg = resolve_config(write_inputs(workload, seed, str(tmp_path)))
        assert cfg.master_seed == seed
        assert cfg.n_traj == workload.n_traj
        assert cfg.experiment.value == workload.experiment
        assert cfg.output_dir == os.path.join(str(tmp_path), "out")
    with pytest.raises(ValueError):
        write_inputs(WORKLOADS["wide-sweep"], 2**64, str(tmp_path))


def _born_dir(tmp_path, rows):
    header = "z0,n_traj,frac_zero,frac_one,frac_unresolved,deviation,binomial_se\n"
    (tmp_path / "born_sweep.csv").write_text(header + "".join(r + "\n" for r in rows))
    return str(tmp_path)


def test_gate_rejects_a_corrupted_artifact(tmp_path):
    outdir = _born_dir(tmp_path, ["0.5,2500,0.5,0.5,0.0,0.0,0.01"])
    manifest = {
        "experiment": "born-sweep",
        "config": {},
        "files": {"born_sweep.csv": gate._sha256(os.path.join(outdir, "born_sweep.csv"))},
    }
    (tmp_path / gate.MANIFEST).write_text(json.dumps(manifest))
    assert gate.check_repetition(outdir, manifest, manifest) == []
    assert gate.check_repetition(outdir, manifest, dict(manifest, config={"z0": 1})) == [
        "manifest differs from the first repetition with the same seed"
    ]
    with open(os.path.join(outdir, "born_sweep.csv"), "a", encoding="utf-8") as fh:
        fh.write("0.9,2500,0.9,0.1,0.0,0.0,0.006\n")
    assert gate.check_artifacts(outdir, manifest) == [
        "born_sweep.csv: sha256 does not match the manifest"
    ]
    os.remove(os.path.join(outdir, "born_sweep.csv"))
    assert gate.check_artifacts(outdir, manifest) == ["born_sweep.csv: missing"]


@pytest.mark.parametrize(
    "row, expect",
    [
        ("0.6,2500,0.61,0.39,0.0,0.010000000000000009,0.0098", None),
        ("0.6,250,0.58,0.405,0.015,,0.031", None),
        ("0.6,2500,0.7,0.3,0.0,0.09999999999999998,0.0098", "exceeds"),
        ("0.6,2500,0.5,0.3,0.2,,0.0098", "unresolved fraction"),
        ("0.6,2500,0.61,0.39,0.0,0.2,0.0098", "deviation is not"),
        ("0.6,2500,0.61,0.39,0.0,,0.0098", "left blank"),
    ],
)
def test_gate_checks_the_born_table(tmp_path, row, expect):
    problems = gate.check_born(_born_dir(tmp_path, [row]), {})
    if expect is None:
        assert problems == []
    else:
        assert any(expect in p for p in problems), problems


def test_gate_checks_noise_rates_and_steady_law(tmp_path):
    (tmp_path / "noise_rates.csv").write_text("model,rate,target\nou,1.02,1.0\nsbm,0.6,1.0\n")
    (tmp_path / "noise_steady.csv").write_text(
        "model,n_samples,ks_distance\nou,100000,0.003\nsbm,100000,0.05\n"
    )
    problems = gate.check_noise(str(tmp_path), {"tau": 1.0})
    assert len(problems) == 2
    assert problems[0].startswith("sbm: rate") and problems[1].startswith("sbm: steady KS")


def test_real_run_passes_the_gate_traced_and_untraced(tmp_path):
    """A small fig1a run through the benchmark's own path: the same seed
    gives the same manifest with and without tracing, and the trace adds up."""
    workdir = str(tmp_path)
    argv = write_inputs(WORKLOADS["recorded-series"], 11, workdir)
    cfg_path = argv[argv.index("--config") + 1]
    with open(cfg_path, "a", encoding="utf-8") as fh:
        fh.write("n_traj = 40\nT = 0.2\n")
    plain = run.run_repetition(argv, os.path.join(workdir, "rep0"))
    traced = run.run_repetition(argv, os.path.join(workdir, "rep1"), Tracer())
    assert plain.problems == traced.problems == []
    assert traced.manifest == plain.manifest
    for rep in (plain, traced):
        assert gate.check_repetition(rep.directory, rep.manifest, plain.manifest) == []
    assert check_spans(traced.tracer.spans) == []
    out = layer_metrics(traced.tracer, traced.wall)
    assert out["engine.ensembles"] == 2 and out["engine.streams_calls"] == 80
    assert out["dynamics.kernel_calls"] == 2 * 200
    assert out["engine.draw_matrix_mb"] == pytest.approx(40 * 200 * 8 / 1e6)
    assert out["trace.unattributed_s"] >= 0.0
