#!/usr/bin/env python3
"""Run one suvsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` beside this directory, never from an
installed copy; without it the script exits with status 2 and prints no
result. The seed becomes the generated config file's ``master_seed``.

One repetition is one ``harness.run_experiment`` call on the generated
inputs. The first repetition is a warm-up and is not timed. Timed
repetitions follow, all with the same seed, until ``--seconds`` have passed
since the warm-up began and at least two have been timed. The correctness
gate (gate.py) runs on every repetition, the warm-up too, after the timed
region.

With ``--trace 0`` the metrics are the end-to-end ones: median wall time
of a timed repetition, trajectory-steps per second, the peak RSS of this
fresh process after the warm-up (one repetition, as a command-line run
sees it), and the median set-up time of fresh interpreters
(setup_probe.py). With
``--trace 1`` untraced and traced repetitions alternate; the per-layer
metrics are medians over the traced ones (spans.py), and
``trace.overhead_s`` is the median traced wall minus the median untraced
wall. The spans of the first traced repetition are written once, at the
end, to ``.perfbench_work/trace-<workload>.csv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` and ``failed`` (repetitions, and those that
raised or failed the gate; failed_frac is their ratio) and ``metrics``.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

from gate import check_repetition
from spans import PER_LAYER, Tracer, check_spans, layer_metrics, median_metrics, unit_of
from workloads import WORKLOADS, resolve_config, trajectory_steps, write_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 9
MIN_REPETITIONS = 2
END_TO_END = ("wall_s", "mstep_per_s", "peak_rss_mb", "setup_s")
UNITS = {"wall_s": "s", "mstep_per_s": "Mstep/s", "peak_rss_mb": "MiB", "setup_s": "s"}


@dataclass
class Repetition:
    directory: str
    wall: float | None = None  # set when run_experiment returned
    build: float = 0.0
    manifest: dict | None = None
    tracer: Tracer | None = None
    problems: list = field(default_factory=list)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit nonnegative integer")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(argv: list[str]) -> float:
    """Median time from spawning a fresh interpreter until it has imported
    suvsim and built the config. One unmeasured probe runs first, so
    bytecode caches are written before timing."""
    times = []
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), *argv],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with status {proc.returncode}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def run_repetition(argv, directory, tracer=None) -> Repetition:
    """Resolve the config and run the experiment once; the artifacts are
    moved to ``directory`` for the gate."""
    from suvsim import harness

    rep = Repetition(directory, tracer=tracer)
    try:
        start = time.perf_counter()
        cfg = resolve_config(argv)
        rep.build = time.perf_counter() - start
        if tracer is None:
            start = time.perf_counter()
            rep.manifest = harness.run_experiment(cfg)
            rep.wall = time.perf_counter() - start
        else:
            with tracer, tracer.root():
                rep.manifest = harness.run_experiment(cfg)
            _, start, end, _ = tracer.spans[0]
            rep.wall = end - start
        os.rename(cfg.output_dir, directory)
    except Exception as exc:  # the run continues; the repetition counts as failed
        traceback.print_exc()
        rep.problems.append(f"raised {exc!r}")
    return rep


def _bytes_written(directory: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(directory) if entry.is_file())


def _write_spans(path: str, spans) -> None:
    origin = spans[0][1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["span", "name", "start_s", "end_s", "parent"])
        for i, (name, start, end, parent) in enumerate(spans):
            writer.writerow([i, name, repr(start - origin), repr(end - origin), parent])


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    argv = write_inputs(workload, seed, workdir)
    setup = None if trace else measure_setup(argv)
    steps = trajectory_steps(workload, resolve_config(argv))

    start = time.perf_counter()
    # The warm-up leaves lazy set-up and caches behind it. Peak RSS is read
    # right after it: later repetitions in the same process can add heap
    # fragmentation that a single command-line run never has, and how much
    # depends on how many repetitions fit in the run.
    reps = [run_repetition(argv, os.path.join(workdir, "warmup"))]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rounds = 0
    while rounds < MIN_REPETITIONS or time.perf_counter() - start < seconds:
        reps.append(run_repetition(argv, os.path.join(workdir, f"rep{len(reps)}")))
        if trace:
            reps.append(run_repetition(argv, os.path.join(workdir, f"rep{len(reps)}"), Tracer()))
        rounds += 1

    # Correctness gate, after the timed region.
    reference = next((r.manifest for r in reps if r.manifest is not None), None)
    for rep in reps:
        if not rep.problems:
            rep.problems = check_repetition(rep.directory, rep.manifest, reference)
        if rep.tracer is not None and not rep.problems:
            rep.problems = check_spans(rep.tracer.spans)
    failed = sum(1 for r in reps if r.problems)
    for i, rep in enumerate(reps):
        for problem in rep.problems:
            print(f"repetition {i}: {problem}", file=sys.stderr)

    # A repetition that failed the gate still timed a full run_experiment.
    completed = [r for r in reps[1:] if r.wall is not None]
    untraced = [r.wall for r in completed if r.tracer is None]
    if not untraced:
        raise RuntimeError("no repetition of the workload completed")
    wall = statistics.median(untraced)
    if not trace:
        metrics = {
            "wall_s": wall,
            "mstep_per_s": steps / wall / 1e6,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup,
        }
    else:
        traced = [r for r in completed if r.tracer is not None]
        samples = []
        for rep in traced:
            sample = layer_metrics(rep.tracer, rep.wall)
            sample["config.build_s"] = rep.build
            if os.path.isdir(rep.directory):
                sample["output.bytes_written"] = _bytes_written(rep.directory)
            samples.append(sample)
        metrics = median_metrics(samples)
        if traced:
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall
            _write_spans(os.path.join(WORK, f"trace-{workload.name}.csv"), traced[0].tracer.spans)
        absent = sorted(set(PER_LAYER) - set(metrics))
        if absent:
            print(f"absent per-layer metrics: {', '.join(absent)}", file=sys.stderr)
        metrics = {name: metrics[name] for name in PER_LAYER if name in metrics}

    print(
        f"# {workload.name} seed={seed} repetitions={len(reps)} failed={failed} "
        f"failed_frac={failed / len(reps)!r} trajectory_steps={steps}"
    )
    if reps[0].wall is not None:
        print(f"# warm-up wall_s (not timed): {reps[0].wall:.4f}")
    print("# untraced walls_s: " + " ".join(f"{w:.4f}" for w in untraced))
    units = UNITS if not trace else {name: unit_of(name) for name in metrics}
    return {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "suvsim", "__init__.py")):
        print(f"error: no suvsim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import suvsim

    if os.path.dirname(os.path.dirname(os.path.abspath(suvsim.__file__))) != SRC:
        print(f"error: suvsim was imported from {suvsim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, f"{workload.name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
