"""Compare every output bit of the experiment presets with another revision.

    python3 scripts/bitcheck.py REV

Checks REV out into a temporary git worktree (removed again afterwards),
then runs the same list of presets in that tree and in this working tree,
each at 1 and 2 engine workers: all eight presets at smoke sizes, each
recorded preset (fig1a, fig1b, gksl-check) with one trajectory, which also
writes the trajectory dumps, the four schemes that no preset records
(unnormalized-suv and z-scalar-colored in fig1a, white-strat and
z-scalar-white in gksl-check) at smoke size and with one trajectory,
fig1a under a frozen field for 600 steps, fig1b with 23 trajectories
(its companion ensemble starts inside a group of 16, at index 23),
fdr-sweep under white-strat (so a white-noise kernel steps rows that
differ in J), and, with chunks at most 7 trajectories wide, born-sweep
and both fdr-sweeps once more, so that chunks which share one lockstep
batch among several sweep cells start and end inside cells, and the
recorded presets and noise-validation once more, so that the reduction
sees many chunk boundaries (noise-validation's SBM paths start inside a
group of 16, at index 100), and, with every worker result sent in pieces
of one row each, fig1b with 23 trajectories, born-sweep and
noise-validation once more, so that the caller folds and collects
results piece by piece. For every run it compares the bytes of
run_manifest.json and every file digest the manifest lists.
Prints ``equal`` when nothing differs, and otherwise each file that
differs, as ``w<workers>/<run>/<file>``.

It then checks, within this working tree's outputs alone, the
determinism contract, which must hold across a deliberate change of
output bits too: every file digest of a run at 1 worker equals that at 2
workers, and every digest of a narrow-chunk run (``<run>-narrow``) or a
one-row-piece run (``<run>-pieces``) equals that of its default twin, the
run of the same experiment and overrides under the engine's default
settings (fig1a, fig1a-frozen, fig1b-23, gksl-check, born-sweep,
fdr-sweep, fdr-sweep-strat and noise-validation have one). Each mismatch
is printed on a line of its own, as
``in-tree: <run>/<file> differs from <twin>/<file>``. Exits 0 when nothing
differs and no mismatch is found, and 1 otherwise.

Needs only git and the package's own dependencies. Horizons are short, so
the whole check takes well under a minute on two cores.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

# Engine settings of the twins: chunks at most 7 trajectories wide, and a
# worker result sent in pieces of one row each.
NARROW = {"_MAX_CHUNK_WIDTH": 7}
PIECES = {"_PIECE_BYTES": 1}
# (run label, experiment, overrides, engine settings): every preset at smoke
# size, the recorded presets with one trajectory, the schemes no preset
# records, then the sweeps, the recorded presets and noise-validation in
# narrow chunks, and a recorded run, a sweep and noise-validation in
# one-row pieces. Empty settings keep the engine's defaults.
RUNS = [
    ("fig1a", "fig1a", {"n_traj": 100, "T": 0.3}, {}),
    ("fig1b", "fig1b", {"n_traj": 100, "T": 0.3}, {}),
    ("born-sweep", "born-sweep", {"n_traj": 50, "T": 0.5}, {}),
    ("fdr-sweep", "fdr-sweep", {"n_traj": 20, "T": 0.5}, {}),
    ("weak-equivalence", "weak-equivalence", {"n_traj": 100, "T": 0.2}, {}),
    # dt must divide the rate fit's lag grid (multiples of tau / 4).
    ("noise-validation", "noise-validation",
     {"n_traj": 100, "tau": 0.5, "T": 2.0, "dt": 0.005}, {}),
    ("frozen-limit", "frozen-limit", {"n_traj": 100, "T": 1.0}, {}),
    ("gksl-check", "gksl-check", {"n_traj": 100, "T": 0.3}, {}),
    ("fig1a-single", "fig1a", {"n_traj": 1, "T": 0.3}, {}),
    ("fig1b-single", "fig1b", {"n_traj": 1, "T": 0.3}, {}),
    ("gksl-check-single", "gksl-check", {"n_traj": 1, "T": 0.3}, {}),
    ("fig1a-unnormalized", "fig1a", {"n_traj": 100, "T": 0.3, "scheme": "unnormalized-suv"}, {}),
    ("fig1a-unnormalized-single", "fig1a",
     {"n_traj": 1, "T": 0.3, "scheme": "unnormalized-suv"}, {}),
    ("fig1a-z", "fig1a", {"n_traj": 100, "T": 0.3, "scheme": "z-scalar-colored"}, {}),
    ("fig1a-z-single", "fig1a", {"n_traj": 1, "T": 0.3, "scheme": "z-scalar-colored"}, {}),
    # A frozen field is one draw block of every step; 600 steps cross two
    # of the recorded chunks' fold points.
    ("fig1a-frozen", "fig1a", {"n_traj": 100, "T": 0.6, "noise": "frozen-ou"}, {}),
    # The twin of fig1b-narrow: 23 trajectories, so the companion ensemble
    # starts mid-group.
    ("fig1b-23", "fig1b", {"n_traj": 23, "T": 0.3}, {}),
    ("gksl-check-strat", "gksl-check", {"n_traj": 100, "T": 0.3, "scheme": "white-strat"}, {}),
    ("gksl-check-strat-single", "gksl-check",
     {"n_traj": 1, "T": 0.3, "scheme": "white-strat"}, {}),
    ("gksl-check-z", "gksl-check", {"n_traj": 100, "T": 0.3, "scheme": "z-scalar-white"}, {}),
    ("gksl-check-z-single", "gksl-check",
     {"n_traj": 1, "T": 0.3, "scheme": "z-scalar-white"}, {}),
    # The sweep's cells differ in J, so its shared chunks step a per-row J.
    ("fdr-sweep-strat", "fdr-sweep", {"n_traj": 20, "T": 0.5, "scheme": "white-strat"}, {}),
    ("born-sweep-narrow", "born-sweep", {"n_traj": 50, "T": 0.5}, NARROW),
    ("fdr-sweep-narrow", "fdr-sweep", {"n_traj": 20, "T": 0.5}, NARROW),
    ("fdr-sweep-strat-narrow", "fdr-sweep",
     {"n_traj": 20, "T": 0.5, "scheme": "white-strat"}, NARROW),
    ("fig1a-narrow", "fig1a", {"n_traj": 100, "T": 0.3}, NARROW),
    ("fig1a-frozen-narrow", "fig1a", {"n_traj": 100, "T": 0.6, "noise": "frozen-ou"}, NARROW),
    ("fig1b-narrow", "fig1b", {"n_traj": 23, "T": 0.3}, NARROW),
    ("gksl-check-narrow", "gksl-check", {"n_traj": 100, "T": 0.3}, NARROW),
    ("noise-validation-narrow", "noise-validation",
     {"n_traj": 100, "tau": 0.5, "T": 2.0, "dt": 0.005}, NARROW),
    ("fig1b-23-pieces", "fig1b", {"n_traj": 23, "T": 0.3}, PIECES),
    ("born-sweep-pieces", "born-sweep", {"n_traj": 50, "T": 0.5}, PIECES),
    ("noise-validation-pieces", "noise-validation",
     {"n_traj": 100, "tau": 0.5, "T": 2.0, "dt": 0.005}, PIECES),
]
WORKERS = (1, 2)
MANIFEST = "run_manifest.json"

# Runs RUNS (argv[1], as JSON) at every worker count into the current
# directory, so both trees' manifests record the same relative output_dir.
_RUNNER = """
import json, os, sys
import suvsim.engine as engine
from suvsim import make_config, run_experiment
runs, workers = json.loads(sys.argv[1]), json.loads(sys.argv[2])
defaults = {name: getattr(engine, name, None) for *_, settings in runs for name in settings}
for w in workers:
    engine._MAX_WORKERS = w
    for label, experiment, overrides, settings in runs:
        vars(engine).update(defaults, **settings)
        run_experiment(make_config(experiment, overrides, output_dir=os.path.join(f"w{w}", label)))
"""


def run_tree(src: str, outdir: str) -> bool:
    """Run RUNS on the package under ``src`` into outdir; True on success."""
    os.makedirs(outdir)
    env = dict(os.environ, PYTHONPATH=src)
    args = [sys.executable, "-c", _RUNNER, json.dumps(RUNS), json.dumps(WORKERS)]
    return subprocess.run(args, cwd=outdir, env=env).returncode == 0


def differences(old: str, new: str) -> list[str]:
    """Files whose bytes differ between two output trees of the runner."""
    differ = []
    for w in WORKERS:
        for label, *_ in RUNS:
            run = os.path.join(f"w{w}", label)
            with open(os.path.join(old, run, MANIFEST), "rb") as fh:
                old_bytes = fh.read()
            with open(os.path.join(new, run, MANIFEST), "rb") as fh:
                new_bytes = fh.read()
            if old_bytes == new_bytes:
                continue
            old_files = json.loads(old_bytes)["files"]
            new_files = json.loads(new_bytes)["files"]
            for name in sorted(old_files.keys() | new_files.keys()):
                if old_files.get(name) != new_files.get(name):
                    differ.append(f"{run}/{name}")
            differ.append(f"{run}/{MANIFEST}")
    return differ


def _digests(out: str, run: str) -> dict[str, str]:
    with open(os.path.join(out, run, MANIFEST), "rb") as fh:
        return json.load(fh)["files"]


def invariance(out: str) -> list[str]:
    """Files of one output tree that differ where the determinism contract
    says they must not: a run at 1 worker and at more, and a run under
    engine settings (narrow chunks, one-row pieces) and its default twin of
    the same experiment and overrides."""
    pairs = [(os.path.join(f"w{WORKERS[0]}", label), os.path.join(f"w{w}", label))
             for label, *_ in RUNS for w in WORKERS[1:]]
    for label, experiment, overrides, settings in RUNS:
        pairs += [(os.path.join(f"w{w}", twin), os.path.join(f"w{w}", label))
                  for twin, e, o, t in RUNS
                  if settings and not t and (e, o) == (experiment, overrides)
                  for w in WORKERS]
    mismatches = []
    for twin, run in pairs:
        want, got = _digests(out, twin), _digests(out, run)
        for name in sorted(want.keys() | got.keys()):
            if want.get(name) != got.get(name):
                mismatches.append(f"in-tree: {run}/{name} differs from {twin}/{name}")
    return mismatches


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 scripts/bitcheck.py REV", file=sys.stderr)
        return 2
    rev = argv[0]
    root = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        cwd=os.path.dirname(os.path.abspath(__file__)),
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="bitcheck-") as tmp:
        tree = os.path.join(tmp, "rev")
        add = ["git", "-C", root, "worktree", "add", "--detach", "--quiet", tree, rev]
        if subprocess.run(add).returncode != 0:  # git has named the problem
            return 2
        try:
            old_out, new_out = os.path.join(tmp, "old"), os.path.join(tmp, "new")
            # The two trees run one after the other: each already uses both
            # cores at two workers.
            for src, out in ((os.path.join(tree, "src"), old_out),
                             (os.path.join(root, "src"), new_out)):
                if not run_tree(src, out):
                    print(f"runs failed under {src}", file=sys.stderr)
                    return 2
            differ = differences(old_out, new_out)
            mismatches = invariance(new_out)
        finally:
            subprocess.run(["git", "-C", root, "worktree", "remove", "--force", tree], check=True)
    print("\n".join(differ) if differ else "equal")
    for line in mismatches:
        print(line)
    return 1 if differ or mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
