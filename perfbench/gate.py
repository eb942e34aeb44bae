"""Correctness gate, run on every repetition after the timed region.

Each check returns a list of problems; an empty list is a pass. The
checks come from the paper's claims and the package's determinism
contract, never from stored output bytes, because planned changes to the
reduction and the draw order alter the bits once on purpose:

* every artifact matches the sha256 its manifest records;
* a repeat with the same seed gives an identical manifest;
* born-sweep: few unresolved trajectories, and the collapse fraction of
  |0> within a few binomial standard errors of Born's rule;
* fig1a: the SSE ensemble mean of z stays within a few standard errors of
  z0 (it is a martingale), and the smooth SUV paths carry far less
  quadratic variation than the diffusive SSE paths;
* noise-validation: fitted relaxation rates near 1/tau, and the
  steady-state draws close to the stationary law in KS distance.

Bounds are loose enough to pass on any seed at the benchmark's ensemble
sizes: a 5-sigma bound fails by chance about once in a million rows.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os

__all__ = ["MANIFEST", "check_repetition", "check_artifacts", "check_born", "check_fig1a",
           "check_noise"]

MANIFEST = "run_manifest.json"

SIGMAS = 5.0
MAX_UNRESOLVED = 0.05
MIN_QV_RATIO = 100.0  # the package's own acceptance bound for smooth paths
MAX_RATE_ERROR = 0.25  # about 6 sigma at 4000 paths of 10 tau
MAX_STEADY_KS = 0.02  # about 6x the 1e-6 critical value at 100000 draws


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_artifacts(outdir: str, manifest: dict) -> list[str]:
    """The manifest on disk equals the returned one, and every file it
    lists exists with the recorded sha256."""
    problems = []
    try:
        with open(os.path.join(outdir, MANIFEST), encoding="utf-8") as fh:
            on_disk = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"cannot read {MANIFEST}: {exc}"]
    if on_disk != manifest:
        problems.append(f"{MANIFEST} on disk differs from the returned manifest")
    files = manifest.get("files") or {}
    if not files:
        problems.append("manifest lists no artifacts")
    for name, digest in files.items():
        path = os.path.join(outdir, name)
        if not os.path.isfile(path):
            problems.append(f"{name}: missing")
        elif _sha256(path) != digest:
            problems.append(f"{name}: sha256 does not match the manifest")
    return problems


def check_born(outdir: str, config: dict) -> list[str]:
    """Collapse fractions of the born-sweep table against Born's rule."""
    problems = []
    rows = _rows(os.path.join(outdir, "born_sweep.csv"))
    if not rows:
        return ["born_sweep.csv: no rows"]
    for row in rows:
        z0 = float(row["z0"])
        frac_zero = float(row["frac_zero"])
        unresolved = float(row["frac_unresolved"])
        se = float(row["binomial_se"])
        where = f"z0={z0}"
        if not unresolved <= MAX_UNRESOLVED:
            problems.append(f"{where}: unresolved fraction {unresolved} > {MAX_UNRESOLVED}")
        if row["deviation"]:
            if not math.isclose(float(row["deviation"]), frac_zero - z0, abs_tol=1e-12):
                problems.append(f"{where}: deviation is not frac_zero - z0")
        elif unresolved < 0.01:
            problems.append(f"{where}: deviation left blank with {unresolved} unresolved")
        # Unresolved trajectories may still end on either side.
        if not abs(frac_zero - z0) <= SIGMAS * se + unresolved:
            problems.append(
                f"{where}: |frac_zero - z0| = {abs(frac_zero - z0):.5f} exceeds "
                f"{SIGMAS:g} binomial_se ({se:.5f}) + unresolved ({unresolved})"
            )
    return problems


def check_fig1a(outdir: str, config: dict) -> list[str]:
    """SSE martingale mean and the smooth-versus-rough qv separation."""
    problems = []
    z0 = float(config["z0"])
    sse = _rows(os.path.join(outdir, "fig1a_sse.csv"))
    suv = _rows(os.path.join(outdir, "fig1a_suv.csv"))
    for row in sse:
        dev = abs(float(row["mean_z"]) - z0)
        if not dev <= SIGMAS * float(row["stderr_z"]) + 1e-9:
            problems.append(
                f"SSE mean_z at t={row['t']} is {dev:.5f} from z0, beyond "
                f"{SIGMAS:g} stderr_z ({float(row['stderr_z']):.5f})"
            )
            break
    qv_suv = float(suv[-1]["qv"])
    qv_sse = float(sse[-1]["qv"])
    if not qv_sse >= MIN_QV_RATIO * qv_suv:
        problems.append(
            f"final qv SSE/SUV = {qv_sse / qv_suv if qv_suv else math.inf:.3g}, "
            f"need >= {MIN_QV_RATIO:g}"
        )
    return problems


def check_noise(outdir: str, config: dict) -> list[str]:
    """Relaxation rates near 1/tau and steady-state KS distances small."""
    problems = []
    target = 1.0 / float(config["tau"])
    rates = _rows(os.path.join(outdir, "noise_rates.csv"))
    steady = _rows(os.path.join(outdir, "noise_steady.csv"))
    if not rates or not steady:
        return ["noise tables are empty"]
    for row in rates:
        err = abs(float(row["rate"]) / target - 1.0)
        if not err <= MAX_RATE_ERROR:
            problems.append(f"{row['model']}: rate {row['rate']} is {err:.3f} off 1/tau")
    for row in steady:
        ks = float(row["ks_distance"])
        if not ks <= MAX_STEADY_KS:
            problems.append(f"{row['model']}: steady KS {ks} > {MAX_STEADY_KS}")
    return problems


_PHYSICS = {
    "fig1a": check_fig1a,
    "born-sweep": check_born,
    "noise-validation": check_noise,
}


def check_repetition(outdir: str, manifest: dict, reference: dict) -> list[str]:
    """All checks for one repetition. ``reference`` is the manifest of the
    run's first repetition, which used the same seed."""
    problems = check_artifacts(outdir, manifest)
    if manifest != reference:
        problems.append("manifest differs from the first repetition with the same seed")
    if not problems:
        try:
            problems = _PHYSICS[manifest["experiment"]](outdir, manifest["config"])
        except (OSError, KeyError, ValueError, IndexError) as exc:
            problems = [f"cannot read the results: {exc!r}"]
    return problems
