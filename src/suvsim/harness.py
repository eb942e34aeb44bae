"""Top-level experiment orchestration.

Runs a named experiment into its output directory and records a manifest
of what was produced. Any previous manifest is removed before the run
starts and the new one is written atomically, last, so its presence marks
a completed run that wrote every file it lists. It contains only
deterministic content (configuration echo, file checksums, package
version), which keeps a rerun of the same configuration byte-identical
across the whole output directory.
"""
from __future__ import annotations

import os
from contextlib import suppress

from ._version import __version__
from .config import ExperimentConfig
from .errors import ConfigError
from .experiments import RUNNERS
from .output import sha256_file, write_json_atomic

__all__ = ["MANIFEST_NAME", "run_experiment"]

MANIFEST_NAME = "run_manifest.json"


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute one experiment and write its artifacts plus manifest.

    Returns the manifest dictionary. Raises ConfigError if the output
    directory cannot be created, and propagates simulation errors from the
    runners unchanged.
    """
    outdir = cfg.output_dir
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {outdir}: {exc}") from exc
    manifest_path = os.path.join(outdir, MANIFEST_NAME)
    with suppress(FileNotFoundError):
        os.remove(manifest_path)

    files = RUNNERS[cfg.experiment](cfg, outdir)
    manifest = {
        "experiment": cfg.experiment.value,
        "package_version": __version__,
        "config": cfg.to_flat_dict(),
        "files": {name: sha256_file(os.path.join(outdir, name)) for name in files},
    }
    write_json_atomic(manifest_path, manifest)
    return manifest
