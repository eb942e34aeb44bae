"""File output: CSV tables and JSON documents, all written atomically.

Floats are written with repr (shortest round-trip form), so files are
byte-identical across runs of the same configuration and parse back to
the exact binary values. Missing optional values become empty fields.
Files are written to a temporary sibling, then renamed into place.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
from contextlib import contextmanager, suppress

from .observables import EnsembleSummary

__all__ = [
    "ENSEMBLE_HEADER",
    "TRAJECTORY_HEADER",
    "format_value",
    "write_ensemble_csv",
    "write_trajectory_csv",
    "write_table_csv",
    "write_json_atomic",
    "sha256_file",
]

ENSEMBLE_HEADER = ["t", "mean_z", "stderr_z", "mean_offdiag", "stderr_offdiag", "qv"]
TRAJECTORY_HEADER = ["t", "z", "xi"]


def format_value(value) -> str:
    """CSV cell text: shortest round-trip repr for floats, '' for None."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int,)) and not isinstance(value, bool):
        return str(value)
    return repr(float(value))


@contextmanager
def _atomic_open(path: str):
    """Text handle on path + '.tmp', renamed over path once the block exits
    cleanly; if anything fails first, the temporary file is removed and path
    is left as it was."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="\n", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_table_csv(path: str, header, rows) -> None:
    """Write a table: a header line, then one line per row of values."""
    with _atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])


def write_ensemble_csv(path: str, summary: EnsembleSummary) -> None:
    """Write ensemble statistics on the decimated time grid."""
    n = summary.times.size
    se_z = summary.stderr_z if summary.stderr_z is not None else [None] * n
    se_off = summary.stderr_offdiag if summary.stderr_offdiag is not None else [None] * n
    rows = zip(summary.times, summary.mean_z, se_z, summary.mean_offdiag, se_off, summary.qv)
    write_table_csv(path, ENSEMBLE_HEADER, rows)


def write_trajectory_csv(path: str, times, z, xi=None) -> None:
    """Write a single trajectory; the xi column is empty for schemes
    that are not driven by a colored field."""
    n = len(times)
    xi_col = xi if xi is not None else [None] * n
    write_table_csv(path, TRAJECTORY_HEADER, zip(times, z, xi_col))


def write_json_atomic(path: str, obj) -> None:
    """Serialize obj as pretty JSON, atomically (write temp, then rename)."""
    with _atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
