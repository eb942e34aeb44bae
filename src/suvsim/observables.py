"""Ensemble statistics: compensated sums, ensemble summaries, collapse
counts, and distribution comparison.

The engine sums trajectories in groups of 16 and folds the group sums in
index order with Neumaier compensated summation, so results are bitwise
independent of how the ensemble was chunked or scheduled upstream.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconclusiveError, InvalidParameterError

__all__ = [
    "CompensatedAccumulator",
    "EnsembleSummary",
    "CollapseStats",
    "collapse_statistics",
    "ks_distance",
    "born_deviation",
]


class CompensatedAccumulator:
    """Neumaier compensated summation, folding one sample row at a time.

    The fold order is fixed by the caller (the engine's groups, in
    trajectory-index order), which makes the total a pure function of the
    sample sequence: identical bits no matter how samples were batched.
    """

    def __init__(self, shape=()):
        self._acc = np.zeros(shape)
        self._comp = np.zeros(shape)

    def add(self, row) -> None:
        x = np.asarray(row, dtype=float)
        t = self._acc + x
        big = np.abs(self._acc) >= np.abs(x)
        self._comp += np.where(big, (self._acc - t) + x, (x - t) + self._acc)
        self._acc = t

    def add_rows(self, matrix) -> None:
        for row in np.asarray(matrix, dtype=float):
            self.add(row)

    @property
    def total(self) -> np.ndarray:
        return self._acc + self._comp


@dataclass
class EnsembleSummary:
    """Time series of ensemble means over trajectories.

    stderr fields are None for a single-trajectory ensemble.
    """

    times: np.ndarray
    mean_z: np.ndarray
    mean_offdiag: np.ndarray
    qv: np.ndarray
    n_traj: int
    stderr_z: np.ndarray | None = None
    stderr_offdiag: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.times)
        for name in ("mean_z", "mean_offdiag", "qv"):
            if len(getattr(self, name)) != n:
                raise InvalidParameterError(f"{name} length does not match times")
        for name in ("stderr_z", "stderr_offdiag"):
            val = getattr(self, name)
            if val is not None and len(val) != n:
                raise InvalidParameterError(f"{name} length does not match times")
        if self.n_traj < 1:
            raise InvalidParameterError("n_traj must be at least 1")
        # Physical bounds, with headroom only for summation round-off.
        if np.any(self.mean_z < -1e-9) or np.any(self.mean_z > 1.0 + 1e-9):
            raise InvalidParameterError("mean_z outside [0, 1]")
        if np.any(np.abs(self.mean_offdiag) > 0.5 + 1e-9):
            raise InvalidParameterError("|mean_offdiag| exceeds 1/2")
        if np.any(np.diff(self.qv) < 0.0):
            raise InvalidParameterError("qv must be nondecreasing")


@dataclass(frozen=True)
class CollapseStats:
    """Collapse classification counts for one ensemble.

    Counts are integers so the three fractions sum to one exactly on the
    underlying counts.
    """

    n_zero: int
    n_one: int
    n_unresolved: int

    def __post_init__(self) -> None:
        if min(self.n_zero, self.n_one, self.n_unresolved) < 0:
            raise InvalidParameterError("counts must be nonnegative")
        if self.n_traj < 1:
            raise InvalidParameterError("at least one trajectory is required")

    @property
    def n_traj(self) -> int:
        return self.n_zero + self.n_one + self.n_unresolved

    @property
    def frac_zero(self) -> float:
        return self.n_zero / self.n_traj

    @property
    def frac_one(self) -> float:
        return self.n_one / self.n_traj

    @property
    def frac_unresolved(self) -> float:
        return self.n_unresolved / self.n_traj


def collapse_statistics(final_z, eps_collapse: float) -> CollapseStats:
    """Classify final z values as collapsed to |0>, to |1>, or unresolved.

    z >= 1 - eps counts as |0> (z is the weight on |0>), z <= eps as |1>.
    """
    if not 0.0 < eps_collapse < 0.5:
        raise InvalidParameterError(
            f"eps_collapse must be in (0, 0.5), got {eps_collapse}"
        )
    z = np.asarray(final_z, dtype=float)
    if z.size == 0:
        raise InvalidParameterError("at least one trajectory is required")
    n_zero = int(np.sum(z >= 1.0 - eps_collapse))
    n_one = int(np.sum(z <= eps_collapse))
    return CollapseStats(
        n_zero=n_zero, n_one=n_one, n_unresolved=int(z.size) - n_zero - n_one
    )


def ks_distance(sample_a, sample_b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic.

    Supremum over the real line of the absolute difference of the two
    empirical CDFs; invariant under permutations of either sample.
    """
    xa = np.sort(np.asarray(sample_a, dtype=float))
    xb = np.sort(np.asarray(sample_b, dtype=float))
    if xa.size == 0 or xb.size == 0:
        raise InvalidParameterError("both samples must be nonempty")
    grid = np.concatenate([xa, xb])
    cdf_a = np.searchsorted(xa, grid, side="right") / xa.size
    cdf_b = np.searchsorted(xb, grid, side="right") / xb.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def born_deviation(stats: CollapseStats, z0: float) -> float:
    """Deviation frac_zero - z0 of the collapse fraction from its target.

    Raises InconclusiveError when 1% or more of the trajectories are
    unresolved, since the fraction would then be biased by the horizon.
    """
    if not 0.0 <= z0 <= 1.0:
        raise InvalidParameterError(f"z0 must be in [0, 1], got {z0}")
    if stats.frac_unresolved >= 0.01:
        raise InconclusiveError(
            f"{stats.n_unresolved} of {stats.n_traj} trajectories unresolved "
            "(>= 1%); extend the horizon"
        )
    return stats.frac_zero - z0
