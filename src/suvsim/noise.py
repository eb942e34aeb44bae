"""Colored-noise processes driving the trajectory dynamics.

Two mean-reverting processes with correlation time tau are provided, plus
frozen (constant-per-trajectory) variants of each:

* OU (Ornstein-Uhlenbeck):   d xi = -xi/tau dt + sqrt(2/tau) dW
  Steady state N(0, 1); autocorrelation E[xi_t xi_s] = exp(-|t-s|/tau).
  Stepped with the exact Gaussian transition kernel,
      xi' = xi e^(-dt/tau) + sqrt(1 - e^(-2 dt/tau)) n,   n ~ N(0, 1),
  so the noise channel carries no dt bias and all discretization error
  is attributable to the state integrator.

* SBM (spherical Brownian motion, the polar cosine of Brownian motion on
  the unit sphere, closed in xi = cos theta):
      d xi = -xi/tau dt + sqrt((1 - xi^2)/tau) dW   (Ito)
  Steady state uniform on [-1, 1] (E[xi^2] = 1/3); autocorrelation
  (1/3) exp(-|t-s|/tau). Stepped with Euler-Maruyama and a hard clamp to
  [-1, 1]: the diffusion coefficient vanishes at the boundary, so
  overshoot is an O(sqrt(dt))-rare discretization artifact.

Initial values are drawn from the steady state. The engine
(:mod:`suvsim.engine`) draws every field path and advances it with the
update kernels defined here. The stationary autocovariance of paths
streamed in time-major blocks as they are stepped is reduced as every
ensemble statistic is: :func:`_lag_sums` gives one row of per-path lag
sums per group of 16 paths, folded in group order by a
CompensatedAccumulator, in one process (:func:`autocorrelation`) or across
the chunks of noise validation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameterError, NotApplicableError, check_integer
from .observables import _FOLD_ROWS, CompensatedAccumulator, _fold_groups

__all__ = ["NoiseKind", "NoiseModel", "steady_samples", "autocorrelation"]

# Time steps per window of the autocovariance estimator: the products of a
# window, (_WINDOW_STEPS, n_traj), are formed and added while in cache.
_WINDOW_STEPS = 16


class NoiseKind(str, Enum):
    """Available noise processes; frozen kinds hold a single steady-state draw."""

    OU = "ou"
    SBM = "sbm"
    FROZEN_OU = "frozen-ou"
    FROZEN_SBM = "frozen-sbm"
    NONE = "none"

    @property
    def is_frozen(self) -> bool:
        return self in (NoiseKind.FROZEN_OU, NoiseKind.FROZEN_SBM)

    @property
    def is_evolving(self) -> bool:
        return self in (NoiseKind.OU, NoiseKind.SBM)

    @property
    def is_bounded(self) -> bool:
        """SBM-family kinds keep |xi| <= 1 at all times."""
        return self in (NoiseKind.SBM, NoiseKind.FROZEN_SBM)


@dataclass(frozen=True)
class NoiseModel:
    """A noise process selection with its correlation time.

    Parameters
    ----------
    kind : NoiseKind
        Process family. ``tau`` is ignored for frozen and none kinds.
    tau : float
        Correlation time, required positive for evolving kinds.
    """

    kind: NoiseKind
    tau: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, NoiseKind):
            object.__setattr__(self, "kind", NoiseKind(self.kind))
        if self.kind.is_evolving and not self.tau > 0:
            raise InvalidParameterError(
                f"tau must be positive for {self.kind.value} noise, got {self.tau}"
            )


def _ou_coefficients(dt: float, tau: float) -> tuple[float, float]:
    """Decay factor and innovation scale of the exact OU transition kernel."""
    decay = math.exp(-dt / tau)
    return decay, math.sqrt(1.0 - decay * decay)


def _ou_update(xi, decay, sigma, normals, out, ws):
    """Exact OU transition xi * decay + sigma * normals into ``out``, which
    may be ``xi`` itself; vectorized over trajectories, uses ws[0]."""
    t = ws[0]
    np.multiply(sigma, normals, out=t)
    np.multiply(xi, decay, out=out)
    return np.add(out, t, out=out)


def _sbm_update(xi, dt, tau, normals, out, ws):
    """One Euler-Maruyama SBM step with boundary clamp into ``out``, which
    may be ``xi`` itself; vectorized over trajectories, uses ws[0:2]:
    clip(xi - xi * r + sqrt(clip(1.0 - xi * xi, 0.0, None) * r) * normals,
    -1.0, 1.0) with r = dt / tau."""
    ratio = dt / tau
    s, t = ws[0], ws[1]
    np.multiply(xi, xi, out=s)
    np.subtract(1.0, s, out=s)
    np.clip(s, 0.0, None, out=s)
    np.multiply(s, ratio, out=s)
    np.sqrt(s, out=s)
    np.multiply(s, normals, out=s)
    np.multiply(xi, ratio, out=t)
    np.subtract(xi, t, out=out)
    np.add(out, s, out=out)
    return np.clip(out, -1.0, 1.0, out=out)


def steady_samples(model: NoiseModel, n: int, rng) -> np.ndarray:
    """Draw n independent steady-state values from one stream.

    N(0, 1) for OU-family kinds, uniform on [-1, 1] for SBM-family kinds.
    """
    check_integer("n", n, 1)
    kind = model.kind
    if kind in (NoiseKind.OU, NoiseKind.FROZEN_OU):
        return rng.standard_normal(n)
    if kind in (NoiseKind.SBM, NoiseKind.FROZEN_SBM):
        return rng.uniform(-1.0, 1.0, n)
    raise NotApplicableError(f"no steady state defined for noise kind {kind.value!r}")


def autocorrelation(blocks, lags) -> np.ndarray:
    """Stationary autocovariance estimates E[xi_t xi_(t+k)] - E[xi]^2, one
    per lag k of ``lags``, averaged over trajectories and over all time
    origins of steady-state paths sampled on a uniform grid: the
    :func:`_lag_sums` group rows, folded in group order.

    ``blocks`` are the paths as time-major (steps, n_traj) arrays from
    t = 0 (such as those of :func:`suvsim.engine.simulate_paths`), each read
    before the next is requested. ``lags`` are whole steps 0 <= k < the
    blocks' total step count; their type and sign are checked before any
    block is requested. The estimates are the same bits however the paths
    are split into blocks, and each lag's is the same whatever the others.
    """
    rows, n, t = _lag_sums(blocks, lags)
    folded = CompensatedAccumulator(rows.shape[1])
    folded.add_rows(rows)
    return _autocovariance(folded.total, lags, n, t)


def _lag_sums(blocks, lags, first=0):
    """``(rows, n, T)``: n paths of T steps, whose first has stream index
    ``first``, reduced to one row per group of _FOLD_ROWS of them (see
    :func:`_fold_groups`). Per lag k, a row holds the group's sums of
    x_(t-k) x_t, of x_t over t < T - k and of x_t over t >= k.

    Each path adds its lag products window by window in time order (a
    window's products formed in one buffer, in cache, and added by a fixed
    pairwise tree), and its range sums are its running sum less its first
    or last k values, so they depend on its own values alone. A ring holds
    the last max(lags) steps and a window: memory grows with n, not T.
    """
    if np.ndim(lags) != 1:
        raise InvalidParameterError(f"lags must be a sequence of steps, got {lags!r}")
    for k in lags:
        check_integer("lag", k, 0)
    lags = np.array(lags, dtype=int)
    firsts = set(lags.tolist())  # step s + 1 ends a first-k sum when it is a lag
    w, ring, t = _WINDOW_STEPS, None, 0  # t: steps fed so far

    def window(a, b):
        for s in range(a, b):  # the running sum, keeping each first-k sum
            np.add(total, ring[s % size], out=total)
            if s + 1 in firsts:
                tail[lags == s + 1] = total
        for j, k in enumerate(lags):
            lo = max(a, k)
            if lo >= b:
                continue
            rows = b - lo
            y = ring[lo % size : lo % size + rows]
            s = (lo - k) % size
            wrap = min(rows, size - s)  # the lagged rows may wrap around the ring
            xy = scratch[:rows]
            np.multiply(ring[s : s + wrap], y[:wrap], out=xy[:wrap])
            np.multiply(ring[: rows - wrap], y[wrap:], out=xy[wrap:])
            while rows > 1:  # a fixed tree over the window's rows, then into prod
                half = rows // 2
                np.add(xy[:half], xy[rows - half : rows], out=xy[:half])
                rows -= half
            np.add(prod[j], xy[0], out=prod[j])

    for block in blocks:
        block = np.asarray(block, dtype=float)
        if ring is None:
            if block.ndim != 2 or block.shape[1] == 0:
                raise InvalidParameterError(
                    f"blocks must be (steps, n_traj) arrays with n_traj >= 1, got {block.shape}"
                )
            n = block.shape[1]
            # a whole number of windows that holds the longest lag's history
            size = -(-(max(lags, default=0) + w) // w) * w
            ring, scratch, total = np.empty((size, n)), np.empty((w, n)), np.zeros(n)
            prod, head, tail = sums = np.zeros((3, len(lags), n))
        elif block.ndim != 2 or block.shape[1] != n:
            raise InvalidParameterError(f"every block must have {n} columns, got {block.shape}")
        i = 0
        while i < len(block):  # in pieces that end at window edges
            take = min(len(block) - i, w - t % w)
            ring[t % size : t % size + take] = block[i : i + take]
            i, t = i + take, t + take
            if t % w == 0:
                window(t - w, t)
    if t == 0:
        raise InvalidParameterError("blocks must hold at least one time step")
    if t % w:
        window(t - t % w, t)
    for k in lags:
        if k >= t:
            raise InvalidParameterError(f"lag must be a whole number of steps in [0, {t}), got {k}")
    last = np.zeros(n)
    for s in range(1, max(lags, default=0) + 1):  # the last-k sums, last step first
        np.add(last, ring[(t - s) % size], out=last)
        head[lags == s] = last
    np.subtract(total, sums[1:], out=sums[1:])  # the range sums
    rows = np.empty((3 * len(lags), (first % _FOLD_ROWS + n - 1) // _FOLD_ROWS + 1))
    _fold_groups(sums.reshape(-1, n), rows, first % _FOLD_ROWS)
    return rows.T, n, t


def _autocovariance(total, lags, n, t) -> np.ndarray:
    """Estimates from the folded :func:`_lag_sums` rows of n paths of t
    steps: per lag k, the mean lag product less the two range means'
    product, each a sum over n (t - k) pairs."""
    prod, head, tail = np.reshape(total, (3, -1)) / (n * (t - np.array(lags, dtype=float)))
    return prod - head * tail
