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
update kernels defined here. :func:`autocorrelation` estimates the
stationary autocovariance of paths streamed to it in time-major blocks as
they are stepped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameterError, NotApplicableError, check_integer

__all__ = ["NoiseKind", "NoiseModel", "steady_samples", "autocorrelation"]

# Time steps per window of the autocovariance estimator: the products of a
# window, (_WINDOW_STEPS, n_traj), are formed and summed while in cache.
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
    per lag k of ``lags``.

    Averages over trajectories and over all time origins of steady-state
    paths sampled on a uniform grid. The paths are streamed: the estimator
    keeps a ring of the last max(lags) time steps plus one window of
    _WINDOW_STEPS, and never the whole paths. Each window of absolute
    time [a, a + _WINDOW_STEPS) adds, per lag k, the sum of x_(t-k) x_t
    over its steps t >= k (formed in one window-sized buffer, so it stays
    in cache), and, per step, the sum of x_t over trajectories; the lag
    means are range sums of those step sums. Partial sums are added with
    math.fsum. The windows are fixed by absolute time, so the estimates
    are the same bits however the paths are split into blocks, and each
    lag's estimate is the same whatever the other lags are.

    Parameters
    ----------
    blocks : iterable of arrays of shape (steps, n_traj)
        Noise paths started in the steady state, as time-major blocks that
        start at t = 0 (such as those of :func:`suvsim.engine.simulate_paths`),
        each block read before the next is requested.
    lags : sequence of int
        Lags in grid steps, each 0 <= k < n_times, where n_times is the
        blocks' total step count. Their type and sign are checked before
        any block is requested.
    """
    if np.ndim(lags) != 1:
        raise InvalidParameterError(f"lags must be a sequence of steps, got {lags!r}")
    for k in lags:
        if not isinstance(k, (int, np.integer)) or k < 0:
            raise InvalidParameterError(f"lag must be a nonnegative whole number of steps, got {k}")
    lags = [int(k) for k in lags]

    w = _WINDOW_STEPS
    ring = scratch = None  # allocated once the path count is known
    step_sums = []  # sum over trajectories of x_t, per step t
    products = [[] for _ in lags]  # per lag, each window's sum of x_(t-k) x_t
    t = 0  # steps fed so far

    def window(a, b):
        now = ring[a % size : a % size + b - a]
        step_sums.extend(now.sum(axis=1).tolist())
        for k, sums in zip(lags, products):
            lo = max(a, k)
            if lo >= b:
                continue
            rows = b - lo
            y = ring[lo % size : lo % size + rows]
            s = (lo - k) % size
            head = min(rows, size - s)  # the lagged rows may wrap around the ring
            xy = scratch[:rows]
            np.multiply(ring[s : s + head], y[:head], out=xy[:head])
            np.multiply(ring[: rows - head], y[head:], out=xy[head:])
            sums.append(float(xy.sum()))

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
            ring, scratch = np.empty((size, n)), np.empty((w, n))
        elif block.ndim != 2 or block.shape[1] != n:
            raise InvalidParameterError(f"every block must have {n} columns, got {block.shape}")
        i = 0
        while i < len(block):  # in pieces that end at window edges
            take = min(len(block) - i, w - t % w)
            ring[t % size : t % size + take] = block[i : i + take]
            i += take
            t += take
            if t % w == 0:
                window(t - w, t)
    if t == 0:
        raise InvalidParameterError("blocks must hold at least one time step")
    if t % w:
        window(t - t % w, t)
    for k in lags:
        if k >= t:
            raise InvalidParameterError(f"lag must be a whole number of steps in [0, {t}), got {k}")

    estimates = np.empty(len(lags))
    for j, (k, sums) in enumerate(zip(lags, products)):
        count = n * (t - k)
        mean_x = math.fsum(step_sums[: t - k]) / count
        mean_y = math.fsum(step_sums[k:]) / count
        estimates[j] = math.fsum(sums) / count - mean_x * mean_y
    return estimates
