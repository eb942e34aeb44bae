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
update kernels defined here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameterError, NotApplicableError, check_integer

__all__ = ["NoiseKind", "NoiseModel", "steady_samples", "autocorrelation"]


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
    check_integer("n", n)
    if n < 1:
        raise InvalidParameterError(f"n must be positive, got {n}")
    kind = model.kind
    if kind in (NoiseKind.OU, NoiseKind.FROZEN_OU):
        return rng.standard_normal(n)
    if kind in (NoiseKind.SBM, NoiseKind.FROZEN_SBM):
        return rng.uniform(-1.0, 1.0, n)
    raise NotApplicableError(f"no steady state defined for noise kind {kind.value!r}")


def autocorrelation(paths, lags) -> np.ndarray:
    """Stationary autocovariance estimates E[xi_t xi_(t+k)] - E[xi]^2, one
    per lag k of ``lags``.

    Averages over trajectories and over all time origins of steady-state
    paths sampled on a uniform grid. The products of every lag are formed
    in one reused buffer the size of the paths.

    Parameters
    ----------
    paths : array_like, shape (n_traj, n_times)
        Noise paths started in the steady state.
    lags : sequence of int
        Lags in grid steps, each 0 <= k < n_times.
    """
    arr = np.asarray(paths, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise InvalidParameterError("paths must be a nonempty (n_traj, n_times) array")
    n_times = arr.shape[1]
    if np.ndim(lags) != 1:
        raise InvalidParameterError(f"lags must be a sequence of steps, got {lags!r}")
    for k in lags:
        if not isinstance(k, (int, np.integer)) or not 0 <= k < n_times:
            raise InvalidParameterError(
                f"lag must be a whole number of steps in [0, {n_times}), got {k}"
            )
    buffer = np.empty(arr.size)
    estimates = np.empty(len(lags))
    for j, k in enumerate(lags):
        x = arr[:, : n_times - k] if k else arr
        y = arr[:, k:]
        xy = np.multiply(x, y, out=buffer[: x.size].reshape(x.shape))
        estimates[j] = np.mean(xy) - np.mean(x) * np.mean(y)
    return estimates
