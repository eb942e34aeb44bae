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

Initial values are drawn from the steady state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameterError, NotApplicableError

__all__ = ["NoiseKind", "NoiseModel", "steady_samples", "autocorrelation", "simulate_paths"]


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


# Time steps per block of drawn normals: a chunk holds one (_BLOCK_STEPS, m)
# buffer instead of an (n_steps, m) matrix. A Philox stream yields the same
# sequence however its draws are split into calls, so this sets memory only.
_BLOCK_STEPS = 256
# Streams per tile: each stream draws its block into its own row of a
# (_TILE_STREAMS, _BLOCK_STEPS) tile, which is then copied transposed into
# the block; a tile this small keeps the transposing copy within cache.
_TILE_STREAMS = 32


def _stream_normals(streams, n_steps: int):
    """Yield standard normals for ``n_steps`` steps in time-major blocks.

    Each block has shape (width, len(streams)) with width at most
    ``_BLOCK_STEPS``, so the draws of one step are a contiguous row; column
    r continues stream r's sequence. The blocks are views of one buffer
    that the next block overwrites, so a consumer uses (or copies) each
    block before asking for the next.
    """
    m = len(streams)
    buf = np.empty((min(n_steps, _BLOCK_STEPS), m))
    tile = np.empty((min(m, _TILE_STREAMS), buf.shape[0]))
    for start in range(0, n_steps, _BLOCK_STEPS):
        width = min(_BLOCK_STEPS, n_steps - start)
        for first in range(0, m, _TILE_STREAMS):
            group = streams[first : first + _TILE_STREAMS]
            rows = tile[: len(group), :width]
            for row, g in zip(rows, group):
                g.standard_normal(out=row)
            buf[:width, first : first + len(group)] = rows.T
        yield buf[:width]


def _draw_field(model: NoiseModel, streams, n_steps: int):
    """Initial values and per-step normal blocks (None for frozen kinds) of
    one field path per stream: each stream draws its steady-state value
    (uniform on [-1, 1] for bounded kinds, N(0, 1) otherwise), then, if the
    kind evolves, ``n_steps`` normals, drawn block by block as
    :func:`_stream_normals` is iterated.
    """
    xi = np.array([steady_samples(model, 1, g)[0] for g in streams])
    blocks = _stream_normals(streams, n_steps) if model.kind.is_evolving else None
    return xi, blocks


def steady_samples(model: NoiseModel, n: int, rng) -> np.ndarray:
    """Draw n independent steady-state values from one stream.

    N(0, 1) for OU-family kinds, uniform on [-1, 1] for SBM-family kinds.
    """
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


def simulate_paths(model: NoiseModel, n_steps: int, dt: float, streams):
    """Generate steady-state noise paths, one per random stream.

    Each path draws only from its own stream, in the order of
    :func:`_draw_field` that the ensemble engine shares (initial value
    first, then one normal per step), so a path is a pure function of
    (stream seed, model, dt, n_steps) regardless of how many other paths
    are generated alongside it. The per-step normals are drawn in
    time-major blocks, so besides the returned paths only a (block, n)
    buffer of draws is held. Each step reads its normals as one contiguous
    row and writes the advanced field over them; the block is then copied
    into the result transposed, a tile of streams at a time.

    Parameters
    ----------
    model : NoiseModel
        Process to simulate; frozen kinds yield constant paths.
    n_steps : int
        Number of steps; output has n_steps + 1 columns including t = 0.
    dt : float
        Time step.
    streams : sequence of numpy.random.Generator
        One private stream per path, which also draws its initial value.

    Returns
    -------
    numpy.ndarray, shape (len(streams), n_steps + 1)
    """
    if model.kind is NoiseKind.NONE:
        raise NotApplicableError("cannot simulate paths for noise kind 'none'")
    if n_steps < 0:
        raise InvalidParameterError(f"n_steps must be nonnegative, got {n_steps}")
    if not dt > 0:
        raise InvalidParameterError(f"dt must be positive, got {dt}")
    streams = list(streams)
    n = len(streams)
    if n == 0:
        raise InvalidParameterError("at least one random stream is required")

    xi, blocks = _draw_field(model, streams, n_steps)

    out = np.empty((n, n_steps + 1))
    out[:, 0] = xi
    if model.kind.is_frozen:
        out[:, 1:] = xi[:, None]
        return out

    # The advanced field overwrites the normals it consumed: both updates
    # read their normals before they write ``out``.
    ws = tuple(np.empty((2, n)))
    if model.kind is NoiseKind.OU:
        decay, sigma = _ou_coefficients(dt, model.tau)
        advance = lambda x, n: _ou_update(x, decay, sigma, n, n, ws)  # noqa: E731
    else:
        advance = lambda x, n: _sbm_update(x, dt, model.tau, n, n, ws)  # noqa: E731
    k = 1
    for block in blocks:
        prev = xi
        for normals in block:
            advance(prev, normals)
            prev = normals
        np.copyto(xi, prev)
        for first in range(0, n, _TILE_STREAMS):
            last = first + _TILE_STREAMS
            out[first:last, k : k + len(block)] = block[:, first:last].T
        k += len(block)
    return out
