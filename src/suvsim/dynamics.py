"""Trajectory integrators for a two-state superposition under state reduction.

The state is |psi> = a|0> + b|1> with real amplitudes (a Hamiltonian-free
frame, hbar = 1), z = a^2, and m = <sigma3> = a^2 - b^2. Three families of
dynamics act on it:

* Colored-noise reduction (smooth paths). The norm-preserving generator is
      Gcal = (1/2)(sigma3 - m)(J m + G xi),
  giving the deterministic pair (xi held constant over a step)
      da/dt = +(1/2)(1 - m)(J m + G xi) a
      db/dt = -(1/2)(1 + m)(J m + G xi) b.
  Paths are differentiable, so their quadratic variation vanishes as
  dt -> 0. An unnormalized variant evolves d|psi> = Ghat|psi> dt with
  Ghat = (1/2) sigma3 (J m + G xi) and a growing norm; the normalized
  scheme equals it up to a pure rescaling.

* White-noise diffusion (rough paths). The homogenized small-tau limit of
  the colored dynamics is the Stratonovich equation
      d|psi> = (J/2) m (sigma3 - m)|psi> dt + (Deff/2)(sigma3 - m)|psi> o dW
  with effective diffusion Deff^2 = 2 G^2 tau E[xi^2]. Its Ito form adds
  the conversion drift
      Cs = (Deff^2/4) [ (1/2)(sigma3 - m)^2 - (1 - m^2) ].
  The standard norm-preserving stochastic Schrodinger equation is
      d|psi> = (1/2)[ -gamma (sigma3 - m)^2 dt + 2 sqrt(gamma)(sigma3 - m) dW ]|psi>
  (Ito). These paths scale as O(sqrt(dt)) per step and build up linear
  quadratic variation.

* Scalar z-tracks. Both limits close in z alone:
      colored:  dz/dt = 2 z (1 - z) [ J (2z - 1) + G xi ]
      white:    dz    = 2 J z (1 - z)(2z - 1) dt + 2 Deff z (1 - z) o dW.

Smooth and Stratonovich dynamics are stepped with Heun (the same dW enters
predictor and corrector); Ito dynamics with Euler-Maruyama. Normalized
schemes renormalize after every step; the correction is a pure rescaling
and does not affect observables. Pointer states |0> and |1> are exact
fixed points of every scheme for every noise value.

The step kernels below act on arrays with one entry per trajectory; the
ensemble engine is their only caller.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, IntegratorInstabilityError, InvalidParameterError
from .noise import NoiseKind, NoiseModel

__all__ = ["PhysicsParams", "Scheme", "TrajectoryConfig"]

# Normalized states must satisfy |a^2 + b^2 - 1| below this bound after every
# step; a larger defect after renormalization means the state degenerated.
NORM_ENFORCED_TOL = 1e-9
# Stability guard: dt times the fastest rate in the problem must stay small.
STABILITY_LIMIT = 0.1


@dataclass(frozen=True)
class PhysicsParams:
    """Coupling constants of one trajectory, all in inverse-time units
    (hbar = 1).

    Parameters
    ----------
    J : float
        Deterministic (dissipative) coupling.
    G : float
        Noise coupling.
    gamma : float
        White-noise rate of the stochastic Schrodinger scheme.
    Deff : float
        Effective diffusion sqrt(2 G^2 tau E[xi^2]) of the white-noise
        limit; E[xi^2] is the steady second moment of the driving process.
    """

    J: float
    G: float
    gamma: float = 0.0
    Deff: float = 0.0

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise InvalidParameterError(f"gamma must be nonnegative, got {self.gamma}")


class Scheme(str, Enum):
    """Integration schemes; values double as CLI tokens."""

    SUV_COLORED = "suv-colored"
    SSE = "sse"
    WHITE_STRAT = "white-strat"
    WHITE_ITO = "white-ito"
    UNNORMALIZED_SUV = "unnormalized-suv"
    Z_COLORED = "z-scalar-colored"
    Z_WHITE = "z-scalar-white"

    @property
    def uses_colored_noise(self) -> bool:
        """True for schemes driven by a colored (or frozen) field xi."""
        return self in (
            Scheme.SUV_COLORED,
            Scheme.UNNORMALIZED_SUV,
            Scheme.Z_COLORED,
        )

    @property
    def uses_wiener_noise(self) -> bool:
        return self in (Scheme.SSE, Scheme.WHITE_STRAT, Scheme.WHITE_ITO, Scheme.Z_WHITE)

    @property
    def is_scalar(self) -> bool:
        return self in (Scheme.Z_COLORED, Scheme.Z_WHITE)


@dataclass(frozen=True)
class TrajectoryConfig:
    """Physics, noise model, grid, initial condition and seed of one run."""

    params: PhysicsParams
    noise: NoiseModel
    dt: float
    T: float
    z0: float
    scheme: Scheme
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.scheme, Scheme):
            object.__setattr__(self, "scheme", Scheme(self.scheme))
        if not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not self.T > 0:
            raise ConfigError(f"T must be positive, got {self.T}")
        if not 0.0 <= self.z0 <= 1.0:
            raise ConfigError(f"z0 must be in [0, 1], got {self.z0}")
        if not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if self.scheme.uses_colored_noise and self.noise.kind is NoiseKind.NONE:
            raise ConfigError(
                f"scheme {self.scheme.value!r} is driven by a colored field and needs a "
                "noise process, got kind 'none'"
            )
        p = self.params
        fastest = max(abs(p.J), abs(p.G), p.gamma, p.Deff * p.Deff)
        if self.dt * fastest >= STABILITY_LIMIT:
            raise ConfigError(
                f"unstable step: dt * max(J, G, gamma, Deff^2) = "
                f"{self.dt * fastest:.3g} exceeds {STABILITY_LIMIT}"
            )
        if (
            self.scheme.uses_colored_noise
            and self.noise.kind.is_evolving
            and self.dt > self.noise.tau / 10.0
        ):
            warnings.warn(
                f"dt = {self.dt} resolves the noise correlation time "
                f"tau = {self.noise.tau} poorly (dt > tau/10)",
                stacklevel=2,
            )

    @property
    def n_steps(self) -> int:
        return max(1, round(self.T / self.dt))


# ---------------------------------------------------------------------------
# Step kernels. Amplitudes, z, xi and dW are arrays with one entry per
# trajectory; couplings and dt are scalars.


def _suv_rate(a, b, xi, J, G):
    m = a * a - b * b
    r = J * m + G * xi
    return 0.5 * (1.0 - m) * r * a, -0.5 * (1.0 + m) * r * b


def _suv_heun(a, b, xi, dt, J, G):
    ka, kb = _suv_rate(a, b, xi, J, G)
    ka2, kb2 = _suv_rate(a + dt * ka, b + dt * kb, xi, J, G)
    return a + 0.5 * dt * (ka + ka2), b + 0.5 * dt * (kb + kb2)


def _unnormalized_rate(a, b, xi, J, G):
    nrm2 = a * a + b * b
    m = (a * a - b * b) / nrm2
    r = 0.5 * (J * m + G * xi)
    return r * a, -r * b


def _unnormalized_heun(a, b, xi, dt, J, G):
    ka, kb = _unnormalized_rate(a, b, xi, J, G)
    ka2, kb2 = _unnormalized_rate(a + dt * ka, b + dt * kb, xi, J, G)
    return a + 0.5 * dt * (ka + ka2), b + 0.5 * dt * (kb + kb2)


def _sse_em(a, b, dw, dt, gamma):
    m = a * a - b * b
    root = math.sqrt(gamma)
    da = 0.5 * (-gamma * (1.0 - m) ** 2 * dt + 2.0 * root * (1.0 - m) * dw) * a
    db = 0.5 * (-gamma * (1.0 + m) ** 2 * dt - 2.0 * root * (1.0 + m) * dw) * b
    return a + da, b + db


def _white_drift(a, b, m, J):
    return 0.5 * J * m * (1.0 - m) * a, -0.5 * J * m * (1.0 + m) * b


def _white_diffusion(a, b, m, deff):
    return 0.5 * deff * (1.0 - m) * a, -0.5 * deff * (1.0 + m) * b


def _white_strat_heun(a, b, dw, dt, J, deff):
    m = a * a - b * b
    fa, fb = _white_drift(a, b, m, J)
    ga, gb = _white_diffusion(a, b, m, deff)
    ap = a + fa * dt + ga * dw
    bp = b + fb * dt + gb * dw
    mp = ap * ap - bp * bp
    fa2, fb2 = _white_drift(ap, bp, mp, J)
    ga2, gb2 = _white_diffusion(ap, bp, mp, deff)
    return (
        a + 0.5 * dt * (fa + fa2) + 0.5 * dw * (ga + ga2),
        b + 0.5 * dt * (fb + fb2) + 0.5 * dw * (gb + gb2),
    )


def _white_ito_em(a, b, dw, dt, J, deff):
    m = a * a - b * b
    fa, fb = _white_drift(a, b, m, J)
    ga, gb = _white_diffusion(a, b, m, deff)
    # Stratonovich-to-Ito conversion drift; <sigma3^2> = 1 on a qubit.
    c = 0.25 * deff * deff
    var = 1.0 - m * m
    ca = c * (0.5 * (1.0 - m) ** 2 - var) * a
    cb = c * (0.5 * (1.0 + m) ** 2 - var) * b
    return a + (fa + ca) * dt + ga * dw, b + (fb + cb) * dt + gb * dw


def _z_colored_rate(z, xi, J, G):
    # The z-image of the amplitude pair: dz/dt = 2 a da/dt with
    # da/dt = (1/2)(1 - m)(J m + G xi) a, 1 - m = 2(1 - z) and m = 2z - 1.
    return 2.0 * z * (1.0 - z) * (J * (2.0 * z - 1.0) + G * xi)


def _z_colored_heun(z, xi, dt, J, G):
    k1 = _z_colored_rate(z, xi, J, G)
    k2 = _z_colored_rate(z + dt * k1, xi, J, G)
    return np.clip(z + 0.5 * dt * (k1 + k2), 0.0, 1.0)


def _z_white_heun(z, dw, dt, J, deff):
    f1 = 2.0 * J * z * (1.0 - z) * (2.0 * z - 1.0)
    g1 = 2.0 * deff * z * (1.0 - z)
    zp = z + f1 * dt + g1 * dw
    f2 = 2.0 * J * zp * (1.0 - zp) * (2.0 * zp - 1.0)
    g2 = 2.0 * deff * zp * (1.0 - zp)
    return np.clip(z + 0.5 * dt * (f1 + f2) + 0.5 * dw * (g1 + g2), 0.0, 1.0)


def _renormalize(a, b):
    """Rescale amplitudes to unit norm, raising if the state degenerated."""
    nrm2 = a * a + b * b
    if not np.all(np.isfinite(nrm2)) or np.any(nrm2 <= 0.0):
        bad = ~np.isfinite(nrm2) | (nrm2 <= 0.0)
        raise IntegratorInstabilityError("non-finite or zero-norm state", row=int(np.argmax(bad)))
    nrm = np.sqrt(nrm2)
    a = a / nrm
    b = b / nrm
    defect = np.abs(a * a + b * b - 1.0)
    worst = np.max(defect)
    if worst > NORM_ENFORCED_TOL:
        raise IntegratorInstabilityError(
            f"norm defect {worst:.3g} after renormalization exceeds {NORM_ENFORCED_TOL}",
            row=int(np.argmax(defect)),
        )
    return a, b
