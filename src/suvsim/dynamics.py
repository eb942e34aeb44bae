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

The step kernels below act on arrays with one entry per trajectory, an
amplitude state being one array of two rows, a and b, and write in place
into caller-owned buffers; the ensemble engine is their only caller.
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
        for name, value in vars(self).items():  # J may be a shared chunk's per-row array
            if not np.all(np.isfinite(value)):
                raise InvalidParameterError(f"{name} must be finite, got {value}")
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
    def uses_deff(self) -> bool:
        """True for the white-limit schemes, whose Wiener drive has the
        strength Deff derived from the noise kind."""
        return self in (Scheme.WHITE_STRAT, Scheme.WHITE_ITO, Scheme.Z_WHITE)

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
        _whole_steps(self.T, self.dt)
        if not 0.0 <= self.z0 <= 1.0:
            raise ConfigError(f"z0 must be in [0, 1], got {self.z0}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if self.seed < 0:  # else a worker's stream derivation fails naming master_seed
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
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
        return _whole_steps(self.T, self.dt)


def _whole_steps(T: float, dt: float, name: str = "T") -> int:
    """Number of steps of size dt in the time span T, called ``name`` in
    error messages: both must be positive, T finite, and T a whole number
    of steps (up to round-off)."""
    if not dt > 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    if not T > 0:
        raise ConfigError(f"{name} must be positive, got {T}")
    if T == math.inf:
        raise ConfigError(f"{name} must be finite, got {T}")
    ratio = T / dt
    n = round(ratio)
    if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, ratio):
        raise ConfigError(f"{name} = {T} is not a whole number of steps of dt = {dt}")
    return n


# ---------------------------------------------------------------------------
# Step kernels. An amplitude state is one pair: an array of two rows, a and
# b, with one entry per trajectory. z, xi and dW are vectors of such
# entries, and couplings and dt scalars, except that J may also be such a
# vector, for a chunk whose trajectories differ in J. sigma3 = diag(1, -1)
# is the column _S3, so u = _S3 - m holds 1 - m and -1 - m and each
# (sigma3 - m) term is one operation on both rows. Row b keeps the bits of
# its expression in 1 + m, as negation is exact and rounding sign-symmetric:
# -1 - m is -(1 + m), (-x) * y is -(x * y) and v + (-w) is v - w. (Where
# 1 + m is an exact zero, -1 - m is +0, not -0, but then b is nonzero, and
# the zero's sign is lost where it is added to b.) So signs come from u or
# the module columns, never from a per-call temporary such as c * _S3. A
# kernel writes its result through ``out`` (a pair, or one vector for z) and
# keeps its intermediates in the rows of ``ws`` (see _workspace), so a step
# allocates no arrays, bar the scaled coupling (0.5 J, or 2 J for the
# z-track) that the white-noise kernels form from a per-row J. ``out`` and
# ``ws`` overlap neither the inputs nor each other. Each in-place sequence
# performs the floating-point operations of the expression in its comment,
# in Python's left-to-right order, so its bits are those of that expression.

# Scratch rows of the largest kernel, _white_strat_heun.
_SCRATCH = 11

# sigma3 and sigma3 / 2 as columns over the rows (a, b).
_S3 = np.array([[1.0], [-1.0]])
_HALF_S3 = np.array([[0.5], [-0.5]])


def _workspace(m):
    """Scratch rows for any step kernel, or _renormalize, over m
    trajectories: ws[i] is a vector and ws[i:i + 2] a pair."""
    return _aligned_rows(_SCRATCH, m)


def _aligned_rows(n, m):
    """An uninitialized (n, m) float array whose rows each start on a 64-byte
    cache line. Where malloc puts an array depends on everything allocated
    before it, and on a 2-core Xeon host, fig1a's kernels over 2000-wide
    vectors ran 10-17% slower when their workspace started 48 bytes into
    a line."""
    stride = -(-m // 8) * 8
    raw = np.empty(n * stride + 8)
    first = -raw.ctypes.data % 64 // 8
    return raw[first : first + n * stride].reshape(n, stride)[:, :m]


def _sigma3(s, out, sq):
    # m = a * a - b * b, through the scratch pair sq
    np.multiply(s, s, out=sq)
    return np.subtract(sq[0], sq[1], out=out)


def _suv_rate(s, gx, J, out, ws):
    # 0.5 * (sigma3 - m) * r * s, rows 0.5 * (1.0 - m) * r * a and
    # -0.5 * (1.0 + m) * r * b, with r = J * m + gx (gx = G * xi); uses
    # ws[0:2]. The factors are formed as _HALF_S3 - 0.5 * m with the same
    # bits: near unit norm, |m| is 0 or at least 2^-55, so each halving is
    # exact.
    m, r = ws[0], ws[1]
    _sigma3(s, m, out)
    np.multiply(J, m, out=r)
    np.add(r, gx, out=r)
    np.multiply(0.5, m, out=m)
    np.subtract(_HALF_S3, m, out=out)
    np.multiply(out, r, out=out)
    return np.multiply(out, s, out=out)


def _unnormalized_rate(s, gx, J, out, ws):
    # sigma3 * r * s, rows r * a and -r * b, with r = 0.5 * (J * m + gx) and
    # m = (a * a - b * b) / (a * a + b * b); uses ws[0:2]. Folded into dt the
    # 0.5 is exact only while J * m + gx stays normal, which no bound ensures.
    m, r = ws[0], ws[1]
    np.multiply(s, s, out=out)
    np.add(out[0], out[1], out=r)
    np.subtract(out[0], out[1], out=m)
    np.divide(m, r, out=m)
    np.multiply(J, m, out=r)
    np.add(r, gx, out=r)
    np.multiply(0.5, r, out=r)
    np.multiply(_S3, r, out=out)
    return np.multiply(out, s, out=out)


def _pair_heun(rate, s, xi, dt, J, G, out, ws):
    # s + 0.5 * dt * (k + k2), where k2 is the rate at s + dt * k; G * xi is
    # formed once for both stages. Uses ws[0:7].
    gx, k, p = ws[2], ws[3:5], ws[5:7]
    np.multiply(G, xi, out=gx)
    rate(s, gx, J, k, ws)
    np.multiply(dt, k, out=p)
    np.add(s, p, out=p)
    rate(p, gx, J, out, ws)
    np.add(k, out, out=out)
    np.multiply(0.5 * dt, out, out=out)
    return np.add(s, out, out=out)


def _suv_heun(s, xi, dt, J, G, out, ws):
    return _pair_heun(_suv_rate, s, xi, dt, J, G, out, ws)


def _unnormalized_heun(s, xi, dt, J, G, out, ws):
    return _pair_heun(_unnormalized_rate, s, xi, dt, J, G, out, ws)


def _sse_em(s, dw, dt, gamma, out, ws):
    # s + 0.5 * (-gamma * u ** 2 * dt + c * u * dw) * s with u = sigma3 - m
    # and c = 2.0 * sqrt(gamma); uses ws[0:3], and builds the increment v in
    # out. Folded into dt and c the 0.5 is exact only while gamma * u * u
    # stays normal, which no bound ensures.
    m, u, v = ws[0], ws[1:3], out
    c = 2.0 * math.sqrt(gamma)
    np.subtract(_S3, _sigma3(s, m, v), out=u)
    np.multiply(u, u, out=v)
    np.multiply(-gamma, v, out=v)
    np.multiply(v, dt, out=v)
    np.multiply(c, u, out=u)
    np.multiply(u, dw, out=u)
    np.add(v, u, out=v)
    np.multiply(0.5, v, out=v)
    np.multiply(v, s, out=v)
    return np.add(s, v, out=out)


def _white_terms(s, m, J, deff, f, g, u):
    # Drift f = 0.5 * J * m * u * s and diffusion g = 0.5 * deff * u * s with
    # u = sigma3 - m, whose rows are 0.5 * J * m * (1.0 - m) * a,
    # -0.5 * J * m * (1.0 + m) * b, 0.5 * deff * (1.0 - m) * a and
    # -0.5 * deff * (1.0 + m) * b. Leaves u, and 0.5 * J * m in m.
    np.subtract(_S3, m, out=u)
    np.multiply(0.5 * J, m, out=m)
    np.multiply(m, u, out=f)
    np.multiply(f, s, out=f)
    np.multiply(0.5 * deff, u, out=g)
    np.multiply(g, s, out=g)


def _white_strat_heun(s, dw, dt, J, deff, out, ws):
    # p = s + f * dt + g * dw, the terms at p marked 2, then
    # s + 0.5 * dt * (f + f2) + 0.5 * dw * (g + g2); uses ws[0:11] and holds
    # f2 in out.
    m, u, f, g, p, g2 = ws[0], ws[1:3], ws[3:5], ws[5:7], ws[7:9], ws[9:11]
    _white_terms(s, _sigma3(s, m, f), J, deff, f, g, u)
    np.multiply(f, dt, out=p)
    np.add(s, p, out=p)
    np.multiply(g, dw, out=u)
    np.add(p, u, out=p)
    _white_terms(p, _sigma3(p, m, out), J, deff, out, g2, u)
    np.multiply(0.5, dw, out=m)
    np.add(f, out, out=f)
    np.multiply(0.5 * dt, f, out=out)
    np.add(s, out, out=out)
    np.add(g, g2, out=g)
    np.multiply(m, g, out=g)
    return np.add(out, g, out=out)


def _white_ito_em(s, dw, dt, J, deff, out, ws):
    # Stratonovich-to-Ito conversion drift, with <sigma3^2> = 1 on a qubit:
    # cs = c * (0.5 * u ** 2 - var) * s, whose rows hold (1.0 - m) ** 2 and
    # (1.0 + m) ** 2, with c = 0.25 * deff * deff and var = 1.0 - m * m; then
    # s + (f + cs) * dt + g * dw. Uses ws[0:8].
    m, var, u, f, g = ws[0], ws[1], ws[2:4], ws[4:6], ws[6:8]
    _sigma3(s, m, f)
    np.multiply(m, m, out=var)
    np.subtract(1.0, var, out=var)
    _white_terms(s, m, J, deff, f, g, u)
    c = 0.25 * deff * deff
    np.multiply(u, u, out=out)
    np.multiply(0.5, out, out=out)
    np.subtract(out, var, out=out)
    np.multiply(c, out, out=out)
    np.multiply(out, s, out=out)
    np.add(f, out, out=f)
    np.multiply(f, dt, out=f)
    np.add(s, f, out=out)
    np.multiply(g, dw, out=g)
    return np.add(out, g, out=out)


def _z_colored_rate(z, gx, J, out, t):
    # The z-image of the amplitude pair: dz/dt = 2 a da/dt with
    # da/dt = (1/2)(1 - m)(J m + G xi) a, 1 - m = 2(1 - z) and m = 2z - 1:
    # 2.0 * z * (1.0 - z) * (J * (2.0 * z - 1.0) + gx), gx = G * xi.
    np.multiply(2.0, z, out=out)
    np.subtract(1.0, z, out=t)
    np.multiply(out, t, out=out)
    np.multiply(2.0, z, out=t)
    np.subtract(t, 1.0, out=t)
    np.multiply(J, t, out=t)
    np.add(t, gx, out=t)
    return np.multiply(out, t, out=out)


def _z_colored_heun(z, xi, dt, J, G, out, ws):
    # clip(z + 0.5 * dt * (k1 + k2), 0.0, 1.0), k2 the rate at z + dt * k1;
    # uses ws[0:4].
    gx, k1, t, zp = ws[:4]
    np.multiply(G, xi, out=gx)
    _z_colored_rate(z, gx, J, k1, t)
    np.multiply(dt, k1, out=zp)
    np.add(z, zp, out=zp)
    _z_colored_rate(zp, gx, J, out, t)
    np.add(k1, out, out=out)
    np.multiply(0.5 * dt, out, out=out)
    np.add(z, out, out=out)
    return np.clip(out, 0.0, 1.0, out=out)


def _z_white_terms(z, J, deff, f, g, u, t):
    # f = 2.0 * J * z * (1.0 - z) * (2.0 * z - 1.0), g = 2.0 * deff * z * (1.0 - z)
    np.subtract(1.0, z, out=u)
    np.multiply(2.0 * J, z, out=f)
    np.multiply(f, u, out=f)
    np.multiply(2.0, z, out=t)
    np.subtract(t, 1.0, out=t)
    np.multiply(f, t, out=f)
    np.multiply(2.0 * deff, z, out=g)
    np.multiply(g, u, out=g)


def _z_white_heun(z, dw, dt, J, deff, out, ws):
    # zp = z + f1 * dt + g1 * dw, then
    # clip(z + 0.5 * dt * (f1 + f2) + 0.5 * dw * (g1 + g2), 0.0, 1.0);
    # uses ws[0:6].
    f1, g1, zp, g2, u, t = ws[:6]
    _z_white_terms(z, J, deff, f1, g1, u, t)
    np.multiply(f1, dt, out=zp)
    np.add(z, zp, out=zp)
    np.multiply(g1, dw, out=t)
    np.add(zp, t, out=zp)
    _z_white_terms(zp, J, deff, out, g2, u, t)
    np.add(f1, out, out=out)
    np.multiply(0.5 * dt, out, out=out)
    np.add(z, out, out=out)
    np.add(g1, g2, out=g1)
    np.multiply(0.5, dw, out=t)
    np.multiply(t, g1, out=t)
    np.add(out, t, out=out)
    return np.clip(out, 0.0, 1.0, out=out)


def _renormalize(s, out, ws):
    """Rescale the amplitude pair s to unit norm into ``out``, raising if the
    state degenerated; uses ws[0].

    The defect |a'^2 + b'^2 - 1| is checked only when the smallest squared
    norm n = a^2 + b^2 is below 2^-1022, the smallest normal double, since
    it cannot exceed NORM_ENFORCED_TOL otherwise. Each operation is
    correctly rounded, so its result is the exact one times (1 + d),
    |d| <= u = 2^-53, plus at most 2^-1075 where it is subnormal (a
    subnormal sum is exact); the first check admits only a finite n, so
    nothing overflows. For n >= 2^-1022 subnormal squares lose at most 2u
    of n, so n is off by at most 4u, sqrt(n) adds 2u, the quotients 2u,
    their squares u (plus 2^-1074) and their sum u: the defect is at most
    10u + O(u^2), about 1.1e-15.
    """
    nrm2 = ws[0]
    np.multiply(s, s, out=out)
    np.add(out[0], out[1], out=nrm2)
    # min propagates NaN, so one pair of reductions catches NaN, inf and zero.
    lowest = nrm2.min()
    if not (lowest > 0.0 and nrm2.max() < math.inf):
        bad = ~np.isfinite(nrm2) | (nrm2 <= 0.0)
        raise IntegratorInstabilityError("non-finite or zero-norm state", row=int(np.argmax(bad)))
    np.sqrt(nrm2, out=nrm2)
    np.divide(s, nrm2, out=out)
    if lowest < 2.0**-1022:
        sq = out * out
        defect = np.abs(sq[0] + sq[1] - 1.0)
        if defect.max() > NORM_ENFORCED_TOL:
            raise IntegratorInstabilityError(
                f"norm defect {defect.max():.3g} after renormalization exceeds {NORM_ENFORCED_TOL}",
                row=int(np.argmax(defect)),
            )
    return out
