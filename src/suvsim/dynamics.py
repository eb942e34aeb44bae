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

The step kernels below act on arrays with one entry per trajectory and
write in place into caller-owned buffers; the ensemble engine is their only
caller.
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
        return _whole_steps(self.T, self.dt)


def _whole_steps(T: float, dt: float, name: str = "T") -> int:
    """Number of steps of size dt in the time span T, called ``name`` in
    error messages: both must be positive, and T a whole number of steps
    (up to round-off)."""
    if not dt > 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    if not T > 0:
        raise ConfigError(f"{name} must be positive, got {T}")
    ratio = T / dt
    n = round(ratio)
    if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, ratio):
        raise ConfigError(f"{name} = {T} is not a whole number of steps of dt = {dt}")
    return n


# ---------------------------------------------------------------------------
# Step kernels. Amplitudes, z, xi and dW are arrays with one entry per
# trajectory; couplings and dt are scalars. A kernel writes its result
# through ``out`` (an (a, b) pair, or one array for z) and keeps its
# intermediates in ``ws``, scratch vectors shaped like the state (see
# _workspace), so a step allocates no arrays. ``out`` and ``ws`` overlap
# neither the inputs nor each other. Each in-place sequence performs the
# floating-point operations of the expression in its comment, in Python's
# left-to-right order, so its bits are those of that expression.

# Scratch vectors of the largest kernel, _white_strat_heun.
_SCRATCH = 13


def _workspace(m):
    """Scratch vectors for any step kernel, or _renormalize, over m trajectories."""
    return tuple(np.empty((_SCRATCH, m)))


def _sigma3(a, b, out, t):
    # m = a * a - b * b
    np.multiply(a, a, out=out)
    np.multiply(b, b, out=t)
    return np.subtract(out, t, out=out)


def _suv_rate(a, b, gx, J, out, ws):
    # ka = 0.5 * (1.0 - m) * r * a, kb = -0.5 * (1.0 + m) * r * b with
    # r = J * m + gx (gx = G * xi); uses ws[0:2].
    ka, kb = out
    m, r = ws[0], ws[1]
    _sigma3(a, b, m, r)
    np.multiply(J, m, out=r)
    np.add(r, gx, out=r)
    np.subtract(1.0, m, out=ka)
    np.multiply(0.5, ka, out=ka)
    np.multiply(ka, r, out=ka)
    np.multiply(ka, a, out=ka)
    np.add(1.0, m, out=kb)
    np.multiply(-0.5, kb, out=kb)
    np.multiply(kb, r, out=kb)
    np.multiply(kb, b, out=kb)
    return out


def _unnormalized_rate(a, b, gx, J, out, ws):
    # ka = r * a, kb = -r * b with r = 0.5 * (J * m + gx) and
    # m = (a * a - b * b) / (a * a + b * b); uses ws[0:2].
    ka, kb = out
    m, r = ws[0], ws[1]
    np.multiply(a, a, out=m)
    np.multiply(b, b, out=r)
    np.add(m, r, out=ka)
    np.subtract(m, r, out=m)
    np.divide(m, ka, out=m)
    np.multiply(J, m, out=r)
    np.add(r, gx, out=r)
    np.multiply(0.5, r, out=r)
    np.multiply(r, a, out=ka)
    np.negative(r, out=kb)
    np.multiply(kb, b, out=kb)
    return out


def _pair_heun(rate, a, b, xi, dt, J, G, out, ws):
    # a + 0.5 * dt * (ka + ka2), b + 0.5 * dt * (kb + kb2), where (ka2, kb2)
    # is the rate at (a + dt * ka, b + dt * kb); G * xi is formed once for
    # both stages. Uses ws[0:7].
    gx, ka, kb, ap, bp = ws[2:7]
    np.multiply(G, xi, out=gx)
    rate(a, b, gx, J, (ka, kb), ws)
    np.multiply(dt, ka, out=ap)
    np.add(a, ap, out=ap)
    np.multiply(dt, kb, out=bp)
    np.add(b, bp, out=bp)
    oa, ob = rate(ap, bp, gx, J, out, ws)
    h = 0.5 * dt
    np.add(ka, oa, out=oa)
    np.multiply(h, oa, out=oa)
    np.add(a, oa, out=oa)
    np.add(kb, ob, out=ob)
    np.multiply(h, ob, out=ob)
    np.add(b, ob, out=ob)
    return out


def _suv_heun(a, b, xi, dt, J, G, out, ws):
    return _pair_heun(_suv_rate, a, b, xi, dt, J, G, out, ws)


def _unnormalized_heun(a, b, xi, dt, J, G, out, ws):
    return _pair_heun(_unnormalized_rate, a, b, xi, dt, J, G, out, ws)


def _sse_em(a, b, dw, dt, gamma, out, ws):
    # a + 0.5 * (-gamma * (1.0 - m) ** 2 * dt + c * (1.0 - m) * dw) * a,
    # b + 0.5 * (-gamma * (1.0 + m) ** 2 * dt - c * (1.0 + m) * dw) * b
    # with c = 2.0 * sqrt(gamma); uses ws[0:3].
    m, u, v = ws[0:3]
    oa, ob = out
    c = 2.0 * math.sqrt(gamma)
    _sigma3(a, b, m, u)
    for y, shift, combine, o in ((a, np.subtract, np.add, oa), (b, np.add, np.subtract, ob)):
        shift(1.0, m, out=u)
        np.multiply(u, u, out=v)
        np.multiply(-gamma, v, out=v)
        np.multiply(v, dt, out=v)
        np.multiply(c, u, out=u)
        np.multiply(u, dw, out=u)
        combine(v, u, out=v)
        np.multiply(0.5, v, out=v)
        np.multiply(v, y, out=v)
        np.add(y, v, out=o)
    return out


def _white_terms(a, b, m, J, deff, out, u, w):
    # Drift fa = 0.5 * J * m * (1.0 - m) * a, fb = -0.5 * J * m * (1.0 + m) * b
    # and diffusion ga = 0.5 * deff * (1.0 - m) * a, gb = -0.5 * deff * (1.0 + m) * b
    # into out = (fa, fb, ga, gb); leaves u = 1.0 - m and w = 1.0 + m.
    fa, fb, ga, gb = out
    np.subtract(1.0, m, out=u)
    np.add(1.0, m, out=w)
    np.multiply(0.5 * J, m, out=fa)
    np.multiply(fa, u, out=fa)
    np.multiply(fa, a, out=fa)
    np.multiply(-0.5 * J, m, out=fb)
    np.multiply(fb, w, out=fb)
    np.multiply(fb, b, out=fb)
    np.multiply(0.5 * deff, u, out=ga)
    np.multiply(ga, a, out=ga)
    np.multiply(-0.5 * deff, w, out=gb)
    np.multiply(gb, b, out=gb)
    return out


def _white_strat_heun(a, b, dw, dt, J, deff, out, ws):
    # ap = a + fa * dt + ga * dw (bp likewise), the terms at (ap, bp) marked 2,
    # a + 0.5 * dt * (fa + fa2) + 0.5 * dw * (ga + ga2) (b likewise);
    # uses ws[0:13].
    m, u, w, fa, fb, ga, gb, ap, bp, fa2, fb2, ga2, gb2 = ws[:13]
    oa, ob = out
    _white_terms(a, b, _sigma3(a, b, m, u), J, deff, (fa, fb, ga, gb), u, w)
    np.multiply(fa, dt, out=ap)
    np.add(a, ap, out=ap)
    np.multiply(ga, dw, out=m)
    np.add(ap, m, out=ap)
    np.multiply(fb, dt, out=bp)
    np.add(b, bp, out=bp)
    np.multiply(gb, dw, out=m)
    np.add(bp, m, out=bp)
    _white_terms(ap, bp, _sigma3(ap, bp, m, u), J, deff, (fa2, fb2, ga2, gb2), u, w)
    h = 0.5 * dt
    np.multiply(0.5, dw, out=m)
    np.add(fa, fa2, out=fa)
    np.multiply(h, fa, out=oa)
    np.add(a, oa, out=oa)
    np.add(ga, ga2, out=ga)
    np.multiply(m, ga, out=ga)
    np.add(oa, ga, out=oa)
    np.add(fb, fb2, out=fb)
    np.multiply(h, fb, out=ob)
    np.add(b, ob, out=ob)
    np.add(gb, gb2, out=gb)
    np.multiply(m, gb, out=gb)
    np.add(ob, gb, out=ob)
    return out


def _white_ito_em(a, b, dw, dt, J, deff, out, ws):
    # Stratonovich-to-Ito conversion drift, with <sigma3^2> = 1 on a qubit:
    # ca = c * (0.5 * (1.0 - m) ** 2 - var) * a,
    # cb = c * (0.5 * (1.0 + m) ** 2 - var) * b,
    # c = 0.25 * deff * deff, var = 1.0 - m * m; then
    # a + (fa + ca) * dt + ga * dw (b likewise). Uses ws[0:8].
    m, u, w, fa, fb, ga, gb, var = ws[:8]
    oa, ob = out
    _white_terms(a, b, _sigma3(a, b, m, u), J, deff, (fa, fb, ga, gb), u, w)
    c = 0.25 * deff * deff
    np.multiply(m, m, out=var)
    np.subtract(1.0, var, out=var)
    for y, s, f, g, o in ((a, u, fa, ga, oa), (b, w, fb, gb, ob)):
        np.multiply(s, s, out=o)
        np.multiply(0.5, o, out=o)
        np.subtract(o, var, out=o)
        np.multiply(c, o, out=o)
        np.multiply(o, y, out=o)
        np.add(f, o, out=f)
        np.multiply(f, dt, out=f)
        np.add(y, f, out=o)
        np.multiply(g, dw, out=g)
        np.add(o, g, out=o)
    return out


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


def _renormalize(a, b, out, ws):
    """Rescale amplitudes to unit norm into ``out``, raising if the state
    degenerated; uses ws[0:2]."""
    nrm2, t = ws[0], ws[1]
    np.multiply(a, a, out=nrm2)
    np.multiply(b, b, out=t)
    np.add(nrm2, t, out=nrm2)
    # min propagates NaN, so one pair of reductions catches NaN, inf and zero.
    if not (nrm2.min() > 0.0 and nrm2.max() < math.inf):
        bad = ~np.isfinite(nrm2) | (nrm2 <= 0.0)
        raise IntegratorInstabilityError("non-finite or zero-norm state", row=int(np.argmax(bad)))
    np.sqrt(nrm2, out=nrm2)
    oa, ob = out
    np.divide(a, nrm2, out=oa)
    np.divide(b, nrm2, out=ob)
    s = nrm2
    np.multiply(oa, oa, out=s)
    np.multiply(ob, ob, out=t)
    np.add(s, t, out=s)
    # s - 1 is exact near 1 and rounds monotonically elsewhere, so this is
    # max |s - 1| > tol.
    if s.max() - 1.0 > NORM_ENFORCED_TOL or 1.0 - s.min() > NORM_ENFORCED_TOL:
        defect = np.abs(s - 1.0)
        worst = np.max(defect)
        raise IntegratorInstabilityError(
            f"norm defect {worst:.3g} after renormalization exceeds {NORM_ENFORCED_TOL}",
            row=int(np.argmax(defect)),
        )
    return out
