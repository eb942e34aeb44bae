"""Analytic ensemble-level references: the dephasing semigroup and the
effective diffusion constant of the white-noise limit.

Averaging the white-noise trajectory dynamics over realizations gives, at
the fluctuation-dissipation point J = Deff^2, the linear master equation

    d rho / dt = (Deff^2 / 4) (sigma3 rho sigma3 - rho),

a pure dephasing channel: diagonals are constant and the off-diagonal
decays at rate Deff^2 / 2 (sigma3 rho sigma3 flips the sign of the
off-diagonal, so d rho01/dt = -(Deff^2/2) rho01). Away from that point the
ensemble equation picks up a nonlinear term proportional to J - Deff^2,
and collapse statistics deviate from the initial weights.

The effective diffusion map ties the colored-noise couplings to the
white-noise limit: Deff^2 = 2 G^2 tau E[xi^2] with E[xi^2] the steady
second moment of the driving process (1 for OU, 1/3 for SBM).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError, NotApplicableError
from .noise import NoiseKind, NoiseModel
from .observables import EnsembleSummary

__all__ = ["STEADY_SECOND_MOMENT", "effective_diffusion", "gksl_residual"]

# Steady-state second moments E[xi^2] of the evolving noise processes.
STEADY_SECOND_MOMENT = {NoiseKind.OU: 1.0, NoiseKind.SBM: 1.0 / 3.0}


def effective_diffusion(G: float, tau: float, model: NoiseModel | NoiseKind) -> float:
    """Effective diffusion Deff = sqrt(2 G^2 tau E[xi^2]) of the white-noise limit.

    Defined only for the evolving processes; frozen and none kinds have no
    white-noise limit.
    """
    if not tau > 0:
        raise InvalidParameterError(f"tau must be positive, got {tau}")
    kind = model.kind if isinstance(model, NoiseModel) else NoiseKind(model)
    try:
        second_moment = STEADY_SECOND_MOMENT[kind]
    except KeyError:
        raise NotApplicableError(
            f"effective diffusion undefined for noise kind {kind.value!r}"
        ) from None
    return math.sqrt(2.0 * G * G * tau * second_moment)


def gksl_residual(summary: EnsembleSummary, Deff: float) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise Monte Carlo minus analytic dephasing prediction.

    The analytic reference is propagated from the summary's t = 0 values:
    constant mean_z and mean_offdiag decaying as exp(-Deff^2 t / 2). Feeding a
    summary built from the analytic solution itself returns exact zeros.

    Returns
    -------
    (res_z, res_offdiag) : pair of numpy.ndarray
        Residual series on the summary's time grid.
    """
    t = np.asarray(summary.times, dtype=float)
    rel = t - t[0]
    ref_z = np.full_like(rel, summary.mean_z[0])
    ref_off = summary.mean_offdiag[0] * np.exp(-0.5 * Deff * Deff * rel)
    return summary.mean_z - ref_z, summary.mean_offdiag - ref_off
