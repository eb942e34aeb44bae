"""Tests of the analytic ensemble references: the dephasing residual and
the effective diffusion map."""
import math

import numpy as np
import pytest

from suvsim import (
    STEADY_SECOND_MOMENT,
    EnsembleSummary,
    InvalidParameterError,
    NoiseKind,
    NoiseModel,
    NotApplicableError,
    effective_diffusion,
    gksl_residual,
)


def test_steady_second_moments():
    assert STEADY_SECOND_MOMENT[NoiseKind.OU] == 1.0
    assert STEADY_SECOND_MOMENT[NoiseKind.SBM] == 1.0 / 3.0


def test_effective_diffusion_values():
    # 2 * 10^2 * 0.01 * 1 = 2 exactly, so Deff is exactly sqrt(2).
    assert effective_diffusion(10.0, 0.01, NoiseKind.OU) == math.sqrt(2.0)
    deff = effective_diffusion(1.0, 1.0, NoiseKind.SBM)
    assert deff * deff == pytest.approx(2.0 / 3.0, rel=1e-15)
    model = NoiseModel(kind=NoiseKind.OU, tau=0.5)
    assert effective_diffusion(2.0, 0.5, model) == effective_diffusion(
        2.0, 0.5, NoiseKind.OU
    )


def test_effective_diffusion_guards():
    with pytest.raises(InvalidParameterError):
        effective_diffusion(1.0, 0.0, NoiseKind.OU)
    with pytest.raises(NotApplicableError):
        effective_diffusion(1.0, 1.0, NoiseKind.FROZEN_OU)
    with pytest.raises(NotApplicableError):
        effective_diffusion(1.0, 1.0, NoiseKind.NONE)


def test_gksl_residual_is_zero_on_the_analytic_solution():
    deff = math.sqrt(2.0)
    t = np.linspace(0.0, 1.5, 16)
    rel = t - t[0]
    off0 = 0.3
    mean_off = off0 * np.exp(-0.5 * deff * deff * rel)
    summary = EnsembleSummary(
        times=t,
        mean_z=np.full_like(t, 0.6),
        mean_offdiag=mean_off,
        qv=np.zeros_like(t),
        n_traj=100,
    )
    res_z, res_off = gksl_residual(summary, deff)
    assert np.all(res_z == 0.0)
    assert np.all(res_off == 0.0)


def test_gksl_residual_flags_a_decaying_diagonal():
    t = np.linspace(0.0, 1.0, 5)
    summary = EnsembleSummary(
        times=t,
        mean_z=np.linspace(0.6, 0.5, 5),
        mean_offdiag=np.full_like(t, 0.2),
        qv=np.zeros_like(t),
        n_traj=100,
    )
    res_z, res_off = gksl_residual(summary, Deff=0.0)
    assert res_z[-1] == pytest.approx(-0.1, rel=1e-12)
    assert np.all(res_off == 0.0)  # Deff = 0 means no predicted decay
