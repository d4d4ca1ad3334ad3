"""Continuity check of the arrival current.

With position diffusion on (gamma > 0) the bare current no longer balances
the density change; the Fick current J_D = -(hbar^2 b^2 / 2) d rho/dx
restores it.  ``continuity_residual`` takes d(rho)/dt + d(j + J_D)/dx by
central differences of the exact engine's closed forms, so the residual is
pure stencil error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_model import PhysParams
from .gaussian_engine import (
    GaussianMixtureState,
    _balanced_flux,
    position_density,
    propagate_mixture,
)

__all__ = ["ContinuityReport", "continuity_residual"]


@dataclass(frozen=True)
class ContinuityReport:
    """Pointwise continuity residual d(rho)/dt + d(j + J_D)/dx."""

    x: np.ndarray
    residual: np.ndarray
    max_abs: float
    scale: float  # max |d rho/dt|, the natural size to compare against
    dx: float
    dt: float


def continuity_residual(
    state: GaussianMixtureState,
    t: float,
    params: PhysParams,
    x: np.ndarray,
    dx: float,
    dt: float,
) -> ContinuityReport:
    """Continuity-equation residual for an exactly evolved Gaussian mixture.

    Every field entering the stencil — the density, the current j and the
    diffusive current J_D — is evaluated in closed form from the engine, so
    the residual isolates pure discretisation error:  central differences
    give residual = O(dt^2) + O(dx^2), and halving dx and dt together must
    shrink it by about 4.

    Checks the balanced current j + J_D that the arrival current is made of;
    with gamma > 0 the bare j alone does not satisfy continuity.
    """
    if not (0.0 < dx < math.inf and 0.0 < dt < math.inf):
        raise ValueError(f"stencil steps must be finite and positive, got dx={dx}, dt={dt}")
    if t - dt <= 0.0:
        raise ValueError(f"need t - dt > 0 to take the time stencil, got t={t}, dt={dt}")
    x = np.asarray(x, dtype=float)

    st_plus = propagate_mixture(state, t + dt, params)
    st_minus = propagate_mixture(state, t - dt, params)
    drho_dt = (position_density(st_plus, x) - position_density(st_minus, x)) / (2.0 * dt)

    now = propagate_mixture(state, t, params).terms
    dflux_dx = (
        _balanced_flux(now, x + dx, params) - _balanced_flux(now, x - dx, params)
    ) / (2.0 * dx)
    residual = drho_dt + dflux_dx
    scale = float(np.abs(drho_dt).max())
    return ContinuityReport(
        x=x,
        residual=residual,
        max_abs=float(np.abs(residual).max()),
        scale=scale,
        dx=dx,
        dt=dt,
    )
