"""Differential form of the open-system dynamics and its currents.

The propagators in the engine modules are integral-form; this module holds
the instantaneous right-hand sides (position representation and Wigner
form), the probability current with its environment-induced diffusive
correction, and the continuity-equation residual used to verify that the
two stay consistent under refinement.

The diffusive current matters: with environmental position diffusion
switched on, the bare quantum-mechanical current no longer balances the
local density change — the missing piece is a Fick-type term proportional
to the gradient of the density, with diffusion constant hbar^2 b^2 / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_model import PhysParams
from .gaussian_engine import (
    GaussianMixtureState,
    flux_density,
    position_density,
    position_density_gradient,
    propagate_mixture,
)
from .grid_engine import Axis, DensityMatrixGrid, PhaseSpaceGrid

__all__ = [
    "master_rhs_position",
    "master_rhs_wigner",
    "probability_current",
    "diffusive_current",
    "ContinuityReport",
    "continuity_residual",
]

_MIN_POINTS = 32


def _d1(values: np.ndarray, step: float, axis: int) -> np.ndarray:
    """Second-order first derivative (central; one-sided at the edges)."""
    return np.gradient(values, step, axis=axis, edge_order=2)


def _d2(values: np.ndarray, step: float, axis: int) -> np.ndarray:
    """Second-order second derivative via the three-point stencil."""
    out = np.empty_like(values)
    v = np.moveaxis(values, axis, 0)
    o = np.moveaxis(out, axis, 0)
    o[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (step * step)
    o[0] = o[1]
    o[-1] = o[-2]
    return out


def master_rhs_position(rho: DensityMatrixGrid, params: PhysParams) -> np.ndarray:
    """d(rho)/dt in the position representation.

    d rho(x,y)/dt = (i hbar / 2m)(d^2_x - d^2_y) rho
                    - (D / hbar^2)(x - y)^2 rho
                    - gamma (x - y)(d_x - d_y) rho
                    + (hbar^2 b^2 / 2)(d_x + d_y)^2 rho.

    The first term is the free von Neumann part, the second the familiar
    spatial-decoherence term, the third the momentum damping, the last an
    environment-induced spatial diffusion (present only for gamma > 0,
    since b = gamma / sqrt(2 D)).
    """
    ax = rho.axis
    if ax.n < _MIN_POINTS:
        raise ValueError(f"master equation needs at least {_MIN_POINTS} grid points, got {ax.n}")
    h = params.hbar
    x = ax.points
    dx = ax.step
    vals = rho.values
    sep = x[:, None] - x[None, :]

    ddx = _d1(vals, dx, axis=0)
    ddy = _d1(vals, dx, axis=1)
    d2x = _d2(vals, dx, axis=0)
    d2y = _d2(vals, dx, axis=1)

    out = (1j * h / (2.0 * params.mass)) * (d2x - d2y)
    out -= (params.D / (h * h)) * sep * sep * vals
    if params.gamma != 0.0:
        out -= params.gamma * sep * (ddx - ddy)
        b2 = (h * params.b) ** 2
        # (d_x + d_y)^2 applied as a perfect square of the first-difference
        # operators, so the discrete trace telescopes away exactly instead
        # of drifting at O(dx^2)
        s = ddx + ddy
        out += 0.5 * b2 * (_d1(s, dx, axis=0) + _d1(s, dx, axis=1))
    return out


def master_rhs_wigner(w: PhaseSpaceGrid, params: PhysParams) -> np.ndarray:
    """dW/dt in the phase-space (Wigner) form.

    dW/dt = -(p/m) dW/dq + 2 gamma d(p W)/dp + D d^2 W/dp^2
            + (hbar^2 b^2 / 2) d^2 W/dq^2.

    The drift coefficient is 2*gamma: both Lindblad cross terms contribute,
    and the same factor makes the stationary momentum variance D / 2 gamma
    = m kT, as it must for a thermalising environment.
    """
    if min(w.p.n, w.q.n) < _MIN_POINTS:
        raise ValueError(
            f"master equation needs at least {_MIN_POINTS} points per axis, "
            f"got ({w.p.n}, {w.q.n})"
        )
    vals = w.values
    p = w.p.points[:, None]
    out = -(p / params.mass) * _d1(vals, w.q.step, axis=1)
    if params.D > 0.0:
        out += params.D * _d2(vals, w.p.step, axis=0)
    if params.gamma != 0.0:
        out += 2.0 * params.gamma * _d1(p * vals, w.p.step, axis=0)
        b2 = (params.hbar * params.b) ** 2
        out += 0.5 * b2 * _d2(vals, w.q.step, axis=1)
    return out


def probability_current(rho: DensityMatrixGrid, params: PhysParams) -> np.ndarray:
    """Standard probability current j(x) = (hbar/m) Im[d_x rho(x, y)]|_{y=x}."""
    ddx = _d1(rho.values, rho.axis.step, axis=0)
    return (params.hbar / params.mass) * np.imag(np.diag(ddx))


def diffusive_current(rho: DensityMatrixGrid, params: PhysParams) -> np.ndarray:
    """Environment-induced Fick current J_D(x) = -(hbar^2 b^2/2) d_x rho(x,x).

    Zero in the negligible-dissipation limit (b -> 0 with gamma -> 0); for
    gamma > 0 it restores the continuity equation alongside j(x).
    """
    coeff = 0.5 * (params.hbar * params.b) ** 2
    dens = np.real(np.diag(rho.values))
    return -coeff * np.gradient(dens, rho.axis.step, edge_order=2)


@dataclass(frozen=True)
class ContinuityReport:
    """Pointwise continuity residual d(rho)/dt + d(j + J_D)/dx."""

    x: np.ndarray
    residual: np.ndarray
    max_abs: float
    scale: float  # max |d rho/dt|, the natural size to compare against
    dx: float
    dt: float

    def to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(f"# continuity residual: dx={self.dx!r} dt={self.dt!r}\n")
            fh.write(f"# max_abs={self.max_abs!r} scale={self.scale!r}\n")
            fh.write("x,residual\n")
            for xi, ri in zip(self.x, self.residual):
                fh.write(f"{float(xi)!r},{float(ri)!r}\n")


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

    Checks the *corrected* current j + J_D; with gamma > 0 the bare j alone
    does not satisfy continuity (that is the point of the correction).
    """
    if dt <= 0.0 or dx <= 0.0:
        raise ValueError(f"stencil steps must be positive, got dx={dx}, dt={dt}")
    if t - dt <= 0.0:
        raise ValueError(f"need t - dt > 0 to take the time stencil, got t={t}, dt={dt}")
    x = np.asarray(x, dtype=float)

    st_plus = propagate_mixture(state, t + dt, params)
    st_minus = propagate_mixture(state, t - dt, params)
    drho_dt = (position_density(st_plus, x) - position_density(st_minus, x)) / (2.0 * dt)

    st_now = propagate_mixture(state, t, params)
    coeff = 0.5 * (params.hbar * params.b) ** 2

    def total_current(pos):
        j = flux_density(st_now, pos, params.mass)
        return j - coeff * position_density_gradient(st_now, pos)

    dflux_dx = (total_current(x + dx) - total_current(x - dx)) / (2.0 * dx)
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
