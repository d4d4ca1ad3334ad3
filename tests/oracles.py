"""Independent arrival-current routes, kept only to check the library against.

Neither route is used by qbflow itself: each recomputes the arrival current
J(t) = -j(0, t) through different numerics (covariance transport and a line
quadrature, or an effect-operator symbol on a phase-space grid), so agreement
with :func:`qbflow.arrival.arrival_current` is a check of the engine.
"""

from __future__ import annotations

import math

import numpy as np

from qbflow.arrival import _split_covariance
from qbflow.core_model import PhysParams
from qbflow.gaussian_engine import (
    GaussianMixtureState,
    convolve_state,
    evaluate_state,
    husimi_smear,
    moments,
    qbm_covariance_comoving,
)
from qbflow.grid_engine import PhaseSpaceGrid, default_axes


def q_function_current(
    state: GaussianMixtureState, t: float, params: PhysParams, n: int = 4001
) -> float:
    """Arrival current computed in the comoving picture.

    Writing the evolved current as a line integral over the *initial* state
    smeared with the comoving noise covariance,

        J(t) = int dp (-p/m) (g_At * W0)(p, -p t / m),

    exercises a completely different pipeline from ``arrival_current``
    (covariance transport instead of state transport); the two agree to
    quadrature accuracy.
    """
    if t < 0.0:
        raise ValueError(f"time must be non-negative, got {t}")
    if t == 0.0:
        smeared = state
    else:
        smeared = convolve_state(state, qbm_covariance_comoving(t, params))
    return _line_current(smeared, t, params.mass, n, 9.0)


def _line_current(
    state: GaussianMixtureState, t: float, mass: float, n: int, widths: float
) -> float:
    """int dp (-p/m) W(p, -p t / m), trapezoid over mean_p +- widths sigma_p."""
    mean, cov = moments(state)
    sp = math.sqrt(cov.pp)
    p = np.linspace(mean[0] - widths * sp, mean[0] + widths * sp, n)
    line = evaluate_state(state, p, -p * t / mass)
    return float(np.trapezoid(-p / mass * line, p))


def povm_F_expectation(
    state: GaussianMixtureState,
    t: float,
    params: PhysParams,
    s: float | None = None,
    n: int = 768,
    widths: float = 9.0,
) -> float:
    """Instantaneous arrival-rate operator paired with the Husimi function.

    Uses the per-time split A(t)~ = A0 + B(t): the symbol is the smeared
    weighted line density

        S_F(z) = -(1/m) [z_p - (B n)_p (n.z) / (n^T B n)]
                 * phi(n.z / sigma) / sigma,      sigma^2 = n^T B n,

    with n = (t/m, 1).  As B -> 0 this collapses back to the line integral
    of :func:`q_function_current`; the expectation equals the arrival
    current for any valid split.
    """
    if state.hbar != params.hbar:
        raise ValueError(f"state hbar {state.hbar!r} != params hbar {params.hbar!r}")
    s_val, a0, b = _split_covariance(t, params, s)
    mass = params.mass
    nvec = np.array([t / mass, 1.0])
    sig2 = float(nvec @ b.matrix() @ nvec)
    q_state = husimi_smear(state, s_val)
    if sig2 <= 0.0:
        # degenerate remainder: fall back to the sharp line integral
        return _line_current(q_state, t, mass, 4001, widths)
    sig = math.sqrt(sig2)
    bn_p = float((b.matrix() @ nvec)[0])
    pax, qax = default_axes(q_state, params, t_max=0.0, n=n, widths=widths)
    pp, qq = np.meshgrid(pax.points, qax.points, indexing="ij")
    q_vals = evaluate_state(q_state, pp, qq)
    ndotz = pp * nvec[0] + qq
    weight = pp - bn_p * ndotz / sig2
    gauss = np.exp(-0.5 * (ndotz / sig) ** 2) / (sig * math.sqrt(2.0 * math.pi))
    return PhaseSpaceGrid(pax, qax, -(1.0 / mass) * weight * gauss * q_vals).integrate()
