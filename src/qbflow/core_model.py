"""Physical parameters and characteristic timescales.

The model is a free particle of mass ``m`` coupled to a high-temperature
Ohmic environment described by a single Lindblad operator

    L = a*x + i*b*p,   a = sqrt(2*D)/hbar,   b = gamma/sqrt(2*D),

with momentum-diffusion coefficient ``D`` and dissipation rate ``gamma``.
For a thermal bath D = 2*m*gamma*kT.  Everything downstream (propagators,
currents, decoherence functionals) is parameterised by a
:class:`PhysParams` instance; this module also derives the characteristic
times that delimit where the near-deterministic arrival picture applies.

Units are symbolic: ``hbar`` and ``mass`` are explicit fields and default
to 1, so natural units are the default but nothing assumes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MUCH_GREATER",
    "MUCH_LESS",
    "Interval",
    "PhysParams",
    "TimeScales",
    "checked_schedule",
    "derive_timescales",
    "energy_localisation_ratio",
    "validity_window",
]

# Factors realising the asymptotic comparisons "x << y" and "x >> y".
MUCH_LESS = 0.1
MUCH_GREATER = 10.0


@dataclass(frozen=True)
class PhysParams:
    """Model constants for one scenario.

    Parameters
    ----------
    hbar : float
        Planck constant (> 0).
    mass : float
        Particle mass (> 0).
    D : float
        Momentum-diffusion coefficient (>= 0).  D = 0 is the closed,
        unitary system.
    gamma : float
        Dissipation rate (>= 0).  Most of the analysis works in the
        negligible-dissipation regime gamma -> 0; a nonzero gamma is
        required only by the current-correction and continuity machinery.
    """

    hbar: float = 1.0  # Planck constant
    mass: float = 1.0  # particle mass
    D: float = 0.0     # momentum diffusion coefficient
    gamma: float = 0.0  # dissipation rate

    def __post_init__(self) -> None:
        for name in ("hbar", "mass", "D", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.hbar > 0.0):
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if not (self.mass > 0.0):
            raise ValueError(f"mass must be positive, got {self.mass}")
        if self.D < 0.0:
            raise ValueError(f"D must be non-negative, got {self.D}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")
        if self.gamma > 0.0 and self.D == 0.0:
            # b = gamma/sqrt(2 D) would diverge: dissipation without noise
            # is outside the Lindblad family used here.
            raise ValueError("gamma > 0 requires D > 0")

    @property
    def a(self) -> float:
        """Position coupling of the Lindblad operator, sqrt(2 D)/hbar."""
        return math.sqrt(2.0 * self.D) / self.hbar

    @property
    def b(self) -> float:
        """Momentum coupling of the Lindblad operator, gamma/sqrt(2 D)."""
        if self.D == 0.0:
            if self.gamma == 0.0:
                return 0.0
            raise ValueError("b undefined: gamma > 0 with D = 0")
        return self.gamma / math.sqrt(2.0 * self.D)


@dataclass(frozen=True)
class Interval:
    """A time interval [t1, t2] with 0 <= t1 < t2, in time since preparation."""

    t1: float
    t2: float

    def __post_init__(self) -> None:
        for name in ("t1", "t2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.t1 < 0.0:
            raise ValueError(f"t1 must be non-negative (time since preparation), got {self.t1}")
        if not (self.t2 > self.t1):
            raise ValueError(f"interval inverted: t1={self.t1} >= t2={self.t2}")

    @property
    def width(self) -> float:
        return self.t2 - self.t1

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.t1 + self.t2)


def checked_schedule(times, what: str) -> np.ndarray:
    """``times`` as a 1-D float array of two or more finite, >= 0, increasing times.

    Anything else raises ``ValueError``, naming the schedule as ``what``.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError(f"{what} must be a 1-D sequence of at least two times")
    bad = ~((t >= 0.0) & (t < math.inf))
    if bad.any():
        raise ValueError(f"{what} must be finite and non-negative, got {float(t[bad][0])!r}")
    if not (np.diff(t) > 0.0).all():
        raise ValueError(f"{what} must be strictly increasing")
    return t


@dataclass(frozen=True)
class TimeScales:
    """Characteristic times of one (params, reference momentum) pair.

    Attributes
    ----------
    tau_l : float
        Localisation time sqrt(2 m hbar / D): beyond it the evolved Wigner
        function is non-negative and phase-space arguments become
        quasi-classical.
    tau_s : float
        Stochastic time p0**2 / D over which momentum diffusion degrades a
        reference momentum p0.
    t_positive : float
        (3/16)**(1/4) * tau_l — the exact threshold past which the evolution
        kernel is an admissible (positive-smearing) phase-space Gaussian.
    """

    tau_l: float
    tau_s: float
    t_positive: float


_T_POSITIVE_FACTOR = (3.0 / 16.0) ** 0.25


def derive_timescales(params: PhysParams, p0: float) -> TimeScales:
    """Derive the characteristic timescales for reference momentum ``p0``.

    Parameters
    ----------
    params : PhysParams
        Model constants; requires D > 0.
    p0 : float
        Reference (typically mean) momentum of the state under study.

    Returns
    -------
    TimeScales

    Raises
    ------
    ValueError
        If D == 0 — the closed system has no localisation or stochastic
        time.

    Notes
    -----
    The ratio tau_s/tau_l equals E*tau_l/hbar with E = p0**2/(2m), exactly:
    both sides are p0**2/(D*tau_l).  This is the dimensionally consistent
    form of the "fast system" condition E*tau_l/hbar >> 1.
    """
    if params.D == 0.0:
        raise ValueError(
            "unitary regime: localisation/stochastic times undefined"
        )
    tau_l = math.sqrt(2.0 * params.mass * params.hbar / params.D)
    tau_s = p0 * p0 / params.D
    return TimeScales(tau_l=tau_l, tau_s=tau_s, t_positive=_T_POSITIVE_FACTOR * tau_l)


def energy_localisation_ratio(params: PhysParams, p0: float) -> float:
    """E*tau_l/hbar with E = p0**2/2m — the near-deterministic figure of merit.

    Values >> 1 (compared against :data:`MUCH_GREATER`) put the state in the
    regime where crossing statistics are sharply peaked around the classical
    arrival time.
    """
    scales = derive_timescales(params, p0)
    energy = p0 * p0 / (2.0 * params.mass)
    return energy * scales.tau_l / params.hbar


def validity_window(scales: TimeScales) -> Interval:
    """Window (t_positive, MUCH_LESS * tau_s) where the arrival analysis is clean.

    Below t_positive the smearing kernel is not yet an admissible phase-space
    Gaussian; above ~0.1 tau_s momentum diffusion has randomised the reference
    momentum.  Raises ValueError when the window is empty.
    """
    upper = MUCH_LESS * scales.tau_s
    if upper <= scales.t_positive:
        raise ValueError(
            "no near-deterministic validity window for these parameters"
        )
    return Interval(scales.t_positive, upper)
