"""Arrival-time distributions for a free particle with a QBM environment.

The package provides three constructions of the quantum arrival-time
distribution for a free particle whose environment is modelled by
quantum-Brownian-motion (momentum diffusion D, weak dissipation gamma):

- the continuity-balanced probability current across the origin,
- a genuine POVM built from smeared phase-space wedges,
- decoherent-histories crossing probabilities and their decoherence
  diagnostics.

Two independent numerical engines back the package: an exact Gaussian
phase-space engine (`gaussian_engine`) for Gaussian-mixture states, and
brute-force grid propagators (`grid_engine`).  The current, the POVM, the
closed-form histories windows and the continuity check run on the exact
engine; the crossing-class matrix, `class_operator_probability` and the
stochastic (restricted-march) arrival route run on the grids, which the
tests also use to cross-validate the exact engine.  `scenario_cli` drives
full scenarios from JSON configs.
"""

from .core_model import (
    Interval,
    PhysParams,
    TimeScales,
    derive_timescales,
    energy_localisation_ratio,
    validity_window,
)

__version__ = "0.1.0"

__all__ = [
    "Interval",
    "PhysParams",
    "TimeScales",
    "derive_timescales",
    "energy_localisation_ratio",
    "validity_window",
    "__version__",
]
