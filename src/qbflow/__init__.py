"""Arrival-time distributions for a free particle with a QBM environment.

The package provides three constructions of the quantum arrival-time
distribution for a free particle whose environment is modelled by
quantum-Brownian-motion (momentum diffusion D, weak dissipation gamma):

- the (corrected) probability current across the origin,
- a genuine POVM built from smeared phase-space wedges,
- decoherent-histories crossing probabilities and their decoherence
  diagnostics.

Two independent numerical engines back every quantity: an exact Gaussian
phase-space engine (`gaussian_engine`) for Gaussian-mixture states, and
brute-force grid propagators (`grid_engine`) used as cross-validating
oracles.  `scenario_cli` drives full scenarios from JSON configs.
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
