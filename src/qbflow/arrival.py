"""Arrival-time distributions at the origin, three ways.

Current route
    J(t) = -(j + J_D)(0, t): the (signed) probability current of the evolved
    state through x = 0, taken positive for right-to-left crossings.  It is
    the continuity-balanced current at every gamma: the bare flux j plus the
    diffusive current J_D = -(hbar^2 b^2 / 2) d rho/dx, which vanishes at
    gamma = 0.  All sample times are evaluated at once, as one (terms x
    times) array reduction of the exact engine.  By continuity its integral
    over [t1, t2] is the drop S(t1) - S(t2) of the probability right of the
    origin, a closed form.

POVM route
    For measurement intervals the current integral is re-expressed as the
    expectation of an effect operator.  Splitting the accumulated noise
    covariance into a minimum-uncertainty part (absorbed into the state as
    a Husimi smearing) and a positive remainder (absorbed into the symbol)
    yields  Tr(E rho) = int Q(z) S_E(z) dz  with a bounded symbol S_E and a
    non-negative Q — manifestly a generalised measurement, available at
    negligible dissipation once the noise has accumulated past a hard
    threshold.  The symbol is a difference of probits of linear forms in z,
    so against each Gaussian term of Q the phase-space integral is a closed
    form; no grid is built.

Stochastic route
    Repeated propagate-and-truncate on a grid: the norm lost to the
    absorbed half-line, or equivalently the boundary flux of the restricted
    state, estimates the same arrival probability.

The three agree within quadrature error on their common domain; the
acceptance tests hold them to that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .core_model import Interval, PhysParams, checked_schedule
from .gaussian_engine import (
    Cov2,
    GaussianMixtureState,
    _balanced_flux,
    _gaussian_fourier_above,
    _gaussian_fourier_probit,
    _propagate_stacked,
    _right_mass,
    husimi_smear,
    moments,
    propagate_mixture,
    qbm_covariance,
    qbm_covariance_comoving,
)
from .grid_engine import (
    Axis,
    PhaseSpaceGrid,
    default_axes,
    propagate_wigner_qbm,
    slice_at_q0,
    wigner_grid_from_state,
)

__all__ = [
    "arrival_current",
    "current_from_wigner",
    "arrival_probability",
    "povm_threshold_time",
    "PovmEffect",
    "build_povm_E",
    "StochasticArrival",
    "restricted_march",
    "arrival_probability_stochastic",
    "ArrivalResult",
    "backflow_scan",
]

# Points per axis of the stochastic route's march grid: past about 540 points
# grid_engine._shear_q's prefilter runs into subnormals, and the march-step
# budget below is measured at the top of this range.
_GRID_N_MIN, _GRID_N_MAX = 16, 512
# A whole restricted_march step on a 512² grid takes about 11 ms (median 11.2 ms
# over 80-step marches, one BLAS thread, 2-core x86 host): about two minutes.
_MARCH_STEPS_MAX = 10_000
# The current reduces every sample at once over (terms x times) arrays, whose
# size this caps: a 100 000-sample scan of a 3-term cat peaks at 57 MiB
# (tracemalloc) and takes 0.17 s on a 2-core x86 host.
_N_T_MAX = 100_000

# Accumulated-noise threshold for the POVM split: the comoving covariance
# admits a minimum-uncertainty decomposition iff D t^2 / m >= this * hbar.
_POVM_THRESHOLD = 1.5 + math.sqrt(3.0)


def _currents(state: GaussianMixtureState, times: np.ndarray, params: PhysParams) -> np.ndarray:
    """J(t) = -(j + J_D)(0, t) at every sample time, from one (terms x times) reduction."""
    return -_balanced_flux(_propagate_stacked(state, times, params), 0.0, params)


def arrival_current(state: GaussianMixtureState, t: float, params: PhysParams) -> float:
    """Arrival current J(t) = -(j + J_D)(0) of the exactly evolved state.

    J_D = -(hbar^2 b^2 / 2) d rho/dx is the diffusive current that, with the
    bare flux j, balances the continuity equation at gamma > 0; at gamma = 0
    it vanishes and J = -j(0).
    """
    return float(_currents(state, np.array([t], dtype=float), params)[0])


def current_from_wigner(w: PhaseSpaceGrid, params: PhysParams) -> float:
    """Grid estimate of the arrival current from a Wigner snapshot."""
    prof = slice_at_q0(w)
    return float(-np.trapezoid(w.p.points * prof, dx=w.p.step) / params.mass)


def arrival_probability(
    state: GaussianMixtureState,
    interval: Interval,
    params: PhysParams,
) -> float:
    """Time integral of the continuity-balanced arrival current.

    That current balances continuity, so its integral over the interval is
    exactly the drop S(t1) - S(t2) of the probability right of the origin,
    two closed-form right-mass reductions.
    """
    s1, s2 = (
        _right_mass(propagate_mixture(state, t, params))
        for t in (interval.t1, interval.t2)
    )
    return float(s1 - s2)


# ---------------------------------------------------------------------------
# POVM construction


def povm_threshold_time(params: PhysParams) -> float:
    """Earliest reference time with a valid effect-operator split.

    The comoving covariance can shed a minimum-uncertainty Gaussian and
    stay positive only once D t^2 / m >= (3/2 + sqrt(3)) hbar; before that
    the arrival statistics are genuinely beyond this POVM construction.
    """
    if params.D <= 0.0:
        raise ValueError("POVM construction requires D > 0")
    return math.sqrt(_POVM_THRESHOLD * params.hbar * params.mass / params.D)


def _split_covariance(t_ref: float, params: PhysParams):
    """(s, A0, B) with A0 minimum-uncertainty, B = A(t_ref)~ - A0 PSD."""
    a_t = qbm_covariance_comoving(t_ref, params)
    h = params.hbar
    # equalising choice: maximises det(B) over the A0 family
    s = float((a_t.pp / (4.0 * a_t.qq)) ** 0.25)
    a0 = Cov2(h * s * s, 0.0, h / (4.0 * s * s))
    b_pp = a_t.pp - a0.pp
    b_qq = a_t.qq - a0.qq
    b_det = b_pp * b_qq - a_t.pq * a_t.pq
    scale = max(a_t.pp * a_t.qq, h * h)
    if b_pp < -1e-12 * math.sqrt(scale) or b_qq < -1e-12 * math.sqrt(scale) or (
        b_det < -1e-10 * scale
    ):
        raise ValueError(
            "too early for POVM construction: accumulated noise "
            f"D t^2 / m = {params.D * t_ref ** 2 / params.mass!r} is below "
            f"the splitting threshold {_POVM_THRESHOLD!r} hbar"
        )
    b = Cov2(max(b_pp, 0.0), a_t.pq, max(b_qq, 0.0))
    return s, a0, b


@dataclass(frozen=True)
class PovmEffect:
    """Arrival effect operator for one time interval, in symbol form.

    The expectation Tr(E rho) = int dz Q(z) S_E(z) pairs the bounded symbol
    S_E (this object) with the A0-smeared Husimi function Q of the state,
    and is evaluated in closed form term by term.  The noise covariance is
    frozen at t_ref; freezing at the interval midpoint cancels the
    first-order freeze error.
    """

    interval: Interval
    params: PhysParams
    s: float          # squeeze of the minimum-uncertainty part A0
    t_ref: float      # covariance freeze time (midpoint, clipped up to threshold)
    b: Cov2           # remainder, absorbed into the symbol

    def _sigma(self, t: float) -> float:
        n = np.array([t / self.params.mass, 1.0])
        var = float(n @ self.b.matrix() @ n)
        return math.sqrt(max(var, 0.0))

    def symbol(self, p, q) -> np.ndarray:
        """S_E(p, q) = Phi(u1) - Phi(u2), the smeared crossing-band indicator."""
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        m = self.params.mass
        out = []
        for t_i in (self.interval.t1, self.interval.t2):
            arg = q + p * t_i / m
            sig = self._sigma(t_i)
            if sig == 0.0:
                out.append(np.where(arg >= 0.0, 1.0, 0.0))
            else:
                out.append(ndtr(arg / sig))
        return out[0] - out[1]

    def expectation(self, state: GaussianMixtureState) -> float:
        """Tr(E rho) = int Q S_E dz, exactly.

        Each term w g(z - c; S) cos(k.z + phi) of Q meets each probit
        Phi(Y / sigma) of S_E through Y = n.z, n = (t/m, 1): Y has mean
        n.c and variance n^T S n, and given Y the fringe e^{i k.z} averages
        to a damped plane wave e^{i gamma Y}, gamma = k.S n / n^T S n.  What
        is left is the 1-D ``_gaussian_fourier_probit`` (a step function
        where sigma = 0).
        """
        if state.hbar != self.params.hbar:
            raise ValueError(
                f"state hbar {state.hbar!r} != params hbar {self.params.hbar!r}"
            )
        smeared = husimi_smear(state, self.s).terms
        ksk = np.vecdot(smeared.k, (smeared.cov @ smeared.k[..., None])[..., 0])
        total = 0.0
        for sign, t_i in ((1.0, self.interval.t1), (-1.0, self.interval.t2)):
            nvec = np.array([t_i / self.params.mass, 1.0])
            sig = self._sigma(t_i)
            sn = smeared.cov @ nvec
            mu_y = np.vecdot(nvec, smeared.center)
            var_y = np.vecdot(nvec, sn)
            ksn = np.vecdot(smeared.k, sn)
            gamma = ksn / var_y
            pre = np.exp(
                1j * (np.vecdot(smeared.k, smeared.center) - gamma * mu_y + smeared.phase)
                - 0.5 * (ksk - ksn * gamma)
            )
            if sig == 0.0:
                piece = _gaussian_fourier_above(mu_y, var_y, gamma, 0.0)
            else:
                piece = _gaussian_fourier_probit(gamma, mu_y, var_y, 0.0, 1.0 / sig)
            total += sign * float(np.sum(smeared.weight * np.real(pre * piece)))
        return total


def build_povm_E(interval: Interval, params: PhysParams) -> PovmEffect:
    """Effect operator for arrival within the interval.

    The freeze time is the interval midpoint; midpoints earlier than the
    splitting threshold are clipped up to it, which keeps early tiles valid
    at the cost of a (recorded) freeze bias.  Raises at gamma > 0, where the
    free-flow symbol does not hold, and when even the interval end lies below
    the threshold.
    """
    if params.gamma != 0.0:
        raise ValueError("POVM construction requires negligible dissipation (gamma = 0)")
    t_thr = povm_threshold_time(params)
    if interval.t2 < t_thr:
        raise ValueError(
            f"too early for POVM construction: interval ends at {interval.t2!r} "
            f"but the covariance split needs t >= {t_thr!r}"
        )
    t_ref = max(interval.midpoint, t_thr)
    s_val, _, b = _split_covariance(t_ref, params)
    return PovmEffect(interval=interval, params=params, s=s_val, t_ref=t_ref, b=b)


# ---------------------------------------------------------------------------
# stochastic (restricted-propagation) route


@dataclass(frozen=True)
class StochasticArrival:
    """Arrival probability from the truncate-and-propagate march."""

    norm_loss: float      # restricted-norm drop over the interval
    boundary_flux: float  # time-integrated current of the restricted state
    final_norm: float     # survival probability at interval end

    def mutual_disagreement(self) -> float:
        scale = max(abs(self.norm_loss), abs(self.boundary_flux), 1e-300)
        return abs(self.norm_loss - self.boundary_flux) / scale


def _whole_steps(name: str, t: float, eps: float) -> int:
    """t/eps as a step count; raises unless eps > 0 splits t into whole
    steps, at most ``_MARCH_STEPS_MAX`` of them."""
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    k = t / eps
    if k >= _MARCH_STEPS_MAX + 0.5:  # whole steps: 1.3 / 1.3e-4 = 10000.000000000002 passes
        raise ValueError(f"{name}/eps must be at most {_MARCH_STEPS_MAX} march steps, got {k!r}")
    if abs(k - round(k)) > 1e-9 * max(1.0, abs(k)):
        raise ValueError(f"{name}/eps = {k!r} is not a whole number of steps")
    return round(k)


def restricted_march(
    w: PhaseSpaceGrid, t: float, eps: float, params: PhysParams
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate with truncation to q > 0 every eps of time (t/eps whole).

    Truncation zeroes the q < 0 half and halves a grid point on q = 0.
    Returns ``(norms, currents)`` at 0, eps, ..., t: the norm after each
    truncation (its drop is the crossing probability) and the arrival
    current just before it (at 0, just after it).  Every step runs
    :func:`propagate_wigner_qbm`'s mass check, so a grid that leaks mass or
    is too coarse for the state raises "grid too small for requested time".
    """
    steps = _whole_steps("t", t, eps)
    q_pts = w.q.points
    mask = (q_pts > 0.0).astype(float)
    mask[np.isclose(q_pts, 0.0, atol=1e-12 * max(1.0, abs(w.q.hi)))] = 0.5
    w = w.with_values(w.values * mask[None, :])
    norms = [w.integrate()]
    currents = [current_from_wigner(w, params)]
    for _ in range(steps):
        w = propagate_wigner_qbm(w, eps, params)
        currents.append(current_from_wigner(w, params))
        np.multiply(w.values, mask, out=w.values)  # the step returned a fresh grid
        norms.append(w.integrate())
    return np.array(norms), np.array(currents)


def arrival_probability_stochastic(
    state: GaussianMixtureState,
    interval: Interval,
    params: PhysParams,
    eps: float,
    n: int,
) -> StochasticArrival:
    """March the restricted evolution and read off the crossing probability.

    Two estimators from one march:  the drop of the restricted norm across
    the interval, and the trapezoid of the boundary current sampled at the
    step times.  They differ at O(eps); their mutual disagreement is the
    cheapest convergence diagnostic.  ``n``, the points per grid axis, is an
    integer (numpy integers too, not bool) in [16, 512]: past about 540
    points the shear's prefilter runs into subnormals.  Anything else, or a
    march of over ``_MARCH_STEPS_MAX`` steps, raises ``ValueError`` before
    any grid is built; a grid too coarse for the state raises in the march.
    """
    if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
            or not _GRID_N_MIN <= n <= _GRID_N_MAX):
        raise ValueError(f"n must be an integer in [{_GRID_N_MIN}, {_GRID_N_MAX}], got {n!r}")
    k1 = _whole_steps("t1", interval.t1, eps)
    _whole_steps("t2", interval.t2, eps)
    pax, qax = default_axes(state, params, t_max=interval.t2, n=n)
    spread = qbm_covariance(interval.t2, params)
    _, cov0 = moments(state)
    q_lo = min(qax.lo, -4.0 * math.sqrt(cov0.qq + spread.qq))  # 4 evolved widths
    w = wigner_grid_from_state(state, pax, Axis(q_lo, max(qax.hi, 1.0), n))
    norms, currents = restricted_march(w, interval.t2, eps, params)
    return StochasticArrival(
        norm_loss=float(norms[k1] - norms[-1]),
        boundary_flux=float(np.trapezoid(currents[k1:], dx=eps)), final_norm=float(norms[-1]),
    )


# ---------------------------------------------------------------------------
# scans and records


@dataclass(frozen=True)
class ArrivalResult:
    """Sampled arrival-current record J(t) with its running integral."""

    times: np.ndarray
    current: np.ndarray
    cumulative: np.ndarray

    def min_current(self) -> tuple[float, float]:
        """(t, J) at the most negative sampled current."""
        i = int(np.argmin(self.current))
        return float(self.times[i]), float(self.current[i])

    def total(self) -> float:
        return float(self.cumulative[-1])


def backflow_scan(
    state: GaussianMixtureState, params: PhysParams, times: np.ndarray
) -> ArrivalResult:
    """Sample the arrival current on a time grid (exact engine route).

    All samples, at most ``_N_T_MAX``, come from one array evaluation over
    (terms x times); the running integral is the trapezoid rule on them.
    """
    times = checked_schedule(times, "sample times")
    if times.size > _N_T_MAX:
        raise ValueError(f"at most {_N_T_MAX} sample times, got {times.size}")
    current = _currents(state, times, params)
    steps = np.diff(times) * (current[1:] + current[:-1]) / 2.0
    cumulative = np.concatenate([[0.0], np.cumsum(steps)])
    return ArrivalResult(times=times, current=current, cumulative=cumulative)
