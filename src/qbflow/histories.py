"""Crossing probabilities from decoherent histories.

The other modules ask "how much probability current flows through the
origin"; this one asks the sharper question "what is the probability that
the particle is on the right at one time and on the left at another", built
from projected, environment-smoothed evolution.  Three layers:

* window functions — the free crossing window ``f_integral`` (a scaled
  sine-integral) and its strong-decoherence Gaussian limit;
* two-time crossing probabilities — ``delta_exact`` (project, evolve,
  project, in closed form up to one quadrature; its grid check is the
  class-matrix diagonal of the reflected state), ``delta_free`` (window
  quadrature against the evolved Wigner function), ``delta_intermediate``
  (position noise folded into the window) and ``delta_strong``, plus the
  closed-form asymptotic estimate they are all compared against;
* interval chains — ``crossing_class_matrix`` builds the full decoherence
  matrix for a partition of an arrival window into sub-intervals by
  propagating one-sidedly masked density matrices, and
  ``class_operator_probability`` condenses it: do the squared (history)
  probabilities agree with the linear (difference-of-survival) ones, and
  are the off-diagonals negligible?
* the verdict — ``decoherence_verdict`` gates one arrival window against
  the three conditions under which its crossing probability deserves the
  name, and returns a :class:`DecoherenceReport` citing any failures.

Projectors split at the origin; states are expected to approach it from
the right (negative mean momentum).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import sici

from .core_model import Interval, PhysParams, derive_timescales
from .gaussian_engine import (
    GaussianMixtureState,
    _conditional,
    _gaussian_fourier_above,
    _gaussian_fourier_below,
    _gaussian_fourier_probit,
    _right_mass,
    evaluate_state,
    moments,
    propagate_mixture,
)
from .grid_engine import (
    axis_straddling_zero,
    _density_block,
    _propagate_density_split_raw,
)

__all__ = [
    "f_integral",
    "survival_probability",
    "delta_exact",
    "delta_free",
    "delta_free_asymptotic",
    "delta_intermediate",
    "delta_strong",
    "crossing_class_matrix",
    "class_operator_probability",
    "decoherence_verdict",
    "DecoherenceReport",
]

_SQRT2 = math.sqrt(2.0)

# Half-width of the u band in the window estimates; past it f is within
# 1/(pi _U_CUT) of its asymptotes and is replaced by its step.
_U_CUT = 200.0

# Ratio realising ">> 1" in the regime classifications: t/tau counts as
# "many localisation times" from this factor on.  Soft by nature — the
# closed forms degrade gradually — so it gates warnings and labels, never
# values.
_REGIME_FACTOR = 3.0


# ---------------------------------------------------------------------------
# crossing window functions


def f_integral(u):
    """Free crossing window f(u) = 1/2 - Si(u)/pi.

    Interpolates between 1 (u -> -inf, the packet certainly ends up on the
    other side) and 0 (u -> +inf), with f(0) = 1/2 exactly and the
    reflection f(u) + f(-u) = 1.  Small-u slope is -1/pi; the large-|u|
    tail rings as cos(u)/(pi u).

    Accepts scalars or arrays; evaluated through ``scipy.special.sici`` at
    double precision.
    """
    arr = np.asarray(u, dtype=float)
    out = 0.5 - sici(arr)[0] / math.pi
    return float(out) if arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# survival probabilities (linear route)


def survival_probability(
    state: GaussianMixtureState, t: float, params: PhysParams
) -> float:
    """Probability of still being right of the origin at time t.

    Exact per-term reduction of the evolved mixture; no grids involved.
    """
    return _right_mass(propagate_mixture(state, t, params))


def _checked_boundaries(boundaries) -> np.ndarray:
    b = np.asarray(boundaries, dtype=float)
    if b.ndim != 1 or b.size < 2:
        raise ValueError("boundaries must be a 1-D sequence of at least two times")
    bad = ~np.isfinite(b) | (b < 0.0)
    if bad.any():
        raise ValueError(f"boundaries must be finite and non-negative, got {b[bad][0]}")
    if not np.all(np.diff(b) > 0.0):
        raise ValueError("boundaries must be strictly increasing")
    return b


# ---------------------------------------------------------------------------
# exact two-time crossing probability


def delta_exact(
    state: GaussianMixtureState, window: Interval, params: PhysParams
) -> float:
    """Tr[ P_right rho(t2) ] for the state projected left at t1.

    The probability of finding the particle right of the origin at ``t2``
    after certainly finding it left at ``t1`` — the sharp measure of
    re-crossing that the window-function estimates approximate.  Read as
    a current, it is the right-moving flow re-entering from the crossed
    side: the integrated current understates the projected class
    probability by at most this amount, and for backflow states it stays
    positive while the net current integral goes negative.

    Projecting left and evolving reduces, on the diagonal, to half the
    left mass plus a one-dimensional integral of the masked chord
    transform,

        1/2 m_- + (1/pi) int_0^inf dxi/xi e^{-c xi^2} Im G(xi),
        G(xi) = int_{X < -xi/2} dX int dp e^{i xi (m X/dt + p)/hbar} W(p, X),

    with W the evolved Wigner function at t1 and c = D dt / 3 hbar^2.
    Every term of G is a half-line Gaussian Fourier integral, evaluated in
    closed form; only the xi quadrature is numerical.  The grid check is
    ``crossing_class_matrix(reflect_state(state), [t1, t2], params, n)[0, 0]``:
    parity swaps P_left and P_right and commutes with the evolution.
    """
    if params.gamma != 0.0:
        raise ValueError("crossing probabilities require negligible dissipation (gamma = 0)")
    hbar, m = params.hbar, params.mass
    dt = window.width
    st = propagate_mixture(state, window.t1, params)
    c_damp = params.D * dt / (3.0 * hbar * hbar)
    m_left = st.total_mass() - _right_mass(st)

    # xi range: the integrand dies by e^{-c xi^2} and, per term, by the
    # conditional-momentum factor e^{-v (xi/hbar +- k_p)^2 / 2}.
    u = st._stacked.at(0.0)
    _, mu0, v, slope = _conditional(u, 0.0)
    decay = c_damp + 0.5 * v / (hbar * hbar)
    xi_max = float(np.max(hbar * np.abs(u.kp) + np.sqrt(41.0 / decay)))
    span = np.abs(u.cq) + 6.0 * np.sqrt(u.qq)
    rate = float(np.max(
        span * (m / (hbar * dt) + np.abs(slope) / hbar)
        + np.abs(u.cp) / hbar
        + np.abs(u.kp) + np.abs(u.kq)
    ))
    n_xi = min(max(int(xi_max * (rate + 0.5 * xi_max * m / (hbar * dt)) / 0.2) + 64, 512), 400_000)
    d_xi = xi_max / n_xi
    xi = (np.arange(n_xi) + 0.5) * d_xi  # midpoint rule: no xi = 0 endpoint

    # one row per term and eta = +1, then one per modulated term and eta = -1;
    # an unmodulated term's eta = -1 pass repeats eta = +1, so it has one row
    # at weight 1 and a modulated term two at weight 1/2
    plain = (u.kp == 0.0) & (u.kq == 0.0) & (u.phase == 0.0)
    rows = np.concatenate([np.arange(plain.size), np.flatnonzero(~plain)])
    eta = np.where(np.arange(rows.size) < plain.size, 1.0, -1.0)[:, None]
    share = np.where(plain[rows], 1.0, 0.5)[:, None]
    kp, kq, phase, w, cq, qq, mu0, v, slope = (
        x[rows, None] for x in (u.kp, u.kq, u.phase, u.w, u.cq, u.qq, mu0, v, slope)
    )
    a = eta * kp + xi / hbar
    b = eta * kq + m * xi / (hbar * dt)
    piece = _gaussian_fourier_below(cq, qq, b + a * slope, -0.5 * xi)
    g = np.sum(share * w * np.exp(1j * eta * phase + 1j * a * mu0 - 0.5 * a * a * v) * piece, axis=0)

    integral = float(np.sum(np.exp(-c_damp * xi * xi) * np.imag(g) / xi) * d_xi)
    return 0.5 * m_left + integral / math.pi


# ---------------------------------------------------------------------------
# window-quadrature estimates


def _grid(a: float, b: float, step: float) -> np.ndarray:
    return np.linspace(a, b, max(int((b - a) / step) + 2, 9))


def _graded_origin_grid(lo: float, hi: float, ell: float, coarse: float) -> np.ndarray:
    """Grid on [lo, hi] whose steps grow geometrically with distance from 0.

    The crossing window rises from 0 to 1/2 across a boundary layer of
    width ~ell around the origin; a uniform envelope-scale grid steps
    right over it.  Steps run from ell/80 at the origin up to ``coarse``.
    """
    xs = [hi]
    x = hi
    while x > lo:
        x -= min(coarse, max(0.0145 * abs(x), ell / 80.0))
        xs.append(x)
    xs[-1] = lo
    return np.array(xs[::-1])


def _band_step_mass(state: GaussianMixtureState, xs, p_floor) -> np.ndarray:
    """Position-resolved mass of the state above a momentum floor.

    step(x) = int_{p > p_floor(x)} W(p, x) dp, per term in closed form: the
    joint Gaussian factorises into the position marginal times a
    conditional momentum Gaussian, and the fringe cos(kp p + kq x + phi)
    turns into a one-sided Fourier integral.
    """
    xs = np.asarray(xs, dtype=float)
    u = state._stacked.at(xs)
    marg, mu, v, _ = _conditional(u, xs)
    piece = _gaussian_fourier_above(mu, v, u.kp, np.asarray(p_floor, dtype=float))
    return np.sum(u.w * marg * np.real(np.exp(1j * (u.kq * xs + u.phase)) * piece), axis=0)


def delta_free(
    state: GaussianMixtureState,
    window: Interval,
    params: PhysParams,
) -> float:
    """Window-function estimate of the crossing probability, free kernel.

    Delta_f = int_{X<0} dX int dp W_t1(p, X) f[(X/hbar)(m X/dt + p)],

    with W the Wigner function evolved to the window's opening and f the
    sine-integral crossing window.  The phase u = X(mX/dt + p)/hbar runs
    arbitrarily fast in p far from the origin, so there the momentum
    integral is taken in u itself over the band |u| <= _U_CUT — where f has
    settled onto its asymptotes to within 1/(pi _U_CUT) — plus a
    closed-form f = 1 step term for the strip u < -_U_CUT.  Near the origin
    the band degenerates and a plain p-grid resolves the slow phase
    directly, on a grid graded into the origin — the window climbs from 0
    to 1/2 across a layer of width ~hbar/|pbar| there.  Truncation error
    is bounded by mass/(pi _U_CUT), and the dropped tails oscillate without
    stationary points, so the bound is very loose in practice.
    """
    if params.gamma != 0.0:
        raise ValueError("crossing probabilities require negligible dissipation (gamma = 0)")
    hbar, m = params.hbar, params.mass
    dt = window.width
    st = propagate_mixture(state, window.t1, params)
    mean, cov = moments(st)
    sq, sp = math.sqrt(cov.qq), math.sqrt(cov.pp)
    x_lo = mean[1] - 7.5 * sq
    x_hi = min(0.0, mean[1] + 7.5 * sq)
    if x_lo >= 0.0:
        return 0.0
    ps = np.linspace(mean[0] - 7.5 * sp, mean[0] + 7.5 * sp, 701)
    x_near = 0.35 * hbar / (ps[1] - ps[0])
    dx = sq / 25.0
    near_lo = max(x_lo, -x_near)
    total = 0.0
    if x_hi > near_lo:
        ell = hbar / (abs(mean[0]) + 3.0 * sp)
        xs = _graded_origin_grid(near_lo, x_hi, ell, dx)
        w = evaluate_state(st, ps[:, None], xs[None, :])
        u = xs[None, :] * (m * xs[None, :] / dt + ps[:, None]) / hbar
        g = np.trapezoid(w * f_integral(u), ps, axis=0)
        total += float(np.trapezoid(g, xs))
    if near_lo > x_lo:
        xs = _grid(x_lo, near_lo, dx)
        us = np.linspace(-_U_CUT, _U_CUT, 2 * int(_U_CUT / 0.3) + 1)
        fu = f_integral(us)
        col = xs[:, None]
        pu = us[None, :] * hbar / col - m * col / dt
        w = evaluate_state(st, pu, col)
        band = np.trapezoid(w * fu[None, :], us, axis=1) * (hbar / np.abs(xs))
        step = _band_step_mass(st, xs, -m * xs / dt + _U_CUT * hbar / np.abs(xs))
        total += float(np.trapezoid(band + step, xs))
    return total


def delta_strong(
    state: GaussianMixtureState, window: Interval, params: PhysParams
) -> float:
    """Crossing probability in the strong-decoherence (Gaussian) limit.

    The oscillatory window, averaged over the position noise accumulated
    during the interval, collapses to an error function of the classical
    miss distance:

        Delta_s = int_{X<0} dX int dp W_t1(p, X)
                    (1/2) erfc(-lambda (X + p dt/m)),
        lambda = sqrt(3 m^2 / (4 D dt^3)).

    Since (1/2) erfc(-x) = Phi(sqrt(2) x), the momentum integral of each
    term is a conditional Gaussian times a probit of a linear form in p,
    which is exact in closed form (``_gaussian_fourier_probit``).  That
    leaves a smooth profile in X even when the raw window edge is much
    sharper than any grid; only the X integral is a trapezoid, over the
    strip where the window is not exponentially dead.
    """
    if params.gamma != 0.0:
        raise ValueError("crossing probabilities require negligible dissipation (gamma = 0)")
    if params.D <= 0.0:
        raise ValueError("strong-decoherence window needs D > 0")
    hbar, m = params.hbar, params.mass
    dt = window.width
    st = propagate_mixture(state, window.t1, params)
    mean, cov = moments(st)
    scales = derive_timescales(params, mean[0])
    if dt < _REGIME_FACTOR * scales.tau_l:
        warnings.warn(
            f"window spans only {dt / scales.tau_l:.2g} localisation times; the "
            "error-function window assumes the accumulated noise dominates "
            "the free oscillation (dt >> tau_l)",
            RuntimeWarning,
            stacklevel=2,
        )
    if mean[0] != 0.0 and dt > 0.25 * scales.tau_s:
        warnings.warn(
            f"window spans {dt / scales.tau_s:.2g} stochastic times; momentum "
            "diffusion degrades the mean motion itself (needs dt << tau_s)",
            RuntimeWarning,
            stacklevel=2,
        )
    sq, sp = math.sqrt(cov.qq), math.sqrt(cov.pp)
    lam = math.sqrt(3.0 * m * m / (4.0 * params.D * dt ** 3))
    strip = (abs(mean[0]) + 7.5 * sp) * dt / m + 4.0 / lam
    x_lo = max(mean[1] - 8.0 * sq, -strip)
    x_hi = min(0.0, mean[1] + 8.0 * sq)
    if x_lo >= x_hi:
        return 0.0
    xs = np.linspace(x_lo, x_hi, 1501)
    u = st._stacked.at(xs)
    marg, mu, v, _ = _conditional(u, xs)
    piece = _gaussian_fourier_probit(u.kp, mu, v, _SQRT2 * lam * xs, _SQRT2 * lam * dt / m)
    g = np.sum(u.w * marg * np.real(np.exp(1j * (u.kq * xs + u.phase)) * piece), axis=0)
    return float(np.trapezoid(g, xs))


def _window_ladders(
    floors: np.ndarray,
    p0s: np.ndarray,
    s_q: float,
    m: float,
    hbar: float,
    dt: float,
) -> list:
    """Adaptive X ladders for F(mu, p0), one per conditional momentum p0.

    Each ladder descends from X = 0 in steps that resolve both the noise
    kernel (s_q/10) and the local window phase (0.35 rad); it stops before
    passing its floor, or once the window has decayed past _U_CUT.  All
    ladders advance in lockstep as arrays, with each element taking the
    same float operations as a scalar descent.  Returns each ladder in
    ascending order, ending at 0.0.
    """
    x = np.zeros_like(p0s)
    live = np.ones(p0s.shape, dtype=bool)
    xs, kept = [x], [live]
    while live.any():
        step = np.minimum(
            s_q / 10.0, 0.35 * hbar / (np.abs(2.0 * m * x / dt + p0s) + 1e-300)
        )
        x = x - step
        live = live & ~(x < floors)
        xs.append(x)
        kept.append(live)
        live = live & ~(x * (m * x / dt + p0s) / hbar > _U_CUT)
    xs, n_kept = np.array(xs), np.sum(kept, axis=0)
    return [xs[n - 1::-1, i] for i, n in enumerate(n_kept)]


def delta_intermediate(
    state: GaussianMixtureState,
    window: Interval,
    params: PhysParams,
) -> tuple:
    """Crossing probability with position noise folded into the window,
    together with an a-priori bound on what the fold leaves out.

    The free window f survives, but the ballistic position it is evaluated
    at is smeared by the quantum-noise spread accumulated up to the
    window, s_Q^2 = 2 D t1^3 / 3 m^2:

        Delta_i = int dp0 dX0 W_0(p0, X0) F(X0 + p0 t1/m, p0),
        F(mu, p0) = int_{X<0} dX N(X; mu, s_Q^2) f[(X/hbar)(m X/dt + p0)].

    Returns ``(value, bound)``; the neglected momentum-noise corrections
    are bounded by (1/16) sqrt(2 m hbar / (p0bar^2 t1)) (tau_l / t1).
    The bound is an order-of-magnitude cap obtained by dropping the
    exponential localisation of F around the ballistic crossing; it keeps
    no O(1) factors (the true supremum of the fold is sqrt(3 pi)/2 ~ 1.5
    times larger), so it dominates the value once the packet's crossing
    misses the window by a width or more and should be read at that
    resolution near dead centre.

    Emits a RuntimeWarning outside its regime: the fold needs many
    localisation times before the window (t1 >> tau_l) and a window short
    against one (dt << tau_l).
    """
    if params.gamma != 0.0:
        raise ValueError("crossing probabilities require negligible dissipation (gamma = 0)")
    if params.D <= 0.0:
        raise ValueError(
            "intermediate window needs D > 0; at D = 0 it reduces to the free window (delta_free)"
        )
    if window.t1 <= 0.0:
        raise ValueError("intermediate window needs t1 > 0")
    hbar, m = params.hbar, params.mass
    t1, dt = window.t1, window.width
    mean0, cov0 = moments(state)
    p_bar = mean0[0]
    if p_bar == 0.0:
        raise ValueError("correction bound diverges for zero mean momentum")
    s_q = math.sqrt(2.0 * params.D * t1 ** 3 / 3.0) / m
    tau_l = derive_timescales(params, p_bar).tau_l
    if t1 < _REGIME_FACTOR * tau_l:
        warnings.warn(
            f"window opens only {t1 / tau_l:.2g} localisation times in; the "
            "position-noise fold assumes t1 >> tau_l",
            RuntimeWarning,
            stacklevel=2,
        )
    if dt > tau_l:
        warnings.warn(
            f"window spans {dt / tau_l:.2g} localisation times; the free "
            "window inside the fold assumes dt << tau_l",
            RuntimeWarning,
            stacklevel=2,
        )
    bound = (math.sqrt(2.0 * m * hbar / (p_bar * p_bar * t1)) / 16.0) * (tau_l / t1)
    sq0, sp0 = math.sqrt(cov0.qq), math.sqrt(cov0.pp)
    n_out = 71
    p0s = np.linspace(p_bar - 6.0 * sp0, p_bar + 6.0 * sp0, n_out)
    x0s = np.linspace(mean0[1] - 6.0 * sq0, mean0[1] + 6.0 * sq0, n_out)
    w0 = evaluate_state(state, p0s[:, None], x0s[None, :])
    # F(mu, p0) = int_{X<0} N(X; mu, s_q^2) f[X (m X/dt + p0)/hbar] dX
    # on each row's ladder, which serves every mu = X0 + p0 t1/m of it.
    mus = x0s[None, :] + p0s[:, None] * t1 / m
    ladders = _window_ladders(
        np.min(mus, axis=1) - 9.0 * s_q, p0s, s_q, m, hbar, dt
    )
    fmat = np.zeros((n_out, n_out))
    for i, xs in enumerate(ladders):
        if xs.size < 2:
            continue
        fv = f_integral(xs * (m * xs / dt + p0s[i]) / hbar)
        kern = np.exp(-0.5 * ((xs[None, :] - mus[i][:, None]) / s_q) ** 2) / (
            math.sqrt(2.0 * math.pi) * s_q
        )
        fmat[i] = np.trapezoid(kern * fv[None, :], xs, axis=1)
    value = float(np.trapezoid(np.trapezoid(w0 * fmat, x0s, axis=1), p0s))
    return value, bound


def delta_free_asymptotic(
    state: GaussianMixtureState, window: Interval, params: PhysParams
) -> float:
    """Stationary-phase estimate of the free crossing probability.

    For a packet of initial width sigma whose center ballistically reaches
    the origin at the window's opening,

        Delta ~ sqrt(pi/2) hbar / (8 sigma |pbar|) exp(-offset^2 / 2 sigma^2),

    offset = q0bar + pbar t1 / m.  Emits a RuntimeWarning outside its
    regime: when the window is shorter than ~10 hbar/E (no construction
    resolves the crossing that finely) or when the packet misses the
    origin by more than one width at t1.
    """
    hbar, m = params.hbar, params.mass
    mean, cov = moments(state)
    p_bar = mean[0]
    if p_bar >= 0.0:
        raise ValueError("asymptotic crossing estimate needs negative mean momentum")
    sigma = math.sqrt(cov.qq)
    offset = mean[1] + p_bar * window.t1 / m
    if p_bar * p_bar * window.width / (2.0 * m * hbar) < 10.0:
        warnings.warn(
            "window shorter than ~10 hbar/E: the stationary-phase estimate degrades",
            RuntimeWarning,
            stacklevel=2,
        )
    if abs(offset) > sigma:
        warnings.warn(
            "packet misses the origin by more than one width at t1; "
            "the estimate is exponentially suppressed and unreliable",
            RuntimeWarning,
            stacklevel=2,
        )
    return (
        math.sqrt(math.pi / 2.0)
        * hbar
        / (8.0 * sigma * abs(p_bar))
        * math.exp(-0.5 * offset * offset / (sigma * sigma))
    )


# ---------------------------------------------------------------------------
# interval chains


def _chain_axis(state, times, params, n):
    """Shared position axis covering the evolved state at every listed time.

    Returns ``(axis, p_reach)``: the grid, and the largest momentum it
    resolves (mean reach plus six widths across the whole schedule); the
    point count is rounded up to a power of two satisfying Nyquist for
    that reach.  ``n``, the floor on that count, is None (1024) or an
    integer in [2, 4096]; anything else raises ``ValueError``.
    """
    if n is not None:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
            raise ValueError(f"n must be None or an integer in [2, 4096], got {n!r}")
        if n > 4096:
            raise ValueError(f"n = {n} is above the chain grid's 4096-point limit")
    hbar = params.hbar
    k_need = 0.0
    lo = math.inf
    hi = -math.inf
    for t in times:
        st = propagate_mixture(state, float(t), params)
        mean, cov = moments(st)
        lo = min(lo, mean[1] - 7.5 * math.sqrt(cov.qq))
        hi = max(hi, mean[1] + 7.5 * math.sqrt(cov.qq))
        k_need = max(k_need, (abs(mean[0]) + 6.0 * math.sqrt(cov.pp)) / hbar)
    pad = 0.035 * (hi - lo)
    lo -= pad
    hi += pad
    if lo >= 0.0 or hi <= 0.0:
        raise ValueError("the partition never brings the state near the origin")
    n_min = int((hi - lo) * k_need / math.pi) + 1
    n_use = 1 << (max(n_min, 1024 if n is None else int(n)) - 1).bit_length()
    if n_use > 4096:
        raise ValueError("state too broad for the chain grid (needs > 4096 points)")
    return axis_straddling_zero(lo, hi, n_use), k_need * hbar


def _class_matrix(state, windows, params, axis):
    """Decoherence functional over ordered ``(open, close)`` time windows.

    Ket-side projections run along each row's own class times; the
    unprojected backbone rho(open_k) is re-sampled from the exact Gaussian
    engine per class, so grid error never accumulates along the schedule.
    The axis puts the origin mid-cell, so the projectors are the index
    split ``[:cut]`` (left) and ``[cut:]`` (right): the backbone is sampled
    only on the rows P_right keeps (only its right-right block for the
    last class), and every later mask zeroes a block in place.  A fork
    zeroes the left columns of a copy of the whole chain: once the chain
    runs past a class or across a gap its right rows refill, and they
    belong in the entry.
    """
    x = axis.points
    left = x < 0.0
    cut = int(np.count_nonzero(left))
    n_classes = len(windows)
    mat = np.zeros((n_classes, n_classes), dtype=complex)

    for k, (a_k, b_k) in enumerate(windows):
        st = propagate_mixture(state, a_k, params)
        projected = np.zeros((axis.n, axis.n), dtype=complex)
        _density_block(st, axis, cut, cut, projected[cut:, cut:])
        sym = _propagate_density_split_raw(projected, axis, b_k - a_k, params)
        # Tr[(P_< U P_>) rho (P_< U P_>)^dag] is real by construction; the
        # grid trace leaves a phantom imaginary part at discretisation level.
        mat[k, k] = np.trapezoid(np.diagonal(sym) * left, x).real
        del sym
        if k + 1 == n_classes:
            break
        _density_block(st, axis, cut, 0, projected[cut:, :cut])
        chain = _propagate_density_split_raw(projected, axis, b_k - a_k, params)
        del projected
        chain[cut:, :] = 0.0
        reached = b_k
        for j in range(k + 1, n_classes):
            a_j, b_j = windows[j]
            if a_j > reached:
                chain = _propagate_density_split_raw(chain, axis, a_j - reached, params)
            reached = a_j
            forked = chain.copy()
            forked[:, :cut] = 0.0
            fork = _propagate_density_split_raw(forked, axis, b_j - a_j, params)
            del forked
            mat[k, j] = np.trapezoid(np.diagonal(fork) * left, x)
            mat[j, k] = np.conjugate(mat[k, j])
            del fork
        del chain
    return mat


def crossing_class_matrix(
    state: GaussianMixtureState,
    boundaries,
    params: PhysParams,
    n: int | None = None,
) -> np.ndarray:
    """Decoherence functional for one-crossing classes on a time partition.

    Class k (0-based) asserts: right of the origin at t_k, left of it at
    t_{k+1}.  Entry (k, j) of the returned complex matrix is the
    decoherence functional between classes k and j — class k's projectors
    act on the ket side, class j's on the bra side, each at its own times,
    with open-system evolution in between.

    One-sidedly projected density matrices are pushed with the spectral
    split-step propagator on a shared axis; the unprojected backbone
    rho(t_k) is re-sampled from the exact Gaussian engine at the start of
    every class, so grid error never accumulates along the partition.  The
    diagonal is real: D[k, k] is the crossing probability for interval k
    with the projections actually applied.  Comparing it against the
    projection-free survival differences, and the off-diagonals against
    zero, measures how decoherent the partition is.

    With D = 0 the projected blocks keep coherent algebraic tails that any
    finite box truncates: values then carry a few-percent bias — fine for
    exhibiting large off-diagonals, not for precision work — and the
    border sentinel is disabled in that regime.

    ``n`` is a floor on the grid size, 1024 by default: it is raised to the
    Nyquist count for the momenta the state reaches and rounded up to a
    power of two; a state that needs more than 4096 points is refused.
    ``n`` must be None or an integer in [2, 4096] (``ValueError``
    otherwise).

    A larger ``n`` is not a monotone error bound: the grid bias of the
    diagonal has no fixed sign in ``n``.  For p0 = -6, q0 = 10, sigma = 1
    at D = 2 on classes [2, 2.2] and [2.2, 2.4], the gap of D[0, 0] to the
    grid-free reflected :func:`delta_exact` reads -7.7e-5, -1.9e-5 and
    +1.2e-5 at n = 1024, 2048 and 4096.
    """
    if params.gamma != 0.0:
        raise ValueError("crossing probabilities require negligible dissipation (gamma = 0)")
    b = _checked_boundaries(boundaries)
    axis, _ = _chain_axis(state, b, params, n)
    windows = [(float(b[k]), float(b[k + 1])) for k in range(len(b) - 1)]
    return _class_matrix(state, windows, params, axis)


def class_operator_probability(
    state: GaussianMixtureState,
    intervals,
    params: PhysParams,
    eps: float | None = None,
    n: int | None = None,
) -> tuple:
    """Linear and projected probabilities for first-crossing classes.

    ``intervals`` is an ordered, non-overlapping sequence of
    :class:`~qbflow.core_model.Interval`; gaps between windows are
    allowed.  Class k asserts: right of the origin when window k opens,
    left of it when it closes.  Returns ``(p_linear, p_squared,
    offdiag_max)``:

    * ``p_linear[k]`` — the survival difference S(open_k) - S(close_k)
      with no projections inserted, what the integrated current assigns;
    * ``p_squared[k]`` — the same crossing with the projections actually
      applied, Tr[P_left U (P_right rho P_right) U*];
    * ``offdiag_max`` — the largest interference magnitude between two
      distinct classes.

    The classes decohere — and the linear numbers are honest
    probabilities — when ``offdiag_max`` is small against
    ``max(p_linear)`` and the two probability routes agree.

    ``eps`` floors the window widths.  Projecting faster than the state
    can move freezes the crossing (the Zeno regime), so widths under
    ``max(10 hbar/E, one-cell transit of the fastest resolved momentum)``
    are rejected by default; pass ``eps`` explicitly to override (``eps =
    0`` turns the guard off).  Anything but None or a finite real >= 0
    raises ``ValueError``.

    ``n`` floors the chain grid as in :func:`crossing_class_matrix`: the
    grid is raised to the Nyquist count and a power of two, up to 4096.
    """
    if eps is not None and (
        isinstance(eps, bool)
        or not isinstance(eps, (int, float, np.integer, np.floating))
        or not 0.0 <= eps < math.inf
    ):
        raise ValueError(f"eps must be None or a finite real >= 0, got {eps!r}")
    if params.gamma != 0.0:
        raise ValueError("crossing probabilities require negligible dissipation (gamma = 0)")
    windows = [(float(iv.t1), float(iv.t2)) for iv in intervals]
    if not windows:
        raise ValueError("need at least one interval")
    if windows[0][0] < 0.0:
        raise ValueError(f"intervals must open at non-negative times, got {windows[0][0]}")
    for (a0, b0), (a1, b1) in zip(windows, windows[1:]):
        if a1 < b0:
            raise ValueError(
                "intervals must be ordered and non-overlapping: "
                f"[{a0:g}, {b0:g}] is followed by [{a1:g}, {b1:g}]"
            )
    times = sorted({t for w in windows for t in w})
    axis, p_reach = _chain_axis(state, times, params, n)
    mean0, cov0 = moments(state)
    energy = (mean0[0] ** 2 + cov0.pp) / (2.0 * params.mass)
    if eps is None:
        eps = max(10.0 * params.hbar / energy, params.mass * axis.step / p_reach)
    narrowest = min(b - a for a, b in windows)
    if narrowest < eps:
        raise ValueError(
            f"window of width {narrowest:.3g} is below the projector-spacing "
            f"floor eps = {eps:.3g}: crossing classes this fine sit in the "
            "Zeno regime (or under the grid's time resolution)"
        )
    mat = _class_matrix(state, windows, params, axis)
    p_lin = np.array(
        [
            survival_probability(state, a, params)
            - survival_probability(state, b, params)
            for a, b in windows
        ]
    )
    p_sq = np.real(np.diagonal(mat)).copy()
    if mat.shape[0] > 1:
        offdiag_max = float(np.abs(mat - np.diag(np.diagonal(mat))).max())
    else:
        offdiag_max = 0.0
    return p_lin, p_sq, offdiag_max


# ---------------------------------------------------------------------------
# the verdict


@dataclass(frozen=True, eq=False)
class DecoherenceReport:
    """Verdict on one arrival window: may a crossing probability be
    assigned to it?

    Attributes
    ----------
    t1, t2 : float
        The window.
    delta_exact : float
        The projected re-crossing probability — the interference measure
        that must be small.
    delta_formula : float
        The regime-appropriate closed-form estimate of the same quantity.
    regime : str
        ``"free"``, ``"intermediate"`` or ``"strong"``: which closed form
        applies, classified from (t1/tau_l, dt/tau_l).
    decoherent : bool
        Conjunction of the three gates; the window's crossing probability
        deserves the name exactly when this holds.
    gates_failed : tuple of str
        One line per failed gate; empty when decoherent.
    e_dt_over_hbar : float
        Window width in units of the energy time hbar/E.
    t1_over_tau_l : float
        Opening time in localisation times (0 when D = 0: tau_l is then
        infinite).
    gaussian : bool
        Single unmodulated Gaussian?  Such states need no environmental
        scrubbing and skip the preparation gate.
    thresholds : tuple of (str, float)
        The gate thresholds the verdict was taken at.
    """

    t1: float
    t2: float
    delta_exact: float
    delta_formula: float
    regime: str
    decoherent: bool
    gates_failed: tuple
    e_dt_over_hbar: float
    t1_over_tau_l: float
    gaussian: bool
    thresholds: tuple

    def summary_text(self) -> str:
        head = "decoherent" if self.decoherent else "NOT decoherent"
        lines = [
            f"arrival window [{self.t1:g}, {self.t2:g}]: {head}",
            f"  regime: {self.regime} (t1 = {self.t1_over_tau_l:.3g} tau_l, "
            f"E dt/hbar = {self.e_dt_over_hbar:.3g})",
            f"  delta_exact = {self.delta_exact:.3e}, "
            f"regime formula = {self.delta_formula:.3e}",
        ]
        lines.extend(f"  gate failed: {gate}" for gate in self.gates_failed)
        return "\n".join(lines)


def decoherence_verdict(
    state: GaussianMixtureState,
    window: Interval,
    params: PhysParams,
    *,
    delta_max: float = 0.01,
    energy_min: float = 10.0,
    t1_min: float = 5.0,
) -> DecoherenceReport:
    """Gate one arrival window and report why whenever it fails.

    Three gates, thresholds exposed as keywords:

    * interference — the projected re-crossing probability must be small,
      ``delta_exact < delta_max``;
    * resolution — the window must be coarser than the energy time,
      ``E dt/hbar > energy_min``: no construction resolves an arrival
      finer than hbar/E;
    * preparation — a state that is not a single unmodulated Gaussian
      must have evolved for ``t1 > t1_min * tau_l`` before the window
      opens, long enough for the environment to scrub spatial coherence.
      At D = 0 this gate cannot pass (tau_l is infinite: superpositions
      keep their fringes forever), while plain Gaussians skip it.

    The report also quotes the closed-form estimate matched to the
    regime: ``"strong"`` when the window itself spans many localisation
    times, ``"intermediate"`` when only the opening time does, ``"free"``
    otherwise.
    """
    hbar, m = params.hbar, params.mass
    mean0, cov0 = moments(state)
    energy = (mean0[0] ** 2 + cov0.pp) / (2.0 * m)
    e_dt = energy * window.width / hbar
    kp0, kq0 = state.terms[0].k
    gaussian = len(state.terms) == 1 and kp0 == 0.0 and kq0 == 0.0
    tau_l = derive_timescales(params, mean0[0]).tau_l if params.D > 0.0 else math.inf
    t1_ratio = window.t1 / tau_l
    if window.width >= _REGIME_FACTOR * tau_l:
        regime = "strong"
    elif window.t1 >= _REGIME_FACTOR * tau_l:
        regime = "intermediate"
    else:
        regime = "free"
    dex = delta_exact(state, window, params)
    if regime == "free":
        formula = delta_free(state, window, params)
    elif regime == "intermediate":
        formula, _ = delta_intermediate(state, window, params)
    else:
        formula = delta_strong(state, window, params)
    gates = []
    if not dex < delta_max:
        gates.append(
            f"interference too large: delta_exact = {dex:.3g} (needs < {delta_max:g})"
        )
    if not e_dt > energy_min:
        gates.append(
            f"interval too fine: E dt/hbar = {e_dt:.3g} (needs > {energy_min:g})"
        )
    if not gaussian and not window.t1 > t1_min * tau_l:
        gates.append(
            f"t1 too small: {window.t1:g} = {t1_ratio:.3g} tau_l (needs "
            f"> {t1_min:g} tau_l for a non-Gaussian state)"
        )
    return DecoherenceReport(
        t1=float(window.t1),
        t2=float(window.t2),
        delta_exact=float(dex),
        delta_formula=float(formula),
        regime=regime,
        decoherent=not gates,
        gates_failed=tuple(gates),
        e_dt_over_hbar=float(e_dt),
        t1_over_tau_l=float(t1_ratio),
        gaussian=gaussian,
        thresholds=(
            ("delta_max", float(delta_max)),
            ("energy_min", float(energy_min)),
            ("t1_min_tau_l", float(t1_min)),
        ),
    )
