"""Grid representations and propagators.

Everything in here works on finite grids and shares no numerical pathway
with the closed-form Gaussian engine, which it cross-checks: density
matrices evolve by the exact split-step factorisation of the QBM
propagator on an FFT grid, and Wigner grids by the exact shear-and-blur
decomposition of the evolution kernel.

Conventions: phase-space arrays are indexed ``values[i, j] = W(p_i, q_j)``;
density matrices are ``values[i, j] = rho(x_i, x_j)`` on a common uniform
axis.  All quadratures are trapezoidal.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft, ndimage

from .core_model import PhysParams
from .gaussian_engine import (
    GaussianMixtureState,
    _conditional,
    evaluate_state,
    moments,
    qbm_covariance,
)

__all__ = [
    "Axis",
    "DensityMatrixGrid",
    "PhaseSpaceGrid",
    "default_axes",
    "density_matrix_from_state",
    "wigner_grid_from_state",
    "propagate_wigner_qbm",
    "axis_straddling_zero",
    "slice_at_q0",
]

_DEFAULT_N = 256
_EXTENT_WIDTHS = 8.0  # default half-extent in units of combined state widths


@dataclass(frozen=True)
class Axis:
    """Uniform 1-D grid."""

    lo: float
    hi: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"axis needs at least 2 points, got n={self.n}")
        if not (self.hi > self.lo):
            raise ValueError(f"axis inverted: [{self.lo}, {self.hi}]")

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)

    def index_of(self, x: float) -> float:
        """Fractional index of coordinate x."""
        return (x - self.lo) / self.step


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Wigner-type function sampled on a rectangular (p, q) grid."""

    p: Axis
    q: Axis
    values: np.ndarray  # shape (p.n, q.n)
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if self.values.shape != (self.p.n, self.q.n):
            raise ValueError(
                f"values shape {self.values.shape} != axes ({self.p.n}, {self.q.n})"
            )

    def integrate(self) -> float:
        return float(
            np.trapezoid(np.trapezoid(self.values, dx=self.q.step, axis=1), dx=self.p.step)
        )

    def with_values(self, values: np.ndarray) -> "PhaseSpaceGrid":
        return replace(self, values=values)


@dataclass(frozen=True)
class DensityMatrixGrid:
    """Position-representation density matrix on a square uniform grid."""

    axis: Axis
    values: np.ndarray  # shape (n, n), complex
    hbar: float = 1.0

    def __post_init__(self) -> None:
        n = self.axis.n
        if self.values.shape != (n, n):
            raise ValueError(f"values shape {self.values.shape} != ({n}, {n})")


def default_axes(
    state: GaussianMixtureState,
    params: PhysParams,
    t_max: float = 0.0,
    n: int = _DEFAULT_N,
    widths: float = _EXTENT_WIDTHS,
) -> tuple[Axis, Axis]:
    """Axes covering a state's support over an evolution window [0, t_max].

    Extents are the initial mean, swept along the classical flow up to
    t_max, padded by ``widths`` combined standard deviations (initial plus
    accumulated QBM spreading).
    """
    mean, cov = moments(state)
    spread = qbm_covariance(t_max, params) if t_max > 0.0 else None
    sp = math.sqrt(cov.pp + (spread.pp if spread else 0.0))
    sq = math.sqrt(cov.qq + (spread.qq if spread else 0.0))
    q_drift = mean[1] + mean[0] * t_max / params.mass
    q_lo = min(mean[1], q_drift) - widths * sq
    q_hi = max(mean[1], q_drift) + widths * sq
    return (
        Axis(mean[0] - widths * sp, mean[0] + widths * sp, n),
        Axis(q_lo, q_hi, n),
    )


def wigner_grid_from_state(
    state: GaussianMixtureState, p_axis: Axis, q_axis: Axis
) -> PhaseSpaceGrid:
    """Sample a Gaussian-mixture Wigner function on a grid."""
    pp, qq = np.meshgrid(p_axis.points, q_axis.points, indexing="ij")
    return PhaseSpaceGrid(p_axis, q_axis, evaluate_state(state, pp, qq), state.hbar)


def density_matrix_from_state(
    state: GaussianMixtureState, axis: Axis
) -> DensityMatrixGrid:
    """Exact position-representation density matrix of a Gaussian mixture.

    Per term (centre (cp, cq), covariance S, modulation k, phase phi), with
    Xbar = (x+y)/2, xi = x - y, mu(Xbar) = cp + S_pq/S_qq (Xbar - cq) and
    v = S_pp - S_pq^2/S_qq:

      rho(x, y) = w * N(Xbar; cq, S_qq) * (1/2) * sum over eta = +-1 of
                  exp(i eta (kq Xbar + phi)) *
                  exp(i mu(Xbar) u_eta - v u_eta^2 / 2),

    u_eta = xi/hbar + eta*kp.  Unmodulated terms reduce to the familiar
    Gaussian-times-coherence-envelope form.
    """
    x = axis.points
    return DensityMatrixGrid(axis, _density_block(state, x, x), state.hbar)


def _density_block(
    state: GaussianMixtureState, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """rho(rows[i], cols[j]) of a Gaussian mixture; see density_matrix_from_state.

    Sampling a sub-block (e.g. only the rows a projector keeps) costs only
    that block's points and gives the same values entry by entry.
    """
    hbar = state.hbar
    xb = 0.5 * (rows[:, None] + cols[None, :])
    xi = rows[:, None] - cols[None, :]
    out = np.zeros(xb.shape, dtype=complex)
    for term in state.terms:
        marg, mu, v, _ = _conditional(term, xb)
        envelope = term.weight * marg
        kp, kq = term.k
        if kp == 0.0 and kq == 0.0 and term.phase == 0.0:
            u = xi / hbar
            out += envelope * np.exp(1j * mu * u - 0.5 * v * u * u)
            continue
        for eta in (+1.0, -1.0):
            u = xi / hbar + eta * kp
            out += 0.5 * envelope * np.exp(
                1j * eta * (kq * xb + term.phase) + 1j * mu * u - 0.5 * v * u * u
            )
    return out


# ---------------------------------------------------------------------------
# Wigner propagation


def _shear_q(values: np.ndarray, p_pts: np.ndarray, q_axis: Axis, lam: float) -> np.ndarray:
    """Pushforward along q -> q + lam*p: W'(p, q) = W(p, q - lam p).

    Each row is a 1-D cubic B-spline shift by lam*p_i: a mirror prefilter
    along q, then four taps weighted by the B-spline weights of the row's
    fractional shift.  This is the interpolant of the 2-D cubic
    ``map_coordinates(mode="constant")``, whose p-axis prefilter read at
    whole rows gives back its input; sources off [0, n_q - 1] give 0.

    The prefilter runs on the grid scaled by 2^e, which puts its peak near
    2^800, and the taps carry 2^-e back.  Both scalings are exact, so the
    result is the unscaled one; what changes is speed.  scipy's mirror start
    multiplies sample k by z^k, z = sqrt(3) - 2, down to z^(n_q - 1) ~ 1e-292
    at n_q = 512: on the unscaled grid every sample below ~1e-16 of the peak
    gives a subnormal product there, which costs 2-4x the prefilter time on
    decaying states.  Scaled, samples down to ~1e-257 of the peak stay
    normal, and so does 2^-e times the smallest tap (f^3/6 >= 1.7e-37, as
    shifts within 1e-12 of a whole cell snap to it).  The gain reaches only
    n_q up to about 540: beyond that z^k itself goes subnormal inside scipy.
    """
    n_p, n_q = values.shape
    peak = max(values.max(), -values.min())
    e = 800 - math.frexp(peak)[1] if 0.0 < peak < math.inf else 0
    # coefficients c[-1 .. n_q + 1], mirrored: c[-1] = c[1], c[n_q] = c[n_q - 2], ...
    coef = np.empty((n_p, n_q + 3))
    body = coef[:, 1:-2]
    np.ldexp(values, e, out=body)
    ndimage.spline_filter1d(body, order=3, axis=1, mode="mirror", output=body)
    coef[:, [0, -2, -1]] = coef[:, [2, -4, -5]]
    shift = -lam * p_pts / q_axis.step
    # whole cells within round-off snap to them, so sources on a grid end count
    shift = np.where(np.abs(shift - np.rint(shift)) < 1e-12, np.rint(shift), shift)
    k = np.floor(shift)
    f = (shift - k)[:, None]
    g = 1.0 - f
    taps = np.hstack([g ** 3, 3.0 * f ** 3 - 6.0 * f * f + 4.0,
                      3.0 * g ** 3 - 6.0 * g * g + 4.0, f ** 3]) / 6.0
    taps = np.ldexp(taps, -e)
    # wide[i, n_q + b]: row i's spline at b + f_i from c[b-1 .. b+2] for b in
    # [0, n_q - 1], with n_q zeros either side; row i of the result is the
    # n_q-wide window starting at b = k_i, so sources off [0, n_q - 1] read 0
    wide = np.zeros((n_p, 3 * n_q))
    np.matmul(sliding_window_view(coef, 4, axis=1), taps[:, :, None],
              out=wide[:, n_q:2 * n_q, None])
    wide[f[:, 0] > 0.0, 2 * n_q - 1] = 0.0  # source n_q - 1 + f_i is off the grid
    start = n_q + np.clip(k, -n_q, n_q).astype(np.intp)
    return sliding_window_view(wide, n_q, axis=1)[np.arange(n_p), start]


def _gauss1d(values: np.ndarray, var: float, step: float, axis: int) -> np.ndarray:
    """Gaussian blur of variance ``var`` along ``axis``, zero outside the grid.

    Returns ``values`` itself when the kernel truncated at 8 sigma has
    radius 0 (sigma under 1/16 cell): ``gaussian_filter1d``'s kernel is
    then the single tap 1.0, so the pass would only copy.
    """
    sigma = math.sqrt(var) / step if var > 0.0 else 0.0
    if int(8.0 * sigma + 0.5) == 0:
        return values
    return ndimage.gaussian_filter1d(values, sigma, axis=axis, mode="constant", truncate=8.0)


def propagate_wigner_qbm(
    w: PhaseSpaceGrid,
    t: float,
    params: PhysParams,
    check_mass: bool = True,
) -> PhaseSpaceGrid:
    """Evolve a gridded Wigner function for time t (negligible dissipation).

    Applies the exact decomposition of the Gaussian evolution kernel,
    A(t) = S_{t/2m} diag(2Dt, Dt^3/6m^2) S_{t/2m}^T: a shear by t/2m, the
    two axis-wise Gaussian blurs, and the shear again.  Each shear is a
    per-row 1-D cubic B-spline shift, the interpolant of a 2-D cubic spline.

    Raises when evolved mass leaks off the grid ("grid too small for
    requested time").
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"propagation time must be finite and non-negative, got {t}")
    if params.gamma != 0.0:
        raise ValueError("grid propagation requires negligible dissipation (gamma = 0)")
    if t == 0.0:
        return w
    m = params.mass
    d = params.D
    lam = 0.5 * t / m
    out = _shear_q(w.values, w.p.points, w.q, lam)
    if d > 0.0:
        out = _gauss1d(out, 2.0 * d * t, w.p.step, axis=0)
        out = _gauss1d(out, d * t ** 3 / (6.0 * m * m), w.q.step, axis=1)
    out = _shear_q(out, w.p.points, w.q, lam)
    result = w.with_values(out)
    if check_mass:
        before, after = w.integrate(), result.integrate()
        if abs(before) > 1e-12 and abs(after - before) > 1e-3 * abs(before):
            raise ValueError("grid too small for requested time")
    return result


# ---------------------------------------------------------------------------
# density-matrix propagation (spectral split-step)


def axis_straddling_zero(lo: float, hi: float, n: int) -> Axis:
    """Uniform axis covering [lo, hi] with x = 0 exactly mid-cell.

    Projection masks at the origin then split cleanly between samples, so
    no grid point needs a half weight.
    """
    if not (lo < 0.0 < hi):
        raise ValueError(f"range [{lo}, {hi}] must straddle zero")
    step = (hi - lo) / (n - 1)
    k = math.ceil(-lo / step - 0.5)
    return Axis(-(k + 0.5) * step, -(k + 0.5) * step + (n - 1) * step, n)


# Below 128 points a side, a two-worker fft2 + ifft2 pair is slower than
# one worker; above it the pair only gains (2 cores, median of 5: 32²
# 0.044 -> 0.149 ms, 64² 0.12 -> 0.24 ms, 128² 0.49 ms either way, 512²
# 10.4 -> 5.6 ms, 2048² 272 -> 170 ms).  Outputs are bit-identical.
_FFT_PARALLEL_MIN_N = 128


def _fft_workers(n: int) -> int:
    """scipy.fft worker count for an n x n step: every CPU in the affinity mask."""
    if n < _FFT_PARALLEL_MIN_N:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else (os.cpu_count() or 1)


def _apply_sum_kernel(spec: np.ndarray, table: np.ndarray) -> None:
    """spec[i, j] *= table[f_i + f_j + 2 (n // 2)] in place, f = n * fftfreq(n).

    In fftshift order the factor is the Hankel view table[i' + j']; the
    unshifted spectrum splits into four blocks that each map onto a
    contiguous window of that view, so no n x n factor is materialised.
    """
    n = spec.shape[0]
    h = n // 2
    hankel = sliding_window_view(table, n)
    # (unshifted slice, the same indices in fftshift order)
    blocks = ((slice(0, n - h), slice(h, n)), (slice(n - h, n), slice(0, h)))
    for rows, rows_shifted in blocks:
        for cols, cols_shifted in blocks:
            spec[rows, cols] *= hankel[rows_shifted, cols_shifted]


def _propagate_density_split_raw(
    values: np.ndarray, axis: Axis, t: float, params: PhysParams
) -> np.ndarray:
    """Spectrally exact density-matrix step (negligible dissipation).

    Works on raw, possibly one-sidedly projected, pair states.  Uses the
    exact factorisation of the evolution into a free half-step, a Gaussian
    noise channel, and another free half-step: free steps are diagonal in
    the momentum representation, the momentum noise multiplies by
    exp(-v_p (x-y)^2 / 2 hbar^2) in position space, and the position noise
    is diagonal in momentum space as exp(-v_q (k_x + k_y)^2 / 2), with
    v_p = 2 D t and v_q = D t^3 / 6 m^2.  No splitting error — the
    factorisation is algebraically exact — only periodic wrap-around.
    At D = 0 there is no channel between the half-steps, so the step is one
    free step: one ``fft2``, the full phase exp(-i hbar t k^2 / 2m), one
    ``ifft2``.

    ``values`` is left untouched: the first FFT writes a fresh array and
    every later FFT and factor works in place on it.  The free half-step
    is the outer product of a 1-D phase and its conjugate; the noise
    factors come from 1-D tables, because the position factor depends only
    on i - j and the momentum factor only on f_i + f_j.  With D > 0 the
    step raises "grid too small" when the result's two outermost rows or
    columns exceed 2e-3 of its peak magnitude.  At D = 0 a projected block
    keeps coherent algebraic tails that reach any finite box edge, so the
    check is off there.

    The FFTs (four with D > 0, two at D = 0) run on every CPU in the
    process affinity mask (one worker below 128 points a side, where
    threads cost more than they save); restrict the mask, e.g. with
    ``taskset``, to use fewer.  The worker count does not change a bit of
    the result.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"propagation time must be finite and non-negative, got {t}")
    if params.gamma != 0.0:
        raise ValueError("density propagator requires negligible dissipation (gamma = 0)")
    if t == 0.0:
        return values.astype(complex, copy=True)
    hbar, m, d = params.hbar, params.mass, params.D
    n, dx = axis.n, axis.step
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
    workers = _fft_workers(n)
    out = fft.fft2(values, workers=workers)
    if d == 0.0:
        # no noise channel between the half-steps: they are one free step
        full = np.exp(-0.5j * hbar * t * k * k / m)
        out *= full[:, None]
        out *= full.conj()[None, :]
        return fft.ifft2(out, overwrite_x=True, workers=workers)
    # exp(-i hbar (t/2) (k_x^2 - k_y^2) / 2m) = half[i] * conj(half[j])
    half = np.exp(-0.25j * hbar * t * k * k / m)
    half_bra = half.conj()
    out *= half[:, None]
    out *= half_bra[None, :]
    v_q = d * t ** 3 / (6.0 * m * m)
    # every value of k_i + k_j, from 2 min(f) to 2 max(f)
    f_sum = np.arange(-2 * (n // 2), 2 * ((n - 1) // 2) + 1)
    k_sum = (2.0 * math.pi / (n * dx)) * f_sum
    _apply_sum_kernel(out, np.exp(-0.5 * v_q * k_sum * k_sum))
    out = fft.ifft2(out, overwrite_x=True, workers=workers)
    v_p = 2.0 * d * t
    xi = (dx / hbar) * np.arange(-(n - 1), n)
    # read-only n x n view K[i, j] = table[n - 1 + j - i]; the table is
    # even in xi, so this is exp(-v_p (x_i - x_j)^2 / 2 hbar^2)
    out *= sliding_window_view(np.exp(-0.5 * v_p * xi * xi), n)[::-1]
    out = fft.fft2(out, overwrite_x=True, workers=workers)
    out *= half[:, None]
    out *= half_bra[None, :]
    out = fft.ifft2(out, overwrite_x=True, workers=workers)
    # the peak over row slabs, so no n x n magnitude array is formed
    peak = max(np.abs(out[i:i + 64]).max() for i in range(0, n, 64))
    border = max(
        np.abs(out[:2, :]).max(), np.abs(out[-2:, :]).max(),
        np.abs(out[:, :2]).max(), np.abs(out[:, -2:]).max(),
    )
    if peak > 0.0 and border > 2e-3 * peak:
        raise ValueError("grid too small for requested time")
    return out


# ---------------------------------------------------------------------------
# reductions


def slice_at_q0(w: PhaseSpaceGrid) -> np.ndarray:
    """W(p, q=0) by linear interpolation between the bracketing q-columns."""
    q = w.q
    if not (q.lo <= 0.0 <= q.hi):
        raise ValueError(f"q = 0 outside grid [{q.lo}, {q.hi}]")
    f = q.index_of(0.0)
    j = min(int(math.floor(f)), q.n - 2)
    frac = f - j
    return (1.0 - frac) * w.values[:, j] + frac * w.values[:, j + 1]
