"""Brute-force grid representations and propagators.

Everything in here is deliberately direct: finite grids, interpolated
slices, exact factorisations of the evolution.  The grid engine is the
oracle that the closed-form Gaussian engine is validated against, so the
two share no numerical pathway — density matrices evolve by the exact
split-step factorisation of the QBM propagator on an FFT grid, and
Wigner grids keep the literal evolution kernel by quadrature as an oracle
next to its fast shear-and-blur decomposition.

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
    "wigner_from_density",
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

    def momentum_marginal(self) -> np.ndarray:
        """int dq W(p, q) per momentum row."""
        return np.trapezoid(self.values, dx=self.q.step, axis=1)

    def position_marginal(self) -> np.ndarray:
        return np.trapezoid(self.values, dx=self.p.step, axis=0)

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

    def trace(self) -> float:
        return float(np.trapezoid(np.real(np.diag(self.values)), dx=self.axis.step))

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.values - self.values.conj().T)))

    def diagonal(self) -> np.ndarray:
        return np.real(np.diag(self.values))

    def with_values(self, values: np.ndarray) -> "DensityMatrixGrid":
        return replace(self, values=values)


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
# transforms


def wigner_from_density(rho: DensityMatrixGrid, p_axis: Axis | None = None) -> PhaseSpaceGrid:
    """Wigner transform by direct quadrature over the coherence coordinate.

    W(p, q_i) = (1/2 pi hbar) * sum_k e^{-i p xi_k / hbar}
                rho(q_i + k dx, q_i - k dx) * (2 dx),

    using the exact anti-diagonal samples xi_k = 2 k dx.  Hermiticity makes
    the +-k pairs combine into a manifestly real result.  The default
    momentum axis spans the Nyquist window pi hbar / (2 dx).
    """
    axis = rho.axis
    n = axis.n
    dx = axis.step
    hbar = rho.hbar
    if p_axis is None:
        p_max = math.pi * hbar / (2.0 * dx) * (1.0 - 1.0 / n)
        p_axis = Axis(-p_max, p_max, n)
    kmax = n - 1
    # anti-diagonal extraction: add[k][i] = rho[i+k, i-k] where valid
    vals = rho.values
    re = np.zeros((kmax + 1, n))
    im = np.zeros((kmax + 1, n))
    for k in range(kmax + 1):
        i = np.arange(k, n - k)
        if i.size == 0:
            break
        d = vals[i + k, i - k]
        re[k, i] = d.real
        im[k, i] = d.imag
    xi = 2.0 * dx * np.arange(kmax + 1)
    ph = np.outer(p_axis.points, xi) / hbar
    cos_m, sin_m = np.cos(ph), np.sin(ph)
    w = cos_m @ re + sin_m @ im  # real part of e^{-i p xi} rho doubled below
    w = 2.0 * w - np.outer(cos_m[:, 0], re[0])  # k=0 term counted once
    w *= 2.0 * dx / (2.0 * math.pi * hbar)
    return PhaseSpaceGrid(p_axis, axis, w, hbar)


# ---------------------------------------------------------------------------
# Wigner propagation


def _shear_q(values: np.ndarray, p_pts: np.ndarray, q_axis: Axis, lam: float) -> np.ndarray:
    """Pushforward along q -> q + lam*p: W'(p, q) = W(p, q - lam p).

    Each row is a 1-D cubic B-spline shift by lam*p_i: a mirror prefilter
    along q, then four taps weighted by the B-spline weights of the row's
    fractional shift.  This is the interpolant of the 2-D cubic
    ``map_coordinates(mode="constant")``, whose p-axis prefilter read at
    whole rows gives back its input; sources off [0, n_q - 1] give 0.
    """
    n_p, n_q = values.shape
    # coefficients c[-1 .. n_q + 1], mirrored: c[-1] = c[1], c[n_q] = c[n_q - 2], ...
    coef = np.empty((n_p, n_q + 3))
    ndimage.spline_filter1d(values, order=3, axis=1, mode="mirror", output=coef[:, 1:-2])
    coef[:, [0, -2, -1]] = coef[:, [2, -4, -5]]
    shift = -lam * p_pts / q_axis.step
    # whole cells within round-off snap to them, so sources on a grid end count
    shift = np.where(np.abs(shift - np.rint(shift)) < 1e-12, np.rint(shift), shift)
    k = np.floor(shift)
    f = (shift - k)[:, None]
    g = 1.0 - f
    taps = np.hstack([g ** 3, 3.0 * f ** 3 - 6.0 * f * f + 4.0,
                      3.0 * g ** 3 - 6.0 * g * g + 4.0, f ** 3]) / 6.0
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
    if var <= 0.0:
        return values
    return ndimage.gaussian_filter1d(
        values, math.sqrt(var) / step, axis=axis, mode="constant", truncate=8.0
    )


def propagate_wigner_qbm(
    w: PhaseSpaceGrid,
    t: float,
    params: PhysParams,
    method: str = "fast",
    check_mass: bool = True,
) -> PhaseSpaceGrid:
    """Evolve a gridded Wigner function for time t (negligible dissipation).

    method="direct" applies the literal Gaussian evolution kernel

        K = N exp(-alpha (p-p0)^2 - beta v^2 + eps (p-p0) v),
        v = q - q0 - p0 t/m,
        alpha = 1/Dt, beta = 3m^2/Dt^3, eps = 3m/Dt^2,
        N = sqrt(3 m^2 / (4 pi^2 D^2 t^4)),

    by O(n^4) quadrature — simple, auditable, and the oracle for everything
    else, but limited to modest grids.

    method="fast" (default) applies the exact decomposition of the same
    kernel, A(t) = S_{t/2m} diag(2Dt, Dt^3/6m^2) S_{t/2m}^T: a shear by t/2m,
    the two axis-wise Gaussian blurs, and the shear again.  Each shear is a
    per-row 1-D cubic B-spline shift, the interpolant of a 2-D cubic spline.

    Raises when evolved mass leaks off the grid ("grid too small for
    requested time").
    """
    if t < 0.0:
        raise ValueError(f"propagation time must be non-negative, got {t}")
    if params.gamma != 0.0:
        raise ValueError("grid propagation requires negligible dissipation (gamma = 0)")
    if t == 0.0:
        return w
    m = params.mass
    d = params.D
    if method == "fast":
        lam = 0.5 * t / m
        out = _shear_q(w.values, w.p.points, w.q, lam)
        if d > 0.0:
            out = _gauss1d(out, 2.0 * d * t, w.p.step, axis=0)
            out = _gauss1d(out, d * t ** 3 / (6.0 * m * m), w.q.step, axis=1)
        out = _shear_q(out, w.p.points, w.q, lam)
    elif method == "direct":
        if d <= 0.0:
            raise ValueError("direct kernel method requires D > 0")
        if w.p.n * w.q.n > 170 * 170:
            raise ValueError("direct method is limited to grids up to ~170x170")
        # the kernel's thin principal width sqrt(det A / A_pp) must be
        # resolved, else the quadrature rides over a ridge it cannot see
        thin = math.sqrt(d * t ** 3 / 6.0) / m
        if thin < 1.2 * w.q.step:
            raise ValueError("grid too coarse for requested time")
        alpha = 1.0 / (d * t)
        beta = 3.0 * m * m / (d * t ** 3)
        epsl = 3.0 * m / (d * t * t)
        norm = math.sqrt(3.0 * m * m / (4.0 * math.pi ** 2 * d * d * t ** 4))
        p = w.p.points
        q = w.q.points
        wq = np.full(w.q.n, w.q.step)
        wq[[0, -1]] *= 0.5
        wp = np.full(w.p.n, w.p.step)
        wp[[0, -1]] *= 0.5
        src = w.values * (wp[:, None] * wq[None, :])
        out = np.zeros_like(w.values)
        for k0 in range(w.p.n):
            p0 = p[k0]
            dp = p - p0  # (n_p,)
            v = q[:, None] - q[None, :] - p0 * t / m  # (n_q out, n_q0)
            kern = np.exp(
                -alpha * dp[:, None, None] ** 2
                - beta * v[None, :, :] ** 2
                + epsl * dp[:, None, None] * v[None, :, :]
            )
            out += norm * np.einsum("ijl,l->ij", kern, src[k0])
    else:
        raise ValueError(f"unknown method {method!r}")
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

    ``values`` is left untouched: the first FFT writes a fresh array and
    every later FFT and factor works in place on it.  The free half-step
    is the outer product of a 1-D phase and its conjugate; the noise
    factors come from 1-D tables, because the position factor depends only
    on i - j and the momentum factor only on f_i + f_j.  With D > 0 the
    step raises "grid too small" when the result's two outermost rows or
    columns exceed 2e-3 of its peak magnitude.  At D = 0 a projected block
    keeps coherent algebraic tails that reach any finite box edge, so the
    check is off there.

    The four FFTs run on every CPU in the process affinity mask (one
    worker below 128 points a side, where threads cost more than they
    save); restrict the mask, e.g. with ``taskset``, to use fewer.  The
    worker count does not change a bit of the result.
    """
    if t < 0.0:
        raise ValueError(f"propagation time must be non-negative, got {t}")
    if params.gamma != 0.0:
        raise ValueError("density propagator requires negligible dissipation (gamma = 0)")
    if t == 0.0:
        return values.astype(complex, copy=True)
    hbar, m, d = params.hbar, params.mass, params.D
    n, dx = axis.n, axis.step
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
    # exp(-i hbar (t/2) (k_x^2 - k_y^2) / 2m) = half[i] * conj(half[j])
    half = np.exp(-0.25j * hbar * t * k * k / m)
    half_bra = half.conj()
    workers = _fft_workers(n)
    out = fft.fft2(values, workers=workers)
    out *= half[:, None]
    out *= half_bra[None, :]
    if d > 0.0:
        v_q = d * t ** 3 / (6.0 * m * m)
        # every value of k_i + k_j, from 2 min(f) to 2 max(f)
        f_sum = np.arange(-2 * (n // 2), 2 * ((n - 1) // 2) + 1)
        k_sum = (2.0 * math.pi / (n * dx)) * f_sum
        _apply_sum_kernel(out, np.exp(-0.5 * v_q * k_sum * k_sum))
    out = fft.ifft2(out, overwrite_x=True, workers=workers)
    if d > 0.0:
        v_p = 2.0 * d * t
        xi = (dx / hbar) * np.arange(-(n - 1), n)
        # read-only n x n view K[i, j] = table[n - 1 + j - i]; the table is
        # even in xi, so this is exp(-v_p (x_i - x_j)^2 / 2 hbar^2)
        out *= sliding_window_view(np.exp(-0.5 * v_p * xi * xi), n)[::-1]
    out = fft.fft2(out, overwrite_x=True, workers=workers)
    out *= half[:, None]
    out *= half_bra[None, :]
    out = fft.ifft2(out, overwrite_x=True, workers=workers)
    if d > 0.0:
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
