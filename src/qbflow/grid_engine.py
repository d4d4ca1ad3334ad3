"""Grid representations and propagators.

Everything in here works on finite grids.  States are sampled from the
closed-form Gaussian engine (``evaluate_state``, and its ``_conditional``
split for density matrices); from there the grid numerics are their own:
density matrices evolve by the exact split-step factorisation of the QBM
propagator on an FFT grid, and Wigner grids by the exact shear-and-blur
decomposition of the evolution kernel.  These propagators are library
routes in their own right (the crossing-class matrix of ``histories`` and
the restricted march of ``arrival`` run on them), and the tests hold them
against the exact engine.

Conventions: phase-space arrays are indexed ``values[i, j] = W(p_i, q_j)``;
density matrices are ``values[i, j] = rho(x_i, x_j)`` on a common uniform
axis.  All quadratures are trapezoidal.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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

    def __post_init__(self) -> None:
        if self.values.shape != (self.p.n, self.q.n):
            raise ValueError(
                f"values shape {self.values.shape} != axes ({self.p.n}, {self.q.n})"
            )

    def integrate(self) -> float:
        """Trapezoid rule on both axes: weights of one step, halved at both ends."""
        w_p, w_q = np.full(self.p.n, self.p.step), np.full(self.q.n, self.q.step)
        w_p[[0, -1]] *= 0.5
        w_q[[0, -1]] *= 0.5
        return float(w_p @ self.values @ w_q)

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


# ---------------------------------------------------------------------------
# worker pool


def _fft_workers() -> int:
    """Worker count of every grid pass: every CPU in the affinity mask.

    It is the scipy.fft ``workers`` of a split-step and the row-slab count
    of :func:`_map_row_slabs`; restrict the mask, e.g. with ``taskset``, to
    use fewer.  Without ``sched_getaffinity`` it is ``os.cpu_count()``.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else (os.cpu_count() or 1)


_pool_lock = threading.Lock()
_pool: list[ThreadPoolExecutor] = []  # filled once; no module binding changes
if hasattr(os, "register_at_fork"):
    # a forked child inherits the pool but none of its threads, so a slab
    # submitted there would never run: the child makes its own
    os.register_at_fork(after_in_child=_pool.clear)


def _grid_pool() -> ThreadPoolExecutor:
    """The grid passes' one thread pool, made on first use, ``_fft_workers()`` wide."""
    with _pool_lock:
        if not _pool:
            _pool.append(ThreadPoolExecutor(_fft_workers(), thread_name_prefix="qbflow-grid"))
        return _pool[0]


def _map_row_slabs(fn, n: int) -> list:
    """``[fn(rows) for rows in slabs]`` over n rows cut into one contiguous
    slice per worker, run side by side; the caller runs the first slab.

    The rows are whatever the caller cuts: grid rows, blocks of the blur,
    or, through :func:`_map_chunks`, the X columns of
    ``histories.delta_free``'s quadrature grids, the xi points of
    ``delta_exact`` or the ladders of ``delta_intermediate``.  Every slab
    task only computes (numpy and scipy release the GIL).  A slab
    function must never call ``_map_row_slabs`` itself, directly or
    through a library call: its inner slabs would queue behind the outer
    ones on the same workers, and the pool would wait on itself.  With
    one worker ``fn(slice(0, n))`` runs inline and no thread starts.  The
    call returns after every slab has finished, also when one raised.
    A slab that fills its part of a caller's array, with every reduction
    across slabs left to the caller, gives the same bits for any worker
    count.
    """
    workers = max(1, min(_fft_workers(), n))
    cuts = [n * k // workers for k in range(workers + 1)]
    slabs = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
    if workers == 1:
        return [fn(slabs[0])]
    futures = [_grid_pool().submit(fn, rows) for rows in slabs[1:]]
    try:
        first = fn(slabs[0])
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]


# entries of the row chunks that the workers of one pass hold at once in
# temporaries: 2^16, 1 MiB of complex or 512 KiB of float
_CHUNK_ENTRIES = 1 << 16


def _row_chunks(rows: slice, size: int):
    """``rows`` cut into consecutive slices of at most ``size`` rows."""
    return (slice(i, min(i + size, rows.stop)) for i in range(rows.start, rows.stop, size))


def _chunk_rows(row_entries: int) -> int:
    """Rows of ``row_entries`` entries per chunk: the chunks of all workers
    together hold ``_CHUNK_ENTRIES``, one row at the least."""
    return max(1, _CHUNK_ENTRIES // (row_entries * _fft_workers()))


def _map_chunks(fn, n: int, row_entries: int) -> list:
    """``fn(rows)`` for every chunk of every slab of :func:`_map_row_slabs`
    over n rows of ``row_entries`` entries, results in row order.

    Chunks are :func:`_chunk_rows` high, so the temporaries ``fn`` makes
    on all workers at once hold about ``_CHUNK_ENTRIES`` entries: whole-slab
    temporaries on the pool threads cost a seed-0 ``scenarios`` pass of
    the window quadratures about 4 MiB of peak memory, these chunks none.
    """
    size = _chunk_rows(row_entries)
    slabs = _map_row_slabs(lambda slab: [fn(rows) for rows in _row_chunks(slab, size)], n)
    return [result for slab in slabs for result in slab]


# ---------------------------------------------------------------------------
# sampling


def default_axes(
    state: GaussianMixtureState,
    params: PhysParams,
    t_max: float = 0.0,
    *,
    n: int,
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
    values = evaluate_state(state, p_axis.points[:, None], q_axis.points[None, :])
    return PhaseSpaceGrid(p_axis, q_axis, values)


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
    Gaussian-times-coherence-envelope form.  The matrix is built by
    :func:`_density_block` as a Hankel table in i + j times a Toeplitz
    table in i - j times a rank-1 phase, with no per-entry ``exp``.
    """
    values = np.empty((axis.n, axis.n), dtype=complex)
    _density_block(state, axis, 0, 0, values)
    return DensityMatrixGrid(axis, values, state.hbar)


def _density_block(
    state: GaussianMixtureState, axis: Axis, r0: int, c0: int, out: np.ndarray
) -> None:
    """Write rho(x_{r0+i}, x_{c0+j}) of a Gaussian mixture into ``out[i, j]``.

    ``out`` is the caller's (n_r, n_c) slice of a matrix on ``axis``, e.g.
    ``projected[cut:, :cut]`` with r0 = cut, c0 = 0; it is overwritten.
    Rows and columns lie on one uniform axis, so Xbar depends only on
    s = i + j and xi only on d = i - j.  Splitting mu(Xbar) u_eta (see
    :func:`density_matrix_from_state`) as

      cp u_eta + eta kp slope (Xbar - cq) + slope (Xbar - cq) xi / hbar,

    and writing the last part as slope ((x - cq)^2 - (y - cq)^2) / 2 hbar,
    each term and eta is the product of

    * a Hankel table in s: w N(Xbar; cq, S_qq)
      exp(i eta (kq Xbar + phi + slope (Xbar - cq) kp)),
    * a Toeplitz table in d: exp(i cp u_eta - v u_eta^2 / 2),
    * a rank-1 phase: exp(i slope (x - cq)^2 / 2 hbar) on rows times its
      conjugate at y on columns, centred at cq to keep its arguments small.

    Only the 1-D tables and phase vectors call ``exp``; the block is their
    products, the first term's formed in ``out`` itself.  Each worker of
    :func:`_map_row_slabs` fills one row slab in chunks
    :func:`_chunk_rows` high, with chunk buffers of its own for the later
    terms and the eta = -1 passes (none for one plain Gaussian).  Every
    entry is the same product whatever the worker count.  Entries agree
    with the per-entry formula to round-off, about 1e-13 of the peak.
    """
    n_r, n_c = out.shape
    hbar, dx = state.hbar, axis.step
    # Xbar over s = i + j; xi over e = j - i + n_r - 1, so that the
    # Toeplitz view below reads its table forwards
    idx = np.arange(n_r + n_c - 1)
    xbar = axis.lo + 0.5 * dx * (r0 + c0 + idx)
    xi = dx * (r0 - c0 + n_r - 1 - idx)
    x_rows = axis.lo + dx * np.arange(r0, r0 + n_r)
    x_cols = axis.lo + dx * np.arange(c0, c0 + n_c)
    s = state.terms
    margs, _, vs, slopes = _conditional(s.at(xbar), xbar)
    factors = []
    for w, (cp, cq), (kp, kq), phase, plain, marg, v, slope in zip(
        *(x.tolist() for x in (s.weight, s.center, s.k, s.phase, s.plain)), margs, vs, slopes
    ):
        envelope = w * marg
        # an unmodulated term's eta = -1 pass repeats eta = +1
        etas = (1.0,) if plain else (1.0, -1.0)
        views = []
        for eta in etas:
            u = xi / hbar + eta * kp
            hankel = envelope / len(etas) * np.exp(
                1j * eta * (kq * xbar + phase + slope * (xbar - cq) * kp)
            )
            toeplitz = np.exp(1j * cp * u - 0.5 * v * u * u)
            # [i, j] views: hankel[i + j] and toeplitz[j - i + n_r - 1]
            views.append(
                (sliding_window_view(hankel, n_c), sliding_window_view(toeplitz, n_c)[::-1])
            )
        row_phase = np.exp(0.5j * slope * (x_rows - cq) ** 2 / hbar)[:, None]
        col_phase = np.exp(-0.5j * slope * (x_cols - cq) ** 2 / hbar)
        factors.append((views, row_phase, col_phase))
    # the workers' buffers share one budget of _CHUNK_ENTRIES entries a plane
    step = _chunk_rows(n_c)
    modulated = any(len(views) > 1 for views, _, _ in factors)

    def fill(slab: slice) -> None:
        # a later term's product, and the eta = -1 pass of a modulated term
        m = min(step, slab.stop - slab.start)
        prod = np.empty((m, n_c), dtype=complex) if len(factors) > 1 else None
        extra = np.empty((m, n_c), dtype=complex) if modulated else None
        for rows in _row_chunks(slab, step):
            dst = out[rows]
            r = dst.shape[0]
            for k, (views, row_phase, col_phase) in enumerate(factors):
                acc = prod[:r] if k else dst
                (hankel, toeplitz), *rest = views
                np.multiply(hankel[rows], toeplitz[rows], out=acc)
                for hankel, toeplitz in rest:
                    acc += np.multiply(hankel[rows], toeplitz[rows], out=extra[:r])
                acc *= row_phase[rows]
                acc *= col_phase
                if k:
                    dst += acc

    _map_row_slabs(fill, n_r)


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

    Each worker of :func:`_map_row_slabs` prefilters, taps and gathers one
    row slab, with e taken from the whole grid, so every row comes out the
    same whatever the worker count.  The slabs share whole-grid buffers
    made by the caller: with buffers made in each slab, on the pool
    threads, a 512² march step took about 1760 minor page faults, against
    none.  The gather, whose fancy index makes a temporary of its rows,
    goes by row chunks :func:`_chunk_rows` high: a whole-slab temporary
    beside ``out`` cost a one-worker 512² march step about 500 minor
    faults, against none.
    """
    n_p, n_q = values.shape
    peak = max(values.max(), -values.min())
    e = 800 - math.frexp(peak)[1] if 0.0 < peak < math.inf else 0
    shift = -lam * p_pts / q_axis.step
    # whole cells within round-off snap to them, so sources on a grid end count
    shift = np.where(np.abs(shift - np.rint(shift)) < 1e-12, np.rint(shift), shift)
    k = np.floor(shift)
    f = (shift - k)[:, None]
    g = 1.0 - f
    taps = np.hstack([g ** 3, 3.0 * f ** 3 - 6.0 * f * f + 4.0,
                      3.0 * g ** 3 - 6.0 * g * g + 4.0, f ** 3]) / 6.0
    taps = np.ldexp(taps, -e)
    start = n_q + np.clip(k, -n_q, n_q).astype(np.intp)
    # coefficients c[-1 .. n_q + 1], mirrored: c[-1] = c[1], c[n_q] = c[n_q - 2], ...
    coef = np.empty((n_p, n_q + 3))
    # wide[i, n_q + b]: row i's spline at b + f_i from c[b-1 .. b+2] for b in
    # [0, n_q - 1], with n_q zeros either side; row i of the result is the
    # n_q-wide window starting at b = k_i, so sources off [0, n_q - 1] read 0
    wide = np.empty((n_p, 3 * n_q))
    out = np.empty((n_p, n_q))
    # views made once here: building one is Python work under the GIL,
    # which the slabs would take turns at
    coef_windows, spline = sliding_window_view(coef, 4, axis=1), wide[:, n_q:2 * n_q, None]
    sources, row_index = sliding_window_view(wide, n_q, axis=1), np.arange(n_p)
    off_grid = f[:, 0] > 0.0  # source n_q - 1 + f_i is off the grid
    gather_rows = _chunk_rows(n_q)

    def shear(rows: slice) -> None:
        body = coef[rows, 1:-2]
        np.ldexp(values[rows], e, out=body)
        ndimage.spline_filter1d(body, order=3, axis=1, mode="mirror", output=body)
        coef[rows, 0] = coef[rows, 2]
        coef[rows, -2] = coef[rows, -4]
        coef[rows, -1] = coef[rows, -5]
        wide[rows, :n_q] = 0.0
        wide[rows, 2 * n_q:] = 0.0
        np.matmul(coef_windows[rows], taps[rows, :, None], out=spline[rows])
        wide[rows][off_grid[rows], 2 * n_q - 1] = 0.0
        for part in _row_chunks(rows, gather_rows):
            out[part] = sources[row_index[part], start[part]]

    _map_row_slabs(shear, n_p)
    return out


# Output rows per BLAS product of the blur.  One march-sized p-axis blur,
# median of 30 with one OpenBLAS thread on a 2-core x86 host: 512², sigma
# 3.45 cells, 1.80 / 2.41 / 3.28 ms at 64 / 128 / 256 rows (ndimage
# 10.3 ms); 256², sigma 1.7 cells, 0.43 / 0.63 / 1.02 ms.  Smaller blocks
# multiply fewer band zeros.
_BLUR_BLOCK = 64


def _gauss1d(values: np.ndarray, var: float, step: float, axis: int) -> np.ndarray:
    """Gaussian blur of variance ``var`` along ``axis``, zero outside the grid.

    The kernel is ``gaussian_filter1d``'s at ``truncate=8``: weights
    exp(-x^2 / 2 sigma^2) on x = -r .. r, r = int(8 sigma + 0.5), summed to 1.
    The blur is a banded matrix times the grid, done by BLAS in blocks of
    ``_BLUR_BLOCK`` output rows: one Toeplitz block of the weights, b wide
    by b + 2r, sliced at the grid ends, times the input rows the block
    reaches, clipped to the grid.  The clipping is the zero boundary of
    ``mode="constant"``; taps that reach past the whole grid are dropped
    after the weights are summed, since they only ever meet zeros.  Axis 1
    runs the same products on transposed views.  ``gaussian_filter1d``
    walks the strided p axis of a C-ordered grid one scalar line at a
    time, which is about 5x slower at 512².  :func:`_map_row_slabs` hands
    each worker a run of whole blocks, so every block is the same product
    whatever the worker count.

    Returns ``values`` itself when the kernel has radius 0 (sigma under
    1/16 cell): it is then the single tap 1.0, so the pass would only copy.
    """
    sigma = math.sqrt(var) / step if var > 0.0 else 0.0
    r = int(8.0 * sigma + 0.5)
    if r == 0:
        return values
    x = np.arange(-r, r + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    phi /= phi.sum()
    out = np.empty_like(values)
    src, dst = (values, out) if axis == 0 else (values.T, out.T)
    n = src.shape[0]
    # taps more than n - 1 rows out never reach the grid
    if r >= n:
        phi, r = phi[r - n + 1:r + n], n - 1
    b = min(_BLUR_BLOCK, n)
    # band[i, j] = phi[j - i]: output row i0 + i from input rows i0 - r + j
    band = np.ascontiguousarray(sliding_window_view(np.pad(phi, b - 1), b + 2 * r)[::-1])

    def blur(blocks: slice) -> None:
        for i0 in range(blocks.start * b, min(blocks.stop * b, n), b):
            i1 = min(i0 + b, n)
            lo, hi = max(i0 - r, 0), min(i1 + r, n)
            np.matmul(band[:i1 - i0, lo - i0 + r:hi - i0 + r], src[lo:hi], out=dst[i0:i1])

    _map_row_slabs(blur, -(-n // b))
    return out


def propagate_wigner_qbm(w: PhaseSpaceGrid, t: float, params: PhysParams) -> PhaseSpaceGrid:
    """Evolve a gridded Wigner function for time t (negligible dissipation).

    Applies the exact decomposition of the Gaussian evolution kernel,
    A(t) = S_{t/2m} diag(2Dt, Dt^3/6m^2) S_{t/2m}^T: a shear by t/2m, the
    two axis-wise Gaussian blurs, and the shear again.  Each shear is a
    per-row 1-D cubic B-spline shift, the interpolant of a 2-D cubic spline.
    Each blur is a block-banded matrix product done by BLAS (``_gauss1d``),
    with ``gaussian_filter1d``'s 8-sigma kernel and zero boundary.  Shears
    and blurs run on every CPU in the affinity mask, by row slab and by
    block (:func:`_map_row_slabs`); the worker count does not change a bit
    of the result.

    Every step raises "grid too small for requested time" when its
    trapezoid mass moves by more than 1e-3 of itself (unless it started
    within 1e-12 of zero): mass leaked off the axes, or a grid too coarse
    for the state.  For a Gaussian (p0, q0, sigma) = (-4, 4, 1) at D = 0.5,
    steps of 0.1 moved it by 9.0e-3 at 16² and 6.4e-13 at 64².
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


# Entries of padding per row of a split-step working array.  One D = 1
# step (2 shared cores, median of 7 alternating runs) with pads of 0, 8,
# 16 and 64 took 2085, 1394, 1431 and 1447 ms at n = 4096, and 393, 337,
# 355 and 358 ms at n = 2048.
_ROW_PAD = 8


def _work_array(n: int) -> np.ndarray:
    """An uninitialised n x n complex working array for the split-step.

    The array is a view into an (n, n + ``_ROW_PAD``) buffer.  Unpadded, a
    row of a power-of-two grid is a power of two in bytes, so the strided
    column pass of each 2-D FFT maps a column onto the same cache sets (at
    n = 4096 a step took about 1.5x as long).  pocketfft computes each line
    the same way whatever its stride, so the padding changes no bit.
    """
    return np.empty((n, n + _ROW_PAD), dtype=complex)[:, :n]


def _apply_phases(values: np.ndarray, rows: slice, ket: np.ndarray, bra: np.ndarray) -> None:
    """values[i, j] *= ket[i], then *= bra[j], in place for i in ``rows``."""
    block = values[rows]
    block *= ket[rows, None]
    block *= bra


def _apply_sum_kernel(spec: np.ndarray, rows: slice, table: np.ndarray) -> None:
    """spec[i, j] *= table[f_i + f_j + 2 (n // 2)] in place for i in ``rows``,
    f = n * fftfreq(n).

    In fftshift order the factor is the Hankel view table[i' + j'], with
    i' = (i + n // 2) mod n; the unshifted spectrum splits into four blocks
    that each map onto a contiguous window of that view, so no n x n factor
    is materialised.
    """
    n = spec.shape[1]
    h = n // 2
    hankel = sliding_window_view(table, n)
    # (unshifted slice, the same indices in fftshift order)
    blocks = ((slice(0, n - h), slice(h, n)), (slice(n - h, n), slice(0, h)))
    for block, block_shifted in blocks:
        lo, hi = max(block.start, rows.start), min(block.stop, rows.stop)
        if lo >= hi:
            continue
        shift = block_shifted.start - block.start
        for cols, cols_shifted in blocks:
            spec[lo:hi, cols] *= hankel[lo + shift:hi + shift, cols_shifted]


def _propagate_density_split_raw(
    values: np.ndarray, axis: Axis, t: float, params: PhysParams
) -> np.ndarray:
    """Spectrally exact density-matrix step (negligible dissipation), in place.

    Works on raw, possibly one-sidedly projected, pair states.  Uses the
    exact factorisation of the evolution into a free half-step, a Gaussian
    noise channel, and another free half-step: free steps are diagonal in
    the momentum representation, the momentum noise multiplies by
    exp(-v_p (x-y)^2 / 2 hbar^2) in position space, and the position noise
    is diagonal in momentum space as exp(-v_q (k_x + k_y)^2 / 2), with
    v_p = 2 D t and v_q = D t^3 / 6 m^2.  No splitting error — the
    factorisation is algebraically exact — only periodic wrap-around.
    There is one path, four FFTs: at D = 0 both noise factors are exactly
    1 and the two half-steps make the free step.

    ``values`` must be an aligned complex128 n x n array (``TypeError``
    otherwise).  Every FFT and factor works in place in it, and the step
    returns ``values`` itself, holding the result; at t = 0 it is returned
    unchanged.  A :func:`_work_array` gives the FFTs their best row stride.

    The free half-step is the outer product of a 1-D phase and its
    conjugate; the noise factors come from 1-D tables, because the position
    factor depends only on i - j and the momentum factor only on f_i + f_j.
    With D > 0 the step raises "grid too small" when the result's two
    outermost rows or columns exceed 2e-3 of its peak magnitude.  The peak
    is taken off the diagonal first; only when the border does not clear
    the bound against it is the whole matrix scanned, in row slabs.  The
    diagonal's peak never exceeds the true one, so the check is exact for
    any input.  At D = 0 a projected block keeps coherent algebraic tails
    that reach any finite box edge, so the check is off there.

    Every pass runs on every CPU in the process affinity mask, at every
    grid size: the four FFTs through scipy.fft's ``workers``, and the
    factor multiplies and the border scan by row slab through
    :func:`_map_row_slabs`.  Restrict the mask, e.g. with ``taskset``, to
    use fewer.  The worker count does not change a bit of the result.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"propagation time must be finite and non-negative, got {t}")
    if params.gamma != 0.0:
        raise ValueError("density propagator requires negligible dissipation (gamma = 0)")
    if values.dtype != np.complex128 or not values.flags.aligned:
        # scipy.fft would return a transformed copy and leave values as it was
        raise TypeError(f"the split-step works in place on aligned complex128, got {values.dtype}")
    if t == 0.0:
        return values
    hbar, m, d = params.hbar, params.mass, params.D
    n, dx = axis.n, axis.step
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
    workers = _fft_workers()
    fft.fft2(values, overwrite_x=True, workers=workers)
    # exp(-i hbar (t/2) (k_x^2 - k_y^2) / 2m) = half[i] * conj(half[j])
    half = np.exp(-0.25j * hbar * t * k * k / m)
    half_bra = half.conj()
    v_q = d * t ** 3 / (6.0 * m * m)
    # every value of k_i + k_j, from 2 min(f) to 2 max(f)
    f_sum = np.arange(-2 * (n // 2), 2 * ((n - 1) // 2) + 1)
    k_sum = (2.0 * math.pi / (n * dx)) * f_sum
    sum_table = np.exp(-0.5 * v_q * k_sum * k_sum)

    def half_and_position_noise(rows: slice) -> None:
        _apply_phases(values, rows, half, half_bra)
        _apply_sum_kernel(values, rows, sum_table)

    _map_row_slabs(half_and_position_noise, n)
    fft.ifft2(values, overwrite_x=True, workers=workers)
    v_p = 2.0 * d * t
    xi = (dx / hbar) * np.arange(-(n - 1), n)
    # read-only n x n view K[i, j] = table[n - 1 + j - i]; the table is
    # even in xi, so this is exp(-v_p (x_i - x_j)^2 / 2 hbar^2).  It is
    # complex because numpy casts a real operand of a complex multiply in
    # buffered chunks, which made the multiply about 1.4x as long at n = 4096
    coherence = sliding_window_view(np.exp(-0.5 * v_p * xi * xi).astype(complex), n)[::-1]

    def momentum_noise(rows: slice) -> None:
        values[rows] *= coherence[rows]

    _map_row_slabs(momentum_noise, n)
    fft.fft2(values, overwrite_x=True, workers=workers)
    _map_row_slabs(lambda rows: _apply_phases(values, rows, half, half_bra), n)
    fft.ifft2(values, overwrite_x=True, workers=workers)
    if d == 0.0:
        return values
    border = max(
        np.abs(values[:2, :]).max(), np.abs(values[-2:, :]).max(),
        np.abs(values[:, :2]).max(), np.abs(values[:, -2:]).max(),
    )
    peak = np.abs(np.diagonal(values)).max()
    if border > 2e-3 * peak:
        # the peak over row chunks, so no n x n magnitude array is formed
        peak = max(_map_chunks(lambda rows: np.abs(values[rows]).max(), n, n))
        if border > 2e-3 * peak:
            raise ValueError("grid too small for requested time")
    return values


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
