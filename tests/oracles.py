"""Independent routes, kept only to check the library against.

None of these is used by qbflow itself: each recomputes a library quantity
(arrival current, master-equation right-hand sides and grid currents, Wigner
transform and evolution, the Wigner march's Gaussian blur, grid marginals and
traces, density-matrix blocks, linear crossing probabilities) through
different numerics, so agreement is a check of the engine.  The Gaussian
admissibility test pins the positivity time to its closed form.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from qbflow.arrival import _split_covariance
from qbflow.core_model import PhysParams, checked_schedule
from qbflow.gaussian_engine import (
    Cov2,
    GaussianMixtureState,
    _conditional,
    convolve_state,
    evaluate_state,
    husimi_smear,
    moments,
    qbm_covariance_comoving,
)
from qbflow.grid_engine import Axis, DensityMatrixGrid, PhaseSpaceGrid, default_axes
from qbflow.histories import survival_probability


def is_wigner_admissible(cov: Cov2, hbar: float) -> bool:
    """True when g(z; cov) is itself a valid Wigner function.

    A Gaussian phase-space function is the Wigner function of a (mixed)
    quantum state iff det(cov) >= hbar**2/4 (inclusive: equality is the
    minimum-uncertainty boundary).  Convolving any Wigner function with an
    admissible Gaussian therefore yields a pointwise non-negative result.
    """
    return cov.det() >= 0.25 * hbar * hbar and cov.pp >= 0.0 and cov.qq >= 0.0


def q_function_current(state: GaussianMixtureState, t: float, params: PhysParams) -> float:
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
    return _line_current(smeared, t, params.mass)


def _line_current(state: GaussianMixtureState, t: float, mass: float) -> float:
    """int dp (-p/m) W(p, -p t / m), 4001-point trapezoid over mean_p +- 9 sigma_p."""
    mean, cov = moments(state)
    sp = math.sqrt(cov.pp)
    p = np.linspace(mean[0] - 9.0 * sp, mean[0] + 9.0 * sp, 4001)
    line = evaluate_state(state, p, -p * t / mass)
    return float(np.trapezoid(-p / mass * line, p))


def povm_F_expectation(state: GaussianMixtureState, t: float, params: PhysParams) -> float:
    """Instantaneous arrival-rate operator paired with the Husimi function.

    Uses the per-time split A(t)~ = A0 + B(t): the symbol is the smeared
    weighted line density

        S_F(z) = -(1/m) [z_p - (B n)_p (n.z) / (n^T B n)]
                 * phi(n.z / sigma) / sigma,      sigma^2 = n^T B n,

    with n = (t/m, 1), by trapezoid on a 768² grid.  As B -> 0 this
    collapses back to the line integral of :func:`q_function_current`; the
    expectation equals the arrival current for any valid split.
    """
    if state.hbar != params.hbar:
        raise ValueError(f"state hbar {state.hbar!r} != params hbar {params.hbar!r}")
    s_val, a0, b = _split_covariance(t, params)
    mass = params.mass
    nvec = np.array([t / mass, 1.0])
    sig2 = float(nvec @ b.matrix() @ nvec)
    q_state = husimi_smear(state, s_val)
    if sig2 <= 0.0:
        # degenerate remainder: fall back to the sharp line integral
        return _line_current(q_state, t, mass)
    sig = math.sqrt(sig2)
    bn_p = float((b.matrix() @ nvec)[0])
    pax, qax = default_axes(q_state, params, t_max=0.0, n=768, widths=9.0)
    pp, qq = np.meshgrid(pax.points, qax.points, indexing="ij")
    q_vals = evaluate_state(q_state, pp, qq)
    ndotz = pp * nvec[0] + qq
    weight = pp - bn_p * ndotz / sig2
    gauss = np.exp(-0.5 * (ndotz / sig) ** 2) / (sig * math.sqrt(2.0 * math.pi))
    return PhaseSpaceGrid(pax, qax, -(1.0 / mass) * weight * gauss * q_vals).integrate()


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


def momentum_marginal(w: PhaseSpaceGrid) -> np.ndarray:
    """int dq W(p, q) per momentum row."""
    return np.trapezoid(w.values, dx=w.q.step, axis=1)


def position_marginal(w: PhaseSpaceGrid) -> np.ndarray:
    """int dp W(p, q) per position column."""
    return np.trapezoid(w.values, dx=w.p.step, axis=0)


def density_trace(rho: DensityMatrixGrid) -> float:
    """Trapezoid of the diagonal, Tr rho."""
    return float(np.trapezoid(np.real(np.diag(rho.values)), dx=rho.axis.step))


def hermiticity_defect(rho: DensityMatrixGrid) -> float:
    """max |rho - rho^dagger|."""
    return float(np.max(np.abs(rho.values - rho.values.conj().T)))


def density_block_direct(
    state: GaussianMixtureState, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """rho(rows[i], cols[j]) of a Gaussian mixture, one ``exp`` per entry.

    The formula of :func:`qbflow.grid_engine.density_matrix_from_state`
    evaluated entry by entry on the full (Xbar, xi) grid, for arbitrary
    row and column points; the library factors it into 1-D tables.
    """
    hbar = state.hbar
    xb = 0.5 * (rows[:, None] + cols[None, :])
    xi = rows[:, None] - cols[None, :]
    out = np.zeros(xb.shape, dtype=complex)
    margs, mus, vs, _ = _conditional(state._stacked.at(xb), xb)
    for term, marg, mu, v in zip(state.terms, margs, mus, vs):
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


def wigner_from_density(rho: DensityMatrixGrid) -> PhaseSpaceGrid:
    """Wigner transform by direct quadrature over the coherence coordinate.

    W(p, q_i) = (1/2 pi hbar) * sum_k e^{-i p xi_k / hbar}
                rho(q_i + k dx, q_i - k dx) * (2 dx),

    using the exact anti-diagonal samples xi_k = 2 k dx.  Hermiticity makes
    the +-k pairs combine into a manifestly real result.  The momentum axis
    spans the Nyquist window pi hbar / (2 dx).
    """
    axis = rho.axis
    n = axis.n
    dx = axis.step
    hbar = rho.hbar
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


def propagate_wigner_direct(w: PhaseSpaceGrid, t: float, params: PhysParams) -> PhaseSpaceGrid:
    """Evolve a gridded Wigner function by the literal QBM kernel (gamma = 0).

        K = N exp(-alpha (p-p0)^2 - beta v^2 + eps (p-p0) v),
        v = q - q0 - p0 t/m,
        alpha = 1/Dt, beta = 3m^2/Dt^3, eps = 3m/Dt^2,
        N = sqrt(3 m^2 / (4 pi^2 D^2 t^4)),

    by O(n^4) quadrature: simple, auditable, and limited to modest grids.
    """
    m = params.mass
    d = params.D
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
    return w.with_values(out)


def gauss1d_ndimage(values: np.ndarray, var: float, step: float, axis: int) -> np.ndarray:
    """Gaussian blur of variance ``var`` along ``axis`` by ``ndimage``.

    The 8-sigma ``gaussian_filter1d`` correlation with a zero boundary,
    which ``grid_engine._gauss1d`` computes as block-banded BLAS products.
    """
    sigma = math.sqrt(var) / step if var > 0.0 else 0.0
    return ndimage.gaussian_filter1d(values, sigma, axis=axis, mode="constant", truncate=8.0)


def linear_crossing_probabilities(
    state: GaussianMixtureState, boundaries, params: PhysParams
) -> np.ndarray:
    """Survival differences S(t_{k-1}) - S(t_k) over a time partition.

    The "linear" arrival probabilities: no projections are inserted, so
    they ignore interference between crossing at different intervals.
    """
    b = checked_schedule(boundaries, "boundaries")
    surv = np.array([survival_probability(state, t, params) for t in b])
    return -np.diff(surv)
