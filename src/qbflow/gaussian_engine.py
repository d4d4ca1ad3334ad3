"""Exact phase-space engine for Gaussian-mixture Wigner functions.

States are finite sums of (optionally modulated) Gaussian terms

    W(z) = sum_j  w_j * g(z - c_j; S_j) * cos(k_j . z + phi_j),

with z = (p, q) and g(z; A) the normalised bivariate Gaussian.  This family
is closed under the quantum-Brownian-motion evolution (a linear flow plus a
Gaussian convolution), so single Gaussians, spatial cat states and
two-momentum superpositions propagate without any grid error.

One algebra acts on every term.  A state is nothing but its terms stacked
into read-only arrays (:class:`_Terms`) along a leading terms axis; inside
the engine optional time axes follow it, so one call evolves a mixture to
every sample time at once.  The flow and the convolution are batched
``matmul``, ``solve`` and ``vecdot`` on these arrays
(:func:`_propagate_stacked`), every reduction is an array expression over
the terms axis, summed at the end, and each resulting state is built
straight from the arrays.  The closed forms, in particular those of the
modulated (interference) terms under shear and convolution, are
cross-validated against the brute-force grid kernels in the test-suite.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import erfcx

from .core_model import PhysParams

__all__ = [
    "Cov2",
    "GaussianMixtureState",
    "convolve_state",
    "qbm_covariance",
    "qbm_covariance_comoving",
    "qbm_covariance_entries",
    "qbm_flow_entries",
    "propagate_mixture",
    "moments",
    "make_gaussian_state",
    "make_cat_state",
    "make_two_momentum_state",
    "shift_state",
    "reflect_state",
    "evaluate_state",
    "position_density",
    "husimi_smear",
]

# Relative floor applied when checking covariance eigenvalues: anything
# above -1e-12 * scale counts as positive semi-definite.
_EIG_FLOOR = 1e-12

_NORM_TOL = 1e-10  # mixture normalisation tolerance

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Cov2:
    """Symmetric 2x2 phase-space covariance in (p, q) ordering."""

    pp: float
    pq: float
    qq: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.pp) and math.isfinite(self.pq) and math.isfinite(self.qq)):
            raise ValueError(f"covariance entries must be finite: {self}")
        scale = max(abs(self.pp), abs(self.qq), abs(self.pq), 1e-300)
        if min(self.pp, self.qq) < -_EIG_FLOOR * scale:
            raise ValueError(f"covariance has negative diagonal: {self}")
        # the determinant of the entries over scale, which cannot overflow
        pp, pq, qq = self.pp / scale, self.pq / scale, self.qq / scale
        if pp * qq - pq * pq < -_EIG_FLOOR:
            raise ValueError(f"covariance is indefinite: {self}")

    @classmethod
    def from_matrix(cls, m) -> "Cov2":
        m = np.asarray(m, dtype=float)
        if m.shape != (2, 2):
            raise ValueError(f"expected 2x2 matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError(f"covariance entries must be finite: {m.tolist()}")
        if not math.isclose(m[0, 1], m[1, 0], rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError("covariance matrix must be symmetric")
        return cls(pp=float(m[0, 0]), pq=float(0.5 * (m[0, 1] + m[1, 0])), qq=float(m[1, 1]))

    def matrix(self) -> np.ndarray:
        return np.array([[self.pp, self.pq], [self.pq, self.qq]])

    def det(self) -> float:
        return self.pp * self.qq - self.pq * self.pq

    def transform(self, m) -> "Cov2":
        """Congruence M @ cov @ M.T for a 2x2 linear map M."""
        m = np.asarray(m, dtype=float)
        return Cov2.from_matrix(m @ self.matrix() @ m.T)


def qbm_covariance(t: float, params: PhysParams) -> Cov2:
    """Phase-space spreading accumulated by the QBM evolution over time t.

    For negligible dissipation (gamma = 0) this is

        A(t) = D*t * [[2,     t/m    ],
                      [t/m,   2t^2/3m^2]],

    with det A = D^2 t^4 / (3 m^2).  For gamma > 0 the entries pick up the
    exact exponential relaxation factors (they reduce to the above as
    gamma -> 0); the noise feeding position diffusion directly is the
    hbar^2 b^2 term of the master equation.
    """
    return Cov2(*(float(x) for x in qbm_covariance_entries(np.float64(t), params)))


# lam (t - 2 T1 + T2) = sum_{n>=3} (-1)^n (2 - 2^(n-1)) x^n / n!, here as
# coefficients of x^(n-3) through n = 24.  Against 40-digit arithmetic the
# series stays within 5e-16 relative for x < 1, where the closed form errs
# by up to 2e-15 (4.7e-14 at x = 0.1); above x = 1 the closed form is within
# 1e-15 and the truncated series falls behind.
_SERIES_MAX_X = 1.0
_QQ_SERIES = np.array([(-1) ** n * (2 - 2 ** (n - 1)) / math.factorial(n) for n in range(3, 25)])


# math.pow and math.exp as (object) ufuncs.  numpy's vectorised power and exp
# round a few percent of results differently from the C library's scalar
# calls; the propagation takes the library's for arrays too, so that stacking
# terms and times keeps each result bit-identical to one term at one time.
def _libm_cube(x: float) -> float:
    """math.pow(x, 3), or the signed inf numpy's scalar power gives where that overflows."""
    try:
        return math.pow(x, 3.0)
    except OverflowError:
        return math.copysign(math.inf, x)


_LIBM_CUBE = np.frompyfunc(_libm_cube, 1, 1)
_LIBM_EXP = np.frompyfunc(math.exp, 1, 1)


def _cube(x):
    """x**3 through the C library's pow, for scalars (which numpy sends there) and arrays."""
    return np.asarray(_LIBM_CUBE(x), dtype=float) if isinstance(x, np.ndarray) else x ** 3


def qbm_covariance_entries(t, params: PhysParams):
    """(pp, pq, qq) of :func:`qbm_covariance`, elementwise over an array t.

    Every exact evolution reads these, so this is the engine's one time check.
    """
    if not (isinstance(t, float) and 0.0 <= t < math.inf):
        bad = np.asarray(t, dtype=float).ravel()
        bad = bad[~((bad >= 0.0) & (bad < math.inf))].tolist()
        if bad:
            raise ValueError(f"propagation time must be finite and non-negative, got {bad[0]!r}")
    m = params.mass
    if params.gamma == 0.0:
        # past the double range these overflow to inf, which the finiteness checks refuse
        with np.errstate(over="ignore", invalid="ignore"):
            d = params.D
            return 2.0 * d * t, d * t * t / m, 2.0 * d * _cube(t) / (3.0 * m * m)
    lam = 2.0 * params.gamma
    n1 = 2.0 * params.D
    n2 = params.hbar ** 2 * params.b ** 2
    x = lam * t
    # T1 = (1 - e^{-x})/lam, T2 = (1 - e^{-2x})/(2 lam): T1 - T2 = expm1(-x)^2/(2 lam)
    # exactly, but t - 2*T1 + T2 cancels to O(x^3), so x < 1 takes its series
    # (on x capped at 1, so that the discarded branch cannot overflow).
    em1 = np.expm1(-x)
    t1 = -em1 / lam
    t2 = -np.expm1(-2.0 * x) / (2.0 * lam)
    xs = np.minimum(x, _SERIES_MAX_X)
    series = _cube(xs) * np.polynomial.polynomial.polyval(xs, _QQ_SERIES) / lam
    qq_b = np.where(x < _SERIES_MAX_X, series, t - 2.0 * t1 + t2)
    return n1 * t2, n1 * (em1 * em1 / (2.0 * lam)) / (lam * m), n1 * qq_b / (lam * m) ** 2 + n2 * t


def qbm_flow_entries(t, params: PhysParams):
    """(decay, drift) of the flow z(t) = [[decay, 0], [drift, 1]] z(0), elementwise over t.

    The flow is the deterministic part of the evolution: pure shear, decay = 1 and drift = t/m, for gamma = 0; with dissipation the
    momentum row relaxes as e^{-2 gamma t}.
    """
    m = params.mass
    if params.gamma == 0.0:
        return np.ones_like(t), t / m
    lam = 2.0 * params.gamma
    return np.exp(-lam * t), -np.expm1(-lam * t) / (lam * m)


def qbm_covariance_comoving(t: float, params: PhysParams) -> Cov2:
    """Spreading expressed in the frame dragged back along the free flow.

    This is T_t A(t) T_t^T with T_t the inverse flow; for gamma = 0 it is
    D*t*[[2, -t/m], [-t/m, 2t^2/3m^2]].  It is the natural smearing of the
    *initial* Wigner function when currents are written as line integrals
    over classical crossing loci.
    """
    decay, drift = qbm_flow_entries(np.float64(t), params)
    flow_inv = np.linalg.inv(np.array([[decay, 0.0], [drift, 1.0]]))
    return qbm_covariance(t, params).transform(flow_inv)


# ---------------------------------------------------------------------------
# terms and states


# per-term scalar fields of stacked terms, shaped to broadcast against points
_Scalars = namedtuple("_Scalars", "w cp cq pp pq qq kp kq phase")


class _Terms(NamedTuple):
    """A mixture's terms as arrays, terms along the leading axis.

    weight and phase are (terms, *T), center and k (terms, *T, 2) in (p, q)
    order and cov (terms, *T, 2, 2), where the optional axes T carry times.
    """

    weight: np.ndarray
    center: np.ndarray
    cov: np.ndarray
    k: np.ndarray
    phase: np.ndarray

    def at(self, q) -> _Scalars:
        """The scalar fields, each with one unit axis per axis of the points q appended."""
        pad = (...,) + (None,) * np.ndim(q)
        c, cov, k = self.center, self.cov, self.k
        fields = (self.weight, c[..., 0], c[..., 1], cov[..., 0, 0], cov[..., 0, 1],
                  cov[..., 1, 1], k[..., 0], k[..., 1], self.phase)
        return _Scalars(*(x[pad] for x in fields))

    @property
    def plain(self) -> np.ndarray:
        """Unmodulated terms, k = 0 and phase = 0: their cosine is 1."""
        return (self.k == 0.0).all(axis=-1) & (self.phase == 0.0)


def _mass(s: _Terms) -> float:
    """Exact integral of the time-free terms s, sum_j w exp(-k^T S k / 2) cos(k . c + phase).

    Scalar arithmetic term by term, so no term's share depends on the terms stacked with it.
    """
    return sum(
        w * math.exp(-0.5 * (kp * kp * pp + 2.0 * kp * kq * pq + kq * kq * qq))
        * math.cos(kp * cp + kq * cq + phase)
        for w, (cp, cq), ((pp, pq), (_, qq)), (kp, kq), phase in zip(*(x.tolist() for x in s))
    )


@dataclass(frozen=True, eq=False)
class GaussianMixtureState:
    """A normalised Wigner function represented as a Gaussian mixture.

    ``terms`` are the arrays (weight, center, cov, k, phase) of the terms
    w g(z - c; S) cos(k . z + phase), one term per row: weight and phase
    (n,), center and k (n, 2) in (p, q) order, cov (n, 2, 2).  Any five
    array-likes in that order will do.  The state keeps them as a
    :class:`_Terms` of C-contiguous, read-only float64 copies (the layout
    the propagation's batched ``matmul`` and ``solve`` round for), so it
    never changes and threads can share it.  Arrays neither compare nor
    hash, so states compare by identity.
    """

    terms: _Terms
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if len(self.terms) != len(_Terms._fields):
            raise ValueError(f"mixture terms are the {len(_Terms._fields)} arrays "
                             f"{_Terms._fields}, got {len(self.terms)}")
        s = _Terms(*(np.array(x, dtype=float, order="C") for x in self.terms))
        n = s.weight.shape[:1]
        if s.weight.ndim != 1 or any(
            x.shape != n + e for x, e in zip(s, ((), (2,), (2, 2), (2,), ()))
        ):
            got = ", ".join(f"{name} {x.shape}" for name, x in zip(s._fields, s))
            raise ValueError("mixture terms need weight (n,), center (n, 2), cov (n, 2, 2), "
                             f"k (n, 2) and phase (n,), got {got}")
        if not n[0]:
            raise ValueError("mixture needs at least one term")
        for x in s:
            bad = x[~np.isfinite(x)]
            if bad.size:
                raise ValueError(f"mixture terms must be finite, got {float(bad[0])!r}")
            x.flags.writeable = False
        # Cov2's rules and diagnostics, term by term (a mixture has few terms)
        for (pp, pq), (qp, qq) in s.cov.tolist():
            if pq != qp:
                raise ValueError("covariance matrix must be symmetric")
            Cov2(pp, pq, qq)
        object.__setattr__(self, "terms", s)
        total = self.total_mass()
        if not abs(total - 1.0) <= _NORM_TOL:
            raise ValueError(f"mixture not normalised: integral = {total!r}")

    def total_mass(self) -> float:
        return _mass(self.terms)


def _packet_cov(sigma: float, hbar: float) -> list:
    """diag(hbar^2 / 4 sigma^2, sigma^2), the minimum-uncertainty covariance of width sigma."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    den = 4.0 * sigma * sigma
    pp, qq = (hbar * hbar / den if den > 0.0 else math.inf), sigma * sigma
    if not (0.0 < pp < math.inf and 0.0 < qq < math.inf):
        raise ValueError(f"sigma = {sigma!r} is out of range: the covariance diag({pp!r}, {qq!r}) "
                         "must be positive and finite")
    return [[pp, 0.0], [0.0, qq]]


def make_gaussian_state(
    p0: float, q0: float, sigma: float, hbar: float = 1.0
) -> GaussianMixtureState:
    """Minimum-uncertainty Gaussian: position width sigma, momentum width hbar/2 sigma."""
    cov = _packet_cov(sigma, hbar)
    return GaussianMixtureState(([1.0], [(p0, q0)], [cov], [(0.0, 0.0)], [0.0]), hbar=hbar)


def make_cat_state(
    separation: float, p0: float, sigma: float, hbar: float = 1.0
) -> GaussianMixtureState:
    """Even superposition of two Gaussians separated by ``separation`` in position.

    Both lobes move with momentum p0.  The Wigner function has lobes at
    q = +-separation/2 and an interference fringe at q = 0 oscillating in p
    with wavevector separation/hbar:

        W = c^2 [ g(z - z_+; S) + g(z - z_-; S)
                  + 2 g(z - z_0; S) cos((p - p0) * separation / hbar) ],

    c^2 = 1 / (2 (1 + exp(-separation^2 / 8 sigma^2))).
    """
    if sigma <= 0.0 or separation <= 0.0:
        raise ValueError("sigma and separation must be positive")
    cov = _packet_cov(sigma, hbar)
    try:
        c2 = 1.0 / (2.0 * (1.0 + math.exp(-separation ** 2 / (8.0 * sigma ** 2))))
    except OverflowError:
        raise ValueError(f"separation = {separation!r} is out of range: its square "
                         "overflows") from None
    half = 0.5 * separation
    kp = separation / hbar
    # fringe: cos((p - p0) d / hbar) = cos(k.z + phase), k = (d/hbar, 0)
    return GaussianMixtureState(
        ([c2, c2, 2.0 * c2], [(p0, +half), (p0, -half), (p0, 0.0)], [cov] * 3,
         [(0.0, 0.0), (0.0, 0.0), (kp, 0.0)], [0.0, 0.0, -p0 * kp]),
        hbar=hbar,
    )


def shift_state(
    state: GaussianMixtureState, dp: float = 0.0, dq: float = 0.0
) -> GaussianMixtureState:
    """Rigid phase-space translation W(p, q) -> W(p - dp, q - dq).

    Exact on every term: centres move, and modulation phases pick up
    -k . (dp, dq) so each fringe keeps its value relative to the packet.
    """
    s = state.terms
    phase = s.phase - s.k[:, 0] * dp - s.k[:, 1] * dq
    return GaussianMixtureState(s._replace(center=s.center + (dp, dq), phase=phase), state.hbar)


def reflect_state(state: GaussianMixtureState) -> GaussianMixtureState:
    """Parity image W(p, q) -> W(-p, -q): the state reflected through the origin.

    It is the linear flow -1: centres and modulation wavevectors change
    sign, weights, covariances and phases are kept.  The QBM evolution commutes
    with parity, so P_left and P_right trade places under it.
    """
    return GaussianMixtureState(_flowed(state.terms, -np.eye(2)), state.hbar)


def make_two_momentum_state(
    p1: float,
    p2: float,
    q0: float,
    sigma: float,
    ratio: float = 1.0,
    rel_phase: float = 0.0,
    hbar: float = 1.0,
) -> GaussianMixtureState:
    """Superposition of two plane-wave momenta under one Gaussian envelope.

    psi(x) ~ (e^{i p1 x / hbar} + ratio * e^{i(p2 x / hbar + rel_phase)})
             * G_sigma(x - q0).

    The fringe sits at the mean momentum and oscillates in position with
    wavevector (p1 - p2)/hbar — the textbook source of arrival-time
    backflow when both momenta are negative.
    """
    cov = _packet_cov(sigma, hbar)
    if ratio <= 0.0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    kq = (p1 - p2) / hbar
    s = _Terms(*(np.array(x, dtype=float) for x in (
        [1.0, ratio * ratio, 2.0 * ratio], [(p1, q0), (p2, q0), (0.5 * (p1 + p2), q0)],
        [cov] * 3, [(0.0, 0.0), (0.0, 0.0), (0.0, kq)], [0.0, 0.0, -rel_phase])))
    total = _mass(s)
    if total <= 0.0:
        raise ValueError(f"cannot normalise terms with total mass {total!r}")
    return GaussianMixtureState(s._replace(weight=s.weight / total), hbar=hbar)


# ---------------------------------------------------------------------------
# evaluation


def evaluate_state(state: GaussianMixtureState, p, q):
    """Evaluate the mixture Wigner function on broadcastable arrays p, q.

    Each term is w marg(q) N(p; mu(q), v) cos(kp p + kq q + phase), from one
    :func:`_conditional` split over the points q; only the last two factors
    are formed on the broadcast (p, q) shape, one term at a time.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    s = state.terms
    det = s.cov[:, 0, 0] * s.cov[:, 1, 1] - s.cov[:, 0, 1] * s.cov[:, 1, 0]
    if not (det > 0.0).all():
        raise ValueError(f"covariance must be positive definite, det={float(det.min())!r}")
    u = s.at(q)
    marg, mu, v, _ = _conditional(u, q)
    scale = u.w * marg / np.sqrt(2.0 * math.pi * v)
    plain = s.plain
    out = np.zeros(np.broadcast_shapes(p.shape, q.shape))
    term = np.empty_like(out)
    for j in range(len(s.weight)):
        np.subtract(p, mu[j], out=term)
        term *= term
        term *= -0.5 / v[j]
        np.exp(term, out=term)
        term *= scale[j]
        if not plain[j]:
            term *= np.cos(u.kp[j] * p + (u.kq[j] * q + u.phase[j]))
        out += term
    return out


# ---------------------------------------------------------------------------
# propagation


def _flowed(s: _Terms, f: np.ndarray) -> _Terms:
    """Stacked terms pushed through the linear maps f (..., 2, 2), broadcast over terms.

    c -> f c and S -> f S f^T; the wavevector k -> f^{-T} k is solved on the
    modulated rows only and is exactly 0 on the others.
    """
    ft = np.swapaxes(f, -1, -2)
    center = (f @ s.center[..., None])[..., 0]
    cov = f @ s.cov @ ft
    cov[..., 0, 1] = cov[..., 1, 0] = 0.5 * (cov[..., 0, 1] + cov[..., 1, 0])
    k = np.zeros(center.shape)
    rows = (s.k != 0.0).any(axis=-1)
    if rows.any():
        rows = np.broadcast_to(rows, k.shape[:-1])
        lhs = np.broadcast_to(ft, k.shape + (2,))[rows]
        k[rows] = np.linalg.solve(lhs, np.broadcast_to(s.k, k.shape)[rows][..., None])[..., 0]
    return _Terms(s.weight, center, cov, k, s.phase)


def _convolved(s: _Terms, a: np.ndarray) -> _Terms:
    """Stacked terms convolved with centred Gaussians g(.; a), a (..., 2, 2).

    With C = S + a the closed form (validated against the grid oracle) is

        k''  = C^{-1} S k
        phi' = phi + ((k - k'') . c)
        w'   = w * exp(-k^T (S - S C^{-1} S) k / 2)

    and the centre is unchanged.  Rows where a vanishes are left as they
    are; unmodulated rows only add the covariances.
    """
    cov = s.cov + a
    rows = (a != 0.0).any(axis=(-2, -1)) & (s.k != 0.0).any(axis=-1)
    if not rows.any():
        return s._replace(cov=cov)
    weight, phase = (np.array(np.broadcast_to(x, rows.shape)) for x in (s.weight, s.phase))
    sig, kv = s.cov[rows], s.k[rows]
    sk = (sig @ kv[..., None])[..., 0]
    k2 = np.linalg.solve(cov[rows], sk[..., None])[..., 0]
    quad = np.vecdot(kv, sk) - np.vecdot(sk, k2)
    weight[rows] *= _LIBM_EXP(-0.5 * quad).astype(float)
    phase[rows] += np.vecdot(kv - k2, s.center[rows])
    k = s.k.copy()
    k[rows] = k2
    return _Terms(weight, s.center, cov, k, phase)


def _propagate_stacked(state: GaussianMixtureState, t, params: PhysParams) -> _Terms:
    """The terms of ``propagate_mixture(state, t_j)`` for every time t_j of t >= 0.

    t is an np.float64 or an array of times, whose axes the result carries
    after its terms axis.  This is the engine's one propagation: the flow
    (:func:`_flowed`), then the convolution with the accumulated spreading
    (:func:`_convolved`).  Every element takes the operations of a single
    time, so each time's slice equals ``propagate_mixture`` at that time
    bit for bit.
    """
    if state.hbar != params.hbar:
        raise ValueError(f"state hbar {state.hbar!r} != params hbar {params.hbar!r}")
    a_pp, a_pq, a_qq = qbm_covariance_entries(t, params)  # checks t before the flow uses it
    pad = (1,) * np.ndim(t)
    s = _Terms(*(x.reshape(x.shape[:1] + pad + x.shape[1:]) for x in state.terms))
    decay, drift = qbm_flow_entries(t, params)
    f = np.zeros(np.shape(t) + (2, 2))
    f[..., 0, 0], f[..., 1, 0], f[..., 1, 1] = decay, drift, 1.0
    a = np.empty_like(f)
    a[..., 0, 0], a[..., 1, 1] = a_pp, a_qq
    a[..., 0, 1] = a[..., 1, 0] = a_pq
    with np.errstate(over="ignore", invalid="ignore"):
        out = _convolved(_flowed(s, f), a)
    # the one finiteness check for both routes: past the double range the
    # per-term covariance overflows, and the reductions would turn it into nan
    bad = ~np.isfinite(out.cov).all(axis=(0, -2, -1))
    if bad.any():
        raise ValueError(
            f"covariance entries must be finite: the propagation overflows at t = "
            f"{float(np.asarray(t)[bad].flat[0])!r}"
        )
    return out


def convolve_state(state: GaussianMixtureState, a: Cov2) -> GaussianMixtureState:
    """Convolve the whole mixture with a centred Gaussian of covariance a.

    Total mass is preserved term by term, so the result needs no
    renormalisation.
    """
    return GaussianMixtureState(_convolved(state.terms, a.matrix()), state.hbar)


def propagate_mixture(
    state: GaussianMixtureState, t: float, params: PhysParams
) -> GaussianMixtureState:
    """Evolve a mixture for a time t under the QBM master equation — exactly.

    The evolution is the deterministic linear flow followed by convolution
    with the accumulated spreading ``qbm_covariance(t)``; both steps map the
    term family to itself.  Forms an exact semigroup:
    propagate(propagate(s, t1), t2) == propagate(s, t1 + t2).
    """
    if t == 0.0:
        return state
    return GaussianMixtureState(_propagate_stacked(state, np.float64(t), params), state.hbar)


def husimi_smear(state: GaussianMixtureState, s: float) -> GaussianMixtureState:
    """Convolve with the minimum-uncertainty Gaussian diag(hbar s^2, hbar/4s^2).

    The result is the (generalised, squeezing parameter s) Husimi
    distribution of the state — non-negative everywhere.
    """
    if not 0.0 < s < math.inf:
        raise ValueError(f"s must be positive and finite, got {s}")
    h = state.hbar
    return convolve_state(state, Cov2(pp=h * s * s, pq=0.0, qq=h / (4.0 * s * s)))


# ---------------------------------------------------------------------------
# reductions: moments, marginals, flux


def moments(state: GaussianMixtureState) -> tuple[np.ndarray, Cov2]:
    """Exact mean vector (p, q) and covariance of the mixture.

    Modulated terms contribute damped, phase-shifted corrections to every
    moment (none when k = 0 and phase = 0); the formulas follow from
    differentiating the Gaussian characteristic function.
    """
    s = state.terms
    c, sigma = s.center, s.cov
    sk = (sigma @ s.k[..., None])[..., 0]
    damp = np.exp(-0.5 * np.vecdot(s.k, sk))
    psi = np.vecdot(s.k, c) + s.phase
    cosw = (s.weight * damp * np.cos(psi))[:, None]
    sinw = (s.weight * damp * np.sin(psi))[:, None]

    def outer(x, y):
        return x[:, :, None] * y[:, None, :]

    mass_total = cosw.sum()
    mean = (cosw * c - sinw * sk).sum(axis=0) / mass_total
    # past the double range the second moments overflow to inf and nan,
    # which Cov2.from_matrix refuses
    with np.errstate(over="ignore", invalid="ignore"):
        second = (
            cosw[..., None] * (sigma + outer(c, c) - outer(sk, sk))
            - sinw[..., None] * (outer(c, sk) + outer(sk, c))
        ).sum(axis=0)
        cov = second / mass_total - np.outer(mean, mean)
    return mean, Cov2.from_matrix(cov)


def _conditional(u: _Scalars, q):
    """Split each term's Gaussian as marg(q) * N(p; mu(q), v), marg = N(q; c_q, S_qq).

    u holds the terms' scalars shaped against q (:meth:`_Terms.at`).  Returns
    (marg, mu, v, slope) with slope = S_pq/S_qq, mu(q) = c_p + slope (q - c_q)
    and v = S_pp - S_pq^2/S_qq.
    """
    slope = u.pq / u.qq
    v = u.pp - u.pq * u.pq / u.qq
    mu = u.cp + slope * (q - u.cq)
    with np.errstate(over="ignore"):  # far out the square overflows: marg = exp(-inf) = 0
        marg = np.exp(-0.5 * (q - u.cq) ** 2 / u.qq) / np.sqrt(2.0 * math.pi * u.qq)
    return marg, mu, v, slope


def _gaussian_fourier_below(mu, var, beta, hi):
    """int_{-inf}^{hi} e^{i beta X} N(X; mu, var) dX, stable for large beta.

    Naively this is e^{i beta mu - beta^2 var / 2} * erfc(w)/2 with
    w = (mu + i beta var - hi) / sqrt(2 var); both factors overflow /
    underflow separately, so combine them through the scaled erfcx:
    the product equals exp(i beta mu - x0^2 - 2 i x0 y) * erfcx(w) / 2
    with w = x0 + i y.  Where x0 < 0 the half-line holds most of the mass
    and erfcx(w) would overflow far out; there erfc(w) = 2 - erfc(-w) turns
    the integral into the full transform e^{i beta mu - beta^2 var / 2}
    minus the mirrored piece, so erfcx only ever sees Re >= 0.
    """
    sig = np.sqrt(var)
    x0 = (mu - hi) / (sig * _SQRT2)
    y = beta * sig / _SQRT2
    w = x0 + 1j * y
    lower = x0 < 0.0
    with np.errstate(over="ignore"):  # far out x0^2 overflows: half = erfcx(w) exp(-inf) = 0
        half = 0.5 * erfcx(np.where(lower, -w, w)) * np.exp(1j * beta * mu - x0 * x0 - 2j * x0 * y)
    return np.where(lower, np.exp(1j * beta * mu - 0.5 * beta * beta * var) - half, half)


def _gaussian_fourier_above(mu, var, beta, lo):
    """int_{lo}^{inf} e^{i beta X} N(X; mu, var) dX (mirror of _below)."""
    return _gaussian_fourier_below(-np.asarray(mu), var, -np.asarray(beta), -np.asarray(lo))


def _gaussian_fourier_probit(k, mu, var, alpha, beta):
    """int e^{i k y} N(y; mu, var) Phi(alpha + beta y) dy, in closed form.

    With Z ~ N(0, 1) independent of y, Phi(alpha + beta y) = P(Z - beta y
    < alpha); conditioning y on T = Z - beta y ~ N(-beta mu, s^2),
    s^2 = 1 + beta^2 var, leaves one half-line Fourier integral in T:

        exp(i k mu (1 - beta^2 var / s^2) - k^2 var / (2 s^2))
        * _gaussian_fourier_below(-beta mu, s^2, -k beta var / s^2, alpha).
    """
    s2 = 1.0 + beta * beta * var
    return np.exp(1j * k * mu * (1.0 - beta * beta * var / s2) - 0.5 * k * k * var / s2) * (
        _gaussian_fourier_below(-beta * mu, s2, -k * beta * var / s2, alpha)
    )


def _term_line_reductions(s: _Terms, q):
    """Per-term pieces of the p-integrals along fixed-q lines, over the terms axis.

    Returns (density, flux, gradient): int dp W_term, int dp p W_term and
    d density/dq, from one :func:`_conditional` split and one cos/sin pair.
    Each has the shape of s's fields followed by that of q; summing over the
    leading axis gives the mixture's value.  An unmodulated term is the case
    k = 0, phase = 0.
    """
    q = np.asarray(q, dtype=float)
    u = s.at(q)
    marg, mu, v, slope = _conditional(u, q)
    # int dp N(p; mu, v) e^{i kp p} = e^{i kp mu - kp^2 v / 2}
    scale = u.w * marg * np.exp(-0.5 * u.kp * u.kp * v)
    phase = u.kp * mu + u.kq * q + u.phase
    cos, sin = np.cos(phase), np.sin(phase)
    dens = scale * cos
    flux = scale * (mu * cos - u.kp * v * sin)
    grad = scale * (-(q - u.cq) / u.qq * cos - (u.kp * slope + u.kq) * sin)
    return dens, flux, grad


def position_density(state: GaussianMixtureState, q):
    """Position marginal rho(q) = int dp W(p, q), exactly."""
    return _term_line_reductions(state.terms, q)[0].sum(axis=0)


def _balanced_flux(s: _Terms, q, params: PhysParams):
    """The continuity-balanced flux j + J_D of the stacked terms s at the points q.

    j = int dp (p/m) W and the Fick current J_D = -(hbar^2 b^2 / 2) d rho/dq
    of the position diffusion, summed over the leading terms axis, from one
    :func:`_term_line_reductions` pass.  J_D is formed only at gamma != 0
    (at gamma = 0, b = 0 and it vanishes), so at gamma = 0 this is j bit for
    bit.
    """
    _, flux, grad = _term_line_reductions(s, q)
    j = flux.sum(axis=0) / params.mass
    if params.gamma != 0.0:
        j = j - 0.5 * (params.hbar * params.b) ** 2 * grad.sum(axis=0)
    return j


def _right_mass(state: GaussianMixtureState) -> float:
    """Closed-form integral of the position density over q > 0.

    Averaged over its conditional momentum, each term's fringe is a damped
    plane wave in q against N(q; c_q, S_qq), so every term is one half-line
    Gaussian Fourier integral.
    """
    u = state.terms.at(0.0)
    _, mu0, v, slope = _conditional(u, 0.0)
    piece = _gaussian_fourier_above(u.cq, u.qq, u.kp * slope + u.kq, 0.0)
    fringe = np.real(np.exp(1j * (u.kp * mu0 + u.phase)) * piece)
    return float(np.sum(u.w * np.exp(-0.5 * u.kp * u.kp * v) * fringe))
