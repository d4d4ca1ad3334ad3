"""Exact phase-space engine for Gaussian-mixture Wigner functions.

States are finite sums of (optionally modulated) Gaussian terms

    W(z) = sum_j  w_j * g(z - c_j; S_j) * cos(k_j . z + phi_j),

with z = (p, q) and g(z; A) the normalised bivariate Gaussian.  This family
is closed under the quantum-Brownian-motion evolution (a linear flow plus a
Gaussian convolution), so single Gaussians, spatial cat states and
two-momentum superpositions propagate without any grid error.  The closed
forms implemented here — in particular the transformation of the modulated
(interference) terms under shear and convolution — are cross-validated
against the brute-force grid kernels in the test-suite before anything else
relies on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy.special import erfc, erfcx

from .core_model import PhysParams

__all__ = [
    "Cov2",
    "GaussianTerm",
    "GaussianMixtureState",
    "convolve_term",
    "convolve_state",
    "gaussian_eval",
    "is_wigner_admissible",
    "qbm_covariance",
    "qbm_covariance_comoving",
    "qbm_covariance_entries",
    "qbm_flow",
    "qbm_flow_entries",
    "propagate_mixture",
    "moments",
    "term_integral",
    "make_gaussian_state",
    "make_cat_state",
    "make_two_momentum_state",
    "shift_state",
    "reflect_state",
    "evaluate_state",
    "position_density",
    "position_density_gradient",
    "flux_density",
    "origin_line_reductions",
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
        scale = max(abs(self.pp), abs(self.qq), abs(self.pq), 1e-300)
        if min(self.pp, self.qq) < -_EIG_FLOOR * scale:
            raise ValueError(f"covariance has negative diagonal: {self}")
        if self.det() < -_EIG_FLOOR * scale * scale:
            raise ValueError(f"covariance is indefinite: {self}")

    @classmethod
    def from_matrix(cls, m) -> "Cov2":
        m = np.asarray(m, dtype=float)
        if m.shape != (2, 2):
            raise ValueError(f"expected 2x2 matrix, got shape {m.shape}")
        if not math.isclose(m[0, 1], m[1, 0], rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError("covariance matrix must be symmetric")
        return cls(pp=float(m[0, 0]), pq=float(0.5 * (m[0, 1] + m[1, 0])), qq=float(m[1, 1]))

    @classmethod
    def zero(cls) -> "Cov2":
        return cls(0.0, 0.0, 0.0)

    def matrix(self) -> np.ndarray:
        return np.array([[self.pp, self.pq], [self.pq, self.qq]])

    def det(self) -> float:
        return self.pp * self.qq - self.pq * self.pq

    def is_zero(self) -> bool:
        return self.pp == 0.0 and self.pq == 0.0 and self.qq == 0.0

    def __add__(self, other: "Cov2") -> "Cov2":
        return Cov2(self.pp + other.pp, self.pq + other.pq, self.qq + other.qq)

    def transform(self, m) -> "Cov2":
        """Congruence M @ cov @ M.T for a 2x2 linear map M."""
        m = np.asarray(m, dtype=float)
        return Cov2.from_matrix(m @ self.matrix() @ m.T)


def is_wigner_admissible(cov: Cov2, hbar: float) -> bool:
    """True when g(z; cov) is itself a valid Wigner function.

    A Gaussian phase-space function is the Wigner function of a (mixed)
    quantum state iff det(cov) >= hbar**2/4 (inclusive: equality is the
    minimum-uncertainty boundary).  Convolving any Wigner function with an
    admissible Gaussian therefore yields a pointwise non-negative result.
    """
    return cov.det() >= 0.25 * hbar * hbar and cov.pp >= 0.0 and cov.qq >= 0.0


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
    if t < 0.0:
        raise ValueError(f"propagation time must be non-negative, got {t}")
    if t == 0.0:
        return Cov2.zero()
    return Cov2(*(float(x) for x in qbm_covariance_entries(np.float64(t), params)))


def qbm_covariance_entries(t, params: PhysParams):
    """(pp, pq, qq) of :func:`qbm_covariance`, elementwise over an array t >= 0."""
    m = params.mass
    if params.gamma == 0.0:
        return 2.0 * params.D * t, params.D * t * t / m, 2.0 * params.D * t ** 3 / (3.0 * m * m)
    lam = 2.0 * params.gamma
    n1 = 2.0 * params.D
    n2 = params.hbar ** 2 * params.b ** 2
    x = lam * t
    # T1 = (1 - e^{-x})/lam, T2 = (1 - e^{-2x})/(2 lam); the qq bracket
    # t - 2*T1 + T2 cancels to O(lam^2 t^3), so each element with small x
    # takes its series instead.
    t1 = -np.expm1(-x) / lam
    t2 = -np.expm1(-2.0 * x) / (2.0 * lam)
    small = x < 1e-3
    pq_b = np.where(
        small,
        lam * t * t / 2.0 - lam * lam * t ** 3 / 2.0 + 7.0 * lam ** 3 * t ** 4 / 24.0,
        t1 - t2,
    )
    qq_b = np.where(
        small,
        lam * lam * t ** 3 / 3.0 - lam ** 3 * t ** 4 / 4.0 + 7.0 * lam ** 4 * t ** 5 / 60.0,
        t - 2.0 * t1 + t2,
    )
    return n1 * t2, n1 * pq_b / (lam * m), n1 * qq_b / (lam * m) ** 2 + n2 * t


def qbm_flow(t: float, params: PhysParams) -> np.ndarray:
    """Deterministic part of the evolution: z(t) = flow @ z(0).

    Pure shear [[1,0],[t/m,1]] for gamma = 0; with dissipation the momentum
    row relaxes as e^{-2 gamma t}.
    """
    decay, drift = qbm_flow_entries(np.float64(t), params)
    return np.array([[float(decay), 0.0], [float(drift), 1.0]])


def qbm_flow_entries(t, params: PhysParams):
    """(decay, drift) of flow = [[decay, 0], [drift, 1]], elementwise over an array t."""
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
    flow_inv = np.linalg.inv(qbm_flow(t, params))
    return qbm_covariance(t, params).transform(flow_inv)


# ---------------------------------------------------------------------------
# terms and states


@dataclass(frozen=True)
class GaussianTerm:
    """One (possibly modulated) Gaussian term of a Wigner mixture.

    Represents  w * g(z - c; cov) * cos(k . z + phase).  Interference
    ("fringe") terms of superposition states carry k != 0 and may make the
    term — but never the full physical mixture — negative.
    """

    weight: float
    center: tuple[float, float]  # (p, q)
    cov: Cov2
    k: tuple[float, float] = (0.0, 0.0)  # modulation wavevector, (p, q) duals
    phase: float = 0.0

    def integral(self) -> float:
        return term_integral(self)


def term_integral(term: GaussianTerm) -> float:
    """Exact phase-space integral of one term.

    integral = w * exp(-k^T cov k / 2) * cos(k . c + phase); reduces to the
    bare weight for unmodulated terms.
    """
    kp, kq = term.k
    c = term.cov
    quad = kp * kp * c.pp + 2.0 * kp * kq * c.pq + kq * kq * c.qq
    kc = kp * term.center[0] + kq * term.center[1]
    return term.weight * math.exp(-0.5 * quad) * math.cos(kc + term.phase)


@dataclass(frozen=True)
class GaussianMixtureState:
    """A normalised Wigner function represented as a Gaussian mixture."""

    terms: tuple[GaussianTerm, ...]
    hbar: float = 1.0
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("mixture needs at least one term")
        total = self.total_mass()
        if abs(total - 1.0) > _NORM_TOL:
            raise ValueError(f"mixture not normalised: integral = {total!r}")

    def total_mass(self) -> float:
        return sum(term_integral(t) for t in self.terms)

    @classmethod
    def from_unnormalised(
        cls, terms, hbar: float = 1.0, label: str = ""
    ) -> "GaussianMixtureState":
        terms = tuple(terms)
        total = sum(term_integral(t) for t in terms)
        if total <= 0.0:
            raise ValueError(f"cannot normalise terms with total mass {total!r}")
        return cls(
            terms=tuple(replace(t, weight=t.weight / total) for t in terms),
            hbar=hbar,
            label=label,
        )


def make_gaussian_state(
    p0: float, q0: float, sigma: float, hbar: float = 1.0, label: str = ""
) -> GaussianMixtureState:
    """Minimum-uncertainty Gaussian: position width sigma, momentum width hbar/2 sigma."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    cov = Cov2(pp=hbar * hbar / (4.0 * sigma * sigma), pq=0.0, qq=sigma * sigma)
    return GaussianMixtureState(
        terms=(GaussianTerm(1.0, (p0, q0), cov),), hbar=hbar, label=label
    )


def make_cat_state(
    separation: float,
    p0: float,
    sigma: float,
    hbar: float = 1.0,
    label: str = "",
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
    cov = Cov2(pp=hbar * hbar / (4.0 * sigma * sigma), pq=0.0, qq=sigma * sigma)
    c2 = 1.0 / (2.0 * (1.0 + math.exp(-separation ** 2 / (8.0 * sigma ** 2))))
    half = 0.5 * separation
    kp = separation / hbar
    terms = (
        GaussianTerm(c2, (p0, +half), cov),
        GaussianTerm(c2, (p0, -half), cov),
        # fringe: cos((p - p0) d / hbar) = cos(k.z + phase), k = (d/hbar, 0)
        GaussianTerm(2.0 * c2, (p0, 0.0), cov, k=(kp, 0.0), phase=-p0 * kp),
    )
    return GaussianMixtureState(terms=terms, hbar=hbar, label=label)


def shift_state(
    state: GaussianMixtureState, dp: float = 0.0, dq: float = 0.0
) -> GaussianMixtureState:
    """Rigid phase-space translation W(p, q) -> W(p - dp, q - dq).

    Exact on every term: centres move, and modulation phases pick up
    -k . (dp, dq) so each fringe keeps its value relative to the packet.
    """
    moved = tuple(
        GaussianTerm(
            t.weight,
            (t.center[0] + dp, t.center[1] + dq),
            t.cov,
            k=t.k,
            phase=t.phase - t.k[0] * dp - t.k[1] * dq,
        )
        for t in state.terms
    )
    return GaussianMixtureState(terms=moved, hbar=state.hbar, label=state.label)


def reflect_state(state: GaussianMixtureState) -> GaussianMixtureState:
    """Parity image W(p, q) -> W(-p, -q): the state reflected through the origin.

    Exact on every term: centres and modulation wavevectors change sign,
    weights, covariances and phases are kept.  The QBM evolution commutes
    with parity, so P_left and P_right trade places under it.
    """
    flipped = tuple(
        replace(t, center=(-t.center[0], -t.center[1]), k=(-t.k[0], -t.k[1]))
        for t in state.terms
    )
    return GaussianMixtureState(terms=flipped, hbar=state.hbar, label=state.label)


def make_two_momentum_state(
    p1: float,
    p2: float,
    q0: float,
    sigma: float,
    ratio: float = 1.0,
    rel_phase: float = 0.0,
    hbar: float = 1.0,
    label: str = "",
) -> GaussianMixtureState:
    """Superposition of two plane-wave momenta under one Gaussian envelope.

    psi(x) ~ (e^{i p1 x / hbar} + ratio * e^{i(p2 x / hbar + rel_phase)})
             * G_sigma(x - q0).

    The fringe sits at the mean momentum and oscillates in position with
    wavevector (p1 - p2)/hbar — the textbook source of arrival-time
    backflow when both momenta are negative.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if ratio <= 0.0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    cov = Cov2(pp=hbar * hbar / (4.0 * sigma * sigma), pq=0.0, qq=sigma * sigma)
    kq = (p1 - p2) / hbar
    terms = (
        GaussianTerm(1.0, (p1, q0), cov),
        GaussianTerm(ratio * ratio, (p2, q0), cov),
        GaussianTerm(
            2.0 * ratio,
            (0.5 * (p1 + p2), q0),
            cov,
            k=(0.0, kq),
            phase=-rel_phase,
        ),
    )
    return GaussianMixtureState.from_unnormalised(terms, hbar=hbar, label=label)


# ---------------------------------------------------------------------------
# evaluation


def gaussian_eval(p, q, center: tuple[float, float], cov: Cov2):
    """Normalised bivariate Gaussian g(z - center; cov) on arrays p, q."""
    det = cov.det()
    if det <= 0.0:
        raise ValueError(f"covariance must be positive definite, det={det!r}")
    dp = np.asarray(p, dtype=float) - center[0]
    dq = np.asarray(q, dtype=float) - center[1]
    # inverse of [[pp, pq], [pq, qq]]
    ipp, ipq, iqq = cov.qq / det, -cov.pq / det, cov.pp / det
    quad = ipp * dp * dp + 2.0 * ipq * dp * dq + iqq * dq * dq
    return np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))


def evaluate_term(term: GaussianTerm, p, q):
    base = term.weight * gaussian_eval(p, q, term.center, term.cov)
    kp, kq = term.k
    if kp == 0.0 and kq == 0.0 and term.phase == 0.0:
        return base
    return base * np.cos(kp * np.asarray(p) + kq * np.asarray(q) + term.phase)


def evaluate_state(state: GaussianMixtureState, p, q):
    """Evaluate the mixture Wigner function on broadcastable arrays p, q."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    out = np.zeros(np.broadcast(p, q).shape)
    for term in state.terms:
        out += evaluate_term(term, p, q)
    return out


# ---------------------------------------------------------------------------
# propagation


def _transform_term(term: GaussianTerm, flow: np.ndarray) -> GaussianTerm:
    """Push a term forward through an invertible linear phase-space map."""
    c = flow @ np.asarray(term.center)
    cov = term.cov.transform(flow)
    kp, kq = term.k
    if kp == 0.0 and kq == 0.0:
        k = (0.0, 0.0)
    else:
        k = tuple(np.linalg.solve(flow.T, np.asarray(term.k)))
    return replace(term, center=(float(c[0]), float(c[1])), cov=cov, k=(float(k[0]), float(k[1])))


def convolve_term(term: GaussianTerm, a: Cov2) -> GaussianTerm:
    """Convolve one modulated Gaussian term with a centred Gaussian g(.; a).

    Closed form (validated against the grid oracle):

        C    = cov + a
        k''  = C^{-1} cov k
        phi' = phi + ((k - k'') . c)
        w'   = w * exp(-k^T (cov - cov C^{-1} cov) k / 2)

    and the centre is unchanged.  For unmodulated terms this is the plain
    covariance addition law.
    """
    if a.is_zero():
        return term
    new_cov = term.cov + a
    kp, kq = term.k
    if kp == 0.0 and kq == 0.0:
        return replace(term, cov=new_cov)
    kvec = np.array([kp, kq])
    sigma = term.cov.matrix()
    cmat = new_cov.matrix()
    sk = sigma @ kvec
    k2 = np.linalg.solve(cmat, sk)          # k'' = C^-1 Sigma k
    damp_quad = float(kvec @ sk - sk @ np.linalg.solve(cmat, sk))
    weight = term.weight * math.exp(-0.5 * damp_quad)
    phase = term.phase + float((kvec - k2) @ np.asarray(term.center))
    return replace(
        term, weight=weight, cov=new_cov, k=(float(k2[0]), float(k2[1])), phase=phase
    )


def convolve_state(state: GaussianMixtureState, a: Cov2) -> GaussianMixtureState:
    """Convolve the whole mixture with a centred Gaussian of covariance a.

    Total mass is preserved term by term, so the result needs no
    renormalisation.
    """
    return GaussianMixtureState(
        terms=tuple(convolve_term(t, a) for t in state.terms),
        hbar=state.hbar,
        label=state.label,
    )


def propagate_mixture(
    state: GaussianMixtureState, t: float, params: PhysParams
) -> GaussianMixtureState:
    """Evolve a mixture for a time t under the QBM master equation — exactly.

    The evolution is the deterministic linear flow followed by convolution
    with the accumulated spreading ``qbm_covariance(t)``; both steps map the
    term family to itself.  Forms an exact semigroup:
    propagate(propagate(s, t1), t2) == propagate(s, t1 + t2).
    """
    if t < 0.0:
        raise ValueError(f"propagation time must be non-negative, got {t}")
    if t == 0.0:
        return state
    if state.hbar != params.hbar:
        raise ValueError(
            f"state hbar {state.hbar!r} != params hbar {params.hbar!r}"
        )
    flow = qbm_flow(t, params)
    a = qbm_covariance(t, params)
    moved = (_transform_term(term, flow) for term in state.terms)
    return GaussianMixtureState(
        terms=tuple(convolve_term(term, a) for term in moved),
        hbar=state.hbar,
        label=state.label,
    )


class _CovArrays(NamedTuple):
    """Unchecked stand-in for :class:`Cov2` whose entries are arrays."""

    pp: np.ndarray
    pq: np.ndarray
    qq: np.ndarray


def _propagate_stacked(state: GaussianMixtureState, t, params: PhysParams) -> GaussianTerm:
    """``propagate_mixture(state, t_j)`` for every time t_j of an array t >= 0 at once.

    Returns one GaussianTerm whose fields are (terms x times) arrays and whose
    cov is a :class:`_CovArrays`.  The algebra is that of :func:`_transform_term`
    and :func:`convolve_term` written out elementwise, with the 2x2 solves as
    explicit determinants.  Where the spreading A(t_j) vanishes (t = 0, or no
    noise at all) the convolution is skipped, as :func:`convolve_term` does.
    """
    if state.hbar != params.hbar:
        raise ValueError(f"state hbar {state.hbar!r} != params hbar {params.hbar!r}")
    rows = np.array(
        [(u.weight, *u.center, u.cov.pp, u.cov.pq, u.cov.qq, *u.k, u.phase) for u in state.terms]
    )
    w, cp, cq, pp, pq, qq, kp, kq, phase = rows.T.reshape(9, -1, *(1,) * np.ndim(t))
    decay, drift = qbm_flow_entries(t, params)
    a_pp, a_pq, a_qq = qbm_covariance_entries(t, params)
    # flow F = [[decay, 0], [drift, 1]]: c -> F c, S -> F S F^T, k -> F^{-T} k
    cp, cq = decay * cp, drift * cp + cq
    pp, pq, qq = (
        decay * decay * pp,
        decay * (drift * pp + pq),
        (drift * pp + pq) * drift + (drift * pq + qq),
    )
    kp = (kp - drift * kq) / decay
    # convolution with g(.; A): C = S + A, k'' = C^{-1} S k
    sk_p, sk_q = pp * kp + pq * kq, pq * kp + qq * kq
    pp, pq, qq = pp + a_pp, pq + a_pq, qq + a_qq
    det = pp * qq - pq * pq
    k2p, k2q = (qq * sk_p - pq * sk_q) / det, (pp * sk_q - pq * sk_p) / det
    noisy = (a_pp != 0.0) | (a_pq != 0.0) | (a_qq != 0.0)
    damp = (kp * sk_p + kq * sk_q) - (sk_p * k2p + sk_q * k2q)
    w = np.where(noisy, w * np.exp(-0.5 * damp), w)
    phase = np.where(noisy, phase + ((kp - k2p) * cp + (kq - k2q) * cq), phase)
    k = (np.where(noisy, k2p, kp), np.where(noisy, k2q, kq))
    return GaussianTerm(w, (cp, cq), _CovArrays(pp, pq, qq), k, phase)


def husimi_smear(state: GaussianMixtureState, s: float) -> GaussianMixtureState:
    """Convolve with the minimum-uncertainty Gaussian diag(hbar s^2, hbar/4s^2).

    The result is the (generalised, squeezing parameter s) Husimi
    distribution of the state — non-negative everywhere.
    """
    if s <= 0.0:
        raise ValueError(f"s must be positive, got {s}")
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
    mass_total = 0.0
    first = np.zeros(2)
    second = np.zeros((2, 2))
    for term in state.terms:
        c = np.asarray(term.center)
        sigma = term.cov.matrix()
        kvec = np.asarray(term.k)
        damp = math.exp(-0.5 * float(kvec @ sigma @ kvec))
        psi = float(kvec @ c) + term.phase
        cosw = term.weight * damp * math.cos(psi)
        sinw = term.weight * damp * math.sin(psi)
        sk = sigma @ kvec
        mass_total += cosw
        first += cosw * c - sinw * sk
        second += (
            cosw * (sigma + np.outer(c, c) - np.outer(sk, sk))
            - sinw * (np.outer(c, sk) + np.outer(sk, c))
        )
    mean = first / mass_total
    cov = second / mass_total - np.outer(mean, mean)
    return mean, Cov2.from_matrix(cov)


def _conditional(term: GaussianTerm, q):
    """Split a term's Gaussian as marg(q) * N(p; mu(q), v), marg = N(q; c_q, S_qq).

    Returns (marg, mu, v, slope) with slope = S_pq/S_qq,
    mu(q) = c_p + slope (q - c_q) and v = S_pp - S_pq^2/S_qq.
    """
    c = term.cov
    cp, cq = term.center
    slope = c.pq / c.qq
    v = c.pp - c.pq * c.pq / c.qq
    mu = cp + slope * (q - cq)
    marg = np.exp(-0.5 * (q - cq) ** 2 / c.qq) / np.sqrt(2.0 * math.pi * c.qq)
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


def _term_line_reductions(term: GaussianTerm, q):
    """Per-term pieces of the p-integrals along a fixed-q line.

    Returns (density, flux, gradient): int dp W_term, int dp p W_term and
    d density/dq, all from one :func:`_conditional` split and one cos/sin
    pair.  An unmodulated term is the case k = 0, phase = 0.  The fields may
    also be arrays, as in the stacked term of :func:`_propagate_stacked`.
    """
    q = np.asarray(q, dtype=float)
    marg, mu, v, slope = _conditional(term, q)
    kp, kq = term.k
    # int dp N(p; mu, v) e^{i kp p} = e^{i kp mu - kp^2 v / 2}
    scale = term.weight * marg * np.exp(-0.5 * kp * kp * v)
    phase = kp * mu + kq * q + term.phase
    cos, sin = np.cos(phase), np.sin(phase)
    dens = scale * cos
    flux = scale * (mu * cos - kp * v * sin)
    grad = scale * (-(q - term.center[1]) / term.cov.qq * cos - (kp * slope + kq) * sin)
    return dens, flux, grad


def position_density(state: GaussianMixtureState, q):
    """Position marginal rho(q) = int dp W(p, q), exactly."""
    return sum(_term_line_reductions(term, q)[0] for term in state.terms)


def position_density_gradient(state: GaussianMixtureState, q):
    """d/dq of the position marginal, in closed form."""
    return sum(_term_line_reductions(term, q)[2] for term in state.terms)


def flux_density(state: GaussianMixtureState, q, mass: float):
    """Conventional probability flux j(q) = int dp (p/m) W(p, q), exactly."""
    return sum(_term_line_reductions(term, q)[1] for term in state.terms) / mass


def origin_line_reductions(state: GaussianMixtureState, t, params: PhysParams):
    """(density, flux, gradient) at q = 0 of the state evolved to every time in t.

    Elementwise over an array t >= 0 this is ``position_density``,
    ``flux_density * mass`` and ``position_density_gradient`` of
    ``propagate_mixture(state, t_j)`` at q = 0, computed over (terms x times)
    arrays without building an evolved state per time.
    """
    stacked = _propagate_stacked(state, np.asarray(t, dtype=float), params)
    return tuple(r.sum(axis=0) for r in _term_line_reductions(stacked, 0.0))


def _right_mass(state: GaussianMixtureState, lo: float = 0.0) -> float:
    """Closed-form integral of the position density over q > lo."""
    total = 0.0
    for term in state.terms:
        c = term.cov
        cq = term.center[1]
        kp, kq = term.k
        if kp == 0.0 and kq == 0.0 and term.phase == 0.0:
            total += term.weight * 0.5 * float(erfc((lo - cq) / (math.sqrt(c.qq) * _SQRT2)))
            continue
        _, mu0, v, slope = _conditional(term, 0.0)
        alpha = kp * slope + kq
        psi = kp * mu0 + term.phase
        damp = math.exp(-0.5 * kp * kp * v)
        piece = _gaussian_fourier_above(cq, c.qq, alpha, lo)
        total += term.weight * damp * float(np.real(np.exp(1j * psi) * piece))
    return total
