"""Tests for the exact Gaussian-mixture engine.

The oracle-agreement class is the load-bearing one: the closed-form
transport of modulated (interference) terms is checked against the
brute-force kernel quadrature of the grid engine before anything else in
the package is allowed to rely on it.
"""

from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.special import ndtr
from scipy.stats import multivariate_normal

from qbflow.core_model import PhysParams, derive_timescales
from qbflow import gaussian_engine as ge
from qbflow import grid_engine as gr
from oracles import (
    flux_density,
    is_wigner_admissible,
    position_density_gradient,
    position_marginal,
    propagate_wigner_direct,
)


def _one_term(weight, center, cov, k=(0.0, 0.0), phase=0.0):
    """The arrays of the one-term mixture weight g(z - center; cov) cos(k . z + phase)."""
    return ([weight], [center], [cov], [k], [phase])


def _fringe_weight(state):
    """Weight of the state's first modulated term."""
    return float(state.terms.weight[state.terms.k.any(axis=1)][0])


def _grid_mass(state, n=400, pad=9.0):
    mean, cov = ge.moments(state)
    p = np.linspace(mean[0] - pad * math.sqrt(cov.pp), mean[0] + pad * math.sqrt(cov.pp), n)
    q = np.linspace(mean[1] - pad * math.sqrt(cov.qq), mean[1] + pad * math.sqrt(cov.qq), n)
    pp, qq = np.meshgrid(p, q, indexing="ij")
    w = ge.evaluate_state(state, pp, qq)
    return np.trapezoid(np.trapezoid(w, q, axis=1), p)


class TestCovarianceLaw:
    def test_determinant_grows_quartically(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d, t, m = rng.uniform(0.1, 5.0, size=3)
            par = PhysParams(D=d, mass=m)
            cov = ge.qbm_covariance(t, par)
            expect = d * d * t ** 4 / (3.0 * m * m)
            assert math.isclose(cov.det(), expect, rel_tol=1e-12)

    def test_momentum_variance_rate(self):
        par = PhysParams(D=1.7)
        for t in (0.2, 1.0, 4.0):
            assert math.isclose(ge.qbm_covariance(t, par).pp, 2.0 * par.D * t, rel_tol=1e-14)

    def test_comoving_covariance(self):
        par = PhysParams(D=2.0, mass=1.4)
        t = 0.9
        cov = ge.qbm_covariance_comoving(t, par)
        d, m = par.D, par.mass
        assert math.isclose(cov.pp, 2.0 * d * t, rel_tol=1e-12)
        assert math.isclose(cov.pq, -d * t * t / m, rel_tol=1e-12)
        assert math.isclose(cov.qq, 2.0 * d * t ** 3 / (3.0 * m * m), rel_tol=1e-12)
        # same determinant as the lab-frame covariance (unimodular transform)
        assert math.isclose(cov.det(), ge.qbm_covariance(t, par).det(), rel_tol=1e-12)

    def test_dissipative_covariance_matches_moment_odes(self):
        par = PhysParams(D=2.0, gamma=0.35, mass=1.3)
        b2 = (par.hbar * par.b) ** 2

        def rhs(_t, y):
            spp, spq, sqq = y
            return [
                -4.0 * par.gamma * spp + 2.0 * par.D,
                spp / par.mass - 2.0 * par.gamma * spq,
                2.0 * spq / par.mass + b2,
            ]

        for t in (1e-4, 0.05, 0.8, 5.0):
            sol = solve_ivp(rhs, (0.0, t), [0.0, 0.0, 0.0], rtol=1e-12, atol=1e-16)
            ref = sol.y[:, -1]
            cov = ge.qbm_covariance(t, par)
            got = np.array([cov.pp, cov.pq, cov.qq])
            assert np.allclose(got, ref, rtol=1e-9, atol=1e-14)

    def test_dissipative_reduces_to_diffusive(self):
        base = PhysParams(D=2.0)
        tiny = PhysParams(D=2.0, gamma=1e-9)
        for t in (0.3, 2.0):
            a = ge.qbm_covariance(t, base)
            b = ge.qbm_covariance(t, tiny)
            assert math.isclose(a.pp, b.pp, rel_tol=1e-6)
            assert math.isclose(a.pq, b.pq, rel_tol=1e-6)
            assert math.isclose(a.qq, b.qq, rel_tol=1e-6)

    def test_admissibility_flips_at_positivity_time(self):
        par = PhysParams(D=2.0)
        scales = derive_timescales(par, p0=-10.0)
        t_star = scales.t_positive
        assert not is_wigner_admissible(ge.qbm_covariance(0.999 * t_star, par), par.hbar)
        assert is_wigner_admissible(ge.qbm_covariance(1.001 * t_star, par), par.hbar)
        # the flip is unique: admissibility is monotone along the scan
        ts = np.linspace(0.05, 3.0, 500) * scales.tau_l
        flags = [is_wigner_admissible(ge.qbm_covariance(t, par), par.hbar) for t in ts]
        assert flags == sorted(flags)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1])
    def test_non_finite_time_rejected(self, bad):
        with pytest.raises(ValueError, match="propagation time must be finite and non-negative"):
            ge.qbm_covariance(bad, PhysParams(D=1.0))

    @pytest.mark.parametrize("t", [0.0099, 0.0101, 0.1, 1.0])
    def test_dissipative_covariance_matches_40_digits(self, t):
        # the exact relaxation factors evaluated in 40-digit arithmetic; the
        # brackets T1 - T2 and t - 2 T1 + T2 cancel to O(x^2) and O(x^3) at
        # small x = 2 gamma t, which the series must carry to round-off
        mp = mpmath.mp.clone()
        mp.dps = 40
        par = PhysParams(D=2.0, gamma=0.05)
        lam, tm, m = 2 * mp.mpf(par.gamma), mp.mpf(t), mp.mpf(par.mass)
        t1 = -mp.expm1(-lam * tm) / lam
        t2 = -mp.expm1(-2 * lam * tm) / (2 * lam)
        n1 = 2 * mp.mpf(par.D)
        ref = (
            n1 * t2,
            n1 * (t1 - t2) / (lam * m),
            n1 * (tm - 2 * t1 + t2) / (lam * m) ** 2 + (mp.mpf(par.hbar) * mp.mpf(par.b)) ** 2 * tm,
        )
        cov = ge.qbm_covariance(t, par)
        for got, want in zip((cov.pp, cov.pq, cov.qq), ref):
            assert abs(mp.mpf(got) / want - 1) < 5e-16

    @pytest.mark.parametrize("par", [PhysParams(D=2.0, gamma=0.05),
                                     PhysParams(D=0.3, mass=1.7, gamma=2.0, hbar=0.8)])
    def test_dissipative_pq_matches_40_digits(self, par):
        # T1 - T2 = expm1(-x)^2 / (2 lam) has no cancellation at any x
        mp = mpmath.mp.clone()
        mp.dps = 40
        ts = np.geomspace(1e-4, 1e3, 57)
        lam, m = 2 * mp.mpf(par.gamma), mp.mpf(par.mass)
        for t, got in zip(ts, ge.qbm_covariance_entries(ts, par)[1]):
            tm = mp.mpf(t)
            bracket = mp.expm1(-lam * tm) ** 2 / (2 * lam)
            want = 2 * mp.mpf(par.D) * bracket / (lam * m)
            assert abs(mp.mpf(got) / want - 1) < 1e-15

    @pytest.mark.parametrize("t", [1e110, 1e160])
    def test_dissipative_entries_stay_finite_at_huge_times(self, t):
        # x = 2 gamma t is far past the series switch; the series branch that
        # np.where discards is evaluated on x capped at 1, so nothing overflows
        par = PhysParams(D=1.0, gamma=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for entries in (ge.qbm_covariance_entries(np.float64(t), par),
                            ge.qbm_covariance_entries(np.array([0.5, t]), par)):
                assert np.isfinite(np.array(entries)).all()
            cov = ge.qbm_covariance(t, par)
            assert cov.pq == pytest.approx(par.D / (4.0 * par.gamma ** 2 * par.mass))

    @pytest.mark.parametrize("t", [1e110, 1e160])
    def test_free_huge_times_raise_without_warning(self, t):
        # at gamma = 0 the qq entry D t^3 / (3 m^2) overflows past t ~ 5.6e102;
        # the finiteness check must name that before any RuntimeWarning
        par = PhysParams(D=1.0)
        state = ge.make_gaussian_state(p0=-10.0, q0=6.0, sigma=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for route in (lambda: ge.qbm_covariance(t, par),
                          lambda: ge.propagate_mixture(state, t, par)):
                with pytest.raises(ValueError, match="covariance entries must be finite"):
                    route()

    @pytest.mark.parametrize("gamma", [0.0, 0.05])
    def test_array_forms_match_scalar_forms(self, gamma):
        # gamma = 0.05 puts the series switch x = 2 gamma t = 1 at t = 10, so
        # the array straddles it and each element must take its own branch
        par = PhysParams(D=2.0, mass=1.3, gamma=gamma)
        ts = np.array([0.0, 0.004, 0.0099, 0.01, 0.0101, 0.3, 2.0, 9.9, 10.0, 10.1, 40.0])
        entries = np.array(ge.qbm_covariance_entries(ts, par))
        for i, t in enumerate(ts):
            cov = ge.qbm_covariance(t, par)
            np.testing.assert_array_equal(entries[:, i], [cov.pp, cov.pq, cov.qq])


class TestStates:
    def test_gaussian_is_minimum_uncertainty(self):
        s = ge.make_gaussian_state(p0=2.0, q0=-1.0, sigma=0.8)
        mean, cov = ge.moments(s)
        assert np.allclose(mean, [2.0, -1.0])
        assert math.isclose(cov.det(), 0.25, rel_tol=1e-12)

    def test_cat_normalised_on_grid(self):
        s = ge.make_cat_state(separation=4.0, p0=1.0, sigma=0.7)
        assert math.isclose(_grid_mass(s), 1.0, rel_tol=1e-9)

    def test_two_momentum_normalised_on_grid(self):
        s = ge.make_two_momentum_state(p1=-1.0, p2=3.0, q0=1.0, sigma=1.0,
                                       ratio=0.8, rel_phase=0.4)
        assert math.isclose(_grid_mass(s), 1.0, rel_tol=1e-9)

    def test_cat_has_negative_wigner_regions(self):
        s = ge.make_cat_state(separation=4.0, p0=0.0, sigma=0.7)
        # the fringe at q = 0 oscillates in p and dips well below zero
        p = np.linspace(-3, 3, 301)
        vals = ge.evaluate_state(s, p, np.zeros_like(p))
        assert vals.min() < -0.1 * vals.max()

    def test_reflection_is_parity_image(self):
        # W_reflected(p, q) = W(-p, -q), fringe included, at every time
        s = ge.make_two_momentum_state(p1=-1.0, p2=3.0, q0=1.5, sigma=1.0,
                                       ratio=0.8, rel_phase=0.4)
        pp, qq = np.meshgrid(np.linspace(-6, 6, 41), np.linspace(-5, 5, 37), indexing="ij")
        par = PhysParams(D=0.5)
        for t in (0.0, 0.7):
            ref = ge.evaluate_state(ge.propagate_mixture(s, t, par), -pp, -qq)
            out = ge.evaluate_state(ge.propagate_mixture(ge.reflect_state(s), t, par), pp, qq)
            assert np.abs(out - ref).max() < 1e-12 * np.abs(ref).max()

    def test_mixture_rejects_unnormalised(self):
        term = _one_term(weight=0.5, center=(0.0, 0.0), cov=np.eye(2))
        with pytest.raises(ValueError, match="normalis"):
            ge.GaussianMixtureState(terms=term)

    @pytest.mark.parametrize("build, value", [
        (lambda: ge.make_gaussian_state(-3.0, 10.0, math.nan), "nan"),
        (lambda: ge.make_cat_state(math.nan, -2.0, 0.7), "nan"),
        (lambda: ge.husimi_smear(ge.make_cat_state(4.0, -2.0, 0.7), math.nan), "nan"),
        (lambda: ge.husimi_smear(ge.make_cat_state(4.0, -2.0, 0.7), math.inf), "inf"),
        (lambda: ge.shift_state(ge.make_cat_state(4.0, -2.0, 0.7), dq=math.nan), "nan"),
        (lambda: ge.GaussianMixtureState(
            terms=_one_term(math.nan, (0.0, 0.0), np.eye(2))), "nan"),
        (lambda: ge.GaussianMixtureState(
            terms=_one_term(1.0, (0.0, 0.0), np.eye(2), k=(0.0, math.inf))),
         "inf"),
        (lambda: ge.Cov2(1.0, 0.0, math.inf), "inf"),
        (lambda: ge.Cov2(math.nan, 0.0, 1.0), "nan"),
        # finiteness is checked before symmetry, which a nan can never pass
        (lambda: ge.Cov2.from_matrix([[1.0, math.nan], [0.0, 1.0]]), "finite.*nan"),
    ], ids=["sigma", "separation", "husimi-nan", "husimi-inf", "shift", "weight", "k",
            "cov-inf", "cov-nan", "cov-offdiag-nan"])
    def test_non_finite_input_rejected(self, build, value):
        # each used to return a state with nan or inf in it
        with pytest.raises(ValueError, match=value):
            build()

    def test_moments_past_the_double_range_refused_without_warning(self):
        # the second moments of p0 = -1e200 overflow to nan, which
        # Cov2.from_matrix names as such instead of as broken symmetry
        far = ge.make_gaussian_state(-1e200, 10.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="covariance entries must be finite"):
                ge.moments(far)

    def test_moments_of_pure_phase_term(self):
        # k = 0 with a bare phase still scales every moment by cos(phase)
        term = _one_term(weight=1.0, center=(1.0, 2.0), cov=np.eye(2), phase=0.0)
        mod = _one_term(weight=1.0 / math.cos(0.3), center=(1.0, 2.0), cov=np.eye(2), phase=0.3)
        st_plain = ge.GaussianMixtureState(terms=term)
        st_mod = ge.GaussianMixtureState(terms=mod)
        m1, c1 = ge.moments(st_plain)
        m2, c2 = ge.moments(st_mod)
        assert np.allclose(m1, m2)
        assert math.isclose(c1.det(), c2.det(), rel_tol=1e-12)


_CONTRACT_STATES = {
    "gaussian": ge.make_gaussian_state(p0=-3.0, q0=10.0, sigma=1.0),
    "cat": ge.make_cat_state(separation=4.0, p0=-2.0, sigma=0.7),
    "two-momentum": ge.make_two_momentum_state(p1=-1.0, p2=-3.0, q0=5.0, sigma=1.0,
                                               ratio=0.8, rel_phase=0.4),
}


class TestArrayState:
    """A state is its stacked term arrays: read-only, checked once, built straight."""

    @pytest.mark.parametrize("name", sorted(_CONTRACT_STATES))
    def test_term_arrays_are_read_only_float64(self, name):
        for x in _CONTRACT_STATES[name].terms:
            assert x.dtype == np.float64 and x.flags.c_contiguous
            assert not x.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                x[...] = 0.0

    def test_construction_copies_the_callers_arrays(self):
        fields = [np.array(x) for x in _one_term(1.0, (0.5, -1.0), [[1.2, 0.7], [0.7, 0.9]])]
        state = ge.GaussianMixtureState(terms=fields)
        fields[1][0, 0] = 99.0
        assert all(x.flags.writeable for x in fields)
        assert state.terms.center[0, 0] == 0.5

    @pytest.mark.parametrize("name", sorted(_CONTRACT_STATES))
    @pytest.mark.parametrize("par", [PhysParams(D=0.0), PhysParams(D=2.0),
                                     PhysParams(D=2.0, gamma=0.4)], ids=["D0", "D2", "gamma"])
    def test_propagated_state_is_the_stacked_propagation(self, name, par):
        state = _CONTRACT_STATES[name]
        for t in (0.3, 1.7, 5.0):
            got = ge.propagate_mixture(state, t, par).terms
            want = ge._propagate_stacked(state, np.float64(t), par)
            for field, a, b in zip(want._fields, got, want):
                assert np.array_equal(a, b), (field, t)

    @pytest.mark.parametrize("terms, message", [
        ((), "mixture terms are the 5 arrays"),
        (([], np.empty((0, 2)), np.empty((0, 2, 2)), np.empty((0, 2)), []),
         "at least one term"),
        (_one_term(1.0, 0.0, np.eye(2)), r"center \(1,\)"),
        (_one_term([1.0], (0.0, 0.0), np.eye(2)), r"weight \(1, 1\)"),
        (_one_term(1.0, (0.0, 0.0), [[1.0, 0.5], [0.0, 1.0]]), "must be symmetric"),
        (_one_term(1.0, (0.0, 0.0), [[-1.0, 0.0], [0.0, 1.0]]),
         r"negative diagonal: Cov2\(pp=-1.0, pq=0.0, qq=1.0\)"),
        (_one_term(1.0, (0.0, 0.0), [[1.0, 2.0], [2.0, 1.0]]),
         r"indefinite: Cov2\(pp=1.0, pq=2.0, qq=1.0\)"),
        # pp qq - pq^2 would be inf - inf = nan, which no comparison refuses
        (_one_term(1.0, (0.0, 0.0), [[1e160, 1e170], [1e170, 1e160]]),
         r"indefinite: Cov2\(pp=1e\+160, pq=1e\+170, qq=1e\+160\)"),
        (_one_term(1.0, (0.0, 0.0), [[1.0, math.nan], [math.nan, 1.0]]),
         "must be finite, got nan"),
    ], ids=["no-fields", "no-terms", "center-shape", "weight-shape", "asymmetric",
            "negative-diagonal", "indefinite", "indefinite-overflow", "cov-nan"])
    def test_bad_term_arrays_refused(self, terms, message):
        with pytest.raises(ValueError, match=message):
            ge.GaussianMixtureState(terms=terms)

    def test_definiteness_judged_past_the_double_range(self):
        # pp qq and pq^2 both overflow here; the rule scales them first
        with pytest.raises(ValueError, match="covariance is indefinite"):
            ge.Cov2(1e160, 1e170, 1e160)
        ge.Cov2(1e160, 0.5e160, 1e160)  # positive definite, kept


def _scipy_wigner(state, p, q):
    """Sum of w N((p, q); c, S) cos(k . (p, q) + phase) through scipy's bivariate pdf."""
    p, q = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
    z = np.stack([p, q], axis=-1)
    out = np.zeros(p.shape)
    for w, c, cov, k, phase in zip(*state.terms):
        pdf = multivariate_normal(mean=c, cov=cov).pdf(z)
        out += w * pdf * np.cos(k[0] * p + k[1] * q + phase)
    return out


_D2 = PhysParams(D=2.0)
_SAMPLED_STATES = {
    "correlated": ge.GaussianMixtureState(
        terms=_one_term(1.0, (0.5, -1.0), [[1.2, 0.7], [0.7, 0.9]])
    ),
    "cat-D2": ge.propagate_mixture(ge.make_cat_state(4.0, -1.0, 0.8), 0.3, _D2),
    "two-momentum-D2": ge.propagate_mixture(
        ge.make_two_momentum_state(-1.0, 3.0, 0.5, 1.0, ratio=0.8, rel_phase=0.4), 0.2, _D2
    ),
}


class TestEvaluateState:
    @pytest.mark.parametrize("name", sorted(_SAMPLED_STATES))
    @pytest.mark.parametrize("shape", ["meshgrid", "column-row", "sheared-column"])
    def test_matches_scipy_pdf(self, name, shape):
        state = _SAMPLED_STATES[name]
        mean, cov = ge.moments(state)
        ps = mean[0] + 5.0 * math.sqrt(cov.pp) * np.linspace(-1.0, 1.0, 61)
        qs = mean[1] + 5.0 * math.sqrt(cov.qq) * np.linspace(-1.0, 1.0, 47)
        if shape == "meshgrid":
            p, q = np.meshgrid(ps, qs, indexing="ij")
        elif shape == "column-row":
            p, q = ps[:, None], qs[None, :]
        else:
            # (n, m) momenta against an (n, 1) column of positions
            q = qs[:, None]
            p = ps[None, :] + 0.3 * (q - mean[1])
        ref = _scipy_wigner(state, p, q)
        out = ge.evaluate_state(state, p, q)
        assert out.shape == ref.shape
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_singular_covariance_rejected(self):
        # det = 0: no density to sample, though the mixture itself normalises
        term = _one_term(1.0, (0.0, 0.0), [[1.0, 1.0], [1.0, 1.0]])
        state = ge.GaussianMixtureState(terms=term)
        with pytest.raises(ValueError, match="positive definite"):
            ge.evaluate_state(state, np.zeros(3), np.zeros(3))


class TestOracleAgreement:
    """Closed-form transport vs literal kernel quadrature.

    These are the validation gates for the modulated-term algebra: shear
    transport of the wave vector, convolution damping, and the phase
    bookkeeping all have to reproduce the brute-force kernel to grid
    accuracy before the engine is trusted anywhere else.
    """

    PAR = PhysParams(D=2.0)

    def _compare_direct(self, state, t, n=144, t_axes=None):
        pax, qax = gr.default_axes(state, self.PAR, t_max=t_axes or t, n=n)
        w0 = gr.wigner_grid_from_state(state, pax, qax)
        w_direct = propagate_wigner_direct(w0, t, self.PAR)
        evolved = ge.propagate_mixture(state, t, self.PAR)
        w_engine = gr.wigner_grid_from_state(evolved, pax, qax)
        peak = np.abs(w_engine.values).max()
        return np.abs(w_direct.values - w_engine.values).max() / peak

    def test_cat_state_against_direct_kernel(self):
        cat = ge.make_cat_state(separation=4.0, p0=0.0, sigma=0.7)
        assert self._compare_direct(cat, 0.8) < 1e-3

    def test_two_momentum_against_direct_kernel(self):
        tm = ge.make_two_momentum_state(p1=-1.0, p2=3.0, q0=1.0, sigma=1.0,
                                        ratio=0.8, rel_phase=0.4)
        assert self._compare_direct(tm, 0.6) < 1e-3

    def test_plain_gaussian_against_direct_kernel(self):
        g = ge.make_gaussian_state(p0=1.5, q0=-2.0, sigma=0.9)
        assert self._compare_direct(g, 1.1) < 1e-3

    def test_two_momentum_against_fast_kernel(self):
        # the fast path interpolates, so give the spatial fringe a fine grid
        tm = ge.make_two_momentum_state(p1=-1.0, p2=3.0, q0=1.0, sigma=1.0)
        par = self.PAR
        pax, qax = gr.default_axes(tm, par, t_max=0.6, n=512)
        w0 = gr.wigner_grid_from_state(tm, pax, qax)
        w_fast = gr.propagate_wigner_qbm(w0, 0.6, par)
        evolved = ge.propagate_mixture(tm, 0.6, par)
        w_engine = gr.wigner_grid_from_state(evolved, pax, qax)
        peak = np.abs(w_engine.values).max()
        assert np.abs(w_fast.values - w_engine.values).max() / peak < 1e-3


class TestPropagation:
    def test_semigroup_property(self):
        for par in (PhysParams(D=2.0), PhysParams(D=1.0, gamma=0.25, mass=1.2)):
            cat = ge.make_cat_state(separation=3.0, p0=-1.0, sigma=0.8, hbar=par.hbar)
            one = ge.propagate_mixture(cat, 1.3, par)
            two = ge.propagate_mixture(ge.propagate_mixture(cat, 0.5, par), 0.8, par)
            p = np.linspace(-6, 4, 41)
            q = np.linspace(-6, 6, 41)
            pp, qq = np.meshgrid(p, q, indexing="ij")
            a = ge.evaluate_state(one, pp, qq)
            b = ge.evaluate_state(two, pp, qq)
            assert np.abs(a - b).max() < 1e-9 * np.abs(a).max()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1])
    def test_non_finite_time_rejected(self, bad):
        with pytest.raises(ValueError, match="propagation time must be finite and non-negative"):
            ge.propagate_mixture(ge.make_gaussian_state(1.0, 0.0, 1.0), bad, PhysParams(D=1.0))

    @pytest.mark.parametrize("par", [PhysParams(D=2.0), PhysParams(D=0.0),
                                     PhysParams(D=0.5, gamma=0.1)], ids=["D2", "D0", "gamma"])
    def test_balanced_flux_equals_per_time_route(self, par):
        # one stacked algebra: each (terms x times) element takes the operations
        # of propagate_mixture at its own time, so the two routes agree exactly
        ts = np.concatenate([[0.3, 1.7, 5.0], np.linspace(0.0, 12.0, 241)])
        states = (
            ge.make_gaussian_state(p0=-3.0, q0=10.0, sigma=1.0),
            ge.make_cat_state(separation=4.0, p0=-2.0, sigma=0.7),
            ge.make_two_momentum_state(p1=-1.0, p2=-3.0, q0=5.0, sigma=1.0,
                                       ratio=0.8, rel_phase=0.4),
        )
        for state in states:
            stacked = ge._propagate_stacked(state, ts, par)
            _, flux, grad = ge._term_line_reductions(stacked, 0.0)
            evolved = [ge.propagate_mixture(state, t, par) for t in ts]
            want_flux = np.array([flux_density(e, 0.0, par.mass) for e in evolved])
            want_grad = np.array([position_density_gradient(e, 0.0) for e in evolved])
            assert np.array_equal(flux.sum(axis=0) / par.mass, want_flux)
            assert np.array_equal(grad.sum(axis=0), want_grad)
            want = want_flux
            if par.gamma:  # J_D is formed at gamma != 0 only
                want = want_flux - 0.5 * (par.hbar * par.b) ** 2 * want_grad
            assert np.array_equal(ge._balanced_flux(stacked, 0.0, par), want)

    def test_mass_conserved_with_dissipation(self):
        par = PhysParams(D=2.0, gamma=0.4)
        tm = ge.make_two_momentum_state(p1=-2.0, p2=2.0, q0=0.0, sigma=1.0)
        evolved = ge.propagate_mixture(tm, 2.0, par)
        assert math.isclose(_grid_mass(evolved), 1.0, rel_tol=1e-8)

    def test_cat_positive_after_positivity_time(self):
        par = PhysParams(D=2.0)
        scales = derive_timescales(par, p0=-10.0)
        cat = ge.make_cat_state(separation=4.0, p0=0.0, sigma=0.7)
        evolved = ge.propagate_mixture(cat, scales.t_positive, par)
        p = np.linspace(-8, 8, 241)
        q = np.linspace(-8, 8, 241)
        pp, qq = np.meshgrid(p, q, indexing="ij")
        vals = ge.evaluate_state(evolved, pp, qq)
        assert vals.min() >= -1e-6 * vals.max()

    def test_cat_still_negative_early(self):
        par = PhysParams(D=2.0)
        cat = ge.make_cat_state(separation=4.0, p0=0.0, sigma=0.7)
        evolved = ge.propagate_mixture(cat, 0.05, par)
        p = np.linspace(-4, 4, 241)
        vals = ge.evaluate_state(evolved, p, np.zeros_like(p))
        assert vals.min() < -1e-3 * vals.max()

    def test_fringe_damping_rate(self):
        # short-time interference damping approaches exp(-D d^2 t / hbar^2)
        par = PhysParams(D=2.0)
        d = 3.0
        cat = ge.make_cat_state(separation=d, p0=0.0, sigma=0.7)
        t = 1e-3
        w0 = _fringe_weight(cat)
        evolved = ge.propagate_mixture(cat, t, par)
        w1 = _fringe_weight(evolved)
        log_ratio = math.log(w1 / w0)
        assert math.isclose(log_ratio, -par.D * d * d * t / par.hbar ** 2,
                            rel_tol=0.02)

    def test_fringe_weight_decays_monotonically(self):
        par = PhysParams(D=2.0)
        cat = ge.make_cat_state(separation=3.0, p0=0.0, sigma=0.7)
        weights = []
        for t in (0.0, 0.2, 0.5, 1.0, 2.0):
            st_t = ge.propagate_mixture(cat, t, par)
            weights.append(_fringe_weight(st_t))
        assert all(b < a for a, b in zip(weights, weights[1:]))

    def test_hbar_mismatch_rejected(self):
        par = PhysParams(D=1.0, hbar=2.0)
        s = ge.make_gaussian_state(p0=0.0, q0=0.0, sigma=1.0, hbar=1.0)
        with pytest.raises(ValueError, match="hbar"):
            ge.propagate_mixture(s, 0.5, par)

    @settings(max_examples=25, deadline=None)
    @given(
        p0=st.floats(-5, 5),
        q0=st.floats(-5, 5),
        sigma=st.floats(0.3, 2.0),
        t=st.floats(0.01, 3.0),
    )
    def test_gaussian_moments_follow_flow_and_noise(self, p0, q0, sigma, t):
        par = PhysParams(D=1.5)
        s = ge.make_gaussian_state(p0=p0, q0=q0, sigma=sigma)
        mean, cov = ge.moments(ge.propagate_mixture(s, t, par))
        assert math.isclose(mean[0], p0, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(mean[1], q0 + p0 * t, rel_tol=1e-9, abs_tol=1e-9)
        noise = ge.qbm_covariance(t, par)
        base = ge.Cov2.from_matrix(ge.make_gaussian_state(p0=p0, q0=q0, sigma=sigma).terms.cov[0])
        decay, drift = ge.qbm_flow_entries(t, par)
        flowed = base.transform([[decay, 0.0], [drift, 1.0]])
        assert math.isclose(cov.pp, flowed.pp + noise.pp, rel_tol=1e-9)
        assert math.isclose(cov.qq, flowed.qq + noise.qq, rel_tol=1e-9)


class TestLineReductions:
    def test_position_density_matches_grid_marginal(self):
        par = PhysParams(D=2.0)
        tm = ge.make_two_momentum_state(p1=-1.0, p2=3.0, q0=1.0, sigma=1.0,
                                        ratio=0.8, rel_phase=0.4)
        evolved = ge.propagate_mixture(tm, 0.4, par)
        pax, qax = gr.default_axes(tm, par, t_max=0.4, n=600)
        w = gr.wigner_grid_from_state(evolved, pax, qax)
        dens = ge.position_density(evolved, qax.points)
        assert np.abs(position_marginal(w) - dens).max() < 1e-8 * dens.max()

    def test_flux_matches_grid_quadrature(self):
        par = PhysParams(D=2.0)
        tm = ge.make_two_momentum_state(p1=-1.0, p2=3.0, q0=1.0, sigma=1.0)
        evolved = ge.propagate_mixture(tm, 0.4, par)
        pax, qax = gr.default_axes(tm, par, t_max=0.4, n=640)
        w = gr.wigner_grid_from_state(evolved, pax, qax)
        prof = gr.slice_at_q0(w)
        flux_grid = np.trapezoid(pax.points / par.mass * prof, dx=pax.step)
        flux_cf = flux_density(evolved, 0.0, par.mass)
        assert math.isclose(flux_cf, flux_grid, rel_tol=2e-3)

    def test_gradient_matches_finite_difference(self):
        par = PhysParams(D=2.0)
        cat = ge.make_cat_state(separation=4.0, p0=-2.0, sigma=0.7)
        evolved = ge.propagate_mixture(cat, 0.3, par)
        h = 1e-5
        for q in (-1.0, 0.0, 0.8):
            fd = (ge.position_density(evolved, q + h) - ge.position_density(evolved, q - h)) / (2 * h)
            assert math.isclose(position_density_gradient(evolved, q), float(fd),
                                rel_tol=1e-6, abs_tol=1e-10)

    def test_husimi_smear_is_nonnegative(self):
        cat = ge.make_cat_state(separation=4.0, p0=0.0, sigma=0.7)
        q_rep = ge.husimi_smear(cat, s=1.0)
        p = np.linspace(-6, 6, 201)
        q = np.linspace(-6, 6, 201)
        pp, qq = np.meshgrid(p, q, indexing="ij")
        vals = ge.evaluate_state(q_rep, pp, qq)
        assert vals.min() >= -1e-12 * vals.max()


def _probit_by_quadrature(k, mu, var, alpha, beta):
    """int e^{i k y} N(y; mu, var) Phi(alpha + beta y) dy by adaptive quad,
    split at the probit edge -alpha/beta so that its width 1/beta is resolved."""
    sd = math.sqrt(var)
    edge = min(max(-alpha / beta, mu - 40.0 * sd), mu + 40.0 * sd)
    cuts = sorted({mu - 40.0 * sd, edge - 20.0 / beta, edge + 20.0 / beta, mu + 40.0 * sd})

    def f(y):
        gauss = math.exp(-0.5 * (y - mu) ** 2 / var) / math.sqrt(2.0 * math.pi * var)
        return gauss * float(ndtr(alpha + beta * y))

    total = 0j
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if k == 0.0:
            total += quad(f, lo, hi, limit=800, epsabs=1e-15)[0]
        else:
            for weight, unit in (("cos", 1.0), ("sin", 1j)):
                total += unit * quad(f, lo, hi, weight=weight, wvar=k, limit=800, epsabs=1e-15)[0]
    return total


class TestGaussianFourierProbit:
    @pytest.mark.parametrize("mu, var, alpha, beta", [
        (0.3, 0.7, 0.0, 1.0), (-2.0, 1.5, 0.4, 3.0), (5.0, 0.2, -1.0, 0.1),
        (60.0, 1.0, 0.0, 1e3), (-60.0, 1.0, 0.0, 1e3), (1.0, 2.0, -4.0, -2.5),
    ])
    def test_zero_frequency_is_a_probit(self, mu, var, alpha, beta):
        # with k = 0 the integral is P(Z < alpha + beta y), y ~ N(mu, var)
        got = ge._gaussian_fourier_probit(0.0, mu, var, alpha, beta)
        want = ndtr((alpha + beta * mu) / math.sqrt(1.0 + beta * beta * var))
        assert got.imag == 0.0
        assert math.isclose(got.real, want, rel_tol=1e-13, abs_tol=1e-300)

    @pytest.mark.parametrize("k_sd", [0.0, 1.0, 5.0, 30.0])
    @pytest.mark.parametrize("beta", [0.1, 1.0, 10.0, 1e3])
    @pytest.mark.parametrize("mu", [-0.7, 1.3])
    def test_matches_brute_force_quadrature(self, k_sd, beta, mu):
        var, alpha = 0.8, 0.25
        k = k_sd / math.sqrt(var)
        with np.errstate(over="raise", invalid="raise"):
            got = complex(ge._gaussian_fourier_probit(k, mu, var, alpha, beta))
        want = _probit_by_quadrature(k, mu, var, alpha, beta)
        assert abs(got - want) <= 1e-9 * max(abs(want), 1e-3), (got, want)

    def test_finite_far_out_without_overflow(self):
        # |alpha + beta mu| / s up to ~80 standard deviations on either side,
        # where the plain erfcx form overflows (x0^2 > 709) unless mirrored
        mu = np.linspace(-80.0, 80.0, 161)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for k in (0.0, 1.0, 30.0, 300.0):
                for beta in (1e-3, 1.0, 1e3):
                    got = ge._gaussian_fourier_probit(k, mu, 1.0, 0.0, beta)
                    assert np.all(np.isfinite(got))
                    assert np.all(np.abs(got) <= 1.0 + 1e-12)
        # the far right side holds the whole Fourier transform
        got = ge._gaussian_fourier_probit(2.0, 80.0, 1.0, 0.0, 1.0)
        assert abs(got - np.exp(2j * 80.0 - 2.0)) < 1e-15


class TestGaussianFourierHalfLine:
    def test_finite_far_inside_the_half_line(self):
        # (mu - hi) / (sigma sqrt 2) < -26.6 overflowed erfcx into a nan;
        # deep inside the half-line the integral is the whole transform
        mu = np.array([-10.0, -40.0, -80.0, -400.0])
        with np.errstate(over="raise", invalid="raise"):
            got = ge._gaussian_fourier_below(mu, 1.0, 2.0, 0.0)
        np.testing.assert_allclose(got, np.exp(2j * mu - 2.0), rtol=1e-13, atol=0.0)
        above = ge._gaussian_fourier_above(-mu, 1.0, 2.0, 0.0)
        np.testing.assert_allclose(above, np.exp(-2j * mu - 2.0), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("mu", [-3.0, -0.4, 0.0, 0.4, 3.0])
    def test_both_sides_match_quadrature(self, mu):
        var, beta, hi = 0.7, 1.7, 0.2
        got = complex(ge._gaussian_fourier_below(mu, var, beta, hi))

        def gauss(x):
            return math.exp(-0.5 * (x - mu) ** 2 / var) / math.sqrt(2.0 * math.pi * var)

        lo = mu - 40.0 * math.sqrt(var)
        re = quad(gauss, lo, hi, weight="cos", wvar=beta, epsabs=1e-15)[0]
        im = quad(gauss, lo, hi, weight="sin", wvar=beta, epsabs=1e-15)[0]
        assert abs(got - complex(re, im)) <= 1e-12, (got, re, im)
