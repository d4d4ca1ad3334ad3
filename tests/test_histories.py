"""Tests for the crossing-class (histories) constructions.

The window-function formulas form a ladder — exact, free, noise-folded,
strong-decoherence — and each rung is checked against an independent
route: the sine-integral window against scipy's Si, the exact functional
against the class-matrix diagonal of the reflected state and against a
frozen brute-force wavefunction value, the free window against adaptive
quadrature of its own integrand, and the chain matrix against the
single-window functional through a mirror identity.  Where two published
estimates genuinely disagree (the exact projection carries a window twice
as wide as the f(u) form), the comparison is kept as a strict xfail
rather than loosened.
"""

from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.special import erfc, sici

from qbflow.core_model import Interval, PhysParams
from qbflow import arrival as ar
from qbflow import gaussian_engine as ge
from qbflow import grid_engine as gr
from qbflow import histories as hi
from oracles import linear_crossing_probabilities


FREE = PhysParams(D=0.0)
NOISY = PhysParams(D=2.0)

# Frozen cross-engine reference: brute-force FFT wavefunction propagation
# (n = 2**16 points, box half-width 400) of the D = 0 crossing functional
# for a Gaussian with p0 = -6, q0 = 10, sigma = 1 over the window
# (2.0, 2.4).  Independent of every code path under test.
WAVEFUNCTION_ARBITER = 3.01269e-3

def _reference_class_matrix(state, windows, params, axis):
    """Full-matrix decoherence functional with every projector an explicit mask.

    Samples the whole backbone density matrix per class and multiplies by
    full n x n masks, so no block or index-split shortcut is involved.
    """
    x = axis.points
    left = (x < 0.0).astype(float)
    right = 1.0 - left
    ones = np.ones_like(x)

    def prop(values, t):
        return gr._propagate_density_split_raw(values, axis, t, params)

    mat = np.zeros((len(windows), len(windows)), dtype=complex)
    for k, (a_k, b_k) in enumerate(windows):
        base = gr.density_matrix_from_state(
            ge.propagate_mixture(state, a_k, params), axis
        ).values
        sym = prop(base * np.outer(right, right), b_k - a_k) * np.outer(left, left)
        mat[k, k] = np.trapezoid(np.diagonal(sym), x).real
        chain = prop(base * np.outer(right, ones), b_k - a_k) * np.outer(left, ones)
        reached = b_k
        for j in range(k + 1, len(windows)):
            a_j, b_j = windows[j]
            if a_j > reached:
                chain = prop(chain, a_j - reached)
            reached = a_j
            fork = prop(chain * np.outer(ones, right), b_j - a_j) * np.outer(ones, left)
            mat[k, j] = np.trapezoid(np.diagonal(fork), x)
            mat[j, k] = np.conjugate(mat[k, j])
    return mat


def _reference_delta_intermediate(state, window, params, u_cut=200.0):
    """delta_intermediate from one scalar ladder per conditional momentum.

    Each row descends its own Python ``while`` ladder and folds the noise
    kernel over it, with no lockstep arrays involved.  Returns
    ``(value, bound, ladders)``.
    """
    hbar, m = params.hbar, params.mass
    t1, dt = window.t1, window.width
    mean0, cov0 = ge.moments(state)
    p_bar = mean0[0]
    s_q = math.sqrt(2.0 * params.D * t1 ** 3 / 3.0) / m
    tau_l = hi.derive_timescales(params, p_bar).tau_l
    bound = (math.sqrt(2.0 * m * hbar / (p_bar * p_bar * t1)) / 16.0) * (tau_l / t1)
    sq0, sp0 = math.sqrt(cov0.qq), math.sqrt(cov0.pp)
    p0s = np.linspace(p_bar - 6.0 * sp0, p_bar + 6.0 * sp0, 71)
    x0s = np.linspace(mean0[1] - 6.0 * sq0, mean0[1] + 6.0 * sq0, 71)
    w0 = ge.evaluate_state(state, p0s[:, None], x0s[None, :])
    fmat = np.zeros((71, 71))
    ladders = []
    for i, p0 in enumerate(p0s):
        mus = x0s + p0 * t1 / m
        floor = float(np.min(mus)) - 9.0 * s_q
        ladder = [0.0]
        x = 0.0
        while True:
            step = min(s_q / 10.0, 0.35 * hbar / (abs(2.0 * m * x / dt + p0) + 1e-300))
            x -= step
            if x < floor:
                break
            ladder.append(x)
            if x * (m * x / dt + p0) / hbar > u_cut:
                break
        xs = np.array(ladder[::-1])
        ladders.append(xs)
        if len(ladder) < 2:
            continue
        fv = hi.f_integral(xs * (m * xs / dt + p0) / hbar)
        kern = np.exp(-0.5 * ((xs[None, :] - mus[:, None]) / s_q) ** 2) / (
            math.sqrt(2.0 * math.pi) * s_q
        )
        fmat[i] = np.trapezoid(kern * fv[None, :], xs, axis=1)
    value = float(np.trapezoid(np.trapezoid(w0 * fmat, x0s, axis=1), p0s))
    return value, bound, ladders


# Frozen adaptive-quadrature value of the delta_free integrand itself
# (scipy.integrate.quad over X, graded p bands) at p0 = -10, q0 = 50,
# sigma = 1, window (5.0, 5.4), D = 0.
FREE_QUAD_REFERENCE = 4.70700725e-3


class TestWindowFunction:
    def test_matches_reference_sine_integral(self):
        u = np.concatenate([np.linspace(-30.0, 30.0, 601), [-400.0, 123.456, 4.0]])
        si, _ = sici(u)
        assert np.max(np.abs(hi.f_integral(u) - (0.5 - si / np.pi))) < 1e-12

    def test_half_at_zero(self):
        assert hi.f_integral(0.0) == 0.5

    def test_reflection(self):
        for u in (0.3, 1.0, 5.0, 12.3):
            assert abs(hi.f_integral(u) + hi.f_integral(-u) - 1.0) < 1e-10

    def test_small_u_slope(self):
        for u in (1e-3, -1e-3, 0.009, -0.007):
            assert abs(hi.f_integral(u) - (0.5 - u / math.pi)) < 1e-6

    def test_scalar_and_array_shapes(self):
        assert isinstance(hi.f_integral(1.0), float)
        assert hi.f_integral(np.ones((2, 3))).shape == (2, 3)

    def test_series_and_tail_join_smoothly(self):
        below, above = hi.f_integral(3.9999999), hi.f_integral(4.0000001)
        assert abs(below - above) < 1e-6

    @settings(max_examples=50, deadline=None)
    @given(hst.floats(min_value=-80.0, max_value=80.0))
    def test_reflection_property(self, u):
        assert abs(hi.f_integral(u) + hi.f_integral(-u) - 1.0) < 1e-10

    def test_frozen_values_match_sici(self):
        # f(u) at 1/2 - Si(u)/pi from 40-digit arithmetic (mpmath), near
        # the origin, on both sides of |u| = 4 and far into the ringing tail.
        frozen = {
            1e-3: 0.49968169013150009136,
            3.9999999: -0.059653447069299293172,
            4.0000001: -0.059653435024413485918,
            37.5: 0.0082642390831081943289,
            400.0: -0.00041970510639196905968,
        }
        for u, f in frozen.items():
            for v, ref in ((u, f), (-u, 1.0 - f)):
                assert abs(hi.f_integral(v) - ref) < 1e-15
                assert abs(hi.f_integral(v) - (0.5 - sici(v)[0] / math.pi)) < 1e-15


class TestSurvivalAndLinear:
    def test_matches_position_density_mass(self):
        states = (
            ge.make_gaussian_state(p0=-6.0, q0=10.0, sigma=1.0),
            # fringe terms exercise the damped plane waves of _right_mass
            ge.shift_state(ge.make_cat_state(4.0, -6.0, 1.0), dq=10.0),
            ge.make_two_momentum_state(-4.0, -8.0, 10.0, 1.5, ratio=0.7, rel_phase=0.4),
        )
        for st in states:
            for par, t in ((FREE, 1.2), (NOISY, 1.2), (NOISY, 2.5)):
                xs = np.linspace(0.0, 80.0, 40001)
                dens = ge.position_density(ge.propagate_mixture(st, t, par), xs)
                direct = np.trapezoid(dens, xs)
                assert abs(hi.survival_probability(st, t, par) - direct) < 1e-6

    def test_initially_normalised(self):
        st = ge.make_gaussian_state(p0=-6.0, q0=10.0, sigma=1.0)
        assert abs(hi.survival_probability(st, 0.0, FREE) - 1.0) < 1e-9

    def test_far_right_fringe_is_finite(self):
        # the fringe term 40 sigma right of the origin made the half-line
        # Fourier integral overflow, and S(0) came out nan
        cat = ge.shift_state(ge.make_cat_state(4.0, -10.0, 1.0), dq=40.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            s0 = hi.survival_probability(cat, 0.0, FREE)
        assert abs(s0 - 1.0) < 1e-15

    def test_telescoping_partition(self):
        st = ge.make_gaussian_state(p0=-6.0, q0=10.0, sigma=1.0)
        bounds = [0.0, 0.8, 1.5, 1.9, 2.6, 4.0]
        p_lin = linear_crossing_probabilities(st, bounds, NOISY)
        total = p_lin.sum() + hi.survival_probability(st, bounds[-1], NOISY)
        assert abs(total - hi.survival_probability(st, bounds[0], NOISY)) < 1e-9

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1])
    def test_non_finite_time_rejected(self, bad):
        with pytest.raises(ValueError, match="propagation time must be finite and non-negative"):
            hi.survival_probability(ge.make_gaussian_state(-6.0, 10.0, 1.0), bad, NOISY)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1])
    def test_non_finite_boundary_rejected(self, bad):
        st = ge.make_gaussian_state(-6.0, 10.0, 1.0)
        with pytest.raises(ValueError, match="boundaries must be finite and non-negative"):
            hi.crossing_class_matrix(st, [0.5, 1.0, bad], NOISY)

    def test_boundary_validation(self):
        st = ge.make_gaussian_state(p0=-6.0, q0=10.0, sigma=1.0)
        with pytest.raises(ValueError, match="at least two"):
            linear_crossing_probabilities(st, [1.0], FREE)
        with pytest.raises(ValueError, match="strictly increasing"):
            linear_crossing_probabilities(st, [1.0, 1.0, 2.0], FREE)
        with pytest.raises(ValueError, match="non-negative"):
            linear_crossing_probabilities(st, [-0.5, 1.0], FREE)

    @pytest.mark.parametrize("bad", [
        [1.0], [[0.5, 1.0], [1.5, 2.0]], [0.5, math.nan], [0.5, math.inf],
        [-0.5, 1.0], [0.5, 0.5, 1.0], [1.0, 0.5],
    ])
    def test_one_schedule_check(self, bad):
        # the class partition and the current's sample times are both
        # schedules after preparation, refused by the same check
        st = ge.make_gaussian_state(p0=-6.0, q0=10.0, sigma=1.0)
        with pytest.raises(ValueError) as scan:
            ar.backflow_scan(st, NOISY, bad)
        with pytest.raises(ValueError) as chain:
            hi.crossing_class_matrix(st, bad, NOISY)
        assert str(scan.value).replace("sample times", "boundaries") == str(chain.value)


def _reflected_diagonal(state, window, n):
    """Grid check of delta_exact: parity swaps the two projectors, so the
    class-matrix diagonal of the reflected state is the same trace."""
    mat = hi.crossing_class_matrix(
        ge.reflect_state(state), [window.t1, window.t2], NOISY, n=n
    )
    return mat[0, 0].real


class TestDeltaExact:
    def test_routes_agree_for_noisy_gaussian(self):
        st = ge.make_gaussian_state(p0=-6.0, q0=10.0, sigma=1.0)
        win = Interval(2.0, 2.4)
        closed = hi.delta_exact(st, win, NOISY)
        assert abs(_reflected_diagonal(st, win, 4096) / closed - 1.0) < 0.02

    def test_routes_agree_for_noisy_cat(self):
        cat = ge.shift_state(
            ge.make_cat_state(separation=3.0, p0=-6.0, sigma=1.0), dq=10.0
        )
        win = Interval(2.0, 2.4)
        closed = hi.delta_exact(cat, win, NOISY)
        assert abs(_reflected_diagonal(cat, win, 4096) / closed - 1.0) < 0.02

    def test_free_closed_matches_wavefunction_arbiter(self):
        st = ge.make_gaussian_state(p0=-6.0, q0=10.0, sigma=1.0)
        val = hi.delta_exact(st, Interval(2.0, 2.4), FREE)
        assert abs(val / WAVEFUNCTION_ARBITER - 1.0) < 5e-3

    def test_far_right_state_negligible(self):
        far = ge.make_gaussian_state(p0=-10.0, q0=200.0, sigma=1.0)
        assert hi.delta_exact(far, Interval(0.5, 1.0), FREE) < 1e-12

    def test_rising_packet_crosses_back(self):
        # A right-mover that starts on the left is almost surely on the
        # right by the window's close: the functional saturates near 1.
        ris = ge.make_gaussian_state(p0=10.0, q0=-5.0, sigma=1.0)
        win = Interval(0.1, 1.0)
        closed = hi.delta_exact(ris, win, NOISY)
        assert closed > 0.99
        assert abs(_reflected_diagonal(ris, win, 4096) / closed - 1.0) < 0.02

    @pytest.mark.xfail(
        strict=True,
        reason="the exact functional projects onto x,y < 0, a window twice "
        "as wide in the off-diagonal coordinate as the f(u) form behind the "
        "asymptotic estimate; the two sit a factor ~2 apart, not within 30%",
    )
    def test_receded_packet_matches_asymptotic_estimate(self):
        rec = ge.make_gaussian_state(p0=-10.0, q0=1.0, sigma=1.0)
        win = Interval(0.2, 0.6)
        exact = hi.delta_exact(rec, win, FREE)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            asym = hi.delta_free_asymptotic(rec, win, FREE)
        assert abs(exact / asym - 1.0) < 0.3

    def test_dissipation_rejected(self):
        st = ge.make_gaussian_state(p0=-6.0, q0=10.0, sigma=1.0)
        damped = PhysParams(D=2.0, gamma=0.05)
        with pytest.raises(ValueError, match="negligible dissipation"):
            hi.delta_exact(st, Interval(2.0, 2.4), damped)

    @pytest.mark.parametrize("t1", [1e5, 1e6])
    def test_unresolvable_window_refused(self, t1):
        # the xi midpoint rule needs tens of millions of points here, and on
        # fewer it reads garbage (8.7e-3 at t1 = 1e5, resolved 1.4e-6), so the
        # window is refused with the count it needs
        st = ge.make_gaussian_state(p0=-10.0, q0=14.0, sigma=1.0)
        with pytest.raises(ValueError, match=r"needs \d+ xi quadrature points"):
            hi.delta_exact(st, Interval(t1, t1 + 1.0), NOISY)


class TestDeltaFree:
    def test_matches_adaptive_quadrature_reference(self):
        st = ge.make_gaussian_state(p0=-10.0, q0=50.0, sigma=1.0)
        val = hi.delta_free(st, Interval(5.0, 5.4), FREE)
        assert abs(val / FREE_QUAD_REFERENCE - 1.0) < 1e-3

    def test_flat_window_gives_half_left_mass(self, monkeypatch):
        # With f replaced by the constant 1/2 the integral collapses to
        # half the mass left of the origin at the window's opening,
        # whatever the grids do.  The state is fat and slow so the whole
        # support sits inside the finite-|u| zone of the integrator.
        fat = ge.make_gaussian_state(p0=-0.5, q0=0.0, sigma=5.0)
        win = Interval(0.2, 10.2)
        monkeypatch.setattr(
            hi, "f_integral",
            lambda u: np.full_like(np.asarray(u, dtype=float), 0.5),
        )
        patched = hi.delta_free(fat, win, FREE)
        half_left = 0.5 * (1.0 - hi.survival_probability(fat, 0.2, FREE))
        assert abs(patched / half_left - 1.0) < 1e-3

    def test_tight_momentum_packet_reduces_to_position_quadrature(self):
        # For sigma_p << |p0| the momentum integral pins p = p0 and the
        # formula degenerates to a single quadrature of f over the
        # position density.
        tm = ge.make_gaussian_state(p0=-10.0, q0=2.0, sigma=8.0)
        win = Interval(0.5, 0.9)
        val = hi.delta_free(tm, win, FREE)
        st1 = ge.propagate_mixture(tm, win.t1, FREE)
        xs = np.linspace(-60.0, 0.0, 20001)
        dens = ge.position_density(st1, xs)
        u = xs * (xs / win.width - 10.0)
        ref = np.trapezoid(dens * hi.f_integral(u), xs)
        assert abs(val / ref - 1.0) < 0.01

    @pytest.mark.xfail(
        strict=True,
        reason="the f(u) window is half as wide as the exact projection's; "
        "the estimate lands a factor ~2 above the exact functional at D = 0",
    )
    def test_agrees_with_exact_functional_at_free_limit(self):
        st = ge.make_gaussian_state(p0=-6.0, q0=10.0, sigma=1.0)
        win = Interval(2.0, 2.4)
        val = hi.delta_free(st, win, FREE)
        exact = hi.delta_exact(st, win, FREE)
        assert abs(val / exact - 1.0) < 0.01

    def test_dissipation_rejected(self):
        st = ge.make_gaussian_state(p0=-6.0, q0=10.0, sigma=1.0)
        damped = PhysParams(D=2.0, gamma=0.05)
        with pytest.raises(ValueError, match="negligible dissipation"):
            hi.delta_free(st, Interval(2.0, 2.4), damped)


class TestDeltaFreeAsymptotic:
    def test_centred_anchor_value(self):
        # sigma = 1, |p0| = 10, centre reaching the origin exactly at t1:
        # the prefactor is sqrt(pi/2)/80 with no suppression factor.
        st = ge.make_gaussian_state(p0=-10.0, q0=1.0, sigma=1.0)
        val = hi.delta_free_asymptotic(st, Interval(0.1, 0.5), FREE)
        assert abs(val / (math.sqrt(math.pi / 2.0) / 80.0) - 1.0) < 1e-12

    def test_prefactor_halves_with_doubled_width(self):
        st = ge.make_gaussian_state(p0=-10.0, q0=1.0, sigma=2.0)
        val = hi.delta_free_asymptotic(st, Interval(0.1, 0.5), FREE)
        assert abs(val / (math.sqrt(math.pi / 2.0) / 160.0) - 1.0) < 1e-12

    def test_centred_quadrature_agreement(self):
        st = ge.make_gaussian_state(p0=-10.0, q0=1.0, sigma=1.0)
        win = Interval(0.1, 0.5)
        asym = hi.delta_free_asymptotic(st, win, FREE)
        quad = hi.delta_free(st, win, FREE)
        assert abs(quad / asym - 1.0) < 0.3

    def test_receded_quadrature_agreement(self):
        rec = ge.make_gaussian_state(p0=-10.0, q0=1.0, sigma=1.0)
        win = Interval(0.2, 0.6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            asym = hi.delta_free_asymptotic(rec, win, FREE)
        quad = hi.delta_free(rec, win, FREE)
        assert abs(quad / asym - 1.0) < 0.3

    def test_short_window_warns(self):
        st = ge.make_gaussian_state(p0=-10.0, q0=1.0, sigma=1.0)
        with pytest.warns(RuntimeWarning, match="shorter than"):
            hi.delta_free_asymptotic(st, Interval(0.1, 0.15), FREE)

    def test_missed_origin_warns(self):
        st = ge.make_gaussian_state(p0=-10.0, q0=5.0, sigma=1.0)
        with pytest.warns(RuntimeWarning, match="misses the origin"):
            hi.delta_free_asymptotic(st, Interval(0.1, 0.5), FREE)

    def test_positive_momentum_rejected(self):
        st = ge.make_gaussian_state(p0=10.0, q0=-5.0, sigma=1.0)
        with pytest.raises(ValueError, match="negative mean momentum"):
            hi.delta_free_asymptotic(st, Interval(0.1, 0.5), FREE)


class TestDeltaIntermediate:
    def test_bound_arithmetic(self):
        st = ge.make_gaussian_state(p0=-10.0, q0=70.0, sigma=1.0)
        _, bound = hi.delta_intermediate(st, Interval(5.0, 5.4), NOISY)
        # m hbar / (8 |p0| sqrt(D t1^3)) at p0 = -10, D = 2, t1 = 5
        analytic = 1.0 / (8.0 * 10.0 * math.sqrt(2.0 * 125.0))
        assert abs(bound / analytic - 1.0) < 1e-12

    def test_offset_states_sit_below_bound(self):
        win = Interval(5.0, 5.4)
        for p0, q0, sig in ((-10.0, 70.0, 1.0), (-12.0, 38.0, 1.5)):
            st = ge.make_gaussian_state(p0=p0, q0=q0, sigma=sig)
            value, bound = hi.delta_intermediate(st, win, NOISY)
            assert 0.0 < value < bound

    def test_centred_state_exceeds_literal_bound(self):
        # The bound keeps no O(1) factors (the true supremum of the noise
        # fold is sqrt(3 pi)/2 larger), so a packet crossing dead-centre
        # in the window legitimately overshoots it.
        st = ge.make_gaussian_state(p0=-10.0, q0=50.0, sigma=1.0)
        value, bound = hi.delta_intermediate(st, Interval(5.0, 5.4), NOISY)
        assert bound < value < 1.6 * bound

    def test_reduces_to_free_window_at_weak_noise(self):
        st = ge.make_gaussian_state(p0=-10.0, q0=50.0, sigma=1.0)
        win = Interval(5.0, 5.4)
        weak = PhysParams(D=0.002)
        with pytest.warns(RuntimeWarning, match="localisation times"):
            folded, _ = hi.delta_intermediate(st, win, weak)
        free = hi.delta_free(st, win, FREE)
        assert abs(folded / free - 1.0) < 0.05

    @pytest.mark.xfail(
        strict=True,
        reason="the folded window inherits the f(u) convention and lands a "
        "factor ~1.9 above the exact functional, not within 30%",
    )
    def test_agrees_with_exact_functional_in_regime(self):
        st = ge.make_gaussian_state(p0=-10.0, q0=50.0, sigma=1.0)
        win = Interval(5.0, 5.4)
        value, _ = hi.delta_intermediate(st, win, NOISY)
        exact = hi.delta_exact(st, win, NOISY)
        assert abs(value / exact - 1.0) < 0.3

    def test_lockstep_ladders_match_scalar_reference(self):
        win = Interval(5.0, 5.3)
        gauss = ge.make_gaussian_state(p0=-10.0, q0=50.0, sigma=1.0)
        cat = ge.shift_state(
            ge.make_cat_state(separation=3.0, p0=-10.0, sigma=1.0), dq=50.0
        )
        for st in (gauss, cat):
            value, bound = hi.delta_intermediate(st, win, NOISY)
            ref_value, ref_bound, ref_ladders = _reference_delta_intermediate(
                st, win, NOISY
            )
            assert value > 1e-4
            assert abs(value / ref_value - 1.0) < 1e-12
            assert abs(bound / ref_bound - 1.0) < 1e-12
            # Rebuild the lockstep ladders from the same inputs and demand
            # every point bit for bit.
            mean0, cov0 = ge.moments(st)
            sp0, sq0 = math.sqrt(cov0.pp), math.sqrt(cov0.qq)
            p0s = np.linspace(mean0[0] - 6.0 * sp0, mean0[0] + 6.0 * sp0, 71)
            x0s = np.linspace(mean0[1] - 6.0 * sq0, mean0[1] + 6.0 * sq0, 71)
            s_q = math.sqrt(2.0 * NOISY.D * win.t1 ** 3 / 3.0) / NOISY.mass
            mus = x0s[None, :] + p0s[:, None] * win.t1 / NOISY.mass
            ladders = hi._window_ladders(
                np.min(mus, axis=1) - 9.0 * s_q, p0s, s_q,
                NOISY.mass, NOISY.hbar, win.width,
            )
            assert len(ladders) == len(ref_ladders) == 71
            for lad, ref in zip(ladders, ref_ladders):
                np.testing.assert_array_equal(lad, ref)

    def test_early_window_warns(self):
        st = ge.make_gaussian_state(p0=-10.0, q0=20.0, sigma=1.0)
        with pytest.warns(RuntimeWarning, match="opens only"):
            hi.delta_intermediate(st, Interval(2.0, 2.3), NOISY)

    def test_long_window_warns(self):
        st = ge.make_gaussian_state(p0=-10.0, q0=50.0, sigma=1.0)
        with pytest.warns(RuntimeWarning, match="spans"):
            hi.delta_intermediate(st, Interval(5.0, 6.5), NOISY)

    def test_validation(self):
        st = ge.make_gaussian_state(p0=-10.0, q0=50.0, sigma=1.0)
        with pytest.raises(ValueError, match="D > 0"):
            hi.delta_intermediate(st, Interval(5.0, 5.4), FREE)
        with pytest.raises(ValueError, match="t1 > 0"):
            hi.delta_intermediate(st, Interval(0.0, 0.4), NOISY)
        still = ge.make_gaussian_state(p0=0.0, q0=5.0, sigma=1.0)
        with pytest.raises(ValueError, match="zero mean momentum"):
            hi.delta_intermediate(still, Interval(5.0, 5.4), NOISY)


def _grid_delta_strong(state, window, params):
    """Oracle: delta_strong's window on a 701-point p-grid over mean_p +- 7.5 sigma_p,
    on the same 1501-point X grid and strip as the closed form."""
    m, dt = params.mass, window.width
    st = ge.propagate_mixture(state, window.t1, params)
    mean, cov = ge.moments(st)
    sq, sp = math.sqrt(cov.qq), math.sqrt(cov.pp)
    lam = math.sqrt(3.0 * m * m / (4.0 * params.D * dt ** 3))
    strip = (abs(mean[0]) + 7.5 * sp) * dt / m + 4.0 / lam
    xs = np.linspace(max(mean[1] - 8.0 * sq, -strip), min(0.0, mean[1] + 8.0 * sq), 1501)
    ps = np.linspace(mean[0] - 7.5 * sp, mean[0] + 7.5 * sp, 701)
    w = ge.evaluate_state(st, ps[:, None], xs[None, :])
    win = 0.5 * erfc(-lam * (xs[None, :] + ps[:, None] * dt / m))
    return float(np.trapezoid(np.trapezoid(w * win, ps, axis=0), xs))


class TestDeltaStrong:
    @pytest.mark.parametrize("kind", ["gaussian", "cat", "two_momentum"])
    @pytest.mark.parametrize("window", [(5.0, 9.0), (4.0, 6.5)])
    def test_matches_grid_oracle(self, kind, window):
        state = {
            "gaussian": ge.make_gaussian_state(p0=-10.0, q0=30.0, sigma=1.0),
            "cat": ge.shift_state(ge.make_cat_state(separation=3.0, p0=-10.0, sigma=1.0), dq=30.0),
            "two_momentum": ge.make_two_momentum_state(
                p1=-8.0, p2=-12.0, q0=30.0, sigma=1.0, ratio=0.6, rel_phase=0.7
            ),
        }[kind]
        win = Interval(*window)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # regime warnings
            got = hi.delta_strong(state, win, NOISY)
        ref = _grid_delta_strong(state, win, NOISY)
        assert ref > 1e-6
        assert abs(got - ref) <= 1e-12 * abs(ref) + 1e-30, (got, ref)

    def test_long_receded_state_negligible(self):
        rec = ge.make_gaussian_state(p0=-10.0, q0=5.0, sigma=1.0)
        assert hi.delta_strong(rec, Interval(2.0, 5.0), NOISY) < 1e-3

    def test_in_regime_matches_exact_functional(self):
        # Receded packet, window spanning 4 localisation times: the
        # classical bulk dominates and the error-function window tracks
        # the exact functional.
        rec = ge.make_gaussian_state(p0=-10.0, q0=30.0, sigma=1.0)
        win = Interval(5.0, 9.0)
        strong = hi.delta_strong(rec, win, NOISY)
        exact = hi.delta_exact(rec, win, NOISY)
        assert abs(strong / exact - 1.0) < 0.3

    def test_short_window_warns(self):
        rec = ge.make_gaussian_state(p0=-10.0, q0=30.0, sigma=1.0)
        with pytest.warns(RuntimeWarning, match="localisation times"):
            hi.delta_strong(rec, Interval(5.0, 5.5), NOISY)

    def test_long_window_warns_about_momentum_diffusion(self):
        rec = ge.make_gaussian_state(p0=-10.0, q0=30.0, sigma=1.0)
        with pytest.warns(RuntimeWarning, match="stochastic times"):
            hi.delta_strong(rec, Interval(5.0, 19.0), NOISY)

    def test_needs_noise(self):
        rec = ge.make_gaussian_state(p0=-10.0, q0=30.0, sigma=1.0)
        with pytest.raises(ValueError, match="D > 0"):
            hi.delta_strong(rec, Interval(5.0, 9.0), FREE)


class TestCrossingChain:
    def test_mirror_identity_against_exact_functional(self):
        # The diagonal of the class matrix is the crossing functional of
        # the space-inverted state: right/left masks swap roles under
        # (p, q) -> (-p, -q), which delta_exact evaluates independently.
        st = ge.make_gaussian_state(p0=-6.0, q0=10.0, sigma=1.0)
        mat = hi.crossing_class_matrix(st, [2.0, 2.4], NOISY, n=2048)
        mirror = ge.make_gaussian_state(p0=6.0, q0=-10.0, sigma=1.0)
        ref = hi.delta_exact(mirror, Interval(2.0, 2.4), NOISY)
        assert abs(mat[0, 0].real / ref - 1.0) < 0.01

    def test_diagonal_matches_grid_free_oracle(self):
        # D[k, k] = Tr[P_L U (P_R rho(a_k) P_R)] is the semianalytic
        # delta_exact of the state reflected through the origin, which shares
        # no numerics with the split-step (it is good to ~1e-8).  The hard
        # projector edge converges algebraically but not monotonically on
        # the grid: the signed gaps measure -7.7e-5, -1.9e-5 and +1.2e-5 at
        # n = 1024, 2048 and 4096.  The gate follows n^-2 over the first two
        # with ~2.5x headroom; a wrong mask or a lost block moves p_sq by ~1e-2.
        st = ge.make_gaussian_state(p0=-6.0, q0=10.0, sigma=1.0)
        ivs = [Interval(2.0, 2.2), Interval(2.2, 2.4)]
        mirror = ge.reflect_state(st)
        ref = np.array([hi.delta_exact(mirror, iv, NOISY) for iv in ivs])
        gaps = []
        for n in (1024, 2048):
            _, p_sq, _ = hi.class_operator_probability(st, ivs, NOISY, eps=0.1, n=n)
            gaps.append(np.abs(p_sq - ref).max())
            assert gaps[-1] < 2e-4 * (1024 / n) ** 2
        assert gaps[1] < 0.5 * gaps[0]

    def test_interval_route_matches_matrix(self):
        st = ge.make_gaussian_state(p0=-6.0, q0=10.0, sigma=1.0)
        mat = hi.crossing_class_matrix(st, [2.0, 2.2, 2.4], NOISY, n=2048)
        ivs = [Interval(2.0, 2.2), Interval(2.2, 2.4)]
        _, p_sq, off = hi.class_operator_probability(st, ivs, NOISY, eps=0.1, n=2048)
        assert np.max(np.abs(p_sq - np.diag(mat).real)) < 1e-12
        assert abs(off - abs(mat[0, 1])) < 1e-12

    def test_matrix_is_hermitian_with_positive_diagonal(self):
        st = ge.make_gaussian_state(p0=-6.0, q0=10.0, sigma=1.0)
        mat = hi.crossing_class_matrix(st, [2.0, 2.2, 2.4], NOISY, n=1024)
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
        assert np.all(np.diag(mat).real > -1e-12)

    def test_off_diagonals_respect_cauchy_schwarz(self):
        st = ge.make_gaussian_state(p0=-6.0, q0=10.0, sigma=1.0)
        mat = hi.crossing_class_matrix(st, [2.0, 2.2, 2.4, 2.6], NOISY, n=1024)
        diag = np.diag(mat).real
        for k in range(len(diag)):
            for m in range(k + 1, len(diag)):
                assert abs(mat[k, m]) ** 2 <= diag[k] * diag[m] * (1 + 1e-9) + 1e-15

    @pytest.mark.parametrize(
        "bounds",
        [[2.0, 2.2], [2.0, 2.2, 2.4], [2.0, 2.2, 2.4, 2.6]],
        ids=["1_class", "2_classes", "3_classes"],
    )
    def test_matrix_matches_explicit_mask_reference(self, bounds):
        # Each class's diagonal step and last fork run on the chain itself;
        # with three classes entry (0, 2) carries the chain propagated
        # through class 1, right rows included.
        st = ge.make_gaussian_state(p0=-6.0, q0=10.0, sigma=1.0)
        mat = hi.crossing_class_matrix(st, bounds, NOISY, n=1024)
        axis, _ = hi._chain_axis(st, bounds, NOISY, 1024)
        windows = list(zip(bounds, bounds[1:]))
        ref = _reference_class_matrix(st, windows, NOISY, axis)
        if len(windows) == 3:
            assert np.max(np.abs(ref[0, 2:])) > 1e-6
        np.testing.assert_allclose(mat, ref, rtol=0.0, atol=1e-12)

    def test_gapped_intervals_match_explicit_mask_reference(self):
        # Gaps between windows propagate the chain between classes, so every
        # off-diagonal entry sees a chain whose right rows are refilled.
        st = ge.make_gaussian_state(p0=-6.0, q0=10.0, sigma=1.0)
        ivs = [Interval(2.0, 2.1), Interval(2.2, 2.3), Interval(2.4, 2.5)]
        windows = [(iv.t1, iv.t2) for iv in ivs]
        axis, _ = hi._chain_axis(st, [t for w in windows for t in w], NOISY, 1024)
        ref = _reference_class_matrix(st, windows, NOISY, axis)
        mat = hi._class_matrix(st, windows, NOISY, axis)
        np.testing.assert_allclose(mat, ref, rtol=0.0, atol=1e-12)
        _, p_sq, off = hi.class_operator_probability(st, ivs, NOISY, eps=0.05, n=1024)
        np.testing.assert_allclose(p_sq, np.diag(ref).real, rtol=0.0, atol=1e-12)
        offdiag = np.abs(ref - np.diag(np.diag(ref)))
        assert abs(off - offdiag.max()) < 1e-12

    @pytest.mark.parametrize(
        "bounds, arrays, steps",
        [
            ([2.0, 2.2], 1.2, 1),
            ([2.0, 2.2, 2.4], 1.2, 4),
            ([2.0, 2.2, 2.4, 2.6], 2.2, 9),
        ],
        ids=["1_class", "2_classes", "3_classes"],
    )
    def test_matrix_holds_one_padded_array_below_three_classes(
        self, monkeypatch, bounds, arrays, steps
    ):
        # every step runs in place on the chain, and a second array exists
        # only for a fork that is not its class's last (three or more
        # classes); one more n x n copy breaks the memory bound, and an
        # unpadded array (whose column passes map onto the same cache sets,
        # about 1.5x slower at n = 4096) the strides
        step = hi._propagate_density_split_raw
        row_strides = []

        def spy(values, *args, **kwargs):
            row_strides.append(values.strides)
            return step(values, *args, **kwargs)

        monkeypatch.setattr(hi, "_propagate_density_split_raw", spy)
        st = ge.make_gaussian_state(p0=-6.0, q0=10.0, sigma=1.0)
        axis, _ = hi._chain_axis(st, bounds, NOISY, 1024)
        assert axis.n == 1024
        windows = list(zip(bounds, bounds[1:]))
        tracemalloc.start()
        try:
            hi._class_matrix(st, windows, NOISY, axis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < arrays * 16 * axis.n * (axis.n + gr._ROW_PAD)
        # per class one diagonal step; per class but the last one chain step
        # and one fork per later class; with three classes one advance
        # (class 0 past class 1)
        assert row_strides == [((axis.n + gr._ROW_PAD) * 16, 16)] * steps

    def test_wrap_sentinel_fires_on_fork_step(self):
        # Only the terminal fork step of class 0 against class 1 reaches the
        # box edge (border/peak ~5e-3 > 2e-3); every other step stays at or
        # below 1e-3, so dropping or skipping the fork loses the check.
        st = ge.make_gaussian_state(p0=-3.0, q0=6.0, sigma=1.0)
        par = PhysParams(D=0.5)
        with pytest.raises(ValueError, match="grid too small"):
            hi.crossing_class_matrix(st, [1.0, 2.0, 3.0], par, n=512)
        hi.crossing_class_matrix(st, [1.0, 2.0], par, n=512)

    def test_one_class_has_no_interference(self):
        # a 1 x 1 matrix has no off-diagonal entry to read
        st = ge.make_gaussian_state(p0=-3.0, q0=6.0, sigma=1.0)
        par = PhysParams(D=0.5)
        _, p_sq, off = hi.class_operator_probability(st, [Interval(1.0, 2.0)], par, eps=0.1, n=512)
        assert off == 0.0
        assert p_sq[0] == hi.crossing_class_matrix(st, [1.0, 2.0], par, n=512)[0, 0].real

    def test_linear_probabilities_from_survival(self):
        st = ge.make_gaussian_state(p0=-6.0, q0=10.0, sigma=1.0)
        ivs = [Interval(2.0, 2.1), Interval(2.3, 2.4)]
        p_lin, _, _ = hi.class_operator_probability(st, ivs, NOISY, eps=0.05, n=1024)
        for k, iv in enumerate(ivs):
            direct = hi.survival_probability(st, iv.t1, NOISY) - hi.survival_probability(
                st, iv.t2, NOISY
            )
            assert abs(p_lin[k] - direct) < 1e-12

    def test_battery_shares_criterion_09_grid(self):
        # The decoherent battery (energetic Gaussian, windows of 12.5
        # hbar/E, opening 5 localisation times in) is gated by acceptance
        # criterion 09 at n = 2048.  Nyquist raises n = 1024 and n = 2048
        # to the same axis, so those gates cover the battery at either n.
        bat = ge.make_gaussian_state(p0=-10.0, q0=60.0, sigma=1.0)
        times = [5.0 + 0.25 * k for k in range(7)]
        assert hi._chain_axis(bat, times, NOISY, 1024) == hi._chain_axis(
            bat, times, NOISY, 2048
        )

    def test_zeno_guard_vetoes_fine_windows(self):
        bat = ge.make_gaussian_state(p0=-10.0, q0=60.0, sigma=1.0)
        with pytest.raises(ValueError, match="Zeno"):
            hi.class_operator_probability(bat, [Interval(5.0, 5.01)], NOISY)

    @pytest.mark.parametrize(
        "eps", [math.nan, math.inf, -math.inf, -1.0, True],
        ids=["nan", "inf", "-inf", "negative", "bool"],
    )
    def test_eps_validated(self, eps):
        # a nan or negative floor would switch the Zeno guard off silently
        bat = ge.make_gaussian_state(p0=-10.0, q0=60.0, sigma=1.0)
        with pytest.raises(ValueError, match=f"eps must be None or a finite real >= 0, got {eps!r}"):
            hi.class_operator_probability(bat, [Interval(5.0, 5.02)], NOISY, eps=eps)

    def test_interval_validation(self):
        st = ge.make_gaussian_state(p0=-6.0, q0=10.0, sigma=1.0)
        with pytest.raises(ValueError, match="at least one"):
            hi.class_operator_probability(st, [], NOISY)
        with pytest.raises(ValueError, match="non-overlapping"):
            hi.class_operator_probability(
                st, [Interval(1.0, 2.0), Interval(1.5, 3.0)], NOISY, eps=0.1
            )

    @pytest.mark.parametrize(
        "n, match",
        [
            (1024.0, "n must be None or an integer"),
            (0, "n must be None or an integer"),
            (-4, "n must be None or an integer"),
            (math.nan, "n must be None or an integer"),
            (True, "n must be None or an integer"),
            (2.5, "n must be None or an integer"),
            (5000, "n = 5000 is above the chain grid's 4096-point limit"),
        ],
        ids=["float", "zero", "negative", "nan", "bool", "fraction", "above_limit"],
    )
    def test_grid_floor_validated(self, n, match):
        st = ge.make_gaussian_state(p0=-6.0, q0=10.0, sigma=1.0)
        with pytest.raises(ValueError, match=match):
            hi.crossing_class_matrix(st, [2.0, 2.4], NOISY, n=n)

    def test_grid_floor_accepts_numpy_integers(self):
        st = ge.make_gaussian_state(p0=-6.0, q0=10.0, sigma=1.0)
        times = [2.0, 2.4]
        ref = hi._chain_axis(st, times, NOISY, 1024)
        assert hi._chain_axis(st, times, NOISY, np.int64(1024)) == ref
        assert hi._chain_axis(st, times, NOISY, None) == ref
        assert hi._chain_axis(st, times, NOISY, 2) == ref
        assert hi._chain_axis(st, times, NOISY, 4096)[0].n == 4096

    def test_state_never_near_origin_rejected(self):
        far = ge.make_gaussian_state(p0=-1.0, q0=500.0, sigma=1.0)
        with pytest.raises(ValueError, match="near the origin"):
            hi.crossing_class_matrix(far, [0.1, 0.2], NOISY)


class TestRightCurrentProbability:
    """delta_exact read as the probability of the right-moving current."""

    def test_receded_near_classical_state_negligible(self):
        rec = ge.make_gaussian_state(p0=-10.0, q0=1.0, sigma=1.0)
        assert hi.delta_exact(rec, Interval(2.0, 2.4), FREE) < 1e-3

    def test_backflow_window_stays_positive(self):
        # Inside the backflow window the net linear probability runs
        # negative, yet the right-moving-current decomposition is a
        # genuine probability and stays positive.
        bf = ge.make_two_momentum_state(p1=-2.0, p2=-6.0, q0=2.0, sigma=1.0)
        win = Interval(0.5575, 0.6225)
        p_lin = hi.survival_probability(bf, win.t1, FREE) - hi.survival_probability(
            bf, win.t2, FREE
        )
        rc = hi.delta_exact(bf, win, FREE)
        assert p_lin < 0.0 < rc
        assert abs(p_lin / -3.7630e-3 - 1.0) < 1e-3
        assert abs(rc / 2.9971e-3 - 1.0) < 1e-3


class TestDecoherenceVerdict:
    def test_decoherent_gaussian_window(self):
        bat = ge.make_gaussian_state(p0=-10.0, q0=60.0, sigma=1.0)
        rep = hi.decoherence_verdict(bat, Interval(5.0, 5.25), NOISY)
        assert rep.decoherent
        assert rep.regime == "intermediate"
        assert rep.gaussian
        assert rep.gates_failed == ()
        assert rep.e_dt_over_hbar > 10.0

    def test_fine_window_fails_energy_gate(self):
        bat = ge.make_gaussian_state(p0=-10.0, q0=60.0, sigma=1.0)
        rep = hi.decoherence_verdict(bat, Interval(5.0, 5.1), NOISY)
        assert not rep.decoherent
        assert any("interval too fine" in g for g in rep.gates_failed)

    def test_interfering_window_fails_delta_gate(self):
        ris = ge.make_gaussian_state(p0=10.0, q0=-5.0, sigma=1.0)
        rep = hi.decoherence_verdict(ris, Interval(0.1, 1.0), NOISY)
        assert not rep.decoherent
        assert any("interference too large" in g for g in rep.gates_failed)

    def test_cat_state_fails_opening_time_gate(self):
        cat = ge.shift_state(
            ge.make_cat_state(separation=3.0, p0=-10.0, sigma=1.0), dq=35.0
        )
        rep = hi.decoherence_verdict(cat, Interval(3.0, 3.4), NOISY)
        assert not rep.decoherent
        assert not rep.gaussian
        assert any("t1 too small" in g for g in rep.gates_failed)

    # only a single unmodulated term skips the opening-time gate
    @pytest.mark.parametrize("build, gaussian", [
        (lambda: ge.make_gaussian_state(p0=-10.0, q0=60.0, sigma=1.0), True),
        (lambda: ge.shift_state(ge.make_cat_state(separation=3.0, p0=-10.0, sigma=1.0),
                                dq=60.0), False),
        (lambda: ge.make_two_momentum_state(p1=-9.0, p2=-11.0, q0=60.0, sigma=1.0), False),
    ], ids=["gaussian", "cat", "two-momentum"])
    def test_gaussian_flag(self, build, gaussian):
        rep = hi.decoherence_verdict(build(), Interval(5.0, 5.25), NOISY)
        assert rep.gaussian is gaussian

    def test_regime_labels(self):
        st = ge.make_gaussian_state(p0=-10.0, q0=60.0, sigma=1.0)
        assert hi.decoherence_verdict(st, Interval(5.0, 5.25), FREE).regime == "free"
        rec = ge.make_gaussian_state(p0=-10.0, q0=30.0, sigma=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert (
                hi.decoherence_verdict(rec, Interval(5.0, 9.0), NOISY).regime
                == "strong"
            )

    def test_summary_text(self):
        bat = ge.make_gaussian_state(p0=-10.0, q0=60.0, sigma=1.0)
        rep = hi.decoherence_verdict(bat, Interval(5.0, 5.1), NOISY)
        text = rep.summary_text()
        assert "NOT decoherent" in text
        assert rep.regime in text
