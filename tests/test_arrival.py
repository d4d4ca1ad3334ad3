"""Tests for the arrival-time constructions.

Route-vs-route agreement is the core currency here: the engine current,
the comoving-picture current, the effect-operator expectation and the
restricted-propagation march all measure the same thing through different
numerics, so their mutual agreement is checked tightly before any of them
is trusted alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from qbflow.core_model import Interval, PhysParams
from qbflow import arrival as ar
from qbflow import gaussian_engine as ge
from qbflow import grid_engine as gr
from oracles import povm_F_expectation, q_function_current


PAR = PhysParams(D=2.0)
LEFT_GAUSS = ge.make_gaussian_state(p0=-10.0, q0=8.0, sigma=1.0)


class TestCurrentRoutes:
    def test_comoving_route_matches_engine(self):
        for t in (0.0, 0.3, 0.8, 1.5):
            j_engine = ar.arrival_current(LEFT_GAUSS, t, PAR)
            j_line = q_function_current(LEFT_GAUSS, t, PAR)
            assert math.isclose(j_engine, j_line, rel_tol=1e-9, abs_tol=1e-12)

    def test_grid_route_matches_engine(self):
        t = 0.8
        evolved = ge.propagate_mixture(LEFT_GAUSS, t, PAR)
        pax, qax = gr.default_axes(LEFT_GAUSS, PAR, t_max=t, n=384)
        w = gr.wigner_grid_from_state(evolved, pax, qax)
        j_grid = ar.current_from_wigner(w, PAR)
        j_engine = ar.arrival_current(LEFT_GAUSS, t, PAR)
        assert math.isclose(j_grid, j_engine, rel_tol=1e-3)

    def test_current_peaks_at_classical_crossing(self):
        ts = np.linspace(0.4, 1.2, 161)
        scan = ar.backflow_scan(LEFT_GAUSS, PAR, ts)
        t_peak = ts[np.argmax(scan.current)]
        # classical crossing is q0/|p0| = 0.8; spreading skews the peak a
        # little early, so the gate allows a few percent
        assert abs(t_peak - 0.8) < 0.05

    def test_total_arrival_probability_free(self):
        par0 = PhysParams(D=0.0)
        total = ar.arrival_probability(LEFT_GAUSS, Interval(0.0, 1.6), par0)
        assert abs(total - 1.0) < 0.01

    def test_total_arrival_probability_noisy(self):
        total = ar.arrival_probability(LEFT_GAUSS, Interval(0.0, 1.6), PAR)
        assert abs(total - 1.0) < 0.01

    def test_total_arrival_probability_dissipative(self):
        parg = PhysParams(D=2.0, gamma=0.2)
        g = ge.make_gaussian_state(p0=-10.0, q0=6.0, sigma=1.0)
        total = ar.arrival_probability(g, Interval(0.0, 2.0), parg)
        assert abs(total - 1.0) < 0.02

    def test_diffusive_term_changes_dissipative_current(self):
        # -(j + J_D): at gamma > 0 the current is not the bare flux, and at
        # gamma = 0 (J_D = 0) it is the bare flux to the bit
        parg = PhysParams(D=2.0, gamma=0.3)
        g = ge.make_gaussian_state(p0=-6.0, q0=3.0, sigma=1.0)
        t = 0.4
        bare = -ge.flux_density(ge.propagate_mixture(g, t, parg), 0.0, parg.mass)
        assert ar.arrival_current(g, t, parg) != bare
        bare0 = -ge.flux_density(ge.propagate_mixture(g, t, PAR), 0.0, PAR.mass)
        assert ar.arrival_current(g, t, PAR) == bare0


class TestBackflow:
    def test_two_momentum_backflow_exists(self):
        par0 = PhysParams(D=0.0)
        tm = ge.make_two_momentum_state(p1=-2.0, p2=-6.0, q0=2.0, sigma=1.0)
        scan = ar.backflow_scan(tm, par0, np.linspace(0.05, 1.5, 240))
        _t, j_min = scan.min_current()
        assert j_min < -0.05  # genuinely negative despite all-negative momenta

    def test_noise_suppresses_backflow(self):
        tm = ge.make_two_momentum_state(p1=-2.0, p2=-6.0, q0=2.0, sigma=1.0)
        ts = np.linspace(0.7, 1.5, 120)  # past the positivity time tau: (3/16)^(1/4)
        scan = ar.backflow_scan(tm, PAR, ts)
        assert scan.current.min() > -1e-6 * np.abs(scan.current).max()

    def test_scan_validates_times(self):
        with pytest.raises(ValueError, match="increasing"):
            ar.backflow_scan(LEFT_GAUSS, PAR, np.array([0.5, 0.4, 0.6]))


class TestPovmEffect:
    def test_threshold_time(self):
        t_thr = ar.povm_threshold_time(PAR)
        x = PAR.D * t_thr ** 2 / PAR.mass / PAR.hbar
        assert math.isclose(x, 1.5 + math.sqrt(3.0), rel_tol=1e-12)

    def test_threshold_needs_noise(self):
        with pytest.raises(ValueError, match="D > 0"):
            ar.povm_threshold_time(PhysParams(D=0.0))

    def test_too_early_rejected(self):
        with pytest.raises(ValueError, match="too early"):
            ar.build_povm_E(Interval(0.1, 0.5), PAR)

    def test_dissipation_rejected(self):
        # the symbol's free flow q + p t / m holds at negligible dissipation only
        with pytest.raises(ValueError, match=r"requires negligible dissipation \(gamma = 0\)"):
            ar.build_povm_E(Interval(1.3, 1.5), PhysParams(D=2.0, gamma=0.01))

    def test_split_is_positive_at_threshold(self):
        t_thr = ar.povm_threshold_time(PAR)
        eff = ar.build_povm_E(Interval(t_thr, t_thr + 0.2), PAR)
        b = eff.b
        assert b.pp >= 0.0 and b.qq >= 0.0
        assert b.det() >= -1e-10 * b.pp * b.qq

    def test_expectation_matches_current_integral_fine(self):
        iv = Interval(1.5, 1.51)
        p_quad = ar.arrival_probability(LEFT_GAUSS, iv, PAR)
        p_povm = ar.build_povm_E(iv, PAR).expectation(LEFT_GAUSS)
        assert abs(p_povm - p_quad) < 0.01 * abs(p_quad)

    def test_expectation_matches_current_integral_coarse(self):
        iv = Interval(1.45, 1.55)
        p_quad = ar.arrival_probability(LEFT_GAUSS, iv, PAR)
        p_povm = ar.build_povm_E(iv, PAR).expectation(LEFT_GAUSS)
        assert abs(p_povm - p_quad) < 0.05 * abs(p_quad)

    def test_expectation_linear_in_state(self):
        iv = Interval(1.4, 1.6)
        eff = ar.build_povm_E(iv, PAR)
        s1 = ge.make_gaussian_state(p0=-10.0, q0=8.0, sigma=1.0)
        s2 = ge.make_gaussian_state(p0=-8.0, q0=6.0, sigma=1.2)
        half = ge.GaussianMixtureState(
            terms=tuple(ge.GaussianTerm(weight=0.5 * t.weight, center=t.center,
                                        cov=t.cov, k=t.k, phase=t.phase)
                        for t in s1.terms + s2.terms))
        lhs = eff.expectation(half)
        rhs = 0.5 * eff.expectation(s1) + 0.5 * eff.expectation(s2)
        assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-12)

    def test_symbol_bounded_on_incoming_box(self):
        eff = ar.build_povm_E(Interval(1.5, 1.6), PAR)
        rng = np.random.default_rng(42)
        p_edge = -5.0 * math.sqrt(eff.b.pp)
        p = rng.uniform(-30.0, p_edge, 10000)
        q = rng.uniform(-30.0, 30.0, 10000)
        vals = eff.symbol(p, q)
        assert vals.min() >= -1e-6
        assert vals.max() <= 1.0 + 1e-6

    def test_symbol_dips_near_zero_momentum(self):
        # the boundary layer around p = 0 is genuinely (slightly) negative:
        # the construction is a POVM on the incoming sector, not globally
        eff = ar.build_povm_E(Interval(1.5, 1.6), PAR)
        p = np.linspace(-0.5, 0.5, 401)
        q = np.linspace(-20.0, 20.0, 401)
        pp, qq = np.meshgrid(p, q, indexing="ij")
        assert eff.symbol(pp, qq).min() < -1e-4

    def test_tiling_sums_to_integral(self):
        tiles = [Interval(1.3 + 0.1 * i, 1.4 + 0.1 * i) for i in range(4)]
        total_povm = sum(ar.build_povm_E(iv, PAR).expectation(LEFT_GAUSS) for iv in tiles)
        total_quad = ar.arrival_probability(LEFT_GAUSS, Interval(1.3, 1.7), PAR)
        assert abs(total_povm - total_quad) < 0.02 * abs(total_quad)

    def test_state_hbar_checked(self):
        eff = ar.build_povm_E(Interval(1.5, 1.6), PAR)
        odd = ge.make_gaussian_state(p0=-1.0, q0=2.0, sigma=1.0, hbar=2.0)
        with pytest.raises(ValueError, match="hbar"):
            eff.expectation(odd)


def _grid_expectation(eff, state):
    """Oracle: Q * S_E by trapezoid on a 512^2 grid over the smeared support."""
    q_state = ge.husimi_smear(state, eff.s)
    pax, qax = gr.default_axes(q_state, eff.params, t_max=0.0, n=512, widths=9.0)
    pp, qq = np.meshgrid(pax.points, qax.points, indexing="ij")
    q_vals = ge.evaluate_state(q_state, pp, qq)
    return gr.PhaseSpaceGrid(pax, qax, q_vals * eff.symbol(pp, qq)).integrate()


# crossing the origin near t = 1.4, inside the POVM windows below
ORACLE_STATES = {
    "gaussian": ge.make_gaussian_state(p0=-10.0, q0=14.0, sigma=1.0),
    "cat": ge.shift_state(ge.make_cat_state(separation=3.0, p0=-10.0, sigma=1.0), dq=14.0),
    "two_momentum": ge.make_two_momentum_state(
        p1=-8.0, p2=-12.0, q0=14.0, sigma=1.0, ratio=0.6, rel_phase=0.7
    ),
}


class TestExpectationClosedForm:
    @pytest.mark.parametrize("kind", sorted(ORACLE_STATES))
    @pytest.mark.parametrize("window", [(1.3, 1.5), (1.35, 1.36), (2.0, 2.5)])
    def test_matches_grid_oracle(self, kind, window):
        eff = ar.build_povm_E(Interval(*window), PAR)
        state = ORACLE_STATES[kind]
        got, ref = eff.expectation(state), _grid_expectation(eff, state)
        assert abs(got - ref) <= 1e-12 * abs(ref) + 1e-30, (got, ref)

    def test_sharp_symbol_is_a_probit_difference(self):
        # B = 0 makes S_E a difference of two step functions; against one
        # Gaussian the expectation is then Phi(mu_1 / s_1) - Phi(mu_2 / s_2)
        eff = replace(ar.build_povm_E(Interval(1.3, 1.5), PAR), b=ge.Cov2(0.0, 0.0, 0.0))
        term = ge.husimi_smear(ORACLE_STATES["gaussian"], eff.s).terms[0]
        want = 0.0
        for sign, t in ((1.0, 1.3), (-1.0, 1.5)):
            n = np.array([t / PAR.mass, 1.0])
            want += sign * ndtr(n @ term.center / math.sqrt(n @ term.cov.matrix() @ n))
        assert math.isclose(eff.expectation(ORACLE_STATES["gaussian"]), want, rel_tol=1e-13)

    @pytest.mark.parametrize("kind", sorted(ORACLE_STATES))
    def test_sharp_symbol_is_the_narrow_limit(self, kind):
        # sigma = 0 (step) and a vanishing sigma (steep probit) take the two
        # branches of the closed form and must meet
        eff = ar.build_povm_E(Interval(1.3, 1.5), PAR)
        sharp = replace(eff, b=ge.Cov2(0.0, 0.0, 0.0))
        narrow = replace(eff, b=ge.Cov2(1e-24 * eff.b.pp, 1e-24 * eff.b.pq, 1e-24 * eff.b.qq))
        assert sharp._sigma(1.3) == 0.0 and narrow._sigma(1.3) > 0.0
        state = ORACLE_STATES[kind]
        assert math.isclose(sharp.expectation(state), narrow.expectation(state), rel_tol=1e-9)


class TestInstantaneousOperator:
    def test_matches_current_exactly(self):
        for t in (1.3, 1.5, 2.0):
            jf = povm_F_expectation(LEFT_GAUSS, t, PAR)
            j = ar.arrival_current(LEFT_GAUSS, t, PAR)
            assert math.isclose(jf, j, rel_tol=1e-6, abs_tol=1e-12)

    def test_needs_threshold_noise(self):
        with pytest.raises(ValueError, match="too early"):
            povm_F_expectation(LEFT_GAUSS, 0.5, PAR)


class TestStochasticRoute:
    PAR = PhysParams(D=0.5)
    STATE = ge.make_gaussian_state(p0=-4.0, q0=4.0, sigma=1.0)
    IV = Interval(0.5, 1.5)

    def test_routes_mutually_consistent(self):
        sto = ar.arrival_probability_stochastic(self.STATE, self.IV, self.PAR, eps=0.05)
        assert sto.mutual_disagreement() < 0.02

    def test_matches_current_route(self):
        sto = ar.arrival_probability_stochastic(self.STATE, self.IV, self.PAR, eps=0.05)
        p_ref = ar.arrival_probability(self.STATE, self.IV, self.PAR)
        assert abs(sto.norm_loss - p_ref) < 0.05 * p_ref
        assert abs(sto.boundary_flux - p_ref) < 0.05 * p_ref

    def test_eps_refinement_stable(self):
        a = ar.arrival_probability_stochastic(self.STATE, self.IV, self.PAR, eps=0.1)
        b = ar.arrival_probability_stochastic(self.STATE, self.IV, self.PAR, eps=0.05)
        assert abs(a.norm_loss - b.norm_loss) < 0.02

    def test_step_mismatch_rejected(self):
        with pytest.raises(ValueError, match="whole number"):
            ar.arrival_probability_stochastic(self.STATE, Interval(0.5, 1.5),
                                              self.PAR, eps=0.4)

    @pytest.mark.parametrize(
        "n", [2, 3, 15, 4097, 64.0, np.float64(64.0), True, "64", None],
        ids=["2", "3", "15", "4097", "float", "numpy-float", "bool", "str", "None"],
    )
    def test_grid_size_validated(self, n):
        with pytest.raises(ValueError, match=r"n must be an integer in \[16, 4096\], got"):
            ar.arrival_probability_stochastic(self.STATE, self.IV, self.PAR, eps=0.05, n=n)

    def test_grid_size_accepts_numpy_integers(self):
        a = ar.arrival_probability_stochastic(self.STATE, self.IV, self.PAR, eps=0.1, n=16)
        b = ar.arrival_probability_stochastic(self.STATE, self.IV, self.PAR, eps=0.1,
                                              n=np.int64(16))
        assert a == b

    def test_survival_complements_loss(self):
        sto = ar.arrival_probability_stochastic(self.STATE, Interval(0.0, 1.5),
                                                self.PAR, eps=0.05)
        # initial right-half mass ~ 1; what is not absorbed must survive
        assert math.isclose(sto.final_norm + sto.norm_loss, 1.0, abs_tol=0.01)


# ---------------------------------------------------------------------------
# the array current kernel and the closed-form integral


def _per_time_current(state, t, params):
    """Oracle: one evolved state per sample time, reduced at q = 0."""
    evolved = ge.propagate_mixture(state, t, params)
    j = -ge.flux_density(evolved, 0.0, params.mass)
    if params.gamma != 0.0:
        j += 0.5 * (params.hbar * params.b) ** 2 * ge.position_density_gradient(evolved, 0.0)
    return float(j)


def _quad_probability(state, iv, params):
    """Oracle: the arrival current integrated by adaptive quadrature."""
    return quad(
        lambda t: ar.arrival_current(state, t, params),
        iv.t1, iv.t2, limit=400, epsabs=1e-12, epsrel=1e-10,
    )[0]


KERNEL_STATES = {
    "gaussian": LEFT_GAUSS,
    "cat": ge.shift_state(ge.make_cat_state(separation=3.0, p0=-10.0, sigma=1.0), dq=8.0),
    "two_momentum": ge.make_two_momentum_state(
        p1=-2.0, p2=-6.0, q0=2.0, sigma=1.0, ratio=0.8, rel_phase=0.4
    ),
}
# gamma = 0.05 puts the series switch x = 2 gamma t = 1e-3 at t = 0.01
KERNEL_CASES = {
    "free": PhysParams(D=0.0),
    "noisy": PhysParams(D=2.0),
    "dissipative": PhysParams(D=2.0, gamma=0.05),
}
KERNEL_TIMES = np.array([0.0, 0.004, 0.0099, 0.0101, 0.02, 0.15, 0.4, 0.8, 1.1, 1.6])


class TestArrayCurrent:
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    @pytest.mark.parametrize("kind", sorted(KERNEL_STATES))
    def test_matches_per_time_path(self, kind, case):
        params = KERNEL_CASES[case]
        state = KERNEL_STATES[kind]
        got = ar.backflow_scan(state, params, KERNEL_TIMES).current
        want = np.array([_per_time_current(state, t, params) for t in KERNEL_TIMES])
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (got - want)
        for t, j in zip(KERNEL_TIMES, got):
            assert ar.arrival_current(state, t, params) == j

    # t^3 overflows past t ~ 5.6e102: at gamma = 0 the per-time route then
    # rejects the covariance, at gamma > 0 the series branch that overflows
    # is discarded and the current stays finite
    @pytest.mark.parametrize("t", [1e50, 1e110, 1e160])
    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_huge_times_follow_the_per_time_path(self, gamma, t):
        params = PhysParams(D=1.0, gamma=gamma)
        if gamma == 0.0 and t > 1e100:
            for route in (
                lambda: _per_time_current(LEFT_GAUSS, t, params),
                lambda: ar.arrival_current(LEFT_GAUSS, t, params),
                lambda: ar.backflow_scan(LEFT_GAUSS, params, np.array([0.5 * t, t])),
            ):
                with pytest.raises(ValueError, match="covariance entries must be finite"):
                    route()
            return
        want = _per_time_current(LEFT_GAUSS, t, params)
        assert math.isfinite(want)
        assert ar.arrival_current(LEFT_GAUSS, t, params) == want
        assert ar.backflow_scan(LEFT_GAUSS, params, np.array([0.5 * t, t])).current[1] == want

    @pytest.mark.parametrize("t", [1e110, 1e160])
    def test_dissipative_huge_times_raise_no_warning(self, t):
        params = PhysParams(D=1.0, gamma=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = ar.arrival_current(LEFT_GAUSS, t, params)
            scan = ar.backflow_scan(LEFT_GAUSS, params, np.array([0.5 * t, t]))
        assert math.isfinite(want) and scan.current[1] == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1])
    def test_scan_rejects_bad_time(self, bad):
        times = np.array([0.1, 0.2, bad, 0.4])
        with pytest.raises(ValueError, match=f"finite and non-negative, got {bad!r}"):
            ar.backflow_scan(LEFT_GAUSS, PAR, times)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, -0.1])
    def test_current_rejects_bad_time(self, bad):
        with pytest.raises(ValueError, match=f"finite and non-negative, got {bad!r}"):
            ar.arrival_current(LEFT_GAUSS, bad, PAR)


PROBABILITY_STATES = dict(
    KERNEL_STATES,
    far_cat=ge.shift_state(ge.make_cat_state(4.0, -10.0, 1.0), dq=40.0),
)

# (state, window): the scan samples the continuity-balanced current, so at
# gamma > 0 its trapezoid matches S(t1) - S(t2) to the rule's error (below
# 1e-6 on 801 points); the bare flux alone misses it by 2.6e-4, 5.5e-4, 1.2e-3
DISSIPATIVE_SCANS = {
    "gaussian": (ge.make_gaussian_state(p0=-6.0, q0=3.0, sigma=1.0), (0.2, 1.0)),
    "cat": (KERNEL_STATES["cat"], (0.3, 1.2)),
    "two_momentum": (KERNEL_STATES["two_momentum"], (0.05, 1.5)),
}


class TestClosedFormProbability:
    @pytest.mark.parametrize("window", [(0.0, 0.5), (0.3, 1.2), (0.0, 1.6), (1.0, 1.01)])
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    @pytest.mark.parametrize("kind", sorted(PROBABILITY_STATES))
    def test_matches_quadrature(self, kind, case, window):
        params = KERNEL_CASES[case]
        state, iv = PROBABILITY_STATES[kind], Interval(*window)
        got = ar.arrival_probability(state, iv, params)
        want = _quad_probability(state, iv, params)
        # S(t1) - S(t2) carries the absolute round-off of S itself: an ulp of
        # 1 at gamma = 0, and ~1e-14 at gamma > 0, where the qq entry of
        # qbm_covariance cancels in t - 2 T1 + T2; quad averages that away
        floor = 3e-14 if params.gamma else 2.3e-16
        tol = 1e-14 * abs(want) + floor if abs(want) > 1e-3 else 1e-12
        assert abs(got - want) <= tol, (got, want)

    @pytest.mark.parametrize("kind", sorted(DISSIPATIVE_SCANS))
    def test_dissipative_scan_total_matches(self, kind):
        params = PhysParams(D=2.0, gamma=0.3)
        state, window = DISSIPATIVE_SCANS[kind]
        total = ar.backflow_scan(state, params, np.linspace(*window, 801)).total()
        want = ar.arrival_probability(state, Interval(*window), params)
        assert abs(total - want) <= 1e-5 * abs(want), (total, want)
