"""Acceptance battery: eleven release criteria, one verdict line each.

Every criterion prints ``[criterion NN] label: PASS/FAIL (details)`` —
run with ``pytest -s`` to see the lines — and asserts both the numerical
gate and its runtime budget.  Tolerances and state tunings are frozen;
the measured margins at freeze time are quoted in comments so a future
regression is visible as a number, not a vibe.

Criterion 4 is asserted twice: once exactly as stated (the momentum
variance growing like D*t), which fails against the measured growth of
2*D*t and is marked strict-xfail, and once with the corrected factor,
which passes.  The companion pair keeps the suite honest without
papering over the discrepancy.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from qbflow import arrival as ar
from qbflow import gaussian_engine as ge
from qbflow import grid_engine as gr
from qbflow import histories as hi
from qbflow.core_model import (
    Interval,
    PhysParams,
    derive_timescales,
    energy_localisation_ratio,
)
from qbflow.lindblad_dynamics import continuity_residual
from qbflow.scenario_cli import bundled_examples, load_config

FREE = PhysParams(hbar=1.0, mass=1.0, D=0.0)
NOISY = PhysParams(hbar=1.0, mass=1.0, D=2.0)  # tau_l = 1


def _verdict(num: int, label: str, passed: bool, detail: str = "") -> None:
    word = "PASS" if passed else "FAIL"
    line = f"[criterion {num:02d}] {label}: {word}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert passed, line


def _bundled_config(name: str, tmp_path):
    for ex_name, _description, entry in bundled_examples():
        if ex_name == name:
            path = tmp_path / f"{name}.json"
            path.write_text(entry.read_text())
            config, diags = load_config(str(path))
            assert diags == [], diags
            return config
    raise AssertionError(f"no bundled example named {name!r}")


class TestAcceptance:
    def test_criterion_01_backflow_and_positivity_threshold(self, tmp_path):
        """Backflow below the positivity time at D=0; none above it at D=2."""
        start = time.perf_counter()
        config = _bundled_config("backflow", tmp_path)
        state = config.state
        # leg 1, D = 0: the bundled scan window brackets the dip
        # (frozen: min J = -4.2e-2 at t = 0.4125, dip width ~2.3e-3)
        times = np.linspace(config.t1, config.t2, config.n_t)
        res0 = ar.backflow_scan(state, config.params, times)
        t_dip, j_dip = res0.min_current()
        scales = derive_timescales(NOISY, p0=-20.0)
        leg1 = j_dip < 0.0 and t_dip < scales.t_positive
        # leg 2, D = 2: past the positivity time the current stays
        # non-negative to 1e-6 of the window's peak
        # (frozen margin: min J = -2.2e-8 = -3.1e-8 * max|J|)
        late = np.linspace(0.658, 5.0, 2000)
        res2 = ar.backflow_scan(state, NOISY, late)
        j_max = float(np.abs(res2.current).max())
        leg2 = bool(np.all(res2.current >= -1e-6 * j_max))
        elapsed = time.perf_counter() - start
        _verdict(
            1, "backflow gated by the positivity time",
            leg1 and leg2 and elapsed < 60.0,
            f"D=0 dip {j_dip:.3e} at t={t_dip:.4f}; "
            f"D=2 min {res2.min_current()[1]:.3e} vs gate {-1e-6 * j_max:.3e}; "
            f"{elapsed:.1f} s",
        )

    def test_criterion_02_admissibility_switch(self):
        """is_wigner_admissible(A(t)) flips at (3/16)**(1/4) tau_l."""
        start = time.perf_counter()
        worst = 0.0
        for params in (NOISY, PhysParams(hbar=2.0, mass=3.0, D=0.5)):
            tau_l = derive_timescales(params, p0=-1.0).tau_l
            lo, hi = 0.1 * tau_l, 2.0 * tau_l
            assert not ge.is_wigner_admissible(ge.qbm_covariance(lo, params), params.hbar)
            assert ge.is_wigner_admissible(ge.qbm_covariance(hi, params), params.hbar)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if ge.is_wigner_admissible(ge.qbm_covariance(mid, params), params.hbar):
                    hi = mid
                else:
                    lo = mid
            t_exact = (3.0 / 16.0) ** 0.25 * tau_l
            worst = max(worst, abs(hi - t_exact) / t_exact)
        elapsed = time.perf_counter() - start
        _verdict(
            2, "admissibility flips at (3/16)^(1/4) tau_l",
            worst < 1e-10 and elapsed < 1.0,
            f"bisection offset {worst:.2e} relative; {elapsed:.2f} s",
        )

    def test_criterion_03_kernel_determinant_law(self):
        """|A(t)| = D^2 t^4 / 3 m^2 across random parameters."""
        start = time.perf_counter()
        rng = np.random.default_rng(20260817)
        worst = 0.0
        for _ in range(100):
            d = float(rng.uniform(0.05, 8.0))
            t = float(rng.uniform(0.05, 4.0))
            m = float(rng.uniform(0.2, 5.0))
            det = ge.qbm_covariance(t, PhysParams(mass=m, D=d)).det()
            exact = d * d * t ** 4 / (3.0 * m * m)
            worst = max(worst, abs(det - exact) / exact)
        elapsed = time.perf_counter() - start
        _verdict(
            3, "kernel determinant law",
            worst < 1e-12 and elapsed < 1.0,
            f"worst relative error {worst:.2e} over 100 draws; {elapsed:.2f} s",
        )

    @staticmethod
    def _grid_momentum_growth():
        """Grid-propagated momentum-variance growth at five times in [0.2, 3] tau_l."""
        state = ge.make_gaussian_state(p0=-3.0, q0=4.0, sigma=1.0)
        pax, qax = gr.default_axes(state, NOISY, t_max=3.0, n=512)
        w0 = gr.wigner_grid_from_state(state, pax, qax)

        def pvar(w):
            marg = w.momentum_marginal()
            norm = np.trapezoid(marg, dx=w.p.step)
            mean = np.trapezoid(w.p.points * marg, dx=w.p.step) / norm
            return float(
                np.trapezoid((w.p.points - mean) ** 2 * marg, dx=w.p.step) / norm
            )

        v0 = pvar(w0)
        times = (0.2, 0.5, 1.0, 2.0, 3.0)
        growth = []
        for t in times:
            wt = gr.propagate_wigner_qbm(w0, t, NOISY)
            growth.append(pvar(wt) - v0)
        return times, growth

    @pytest.mark.xfail(
        strict=True,
        reason="the criterion's D*t growth understates the variance by the"
        " factor 2 carried by the Lindblad double commutator; the measured"
        " growth is 2*D*t (see the corrected-law companion below)",
    )
    def test_criterion_04_momentum_diffusion_as_stated(self):
        """(Delta p)^2_t - (Delta p)^2_0 = D*t within 1% — as stated."""
        times, growth = self._grid_momentum_growth()
        worst = max(
            abs(g - NOISY.D * t) / (NOISY.D * t) for t, g in zip(times, growth)
        )
        _verdict(
            4, "momentum diffusion = D*t (as stated)",
            worst < 0.01,
            f"worst relative deviation {worst:.3f}",
        )

    def test_criterion_04_momentum_diffusion_corrected_law(self):
        """Companion: the grid route reproduces the true 2*D*t within 1%."""
        start = time.perf_counter()
        times, growth = self._grid_momentum_growth()
        worst = max(
            abs(g - 2.0 * NOISY.D * t) / (2.0 * NOISY.D * t)
            for t, g in zip(times, growth)
        )
        elapsed = time.perf_counter() - start
        _verdict(
            4, "momentum diffusion = 2*D*t (corrected law)",
            worst < 0.01 and elapsed < 120.0,
            f"worst relative deviation {worst:.2e} on a 512^2 grid; {elapsed:.1f} s",
        )

    def test_criterion_05_current_normalisation(self):
        """Free and noisy left-movers sweep out unit probability."""
        start = time.perf_counter()
        state = ge.make_gaussian_state(p0=-10.0, q0=8.0, sigma=1.0)
        window = Interval(0.0, 6.0)  # the packet is 5+ widths past by t = 6
        p_free = ar.arrival_probability(state, window, FREE)
        p_noisy = ar.arrival_probability(state, window, NOISY)
        elapsed = time.perf_counter() - start
        _verdict(
            5, "current normalisation",
            abs(p_free - 1.0) < 0.01 and abs(p_noisy - 1.0) < 0.01 and elapsed < 60.0,
            f"free {p_free:.6f}, noisy {p_noisy:.6f}; {elapsed:.1f} s",
        )

    def test_criterion_06_effect_operator_consistency(self):
        """Tr(E rho) tracks the current integral; the symbol stays in [0, 1]."""
        start = time.perf_counter()
        state = ge.make_gaussian_state(p0=-10.0, q0=14.0, sigma=1.0)
        t_mid = 1.4  # crossing time, past the splitting threshold 1.2712
        gaps = {}
        for frac, tol in ((0.01, 0.01), (0.1, 0.05)):
            window = Interval(t_mid - frac / 2.0, t_mid + frac / 2.0)
            effect = ar.build_povm_E(window, NOISY)
            expectation = effect.expectation(state)
            integral = ar.arrival_probability(state, window, NOISY)
            gaps[frac] = abs(expectation - integral) / abs(integral)
            assert gaps[frac] < tol, (frac, gaps[frac])
        # symbol bounds on the incoming half-plane: a 100x100 box spanning
        # the state's smeared 6-sigma support, ending a boundary-layer
        # margin of 5 sqrt(B_pp) short of p = 0 (frozen: max symbol 0.49,
        # min -4.9e-9)
        effect = ar.build_povm_E(Interval(t_mid - 0.05, t_mid + 0.05), NOISY)
        mean, cov = ge.moments(state)
        sp = math.sqrt(cov.pp + effect.b.pp)
        sq = math.sqrt(cov.qq + effect.b.qq)
        p_hi = -5.0 * math.sqrt(effect.b.pp)
        assert p_hi < 0.0
        ps = np.linspace(mean[0] - 6.0 * sp, p_hi, 100)
        qs = np.linspace(mean[1] - 6.0 * sq, mean[1] + 6.0 * sq, 100)
        symbol = effect.symbol(*np.meshgrid(ps, qs, indexing="ij"))
        bounded = symbol.min() >= -1e-6 and symbol.max() <= 1.0 + 1e-6
        elapsed = time.perf_counter() - start
        _verdict(
            6, "effect operator vs current",
            bounded and elapsed < 120.0,
            f"gaps {gaps[0.01]:.2e} @ 0.01 tau_l, {gaps[0.1]:.2e} @ 0.1 tau_l; "
            f"symbol in [{symbol.min():.2e}, {symbol.max():.3f}]; {elapsed:.1f} s",
        )

    def test_criterion_07_continuity_with_diffusive_current(self):
        """The corrected current closes the continuity equation at 2nd order."""
        start = time.perf_counter()
        params = PhysParams.from_temperature(gamma=0.25, kT=2.0)  # D = 1
        state = ge.make_gaussian_state(p0=-6.0, q0=6.0, sigma=1.0)
        t = 1.0
        snapshot = ge.propagate_mixture(state, t, params)
        mean, cov = ge.moments(snapshot)
        sq = math.sqrt(cov.qq)
        x = np.linspace(mean[1] - 4.0 * sq, mean[1] + 4.0 * sq, 201)
        dx = sq / 50.0
        speed = (abs(float(mean[0])) + 3.0 * math.sqrt(cov.pp)) / params.mass
        dt = dx / speed
        coarse = continuity_residual(state, t, params, x, dx, dt)
        fine = continuity_residual(state, t, params, x, dx / 2.0, dt / 2.0)
        factor = coarse.max_abs / fine.max_abs  # frozen: 4.000
        elapsed = time.perf_counter() - start
        _verdict(
            7, "continuity residual converges at 2nd order",
            factor >= 3.5 and elapsed < 120.0,
            f"halving dx, dt shrinks the residual {factor:.2f}x; {elapsed:.1f} s",
        )

    def test_criterion_08_delta_asymptotics(self):
        """Free-window anchor and the intermediate bound on its battery."""
        start = time.perf_counter()
        # centred anchor: sqrt(pi/2) hbar / (8 sigma |p0|) at sigma=1, p0=-10
        state = ge.make_gaussian_state(p0=-10.0, q0=1.0, sigma=1.0)
        window = Interval(0.1, 0.5)  # centre reaches the origin at t1
        anchor = math.sqrt(math.pi / 2.0) / 80.0
        asym = hi.delta_free_asymptotic(state, window, FREE)
        anchored = abs(asym - anchor) < 1e-12
        # quadrature within 30% of the anchor (frozen ratio: 0.812)
        quad = hi.delta_free(state, window, FREE)
        ratio = quad / anchor
        # intermediate bound exceeds the quadrature value on the battery of
        # offset states (frozen value/bound: 0.30 - 0.48); centred states
        # overshoot the bound's dropped O(1) factor and are excluded
        battery = (
            (-10.0, 70.0, 1.0),
            (-10.0, 30.0, 1.0),
            (-10.0, 68.0, 2.0),
            (-8.0, 60.0, 1.0),
            (-12.0, 38.0, 1.5),
        )
        bounded = True
        for p0, q0, sigma in battery:
            st = ge.make_gaussian_state(p0=p0, q0=q0, sigma=sigma)
            value, bound = hi.delta_intermediate(st, Interval(5.0, 5.4), NOISY)
            bounded = bounded and 0.0 < value < bound
        elapsed = time.perf_counter() - start
        _verdict(
            8, "crossing-probability asymptotics",
            anchored and abs(ratio - 1.0) < 0.3 and bounded and elapsed < 120.0,
            f"anchor hit to {abs(asym - anchor):.1e}, quadrature/anchor "
            f"{ratio:.3f}, bound holds on {len(battery)} states; {elapsed:.1f} s",
        )

    def test_criterion_09_decoherence_chain(self):
        """Crossing classes decohere in noise and refuse to at D = 0."""
        start = time.perf_counter()
        # decoherent battery: E*dt = 12.5 hbar, t1 = 5 tau_l, crossing
        # mid-partition (frozen: shift 4.4e-4 and offdiag 4.4e-4 against
        # gates 3.7e-3 and 7.4e-3)
        state = ge.make_gaussian_state(p0=-10.0, q0=60.0, sigma=1.0)
        intervals = [Interval(5.0 + 0.25 * k, 5.25 + 0.25 * k) for k in range(6)]
        p_lin, p_sq, offdiag = hi.class_operator_probability(
            state, intervals, NOISY, n=2048
        )
        peak = float(p_lin.max())
        shift = float(np.abs(p_lin - p_sq).max())
        battery_ok = shift < 0.05 * peak and offdiag < 0.1 * peak
        # negative control at D = 0: a momentum cat partitioned inside its
        # re-entrant (backflow) lobe keeps saturated class coherences; the
        # linear numbers even go negative there, so "max(p)" is the largest
        # projected class probability (frozen ratio: 0.339, stable in n and
        # eps).  The window floor is overridden: resolving the lobe needs
        # sub-hbar/E spacing — exactly the coarse-graining the construction
        # exists to police, which is what makes this a control.
        cat = ge.make_two_momentum_state(
            p1=-2.0, p2=-6.0, q0=2.0, sigma=1.0,
            ratio=0.577, rel_phase=1.5 * math.pi,
        )
        slices = [
            Interval(0.470, 0.478), Interval(0.478, 0.486), Interval(0.486, 0.494),
        ]
        lin0, sq0, off0 = hi.class_operator_probability(
            cat, slices, FREE, eps=0.002, n=2048
        )
        control_peak = float(sq0.max())
        control_ok = off0 > 0.3 * control_peak and bool(np.all(lin0 < 0.0))
        elapsed = time.perf_counter() - start
        _verdict(
            9, "decoherence of crossing classes",
            battery_ok and control_ok and elapsed < 300.0,
            f"battery shift {shift:.1e} / gate {0.05 * peak:.1e}, offdiag "
            f"{offdiag:.1e} / gate {0.1 * peak:.1e}; control offdiag "
            f"{off0 / control_peak:.3f} of max(p) vs 0.3 floor; {elapsed:.0f} s",
        )

    def test_criterion_10_stochastic_route(self):
        """Restricted march agrees with the current in the deterministic regime."""
        start = time.perf_counter()
        state = ge.make_gaussian_state(p0=-10.0, q0=8.0, sigma=1.0)
        assert energy_localisation_ratio(NOISY, p0=-10.0) > 10.0
        window = Interval(0.5, 1.0)  # brackets the crossing at t = 0.8
        march = ar.arrival_probability_stochastic(state, window, NOISY, eps=0.0125, n=256)
        integral = ar.arrival_probability(state, window, NOISY)
        gap = abs(march.norm_loss - integral) / integral  # frozen: 0.0020
        elapsed = time.perf_counter() - start
        _verdict(
            10, "restricted march vs current",
            gap < 0.05 and elapsed < 300.0,
            f"norm loss {march.norm_loss:.4f} vs integral {integral:.4f}, "
            f"gap {gap:.2e}; {elapsed:.1f} s",
        )

    def test_criterion_11_window_function(self):
        """f(0) = 1/2 exactly; reflection symmetry; small-u slope -1/pi."""
        start = time.perf_counter()
        half = float(hi.f_integral(0.0)) == 0.5
        u = np.linspace(-40.0, 40.0, 2001)
        reflection = float(
            np.abs(hi.f_integral(u) + hi.f_integral(-u) - 1.0).max()
        )
        h = 1e-4
        slope = (float(hi.f_integral(h)) - 0.5) / h
        slope_err = abs(slope + 1.0 / math.pi)
        elapsed = time.perf_counter() - start
        _verdict(
            11, "crossing window function",
            half and reflection < 1e-10 and slope_err < 1e-6 and elapsed < 1.0,
            f"reflection defect {reflection:.1e}, slope error {slope_err:.1e}; "
            f"{elapsed:.2f} s",
        )
