"""Tests for the master-equation oracles and the continuity residual.

The time-derivative matches are the coefficient police: the exact engine
supplies rho(t +- dt) in closed form, so a wrong drift factor or a wrong
diffusive-current coefficient shows up as an order-of-magnitude residual
(the deliberately-broken controls below pin that)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qbflow.core_model import PhysParams
from qbflow import gaussian_engine as ge
from qbflow import grid_engine as gr
from qbflow import lindblad_dynamics as ld
from oracles import (
    diffusive_current,
    flux_density,
    master_rhs_position,
    master_rhs_wigner,
    position_density_gradient,
    probability_current,
)


PAR_G = PhysParams(D=2.0, gamma=0.3, mass=1.2)
PAR_D = PhysParams(D=2.0)


def _tm(hbar=1.0):
    return ge.make_two_momentum_state(p1=-2.0, p2=2.5, q0=0.5, sigma=1.0,
                                      ratio=0.9, hbar=hbar)


def _rho_at(t, par, n=384, lo=-8.0, hi=9.0):
    ax = gr.Axis(lo, hi, n)
    return gr.density_matrix_from_state(ge.propagate_mixture(_tm(par.hbar), t, par), ax)


class TestPositionRHS:
    def test_needs_enough_points(self):
        ax = gr.Axis(-4.0, 4.0, 16)
        rho = gr.density_matrix_from_state(ge.make_gaussian_state(0, 0, 1.0), ax)
        with pytest.raises(ValueError, match="at least 32"):
            master_rhs_position(rho, PAR_D)

    def test_preserves_trace(self):
        for par in (PAR_D, PAR_G):
            rhs = master_rhs_position(_rho_at(0.5, par), par)
            drift = np.trapezoid(np.real(np.diag(rhs)), dx=(17.0 / 383))
            assert abs(drift) < 1e-8

    def test_preserves_hermiticity(self):
        rhs = master_rhs_position(_rho_at(0.5, PAR_G), PAR_G)
        assert np.abs(rhs - rhs.conj().T).max() < 1e-12 * np.abs(rhs).max()

    def test_matches_exact_time_derivative(self):
        dt = 2e-3
        rhs = master_rhs_position(_rho_at(0.5, PAR_G), PAR_G)
        lhs = (_rho_at(0.5 + dt, PAR_G).values - _rho_at(0.5 - dt, PAR_G).values) / (2 * dt)
        assert np.abs(lhs - rhs).max() < 0.01 * np.abs(lhs).max()

    def test_matches_with_rescaled_units(self):
        # same physics in hbar = 2 units: the equation must still close
        par = PhysParams(D=1.5, gamma=0.2, mass=0.8, hbar=2.0)
        dt = 2e-3
        ax = gr.Axis(-9.0, 10.0, 384)

        def rho(t):
            return gr.density_matrix_from_state(
                ge.propagate_mixture(_tm(hbar=2.0), t, par), ax)

        rhs = master_rhs_position(rho(0.5), par)
        lhs = (rho(0.5 + dt).values - rho(0.5 - dt).values) / (2 * dt)
        assert np.abs(lhs - rhs).max() < 0.01 * np.abs(lhs).max()

    def test_wrong_damping_coefficient_detected(self):
        # negative control: halving the damping term must break the match
        dt = 2e-3
        rho0 = _rho_at(0.5, PAR_G)
        rhs = master_rhs_position(rho0, PAR_G)
        x = rho0.axis.points
        sep = x[:, None] - x[None, :]
        ddx = np.gradient(rho0.values, rho0.axis.step, axis=0, edge_order=2)
        ddy = np.gradient(rho0.values, rho0.axis.step, axis=1, edge_order=2)
        bad = rhs + 0.5 * PAR_G.gamma * sep * (ddx - ddy)
        lhs = (_rho_at(0.5 + dt, PAR_G).values - _rho_at(0.5 - dt, PAR_G).values) / (2 * dt)
        good_err = np.abs(lhs - rhs).max()
        bad_err = np.abs(lhs - bad).max()
        assert bad_err > 5.0 * good_err

    def test_euler_step_error_is_second_order(self):
        par = PAR_D
        errs = []
        for dt in (4e-3, 2e-3):
            rho0 = _rho_at(0.4, par)
            stepped = rho0.values + dt * master_rhs_position(rho0, par)
            exact = _rho_at(0.4 + dt, par).values
            errs.append(np.abs(stepped - exact).max())
        assert 3.0 < errs[0] / errs[1] < 5.0


class TestWignerRHS:
    def test_matches_exact_time_derivative(self):
        par = PAR_G
        tm = _tm()
        pax, qax = gr.default_axes(tm, par, t_max=0.8, n=384)
        dt = 2e-3

        def w_at(t):
            return gr.wigner_grid_from_state(ge.propagate_mixture(tm, t, par), pax, qax)

        lhs = (w_at(0.5 + dt).values - w_at(0.5 - dt).values) / (2 * dt)
        rhs = master_rhs_wigner(w_at(0.5), par)
        assert np.abs(lhs - rhs).max() < 0.01 * np.abs(lhs).max()

    def test_wrong_drift_coefficient_detected(self):
        # drift written with gamma instead of 2*gamma misses by an order
        par = PAR_G
        tm = _tm()
        pax, qax = gr.default_axes(tm, par, t_max=0.8, n=384)
        dt = 2e-3

        def w_at(t):
            return gr.wigner_grid_from_state(ge.propagate_mixture(tm, t, par), pax, qax)

        w0 = w_at(0.5)
        lhs = (w_at(0.5 + dt).values - w_at(0.5 - dt).values) / (2 * dt)
        rhs = master_rhs_wigner(w0, par)
        bad = rhs - par.gamma * np.gradient(
            pax.points[:, None] * w0.values, pax.step, axis=0, edge_order=2)
        assert np.abs(lhs - bad).max() > 10.0 * np.abs(lhs - rhs).max()

    def test_conserves_mass(self):
        par = PAR_G
        tm = _tm()
        pax, qax = gr.default_axes(tm, par, t_max=0.8, n=256)
        w0 = gr.wigner_grid_from_state(ge.propagate_mixture(tm, 0.5, par), pax, qax)
        rhs = master_rhs_wigner(w0, par)
        drift = np.trapezoid(np.trapezoid(rhs, dx=qax.step, axis=1), dx=pax.step)
        assert abs(drift) < 1e-6 * np.abs(rhs).max()


class TestCurrents:
    def test_probability_current_matches_engine_flux(self):
        st = ge.propagate_mixture(_tm(), 0.5, PAR_G)
        ax = gr.Axis(-8.0, 9.0, 512)
        rho = gr.density_matrix_from_state(st, ax)
        j = probability_current(rho, PAR_G)
        ref = flux_density(st, ax.points, PAR_G.mass)
        assert np.abs(j - ref).max() < 5e-3 * np.abs(ref).max()

    def test_diffusive_current_matches_closed_form(self):
        st = ge.propagate_mixture(_tm(), 0.5, PAR_G)
        ax = gr.Axis(-8.0, 9.0, 512)
        rho = gr.density_matrix_from_state(st, ax)
        jd = diffusive_current(rho, PAR_G)
        coeff = 0.5 * (PAR_G.hbar * PAR_G.b) ** 2
        ref = -coeff * position_density_gradient(st, ax.points)
        assert np.abs(jd - ref).max() < 5e-3 * np.abs(ref).max()

    def test_diffusive_current_vanishes_without_dissipation(self):
        ax = gr.Axis(-6.0, 6.0, 128)
        rho = gr.density_matrix_from_state(ge.make_gaussian_state(0, 0, 1.0), ax)
        assert np.abs(diffusive_current(rho, PAR_D)).max() == 0.0


class TestContinuity:
    X = np.linspace(-4.0, 5.0, 41)

    def test_residual_small_and_converging(self):
        r1 = ld.continuity_residual(_tm(), 0.6, PAR_G, self.X, dx=0.02, dt=0.004)
        r2 = ld.continuity_residual(_tm(), 0.6, PAR_G, self.X, dx=0.01, dt=0.002)
        assert r1.max_abs < 0.01 * r1.scale
        assert r1.max_abs / r2.max_abs > 3.5

    def test_uncorrected_current_violates_continuity(self):
        # drop J_D by hand: the residual jumps by well over an order
        t, dx, dt = 0.6, 0.01, 0.002
        st = ge.propagate_mixture(_tm(), t, PAR_G)
        stp = ge.propagate_mixture(_tm(), t + dt, PAR_G)
        stm = ge.propagate_mixture(_tm(), t - dt, PAR_G)
        drho = (ge.position_density(stp, self.X) - ge.position_density(stm, self.X)) / (2 * dt)
        dj = (flux_density(st, self.X + dx, PAR_G.mass)
              - flux_density(st, self.X - dx, PAR_G.mass)) / (2 * dx)
        bare = np.abs(drho + dj).max()
        full = ld.continuity_residual(_tm(), t, PAR_G, self.X, dx=dx, dt=dt).max_abs
        assert bare > 20.0 * full

    def test_stencil_validation(self):
        with pytest.raises(ValueError, match="positive"):
            ld.continuity_residual(_tm(), 0.5, PAR_G, self.X, dx=0.0, dt=0.01)
        with pytest.raises(ValueError, match="t - dt"):
            ld.continuity_residual(_tm(), 0.01, PAR_G, self.X, dx=0.01, dt=0.02)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1])
    def test_non_finite_steps_rejected(self, bad):
        for steps in (dict(dx=bad, dt=0.01), dict(dx=0.01, dt=bad)):
            with pytest.raises(ValueError, match="finite and positive"):
                ld.continuity_residual(_tm(), 0.5, PAR_G, self.X, **steps)
