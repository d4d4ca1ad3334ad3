from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from qbflow.core_model import (
    MUCH_GREATER,
    Interval,
    PhysParams,
    derive_timescales,
    energy_localisation_ratio,
    validity_window,
)


def _params(D=2.0, gamma=0.0, hbar=1.0, mass=1.0):
    return PhysParams(hbar=hbar, mass=mass, D=D, gamma=gamma)


class TestPhysParams:
    def test_natural_units_defaults(self):
        p = PhysParams()
        assert p.hbar == 1.0 and p.mass == 1.0 and p.D == 0.0 and p.gamma == 0.0

    def test_lindblad_couplings(self):
        p = _params(D=2.0, gamma=0.25)
        assert p.a == pytest.approx(math.sqrt(4.0), rel=1e-15)
        assert p.b == pytest.approx(0.25 / 2.0, rel=1e-15)
        # hbar*a*b recovers gamma exactly
        assert p.hbar * p.a * p.b == pytest.approx(p.gamma, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            PhysParams(hbar=0.0)
        with pytest.raises(ValueError):
            PhysParams(mass=-1.0)
        with pytest.raises(ValueError):
            PhysParams(D=-0.1)
        with pytest.raises(ValueError):
            PhysParams(gamma=0.1, D=0.0)  # dissipation without noise

    @pytest.mark.parametrize("field", ["hbar", "mass", "D", "gamma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        kwargs = {"D": 2.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PhysParams(**kwargs)

    def test_b_undefined_without_noise(self):
        assert PhysParams().b == 0.0


class TestTimescales:
    def test_reference_values(self):
        # D=2, m=1, hbar=1: tau_l = sqrt(2*1*1/2) = 1
        ts = derive_timescales(_params(D=2.0), p0=-10.0)
        assert ts.tau_l == pytest.approx(1.0, abs=0.0)
        assert ts.tau_s == pytest.approx(50.0, rel=1e-15)
        assert ts.t_positive == pytest.approx((3.0 / 16.0) ** 0.25, rel=1e-15)
        assert ts.t_positive == pytest.approx(0.65804, abs=5e-6)

    def test_positive_time_precedes_localisation_time(self):
        ts = derive_timescales(_params(D=0.7, hbar=2.0, mass=3.0), p0=4.0)
        assert ts.t_positive < ts.tau_l

    def test_unitary_regime_rejected(self):
        with pytest.raises(ValueError, match="unitary regime"):
            derive_timescales(PhysParams(), p0=1.0)

    @given(
        D=st.floats(1e-6, 1e6),
        m=st.floats(1e-3, 1e3),
        hbar=st.floats(1e-3, 1e3),
        p0=st.floats(1e-3, 1e3),
    )
    def test_scaling_with_noise_strength(self, D, m, hbar, p0):
        # Doubling D halves tau_s exactly and divides tau_l by sqrt(2).
        base = derive_timescales(PhysParams(hbar=hbar, mass=m, D=D), p0)
        dbl = derive_timescales(PhysParams(hbar=hbar, mass=m, D=2.0 * D), p0)
        assert dbl.tau_s == pytest.approx(base.tau_s / 2.0, rel=1e-12)
        assert dbl.tau_l == pytest.approx(base.tau_l / math.sqrt(2.0), rel=1e-12)

    def test_energy_ratio_identity(self):
        # tau_s/tau_l == E*tau_l/hbar with E = p0^2/2m, exactly.
        params = _params(D=3.7, hbar=0.8, mass=1.9)
        ts = derive_timescales(params, p0=-6.0)
        ratio = energy_localisation_ratio(params, p0=-6.0)
        assert ratio == pytest.approx(ts.tau_s / ts.tau_l, rel=1e-12)

    def test_fast_system_flagged(self):
        # E*tau_l/hbar = 50 >> 1 for the canonical parameters.
        r = energy_localisation_ratio(_params(D=2.0), p0=-10.0)
        assert r == pytest.approx(50.0, rel=1e-12)
        assert r > MUCH_GREATER * 1.0


class TestValidityWindow:
    def test_canonical_window(self):
        ts = derive_timescales(_params(D=2.0), p0=-10.0)
        win = validity_window(ts)
        assert win.t1 == pytest.approx(ts.t_positive)
        assert win.t2 == pytest.approx(5.0)

    def test_empty_window_rejected(self):
        # Slow particle: 0.1*tau_s falls below t_positive.
        ts = derive_timescales(_params(D=2.0), p0=-1.0)
        with pytest.raises(ValueError, match="no near-deterministic validity window"):
            validity_window(ts)


class TestInterval:
    def test_fields(self):
        iv = Interval(1.0, 3.0)
        assert iv.width == 2.0 and iv.midpoint == 2.0

    def test_inverted_rejected(self):
        with pytest.raises(ValueError, match="interval inverted"):
            Interval(3.0, 3.0)

    @pytest.mark.parametrize("field", ["t1", "t2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        bounds = {"t1": 0.0, "t2": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Interval(**bounds)

    @pytest.mark.parametrize("t1", [-0.5, -1e-300, -math.ldexp(1.0, -1074)])
    def test_opens_before_preparation_rejected(self, t1):
        # every window is a time since the state was prepared at t = 0
        with pytest.raises(ValueError, match=f"t1 must be non-negative .*got {t1}"):
            Interval(t1, 1.0)

    def test_opens_at_preparation(self):
        assert Interval(0.0, 1.0).t1 == 0.0 and Interval(-0.0, 1.0).width == 1.0

