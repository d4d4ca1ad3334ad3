"""Tests for the brute-force grid engine."""

from __future__ import annotations

import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import fft, ndimage

from qbflow.core_model import PhysParams
from qbflow import arrival as ar
from qbflow import gaussian_engine as ge
from qbflow import grid_engine as gr


PAR = PhysParams(D=2.0)


def _cat():
    return ge.make_cat_state(separation=4.0, p0=-2.0, sigma=0.7)


class TestAxes:
    def test_axis_validation(self):
        with pytest.raises(ValueError, match="inverted"):
            gr.Axis(1.0, -1.0, 64)
        with pytest.raises(ValueError, match="at least 2"):
            gr.Axis(0.0, 1.0, 1)

    def test_grid_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            gr.PhaseSpaceGrid(gr.Axis(0, 1, 4), gr.Axis(0, 1, 4), np.zeros((3, 4)))

    def test_default_axes_cover_drift(self):
        s = ge.make_gaussian_state(p0=-5.0, q0=2.0, sigma=1.0)
        pax, qax = gr.default_axes(s, PAR, t_max=2.0)
        assert pax.lo < -5.0 < pax.hi
        assert qax.lo < 2.0 - 10.0  # classical drift end plus padding
        assert qax.hi > 2.0


class TestWignerTransform:
    def test_matches_closed_form(self):
        ax = gr.Axis(-14.0, 10.0, 256)
        rho = gr.density_matrix_from_state(_cat(), ax)
        w = gr.wigner_from_density(rho)
        pp, qq = np.meshgrid(w.p.points, w.q.points, indexing="ij")
        ref = ge.evaluate_state(_cat(), pp, qq)
        assert np.abs(w.values - ref).max() < 1e-12 * np.abs(ref).max()

    def test_mass_and_trace_agree(self):
        ax = gr.Axis(-14.0, 10.0, 256)
        rho = gr.density_matrix_from_state(_cat(), ax)
        w = gr.wigner_from_density(rho)
        assert math.isclose(rho.trace(), 1.0, rel_tol=1e-9)
        assert math.isclose(w.integrate(), 1.0, rel_tol=1e-9)

    def test_density_matrix_hermitian(self):
        ax = gr.Axis(-14.0, 10.0, 128)
        rho = gr.density_matrix_from_state(_cat(), ax)
        assert rho.hermiticity_defect() < 1e-14


class TestWignerPropagation:
    def test_zero_time_is_identity(self):
        pax, qax = gr.default_axes(_cat(), PAR, n=64)
        w = gr.wigner_grid_from_state(_cat(), pax, qax)
        assert gr.propagate_wigner_qbm(w, 0.0, PAR) is w

    def test_fast_agrees_with_direct(self):
        g = ge.make_gaussian_state(p0=1.0, q0=-1.0, sigma=0.9)
        pax, qax = gr.default_axes(g, PAR, t_max=1.0, n=144)
        w = gr.wigner_grid_from_state(g, pax, qax)
        a = gr.propagate_wigner_qbm(w, 1.0, PAR, method="fast")
        b = gr.propagate_wigner_qbm(w, 1.0, PAR, method="direct")
        assert np.abs(a.values - b.values).max() < 1e-3 * np.abs(b.values).max()

    def test_mass_conserved(self):
        pax, qax = gr.default_axes(_cat(), PAR, t_max=1.5, n=256)
        w = gr.wigner_grid_from_state(_cat(), pax, qax)
        out = gr.propagate_wigner_qbm(w, 1.5, PAR)
        assert math.isclose(out.integrate(), w.integrate(), rel_tol=1e-6)

    def test_leaking_grid_rejected(self):
        g = ge.make_gaussian_state(p0=4.0, q0=0.0, sigma=1.0)
        pax = gr.Axis(-2.0, 10.0, 96)
        qax = gr.Axis(-3.0, 3.0, 96)  # drift of 8 leaves this box
        w = gr.wigner_grid_from_state(g, pax, qax)
        with pytest.raises(ValueError, match="grid too small"):
            gr.propagate_wigner_qbm(w, 2.0, PAR)

    def test_direct_guards_small_time(self):
        pax, qax = gr.default_axes(_cat(), PAR, t_max=1.0, n=144)
        w = gr.wigner_grid_from_state(_cat(), pax, qax)
        with pytest.raises(ValueError, match="too coarse"):
            gr.propagate_wigner_qbm(w, 0.01, PAR, method="direct")

    def test_shear_matches_2d_spline_reference(self):
        # the 2-D cubic spline shear that the per-row 1-D shift replaced
        def reference(values, p_pts, q_axis, lam):
            n_p, n_q = values.shape
            rows = np.repeat(np.arange(n_p, dtype=float)[:, None], n_q, axis=1)
            cols = (q_axis.points[None, :] - lam * p_pts[:, None] - q_axis.lo) / q_axis.step
            return ndimage.map_coordinates(values, [rows, cols], order=3, mode="constant", cval=0.0)

        rng = np.random.default_rng(7)
        for n in (64, 257):
            # random values keep the borders non-zero, so the mirror end
            # conditions of the prefilter count.  These axes and lambdas put
            # no source index within round-off of a grid end, where the two
            # ways of forming it may round to opposite sides of the edge.
            p_pts = gr.Axis(-4.1, 3.9, n).points
            q_axis = gr.Axis(-3.0, 5.0, n)
            values = rng.standard_normal((n, n))
            # row shifts from under one cell (0.006) to whole rows off the grid
            for lam in (0.006, -0.006, 0.05, -0.3, 0.3, 1.3, -2.7, 2.7):
                out = gr._shear_q(values, p_pts, q_axis, lam)
                ref = reference(values, p_pts, q_axis, lam)
                assert np.abs(out - ref).max() <= 1e-12 * np.abs(values).max(), (n, lam)
                if abs(lam) > 2.0:
                    assert not out.any(axis=1).all()

    def test_shear_by_whole_cells_keeps_grid_ends(self):
        # lam p_i / dq = 4i - 126 cells: every sample is an input sample or 0,
        # and sources landing exactly on column 0 or n - 1 are on the grid
        n = 64
        p_pts = gr.Axis(-4.0, 4.0, n).points
        q_axis = gr.Axis(-3.0, 5.0, n)
        values = np.random.default_rng(3).standard_normal((n, n))
        ref = np.zeros_like(values)
        for i in range(n):
            src = np.arange(n) + 4 * i - 126
            inside = (src >= 0) & (src < n)
            ref[i, inside] = values[i, src[inside]]
        out = gr._shear_q(values, p_pts, q_axis, -4.0)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(values).max()

    def test_dissipation_not_supported_on_grid(self):
        pax, qax = gr.default_axes(_cat(), PAR, n=64)
        w = gr.wigner_grid_from_state(_cat(), pax, qax)
        with pytest.raises(ValueError, match="gamma"):
            gr.propagate_wigner_qbm(w, 0.5, PhysParams(D=1.0, gamma=0.2))


class TestRestrictedPropagation:
    def test_step_count_must_divide(self):
        pax, qax = gr.default_axes(_cat(), PAR, n=64)
        w = gr.wigner_grid_from_state(_cat(), pax, qax)
        with pytest.raises(ValueError, match="whole number"):
            ar.restricted_march(w, 1.0, 0.3, PAR)

    def test_right_mover_keeps_norm(self):
        # fast right-moving packet far from the boundary: truncation is idle
        g = ge.make_gaussian_state(p0=6.0, q0=4.0, sigma=0.8)
        pax = gr.Axis(-2.0, 14.0, 192)
        qax = gr.Axis(-4.0, 24.0, 192)
        w = gr.wigner_grid_from_state(g, pax, qax)
        norms, _ = ar.restricted_march(w, 2.0, 0.25, PhysParams(D=0.5))
        assert norms[-1] > 0.995

    def test_left_mover_loses_norm(self):
        g = ge.make_gaussian_state(p0=-4.0, q0=3.0, sigma=0.8)
        pax = gr.Axis(-12.0, 4.0, 192)
        qax = gr.Axis(-14.0, 10.0, 192)
        w = gr.wigner_grid_from_state(g, pax, qax)
        norms, _ = ar.restricted_march(w, 2.0, 0.25, PhysParams(D=0.5))
        assert norms[-1] < 0.1

    def test_eps_refinement_converges(self):
        g = ge.make_gaussian_state(p0=-3.0, q0=4.0, sigma=1.0)
        pax = gr.Axis(-11.0, 5.0, 192)
        qax = gr.Axis(-10.0, 12.0, 192)
        w = gr.wigner_grid_from_state(g, pax, qax)
        par = PhysParams(D=0.5)
        coarse = ar.restricted_march(w, 2.0, 0.2, par)[0][-1]
        fine = ar.restricted_march(w, 2.0, 0.1, par)[0][-1]
        assert abs(fine - coarse) < 0.02


class TestDensityPropagation:
    def test_matches_engine_for_cat(self):
        ax = gr.Axis(-14.0, 10.0, 256)
        rho0 = gr.density_matrix_from_state(_cat(), ax)
        t = 0.7
        rho_t = rho0.with_values(gr._propagate_density_split_raw(rho0.values, ax, t, PAR))
        ref = gr.density_matrix_from_state(ge.propagate_mixture(_cat(), t, PAR), ax)
        scale = np.abs(ref.values).max()
        assert np.abs(rho_t.values - ref.values).max() < 1e-4 * scale
        assert abs(rho_t.trace() - 1.0) < 1e-4
        assert rho_t.hermiticity_defect() < 1e-12

    def test_free_unitary_case(self):
        g = ge.make_gaussian_state(p0=1.5, q0=-3.0, sigma=0.9)
        ax = gr.Axis(-12.0, 12.0, 220)
        rho0 = gr.density_matrix_from_state(g, ax)
        rho_t = gr._propagate_density_split_raw(rho0.values, ax, 1.2, PhysParams(D=0.0))
        ref = gr.density_matrix_from_state(
            ge.propagate_mixture(g, 1.2, PhysParams(D=0.0)), ax)
        assert np.abs(rho_t - ref.values).max() < 1e-4 * np.abs(ref.values).max()

    @pytest.mark.parametrize("n", [256, 257, 384])
    @pytest.mark.parametrize("d", [0.0, 1.0])
    @pytest.mark.parametrize(
        "state",
        [ge.make_gaussian_state(p0=1.5, q0=-3.0, sigma=0.9), _cat()],
        ids=["gaussian", "cat"],
    )
    def test_split_step_matches_engine(self, state, d, n):
        # odd n exercises the fftfreq block layout of the 1-D-table kernels
        par = PhysParams(D=d)
        ax = gr.Axis(-16.0, 16.0, n)
        rho0 = gr.density_matrix_from_state(state, ax)
        before = rho0.values.copy()
        out = gr._propagate_density_split_raw(rho0.values, ax, 0.8, par)
        ref = gr.density_matrix_from_state(ge.propagate_mixture(state, 0.8, par), ax)
        assert np.abs(out - ref.values).max() < 1e-12
        assert np.array_equal(rho0.values, before)  # the input is left untouched

    def test_worker_count_leaves_bits_unchanged(self, monkeypatch):
        # the FFT worker count follows the affinity mask; it must not move a
        # bit: a cat at D = 2, and a one-sided projected block at D = 0
        cat_ax = gr.Axis(-16.0, 16.0, 512)
        cat = gr.density_matrix_from_state(_cat(), cat_ax).values
        half_ax = gr.axis_straddling_zero(-12.0, 12.0, 512)
        x = half_ax.points
        cut = int(np.count_nonzero(x < 0.0))
        block = np.zeros((512, 512), dtype=complex)
        block[cut:, :cut] = gr._density_block(
            ge.make_gaussian_state(p0=-4.0, q0=3.0, sigma=0.8), x[cut:], x[:cut]
        )
        cases = [(cat, cat_ax, PAR), (block, half_ax, PhysParams(D=0.0))]
        outputs = []
        real = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else {0, 1}
        for mask in ({0}, real, {0, 1, 2}):
            monkeypatch.setattr(
                gr.os, "sched_getaffinity", lambda pid, m=mask: m, raising=False
            )
            outputs.append(
                [gr._propagate_density_split_raw(v, ax, 0.8, par) for v, ax, par in cases]
            )
        for other in outputs[1:]:
            for a, b in zip(outputs[0], other):
                assert np.array_equal(a, b)

    def test_worker_count_follows_affinity_mask(self, monkeypatch):
        seen = []

        def spy(name):
            def call(*args, **kwargs):
                seen.append(kwargs.get("workers"))
                return getattr(fft, name)(*args, **kwargs)
            return call

        monkeypatch.setattr(gr, "fft", SimpleNamespace(fft2=spy("fft2"), ifft2=spy("ifft2")))
        monkeypatch.setattr(gr.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)

        def step(n):
            seen.clear()
            ax = gr.Axis(-8.0, 8.0, n)
            rho = gr.density_matrix_from_state(ge.make_gaussian_state(0.5, 0.0, 1.0), ax)
            gr._propagate_density_split_raw(rho.values, ax, 0.5, PAR)
            return seen

        assert step(128) == [3, 3, 3, 3]
        assert step(64) == [1, 1, 1, 1]  # small grids stay on one worker
        # without sched_getaffinity the count falls back to os.cpu_count()
        monkeypatch.delattr(gr.os, "sched_getaffinity")
        monkeypatch.setattr(gr.os, "cpu_count", lambda: 5)
        assert step(128) == [5, 5, 5, 5]
        monkeypatch.setattr(gr.os, "cpu_count", lambda: None)
        assert step(128) == [1, 1, 1, 1]

    def test_rejects_dissipation(self):
        ax = gr.Axis(-5.0, 5.0, 64)
        rho = gr.density_matrix_from_state(ge.make_gaussian_state(0, 0, 1.0), ax)
        with pytest.raises(ValueError, match="gamma"):
            gr._propagate_density_split_raw(
                rho.values, ax, 0.5, PhysParams(D=1.0, gamma=0.1)
            )


class TestReductions:
    def test_slice_at_q0_interpolates(self):
        pax = gr.Axis(-1.0, 1.0, 8)
        qax = gr.Axis(-0.95, 1.05, 9)  # q = 0 falls between columns
        qv = qax.points
        vals = np.tile(2.0 * qv + 1.0, (8, 1))
        w = gr.PhaseSpaceGrid(pax, qax, vals)
        assert np.allclose(gr.slice_at_q0(w), 1.0)

    def test_slice_requires_zero_inside(self):
        w = gr.PhaseSpaceGrid(gr.Axis(-1, 1, 4), gr.Axis(1.0, 2.0, 4), np.zeros((4, 4)))
        with pytest.raises(ValueError, match="outside"):
            gr.slice_at_q0(w)
