"""Tests for the brute-force grid engine."""

from __future__ import annotations

import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft, ndimage

from qbflow.core_model import PhysParams
from qbflow import arrival as ar
from qbflow import gaussian_engine as ge
from qbflow import grid_engine as gr
from oracles import (
    density_block_direct,
    density_trace,
    gauss1d_ndimage,
    hermiticity_defect,
    propagate_wigner_direct,
    wigner_from_density,
)


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
        pax, qax = gr.default_axes(s, PAR, t_max=2.0, n=256)
        assert pax.lo < -5.0 < pax.hi
        assert qax.lo < 2.0 - 10.0  # classical drift end plus padding
        assert qax.hi > 2.0


class TestWignerTransform:
    def test_matches_closed_form(self):
        ax = gr.Axis(-14.0, 10.0, 256)
        rho = gr.density_matrix_from_state(_cat(), ax)
        w = wigner_from_density(rho)
        pp, qq = np.meshgrid(w.p.points, w.q.points, indexing="ij")
        ref = ge.evaluate_state(_cat(), pp, qq)
        assert np.abs(w.values - ref).max() < 1e-12 * np.abs(ref).max()

    def test_mass_and_trace_agree(self):
        ax = gr.Axis(-14.0, 10.0, 256)
        rho = gr.density_matrix_from_state(_cat(), ax)
        w = wigner_from_density(rho)
        assert math.isclose(density_trace(rho), 1.0, rel_tol=1e-9)
        assert math.isclose(w.integrate(), 1.0, rel_tol=1e-9)

    def test_density_matrix_hermitian(self):
        ax = gr.Axis(-14.0, 10.0, 128)
        rho = gr.density_matrix_from_state(_cat(), ax)
        assert hermiticity_defect(rho) < 1e-14


_BLOCK_STATES = {
    "gaussian": ge.make_gaussian_state(p0=1.5, q0=-1.0, sigma=0.9),
    "shifted_cat": ge.shift_state(
        ge.make_cat_state(separation=3.0, p0=-10.0, sigma=1.0), dq=2.0
    ),
    "two_momentum": ge.make_two_momentum_state(p1=-2.0, p2=-6.0, q0=2.0, sigma=1.0),
}


_BLOCK_AXIS = gr.axis_straddling_zero(-16.0, 16.0, 384)
_CUT = int(np.count_nonzero(_BLOCK_AXIS.points < 0.0))


class TestDensityBlock:
    @pytest.mark.parametrize(
        "rows, cols",
        [
            (slice(_CUT, 384), slice(_CUT, 384)),  # right-right
            (slice(_CUT, 384), slice(0, _CUT)),  # right-left
            (slice(200, 201), slice(0, 384)),  # one row
            (slice(0, 384), slice(170, 171)),  # one column
            (slice(150, 230), slice(120, 310)),  # non-square
        ],
        ids=["right_right", "right_left", "one_row", "one_col", "non_square"],
    )
    @pytest.mark.parametrize("t", [0.0, 0.5], ids=["unevolved", "evolved"])
    @pytest.mark.parametrize("name", sorted(_BLOCK_STATES))
    def test_matches_per_entry_formula(self, name, t, rows, cols):
        # the Hankel x Toeplitz x rank-1 phase product against one exp per
        # entry; the gate is relative to the peak of the full matrix
        state = ge.propagate_mixture(_BLOCK_STATES[name], t, PAR)
        x = _BLOCK_AXIS.points
        full = density_block_direct(state, x, x)
        out = np.full(full[rows, cols].shape, np.nan, dtype=complex)
        gr._density_block(state, _BLOCK_AXIS, rows.start, cols.start, out)
        assert np.abs(out - full[rows, cols]).max() < 1e-12 * np.abs(full).max()

    def test_writes_into_caller_slice(self):
        # the block fills a view of the caller's matrix and leaves the rest
        x = _BLOCK_AXIS.points
        state = _BLOCK_STATES["shifted_cat"]
        projected = np.zeros((384, 384), dtype=complex)
        gr._density_block(state, _BLOCK_AXIS, _CUT, 0, projected[_CUT:, :_CUT])
        ref = density_block_direct(state, x[_CUT:], x[:_CUT])
        assert np.abs(projected[_CUT:, :_CUT] - ref).max() < 1e-12 * np.abs(ref).max()
        assert not projected[:_CUT].any() and not projected[_CUT:, _CUT:].any()

    @pytest.mark.parametrize("t", [0.0, 0.5], ids=["unevolved", "evolved"])
    @pytest.mark.parametrize("name", sorted(_BLOCK_STATES))
    def test_right_rows_in_one_call_equal_two_blocks(self, name, t):
        # the class matrix refills all right rows of its chain in one call;
        # every entry comes from the same table values, so bit for bit
        state = ge.propagate_mixture(_BLOCK_STATES[name], t, PAR)
        one = np.zeros((384, 384), dtype=complex)
        gr._density_block(state, _BLOCK_AXIS, _CUT, 0, one[_CUT:])
        two = np.zeros((384, 384), dtype=complex)
        gr._density_block(state, _BLOCK_AXIS, _CUT, _CUT, two[_CUT:, _CUT:])
        gr._density_block(state, _BLOCK_AXIS, _CUT, 0, two[_CUT:, :_CUT])
        assert np.array_equal(one, two)


class TestWignerPropagation:
    def test_zero_time_is_identity(self):
        pax, qax = gr.default_axes(_cat(), PAR, n=64)
        w = gr.wigner_grid_from_state(_cat(), pax, qax)
        assert gr.propagate_wigner_qbm(w, 0.0, PAR) is w

    def test_fast_agrees_with_direct(self):
        g = ge.make_gaussian_state(p0=1.0, q0=-1.0, sigma=0.9)
        pax, qax = gr.default_axes(g, PAR, t_max=1.0, n=144)
        w = gr.wigner_grid_from_state(g, pax, qax)
        a = gr.propagate_wigner_qbm(w, 1.0, PAR)
        b = propagate_wigner_direct(w, 1.0, PAR)
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1])
    def test_non_finite_time_rejected(self, bad):
        w = gr.wigner_grid_from_state(_cat(), *gr.default_axes(_cat(), PAR, n=64))
        with pytest.raises(ValueError, match="propagation time must be finite and non-negative"):
            gr.propagate_wigner_qbm(w, bad, PAR)

    def test_direct_guards_small_time(self):
        pax, qax = gr.default_axes(_cat(), PAR, t_max=1.0, n=144)
        w = gr.wigner_grid_from_state(_cat(), pax, qax)
        with pytest.raises(ValueError, match="too coarse"):
            propagate_wigner_direct(w, 0.01, PAR)

    @staticmethod
    def _normal(n):
        # one generator draws the 64-point grid, then the 257-point one
        rng = np.random.default_rng(7)
        first = rng.standard_normal((64, 64))
        return first if n == 64 else rng.standard_normal((n, n))

    @staticmethod
    def _deep_tails(n):
        # Gaussian rows whose q-tails fall to ~1e-280 of the peak (below 1e-250)
        p = gr.Axis(-4.1, 3.9, n).points
        q = gr.Axis(-3.0, 5.0, n).points
        return np.exp(-0.5 * (p[:, None] / 1.5) ** 2 - 0.5 * ((q[None, :] - 1.0) / 0.11) ** 2)

    @pytest.mark.parametrize(
        "n, make",
        [
            # random values keep the borders non-zero, so the mirror end
            # conditions of the prefilter count
            (64, lambda n: TestWignerPropagation._normal(n)),
            (257, lambda n: TestWignerPropagation._normal(n)),
            # tails that make subnormal products in an unscaled prefilter
            (512, lambda n: TestWignerPropagation._deep_tails(n)),
            # the scale comes from the peak magnitude, here from the minimum
            (128, lambda n: -1.0 - np.random.default_rng(9).random((n, n))),
            (64, lambda n: np.zeros((n, n))),
        ],
        ids=["normal-64", "normal-257", "deep-tails-512", "all-negative", "all-zero"],
    )
    def test_shear_matches_2d_spline_reference(self, n, make):
        # the 2-D cubic spline shear that the per-row 1-D shift replaced
        def reference(values, p_pts, q_axis, lam):
            n_p, n_q = values.shape
            rows = np.repeat(np.arange(n_p, dtype=float)[:, None], n_q, axis=1)
            cols = (q_axis.points[None, :] - lam * p_pts[:, None] - q_axis.lo) / q_axis.step
            return ndimage.map_coordinates(values, [rows, cols], order=3, mode="constant", cval=0.0)

        # These axes and lambdas put no source index within round-off of a
        # grid end, where the two ways of forming it may round to opposite
        # sides of the edge.
        p_pts = gr.Axis(-4.1, 3.9, n).points
        q_axis = gr.Axis(-3.0, 5.0, n)
        values = make(n)
        # row shifts from under one cell (0.006) to whole rows off the grid
        for lam in (0.006, -0.006, 0.05, -0.3, 0.3, 1.3, -2.7, 2.7):
            out = gr._shear_q(values, p_pts, q_axis, lam)
            ref = reference(values, p_pts, q_axis, lam)
            assert np.abs(out - ref).max() <= 1e-12 * np.abs(values).max(), (n, lam)
            if abs(lam) > 2.0:
                assert not out.any(axis=1).all()

    @pytest.mark.parametrize("n", [64, 257, 512])
    def test_shear_scaling_is_exact(self, n):
        # the prefilter on the grid as given and taps without 2^-e: the
        # composition before the power-of-two scaling, which must not move a bit
        def unscaled(values, p_pts, q_axis, lam):
            n_p, n_q = values.shape
            coef = np.empty((n_p, n_q + 3))
            ndimage.spline_filter1d(values, order=3, axis=1, mode="mirror", output=coef[:, 1:-2])
            coef[:, [0, -2, -1]] = coef[:, [2, -4, -5]]
            shift = -lam * p_pts / q_axis.step
            shift = np.where(np.abs(shift - np.rint(shift)) < 1e-12, np.rint(shift), shift)
            k = np.floor(shift)
            f = (shift - k)[:, None]
            g = 1.0 - f
            taps = np.hstack([g ** 3, 3.0 * f ** 3 - 6.0 * f * f + 4.0,
                              3.0 * g ** 3 - 6.0 * g * g + 4.0, f ** 3]) / 6.0
            wide = np.zeros((n_p, 3 * n_q))
            np.matmul(sliding_window_view(coef, 4, axis=1), taps[:, :, None],
                      out=wide[:, n_q:2 * n_q, None])
            wide[f[:, 0] > 0.0, 2 * n_q - 1] = 0.0
            start = n_q + np.clip(k, -n_q, n_q).astype(np.intp)
            return sliding_window_view(wide, n_q, axis=1)[np.arange(n_p), start]

        p_pts = gr.Axis(-4.1, 3.9, n).points
        q_axis = gr.Axis(-3.0, 5.0, n)
        values = np.random.default_rng(n).standard_normal((n, n))
        for lam in (0.006, -0.3, 1.3, -4.0):
            assert np.array_equal(
                gr._shear_q(values, p_pts, q_axis, lam), unscaled(values, p_pts, q_axis, lam)
            ), (n, lam)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_one_tap_blur_returns_input(self, axis):
        # sigma under 1/16 cell: the 8-sigma kernel has radius 0, a single
        # tap of 1.0, so the blur hands back its input unchanged
        values = np.random.default_rng(5).standard_normal((40, 48))
        step = 0.1
        for sigma in (1e-6, 0.005, 0.03, 0.0624):
            var = (sigma * step) ** 2
            out = gr._gauss1d(values, var, step, axis)
            assert out is values
            ref = ndimage.gaussian_filter1d(values, sigma, axis=axis, mode="constant", truncate=8.0)
            assert np.array_equal(out, ref)
        # from 1/16 cell on the kernel has three taps and the blur runs
        var = (0.0626 * step) ** 2
        out = gr._gauss1d(values, var, step, axis)
        assert out is not values
        ref = ndimage.gaussian_filter1d(values, 0.0626, axis=axis, mode="constant", truncate=8.0)
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize(
        "shape", [(40, 48), (256, 256), (512, 300), (50, 50)],
        ids=["40x48", "256x256", "512x300", "50x50"],
    )
    def test_blur_matches_ndimage(self, shape, axis):
        # sigma from the first three-tap kernel through the march's p-axis
        # blurs (3.45 and 4.73 cells) to past n/8 cells, where the kernel
        # radius passes the grid; 50x50 also takes radii over 2n
        n = shape[axis]
        sigmas = [0.0626, 0.3, 1.0, 3.45, 4.73, 0.13 * n]
        if shape == (50, 50):
            sigmas += [7.0, 13.0, 40.0]
        values = np.random.default_rng(n + axis).standard_normal(shape)
        step = 0.1
        for sigma in sigmas:
            var = (sigma * step) ** 2
            out = gr._gauss1d(values, var, step, axis)
            ref = gauss1d_ndimage(values, var, step, axis)
            assert np.abs(out - ref).max() <= 1e-14 * np.abs(values).max(), (shape, axis, sigma)

    def test_march_matches_ndimage_blur(self, monkeypatch):
        # a short restricted march whose p blur spans 6 cells and q blur
        # 0.3 cells, so both axes run; norms and currents keep 1e-12
        g = ge.make_gaussian_state(p0=-4.0, q0=3.0, sigma=0.8)
        w = gr.wigner_grid_from_state(g, gr.Axis(-12.0, 4.0, 192), gr.Axis(-14.0, 10.0, 192))
        par = PhysParams(D=0.5)
        norms, currents = ar.restricted_march(w, 1.0, 0.25, par)
        monkeypatch.setattr(gr, "_gauss1d", gauss1d_ndimage)
        ref_norms, ref_currents = ar.restricted_march(w, 1.0, 0.25, par)
        np.testing.assert_allclose(norms, ref_norms, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(currents, ref_currents, rtol=1e-12, atol=0.0)

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
        rho_t = gr.DensityMatrixGrid(ax, gr._propagate_density_split_raw(rho0.values, ax, t, PAR))
        ref = gr.density_matrix_from_state(ge.propagate_mixture(_cat(), t, PAR), ax)
        scale = np.abs(ref.values).max()
        assert np.abs(rho_t.values - ref.values).max() < 1e-4 * scale
        assert abs(density_trace(rho_t) - 1.0) < 1e-4
        assert hermiticity_defect(rho_t) < 1e-12

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
        out = gr._propagate_density_split_raw(rho0.values, ax, 0.8, par)
        ref = gr.density_matrix_from_state(ge.propagate_mixture(state, 0.8, par), ax)
        assert np.abs(out - ref.values).max() < 1e-12
        assert np.shares_memory(out, rho0.values)  # the step works in place

    def test_free_step_matches_two_half_steps(self):
        # at D = 0 the step is one free step; written out here as the free
        # half-step, an identity channel and the second half-step, four FFTs
        ax = gr.axis_straddling_zero(-12.0, 12.0, 384)
        x = ax.points
        cut = int(np.count_nonzero(x < 0.0))
        block = np.zeros((384, 384), dtype=complex)
        gr._density_block(
            ge.make_gaussian_state(p0=-4.0, q0=3.0, sigma=0.8), ax, cut, 0, block[cut:, :cut]
        )
        t = 0.8
        k = 2.0 * math.pi * np.fft.fftfreq(ax.n, d=ax.step)
        half = np.exp(-0.25j * t * k * k)  # hbar = m = 1
        phase = half[:, None] * half.conj()[None, :]
        ref = np.fft.ifft2(phase * np.fft.fft2(block))
        ref = np.fft.ifft2(phase * np.fft.fft2(ref))
        out = gr._propagate_density_split_raw(block, ax, t, PhysParams(D=0.0))
        assert np.abs(out - ref).max() < 1e-14 * np.abs(ref).max()

    def test_worker_count_leaves_bits_unchanged(self, monkeypatch):
        # the FFT worker count follows the affinity mask; it must not move a
        # bit: a cat at D = 2, and a one-sided projected block at D = 0
        cat_ax = gr.Axis(-16.0, 16.0, 512)
        cat = gr.density_matrix_from_state(_cat(), cat_ax).values
        half_ax = gr.axis_straddling_zero(-12.0, 12.0, 512)
        x = half_ax.points
        cut = int(np.count_nonzero(x < 0.0))
        block = np.zeros((512, 512), dtype=complex)
        gr._density_block(
            ge.make_gaussian_state(p0=-4.0, q0=3.0, sigma=0.8), half_ax, cut, 0,
            block[cut:, :cut],
        )
        cases = [(cat, cat_ax, PAR), (block, half_ax, PhysParams(D=0.0))]
        outputs = []
        real = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else {0, 1}
        for mask in ({0}, real, {0, 1, 2}):
            monkeypatch.setattr(
                gr.os, "sched_getaffinity", lambda pid, m=mask: m, raising=False
            )
            outputs.append(
                [gr._propagate_density_split_raw(v.copy(), ax, 0.8, par) for v, ax, par in cases]
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

        def step(n, par=PAR):
            seen.clear()
            ax = gr.Axis(-8.0, 8.0, n)
            rho = gr.density_matrix_from_state(ge.make_gaussian_state(0.5, 0.0, 1.0), ax)
            gr._propagate_density_split_raw(rho.values, ax, 0.5, par)
            return seen

        assert step(128) == [3, 3, 3, 3]
        assert step(128, PhysParams(D=0.0)) == [3, 3]  # D = 0: one free step
        assert step(64) == [3, 3, 3, 3]  # small grids too: no size threshold
        # without sched_getaffinity the count falls back to os.cpu_count()
        monkeypatch.delattr(gr.os, "sched_getaffinity")
        monkeypatch.setattr(gr.os, "cpu_count", lambda: 5)
        assert step(128) == [5, 5, 5, 5]
        monkeypatch.setattr(gr.os, "cpu_count", lambda: None)
        assert step(128) == [1, 1, 1, 1]

    @pytest.mark.parametrize("d", [0.0, 1.0])
    def test_ffts_stay_in_padded_buffer(self, monkeypatch, d):
        # every FFT works in place in the row-padded working array; a scipy
        # that copied would hand the column passes a power-of-two row stride
        # again, and the step, which returns its input, would return it
        # untransformed
        in_place = []

        def spy(name):
            def call(x, *args, **kwargs):
                y = getattr(fft, name)(x, *args, **kwargs)
                in_place.append(np.shares_memory(x, y))
                return y
            return call

        monkeypatch.setattr(gr, "fft", SimpleNamespace(fft2=spy("fft2"), ifft2=spy("ifft2")))
        n = 256
        ax = gr.Axis(-16.0, 16.0, n)
        buf = gr._work_array(n)
        buf[...] = gr.density_matrix_from_state(_cat(), ax).values
        out = gr._propagate_density_split_raw(buf, ax, 0.8, PhysParams(D=d))
        assert in_place == [True] * (4 if d else 2)
        assert out is buf

    @pytest.mark.parametrize("n", [257, 384, 512])
    @pytest.mark.parametrize("d", [0.0, 1.0])
    def test_stride_leaves_bits_unchanged(self, d, n):
        # pocketfft computes each line the same way whatever its stride, so
        # the padded working array gives the bits of a contiguous one
        ax = gr.Axis(-16.0, 16.0, n)
        rho = gr.density_matrix_from_state(_cat(), ax).values
        padded = np.zeros((n + 3, n + 5), dtype=complex)[1:-2, 2:-3]
        padded[...] = rho
        layouts = [rho.copy(), np.asfortranarray(rho), padded]
        outs = [gr._propagate_density_split_raw(v, ax, 0.8, PhysParams(D=d)) for v in layouts]
        for other in outs[1:]:
            assert np.array_equal(outs[0], other)
        for transform in (fft.fft2, fft.ifft2):
            padded[...] = rho
            assert np.array_equal(transform(rho), transform(padded, overwrite_x=True))

    @pytest.mark.parametrize("d, n", [(0.0, 256), (0.0, 257), (0.0, 384), (1.0, 256)])
    def test_diagonal_step_matches_full_step(self, d, n):
        # at D = 0 the diagonal is read off the final spectrum, exact to
        # round-off for any input, here a non-Hermitian fork block rho P_R
        # whose left columns are zero; odd and non-power-of-two n cover the
        # wrapped slice of each row's sum.  With D > 0 the step runs in full
        # and the diagonal is the full step's, bit for bit
        ax = gr.axis_straddling_zero(-12.0, 12.0, n)
        cut = int(np.count_nonzero(ax.points < 0.0))
        block = np.zeros((n, n), dtype=complex)
        rows = cut if d else 0
        gr._density_block(
            ge.make_gaussian_state(p0=-4.0, q0=3.0, sigma=0.8), ax, rows, cut,
            block[rows:, cut:],
        )
        par = PhysParams(D=d)
        full = np.diagonal(gr._propagate_density_split_raw(block.copy(), ax, 0.8, par))
        diag = gr._propagate_density_split_raw(block, ax, 0.8, par, diagonal=True)
        if d:
            assert np.array_equal(diag, full)
        else:
            assert np.abs(diag - full).max() <= 1e-13 * np.abs(full).max()

    @pytest.mark.parametrize("diagonal", [False, True])
    @pytest.mark.parametrize("bra_width", [1.0, 1.5], ids=["fits", "leaks"])
    def test_wrap_check_scans_past_the_diagonal(self, bra_width, diagonal):
        # |ket><bra| with the ket at x = 3 and the bra at x = -3 is near zero
        # on the diagonal, so the diagonal's peak does not clear the border
        # and the scan of the whole matrix decides: the border is 5e-6 against
        # a peak of 0.93 at bra width 1.0, and 3.0e-3 at 1.5
        ax = gr.Axis(-8.0, 8.0, 256)
        x = ax.points
        ket = np.exp(-0.5 * ((x - 3.0) / 0.5) ** 2)
        bra = np.exp(-0.5 * ((x + 3.0) / bra_width) ** 2)
        block = np.outer(ket, bra).astype(complex)
        try:
            gr._propagate_density_split_raw(block, ax, 0.1, PhysParams(D=0.01), diagonal=diagonal)
            raised = False
        except ValueError as err:
            assert "grid too small" in str(err)
            raised = True
        # the step works in place, so the block holds the result either way
        mag = np.abs(block)
        border = max(mag[:2].max(), mag[-2:].max(), mag[:, :2].max(), mag[:, -2:].max())
        assert border > 2e-3 * np.abs(np.diagonal(block)).max()
        assert raised == (border > 2e-3 * mag.max()) == (bra_width == 1.5)

    def test_rejects_arrays_it_cannot_transform_in_place(self):
        # scipy.fft copies these instead of overwriting them
        ax = gr.Axis(-1.0, 1.0, 8)
        unaligned = np.zeros(8 * 8 * 16 + 1, dtype=np.uint8)[1:].view(complex).reshape(8, 8)
        for bad in (np.ones((8, 8)), np.ones((8, 8), dtype=np.complex64), unaligned):
            with pytest.raises(TypeError, match="in place"):
                gr._propagate_density_split_raw(bad, ax, 0.5, PAR)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1])
    def test_non_finite_time_rejected(self, bad):
        with pytest.raises(ValueError, match="propagation time must be finite and non-negative"):
            gr._propagate_density_split_raw(np.ones((8, 8)), gr.Axis(-1.0, 1.0, 8), bad, PAR)

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
