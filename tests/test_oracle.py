import math
import re
import warnings

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, seed, settings, strategies as st
from scipy.fft import dst

from mirrorwave import oracle, waves
from mirrorwave.analysis import profile
from mirrorwave.oracle import (
    OracleConfig,
    OracleConfigError,
    _kernel,
    _panel_sum,
    _tail,
    compare,
    default_config,
    evolve_grid,
    evolve_quadrature,
)
from mirrorwave.physics import MirrorKind, MirrorLaw, PhysicalContext, Scenario
from mirrorwave.waves import stream_regions

from . import reference

CTX = PhysicalContext()
K1 = CTX.wavenumber(0.01)


def _gl_panels(w_len, n_panels):
    """The oracle's Gauss-Legendre nodes and weights on n_panels equal panels of [-W, 0]."""
    halfw = 0.5 * w_len / n_panels
    mid = -w_len + halfw * (2.0 * np.arange(n_panels) + 1.0)
    nodes = (mid[:, None] + halfw * oracle._GL_NODES[None, :]).ravel()
    return nodes, np.tile(halfw * oracle._GL_WEIGHTS, n_panels)


class TestConfigGuards:
    def test_shallow_domain_rejected_with_suggestion(self):
        s = Scenario(CTX, K1, MirrorLaw.moving(0.008), 2e-3)
        cfg = default_config(s)
        bad = replace(cfg, domain_length=3e-5)
        with pytest.raises(OracleConfigError, match="need domain_length >"):
            evolve_grid(s, bad)

    def test_guard_measures_depth_in_the_mirror_frame(self):
        # the box [-L, 0] is in the mirror frame, where the default window's
        # left edge lies |x_lo - v t| = 130 um deep, not |x_lo| = 50 um; a box
        # 1% past a guard on the lab-frame depth (259.6 um) returned
        # densities off by 3.8
        v_k, v, t = 0.01, 0.008, 10e-3
        s = Scenario(CTX, CTX.wavenumber(v_k), MirrorLaw.moving(v), t)
        cfg = default_config(s)
        x_lo = cfg.comparison_window[0]
        reach = (v_k + v) * t + 10.0 * np.sqrt(CTX.hbar * t / CTX.mass)
        lab_guard = abs(x_lo) + reach
        assert 1.01 * lab_guard == pytest.approx(259.6e-6, abs=0.05e-6)
        with pytest.raises(OracleConfigError, match=r"need domain_length > 0\.000337"):
            evolve_grid(s, replace(cfg, domain_length=1.01 * lab_guard))
        assert abs(x_lo - v * t) + reach < cfg.domain_length

    def test_coarse_step_rejected_with_suggestion(self):
        s = Scenario(CTX, K1, MirrorLaw.moving(0.008), 2e-3)
        cfg = default_config(s)
        bad = replace(cfg, time_step=1e-3)
        with pytest.raises(OracleConfigError, match="need time_step <"):
            evolve_grid(s, bad)

    def test_window_beyond_mirror_rejected(self):
        s = Scenario(CTX, K1, MirrorLaw.moving(0.008), 2e-3)
        with pytest.raises(OracleConfigError, match="beyond the mirror"):
            default_cfg = default_config(s)
            evolve_grid(s, replace(default_cfg, comparison_window=(-1e-5, 1e-3)))

    def test_window_beyond_static_wall_rejected(self):
        # the grid oracle would silently drop the window points beyond x = 0
        s = Scenario(CTX, K1, MirrorLaw.static(), 2e-3)
        cfg = replace(default_config(s), comparison_window=(-2e-5, 5e-6))
        with pytest.raises(OracleConfigError, match="beyond the mirror"):
            evolve_grid(s, cfg)

    @pytest.mark.parametrize("v", [-0.005, -0.006])
    def test_fast_approaching_mirror_has_no_default_window(self, v):
        # v <= -v_k/2 puts the mirror at or left of -v_k t/2, the default window's left edge
        s = Scenario(CTX, K1, MirrorLaw.moving(v), 5e-3)
        with pytest.raises(
            OracleConfigError, match=r"v <= -v_k/2.*comparison_window \(CLI: --window-lo"
        ):
            default_config(s)
        cfg = default_config(s, comparison_window=(-60e-6, v * 5e-3))
        assert cfg.comparison_window == (-60e-6, v * 5e-3)

    @pytest.mark.parametrize("law", [MirrorLaw.static(), MirrorLaw.moving(1e-63)])
    def test_underflowing_phase_budget_rejected(self, law):
        # v_k = 1e-62 m/s: omega ~ 7e-116 rad/s, so t * omega**3 underflows to 0
        s = Scenario(CTX, CTX.wavenumber(1e-62), law, 2e-3)
        with pytest.raises(OracleConfigError, match=r"t \* omega\*\*3 underflows to 0"):
            default_config(s)

    def test_sudden_removal_needs_quadrature(self):
        s = Scenario(CTX, K1, MirrorLaw.sudden_removal(), 2e-3)
        cfg = default_config(s)
        with pytest.raises(OracleConfigError, match="quadrature"):
            evolve_grid(s, cfg)

    def test_config_field_validation(self):
        with pytest.raises(ValueError, match="domain_length must be > 0"):
            OracleConfig(-1.0, 1024, 1e-8, 1e-4, (-1e-5, 1e-5))
        with pytest.raises(ValueError, match=r"grid_points must be >= 8 \(got 4\)"):
            OracleConfig(1e-4, 4, 1e-8, 1e-4, (-1e-5, 1e-5))
        with pytest.raises(ValueError, match="time_step must be > 0"):
            OracleConfig(1e-4, 1024, 0.0, 1e-4, (-1e-5, 1e-5))
        with pytest.raises(ValueError):
            OracleConfig(1e-4, 1024, 1e-8, 1e-4, (1e-5, -1e-5))
        with pytest.raises(ValueError, match="truncation_window must be >= 0"):
            OracleConfig(1e-4, 1024, 1e-8, -1e-6, (-1e-5, 1e-5))
        # a nan passes the "<= 0" and "< 0" tests, and inf the sign tests
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="domain_length must be > 0"):
                OracleConfig(bad, 1024, 1e-8, 1e-4, (-1e-5, 1e-5))
            with pytest.raises(ValueError, match="time_step must be > 0"):
                OracleConfig(1e-4, 1024, bad, 1e-4, (-1e-5, 1e-5))
            with pytest.raises(ValueError, match="truncation_window must be >= 0"):
                OracleConfig(1e-4, 1024, 1e-8, bad, (-1e-5, 1e-5))

    @pytest.mark.parametrize(
        "window",
        [(-np.inf, 0.0), (np.nan, 0.0), (-1e-5, np.inf)],
        ids=["lo-inf", "lo-nan", "hi-inf"],
    )
    def test_non_finite_window_rejected(self, window):
        # one rule for both, and default_config applies it before it sizes
        # the grid from x_lo
        with pytest.raises(ValueError, match="comparison_window must have finite ends"):
            OracleConfig(1e-4, 1024, 1e-8, 1e-4, window)
        laws = [
            MirrorLaw.moving(0.005),
            MirrorLaw.moving(-0.004),
            MirrorLaw.moving(0.013),
            MirrorLaw.static(),
            MirrorLaw.sudden_removal(),
        ]
        for law in laws:
            s = Scenario(CTX, K1, law, 5e-3)
            with pytest.raises(ValueError, match="comparison_window must have finite ends"):
                default_config(s, comparison_window=window)


class TestGridOracle:
    def test_static_wall_is_stationary(self):
        # the standing wave is an eigenstate: the grid evolution must hold
        # 4 sin^2(kx) on the window
        s = Scenario(CTX, K1, MirrorLaw.static(), 2e-3)
        prof = evolve_grid(s, default_config(s))
        target = 4 * np.sin(K1 * prof.xs) ** 2
        assert np.abs(prof.densities - target).max() <= 1e-3

    def test_window_between_grid_points_raises(self):
        # 7 interior points over a box of ~100 um miss a 1 um window
        s = Scenario(CTX, K1, MirrorLaw.static(), 2e-3)
        cfg = replace(default_config(s, comparison_window=(-1e-6, 0.0)), grid_points=8)
        with pytest.raises(OracleConfigError, match="fewer than 2 grid points"):
            evolve_grid(s, cfg)

    def test_zero_velocity_matches_static_bitwise(self):
        t = 2e-3
        s_static = Scenario(CTX, K1, MirrorLaw.static(), t)
        s_moving0 = Scenario(CTX, K1, MirrorLaw.moving(0.0), t)
        cfg = default_config(s_static)
        a = evolve_grid(s_static, cfg)
        b = evolve_grid(s_moving0, cfg)
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.densities, b.densities)

    def test_matches_moving_solution(self):
        # cheap version of the flagship validation (short time)
        t = 2e-3
        s = Scenario(CTX, K1, MirrorLaw.moving(0.008), t)
        cfg = default_config(s, comparison_window=(-20e-6, 0.008 * t))
        prof = evolve_grid(s, cfg)
        ana = profile(s, prof.xs)
        assert compare(prof, ana).max_abs_err <= 1e-3

    def test_convergence_under_refinement(self):
        # in the step-limited regime, halving dt (and doubling the grid)
        # must cut the error at least in half until the 1e-4 floor
        t = 2e-3
        s = Scenario(CTX, K1, MirrorLaw.moving(0.008), t)
        base = default_config(s, comparison_window=(-20e-6, 0.008 * t))
        omega = CTX.hbar * (K1 + CTX.wavenumber(0.008)) ** 2 / (2 * CTX.mass)
        cfg = replace(base, time_step=0.055 / omega)
        errs = []
        for _ in range(3):
            prof = evolve_grid(s, cfg)
            errs.append(compare(prof, profile(s, prof.xs)).max_abs_err)
            cfg = reference.refine(cfg)
        for coarse, fine in zip(errs, errs[1:]):
            if coarse > 1e-4:
                assert coarse / fine >= 2.0

    def test_norm_is_conserved(self):
        # the real-space norm of the evolved state is checked against the
        # initial state's after the inverse transform: a run whose norm
        # drifted past 1e-8 would raise OracleNumericalError instead of
        # returning
        s = Scenario(CTX, K1, MirrorLaw.moving(0.005), 1e-3)
        prof = evolve_grid(s, default_config(s))
        assert np.all(np.isfinite(prof.densities))

    def test_closed_form_power_matches_stepped_loop(self):
        s = Scenario(CTX, K1, MirrorLaw.moving(0.005), 1e-3)
        cfg = default_config(s)
        prof = evolve_grid(s, cfg)
        xs, dens = reference.evolve_grid_stepped(s, cfg)
        assert np.array_equal(prof.xs, xs)
        assert np.abs(prof.densities - dens).max() <= 1e-10

    def test_default_config_meets_bound_at_short_time(self):
        # 0.8 cm/s beam, mirror at 0.8 v_k, 2 ms: the Crank-Nicolson front
        # shed by the far edge must stay out of the default window
        vk = 0.008
        s = Scenario(CTX, CTX.wavenumber(vk), MirrorLaw.moving(0.8 * vk), 2e-3)
        prof = evolve_grid(s, default_config(s))
        assert compare(prof, profile(s, prof.xs)).max_abs_err <= 1e-3

    def test_default_length_rule(self):
        # N is the smallest 2**j or 3 * 2**j above the resolution floor
        # int(6 L k_occ / pi), and at least 1024, over the figure region
        rng = np.random.default_rng(2007)
        for _ in range(300):
            v_k = rng.uniform(0.001, 0.01)
            t = 10.0 ** rng.uniform(-3.0, -1.0)
            ratio = rng.uniform(-0.45, 1.5)
            v = 0.0 if rng.random() < 0.2 else ratio * v_k
            law = MirrorLaw.static() if v == 0.0 else MirrorLaw.moving(v)
            s = Scenario(CTX, CTX.wavenumber(v_k), law, t)
            cfg = default_config(s)
            spread = np.sqrt(CTX.hbar * t / CTX.mass)
            k_occ = s.k + abs(CTX.wavenumber(v)) + 10.0 / spread
            floor = int(cfg.domain_length * 6.0 * k_occ / np.pi)
            n = cfg.grid_points
            odd = n // 3 if n % 3 == 0 else n
            assert odd & (odd - 1) == 0, (n, v_k, v, t)
            assert n >= 1024 and n > floor, (n, floor)
            assert n <= 1.5 * (floor + 1), (n, floor)

    @pytest.mark.parametrize("box", ["guard", "default", "double"])
    def test_taper_sits_past_the_window_support(self, monkeypatch, box):
        # the taper's midpoint D comes from the scenario and the window, not
        # from L: a box just past the guard, the default box and one twice as
        # long all leave the initial state untouched (taper exactly 1) on the
        # window's domain of dependence, and wherever the box reaches depth D
        # the taper there is 1/2; the untapered state is the table-built one
        v_k, v, t = 0.01, 0.003, 4e-3
        s = Scenario(CTX, CTX.wavenumber(v_k), MirrorLaw.moving(v), t)
        cfg = default_config(s)
        spread = np.sqrt(CTX.hbar * t / CTX.mass)
        y_lo = cfg.comparison_window[0] - v * t
        # the guard's domain of dependence, and the taper's midpoint D
        support = abs(y_lo) + (v_k + v) * t + 10.0 * spread
        depth = abs(y_lo) + (v_k + v) * t + 40.0 * spread
        big_l = {"guard": 1.01 * support, "default": cfg.domain_length,
                 "double": 2.0 * cfg.domain_length}[box]
        cfg = replace(cfg, domain_length=big_l)
        states = []

        def spy(a, **kw):
            states.append(a.copy())
            return dst(a, **kw)

        monkeypatch.setattr(oracle, "dst", spy)
        evolve_grid(s, cfg)
        (psi0,) = states
        n = cfg.grid_points
        half_periods = math.ceil(big_l * s.k / np.pi)
        box_l = half_periods * np.pi / s.k
        y = -box_l + (box_l / n) * np.arange(1, n)
        wave = oracle._table_state(n, half_periods, s.k, CTX.wavenumber(v), box_l)
        inside = -y <= support
        assert inside.sum() > 100
        assert np.array_equal(psi0[inside], wave[inside])
        lit = np.abs(np.sin(s.k * y)) > 0.5
        taper = np.abs(psi0[lit] / wave[lit])
        assert np.all(taper <= 1.0)
        if box_l > depth:
            assert np.interp(-depth, y[lit], taper) == pytest.approx(0.5, abs=0.05)
        else:
            assert box == "guard" and taper.min() > 0.5

    @pytest.mark.parametrize(
        "key, ratios",
        [(0, None), (1, (0.1, 0.9)), (2, (1.1, 1.5)), (3, (-0.45, -0.05))],
        ids=["static", "slow", "fast", "approaching"],
    )
    def test_tapered_box_no_worse_than_untapered(self, monkeypatch, key, ratios):
        # six seeded draws per mirror kind over the figure region (v_k
        # 0.1-1 cm/s, t 1-50 ms): the tapered default box never takes more
        # grid intervals than the rule before the taper
        # (``reference.untapered_config``, run with the taper's depth set to
        # inf, where 0.5 erfc(-inf) is exactly 1), its error is at most 1.05
        # times that rule's, and it meets the c06 bound.
        # Static-wall errors sit near round-off, at 1e-13-1e-11, so the ratio
        # is taken above a floor of 1e-12 (one draw reads 1.87e-13 against
        # 1.70e-13).  Draws whose old grid is above 2**18 intervals are
        # redrawn, to bound the run time
        rng = np.random.default_rng([2030, key])
        draws = 0
        while draws < 6:
            v_k = rng.uniform(0.001, 0.01)
            t = 10.0 ** rng.uniform(-3.0, np.log10(0.05))
            if ratios is None:
                law = MirrorLaw.static()
            else:
                law = MirrorLaw.moving(rng.uniform(*ratios) * v_k)
            s = Scenario(CTX, CTX.wavenumber(v_k), law, t)
            old = reference.untapered_config(s)
            if old.grid_points > 1 << 18:
                continue
            draws += 1
            new = default_config(s)
            assert new.grid_points <= old.grid_points, (v_k, t, law)
            prof = evolve_grid(s, new)
            err = compare(prof, profile(s, prof.xs)).max_abs_err
            with monkeypatch.context() as m:
                m.setattr(oracle, "_taper_depth", lambda *args: math.inf)
                prof = evolve_grid(s, old)
            err_old = compare(prof, profile(s, prof.xs)).max_abs_err
            assert err <= max(1.05 * err_old, 1e-12), (v_k, t, law, err, err_old)
            assert err <= 1e-3, (v_k, t, law)

    @pytest.mark.parametrize(
        "law, t, window",
        [
            (MirrorLaw.moving(0.005), 5e-3, None),
            (MirrorLaw.moving(-0.004), 6e-3, None),
            (MirrorLaw.moving(0.013), 5e-3, None),
            (MirrorLaw.static(), 6e-3, None),
            (MirrorLaw.moving(0.008), 10e-3, (-50e-6, 0.008 * 10e-3)),
        ],
        ids=["receding", "approaching", "fast", "static", "c06"],
    )
    def test_default_grid_resolves_window(self, law, t, window):
        # doubling the default N moves no window density by more than 1e-5
        # (3.3e-6 at most on these cases); the fine grid holds every coarse
        # grid point exactly, since dy halves exactly
        s = Scenario(CTX, K1, law, t)
        cfg = default_config(s, comparison_window=window)
        coarse = evolve_grid(s, cfg)
        fine = evolve_grid(s, replace(cfg, grid_points=2 * cfg.grid_points))
        idx = np.searchsorted(fine.xs, coarse.xs)
        assert np.array_equal(fine.xs[idx], coarse.xs)
        assert np.abs(fine.densities[idx] - coarse.densities).max() <= 1e-5

    @pytest.mark.parametrize(
        "law, t, window",
        [(MirrorLaw.moving(0.008), 10e-3, (-50e-6, 0.008 * 10e-3)), (MirrorLaw.static(), 6e-3, None)],
        ids=["c06", "static"],
    )
    def test_table_state_matches_the_plane_state(self, law, t, window):
        # the table-built initial state against 2i sin(k y) e^{-i beta y} on
        # the default box, in 30 digits on every 64th point and as the float64
        # direct formula on all of them.  Each carries the rounding of phases
        # up to (k + |beta|) L ~ 1e4 rad, which no float64 route avoids (the
        # direct formula is itself 3.8e-12 off the 30 digits on c06): 4.5e-12
        # and 8.3e-12 on c06, 2.0e-12 and 3.8e-12 on the static box
        s = Scenario(CTX, K1, law, t)
        cfg = default_config(s, comparison_window=window)
        beta = CTX.wavenumber(s.mirror_velocity) if law.kind is MirrorKind.MOVING else 0.0
        half_periods = math.ceil(cfg.domain_length * s.k / np.pi)
        big_l = half_periods * np.pi / s.k
        n = cfg.grid_points
        state = oracle._table_state(n, half_periods, s.k, beta, big_l)
        assert state.shape == (n - 1,)
        phase_eps = np.finfo(float).eps * (s.k + abs(beta)) * big_l
        j = np.arange(1, n, 64)
        want = [reference.plane_state_ref(int(i), n, s.k, beta, big_l) for i in j]
        assert np.abs(state[j - 1] - want).max() <= 2.0 * phase_eps
        y = -big_l + (big_l / n) * np.arange(1, n)
        direct = 2j * np.sin(s.k * y) * np.exp(-1j * beta * y)
        assert np.abs(state - direct).max() <= 4.0 * phase_eps

    @pytest.mark.parametrize("n", [oracle._MAX_GRID_POINTS + 1, 1 << 40])
    def test_oversized_grid_rejected_before_allocation(self, monkeypatch, n):
        s = Scenario(CTX, K1, MirrorLaw.static(), 2e-3)
        cfg = replace(default_config(s), grid_points=n)

        def spy(*args):
            raise AssertionError("_table_state ran")

        monkeypatch.setattr(oracle, "_table_state", spy)
        with pytest.raises(OracleConfigError, match=f"N = {n} is more than "):
            evolve_grid(s, cfg)

    @seed(20071)
    @settings(max_examples=24, deadline=None, database=None)
    @given(
        v_k=st.sampled_from([0.005, 0.01]),
        ratio=st.floats(min_value=0.2, max_value=1.5),
        t=st.floats(min_value=1e-3, max_value=20e-3),
    )
    def test_sweep_matches_closed_form(self, v_k, ratio, t):
        # default-config grid runs against the closed form over the swept
        # (v_k, v/v_k, t) region, at the c06 bound; a 60-case scan of the
        # region found at most 1.8e-4 (1.75e-4 with the tapered box).  The
        # default grid takes at most 3 * 2**17 intervals here (v_k = 1 cm/s,
        # v/v_k = 1.5, t = 20 ms)
        s = Scenario(CTX, CTX.wavenumber(v_k), MirrorLaw.moving(ratio * v_k), t)
        cfg = default_config(s)
        prof = evolve_grid(s, cfg)
        assert compare(prof, profile(s, prof.xs)).max_abs_err <= 1e-3


class TestQuadratureOracle:
    def test_sudden_matches_analytic(self):
        t = 10e-3
        vk = CTX.velocity(K1)
        s = Scenario(CTX, K1, MirrorLaw.sudden_removal(), t)
        xs = np.linspace(-vk * t, vk * t, 161)
        res = evolve_quadrature(s, default_config(s), xs, tolerance=1e-4)
        assert not res.flagged
        ana = profile(s, xs)
        assert compare(res.profile, ana).max_abs_err <= 1e-4

    def test_moving_wall_matches_analytic(self):
        t = 5e-3
        s = Scenario(CTX, K1, MirrorLaw.moving(0.005), t)
        xs = np.linspace(-0.5 * CTX.velocity(K1) * t, 0.005 * t, 121)
        res = evolve_quadrature(s, default_config(s), xs, tolerance=1e-4)
        assert not res.flagged
        ana = profile(s, xs)
        assert compare(res.profile, ana).max_abs_err <= 1e-4

    def test_truncation_estimate_is_conservative(self):
        t = 10e-3
        vk = CTX.velocity(K1)
        s = Scenario(CTX, K1, MirrorLaw.sudden_removal(), t)
        xs = np.linspace(-vk * t, vk * t, 161)
        res = evolve_quadrature(s, default_config(s), xs)
        ana = profile(s, xs)
        actual = np.abs(res.profile.densities - ana.densities)
        assert np.all(actual <= res.truncation_estimate)

    def test_zero_support_is_the_exact_tail(self):
        # W = 0 leaves no panel sum: the tail completion from b = 0 is the
        # whole integral and still matches the closed form within its estimate
        t = 10e-3
        laws = (
            MirrorLaw.moving(0.005),
            MirrorLaw.moving(-0.004),
            MirrorLaw.static(),
            MirrorLaw.sudden_removal(),
        )
        for law in laws:
            s = Scenario(CTX, K1, law, t)
            cfg = replace(default_config(s), truncation_window=0.0)
            xs = np.linspace(*cfg.comparison_window, 41)
            res = evolve_quadrature(s, cfg, xs, tolerance=1e-4)
            err = np.abs(res.profile.densities - profile(s, xs).densities)
            assert np.all(err <= res.truncation_estimate), law
            assert not res.flagged, law

    @staticmethod
    def _panel_and_direct_sums(law, n_panels, default_width=False):
        """``_panel_sum`` and the direct node sum on the reference propagators,
        at 41 points of a 5 ms scenario.  The support is the default W, cut
        into ``n_panels`` panels, or with ``default_width`` that many panels
        of the width ``evolve_quadrature`` takes on the default W."""
        t = 5e-3
        s = Scenario(CTX, K1, law, t)
        w_len = default_config(s).truncation_window
        x_hi = s.mirror_position if law.kind is MirrorKind.MOVING else 0.005 * t
        xs = np.linspace(-0.5 * CTX.velocity(K1) * t, x_hi, 41)
        v = law.velocity if law.kind is MirrorKind.MOVING else 0.0
        if default_width:
            alpha = CTX.mass / (2.0 * CTX.hbar * t)
            dphi_max = 2.0 * alpha * (np.abs(xs).max() + abs(v) * t + w_len) + K1 + abs(
                CTX.wavenumber(v)
            )
            w_len *= n_panels / math.ceil(w_len * dphi_max / (4.0 * np.pi))
        nodes, weights = _gl_panels(w_len, n_panels)
        if law.kind is MirrorKind.MOVING:
            kern = reference.propagator_moving_wall(
                xs[:, None], t, nodes[None, :], 0.0, law.velocity, CTX
            )
        else:
            kern = reference.propagator_free(xs[:, None], t, nodes[None, :], 0.0, CTX)
        want = kern @ (weights * 2j * np.sin(K1 * nodes))
        # the panel sum keeps only the modulus of the row factor; restore
        # the unimodular rest, e^{-i pi/4} times the boost and the chirp
        factored = _kernel(s, xs)
        row_phase = (
            np.exp(-0.25j * np.pi) * waves._boost(xs, t, v, CTX) * waves._chirp(factored.z, t, CTX)
        )
        return _panel_sum(factored, w_len, n_panels) * row_phase, want

    @pytest.mark.parametrize(
        "law",
        [MirrorLaw.moving(0.005), MirrorLaw.moving(-0.004), MirrorLaw.sudden_removal()],
        ids=["receding", "approaching", "sudden"],
    )
    def test_factored_kernel_matches_unfactored(self, law):
        # 2500 panels = 156 groups of 16 and a partial group of 4
        got, want = self._panel_and_direct_sums(law, 2500)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n_panels", [1, 7, 8, 9, 15, 16, 17, 33])
    @pytest.mark.parametrize(
        "law", [MirrorLaw.moving(0.005), MirrorLaw.sudden_removal()], ids=["receding", "sudden"]
    )
    def test_partial_last_group_matches_direct_sum(self, law, n_panels):
        # the panel sum pairs the offsets +-o about each group's centre, so
        # the last group's missing panels are zeroed on both sides of it:
        # panels 8-15 right of the centre, 7-0 left of it; these counts
        # leave 1, 7, 8, 9, 15, 16 and 1 panels in the last group.  The
        # panels have the width evolve_quadrature takes (4 pi of phase at
        # most): cut from the whole default W, each would span up to 1e4
        # times that, where even a per-node phase rounds past 1e-12
        got, want = self._panel_and_direct_sums(law, n_panels, default_width=True)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_blocked_panel_sum_matches_single_block(self, monkeypatch):
        # 41 rows x 250 panels (15 groups of 16 and a partial group of 10)
        # fit one default block; buffers of 1536 doubles hold 3 rows x 3
        # groups, which leaves ragged last blocks in both directions (41
        # rows = 13 x 3 + 2, 16 groups = 5 x 3 + 1)
        t = 5e-3
        s = Scenario(CTX, K1, MirrorLaw.moving(0.005), t)
        w_len = default_config(s).truncation_window
        xs = np.linspace(-0.5 * CTX.velocity(K1) * t, s.mirror_position, 41)
        whole = _panel_sum(_kernel(s, xs), w_len, 250)
        monkeypatch.setattr(oracle, "_BLOCK_SIZE", 1536)
        blocked = _panel_sum(_kernel(s, xs), w_len, 250)
        assert np.abs(blocked - whole).max() <= 1e-13 * np.abs(whole).max()

    @pytest.mark.parametrize(
        "law",
        [
            MirrorLaw.moving(0.005),
            MirrorLaw.moving(-0.004),
            MirrorLaw.moving(0.013),
            MirrorLaw.static(),
            MirrorLaw.sudden_removal(),
        ],
        ids=["receding", "approaching", "fast", "static", "sudden"],
    )
    def test_matches_closed_form_to_roundoff(self, law):
        # default-config cases, 301 points: the node phases reach ~1e4 rad,
        # and assembling them by angle addition keeps the density within
        # round-off of the closed form
        t = 5e-3
        s = Scenario(CTX, K1, law, t)
        cfg = default_config(s)
        xs = np.linspace(*cfg.comparison_window, 301)
        res = evolve_quadrature(s, cfg, xs)
        assert np.abs(res.profile.densities - profile(s, xs).densities).max() <= 3e-12

    def test_tail_matches_multiprecision(self):
        # X = sqrt(alpha) (b + kappa / (2 alpha)) from -100 to +100 through
        # 0: the stationary point -kappa / (2 alpha) right of b (X < 0), on
        # it and inside the tail (X > 0), where w is taken below the real axis
        alpha, b = 1.0, -10.0
        big_x = np.concatenate(
            [-np.geomspace(100.0, 1e-3, 40), [0.0], np.geomspace(1e-3, 100.0, 40)]
        )
        kappa = 2.0 * alpha * (big_x / np.sqrt(alpha) - b)
        val, rel = _tail(alpha, kappa, b)
        eps = np.finfo(float).eps
        bound = 4.0 * eps * (1.0 + np.abs(alpha * b * b + kappa * b) + big_x * big_x)
        assert rel == pytest.approx(bound, rel=1e-12)
        for got, kap, r in zip(val.tolist(), kappa.tolist(), bound.tolist()):
            want = reference.half_line_fresnel_ref(alpha, kap, b)
            assert abs(got - want) <= r * abs(want)

    def test_nan_estimate_flags(self, monkeypatch):
        # a NaN rounding bound fails every comparison with the tolerance, so
        # it must flag the result rather than pass it
        s = Scenario(CTX, K1, MirrorLaw.static(), 2e-3)
        cfg = default_config(s)
        xs = np.linspace(*cfg.comparison_window, 5)

        def nan_bound(alpha, kappa, b):
            val, rel = _tail(alpha, kappa, b)
            return val, np.full_like(rel, np.nan)

        monkeypatch.setattr(oracle, "_tail", nan_bound)
        res = evolve_quadrature(s, cfg, xs, tolerance=1e-3)
        assert np.all(np.isnan(res.truncation_estimate))
        assert res.flagged
        assert not evolve_quadrature(s, cfg, xs).flagged

    def test_image_tails_completed(self):
        # 1 cm/s beam, 0.8 cm/s mirror, 10 ms, W = 120 um: the image terms'
        # tails are completed, and the estimate stays finite and conservative
        t = 10e-3
        s = Scenario(CTX, K1, MirrorLaw.moving(0.008), t)
        cfg = replace(default_config(s), truncation_window=120e-6)
        xs = np.array([20e-6, 50e-6, 70e-6])
        res = evolve_quadrature(s, cfg, xs)
        err = np.abs(res.profile.densities - profile(s, xs).densities)
        assert np.all(np.isfinite(res.truncation_estimate))
        assert np.all(err <= res.truncation_estimate)

    @seed(20072)
    @settings(max_examples=120, deadline=None, database=None)
    @given(
        v_k=st.sampled_from([0.005, 0.01]),
        law=st.sampled_from(["receding", "fast", "approaching", "static", "sudden"]),
        t=st.floats(min_value=1e-3, max_value=20e-3),
        w_frac=st.floats(min_value=0.005, max_value=1.0),
    )
    def test_sweep_short_support(self, v_k, law, t, w_frac):
        # the tail beyond -W is completed exactly, so a support cut down to
        # 0.5% of the default one still matches the closed form, and the
        # rounding estimate bounds the error at every point
        mirror = {
            "receding": MirrorLaw.moving(0.8 * v_k),
            "fast": MirrorLaw.moving(1.5 * v_k),
            "approaching": MirrorLaw.moving(-0.4 * v_k),
            "static": MirrorLaw.static(),
            "sudden": MirrorLaw.sudden_removal(),
        }[law]
        s = Scenario(CTX, CTX.wavenumber(v_k), mirror, t)
        cfg = default_config(s)
        cfg = replace(cfg, truncation_window=w_frac * cfg.truncation_window)
        xs = np.linspace(*cfg.comparison_window, 41)
        res = evolve_quadrature(s, cfg, xs, tolerance=1e-4)
        err = np.abs(res.profile.densities - profile(s, xs).densities)
        assert np.all(err <= res.truncation_estimate)
        assert not res.flagged
        assert err.max() <= 1e-4

    @seed(20073)
    @settings(max_examples=40, deadline=None, database=None)
    @given(
        v_k=st.sampled_from([0.005, 0.01]),
        law=st.one_of(
            st.floats(min_value=-0.45, max_value=3.0), st.sampled_from(["static", "sudden"])
        ),
        t=st.floats(min_value=1e-3, max_value=20e-3),
    )
    def test_sweep_default_config(self, v_k, law, t):
        # default-config runs over a continuous v/v_k in [-0.45, 3], the
        # static wall and sudden removal, at the c06 bound; v <= -v_k/2 has
        # no default comparison window, so the sweep stops short of it
        if law == "static":
            mirror = MirrorLaw.static()
        elif law == "sudden":
            mirror = MirrorLaw.sudden_removal()
        else:
            mirror = MirrorLaw.moving(law * v_k)
        s = Scenario(CTX, CTX.wavenumber(v_k), mirror, t)
        cfg = default_config(s)
        xs = np.linspace(*cfg.comparison_window, 41)
        res = evolve_quadrature(s, cfg, xs, tolerance=1e-4)
        err = np.abs(res.profile.densities - profile(s, xs).densities)
        assert np.all(err <= res.truncation_estimate)
        assert not res.flagged
        assert err.max() <= 1e-4

    @pytest.mark.parametrize(
        "law",
        [
            MirrorLaw.moving(0.005),
            MirrorLaw.moving(-0.004),
            MirrorLaw.moving(0.013),
            MirrorLaw.static(),
            MirrorLaw.sudden_removal(),
        ],
        ids=["receding", "approaching", "fast", "static", "sudden"],
    )
    def test_panel_budget_converged(self, law, monkeypatch):
        # evolve_quadrature takes panels of 4 pi of phase at the largest
        # phase rate 2 alpha (max|x| + |v| t + W) + k + |beta|, and that
        # count agrees with twice as many panels to round-off
        t = 5e-3
        s = Scenario(CTX, K1, law, t)
        cfg = default_config(s)
        xs = np.linspace(*cfg.comparison_window, 301)
        calls = []

        def spy(kern, w_len, n_panels):
            calls.append((kern, w_len, n_panels))
            return _panel_sum(kern, w_len, n_panels)

        monkeypatch.setattr(oracle, "_panel_sum", spy)
        evolve_quadrature(s, cfg, xs)
        (kern, w_len, n_panels), = calls
        v = law.velocity if law.kind is MirrorKind.MOVING else 0.0
        alpha = CTX.mass / (2.0 * CTX.hbar * t)
        dphi_max = (
            2.0 * alpha * (np.abs(xs).max() + abs(v) * t + w_len)
            + K1
            + abs(CTX.wavenumber(v))
        )
        assert w_len == cfg.truncation_window
        assert n_panels == math.ceil(w_len * dphi_max / (4.0 * np.pi))
        coarse = _panel_sum(kern, w_len, n_panels)
        fine = _panel_sum(kern, w_len, 2 * n_panels)
        assert np.abs(coarse - fine).max() <= 1e-11 * np.abs(coarse).max()

    def test_rule_integrates_a_panel_of_4pi(self):
        # one panel [-1, 1] over which the phase a s + phi turns by up to
        # 4 pi: the rule matches the exact integral 2 cos(phi) sin(a) / a
        # to 1e-15 of the panel mass 2 (6.1e-16 at most on these cases)
        for a in np.linspace(0.25, 2.0, 8) * np.pi:
            for phi in np.linspace(0.0, 2.0 * np.pi, 13):
                got = oracle._GL_WEIGHTS @ np.cos(a * oracle._GL_NODES + phi)
                want = 2.0 * math.cos(phi) * math.sin(a) / a
                assert abs(got - want) <= 1e-15 * 2.0, (a, phi)

    @pytest.mark.parametrize(
        "xs, match",
        [
            ([np.nan], "finite"),
            ([-np.inf, -1e-6], "finite"),
            ([-1e-6, -2e-6, -3e-6], "strictly increasing"),
            ([-2e-6, -1e-6, -1e-6], "strictly increasing"),
            ([[-2e-6, -1e-6], [-1e-6, 0.0]], "1-D"),
        ],
        ids=["nan", "-inf", "unsorted", "repeated", "2-D"],
    )
    def test_bad_grid_rejected_before_panel_sum(self, monkeypatch, xs, match):
        # the grid check of analysis.profile and DensityProfile runs first:
        # no numpy warning and no panel sum before the ValueError
        s = Scenario(CTX, K1, MirrorLaw.static(), 2e-3)
        cfg = default_config(s)

        def spy(*args):
            raise AssertionError("_panel_sum ran")

        monkeypatch.setattr(oracle, "_panel_sum", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                evolve_quadrature(s, cfg, np.array(xs))

    @pytest.mark.parametrize("w_len", [1.0, 1e200])
    def test_oversized_support_rejected_before_panel_sum(self, monkeypatch, w_len):
        # W = 1 m would need ~5.5e10 panels, and W = 1e200 m an infinite count
        s = Scenario(CTX, K1, MirrorLaw.static(), 2e-3)
        cfg = replace(default_config(s), truncation_window=w_len)

        def spy(*args):
            raise AssertionError("_panel_sum ran")

        monkeypatch.setattr(oracle, "_panel_sum", spy)
        with pytest.raises(OracleConfigError, match=re.escape(f"W = {w_len:.6g} m needs ")):
            evolve_quadrature(s, cfg, np.linspace(-1e-5, 0.0, 3))

    def test_empty_grid_rejected(self):
        s = Scenario(CTX, K1, MirrorLaw.static(), 2e-3)
        with pytest.raises(OracleConfigError, match="evaluation grid xs is empty"):
            evolve_quadrature(s, default_config(s), np.array([]))

    def test_points_beyond_mirror_rejected(self):
        t = 5e-3
        s = Scenario(CTX, K1, MirrorLaw.moving(0.005), t)
        with pytest.raises(OracleConfigError):
            evolve_quadrature(s, default_config(s), np.array([0.005 * t + 1e-5]))

    def test_points_beyond_static_mirror_rejected(self):
        # the static wall stands at x = 0, where the default window ends
        s = Scenario(CTX, K1, MirrorLaw.static(), 2e-3)
        cfg = default_config(s)
        for x in (1e-6, 5e-6):
            with pytest.raises(OracleConfigError, match="beyond the mirror"):
                evolve_quadrature(s, cfg, np.array([x]))
        res = evolve_quadrature(s, cfg, np.array([-1e-6, 0.0]))
        assert res.profile.densities[1] == pytest.approx(0.0, abs=1e-9)


class TestCompare:
    def _profile(self, dens):
        s = Scenario(CTX, K1, MirrorLaw.sudden_removal(), 1e-3)
        xs = np.linspace(-1e-5, 1e-5, len(dens))
        from mirrorwave.analysis import DensityProfile

        return DensityProfile(s, xs, np.asarray(dens, float))

    def test_identical_profiles(self):
        p = self._profile(np.ones(50))
        rep = compare(p, p)
        assert rep.max_abs_err == 0.0 and rep.rms_err == 0.0

    def test_single_point_perturbation(self):
        d = np.ones(50)
        a = self._profile(d)
        d2 = d.copy()
        d2[17] += 1e-3
        b = self._profile(d2)
        assert compare(a, b).max_abs_err == pytest.approx(1e-3, rel=1e-12)

    def test_grid_mismatch_rejected(self):
        a = self._profile(np.ones(50))
        b = self._profile(np.ones(51))
        with pytest.raises(ValueError):
            compare(a, b)

    def test_region_breakdown_present(self):
        t = 10e-3
        s = Scenario(CTX, K1, MirrorLaw.moving(0.008), t)
        xs = np.linspace(-150e-6, 80e-6, 400)
        from mirrorwave.analysis import DensityProfile

        a = DensityProfile(s, xs, np.ones(400))
        b = DensityProfile(s, xs, np.ones(400) * 1.001)
        rep = compare(a, b)
        # window spans x_minus, x_plus and the mirror: four regions
        assert len(rep.regions) == 4
        assert "per-region breakdown" in rep.report

    def test_region_fields_match_masks(self):
        # points exactly on x_plus and on the mirror count to their right, and
        # no point lies in [x_minus, x_plus), so that region is left out
        t = 10e-3
        s = Scenario(CTX, K1, MirrorLaw.moving(0.008), t)
        x_minus, x_plus, x_mirror = stream_regions(s)[0]
        xs = np.concatenate(
            [
                np.linspace(x_minus - 30e-6, np.nextafter(x_minus, -np.inf), 9),
                [x_plus],
                np.linspace(x_plus + 1e-6, x_mirror, 6),
                np.linspace(x_mirror + 1e-6, x_mirror + 5e-6, 3),
            ]
        )
        from mirrorwave.analysis import DensityProfile

        rng = np.random.default_rng(3)
        a = DensityProfile(s, xs, rng.random(xs.size))
        b = DensityProfile(s, xs, rng.random(xs.size))
        err = np.abs(a.densities - b.densities)
        bounds = [-np.inf, x_minus, x_plus, x_mirror, np.inf]
        expected = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            sel = (xs >= lo) & (xs < hi)
            if sel.any():
                expected.append(
                    (lo, xs[sel][0], xs[sel][-1], sel.sum(), err[sel].max(),
                     np.sqrt(np.mean(err[sel] ** 2)))
                )
        regions = compare(a, b).regions
        assert [e[0] for e in expected] == [-np.inf, x_plus, x_mirror]
        assert [r.label for r in regions] == [
            f"[{lo:.4g}, {hi:.4g})" for lo, hi in [(-np.inf, x_minus), (x_plus, x_mirror),
                                                   (x_mirror, np.inf)]
        ]
        got = [(r.x_lo, r.x_hi, r.n_points, r.max_abs_err, r.rms_err) for r in regions]
        assert got == [e[1:] for e in expected]
        assert [r.n_points for r in regions] == [9, 6, 4]
        assert (regions[1].x_lo, regions[2].x_lo) == (x_plus, x_mirror)

    def test_fast_mirror_splits_at_front(self):
        # v > v_k: the region edges are -v_k t and the front v_k t; x_plus
        # = 2 v_k t lies past the wall and bounds nothing
        t = 10e-3
        s = Scenario(CTX, K1, MirrorLaw.moving(1.5 * CTX.velocity(K1)), t)
        xs = np.linspace(-1.5 * s.front, s.mirror_position, 400)
        from mirrorwave.analysis import DensityProfile

        a = DensityProfile(s, xs, np.ones(400))
        rep = compare(a, a)
        f = f"{s.front:.4g}"
        assert [r.label for r in rep.regions] == [f"[-inf, -{f})", f"[-{f}, {f})", f"[{f}, inf)"]
        assert rep.regions[-1].x_lo >= s.front > rep.regions[-2].x_hi
