import multiprocessing
import os
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mirrorwave import analysis
from mirrorwave.analysis import (
    AnalysisError,
    DensityProfile,
    ENHANCED_PEAK,
    ORDINARY_PEAK,
    cornu_theta,
    enhancement_scan,
    fringe_scale,
    fringe_width_scaling,
    main_fringe,
    profile,
    universal_enhanced,
    universal_ordinary,
)
from mirrorwave.physics import MirrorLaw, PhysicalContext, Scenario
from mirrorwave.waves import moshinsky_m, psi_near_limit, psi_sudden

from .reference import bits, profile_serial

CTX = PhysicalContext()
K1 = CTX.wavenumber(0.01)

#: refined stationary points of the two universal curves (multiprecision)
THETA_ENHANCED_PEAK = 1.2093781287830067
THETA_ORDINARY_PEAK = 1.2171982507443151


def unit_scenario(k=4 * np.pi):
    # hbar = mass = 1, t = 1: front v_k t lands on x = k
    ctx = PhysicalContext(hbar=1.0, mass=1.0, species_label="unit")
    return Scenario(ctx, k, MirrorLaw.sudden_removal(), 1.0)


class TestDensityProfile:
    def test_validation(self):
        s = Scenario(CTX, K1, MirrorLaw.sudden_removal(), 1e-3)
        with pytest.raises(ValueError):
            DensityProfile(s, np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            DensityProfile(s, np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            DensityProfile(s, np.array([0.0, 1.0]), np.array([1.0, -0.5]))
        with pytest.raises(ValueError, match="nonnegative"):
            DensityProfile(s, np.array([0.0, 1.0]), np.array([np.nan, 1.0]))
        static = Scenario(CTX, K1, MirrorLaw.static(), 0.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            profile(static, [-2e-6, np.nan, -1e-6])
        with pytest.raises(ValueError, match="xs must be finite"):
            DensityProfile(s, np.array([0.0, np.inf]), np.array([1.0, 1.0]))
        for xs in ([-1e-6, np.inf], [-np.inf, -1e-6]):
            with pytest.raises(ValueError, match="xs must be finite"):
                profile(static, xs)
        for xs in (1e-6, np.zeros((2, 2))):
            with pytest.raises(ValueError, match="matching 1-D arrays"):
                profile(s, xs)

    def test_empty_grid_rejected(self):
        s = Scenario(CTX, K1, MirrorLaw.sudden_removal(), 1e-3)
        with pytest.raises(ValueError, match="profile grid must be non-empty"):
            profile(s, [])

    def test_grid_checked_before_evaluation(self, monkeypatch):
        # a bad grid raises its ValueError before any wavefunction runs and
        # without a numpy warning
        def spy(*args):
            raise AssertionError("wavefunction ran")

        monkeypatch.setattr(analysis, "_psi", spy)
        static = Scenario(CTX, K1, MirrorLaw.static(), 0.0)
        bad = {
            "xs must be finite": ([-1e-6, np.inf], [-np.inf, -1e-6]),
            "strictly increasing": ([np.inf, np.inf], [-2e-6, np.nan, -1e-6]),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for message, grids in bad.items():
                for xs in grids:
                    with pytest.raises(ValueError, match=message):
                        profile(static, xs)

    def test_profile_static(self):
        s = Scenario(CTX, K1, MirrorLaw.static(), 0.0)
        xs = np.array([-np.pi / (2 * K1), -1e-7, 0.0, 1e-6])
        p = profile(s, xs)
        assert p.densities[0] == pytest.approx(4.0, rel=1e-12)
        assert p.densities[2] == 0.0 and p.densities[3] == 0.0

    def test_profile_forbidden_region_zero(self):
        v, t = 0.008, 10e-3
        s = Scenario(CTX, K1, MirrorLaw.moving(v), t)
        xs = np.linspace(v * t + 1e-6, v * t + 2e-5, 11)
        assert np.all(profile(s, xs).densities == 0.0)

    def test_far_left_standing_wave(self):
        v, t = 0.015, 5e-3
        s = Scenario(CTX, K1, MirrorLaw.moving(v), t)
        xs = np.linspace(-320e-6, -260e-6, 400)
        p = profile(s, xs)
        assert np.abs(p.densities - 4 * np.sin(K1 * xs) ** 2).max() < 0.06


def _block_scenario(law):
    return Scenario(CTX, K1, law, 10e-3)


def _block_grid(n):
    # across the front and the mirror of every law below (v_k t = 1e-4 m)
    return np.linspace(-1.5e-4, 1.2e-4, n)


BLOCK_LAWS = {
    "sudden": MirrorLaw.sudden_removal(),
    "slow": MirrorLaw.moving(0.005),
    "fast": MirrorLaw.moving(0.013),
    "static": MirrorLaw.static(),
}
B = analysis._BLOCK


class TestBlockThreads:
    """``profile`` spreads its blocks over the process's usable CPUs; its
    densities are those of a serial loop over the blocks, bit for bit.  CI
    also runs this class on one CPU, where the blocks run on the caller."""

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 17])
    @pytest.mark.parametrize("law", BLOCK_LAWS, ids=str)
    def test_bitwise_equal_to_serial_blocks(self, law, n):
        s = _block_scenario(BLOCK_LAWS[law])
        xs = _block_grid(n)
        assert np.array_equal(bits(profile(s, xs).densities), bits(profile_serial(s, xs)))

    def test_last_block_error_raises_serial_message(self):
        # k x overflows only at the last point, which sits alone in the last block
        s = _block_scenario(MirrorLaw.static())
        xs = np.append(np.linspace(-1e-4, 0.0, 2 * B), 0.5 * np.finfo(float).max)
        with pytest.raises(ValueError) as serial:
            profile_serial(s, xs)
        with pytest.raises(ValueError) as threaded:
            profile(s, xs)
        assert "not a finite float64" in str(serial.value)
        assert str(threaded.value) == str(serial.value)

    def test_blocks_take_the_callers_errstate(self, monkeypatch):
        def underflow(scenario, x):
            return np.full(x.shape, 1e-300) * 1e-300

        monkeypatch.setattr(analysis, "_psi", underflow)
        s = _block_scenario(MirrorLaw.static())
        with np.errstate(under="raise"), pytest.raises(FloatingPointError):
            profile(s, _block_grid(2 * B))

    def test_blocks_run_on_the_pool_or_inline_on_one_cpu(self, monkeypatch):
        psi, threads = analysis._psi, []

        def spy(scenario, x):
            threads.append(threading.get_ident())
            return psi(scenario, x)

        monkeypatch.setattr(analysis, "_psi", spy)
        s = _block_scenario(MirrorLaw.sudden_removal())
        profile(s, _block_grid(B))
        assert threads == [threading.get_ident()]
        threads.clear()
        profile(s, _block_grid(3 * B))
        assert len(threads) == 3
        on_caller = [ident == threading.get_ident() for ident in threads]
        assert all(on_caller) if analysis._usable_cpus() == 1 else not any(on_caller)

    def test_usable_cpus_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert analysis._usable_cpus() == 3

    def test_concurrent_callers_each_get_the_serial_result(self, monkeypatch):
        # more callers than CPUs race to make the pool, then share it
        made = []

        class CountedPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(self)
                # hold the window between the None check and the assignment
                # open, so that callers without the lock would each make one
                time.sleep(0.01)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(analysis, "_pool", None)
        monkeypatch.setattr(analysis, "ThreadPoolExecutor", CountedPool)
        scenarios = [_block_scenario(law) for law in BLOCK_LAWS.values()]
        xs = _block_grid(3 * B + 17)
        start = threading.Barrier(len(scenarios))
        results = [None] * len(scenarios)

        def run(i):
            start.wait(timeout=60)
            results[i] = profile(scenarios[i], xs).densities

        callers = [threading.Thread(target=run, args=(i,)) for i in range(len(scenarios))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
                assert not caller.is_alive()
        finally:
            sys.setswitchinterval(interval)
            for pool in made:
                pool.shutdown()
        assert len(made) == (analysis._usable_cpus() > 1)
        for s, dens in zip(scenarios, results):
            assert dens is not None and np.array_equal(bits(dens), bits(profile_serial(s, xs)))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    # Python 3.12 warns on any fork of a process with threads; this test forks one on purpose
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_profiles_after_the_parent_pool(self):
        # the parent's pool exists (on more than one CPU) before the fork; the
        # child's profile must not wait on that pool's threads, which it lacks
        s = _block_scenario(MirrorLaw.sudden_removal())
        xs = _block_grid(2 * B)
        expected = profile(s, xs).densities

        def child():
            os._exit(0 if np.array_equal(bits(profile(s, xs).densities), bits(expected)) else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        alive = proc.is_alive()
        if alive:
            proc.kill()
            proc.join()
        assert not alive and proc.exitcode == 0


class TestMainFringe:
    def test_synthetic_cosine(self):
        # 1 + 0.5 cos x: extrema 1.5 / 0.5 so V = (1.5-0.5)/(1.5+0.5) = 1/2
        s = unit_scenario()
        xs = np.linspace(0.0, 4 * np.pi, 500)
        stats = main_fringe(DensityProfile(s, xs, 1 + 0.5 * np.cos(xs)))
        assert stats.p_max == pytest.approx(1.5, abs=1e-6)
        assert stats.p_min == pytest.approx(0.5, abs=1e-6)
        assert stats.visibility == pytest.approx(0.5, abs=1e-6)
        assert stats.fringe_width == pytest.approx(2 * np.pi, rel=1e-4)

    def test_visibility_invariant_under_rescaling(self):
        s = unit_scenario()
        xs = np.linspace(0.0, 4 * np.pi, 500)
        d = 1 + 0.5 * np.cos(xs)
        v1 = main_fringe(DensityProfile(s, xs, d)).visibility
        v2 = main_fringe(DensityProfile(s, xs, 7.25 * d)).visibility
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_sudden_visibility_plateau(self):
        s = Scenario(CTX, K1, MirrorLaw.sudden_removal(), 0.1)
        delta = fringe_scale(s)
        front = s.v_k * s.time
        xs = np.linspace(front - 12 * delta, front + 6 * delta, 4000)
        stats = main_fringe(profile(s, xs))
        assert stats.p_max == pytest.approx(ORDINARY_PEAK, abs=5e-3)
        assert stats.visibility == pytest.approx(0.27560549889669, abs=5e-3)

    def test_slow_mirror_front_fringes_reach_full_contrast(self):
        s = Scenario(CTX, K1, MirrorLaw.moving(0.008), 10e-3)
        kp = CTX.wavenumber(s.v_k - 0.008)
        xs = np.linspace(55e-6, 80e-6, 6000)
        stats = main_fringe(profile(s, xs))
        assert stats.visibility >= 0.999
        assert stats.fringe_width == pytest.approx(np.pi / kp, rel=0.05)

    def test_no_fringes_raises(self):
        s = Scenario(CTX, K1, MirrorLaw.static(), 1e-3)
        xs = np.linspace(-1e-5, 0.0, 50)
        with pytest.raises(AnalysisError):
            main_fringe(profile(s, xs))

    @pytest.mark.parametrize("v", [0.0, -0.003])
    def test_resting_or_approaching_mirror_raises(self, v):
        # the profile holds only the standing wave in front of the mirror
        t = 10e-3
        s = Scenario(CTX, K1, MirrorLaw.moving(v), t)
        xs = np.linspace(-150e-6, v * t, 20001)
        with pytest.raises(AnalysisError, match="approaching"):
            main_fringe(profile(s, xs))

    def test_window_with_too_few_points_raises(self):
        # one of the 4 points lies in the window around the front at 50 um
        s = Scenario(CTX, K1, MirrorLaw.sudden_removal(), 5e-3)
        xs = np.linspace(-100e-6, 90e-6, 4)
        with pytest.raises(AnalysisError, match="too few grid points"):
            main_fringe(profile(s, xs))

    def test_window_without_extrema_raises(self):
        s = unit_scenario()
        xs = np.linspace(0.0, 4 * np.pi, 200)
        with pytest.raises(AnalysisError):
            main_fringe(DensityProfile(s, xs, np.linspace(1.0, 2.0, 200)))


class TestCornuTheta:
    def test_zero_at_classical_position(self):
        k_eff = CTX.wavenumber(0.008)
        t = 10e-3
        x0 = CTX.hbar * k_eff * t / CTX.mass
        assert cornu_theta(x0, t, k_eff, CTX) == pytest.approx(0.0, abs=1e-18)

    def test_sign_flip_across_front(self):
        k_eff = CTX.wavenumber(0.008)
        t = 10e-3
        x0 = CTX.hbar * k_eff * t / CTX.mass
        assert cornu_theta(x0 - 1e-6, t, k_eff, CTX) > 0
        assert cornu_theta(x0 + 1e-6, t, k_eff, CTX) < 0

    def test_two_path_agreement(self):
        # pins the theta normalization: the universal curve evaluated at
        # cornu_theta must equal |psi_near_limit|^2 at v = v_k
        vk, t = 0.01, 5e-3
        s = Scenario(CTX, CTX.wavenumber(vk), MirrorLaw.moving(vk), t)
        x = np.linspace(1e-6, vk * t, 3000)
        d_wave = np.abs(psi_near_limit(x, s)) ** 2
        d_univ = universal_enhanced(cornu_theta(x, t, CTX.wavenumber(vk), CTX))
        assert np.abs(d_wave - d_univ).max() <= 1e-6


class TestUniversalCurves:
    def test_boundary_values(self):
        assert universal_enhanced(0.0) == 0.0
        assert universal_enhanced(-2.0) == 0.0
        assert universal_ordinary(0.0) == pytest.approx(0.25, rel=1e-12)

    def test_asymptotic_limits(self):
        assert universal_ordinary(-8.0) == pytest.approx(0.0, abs=2e-3)
        for theta in (10.0, 25.0):
            env = 1.0 / (np.pi * theta)
            assert abs(universal_enhanced(theta) - 1.0) <= 2.5 * env
            assert abs(universal_ordinary(theta) - 1.0) <= 2.5 * env

    def test_peaks(self):
        assert universal_enhanced(THETA_ENHANCED_PEAK) == pytest.approx(
            ENHANCED_PEAK, abs=1e-12
        )
        assert universal_ordinary(THETA_ORDINARY_PEAK) == pytest.approx(
            ORDINARY_PEAK, abs=1e-12
        )

    def test_bounded(self):
        th = np.linspace(-10, 30, 20001)
        for curve in (universal_enhanced, universal_ordinary):
            vals = curve(th)
            assert np.all(vals >= 0.0) and np.all(vals <= 2.0)

    def test_ordinary_matches_sudden_density(self):
        # wherever the counter-propagating Moshinsky term is < 1e-3 the
        # universal curve tracks |psi_sudden|^2 to 2%
        t = 0.5
        vk = CTX.velocity(K1)
        x = np.linspace(vk * t - 20e-4, vk * t + 1e-4, 1500)
        mask = np.abs(moshinsky_m(x, -K1, t, CTX)) < 1e-3
        assert mask.any()
        d_sudden = np.abs(psi_sudden(x, t, K1, CTX)) ** 2
        d_univ = universal_ordinary(cornu_theta(x, t, K1, CTX))
        rel = np.abs(d_sudden - d_univ)[mask] / np.maximum(d_sudden[mask], 0.05)
        assert rel.max() <= 0.02


class TestWidthScaling:
    def test_sqrt_law_ratio(self):
        s = Scenario(CTX, K1, MirrorLaw.sudden_removal(), 1.0)
        res = fringe_width_scaling(s, [10e-3, 40e-3, 160e-3])
        widths = [w for _, w in res.points]
        assert widths[1] / widths[0] == pytest.approx(2.0, rel=1e-3)
        assert widths[2] / widths[1] == pytest.approx(2.0, rel=1e-3)

    def test_fitted_exponent(self):
        s = Scenario(CTX, K1, MirrorLaw.sudden_removal(), 1.0)
        res = fringe_width_scaling(s, np.geomspace(10e-3, 100e-3, 6))
        assert res.exponent == pytest.approx(0.5, abs=0.05)

    def test_requires_three_times(self):
        s = Scenario(CTX, K1, MirrorLaw.sudden_removal(), 1.0)
        with pytest.raises(ValueError):
            fringe_width_scaling(s, [10e-3])
        with pytest.raises(ValueError):
            fringe_width_scaling(s, [10e-3, -1e-3, 5e-3])


class TestEnhancementScan:
    def test_peak_grows_toward_matched_velocities(self):
        s = Scenario(CTX, K1, MirrorLaw.sudden_removal(), 20e-3)
        scan = enhancement_scan([1.3, 1.1, 1.02], s)
        peaks = [p.p_max for p in scan]
        assert peaks[0] < peaks[1] < peaks[2] < ENHANCED_PEAK + 0.01

    def test_large_ratio_reaches_sudden_limit(self):
        # late enough that the counter-propagating correction (~1/sqrt(t))
        # sits inside the band around the universal 1.37 bound
        s = Scenario(CTX, K1, MirrorLaw.sudden_removal(), 0.1)
        (pt,) = enhancement_scan([1e3], s)
        assert pt.p_max == pytest.approx(1.37, abs=0.005)

    def test_visibility_decreases(self):
        s = Scenario(CTX, K1, MirrorLaw.sudden_removal(), 0.1)
        scan = enhancement_scan(np.linspace(1.5, 6.0, 5), s)
        vis = [p.visibility for p in scan]
        assert all(b < a for a, b in zip(vis, vis[1:]))

    def test_peak_monotone_over_three_decades(self):
        s = Scenario(CTX, K1, MirrorLaw.sudden_removal(), 0.1)
        scan = enhancement_scan([1.05, 2.0, 5.0, 20.0, 100.0, 1000.0], s)
        peaks = [p.p_max for p in scan]
        assert all(b < a for a, b in zip(peaks, peaks[1:]))

    def test_scan_runs_through_matched_velocity(self):
        # below (v_k - v) t = sqrt(33/32) delta the reflected region holds no
        # full standing-wave period and the scan reads the front fringe,
        # which tends to the enhanced peak at v = v_k
        s = Scenario(CTX, K1, MirrorLaw.sudden_removal(), 20e-3)
        ratios = np.linspace(0.9, 1.1, 21)
        peaks = np.array([p.p_max for p in enhancement_scan(ratios, s)])
        assert peaks[10] == pytest.approx(ENHANCED_PEAK, abs=1e-2)
        assert np.all(np.diff(peaks[6:]) < 0)  # 0.96 ... 1.1

    def test_fringe_regime_sweep_never_raises(self):
        # v_k 0.1-3.2 cm/s, t 0.3-316 ms, the front ten fringe scales out;
        # ratios over [0.9, 1.1] and packed around (v_k - v) t = delta,
        # where the window leaves the mirror side
        rng = np.random.default_rng(2026)
        n = 0
        while n < 40:
            vk = 10 ** rng.uniform(-3, np.log10(0.032))
            t = 10 ** rng.uniform(np.log10(3e-4), np.log10(0.316))
            s = Scenario(CTX, CTX.wavenumber(vk), MirrorLaw.sudden_removal(), t)
            delta = fringe_scale(s)
            if s.front < 10 * delta:
                continue
            n += 1
            ratios = [*rng.uniform(0.9, 1.1, 2), *(1 - rng.uniform(0.9, 1.2, 3) * delta / s.front)]
            assert len(enhancement_scan(ratios, s)) == 5

    def test_slow_mirrors_reach_full_contrast(self):
        # below beam speed the main fringe is the reflected front's
        s = Scenario(CTX, K1, MirrorLaw.sudden_removal(), 10e-3)
        scan = enhancement_scan([0.3, 0.5, 0.8], s)
        assert [p.v_over_vk for p in scan] == [0.3, 0.5, 0.8]
        assert all(p.visibility >= 0.9999 for p in scan)

    def test_rejects_nonpositive_ratio(self):
        s = Scenario(CTX, K1, MirrorLaw.sudden_removal(), 20e-3)
        with pytest.raises(ValueError):
            enhancement_scan([1.5, 0.0], s)
