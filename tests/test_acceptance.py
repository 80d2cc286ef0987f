"""Acceptance gate: the quantitative anchors of the whole package.

Each criterion runs at its stated tolerance and prints one
``[PASS|FAIL] criterion N`` line (visible with ``pytest -s``).

Two criteria are known to be unattainable and fail honestly rather than
being weakened:

* criterion 1 asserts the enhancement bound 1.816 +- 0.002, but the
  exact maximum of the enhanced universal curve is 1.8014163538604137
  (three independent routes agree: scipy's Fresnel integrals, the
  closed-form wavefunction at matched velocities, and arbitrary-precision
  erf); the test still verifies both computation routes agree with each
  other.
* criterion 4 bounds the density 1 nm inside the mirror by 1e-10, but
  the true wavefunction there follows the forming standing wave,
  |psi|^2 = 4 sin^2(k' * 1 nm) ~ 1.9e-4 at the slow-mirror parameters,
  so only the fastest mirror ratio can satisfy the bound.

``test_designed_failure_values`` pins the values both criteria measure,
so a drift inside the failing tests still shows as a new failure.
"""

import numpy as np
import pytest

from mirrorwave.analysis import (
    ENHANCED_PEAK,
    enhancement_scan,
    fringe_scale,
    fringe_width_scaling,
    main_fringe,
    profile,
    universal_enhanced,
    universal_ordinary,
)
from mirrorwave.oracle import compare, default_config, evolve_grid, evolve_quadrature
from mirrorwave.physics import MirrorLaw, PhysicalContext, Scenario
from mirrorwave.specialfn import cis, faddeeva, fresnel
from mirrorwave.waves import critical_points, moshinsky_m, psi_moving, psi_near_limit, psi_sudden

from .reference import faddeeva_ref, fresnel_ref, fresnel_series, plane_wave_ref

CTX = PhysicalContext()
K1 = CTX.wavenumber(0.01)  # 87Rb at v_k = 1 cm/s


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def enhanced_maxima():
    """Enhancement maximum by two routes: (universal curve, wavefunction)."""
    # route 1: maximum of the enhanced universal curve
    th = np.linspace(1.15, 1.27, 200001)
    m_curve = universal_enhanced(th).max()
    # route 2: peak of the two-term wavefunction at v = v_k
    # (1 cm/s beam released over 5 ms)
    vk, t = 0.01, 5e-3
    s = Scenario(CTX, CTX.wavenumber(vk), MirrorLaw.moving(vk), t)
    delta = fringe_scale(s)
    x = np.linspace(vk * t - 2.0 * delta, vk * t - 0.5 * delta, 200001)
    m_wave = (np.abs(psi_near_limit(x, s)) ** 2).max()
    return m_curve, m_wave


def wall_densities(ratio):
    """Densities on the mirror and 1 nm inside it at v/v_k = ratio (1 cm/s, 5 ms)."""
    vk, t = 0.01, 5e-3
    v = ratio * vk
    s = Scenario(CTX, CTX.wavenumber(vk), MirrorLaw.moving(v), t)
    on_wall = abs(psi_moving(v * t, s).psi) ** 2
    near_wall = abs(psi_moving(v * t - 1e-9, s).psi) ** 2
    return on_wall, near_wall


def test_c01_enhancement_bound():
    m_curve, m_wave = enhanced_maxima()
    routes_agree = abs(m_curve - m_wave) <= 1e-6
    in_band = abs(m_curve - 1.816) <= 0.002
    report(
        1,
        routes_agree and in_band,
        f"enhancement bound: curve {m_curve:.7f}, wavefunction {m_wave:.7f}, "
        f"band 1.816+-0.002 (exact maximum {ENHANCED_PEAK:.10f})",
    )
    assert routes_agree
    assert in_band, (
        f"computed maximum {m_curve:.10f} lies outside 1.816 +- 0.002; the exact "
        f"value of the curve's maximum is {ENHANCED_PEAK:.10f} on all routes"
    )


def test_c02_sudden_removal_bound():
    th = np.linspace(1.15, 1.28, 200001)
    m_curve = universal_ordinary(th).max()
    # cross-check against the released-beam density peak, late enough that
    # the counter-propagating correction is inside the band
    t = 0.3
    vk = CTX.velocity(K1)
    delta = np.sqrt(np.pi * CTX.hbar * t / CTX.mass)
    x = np.linspace(vk * t - 3 * delta, vk * t, 120001)
    m_wave = (np.abs(psi_sudden(x, t, K1, CTX)) ** 2).max()
    ok = abs(m_curve - 1.37) <= 0.005 and abs(m_wave - 1.37) <= 0.005
    report(2, ok, f"sudden-removal bound: curve {m_curve:.6f}, wavefunction {m_wave:.6f}, band 1.37+-0.005")
    assert abs(m_curve - 1.37) <= 0.005
    assert abs(m_wave - 1.37) <= 0.005


def test_c03_plane_wave_identity():
    # M(x,k,t) + M(-x,-k,t) = e^{i(kx - hbar k^2 t/2m)} over |z| in [1e-3, 1e2]
    rng = np.random.default_rng(1234)
    n_batches, batch = 100, 100
    worst = 0.0
    spot = []
    for _ in range(n_batches):
        t = float(rng.uniform(1e-3, 2e-2))
        logz = rng.uniform(-3, 2, batch)
        x = rng.uniform(-5e-5, 5e-5, batch)
        sgn = rng.choice([-1.0, 1.0], batch)
        u = sgn * np.sqrt(2.0) * 10**logz / np.sqrt(CTX.hbar * t / CTX.mass)
        k = u + CTX.mass * x / (CTX.hbar * t)
        lhs = moshinsky_m(x, k, t, CTX) + moshinsky_m(-x, -k, t, CTX)
        phi = (
            np.asarray(k, np.longdouble) * np.asarray(x, np.longdouble)
            - np.longdouble(CTX.hbar)
            * np.asarray(k, np.longdouble) ** 2
            * np.longdouble(t)
            / (2 * np.longdouble(CTX.mass))
        )
        resid = np.abs(lhs - cis(phi))
        worst = max(worst, float(resid.max()))
        spot.append((x[0], k[0], t, lhs[0]))
    # independent spot check of the reference itself
    for x0, k0, t0, lhs0 in spot[:20]:
        assert abs(lhs0 - plane_wave_ref(x0, k0, t0, CTX.hbar, CTX.mass)) <= 1e-12
    ok = worst <= 1e-12
    report(3, ok, f"plane-wave identity on 10^4 samples: max residual {worst:.3e} <= 1e-12")
    assert ok


@pytest.mark.parametrize("ratio", [0.5, 1.0, 1.5])
def test_c04_mirror_boundary(ratio):
    vk = 0.01
    v = ratio * vk
    on_wall, near_wall = wall_densities(ratio)
    ok = on_wall == 0.0 and near_wall <= 1e-10
    kp = CTX.wavenumber(abs(vk - v))
    if v < vk:
        physics = f"forming standing wave 4 sin^2(k' nm) = {4 * np.sin(kp * 1e-9) ** 2:.3e}"
    elif v == vk:
        physics = "quadratic slope of the matched-velocity fringe"
    else:
        physics = "evanescent tail of the beam the mirror outruns"
    report(
        4,
        ok,
        f"mirror boundary at v/v_k={ratio}: |psi(vt)|^2 = {on_wall:.1e}, "
        f"|psi(vt - 1 nm)|^2 = {near_wall:.3e} (bound 1e-10; physical value set by the "
        + physics
        + ")",
    )
    assert on_wall == 0.0
    assert near_wall <= 1e-10, (
        f"the exact density 1 nm inside the wall is {near_wall:.3e}, set by the "
        + physics
        + "; a 1e-10 bound there contradicts the solution itself"
    )


def test_designed_failure_values():
    # the measured values behind the three designed failures (criterion 1
    # and criterion 4 at ratios 0.5 and 1.0): a drift inside those failing
    # tests would leave the failure count unchanged, so it surfaces here
    m_curve, m_wave = enhanced_maxima()
    assert abs(m_curve - 1.8014163539) <= 1e-9
    assert abs(m_wave - 1.8014163539) <= 1e-9
    assert wall_densities(0.5)[1] == pytest.approx(1.873e-4, rel=1e-3)
    assert wall_densities(1.0)[1] == pytest.approx(1.742e-7, rel=1e-3)


def test_c05_limit_reductions():
    # slow mirror: standing wave recovered to 1e-3 for x < 0
    vk = 0.01
    t1 = 5e-4
    s_slow = Scenario(CTX, K1, MirrorLaw.moving(1e-6 * vk), t1)
    x1 = np.linspace(-2 * vk * t1, -1e-9, 40001)
    err_slow = np.abs(
        np.abs(psi_moving(x1, s_slow).psi) ** 2 - 4 * np.sin(K1 * x1) ** 2
    ).max()
    # fast mirror: sudden-removal density recovered to 1e-4 on [-v_k t, v_k t]
    t2 = 10e-3
    s_fast = Scenario(CTX, K1, MirrorLaw.moving(1e3 * vk), t2)
    x2 = np.linspace(-vk * t2, vk * t2, 20001)
    err_fast = np.abs(
        np.abs(psi_moving(x2, s_fast).psi) ** 2
        - np.abs(psi_sudden(x2, t2, K1, CTX)) ** 2
    ).max()
    ok = err_slow <= 1e-3 and err_fast <= 1e-4
    report(
        5,
        ok,
        f"limit reductions: v->0 error {err_slow:.2e} <= 1e-3, "
        f"v->inf error {err_fast:.2e} <= 1e-4",
    )
    assert err_slow <= 1e-3
    assert err_fast <= 1e-4


def test_c06_oracle_equivalence():
    # grid evolution against the moving-mirror solution (1 cm/s beam,
    # 0.8 cm/s mirror, 10 ms)
    t, v = 10e-3, 0.008
    s = Scenario(CTX, K1, MirrorLaw.moving(v), t)
    cfg = default_config(s, comparison_window=(-50e-6, v * t))
    grid_prof = evolve_grid(s, cfg)
    grid_err = compare(grid_prof, profile(s, grid_prof.xs)).max_abs_err
    # quadrature against the sudden-removal solution
    s2 = Scenario(CTX, K1, MirrorLaw.sudden_removal(), t)
    vk = CTX.velocity(K1)
    xs = np.linspace(-vk * t, vk * t, 201)
    quad = evolve_quadrature(s2, default_config(s2), xs, tolerance=1e-4)
    quad_err = compare(quad.profile, profile(s2, xs)).max_abs_err
    ok = grid_err <= 1e-3 and quad_err <= 1e-4 and not quad.flagged
    report(
        6,
        ok,
        f"oracle equivalence: grid max abs err {grid_err:.2e} <= 1e-3, "
        f"quadrature max abs err {quad_err:.2e} <= 1e-4",
    )
    assert grid_err <= 1e-3
    assert quad_err <= 1e-4 and not quad.flagged


def test_c07_three_region_structure():
    t, v = 10e-3, 0.008
    s = Scenario(CTX, K1, MirrorLaw.moving(v), t)
    cp = critical_points(s)
    assert K1 * (s.v_k - v) * t >= 50.0  # regions hold many fringes
    windows = {
        "left standing wave": (cp.x_minus - 60e-6, cp.x_minus - 20e-6, 2.0),
        "outgoing stream": (cp.x_minus + 25e-6, cp.x_plus - 25e-6, 1.0),
        "reflected standing wave": (cp.x_plus + 4e-6, cp.x_mirror - 2e-6, 2.0),
    }
    devs = {}
    for name, (lo, hi, target) in windows.items():
        x = np.linspace(lo, hi, 30001)
        mean = float(np.abs(psi_moving(x, s).psi).__pow__(2).mean())
        devs[name] = (mean, abs(mean - target) / target)
    ok = all(rel <= 0.05 for _, rel in devs.values())
    detail = ", ".join(f"{n}: mean {m:.4f} ({r * 100:.2f}%)" for n, (m, r) in devs.items())
    report(7, ok, f"three-region means within 5% of 2/1/2: {detail}")
    for name, (mean, rel) in devs.items():
        assert rel <= 0.05, f"{name}: mean {mean} deviates {rel * 100:.2f}%"


def test_c08_fringe_width_scaling():
    s = Scenario(CTX, K1, MirrorLaw.sudden_removal(), 1.0)
    res = fringe_width_scaling(s, np.geomspace(10e-3, 100e-3, 6))
    ok = abs(res.exponent - 0.5) <= 0.05
    report(8, ok, f"fringe width exponent over one decade of t: {res.exponent:.4f} = 0.5+-0.05")
    assert ok


def test_c09_visibility_monotonic_and_full_contrast():
    ratios = np.linspace(1.1, 10.0, 20)
    strict = {}
    for vk_cm in (0.1, 1.0):
        k = CTX.wavenumber(vk_cm * 1e-2)
        template = Scenario(CTX, k, MirrorLaw.sudden_removal(), 0.1)
        scan = enhancement_scan(ratios, template)
        vis = [p.visibility for p in scan]
        strict[vk_cm] = all(b < a for a, b in zip(vis, vis[1:]))
    # slow-mirror front fringes reach full contrast (1 cm/s beam,
    # 0.8 cm/s mirror, 10 ms)
    s = Scenario(CTX, K1, MirrorLaw.moving(0.008), 10e-3)
    cp = critical_points(s)
    xs = np.linspace(cp.x_plus - 5e-6, cp.x_mirror, 8001)
    v_front = main_fringe(profile(s, xs)).visibility
    ok = all(strict.values()) and v_front >= 0.999
    report(
        9,
        ok,
        f"visibility strictly decreasing over 20-point scans (v_k=0.1: {strict[0.1]}, "
        f"v_k=1.0: {strict[1.0]}); slow-mirror front fringe V = {v_front:.6f} >= 0.999",
    )
    assert all(strict.values())
    assert v_front >= 0.999


def test_c10_special_function_accuracy():
    # 1000-point validation set across every algorithm region (Maclaurin,
    # rational, scipy wofz beyond |z| = 12, lower half-plane), all quadrants
    rng = np.random.default_rng(99)
    pts = []
    while len(pts) < 1000:
        r = 10 ** rng.uniform(-3, 3)
        ph = rng.uniform(0, 2 * np.pi)
        z = r * np.exp(1j * ph)
        if z.imag**2 - z.real**2 < 600.0:  # stay clear of the overflow guard
            pts.append(z)
    worst = 0.0
    for z in pts:
        ref = faddeeva_ref(z)
        worst = max(worst, abs(faddeeva(z) - ref) / abs(ref))
    c1, s1 = fresnel(1.0)
    cs, ss = fresnel_series(1.0)
    cr, sr = fresnel_ref(1.0)
    fres_series_err = max(abs(c1 - cs), abs(s1 - ss))
    fres_ref_err = max(abs(c1 - cr), abs(s1 - sr))
    ok = worst <= 1e-10 and fres_series_err <= 1e-12 and fres_ref_err <= 1e-12
    report(
        10,
        ok,
        f"faddeeva max rel err {worst:.3e} <= 1e-10 on 1000 points; "
        f"fresnel(1) vs series oracle {fres_series_err:.3e} <= 1e-12",
    )
    assert worst <= 1e-10
    assert fres_series_err <= 1e-12
    assert fres_ref_err <= 1e-12
