"""Reference implementations (test-only).

These are the independent oracles the library is validated against:
direct mpmath evaluation of erfc/Fresnel and the wave building blocks,
kept deliberately separate from the package's own algorithms, the
Fresnel power series, plus the straightforward forms of the numerical
oracles' inner loops (the stepped Crank-Nicolson product and the
unfactored free and moving-wall propagators) that the library replaces
with closed-form and factored equivalents, the grid oracle's default box
rule from before its taper, and the half-line Fresnel integral of the
quadrature tail in 40 digits.  It also holds helpers only
the tests use: erfc of a complex argument built on the package's
Faddeeva kernel, the scaled Moshinsky argument z and the large-|z|
expansion of M, the grid-oracle refinement step of convergence
studies, and the 64-bit words of complex results for bitwise checks.
"""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
from scipy.fft import dst, idst
from scipy.special import erfc

from mirrorwave.oracle import default_config
from mirrorwave.physics import MirrorKind
from mirrorwave.specialfn import _EXP_OVERFLOW, SpecialFunctionOverflow, _w_upper, cis

mp.mp.dps = 30


def bits(a):
    """The 64-bit words of a complex value or array, flattened, for bitwise comparison.

    Compared as unsigned integers, so the sign of zero counts.  A NaN
    fails here, so two results that are the same NaN never compare equal.
    """
    arr = np.ascontiguousarray(a, dtype=complex).reshape(-1)
    assert not np.isnan(arr).any(), "bits() of a NaN"
    return arr.view(np.uint64)


def faddeeva_ref(z) -> complex:
    zm = mp.mpc(z)
    return complex(mp.exp(-zm * zm) * mp.erfc(-1j * zm))


def erfc_ref(z) -> complex:
    return complex(mp.erfc(mp.mpc(z)))


def fresnel_ref(theta):
    t = mp.mpf(theta)
    return float(mp.fresnelc(t)), float(mp.fresnels(t))


def moshinsky_mp(x, k, t, hbar, mass):
    """M(x, k, t) as an mpmath value at the working precision; x and k may be mpf."""
    x, k, t = mp.mpf(x), mp.mpf(k), mp.mpf(t)
    hb, m = mp.mpf(hbar), mp.mpf(mass)
    z = (1 + 1j) / 2 * mp.sqrt(hb * t / m) * (k - m * x / (hb * t))
    w = mp.exp(-((-z) ** 2)) * mp.erfc(-1j * (-z))
    return mp.exp(1j * m * x * x / (2 * hb * t)) / 2 * w


def moshinsky_ref(x, k, t, hbar, mass) -> complex:
    """M(x, k, t) summed directly in arbitrary precision."""
    return complex(moshinsky_mp(x, k, t, hbar, mass))


def moshinsky_z(x, k, t: float, context):
    """Scaled argument z = (1+i)/2 sqrt(hbar t/m) (k - m x/(hbar t)) of M."""
    hbar, m = context.hbar, context.mass
    u = np.asarray(k, dtype=float) - m * np.asarray(x, dtype=float) / (hbar * t)
    return 0.5 * (1.0 + 1j) * np.sqrt(hbar * t / m) * u


def moshinsky_asymptotic(x, k, t: float, context, n_max: int):
    """Large-|z| expansion of M: plane wave (classical side only) plus
    the inverse-power series sum_n Gamma(n+1/2) / z**(2n+1) / (2 pi i).

    The series is truncated at min(n_max, floor(|z|**2)), the
    superasymptotic optimum, so the divergent tail is never summed.
    Returns ``(value, in_classical_region)``.  Requires |z| >= 2
    everywhere; below that the expansion is unreliable and a ValueError
    is raised.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if not t > 0.0:
        raise ValueError("moshinsky_asymptotic requires t > 0")
    hbar, m = context.hbar, context.mass
    xa = np.asarray(x, dtype=float)
    u = np.asarray(k, dtype=float) - m * xa / (hbar * t)
    z = moshinsky_z(xa, k, t, context)
    az2 = np.abs(z) ** 2
    if np.any(az2 < 4.0):
        raise ValueError("asymptotic expansion requires |z| >= 2")
    n_cap = np.minimum(n_max, np.floor(az2).astype(int))
    series = np.zeros(np.shape(z), dtype=complex)
    inv_z2 = 1.0 / (z * z)
    term = 1.0 / z  # Gamma(1/2)/z enters through the prefactor below
    gamma_ratio = 1.0
    for n in range(int(np.max(n_cap)) + 1):
        if n > 0:
            gamma_ratio *= n - 0.5  # Gamma(n+1/2)/Gamma(1/2)
            term = term * inv_z2
        series = series + np.where(n <= n_cap, gamma_ratio * term, 0.0)
    series *= np.sqrt(np.pi) / (2.0j * np.pi)
    hb, ms = np.longdouble(hbar), np.longdouble(m)
    x_ld, k_ld, t_ld = (np.asarray(a, dtype=np.longdouble) for a in (xa, k, t))
    phi_free = ms * x_ld * x_ld / (2.0 * hb * t_ld)
    phi_plane = k_ld * x_ld - hb * k_ld * k_ld * t_ld / (2.0 * ms)
    classical = u >= 0.0
    val = np.where(classical, cis(phi_plane), 0.0) + cis(phi_free) * series
    if val.ndim == 0:
        return complex(val[()]), bool(classical)
    return val, classical


def plane_wave_ref(x, k, t, hbar, mass) -> complex:
    """exp(i(kx - hbar k^2 t / 2m)) with the phase reduced in high precision."""
    x, k, t = mp.mpf(x), mp.mpf(k), mp.mpf(t)
    hb, m = mp.mpf(hbar), mp.mpf(mass)
    phase = k * x - hb * k * k * t / (2 * m)
    return complex(mp.expj(phase))


def spread_gaussian_ref(x, t, sigma0, hbar, mass) -> complex:
    """Free evolution of psi0 = (2 pi sigma0^2)^{-1/4} exp(-x^2/(4 sigma0^2))."""
    x, t = mp.mpf(x), mp.mpf(t)
    hb, m = mp.mpf(hbar), mp.mpf(mass)
    s2 = mp.mpf(sigma0) ** 2
    a = 1 / (4 * s2)
    tau = 1 + 2j * hb * a * t / m
    return complex((2 * a / mp.pi) ** mp.mpf("0.25") / mp.sqrt(tau) * mp.exp(-a * x * x / tau))


def evolve_grid_stepped(scenario, config):
    """Lab-frame (x, density) of the grid oracle by explicit time stepping.

    Same box, grid and tapered initial state as ``evolve_grid``: the
    mirror-frame standing wave times 0.5 erfc((-y - D) / (4 s)), with
    D = |x_lo - v t| + (v_k + |v|) t + 40 s and s = sqrt(hbar t / m).  The
    DST-I of the complex state is taken componentwise and the
    Crank-Nicolson factor (1 - i w dt/2) / (1 + i w dt/2) is applied once
    per step.
    """
    ctx = scenario.context
    hbar, m = ctx.hbar, ctx.mass
    t, k = scenario.time, scenario.k
    v = scenario.mirror_velocity
    x_lo, x_hi = config.comparison_window
    big_l = math.ceil(config.domain_length * k / np.pi) * np.pi / k
    n = int(config.grid_points)
    y = -big_l + (big_l / n) * np.arange(1, n)
    spread = math.sqrt(hbar * t / m)
    depth = abs(x_lo - v * t) + (scenario.v_k + abs(v)) * t + 40.0 * spread
    taper = 0.5 * erfc((-y - depth) / (4.0 * spread))
    psi0 = 2j * np.sin(k * y) * np.exp(-1j * (m * v / hbar) * y) * taper
    coef = dst(psi0.real, type=1) + 1j * dst(psi0.imag, type=1)
    q = np.pi * np.arange(1, n) / big_l
    omega = hbar * q * q / (2.0 * m)
    n_steps = max(int(math.ceil(t / config.time_step)), 1)
    half = 0.5j * omega * (t / n_steps)
    rho = (1.0 - half) / (1.0 + half)
    for _ in range(n_steps):
        coef *= rho
    psi_t = idst(coef.real, type=1) + 1j * idst(coef.imag, type=1)
    x = y + v * t
    sel = (x >= x_lo) & (x <= x_hi)
    return x[sel], np.abs(psi_t[sel]) ** 2


def untapered_config(scenario):
    """The grid oracle's default configuration under the rule before the taper.

    L = |x_lo| + max(5 (v_k + |v|), |v| + v_front) t + 40 s, sized for an
    untapered initial state whose far edge sheds a Crank-Nicolson front at
    v_front = 3**0.75 / 2 * sqrt(hbar / (m dt)) straight into the window.
    N follows from L by the same rule as ``default_config`` (the smallest
    2**j or 3 * 2**j above 6 L k_occ / pi, at least 1024), and the step,
    window and quadrature support are the default's.
    """
    cfg = default_config(scenario)
    ctx = scenario.context
    hbar, m, t = ctx.hbar, ctx.mass, scenario.time
    v = scenario.mirror_velocity if scenario.mirror.kind is MirrorKind.MOVING else 0.0
    spread = math.sqrt(hbar * t / m)
    dt_run = t / max(math.ceil(t / cfg.time_step), 1)
    v_front = 0.5 * 3.0**0.75 * math.sqrt(hbar / (m * dt_run))
    reach = max(5.0 * (scenario.v_k + abs(v)), abs(v) + v_front) * t
    big_l = abs(cfg.comparison_window[0]) + reach + 40.0 * spread
    k_occ = scenario.k + abs(ctx.wavenumber(v)) + 10.0 / spread
    floor = int(big_l * 6.0 * k_occ / np.pi)
    n = 1 << max(floor.bit_length(), 10)
    if 3 * (n >> 2) > max(floor, 1023):
        n = 3 * (n >> 2)
    return replace(cfg, domain_length=big_l, grid_points=n)


def propagator_free(x, t: float, xp, tp: float, context):
    """Free one-dimensional propagator K0(x, t | x', t'), principal-branch root."""
    if not t > tp:
        raise ValueError("propagator_free requires t > t'")
    hbar, m = context.hbar, context.mass
    dt = t - tp
    amp = np.sqrt(m / (2.0 * np.pi * hbar * dt)) * np.exp(-0.25j * np.pi)
    dx_ld = np.asarray(x, dtype=np.longdouble) - np.asarray(xp, dtype=np.longdouble)
    phase = np.longdouble(m) * dx_ld * dx_ld / (2.0 * np.longdouble(hbar) * np.longdouble(dt))
    val = amp * cis(phase)
    return complex(val[()]) if val.ndim == 0 else val


def propagator_moving_wall(x, t: float, xp, tp: float, v: float, context):
    """Propagator with a perfectly reflecting wall moving along x_w = v*t.

    Image construction in the comoving frame times the Galilean phase:

        K = e^{i(m/hbar)[v(x-vt) - v(x'-vt') + v^2(t-t')/2]}
            x [K0(x-vt, t | x'-vt', t') - K0(x-vt, t | -(x'-vt'), t')]

    The phase follows from the boost psi_lab = e^{i(mvx - m v^2 t/2)/hbar}
    psi_mirror(x - vt, t); the opposite overall sign fails to reproduce
    the closed-form moving-mirror solution under the superposition
    integral, which pins the convention.  Vanishes identically when the
    endpoint sits on the wall; both endpoints must lie in the physical
    region (x <= v t, x' <= v t').
    """
    if not t > tp:
        raise ValueError("propagator_moving_wall requires t > t'")
    xa = np.asarray(x, dtype=float)
    xpa = np.asarray(xp, dtype=float)
    if np.any(xa > v * t) or np.any(xpa > v * tp):
        raise ValueError("propagator_moving_wall endpoints must satisfy x <= v*t")
    hbar, m = context.hbar, context.mass
    y, yp = xa - v * t, xpa - v * tp
    phase = (
        np.longdouble(m)
        / np.longdouble(hbar)
        * (
            np.longdouble(v) * (np.asarray(xa, np.longdouble) - np.longdouble(v) * np.longdouble(t))
            - np.longdouble(v) * (np.asarray(xpa, np.longdouble) - np.longdouble(v) * np.longdouble(tp))
            + np.longdouble(v) ** 2 * (np.longdouble(t) - np.longdouble(tp)) / 2.0
        )
    )
    val = cis(phase) * (
        propagator_free(y, t, yp, tp, context) - propagator_free(y, t, -yp, tp, context)
    )
    return complex(val[()]) if val.ndim == 0 else val


def half_line_fresnel_ref(alpha, kappa, b) -> complex:
    """int_{-inf}^{b} exp(i(alpha x'^2 + kappa x')) dx' in 40-digit arithmetic.

    With X = sqrt(alpha) (b + kappa / (2 alpha)) the integral is
    e^{-i kappa^2 / (4 alpha)} / sqrt(alpha) * int_{-inf}^{X} e^{i u^2} du,
    and int_{-inf}^{X} e^{i u^2} du = sqrt(pi)/2 e^{i pi/4}
    + sqrt(pi/2) (C + i S)(X sqrt(2/pi)) with mpmath's Fresnel C and S.
    """
    with mp.workdps(40):
        a, k, bb = mp.mpf(alpha), mp.mpf(kappa), mp.mpf(b)
        x = mp.sqrt(a) * (bb + k / (2 * a))
        s = x * mp.sqrt(2 / mp.pi)
        half_line = mp.sqrt(mp.pi) / 2 * mp.expjpi(mp.mpf(1) / 4) + mp.sqrt(mp.pi / 2) * (
            mp.fresnelc(s) + 1j * mp.fresnels(s)
        )
        return complex(mp.expj(-k * k / (4 * a)) / mp.sqrt(a) * half_line)


def fresnel_series(theta):
    """Fresnel integrals by direct power series; cross-check path.

    Accurate to better than 1e-12 for |theta| <= 2.5 and refused beyond
    |theta| = 3 where cancellation starts to eat digits.  Tests use this
    as the second, independent route to C and S.
    """
    th = float(theta)
    if abs(th) > 3.0:
        raise ValueError("fresnel_series is reliable only for |theta| <= 3")
    u = np.pi * th * th / 2.0
    # C: sum over even powers, S: odd powers of u
    c_sum, s_sum = 1.0, 1.0 / 3.0
    term_c, term_s = 1.0, 1.0
    n = 0
    while True:
        n += 1
        term_c *= -(u * u) / ((2 * n) * (2 * n - 1))
        term_s *= -(u * u) / ((2 * n + 1) * (2 * n))
        dc = term_c / (4 * n + 1)
        ds = term_s / (4 * n + 3)
        c_sum += dc
        s_sum += ds
        if abs(dc) < 1e-18 and abs(ds) < 1e-18:
            break
        if n > 200:  # unreachable for |theta| <= 3
            raise RuntimeError("fresnel series failed to converge")
    return th * c_sum, u * th * s_sum


def erfc_complex(z):
    """Complementary error function erfc(z) for complex z.

    Built on the Faddeeva function through erfc(z) = exp(-z**2) * w(i*z)
    for Re z >= 0 and erfc(z) = 2 - erfc(-z) otherwise (the reflection
    avoids forming exp(-z**2)*exp(+z**2) pairs that would over/underflow
    separately).
    """
    za = np.asarray(z, dtype=complex)
    scalar = za.ndim == 0
    zf = np.atleast_1d(za).copy()
    if not np.all(np.isfinite(zf)):
        raise ValueError("erfc_complex requires finite arguments")
    neg = zf.real < 0.0
    zf[neg] = -zf[neg]
    # now Re zf >= 0, so i*zf lies in the upper half-plane
    x = np.asarray(zf.real, dtype=np.longdouble)
    y = np.asarray(zf.imag, dtype=np.longdouble)
    growth = (y * y - x * x).astype(np.float64)  # Re(-z**2)
    if np.any(growth > _EXP_OVERFLOW):
        raise SpecialFunctionOverflow(
            "exp(-z**2) overflows in erfc for large |Im z|"
        )
    val = np.exp(growth) * cis(-2.0 * x * y) * _w_upper(1j * zf)
    val[neg] = 2.0 - val[neg]
    return complex(val[0]) if scalar else val.reshape(za.shape)


def refine(config, factor: int = 2):
    """Halve the step and double the grid; used by convergence studies."""
    return replace(
        config,
        grid_points=config.grid_points * factor,
        time_step=config.time_step / factor,
    )
