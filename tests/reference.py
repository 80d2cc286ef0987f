"""Reference implementations (test-only).

These are the independent oracles the library is validated against:
direct mpmath evaluation of erfc/Fresnel and the wave building blocks,
kept deliberately separate from the package's own algorithms, plus the
straightforward forms of the numerical oracles' inner loops (the stepped
Crank-Nicolson product and the unfactored propagator kernels) that the
library replaces with closed-form and factored equivalents.
"""

import math

import mpmath as mp
import numpy as np
from scipy.fft import dst, idst

mp.mp.dps = 30


def faddeeva_ref(z) -> complex:
    zm = mp.mpc(z)
    return complex(mp.exp(-zm * zm) * mp.erfc(-1j * zm))


def erfc_ref(z) -> complex:
    return complex(mp.erfc(mp.mpc(z)))


def fresnel_ref(theta):
    t = mp.mpf(theta)
    return float(mp.fresnelc(t)), float(mp.fresnels(t))


def gamma_ref(y) -> float:
    return float(mp.gamma(mp.mpf(y)))


def moshinsky_ref(x, k, t, hbar, mass) -> complex:
    """M(x, k, t) summed directly in arbitrary precision."""
    x, k, t = mp.mpf(x), mp.mpf(k), mp.mpf(t)
    hb, m = mp.mpf(hbar), mp.mpf(mass)
    z = (1 + 1j) / 2 * mp.sqrt(hb * t / m) * (k - m * x / (hb * t))
    w = mp.exp(-((-z) ** 2)) * mp.erfc(-1j * (-z))
    return complex(mp.exp(1j * m * x * x / (2 * hb * t)) / 2 * w)


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

    Same box, grid and initial state as ``evolve_grid``; the DST-I of the
    complex state is taken componentwise and the Crank-Nicolson factor
    (1 - i w dt/2) / (1 + i w dt/2) is applied once per step.
    """
    ctx = scenario.context
    hbar, m = ctx.hbar, ctx.mass
    t, k = scenario.time, scenario.k
    v = scenario.mirror_velocity
    big_l = math.ceil(config.domain_length * k / np.pi) * np.pi / k
    n = int(config.grid_points)
    y = -big_l + (big_l / n) * np.arange(1, n)
    psi0 = 2j * np.sin(k * y) * np.exp(-1j * (m * v / hbar) * y)
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
    x_lo, x_hi = config.comparison_window
    sel = (x >= x_lo) & (x <= x_hi)
    return x[sel], np.abs(psi_t[sel]) ** 2


def moving_kernel_unfactored(xs, nodes, t, v, hbar, mass):
    """Moving-wall propagator pref * gal * (direct - image) as a full matrix."""
    alpha = mass / (2.0 * hbar * t)
    yv = np.asarray(xs) - v * t
    pref = math.sqrt(mass / (2.0 * math.pi * hbar * t)) * np.exp(-0.25j * np.pi)
    gal = np.exp(
        1j * (mass / hbar) * (v * yv[:, None] + 0.5 * v * v * t - v * nodes[None, :])
    )
    direct = np.exp(1j * alpha * (yv[:, None] - nodes[None, :]) ** 2)
    image = np.exp(1j * alpha * (yv[:, None] + nodes[None, :]) ** 2)
    return pref * gal * (direct - image)


def free_kernel_unfactored(xs, nodes, t, hbar, mass):
    """Free propagator pref * exp(i alpha (x - x')^2) as a full matrix."""
    alpha = mass / (2.0 * hbar * t)
    pref = math.sqrt(mass / (2.0 * math.pi * hbar * t)) * np.exp(-0.25j * np.pi)
    return pref * np.exp(1j * alpha * (np.asarray(xs)[:, None] - nodes[None, :]) ** 2)
