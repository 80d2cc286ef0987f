"""Independent float64 closed form on ``scipy.special.wofz``, for output checks.

It follows the definitions, not the library's route: each Moshinsky term
is M(x, k, t) = exp(i m x**2 / (2 hbar t)) / 2 * w(-z) with scipy's Faddeeva
function, and every phase is formed in float64 without reduction.  On
the diagonal rays that w is evaluated on here, exp(-z**2) has modulus 1,
so nothing overflows; the cost is a phase rounding error of about
eps * |phase|, which ``tolerance`` allows for.
"""

from __future__ import annotations

import numpy as np
from scipy.special import wofz

# Each density is |sum of up to four terms|**2 (|terms| <= 2), and each term
# carries two phases rounded in float64: allow 64 roundings of the largest.
_ROUNDINGS = 64.0


def _moshinsky(x, k, t, hbar, m):
    z = 0.5 * (1.0 + 1j) * np.sqrt(hbar * t / m) * (k - m * x / (hbar * t))
    return 0.5 * np.exp(1j * m * x * x / (2.0 * hbar * t)) * wofz(-z)


def density(scenario, xs) -> np.ndarray:
    """|psi|**2 at ``xs`` for a sudden-removal or receding-mirror scenario."""
    ctx = scenario.context
    hbar, m, k, t = ctx.hbar, ctx.mass, scenario.k, scenario.time
    xs = np.asarray(xs, dtype=float)
    if scenario.mirror.velocity is None:
        psi = _moshinsky(xs, k, t, hbar, m) - _moshinsky(xs, -k, t, hbar, m)
        return np.abs(psi) ** 2
    v = scenario.mirror.velocity
    beta = m * v / hbar
    y = xs - v * t
    formal = (_moshinsky(y, k - beta, t, hbar, m) - _moshinsky(y, -k - beta, t, hbar, m)
              - _moshinsky(-y, k - beta, t, hbar, m) + _moshinsky(-y, -k - beta, t, hbar, m))
    # the Galilean prefactor has modulus 1 and drops out of the density
    return np.where(y <= 0.0, np.abs(formal) ** 2, 0.0)


def tolerance(scenario, xs) -> float:
    """Largest density difference float64 phase rounding can explain at ``xs``."""
    ctx = scenario.context
    t = scenario.time
    v = scenario.mirror.velocity or 0.0
    reach = float(np.max(np.abs(xs))) + abs(v) * t
    k_max = scenario.k + ctx.mass * abs(v) / ctx.hbar
    phase = ctx.mass * reach**2 / (2.0 * ctx.hbar * t) + k_max * reach
    return _ROUNDINGS * np.finfo(float).eps * (1.0 + phase)
