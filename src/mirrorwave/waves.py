"""Exact transient wavefunctions for a beam released by a moving mirror.

The building block is the Moshinsky function

    M(x, k, t) = exp(i m x**2 / (2 hbar t)) / 2 * w(-z),
    z = (1+i)/2 * sqrt(hbar t / m) * (k - m x / (hbar t)),

a freely evolved cut-off plane wave.  Everything else is algebra on M:

* sudden removal of the mirror:   psi = M(x, k, t) - M(x, -k, t)
* mirror receding at velocity v:  four M terms in mirror-frame
  coordinates times a Galilean phase (``psi_moving``)
* the v -> v_k limit keeping only the two dominant terms
  (``psi_near_limit``).

Numerical note: for u = k - m x/(hbar t) >= 0 the argument -z falls in
the lower half-plane where w is evaluated through the reflection
2 exp(-z**2) - w(z).  Here exp(i m x**2/2 hbar t) * exp(-z**2) collapses
analytically to the plane wave exp(i(kx - hbar k**2 t/2m)), so M is
computed as

    M = plane_wave - chirp * w(|z| ray) / 2      (u >= 0)
    M =              chirp * w(|z| ray) / 2      (u < 0),   chirp = exp(i m x**2/2 hbar t)

with every phase assembled in extended precision (see specialfn.cis).
This keeps M, and identities built from it, at the 1e-15 level even
when the phases reach thousands of radians, where the naive
exp(-z**2) route loses five digits to phase rounding.

M has one definition, ``_moshinsky``, which takes the chirp from its
caller and forms the plane wave only where u >= 0.  The chirp depends on
x only through x**2, so each wavefunction builds it once and shares it
bitwise between its terms at x and -x: ``psi_moving`` uses one chirp for
all four terms, ``psi_sudden`` and ``psi_near_limit`` one for both.

Each wavefunction is one straight-line call over the whole of x.  Every
operation is elementwise and keeps its operand order, so an element
rounds alike in a call on any subset of the grid; ``analysis.profile``
relies on this when it evaluates |psi|**2 over cache-sized blocks.
A scalar x runs as a one-point array, unwrapped once to a Python complex,
so it returns exactly the element of an array call (there is no 0-d path:
numpy's scalar arithmetic rounds complex products differently).

The functions that take a ``Scenario`` read the evaluation time from
``scenario.time``, the wall from ``scenario.mirror_position`` and the
beam front from ``scenario.front``; ``_mirror_frame`` forms the mirror
frame of ``psi_moving`` and ``psi_near_limit``.  All functions are pure,
accept scalars or numpy arrays for x, and may be called concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .physics import MirrorKind, PhysicalContext, Scenario, evolution_time
from .specialfn import cis, faddeeva


def initial_state(x, k: float):
    """Standing matter wave 2i sin(kx) for x < 0, zero at and beyond the wall.

    The Heaviside convention Theta(0) = 0 keeps the state consistent with
    the Dirichlet condition at the mirror (a measure-zero choice).  A phase
    k x that is not a finite float64 raises ``ValueError`` before any sine.
    """
    xa = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        phase = k * xa
    if not np.all(np.isfinite(phase)):
        raise ValueError(f"initial_state: the phase k x is not a finite float64 at k = {k:.6g} 1/m")
    val = np.where(xa < 0.0, 2j * np.sin(phase), 0.0 + 0.0j)
    return complex(val[()]) if val.ndim == 0 else val


def _chirp(x, t: float, context: PhysicalContext):
    """Free-evolution chirp e^{i m x^2/(2 hbar t)}, phase assembled in long double.

    It depends on x only through x^2, so M(x, .) and M(-x, .) share it bitwise.
    """
    hbar = np.longdouble(context.hbar)
    m = np.longdouble(context.mass)
    x_ld = np.asarray(x, dtype=np.longdouble)
    return cis(m * x_ld * x_ld / (2.0 * hbar * np.longdouble(t)))


def _moshinsky(x, k, t: float, context: PhysicalContext, chirp):
    """M(x, k, t) given ``chirp`` = _chirp(x, t); the single definition of M.

    x is an array (a scalar reaches here as a one-point array), and the
    result is an array of the broadcast shape of x and k.
    """
    hbar, m = context.hbar, context.mass
    u = k - m * x / (hbar * t)
    # w is always evaluated on the arg = pi/4 ray (upper half-plane),
    # where it is well conditioned; the lower-half reflection term is
    # folded into the closed-form plane wave, formed only where u >= 0.
    z_ray = 0.5 * (1.0 + 1j) * np.sqrt(hbar * t / m) * np.abs(u)
    val = 0.5 * chirp * faddeeva(z_ray)
    lit = u >= 0.0
    x_ld = np.broadcast_to(x, lit.shape)[lit].astype(np.longdouble)
    # a fast path, bitwise equal to the general one: a scalar k (every
    # wavefunction's case) forms the kinetic term hbar k^2 t / 2m once, not
    # per lit point, and copies no broadcast k; the general path alone made
    # a 2e5-point moving-mirror profile ~7% slower
    if np.ndim(k) == 0:
        k_ld = np.longdouble(k)
    else:
        k_ld = np.broadcast_to(k, lit.shape)[lit].astype(np.longdouble)
    hbar_ld, m_ld = np.longdouble(hbar), np.longdouble(m)
    phi_plane = k_ld * x_ld - hbar_ld * k_ld * k_ld * np.longdouble(t) / (2.0 * m_ld)
    val[lit] = cis(phi_plane) - val[lit]
    return val


def _unwrap(val, *inputs):
    """A one-point result as a Python complex if every input was a scalar, else as is."""
    return complex(val[0]) if all(np.ndim(a) == 0 for a in inputs) else val


def moshinsky_m(x, k, t: float, context: PhysicalContext):
    """Moshinsky function M(x, k, t); finite for all finite inputs and evolution times t."""
    evolution_time(t, context, "moshinsky_m")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    val = _moshinsky(xa, np.asarray(k, dtype=float), t, context, _chirp(xa, t, context))
    return _unwrap(val, x, k)


def psi_sudden(x, t: float, k: float, context: PhysicalContext):
    """Beam released by instantaneous mirror removal: M(x,k,t) - M(x,-k,t)."""
    evolution_time(t, context, "psi_sudden")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    chirp = _chirp(xa, t, context)
    return _unwrap(_moshinsky(xa, k, t, context, chirp) - _moshinsky(xa, -k, t, context, chirp), x)


def _boost(x, t: float, v: float, context: PhysicalContext):
    """Galilean boost phase e^{i(m v x/hbar - m v^2 t/(2 hbar))}, assembled in long double.

    It carries a mirror-frame wavefunction psi(x - v t, t) to the lab frame.
    """
    hbar = np.longdouble(context.hbar)
    m = np.longdouble(context.mass)
    v_ld = np.longdouble(v)
    x_ld = np.asarray(x, dtype=np.longdouble)
    return cis(m * v_ld * x_ld / hbar - m * v_ld**2 * np.longdouble(t) / (2.0 * hbar))


@dataclass(frozen=True)
class WaveComponents:
    """The four Moshinsky terms of the moving-mirror solution.

    ``m1``/``m2`` propagate the free beam (wavefronts near +-v_k t),
    ``m3``/``m4`` are their images about the mirror (fronts near
    (2v -+ v_k) t).  ``psi`` is the physical wavefunction: the signed
    combination inside the physical region x <= v t and exactly zero
    beyond the mirror.  The component values are kept unmasked ("formal"
    values) for diagnostics of the forbidden region.
    """

    m1: np.ndarray
    m2: np.ndarray
    m3: np.ndarray
    m4: np.ndarray
    prefactor: np.ndarray
    psi: np.ndarray


@dataclass(frozen=True)
class CriticalPoints:
    """Classical space-time markers of the moving-mirror problem.

    x_minus = -v_k t  : leftmost reach of the wave reflected before release
    x_plus  = (2v - v_k) t : front of particles reflected off the moving wall
    x_mirror = v t    : the wall itself
    """

    x_minus: float
    x_plus: float
    x_mirror: float


def critical_points(scenario: Scenario) -> CriticalPoints:
    """Exact classical markers, unordered (``stream_regions`` orders them); moving mirror only."""
    v = scenario.mirror_velocity
    return CriticalPoints(
        x_minus=-scenario.front,
        x_plus=(2.0 * v - scenario.v_k) * scenario.time,
        x_mirror=scenario.mirror_position,
    )


def stream_regions(scenario: Scenario) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Classical stream picture ``(edges, counts)``: counts[i] streams on [edges[i-1], edges[i]).

    The edges are non-decreasing, with -inf and +inf at the ends; the
    standing wave is the +k and -k streams, and each reflection adds one:

        static                       (0,)                          2, 0
        sudden removal, or v >= v_k  (-v_k t, v_k t)               2, 1, 0
        0 <= v < v_k                 (x_minus, x_plus, v t)        2, 1, 2, 0
        -v_k < v < 0                 (x_plus, x_minus, v t)        2, 3, 2, 0
        v <= -v_k                    (x_plus, (2v + v_k) t, v t)   2, 3, 4, 0

    At v <= -v_k the wall also catches the -k stream.
    """
    kind = scenario.mirror.kind
    if kind is MirrorKind.STATIC:
        return (0.0,), (2, 0)
    v_k = scenario.v_k
    if kind is MirrorKind.SUDDEN_REMOVAL or scenario.mirror_velocity >= v_k:
        return (-scenario.front, scenario.front), (2, 1, 0)
    cp = critical_points(scenario)
    v = scenario.mirror_velocity
    if v >= 0.0:
        return (cp.x_minus, cp.x_plus, cp.x_mirror), (2, 1, 2, 0)
    if v > -v_k:
        return (cp.x_plus, cp.x_minus, cp.x_mirror), (2, 3, 2, 0)
    return (cp.x_plus, (2.0 * v + v_k) * scenario.time, cp.x_mirror), (2, 3, 4, 0)


def _mirror_frame(x, scenario: Scenario, name: str):
    """The mirror frame of x as an array: y = x - wall, the chirp of y and the boost of x."""
    t = evolution_time(scenario.time, scenario.context, name)
    if scenario.mirror.kind is not MirrorKind.MOVING:
        raise ValueError(f"{name} requires the finite-velocity mirror variant")
    ctx = scenario.context
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    y = xa - scenario.mirror_position
    return y, _chirp(y, t, ctx), _boost(xa, t, scenario.mirror_velocity, ctx)


def psi_moving(x, scenario: Scenario) -> WaveComponents:
    """Exact wavefunction at ``scenario.time`` for a mirror receding at finite velocity v.

        psi = e^{i(mvx/hbar - m v^2 t/2hbar)} [M1 - M2 - M3 + M4]

    with M1..M4 the Moshinsky terms in mirror-frame coordinates
    (k -+ mv/hbar at x - vt and its image vt - x).  On the wall the pairs
    (M1, M3) and (M2, M4) coincide bitwise, so psi(vt, t) is exactly 0.
    """
    y, chirp, prefactor = _mirror_frame(x, scenario, "psi_moving")
    t, ctx = scenario.time, scenario.context
    k, beta = scenario.k, ctx.wavenumber(scenario.mirror_velocity)
    kp, km = k - beta, -k - beta
    # (-y)^2 == y^2 bitwise: one chirp serves all four terms
    m1, m2 = (_moshinsky(y, kk, t, ctx, chirp) for kk in (kp, km))
    m3, m4 = (_moshinsky(-y, kk, t, ctx, chirp) for kk in (kp, km))
    # group the pairs that coincide bitwise at the wall (M1,M3) and (M2,M4)
    # so psi(vt, t) cancels to exactly zero instead of rounding noise
    formal = (m1 - m3) - (m2 - m4)
    psi = np.where(y <= 0.0, prefactor * formal, 0.0 + 0.0j)
    return WaveComponents(*(_unwrap(f, x) for f in (m1, m2, m3, m4, prefactor, psi)))


def psi_near_limit(x, scenario: Scenario):
    """Two-term approximation at ``scenario.time``, valid for mirror velocity close to v_k.

    Keeps only the dominant Moshinsky pair at zero relative wavenumber:

        psi ~= e^{i(mvx/hbar - m v^2 t/2hbar)} [M(x-vt, 0, t) - M(vt-x, 0, t)]

    Intended for 0 < x < v t with |v - v_k| << v_k; callers compare it
    against ``psi_moving`` for validation.
    """
    y, chirp, boost = _mirror_frame(x, scenario, "psi_near_limit")
    t, ctx = scenario.time, scenario.context
    pair = _moshinsky(y, 0.0, t, ctx, chirp) - _moshinsky(-y, 0.0, t, ctx, chirp)
    return _unwrap(boost * pair, x)


def classical_density(x, scenario: Scenario):
    """Interference-free density, the ``stream_regions`` count at each x, for any mirror law.

    An edge point takes the count on its right, so the wall itself reads 0.
    """
    edges, counts = stream_regions(scenario)
    out = np.asarray(counts, dtype=float)[np.searchsorted(edges, x, side="right")]
    return float(out) if out.ndim == 0 else out
