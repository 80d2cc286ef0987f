"""Density profiles, fringe extraction, visibility, and universal curves.

The fringe machinery works on sampled density profiles.  Extrema are
located by a three-point discrete test and refined by parabolic
interpolation, which is accurate to O(h**2) of the fringe scale
delta = sqrt(pi hbar t / m) provided the grid resolves the fringes
(spacing of 1/20 of the fringe width or finer near the front).

Each scenario has one fringe window.  A mirror slower than the beam
shows its main fringe in the reflected region [x_plus, v t] once that
region holds more than one standing-wave period pi/k' = delta**2 /
((v_k - v) t); nearer the beam speed, as for sudden removal and v >= v_k,
the main fringe is the front's, so a velocity scan runs through v = v_k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .physics import MirrorKind, MirrorLaw, PhysicalContext, Scenario
from .specialfn import fresnel
from .waves import critical_points, initial_state, psi_moving, psi_sudden


class AnalysisError(RuntimeError):
    """Raised when a profile carries no resolvable fringe structure."""


def _grid(xs) -> np.ndarray:
    """xs as floats, checked to be a non-empty, strictly increasing, finite 1-D grid."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError("xs and densities must be matching 1-D arrays")
    if xs.size == 0:
        raise ValueError("profile grid must be non-empty")
    # compared, not differenced: inf - inf would warn before the check raises
    if not np.all(xs[1:] > xs[:-1]):
        raise ValueError("xs must be strictly increasing")
    if not np.all(np.isfinite(xs)):
        raise ValueError("xs must be finite")
    return xs


@dataclass(frozen=True)
class DensityProfile:
    """Densities |psi|**2 sampled on a strictly increasing grid."""

    scenario: Scenario
    xs: np.ndarray
    densities: np.ndarray

    def __post_init__(self):
        xs = _grid(self.xs)
        d = np.asarray(self.densities, dtype=float)
        if d.shape != xs.shape:
            raise ValueError("xs and densities must be matching 1-D arrays")
        if not np.all(d >= 0):
            raise ValueError("densities must be nonnegative")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "densities", d)


@dataclass(frozen=True)
class FringeStats:
    """Main-fringe summary: peak, first minimum behind it, and contrast."""

    p_max: float
    p_min: float
    x_peak: float
    x_min: float
    visibility: float
    fringe_width: float

    def __post_init__(self):
        if not (self.p_max >= self.p_min >= 0.0):
            raise ValueError("require p_max >= p_min >= 0")
        if not (0.0 <= self.visibility <= 1.0):
            raise ValueError("visibility must lie in [0, 1]")


def fringe_scale(scenario: Scenario) -> float:
    """Characteristic fringe width sqrt(pi hbar t / m)."""
    ctx = scenario.context
    return float(np.sqrt(np.pi * ctx.hbar * scenario.time / ctx.mass))


# points per block: a block's temporaries, 128 KiB each, fit in a 2 MiB L2
_BLOCK = 8192


def _psi(scenario: Scenario, x):
    """The wavefunction of the scenario's mirror law on x."""
    kind = scenario.mirror.kind
    if kind is MirrorKind.STATIC:
        return initial_state(x, scenario.k)
    if kind is MirrorKind.SUDDEN_REMOVAL:
        return psi_sudden(x, scenario.time, scenario.k, scenario.context)
    return psi_moving(x, scenario).psi


def profile(scenario: Scenario, xs) -> DensityProfile:
    """Evaluate |psi|**2 for the scenario's mirror law on the given grid.

    The forbidden region beyond a moving mirror reports density zero.
    The grid passes ``DensityProfile``'s checks before any evaluation.
    The wavefunction runs over consecutive blocks of ``_BLOCK`` points, whose
    ~20 temporaries stay in L2 over every pass of the w(z) series, and only
    |psi|**2 of a block is kept; the wavefunctions are elementwise, so the
    densities do not depend on ``_BLOCK``.
    """
    xs = _grid(xs)
    dens = np.empty(xs.shape)
    for lo in range(0, xs.size, _BLOCK):
        dens[lo : lo + _BLOCK] = np.abs(_psi(scenario, xs[lo : lo + _BLOCK])) ** 2
    return DensityProfile(scenario, xs, dens)


def _refine_extremum(xs, d, i):
    """Parabola through (i-1, i, i+1); returns (x*, d*)."""
    x0, x1, x2 = xs[i - 1], xs[i], xs[i + 1]
    d0, d1, d2 = d[i - 1], d[i], d[i + 1]
    # general three-point quadratic vertex (handles mildly nonuniform grids)
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    a = (x2 * (d1 - d0) + x1 * (d0 - d2) + x0 * (d2 - d1)) / denom
    b = (x2 * x2 * (d0 - d1) + x1 * x1 * (d2 - d0) + x0 * x0 * (d1 - d2)) / denom
    if a == 0.0:
        return x1, d1
    xv = -b / (2.0 * a)
    if not (x0 <= xv <= x2):
        return x1, d1
    c = d0 - a * x0 * x0 - b * x0
    return xv, a * xv * xv + b * xv + c


def _local_extrema(d):
    inner = d[1:-1]
    maxima = np.where((inner > d[:-2]) & (inner >= d[2:]))[0] + 1
    minima = np.where((inner < d[:-2]) & (inner <= d[2:]))[0] + 1
    return maxima, minima


# the mirror side needs a reflected region [x_plus, v t] wider than c delta,
# which puts c**2 standing-wave periods in it: c**2 = 33/32 is one period plus
# one step of the scan grid, clear of the widest mirror-side failure seen,
# (v_k - v) t = 1.0118 delta
_MIRROR_SIDE_WIDTH = np.sqrt(33.0 / 32.0)


def _fringe_window(s: Scenario):
    """(lo, hi, mirror_side, (grid_lo, grid_hi, step)): the search window of the
    main fringe, which side it is on, and the scan grid that resolves it."""
    kind = s.mirror.kind
    if kind is MirrorKind.STATIC or (kind is MirrorKind.MOVING and s.mirror_velocity <= 0.0):
        # only the standing wave in front of the mirror would be found
        raise AnalysisError("a static or approaching mirror has no travelling front fringe")
    delta = fringe_scale(s)
    if kind is MirrorKind.MOVING and s.front - s.mirror_position > _MIRROR_SIDE_WIDTH * delta:
        cp = critical_points(s)
        kp = s.context.wavenumber(s.v_k - s.mirror_velocity)
        # 32 points per standing-wave period pi/kp, which is below delta here
        grid = (cp.x_plus - 2.0 * delta, cp.x_mirror, np.pi / kp / 32.0)
        return cp.x_plus, cp.x_mirror, True, grid
    hi, grid_hi = s.front + 6.0 * delta, s.front + 7.0 * delta
    if kind is MirrorKind.MOVING:
        hi, grid_hi = min(hi, s.mirror_position), min(grid_hi, s.mirror_position)
    return s.front - 12.0 * delta, hi, False, (s.front - 14.0 * delta, grid_hi, delta / 64.0)


def main_fringe(p: DensityProfile) -> FringeStats:
    """Extract the main fringe of the matter-wave front.

    For sudden removal and mirrors at or near beam velocity the main
    peak is the highest local maximum in a window around the beam front
    v_k t, cut at the wall (ties broken toward the front).  For a mirror
    slower than the beam by (v_k - v) t > sqrt(33/32) delta, so that the
    reflected region [x_plus, v t] holds more than one standing-wave
    period pi/k' = delta**2 / ((v_k - v) t), the fringes of interest are
    the reflected-front oscillations there; the most developed fringe --
    the one adjacent to the mirror, which tends to the asymptotic
    standing wave -- is taken as the main peak.  In every case p_min is
    the first local minimum behind (left of) the peak, per the contrast
    definition V = (P_max - P_min)/(P_max + P_min).  A mirror that does
    not recede leaves no travelling front and raises ``AnalysisError``.
    """
    lo, hi, mirror_side, _ = _fringe_window(p.scenario)
    xs, d = p.xs, p.densities
    i, j = np.searchsorted(xs, lo), np.searchsorted(xs, hi, side="right")
    if j - i < 5:
        raise AnalysisError("analysis window contains too few grid points")
    xw, dw = xs[i:j], d[i:j]
    maxima, minima = _local_extrema(dw)
    if maxima.size == 0:
        raise AnalysisError("no local maximum found (grid too coarse or no fringes)")
    if mirror_side:
        i_peak = maxima[-1]
    else:
        best = dw[maxima].max()
        # nearest the front among (near-)ties
        candidates = maxima[dw[maxima] >= best * (1.0 - 1e-12)]
        i_peak = candidates[-1]
    left_minima = minima[minima < i_peak]
    if left_minima.size == 0:
        raise AnalysisError("no local minimum behind the main peak")
    i_min = left_minima[-1]
    x_peak, p_max = _refine_extremum(xw, dw, i_peak)
    x_min, p_min = _refine_extremum(xw, dw, i_min)
    p_min = max(p_min, 0.0)  # parabolic refinement may dip below zero at nodes
    visibility = (p_max - p_min) / (p_max + p_min)
    return FringeStats(
        p_max=p_max,
        p_min=p_min,
        x_peak=x_peak,
        x_min=x_min,
        visibility=min(visibility, 1.0),
        fringe_width=2.0 * abs(x_peak - x_min),
    )


def cornu_theta(x, t: float, k_eff: float, context: PhysicalContext):
    """Dimensionless Cornu-spiral parameter.

        theta = sqrt(m / (pi hbar t)) * (hbar k_eff t / m - x)

    zero at the classical position of a particle with wavenumber k_eff
    (the mirror position when k_eff = m v / hbar), positive behind it.
    The normalization is pinned by the requirement that
    ``universal_enhanced(cornu_theta(...))`` reproduce
    |psi_near_limit|**2 exactly at v = v_k.
    """
    if not t > 0.0:
        raise ValueError("cornu_theta requires t > 0")
    hbar, m = context.hbar, context.mass
    xa = np.asarray(x, dtype=float)
    val = np.sqrt(m / (np.pi * hbar * t)) * (hbar * k_eff * t / m - xa)
    return float(val[()]) if val.ndim == 0 else val


def universal_enhanced(theta):
    """Enhanced-release universal profile 2[S(theta)**2 + C(theta)**2].

    Describes the beam released by a mirror receding at the beam
    velocity; zero for theta <= 0 (beyond the mirror), tending to 1 far
    behind the front.  Peak value 1.8014163538604137.
    """
    th = np.asarray(theta, dtype=float)
    c, s = fresnel(np.maximum(th, 0.0))
    val = np.where(th > 0.0, 2.0 * (np.square(c) + np.square(s)), 0.0)
    return float(val[()]) if val.ndim == 0 else val


def universal_ordinary(theta):
    """Sudden-removal universal profile [(S+1/2)**2 + (C+1/2)**2] / 2.

    Valid for arbitrary theta wherever the counter-propagating component
    is negligible; tends to 0 far ahead of the front and 1 far behind.
    Peak value 1.3704429197031104.
    """
    th = np.asarray(theta, dtype=float)
    c, s = fresnel(th)
    val = 0.5 * (np.square(s + 0.5) + np.square(c + 0.5))
    return float(val[()]) if val.ndim == 0 else val


#: Exact maxima of the two universal curves (independent multiprecision values).
ENHANCED_PEAK = 1.8014163538604137
ORDINARY_PEAK = 1.3704429197031104


@dataclass(frozen=True)
class WidthScalingResult:
    """Fringe widths per evaluation time and the fitted power-law exponent."""

    points: tuple
    exponent: float


def _front_fringe(s: Scenario) -> FringeStats:
    """Main fringe of the scenario on the scan grid of its fringe window."""
    lo, hi, step = _fringe_window(s)[3]
    n = int(np.ceil((hi - lo) / step)) + 1
    return main_fringe(profile(s, np.linspace(lo, hi, n)))


def fringe_width_scaling(scenario: Scenario, times) -> WidthScalingResult:
    """Main-fringe width at each time plus the least-squares power in t.

    The diffraction fringes of a released beam widen as sqrt(t); the
    fitted exponent of width versus time makes that law testable.
    Requires at least three strictly positive times.
    """
    ts = [float(t) for t in times]
    if len(ts) < 3:
        raise ValueError("need at least 3 times to fit a scaling exponent")
    if any(t <= 0 for t in ts):
        raise ValueError("times must be positive")
    pts = []
    for t in ts:
        s = Scenario(scenario.context, scenario.k, scenario.mirror, t)
        pts.append((t, _front_fringe(s).fringe_width))
    log_t = np.log([p[0] for p in pts])
    log_w = np.log([p[1] for p in pts])
    exponent = float(np.polyfit(log_t, log_w, 1)[0])
    return WidthScalingResult(points=tuple(pts), exponent=exponent)


@dataclass(frozen=True)
class ScanPoint:
    v_over_vk: float
    p_max: float
    visibility: float


def enhancement_scan(v_over_vk, scenario: Scenario) -> list[ScanPoint]:
    """Main-fringe stats across mirror velocities at fixed beam and time.

    Each ratio v/v_k is run as a full moving-mirror profile; the
    scenario supplies context, wavenumber and time (its own mirror law
    is ignored).  Deterministic: results are assembled in input order.
    """
    ratios = [float(r) for r in v_over_vk]
    if any(r <= 0 for r in ratios):
        raise ValueError("velocity ratios must be positive")
    if scenario.time <= 0:
        raise ValueError("enhancement_scan requires scenario.time > 0")
    out = []
    v_k = scenario.v_k
    for r in ratios:
        s = Scenario(
            scenario.context, scenario.k, MirrorLaw.moving(r * v_k), scenario.time
        )
        stats = _front_fringe(s)
        out.append(ScanPoint(v_over_vk=r, p_max=stats.p_max, visibility=stats.visibility))
    return out
