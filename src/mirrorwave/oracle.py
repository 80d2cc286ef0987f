"""Independent numerical validation of the analytic wave solutions.

Two oracles, deliberately different from the closed-form route:

``evolve_grid``
    Evolves the initial standing wave on a grid in the mirror's rest
    frame, where the wall is static.  The transformation multiplies the
    initial state by the Galilean phase exp(-i m v y / hbar) and maps
    back through x = y + v t (densities are frame-invariant under the
    inverse phase).  Space is discretized in the exact Dirichlet sine
    eigenbasis of the boxed domain [-L, 0] (spectral collocation on N
    grid intervals), and time uses the Crank-Nicolson step

        psi^{n+1} = (1 - i w dt/2) / (1 + i w dt/2) psi^n   per mode,

    an implicit, unconditionally stable, norm-preserving (unitary to
    round-off) scheme that is second order in dt.  The n-step product is
    applied in its exact closed form exp(-2i n atan(w dt/2)), so a run
    costs two transforms whatever the step count; the norm is checked in
    real space after the inverse transform.  The per-mode phase error
    (w dt)**2/12 per step dominates the error budget, giving the clean
    dt**2 convergence the validation tests probe.

``evolve_quadrature``
    Direct panel quadrature of the superposition integral over the
    truncated initial support [-W, 0] with the free or moving-wall
    propagator.  Panels are equal and sized so the integrand phase varies
    at most 4 pi per panel (Gauss-Legendre, 16 nodes, which integrates
    e^{i w s} over such a panel to 3.6e-20 of the panel mass in exact
    arithmetic, against 1e-29 at 2 pi and 1.1e-14 at 6 pi; 8 nodes on
    panels of pi/2 err 2.3e-20 with four times the nodes).  The integrand
    is factored once (``_Kernel``) into a row phase, exponentials
    e^{+-2i alpha z x'} of the mirror-frame point z = x - v t, and a
    column phase.  The panel sum splits every node into the left edge of
    its group of 16 panels plus an offset within the group, and each phase
    into the matching two parts (two-level angle addition), so it
    evaluates trig per (point, group) and per (point, offset) but none per
    (point, node); the rest is real matrix products over cache-sized
    blocks of points and groups.  The discarded tail (-inf, -W] of the
    semi-infinite beam decays only algebraically (a hard-edge diffraction
    tail ~ 1/distance), far too slowly for simple truncation at any
    feasible W.  The same factors expand there into quadratic-phase terms
    e^{i(alpha x'^2 + kappa x')}, and each term's half-line integral is a
    Fresnel integral, completed exactly on ``scipy.special.wofz`` (not on
    the package's own Faddeeva kernel, which the oracle validates).  The
    reported estimate bounds the rounding of the panel sum and of the
    completed tail.

Each oracle forms the mirror-frame initial boost e^{-i m v y / hbar} in
float64 within its own route (``np.exp`` in ``evolve_grid``, the column
phase alpha x'^2 - beta x' in ``_panel_sum``); the long-double lab-frame
boost ``waves._boost`` would make a validation run ~6% slower.

The ``OracleConfig`` guards keep both oracles honest: the domain must be
deep enough that the artificial left edge cannot influence the
comparison window, and the time step small enough that per-step phases
stay in the accurate regime.

Grids are sorted, so the comparison window of ``evolve_grid`` and the
regions of ``compare`` are cut from them by sorted search
(``np.searchsorted``) as slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.fft import dst, idst
from scipy.special import wofz

from .analysis import DensityProfile, _grid
from .physics import MirrorKind, Scenario, evolution_time
from .waves import _boost, _chirp, initial_state, stream_regions

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# the panel sum takes the panels in groups of _GROUP (256 nodes), so its
# trig runs per (point, group) and per (point, node offset in a group)
_GROUP = 16
# the panel sum works through blocks of rows and groups in work buffers of
# at most _BLOCK_SIZE doubles (512 KiB) each, small enough to stay in a
# core's L2 cache, so its work memory does not grow with the panel count
_BLOCK_SIZE = 1 << 16
# the most panels a quadrature run may take (2**30 nodes): default
# configurations need at most ~1.6e5 (v_k 1 cm/s, v 3 cm/s, t 100 ms), so
# this leaves ~400x headroom
_MAX_PANELS = 1 << 26
# the most grid intervals a grid run may take: default configurations need
# at most 2**22 over v_k 0.1-1 cm/s, t 1-100 ms and v <= 1.5 v_k (2**24 at
# v = 3 v_k, t 100 ms, and 3 * 2**23 past the cap at v = 3.5 v_k); a run
# holds ~90 bytes per interval, ~1.5 GB at the cap
_MAX_GRID_POINTS = 1 << 24


class OracleConfigError(ValueError):
    """Configuration violates a causality/accuracy guard; message suggests fixes."""


class OracleNumericalError(RuntimeError):
    """The run itself failed a numerical health check (norm drift)."""


@dataclass(frozen=True)
class OracleConfig:
    """Numerical parameters shared by both oracles.

    domain_length      grid-oracle box [-L, 0] in the mirror frame (m)
    grid_points        number of grid intervals N (N-1 interior points)
    time_step          requested Crank-Nicolson step (s); the run uses
                       t / ceil(t / time_step) so the horizon is exact
    truncation_window  quadrature support [-W, 0] (m)
    comparison_window  (x_lo, x_hi) lab-frame interval for reporting
    """

    domain_length: float
    grid_points: int
    time_step: float
    truncation_window: float
    comparison_window: tuple

    def __post_init__(self):
        if not (math.isfinite(self.domain_length) and self.domain_length > 0):
            raise ValueError("domain_length must be > 0")
        if self.grid_points < 8:
            raise ValueError(f"grid_points must be >= 8 (got {self.grid_points})")
        if not (math.isfinite(self.time_step) and self.time_step > 0):
            raise ValueError("time_step must be > 0")
        if not (math.isfinite(self.truncation_window) and self.truncation_window >= 0):
            raise ValueError("truncation_window must be >= 0")
        lo, hi = self.comparison_window
        if not lo < hi:
            raise ValueError("comparison_window must satisfy x_lo < x_hi")


def _check_wall(scenario: Scenario, x: float, what: str) -> None:
    """Raise ``OracleConfigError`` if x lies beyond a static or moving wall.

    The slack 1e-12 |wall| + 1e-18 m absorbs the rounding of a wall position given in um.
    """
    if scenario.mirror.kind is not MirrorKind.SUDDEN_REMOVAL:
        wall = scenario.mirror_position
        if x - wall > 1e-12 * abs(wall) + 1e-18:
            raise OracleConfigError(f"{what} beyond the mirror position {wall:.6g} m")


class _Scales(NamedTuple):
    """The scales of a scenario that the oracles read, formed once by ``_scales``.

    t          evolution time
    v          lab-frame wall speed: v for a moving mirror, 0 for a static
               or removed one
    beta       wall-frame wavenumber shift m v / hbar
    spread     Moshinsky spread sqrt(hbar t / m)
    band       k + |beta|: the standing wave maps to wavenumbers k - beta
               and -(k + beta) in the wall frame
    k_occ      largest wavenumber the beam carries in the wall frame, band +
               10 / spread; the spread margin covers the transient edge
               content that matters at the comparison tolerances
    omega_occ  its kinetic phase rate hbar k_occ^2 / 2m
    """

    t: float
    v: float
    beta: float
    spread: float
    band: float
    k_occ: float
    omega_occ: float


def _scales(scenario: Scenario) -> _Scales:
    """The oracle scales of ``scenario``; a time that no oracle can evolve to
    raises ``OracleConfigError`` (``physics.evolution_time``)."""
    ctx = scenario.context
    t = evolution_time(scenario.time, ctx, "oracle evolution", OracleConfigError)
    v = scenario.mirror_velocity if scenario.mirror.kind is MirrorKind.MOVING else 0.0
    beta = ctx.wavenumber(v)
    spread = math.sqrt(ctx.hbar * t / ctx.mass)
    band = scenario.k + abs(beta)
    k_occ = band + 10.0 / spread
    return _Scales(t, v, beta, spread, band, k_occ, ctx.hbar * k_occ * k_occ / (2.0 * ctx.mass))


def _steps(t: float, time_step: float) -> tuple[int, float]:
    """The run's Crank-Nicolson steps: n = ceil(t / time_step), at least 1, of t / n each."""
    ratio = t / time_step
    if ratio == math.inf:
        raise OracleConfigError(
            f"the step count t / time_step overflows at t = {t:.6g} s, time_step ="
            f" {time_step:.6g} s; give a shorter time (CLI: --t) or a larger step (CLI: --dt-us)"
        )
    n = max(math.ceil(ratio), 1)
    return n, t / n


def validate_config(scenario: Scenario, config: OracleConfig) -> None:
    """Check the causality, wall and step-size guards, raising with suggestions."""
    sc = _scales(scenario)
    x_lo, x_hi = config.comparison_window
    reach = (scenario.v_k + abs(sc.v)) * sc.t + 10.0 * sc.spread
    needed = abs(x_lo) + reach
    if config.domain_length - abs(x_lo) <= reach:
        raise OracleConfigError(
            "domain too shallow: influence of the artificial far wall can reach "
            f"the comparison window; need domain_length > {needed:.6g} m "
            f"(got {config.domain_length:.6g})"
        )
    _check_wall(scenario, x_hi, "comparison window extends")
    if config.time_step * sc.omega_occ >= 0.1:
        raise OracleConfigError(
            "time step too coarse: dt * (max kinetic phase rate) must stay "
            f"below 0.1 rad per step; need time_step < {0.1 / sc.omega_occ:.6g} s "
            f"(got {config.time_step:.6g})"
        )


def default_config(scenario: Scenario, comparison_window: tuple | None = None) -> OracleConfig:
    """A configuration that satisfies the guards with comfortable margins."""
    ctx = scenario.context
    sc = _scales(scenario)
    t, v, spread = sc.t, sc.v, sc.spread
    kind = scenario.mirror.kind
    v_k = scenario.v_k
    if comparison_window is None:
        if kind is MirrorKind.MOVING:
            if v <= -0.5 * v_k:
                raise OracleConfigError(
                    f"a mirror approaching at v <= -v_k/2 (v = {v:.6g} m/s, v_k = {v_k:.6g} m/s)"
                    " leaves the default comparison window (-v_k t/2, v t) empty; give"
                    " comparison_window (CLI: --window-lo and --window-hi) with x_hi <= v t"
                )
            comparison_window = (-0.5 * scenario.front, scenario.mirror_position)
        elif kind is MirrorKind.STATIC:
            comparison_window = (-(scenario.front + 20.0 * spread), 0.0)
        else:
            comparison_window = (-scenario.front, 1.05 * v_k * t)
    x_lo, x_hi = comparison_window
    # Crank-Nicolson phase budget: the fastest modes belong to the
    # counter-propagating component, whose amplitude inside the window
    # falls off as the Moshinsky tail beyond x_minus = -v_k t; scale the
    # tolerable phase error accordingly
    dist = x_lo + scenario.front
    if dist <= 0:
        amp_fast = 1.0
    else:
        z_tail = dist / (math.sqrt(2.0) * spread)
        amp_fast = min(1.0, 1.0 / (2.0 * math.sqrt(np.pi) * z_tail))
    phase_budget = min(5e-3, max(2.5e-4, 1e-3 / (4.0 * amp_fast)))
    # the budget's rate t omega**3, with omega = hbar band**2 / 2m, must be a
    # positive finite float (Python's float ** raises where it overflows)
    slower = "a slower beam (CLI: --vk" + (" or --v)" if kind is MirrorKind.MOVING else ")")
    try:
        rate = t * (ctx.hbar * sc.band**2 / (2.0 * ctx.mass)) ** 3
    except OverflowError:
        rate, fix = math.inf, slower
    else:
        fix = "a faster beam (CLI: --vk)" if rate == 0 else f"a shorter time (CLI: --t) or {slower}"
    if not 0 < rate < math.inf:
        what = "underflows to 0 at" if rate == 0 else f"overflows at t = {t:.6g} s,"
        raise OracleConfigError(
            f"the phase budget is undefined: t * omega**3 {what} v_k = {v_k:.6g} m/s; give {fix}"
        )
    dt_budget = math.sqrt(12.0 * phase_budget / rate)
    dt = min(dt_budget, 0.05 / sc.omega_occ, t)
    # the artificial far edge sheds an algebraically decaying wave (the
    # initial state's curvature jump there); five ballistic reaches keep
    # its residue well below the 1e-3 comparison scale.  Its high-q part
    # travels at the Crank-Nicolson group velocity, which peaks at
    # 3**0.75 / 2 * sqrt(hbar / (m dt)) and piles up into a caustic front
    # there; the domain must also keep that front out of the window.
    dt_run = _steps(t, dt)[1]
    v_front = 0.5 * 3.0**0.75 * math.sqrt(ctx.hbar / (ctx.mass * dt_run))
    reach = max(5.0 * (v_k + abs(v)), abs(v) + v_front) * t
    big_l = abs(x_lo) + reach + 40.0 * spread
    # N is the smallest 2**j or 3 * 2**j above the resolution floor, and at
    # least 1024: a type-I DST of N intervals runs as an FFT of length 2N,
    # and two lengths per octave cut the overshoot from up to 2x to 1.5x
    floor = int(big_l * 6.0 * sc.k_occ / np.pi)
    n = 1 << max(floor.bit_length(), 10)
    if 3 * (n >> 2) > max(floor, 1023):
        n = 3 * (n >> 2)
    # the quadrature tail beyond -W is completed exactly, so W needs no
    # decay margin; it places every window point's stationary points inside
    # the panel-summed support [-W, 0], with 60 spreads to spare
    trunc = abs(x_lo) + (2.0 * abs(v) + v_k) * t + 60.0 * spread
    return OracleConfig(
        domain_length=big_l,
        grid_points=n,
        time_step=dt,
        truncation_window=trunc,
        comparison_window=(float(x_lo), float(x_hi)),
    )


def evolve_grid(scenario: Scenario, config: OracleConfig) -> DensityProfile:
    """Mirror-frame grid evolution; lab-frame densities on the window.

    The box length is snapped up to the next multiple of pi/k so the
    truncated standing wave vanishes at the artificial far wall, which
    removes the leading (value-discontinuity) edge artifact; the
    causality guard keeps the rest away from the window.  The n-step
    Crank-Nicolson product rho**n is applied in its exact closed form
    exp(-2i n atan(w dt/2)), one multiply per mode.  The norm of the
    evolved state is checked in real space, after the inverse transform:
    drift beyond 1e-8 from the initial state raises ``OracleNumericalError``.
    More than ``_MAX_GRID_POINTS`` grid intervals raise ``OracleConfigError``
    before any array is allocated.
    """
    if scenario.mirror.kind is MirrorKind.SUDDEN_REMOVAL:
        raise OracleConfigError(
            "the grid oracle requires a wall (static or moving mirror); "
            "validate sudden removal with the quadrature oracle"
        )
    validate_config(scenario, config)
    sc = _scales(scenario)
    ctx = scenario.context
    hbar, m = ctx.hbar, ctx.mass
    k = scenario.k

    half_periods = math.ceil(config.domain_length * k / np.pi)
    big_l = half_periods * np.pi / k
    n = int(config.grid_points)
    if n > _MAX_GRID_POINTS:
        raise OracleConfigError(
            f"grid_points N = {n} is more than {_MAX_GRID_POINTS}; give a smaller N"
            " (CLI: --grid-points) if it still resolves the beam, or validate the"
            " scenario with the quadrature oracle (CLI: --oracle quadrature)"
        )
    dy = big_l / n
    y = -big_l + dy * np.arange(1, n)

    psi0 = initial_state(y, k) * np.exp(-1j * sc.beta * y)
    coef = dst(psi0, type=1)

    q = np.pi * np.arange(1, n) / big_l
    omega = hbar * q * q / (2.0 * m)
    n_steps, dt = _steps(sc.t, config.time_step)
    # (1 - i w dt/2) / (1 + i w dt/2) = exp(-2i atan(w dt/2)), so n steps
    # multiply each mode by exp(-2i n atan(w dt/2))
    coef *= np.exp(-2j * n_steps * np.arctan(0.5 * omega * dt))
    psi_t = idst(coef, type=1)

    drift = abs(float(np.linalg.norm(psi_t)) / float(np.linalg.norm(psi0)) - 1.0)
    if drift > 1e-8:
        raise OracleNumericalError(f"norm drift {drift:.3e} exceeds 1e-8")

    x = y + scenario.mirror_position
    x_lo, x_hi = config.comparison_window
    i, j = np.searchsorted(x, x_lo), np.searchsorted(x, x_hi, side="right")
    if j - i < 2:
        raise OracleConfigError("comparison window contains fewer than 2 grid points")
    return DensityProfile(scenario, x[i:j].copy(), np.abs(psi_t[i:j]) ** 2)


# --- quadrature oracle --------------------------------------------------------

@dataclass(frozen=True)
class QuadratureResult:
    """Quadrature-oracle output plus its error estimate.

    The tail beyond the truncated support is completed exactly, so
    ``truncation_estimate`` is a rounding bound: density-level, per grid
    point, the panel-sum and tail-completion rounding propagated through
    |psi|**2.  ``flagged`` is set when the estimate exceeds the caller's
    tolerance anywhere.
    """

    profile: DensityProfile
    truncation_estimate: np.ndarray
    flagged: bool


class _Kernel(NamedTuple):
    """The superposition integrand K(x_i, x') psi_0(x'), factored.

    With alpha = m / (2 hbar t), beta = m v / hbar and z = x - v t (``scales``
    holds t, v and beta),

        K(x_i, x') psi_0(x') = row_i * sum_s a_s e^{i s 2 alpha z_i x'}
                               * e^{i(alpha x'^2 - beta x')} * 2i sin(k x'),

    where row = pref * boost(x) * e^{i alpha z^2} holds the free-propagator
    prefactor pref and the Galilean boost phase.  The free kernel
    pref e^{i alpha (x - x')^2} of sudden removal (v = 0) is the direct
    term alone, ``modes`` = ((-1, 1),); the moving-wall kernel subtracts
    its image about the wall, ((-1, 1), (+1, -1)).
    """

    alpha: float
    k: float
    z: np.ndarray
    row: np.ndarray
    modes: tuple
    scales: _Scales


def _kernel(scenario: Scenario, xs) -> _Kernel:
    """Factor the superposition integrand at the evaluation points ``xs``."""
    ctx = scenario.context
    sc = _scales(scenario)
    hbar, m, t = ctx.hbar, ctx.mass, sc.t
    alpha = m / (2.0 * hbar * t)
    pref = np.sqrt(m / (2.0 * np.pi * hbar * t)) * np.exp(-0.25j * np.pi)
    if scenario.mirror.kind is MirrorKind.SUDDEN_REMOVAL:
        modes, z = ((-1, 1.0),), xs
    else:
        modes, z = ((-1, 1.0), (1, -1.0)), xs - scenario.mirror_position
    row = pref * _boost(xs, t, sc.v, ctx) * _chirp(z, t, ctx)
    return _Kernel(alpha, scenario.k, z, row, modes, sc)


def _tail(alpha, kappa, b):
    """int_{-inf}^{b} exp(i(alpha x'^2 + kappa x')) dx', exactly, per kappa.

    Completing the square with X = sqrt(alpha) (b + kappa / (2 alpha))
    turns it into the Fresnel integral

        e^{i(alpha b^2 + kappa b)} 1/2 sqrt(pi/alpha) e^{i pi/4} w(-X e^{i pi/4}),

    valid on both sides of the stationary point -kappa / (2 alpha).
    ``kappa`` is an array; returns (values, relative rounding bounds
    4 eps (1 + |alpha b^2 + kappa b| + X^2)): the phase carries eps times
    its size, and below the real axis (X > 0) ``wofz`` rounds
    e^{-z^2} = e^{-i X^2} to eps X^2.
    """
    sqrt_alpha = math.sqrt(alpha)
    x = sqrt_alpha * (b + kappa / (2.0 * alpha))
    phase = alpha * b * b + kappa * b
    rot = np.exp(0.25j * np.pi)
    val = np.exp(1j * phase) * (0.5 * math.sqrt(math.pi) / sqrt_alpha * rot) * wofz(-x * rot)
    return val, 4.0 * np.finfo(float).eps * (1.0 + np.abs(phase) + x * x)


def _panel_sum(kern: _Kernel, w_len: float, n_panels: int):
    """Gauss-Legendre sum of the superposition integral over [-W, 0].

    The support is cut into ``n_panels`` equal panels of 16 nodes each.
    sum_s a_s e^{i s theta} = (sum_s a_s) cos(theta) + i (sum_s s a_s) sin(theta)
    with theta = 2 alpha z_i x', applied to the column factors
    w e^{i(alpha x'^2 - beta x')} 2i sin(k x').  Two-level angle addition
    keeps trig off the (row, node) pairs: the panels are taken in groups of
    ``_GROUP``, every node is x' = base_b + o with base_b the left edge of
    its group and o one of the group's node offsets, and

        cos(G + O) = cos G cos O - sin G sin O,
        sin(G + O) = sin G cos O + cos G sin O,

    with G = 2 alpha z_i base_b and O = 2 alpha z_i o.  The offset sums
    sum_o {cos, sin}(O) col are one real matrix product per block, and the
    group sum is a row-wise dot with cos G and sin G, so trig runs on
    rows x (groups + offsets) instead of rows x nodes.  The column phase
    splits the same way, into alpha b^2 - beta b per group and
    (2 alpha b - beta) o + alpha o^2 per node.  Each factor is evaluated
    directly from its own phase (no recurrence), so no rounding
    accumulates.  Rows and groups are worked in blocks, in preallocated
    buffers of at most ``_BLOCK_SIZE`` doubles each; the nodes past the
    last panel, in the last group, carry zero weight.
    """
    alpha, k, beta = kern.alpha, kern.k, kern.scales.beta
    c_cos = sum(a for _, a in kern.modes)
    c_sin = 1j * sum(s * a for s, a in kern.modes)
    halfw = 0.5 * w_len / n_panels
    n_gl = _GL_NODES.size
    n_off = _GROUP * n_gl
    offs = (halfw * (2.0 * np.arange(_GROUP)[:, None] + 1.0 + _GL_NODES)).ravel()
    alpha_o2 = (alpha * offs * offs)[:, None]
    wts = np.tile(halfw * _GL_WEIGHTS, _GROUP)[:, None]
    n_groups = -(-n_panels // _GROUP)
    group_len = 2.0 * _GROUP * halfw
    z2 = 2.0 * alpha * kern.z

    per = max(1, _BLOCK_SIZE // (2 * n_off))
    rows, groups = min(z2.size, per), min(n_groups, per)
    ph_buf = np.empty(n_off * groups)
    col_buf = np.empty(n_off * groups, dtype=complex)
    trig_buf = np.empty(2 * rows * n_off)
    prod_buf = np.empty(4 * rows * groups)
    cs_buf = np.empty(2 * rows * groups)
    acc = np.zeros(z2.size, dtype=complex)
    for b0 in range(0, n_groups, groups):
        nb = min(groups, n_groups - b0)
        gb = -w_len + group_len * np.arange(b0, b0 + nb)
        ph = ph_buf[: n_off * nb].reshape(n_off, nb)
        col = col_buf[: n_off * nb].reshape(n_off, nb)
        # column factors w e^{i(alpha x'^2 - beta x')} 2i sin(k x')
        np.multiply.outer(offs, 2.0 * alpha * gb - beta, out=ph)
        ph += alpha_o2
        np.cos(ph, out=col.real)
        np.sin(ph, out=col.imag)
        col *= 2j * np.exp(1j * gb * (alpha * gb - beta))
        np.add.outer(offs, gb, out=ph)
        ph *= k
        np.sin(ph, out=ph)
        ph *= wts
        col *= ph
        if b0 + nb == n_groups:
            col[(n_panels - (n_groups - 1) * _GROUP) * n_gl :, nb - 1] = 0.0
        for i0 in range(0, z2.size, rows):
            zi = z2[i0 : i0 + rows]
            r = zi.size
            # cos O stacked over sin O, then sum_o {cos, sin}(O) col as
            # (cos/sin, row, group, re/im)
            trig = trig_buf[: 2 * r * n_off].reshape(2 * r, n_off)
            np.multiply.outer(zi, offs, out=trig[:r])
            np.sin(trig[:r], out=trig[r:])
            np.cos(trig[:r], out=trig[:r])
            prod = prod_buf[: 4 * r * nb].reshape(2 * r, 2 * nb)
            np.matmul(trig, col.view(float), out=prod)
            cs = cs_buf[: 2 * r * nb].reshape(2, r, nb)
            np.multiply.outer(zi, gb, out=cs[0])
            np.sin(cs[0], out=cs[1])
            np.cos(cs[0], out=cs[0])
            # m[j, q, i] = sum_b {cos, sin}_j(G) sum_o {cos, sin}_q(O) col
            m = np.matmul(cs[:, None, :, None, :], prod.reshape(1, 2, r, nb, 2))
            m = m[..., 0, 0] + 1j * m[..., 0, 1]
            acc[i0 : i0 + r] += c_cos * (m[0, 0] - m[1, 1]) + c_sin * (m[1, 0] + m[0, 1])
    return kern.row * acc


def evolve_quadrature(
    scenario: Scenario,
    config: OracleConfig,
    xs,
    tolerance: float | None = None,
) -> QuadratureResult:
    """Superposition-integral oracle on the truncated support [-W, 0].

    Panel Gauss-Legendre quadrature with at most 4 pi of phase variation
    per panel (16 nodes, error 3.6e-20 of the panel mass on e^{i w s}
    there in exact arithmetic) plus the exact completion of the tail
    beyond -W, both read from one factorization of the integrand
    (``_Kernel``).  The reported per-point estimate bounds the rounding of
    both parts; points whose estimate exceeds ``tolerance`` flag the
    result.  An empty ``xs``, points beyond a static or moving mirror
    (past the slack ``validate_config`` also allows) and a support W that
    would need more than ``_MAX_PANELS`` panels raise ``OracleConfigError``;
    an ``xs`` that is not a strictly increasing, finite 1-D grid raises the
    ``ValueError`` of ``DensityProfile``, before any quadrature work.
    """
    ctx = scenario.context
    hbar, m = ctx.hbar, ctx.mass
    w_len = config.truncation_window
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise OracleConfigError("the evaluation grid xs is empty")
    xs = _grid(xs)
    _check_wall(scenario, float(np.max(xs)), "evaluation points lie")

    # panel quadrature over the truncated support [-W, 0]
    kern = _kernel(scenario, xs)
    k, alpha, sc = kern.k, kern.alpha, kern.scales
    t, beta = sc.t, sc.beta
    max_off = float(np.max(np.abs(xs))) + abs(sc.v) * t
    dphi_max = 2.0 * alpha * (max_off + w_len) + sc.band
    h = (4.0 * np.pi) / dphi_max
    panels = w_len / h
    if panels > _MAX_PANELS:
        raise OracleConfigError(
            f"truncation window W = {w_len:.6g} m needs {panels:.3g} quadrature panels,"
            f" more than {_MAX_PANELS}; give a smaller W (CLI: --trunc-um)"
        )
    n_panels = max(int(math.ceil(panels)), 1)
    psi = _panel_sum(kern, w_len, n_panels)

    # round-off floor of the panel sum: it assembles each node's phase
    # from per-group parts, whose magnitudes add up to at most
    # alpha*(|x|+W)**2 + kappa*W radians, and per-offset parts of at most
    # the 64 pi (~200) radians a group spans; each part carries a rounding
    # error of order eps times its own magnitude, so a node's phase error
    # stays within about eps times that bound, as when the phase was formed
    # per node, and maps into amplitude error
    phase_max = alpha * (max_off + w_len) ** 2 + sc.band * w_len
    abs_kernel_mass = 2.0 * np.sqrt(m / (2.0 * np.pi * hbar * t)) * w_len
    n_terms = 2 * len(kern.modes)
    roundoff = np.finfo(float).eps * (1.0 + phase_max) * abs_kernel_mass * n_terms
    est_amp = np.full(xs.shape, roundoff)

    # exact completion of the (-inf, -W] tail: the factored integrand
    # expands into terms row_i * c * e^{i(alpha x'^2 + kappa x')} with
    # kappa = s 2 alpha z_i +- k - beta, each adding its rounding bound
    for s, a in kern.modes:
        for sk, c in ((k, a), (-k, -a)):
            kappa = s * 2.0 * alpha * kern.z + sk - beta
            val, rel = _tail(alpha, kappa, -w_len)
            term = kern.row * c * val
            psi += term
            est_amp += rel * np.abs(term)
    dens = np.abs(psi) ** 2
    est_dens = 2.0 * np.sqrt(dens) * est_amp + est_amp**2

    flagged = bool(tolerance is not None and np.any(est_dens > tolerance))
    prof = DensityProfile(scenario, xs, dens)
    return QuadratureResult(profile=prof, truncation_estimate=est_dens, flagged=flagged)


# --- comparison ----------------------------------------------------------------

@dataclass(frozen=True)
class RegionErrors:
    label: str
    x_lo: float
    x_hi: float
    n_points: int
    max_abs_err: float
    rms_err: float


@dataclass(frozen=True)
class ComparisonReport:
    max_abs_err: float
    rms_err: float
    regions: tuple
    report: str


def compare(a: DensityProfile, b: DensityProfile) -> ComparisonReport:
    """Pointwise density comparison with a per-region error breakdown.

    Requires identical grids; the regions are the half-open [e_i, e_i+1)
    of ``stream_regions``, cut from the sorted grid by one sorted search
    (a point on an edge counts to its right), and those the grid misses
    are left out.
    """
    if not np.array_equal(a.xs, b.xs):
        raise ValueError("density profiles must share an identical grid")
    err = np.abs(a.densities - b.densities)
    max_abs = float(err.max())
    rms = float(np.sqrt(np.mean(err**2)))
    bounds = [-np.inf, *stream_regions(a.scenario)[0], np.inf]
    cuts = np.searchsorted(a.xs, bounds)
    regions = [
        RegionErrors(
            label=f"[{lo:.4g}, {hi:.4g})",
            x_lo=float(a.xs[i]),
            x_hi=float(a.xs[j - 1]),
            n_points=int(j - i),
            max_abs_err=float(err[i:j].max()),
            rms_err=float(np.sqrt(np.mean(err[i:j] ** 2))),
        )
        for lo, hi, i, j in zip(bounds[:-1], bounds[1:], cuts[:-1], cuts[1:])
        if j > i
    ]
    lines = [
        f"points compared: {a.xs.size}",
        f"max abs density error: {max_abs:.6e}",
        f"rms density error: {rms:.6e}",
        "per-region breakdown (edges at classical critical points):",
    ]
    for r in regions:
        lines.append(
            f"  {r.label:>26s}  n={r.n_points:6d}  max={r.max_abs_err:.3e}  rms={r.rms_err:.3e}"
        )
    return ComparisonReport(
        max_abs_err=max_abs, rms_err=rms, regions=tuple(regions), report="\n".join(lines)
    )
