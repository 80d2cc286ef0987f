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
    propagator.  Panels are sized so the integrand phase varies at most
    pi/4 per panel (Gauss-Legendre, 8 nodes).  The propagator is factored
    into a row phase, a real trigonometric matrix of 2 alpha x x' and a
    column phase, so the panel sum is a sum of real matrix products over
    cache-sized blocks of points and nodes.  The discarded tail (-inf, -W]
    of the semi-infinite beam decays only algebraically (a hard-edge
    diffraction tail ~ 1/distance), far too slowly for simple truncation
    at any feasible W, so the tail is completed by the exact
    integration-by-parts series of the non-stationary oscillatory
    integral; the first neglected term is reported as the truncation
    estimate.

The ``OracleConfig`` guards keep both oracles honest: the domain must be
deep enough that the artificial left edge cannot influence the
comparison window, and the time step small enough that per-step phases
stay in the accurate regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.fft import dst, idst

from .analysis import DensityProfile
from .physics import MirrorKind, Scenario
from .waves import critical_points, initial_state

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
# the panel sum works through (rows x nodes) blocks of at most _BLOCK_SIZE
# doubles (1 MiB), small enough to stay in a core's L2 cache, so its work
# buffer does not grow with the panel count
_BLOCK_SIZE = 1 << 17


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
        if self.domain_length <= 0 or self.grid_points < 8 or self.time_step <= 0:
            raise ValueError("domain_length, grid_points, time_step must be positive")
        if self.truncation_window < 0:
            raise ValueError("truncation_window must be >= 0")
        lo, hi = self.comparison_window
        if not lo < hi:
            raise ValueError("comparison_window must satisfy x_lo < x_hi")


def _mirror_speed(scenario: Scenario) -> float:
    if scenario.mirror.kind is MirrorKind.MOVING:
        return scenario.mirror_velocity
    if scenario.mirror.kind is MirrorKind.STATIC:
        return 0.0
    raise OracleConfigError(
        "the grid oracle requires a wall (static or moving mirror); "
        "validate sudden removal with the quadrature oracle"
    )


def _occupied_omega(scenario: Scenario, v: float) -> float:
    """Largest kinetic angular frequency carried by the beam in the wall frame.

    The standing wave maps to wavenumbers k - mv/hbar and -(k + mv/hbar);
    a spread margin of 10 sqrt(m / hbar t) covers the transient edge
    content that matters at the comparison tolerances.
    """
    ctx = scenario.context
    k_max = scenario.k + abs(ctx.wavenumber(v)) + 10.0 / math.sqrt(
        ctx.hbar * scenario.time / ctx.mass
    )
    return ctx.hbar * k_max * k_max / (2.0 * ctx.mass)


def validate_config(scenario: Scenario, config: OracleConfig) -> None:
    """Check the causality and step-size guards, raising with suggestions."""
    if scenario.time <= 0:
        raise OracleConfigError("oracle evolution requires scenario.time > 0")
    ctx = scenario.context
    t = scenario.time
    v = _mirror_speed(scenario) if scenario.mirror.kind is not MirrorKind.SUDDEN_REMOVAL else 0.0
    spread = math.sqrt(ctx.hbar * t / ctx.mass)
    x_lo, x_hi = config.comparison_window
    reach = (scenario.v_k + abs(v)) * t + 10.0 * spread
    needed = abs(x_lo) + reach
    if config.domain_length - abs(x_lo) <= reach:
        raise OracleConfigError(
            "domain too shallow: influence of the artificial far wall can reach "
            f"the comparison window; need domain_length > {needed:.6g} m "
            f"(got {config.domain_length:.6g})"
        )
    if scenario.mirror.kind is MirrorKind.MOVING and x_hi - v * t > 1e-12 * abs(v * t) + 1e-18:
        raise OracleConfigError(
            f"comparison window extends beyond the mirror position {v * t:.6g} m"
        )
    omega = _occupied_omega(scenario, v)
    if config.time_step * omega >= 0.1:
        raise OracleConfigError(
            "time step too coarse: dt * (max kinetic phase rate) must stay "
            f"below 0.1 rad per step; need time_step < {0.1 / omega:.6g} s "
            f"(got {config.time_step:.6g})"
        )


def default_config(scenario: Scenario, comparison_window: tuple | None = None) -> OracleConfig:
    """A configuration that satisfies the guards with comfortable margins."""
    ctx = scenario.context
    t = scenario.time
    if t <= 0:
        raise OracleConfigError("oracle evolution requires scenario.time > 0")
    kind = scenario.mirror.kind
    v = scenario.mirror_velocity if kind is MirrorKind.MOVING else 0.0
    v_k = scenario.v_k
    spread = math.sqrt(ctx.hbar * t / ctx.mass)
    if comparison_window is None:
        if kind is MirrorKind.MOVING:
            comparison_window = (-0.5 * v_k * t, v * t)
        elif kind is MirrorKind.STATIC:
            comparison_window = (-(v_k * t + 20.0 * spread), 0.0)
        else:
            comparison_window = (-v_k * t, 1.05 * v_k * t)
    x_lo, x_hi = comparison_window
    beta = abs(ctx.wavenumber(v))
    omega = ctx.hbar * (scenario.k + beta) ** 2 / (2.0 * ctx.mass)
    # Crank-Nicolson phase budget: the fastest modes belong to the
    # counter-propagating component, whose amplitude inside the window
    # falls off as the Moshinsky tail beyond x_minus = -v_k t; scale the
    # tolerable phase error accordingly
    dist = x_lo + v_k * t
    if dist <= 0:
        amp_fast = 1.0
    else:
        z_tail = dist / (math.sqrt(2.0) * spread)
        amp_fast = min(1.0, 1.0 / (2.0 * math.sqrt(np.pi) * z_tail))
    phase_budget = min(5e-3, max(2.5e-4, 1e-3 / (4.0 * amp_fast)))
    dt_budget = math.sqrt(12.0 * phase_budget / (t * omega**3)) if omega > 0 else t
    dt = min(dt_budget, 0.05 / _occupied_omega(scenario, v), t)
    # the artificial far edge sheds an algebraically decaying wave (the
    # initial state's curvature jump there); five ballistic reaches keep
    # its residue well below the 1e-3 comparison scale.  Its high-q part
    # travels at the Crank-Nicolson group velocity, which peaks at
    # 3**0.75 / 2 * sqrt(hbar / (m dt)) and piles up into a caustic front
    # there; the domain must also keep that front out of the window.
    dt_run = t / math.ceil(t / dt)
    v_front = 0.5 * 3.0**0.75 * math.sqrt(ctx.hbar / (ctx.mass * dt_run))
    reach = max(5.0 * (v_k + abs(v)), abs(v) + v_front) * t
    big_l = abs(x_lo) + reach + 40.0 * spread
    k_occ = scenario.k + beta + 10.0 / spread
    n = 1 << max(int(big_l * 6.0 * k_occ / np.pi).bit_length(), 10)
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
    """
    validate_config(scenario, config)
    ctx = scenario.context
    hbar, m = ctx.hbar, ctx.mass
    t = scenario.time
    v = _mirror_speed(scenario)
    k = scenario.k

    half_periods = math.ceil(config.domain_length * k / np.pi)
    big_l = half_periods * np.pi / k
    n = int(config.grid_points)
    dy = big_l / n
    y = -big_l + dy * np.arange(1, n)

    psi0 = initial_state(y, k) * np.exp(-1j * (m * v / hbar) * y)
    coef = dst(psi0, type=1)

    q = np.pi * np.arange(1, n) / big_l
    omega = hbar * q * q / (2.0 * m)
    n_steps = max(int(math.ceil(t / config.time_step)), 1)
    dt = t / n_steps
    # (1 - i w dt/2) / (1 + i w dt/2) = exp(-2i atan(w dt/2)), so n steps
    # multiply each mode by exp(-2i n atan(w dt/2))
    coef *= np.exp(-2j * n_steps * np.arctan(0.5 * omega * dt))
    psi_t = idst(coef, type=1)

    drift = abs(float(np.linalg.norm(psi_t)) / float(np.linalg.norm(psi0)) - 1.0)
    if drift > 1e-8:
        raise OracleNumericalError(f"norm drift {drift:.3e} exceeds 1e-8")

    x = y + v * t
    dens = np.abs(psi_t) ** 2
    x_lo, x_hi = config.comparison_window
    sel = (x >= x_lo) & (x <= x_hi)
    if sel.sum() < 2:
        raise OracleConfigError("comparison window contains fewer than 2 grid points")
    return DensityProfile(scenario, x[sel], dens[sel])


# --- quadrature oracle --------------------------------------------------------

@dataclass(frozen=True)
class QuadratureResult:
    """Quadrature-oracle output plus its conservative truncation estimate.

    ``truncation_estimate`` is density-level, per grid point: the first
    neglected term of the tail-completion series propagated through
    |psi|**2.  ``flagged`` is set when the estimate exceeds the caller's
    tolerance anywhere.
    """

    profile: DensityProfile
    truncation_estimate: np.ndarray
    flagged: bool


def _components(scenario: Scenario, x: float):
    """Decompose the superposition integrand into quadratic-phase waves.

    Each component is (amplitude, X, sigma, kappa) describing
    amplitude * exp(i [ alpha (X - sigma x')**2 + kappa x' ]) with
    alpha = m / (2 hbar t); the initial sine contributes kappa = +-k and
    the moving-wall kernel its image term and Galilean phase.
    """
    ctx = scenario.context
    hbar, m = ctx.hbar, ctx.mass
    t = scenario.time
    k = scenario.k
    kind = scenario.mirror.kind
    pref = np.sqrt(m / (2.0 * np.pi * hbar * t)) * np.exp(-0.25j * np.pi)
    if kind is MirrorKind.SUDDEN_REMOVAL:
        return [(pref, x, 1.0, k), (-pref, x, 1.0, -k)]
    v = _mirror_speed(scenario)
    beta = m * v / hbar
    y = x - v * t
    # Galilean boost phase e^{i(m/hbar)(v y + v^2 t/2)} and -beta*x' under
    # the integral; the sine splits into +-k exponentials
    gal = pref * np.exp(1j * ((m / hbar) * v * y + 0.5 * beta * v * t))
    comps = []
    for sk, amp_k in ((k, 1.0), (-k, -1.0)):
        comps.append((amp_k * gal, y, 1.0, sk - beta))   # direct
        comps.append((-amp_k * gal, y, -1.0, sk - beta))  # image about the wall
    return comps


def _tail_series(alpha, x_big, sigma, kappa, b, n_terms=4):
    """IBP series of int_{-inf}^{b} exp(i phi) dx' with no stationary point.

    Returns (value, first_neglected_magnitude).  phi' must be bounded
    away from zero on the tail; the caller guards this.
    """
    phi_b = alpha * (x_big - sigma * b) ** 2 + kappa * b
    dphi = -2.0 * alpha * sigma * (x_big - sigma * b) + kappa
    ddphi = 2.0 * alpha
    total = 0.0 + 0.0j
    term = 1.0 / (1j * dphi)
    n = 0
    while True:
        total += term
        nxt = term * (2 * n + 1) * ddphi / (1j * dphi * dphi)
        n += 1
        if n > n_terms or abs(nxt) >= abs(term):
            return np.exp(1j * phi_b) * total, abs(nxt)
        term = nxt


def _panel_sum(scenario: Scenario, xs, nodes, weights):
    """Quadrature sum_j K(x_i, x'_j) w_j psi_0(x'_j) of the superposition integral.

    The kernel factors as row_i * T(2 alpha z_i x'_j) * col_j with real
    trigonometric T.  With beta = m v / hbar and z = x - v t, the
    moving-wall kernel pref * gal * (direct - image) becomes

        -2i pref e^{i(beta z + beta v t/2 + alpha z^2)} sin(2 alpha z x')
            e^{i(alpha x'^2 - beta x')},

    and the free kernel pref e^{i alpha (x - x')^2} becomes
    pref e^{i alpha x^2} [cos - i sin](2 alpha x x') e^{i alpha x'^2}.
    Each block of rows and nodes is evaluated in one preallocated real
    buffer of at most ``_BLOCK_SIZE`` doubles.
    """
    ctx = scenario.context
    hbar, m = ctx.hbar, ctx.mass
    t = scenario.time
    alpha = m / (2.0 * hbar * t)
    pref = np.sqrt(m / (2.0 * np.pi * hbar * t)) * np.exp(-0.25j * np.pi)
    col = weights * 2j * np.sin(scenario.k * nodes)
    if scenario.mirror.kind is MirrorKind.SUDDEN_REMOVAL:
        z = xs
        row = pref * np.exp(1j * alpha * z * z)
        col = col * np.exp(1j * alpha * nodes * nodes)
        terms = ((np.cos, 1.0), (np.sin, -1j))
    else:
        v = _mirror_speed(scenario)
        beta = m * v / hbar
        z = xs - v * t
        row = -2j * pref * np.exp(1j * (beta * z + 0.5 * beta * v * t + alpha * z * z))
        col = col * np.exp(1j * (alpha * nodes * nodes - beta * nodes))
        terms = ((np.sin, 1.0),)
    cols = np.stack([col.real, col.imag], axis=1)

    psi = np.empty(xs.shape, dtype=complex)
    rows = min(xs.size, math.isqrt(_BLOCK_SIZE))
    width = max(1, _BLOCK_SIZE // rows)
    buf = np.empty(rows * min(width, nodes.size))
    for i0 in range(0, xs.size, rows):
        zi = 2.0 * alpha * z[i0 : i0 + rows]
        acc = 0.0
        for trig, c in terms:
            re_im = np.zeros((zi.size, 2))
            for j0 in range(0, nodes.size, width):
                xj = nodes[j0 : j0 + width]
                b = buf[: zi.size * xj.size].reshape(zi.size, xj.size)
                np.multiply.outer(zi, xj, out=b)
                trig(b, out=b)
                re_im += b @ cols[j0 : j0 + width]
            acc = acc + c * (re_im[:, 0] + 1j * re_im[:, 1])
        psi[i0 : i0 + rows] = row[i0 : i0 + rows] * acc
    return psi


def evolve_quadrature(
    scenario: Scenario,
    config: OracleConfig,
    xs,
    tolerance: float | None = None,
) -> QuadratureResult:
    """Superposition-integral oracle on the truncated support [-W, 0].

    Panel Gauss-Legendre quadrature with at most pi/4 of phase variation
    per panel, evaluated with the factored kernel of ``_panel_sum``, plus
    the integration-by-parts completion of the tail beyond -W.  The
    reported per-point truncation estimate is the first neglected
    completion term (conservative for this alternating-type series);
    points whose estimate exceeds ``tolerance`` flag the result.
    """
    if scenario.time <= 0:
        raise OracleConfigError("oracle evolution requires scenario.time > 0")
    ctx = scenario.context
    hbar, m = ctx.hbar, ctx.mass
    t = scenario.time
    w_len = config.truncation_window
    xs = np.asarray(xs, dtype=float)
    alpha = m / (2.0 * hbar * t)
    spread = math.sqrt(hbar * t / m)

    if scenario.mirror.kind is MirrorKind.MOVING and np.any(
        xs > scenario.mirror_velocity * t
    ):
        raise OracleConfigError("evaluation points must not lie beyond the mirror")

    # panel quadrature over the truncated support [-W, 0]
    psi = np.zeros(xs.shape, dtype=complex)
    est_amp = np.zeros(xs.shape)
    if w_len > 0.0:
        comps_probe = _components(scenario, float(np.max(np.abs(xs))))
        max_x = float(np.max(np.abs(xs)))
        v_here = 0.0 if scenario.mirror.kind is MirrorKind.SUDDEN_REMOVAL else _mirror_speed(scenario)
        max_off = max_x + abs(v_here) * t
        kap_max = max(abs(c[3]) for c in comps_probe)
        dphi_max = 2.0 * alpha * (max_off + w_len) + kap_max
        h = (np.pi / 4.0) / dphi_max
        n_panels = max(int(math.ceil(w_len / h)), 1)
        edges = np.linspace(-w_len, 0.0, n_panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        halfw = 0.5 * (edges[1] - edges[0])
        nodes = (mid[:, None] + halfw * _GL_NODES[None, :]).ravel()
        weights = np.broadcast_to(halfw * _GL_WEIGHTS, (n_panels, _GL_NODES.size)).ravel()
        psi = _panel_sum(scenario, xs, nodes, weights)

        # completion of the (-inf, -W] tail, one IBP series per component
        guard = 10.0 * spread
        for i, x in enumerate(xs):
            for amp, x_big, sigma, kappa in _components(scenario, float(x)):
                stat = sigma * (x_big - kappa / (2.0 * alpha))
                if stat - guard <= -w_len:
                    # stationary point too close to (or inside) the tail:
                    # cannot complete; report the raw boundary magnitude
                    est_amp[i] = np.inf
                    continue
                val, neglected = _tail_series(alpha, x_big, sigma, kappa, -w_len)
                psi[i] += amp * val
                est_amp[i] += abs(amp) * neglected

        # round-off floor of the panel sum: each node carries a phase of up
        # to alpha*(|x|+W)**2 + kappa*W radians whose double rounding maps
        # into amplitude error; without this floor the completion term alone
        # would understate the achievable accuracy
        phase_max = alpha * (max_off + w_len) ** 2 + kap_max * w_len
        abs_kernel_mass = 2.0 * np.sqrt(m / (2.0 * np.pi * hbar * t)) * w_len
        n_comp = 2 if scenario.mirror.kind is MirrorKind.SUDDEN_REMOVAL else 4
        roundoff = np.finfo(float).eps * (1.0 + phase_max) * abs_kernel_mass * n_comp
        est_amp += np.where(np.isfinite(est_amp), roundoff, 0.0)
    else:
        est_amp[:] = np.inf

    dens = np.abs(psi) ** 2
    est_dens = np.full(xs.shape, np.inf)
    ok = np.isfinite(est_amp)
    est_dens[ok] = 2.0 * np.sqrt(dens[ok]) * est_amp[ok] + est_amp[ok] ** 2
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


def _region_edges(scenario: Scenario):
    t = scenario.time
    v_k = scenario.v_k
    kind = scenario.mirror.kind
    if kind is MirrorKind.MOVING:
        cp = critical_points(scenario)
        edges = sorted({cp.x_minus, cp.x_plus, cp.x_mirror})
        return edges
    if kind is MirrorKind.SUDDEN_REMOVAL:
        return [-v_k * t, v_k * t]
    return [0.0]


def compare(a: DensityProfile, b: DensityProfile) -> ComparisonReport:
    """Pointwise density comparison with a per-region error breakdown.

    Requires identical grids; regions are bounded by the scenario's
    classical critical points clipped to the common window.
    """
    if not np.array_equal(a.xs, b.xs):
        raise ValueError("density profiles must share an identical grid")
    err = np.abs(a.densities - b.densities)
    max_abs = float(err.max())
    rms = float(np.sqrt(np.mean(err**2)))
    edges = _region_edges(a.scenario)
    bounds = [-np.inf, *edges, np.inf]
    regions = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sel = (a.xs >= lo) & (a.xs < hi)
        if not sel.any():
            continue
        regions.append(
            RegionErrors(
                label=f"[{lo:.4g}, {hi:.4g})",
                x_lo=float(a.xs[sel][0]),
                x_hi=float(a.xs[sel][-1]),
                n_points=int(sel.sum()),
                max_abs_err=float(err[sel].max()),
                rms_err=float(np.sqrt(np.mean(err[sel] ** 2))),
            )
        )
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


def refine(config: OracleConfig, factor: int = 2) -> OracleConfig:
    """Halve the step and double the grid; used by convergence studies."""
    return replace(
        config,
        grid_points=config.grid_points * factor,
        time_step=config.time_step / factor,
    )
