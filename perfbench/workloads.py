"""The three seeded workloads and their per-op output checks.

Each workload builds its inputs from the seed when it is constructed
(part of set-up), runs op ``i`` on input ``i`` through mirrorwave's
public API (``run``, timed) and checks the op's output afterwards
(``check``, untimed).  Ops reach mirrorwave through module attributes
(``mirrorwave.analysis.profile``, ``mirrorwave.cli.main``, ...) at call
time, so a traced run sees them.

Draws cycle through fixed strata (mirror kind, velocity-ratio band, bins
of t) and jitter inside each from the seed, so every run of a given length
holds the same mix and its medians are comparable across seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mirrorwave
import mirrorwave.analysis
import mirrorwave.cli
import mirrorwave.oracle
from mirrorwave import MirrorLaw, PhysicalContext, Scenario

import reference

CTX = PhysicalContext()
CM = 1e-2  # cm/s -> m/s
MS = 1e-3  # ms -> s

# Inputs built at set-up; op i uses input i modulo this count.  It exceeds
# the op count of a 60 s run of the fastest workload.
N_INPUTS = 256

# the c06 bounds
GRID_BOUND = 1e-3
QUADRATURE_BOUND = 1e-4


@dataclass(frozen=True)
class Outcome:
    """Result of one op's output check."""

    failure: str | None = None
    points: int = 0  # density points the op's caller asked for
    rows: int = 0  # CSV data rows the op wrote
    max_abs_err: float | None = None  # worst |density difference| against an oracle


def fringe_scale(t: float) -> float:
    return math.sqrt(math.pi * CTX.hbar * t / CTX.mass)


def in_fringe_regime(vk: float, v: float | None, t: float) -> bool:
    """The beam front lies ten fringes out, and a slower mirror leaves
    k (v_k - v) t >= 50 between reflected front and mirror (as in c07)."""
    if vk * t < 10.0 * fringe_scale(t):
        return False
    return v is None or v >= vk or CTX.wavenumber(vk) * (vk - v) * t >= 50.0


def _sig4(x: float) -> float:
    return float(f"{x:.4g}")


def _draw(rng, slow: bool | None, t_range=(1.0, 100.0)):
    """(v_k cm/s, v cm/s or None, t ms), rounded to 4 digits, in the fringe regime.

    ``slow`` None draws a suddenly removed mirror; otherwise v/v_k comes
    from [0.2, 0.9] (True) or [1.0, 1.5] (False).  v_k is uniform over
    0.1-1 cm/s and t log-uniform.
    """
    for _ in range(10_000):
        vk = _sig4(rng.uniform(0.1, 1.0))
        t = _sig4(10.0 ** rng.uniform(*np.log10(t_range)))
        v = None if slow is None else _sig4(vk * rng.uniform(*((0.2, 0.9) if slow else (1.0, 1.5))))
        if in_fringe_regime(vk * CM, None if v is None else v * CM, t * MS):
            return vk, v, t
    raise RuntimeError("no draw in the fringe regime")


# t bins in bit-reversed order, so that any run of consecutive ops spreads over t
T_BINS = (0, 4, 2, 6, 1, 5, 3, 7)
POOL = 512


def _stratified_draws(rng, kinds, n: int) -> list:
    """n draws cycling through ``kinds``, stratified in t.

    For each kind a pool of fringe-regime draws is sorted by t, and
    successive draws of that kind take one pool element from each t bin
    (equal-probability bins of the drawn distribution) in turn.
    """
    pools = [sorted((_draw(rng, k) for _ in range(POOL)), key=lambda d: d[2])
             for k in kinds]
    out = []
    for i in range(n):
        pool = pools[i % len(kinds)]
        b = T_BINS[(i // len(kinds)) % len(T_BINS)]
        out.append(pool[int((b + rng.random()) / len(T_BINS) * POOL)])
    return out


def scenario(vk_cm: float, v_cm: float | None, t_ms: float) -> Scenario:
    mirror = MirrorLaw.sudden_removal() if v_cm is None else MirrorLaw.moving(v_cm * CM)
    return Scenario(CTX, CTX.wavenumber(vk_cm * CM), mirror, t_ms * MS)


class ClosedForm:
    """Library use: a 2e5-point ``profile`` and its ``main_fringe``."""

    name = "closed_form"
    trace_ops = 6
    points = 200_000
    check_points = 256

    def __init__(self, seed: int, root: Path, tmp: Path):
        rng = np.random.default_rng([seed, 1])
        # mirror kinds in a fixed cycle: sudden, slow, fast
        self.inputs = [scenario(*d) for d in _stratified_draws(rng, (None, True, False), N_INPUTS)]
        self.seed = seed

    def run(self, i: int):
        s = self.inputs[i % N_INPUTS]
        vk, t = s.v_k, s.time
        v = s.mirror.velocity
        hi = (min(v, 1.1 * vk) if v is not None else 1.1 * vk) * t
        xs = np.linspace(-1.5 * vk * t, hi, self.points)
        prof = mirrorwave.analysis.profile(s, xs)
        return prof, mirrorwave.analysis.main_fringe(prof)

    def check(self, i: int, result) -> Outcome:
        prof, _stats = result
        s = prof.scenario
        rng = np.random.default_rng([self.seed, 2, i])
        sub = np.sort(rng.choice(prof.xs.size, self.check_points, replace=False))
        xs = prof.xs[sub]
        err = float(np.max(np.abs(prof.densities[sub] - reference.density(s, xs))))
        if err > reference.tolerance(s, xs):
            return Outcome(f"density differs from the wofz reference by {err:.3e}")
        v = s.mirror.velocity
        if v is not None:
            beyond = v * s.time + fringe_scale(s.time) * np.linspace(1e-3, 5.0, 16)
            if np.any(mirrorwave.analysis.profile(s, beyond).densities != 0.0):
                return Outcome("nonzero density beyond the mirror")
        return Outcome(points=prof.xs.size)


# The four invocations of tests/test_golden.py, pinned here so the
# workload does not change when the test suite does.
GOLDEN = {
    "slow_mirror_profile.csv": "profile --vk 1.0 --v 0.8 --t 10 --xmin -150 --xmax 90 --points 241",
    "component_densities.csv": "components --vk 1.0 --v 0.5 --t 5 --xmin -80 --xmax 60 --points 141",
    "cornu.csv": "cornu --theta-min -3 --theta-max 3 --points 61",
    "visibility.csv": "visibility --vk 1.0 --t 50 --ratio-min 1.2 --ratio-max 5 --ratio-points 6",
}
GOLDEN_POINTS = 241 + 141


def strip_timestamp(text: str) -> str:
    return "\n".join(l for l in text.splitlines() if not l.startswith("# generated"))


def data_rows(path: Path) -> list[str]:
    lines = [l for l in path.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    return lines[1:]


class Figures:
    """CLI use, in-process: one figure bundle plus the golden invocations."""

    name = "figures"
    trace_ops = 1
    profile_points = 200_000
    component_points = 20_000
    ratio_points = 20
    cornu_points = 2001

    def __init__(self, seed: int, root: Path, tmp: Path):
        golden_dir = root / "tests" / "golden"
        self.golden = {n: strip_timestamp((golden_dir / n).read_text(encoding="utf-8"))
                       for n in GOLDEN}
        self.tmp = tmp
        rng = np.random.default_rng([seed, 3])
        self.inputs = []
        for vk, v, t in _stratified_draws(rng, (True, False), N_INPUTS):
            # two beams observed at one time
            vk1, _, vis_t = _draw(rng, None, t_range=(10.0, 100.0))
            vk2, _, _ = _draw(rng, None, t_range=(vis_t, vis_t))
            theta = _sig4(rng.uniform(2.0, 6.0))
            self.inputs.append(self._bundle(vk, v, t, (vk1, vk2), vis_t, theta))

    def _bundle(self, vk, v, t, vis_vk, vis_t, theta) -> list[tuple[str, list[str], int | str]]:
        """(output file, argv, expected data rows or golden file) of each invocation."""
        scen = f"--vk {vk:g} --v {v:g} --t {t:g}".split()
        cmds = [
            ("profile.csv", ["profile", *scen, "--points", str(self.profile_points),
                             "--components"], self.profile_points),
            ("components.csv", ["components", *scen, "--points", str(self.component_points)],
             self.component_points),
            ("visibility.csv", ["visibility", "--vk", ",".join(f"{b:g}" for b in vis_vk),
                                "--t", f"{vis_t:g}",
                                "--ratio-points", str(self.ratio_points)], self.ratio_points),
            ("cornu.csv", ["cornu", "--theta-min", f"{-theta:g}", "--theta-max", f"{theta:g}",
                           "--points", str(self.cornu_points)], self.cornu_points),
        ]
        cmds += [("golden_" + n, argv.split(), n) for n, argv in GOLDEN.items()]
        return [(name, argv + ["--out", str(self.tmp / name)], expected)
                for name, argv, expected in cmds]

    def run(self, i: int):
        return [mirrorwave.cli.main(argv) for _name, argv, _rows in self.inputs[i % N_INPUTS]]

    def check(self, i: int, result) -> Outcome:
        rows = 0
        for (name, argv, expected), rc in zip(self.inputs[i % N_INPUTS], result):
            if rc != 0:
                return Outcome(f"{argv[0]} exited {rc}")
            path = self.tmp / name
            table = data_rows(path)
            if isinstance(expected, str):
                if strip_timestamp(path.read_text(encoding="utf-8")) != self.golden[expected]:
                    return Outcome(f"{expected} differs from tests/golden")
            elif len(table) != expected:
                return Outcome(f"{name}: {len(table)} data rows, expected {expected}")
            rows += len(table)
        return Outcome(points=self.profile_points + self.component_points + GOLDEN_POINTS,
                       rows=rows)


def _stratified(rng, lo: float, hi: float, order) -> np.ndarray:
    """One value in each of len(order) equal bins of [lo, hi], bins taken in ``order``."""
    order = np.asarray(order)
    return lo + (hi - lo) * (order + rng.random(order.size)) / order.size


class Validate:
    """The oracle check: grid and quadrature oracles against the closed form.

    The beam is the 1 cm/s beam of c06, the mirror recedes at v/v_k in
    [0.2, 0.35] and t is log-uniform over 3.5-4 ms.  There every op costs
    about the same, a few seconds, and the grid oracle picks the same grid
    size, so a run's median op is steady across seeds; a faster mirror
    doubles the grid and costs up to 1.6 times as much.  A scan of 60 draws
    of this range found grid errors of at most 4.6e-4 against the c06
    bound of 1e-3.  The margin shrinks at shorter t (8.5e-4 at t = 3.06 ms),
    and at t = 2-2.5 ms the grid oracle exceeds the bound on some draws, a
    known defect of ``default_config`` that ``ValidateShort`` reproduces.
    """

    name = "validate"
    trace_ops = 1
    quadrature_points = 201
    vk = 1.0
    ratio_range = (0.2, 0.35)
    t_range = (3.5, 4.0)
    # velocity-ratio bins, low and high interleaved, in the same order every cycle
    ratio_bins = (0, 3, 1, 4, 2, 5)

    def __init__(self, seed: int, root: Path, tmp: Path):
        rng = np.random.default_rng([seed, 4])
        n = len(self.ratio_bins)
        log_t = np.log10(self.t_range)
        self.inputs = []
        while len(self.inputs) < N_INPUTS:
            ratios = _stratified(rng, *self.ratio_range, self.ratio_bins)
            ts = 10.0 ** _stratified(rng, *log_t, rng.permutation(n))
            self.inputs += [scenario(self.vk, _sig4(r * self.vk), _sig4(t))
                            for r, t in zip(ratios, ts)]

    def run(self, i: int):
        s = self.inputs[i % N_INPUTS]
        oracle = mirrorwave.oracle
        cfg = oracle.default_config(s)
        grid = oracle.evolve_grid(s, cfg)
        xs = np.linspace(*cfg.comparison_window, self.quadrature_points)
        quad = oracle.evolve_quadrature(s, cfg, xs, tolerance=QUADRATURE_BOUND)
        grid_err = oracle.compare(mirrorwave.analysis.profile(s, grid.xs), grid).max_abs_err
        quad_err = oracle.compare(mirrorwave.analysis.profile(s, xs), quad.profile).max_abs_err
        return grid_err, quad_err, quad.flagged

    def check(self, i: int, result) -> Outcome:
        grid_err, quad_err, flagged = result
        err = max(grid_err, quad_err)
        if not grid_err <= GRID_BOUND:
            return Outcome(f"grid oracle error {grid_err:.3e} > {GRID_BOUND:g}", max_abs_err=err)
        if not quad_err <= QUADRATURE_BOUND or flagged:
            return Outcome(f"quadrature error {quad_err:.3e} (flagged={flagged})",
                           max_abs_err=err)
        # the points the caller asks for; the grid oracle picks its own grid
        return Outcome(points=self.quadrature_points, max_abs_err=err)


class ValidateShort(Validate):
    """The validate op at t = 2-2.5 ms and v/v_k in [0.2, 0.9], where the grid
    oracle's error under ``default_config`` reaches past the c06 bound on
    some draws (1.04e-3 at v/v_k = 0.41, t = 2.1 ms).  It reproduces that
    defect and is left out of ``BENCHMARK.json``: a run that draws such a
    case reports ``correct: false`` until the defect is fixed."""

    name = "validate_short"
    ratio_range = (0.2, 0.9)
    t_range = (2.0, 2.5)


WORKLOADS = {w.name: w for w in (ClosedForm, Figures, Validate, ValidateShort)}
