"""Command-line front end: figure-ready CSV data for every library operation.

Subcommands
-----------
profile     density profile of a released beam (plus optional per-term columns)
components  formal densities of the four Moshinsky terms, forbidden region included
cornu       Fresnel/Cornu universal representation of the beam profiles
visibility  fringe visibility and peak height versus mirror/beam velocity ratio
oracle      numerical cross-validation run; exit status reports pass/fail

All numeric flags use lab units (cm/s, ms, um) matching the figure
captions; files carry a comment-prefixed manifest with both lab and SI
values.  Output is deterministic: identical flags produce byte-identical
files apart from the timestamp header line.

Exit codes: 0 success, 1 usage/configuration error or no resolvable fringe
(``AnalysisError``), 2 numerical-validation failure.  The parser declares
the per-flag rules, commands raise ValueError for cross-flag ones, and
``main`` is the one map from exceptions to exit codes and stderr prefixes.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from contextlib import nullcontext
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import analysis
from .oracle import (
    OracleConfigError,
    OracleNumericalError,
    compare,
    default_config,
    evolve_grid,
    evolve_quadrature,
)
from .physics import (
    SPECIES_MASSES,
    MirrorKind,
    MirrorLaw,
    PhysicalContext,
    Scenario,
    from_si,
    to_si,
)
from .waves import critical_points, psi_moving

FORMAT_VERSION = 1
# CSV rows are formatted and written this many at a time
_BLOCK_ROWS = 4096


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # read "-1.5e2" as a value, as argparse already reads "-150" and "-1.5"
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # usage errors must exit 1 (argparse defaults to 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


# Tables of the "%.12g" cell formatter.  Byte k of a uint64 word is its kth
# character; NUL bytes are padding that is dropped from the finished text.
_U8, _U32, _U56, _MINUS = np.uint64(8), np.uint64(32), np.uint64(56), np.uint64(ord("-"))
_DIGITS = np.ix_(*[np.arange(10)] * 4)  # the digits of 0 ... 9999, by place
# the ASCII of each zero-padded group of 4 digits, as one word
_GROUP = sum((d + ord("0")).astype(np.uint64) << np.uint64(8 * k) for k, d in enumerate(_DIGITS))
_GROUP = _GROUP.ravel()
# for group j = 0, 1, 2 of the 12 digits: the digits up to its last nonzero
# one, counted from the first of the 12 (0 for the group 0000)
_last = np.max(np.broadcast_arrays(*[(d > 0) * (k + 1) for k, d in enumerate(_DIGITS)]), 0)
_SIG = np.where(_last.ravel() > 0, _last.ravel() + [[0], [4], [8]], 0)


def _split(values) -> np.ndarray:
    """16-byte integers as (low words, high words)."""
    return np.array([(v & (2**64 - 1), v >> 64) for v in values], dtype=np.uint64).T


def _words(texts) -> np.ndarray:
    return np.frombuffer(b"".join(t.encode().ljust(8, b"\0") for t in texts), "<u8")


_KEEP = _split((1 << 8 * k) - 1 for k in range(14))  # the first k bytes of 16
_DOT = _split(ord(".") << 8 * p if p else 0 for p in range(13))  # "." as byte p; none at 0
# By decimal exponent X = -13 ... 36, at index X + 13: the power of ten that
# scales |x| to 12 integer digits (NaN where it is not exact, |11 - X| > 22),
# the text before the digits (byte 0 is the sign's) and after them, and the
# digits before the point (0 when the point is in the prefix).  Index 0 is zero's.
_XS = range(-13, 37)
_TEN = np.array([float(10 ** abs(11 - x)) if abs(11 - x) <= 22 else np.nan for x in _XS])
_UP, _DOWN = np.where(np.array(_XS) <= 11, _TEN, 1.0), np.where(np.array(_XS) > 11, _TEN, 1.0)
_PREFIX = _words("\0" + ("0." + "0" * (-1 - x) if -4 <= x < 0 else "0" * (x == -13)) for x in _XS)
_SUFFIX = _words("" if x == -13 or -4 <= x < 12 else f"e{x:+03d}" for x in _XS)
_POINT = np.array([x + 1 if 0 <= x < 12 else 0 if x == -13 or -4 <= x < 0 else 1 for x in _XS])


def _format_rows(block: np.ndarray) -> str:
    """The rows of a 2-D float block as "%.12g" cells, comma-separated, one line each."""
    x = block.ravel()
    a = np.abs(x)
    fast = np.isfinite(a) & (a > 0)
    a = np.where(fast, a, 1.0)
    e = np.clip(np.floor(np.log10(a)), -12, 35).astype(np.intp) + 13
    m = a * _UP[e] / _DOWN[e]  # correctly rounded |x| * 10**(11 - X)
    n = np.rint(m)
    # m is within half an ulp, 6.2e-5, of the exact product, so n is its
    # 12-digit rounding once m lies clear of the half-way point; X is right
    # only if m has 12 integer digits (log10 misses by one for about one
    # value in a million, just below a power of ten)
    fast &= (np.abs(m - n) <= 0.4997) & (m >= 1e11) & (m < 1e12)
    carry = fast & (n >= 1e12)  # rounded up into the next decade: 1e11 * 10**(X + 1)
    e = np.where(fast, e + carry, 0)  # zeros and fallback cells take zero's layout
    i = np.where(fast, np.where(carry, 1e11, n), 0).astype(np.intp)
    g0, g1, g2 = i // 10**8, i // 10**4 % 10**4, i % 10**4
    lo, hi = _GROUP[g0] | _GROUP[g1] << _U32, _GROUP[g2]
    # splice the point in as byte p; the bytes behind it move up by one
    p = _POINT[e]
    head_lo, head_hi = _KEEP[0][p], _KEEP[1][p]
    tail = lo & ~head_lo
    hi = (hi & head_hi) | (hi & ~head_hi) << _U8 | tail >> _U56 | _DOT[1][p]
    lo = (lo & head_lo) | tail << _U8 | _DOT[0][p]
    # keep the digits up to the last nonzero one, and the point only before one
    nd = np.maximum(np.maximum(_SIG[0][g0], _SIG[1][g1]), _SIG[2][g2])
    keep = np.where(nd > p, nd + 1, p)
    sep = np.full(block.shape, ord(","), np.uint64)
    sep[:, -1] = ord("\n")
    sep = sep.ravel() << _U56
    cells = np.stack([np.signbit(x) * _MINUS | _PREFIX[e], lo & _KEEP[0][keep],
                      hi & _KEEP[1][keep], _SUFFIX[e] | sep], axis=1).astype("<u8", copy=False)
    # zeros are done; non-finite values, X out of reach of the exact powers of
    # ten and uncertain roundings take Python's own "%.12g"
    slow = np.flatnonzero(~fast & (x != 0))
    if slow.size:
        text = b"".join(("%.12g" % v).encode().ljust(24, b"\0") for v in x[slow].tolist())
        cells[slow, :3] = np.frombuffer(text, "<u8").reshape(-1, 3)
        cells[slow, 3] = sep[slow]
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def _write_table(path: str, command: str, params: dict, table: dict) -> None:
    """Write a manifest header and ``table`` as CSV, to ``path`` or stdout for "-".

    ``table`` maps each column name, in output order, to an equal-length 1-D
    array.  Rows are stacked per block of _BLOCK_ROWS from the named columns,
    so no full float table is built, and each cell reads exactly as
    f"{x:.12g}".  ``_format_rows`` builds that text with numpy: it rounds
    |x| * 10**(11 - X) to 12 digits, where X is the decimal exponent, and
    lays out sign, digits, point and exponent as the "%g" rules ask.  A
    cell falls back to Python's "%.12g" when the value is not finite, when
    10**(11 - X) is not an exact double (X < -11 or X > 33), when the
    scaled value lies within 3e-4 of a rounding tie, or when log10 missed X.
    """
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    head = [
        f"# mirrorwave {command} (format_version = {FORMAT_VERSION})",
        f"# generated = {stamp}",
    ]
    head += [f"# {key} = {_fmt(value)}" for key, value in params.items()]
    head.append(",".join(table))
    columns = list(table.values())
    if len({len(c) for c in columns}) != 1:
        raise ValueError("table columns must be equal-length")
    with nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(head) + "\n")
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            block = np.column_stack([c[start : start + _BLOCK_ROWS] for c in columns])
            fh.write(_format_rows(block.astype(float, copy=False)))


def _component_columns(wc) -> dict:
    return {f"m{i}_abs2": np.abs(m) ** 2 for i, m in enumerate((wc.m1, wc.m2, wc.m3, wc.m4), 1)}


def _count(text: str) -> int:
    """argparse type: an integer >= 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1 (got {n})")
    return n


def _finite(text: str) -> float:
    """argparse type: a finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite (got {text})")
    return value


def _positive(text: str) -> float:
    """argparse type: a finite float > 0."""
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0 (got {text})")
    return value


def _non_negative(text: str) -> float:
    """argparse type: a finite float >= 0."""
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (got {text})")
    return value


def _velocity_list(text: str) -> list:
    """argparse type: a non-empty comma-separated list of distinct velocities (cm/s).

    Velocities are distinct when their column tags, ``_fmt(v)``, differ.
    """
    vks = [float(v) for v in text.split(",") if v]
    if not vks:
        raise argparse.ArgumentTypeError("expects a comma-separated list of cm/s values")
    tags = [_fmt(v) for v in vks]
    repeated = sorted({tag for tag in tags if tags.count(tag) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(f"repeats velocity {', '.join(repeated)}")
    return vks


def _context(args) -> PhysicalContext:
    return PhysicalContext(mass=SPECIES_MASSES[args.species], species_label=args.species)


def _mirror_law(args) -> MirrorLaw:
    # the parser admits exactly one of --v, --sudden, --static
    if args.v is not None:
        return MirrorLaw.moving(to_si(args.v, "cm/s"))
    return MirrorLaw.sudden_removal() if args.sudden else MirrorLaw.static()


def _scenario(args) -> Scenario:
    ctx = _context(args)
    k = ctx.wavenumber(to_si(args.vk, "cm/s"))
    return Scenario(ctx, k, _mirror_law(args), to_si(args.t, "ms"))


def _scenario_params(s: Scenario) -> dict:
    p = {
        "species": s.context.species_label,
        "mass_kg": s.context.mass,
        "hbar_Js": s.context.hbar,
        "k_per_m": s.k,
        "vk_cm_per_s": from_si(s.v_k, "cm/s"),
        "t_ms": from_si(s.time, "ms"),
        "mirror": s.mirror.kind.value,
    }
    if s.mirror.kind is MirrorKind.MOVING:
        p["v_cm_per_s"] = from_si(s.mirror_velocity, "cm/s")
        cp = critical_points(s)
        p["x_minus_um"] = from_si(cp.x_minus, "um")
        p["x_plus_um"] = from_si(cp.x_plus, "um")
        p["x_mirror_um"] = from_si(cp.x_mirror, "um")
    if s.mirror.kind is not MirrorKind.STATIC:
        p["front_um"] = from_si(s.front, "um")
    return p


def _grid(args, s: Scenario) -> np.ndarray:
    if (args.xmin is None) != (args.xmax is None):
        raise ValueError("give both --xmin and --xmax or neither")
    if args.xmin is None:
        v_eff = s.mirror_velocity if s.mirror.kind is MirrorKind.MOVING else s.v_k
        lo = -1.5 * s.v_k * s.time
        hi = 1.1 * max(v_eff, s.v_k) * s.time
    else:
        lo, hi = to_si(args.xmin, "um"), to_si(args.xmax, "um")
    if lo > hi or (lo == hi and args.points > 1):
        if args.xmin is None:
            raise ValueError("the default grid spans v_k t = 0; give --xmin/--xmax or --t > 0")
        raise ValueError("need xmin < xmax (or a single point with --points 1)")
    return np.linspace(lo, hi, args.points)


def _add_scenario_flags(p, mirror_required: bool = False):
    p.add_argument("--vk", type=float, required=True, help="beam velocity (cm/s)")
    p.add_argument("--t", type=float, required=True, help="evolution time (ms)")
    p.add_argument("--species", choices=SPECIES_MASSES, default="87Rb", help="beam species")
    if mirror_required:
        p.add_argument("--v", type=float, required=True, help="mirror velocity (cm/s)")
    else:
        mirror = p.add_mutually_exclusive_group(required=True)
        mirror.add_argument("--v", type=float, help="mirror velocity (cm/s)")
        mirror.add_argument("--sudden", action="store_true", help="suddenly removed mirror")
        mirror.add_argument("--static", action="store_true", help="mirror held fixed")


def _add_grid_flags(p):
    p.add_argument("--xmin", type=_finite, help="left grid edge (um)")
    p.add_argument("--xmax", type=_finite, help="right grid edge (um)")
    p.add_argument("--points", type=_count, default=2000, help="grid points (default 2000)")


def cmd_profile(args) -> int:
    if args.components and args.v is None:
        raise ValueError("--components needs a moving mirror (--v)")
    s = _scenario(args)
    xs = _grid(args, s)
    params = _scenario_params(s)
    params["points"] = len(xs)
    if args.components:
        wc = psi_moving(xs, s)
        table = {"x_um": from_si(xs, "um"), "density": np.abs(wc.psi) ** 2}
        table.update(_component_columns(wc))
    else:
        table = {"x_um": from_si(xs, "um"), "density": analysis.profile(s, xs).densities}
    _write_table(args.out, "profile", params, table)
    return 0


def cmd_components(args) -> int:
    s = _scenario(args)
    xs = _grid(args, s)
    wc = psi_moving(xs, s)
    params = _scenario_params(s)
    params["points"] = len(xs)
    params["note"] = "component densities are formal values, forbidden region included"
    table = {"x_um": from_si(xs, "um"), **_component_columns(wc), "density": np.abs(wc.psi) ** 2}
    _write_table(args.out, "components", params, table)
    return 0


def cmd_cornu(args) -> int:
    theta = np.linspace(args.theta_min, args.theta_max, args.points)
    c, s = analysis.universal_enhanced, analysis.universal_ordinary
    # imported when the command runs, so perfbench's trace of specialfn.fresnel counts it
    from .specialfn import fresnel

    cc, ss = fresnel(theta)
    table = {
        "theta": theta,
        "C": cc,
        "S": ss,
        "density_enhanced": c(theta),
        "density_ordinary": s(theta),
    }
    params = {
        "theta_min": float(args.theta_min),
        "theta_max": float(args.theta_max),
        "points": args.points,
    }
    _write_table(args.out, "cornu", params, table)
    return 0


def cmd_visibility(args) -> int:
    if args.ratio_min <= 0 or args.ratio_max < args.ratio_min:
        raise ValueError("need 0 < ratio-min <= ratio-max")
    ratios = np.linspace(args.ratio_min, args.ratio_max, args.ratio_points)
    ctx = _context(args)
    t = to_si(args.t, "ms")
    table = {"v_over_vk": ratios}
    params: dict = {
        "species": args.species,
        "t_ms": float(args.t),
        "ratio_min": float(args.ratio_min),
        "ratio_max": float(args.ratio_max),
    }
    for vk_cm in args.vk:
        k = ctx.wavenumber(to_si(vk_cm, "cm/s"))
        template = Scenario(ctx, k, MirrorLaw.sudden_removal(), t)
        scan = analysis.enhancement_scan(ratios, template)
        tag = _fmt(vk_cm)
        table[f"V_vk{tag}"] = np.array([p.visibility for p in scan])
        table[f"Pmax_vk{tag}"] = np.array([p.p_max for p in scan])
        params[f"vk_cm_per_s_{tag}"] = vk_cm
    _write_table(args.out, "visibility", params, table)
    return 0


# (flag, OracleConfig field, flag unit or None) of each oracle override
_ORACLE_OVERRIDES = (("domain_um", "domain_length", "um"), ("grid_points", "grid_points", None),
                     ("dt_us", "time_step", "us"), ("trunc_um", "truncation_window", "um"))


def cmd_oracle(args) -> int:
    s = _scenario(args)
    if (args.window_lo is None) != (args.window_hi is None):
        raise ValueError("give both --window-lo and --window-hi or neither")
    window = None
    if args.window_lo is not None:
        window = (to_si(args.window_lo, "um"), to_si(args.window_hi, "um"))
    overrides = {field: value if unit is None else to_si(value, unit)
                 for flag, field, unit in _ORACLE_OVERRIDES
                 if (value := getattr(args, flag)) is not None}
    cfg = replace(default_config(s, comparison_window=window), **overrides)
    if args.oracle == "grid":
        oracle_prof = evolve_grid(s, cfg)
        trunc_note = {}
    else:
        xs = np.linspace(cfg.comparison_window[0], cfg.comparison_window[1], args.points)
        qr = evolve_quadrature(s, cfg, xs, tolerance=args.tolerance)
        oracle_prof = qr.profile
        trunc_note = {
            "max_truncation_estimate": float(np.max(qr.truncation_estimate)),
            "truncation_flagged": qr.flagged,
        }

    ana = analysis.profile(s, oracle_prof.xs)
    rep = compare(ana, oracle_prof)
    params = _scenario_params(s)
    params.update(
        {
            "oracle": args.oracle,
            "domain_length_m": cfg.domain_length,
            "grid_points": cfg.grid_points,
            "time_step_s": cfg.time_step,
            "truncation_window_m": cfg.truncation_window,
            "window_lo_um": from_si(cfg.comparison_window[0], "um"),
            "window_hi_um": from_si(cfg.comparison_window[1], "um"),
            "tolerance": args.tolerance,
            "max_abs_err": rep.max_abs_err,
            "rms_err": rep.rms_err,
        }
    )
    params.update(trunc_note)
    passed = rep.max_abs_err <= args.tolerance and not trunc_note.get(
        "truncation_flagged", False
    )
    params["validation"] = "pass" if passed else "fail"
    table = {
        "x_um": from_si(oracle_prof.xs, "um"),
        "density_analytic": ana.densities,
        "density_oracle": oracle_prof.densities,
        "abs_error": np.abs(ana.densities - oracle_prof.densities),
    }
    _write_table(args.out, "oracle", params, table)
    print(rep.report)
    return 0 if passed else 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="mirrorwave", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="density profile data file")
    _add_scenario_flags(p)
    _add_grid_flags(p)
    p.add_argument("--components", action="store_true", help="include per-term densities")
    p.add_argument("--out", required=True, help="output CSV path ('-' for stdout)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("components", help="densities of the four Moshinsky terms")
    _add_scenario_flags(p, mirror_required=True)
    _add_grid_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("cornu", help="universal Cornu-spiral representation")
    p.add_argument("--theta-min", type=_finite, default=-3.0)
    p.add_argument("--theta-max", type=_finite, default=3.0)
    p.add_argument("--points", type=_count, default=601)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cornu)

    p = sub.add_parser("visibility", help="fringe visibility vs velocity ratio")
    p.add_argument(
        "--vk", type=_velocity_list, required=True, help="comma-separated beam velocities (cm/s)"
    )
    p.add_argument("--t", type=float, required=True, help="evolution time (ms)")
    p.add_argument("--species", choices=SPECIES_MASSES, default="87Rb")
    p.add_argument("--ratio-min", type=_finite, default=1.1)
    p.add_argument("--ratio-max", type=_finite, default=10.0)
    p.add_argument("--ratio-points", type=_count, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_visibility)

    p = sub.add_parser("oracle", help="validate the analytic solution numerically")
    _add_scenario_flags(p)
    p.add_argument("--oracle", choices=("grid", "quadrature"), required=True)
    p.add_argument("--tolerance", type=_positive, required=True, help="max abs density error")
    p.add_argument("--window-lo", type=_finite, help="comparison window left edge (um)")
    p.add_argument("--window-hi", type=_finite, help="comparison window right edge (um)")
    p.add_argument("--domain-um", type=_positive, help="override grid-oracle domain length (um)")
    p.add_argument("--grid-points", type=int, help="override grid intervals N")
    p.add_argument("--dt-us", type=_positive, help="override time step (microseconds)")
    p.add_argument("--trunc-um", type=_non_negative, help="override quadrature support depth (um)")
    p.add_argument("--points", type=_count, default=201, help="quadrature evaluation points")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 1 on a usage error (_Parser.error)
        return exc.code
    try:
        return args.func(args)
    except OracleConfigError as exc:
        print(f"oracle configuration rejected: {exc}", file=sys.stderr)
        return 1
    except (ValueError, analysis.AnalysisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OracleNumericalError as exc:
        print(f"oracle numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
