"""In-memory spans around the calls from one mirrorwave layer into another.

The tracer replaces a function at the module binding through which a
caller reaches it (for example ``mirrorwave.waves.faddeeva``, the name
``psi_moving`` looks up) with a wrapper that records a span: name, start,
end, parent span and per-call counters.  No file under ``src/`` changes.
A binding that does not exist in the program under test is listed as
absent instead of raising, so the benchmark still runs after a later
change removes or renames a function.

Spans are kept in memory; ``per_layer_metrics`` turns the spans of one
pass into the per-layer metrics, and ``write_spans`` stores them at the
end of the run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start_ns: int
    end_ns: int = 0
    failed: bool = False
    hook_ns: int = 0  # time spent in the counter hooks, inside the parent span
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans while ``enabled``; passes calls straight through otherwise."""

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    def wrap(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Trace ``module.attr`` under span ``name``.

        ``before(args, kwargs)`` returns counters known from the inputs;
        ``after(args, kwargs, result)`` returns counters known from the
        result and runs outside the span's interval.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            t0 = time.perf_counter_ns()
            span = Span(self._next_id, name, self._stack[-1] if self._stack else None, 0)
            self._next_id += 1
            if before is not None:
                span.counts.update(before(args, kwargs))
            self._stack.append(span.id)
            span.start_ns = time.perf_counter_ns()
            span.hook_ns = span.start_ns - t0
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.failed = True
                raise
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append(span)
            if after is not None:
                span.counts.update(after(args, kwargs, result))
                span.hook_ns += time.perf_counter_ns() - span.end_ns
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()


# Faddeeva regions of the seed kernel, by |z|: Maclaurin series up to 1.8,
# Weideman rational approximation up to 12, continued fraction beyond.
# The split is a property of the inputs, so it stays comparable when the
# kernel behind ``faddeeva`` changes.
TAYLOR_RADIUS = 1.8
CONTFRAC_RADIUS = 12.0


def _size(value) -> int:
    return int(np.size(value))


def _faddeeva_counts(args, kwargs):
    r = np.abs(np.asarray(args[0] if args else kwargs["z"], dtype=complex))
    taylor = int(np.count_nonzero(r <= TAYLOR_RADIUS))
    contfrac = int(np.count_nonzero(r > CONTFRAC_RADIUS))
    return {"points": r.size, "taylor": taylor, "contfrac": contfrac,
            "weideman": r.size - taylor - contfrac}


def _first_arg_points(args, kwargs):
    return {"points": _size(args[0])}


def _second_arg_points(args, kwargs):
    return {"points": _size(args[1] if len(args) > 1 else kwargs["xs"])}


def _grid_mode_steps(args, kwargs):
    scenario, config = args[0], args[1] if len(args) > 1 else kwargs["config"]
    n_steps = max(int(np.ceil(scenario.time / config.time_step)), 1)
    return {"mode_steps": n_steps * (int(config.grid_points) - 1)}


def _quadrature_counts(args, kwargs):
    xs = args[2] if len(args) > 2 else kwargs["xs"]
    return {"points": _size(xs)}


def _quadrature_flagged(args, kwargs, result):
    return {"flagged": int(result.flagged)}


def _csv_counts(args, kwargs, result):
    argv = list(args[0] if args else kwargs["argv"])
    counts = {"exit_nonzero": int(result != 0), "rows": 0, "bytes": 0, "cells": 0}
    if result == 0 and "--out" in argv:
        with open(argv[argv.index("--out") + 1], "rb") as fh:
            data = fh.read()
        table = [l for l in data.decode("utf-8").splitlines() if not l.startswith("#")]
        counts["bytes"] = len(data)
        counts["rows"] = max(len(table) - 1, 0)
        counts["cells"] = counts["rows"] * (table[0].count(",") + 1 if table else 0)
    return counts


def install(tracer: Tracer, mirrorwave) -> None:
    """Wrap every cross-layer binding the three workloads go through."""
    mw = mirrorwave
    # waves -> specialfn
    tracer.wrap(mw.waves, "faddeeva", "specialfn.faddeeva", _faddeeva_counts)
    tracer.wrap(mw.waves, "cis", "specialfn.cis", _first_arg_points)
    # analysis -> specialfn (universal curves) and cli -> specialfn (cornu,
    # which imports ``fresnel`` from the module when the command runs)
    tracer.wrap(mw.analysis, "fresnel", "specialfn.fresnel", _first_arg_points)
    tracer.wrap(mw.specialfn, "fresnel", "specialfn.fresnel", _first_arg_points)
    # analysis / cli -> waves; psi_moving and psi_sudden reach moshinsky_m
    # through the waves module's own global
    tracer.wrap(mw.analysis, "psi_moving", "waves.psi_moving", _first_arg_points)
    tracer.wrap(mw.cli, "psi_moving", "waves.psi_moving", _first_arg_points)
    tracer.wrap(mw.analysis, "psi_sudden", "waves.psi_sudden", _first_arg_points)
    tracer.wrap(mw.waves, "moshinsky_m", "waves.moshinsky_m", _first_arg_points)
    # benchmark / cli -> analysis (cli calls ``analysis.<name>`` on the module,
    # enhancement_scan calls profile and main_fringe through its globals)
    tracer.wrap(mw.analysis, "profile", "analysis.profile", _second_arg_points)
    tracer.wrap(mw.analysis, "main_fringe", "analysis.main_fringe")
    tracer.wrap(mw.analysis, "enhancement_scan", "analysis.enhancement_scan")
    # benchmark -> oracle
    tracer.wrap(mw.oracle, "default_config", "oracle.default_config")
    tracer.wrap(mw.oracle, "evolve_grid", "oracle.evolve_grid", _grid_mode_steps)
    tracer.wrap(mw.oracle, "evolve_quadrature", "oracle.evolve_quadrature",
                _quadrature_counts, _quadrature_flagged)
    tracer.wrap(mw.oracle, "compare", "oracle.compare")
    # benchmark -> cli
    tracer.wrap(mw.cli, "main", "cli.main", after=_csv_counts)


# (metric, unit); the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = [
    ("specialfn.faddeeva.calls", "count"),
    ("specialfn.faddeeva.points", "count"),
    ("specialfn.faddeeva.self_s", "s"),
    ("specialfn.faddeeva.ns_per_pt", "ns"),
    ("specialfn.faddeeva.share_taylor", "ratio"),
    ("specialfn.faddeeva.share_weideman", "ratio"),
    ("specialfn.faddeeva.share_contfrac", "ratio"),
    ("specialfn.cis.calls", "count"),
    ("specialfn.cis.points", "count"),
    ("specialfn.cis.self_s", "s"),
    ("specialfn.cis.ns_per_pt", "ns"),
    ("specialfn.fresnel.calls", "count"),
    ("specialfn.fresnel.points", "count"),
    ("specialfn.fresnel.self_s", "s"),
    ("waves.psi_moving.calls", "count"),
    ("waves.psi_moving.points", "count"),
    ("waves.psi_moving.self_s", "s"),
    ("waves.psi_moving.ns_per_pt", "ns"),
    ("waves.psi_moving.points_per_call", "count/call"),
    ("waves.psi_sudden.calls", "count"),
    ("waves.psi_sudden.points", "count"),
    ("waves.psi_sudden.self_s", "s"),
    ("waves.moshinsky_m.calls", "count"),
    ("waves.moshinsky_m.points", "count"),
    ("waves.moshinsky_m.self_s", "s"),
    ("waves.cis_per_pt", "count/pt"),
    ("waves.faddeeva_per_pt", "count/pt"),
    ("waves.cis_per_pt_sudden", "count/pt"),
    ("waves.faddeeva_per_pt_sudden", "count/pt"),
    ("analysis.profile.calls", "count"),
    ("analysis.profile.points", "count"),
    ("analysis.profile.self_s", "s"),
    ("analysis.main_fringe.calls", "count"),
    ("analysis.main_fringe.self_s", "s"),
    ("analysis.main_fringe.failed", "count"),
    ("analysis.enhancement_scan.calls", "count"),
    ("analysis.enhancement_scan.self_s", "s"),
    ("oracle.evolve_grid.calls", "count"),
    ("oracle.evolve_grid.self_s", "s"),
    ("oracle.evolve_grid.mode_steps", "count"),
    ("oracle.evolve_grid.ns_per_mode_step", "ns"),
    ("oracle.evolve_quadrature.calls", "count"),
    ("oracle.evolve_quadrature.points", "count"),
    ("oracle.evolve_quadrature.self_s", "s"),
    ("oracle.evolve_quadrature.flagged", "count"),
    ("oracle.default_config.self_s", "s"),
    ("oracle.compare.self_s", "s"),
    ("oracle.failed", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.main.rows", "count"),
    ("cli.main.bytes", "B"),
    ("cli.main.ns_per_cell", "ns"),
    ("cli.main.exit_nonzero", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_share", "ratio"),
]

_TIME_UNITS = {"s", "ns", "ratio"}


def is_exact(metric: str, unit: str) -> bool:
    """Counts, shares and per-point ratios repeat exactly for one seed."""
    return metric != "trace.overhead_share" and (
        unit not in _TIME_UNITS or ".share_" in metric)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one traced pass; ``trace.overhead_share`` is left to the caller."""
    by_id = {s.id: s for s in spans}
    child_ns: dict[int, int] = {}
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] = child_ns.get(s.parent, 0) + (s.end_ns - s.start_ns) + s.hook_ns
    agg: dict[str, dict] = {}
    # points of cis / faddeeva calls made on behalf of each wavefunction
    per_psi = {"waves.psi_moving": {}, "waves.psi_sudden": {}}
    for s in spans:
        a = agg.setdefault(s.name, {"calls": 0, "failed": 0, "total_ns": 0, "self_ns": 0})
        dur = s.end_ns - s.start_ns
        a["calls"] += 1
        a["failed"] += int(s.failed)
        a["total_ns"] += dur
        a["self_ns"] += dur - child_ns.get(s.id, 0)
        for key, value in s.counts.items():
            a[key] = a.get(key, 0) + value
        if s.name in ("specialfn.cis", "specialfn.faddeeva"):
            p = s.parent
            while p is not None and by_id[p].name not in per_psi:
                p = by_id[p].parent
            if p is not None:
                bucket = per_psi[by_id[p].name]
                bucket[s.name] = bucket.get(s.name, 0) + s.counts["points"]

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    out = {}
    for metric, _unit in PER_LAYER:
        layer, _, key = metric.rpartition(".")
        if key == "self_s":
            out[metric] = get(layer, "self_ns") * 1e-9
        elif key == "ns_per_pt":
            out[metric] = _ratio(get(layer, "total_ns"), get(layer, "points"))
        elif key.startswith("share_"):
            out[metric] = _ratio(get(layer, key[len("share_"):]), get(layer, "points"))
        elif key == "points_per_call":
            out[metric] = _ratio(get(layer, "points"), get(layer, "calls"))
        elif key == "ns_per_mode_step":
            out[metric] = _ratio(get(layer, "total_ns"), get(layer, "mode_steps"))
        elif key == "ns_per_cell":
            out[metric] = _ratio(get(layer, "self_ns"), get(layer, "cells"))
        elif metric == "oracle.failed":
            out[metric] = sum(a["failed"] for n, a in agg.items() if n.startswith("oracle."))
        elif metric == "trace.spans":
            out[metric] = len(spans)
        elif metric == "trace.overhead_share":
            continue  # filled in by the caller from timed passes
        elif layer == "waves":
            psi = "waves.psi_sudden" if key.endswith("_sudden") else "waves.psi_moving"
            callee = "specialfn." + key.split("_per_pt")[0]
            out[metric] = _ratio(per_psi[psi].get(callee, 0), get(psi, "points"))
        else:
            out[metric] = get(layer, key)
    return out


def write_spans(path, passes: list[list[Span]], header: dict) -> None:
    """Store every recorded span, one JSON object per line, after a header line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for n, spans in enumerate(passes):
            for s in spans:
                fh.write(json.dumps({
                    "pass": n, "id": s.id, "name": s.name, "parent": s.parent,
                    "start_ns": s.start_ns, "end_ns": s.end_ns,
                    "failed": s.failed, **s.counts}) + "\n")
