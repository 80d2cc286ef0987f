"""mirrorwave benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; mirrorwave is imported from
``src/`` and nothing is installed.  Workloads: ``closed_form``, ``figures``
and ``validate`` (see ``workloads.py`` and ``README.md``).

``--trace 0`` runs ops for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` repeats a fixed seeded set of ops in passes that
alternate between untraced and traced, reports the per-layer metrics of
the traced passes plus the tracing overhead, fails its own check when a
count differs between two traced passes, and writes the spans to
``.perfbench/``.  Either way the report goes to standard output and its
last line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  An op counts as failed when it
raises or its output check fails.
"""

import os

# One BLAS thread (at most nproc) for the workload process and the set-up
# probes it starts; it has to be set before numpy is imported.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 5
# op_s_tail is the highest percentile with at least TAIL_BEYOND ops beyond
# it, reported when it lies at p75 or above
TAIL_BEYOND = 10
TAIL_MIN_OPS = 4 * TAIL_BEYOND


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import mirrorwave from this checkout's sources, never from elsewhere."""
    package = ROOT / "src" / "mirrorwave"
    for needed in (package / "__init__.py", ROOT / "tests" / "golden"):
        if not needed.exists():
            fail(f"{needed} is missing; run from the root of a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import mirrorwave

    if Path(mirrorwave.__file__).resolve().parent != package.resolve():
        fail(f"mirrorwave was imported from {mirrorwave.__file__}, not from {package}")
    return mirrorwave


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time from starting a fresh interpreter to mirrorwave
    imported and the workload's inputs built."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, cwd=ROOT, text=True,
        ) as probe:
            line = probe.stdout.readline()
            times.append(time.perf_counter() - t0)
        if probe.returncode != 0 or line.strip() != "ready":
            fail(f"set-up probe exited {probe.returncode}")
    return statistics.median(times)


def environment() -> dict:
    import numpy as np
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "caches": caches,
    }


def run_op(wl, i: int, tracer=None):
    """(op seconds, Outcome) of op i; only ``wl.run`` is timed and traced."""
    from workloads import Outcome

    if tracer is not None:
        tracer.enabled = True
    t0 = time.perf_counter()
    try:
        result = wl.run(i)
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        return time.perf_counter() - t0, Outcome(f"{type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.enabled = False
    seconds = time.perf_counter() - t0
    try:
        return seconds, wl.check(i, result)
    except Exception as exc:
        return seconds, Outcome(f"check raised {type(exc).__name__}: {exc}")


def percentile_value(times: list, beyond: int) -> float:
    """The op time with ``beyond`` ops above it, taken from the measured durations
    when failed ops (counted as infinitely slow) reach that far."""
    ordered = sorted(times)
    value = ordered[len(ordered) - 1 - beyond]
    return value if math.isfinite(value) else max(t for t in times if math.isfinite(t))


def untraced(wl, seconds: float, setup_s: float):
    records = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        records.append(run_op(wl, len(records)))
    ok = [(t, o) for t, o in records if o.failure is None]
    # a failed op misses every latency limit
    times = [t if o.failure is None else math.inf for t, o in records]
    op_time = sum(t for t, _ in ok)
    n = len(records)
    p50 = statistics.median(times)
    if not math.isfinite(p50):  # most ops failed: fall back to measured durations
        p50 = statistics.median(t for t, _ in records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (p50, "s"),
        "density_pts_per_s": (sum(o.points for _, o in ok) / op_time if op_time else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    lines = [f"setup_s = {setup_s:.6g} s (median of {SETUP_PROBES} fresh processes)",
             f"op_s_p50 = {p50:.6g} s (median of {n} ops)"]
    if n >= TAIL_MIN_OPS:
        pct = 100.0 * (n - TAIL_BEYOND) / n
        lines.append(f"op_s_tail = {percentile_value(times, TAIL_BEYOND):.6g} s "
                     f"(p{pct:.4g} of {n} ops, {TAIL_BEYOND} beyond)")
    else:
        lines.append(f"op_s_tail: not reported, {n} ops < {TAIL_MIN_OPS}")
    lines.append(f"density_pts_per_s = {metrics['density_pts_per_s'][0]:.6g} 1/s "
                 f"({sum(o.points for _, o in ok)} points in {op_time:.4g} s of op time)")
    rows = sum(o.rows for _, o in ok)
    if rows:
        lines.append(f"csv_rows_per_s = {rows / op_time:.6g} 1/s ({rows} rows)")
    errs = [o.max_abs_err for _, o in records if o.max_abs_err is not None]
    if errs:
        lines.append(f"max_abs_err = {max(errs):.6g} (worst |density difference| "
                     f"between an oracle and the closed form over {len(errs)} ops)")
    lines.append(f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.6g} MB")
    return records, metrics, lines, True


def traced(wl, seconds: float, mirrorwave, seed: int):
    import spans

    tracer = spans.Tracer()
    spans.install(tracer, mirrorwave)
    records, pass_spans, pass_seconds = [], [], {False: [], True: []}
    start = time.perf_counter()
    try:
        # passes alternate untraced / traced over the same ops, the first one
        # untimed to warm caches; at least two traced passes, so that their
        # counts can be compared
        n_pass = 0
        while len(pass_spans) < 2 or time.perf_counter() - start < seconds:
            on = n_pass % 2 == 1
            batch = [run_op(wl, i, tracer if on else None) for i in range(wl.trace_ops)]
            records += batch
            if n_pass:
                pass_seconds[on].append(sum(t for t, _ in batch))
            if on:
                pass_spans.append(tracer.take())
            n_pass += 1
    finally:
        tracer.restore()

    per_pass = [spans.per_layer_metrics(s) for s in pass_spans]
    units = dict(spans.PER_LAYER)
    metrics, mismatched = {}, []
    for name, values in ((n, [m[n] for m in per_pass]) for n in per_pass[0]):
        if spans.is_exact(name, units[name]):
            if any(v != values[0] for v in values):
                mismatched.append(f"{name} {values}")
            metrics[name] = (values[0], units[name])
        else:
            metrics[name] = (statistics.median(values), units[name])
    overhead = statistics.median(pass_seconds[True]) / statistics.median(pass_seconds[False]) - 1.0
    metrics["trace.overhead_share"] = (overhead, "ratio")

    spans_file = OUT_DIR / f"spans-{wl.name}-{seed}.jsonl"
    spans.write_spans(spans_file, pass_spans,
                      {"workload": wl.name, "seed": seed, "ops_per_pass": wl.trace_ops})
    lines = [
        f"{len(pass_spans)} traced and {len(pass_seconds[False])} timed untraced passes of "
        f"{wl.trace_ops} ops; tracing overhead {100 * overhead:+.2f}% of op time",
        f"spans written to {spans_file.relative_to(ROOT)}",
        "absent bindings: " + (", ".join(tracer.absent) or "none"),
        "layers not called: " + (", ".join(sorted({n.rsplit('.', 1)[0] for n, (v, _) in metrics.items()
                                                    if n.endswith(".calls") and v == 0})) or "none"),
    ]
    lines += [f"count differs between traced passes: {m}" for m in mismatched]
    lines += [f"  {n} = {v:.6g} {u}" for n, (v, u) in metrics.items()]
    return records, metrics, lines, not mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    mirrorwave = load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        wl = WORKLOADS[args.workload](args.seed, ROOT, Path(tmp))
        if args.trace:
            records, metrics, lines, repeat_ok = traced(wl, args.seconds, mirrorwave, args.seed)
        else:
            setup_s = measure_setup(args.workload, args.seed)
            records, metrics, lines, repeat_ok = untraced(wl, args.seconds, setup_s)

    failures = [o.failure for _, o in records if o.failure is not None]
    print("env: " + json.dumps(environment()))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    lines.append(f"failed_ratio = {len(failures) / len(records):.6g} "
                 f"({len(failures)} failed of {len(records)} attempted)")
    lines += [f"failed op: {f}" for f in failures[:10]]
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures and repeat_ok,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
