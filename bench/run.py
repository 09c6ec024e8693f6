"""Benchmark of csitrack: three closed-loop workloads, one process.

    python3 bench/run.py --workload stream-stride1 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; csitrack is imported from its ``src``, so it
need not be installed. With ``--trace 0`` the last line of standard output
is one JSON object holding the end-to-end metrics; with ``--trace 1`` the
public functions of each layer are wrapped from outside and it holds the
per-layer metrics instead. ``--smoke`` runs tiny inputs (the window never
fills) and only shows that every path works. Run records, traces and span
dumps go to bench/out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
MIN_TAIL_SAMPLES = 1000
WORKLOADS = ("stream-stride1", "track-stride10", "simulate-write")

#: name -> (unit, description); the same lists as BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "import, input generation and warm-up (median of the set-ups)"),
    "pkts_per_s": ("packets/s", "packets (all 4 APs) per second, median over timed rounds"),
    "ingest_p50_ms": ("ms", "median steady-state Tracker.ingest time"),
    "ingest_p99_ms": ("ms", "99th percentile of the same (>= 1,000 samples)"),
    "span_error_mm": ("mm", "median error of the tracked 0.5 s displacements"),
    "peak_rss_mb": ("MB", "peak resident memory of the process"),
}
PER_LAYER = {
    "simulator.simulate_ms_per_pkt": ("ms/pkt", "lower"),
    "core.steering_calls_per_pkt": ("calls/pkt", "lower"),
    "core.steering_ms_per_pkt": ("ms/pkt", "lower"),
    "io.write_trace_ms_per_pkt": ("ms/pkt", "lower"),
    "io.read_trace_ms_per_pkt": ("ms/pkt", "lower"),
    "io.write_trajectory_ms_per_pkt": ("ms/pkt", "lower"),
    "io.pair_streams_ms_per_pkt": ("ms/pkt", "lower"),
    "io.trace_bytes_per_pkt": ("B/pkt", "lower"),
    "aod.estimate_calls_per_pkt": ("calls/pkt", "lower"),
    "aod.estimate_ms_per_call": ("ms/call", "lower"),
    "aod.window_ms_per_call": ("ms/call", "lower"),
    "aod.subspace_ms_per_call": ("ms/call", "lower"),
    "aod.scan_refine_ms_per_call": ("ms/call", "lower"),
    "aod.window_records_per_call": ("records/call", "lower"),
    "tracker.ingest_self_ms_per_pkt": ("ms/pkt", "lower"),
    "tracker.continuity_ms_per_call": ("ms/call", "lower"),
    "tracker.ok_per_pkt": ("ratio", "higher"),
    "tracker.excluded_per_pkt": ("ratio", "lower"),
    "displacement.weights_calls_per_pkt": ("calls/pkt", "lower"),
    "displacement.weights_ms_per_pkt": ("ms/pkt", "lower"),
    "displacement.rows_ms_per_pkt": ("ms/pkt", "lower"),
    "displacement.solve_ms_per_pkt": ("ms/pkt", "lower"),
    "trace.phase_ms_per_pkt": ("ms/pkt", "lower"),
    "trace.unattributed_ms_per_pkt": ("ms/pkt", "lower"),
}
#: Layer self times must cover the traced timed phase of a tracking workload
#: to within this share; the rest is loop glue.
ACCOUNTING_MARGIN = 0.05


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: checks that every path works, measures nothing")
    return parser.parse_args(argv)


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "csitrack").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    git_sha = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            git_sha = done.stdout.strip() or git_sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest()[:16],
        "platform": platform.platform(),
    }


def import_seconds(repeats=3) -> list:
    """Time ``import csitrack`` (numpy with it) in fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); start = time.process_time(); "
            "import csitrack; print(time.process_time() - start)")
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def end_to_end_metrics(run, import_s, seconds, slowdown) -> dict:
    """``seconds(segments)`` is their time at the nominal host speed (or as
    measured); ``slowdown`` scales the import, timed in other processes."""
    latencies = [seconds([segment]) for segment in run.latencies]
    metrics = {
        "setup_s": import_s / slowdown + statistics.median(seconds(s) for s in run.setups),
        "pkts_per_s": statistics.median(n / seconds(s) for s, n in run.rounds),
        "ingest_p50_ms": 1e3 * statistics.median(latencies),
    }
    if len(latencies) >= MIN_TAIL_SAMPLES:
        metrics["ingest_p99_ms"] = 1e3 * statistics.quantiles(latencies, n=100,
                                                              method="inclusive")[98]
    metrics["span_error_mm"] = 1e3 * statistics.median(run.span_errors.tolist())
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def per_layer_metrics(tracer, run, slowdown) -> dict:
    """Times are divided by ``slowdown`` (calibrate.py), like the end-to-end ones."""
    packets = run.attempted
    ms = 1e3 / slowdown

    def per_call(value, target):
        calls = tracer.calls(target)
        return value / calls if calls else 0.0

    estimate = "aod.estimate_paths"
    rows = tracer.total("displacement.displacement_rows") + tracer.total("displacement.same_clock_rows")
    attributed = sum(tracer.layer_self_times().values())
    return {
        "simulator.simulate_ms_per_pkt": ms * tracer.total("simulator.simulate_trajectory") / packets,
        "core.steering_calls_per_pkt": tracer.calls("core.steering_matrix") / packets,
        "core.steering_ms_per_pkt": ms * tracer.self_time("core.steering_matrix") / packets,
        "io.write_trace_ms_per_pkt": ms * tracer.total("io.write_trace") / packets,
        "io.read_trace_ms_per_pkt": ms * tracer.total("io.read_trace") / packets,
        "io.write_trajectory_ms_per_pkt": ms * tracer.total("io.write_trajectory") / packets,
        "io.pair_streams_ms_per_pkt": ms * tracer.total("io.pair_streams") / packets,
        "io.trace_bytes_per_pkt": run.trace_bytes_per_pkt,
        "aod.estimate_calls_per_pkt": tracer.calls(estimate) / packets,
        "aod.estimate_ms_per_call": per_call(ms * tracer.total(estimate), estimate),
        "aod.window_ms_per_call": per_call(ms * tracer.total("aod.concat_window"), "aod.concat_window"),
        "aod.subspace_ms_per_call": per_call(ms * tracer.total("aod.noise_subspace"), "aod.noise_subspace"),
        "aod.scan_refine_ms_per_call": per_call(ms * tracer.self_time(estimate), estimate),
        "aod.window_records_per_call": per_call(tracer.items(estimate), estimate),
        "tracker.ingest_self_ms_per_pkt": ms * tracer.self_time("tracker.Tracker.ingest") / packets,
        "tracker.continuity_ms_per_call": per_call(ms * tracer.total("tracker.path_continuity"),
                                                   "tracker.path_continuity"),
        "tracker.ok_per_pkt": run.ok_points / packets,
        "tracker.excluded_per_pkt": run.excluded / packets,
        "displacement.weights_calls_per_pkt": tracer.calls("displacement.path_weights") / packets,
        "displacement.weights_ms_per_pkt": ms * tracer.total("displacement.path_weights") / packets,
        "displacement.rows_ms_per_pkt": ms * rows / packets,
        "displacement.solve_ms_per_pkt": ms * tracer.total("displacement.estimate_displacement") / packets,
        "trace.phase_ms_per_pkt": ms * run.busy_s / packets,
        "trace.unattributed_ms_per_pkt": ms * (run.busy_s - attributed) / packets,
    }


def report_layers(tracer, run, workload):
    """Print where the traced timed phase went, layer by layer."""
    layers = tracer.layer_self_times()
    print(f"layer self time over {run.attempted} packets "
          f"(traced phase {run.busy_s:.3f} s, {1e3 * run.busy_s / run.attempted:.4f} ms/pkt):")
    for layer, seconds in sorted(layers.items(), key=lambda item: -item[1]):
        print(f"  {layer:<13} {1e3 * seconds / run.attempted:9.4f} ms/pkt "
              f"{100 * seconds / run.busy_s:6.1f} %")
    share = sum(layers.values()) / run.busy_s
    verdict = "holds" if share >= 1 - ACCOUNTING_MARGIN else "does not hold"
    tracking = "" if workload != "simulate-write" else " (stated for the tracking workloads)"
    print(f"  layers account for {100 * share:.1f} % of the traced phase; "
          f"margin {100 * ACCOUNTING_MARGIN:.0f} %{tracking}: {verdict}")
    for target, where in sorted(tracer.bindings.items()):
        print(f"  wrapped {target}: {tracer.calls(target)} calls, as {', '.join(where)}")
    for target in tracer.absent:
        print(f"  absent {target}: not in the program; its metrics read 0")


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "csitrack" / "__init__.py").is_file():
        print(f"error: {SRC / 'csitrack'} not found; run from the root of a csitrack checkout",
              file=sys.stderr)
        return 2
    if not (args.seconds > 0):
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import csitrack

    if Path(csitrack.__file__).resolve().parent != (SRC / "csitrack").resolve():
        print(f"error: imported csitrack from {csitrack.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import calibrate
    import tracing
    import workloads

    out_dir = OUT / "smoke" if args.smoke else OUT
    out_dir.mkdir(parents=True, exist_ok=True)
    sizes = workloads.SMOKE_SIZES if args.smoke else workloads.full_sizes()
    tracer = None
    if args.trace:
        # traced runs report no set-up time, so one set-up is enough
        sizes = dataclasses.replace(sizes, setup_repeats=1)
        tracer = tracing.Tracer()
        tracer.install()
    env = environment()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}{' smoke' if args.smoke else ''}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))

    ctx = workloads.Context(args.seed, args.seconds, sizes, out_dir, tracer)
    try:
        run = workloads.WORKLOADS[args.workload](ctx)
    finally:
        if tracer is not None:
            tracer.uninstall()

    for note in run.notes:
        print(f"note: {note}")
    samples = len(run.latencies)
    print(f"timed phase: {len(run.rounds)} rounds, {run.attempted} packets, {run.busy_s:.3f} s busy; "
          f"{samples} steady-state ingest samples; set-ups "
          + ", ".join(f"{calibrate.unscaled(s):.3f}" for s in run.setups) + " s")
    if run.span_errors is not None:
        print(f"accuracy: median aligned error {1e3 * run.aligned_median_m:.4f} mm "
              f"over the whole track (must be < 10 mm)")

    calibration = ctx.calibration
    print(f"calibration: the kernel took {calibration.slowdown():.4f}x its nominal time "
          f"(median of {len(calibration.kernel_times)} runs); each timed call is divided by "
          f"the factor measured around it")
    if args.trace:
        metrics = per_layer_metrics(tracer, run, calibration.slowdown())
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        report_layers(tracer, run, args.workload)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.dump(spans)
        print(f"wrote {len(tracer.spans)} spans to {spans.relative_to(ROOT)}")
    else:
        metrics = {}
        imports = import_seconds()
        import_s = statistics.median(imports)
        print("import csitrack in a fresh interpreter: "
              + ", ".join(f"{t:.3f}" for t in imports) + " s")
        if run.rounds and samples and run.span_errors is not None:
            metrics = end_to_end_metrics(run, import_s, calibration.seconds,
                                         calibration.slowdown())
            raw = end_to_end_metrics(run, import_s, calibrate.unscaled, 1.0)
            print("unscaled: " + ", ".join(
                f"{name} {raw[name]:.6g}" for name in raw if name.endswith(("_s", "_ms"))))
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        if "ingest_p99_ms" not in metrics:
            print(f"ingest_p99_ms not reported: {samples} samples < {MIN_TAIL_SAMPLES}")

    problems = list(run.problems)
    for name, value in metrics.items():
        if not math.isfinite(value):
            problems.append(f"metric {name} is {value}")
            metrics[name] = 0.0
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, smoke=args.smoke, environment=env, problems=problems,
                  rounds=[(calibrate.unscaled(s), calibration.seconds(s), n) for s, n in run.rounds],
                  setups=[(calibrate.unscaled(s), calibration.seconds(s)) for s in run.setups],
                  samples=samples, slowdown=calibration.slowdown())
    (out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(f"run took {time.perf_counter() - started:.1f} s wall")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
