"""Command-line entry points: simulate | track | evaluate | ablate | demo.

Every subcommand is deterministic given its flags and seed. Exit codes:
0 success, 2 configuration/usage error, 3 malformed or unreadable file, 4
stream-order error, 5 degenerate/unobservable estimation input, 1 anything
unexpected.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import io as trace_io
from .aod import estimate_paths
from .core import TWO_PI, ArrayGeometry, Trajectory, circular_distance
from .errors import (
    ConfigError,
    CsiTrackError,
    DegenerateGeometryError,
    InsufficientPathsError,
    StreamOrderError,
    TraceParseError,
    UnobservableDisplacementError,
    WeakPathError,
    WindowUnderfullError,
)
from .evaluation import align, error_cdf, rotation_matrix
from .simulator import (
    ChannelSpec,
    OffsetModel,
    PropagationPath,
    SimConfig,
    random_waypoints,
    resample_waypoints,
    simulate_trajectory,
    square_waypoints,
    stationary_waypoints,
)
from .tracker import MODES, Tracker, TrackerConfig

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_STREAM = 4
EXIT_DEGENERATE = 5


def indoor_4ap_preset(seed: int = 1234) -> trace_io.RunConfig:
    """Room-scale scenario: 4 APs, 2 paths each, typical clock offsets.

    AP direct paths point at the corners of a 5 m x 6 m room as seen from the
    center; each AP also gets one weaker reflected path. Offsets sit near
    20 kHz, detuned from exact multiples of the packet rate.
    """
    geometry = ArrayGeometry.circular(3, spacing=0.026)
    ap_ids = ("ap0", "ap1", "ap2", "ap3")
    direct = (0.876, 2.266, 4.018, 5.407)
    reflect_shift = (1.9, -2.2, 2.4, -1.7)
    reflect_gain = (0.72, 0.66, 0.78, 0.61)
    gain_phase = (0.3, 2.9, 4.1, 1.2)
    frequency = (19630.0, 20410.0, -20270.0, 21110.0)
    initial = (0.7, 2.1, 4.4, 5.9)
    paths = {}
    offsets = {}
    for i, ap in enumerate(ap_ids):
        paths[ap] = (
            PropagationPath(direct[i], np.exp(1j * gain_phase[i])),
            PropagationPath(
                (direct[i] + reflect_shift[i]) % TWO_PI,
                reflect_gain[i] * np.exp(1j * (gain_phase[i] + 1.0)),
            ),
        )
        offsets[ap] = OffsetModel(initial_phase=initial[i], frequency_offset=frequency[i],
                                  phase_jitter_std=0.05)
    sim = SimConfig(
        geometry=geometry,
        channel=ChannelSpec(paths),
        offsets=offsets,
        packet_interval=0.006,
        snr_db=25.0,
        quantize=True,
        rng_seed=seed,
    )
    return trace_io.RunConfig(ap_ids=ap_ids, geometry=geometry, sim=sim,
                              tracker=TrackerConfig())


PRESETS = {"indoor-4ap": indoor_4ap_preset}


def build_parser() -> argparse.ArgumentParser:
    def seed(text: str) -> int:  # argparse names the type in its error: "invalid seed value"
        if int(text) < 0:
            raise ValueError(text)
        return int(text)

    parser = argparse.ArgumentParser(
        prog="csitrack",
        description="WiFi-CSI motion tracking: simulate, track, evaluate, ablate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="synthesize a CSI trace for a moving target")
    source = sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="run config JSON with a sim section")
    source.add_argument("--preset", choices=sorted(PRESETS), help="built-in scenario")
    sim.add_argument("--waypoints", help="trajectory file with the target's motion")
    sim.add_argument("--motion", choices=["square", "stationary", "random"],
                     help="generated motion instead of --waypoints")
    sim.add_argument("--motion-scale", type=trace_io._positive, default=0.1,
                     help="square side / random span in meters (default 0.1)")
    sim.add_argument("--motion-duration", type=trace_io._positive, default=6.0,
                     help="duration for stationary/random motion in seconds")
    sim.add_argument("--seed", type=seed, help="override the config's rng seed")
    sim.add_argument("--out", required=True, help="output trace file")
    sim.add_argument("--truth", help="also write the resampled ground-truth trajectory")

    trk = sub.add_parser("track", help="reconstruct a trajectory from a trace")
    trk.add_argument("--trace", required=True)
    trk.add_argument("--config", help="run config JSON (tracker section)")
    trk.add_argument("--mode", choices=MODES,
                     help="override the tracker mode")
    trk.add_argument("--out", required=True, help="output trajectory file")

    ev = sub.add_parser("evaluate", help="aligned error of an estimate vs. ground truth")
    ev.add_argument("--estimate", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--out", required=True, help="output CDF table")
    ev.add_argument("--aligned-out", help="also write the aligned estimate trajectory")

    ab = sub.add_parser("ablate", help="compare the full method against a degraded one")
    ab.add_argument("--trace", required=True)
    ab.add_argument("--mode", required=True,
                    choices=["assume-same-clock", "single-packet-aod"])
    ab.add_argument("--truth", help="ground-truth trajectory (assume-same-clock mode)")
    ab.add_argument("--config", help="run config JSON (required for single-packet-aod)")
    ab.add_argument("--out", required=True, help="output comparison report")

    demo = sub.add_parser("demo", help="simulate, track and evaluate the indoor preset")
    demo.add_argument("--outdir", required=True)
    demo.add_argument("--seed", type=seed, default=1234)

    return parser


def _make_waypoints(args, packet_interval):
    if args.waypoints and args.motion:
        raise ConfigError("give either --waypoints or --motion, not both")
    if args.waypoints:
        return trace_io.read_trajectory(args.waypoints)
    motion = args.motion or "square"
    if motion == "square":
        return square_waypoints(side=args.motion_scale, speed=0.05)
    if motion == "stationary":
        return stationary_waypoints(duration=args.motion_duration)
    seed = args.seed if args.seed is not None else 0
    return random_waypoints(scale=args.motion_scale, duration=args.motion_duration,
                            packet_interval=packet_interval, seed=seed)


def _write_streams(path, streams, sim: SimConfig, ap_ids) -> None:
    records = [r for group in trace_io.pair_streams(streams) for r in group.records.values()]
    header = trace_io.TraceHeader(sim.geometry, ap_ids, sim.packet_interval)
    trace_io.write_trace(path, trace_io.TraceFile(header, records))


def cmd_simulate(args) -> int:
    if args.config:
        config = trace_io.load_config(args.config)
    else:
        config = PRESETS[args.preset](args.seed if args.seed is not None else 1234)
    if config.sim is None:
        raise ConfigError("sim: config has no simulation section")
    sim = config.sim
    if args.seed is not None and args.seed != sim.rng_seed:
        sim = dataclasses.replace(sim, rng_seed=args.seed)
    waypoints = _make_waypoints(args, sim.packet_interval)
    _write_streams(args.out, simulate_trajectory(sim, waypoints), sim, config.ap_ids)
    if args.truth:
        trace_io.write_trajectory(args.truth, resample_waypoints(waypoints, sim.packet_interval))
    print(f"seed {sim.rng_seed}")
    print(f"wrote {args.out}" + (f" and {args.truth}" if args.truth else ""))
    return EXIT_OK


def _run_tracker(trace: trace_io.TraceFile, tracker_config: TrackerConfig) -> Tracker:
    tracker = Tracker(trace.header.geometry, trace.header.ap_ids, tracker_config)
    groups = trace_io.pair_streams(trace_io.records_by_ap(trace))
    for group in groups:  # Tracker.consume, without its trajectory
        tracker.ingest(group.records)
    if not tracker.flags:
        raise WindowUnderfullError(f"the trace ends after {len(groups)} packets, before every AP "
                                   f"holds min_packets={tracker_config.aod.min_packets}")
    return tracker


def cmd_track(args) -> int:
    trace = trace_io.read_trace(args.trace)
    tracker_config = TrackerConfig()
    if args.config:
        tracker_config = trace_io.load_config(args.config).tracker
    if args.mode:
        tracker_config = dataclasses.replace(tracker_config, mode=args.mode)
    tracker = _run_tracker(trace, tracker_config)
    trace_io.write_trajectory(args.out, tracker.trajectory())
    print(f"wrote {args.out}")
    for flag, count in sorted(tracker.flag_summary().items()):
        print(f"{flag}: {count}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    estimate = trace_io.read_trajectory(args.estimate)
    truth = trace_io.read_trajectory(args.truth)
    result = align(estimate, truth)
    cdf = error_cdf([result])
    trace_io.write_cdf(args.out, cdf)
    if args.aligned_out:
        aligned = (estimate.positions - estimate.positions[0]) @ rotation_matrix(result.rotation).T
        trace_io.write_trajectory(args.aligned_out, Trajectory(aligned, estimate.timestamps))
    print(f"median error {cdf.median:.6g} m")
    print(f"wrote {args.out}" + (f" and {args.aligned_out}" if args.aligned_out else ""))
    return EXIT_OK


def _ablate_same_clock(args) -> int:
    if not args.truth:
        raise ConfigError("--truth is required for assume-same-clock ablation")
    trace = trace_io.read_trace(args.trace)
    truth = trace_io.read_trajectory(args.truth)
    base = trace_io.load_config(args.config).tracker if args.config else TrackerConfig()
    results = {}
    for mode in ("full", "assume-same-clock"):
        tracker = _run_tracker(trace, dataclasses.replace(base, mode=mode))
        results[mode] = error_cdf([align(tracker.trajectory(), truth)])
    ratio = results["assume-same-clock"].median / results["full"].median
    with open(args.out, "w") as handle:
        handle.write("#ablation v1 assume-same-clock\n")
        for mode, cdf in results.items():
            handle.write(f"#median {mode} {cdf.median!r}\n")
        handle.write(f"#ratio {ratio!r}\n")
        handle.write("#columns method error cumulative_fraction\n")
        for mode, cdf in results.items():
            for level, fraction in zip(cdf.levels, cdf.fractions):
                handle.write(f"{mode} {level!r} {fraction!r}\n")
    for mode, cdf in results.items():
        print(f"median error [{mode}] {cdf.median:.6g} m")
    print(f"error ratio {ratio:.3g}x")
    print(f"wrote {args.out}")
    return EXIT_OK


def _direct_aods(config: trace_io.RunConfig) -> dict:
    """Strongest path per AP: the simulated stand-in for the direct path."""
    if config.sim is None:
        raise ConfigError("sim: single-packet-aod ablation needs the simulated channel")
    return {
        ap: max(paths, key=lambda p: abs(p.gain)).aod
        for ap, paths in config.sim.channel.paths.items()
    }


def _ablate_single_packet(args) -> int:
    if not args.config:
        raise ConfigError("--config is required for single-packet-aod ablation")
    config = trace_io.load_config(args.config)
    truth_aods = _direct_aods(config)
    trace = trace_io.read_trace(args.trace)
    streams = trace_io.records_by_ap(trace)
    window_config = config.tracker.aod
    single_config = dataclasses.replace(window_config, min_packets=1)
    geometry = trace.header.geometry
    horizon = window_config.window_seconds
    errors = {"multi-packet": [], "single-packet": []}
    for ap, records in streams.items():
        if ap not in truth_aods or len(records) < window_config.min_packets:
            continue
        truth = truth_aods[ap]
        stride = max(1, len(records) // 20)
        for end in range(window_config.min_packets, len(records) + 1, stride):
            window = [r for r in records[:end]
                      if r.timestamp >= records[end - 1].timestamp - horizon]
            multi = estimate_paths(window, geometry, single_config)
            single = estimate_paths(records[end - 1:end], geometry, single_config)
            errors["multi-packet"].append(np.min(circular_distance(multi.aods, truth)))
            errors["single-packet"].append(np.min(circular_distance(single.aods, truth)))
    cdfs = {name: error_cdf([np.array(vals)]) for name, vals in errors.items()}
    with open(args.out, "w") as handle:
        handle.write("#ablation v1 single-packet-aod\n")
        for name, cdf in cdfs.items():
            p80 = float(np.percentile(cdf.levels, 80))
            handle.write(f"#p80 {name} {p80!r}\n")
        handle.write("#columns method aod_error_rad cumulative_fraction\n")
        for name, cdf in cdfs.items():
            for level, fraction in zip(cdf.levels, cdf.fractions):
                handle.write(f"{name} {level!r} {fraction!r}\n")
    for name, cdf in cdfs.items():
        print(f"80th percentile AoD error [{name}] "
              f"{np.percentile(cdf.levels, 80):.4g} rad")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    if args.mode == "assume-same-clock":
        return _ablate_same_clock(args)
    return _ablate_single_packet(args)


def cmd_demo(args) -> int:
    import pathlib

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    config = indoor_4ap_preset(args.seed)
    trace_io.save_config(outdir / "config.json", config)
    waypoints = square_waypoints(side=0.1, speed=0.05)
    streams = simulate_trajectory(config.sim, waypoints)
    _write_streams(outdir / "trace.txt", streams, config.sim, config.ap_ids)
    truth = resample_waypoints(waypoints, config.sim.packet_interval)
    trace_io.write_trajectory(outdir / "truth.txt", truth)

    tracker = Tracker(config.geometry, config.ap_ids, config.tracker)
    tracker.consume(trace_io.pair_streams(streams))
    estimate = tracker.trajectory()
    trace_io.write_trajectory(outdir / "estimate.txt", estimate)

    cdf = error_cdf([align(estimate, truth)])
    trace_io.write_cdf(outdir / "report.txt", cdf)
    print(f"seed {config.sim.rng_seed}")
    print(f"median error {cdf.median:.6g} m over {len(estimate)} points")
    print(f"wrote config.json, trace.txt, truth.txt, estimate.txt, report.txt in {outdir}")
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "track": cmd_track,
    "evaluate": cmd_evaluate,
    "ablate": cmd_ablate,
    "demo": cmd_demo,
}

#: Exit code of each handled exception class; the first that matches wins.
_EXIT_CODES = {
    ConfigError: EXIT_CONFIG,
    TraceParseError: EXIT_PARSE,
    OSError: EXIT_PARSE,  # a file that cannot be read or written
    StreamOrderError: EXIT_STREAM,
    DegenerateGeometryError: EXIT_DEGENERATE,
    UnobservableDisplacementError: EXIT_DEGENERATE,
    WeakPathError: EXIT_DEGENERATE,
    InsufficientPathsError: EXIT_DEGENERATE,
    WindowUnderfullError: EXIT_DEGENERATE,
    CsiTrackError: EXIT_UNEXPECTED,
    ValueError: EXIT_UNEXPECTED,  # numpy's LinAlgError too; config errors are ConfigError
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    raise SystemExit(main())
