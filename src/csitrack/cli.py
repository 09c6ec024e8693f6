"""Command-line entry points: simulate | track | evaluate | ablate | demo.

Every subcommand is deterministic given its flags and seed. Exit codes:
0 success, 2 configuration/usage error, 3 malformed or unreadable file, 4
stream-order error, 5 degenerate/unobservable estimation input, 1 anything
unexpected.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys

import numpy as np

from . import io as trace_io
from .core import TWO_PI, ArrayGeometry
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
from .evaluation import aod_error_cdfs, align, error_cdf
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
    return trace_io.RunConfig(ap_ids=ap_ids, geometry=geometry, sim=sim)


PRESETS = {"indoor-4ap": indoor_4ap_preset}


def build_parser() -> argparse.ArgumentParser:
    def seed(text: str) -> int:  # argparse names the type in its error: "invalid seed value"
        if int(text) < 0:
            raise ValueError(text)
        return int(text)

    parser = argparse.ArgumentParser(
        prog="csitrack", description="WiFi-CSI motion tracking: simulate, track, evaluate, ablate.")
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
    trk.add_argument("--mode", choices=MODES, help="override the tracker mode")
    trk.add_argument("--out", required=True, help="output trajectory file")

    ev = sub.add_parser("evaluate", help="aligned error of an estimate vs. ground truth")
    ev.add_argument("--estimate", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--out", required=True, help="output CDF table")
    ev.add_argument("--aligned-out", help="also write the aligned estimate trajectory")

    ab = sub.add_parser("ablate", help="compare the full method against a degraded one")
    ab.add_argument("--trace", required=True)
    ab.add_argument("--mode", required=True, choices=["assume-same-clock", "single-packet-aod"])
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


def _write_groups(path, groups, sim: SimConfig, ap_ids) -> None:
    records = [r for group in groups for r in group.records.values()]
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
    groups = trace_io.pair_streams(simulate_trajectory(sim, waypoints))
    _write_groups(args.out, groups, sim, config.ap_ids)
    if args.truth:
        trace_io.write_trajectory(args.truth, resample_waypoints(waypoints, sim.packet_interval))
    print(f"seed {sim.rng_seed}")
    print(f"wrote {args.out}" + (f" and {args.truth}" if args.truth else ""))
    return EXIT_OK


def _tracker_config(config, geometry: ArrayGeometry) -> TrackerConfig:
    """The tracker section of the run config ``config`` (defaults for None);
    ConfigError if its paths need more antennas than the trace's ``geometry`` has."""
    tracker = config.tracker if config is not None else TrackerConfig()
    num_paths, antennas = tracker.aod.num_paths, geometry.num_antennas
    if num_paths > antennas - 1:
        raise ConfigError(f"tracker.num_paths: {num_paths} paths need at least {num_paths + 1} "
                          f"antennas, the trace has {antennas}")
    return tracker


def cmd_track(args) -> int:
    trace = trace_io.read_trace(args.trace)
    config = trace_io.load_config(args.config) if args.config else None
    tracker_config = _tracker_config(config, trace.header.geometry)
    if args.mode:
        tracker_config = dataclasses.replace(tracker_config, mode=args.mode)
    tracker = Tracker(trace.header.geometry, trace.header.ap_ids, tracker_config)
    trajectory = tracker.consume(trace_io.pair_streams(trace_io.records_by_ap(trace)))
    trace_io.write_trajectory(args.out, trajectory)
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
        trace_io.write_trajectory(args.aligned_out, result.aligned)
    print(f"median error {cdf.median:.6g} m")
    print(f"wrote {args.out}" + (f" and {args.aligned_out}" if args.aligned_out else ""))
    return EXIT_OK


def _ablate_same_clock(args) -> int:
    if not args.truth:
        raise ConfigError("--truth is required for assume-same-clock ablation")
    trace = trace_io.read_trace(args.trace)
    truth = trace_io.read_trajectory(args.truth)
    config = trace_io.load_config(args.config) if args.config else None
    base = _tracker_config(config, trace.header.geometry)
    groups = trace_io.pair_streams(trace_io.records_by_ap(trace))
    results = {}
    for mode in MODES:
        tracker = Tracker(trace.header.geometry, trace.header.ap_ids,
                          dataclasses.replace(base, mode=mode))
        results[mode] = error_cdf([align(tracker.consume(groups), truth)])
    full, same_clock = results["full"].median, results["assume-same-clock"].median
    ratio = same_clock / full if full else np.inf if same_clock else np.nan
    summary = {f"median {mode}": cdf.median for mode, cdf in results.items()} | {"ratio": ratio}
    trace_io.write_ablation(args.out, "assume-same-clock", summary, "error", results)
    for mode, cdf in results.items():
        print(f"median error [{mode}] {cdf.median:.6g} m")
    print(f"error ratio {ratio:.3g}x")
    print(f"wrote {args.out}")
    return EXIT_OK


def _ablate_single_packet(args) -> int:
    if not args.config:
        raise ConfigError("--config is required for single-packet-aod ablation")
    config = trace_io.load_config(args.config)
    if config.sim is None:
        raise ConfigError("sim: single-packet-aod ablation needs the simulated channel")
    # each AP's strongest path is the simulated stand-in for its direct path
    truth_aods = {ap: max(paths, key=lambda p: abs(p.gain)).aod
                  for ap, paths in config.sim.channel.paths.items()}
    trace = trace_io.read_trace(args.trace)
    aod = _tracker_config(config, trace.header.geometry).aod
    cdfs = aod_error_cdfs(trace_io.records_by_ap(trace), trace.header.geometry, aod, truth_aods)
    p80 = {name: float(np.percentile(cdf.levels, 80)) for name, cdf in cdfs.items()}
    trace_io.write_ablation(args.out, "single-packet-aod",
                            {f"p80 {name}": value for name, value in p80.items()},
                            "aod_error_rad", cdfs)
    for name, value in p80.items():
        print(f"80th percentile AoD error [{name}] {value:.4g} rad")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    ablate = _ablate_same_clock if args.mode == "assume-same-clock" else _ablate_single_packet
    return ablate(args)


def cmd_demo(args) -> int:
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    config = indoor_4ap_preset(args.seed)
    trace_io.save_config(outdir / "config.json", config)
    waypoints = square_waypoints(side=0.1, speed=0.05)
    groups = trace_io.pair_streams(simulate_trajectory(config.sim, waypoints))
    _write_groups(outdir / "trace.txt", groups, config.sim, config.ap_ids)
    truth = resample_waypoints(waypoints, config.sim.packet_interval)
    trace_io.write_trajectory(outdir / "truth.txt", truth)

    estimate = Tracker(config.geometry, config.ap_ids, config.tracker).consume(groups)
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
