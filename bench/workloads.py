"""The three workloads, each a closed loop in one process.

A workload sets up (repeatedly, so set-up time is a median), runs its timed
phase in whole rounds until ``seconds`` have passed, then checks the
program's outputs against channel.py. Every timed call goes through
``Calibration.measure`` and is recorded as a Segment; run.py turns the Run
into metrics. Every csitrack function is looked up through its module at
call time, so tracing.py's wrappers see the calls.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calibrate
import channel
import csitrack as ct
from csitrack import io as trace_io
from csitrack import simulator

#: Operation failures the loop counts instead of stopping on.
FAILURES = (ct.CsiTrackError, ValueError, np.linalg.LinAlgError)
#: Spans of the accuracy metric: 0.5 s of packets. Over 1 s spans the metric
#: spread 12 % between seeds, over 0.5 s 5 %; a 5 % scale error still moves it
#: several times over.
SPAN_PACKETS = round(0.5 / channel.PACKET_INTERVAL)
#: Median aligned error every tracked path must stay below (the paper's 1 cm scale).
MAX_ALIGNED_MEDIAN_M = 0.01
#: Standard deviations of its estimate by which the SNR implied by simulated
#: CSI may miss the configured SNR.
SNR_TOLERANCE_SIGMAS = 5.0
#: Simulator scenarios per seed; the simulate passes cycle through them.
SIM_PARTS = 3
#: Stride of the offline `csitrack track` path (the criterion-3 configuration).
TRACK_STRIDE = 10


@dataclass(frozen=True)
class Sizes:
    window_packets: int  # warm-up of the stream; steady state starts here
    round_packets: int  # stream packets per timed round
    min_rounds: int  # stream rounds at least: 2,000 samples put 20 beyond the p99
    accuracy_packets: int  # timed stream packets inside the accuracy check
    trace_packets: int  # packets of the track-stride10 trace
    sim_packets: int  # packets per simulate pass
    check_packets: int  # packets of the trace simulate-write tracks after its timed phase
    min_passes: int  # passes at least, so that the rate is a median
    setup_repeats: int


def full_sizes() -> Sizes:
    # the tracker's default window (10 s) holds ceil(10 / 0.006) = 1,667 packets
    window = math.ceil(ct.TrackerConfig().aod.window_seconds / channel.PACKET_INTERVAL)
    return Sizes(window_packets=window, round_packets=100, min_rounds=20,
                 accuracy_packets=1000, trace_packets=window + 1133, sim_packets=250,
                 check_packets=window + 1500,
                 min_passes=2, setup_repeats=3)


# Tracks much shorter than these miss the 1 cm check: early path estimates
# come from windows of a fraction of a second (120 packets read 25.9 mm on
# seed 3 of track-stride10).
SMOKE_SIZES = Sizes(window_packets=300, round_packets=20, min_rounds=2, accuracy_packets=40,
                    trace_packets=600, sim_packets=100, check_packets=600, min_passes=1,
                    setup_repeats=1)


@dataclass
class Context:
    """What a workload is given: its input sizes and the run's instruments."""

    seed: int
    seconds: float
    sizes: Sizes
    out_dir: Path
    tracer: object = None  # tracing.Tracer while tracing
    calibration: calibrate.Calibration = field(default_factory=calibrate.Calibration)

    def begin(self):
        if self.tracer is not None:
            self.tracer.start()

    def end(self):
        if self.tracer is not None:
            self.tracer.stop()
        self.calibration.tick(calibrate.HALF_WINDOW)

    def repeat_setup(self, setup, most=None):
        """Run ``setup(segments)`` the configured number of times (at most
        ``most``); keep the last result and each set-up's timed segments."""
        setups = []
        for _ in range(min(self.sizes.setup_repeats, most or self.sizes.setup_repeats)):
            segments = []
            result = setup(segments)
            setups.append(segments)
        self.calibration.tick(calibrate.HALF_WINDOW)
        return result, setups

    def path(self, name) -> Path:
        return self.out_dir / f"{name}-seed{self.seed}"


@dataclass
class Run:
    setups: list  # per set-up, its Segments
    rounds: list = field(default_factory=list)  # (Segments, packets) per timed round or pass
    latencies: list = field(default_factory=list)  # Segments of steady-state ingest calls
    attempted: int = 0  # packets in the timed phase
    failed: int = 0
    ok_points: int = 0  # tracker points flagged ok in the timed phase
    excluded: int = 0  # AP exclusions in the timed phase
    trace_bytes_per_pkt: float = 0.0
    span_errors: np.ndarray = None
    aligned_median_m: float = math.nan
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        """Unscaled time of the timed phase, without the calibration kernel."""
        return sum(calibrate.unscaled(segments) for segments, _ in self.rounds)

    def add_round(self, segments, packets):
        self.rounds.append((segments, packets))
        self.attempted += packets

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)


def geometry() -> ct.ArrayGeometry:
    return ct.ArrayGeometry(channel.antenna_positions(), channel.WAVELENGTH)


def packet_group(scenario, csi, p) -> dict:
    stamp = float(scenario.timestamps[p])
    return {ap_id: ct.CsiRecord(ap_id, p, stamp, csi[a, p]) for a, ap_id in enumerate(channel.AP_IDS)}


def check_accuracy(run, trajectory, scenario, label):
    """Compare a tracked path with the scenario's motion, point by point."""
    index = np.rint(trajectory.timestamps / channel.PACKET_INTERVAL).astype(int)
    run.check(np.array_equal(trajectory.timestamps, scenario.timestamps[index]),
              f"{label}: point timestamps are not packet timestamps")
    truth = scenario.positions[index]
    run.aligned_median_m = float(np.median(channel.aligned_errors(trajectory.positions, truth)))
    run.check(run.aligned_median_m < MAX_ALIGNED_MEDIAN_M,
              f"{label}: median aligned error {run.aligned_median_m * 1e3:.2f} mm >= 10 mm")
    run.span_errors = channel.span_errors(trajectory.positions, truth, SPAN_PACKETS)


def check_trace_records(run, trace, scenario, csi, label):
    """read_trace must return the records exactly, in file order."""
    records = trace.records
    aps = len(channel.AP_IDS)
    expected = aps * scenario.num_packets
    run.check(len(records) == expected, f"{label}: {len(records)} records, expected {expected}")
    if len(records) != expected:
        return
    run.check([r.ap_id for r in records] == list(channel.AP_IDS) * scenario.num_packets,
              f"{label}: AP order differs")
    run.check(np.array_equal([r.packet_index for r in records],
                             np.repeat(np.arange(scenario.num_packets), aps)),
              f"{label}: packet indices differ")
    run.check(np.array_equal([r.timestamp for r in records], np.repeat(scenario.timestamps, aps)),
              f"{label}: timestamps differ")
    run.check(np.array_equal(np.array([r.csi for r in records]),
                             csi.transpose(1, 0, 2).reshape(expected, -1)),
              f"{label}: CSI values differ")


# -- the `csitrack track` path ------------------------------------------------------


@dataclass
class TrackPass:
    trace: object
    tracker: object
    trajectory: object
    segments: list  # the whole pass
    ingests: list  # one Segment per ingest call


def _open_trace(trace_path):
    trace = trace_io.read_trace(trace_path)
    groups = trace_io.pair_streams(trace_io.records_by_ap(trace))
    tracker = ct.Tracker(trace.header.geometry, trace.header.ap_ids,
                         ct.TrackerConfig(stride=TRACK_STRIDE))
    return trace, groups, tracker


def track_file(ctx, trace_path, trajectory_path) -> TrackPass:
    """`csitrack track` at stride 10: read, pair, track, write.

    consume() looks ingest up on the instance, so each call is measured (with
    a kernel run before it) from outside. consume's own loop is the pass's
    time that is in no measured call and not in the kernel.
    """
    calibration = ctx.calibration
    (trace, groups, tracker), opened = calibration.measure_long(_open_trace, trace_path)
    ingests = []
    ingest = tracker.ingest

    def measured_ingest(records):
        result, segment = calibration.measure(ingest, records)
        ingests.append(segment)
        return result

    tracker.ingest = measured_ingest
    kernel_before = sum(calibration.kernel_times)
    start = time.process_time()
    trajectory = tracker.consume(groups)
    loop = (time.process_time() - start - calibrate.unscaled(ingests)
            - (sum(calibration.kernel_times) - kernel_before))
    glue = calibrate.Segment(max(loop, 0.0), slowdown=calibration.slowdown())
    _, written = calibration.measure_long(trace_io.write_trajectory, trajectory_path, trajectory)
    return TrackPass(trace, tracker, trajectory, [opened, *ingests, glue, written], ingests)


# -- stream-stride1 -----------------------------------------------------------------


def stream_stride1(ctx: Context) -> Run:
    """Live tracking at the default TrackerConfig, one packet at a time."""
    sizes = ctx.sizes
    capacity = max(sizes.round_packets * sizes.min_rounds, int(1000 * ctx.seconds))
    capacity -= capacity % sizes.round_packets
    total = sizes.window_packets + capacity

    def generate():
        scenario = channel.draw_scenario(ctx.seed, total)
        return scenario, channel.received_csi(scenario)

    def setup(segments):
        (scenario, csi), segment = ctx.calibration.measure_long(generate)
        segments.append(segment)
        tracker = ct.Tracker(geometry(), channel.AP_IDS, ct.TrackerConfig())
        for p in range(sizes.window_packets):
            group = packet_group(scenario, csi, p)
            segments.append(ctx.calibration.measure(tracker.ingest, group)[1])
        return scenario, csi, tracker

    # a set-up here is a 9 s warm-up; two keep a run under a minute
    (scenario, csi, tracker), setups = ctx.repeat_setup(setup, most=2)
    run = Run(setups)

    def attempt(group):
        try:
            return tracker.ingest(group) is not None
        except FAILURES:
            return False

    excluded_before = sum(tracker.exclusions.values())
    ctx.begin()
    start = time.perf_counter()
    p = sizes.window_packets
    while p < total and (len(run.rounds) < sizes.min_rounds
                         or time.perf_counter() - start < ctx.seconds):
        segments = []
        for q in range(p, p + sizes.round_packets):
            group = packet_group(scenario, csi, q)
            accepted, segment = ctx.calibration.measure(attempt, group)
            segments.append(segment)
            run.ok_points += accepted
            run.failed += not accepted
        run.add_round(segments, sizes.round_packets)
        run.latencies.extend(segments)
        p += sizes.round_packets
    ctx.end()
    run.excluded = sum(tracker.exclusions.values()) - excluded_before
    if p >= total:
        run.notes.append(f"input ran out after {len(run.rounds)} rounds")

    # accuracy over a fixed prefix, so that it does not depend on the run length
    trajectory = tracker.trajectory()
    last_packet = min(sizes.window_packets + sizes.accuracy_packets, p) - 1
    keep = trajectory.timestamps <= scenario.timestamps[last_packet]
    check_accuracy(run, ct.Trajectory(trajectory.positions[keep], trajectory.timestamps[keep]),
                   scenario, "stream")
    return run


# -- track-stride10 -----------------------------------------------------------------


def track_stride10(ctx: Context) -> Run:
    """The `csitrack track` path on a trace longer than the 10 s window."""
    sizes = ctx.sizes
    trace_path = ctx.path("track").with_suffix(".trace")
    trajectory_path = ctx.path("track").with_suffix(".trajectory")

    def generate():
        scenario = channel.draw_scenario(ctx.seed, sizes.trace_packets)
        csi = channel.received_csi(scenario)
        trace_path.write_text(channel.trace_text(scenario, csi))
        return scenario, csi

    def setup(segments):
        result, segment = ctx.calibration.measure_long(generate)
        segments.append(segment)
        return result

    (scenario, csi), setups = ctx.repeat_setup(setup)
    run = Run(setups)
    run.trace_bytes_per_pkt = trace_path.stat().st_size / sizes.trace_packets
    last = None
    passes = 0
    ctx.begin()
    start = time.perf_counter()
    while passes < sizes.min_passes or time.perf_counter() - start < ctx.seconds:
        passes += 1
        try:
            result = track_file(ctx, trace_path, trajectory_path)
        except FAILURES as exc:
            run.failed += sizes.trace_packets
            run.attempted += sizes.trace_packets
            run.notes.append(f"pass failed: {type(exc).__name__}: {exc}")
            continue
        last = result
        run.add_round(result.segments, sizes.trace_packets)
        run.latencies.extend(result.ingests[sizes.window_packets:])
        ok = result.tracker.flags.count("ok")
        run.ok_points += ok
        run.failed += len(result.tracker.flags) - ok
        run.excluded += sum(result.tracker.exclusions.values())
    ctx.end()
    if last is None:
        run.check(False, "track: every pass failed")
        return run

    check_trace_records(run, last.trace, scenario, csi, "track: read_trace")
    reference = ct.Tracker(geometry(), channel.AP_IDS, ct.TrackerConfig(stride=TRACK_STRIDE))
    in_memory = reference.consume(
        [packet_group(scenario, csi, p) for p in range(scenario.num_packets)])
    for label, other in (("in-memory tracking", in_memory),
                         ("read_trajectory", trace_io.read_trajectory(trajectory_path))):
        run.check(np.array_equal(other.positions, last.trajectory.positions)
                  and np.array_equal(other.timestamps, last.trajectory.timestamps),
                  f"track: trajectory from the file path differs from {label}")
    check_accuracy(run, last.trajectory, scenario, "track")
    return run


# -- simulate-write -----------------------------------------------------------------


@dataclass(frozen=True)
class SimJob:
    scenario: channel.Scenario
    config: ct.SimConfig
    waypoints: ct.Trajectory
    trace_path: Path


def sim_job(ctx, part, num_packets) -> SimJob:
    scenario = channel.draw_scenario(ctx.seed, num_packets, part)
    paths, offsets = {}, {}
    for a, ap_id in enumerate(channel.AP_IDS):
        paths[ap_id] = tuple(ct.PropagationPath(float(aod), complex(gain))
                             for aod, gain in zip(scenario.aods[a], scenario.gains[a]))
        offsets[ap_id] = ct.OffsetModel(initial_phase=float(scenario.initial_phases[a]),
                                        frequency_offset=float(scenario.frequencies[a]),
                                        phase_jitter_std=channel.JITTER_STD)
    seed = int(np.random.SeedSequence([scenario.seed, part, 2]).generate_state(1)[0])
    config = ct.SimConfig(geometry=geometry(), channel=ct.ChannelSpec(paths), offsets=offsets,
                          packet_interval=channel.PACKET_INTERVAL, snr_db=channel.SNR_DB,
                          quantize=True, rng_seed=seed)
    return SimJob(scenario, config, ct.Trajectory(scenario.positions, scenario.timestamps),
                  ctx.path(f"sim{part}-{num_packets}").with_suffix(".trace"))


def _write_streams(streams, job):
    """What `csitrack simulate` does with the streams: pair, then write."""
    records = []
    for group in trace_io.pair_streams(streams):
        records.extend(group.records.values())
    header = trace_io.TraceHeader(job.config.geometry, channel.AP_IDS, job.config.packet_interval)
    trace_io.write_trace(job.trace_path, trace_io.TraceFile(header, records))


def check_simulated(run, streams, scenario, label):
    """Streams must sit on the packet grid and match the channel model up to
    one phase per packet, with the configured noise. Returns the CSI."""
    run.check(sorted(streams) == list(channel.AP_IDS), f"{label}: AP ids differ")
    received = []
    for a, ap_id in enumerate(channel.AP_IDS):
        records = streams.get(ap_id, [])
        if len(records) != scenario.num_packets:
            run.check(False, f"{label}: {ap_id} has {len(records)} packets")
            return None
        run.check([r.packet_index for r in records] == list(range(scenario.num_packets))
                  and np.array_equal([r.timestamp for r in records], scenario.timestamps),
                  f"{label}: {ap_id} indices or timestamps differ from the packet grid")
        values = np.array([r.csi for r in records])
        received.append(values)
        snr, sigma = channel.residual_snr_db(values, channel.clean_csi(scenario, a))
        run.check(abs(snr - channel.SNR_DB) <= SNR_TOLERANCE_SIGMAS * sigma,
                  f"{label}: {ap_id} CSI implies {snr:.2f} dB SNR against the channel model, "
                  f"configured {channel.SNR_DB} dB (tolerance {SNR_TOLERANCE_SIGMAS * sigma:.2f} dB)")
    return np.array(received)


def simulate_write(ctx: Context) -> Run:
    """The `csitrack simulate` path: simulate, pair, write, for several seeds."""
    sizes = ctx.sizes
    calibration = ctx.calibration

    def prepare():
        jobs = [sim_job(ctx, part, sizes.sim_packets) for part in range(SIM_PARTS)]
        warm = ct.Trajectory(jobs[0].waypoints.positions[:20], jobs[0].waypoints.timestamps[:20])
        simulator.simulate_trajectory(jobs[0].config, warm)
        return jobs

    def setup(segments):
        jobs, segment = ctx.calibration.measure_long(prepare)
        segments.append(segment)
        return jobs

    jobs, setups = ctx.repeat_setup(setup)
    run = Run(setups)
    outputs = {}
    passes = 0
    ctx.begin()
    start = time.perf_counter()
    while passes < max(sizes.min_passes, SIM_PARTS) or time.perf_counter() - start < ctx.seconds:
        part = passes % SIM_PARTS
        passes += 1
        job = jobs[part]
        try:
            streams, simulated = calibration.measure_long(simulator.simulate_trajectory,
                                                          job.config, job.waypoints)
            _, written = calibration.measure_long(_write_streams, streams, job)
        except FAILURES as exc:
            run.failed += sizes.sim_packets
            run.attempted += sizes.sim_packets
            run.notes.append(f"pass failed: {type(exc).__name__}: {exc}")
            continue
        run.add_round([simulated, written], sizes.sim_packets)
        outputs[part] = streams
    ctx.end()
    run.trace_bytes_per_pkt = jobs[0].trace_path.stat().st_size / sizes.sim_packets
    for part, streams in sorted(outputs.items()):
        check_simulated(run, streams, jobs[part].scenario, f"simulate part {part}")
    run.check(len(outputs) == SIM_PARTS, "simulate: a part never completed")

    # what the written file is worth: a long part 0, through the track path;
    # 1,500 steady-state packets put 15 latency samples beyond the p99
    job = sim_job(ctx, 0, sizes.check_packets)
    streams = simulator.simulate_trajectory(job.config, job.waypoints)
    csi = check_simulated(run, streams, job.scenario, "simulate check trace")
    _write_streams(streams, job)
    tracked = track_file(ctx, job.trace_path, job.trace_path.with_suffix(".trajectory"))
    if csi is not None:
        check_trace_records(run, tracked.trace, job.scenario, csi, "simulate: read_trace")
    run.latencies = tracked.ingests[sizes.window_packets:]
    check_accuracy(run, tracked.trajectory, job.scenario, "simulate: tracked")
    run.notes.append("ingest and accuracy: tracking a full-length written trace after the timed phase")
    return run


WORKLOADS = {
    "stream-stride1": stream_stride1,
    "track-stride10": track_stride10,
    "simulate-write": simulate_write,
}
