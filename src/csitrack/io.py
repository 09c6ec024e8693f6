"""Trace, trajectory, CDF and run-config file formats, plus stream pairing.

All formats are line-oriented text for inspectability and cross-language
portability. Floats are written with repr(), which round-trips IEEE doubles
losslessly (up to 17 significant digits).

Trace format::

    #csi-trace v1
    #antennas 3
    #wavelength 0.06
    #packet_interval 0.006
    #geometry x0,y0 x1,y1 x2,y2
    #aps ap0 ap1 ap2 ap3
    ap0 0 0.0 re0 im0 re1 im1 re2 im2
    ...

Record lines carry ap_id, packet_index, timestamp and 2M float fields
(real, imag per antenna). Trajectory and CDF files are single-header-line
delimited tables. Run configs are JSON.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .aod import AodConfig
from .core import CsiRecord, ArrayGeometry, Trajectory
from .errors import ConfigError, TraceParseError, TraceVersionError
from .evaluation import ErrorCdf
from .simulator import ChannelSpec, OffsetModel, PropagationPath, SimConfig
from .tracker import TrackerConfig

TRACE_MAGIC = "#csi-trace"
TRACE_VERSION = "v1"
TRAJECTORY_HEADER = "#trajectory v1 time x y"
CDF_HEADER = "#error-cdf v1 error cumulative_fraction"


def _fmt(value) -> str:
    return repr(float(value))


@dataclass(frozen=True)
class TraceHeader:
    geometry: ArrayGeometry
    ap_ids: tuple
    packet_interval: float

    def __post_init__(self):
        ap_ids = tuple(str(a) for a in self.ap_ids)
        if not ap_ids or len(set(ap_ids)) != len(ap_ids):
            raise ValueError("ap_ids must be non-empty and unique")
        if any(any(c.isspace() for c in ap) for ap in ap_ids):
            raise ValueError("ap_ids must not contain whitespace")
        if not self.packet_interval > 0:
            raise ValueError("packet_interval must be positive")
        object.__setattr__(self, "ap_ids", ap_ids)

    @property
    def num_antennas(self) -> int:
        return self.geometry.num_antennas

    @property
    def wavelength(self) -> float:
        return self.geometry.wavelength


@dataclass(frozen=True)
class TraceFile:
    header: TraceHeader
    records: list

    def __post_init__(self):
        last_index = {}
        for record in self.records:
            if record.ap_id not in self.header.ap_ids:
                raise ValueError(f"record AP {record.ap_id!r} missing from header")
            if record.csi.size != self.header.num_antennas:
                raise ValueError(
                    f"record has {record.csi.size} CSI entries, header says "
                    f"{self.header.num_antennas}"
                )
            prev = last_index.get(record.ap_id)
            if prev is not None and record.packet_index <= prev:
                raise ValueError(
                    f"AP {record.ap_id!r}: packet_index {record.packet_index} "
                    f"not increasing after {prev}"
                )
            last_index[record.ap_id] = record.packet_index


def write_trace(path, trace: TraceFile) -> None:
    header = trace.header
    positions = header.geometry.antenna_positions
    with open(path, "w") as handle:
        handle.write(f"{TRACE_MAGIC} {TRACE_VERSION}\n")
        handle.write(f"#antennas {header.num_antennas}\n")
        handle.write(f"#wavelength {_fmt(header.wavelength)}\n")
        handle.write(f"#packet_interval {_fmt(header.packet_interval)}\n")
        handle.write(
            "#geometry " + " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in positions) + "\n"
        )
        handle.write("#aps " + " ".join(header.ap_ids) + "\n")
        for record in trace.records:
            parts = [record.ap_id, str(record.packet_index), _fmt(record.timestamp)]
            for value in record.csi:
                parts.append(_fmt(value.real))
                parts.append(_fmt(value.imag))
            handle.write(" ".join(parts) + "\n")


def read_trace(path) -> TraceFile:
    """Parse a trace file line by line; errors name the 1-based line."""
    with open(path) as handle:
        lines = enumerate((line.rstrip("\n") for line in handle), start=1)
        return _parse_trace(lines)


def _parse_trace(lines) -> TraceFile:
    _, first = next(lines, (1, None))
    if first is None:
        raise TraceParseError("empty trace file", 1)
    magic = first.split()
    if len(magic) != 2 or magic[0] != TRACE_MAGIC:
        raise TraceParseError("missing trace magic line", 1)
    if magic[1] != TRACE_VERSION:
        raise TraceVersionError(f"unsupported trace version {magic[1]!r}", 1)

    meta = {}
    body = ()
    for number, line in lines:
        if line.startswith("#"):
            key, _, rest = line[1:].partition(" ")
            meta[key] = (rest, number)
        else:
            body = itertools.chain([(number, line)], lines)
            break
    for key in ("antennas", "wavelength", "packet_interval", "geometry", "aps"):
        if key not in meta:
            raise TraceParseError(f"header is missing #{key}", 1)

    try:
        num_antennas = int(meta["antennas"][0])
        wavelength = float(meta["wavelength"][0])
        packet_interval = float(meta["packet_interval"][0])
        positions = [
            tuple(float(v) for v in pair.split(","))
            for pair in meta["geometry"][0].split()
        ]
    except ValueError as exc:
        raise TraceParseError(f"bad header value: {exc}", 1) from None
    if len(positions) != num_antennas or any(len(p) != 2 for p in positions):
        raise TraceParseError("#geometry does not match #antennas", meta["geometry"][1])
    ap_ids = tuple(meta["aps"][0].split())
    header = TraceHeader(ArrayGeometry(positions, wavelength), ap_ids, packet_interval)

    records = []
    expected_fields = 3 + 2 * num_antennas
    for number, line in body:
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != expected_fields:
            raise TraceParseError(
                f"expected {expected_fields} fields, found {len(parts)}", number
            )
        try:
            values = [float(v) for v in parts[2:]]
            record = CsiRecord(
                ap_id=parts[0],
                packet_index=int(parts[1]),
                timestamp=values[0],
                csi=np.array(values[1::2]) + 1j * np.array(values[2::2]),
            )
        except ValueError as exc:
            raise TraceParseError(str(exc), number) from None
        records.append(record)
    try:
        return TraceFile(header, records)
    except ValueError as exc:
        raise TraceParseError(str(exc)) from None


def records_by_ap(trace: TraceFile) -> dict:
    """Group a trace's records into one ordered stream per AP."""
    streams = {ap: [] for ap in trace.header.ap_ids}
    for record in trace.records:
        streams[record.ap_id].append(record)
    return streams


@dataclass(frozen=True, slots=True)
class PacketGroup:
    """Records sharing one packet index, with absentee APs marked."""

    packet_index: int
    records: dict
    missing: tuple


def pair_streams(streams) -> list:
    """Group records by packet index across APs.

    Gaps are data, not faults: packets missing at some AP are emitted with
    that AP listed in ``missing``. The result depends only on the multiset of
    input records, not on their arrival order.
    """
    universe = sorted(streams)
    by_index = {}
    for ap_id, records in streams.items():
        for record in records:
            if record.ap_id != ap_id:
                raise ValueError(f"record for {record.ap_id!r} in stream {ap_id!r}")
            slot = by_index.setdefault(record.packet_index, {})
            if ap_id in slot:
                raise ValueError(
                    f"duplicate record for AP {ap_id!r} packet {record.packet_index}"
                )
            slot[ap_id] = record
    groups = []
    for index in sorted(by_index):
        present = by_index[index]
        groups.append(
            PacketGroup(
                packet_index=index,
                records={ap: present[ap] for ap in universe if ap in present},
                missing=tuple(ap for ap in universe if ap not in present),
            )
        )
    return groups


def write_trajectory(path, trajectory: Trajectory) -> None:
    with open(path, "w") as handle:
        handle.write(TRAJECTORY_HEADER + "\n")
        for (x, y), t in zip(trajectory.positions, trajectory.timestamps):
            handle.write(f"{_fmt(t)} {_fmt(x)} {_fmt(y)}\n")


def read_trajectory(path) -> Trajectory:
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines or not lines[0].startswith("#trajectory"):
        raise TraceParseError("missing trajectory header", 1)
    head = lines[0].split()
    if len(head) < 2 or head[1] != "v1":
        raise TraceVersionError(f"unsupported trajectory header {lines[0]!r}", 1)
    points = []
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise TraceParseError(f"expected 3 fields, found {len(parts)}", number)
        try:
            t, x, y = (float(v) for v in parts)
        except ValueError as exc:
            raise TraceParseError(str(exc), number) from None
        points.append(((x, y), t))
    if not points:
        raise TraceParseError("trajectory file holds no points")
    return Trajectory.from_points(points)


def write_cdf(path, cdf: ErrorCdf) -> None:
    with open(path, "w") as handle:
        handle.write(CDF_HEADER + "\n")
        for level, fraction in zip(cdf.levels, cdf.fractions):
            handle.write(f"{_fmt(level)} {_fmt(fraction)}\n")


# -- run configuration ---------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Simulation and/or tracking parameters for one experiment."""

    ap_ids: tuple
    geometry: ArrayGeometry
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    sim: SimConfig = None

    def __post_init__(self):
        ap_ids = tuple(str(a) for a in self.ap_ids)
        if not ap_ids or len(set(ap_ids)) != len(ap_ids):
            raise ConfigError("ap_ids: must be non-empty and unique")
        object.__setattr__(self, "ap_ids", ap_ids)
        if self.sim is not None:
            unknown = set(self.sim.channel.paths) - set(ap_ids)
            if unknown:
                raise ConfigError(f"sim.paths: unknown AP ids {sorted(unknown)}")


def _geometry_to_dict(geometry: ArrayGeometry) -> dict:
    return {
        "wavelength": geometry.wavelength,
        "antennas": [[float(x), float(y)] for x, y in geometry.antenna_positions],
    }


def _tracker_to_dict(config: TrackerConfig) -> dict:
    aod = config.aod
    return {
        "num_paths": aod.num_paths,
        "window_seconds": aod.window_seconds,
        "grid_step": aod.grid_step,
        "min_packets": aod.min_packets,
        "refine_iterations": aod.refine_iterations,
        "stride": config.stride,
        "origin": list(config.origin),
        "mode": config.mode,
        "steering_condition_limit": config.steering_condition_limit,
        "stacked_condition_limit": config.stacked_condition_limit,
        "weak_path_rtol": config.weak_path_rtol,
    }


def _sim_to_dict(sim: SimConfig) -> dict:
    return {
        "packet_interval": sim.packet_interval,
        "snr_db": sim.snr_db,
        "quantize": sim.quantize,
        "rng_seed": sim.rng_seed,
        "amplitude_drift_std": sim.amplitude_drift_std,
        "paths": {
            ap: [{"aod": p.aod, "gain": [p.gain.real, p.gain.imag]} for p in paths]
            for ap, paths in sim.channel.paths.items()
        },
        "offsets": {
            ap: {
                "initial_phase": m.initial_phase,
                "frequency_offset": m.frequency_offset,
                "phase_jitter_std": m.phase_jitter_std,
            }
            for ap, m in sim.offsets.items()
        },
    }


def config_to_dict(config: RunConfig) -> dict:
    data = {
        "ap_ids": list(config.ap_ids),
        "geometry": _geometry_to_dict(config.geometry),
        "tracker": _tracker_to_dict(config.tracker),
    }
    if config.sim is not None:
        data["sim"] = _sim_to_dict(config.sim)
    return data


def save_config(path, config: RunConfig) -> None:
    with open(path, "w") as handle:
        json.dump(config_to_dict(config), handle, indent=2)
        handle.write("\n")


def _require(mapping, key, where):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _reject_unknown(mapping, allowed, where):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}.{sorted(unknown)[0]}: unknown field")


def _tracker_from_dict(data: dict) -> TrackerConfig:
    aod_keys = {f.name for f in fields(AodConfig)}
    tracker_keys = {"stride", "origin", "mode", "steering_condition_limit",
                    "stacked_condition_limit", "weak_path_rtol"}
    _reject_unknown(data, aod_keys | tracker_keys, "tracker")
    try:
        aod = AodConfig(**{k: data[k] for k in aod_keys if k in data})
        extras = {k: data[k] for k in tracker_keys if k in data}
        if "origin" in extras:
            extras["origin"] = tuple(extras["origin"])
        return TrackerConfig(aod=aod, **extras)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"tracker: {exc}") from None


def _sim_from_dict(data: dict, geometry: ArrayGeometry) -> SimConfig:
    _reject_unknown(
        data,
        {"packet_interval", "snr_db", "quantize", "rng_seed",
         "amplitude_drift_std", "paths", "offsets"},
        "sim",
    )
    raw_paths = _require(data, "paths", "sim")
    raw_offsets = _require(data, "offsets", "sim")
    channel = {}
    for ap, entries in raw_paths.items():
        paths = []
        for i, entry in enumerate(entries):
            where = f"sim.paths.{ap}[{i}]"
            _reject_unknown(entry, {"aod", "gain"}, where)
            re, im = _require(entry, "gain", where)
            try:
                paths.append(PropagationPath(_require(entry, "aod", where), complex(re, im)))
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from None
        channel[ap] = tuple(paths)
    offsets = {}
    for ap, entry in raw_offsets.items():
        where = f"sim.offsets.{ap}"
        _reject_unknown(entry, {"initial_phase", "frequency_offset", "phase_jitter_std"}, where)
        try:
            offsets[ap] = OffsetModel(**entry)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    snr_db = data.get("snr_db", math.inf)
    try:
        return SimConfig(
            geometry=geometry,
            channel=ChannelSpec(channel),
            offsets=offsets,
            packet_interval=data.get("packet_interval", 0.006),
            snr_db=math.inf if snr_db is None else float(snr_db),
            quantize=bool(data.get("quantize", False)),
            rng_seed=int(data.get("rng_seed", 0)),
            amplitude_drift_std=float(data.get("amplitude_drift_std", 0.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}") from None


def config_from_dict(data: dict) -> RunConfig:
    _reject_unknown(data, {"ap_ids", "geometry", "tracker", "sim"}, "config")
    raw_geometry = _require(data, "geometry", "config")
    _reject_unknown(raw_geometry, {"wavelength", "antennas"}, "geometry")
    try:
        geometry = ArrayGeometry(
            _require(raw_geometry, "antennas", "geometry"),
            raw_geometry.get("wavelength", 0.06),
        )
    except ValueError as exc:
        raise ConfigError(f"geometry: {exc}") from None
    tracker = _tracker_from_dict(data.get("tracker", {}))
    sim = None
    if data.get("sim") is not None:
        sim = _sim_from_dict(data["sim"], geometry)
    return RunConfig(
        ap_ids=tuple(_require(data, "ap_ids", "config")),
        geometry=geometry,
        tracker=tracker,
        sim=sim,
    )


def load_config(path) -> RunConfig:
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from None
    return config_from_dict(data)
