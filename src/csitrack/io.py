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
(real, imag per antenna). ``read_trace`` parses the body in blocks, and one
per-record check (header AP, CSI size, each AP's index increasing) serves
both its blocks and an in-memory ``TraceFile``. Trajectory and CDF files are
single-header-line delimited tables. Run configs are JSON.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np

from .core import ArrayGeometry, Trajectory, checked_records
from .errors import ConfigError, TraceParseError, TraceVersionError
from .evaluation import ErrorCdf
from .simulator import SimConfig
from .tracker import TrackerConfig

TRACE_MAGIC = "#csi-trace"
TRACE_VERSION = "v1"
TRAJECTORY_HEADER = "#trajectory v1 time x y"
CDF_HEADER = "#error-cdf v1 error cumulative_fraction"
#: Body lines that read_trace parses and checks as one block.
BLOCK_LINES = 128


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
        if any(ap.startswith("#") or any(c.isspace() for c in ap) for ap in ap_ids):
            raise ValueError("ap_ids must not contain whitespace or start with '#'")
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
        _check_records(self.header, self.records, {})


def _check_records(header: TraceHeader, records, last: dict) -> None:
    """ValueError unless every record's AP is in the header, its CSI has one
    entry per antenna and each AP's packet indices increase from its entry in
    ``last`` on; only then brings ``last`` (AP id -> latest index) up to date."""
    size, latest = header.num_antennas, dict.fromkeys(header.ap_ids, -math.inf) | last
    for record in records:
        ap, index = record.ap_id, record.packet_index
        previous = latest.get(ap)
        if previous is None:
            raise ValueError(f"record AP {ap!r} missing from header")
        if record.csi.size != size:
            raise ValueError(f"record has {record.csi.size} CSI entries, header says {size}")
        if index <= previous:
            raise ValueError(f"AP {ap!r}: packet_index {index} not increasing after {previous}")
        latest[ap] = index
    last.update(latest)


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
        values = np.array([record.csi for record in trace.records], dtype=complex).view(float)
        for record, row in zip(trace.records, values):
            handle.write(" ".join([record.ap_id, str(record.packet_index),
                                   _fmt(record.timestamp), *map(repr, row.tolist())]) + "\n")


def _positive(text: str) -> float:
    if not 0 < float(text) < math.inf:
        raise ValueError(f"must be positive and finite, not {text!r}")
    return float(text)


def _read_text(path, parse):
    """``parse(handle)`` on text file ``path``; an undecodable byte is a parse error at its line."""
    with open(path) as handle:
        try:
            return parse(handle)
        except UnicodeDecodeError:  # its offset counts from the decoder's chunk
            encoding = handle.encoding
    with open(path, "rb") as handle:  # decoded line by line, the byte names its line
        for number, line in enumerate(handle.read().splitlines(), start=1):
            try:
                line.decode(encoding)
            except UnicodeDecodeError as exc:
                raise TraceParseError(f"byte 0x{line[exc.start]:02x} is not {exc.encoding}",
                                      number) from None
    raise TraceParseError(f"not {encoding} text")


def read_trace(path) -> TraceFile:
    """Parse a trace file; errors name the 1-based line. The body is parsed
    in blocks of BLOCK_LINES lines, each converted by one ``np.array`` call and
    checked as a whole; a block that fails is checked again line by line."""
    return _read_text(path, _parse_trace)


def _parse_trace(handle) -> TraceFile:
    lines = enumerate(handle, start=1)
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
            key, _, rest = line[1:].rstrip("\n").partition(" ")
            meta[key] = (rest, number)
        else:
            body = itertools.chain([line], handle)  # from line `number` on
            break

    def parse_header(key, convert):
        if key not in meta:
            raise TraceParseError(f"header is missing #{key}", 1)
        text, number = meta[key]
        try:
            return convert(text)
        except ValueError as exc:
            raise TraceParseError(f"#{key}: {exc}", number) from None

    def parse_geometry(text):
        positions = [tuple(float(v) for v in pair.split(",")) for pair in text.split()]
        if len(positions) != num_antennas or any(len(p) != 2 for p in positions):
            raise ValueError("does not match #antennas")
        return ArrayGeometry(positions, wavelength)

    num_antennas = parse_header("antennas", int)
    wavelength = parse_header("wavelength", _positive)
    packet_interval = parse_header("packet_interval", _positive)
    geometry = parse_header("geometry", parse_geometry)
    header = parse_header("aps", lambda text: TraceHeader(geometry, text.split(), packet_interval))

    records, last = [], {}  # last: each AP's latest packet index
    while rows := [line.split() for line in itertools.islice(body, BLOCK_LINES)]:
        try:
            records += _parse_block(rows, header, last)
        except ValueError:  # the same checks, line by line, name the first offending line
            for offset, parts in enumerate(rows):
                try:
                    records += _parse_block([parts], header, last)
                except ValueError as exc:
                    raise TraceParseError(str(exc), number + offset) from None
        number += len(rows)
    trace = object.__new__(TraceFile)  # its records were checked against the header
    object.__setattr__(trace, "header", header)
    object.__setattr__(trace, "records", records)
    return trace


def _parse_block(rows, header: TraceHeader, last: dict) -> list:
    """Records of the split lines ``rows``, checked as a whole (ValueError
    says which check failed); brings ``last`` up to date."""
    rows = [parts for parts in rows if parts]  # a blank line holds no record
    if not rows:
        return []
    width = 3 + 2 * header.num_antennas
    counts = set(map(len, rows))
    if counts != {width}:
        raise ValueError(f"expected {width} fields, found {min(counts - {width})}")
    values = np.array([parts[2:] for parts in rows], dtype=float)
    records = checked_records([parts[0] for parts in rows], [int(parts[1]) for parts in rows],
                              values[:, 0].tolist(), values[:, 1:].copy().view(complex))
    _check_records(header, records, last)
    return records


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
    lines = _read_text(path, lambda handle: handle.read().splitlines())
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

    ap_ids: tuple[str, ...]
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


# A config is JSON with each dataclass field under its own name, except where
# these tables say otherwise. A complex number is [re, im]; +inf is Infinity.
_RENAMED = {(ArrayGeometry, "antenna_positions"): "antennas"}
_FLATTENED = {(TrackerConfig, "aod"), (SimConfig, "channel")}  # fields join the parent's
_INHERITED = {(SimConfig, "geometry")}  # not written; the parent's field of that name
_NULL_MEANS = {(RunConfig, "sim"): None, (SimConfig, "snr_db"): math.inf}
_JSON_TYPES = {(ArrayGeometry, "antenna_positions"): tuple[tuple[float, float], ...]}


def _encode(value):
    if is_dataclass(value):
        data = {}
        for f in fields(value):
            key, item = (type(value), f.name), getattr(value, f.name)
            if key in _FLATTENED:
                data.update(_encode(item))
            elif key not in _INHERITED and item is not None:
                data[_RENAMED.get(key, f.name)] = _encode(item)
        return data
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def _fail(path: str, message: str):
    raise ConfigError(f"{path or 'config'}: {message}")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _build(cls, data: dict, path: str, parent: dict, used: set):
    """Construct ``cls`` from the JSON object ``data`` found at ``path``;
    adds the keys it reads to ``used``."""
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        key = (cls, f.name)
        name, hint = _RENAMED.get(key, f.name), _JSON_TYPES.get(key, hints[f.name])
        if key in _INHERITED:
            kwargs[f.name] = parent[f.name]
        elif key in _FLATTENED:
            kwargs[f.name] = _build(hint, data, path, kwargs, used)
        elif name in data:
            used.add(name)
            if data[name] is None and key in _NULL_MEANS:
                kwargs[f.name] = _NULL_MEANS[key]
            else:
                kwargs[f.name] = _decode(hint, data[name], _join(path, name), kwargs)
        elif f.default is MISSING and f.default_factory is MISSING:
            _fail(path, f"missing required field {name!r}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        name = str(exc).partition(" ")[0]  # a check that names its field first
        if name in {f.name for f in fields(cls)}:
            path = _join(path, _RENAMED.get((cls, name), name))
        _fail(path, str(exc))


def _expect(ok: bool, what: str, raw, path: str) -> None:
    if not ok:
        _fail(path, f"expected {what}, found {raw!r}")


def _decode(hint, raw, path: str, parent: dict):
    """Check one JSON value against its field's type, then convert it."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if is_dataclass(hint) or origin is dict:
        _expect(isinstance(raw, dict), "an object", raw, path)
        if origin is dict:
            return {k: _decode(args[1], v, _join(path, k), parent) for k, v in raw.items()}
        used = set()
        value = _build(hint, raw, path, parent, used)
        unknown = sorted(set(raw) - used)
        if unknown:
            _fail(_join(path, unknown[0]), "unknown field")
        return value
    if hint is complex:
        return complex(*_decode(tuple[float, float], raw, path, parent))
    if origin is tuple:
        _expect(isinstance(raw, list), "an array", raw, path)
        types = args[:1] * len(raw) if args[-1] is Ellipsis else args
        _expect(len(raw) == len(types), f"{len(types)} elements", raw, path)
        return tuple(_decode(t, v, f"{path}[{i}]", parent)
                     for i, (t, v) in enumerate(zip(types, raw)))
    if hint is float and type(raw) is int and abs(raw) <= sys.float_info.max:
        raw = float(raw)
    _expect(isinstance(raw, hint) and (hint is bool or type(raw) is not bool),
            hint.__name__, raw, path)
    return raw


def config_to_dict(config: RunConfig) -> dict:
    return _encode(config)


def save_config(path, config: RunConfig) -> None:
    with open(path, "w") as handle:
        json.dump(config_to_dict(config), handle, indent=2)
        handle.write("\n")


def config_from_dict(data: dict) -> RunConfig:
    return _decode(RunConfig, data, "", {})


def load_config(path) -> RunConfig:
    with open(path) as handle:
        try:
            data = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"invalid JSON: {exc}") from None
    return config_from_dict(data)
