"""Trace/config/trajectory round-trips, stream pairing, parse errors."""

import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from conftest import AP_IDS, BAD_AP_IDS, default_geometry, make_sim_config

from csitrack import io as trace_io
from csitrack.aod import AodConfig
from csitrack.cli import indoor_4ap_preset
from csitrack.core import ArrayGeometry, CsiRecord, PathSet, Trajectory
from csitrack.errors import ConfigError, TraceParseError, TraceVersionError
from csitrack.evaluation import ErrorCdf
from csitrack.io import (
    PacketGroup,
    RunConfig,
    TraceFile,
    TraceHeader,
    config_from_dict,
    config_to_dict,
    load_config,
    pair_streams,
    read_trace,
    read_trajectory,
    records_by_ap,
    save_config,
    write_cdf,
    write_trace,
    write_trajectory,
)
from csitrack.simulator import (
    MAX_FREQUENCY_OFFSET,
    ChannelSpec,
    OffsetModel,
    PropagationPath,
    SimConfig,
    simulate_trajectory,
    square_waypoints,
    stationary_waypoints,
)
from csitrack.tracker import MODES, TrackerConfig

DATA = pathlib.Path(__file__).parent / "data"


def small_trace(seed=0, packets=5):
    config = make_sim_config(seed, snr_db=20.0, quantize=True)
    streams = simulate_trajectory(config, stationary_waypoints(0.006 * (packets - 1) + 1e-9))
    records = []
    for group in pair_streams(streams):
        records.extend(group.records.values())
    header = TraceHeader(config.geometry, AP_IDS, config.packet_interval)
    return TraceFile(header, records)


class TestTraceRoundTrip:
    def test_write_read_identical(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "trace.txt"
        write_trace(path, trace)
        loaded = read_trace(path)
        assert loaded.header.ap_ids == trace.header.ap_ids
        assert loaded.header.packet_interval == trace.header.packet_interval
        assert loaded.header.geometry.wavelength == trace.header.geometry.wavelength
        np.testing.assert_array_equal(
            loaded.header.geometry.antenna_positions,
            trace.header.geometry.antenna_positions,
        )
        assert len(loaded.records) == len(trace.records)
        for a, b in zip(loaded.records, trace.records):
            assert (a.ap_id, a.packet_index, a.timestamp) == (b.ap_id, b.packet_index, b.timestamp)
            np.testing.assert_array_equal(a.csi, b.csi)

    def test_a_packets_records_share_their_fields(self, tmp_path):
        # one packet index and one timestamp object per packet, and the header's AP-id strings
        path = tmp_path / "trace.txt"
        write_trace(path, small_trace(packets=300))
        loaded = read_trace(path)
        own = dict(zip(loaded.header.ap_ids, loaded.header.ap_ids))
        groups = pair_streams(records_by_ap(loaded))
        assert groups[-1].packet_index > 256  # past the small ints Python caches
        for group in groups:
            first = next(iter(group.records.values()))
            for record in group.records.values():
                assert record.ap_id is own[record.ap_id]
                assert record.packet_index is first.packet_index
                assert record.timestamp is first.timestamp

    def test_a_trace_that_cannot_be_written_leaves_no_partial_file(self, tmp_path):
        # str() refuses an int of more than 4,300 digits; the writer must find it before it opens
        trace = small_trace()
        huge = CsiRecord("ap0", 10**5000, 1.0, trace.records[0].csi)
        unwritable = TraceFile(trace.header, [*trace.records, huge])
        path = tmp_path / "trace.txt"
        with pytest.raises(ValueError):
            write_trace(path, unwritable)
        assert not path.exists()
        write_trace(path, trace)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            write_trace(path, unwritable)
        assert path.read_bytes() == before

    def test_a_trace_is_utf8_whatever_the_locale(self, tmp_path):
        # under an ASCII locale a UTF-8 AP id is neither refused after the file opens
        # (a partial file) nor read back as another id
        path = tmp_path / "trace.txt"
        script = (
            "import numpy as np\n"
            "from csitrack.core import ArrayGeometry, CsiRecord\n"
            "from csitrack.io import TraceFile, TraceHeader, read_trace, write_trace\n"
            "header = TraceHeader(ArrayGeometry.circular(3), ['ap\\u00e9'], 0.006)\n"
            "record = CsiRecord('ap\\u00e9', 0, 0.0, np.ones(3))\n"
            f"write_trace({str(path)!r}, TraceFile(header, [record]))\n"
            f"assert read_trace({str(path)!r}).header.ap_ids == ('ap\\u00e9',)\n")
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)
        assert b"#aps ap\xc3\xa9\nap\xc3\xa9 0 0.0 " in path.read_bytes()

    def test_headers_compare_by_value(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "trace.txt"
        write_trace(path, trace)
        assert read_trace(path).header == trace.header
        assert TraceHeader(default_geometry(), AP_IDS, 0.006) == TraceHeader(
            default_geometry(), list(AP_IDS), 0.006)
        assert TraceHeader(default_geometry(), AP_IDS, 0.006) != TraceHeader(
            default_geometry(), AP_IDS, 0.005)

    def test_truncated_line_reports_line_number(self, tmp_path):
        path = tmp_path / "trace.txt"
        write_trace(path, small_trace())
        text = path.read_text().splitlines()
        text[-1] = text[-1][: len(text[-1]) // 2].rstrip()
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(TraceParseError) as info:
            read_trace(path)
        assert info.value.line_number == len(text)

    def test_non_finite_csi_reports_line_number(self, tmp_path):
        path = tmp_path / "trace.txt"
        write_trace(path, small_trace())
        lines = path.read_text().splitlines()
        fields = lines[-3].split()
        fields[4] = "nan"  # the imaginary part of antenna 0
        lines[-3] = " ".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceParseError, match="finite") as info:
            read_trace(path)
        assert info.value.line_number == len(lines) - 2

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "trace.txt"
        write_trace(path, small_trace())
        text = path.read_text().replace("#csi-trace v1", "#csi-trace v9", 1)
        path.write_text(text)
        with pytest.raises(TraceVersionError):
            read_trace(path)

    def test_missing_header_key(self, tmp_path):
        path = tmp_path / "trace.txt"
        write_trace(path, small_trace())
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#aps")]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceParseError):
            read_trace(path)

    @pytest.mark.parametrize("key, value", [
        ("aps", "ap0 ap1 ap1 ap3"),
        ("wavelength", "-0.06"),
        ("wavelength", "nan"),
        ("packet_interval", "0"),
        ("geometry", "0.0,0.0 0.01,0.0 0.0,0.0"),
    ])
    def test_bad_header_value_names_its_line(self, tmp_path, key, value):
        path = tmp_path / "trace.txt"
        write_trace(path, small_trace())
        lines = path.read_text().splitlines()
        number = next(n for n, line in enumerate(lines, start=1) if line.startswith(f"#{key} "))
        lines[number - 1] = f"#{key} {value}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceParseError, match=f"#{key}") as info:
            read_trace(path)
        assert info.value.line_number == number

    @pytest.mark.parametrize("key", ["antennas", "wavelength", "packet_interval", "geometry",
                                     "aps"])
    def test_repeated_header_key_names_its_second_line(self, tmp_path, key):
        path = tmp_path / "trace.txt"
        write_trace(path, small_trace())
        lines = path.read_text().splitlines()
        number = next(n for n, line in enumerate(lines, start=1) if line.startswith(f"#{key} "))
        lines.insert(number, lines[number - 1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceParseError, match=f"#{key}: repeats line {number}") as info:
            read_trace(path)
        assert info.value.line_number == number + 1

    def test_header_lines_the_reader_does_not_use_may_repeat(self, tmp_path):
        clean, path, again = (tmp_path / name for name in ("clean.txt", "notes.txt", "again.txt"))
        write_trace(clean, small_trace())
        lines = clean.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2] + ["#note a\n", "#note b\n", "#\n"] * 2 + lines[2:]))
        write_trace(again, read_trace(path))
        assert again.read_bytes() == clean.read_bytes()

    def test_unknown_ap_in_body(self, tmp_path):
        path = tmp_path / "trace.txt"
        trace = small_trace()
        write_trace(path, trace)
        lines = path.read_text().splitlines()
        lines.append(lines[-1].replace("ap3", "ap9", 1))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceParseError, match="'ap9' missing from header") as info:
            read_trace(path)
        assert info.value.line_number == len(lines)
        assert str(info.value).startswith(f"line {len(lines)}: ")

    @pytest.mark.parametrize("block_lines", [1, 3, 128])
    def test_non_increasing_index_names_its_line(self, tmp_path, block_lines):
        # the AP's previous packet sits in an earlier block unless blocks are long
        path = tmp_path / "trace.txt"
        write_trace(path, small_trace())
        lines = path.read_text().splitlines()
        number = len(lines) - 5  # ap2 of the last packet but one
        fields = lines[number - 1].split()
        fields[1] = str(int(fields[1]) - 1)
        lines[number - 1] = " ".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with mock.patch.object(trace_io, "BLOCK_LINES", block_lines):
            with pytest.raises(TraceParseError, match="not increasing") as info:
                read_trace(path)
        assert info.value.line_number == number

    def test_parse_throughput(self, tmp_path):
        # 10^4 packets x 4 APs parse in under 2 seconds
        rng = np.random.default_rng(0)
        header = TraceHeader(default_geometry(), AP_IDS, 0.006)
        records = []
        for p in range(10_000):
            for ap in AP_IDS:
                csi = rng.normal(size=3) + 1j * rng.normal(size=3)
                records.append(CsiRecord(ap, p, p * 0.006, csi))
        path = tmp_path / "big.txt"
        write_trace(path, TraceFile(header, records))
        start = time.perf_counter()
        loaded = read_trace(path)
        elapsed = time.perf_counter() - start
        assert len(loaded.records) == 40_000
        assert elapsed < 2.0

    def test_records_by_ap_preserves_order(self):
        trace = small_trace()
        streams = records_by_ap(trace)
        assert set(streams) == set(AP_IDS)
        for ap, records in streams.items():
            assert [r.packet_index for r in records] == sorted(r.packet_index for r in records)


_TRACE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308,
                     -1.7976931348623157e308, 0.30000000000000004, 1.0000000000000002,
                     -9.999999999999999e22]),
)
# any text, "", '#...' and whitespace too: the constructors decide what a trace holds
_AP_NAMES = st.text(max_size=6)
_PACKET_INDICES = st.one_of(st.integers(), st.floats(), st.booleans())


def built(constructor, *arguments):
    """``constructor(*arguments)``; hypothesis rejects the arguments if it refuses them."""
    try:
        return constructor(*arguments)
    except ValueError:
        reject()


@st.composite
def trace_arguments(draw, max_records=12):
    """The arguments of a TraceHeader and of its CsiRecords: each AP's packet indices increase
    by 1 to 3, but one record may take any integer, float or bool. Each is tried as it is
    drawn, so a draw that a constructor refuses ends there."""
    num_antennas = draw(st.integers(2, 4))
    header = (ArrayGeometry.circular(num_antennas),
              draw(st.lists(_AP_NAMES, min_size=1, max_size=4)), draw(st.floats(1e-6, 1.0)))
    built(TraceHeader, *header)
    next_index = dict.fromkeys(header[1], 0)
    odd = draw(st.integers(0, max_records))
    records = []
    for number, ap in enumerate(draw(st.lists(st.sampled_from(header[1]), max_size=max_records))):
        next_index[ap] += draw(st.integers(1, 3))
        index = draw(_PACKET_INDICES) if number == odd else next_index[ap]
        values = draw(st.lists(_TRACE_FLOATS, min_size=2 * num_antennas,
                               max_size=2 * num_antennas))
        records.append((ap, index, draw(_TRACE_FLOATS), np.array(values).view(complex)))
        built(CsiRecord, *records[-1])
    return header, records


def trace_file(header, records) -> TraceFile:
    return built(TraceFile, built(TraceHeader, *header),
                 [built(CsiRecord, *record) for record in records])


@st.composite
def trace_files(draw, max_records=12):
    return trace_file(*draw(trace_arguments(max_records)))


@settings(max_examples=150, deadline=None)
@given(arguments=trace_arguments())
@example(arguments=((default_geometry(), ["ap0", ""], 0.006), [("ap0", 1, 0.0, np.ones(3))]))
@example(arguments=((default_geometry(), ["ap0"], 0.006), [("ap0", 0.5, 0.0, np.ones(3))]))
@example(arguments=((default_geometry(), ["ap0", "ap1"], 0.006),  # one packet, two signed zeros
                    [("ap0", 7, 0.0, np.ones(3)), ("ap1", 7, -0.0, np.ones(3))]))
def test_trace_round_trip_is_lossless(arguments):
    # every trace the constructors accept comes back: its AP ids and integer indices, and
    # every float bit for bit (-0.0, subnormals, +-1e308, 17 digits)
    trace = trace_file(*arguments)
    with tempfile.TemporaryDirectory() as folder:
        path = pathlib.Path(folder) / "trace.txt"
        write_trace(path, trace)
        loaded = read_trace(path)
    assert loaded.header == trace.header
    assert len(loaded.records) == len(trace.records)
    for a, b in zip(loaded.records, trace.records):
        assert (a.ap_id, a.packet_index) == (b.ap_id, b.packet_index)
        assert np.float64(a.timestamp).tobytes() == np.float64(b.timestamp).tobytes()
        assert a.csi.tobytes() == b.csi.tobytes()


def line_parse(text: str, header: TraceHeader):
    """The body of a trace written with ``header``, parsed line by line with
    every check on its own line: (records, None), or (None, the number of the
    first offending line). The reference for read_trace's blocks."""
    width = 3 + 2 * header.geometry.num_antennas
    records, last = [], {}
    for number, line in enumerate(text.split("\n"), start=1):
        parts = line.split()
        if number <= 6 or not parts:  # write_trace's header is six lines
            continue
        try:
            if len(parts) != width:
                raise ValueError("field count")
            values = [float(v) for v in parts[2:]]
            record = CsiRecord(parts[0], int(parts[1]), values[0],
                               np.array(values[1:]).view(complex).copy())
            if not math.isfinite(record.timestamp) or record.ap_id not in header.ap_ids:
                raise ValueError("timestamp or AP")
            if record.packet_index <= last.get(record.ap_id, -math.inf):
                raise ValueError("index")
        except ValueError:
            return None, number
        last[record.ap_id] = record.packet_index
        records.append(record)
    return records, None


_CORRUPTIONS = {
    "drop a field": lambda fields, rng: fields[:-1],
    "extra field": lambda fields, rng: fields + ["0.0"],
    "nan csi": lambda fields, rng: fields[:3] + ["nan"] + fields[4:],
    "inf csi": lambda fields, rng: fields[:-1] + ["-inf"],
    "nan timestamp": lambda fields, rng: fields[:2] + ["nan"] + fields[3:],
    "bad float": lambda fields, rng: fields[:4] + ["1.0.0"] + fields[5:],
    "bad index": lambda fields, rng: fields[:1] + ["1.5"] + fields[2:],
    "unknown AP": lambda fields, rng: ["not-an-ap"] + fields[1:],
    # indices step by 1 to 3: back by 3 repeats or passes an earlier index of the AP
    "index back": lambda fields, rng: fields[:1] + [str(int(fields[1]) - 3)] + fields[2:],
    "index moved": lambda fields, rng: fields[:1] + [str(int(fields[1]) + rng.integers(-2, 3))]
                                       + fields[2:],
}


@settings(max_examples=200, deadline=None)
@given(trace=trace_files(max_records=40), block_lines=st.sampled_from([1, 2, 3, 128]),
       blanks=st.lists(st.tuples(st.integers(0, 20), st.sampled_from(["", "  ", "\t "])),
                       max_size=4),
       corruption=st.none() | st.sampled_from(sorted(_CORRUPTIONS)), where=st.integers(0, 10**6))
def test_block_parser_equals_the_line_parser(trace, block_lines, blanks, corruption, where):
    # bit-equal records, or the same error class and line number, for any
    # block size, with blank lines, and with one line corrupted in any block
    with tempfile.TemporaryDirectory() as folder:
        path = pathlib.Path(folder) / "trace.txt"
        write_trace(path, trace)
        lines = path.read_text().split("\n")[:-1]
        for position, blank in blanks:
            lines.insert(6 + position % (len(lines) - 5), blank)
        body = [n for n, line in enumerate(lines) if n >= 6 and line.split()]
        if corruption and body:
            n = body[where % len(body)]
            rng = np.random.default_rng(where)
            lines[n] = " ".join(_CORRUPTIONS[corruption](lines[n].split(), rng))
        text = "\n".join(lines) + "\n"
        path.write_text(text)
        expected, number = line_parse(text, trace.header)
        with mock.patch.object(trace_io, "BLOCK_LINES", block_lines):
            if expected is None:
                with pytest.raises(TraceParseError) as info:
                    read_trace(path)
                assert type(info.value) is TraceParseError
                assert info.value.line_number == number
                return
            loaded = read_trace(path)
    assert loaded.header == trace.header
    assert len(loaded.records) == len(expected)
    for a, b in zip(loaded.records, expected):
        assert (a.ap_id, a.packet_index, type(a.packet_index)) == (
            b.ap_id, b.packet_index, type(b.packet_index))
        assert type(a.timestamp) is type(b.timestamp) is float
        assert np.float64(a.timestamp).tobytes() == np.float64(b.timestamp).tobytes()
        assert a.csi.dtype == b.csi.dtype and a.csi.tobytes() == b.csi.tobytes()


@pytest.mark.parametrize("fault,match", [
    (None, None),
    (("ap9", 3, 3), "'ap9' missing from header"),
    (("ap1", 3, 2), "2 CSI entries, header says 3"),
    (("ap1", 1, 3), "'ap1': packet_index 1 not increasing after 1"),
    (("ap1", 0, 3), "'ap1': packet_index 0 not increasing after 1"),
])
def test_in_memory_trace_checks_each_record(fault, match):
    # APs interleaved packet by packet, so indices repeat across APs; the fault
    # follows ap1's packet 1 with ap2's packet 1 in between
    header = TraceHeader(default_geometry(), AP_IDS, 0.006)
    records = [CsiRecord(ap, p, 0.006 * p, np.ones(3)) for p in range(3) for ap in AP_IDS]
    if fault is None:
        assert TraceFile(header, records).records == records
        return
    ap, index, size = fault
    records.insert(len(AP_IDS) + 3, CsiRecord(ap, index, 0.006 * index, np.ones(size)))
    with pytest.raises(ValueError, match=match):
        TraceFile(header, records)


def test_trace_header_rejects_ap_ids_the_format_cannot_hold():
    for bad in (["#ap"], ["ap 0"], ["ap\t0"], ["ap0", "ap0"], [], *BAD_AP_IDS.values()):
        with pytest.raises(ValueError, match="^ap_ids must "):
            TraceHeader(default_geometry(), bad, 0.006)


@pytest.mark.parametrize("interval", [0.0, -0.006, math.nan, math.inf])
def test_trace_header_rejects_a_packet_interval_that_is_not_positive(interval):
    with pytest.raises(ValueError, match="packet_interval must be positive"):
        TraceHeader(default_geometry(), AP_IDS, interval)


class TestPairStreams:
    def make_records(self, ap, indices):
        return [CsiRecord(ap, i, i * 0.006, np.ones(3, dtype=complex)) for i in indices]

    def test_complete_streams_full_groups(self):
        streams = {ap: self.make_records(ap, range(4)) for ap in AP_IDS}
        groups = pair_streams(streams)
        assert len(groups) == 4
        for group in groups:
            assert set(group.records) == set(AP_IDS)

    def test_missing_packet_marked(self):
        streams = {ap: self.make_records(ap, range(10)) for ap in AP_IDS}
        streams["ap2"] = [r for r in streams["ap2"] if r.packet_index != 7]
        groups = pair_streams(streams)
        assert "ap2" not in groups[7].records

    @settings(max_examples=60, deadline=None)
    @given(packets=st.integers(0, 12), data=st.data())
    def test_arrival_order_irrelevant(self, packets, data):
        # random per-AP drops; then each stream, and the order of the APs, shuffled
        kept = st.lists(st.booleans(), min_size=packets, max_size=packets)
        streams = {ap: [r for r, keep in zip(self.make_records(ap, range(packets)),
                                             data.draw(kept)) if keep]
                   for ap in AP_IDS}
        shuffled = {ap: data.draw(st.permutations(streams[ap]))
                    for ap in data.draw(st.permutations(AP_IDS))}
        base = pair_streams(streams)
        permuted = pair_streams(shuffled)
        indices = sorted({r.packet_index for records in streams.values() for r in records})
        for group, index in zip(base, indices, strict=True):  # as PacketGroup(...) builds them
            built = PacketGroup(index, {ap: r for ap in sorted(streams) for r in streams[ap]
                                        if r.packet_index == index})
            assert type(group) is PacketGroup and type(group.records) is dict
            assert (type(group.packet_index), group.packet_index) == (int, built.packet_index)
            assert [(ap, id(r)) for ap, r in group.records.items()] == [
                (ap, id(r)) for ap, r in built.records.items()]
        assert [g.packet_index for g in base] == [g.packet_index for g in permuted]
        for a, b in zip(base, permuted):
            assert list(a.records) == list(b.records)
            assert all(a.records[ap] is b.records[ap] for ap in a.records)
            assert list(a.records) == sorted(a.records)
        paired = [id(r) for g in base for r in g.records.values()]
        assert sorted(paired) == sorted(id(r) for records in streams.values() for r in records)

    def test_duplicate_record_rejected(self):
        records = self.make_records("ap0", [1, 1])
        with pytest.raises(ValueError):
            pair_streams({"ap0": records})

    def test_record_in_another_aps_stream_rejected(self):
        streams = {ap: self.make_records(ap, range(3)) for ap in AP_IDS}
        streams["ap1"][2] = streams["ap0"][2]
        with pytest.raises(ValueError, match="record for 'ap0' in stream 'ap1'"):
            pair_streams(streams)


class TestTrajectoryFiles:
    def test_roundtrip(self, tmp_path):
        rows = 2 * trace_io.BLOCK_LINES + 1  # rows are formatted a block at a time
        long = Trajectory(np.random.default_rng(3).normal(size=(rows, 2)), np.arange(rows) * 0.006)
        for trajectory in (Trajectory(np.array([[0.0, 0.0], [0.1234567890123456, -7.2]]),
                                      np.array([0.0, 0.5])), long):
            path = tmp_path / "traj.txt"
            write_trajectory(path, trajectory)
            loaded = read_trajectory(path)
            np.testing.assert_array_equal(loaded.positions, trajectory.positions)
            np.testing.assert_array_equal(loaded.timestamps, trajectory.timestamps)
            assert path.read_text().splitlines()[1:] == [
                f"{t!r} {x!r} {y!r}" for t, (x, y) in zip(trajectory.timestamps.tolist(),
                                                           trajectory.positions.tolist())]

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("#trajectory v1 time x y\n0.0 1.0\n")
        with pytest.raises(TraceParseError) as info:
            read_trajectory(path)
        assert info.value.line_number == 2

    def test_cdf_file(self, tmp_path):
        cdf = ErrorCdf(np.array([0.01, 0.02]), np.array([0.5, 1.0]), 0.015)
        path = tmp_path / "cdf.txt"
        write_cdf(path, cdf)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#error-cdf")
        assert len(lines) == 3


class TestRunConfig:
    def make_config(self):
        sim = make_sim_config(3, snr_db=25.0, quantize=True)
        return RunConfig(ap_ids=AP_IDS, geometry=sim.geometry, sim=sim,
                         tracker=TrackerConfig(stride=5))

    def test_roundtrip_through_json(self, tmp_path):
        config = self.make_config()
        path = tmp_path / "config.json"
        save_config(path, config)
        loaded = load_config(path)
        assert loaded.ap_ids == config.ap_ids
        assert loaded.tracker == config.tracker
        np.testing.assert_array_equal(
            loaded.geometry.antenna_positions, config.geometry.antenna_positions
        )
        assert loaded.sim.snr_db == config.sim.snr_db
        assert loaded.sim.rng_seed == config.sim.rng_seed
        for ap in AP_IDS:
            for a, b in zip(loaded.sim.channel.paths[ap], config.sim.channel.paths[ap]):
                assert a.aod == b.aod and a.gain == b.gain
            assert loaded.sim.offsets[ap] == config.sim.offsets[ap]

    def test_infinite_snr_roundtrip(self, tmp_path):
        sim = make_sim_config(4)  # snr infinite
        config = RunConfig(ap_ids=AP_IDS, geometry=sim.geometry, sim=sim)
        path = tmp_path / "config.json"
        save_config(path, config)
        assert load_config(path).sim.snr_db == np.inf

    def test_unknown_field_named_in_error(self, tmp_path):
        data = config_to_dict(self.make_config())
        data["tracker"]["typo_field"] = 1
        with pytest.raises(ConfigError, match="typo_field"):
            config_from_dict(data)

    def test_unknown_ap_in_sim_section(self):
        data = config_to_dict(self.make_config())
        data["sim"]["paths"]["ap9"] = data["sim"]["paths"]["ap0"]
        data["sim"]["offsets"]["ap9"] = data["sim"]["offsets"]["ap0"]
        with pytest.raises(ConfigError, match="ap9"):
            config_from_dict(data)

    def test_bad_offset_value_reports_field_path(self):
        data = config_to_dict(self.make_config())
        data["sim"]["offsets"]["ap1"]["frequency_offset"] = 9e9
        with pytest.raises(ConfigError, match="ap1"):
            config_from_dict(data)

    def test_tracker_defaults_when_section_missing(self):
        data = config_to_dict(self.make_config())
        del data["tracker"]
        del data["sim"]
        loaded = config_from_dict(data)
        assert loaded.tracker == TrackerConfig()
        assert loaded.sim is None

    @pytest.mark.parametrize("where", ["top", "nested"])
    def test_repeated_key_is_config_error(self, tmp_path, where):
        text = json.dumps(config_to_dict(self.make_config()))
        key = "ap_ids" if where == "top" else "frequency_offset"
        start = text.index(f'"{key}": ')
        end = text.index(", ", start) if where == "nested" else text.index("], ", start) + 1
        path = tmp_path / "config.json"
        path.write_text(text[:end] + ", " + text[start:end] + text[end:])  # the key twice
        with pytest.raises(ConfigError, match=f"^config: duplicate key '{key}'$"):
            load_config(path)

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)


class TestConfigSchema:
    """The JSON layout is derived from the config dataclasses."""

    def test_saved_preset_from_earlier_release_loads(self):
        # written by the hand-listed encoder this schema replaced
        path = DATA / "indoor-4ap.config.json"
        preset = indoor_4ap_preset(1234)
        assert load_config(path) == preset
        assert config_to_dict(preset) == json.loads(path.read_text())

    @pytest.mark.parametrize("path, change", [
        ("sim.quantize", lambda d: d["sim"].update(quantize="no")),
        ("sim.rng_seed", lambda d: d["sim"].update(rng_seed=3.7)),
        ("tracker.stride", lambda d: d["tracker"].update(stride=2.5)),
        ("tracker.stride", lambda d: d["tracker"].update(stride=True)),
        ("sim.snr_db", lambda d: d["sim"].update(snr_db=False)),
        ("sim.snr_db", lambda d: d["sim"].update(snr_db=10**400)),
        ("sim.paths.ap0[1].gain[0]",
         lambda d: d["sim"]["paths"]["ap0"][1].update(gain=[10**400, 0])),
        ("ap_ids", lambda d: d.update(ap_ids="abc")),
        ("tracker", lambda d: d.update(tracker=[])),
        ("sim.paths.ap0[0].aod", lambda d: d["sim"]["paths"]["ap0"][0].update(aod="x")),
        ("sim.paths.ap0[1].gain", lambda d: d["sim"]["paths"]["ap0"][1].update(gain=5)),
        ("sim.paths.ap0[1].gain", lambda d: d["sim"]["paths"]["ap0"][1].update(gain=[1, 0, 3])),
        ("sim.offsets.ap2.frequency_offset",
         lambda d: d["sim"]["offsets"]["ap2"].update(frequency_offset="x")),
        ("sim.paths", lambda d: d["sim"].update(paths=[])),
        ("tracker.origin", lambda d: d["tracker"].update(origin="ab")),
        # values a constructor check rejects, named by their own ids
        pytest.param("tracker.origin", lambda d: d["tracker"].update(origin=[math.nan, 0.0]),
                     id="origin-nan"),
        pytest.param("tracker.steering_condition_limit",
                     lambda d: d["tracker"].update(steering_condition_limit=math.nan),
                     id="steering-limit-nan"),
        pytest.param("tracker.stacked_condition_limit",
                     lambda d: d["tracker"].update(stacked_condition_limit=-5.0),
                     id="stacked-limit-negative"),
        pytest.param("tracker.weak_path_rtol", lambda d: d["tracker"].update(weak_path_rtol=-1.0),
                     id="weak-rtol-negative"),
        pytest.param("tracker.window_seconds",
                     lambda d: d["tracker"].update(window_seconds=math.inf), id="window-inf"),
        pytest.param("tracker.grid_step", lambda d: d["tracker"].update(grid_step=math.inf),
                     id="grid-step-inf"),
        pytest.param("tracker.grid_step", lambda d: d["tracker"].update(grid_step=2.0),
                     id="grid-step-coarse"),  # 4 grid points for 2 paths
        pytest.param("tracker.stride", lambda d: d["tracker"].update(stride=0), id="stride-zero"),
        pytest.param("geometry.wavelength", lambda d: d["geometry"].update(wavelength=-0.06),
                     id="wavelength-negative"),
        pytest.param("tracker.min_packets", lambda d: d["tracker"].update(min_packets=0),
                     id="min-packets-zero"),
        pytest.param("tracker.refine_iterations",
                     lambda d: d["tracker"].update(refine_iterations=-1), id="refine-negative"),
        pytest.param("sim.paths.ap0[0].aod",
                     lambda d: d["sim"]["paths"]["ap0"][0].update(aod=math.nan), id="aod-nan"),
        pytest.param("sim.offsets.ap1.initial_phase",
                     lambda d: d["sim"]["offsets"]["ap1"].update(initial_phase=math.inf),
                     id="initial-phase-inf"),
        pytest.param("sim.offsets.ap1.phase_jitter_std",
                     lambda d: d["sim"]["offsets"]["ap1"].update(phase_jitter_std=-1.0),
                     id="jitter-negative"),
        pytest.param("sim.packet_interval", lambda d: d["sim"].update(packet_interval=0.0),
                     id="packet-interval-zero"),
        pytest.param("sim.amplitude_drift_std",
                     lambda d: d["sim"].update(amplitude_drift_std=-1.0), id="drift-negative"),
        pytest.param("sim.offsets.ap1.frequency_offset",
                     lambda d: d["sim"]["offsets"]["ap1"].update(frequency_offset=math.nan),
                     id="frequency-offset-nan"),
        pytest.param("sim.packet_interval", lambda d: d["sim"].update(packet_interval=math.inf),
                     id="packet-interval-inf"),
        pytest.param("ap_ids: ap_ids must be one or more unique", lambda d: d.update(ap_ids=[]),
                     id="ap-ids-empty"),
        pytest.param("ap_ids: ap_ids must be one or more unique",
                     lambda d: d.update(ap_ids=[*d["ap_ids"], "ap0"]), id="ap-ids-duplicate"),
        # AP ids a trace's #aps line cannot hold
        pytest.param("ap_ids: ap_ids must be str, non-empty", lambda d: d["ap_ids"].append(""),
                     id="ap-ids-blank"),
        pytest.param("ap_ids: ap_ids must be str, non-empty", lambda d: d["ap_ids"].append("#x"),
                     id="ap-ids-hash"),
        pytest.param("ap_ids: ap_ids must be str, non-empty", lambda d: d["ap_ids"].append("a p3"),
                     id="ap-ids-space"),
        pytest.param("ap_ids[4]: expected str", lambda d: d["ap_ids"].append(4),
                     id="ap-ids-number"),
        # integer fields: a fraction, a bool or a negative seed
        pytest.param("sim.rng_seed", lambda d: d["sim"].update(rng_seed=-3),
                     id="rng-seed-negative"),
        pytest.param("sim.rng_seed", lambda d: d["sim"].update(rng_seed=True), id="rng-seed-bool"),
        pytest.param("tracker.num_paths", lambda d: d["tracker"].update(num_paths=1.5),
                     id="num-paths-fraction"),
        pytest.param("tracker.min_packets", lambda d: d["tracker"].update(min_packets=20.5),
                     id="min-packets-fraction"),
        pytest.param("tracker.refine_iterations",
                     lambda d: d["tracker"].update(refine_iterations=2.5), id="refine-fraction"),
    ])
    def test_malformed_value_names_its_path(self, path, change):
        data = config_to_dict(indoor_4ap_preset(1234))
        change(data)
        with pytest.raises(ConfigError, match=re.escape(path)):
            config_from_dict(data)

    @pytest.mark.parametrize("value", [2.5, 20.0, True, -3])
    @pytest.mark.parametrize("name, make", [pytest.param(name, make, id=name) for name, make in [
        ("stride", lambda v: TrackerConfig(stride=v)),
        ("num_paths", lambda v: AodConfig(num_paths=v)),
        ("min_packets", lambda v: AodConfig(min_packets=v)),
        ("refine_iterations", lambda v: AodConfig(refine_iterations=v)),
        ("rng_seed", lambda v: dataclasses.replace(make_sim_config(0), rng_seed=v)),
    ]])
    def test_integer_field_refuses_a_non_integer_or_a_negative(self, name, make, value):
        # the field's name leads the message, so a config loader can name its path
        with pytest.raises(ValueError, match=f"^{name} must be "):
            make(value)
        assert getattr(make(np.int64(3)), name) == 3  # a numpy integer is an integer

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key, make", [pytest.param(key, make, id=key) for key, make in [
        ("window_seconds", lambda v: AodConfig(window_seconds=v)),
        ("grid_step", lambda v: AodConfig(grid_step=v)),
        ("ArrayGeometry.wavelength", lambda v: ArrayGeometry([[0.0, 0.0], [0.03, 0.0]], v)),
        ("PathSet.wavelength", lambda v: PathSet("ap0", [0.5], [[1.0], [1.0]], v)),
        ("TraceHeader.packet_interval", lambda v: TraceHeader(default_geometry(), AP_IDS, v)),
        ("SimConfig.packet_interval",
         lambda v: dataclasses.replace(make_sim_config(0), packet_interval=v)),
        ("side", lambda v: square_waypoints(side=v)),
        ("speed", lambda v: square_waypoints(speed=v)),
        ("duration", lambda v: stationary_waypoints(v)),
        ("aod", lambda v: PropagationPath(v, 1.0)),
        ("frequency_offset", lambda v: OffsetModel(frequency_offset=v)),
        ("initial_phase", lambda v: OffsetModel(initial_phase=v)),
        ("phase_jitter_std", lambda v: OffsetModel(phase_jitter_std=v)),
        ("amplitude_drift_std",
         lambda v: dataclasses.replace(make_sim_config(0), amplitude_drift_std=v)),
        ("weak_path_rtol", lambda v: TrackerConfig(weak_path_rtol=v)),
    ]])
    def test_real_field_refuses_nan_and_infinity(self, key, make, value):
        # the field's name leads the message, so a config loader can name its path
        with pytest.raises(ValueError, match=f"^{key.rpartition('.')[2]} must be "):
            make(value)
        make(np.float64(0.5))  # a numpy float in range is accepted

    def test_integer_for_a_float_field_loads_as_a_float(self):
        data = config_to_dict(indoor_4ap_preset(1234))
        data["sim"]["packet_interval"] = 1
        interval = config_from_dict(json.loads(json.dumps(data))).sim.packet_interval
        assert type(interval) is float and interval == 1.0

    def test_null_snr_means_noise_off(self):
        data = config_to_dict(indoor_4ap_preset(1234))
        data["sim"]["snr_db"] = None
        assert config_from_dict(data).sim.snr_db == math.inf

    def test_missing_required_field_named(self):
        data = config_to_dict(indoor_4ap_preset(1234))
        del data["geometry"]["antennas"]
        with pytest.raises(ConfigError, match="geometry: missing required field 'antennas'"):
            config_from_dict(data)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=1e-6, max_value=1e6)
# a grid step below pi / num_paths, which AodConfig requires
_AODS = st.integers(1, 4).flatmap(lambda num_paths: st.builds(
    AodConfig, num_paths=st.just(num_paths), window_seconds=_POSITIVE,
    grid_step=st.floats(1e-6, math.pi / num_paths, exclude_max=True),
    min_packets=st.integers(1, 100), refine_iterations=st.integers(0, 5)))
_TRACKERS = st.builds(
    TrackerConfig,
    aod=_AODS,
    stride=st.integers(1, 500),
    origin=st.tuples(_FINITE, _FINITE),
    mode=st.sampled_from(MODES),
    steering_condition_limit=_POSITIVE,
    stacked_condition_limit=_POSITIVE,
    weak_path_rtol=_POSITIVE,
)
_PATHS = st.builds(PropagationPath, aod=_FINITE, gain=st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False))
_OFFSETS = st.builds(
    OffsetModel, initial_phase=_FINITE,
    frequency_offset=st.floats(-MAX_FREQUENCY_OFFSET, MAX_FREQUENCY_OFFSET),
    phase_jitter_std=st.floats(0.0, 10.0),
)


@st.composite
def run_configs(draw):
    ap_ids = draw(st.lists(_AP_NAMES, min_size=1, max_size=4))
    geometry = ArrayGeometry.circular(draw(st.integers(2, 5)), spacing=draw(_POSITIVE),
                                      wavelength=draw(_POSITIVE))
    built(RunConfig, tuple(ap_ids), geometry)  # AP ids it refuses end the draw here
    sim = None
    if draw(st.booleans()):
        sim_aps = draw(st.lists(st.sampled_from(ap_ids), min_size=1, unique=True))
        sim = SimConfig(
            geometry=geometry,
            channel=ChannelSpec({ap: tuple(draw(st.lists(_PATHS, min_size=1, max_size=3)))
                                 for ap in sim_aps}),
            offsets={ap: draw(_OFFSETS) for ap in sim_aps},
            packet_interval=draw(_POSITIVE),
            snr_db=draw(st.one_of(_FINITE, st.just(math.inf))),
            quantize=draw(st.booleans()),
            rng_seed=draw(st.integers(0, 2**63)),
            amplitude_drift_std=draw(st.floats(0.0, 1.0)),
        )
    return RunConfig(tuple(ap_ids), geometry, draw(_TRACKERS), sim)


@settings(max_examples=200, deadline=None)
@given(config=run_configs())
def test_config_json_round_trip(config):
    assert config_from_dict(json.loads(json.dumps(config_to_dict(config)))) == config
