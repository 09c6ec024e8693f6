"""CLI subcommands: files produced, determinism, exit codes."""

import dataclasses
import json

import numpy as np
import pytest

from csitrack import cli
from csitrack.cli import (
    EXIT_CONFIG, EXIT_DEGENERATE, EXIT_PARSE, EXIT_STREAM, EXIT_UNEXPECTED, indoor_4ap_preset,
    main,
)
from csitrack.core import Trajectory
from csitrack.errors import CsiTrackError
from csitrack.evaluation import align, aod_error_cdfs, error_cdf
from csitrack.io import (
    RunConfig, load_config, pair_streams, read_trace, read_trajectory, records_by_ap, save_config,
    write_trajectory,
)
from csitrack.simulator import random_waypoints, resample_waypoints, stationary_waypoints
from csitrack.tracker import MODES, Tracker


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("demo")
    assert run(["demo", "--outdir", outdir, "--seed", "77"]) == 0
    return outdir


def short_trace(demo_dir, tmp_path, packets):
    """The demo trace cut after its first ``packets`` packets (4 records each)."""
    lines = (demo_dir / "trace.txt").read_text().splitlines(keepends=True)
    header = [line for line in lines if line.startswith("#")]
    path = tmp_path / "short.txt"
    path.write_text("".join(header + lines[len(header):len(header) + 4 * packets]))
    return path


class TestSimulate:
    def test_preset_writes_trace_and_truth(self, tmp_path):
        trace_path = tmp_path / "trace.txt"
        truth_path = tmp_path / "truth.txt"
        code = run([
            "simulate", "--preset", "indoor-4ap", "--motion", "square",
            "--motion-scale", "0.02", "--seed", "9",
            "--out", trace_path, "--truth", truth_path,
        ])
        assert code == 0
        trace = read_trace(trace_path)
        assert len(trace.header.ap_ids) == 4
        assert trace.header.packet_interval == 0.006
        truth = read_trajectory(truth_path)
        assert len(truth) == len(trace.records) // 4

    def test_same_seed_gives_identical_files(self, tmp_path):
        paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
        for path in paths:
            assert run([
                "simulate", "--preset", "indoor-4ap", "--motion", "square",
                "--motion-scale", "0.02", "--seed", "5", "--out", path,
            ]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_preset_defaults_visible_in_config(self, tmp_path):
        config = indoor_4ap_preset(1)
        assert len(config.ap_ids) == 4
        assert config.tracker.aod.num_paths == 2
        assert config.tracker.aod.window_seconds == 10.0
        assert config.sim.packet_interval == 0.006
        assert config.sim.quantize is True

    def test_missing_source_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["simulate", "--out", "x.txt"])
        assert info.value.code == 2

    def simulate(self, tmp_path, *flags):
        trace, truth = tmp_path / "trace.txt", tmp_path / "truth.txt"
        code = run(["simulate", "--preset", "indoor-4ap", *flags, "--out", trace, "--truth", truth])
        return code, trace, truth

    def test_waypoints_file_sets_the_motion(self, tmp_path):
        waypoints = Trajectory(np.array([[0.0, 0.0], [0.02, 0.01], [0.0, 0.03]]),
                               np.array([0.0, 0.1, 0.3]))
        path = tmp_path / "waypoints.txt"
        write_trajectory(path, waypoints)
        code, trace, truth = self.simulate(tmp_path, "--waypoints", path)
        assert code == 0
        expected = resample_waypoints(waypoints, 0.006)
        written = read_trajectory(truth)
        np.testing.assert_array_equal(written.positions, expected.positions)
        np.testing.assert_array_equal(written.timestamps, expected.timestamps)
        assert len(read_trace(trace).records) == 4 * len(expected)

    @pytest.mark.parametrize("motion", ["stationary", "random"])
    def test_generated_motion_follows_its_flags(self, tmp_path, motion):
        code, _, truth = self.simulate(tmp_path, "--motion", motion, "--motion-scale", "0.02",
                                       "--motion-duration", "0.3", "--seed", "4")
        assert code == 0
        if motion == "stationary":
            waypoints = stationary_waypoints(0.3)
        else:
            waypoints = random_waypoints(scale=0.02, duration=0.3, packet_interval=0.006, seed=4)
        np.testing.assert_array_equal(read_trajectory(truth).positions,
                                      resample_waypoints(waypoints, 0.006).positions)

    def test_waypoints_and_motion_together_are_config_error(self, tmp_path, capsys):
        code, trace, _ = self.simulate(tmp_path, "--waypoints", tmp_path / "w.txt",
                                       "--motion", "square")
        assert code == EXIT_CONFIG
        assert "either --waypoints or --motion" in capsys.readouterr().err
        assert not trace.exists()

    def test_seed_overrides_the_config_seed(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        save_config(config, indoor_4ap_preset(1))
        motion = ["--motion", "stationary", "--motion-duration", "0.1"]
        paths = [tmp_path / f"{name}.txt" for name in ("config9", "preset9", "config1")]
        assert run(["simulate", "--config", config, *motion, "--seed", "9", "--out", paths[0]]) == 0
        assert "seed 9" in capsys.readouterr().out
        assert run(["simulate", "--preset", "indoor-4ap", *motion, "--seed", "9",
                    "--out", paths[1]]) == 0
        assert run(["simulate", "--config", config, *motion, "--out", paths[2]]) == 0
        assert "seed 1" in capsys.readouterr().out.splitlines()[-2]
        assert paths[0].read_bytes() == paths[1].read_bytes() != paths[2].read_bytes()


TRAJECTORY = "#trajectory v1 time x y\n"


@pytest.mark.parametrize("command", ["evaluate", "simulate"])
@pytest.mark.parametrize("text, line, message", [
    ("", 1, "missing trajectory header"),
    ("0.0 0.0 0.0\n", 1, "missing trajectory header"),
    ("#trajectory v2 time x y\n0.0 0.0 0.0\n", 1, "unsupported trajectory header"),
    (TRAJECTORY + "0.0 0.0\n", 2, "expected 3 fields, found 2"),
    (TRAJECTORY + "0.0 0.0 x\n", 2, "could not convert"),
    (TRAJECTORY + "\n", None, "trajectory file holds no points"),
    (TRAJECTORY + "0.0 0.0 0.0\n0.1 nan 0.0\n", 3, "values must be finite"),
    (TRAJECTORY + "0.0 0.0 0.0\nnan 0.0 0.0\n", 3, "values must be finite"),
    (TRAJECTORY + "0.0 0.0 0.0\n0.1 0.0 -inf\n", 3, "values must be finite"),
    (TRAJECTORY + "0.0 0.0 0.0\n0.1 0.0 0.0\n0.05 0.0 0.0\n", 4, "time 0.05 does not follow 0.1"),
    (TRAJECTORY + "0.0 0.0 0.0\n\n0.0 0.0 0.0\n", 4, "time 0.0 does not follow 0.0"),
], ids=["empty", "no-header", "version", "fields", "number", "no-points", "nan-x", "nan-time",
        "inf-y", "time-back", "time-repeats"])
def test_bad_trajectory_file_is_parse_error_at_its_line(demo_dir, tmp_path, capsys, command,
                                                        text, line, message):
    path = tmp_path / "trajectory.txt"
    path.write_text(text)
    out = tmp_path / "out.txt"
    if command == "evaluate":
        argv = ["evaluate", "--estimate", path, "--truth", demo_dir / "truth.txt", "--out", out]
    else:
        argv = ["simulate", "--preset", "indoor-4ap", "--waypoints", path, "--out", out]
    assert run(argv) == EXIT_PARSE
    where = "" if line is None else f"line {line}: "
    assert f"error: {where}{message}" in capsys.readouterr().err
    assert not out.exists()


SIMULATE = ["simulate", "--preset", "indoor-4ap", "--motion", "random"]


@pytest.mark.parametrize("argv", [
    SIMULATE + ["--seed", "-3"],
    SIMULATE + ["--seed", "1.5"],
    SIMULATE + ["--motion-duration", "inf"],
    SIMULATE + ["--motion-duration", "nan"],
    SIMULATE + ["--motion-duration", "0"],
    SIMULATE + ["--motion-scale", "-0.1"],
    SIMULATE + ["--motion-scale", "inf"],
    SIMULATE + ["--motion-scale", "nan"],
    ["demo", "--seed", "-3"],
], ids=lambda argv: f"{argv[0]} {' '.join(argv[-2:])}")
def test_bad_numbers_are_refused_by_the_parser(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        run(argv + ["--outdir" if argv[0] == "demo" else "--out", out])
    assert info.value.code == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert argv[-2] in err and "Traceback" not in err


#: README's exit code for each error a subcommand can raise; a new error class
#: fails test_every_error_exits_with_its_documented_code until it is listed.
DOCUMENTED_EXIT_CODES = {
    "ConfigError": 2,
    "TraceParseError": 3,
    "TraceVersionError": 3,
    "OSError": 3,
    "StreamOrderError": 4,
    "DegenerateGeometryError": 5,
    "UnobservableDisplacementError": 5,
    "WeakPathError": 5,
    "InsufficientPathsError": 5,
    "WindowUnderfullError": 5,
    "ValueError": 1,
    "LinAlgError": 1,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("error", [*_subclasses(CsiTrackError), ValueError,
                                   np.linalg.LinAlgError, OSError],
                         ids=lambda error: error.__name__)
def test_every_error_exits_with_its_documented_code(monkeypatch, capsys, error):
    assert error.__name__ in DOCUMENTED_EXIT_CODES, f"document the exit code of {error.__name__}"

    def failing(args):
        raise error("raised by the command")

    monkeypatch.setitem(cli._COMMANDS, "track", failing)
    code = run(["track", "--trace", "trace.txt", "--out", "out.txt"])
    assert code == DOCUMENTED_EXIT_CODES[error.__name__]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "raised by the command" in err


class TestTrackEvaluate:
    def test_demo_produces_all_files(self, demo_dir):
        for name in ("config.json", "trace.txt", "truth.txt", "estimate.txt", "report.txt"):
            assert (demo_dir / name).exists(), name

    def test_demo_estimate_is_accurate(self, demo_dir):
        from csitrack.evaluation import align

        estimate = read_trajectory(demo_dir / "estimate.txt")
        truth = read_trajectory(demo_dir / "truth.txt")
        assert align(estimate, truth).median < 0.01

    def test_track_reproduces_demo_estimate(self, demo_dir, tmp_path):
        out = tmp_path / "estimate2.txt"
        assert run([
            "track", "--trace", demo_dir / "trace.txt",
            "--config", demo_dir / "config.json", "--out", out,
        ]) == 0
        first = read_trajectory(demo_dir / "estimate.txt")
        second = read_trajectory(out)
        np.testing.assert_array_equal(first.positions, second.positions)

    def test_evaluate_reports_median(self, demo_dir, tmp_path, capsys):
        out = tmp_path / "cdf.txt"
        code = run([
            "evaluate", "--estimate", demo_dir / "estimate.txt",
            "--truth", demo_dir / "truth.txt", "--out", out,
        ])
        assert code == 0
        assert "median error" in capsys.readouterr().out
        assert out.read_text().startswith("#error-cdf")

    def test_evaluate_writes_aligned_trajectory(self, demo_dir, tmp_path):
        out = tmp_path / "cdf.txt"
        aligned_path = tmp_path / "aligned.txt"
        assert run([
            "evaluate", "--estimate", demo_dir / "estimate.txt",
            "--truth", demo_dir / "truth.txt", "--out", out,
            "--aligned-out", aligned_path,
        ]) == 0
        aligned = read_trajectory(aligned_path)
        estimate = read_trajectory(demo_dir / "estimate.txt")
        assert len(aligned) == len(estimate)
        np.testing.assert_array_equal(aligned.positions[0], [0.0, 0.0])

    def test_aligned_out_is_the_aligned_estimate(self, demo_dir, tmp_path):
        aligned_path = tmp_path / "aligned.txt"
        assert run(["evaluate", "--estimate", demo_dir / "estimate.txt", "--truth",
                    demo_dir / "truth.txt", "--out", tmp_path / "cdf.txt",
                    "--aligned-out", aligned_path]) == 0
        result = align(read_trajectory(demo_dir / "estimate.txt"),
                       read_trajectory(demo_dir / "truth.txt"))
        aligned = read_trajectory(aligned_path)
        assert aligned.positions.tobytes() == result.aligned.positions.tobytes()
        assert aligned.timestamps.tobytes() == result.aligned.timestamps.tobytes()

    def test_linalg_error_is_unexpected_not_configuration(self, monkeypatch, capsys):
        # numpy's LinAlgError subclasses ValueError, which means exit 2
        def failing(args):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setitem(cli._COMMANDS, "evaluate", failing)
        code = run(["evaluate", "--estimate", "e.txt", "--truth", "t.txt", "--out", "o.txt"])
        assert code == EXIT_UNEXPECTED
        assert "SVD did not converge" in capsys.readouterr().err

    def test_estimate_past_the_truth_is_unexpected_not_configuration(self, tmp_path, capsys):
        # align refuses an estimate that outlasts the truth with a bare
        # ValueError: nothing in the configuration is wrong, so not exit 2
        from csitrack.core import Trajectory
        from csitrack.io import write_trajectory

        truth, estimate = tmp_path / "truth.txt", tmp_path / "estimate.txt"
        write_trajectory(truth, Trajectory(np.zeros((11, 2)), np.linspace(0.0, 1.0, 11)))
        write_trajectory(estimate, Trajectory(np.zeros((21, 2)), np.linspace(0.0, 2.0, 21)))
        code = run(["evaluate", "--estimate", estimate, "--truth", truth,
                    "--out", tmp_path / "cdf.txt"])
        assert code == EXIT_UNEXPECTED
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "cdf.txt").exists()

    def test_mode_flag_overrides_the_config_mode(self, demo_dir, tmp_path):
        trace_path = short_trace(demo_dir, tmp_path, 200)
        out, expected = tmp_path / "out.txt", tmp_path / "expected.txt"
        assert run(["track", "--trace", trace_path, "--config", demo_dir / "config.json",
                    "--mode", "assume-same-clock", "--out", out]) == 0
        trace = read_trace(trace_path)
        config = dataclasses.replace(load_config(demo_dir / "config.json").tracker,
                                     mode="assume-same-clock")
        tracker = Tracker(trace.header.geometry, trace.header.ap_ids, config)
        write_trajectory(expected, tracker.consume(pair_streams(records_by_ap(trace))))
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("text, line, message", [
        ("", 1, "empty trace file"),
        ("#csi-trace v1\n#antennas 3\n#wavelength 0.06\n#packet_interval 0.006\n"
         "#geometry 0.0,0.0 0.026,0.0\n#aps ap0\n", 5, "#geometry: does not match #antennas"),
    ], ids=["empty", "geometry-count"])
    def test_bad_trace_header_is_parse_error_at_its_line(self, tmp_path, capsys, text, line,
                                                         message):
        path = tmp_path / "trace.txt"
        path.write_text(text)
        assert run(["track", "--trace", path, "--out", tmp_path / "out.txt"]) == EXIT_PARSE
        assert f"error: line {line}: {message}" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a trace\n")
        out = tmp_path / "out.txt"
        assert run(["track", "--trace", bad, "--out", out]) == EXIT_PARSE

    def rewrite_trace(self, demo_dir, tmp_path, change):
        """Copy the demo trace with ``change(fields)`` applied to the body
        lines of packet 30; returns the new path and the first such line."""
        lines = (demo_dir / "trace.txt").read_text().splitlines()
        first = None
        for number, line in enumerate(lines, start=1):
            fields = line.split()
            if not line.startswith("#") and fields[1] == "30":
                change(fields)
                lines[number - 1] = " ".join(fields)
                first = first or number
        path = tmp_path / "edited.txt"
        path.write_text("\n".join(lines) + "\n")
        return path, first

    def test_non_finite_csi_is_parse_error_at_its_line(self, demo_dir, tmp_path, capsys):
        def poison(fields):
            fields[3] = "nan"

        path, first = self.rewrite_trace(demo_dir, tmp_path, poison)
        assert run(["track", "--trace", path, "--out", tmp_path / "out.txt"]) == EXIT_PARSE
        assert f"line {first}:" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [(0, "ap9"), (1, "29")])
    def test_body_record_against_the_header_is_parse_error_at_its_line(
            self, demo_dir, tmp_path, capsys, field, value):
        # an AP missing from #aps, or a packet index that does not increase
        def edit(fields):
            fields[field] = value

        path, first = self.rewrite_trace(demo_dir, tmp_path, edit)
        assert run(["track", "--trace", path, "--out", tmp_path / "out.txt"]) == EXIT_PARSE
        assert f"line {first}:" in capsys.readouterr().err

    def test_bad_header_value_is_parse_error_at_its_line(self, demo_dir, tmp_path, capsys):
        lines = (demo_dir / "trace.txt").read_text().splitlines()
        number = next(n for n, line in enumerate(lines, start=1)
                      if line.startswith("#packet_interval "))
        lines[number - 1] = "#packet_interval 0"
        path = tmp_path / "edited.txt"
        path.write_text("\n".join(lines) + "\n")
        assert run(["track", "--trace", path, "--out", tmp_path / "out.txt"]) == EXIT_PARSE
        assert f"line {number}: #packet_interval" in capsys.readouterr().err

    @pytest.mark.parametrize("name, line", [("trace.txt", 3), ("trace.txt", 900),
                                            ("estimate.txt", 700)])
    def test_undecodable_byte_is_parse_error_at_its_line(self, demo_dir, tmp_path, capsys,
                                                         name, line):
        # line 3 is a header line; the other two lie past the decoder's first chunk
        lines = (demo_dir / name).read_bytes().splitlines(keepends=True)
        lines[line - 1] = lines[line - 1][:5] + b"\xff" + lines[line - 1][6:]
        path = tmp_path / name
        path.write_bytes(b"".join(lines))
        if name == "trace.txt":
            argv = ["track", "--trace", path, "--out", tmp_path / "out.txt"]
        else:
            argv = ["evaluate", "--estimate", path, "--truth", demo_dir / "truth.txt",
                    "--out", tmp_path / "cdf.txt"]
        assert run(argv) == EXIT_PARSE
        assert f"error: line {line}: byte 0xff is not" in capsys.readouterr().err

    def test_undecodable_config_is_config_error(self, demo_dir, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff" + (demo_dir / "config.json").read_bytes())
        argv = ["track", "--trace", demo_dir / "trace.txt", "--config", path,
                "--out", tmp_path / "out.txt"]
        assert run(argv) == EXIT_CONFIG
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["track", "ablate"])
    @pytest.mark.parametrize("records", [0, 40])
    def test_trace_too_short_to_warm_up_is_underfull(self, demo_dir, tmp_path, capsys,
                                                     command, records):
        lines = (demo_dir / "trace.txt").read_text().splitlines(keepends=True)
        body = [line for line in lines if not line.startswith("#")]
        path = tmp_path / "short.txt"
        path.write_text("".join(line for line in lines if line.startswith("#"))
                        + "".join(body[:records]))
        argv = [command, "--trace", path, "--out", tmp_path / "out.txt"]
        if command == "ablate":
            argv += ["--mode", "assume-same-clock", "--truth", demo_dir / "truth.txt"]
        assert run(argv) == EXIT_DEGENERATE
        err = capsys.readouterr().err
        assert f"after {records // 4} packets" in err and "min_packets=20" in err
        assert not (tmp_path / "out.txt").exists()

    def test_backwards_timestamp_is_stream_error(self, demo_dir, tmp_path, capsys):
        def rewind(fields):
            fields[2] = "0.1"  # packet 30 is due at 0.18 s, after packet 29 at 0.174 s

        path, _ = self.rewrite_trace(demo_dir, tmp_path, rewind)
        assert run(["track", "--trace", path, "--out", tmp_path / "out.txt"]) == EXIT_STREAM
        assert "packet 30" in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()

    def test_missing_config_sim_section(self, demo_dir, tmp_path, capsys):
        config = load_config(demo_dir / "config.json")
        from csitrack.io import RunConfig, save_config

        stripped = RunConfig(ap_ids=config.ap_ids, geometry=config.geometry,
                             tracker=config.tracker, sim=None)
        path = tmp_path / "nosim.json"
        save_config(path, stripped)
        code = run(["simulate", "--config", path, "--motion", "square", "--out", tmp_path / "t.txt"])
        assert code == EXIT_CONFIG

    def test_malformed_config_value_is_config_error(self, demo_dir, tmp_path, capsys):
        import json

        data = json.loads((demo_dir / "config.json").read_text())
        data["sim"]["paths"]["ap0"][0]["aod"] = "x"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = run(["simulate", "--config", path, "--motion", "square", "--out", tmp_path / "t.txt"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "sim.paths.ap0[0].aod" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["track", "assume-same-clock", "single-packet-aod"])
def test_more_paths_than_the_trace_antennas_allow_is_config_error(demo_dir, tmp_path, capsys,
                                                                  command):
    data = json.loads((demo_dir / "config.json").read_text())
    data["tracker"]["num_paths"] = 3  # the demo trace has 3 antennas: at most 2 paths
    config, out = tmp_path / "paths3.json", tmp_path / "out.txt"
    config.write_text(json.dumps(data))
    argv = (["track"] if command == "track" else
            ["ablate", "--mode", command, "--truth", demo_dir / "truth.txt"])
    assert run([*argv, "--trace", demo_dir / "trace.txt", "--config", config,
                "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "tracker.num_paths: 3 paths" in err and "the trace has 3" in err, err
    assert not out.exists()


class TestAblate:
    def test_zero_offset_trace_ratio_near_one(self, tmp_path, capsys):
        # with no frequency offset the degraded method matches the full one
        import json

        from csitrack.io import config_to_dict, save_config

        config = indoor_4ap_preset(11)
        data = config_to_dict(config)
        for ap in data["sim"]["offsets"]:
            data["sim"]["offsets"][ap] = {
                "initial_phase": 0.0, "frequency_offset": 0.0, "phase_jitter_std": 0.0,
            }
        data["sim"]["snr_db"] = 30.0
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))

        trace_path = tmp_path / "trace.txt"
        truth_path = tmp_path / "truth.txt"
        assert run([
            "simulate", "--config", config_path, "--motion", "square",
            "--motion-scale", "0.03", "--out", trace_path, "--truth", truth_path,
        ]) == 0
        report = tmp_path / "report.txt"
        assert run([
            "ablate", "--trace", trace_path, "--mode", "assume-same-clock",
            "--truth", truth_path, "--out", report,
        ]) == 0
        ratio_line = [l for l in report.read_text().splitlines() if l.startswith("#ratio")][0]
        ratio = float(ratio_line.split()[1])
        assert 0.2 < ratio < 5.0

    @pytest.fixture(scope="class")
    def still_trace(self, tmp_path_factory):
        """A noise-free, unquantized, clock-free trace of a target that stands
        still: every packet's CSI is the same, so both methods track it exactly."""
        from csitrack.io import config_to_dict

        path = tmp_path_factory.mktemp("still")
        data = config_to_dict(indoor_4ap_preset(11))
        for ap in data["sim"]["offsets"]:
            data["sim"]["offsets"][ap] = {
                "initial_phase": 0.0, "frequency_offset": 0.0, "phase_jitter_std": 0.0,
            }
        data["sim"].update(snr_db=None, quantize=False)
        (path / "config.json").write_text(json.dumps(data))
        assert run(["simulate", "--config", path / "config.json", "--motion", "stationary",
                    "--motion-duration", "0.3", "--out", path / "trace.txt",
                    "--truth", path / "truth.txt"]) == 0
        return path

    @pytest.mark.parametrize("worse, ratio", [(0.0, "nan"), (1e-3, "inf")])
    def test_zero_full_median_gives_an_infinite_or_undefined_ratio(
            self, still_trace, tmp_path, monkeypatch, capsys, worse, ratio):
        # both methods track the still target exactly; ``worse`` meters are
        # added to the errors of the second method ablated, assume-same-clock
        calls = []

        def shifted_error_cdf(results):
            calls.append(results)
            return error_cdf([r.errors + worse * (len(calls) == 2) for r in results])

        monkeypatch.setattr(cli, "error_cdf", shifted_error_cdf)
        report = tmp_path / "report.txt"
        assert run(["ablate", "--trace", still_trace / "trace.txt", "--mode", "assume-same-clock",
                    "--truth", still_trace / "truth.txt", "--out", report]) == 0
        assert [result.median for [result] in calls] == [0.0, 0.0]
        lines = report.read_text().splitlines()
        assert "#median full 0.0" in lines and f"#ratio {ratio}" in lines
        assert f"error ratio {ratio}x" in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["assume-same-clock", "single-packet-aod"])
    def test_trace_shorter_than_min_packets_is_underfull(self, demo_dir, tmp_path, capsys, mode):
        out = tmp_path / "out.txt"
        argv = ["ablate", "--trace", short_trace(demo_dir, tmp_path, 10), "--mode", mode,
                "--truth", demo_dir / "truth.txt", "--config", demo_dir / "config.json",
                "--out", out]
        assert run(argv) == EXIT_DEGENERATE
        assert "min_packets=20" in capsys.readouterr().err
        assert not out.exists()

    def test_same_clock_needs_truth(self, tmp_path, capsys):
        code = run(["ablate", "--trace", "x", "--mode", "assume-same-clock", "--out", "y"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("config", ["none", "without-sim"])
    def test_single_packet_mode_needs_a_simulated_config(self, demo_dir, tmp_path, capsys,
                                                         config):
        out = tmp_path / "out.txt"
        argv = ["ablate", "--trace", demo_dir / "trace.txt", "--mode", "single-packet-aod",
                "--out", out]
        if config == "without-sim":
            loaded = load_config(demo_dir / "config.json")
            path = tmp_path / "nosim.json"
            save_config(path, RunConfig(loaded.ap_ids, loaded.geometry, loaded.tracker, sim=None))
            argv += ["--config", path]
        assert run(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        if config == "none":
            assert "--config is required for single-packet-aod ablation" in err
        else:
            assert "single-packet-aod ablation needs the simulated channel" in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["assume-same-clock", "single-packet-aod"])
    def test_report_rows_are_a_method_and_two_floats(self, demo_dir, tmp_path, mode):
        trace_path = short_trace(demo_dir, tmp_path, 200)
        report = tmp_path / "report.txt"
        argv = ["ablate", "--trace", trace_path, "--mode", mode,
                "--config", demo_dir / "config.json", "--out", report]
        if mode == "assume-same-clock":
            argv += ["--truth", demo_dir / "truth.txt"]
        assert run(argv) == 0
        trace, config = read_trace(trace_path), load_config(demo_dir / "config.json")
        if mode == "assume-same-clock":
            truth = read_trajectory(demo_dir / "truth.txt")
            groups = pair_streams(records_by_ap(trace))
            cdfs = {}
            for method in MODES:
                tracker = Tracker(trace.header.geometry, trace.header.ap_ids,
                                  dataclasses.replace(config.tracker, mode=method))
                cdfs[method] = error_cdf([align(tracker.consume(groups), truth)])
            ratio = cdfs["assume-same-clock"].median / cdfs["full"].median
            summary = [f"#median {method} {cdf.median!r}" for method, cdf in cdfs.items()]
            summary += [f"#ratio {ratio!r}", "#columns method error cumulative_fraction"]
        else:
            truth_aods = {ap: max(paths, key=lambda p: abs(p.gain)).aod
                          for ap, paths in config.sim.channel.paths.items()}
            cdfs = aod_error_cdfs(records_by_ap(trace), trace.header.geometry,
                                  config.tracker.aod, truth_aods)
            summary = [f"#p80 {method} {float(np.percentile(cdf.levels, 80))!r}"
                       for method, cdf in cdfs.items()]
            summary += ["#columns method aod_error_rad cumulative_fraction"]
        rows = [f"{method} {float(level)!r} {float(fraction)!r}" for method, cdf in cdfs.items()
                for level, fraction in zip(cdf.levels, cdf.fractions)]
        assert report.read_text().splitlines() == [f"#ablation v1 {mode}", *summary, *rows]

    def test_single_packet_mode_emits_both_cdfs(self, demo_dir, tmp_path):
        report = tmp_path / "aod_report.txt"
        assert run([
            "ablate", "--trace", demo_dir / "trace.txt", "--mode", "single-packet-aod",
            "--config", demo_dir / "config.json", "--out", report,
        ]) == 0
        text = report.read_text()
        assert "multi-packet" in text and "single-packet" in text
