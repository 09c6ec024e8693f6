"""CLI subcommands: files produced, determinism, exit codes."""

import numpy as np
import pytest

from csitrack import cli
from csitrack.cli import (
    EXIT_CONFIG, EXIT_DEGENERATE, EXIT_PARSE, EXIT_STREAM, EXIT_UNEXPECTED, indoor_4ap_preset,
    main,
)
from csitrack.errors import CsiTrackError
from csitrack.io import load_config, read_trace, read_trajectory


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("demo")
    assert run(["demo", "--outdir", outdir, "--seed", "77"]) == 0
    return outdir


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

    def test_same_clock_needs_truth(self, tmp_path, capsys):
        code = run(["ablate", "--trace", "x", "--mode", "assume-same-clock", "--out", "y"])
        assert code == EXIT_CONFIG

    def test_single_packet_mode_emits_both_cdfs(self, demo_dir, tmp_path):
        report = tmp_path / "aod_report.txt"
        assert run([
            "ablate", "--trace", demo_dir / "trace.txt", "--mode", "single-packet-aod",
            "--config", demo_dir / "config.json", "--out", report,
        ]) == 0
        text = report.read_text()
        assert "multi-packet" in text and "single-packet" in text
