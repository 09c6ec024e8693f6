"""Simulator: channel formation, clock offset, noise/quantization, streams."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import AP_IDS, default_geometry, make_sim_config, zero_offsets

from csitrack.core import ArrayGeometry, Trajectory
from csitrack.simulator import (
    ChannelSpec,
    OffsetModel,
    PropagationPath,
    SimConfig,
    add_noise_and_quantize,
    apply_offset,
    channel_at,
    jitter_walk,
    offset_phase,
    random_waypoints,
    resample_waypoints,
    simulate_trajectory,
    square_waypoints,
    stationary_waypoints,
)


@st.composite
def sim_scenarios(draw):
    """A small random scenario: 2-4 antennas, 1-4 APs of 1-3 paths, noise
    on or off, quantization on or off, drift and jitter on or off, and a
    1-packet, square or random track."""
    geometry = ArrayGeometry.circular(draw(st.integers(2, 4)), spacing=0.026)
    ap_ids = [f"ap{i}" for i in range(draw(st.integers(1, 4)))]
    angles = st.floats(0.0, 2 * np.pi)
    paths = {ap: tuple(PropagationPath(draw(angles),
                                       draw(st.floats(0.1, 2.0)) * cmath.exp(1j * draw(angles)))
                       for _ in range(draw(st.integers(1, 3))))
             for ap in ap_ids}
    jitter_std = draw(st.sampled_from([0.0, 0.05]))
    offsets = {ap: OffsetModel(draw(angles), draw(st.floats(-25e3, 25e3)), jitter_std)
               for ap in ap_ids}
    config = SimConfig(
        geometry=geometry, channel=ChannelSpec(paths), offsets=offsets,
        snr_db=draw(st.one_of(st.just(math.inf), st.floats(-5.0, 40.0))),
        quantize=draw(st.booleans()), rng_seed=draw(st.integers(0, 2**32)),
        amplitude_drift_std=draw(st.sampled_from([0.0, 0.02])),
    )
    waypoints = draw(st.sampled_from([
        stationary_waypoints(0.001, position=(0.2, -0.1)),
        square_waypoints(side=0.004, speed=0.05),
        random_waypoints(scale=0.3, duration=0.3, seed=draw(st.integers(0, 99))),
    ]))
    return config, waypoints


class TestChannelAt:
    def test_zero_offset_is_steering_times_gains(self):
        geometry = default_geometry()
        paths = (PropagationPath(0.8, 1.0 + 0.5j), PropagationPath(2.1, -0.3 + 0.1j))
        h = channel_at(paths, geometry, (0.0, 0.0))
        from csitrack.core import steering_matrix

        expected = steering_matrix(geometry, [0.8, 2.1]) @ np.array([1.0 + 0.5j, -0.3 + 0.1j])
        np.testing.assert_allclose(h, expected, atol=1e-15)

    def test_half_wavelength_along_single_path_flips_phase(self):
        geometry = default_geometry()
        paths = (PropagationPath(0.0, 1.0 + 0.0j),)
        base = channel_at(paths, geometry, (0.0, 0.0))
        moved = channel_at(paths, geometry, (0.03, 0.0))  # lambda/2 along the path
        np.testing.assert_allclose(moved, base * np.exp(-1j * np.pi), atol=1e-12)

    def test_matches_per_path_scalar_recomputation(self):
        # independent summation over paths, scalar math only
        geometry = default_geometry()
        rng = np.random.default_rng(11)
        paths = tuple(
            PropagationPath(rng.uniform(0, 2 * np.pi),
                            complex(rng.normal(), rng.normal()))
            for _ in range(2)
        )
        offset = (1e-3, -2e-3)
        h = channel_at(paths, geometry, offset)
        positions = geometry.antenna_positions
        for q in range(3):
            total = 0j
            for path in paths:
                dx = positions[q, 0] - positions[0, 0]
                dy = positions[q, 1] - positions[0, 1]
                antenna_phase = -2 * math.pi * (
                    dx * math.cos(path.aod) + dy * math.sin(path.aod)
                ) / 0.06
                motion_phase = -2 * math.pi * (
                    offset[0] * math.cos(path.aod) + offset[1] * math.sin(path.aod)
                ) / 0.06
                total += path.gain * cmath.exp(1j * (antenna_phase + motion_phase))
            assert h[q] == pytest.approx(total, abs=1e-13)


class TestApplyOffset:
    def test_zero_model_is_identity(self):
        model = OffsetModel(0.0, 0.0, 0.0)
        csi = np.array([1 + 1j, 2 - 1j, 0.5j])
        np.testing.assert_array_equal(apply_offset(csi, 5, model), csi)

    def test_packet_advance_matches_direct_formula(self):
        model = OffsetModel(0.0, 20e3, 0.0)
        advance = offset_phase(1, model, 0.006) - offset_phase(0, model, 0.006)
        assert advance == pytest.approx(2 * np.pi * 20e3 * 0.006)
        assert advance == pytest.approx(753.982, abs=1e-3)

    def test_magnitudes_preserved(self):
        rng = np.random.default_rng(0)
        csi = rng.normal(size=3) + 1j * rng.normal(size=3)
        rotated = apply_offset(csi, 17, OffsetModel(1.0, 123e3, 0.0), 0.006, jitter=0.4)
        np.testing.assert_allclose(np.abs(rotated), np.abs(csi), atol=1e-12)

    def test_offset_model_rejects_out_of_standard_frequency(self):
        with pytest.raises(ValueError):
            OffsetModel(0.0, 250e3, 0.0)

    def test_jitter_walk_starts_at_zero_and_accumulates(self):
        rng = np.random.default_rng(1)
        walk = jitter_walk(OffsetModel(0.0, 0.0, 0.1), 50, rng)
        assert walk[0] == 0.0
        steps = np.diff(walk)
        assert np.std(steps) == pytest.approx(0.1, rel=0.5)


class TestNoiseAndQuantize:
    def test_infinite_snr_no_quantize_is_identity(self):
        rng = np.random.default_rng(0)
        csi = np.array([1 + 2j, -0.5 + 0.1j, 0.3 - 0.9j])
        np.testing.assert_array_equal(add_noise_and_quantize(csi, np.inf, False, rng), csi)

    def test_quantizer_roundtrip_error_bound(self):
        rng = np.random.default_rng(0)
        csi = np.array([1 + 0j, 0.31 - 0.77j, -0.45 + 0.12j])
        quantized = add_noise_and_quantize(csi, np.inf, True, rng)
        peak = max(np.max(np.abs(csi.real)), np.max(np.abs(csi.imag)))
        bound = peak / 254.0 + 1e-15
        assert np.max(np.abs(quantized.real - csi.real)) <= bound
        assert np.max(np.abs(quantized.imag - csi.imag)) <= bound

    def test_quantizer_uses_full_scale(self):
        rng = np.random.default_rng(0)
        csi = np.array([1.0 + 0j, 0.5 + 0.25j])
        quantized = add_noise_and_quantize(csi, np.inf, True, rng)
        step = 1.0 / 127.0
        levels = np.concatenate([quantized.real, quantized.imag]) / step
        np.testing.assert_allclose(levels, np.round(levels), atol=1e-9)
        assert np.max(np.abs(levels)) == 127

    def test_rows_quantize_on_their_own_scale_and_zero_rows_stay_zero(self):
        rng = np.random.default_rng(0)
        rows = np.array([[1.0 + 0j, 0.5 + 0.25j], [0.0, 0.0], [0.0 + 0.02j, -0.01 + 0j]])
        quantized = add_noise_and_quantize(rows, np.inf, True, rng)
        for row, out in zip(rows, quantized):
            assert out.tobytes() == add_noise_and_quantize(row, np.inf, True, rng).tobytes()
        np.testing.assert_array_equal(quantized[1], 0.0)
        assert np.max(np.abs(quantized[2].view(float))) == pytest.approx(0.02, rel=1e-15)

    def test_empirical_snr_within_half_db(self):
        rng = np.random.default_rng(42)
        csi = np.array([1 + 1j, 0.4 - 0.2j, -0.7 + 0.3j])
        signal_power = np.mean(np.abs(csi) ** 2)
        noise_powers = []
        for _ in range(10_000):
            noisy = add_noise_and_quantize(csi, 25.0, False, rng)
            noise_powers.append(np.mean(np.abs(noisy - csi) ** 2))
        measured = 10 * np.log10(signal_power / np.mean(noise_powers))
        assert abs(measured - 25.0) < 0.5


class TestSimulateTrajectory:
    def test_stationary_ideal_emits_identical_records(self):
        config = make_sim_config(0, offsets="zero")
        streams = simulate_trajectory(config, stationary_waypoints(0.1))
        for records in streams.values():
            for record in records[1:]:
                np.testing.assert_array_equal(record.csi, records[0].csi)

    def test_stationary_with_offset_keeps_magnitudes(self):
        config = make_sim_config(1)
        streams = simulate_trajectory(config, stationary_waypoints(0.1))
        for records in streams.values():
            magnitudes = np.array([np.abs(r.csi) for r in records])
            np.testing.assert_allclose(magnitudes - magnitudes[0], 0.0, atol=1e-12)

    def test_offset_invariant_relative_phase_between_antennas(self):
        # the packet-wide phase is common across antennas
        config = make_sim_config(2)
        streams = simulate_trajectory(config, stationary_waypoints(0.1))
        for records in streams.values():
            ratios = np.array([r.csi / r.csi[0] for r in records])
            np.testing.assert_allclose(ratios - ratios[0], 0.0, atol=1e-9)

    def test_reproducible_bit_identical(self):
        config = make_sim_config(3, snr_db=20.0, quantize=True)
        waypoints = square_waypoints(side=0.02, speed=0.05)
        first = simulate_trajectory(config, waypoints)
        second = simulate_trajectory(config, waypoints)
        assert first.keys() == second.keys()
        for ap in first:
            for a, b in zip(first[ap], second[ap]):
                assert a.packet_index == b.packet_index
                np.testing.assert_array_equal(a.csi, b.csi)

    def test_noiseless_csi_lies_in_steering_span(self):
        config = make_sim_config(4)
        streams = simulate_trajectory(config, square_waypoints(side=0.02, speed=0.05))
        from csitrack.core import steering_matrix

        for ap, records in streams.items():
            aods = [p.aod for p in config.channel.paths[ap]]
            basis, _ = np.linalg.qr(steering_matrix(config.geometry, aods))
            for record in records[:: max(1, len(records) // 7)]:
                residual = record.csi - basis @ (basis.conj().T @ record.csi)
                assert np.linalg.norm(residual) < 1e-10

    def test_packet_grid_and_indices(self):
        config = make_sim_config(5)
        streams = simulate_trajectory(config, stationary_waypoints(0.0601))
        records = streams[AP_IDS[0]]
        assert [r.packet_index for r in records] == list(range(11))
        np.testing.assert_allclose(
            [r.timestamp for r in records], 0.006 * np.arange(11), atol=1e-12
        )

    def test_each_record_is_the_composed_pipeline(self):
        # channel_at -> apply_offset -> add_noise_and_quantize, per packet,
        # reproduced here with the same per-AP child RNG stream
        config = make_sim_config(6, snr_db=22.0, quantize=True)
        waypoints = square_waypoints(side=0.01, speed=0.05)
        streams = simulate_trajectory(config, waypoints)
        grid = resample_waypoints(waypoints, config.packet_interval)
        children = np.random.SeedSequence(config.rng_seed).spawn(len(AP_IDS))
        for ap, child in zip(sorted(AP_IDS), children):
            rng = np.random.default_rng(child)
            model = config.offsets[ap]
            walk = jitter_walk(model, len(grid), rng)
            assert len(streams[ap]) == len(grid)
            for p in range(len(grid)):
                csi = channel_at(config.channel.paths[ap], config.geometry,
                                 grid.positions[p] - grid.positions[0])
                csi = apply_offset(csi, p, model, config.packet_interval, walk[p])
                csi = add_noise_and_quantize(csi, config.snr_db, config.quantize, rng)
                assert streams[ap][p].csi.tobytes() == csi.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(scenario=sim_scenarios())
    def test_every_packet_is_the_one_packet_helpers_composed(self, scenario):
        # the array code per AP equals channel_at -> apply_offset ->
        # add_noise_and_quantize per packet, bit for bit, drawing the walk,
        # the amplitude drift, then each packet's noise from the AP's stream
        config, waypoints = scenario
        streams = simulate_trajectory(config, waypoints)
        grid = resample_waypoints(waypoints, config.packet_interval)
        ap_ids = config.channel.ap_ids
        children = np.random.SeedSequence(config.rng_seed).spawn(len(ap_ids))
        for ap, child in zip(ap_ids, children):
            rng = np.random.default_rng(child)
            model = config.offsets[ap]
            paths = config.channel.paths[ap]
            walk = jitter_walk(model, len(grid), rng)
            if config.amplitude_drift_std > 0:
                steps = rng.normal(0.0, config.amplitude_drift_std, (len(grid) - 1, len(paths)))
                drift = np.exp(np.vstack([np.zeros(len(paths)), np.cumsum(steps, axis=0)]))
            assert len(streams[ap]) == len(grid)
            for p, record in enumerate(streams[ap]):
                packet_paths = paths
                if config.amplitude_drift_std > 0:
                    packet_paths = tuple(PropagationPath(path.aod, path.gain * d)
                                         for path, d in zip(paths, drift[p]))
                csi = channel_at(packet_paths, config.geometry,
                                 grid.positions[p] - grid.positions[0])
                csi = apply_offset(csi, p, model, config.packet_interval, walk[p])
                csi = add_noise_and_quantize(csi, config.snr_db, config.quantize, rng)
                assert (record.ap_id, record.packet_index, type(record.packet_index)) == (ap, p, int)
                assert record.timestamp == grid.timestamps[p] and type(record.timestamp) is float
                assert record.csi.dtype == csi.dtype and record.csi.tobytes() == csi.tobytes()

    def test_amplitude_drift_flag_varies_magnitudes(self):
        base = make_sim_config(7, offsets="zero")
        drifting = SimConfig(
            geometry=base.geometry, channel=base.channel, offsets=base.offsets,
            packet_interval=base.packet_interval, snr_db=base.snr_db,
            quantize=base.quantize, rng_seed=base.rng_seed,
            amplitude_drift_std=0.01,
        )
        streams = simulate_trajectory(drifting, stationary_waypoints(0.5))
        for records in streams.values():
            magnitudes = np.array([np.abs(r.csi) for r in records])
            assert np.std(magnitudes, axis=0).max() > 1e-4


class TestWaypoints:
    def test_resample_linear_interpolation(self):
        waypoints = Trajectory(np.array([[0.0, 0.0], [0.012, 0.0]]), np.array([0.0, 0.012]))
        grid = resample_waypoints(waypoints, 0.006)
        np.testing.assert_allclose(grid.positions[:, 0], [0.0, 0.006, 0.012], atol=1e-12)

    def test_square_waypoints_closed_loop(self):
        square = square_waypoints(side=0.1, speed=0.05)
        np.testing.assert_array_equal(square.positions[0], square.positions[-1])
        assert square.timestamps[-1] == pytest.approx(4 * 0.1 / 0.05)

    def test_random_waypoints_span_and_step_limit(self):
        trajectory = random_waypoints(scale=0.5, duration=6.0, seed=1)
        span = trajectory.positions.max(axis=0) - trajectory.positions.min(axis=0)
        assert np.max(span) == pytest.approx(0.5, rel=1e-6)
        steps = np.linalg.norm(np.diff(trajectory.positions, axis=0), axis=1)
        assert steps.max() < 0.005  # stays well below lambda/2 per packet

    @pytest.mark.parametrize("make", [
        lambda: square_waypoints(side=0.0), lambda: square_waypoints(speed=-0.05),
        lambda: stationary_waypoints(0.0),
    ], ids=["square-side-zero", "square-speed-negative", "stationary-duration-zero"])
    def test_waypoint_generators_reject_non_positive_sizes(self, make):
        with pytest.raises(ValueError, match="must be positive"):
            make()

    def test_empty_waypoints_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((0, 2)), np.zeros(0))


class TestConfigValidation:
    def test_channel_needs_paths(self):
        with pytest.raises(ValueError):
            ChannelSpec({"ap0": ()})

    def test_zero_gain_rejected(self):
        with pytest.raises(ValueError):
            PropagationPath(0.0, 0.0)

    def test_offsets_must_cover_channel(self):
        geometry = default_geometry()
        channel = ChannelSpec({"ap0": (PropagationPath(0.1, 1.0),)})
        with pytest.raises(ValueError):
            SimConfig(geometry=geometry, channel=channel, offsets={})

    def test_nan_snr_rejected(self):
        geometry = default_geometry()
        channel = ChannelSpec({"ap0": (PropagationPath(0.1, 1.0),)})
        with pytest.raises(ValueError):
            SimConfig(geometry=geometry, channel=channel,
                      offsets=zero_offsets(("ap0",)), snr_db=float("nan"))
