"""MUSIC window concatenation, spectrum and path estimation."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import AP_IDS, default_geometry

from csitrack.aod import (
    AodConfig,
    PacketWindow,
    angle_grid,
    estimate_aods,
    estimate_paths,
    music_spectrum,
)
from csitrack.core import (
    ArrayGeometry,
    CsiRecord,
    circular_distance,
    steering_matrix,
    steering_vector,
)
from csitrack.errors import WindowUnderfullError
from csitrack.tracker import Tracker, TrackerConfig


def make_records(X, ap_id="ap0", interval=0.006):
    return [
        CsiRecord(ap_id, p, p * interval, X[:, p]) for p in range(X.shape[1])
    ]


def synth_window(geometry, aods, num_packets, seed=0, snr_db=None, diverse=True):
    """X = A G with diverse weights, optionally plus noise."""
    rng = np.random.default_rng(seed)
    matrix = steering_matrix(geometry, aods)
    L = len(aods)
    if diverse:
        weights = rng.normal(size=(L, num_packets)) + 1j * rng.normal(size=(L, num_packets))
    else:
        fixed = rng.normal(size=(L, 1)) + 1j * rng.normal(size=(L, 1))
        weights = np.repeat(fixed, num_packets, axis=1)
    X = matrix @ weights
    if snr_db is not None:
        power = np.mean(np.abs(X) ** 2)
        sigma = np.sqrt(power * 10 ** (-snr_db / 10) / 2)
        X = X + sigma * (rng.normal(size=X.shape) + 1j * rng.normal(size=X.shape))
    return X


class TestConcatWindow:
    def test_single_record_gives_column(self):
        csi = np.array([1 + 1j, 2 - 1j, 0.5j])
        X = PacketWindow.from_records([CsiRecord("ap0", 0, 0.0, csi)]).matrix
        assert X.shape == (3, 1)
        np.testing.assert_array_equal(X[:, 0], csi)

    def test_noiseless_two_path_window_has_rank_two(self):
        geometry = default_geometry()
        X = synth_window(geometry, [0.8, 2.1], 40, seed=1)
        records = make_records(X)
        singular = np.linalg.svd(PacketWindow.from_records(records).matrix, compute_uv=False)
        assert singular[2] < 1e-8 * singular[0]
        assert singular[1] > 1e-3 * singular[0]

    def test_mixed_aps_rejected(self):
        records = [
            CsiRecord("ap0", 0, 0.0, np.ones(3)),
            CsiRecord("ap1", 1, 0.006, np.ones(3)),
        ]
        with pytest.raises(ValueError):
            PacketWindow.from_records(records)

    def test_underfull_window_raises(self):
        records = [CsiRecord("ap0", 0, 0.0, np.ones(3))]
        with pytest.raises(WindowUnderfullError):
            PacketWindow.from_records(records, min_packets=20)


class TestPacketWindow:
    def test_growth_and_compaction_keep_rows_and_earlier_views(self):
        X = synth_window(default_geometry(), [0.8, 2.1], 300, seed=3)
        window = PacketWindow("ap0", 3)
        views = []
        for p in range(300):
            window.append(X[:, p], 0.006 * p)
            window.expire(0.006 * (p - 39))  # keeps the last 40 packets
            views.append((p, window.matrix))
        # 64 -> 128 rows by growth, then compaction each time the 128 rows fill
        np.testing.assert_array_equal(window.matrix, X[:, 260:])
        np.testing.assert_array_equal(window.timestamps, 0.006 * np.arange(260, 300))
        for p, view in views:
            np.testing.assert_array_equal(view, X[:, max(p - 39, 0):p + 1])
        assert window.matrix.flags.f_contiguous
        assert not window.matrix.flags.writeable

    def test_estimate_paths_reads_a_window_like_its_records(self):
        geometry = default_geometry()
        X = synth_window(geometry, [0.8, 2.1], 60, seed=4, snr_db=25)
        records = make_records(X)
        window = PacketWindow("ap0", 3)
        for record in records:
            window.append(record.csi, record.timestamp)
        config = AodConfig()
        from_window = estimate_paths(window, geometry, config)
        from_records = estimate_paths(records, geometry, config)
        assert from_window.ap_id == "ap0"
        np.testing.assert_array_equal(from_window.aods, from_records.aods)
        with pytest.raises(WindowUnderfullError):
            estimate_paths(PacketWindow("ap0", 3), geometry, config)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        packets=st.integers(1, 300),
        window_packets=st.integers(3, 150),
        drop=st.floats(0.0, 0.6),
    )
    def test_tracker_window_matches_a_deque_of_records(self, seed, packets, window_packets, drop):
        """The tracker's windows hold exactly what a deque of records under
        the expiry rule (pop from the front while the timestamp is before
        now - window_seconds) holds, across the horizon and the buffer's
        growth and compaction points, and estimate the same paths."""
        rng = np.random.default_rng(seed)
        geometry = default_geometry()
        interval = 2.0**-7  # binary fractions: a timestamp can equal the horizon exactly
        aod = AodConfig(window_seconds=window_packets * interval, min_packets=3)
        # a stride this long estimates each AP's paths only once, when it warms up
        tracker = Tracker(geometry, AP_IDS, TrackerConfig(aod=aod, stride=10**6))
        reference = {ap: deque() for ap in AP_IDS}
        time = 0.0
        for p in range(packets):
            time += interval * rng.choice([1, 1, 1, 2, 7])
            present = [ap for ap in AP_IDS if rng.random() >= drop] or [AP_IDS[p % 4]]
            group = {
                ap: CsiRecord(ap, p, time - 0.5 * interval * rng.integers(0, 2),
                              rng.normal(size=3) + 1j * rng.normal(size=3))
                for ap in present
            }
            tracker.ingest(group)
            now = max(r.timestamp for r in group.values())
            for ap, record in group.items():
                records = reference[ap]
                records.append(record)
                while records and records[0].timestamp < now - aod.window_seconds:
                    records.popleft()
            for ap in AP_IDS:
                window, records = tracker._windows[ap], reference[ap]
                assert len(window) == len(records)
                if records:
                    np.testing.assert_array_equal(window.matrix,
                                                  PacketWindow.from_records(records).matrix)
                    np.testing.assert_array_equal(window.timestamps,
                                                  [r.timestamp for r in records])
                if len(records) >= aod.min_packets and (p % 37 == 0 or p == packets - 1):
                    expected = estimate_paths(records, geometry, aod)
                    actual = estimate_paths(window, geometry, aod)
                    np.testing.assert_array_equal(actual.aods, expected.aods)
                    np.testing.assert_array_equal(actual.steering_matrix,
                                                  expected.steering_matrix)
                    assert actual.degenerate == expected.degenerate


class TestMusicSpectrum:
    def test_single_path_peak_within_one_grid_step(self):
        geometry = default_geometry()
        grid = angle_grid(np.radians(0.5))
        theta = 1.0
        X = synth_window(geometry, [theta], 50, seed=2)
        spectrum = music_spectrum(X, geometry, grid, num_paths=1)
        peak = grid[np.argmax(spectrum)]
        assert circular_distance(peak, theta) <= np.radians(0.5)

    def test_two_paths_60_degrees_apart_at_25db(self):
        geometry = default_geometry()
        grid = angle_grid(np.radians(0.5))
        aods = np.array([1.0, 1.0 + np.radians(60)])
        X = synth_window(geometry, aods, 100, seed=3, snr_db=25.0)
        spectrum = music_spectrum(X, geometry, grid, num_paths=2)
        local = (spectrum > np.roll(spectrum, 1)) & (spectrum > np.roll(spectrum, -1))
        peaks = grid[local][np.argsort(spectrum[local])[-2:]]
        for truth in aods:
            assert min(circular_distance(peaks, truth)) < np.radians(2.0)

    def test_identical_columns_degenerate_but_returns(self):
        # stationary target: covariance is rank one, the second path is
        # unidentifiable, but the spectrum itself is still well defined
        geometry = default_geometry()
        X = synth_window(geometry, [0.8, 2.1], 30, seed=4, diverse=False)
        assert np.linalg.matrix_rank(X @ X.conj().T, tol=1e-9) == 1
        grid = angle_grid(np.radians(0.5))
        spectrum = music_spectrum(X, geometry, grid, num_paths=2)
        assert spectrum.shape == grid.shape
        assert np.all(np.isfinite(spectrum) | (spectrum > 0))

    def test_nonfinite_covariance_rejected(self):
        geometry = default_geometry()
        X = np.full((3, 5), np.nan, dtype=complex)
        with pytest.raises(ValueError):
            music_spectrum(X, geometry, angle_grid(0.01), num_paths=1)

    def test_per_column_phase_invariance(self):
        geometry = default_geometry()
        X = synth_window(geometry, [0.8, 2.1], 64, seed=5, snr_db=20.0)
        rng = np.random.default_rng(6)
        phased = X * np.exp(1j * rng.uniform(0, 2 * np.pi, X.shape[1]))
        grid = angle_grid(np.radians(0.5))
        base = music_spectrum(X, geometry, grid, num_paths=2)
        rotated = music_spectrum(phased, geometry, grid, num_paths=2)
        np.testing.assert_allclose(rotated, base, rtol=1e-9)


class TestEstimatePaths:
    def test_recovers_two_paths_ideal(self):
        geometry = default_geometry()
        X = synth_window(geometry, [0.8, 2.1], 60, seed=7)
        paths = estimate_paths(make_records(X), geometry, AodConfig(min_packets=20))
        np.testing.assert_allclose(paths.aods, [0.8, 2.1], atol=0.01)
        assert not paths.degenerate

    def test_single_path_matrix_matches_steering_vector(self):
        geometry = default_geometry()
        X = synth_window(geometry, [2.4], 30, seed=8)
        config = AodConfig(num_paths=1, min_packets=10)
        paths = estimate_paths(make_records(X), geometry, config)
        np.testing.assert_array_equal(
            paths.steering_matrix[:, 0], steering_vector(geometry, paths.aods[0])
        )

    def test_output_sorted_ascending(self):
        geometry = default_geometry()
        X = synth_window(geometry, [4.9, 0.4], 60, seed=9)
        paths = estimate_paths(make_records(X), geometry, AodConfig(min_packets=20))
        assert np.all(np.diff(paths.aods) > 0)

    def test_underfull_window_raises(self):
        geometry = default_geometry()
        X = synth_window(geometry, [0.8, 2.1], 5, seed=10)
        with pytest.raises(WindowUnderfullError):
            estimate_paths(make_records(X), geometry, AodConfig(min_packets=20))

    def test_degenerate_flag_on_rank_one_window(self):
        geometry = default_geometry()
        X = synth_window(geometry, [0.8, 2.1], 30, seed=11, diverse=False)
        paths = estimate_paths(make_records(X), geometry, AodConfig(min_packets=10))
        assert paths.num_paths == 2  # still returns L angles

    def test_refinement_beats_grid_quantization(self):
        geometry = default_geometry()
        theta = 1.23456  # off-grid on purpose
        X = synth_window(geometry, [theta], 40, seed=12)
        config = AodConfig(num_paths=1, min_packets=10)
        paths = estimate_paths(make_records(X), geometry, config)
        assert circular_distance(paths.aods[0], theta) < 1e-5

    @pytest.mark.parametrize("theta", [0.002, 2 * np.pi - 0.002])
    def test_peak_on_wrap_boundary(self, theta):
        # the grid is cyclic: a path right at 0/2*pi must not be lost
        geometry = default_geometry()
        X = synth_window(geometry, [theta], 40, seed=14)
        config = AodConfig(num_paths=1, min_packets=10)
        paths = estimate_paths(make_records(X), geometry, config)
        assert circular_distance(paths.aods[0], theta) < 1e-4

    def test_multi_packet_beats_single_packet(self):
        # mean error over many seeds: 100 diverse packets vs a single packet
        geometry = default_geometry()
        truths = [0.9, 2.3]
        config = AodConfig(min_packets=1)
        multi_errors, single_errors = [], []
        for seed in range(60):
            X = synth_window(geometry, truths, 100, seed=seed, snr_db=20.0)
            multi = estimate_paths(make_records(X), geometry, config)
            single = estimate_paths(make_records(X[:, :1]), geometry, config)
            for truth in truths:
                multi_errors.append(min(circular_distance(multi.aods, truth)))
                single_errors.append(min(circular_distance(single.aods, truth)))
        assert np.mean(multi_errors) <= np.mean(single_errors)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AodConfig(num_paths=0)
        with pytest.raises(ValueError):
            AodConfig(grid_step=0.0)
        with pytest.raises(ValueError):
            AodConfig(window_seconds=0.0)
        with pytest.raises(ValueError, match="min_packets must be >= 1"):
            AodConfig(min_packets=0)
        with pytest.raises(ValueError, match="refine_iterations must be >= 0"):
            AodConfig(refine_iterations=-1)
        geometry = default_geometry()
        X = synth_window(geometry, [0.8], 30, seed=13)
        with pytest.raises(ValueError):
            # 3 antennas cannot support 3 paths (no noise subspace left)
            estimate_paths(make_records(X), geometry, AodConfig(num_paths=3, min_packets=10))


# -- the batched kernel against one window at a time ------------------------------


def reference_aods(X, geometry, config):
    """One window the way the estimator worked before batching: subspace,
    grid scan, the L deepest cyclic minima (else the L smallest grid values),
    then each path refined on its own until its parabola is not convex.
    Also returns the number of rounds each path was refined."""
    L = config.num_paths
    _, vectors = np.linalg.eigh(X @ X.conj().T / X.shape[1])
    noise = vectors[:, : X.shape[0] - L]

    def null_power(thetas):
        return np.sum(np.abs(noise.conj().T @ steering_matrix(geometry, thetas)) ** 2, axis=0)

    grid = angle_grid(config.grid_step)
    power = null_power(grid)
    minima = np.nonzero((power < np.roll(power, 1)) & (power < np.roll(power, -1)))[0]
    degenerate = minima.size < L
    if degenerate:
        chosen = np.argsort(power, kind="stable")[:L]
    else:
        chosen = minima[np.argsort(power[minima], kind="stable")][:L]
    aods, rounds = [], []
    for theta in grid[chosen]:
        h, refined = config.grid_step, 0
        for _ in range(config.refine_iterations):
            g = null_power(theta + h * np.array([-1.0, 0.0, 1.0]))
            denom = g[0] - 2.0 * g[1] + g[2]
            if not denom > 0:
                break
            theta += np.clip(0.5 * (g[0] - g[2]) / denom * h, -h, h)
            h, refined = h / 4.0, refined + 1
        aods.append(theta)
        rounds.append(refined)
    return np.sort(np.mod(aods, 2 * np.pi)), degenerate, rounds


_KERNEL_GEOMETRIES = {3: (ArrayGeometry.circular(3), 2), 4: (ArrayGeometry.circular(4), 3)}
_KINDS = ("noiseless", "noisy", "stationary")


def batch_of_windows(antennas, kinds, lengths, seed):
    """One window per AP, each of its own length (APs drop packets), the
    older ones partly expired; a stationary window is rank one."""
    geometry, num_paths = _KERNEL_GEOMETRIES[antennas]
    rng = np.random.default_rng(seed)
    windows = []
    for a, (kind, length) in enumerate(zip(kinds, lengths)):
        X = synth_window(geometry, rng.uniform(0, 2 * np.pi, num_paths), length + a,
                         seed=int(rng.integers(2**32)), snr_db=20.0 if kind == "noisy" else None,
                         diverse=kind != "stationary")
        window = PacketWindow(f"ap{a}", geometry.num_antennas)
        for p in range(X.shape[1]):
            window.append(X[:, p], 0.006 * p)
        window.expire(0.006 * a)  # drop a packets from the front
        windows.append(window)
    return geometry, num_paths, windows


def check_batch(geometry, windows, config):
    """The batch equals each window estimated alone, bit for bit, in any
    order, and the per-path reference to rounding: the null power's rounding
    shifts a parabola vertex by more as the stencil shrinks, 4x per round."""
    aods, degenerate = estimate_aods(windows, geometry, config)
    assert aods.shape == (len(windows), config.num_paths)
    for a, window in enumerate(windows):
        alone = estimate_paths(window, geometry, config)
        np.testing.assert_array_equal(aods[a], alone.aods)
        assert degenerate[a] == alone.degenerate
        expected, expected_degenerate, _ = reference_aods(window.matrix, geometry, config)
        np.testing.assert_allclose(aods[a], expected, rtol=0,
                                   atol=1e-12 * 4.0**config.refine_iterations)
        assert degenerate[a] == expected_degenerate
    reversed_aods, reversed_degenerate = estimate_aods(windows[::-1], geometry, config)
    np.testing.assert_array_equal(reversed_aods, aods[::-1])
    np.testing.assert_array_equal(reversed_degenerate, degenerate[::-1])
    return aods, degenerate


class TestBatchedKernel:
    @settings(max_examples=40, deadline=None)
    @given(antennas=st.sampled_from(sorted(_KERNEL_GEOMETRIES)),
           kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=5),
           lengths=st.lists(st.integers(3, 250), min_size=5, max_size=5),
           seed=st.integers(0, 2**32 - 1),
           refine_iterations=st.integers(0, 10))
    def test_batch_equals_each_window_alone(self, antennas, kinds, lengths, seed,
                                            refine_iterations):
        geometry, num_paths, windows = batch_of_windows(antennas, kinds, lengths, seed)
        config = AodConfig(num_paths=num_paths, min_packets=3,
                           refine_iterations=refine_iterations)
        check_batch(geometry, windows, config)

    def test_degenerate_and_early_stopping_paths_share_a_batch(self):
        # a 4-antenna L=3 batch: healthy windows next to stationary ones that
        # take the degenerate fallback, with paths that stop refining at
        # different rounds
        geometry, num_paths, windows = batch_of_windows(
            4, ["noiseless", "stationary", "noisy", "stationary"], [200, 40, 120, 60], seed=5)
        config = AodConfig(num_paths=num_paths, min_packets=3, refine_iterations=10)
        _, degenerate = check_batch(geometry, windows, config)
        assert degenerate.any() and not degenerate.all()
        rounds = [reference_aods(w.matrix, geometry, config)[2] for w in windows]
        assert len(set(np.concatenate(rounds))) > 1

    def test_underfull_window_in_a_batch_raises(self):
        geometry, num_paths, windows = batch_of_windows(3, ["noisy"] * 2, [50, 5], seed=1)
        with pytest.raises(WindowUnderfullError):
            estimate_aods(windows, geometry, AodConfig(num_paths=num_paths, min_packets=10))
