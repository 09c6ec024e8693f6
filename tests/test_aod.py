"""MUSIC window concatenation, spectrum and path estimation."""

from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import AP_IDS, default_geometry, window_records

from csitrack.aod import (
    AodConfig,
    WindowBuffer,
    _music_aods,
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


def append(window, csi, timestamp, horizon=-np.inf):
    """Push one packet that holds a one-AP window's AP."""
    window.row()[0] = csi
    window.push([timestamp], horizon)


class TestConcatWindow:
    def test_noiseless_two_path_window_has_rank_two(self):
        geometry = default_geometry()
        X = synth_window(geometry, [0.8, 2.1], 40, seed=1)
        records = make_records(X)
        singular = np.linalg.svd(np.array([r.csi for r in records]).T, compute_uv=False)
        assert singular[2] < 1e-8 * singular[0]
        assert singular[1] > 1e-3 * singular[0]

    def test_mixed_aps_rejected(self):
        records = [
            CsiRecord("ap0", 0, 0.0, np.ones(3)),
            CsiRecord("ap1", 1, 0.006, np.ones(3)),
        ]
        with pytest.raises(ValueError, match="window mixes records from different APs"):
            estimate_paths(records, default_geometry(), AodConfig(min_packets=1))

    def test_underfull_window_raises(self):
        records = [CsiRecord("ap0", 0, 0.0, np.ones(3))]
        with pytest.raises(WindowUnderfullError):
            estimate_paths(records, default_geometry(), AodConfig(min_packets=20))

    def test_a_window_buffer_is_not_a_window_of_records(self):
        with pytest.raises(TypeError):
            estimate_paths(WindowBuffer(["ap0"], 3), default_geometry(), AodConfig(min_packets=1))


_WINDOW_READS = ("counts", "window", "outer_sums")


class TestWindowBuffer:
    def test_growth_and_compaction_keep_rows_and_earlier_views(self):
        X = synth_window(default_geometry(), [0.8, 2.1], 300, seed=3)
        window = WindowBuffer(["ap0"], 3)
        views = []
        for p in range(300):
            append(window, X[:, p], 0.006 * p, 0.006 * (p - 39))  # keeps the last 40 packets
            views.append((p, window.window("ap0")[1]))
        # 64 -> 128 rows by growth, then compaction each time the 128 rows fill
        timestamps, matrix = window.window("ap0")
        np.testing.assert_array_equal(matrix, X[:, 260:])
        np.testing.assert_array_equal(timestamps, 0.006 * np.arange(260, 300))
        for p, view in views:
            np.testing.assert_array_equal(view, X[:, max(p - 39, 0):p + 1])
        assert matrix.flags.f_contiguous
        assert not matrix.flags.writeable

    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(st.tuples(st.sampled_from([0, 1, 1, 1, 1, 1, 2, 7, 40]),
                                    st.integers(0, 1), st.integers(1, 150),
                                    st.lists(st.sampled_from(_WINDOW_READS), unique=True)),
                          min_size=1, max_size=400),
           seed=st.integers(0, 2**32 - 1))
    # the 65th append moves the rows while a gap's expiry waits for a read:
    # 22 live rows stay in 64, where the 64 unexpired rows would double it
    @example(steps=[(1, 0, 40, [])] * 63 + [(20, 0, 40, []), (1, 0, 40, ["counts"])], seed=0)
    # a gap, then a read of the window alone
    @example(steps=[(1, 0, 5, [])] * 10 + [(7, 0, 5, ["window"])], seed=0)
    def test_expiry_on_read_equals_expiry_after_each_append(self, steps, seed):
        """A window read now and then holds, at every read, what a window
        read after each append holds, bit for bit: across gaps that expire
        several rows, reads that follow several appends, and the buffer's
        growth and moves, which the same buffer sizes show."""
        rng = np.random.default_rng(seed)
        interval = 2.0**-7  # binary fractions: a timestamp can equal the horizon exactly
        on_read, on_append = WindowBuffer(["ap0"], 3), WindowBuffer(["ap0"], 3)
        time = horizon = 0.0
        for gap, early, span, reads in steps:
            time += gap * interval
            horizon = max(horizon, time - span * interval)  # horizons never decrease
            csi = rng.normal(size=3) + 1j * rng.normal(size=3)
            append(on_read, csi, time - early * 0.5 * interval, horizon)
            append(on_append, csi, time - early * 0.5 * interval, horizon)
            on_append.counts()  # expires at once
            assert on_read._csi.shape == on_append._csi.shape  # the same capacity decisions
            for read in reads:
                if read == "counts":
                    assert on_read.counts() == on_append.counts()
                elif read == "outer_sums":
                    (on_read_sums, on_read_counts), (on_append_sums, on_append_counts) = (
                        on_read.outer_sums([0]), on_append.outer_sums([0]))
                    assert np.array_equal(on_read_sums, on_append_sums)
                    assert on_read_counts == on_append_counts
                else:
                    for read_array, append_array in zip(on_read.window("ap0"),
                                                        on_append.window("ap0")):
                        assert np.array_equal(read_array, append_array)

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
            for slot, ap in enumerate(AP_IDS):
                window, records = tracker._window, reference[ap]
                assert window.counts()[slot] == len(records)
                if records:
                    timestamps, matrix = window.window(ap)
                    np.testing.assert_array_equal(matrix, np.array([r.csi for r in records]).T)
                    np.testing.assert_array_equal(timestamps, [r.timestamp for r in records])
                if len(records) >= aod.min_packets and (p % 37 == 0 or p == packets - 1):
                    expected = estimate_paths(records, geometry, aod)
                    actual = estimate_paths(window_records(window, ap), geometry, aod)
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

    @pytest.mark.parametrize("num_paths", [1, 2, 3, 4])
    def test_grid_step_must_leave_more_than_two_grid_points_per_path(self, num_paths):
        # a coarser grid holds too few points for num_paths cyclic minima: a 7 rad step
        # is one point, whose single AoD would fill every path
        bound = np.pi / num_paths
        for step in (bound, 7.0, 1e6):
            with pytest.raises(ValueError, match="^grid_step must be "):
                AodConfig(num_paths=num_paths, grid_step=step)
        config = AodConfig(num_paths=num_paths, min_packets=10,
                           grid_step=np.nextafter(bound, 0.0))
        assert angle_grid(config.grid_step).size == 2 * num_paths + 1
        geometry = ArrayGeometry.circular(num_paths + 1)
        X = synth_window(geometry, np.linspace(0.3, 5.5, num_paths), 40, seed=15)
        assert estimate_paths(make_records(X), geometry, config).aods.shape == (num_paths,)


# -- the batched kernel against one window at a time ------------------------------


def reference_aods(outer_sum, count, geometry, config):
    """One window, from its sum of x x^H over ``count`` packets, the way the estimator
    worked before batching: subspace, grid scan, the L deepest cyclic minima (else the
    L smallest grid values), then each path refined on its own until its parabola is
    not convex. Also returns the number of rounds each path was refined."""
    L = config.num_paths
    _, vectors = np.linalg.eigh(outer_sum / count)
    noise = vectors[:, : outer_sum.shape[0] - L]

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


def buffer_of(matrices, expired):
    """One window buffer holding AP a's packets X_a (M x P_a) in its first P_a rows, absent
    from the rest; the first ``expired[a]`` of them are before the horizon."""
    window = WindowBuffer([f"ap{a}" for a in range(len(matrices))], matrices[0].shape[0])
    for p in range(max(X.shape[1] for X in matrices)):
        row, stamps = window.row(), []
        for a, X in enumerate(matrices):
            if p < X.shape[1]:
                row[a] = X[:, p]
            stamps.append(0.006 * (p - expired[a]) if p < X.shape[1] else -np.inf)
        window.push(stamps, 0.0)
    return window


def batch_of_windows(antennas, kinds, lengths, seed):
    """One window buffer for all APs, each AP of its own length (APs drop packets), the
    older ones partly expired; a stationary AP's window is rank one. Returns a maker of
    equal buffers."""
    geometry, num_paths = _KERNEL_GEOMETRIES[antennas]
    rng = np.random.default_rng(seed)
    matrices = [synth_window(geometry, rng.uniform(0, 2 * np.pi, num_paths), length + a,
                             seed=int(rng.integers(2**32)),
                             snr_db=20.0 if kind == "noisy" else None,
                             diverse=kind != "stationary")
                for a, (kind, length) in enumerate(zip(kinds, lengths))]
    return geometry, num_paths, lambda: buffer_of(matrices, range(len(kinds)))  # drops a from ap a


def check_batch(geometry, make_window, config):
    """The batch equals each AP estimated alone from its running sum, bit for bit, in any
    order, and the per-path reference to rounding: the null power's rounding shifts a
    parabola vertex by more as the stencil shrinks, 4x per round. The stacked sums equal
    each AP's X X^H to rounding, as rows outside an AP's range weigh zero; when all APs
    hold the same rows they equal it bit for bit, and the AoDs equal estimate_paths'."""
    slots = list(range(len(make_window().ap_ids)))
    aods, degenerate = estimate_aods(make_window(), slots, geometry, config)
    assert aods.shape == (len(slots), config.num_paths)
    window = make_window()
    sums, lengths = window.outer_sums(slots)
    start, end = window._starts[0], len(window._packet_horizons)
    shared = set(window._starts) == {start} and set(lengths) == {end - start}  # no zero rows
    for a, ap in enumerate(window.ap_ids):
        alone, alone_degenerate = _music_aods(sums[a:a + 1], lengths[a:a + 1], geometry, config)
        np.testing.assert_array_equal(aods[a], alone[0])
        assert degenerate[a] == alone_degenerate[0]
        X = window.window(ap)[1]
        fresh = X @ X.conj().T
        np.testing.assert_allclose(sums[a], fresh, rtol=0, atol=1e-13 * np.abs(fresh).max())
        if shared:
            np.testing.assert_array_equal(sums[a], fresh)
            np.testing.assert_array_equal(
                estimate_paths(window_records(window, ap), geometry, config).aods, aods[a])
        expected, expected_degenerate, _ = reference_aods(sums[a], lengths[a], geometry, config)
        np.testing.assert_allclose(aods[a], expected, rtol=0,
                                   atol=1e-12 * 4.0**config.refine_iterations)
        assert degenerate[a] == expected_degenerate
    reversed_aods, reversed_degenerate = estimate_aods(make_window(), slots[::-1], geometry, config)
    np.testing.assert_array_equal(reversed_aods, aods[::-1])
    np.testing.assert_array_equal(reversed_degenerate, degenerate[::-1])
    return aods, degenerate


class TestBatchedKernel:
    @settings(max_examples=40, deadline=None)
    @given(antennas=st.sampled_from(sorted(_KERNEL_GEOMETRIES)),
           kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=5),
           lengths=st.lists(st.integers(3, 250), min_size=5, max_size=5),
           seed=st.integers(0, 2**32 - 1),
           refine_iterations=st.integers(0, 10),
           grid_step=st.sampled_from(np.radians([0.5, 0.7, 1.3]).tolist())
           | st.floats(np.radians(0.2), np.radians(3.0)))
    def test_batch_equals_each_window_alone(self, antennas, kinds, lengths, seed,
                                            refine_iterations, grid_step):
        geometry, num_paths, make_window = batch_of_windows(antennas, kinds, lengths, seed)
        config = AodConfig(num_paths=num_paths, min_packets=3, grid_step=grid_step,
                           refine_iterations=refine_iterations)
        check_batch(geometry, make_window, config)

    @pytest.mark.parametrize("refine_iterations", [1, 3])
    def test_refinement_starting_at_either_end_of_the_grid(self, refine_iterations):
        # 0.7 degrees does not divide 360: grid points 0 and K - 1 lie 0.2
        # degrees apart, so a first stencil there must reach -step or K * step
        step = np.radians(0.7)
        geometry = ArrayGeometry.circular(3)
        config = AodConfig(min_packets=3, grid_step=step, refine_iterations=refine_iterations)
        matrices = [synth_window(geometry, [aod, 2.0], 200, seed=a)
                    for a, aod in enumerate([0.3 * step, 2 * np.pi - 0.3 * step])]
        aods, _ = check_batch(geometry, lambda: buffer_of(matrices, [0, 0]), config)
        grid = angle_grid(step)
        starts = [np.argmin(circular_distance(grid, row[np.argmin(circular_distance(row, 0.0))]))
                  for row in aods]
        assert starts == [0, grid.size - 1]

    def test_degenerate_and_early_stopping_paths_share_a_batch(self):
        # a 4-antenna L=3 batch: healthy windows next to stationary ones that
        # take the degenerate fallback, with paths that stop refining at
        # different rounds
        geometry, num_paths, make_window = batch_of_windows(
            4, ["noiseless", "stationary", "noisy", "stationary"], [200, 40, 120, 60], seed=5)
        config = AodConfig(num_paths=num_paths, min_packets=3, refine_iterations=10)
        _, degenerate = check_batch(geometry, make_window, config)
        assert degenerate.any() and not degenerate.all()
        sums, lengths = make_window().outer_sums([0, 1, 2, 3])
        rounds = [reference_aods(*window, geometry, config)[2] for window in zip(sums, lengths)]
        assert len(set(np.concatenate(rounds))) > 1

    def test_underfull_window_in_a_batch_raises(self):
        geometry, num_paths, make_window = batch_of_windows(3, ["noisy"] * 2, [50, 5], seed=1)
        with pytest.raises(WindowUnderfullError):
            estimate_aods(make_window(), [0, 1], geometry,
                          AodConfig(num_paths=num_paths, min_packets=10))
