"""Tracker: windows, warm-up, path continuity, trajectory integration."""

import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import AP_IDS, BAD_AP_IDS, default_geometry, make_sim_config, window_records

from csitrack import aod, tracker as tracker_module
from csitrack.aod import AodConfig
from csitrack.core import ArrayGeometry, CsiRecord, circular_distance, steering_matrix
from csitrack.displacement import factor_rows
from csitrack.errors import StreamOrderError, WindowUnderfullError
from csitrack.io import pair_streams
from csitrack.simulator import (
    random_waypoints,
    resample_waypoints,
    simulate_trajectory,
    square_waypoints,
    stationary_waypoints,
)
from csitrack.tracker import MODES, Tracker, TrackerConfig, continuity_order


def run_tracker(streams, config=None, geometry=None, ap_ids=AP_IDS):
    tracker = Tracker(geometry or default_geometry(), ap_ids, config)
    trajectory = tracker.consume(pair_streams(streams))
    return tracker, trajectory


class TestPathContinuity:
    def order(self, previous, current):
        return continuity_order(np.array([previous]), np.array([current]))[0]

    def test_identity_when_unchanged(self):
        np.testing.assert_array_equal(self.order([0.5, 2.0], [0.5, 2.0]), [0, 1])

    def test_reversed_order_is_swapped_back(self):
        geometry = default_geometry()
        current = np.array([2.0, 0.5])
        order = self.order([0.5, 2.0], current)
        np.testing.assert_array_equal(current[order], [0.5, 2.0])
        np.testing.assert_array_equal(
            steering_matrix(geometry, current[order]), steering_matrix(geometry, current)[:, [1, 0]]
        )

    def test_slow_rotation_keeps_labels_stable(self):
        base = np.array([0.5, 2.0])
        previous = base
        for step in range(100):
            rotated = np.sort((base + 0.01 * (step + 1)) % (2 * np.pi))
            matched = rotated[self.order(previous, rotated)]
            # label k must stay within a small step of its previous angle
            assert np.all(circular_distance(matched, previous) < 0.1)
            previous = matched

    @settings(max_examples=60, deadline=None)
    @given(num_paths=st.integers(1, 3), data=st.data())
    def test_batched_order_equals_path_continuity_per_ap(self, num_paths, data):
        # binary fractions from a small pool make exact ties common
        angle = st.one_of(st.floats(0.0, 2 * np.pi, exclude_max=True),
                          st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
        row = st.lists(angle, min_size=num_paths, max_size=num_paths)
        num_aps = data.draw(st.integers(1, 5))
        previous = np.array(data.draw(st.lists(row, min_size=num_aps, max_size=num_aps)))
        current = np.array(data.draw(st.lists(row, min_size=num_aps, max_size=num_aps)))
        order = continuity_order(previous, current)
        perms = list(itertools.permutations(range(num_paths)))
        for a in range(num_aps):
            costs = [circular_distance(previous[a], current[a][list(p)]).sum() for p in perms]
            np.testing.assert_array_equal(order[a], perms[int(np.argmin(costs))])

    def test_ties_keep_the_first_permutation(self):
        previous = np.array([[1.0, 1.0, 3.0], [1.0, 2.0, 3.0]])
        current = np.array([[0.5, 1.5, 3.0], [3.0, 1.5, 1.5]])
        perms = list(itertools.permutations(range(3)))
        for a in range(2):  # both rows really tie
            costs = [circular_distance(previous[a], current[a][list(p)]).sum() for p in perms]
            assert costs.count(min(costs)) == 2
        # the identity, then the first of (1, 2, 0) and (2, 1, 0)
        np.testing.assert_array_equal(continuity_order(previous, current), [[0, 1, 2], [1, 2, 0]])

    def test_first_estimate_keeps_the_estimator_order(self):
        # no previous paths to follow: each AP's first path set is the
        # estimator's, sorted ascending
        geometry = ArrayGeometry.circular(4)
        aod_config = AodConfig(num_paths=3, min_packets=20)
        tracker = Tracker(geometry, AP_IDS, TrackerConfig(aod=aod_config, stride=10**6))
        rng = np.random.default_rng(0)  # following all-zero AoDs would reorder some
        for p in range(20):  # the estimate is taken on the 20th packet
            tracker.ingest({ap: CsiRecord(ap, p, 0.006 * p, rng.normal(size=4) + 1j * rng.normal(size=4))
                            for ap in AP_IDS})
        for ap, paths in tracker.path_sets.items():
            records = window_records(tracker._window, ap)
            expected = aod.estimate_paths(records, geometry, aod_config)
            np.testing.assert_array_equal(paths.aods, expected.aods)
            np.testing.assert_array_equal(paths.steering_matrix, expected.steering_matrix)
            assert paths.degenerate == expected.degenerate


class TestTrackerBasics:
    def test_stationary_zero_offset_stays_exactly_at_origin(self):
        config = make_sim_config(30, offsets="zero")
        streams = simulate_trajectory(config, stationary_waypoints(1.0))
        _, trajectory = run_tracker(streams)
        np.testing.assert_array_equal(trajectory.positions, 0.0)

    def test_square_path_recovered_ideal(self):
        config = make_sim_config(31)  # offsets on, noiseless
        streams = simulate_trajectory(config, square_waypoints(side=0.05, speed=0.05))
        truth = resample_waypoints(square_waypoints(side=0.05, speed=0.05), 0.006)
        _, trajectory = run_tracker(streams)
        from csitrack.evaluation import align

        result = align(trajectory, truth)
        assert result.errors.max() < 1e-4  # 0.1 mm

    def test_one_point_per_packet_once_warm(self):
        config = make_sim_config(32)
        streams = simulate_trajectory(config, stationary_waypoints(0.5))
        tracker, trajectory = run_tracker(streams)
        total = len(streams[AP_IDS[0]])
        warmup = tracker.config.aod.min_packets - 1
        assert len(trajectory) == total - warmup

    def test_silent_ap_does_not_block_tracking(self):
        config = make_sim_config(33)
        streams = simulate_trajectory(config, square_waypoints(side=0.02, speed=0.05))
        streams.pop(AP_IDS[3])  # one AP never transmits
        tracker = Tracker(default_geometry(), AP_IDS)
        trajectory = tracker.consume(pair_streams(streams))
        assert len(trajectory) > 0
        assert tracker.flag_summary().get("ok", 0) > 0

    def test_dropped_packet_group_spans_the_gap(self):
        # a packet lost at every AP: the next pair covers two intervals and
        # the integrated position stays correct
        config = make_sim_config(38)
        waypoints = square_waypoints(side=0.02, speed=0.05)
        streams = simulate_trajectory(config, waypoints)
        truth = resample_waypoints(waypoints, 0.006)
        kept = {
            ap: [r for r in records if r.packet_index not in (60, 61, 120)]
            for ap, records in streams.items()
        }
        _, trajectory = run_tracker(kept)
        from csitrack.evaluation import align

        assert align(trajectory, truth).errors.max() < 1e-4

    def test_flaky_ap_with_scattered_losses(self):
        config = make_sim_config(39)
        waypoints = square_waypoints(side=0.02, speed=0.05)
        streams = simulate_trajectory(config, waypoints)
        truth = resample_waypoints(waypoints, 0.006)
        streams[AP_IDS[1]] = [
            r for r in streams[AP_IDS[1]] if r.packet_index % 7 != 3
        ]
        tracker, trajectory = run_tracker(streams)
        from csitrack.evaluation import align

        assert align(trajectory, truth).errors.max() < 1e-4
        assert tracker.flag_summary().get("ok", 0) > 0.9 * len(trajectory)

    @pytest.mark.parametrize("mode", MODES)
    def test_telescoping_position_equals_sum_of_deltas(self, mode):
        config = make_sim_config(34, snr_db=25.0, quantize=True)
        streams = simulate_trajectory(config, random_waypoints(0.05, 1.0, seed=34))
        tracker = Tracker(default_geometry(), AP_IDS, TrackerConfig(mode=mode))
        total = np.zeros(2)
        for group in pair_streams(streams):
            displacement = tracker.ingest(group.records)
            if displacement is not None:
                total = total + displacement.delta
        np.testing.assert_array_equal(tracker.position, total)
        np.testing.assert_array_equal(tracker.trajectory().positions[-1], total)

    def test_trajectory_and_position_are_copies(self):
        config = make_sim_config(35)
        streams = simulate_trajectory(config, square_waypoints(side=0.01, speed=0.05))
        tracker, trajectory = run_tracker(streams)
        positions, times, position = (trajectory.positions.copy(), trajectory.timestamps.copy(),
                                      tracker.position)
        for array in (trajectory.positions, trajectory.timestamps, tracker.position):
            array += 1.0
        again = tracker.trajectory()
        np.testing.assert_array_equal(again.positions, positions)
        np.testing.assert_array_equal(again.timestamps, times)
        np.testing.assert_array_equal(tracker.position, position)
        np.testing.assert_array_equal(position, positions[-1])

    def test_deterministic_given_trace(self):
        config = make_sim_config(35, snr_db=25.0, quantize=True)
        streams = simulate_trajectory(config, random_waypoints(0.05, 1.0, seed=35))
        _, first = run_tracker(streams)
        _, second = run_tracker(streams)
        np.testing.assert_array_equal(first.positions, second.positions)

    def test_stride_bridges_with_continuity(self):
        config = make_sim_config(36)
        streams = simulate_trajectory(config, square_waypoints(side=0.03, speed=0.05))
        truth = resample_waypoints(square_waypoints(side=0.03, speed=0.05), 0.006)
        _, strided = run_tracker(streams, TrackerConfig(stride=25))
        from csitrack.evaluation import align

        assert align(strided, truth).errors.max() < 1e-3


class TestGridSteeringCache:
    def test_built_once_per_geometry_and_grid_step(self, monkeypatch):
        aod._build_grid_steering.cache_clear()
        built = []
        original = aod.steering_matrix

        def counting(geometry, thetas):
            if np.size(thetas) > 100:  # a grid, not a refinement stencil
                built.append(np.size(thetas))
            return original(geometry, thetas)

        monkeypatch.setattr(aod, "steering_matrix", counting)
        streams = simulate_trajectory(make_sim_config(38), stationary_waypoints(0.6))
        for _ in range(2):  # equal geometries, two trackers, many ingest calls each
            tracker, _ = run_tracker(streams, geometry=default_geometry())
        assert len(tracker.flags) > 50 and len(built) == 1
        run_tracker(streams, geometry=ArrayGeometry.circular(3, spacing=0.027))
        assert len(built) == 2
        coarse = TrackerConfig(aod=AodConfig(grid_step=np.radians(1.0)))
        run_tracker(streams, coarse)
        run_tracker(streams, coarse)
        assert built == [722, 722, 362]  # each grid and its two stencil ends


def fresh_sum(window, ap):
    X = window.window(ap)[1]
    return X @ X.conj().T


class TestRunningSums:
    """The windows' running sums of x x^H against X X^H summed afresh."""

    @settings(max_examples=30, deadline=None)
    @given(stride=st.integers(1, 12), window_packets=st.integers(3, 150),
           packets=st.integers(20, 250), drop=st.floats(0.0, 0.5), jump=st.floats(0.0, 0.3),
           seed=st.integers(0, 2**32 - 1))
    def test_sums_stay_within_rounding_of_fresh_sums(self, stride, window_packets, packets,
                                                      drop, jump, seed):
        # appends, expiries (several at once after a gap in the stream), per-AP
        # drops and per-AP gain jumps of up to 1e8 between packets; buffers grow
        # while windows fill and compact once they slide. Each AP's length and
        # rows equal a deque of its own records under its own horizon.
        rng = np.random.default_rng(seed)
        aod_config = AodConfig(window_seconds=0.006 * window_packets, min_packets=3)
        tracker = Tracker(default_geometry(), AP_IDS, TrackerConfig(aod=aod_config, stride=stride))
        gains = np.ones(len(AP_IDS))
        reference = {ap: deque() for ap in AP_IDS}
        now, checked = 0.0, 0
        for p in range(packets):
            jumps = rng.random(len(AP_IDS)) < jump
            gains[jumps] = 10.0 ** rng.uniform(-4.0, 4.0, np.count_nonzero(jumps))
            now += 0.006 * (rng.integers(3, 30) if rng.random() < 0.05 else 1.0)
            present = [a for a in range(len(AP_IDS)) if rng.random() >= drop] or [p % len(AP_IDS)]
            group = {AP_IDS[a]: CsiRecord(AP_IDS[a], p, now, gains[a] * (
                rng.normal(size=3) + 1j * rng.normal(size=3))) for a in present}
            tracker.ingest(group)
            for ap, record in group.items():
                records = reference[ap]
                records.append(record)
                while records[0].timestamp < now - aod_config.window_seconds:
                    records.popleft()
            window = tracker._window
            counts = window.counts()
            for a, ap in enumerate(AP_IDS):
                assert counts[a] == len(reference[ap])
                np.testing.assert_array_equal(
                    window.window(ap)[1], np.reshape([r.csi for r in reference[ap]], (-1, 3)).T)
                end = len(window._packet_horizons)
                if window._summed[a] == (window._starts[a], end):  # the sum covers it
                    expected = fresh_sum(window, ap)
                    error = np.abs(window._sums[a] - expected).max()
                    assert error <= 1e-12 * np.abs(expected).max()
                    checked += 1
        assert checked

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @pytest.mark.parametrize("huge", [[1e200], [1e154, 1e154]],
                             ids=["row-overflows", "sum-overflows"])
    def test_overflowing_rows_raise_until_they_expire(self, huge):
        # one row whose outer product overflows, or two rows whose sum does:
        # every estimate raises while they are in the window, and the first
        # one after they leave equals a fresh window's bit for bit
        geometry = default_geometry()
        aod_config = AodConfig(window_seconds=0.1, min_packets=3)
        tracker = Tracker(geometry, AP_IDS, TrackerConfig(aod=aod_config))
        rng = np.random.default_rng(3)
        huge_at = {20 + 5 * i: magnitude for i, magnitude in enumerate(huge)}
        raised, compared = [], 0
        for p in range(60):
            group = {ap: CsiRecord(ap, p, 0.006 * p, rng.normal(size=3) + 1j * rng.normal(size=3))
                     for ap in AP_IDS}
            if p in huge_at:
                group["ap0"] = CsiRecord("ap0", p, 0.006 * p, np.full(3, huge_at[p], dtype=complex))
            window = tracker._window
            try:
                tracker.ingest(group)
            except ValueError as exc:
                assert str(exc) == "covariance contains non-finite values"
                raised.append(p)
                continue
            finally:
                overflowing = np.count_nonzero(np.abs(window.window("ap0")[1][0]) > 1e100) == len(huge)
                assert overflowing == (raised[-1:] == [p])
            if raised and raised[-1] == p - 1:  # the first estimate after they left
                np.testing.assert_array_equal(window._sums[0], fresh_sum(window, "ap0"))
                expected = aod.estimate_paths(window_records(window, "ap0"), geometry, aod_config)
                np.testing.assert_array_equal(np.sort(tracker.path_sets["ap0"].aods), expected.aods)
                compared += 1
        assert len(raised) > 10 and compared == 1


class TestSharedBuffer:
    """One buffer row per packet for all APs, each AP with its own front and horizon."""

    def test_a_rejected_group_leaves_nothing_in_the_row_it_took(self):
        # a group holding every AP's CSI fails the order checks after its CSI went
        # into the buffer's next row; the packets after it, which lack ap3, take
        # that row again, and ap3's sum must see zeros there
        streams = simulate_trajectory(make_sim_config(5, snr_db=25.0),
                                      random_waypoints(0.3, 0.006 * 199, seed=5))
        groups = [dict(group.records) for group in pair_streams(streams)]
        for group in groups[60:80]:
            del group["ap3"]
        config = TrackerConfig(aod=AodConfig(window_seconds=0.5), stride=3)
        clean, rejecting = (Tracker(default_geometry(), AP_IDS, config) for _ in range(2))
        for p, group in enumerate(groups):
            if p == 60:
                repeated = {ap: CsiRecord(ap, 59, record.timestamp, 1e3 * record.csi)
                            for ap, record in groups[59].items()}
                with pytest.raises(StreamOrderError, match="packet 59 after 59"):
                    rejecting.ingest(repeated)
            clean.ingest(group)
            rejecting.ingest(group)
            np.testing.assert_array_equal(rejecting._window._sums[3], clean._window._sums[3])
        assert rejecting.flags == clean.flags and rejecting.exclusions == clean.exclusions
        np.testing.assert_array_equal(rejecting.trajectory().positions,
                                      clean.trajectory().positions)
        assert clean.exclusions["absent"] > 0

    def test_an_absent_ap_keeps_its_rows_until_its_own_next_packet(self):
        # ap1 misses packets 30-79, longer than the 20-packet window: it holds its
        # last rows (9-29, those of its own last horizon) while absent, through the
        # buffer's move, and drops them against the horizon of its next packet;
        # ap3 falls silent for good and pins nothing
        interval = 2.0**-7  # binary fractions: a timestamp can equal the horizon exactly
        aod_config = AodConfig(window_seconds=20 * interval, min_packets=3)
        tracker = Tracker(default_geometry(), AP_IDS, TrackerConfig(aod=aod_config, stride=10**6))
        window, rng = tracker._window, np.random.default_rng(7)
        csi = rng.normal(size=(600, len(AP_IDS), 3)) + 1j * rng.normal(size=(600, len(AP_IDS), 3))
        for p in range(600):
            tracker.ingest({ap: CsiRecord(ap, p, p * interval, csi[p, a])
                            for a, ap in enumerate(AP_IDS)
                            if not (ap == "ap1" and 30 <= p < 80 or ap == "ap3" and p >= 100)})
            if p == 79:
                assert window.counts() == [21, 21, 21, 21]
                timestamps, matrix = window.window("ap1")
                np.testing.assert_array_equal(timestamps, np.arange(9, 30) * interval)
                np.testing.assert_array_equal(matrix, csi[9:30, 1].T)
                np.testing.assert_array_equal(window.window("ap0")[0],
                                              np.arange(59, 80) * interval)
            if p == 80:
                assert window.counts() == [21, 1, 21, 21]
                np.testing.assert_array_equal(window.window("ap1")[1], csi[80:81, 1].T)
        assert window.counts() == [21, 21, 21, 21]
        np.testing.assert_array_equal(window.window("ap3")[0], np.arange(79, 100) * interval)
        assert window._csi.shape[0] == 128  # 41 rows held at the first move, at packet 64


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered",
                            "ignore:divide by zero encountered")
class TestRaisingPacket:
    """A packet whose update raises stays in the windows but pairs with nothing."""

    def groups(self, scale, packets=300, at=150):
        """A 0.5 m random track's packet groups, ap0's CSI at packet ``at`` scaled by ``scale``."""
        streams = simulate_trajectory(make_sim_config(3, snr_db=25.0, quantize=True),
                                      random_waypoints(0.5, 0.006 * (packets - 1), seed=3))
        groups = [dict(group.records) for group in pair_streams(streams)]
        record = groups[at]["ap0"]
        groups[at]["ap0"] = CsiRecord("ap0", at, record.timestamp, record.csi * scale)
        return groups

    def outcomes(self, scale, stride):
        """Per packet: the flag of the point it adds, "raised", or None during warm-up."""
        tracker = Tracker(default_geometry(), AP_IDS,
                          TrackerConfig(aod=AodConfig(window_seconds=0.5), stride=stride))
        outcomes = []
        for group in self.groups(scale):
            emitted = len(tracker.flags)
            try:
                tracker.ingest(group)
            except ValueError:
                outcomes.append("raised")
                continue
            outcomes.append(tracker.flags[-1] if len(tracker.flags) > emitted else None)
        return tracker, outcomes

    def test_tiny_csi_reads_ok_and_stays_on_the_clean_track(self):
        # 1e-170 squared underflows, but the pairs take path angles and divide nothing
        tracker, outcomes = self.outcomes(1e-170, stride=10)
        clean, _ = self.outcomes(1.0, stride=10)
        assert set(outcomes[19:]) == {"ok"} and set(outcomes[:19]) == {None}
        assert tracker.exclusions == {"InsufficientPathsError": 1}  # the pair into it: faded
        errors = np.linalg.norm(tracker.trajectory().positions - clean.trajectory().positions, axis=1)
        assert errors.max() < 0.25e-3

    def test_huge_csi_raises_until_it_leaves_the_window_then_the_tracker_recovers(self):
        # a 1e200 row overflows every covariance it is in, so each due estimate raises
        _, outcomes = self.outcomes(1e200, stride=10)
        raised = [p for p, outcome in enumerate(outcomes) if outcome == "raised"]
        first, last = raised[0], raised[-1]
        assert raised == list(range(first, last + 1)) and first > 150
        assert outcomes[last + 1] == "dead-reckoned"
        assert set(outcomes[last + 2:]) == {"ok"} and set(outcomes[20:first]) == {"ok"}

    @pytest.mark.parametrize("stride", [1, 10])
    def test_no_ok_point_pairs_across_packets_that_raised(self, stride):
        # a 1e200 row overflows every covariance it is in
        tracker, outcomes = self.outcomes(1e200, stride)
        raised = [p for p, outcome in enumerate(outcomes) if outcome == "raised"]
        assert len(raised) > 50
        after = [p + 1 for p in raised if p + 1 < len(outcomes) and outcomes[p + 1] != "raised"]
        assert after and all(outcomes[p] == "dead-reckoned" for p in after)
        assert tracker.exclusions["absent"] == len(AP_IDS) * len(after)

    def test_resending_a_packet_that_raised_is_a_stream_order_error(self):
        groups = self.groups(1e200)
        tracker = Tracker(default_geometry(), AP_IDS,
                          TrackerConfig(aod=AodConfig(window_seconds=0.5), stride=10))
        for raised, group in enumerate(groups):
            try:
                tracker.ingest(group)
            except ValueError as exc:
                assert str(exc) == "covariance contains non-finite values"
                break
        windows = {ap: tracker._window.window(ap)[1].copy() for ap in AP_IDS}
        flags = list(tracker.flags)
        with pytest.raises(StreamOrderError, match=f"packet {raised} after {raised}"):
            tracker.ingest(groups[raised])
        for ap in AP_IDS:
            np.testing.assert_array_equal(tracker._window.window(ap)[1], windows[ap])
        assert tracker.flags == flags
        for group in groups[raised + 1:]:  # each raises until the 1e200 row leaves the window
            try:
                tracker.ingest(group)
                break
            except ValueError:
                pass
        assert tracker.flags[-1] == "dead-reckoned" and len(tracker.flags) == len(flags) + 1

    @pytest.mark.parametrize("row", [0, 1], ids=["x", "y"])
    def test_a_non_finite_delta_raises_before_the_position_moves(self, monkeypatch, row):
        # a plan whose x or y row holds a NaN, from the first estimate made after the patch
        def nan_plan(rows, cond_limit):
            plan = factor_rows(rows, cond_limit)
            plan[row, 0] = np.nan
            return plan

        tracker = Tracker(default_geometry(), AP_IDS, TrackerConfig(stride=10))
        groups = iter(self.groups(1.0, packets=60, at=0))
        for group in itertools.islice(groups, 25):
            tracker.ingest(group)
        monkeypatch.setattr(tracker_module, "factor_rows", nan_plan)
        for group in groups:
            position, flags = tracker.position, list(tracker.flags)
            try:
                tracker.ingest(group)
            except ValueError as exc:
                assert str(exc) == "delta must be finite"
                break
        else:
            pytest.fail("no packet raised")
        assert np.array_equal(tracker.position, position) and tracker.flags == flags
        tracker.ingest(next(groups))  # pairs with nothing
        assert tracker.flags == flags + ["dead-reckoned"]
        assert np.array_equal(tracker.position, position)


class TestStreamValidation:
    def records_at(self, index, timestamp=None):
        timestamp = index * 0.006 if timestamp is None else timestamp
        return {
            ap: CsiRecord(ap, index, timestamp, np.ones(3, dtype=complex))
            for ap in AP_IDS
        }

    def test_non_monotonic_packet_index_raises(self):
        tracker = Tracker(default_geometry(), AP_IDS)
        tracker.ingest(self.records_at(0))
        tracker.ingest(self.records_at(1))
        with pytest.raises(StreamOrderError):
            tracker.ingest(self.records_at(1))

    @pytest.mark.parametrize("timestamp", [0.006, 0.003])
    def test_repeated_or_backwards_timestamp_raises(self, timestamp):
        tracker = Tracker(default_geometry(), AP_IDS)
        tracker.ingest(self.records_at(0))
        tracker.ingest(self.records_at(1))
        with pytest.raises(StreamOrderError, match="packet 2"):
            tracker.ingest(self.records_at(2, timestamp))
        assert tracker._window.counts() == [2] * len(AP_IDS)
        tracker.ingest(self.records_at(2))  # the rejected group left no trace
        assert tracker._window.counts() == [3] * len(AP_IDS)

    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_csi_length_must_match_the_array(self, size):
        tracker = Tracker(default_geometry(), AP_IDS)
        group = self.records_at(0)
        group[AP_IDS[2]] = CsiRecord(AP_IDS[2], 0, 0.0, np.ones(size, dtype=complex))
        with pytest.raises(ValueError, match=f"'{AP_IDS[2]}' holds {size} CSI entries.* 3 antennas"):
            tracker.ingest(group)
        assert tracker._window.counts() == [0] * len(AP_IDS)

    def test_mixed_packet_indices_in_group_raise(self):
        tracker = Tracker(default_geometry(), AP_IDS)
        group = self.records_at(0)
        group[AP_IDS[1]] = CsiRecord(AP_IDS[1], 3, 0.0, np.ones(3, dtype=complex))
        with pytest.raises(StreamOrderError):
            tracker.ingest(group)

    @pytest.mark.parametrize("first", ["negative", "positive"])
    def test_a_group_is_stamped_with_its_first_latest_timestamp(self, first):
        # -0.0 == 0.0: the group's time is the first of them in record order; ap3
        # holds -0.0, so the order of the tracker's ap_ids would give ap0's 0.0
        tracker = Tracker(default_geometry(), AP_IDS)
        rng = np.random.default_rng(4)
        for p in range(21):
            stamps = {ap: 0.006 * (p - 20) for ap in AP_IDS}
            if p == 20:
                stamps = {"ap3": -0.0, "ap0": 0.0, "ap1": -0.001, "ap2": -0.001}
                if first == "positive":
                    stamps = {"ap0": 0.0, "ap3": -0.0, "ap1": -0.001, "ap2": -0.001}
            tracker.ingest({ap: CsiRecord(ap, p, stamp, rng.normal(size=3) + 1j * rng.normal(size=3))
                            for ap, stamp in stamps.items()})
        stamp = tracker.trajectory().timestamps[-1]
        assert stamp == 0.0 and np.signbit(stamp) == (first == "negative")

    def test_unknown_ap_rejected(self):
        tracker = Tracker(default_geometry(), AP_IDS)
        with pytest.raises(ValueError):
            tracker.ingest({"nope": CsiRecord("nope", 0, 0.0, np.ones(3, dtype=complex))})

    def test_duplicate_ap_ids_rejected(self):
        with pytest.raises(ValueError, match="^ap_ids must be one or more unique"):
            Tracker(default_geometry(), ["ap0", "ap1", "ap0"])

    @pytest.mark.parametrize("ap_ids", BAD_AP_IDS.values(), ids=BAD_AP_IDS)
    def test_ap_ids_a_trace_cannot_hold_rejected(self, ap_ids):
        with pytest.raises(ValueError, match="^ap_ids must "):
            Tracker(default_geometry(), ap_ids)

    def test_record_filed_under_another_ap_rejected(self):
        tracker = Tracker(default_geometry(), AP_IDS)
        group = self.records_at(0)
        group[AP_IDS[1]] = group[AP_IDS[0]]
        with pytest.raises(ValueError, match=f"record for '{AP_IDS[0]}' filed under '{AP_IDS[1]}'"):
            tracker.ingest(group)
        assert tracker._window.counts() == [0] * len(AP_IDS)

    @pytest.mark.parametrize("packets", [0, 5])
    def test_consume_of_a_stream_too_short_to_start_is_underfull(self, packets):
        tracker = Tracker(default_geometry(), AP_IDS)
        groups = [self.records_at(index) for index in range(packets)]
        with pytest.raises(WindowUnderfullError, match=f"after {packets} packets.*min_packets=20"):
            tracker.consume(groups)

    def test_empty_group_rejected(self):
        tracker = Tracker(default_geometry(), AP_IDS)
        with pytest.raises(ValueError):
            tracker.ingest({})

    def test_trajectory_before_any_point_raises(self):
        tracker = Tracker(default_geometry(), AP_IDS)
        with pytest.raises(ValueError):
            tracker.trajectory()


class TestTrackerConfig:
    def test_rejects_bad_stride_and_mode(self):
        with pytest.raises(ValueError):
            TrackerConfig(stride=0)
        with pytest.raises(ValueError):
            TrackerConfig(mode="nonsense")

    def test_rejects_too_many_paths_for_array(self):
        config = TrackerConfig(aod=AodConfig(num_paths=3))
        with pytest.raises(ValueError):
            Tracker(default_geometry(), AP_IDS, config)

    def test_origin_used_as_first_point(self):
        config = make_sim_config(37, offsets="zero")
        streams = simulate_trajectory(config, stationary_waypoints(0.5))
        tracker_config = TrackerConfig(origin=(1.0, -2.0))
        _, trajectory = run_tracker(streams, tracker_config)
        np.testing.assert_array_equal(trajectory.positions[0], [1.0, -2.0])
        np.testing.assert_array_equal(trajectory.positions[-1], [1.0, -2.0])
