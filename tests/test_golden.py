"""Tracker trajectories pinned to golden files.

The files under ``tests/data/`` hold the trajectories of one fixed noisy,
quantized scenario, written with :func:`csitrack.io.write_trajectory` by the
tracker as it stood before its path-estimation window moved from a deque of
records to an array buffer. The 1 s window is crossed many times in 600
packets, so window expiry and the buffer's growth and compaction all run.
A change that alters the tracker's arithmetic shows here first.
"""

import pathlib

import numpy as np
import pytest

from conftest import AP_IDS, PACKET_INTERVAL, default_geometry, make_sim_config

from csitrack.aod import AodConfig
from csitrack.io import pair_streams, read_trajectory
from csitrack.simulator import random_waypoints, simulate_trajectory
from csitrack.tracker import Tracker, TrackerConfig

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN_SEED = 7
GOLDEN_PACKETS = 600
GOLDEN_WINDOW_SECONDS = 1.0


def golden_streams():
    config = make_sim_config(GOLDEN_SEED, snr_db=25.0, quantize=True)
    waypoints = random_waypoints(scale=0.5, duration=PACKET_INTERVAL * (GOLDEN_PACKETS - 1),
                                 packet_interval=PACKET_INTERVAL, seed=GOLDEN_SEED)
    return simulate_trajectory(config, waypoints)


def golden_track(streams, stride):
    config = TrackerConfig(aod=AodConfig(window_seconds=GOLDEN_WINDOW_SECONDS), stride=stride)
    return Tracker(default_geometry(), AP_IDS, config).consume(pair_streams(streams))


@pytest.fixture(scope="module")
def streams():
    return golden_streams()


@pytest.mark.parametrize("stride", [1, 10])
def test_trajectory_matches_golden(streams, stride):
    golden = read_trajectory(DATA / f"golden-stride{stride}.trajectory")
    trajectory = golden_track(streams, stride)
    np.testing.assert_array_equal(trajectory.timestamps, golden.timestamps)
    errors = np.linalg.norm(trajectory.positions - golden.positions, axis=1)
    assert errors.max() <= 1e-9
