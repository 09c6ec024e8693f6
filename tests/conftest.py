"""Shared scenario builders for the test suite.

Every helper is deterministic in its seed so tests and the acceptance suite
reproduce bit-identically.
"""

import os

import numpy as np
from hypothesis import settings

from csitrack.core import TWO_PI, ArrayGeometry
from csitrack.simulator import ChannelSpec, OffsetModel, PropagationPath, SimConfig

# CI runs with HYPOTHESIS_PROFILE=ci: a failing property prints the blob that
# reproduces it (@reproduce_failure), and no example fails on a slow runner's deadline
settings.register_profile("ci", print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

AP_IDS = ("ap0", "ap1", "ap2", "ap3")
PACKET_INTERVAL = 0.006


def default_geometry() -> ArrayGeometry:
    return ArrayGeometry.circular(3, spacing=0.026)


def random_channel(rng, ap_ids=AP_IDS):
    """Two paths per AP: unit-gain direct plus a weaker one, well separated."""
    paths = {}
    for ap in ap_ids:
        direct = rng.uniform(0.0, TWO_PI)
        separation = rng.uniform(1.0, 2.6) * rng.choice([-1.0, 1.0])
        second_gain = rng.uniform(0.6, 0.95)
        paths[ap] = (
            PropagationPath(direct, np.exp(1j * rng.uniform(0.0, TWO_PI))),
            PropagationPath(
                (direct + separation) % TWO_PI,
                second_gain * np.exp(1j * rng.uniform(0.0, TWO_PI)),
            ),
        )
    return ChannelSpec(paths)


def random_offsets(rng, ap_ids=AP_IDS, jitter_std=0.05, packet_interval=PACKET_INTERVAL):
    """Clock offsets near 20 kHz, detuned from multiples of the packet rate.

    An offset that is an exact multiple of 1/packet_interval wraps to zero
    phase per packet and would hide from the same-clock ablation, so those
    values are rejected.
    """
    offsets = {}
    for ap in ap_ids:
        while True:
            frequency = rng.uniform(15e3, 25e3) * rng.choice([-1.0, 1.0])
            cycles_per_packet = abs(frequency) * packet_interval % 1.0
            if 0.15 <= cycles_per_packet <= 0.85:
                break
        offsets[ap] = OffsetModel(
            initial_phase=rng.uniform(0.0, TWO_PI),
            frequency_offset=frequency,
            phase_jitter_std=jitter_std,
        )
    return offsets


def zero_offsets(ap_ids=AP_IDS):
    return {ap: OffsetModel(0.0, 0.0, 0.0) for ap in ap_ids}


def make_sim_config(seed, snr_db=np.inf, quantize=False, offsets="random",
                    jitter_std=0.05, ap_ids=AP_IDS, geometry=None) -> SimConfig:
    """Standard 4-AP scenario; ideal by default, noisy/quantized on request."""
    geometry = geometry if geometry is not None else default_geometry()
    rng = np.random.default_rng(seed)
    channel = random_channel(rng, ap_ids)
    if offsets == "random":
        offset_models = random_offsets(rng, ap_ids, jitter_std)
    elif offsets == "zero":
        offset_models = zero_offsets(ap_ids)
    else:
        offset_models = offsets
    return SimConfig(
        geometry=geometry,
        channel=channel,
        offsets=offset_models,
        packet_interval=PACKET_INTERVAL,
        snr_db=snr_db,
        quantize=quantize,
        rng_seed=seed,
    )
