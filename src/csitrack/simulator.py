"""Synthetic per-packet CSI for a moving transmitter.

The channel is a static set of departure paths per AP; motion enters only
through the per-path displacement phase, each AP's clock mismatch enters as a
packet-wide phase (linear drift plus a random-walk jitter), and the receiver
adds circular Gaussian noise and optional 8-bit quantization. The public
helpers channel_at, apply_offset and add_noise_and_quantize take one packet
or a whole track as arrays, one row per packet. This is the ground-truth
oracle used by every estimator test: given the same config and seed the
output is bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ArrayGeometry, Trajectory, TWO_PI, check_finite, check_integer, check_positive,
                   checked_records, resample_positions, steering_matrix)

#: Largest clock offset the WiFi standard tolerates, Hz.
MAX_FREQUENCY_OFFSET = 200e3


@dataclass(frozen=True)
class PropagationPath:
    """One departure path: angle (radians) and complex attenuation."""

    aod: float
    gain: complex

    def __post_init__(self):
        check_finite("aod", self.aod)
        gain = complex(self.gain)
        if not (np.isfinite(gain.real) and np.isfinite(gain.imag)) or abs(gain) == 0:
            raise ValueError("gain must be finite and nonzero")
        object.__setattr__(self, "gain", gain)


@dataclass(frozen=True)
class ChannelSpec:
    """Static multipath description: a tuple of paths per AP id."""

    paths: dict[str, tuple[PropagationPath, ...]]

    def __post_init__(self):
        cleaned = {}
        for ap_id, ap_paths in self.paths.items():
            ap_paths = tuple(ap_paths)
            if len(ap_paths) < 1:
                raise ValueError(f"AP {ap_id!r} needs at least one path")
            cleaned[str(ap_id)] = ap_paths
        object.__setattr__(self, "paths", cleaned)

    @property
    def ap_ids(self):
        return tuple(sorted(self.paths))


@dataclass(frozen=True)
class OffsetModel:
    """Packet-wide phase between one AP's clock and the transmitter's.

    nu_p = initial_phase + 2*pi*frequency_offset*(p*packet_interval) + walk_p,
    where walk is a zero-start random walk with the given per-packet std. The
    walk term makes the phase unpredictable packet-to-packet, which is what a
    tracking method must survive; its default magnitude is a free parameter.
    """

    initial_phase: float = 0.0
    frequency_offset: float = 20e3
    phase_jitter_std: float = 0.05

    def __post_init__(self):
        check_finite("frequency_offset", self.frequency_offset, -MAX_FREQUENCY_OFFSET,
                     MAX_FREQUENCY_OFFSET)
        check_finite("initial_phase", self.initial_phase)
        check_finite("phase_jitter_std", self.phase_jitter_std, 0.0)


@dataclass(frozen=True)
class SimConfig:
    """Everything a simulation run needs besides the waypoints."""

    geometry: ArrayGeometry
    channel: ChannelSpec
    offsets: dict[str, OffsetModel]
    packet_interval: float = 0.006
    snr_db: float = math.inf
    quantize: bool = False
    rng_seed: int = 0
    amplitude_drift_std: float = 0.0

    def __post_init__(self):
        check_positive("packet_interval", self.packet_interval)
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ValueError("snr_db must be finite or +inf (noise off)")
        check_finite("amplitude_drift_std", self.amplitude_drift_std, 0.0)
        check_integer("rng_seed", self.rng_seed, 0)
        offsets = {str(k): v for k, v in self.offsets.items()}
        if set(offsets) != set(self.channel.paths):
            raise ValueError("offsets must provide a model for exactly the channel's APs")
        object.__setattr__(self, "offsets", offsets)


def channel_at(paths, geometry: ArrayGeometry, position_offset=(0.0, 0.0), drift=None) -> np.ndarray:
    """Wireless channel H for a transmitter displaced by ``position_offset``.

    H = A diag(exp(-2j*pi*(r_k . offset)/lambda)) F: each path's attenuation
    picks up the phase of the extra path length along its departure direction.
    A zero offset returns the reference channel A F. A (..., 2) offset gives
    (..., M) channels, one per offset; ``drift`` (..., L) scales the gains.
    """
    aods = np.array([p.aod for p in paths], dtype=float)
    gains = np.array([p.gain for p in paths], dtype=complex)
    if drift is not None:
        gains = gains * drift
    offsets = np.asarray(position_offset, dtype=float)
    along_path = np.cos(aods) * offsets[..., :1] + np.sin(aods) * offsets[..., 1:]
    motion_phase = np.exp(-2j * np.pi * along_path / geometry.wavelength)
    weights = gains * motion_phase
    return (steering_matrix(geometry, aods) @ weights[..., None])[..., 0]


def offset_phase(packet_index, model: OffsetModel, packet_interval: float, jitter=0.0):
    """Packet-wide phase nu_p for the given packet index (or array of them)."""
    return model.initial_phase + TWO_PI * model.frequency_offset * (packet_index * packet_interval) + jitter


def apply_offset(csi: np.ndarray, packet_index, model: OffsetModel,
                 packet_interval: float = 0.006, jitter=0.0) -> np.ndarray:
    """Rotate CSI by the packet-wide clock phase e^{j nu_p}.

    ``jitter`` is the accumulated random-walk value for this packet; see
    :func:`jitter_walk`. The factor has unit modulus, so per-antenna
    magnitudes and the relative phases between antennas are untouched. With
    (P,) packet indices and jitters, ``csi`` is (P, M), one row per packet.
    """
    nu = offset_phase(packet_index, model, packet_interval, jitter)
    return np.asarray(csi, dtype=complex) * np.exp(1j * nu)[..., None]


def jitter_walk(model: OffsetModel, num_packets: int, rng: np.random.Generator) -> np.ndarray:
    """Accumulated phase-jitter random walk, zero at the first packet."""
    return _random_walk(model.phase_jitter_std, (num_packets,), rng)


def _random_walk(std: float, shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """Zero-start walk down axis 0 of ``shape`` from one normal draw, or none if ``std`` is 0."""
    walk = np.zeros(shape)
    if std > 0 and shape[0] > 1:
        walk[1:] = np.cumsum(rng.normal(0.0, std, (shape[0] - 1, *shape[1:])), axis=0)
    return walk


def add_noise_and_quantize(csi: np.ndarray, snr_db: float, quantize: bool,
                           rng: np.random.Generator) -> np.ndarray:
    """Receiver impairments: circular Gaussian noise, then 8-bit quantization.

    Noise power is the vector's mean per-antenna power divided by
    10^(snr_db/10); snr_db=+inf disables noise. Quantization scales so the
    largest |real or imaginary| component maps to 127, rounds to signed 8-bit
    and returns the dequantized floats (the scale is retained), bounding the
    per-component round-trip error by max_component/254. A (P, M) ``csi`` is
    P packets: each row gets its own noise power and quantization scale, and
    the noise is one (P, 2, M) draw.
    """
    csi = np.asarray(csi, dtype=complex)
    out = csi
    if math.isfinite(snr_db):
        signal_power = np.mean(np.abs(csi) ** 2, axis=-1, keepdims=True)
        sigma = np.sqrt(signal_power * 10.0 ** (-snr_db / 10.0) / 2.0)
        parts = rng.standard_normal(csi.shape[:-1] + (2, csi.shape[-1]))
        out = csi + sigma * (parts[..., 0, :] + 1j * parts[..., 1, :])
    if quantize:
        peak = np.maximum(np.max(np.abs(out.real), axis=-1, keepdims=True),
                          np.max(np.abs(out.imag), axis=-1, keepdims=True))
        step = np.where(peak == 0, 1.0, peak) / 127.0
        quantized = (np.round(out.real / step) + 1j * np.round(out.imag / step)) * step
        out = np.where(peak == 0, out, quantized)
    return out


def resample_waypoints(waypoints: Trajectory, packet_interval: float) -> Trajectory:
    """Linearly interpolate waypoints onto the packet-interval grid."""
    times = waypoints.timestamps
    count = int(math.floor((times[-1] - times[0]) / packet_interval + 1e-9)) + 1
    grid = times[0] + packet_interval * np.arange(count)
    return Trajectory(resample_positions(waypoints, grid), grid)


def simulate_trajectory(config: SimConfig, waypoints: Trajectory) -> dict:
    """Emit one CsiRecord stream per AP for a transmitter following waypoints.

    Each AP's whole packet grid is one call each of channel_at (P offsets)
    -> apply_offset -> add_noise_and_quantize on (P, M) CSI, with the same
    numbers as calling them packet by packet. Per AP the draws are the
    jitter walk, the amplitude drift, then the noise. APs draw from
    independent child RNG streams of ``config.rng_seed`` (assigned in sorted
    AP order), so per-AP streams may be regenerated independently and the
    whole output is reproducible. Each AP's CSI is checked once, as a block. Record p of
    every AP holds the same packet-index and timestamp objects, and its AP's one id string.
    """
    grid = resample_waypoints(waypoints, config.packet_interval)
    offsets_from_start = grid.positions - grid.positions[0]
    num_packets = len(grid)
    packet_indices = np.arange(num_packets)
    indices, timestamps = list(range(num_packets)), grid.timestamps.tolist()
    ap_ids = config.channel.ap_ids
    children = np.random.SeedSequence(config.rng_seed).spawn(len(ap_ids))
    streams = {}
    for ap_id, child in zip(ap_ids, children):
        rng = np.random.default_rng(child)
        model = config.offsets[ap_id]
        paths = config.channel.paths[ap_id]
        walk = jitter_walk(model, num_packets, rng)
        drift = _amplitude_drift(config, len(paths), num_packets, rng)
        csi = channel_at(paths, config.geometry, offsets_from_start, drift)
        csi = apply_offset(csi, packet_indices, model, config.packet_interval, walk)
        csi = add_noise_and_quantize(csi, config.snr_db, config.quantize, rng)
        streams[ap_id] = checked_records([ap_id] * num_packets, indices, timestamps, csi)
    return streams


def _amplitude_drift(config: SimConfig, num_paths: int, num_packets: int,
                     rng: np.random.Generator):
    """Optional slow per-path |gain| random walk (robustness testing only)."""
    std = config.amplitude_drift_std
    return np.exp(_random_walk(std, (num_packets, num_paths), rng)) if std > 0 else None


def square_waypoints(side=0.1, speed=0.05) -> Trajectory:
    """Counter-clockwise square path from the origin at time 0, traversed at constant speed."""
    check_positive("side", side)
    check_positive("speed", speed)
    corners = side * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    return Trajectory(corners, (side / speed) * np.arange(5))


def stationary_waypoints(duration, position=(0.0, 0.0)) -> Trajectory:
    """Target that does not move for ``duration`` seconds from time 0."""
    check_positive("duration", duration)
    pos = np.asarray(position, dtype=float)
    return Trajectory(np.vstack([pos, pos]), np.array([0.0, duration]))


def random_waypoints(scale=0.5, duration=6.0, packet_interval=0.006, seed=0) -> Trajectory:
    """Smooth random wander: a few low-frequency sinusoids per axis.

    The combined x/y span is normalized to ``scale`` meters, keeping
    per-packet displacements far below lambda/2 at WiFi packet rates.
    """
    check_positive("scale", scale)
    check_positive("duration", duration)
    check_positive("packet_interval", packet_interval)
    rng = np.random.default_rng(seed)
    count = int(math.floor(duration / packet_interval + 1e-9)) + 1
    t = packet_interval * np.arange(count)
    positions = np.empty((count, 2))
    for axis in range(2):
        freqs = rng.uniform(0.05, 0.25, 3)
        amps = rng.uniform(0.2, 1.0, 3)
        phases = rng.uniform(0.0, TWO_PI, 3)
        positions[:, axis] = np.sum(
            amps[:, None] * np.sin(TWO_PI * freqs[:, None] * t + phases[:, None]), axis=0
        )
    span = positions.max(axis=0) - positions.min(axis=0)
    positions *= scale / max(np.max(span), 1e-12)
    return Trajectory(positions - positions[0], t)
