"""The benchmark's own channel model and the checks made with it.

Inputs of the tracking workloads come from here rather than from
``csitrack.simulator``, so a simulator change moves only ``simulate-write``;
the same model is the reference that simulator output is checked against.
Nothing in this file calls csitrack.

The room is fixed: 4 APs, 2 static paths each (a direct path and a weaker
reflection) and per-AP clock offsets near 20 kHz, as in csitrack's
``indoor-4ap`` preset. The seed draws the rest: a smooth random 0.5 m
motion, each AP's initial clock phase, its clock random walk, the receiver
noise (25 dB SNR) and then 8-bit quantization. With a channel drawn per seed
the tracking error moved by 19x between seeds, which would drown any
accuracy regression, so only the motion and the impairments vary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi
WAVELENGTH = 0.06
PACKET_INTERVAL = 0.006
SNR_DB = 25.0
JITTER_STD = 0.05
MOTION_SPAN = 0.5
AP_IDS = ("ap0", "ap1", "ap2", "ap3")

# per AP: direct AoD, reflection offset, reflection |gain|, gain phase, clock offset (Hz)
_ROOM = (
    (0.876, 1.9, 0.72, 0.3, 19630.0),
    (2.266, -2.2, 0.66, 2.9, 20410.0),
    (4.018, 2.4, 0.78, 4.1, -20270.0),
    (5.407, -1.7, 0.61, 1.2, 21110.0),
)


def antenna_positions(num_antennas=3, spacing=0.026) -> np.ndarray:
    """Circular array whose adjacent antennas are ``spacing`` apart."""
    radius = spacing / (2.0 * math.sin(math.pi / num_antennas))
    angles = TWO_PI * np.arange(num_antennas) / num_antennas
    return radius * np.column_stack([np.cos(angles), np.sin(angles)])


@dataclass(frozen=True)
class Scenario:
    """One seed's inputs: the room, the motion and the clock phases."""

    seed: int
    part: int
    aods: np.ndarray  # (APs, paths)
    gains: np.ndarray  # (APs, paths) complex
    frequencies: np.ndarray  # (APs,) Hz
    initial_phases: np.ndarray  # (APs,)
    positions: np.ndarray  # (packets, 2), starting at the origin
    timestamps: np.ndarray  # (packets,)

    @property
    def num_packets(self) -> int:
        return self.positions.shape[0]


def draw_scenario(seed: int, num_packets: int, part: int = 0) -> Scenario:
    """Scenario ``part`` of a seed; parts are independent draws."""
    rng = np.random.default_rng([seed, part, 0])
    aods = np.array([[d, (d + shift) % TWO_PI] for d, shift, _, _, _ in _ROOM])
    gains = np.array([
        [np.exp(1j * phase), amp * np.exp(1j * (phase + 1.0))] for _, _, amp, phase, _ in _ROOM
    ])
    frequencies = np.array([room[4] for room in _ROOM])
    initial_phases = rng.uniform(0.0, TWO_PI, len(AP_IDS))
    timestamps = PACKET_INTERVAL * np.arange(num_packets)
    positions = np.empty((num_packets, 2))
    for axis in range(2):
        freqs = rng.uniform(0.05, 0.25, 3)
        amps = rng.uniform(0.2, 1.0, 3)
        phases = rng.uniform(0.0, TWO_PI, 3)
        positions[:, axis] = np.sum(
            amps[:, None] * np.sin(TWO_PI * freqs[:, None] * timestamps + phases[:, None]), axis=0
        )
    span = positions.max(axis=0) - positions.min(axis=0)
    positions *= MOTION_SPAN / max(float(np.max(span)), 1e-12)
    return Scenario(seed, part, aods, gains, frequencies, initial_phases,
                    positions - positions[0], timestamps)


def clean_csi(scenario: Scenario, ap: int) -> np.ndarray:
    """(packets, antennas) channel of one AP before any clock phase or noise."""
    directions = np.vstack([np.cos(scenario.aods[ap]), np.sin(scenario.aods[ap])])
    relative = antenna_positions() - antenna_positions()[0]
    steering = np.exp(-2j * np.pi * (relative @ directions) / WAVELENGTH)
    weights = scenario.gains[ap] * np.exp(-2j * np.pi * (scenario.positions @ directions) / WAVELENGTH)
    return weights @ steering.T


def received_csi(scenario: Scenario) -> np.ndarray:
    """(APs, packets, antennas) CSI with clock phase, noise and quantization."""
    out = []
    for ap in range(len(AP_IDS)):
        rng = np.random.default_rng([scenario.seed, scenario.part, 1, ap])
        clean = clean_csi(scenario, ap)
        steps = rng.normal(0.0, JITTER_STD, scenario.num_packets - 1)
        walk = np.concatenate([[0.0], np.cumsum(steps)])
        clock = (scenario.initial_phases[ap]
                 + TWO_PI * scenario.frequencies[ap] * scenario.timestamps + walk)
        csi = clean * np.exp(1j * clock)[:, None]
        sigma = np.sqrt(np.mean(np.abs(csi) ** 2, axis=1) * 10.0 ** (-SNR_DB / 10.0) / 2.0)
        noise = rng.standard_normal((scenario.num_packets, 2, csi.shape[1]))
        csi = csi + sigma[:, None] * (noise[:, 0] + 1j * noise[:, 1])
        peak = np.maximum(np.abs(csi.real).max(axis=1), np.abs(csi.imag).max(axis=1))
        step = (peak / 127.0)[:, None]
        out.append((np.round(csi.real / step) + 1j * np.round(csi.imag / step)) * step)
    return np.array(out)


def trace_text(scenario: Scenario, csi: np.ndarray) -> str:
    """The v1 trace text of ``csi``, written without csitrack's writer.

    Floats use repr(), which round-trips doubles, so a lossless reader must
    return ``csi`` and the timestamps bit for bit.
    """
    lines = [
        "#csi-trace v1",
        f"#antennas {csi.shape[2]}",
        f"#wavelength {WAVELENGTH!r}",
        f"#packet_interval {PACKET_INTERVAL!r}",
        "#geometry " + " ".join(f"{float(x)!r},{float(y)!r}" for x, y in antenna_positions()),
        "#aps " + " ".join(AP_IDS),
    ]
    for p in range(scenario.num_packets):
        stamp = repr(float(scenario.timestamps[p]))
        for ap, ap_id in enumerate(AP_IDS):
            fields = " ".join(f"{float(v.real)!r} {float(v.imag)!r}" for v in csi[ap, p])
            lines.append(f"{ap_id} {p} {stamp} {fields}")
    return "\n".join(lines) + "\n"


# -- checks made apart from the program -----------------------------------------


def aligned_errors(estimate: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-point error after shifting both tracks to the origin and rotating
    the estimate by the least-squares angle (never scaling it)."""
    source = estimate - estimate[0]
    target = truth - truth[0]
    angle = math.atan2(
        float(np.sum(source[:, 0] * target[:, 1] - source[:, 1] * target[:, 0])),
        float(np.sum(source * target)),
    )
    c, s = math.cos(angle), math.sin(angle)
    residual = source @ np.array([[c, -s], [s, c]]).T - target
    return np.hypot(residual[:, 0], residual[:, 1])


def span_errors(estimate: np.ndarray, truth: np.ndarray, span: int) -> np.ndarray:
    """Error of the tracked displacement over every run of ``span`` packets.

    Equivalently: the position error ``span`` packets after any point once the
    track is shifted onto the truth at that point. Unlike the error of a whole
    aligned track, it averages over many spans, so it is steady from seed to
    seed while still growing with any drift or scale error.
    """
    span = min(span, estimate.shape[0] - 1)
    moved = (estimate[span:] - estimate[:-span]) - (truth[span:] - truth[:-span])
    return np.hypot(moved[:, 0], moved[:, 1])


def residual_snr_db(received: np.ndarray, clean: np.ndarray) -> tuple:
    """SNR implied by ``received`` against ``clean`` after fitting one phase
    per packet (rows are packets), and the standard deviation of that
    estimate, both in dB.

    Per packet the noise power is set relative to that packet's power, and
    the fitted phase absorbs one of its 2M real noise dimensions: the ratio of
    residual to clean power is 10^(-SNR/10) * chi2(2M - 1) / 2M, whose
    relative standard deviation is sqrt(2 / (2M - 1)).
    """
    phase = np.angle(np.sum(np.conj(clean) * received, axis=1))
    residual = received - clean * np.exp(1j * phase)[:, None]
    ratio = np.sum(np.abs(residual) ** 2, axis=1) / np.sum(np.abs(clean) ** 2, axis=1)
    dims = 2 * clean.shape[1]
    snr = -10.0 * math.log10(dims / (dims - 1) * float(np.mean(ratio)))
    sigma = 10.0 / math.log(10.0) * math.sqrt(2.0 / ((dims - 1) * ratio.size))
    return snr, sigma
