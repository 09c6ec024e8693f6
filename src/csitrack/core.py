"""Shared domain types and antenna-array phase math.

Conventions used throughout the package: angles are radians, positions and
wavelengths are meters, timestamps are seconds. Path angles (AoDs) live on
[0, 2*pi), measured counter-clockwise from the +x axis of the transmitter's
local frame. Antenna 0 is the phase reference of every steering vector, so
translating the whole array does not change any phase pattern.

All types here are immutable after construction and all functions are pure.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

#: Carrier wavelength in meters for the 5 GHz WiFi band.
DEFAULT_WAVELENGTH = 0.06


def circular_distance(a, b):
    """Absolute angular separation, respecting the 2*pi wrap-around."""
    d = np.mod(np.subtract(a, b, dtype=float), TWO_PI)
    distance = np.minimum(d, TWO_PI - d)
    return float(distance) if distance.ndim == 0 else distance


def check_integer(name: str, value, minimum: int) -> None:
    """ValueError, naming the field ``name`` first, unless ``value`` is an
    integer (a bool is not) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def check_positive(name: str, value) -> None:
    """ValueError, naming the field ``name`` first, unless ``value`` is finite and above 0."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, not {value!r}")


def check_ap_ids(ap_ids) -> tuple:
    """``ap_ids`` as a tuple; ValueError, naming ``ap_ids`` first, unless they are one or more
    unique str ids, each a non-empty trace field (no whitespace) not led by '#' that UTF-8
    can encode (a lone surrogate cannot)."""
    ap_ids = tuple(ap_ids)
    for ap in ap_ids:
        if not (isinstance(ap, str) and ap.split() == [ap] and not ap.startswith("#")
                and ap.encode(errors="replace").decode() == ap):
            raise ValueError("ap_ids must be str, non-empty, UTF-8, no whitespace or leading '#':"
                             f" {ap!r}")
    if not ap_ids or len(set(ap_ids)) != len(ap_ids):
        raise ValueError(f"ap_ids must be one or more unique ids, not {ap_ids!r}")
    return ap_ids


def check_finite(name: str, value, minimum: float = -math.inf, maximum: float = math.inf) -> None:
    """As check_positive, for any finite ``value`` from ``minimum`` to ``maximum``."""
    if not (math.isfinite(value) and minimum <= value <= maximum):
        raise ValueError(f"{name} must be finite and in [{minimum:g}, {maximum:g}], not {value!r}")


@dataclass(frozen=True, eq=False)
class ArrayGeometry:
    """Planar transmit-antenna layout plus the carrier wavelength.

    ``antenna_positions`` is a read-only (M, 2) array of coordinates in the
    transmitter's local frame. A linear layout leaves the usual theta vs.
    -theta ambiguity; configurations that need full-plane angles should use a
    non-collinear (e.g. circular) layout. Geometries compare and hash by
    value: equal positions (bit for bit) and wavelength, by a key and hash made once.
    """

    antenna_positions: np.ndarray
    wavelength: float = DEFAULT_WAVELENGTH

    def __post_init__(self):
        positions = np.array(self.antenna_positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError("antenna_positions must be an (M, 2) array")
        if positions.shape[0] < 2:
            raise ValueError("need at least 2 antennas")
        if not np.all(np.isfinite(positions)):
            raise ValueError("antenna positions must be finite")
        separations = np.hypot(
            positions[:, None, 0] - positions[None, :, 0],
            positions[:, None, 1] - positions[None, :, 1],
        )
        np.fill_diagonal(separations, np.inf)
        if np.any(separations < 1e-12):
            raise ValueError("antenna positions must be pairwise distinct")
        check_positive("wavelength", self.wavelength)
        positions.flags.writeable = False
        object.__setattr__(self, "antenna_positions", positions)
        object.__setattr__(self, "_relative", positions - positions[0])  # for steering_vectors
        object.__setattr__(self, "_key", (positions.tobytes(), float(self.wavelength)))
        # hashed from floats, whose hash is the same in every process (unlike bytes')
        object.__setattr__(self, "_hash", hash((*positions.ravel().tolist(), self._key[1])))

    def __eq__(self, other):
        return self._key == other._key if isinstance(other, ArrayGeometry) else NotImplemented

    def __hash__(self):
        return self._hash

    @property
    def num_antennas(self) -> int:
        return self.antenna_positions.shape[0]

    @classmethod
    def linear(cls, num_antennas=3, spacing=None, wavelength=DEFAULT_WAVELENGTH):
        """Uniform linear array along the +x axis; spacing defaults to lambda/2."""
        if spacing is None:
            spacing = wavelength / 2.0
        xs = spacing * np.arange(num_antennas)
        return cls(np.column_stack([xs, np.zeros(num_antennas)]), wavelength)

    @classmethod
    def circular(cls, num_antennas=3, spacing=0.026, wavelength=DEFAULT_WAVELENGTH):
        """Antennas equally spaced on a circle.

        ``spacing`` is the chord distance between adjacent antennas; for
        num_antennas=3 that equals the distance between any two antennas.
        """
        if num_antennas < 2:
            raise ValueError("need at least 2 antennas")
        radius = spacing / (2.0 * np.sin(np.pi / num_antennas))
        angles = TWO_PI * np.arange(num_antennas) / num_antennas
        return cls(radius * np.column_stack([np.cos(angles), np.sin(angles)]), wavelength)


def steering_matrix(geometry: ArrayGeometry, thetas) -> np.ndarray:
    """Stack steering vectors for K angles into an (M, K) matrix, or for an
    (A, K) array of angles into an (A, M, K) stack."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    return steering_vectors(geometry, np.cos(thetas), np.sin(thetas))


def steering_vectors(geometry: ArrayGeometry, cos, sin) -> np.ndarray:
    """:func:`steering_matrix` of the angles whose cosines and sines are ``cos`` and ``sin``."""
    projection = geometry._relative @ np.array([cos, sin]).swapaxes(0, -2)
    return np.exp(-2j * np.pi * projection / geometry.wavelength)


def steering_vector(geometry: ArrayGeometry, theta: float) -> np.ndarray:
    """Per-antenna relative phase pattern of a path departing at ``theta``.

    Entry q is exp(-2j*pi * (p_q - p_0) . (cos theta, sin theta) / lambda),
    so entry 0 is exactly 1. For a uniform linear array on the x axis with
    spacing d this reduces to [1, e^{-j2pi d cos(theta)/lambda}, ...].
    """
    return steering_matrix(geometry, [float(theta)])[:, 0]


@dataclass(frozen=True, slots=True)
class CsiRecord:
    """One packet's CSI at one AP: an integer packet index, a complex entry per transmit antenna."""

    ap_id: str
    packet_index: int
    timestamp: float
    csi: np.ndarray

    def __post_init__(self):
        csi = np.asarray(self.csi, dtype=complex)
        if csi.ndim != 1 or csi.size == 0:
            raise ValueError("csi must be a non-empty 1-D complex vector")
        _check_samples((self.packet_index,), (self.timestamp,), csi)
        object.__setattr__(self, "csi", csi)


def _check_samples(packet_indices, timestamps, csi: np.ndarray) -> None:
    """ValueError unless every packet index is an integer, every CSI entry and timestamp finite."""
    if not {int}.issuperset(map(type, packet_indices)):  # one pass over the usual plain ints
        for index in packet_indices:
            check_integer("packet_index", index, -math.inf)
    if not np.isfinite(csi).all():
        raise ValueError("csi must be finite")
    if not all(map(math.isfinite, timestamps)):
        raise ValueError("timestamp must be finite")


def checked_records(ap_ids, packet_indices, timestamps, csi) -> list:
    """CsiRecords of the rows of an (N, M) complex CSI block, each a view of its row; the block
    is checked once for what CsiRecord checks, and C-level loops make its thousands of records."""
    csi = np.asarray(csi, dtype=complex)
    if csi.ndim != 2 or csi.shape[1] == 0:
        raise ValueError("csi must be an (N, M) block of non-empty rows")
    if not len(ap_ids) == len(packet_indices) == len(timestamps) == len(csi):
        raise ValueError("need one ap_id, packet_index and timestamp per CSI row")
    _check_samples(packet_indices, timestamps, csi)
    return slotted_instances(CsiRecord, len(csi), ap_ids, packet_indices, timestamps, csi)


def slotted_instances(cls, count: int, *columns) -> list:
    """``count`` instances of the slotted (frozen) dataclass ``cls``, slot i of the k-th set to
    item k of ``columns[i]`` as ``__init__`` sets it, unchecked and with no Python step per
    instance: each map runs in C, drained by a zero-length deque."""
    instances = list(map(object.__new__, itertools.repeat(cls, count)))
    for name, column in zip(cls.__slots__, columns):
        deque(map(getattr(cls, name).__set__, instances, column), maxlen=0)
    return instances


@dataclass(frozen=True)
class PathSet:
    """Estimated departure angles of one AP's paths and their steering matrix.

    ``aods`` are sorted ascending when produced by the estimator; trackers may
    re-order them afterwards to keep path identity stable across windows.
    ``degenerate`` marks estimates taken from fewer spectrum peaks than paths.
    """

    ap_id: str
    aods: np.ndarray
    steering_matrix: np.ndarray
    wavelength: float = DEFAULT_WAVELENGTH
    degenerate: bool = False

    def __post_init__(self):
        aods = np.atleast_1d(np.asarray(self.aods, dtype=float))
        matrix = np.asarray(self.steering_matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[1] != aods.size:
            raise ValueError("steering_matrix must have one column per AoD")
        check_positive("wavelength", self.wavelength)
        object.__setattr__(self, "aods", aods)
        object.__setattr__(self, "steering_matrix", matrix)

    @property
    def num_paths(self) -> int:
        return self.aods.size


@dataclass(frozen=True)
class Displacement:
    """2D displacement (meters) between two consecutive packets.

    The tracking assumption keeps its magnitude well below lambda/2 per
    packet interval; violating it wraps differential phases and surfaces as
    trajectory error.
    """

    delta: np.ndarray

    def __post_init__(self):
        delta = np.asarray(self.delta, dtype=float)
        if delta.shape != (2,):
            raise ValueError("delta must be a 2-vector")
        if not all(map(math.isfinite, delta.tolist())):  # cheaper than numpy on 2 values
            raise ValueError("delta must be finite")
        object.__setattr__(self, "delta", delta)


@dataclass(frozen=True)
class Trajectory:
    """Ordered 2D positions with strictly increasing timestamps."""

    positions: np.ndarray
    timestamps: np.ndarray

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=float)
        timestamps = np.asarray(self.timestamps, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError("positions must be an (N, 2) array")
        if timestamps.shape != (positions.shape[0],):
            raise ValueError("timestamps must match positions")
        if positions.shape[0] == 0:
            raise ValueError("trajectory must hold at least one point")
        if not (np.isfinite(positions).all() and np.isfinite(timestamps).all()):
            raise ValueError("positions and timestamps must be finite")
        if np.any(timestamps[1:] <= timestamps[:-1]):  # a difference can overflow
            raise ValueError("timestamps must be strictly increasing")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "timestamps", timestamps)

    def __len__(self) -> int:
        return self.positions.shape[0]


def resample_positions(trajectory: Trajectory, timestamps: np.ndarray) -> np.ndarray:
    """Linearly interpolate a trajectory's positions at the given timestamps."""
    x = np.interp(timestamps, trajectory.timestamps, trajectory.positions[:, 0])
    y = np.interp(timestamps, trajectory.timestamps, trajectory.positions[:, 1])
    return np.column_stack([x, y])
