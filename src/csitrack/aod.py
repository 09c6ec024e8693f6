"""Multi-packet departure-angle estimation via MUSIC.

CSI vectors from a window of packets are concatenated column-wise; every
column is a linear combination of the same steering vectors, and motion makes
the combination weights diverse, so the sample covariance separates into a
path subspace and a noise subspace even though each packet alone is rank one.
No spatial smoothing is applied: with three antennas there is no room for
subarrays, and the packet diversity plays the decorrelation role instead.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import ArrayGeometry, PathSet, TWO_PI, steering_matrix
from .errors import WindowUnderfullError


@dataclass(frozen=True)
class AodConfig:
    """Window and grid parameters for path estimation."""

    num_paths: int = 2
    window_seconds: float = 10.0
    grid_step: float = np.radians(0.5)
    min_packets: int = 20
    refine_iterations: int = 3

    def __post_init__(self):
        if self.num_paths < 1:
            raise ValueError("num_paths must be >= 1")
        if not self.window_seconds > 0:
            raise ValueError("window_seconds must be positive")
        if not self.grid_step > 0:
            raise ValueError("grid_step must be positive")
        if self.min_packets < 1:
            raise ValueError("min_packets must be >= 1")
        if self.refine_iterations < 0:
            raise ValueError("refine_iterations must be >= 0")


def angle_grid(step: float) -> np.ndarray:
    """Evaluation grid over [0, 2*pi); the grid is treated as cyclic."""
    return np.arange(0.0, TWO_PI, step)


def _require_packets(count: int, min_packets: int) -> None:
    if count < min_packets:
        raise WindowUnderfullError(f"window holds {count} packets, need {min_packets}")


def concat_window(records, min_packets: int = 1) -> np.ndarray:
    """Stack one AP's CSI vectors into an M x P matrix, column per packet."""
    records = list(records)
    _require_packets(len(records), min_packets)
    ap_id = records[0].ap_id
    if any(r.ap_id != ap_id for r in records):
        raise ValueError("window mixes records from different APs")
    return np.array([r.csi for r in records], dtype=complex).T


class PacketWindow:
    """One AP's sliding window of packets, held in one contiguous array.

    Each row of the buffer is one packet's CSI, so :attr:`matrix` is a
    transposed view with the same F-ordered M x P layout that
    :func:`concat_window` builds. Appending and expiring cost amortized O(1):
    when the buffer fills, the live rows move to a fresh buffer, twice as
    large only when they occupy more than half of the old one. A fresh buffer
    (rather than an in-place shift) leaves any view handed out earlier
    unchanged.
    """

    def __init__(self, ap_id: str, num_antennas: int):
        self.ap_id = ap_id
        self._csi = np.empty((64, num_antennas), dtype=complex)
        self._timestamps = np.empty(64)
        self._start = 0
        self._end = 0

    def __len__(self) -> int:
        return self._end - self._start

    def append(self, csi: np.ndarray, timestamp: float) -> None:
        if self._end == self._timestamps.size:
            self._move_live_rows()
        self._csi[self._end] = csi
        self._timestamps[self._end] = timestamp
        self._end += 1

    def _move_live_rows(self) -> None:
        count = len(self)
        capacity = self._timestamps.size
        if 2 * count > capacity:
            capacity *= 2
        csi = np.empty((capacity, self._csi.shape[1]), dtype=complex)
        timestamps = np.empty(capacity)
        csi[:count] = self._csi[self._start:self._end]
        timestamps[:count] = self._timestamps[self._start:self._end]
        self._csi, self._timestamps = csi, timestamps
        self._start, self._end = 0, count

    def expire(self, horizon: float) -> None:
        """Drop packets from the front while their timestamp is before ``horizon``."""
        timestamps = self._timestamps
        start, end = self._start, self._end
        while start < end and timestamps[start] < horizon:
            start += 1
        self._start = start

    @property
    def matrix(self) -> np.ndarray:
        """Read-only M x P view of the window, column per packet."""
        view = self._csi[self._start:self._end].T
        view.flags.writeable = False
        return view

    @property
    def timestamps(self) -> np.ndarray:
        """Read-only view of the window's timestamps, oldest first."""
        view = self._timestamps[self._start:self._end]
        view.flags.writeable = False
        return view


def noise_subspace(X: np.ndarray, num_paths: int) -> np.ndarray:
    """Eigenvectors of the M - L smallest sample-covariance eigenvalues."""
    X = np.asarray(X, dtype=complex)
    num_antennas = X.shape[0]
    if not 1 <= num_paths <= num_antennas - 1:
        raise ValueError("num_paths must be in [1, num_antennas - 1]")
    covariance = X @ X.conj().T / X.shape[1]
    if not np.all(np.isfinite(covariance.view(float))):
        raise ValueError("covariance contains non-finite values")
    _, vectors = np.linalg.eigh(covariance)  # ascending eigenvalues
    return vectors[:, : num_antennas - num_paths]


def _null_power(subspace: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """||E_n^H a(theta)||^2 per steering column; zero exactly on a path direction."""
    projected = subspace.conj().T @ steering
    return np.sum(np.abs(projected) ** 2, axis=0)


def music_spectrum(X: np.ndarray, geometry: ArrayGeometry, grid,
                   num_paths: int) -> np.ndarray:
    """Pseudo-spectrum 1 / ||E_n^H a(theta)||^2 sampled on ``grid``."""
    subspace = noise_subspace(X, num_paths)
    power = _null_power(subspace, steering_matrix(geometry, np.asarray(grid, dtype=float)))
    with np.errstate(divide="ignore"):
        return 1.0 / power


@functools.lru_cache(maxsize=16)
def _build_grid_steering(geometry: ArrayGeometry, step: float):
    """The angle grid and its M x K steering matrix, built once per
    (geometry, step) and shared read-only between calls."""
    grid = angle_grid(step)
    steering = steering_matrix(geometry, grid)
    grid.flags.writeable = False
    steering.flags.writeable = False
    return grid, steering


def _cyclic_minima(values: np.ndarray) -> np.ndarray:
    """Indices strictly below both neighbors, wrapping at the grid ends."""
    wrapped = np.concatenate((values[-1:], values, values[:1]))
    return np.nonzero((values < wrapped[:-2]) & (values < wrapped[2:]))[0]


_STENCIL = np.array([-1.0, 0.0, 1.0])


def _refine_minima(subspace, geometry, thetas, step, iterations) -> np.ndarray:
    """Sharpen grid minima by repeated 3-point parabola fits, all at once.

    Fits the null power (smooth and locally quadratic at a path direction,
    unlike the sharply-peaked reciprocal spectrum) over a stencil that shrinks
    each round, so the grid-step bias that would otherwise swamp
    millimeter-scale displacement phases is eliminated. Each round evaluates
    the stencils of every path still refining in one null-power call; a path
    stops where its parabola is not convex.
    """
    thetas = np.array(thetas, dtype=float)
    active = np.arange(thetas.size)
    h = step
    for _ in range(iterations):
        if active.size == 0:
            break
        stencil = thetas[active, None] + h * _STENCIL
        g = _null_power(subspace, steering_matrix(geometry, stencil.ravel())).reshape(-1, 3)
        denom = g[:, 0] - 2.0 * g[:, 1] + g[:, 2]
        convex = denom > 0
        if not convex.all():
            active, g, denom = active[convex], g[convex], denom[convex]
        shift = 0.5 * (g[:, 0] - g[:, 2]) / denom * h
        thetas[active] += np.minimum(np.maximum(shift, -h), h)
        h /= 4.0
    return thetas


def estimate_paths(window, geometry: ArrayGeometry, config: AodConfig) -> PathSet:
    """Estimate the AoDs of ``config.num_paths`` paths from one AP's window.

    ``window`` is a :class:`PacketWindow` or a sequence of one AP's records.
    Picks the L deepest cyclic local minima of the null power (equivalently,
    the L largest spectrum peaks), refines each by quadratic interpolation
    and returns the angles sorted ascending. If the spectrum exposes fewer
    than L local minima -- typical for a stationary target, whose covariance
    degenerates to rank one -- the L smallest grid values are used instead and
    the result is flagged ``degenerate``.
    """
    if isinstance(window, PacketWindow):
        _require_packets(len(window), config.min_packets)
        X, ap_id = window.matrix, window.ap_id
    else:
        records = list(window)
        X = concat_window(records, config.min_packets)
        ap_id = records[0].ap_id
    subspace = noise_subspace(X, config.num_paths)
    grid, grid_matrix = _build_grid_steering(geometry, config.grid_step)
    power = _null_power(subspace, grid_matrix)
    minima = _cyclic_minima(power)
    degenerate = minima.size < config.num_paths
    if degenerate:
        chosen = np.argsort(power)[: config.num_paths]
    else:
        chosen = minima[np.argsort(power[minima])][: config.num_paths]
    aods = _refine_minima(subspace, geometry, grid[chosen], config.grid_step,
                          config.refine_iterations)
    aods = np.sort(np.mod(aods, TWO_PI))
    return PathSet(
        ap_id=ap_id,
        aods=aods,
        steering_matrix=steering_matrix(geometry, aods),
        wavelength=geometry.wavelength,
        degenerate=bool(degenerate),
    )
