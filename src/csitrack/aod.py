"""Multi-packet departure-angle estimation via MUSIC.

CSI vectors from a window of packets are concatenated column-wise; every
column is a linear combination of the same steering vectors, and motion makes
the combination weights diverse, so the sample covariance separates into a
path subspace and a noise subspace even though each packet alone is rank one.
No spatial smoothing is applied: with three antennas there is no room for
subarrays, and the packet diversity plays the decorrelation role instead.

The tracker estimates every AP due on a packet in one batch (:func:`estimate_aods`:
one ``eigh``, one grid scan, one refinement loop) on covariances it keeps as
running window sums; :func:`estimate_paths`, for one window, sums X X^H afresh.
"""

from __future__ import annotations

import functools
import math
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
        if not 0 < self.window_seconds < math.inf:
            raise ValueError("window_seconds must be positive and finite")
        if not 0 < self.grid_step < math.inf:
            raise ValueError("grid_step must be positive and finite")
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
    return PacketWindow.from_records(records, min_packets).matrix


class PacketWindow:
    """One AP's sliding window of packets, held in one contiguous array.

    Each row of the buffer is one packet's CSI, so :attr:`matrix` is a
    transposed view with the same F-ordered M x P layout that
    :func:`concat_window` builds. Appending and expiring cost amortized O(1):
    when the buffer fills, the live rows move to a fresh buffer, twice as
    large only when they occupy more than half of the old one. A fresh buffer
    (rather than an in-place shift) leaves any view handed out earlier
    unchanged. Expired rows stay readable (:meth:`rows`) until that move.
    """

    def __init__(self, ap_id: str, num_antennas: int):
        self.ap_id = ap_id
        self._csi = np.empty((64, num_antennas), dtype=complex)
        self._timestamps = np.empty(64)
        self._start = 0
        self._end = 0
        self.moves = 0  # times the live rows moved to a fresh buffer

    @classmethod
    def from_records(cls, records, min_packets: int = 1) -> PacketWindow:
        """A window holding one AP's ``records`` in order."""
        records = list(records)
        _require_packets(len(records), min_packets)
        if any(r.ap_id != records[0].ap_id for r in records):
            raise ValueError("window mixes records from different APs")
        window = cls(records[0].ap_id, records[0].csi.size)
        window._csi = np.array([r.csi for r in records], dtype=complex)
        window._timestamps = np.array([r.timestamp for r in records], dtype=float)
        window._end = len(records)
        return window

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
        self.moves += 1

    def expire(self, horizon: float) -> None:
        """Drop packets from the front while their timestamp is before ``horizon``."""
        timestamps = self._timestamps
        start, end = self._start, self._end
        while start < end and timestamps[start] < horizon:
            start += 1
        self._start = start

    @property
    def span(self) -> tuple:
        """(moves, start, end): the live rows are buffer rows start:end."""
        return self.moves, self._start, self._end

    def rows(self, start: int, end: int) -> np.ndarray:
        """Buffer rows start:end (P, M), one packet's CSI per row."""
        return self._csi[start:end]

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


def window_sums(windows) -> np.ndarray:
    """(A, M, M) stack: X X^H of each window's M x P matrix X, summed afresh."""
    return np.array([window.matrix @ window.matrix.conj().T for window in windows])


def _noise_subspaces(covariance: np.ndarray, num_paths: int) -> np.ndarray:
    """(A, M, M - L) stack: per (M, M) sample covariance, the eigenvectors of
    the M - L smallest eigenvalues. One batched ``eigh``."""
    num_antennas = covariance.shape[-1]
    if not 1 <= num_paths <= num_antennas - 1:
        raise ValueError("num_paths must be in [1, num_antennas - 1]")
    if not np.isfinite(covariance.view(float)).all():
        raise ValueError("covariance contains non-finite values")
    _, vectors = np.linalg.eigh(covariance)  # ascending eigenvalues
    return vectors[..., : num_antennas - num_paths]


def noise_subspace(X: np.ndarray, num_paths: int) -> np.ndarray:
    """Eigenvectors of the M - L smallest sample-covariance eigenvalues."""
    X = np.asarray(X, dtype=complex)
    return _noise_subspaces((X @ X.conj().T / X.shape[1])[None], num_paths)[0]


def _null_power(adjoint: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """||E_n^H a(theta)||^2 per steering column, for one noise subspace's
    adjoint E_n^H or an (A, M - L, M) stack; zero exactly on a path direction."""
    return (np.abs(adjoint @ steering) ** 2).sum(axis=-2)


def music_spectrum(X: np.ndarray, geometry: ArrayGeometry, grid,
                   num_paths: int) -> np.ndarray:
    """Pseudo-spectrum 1 / ||E_n^H a(theta)||^2 sampled on ``grid``."""
    adjoint = noise_subspace(X, num_paths).conj().T
    power = _null_power(adjoint, steering_matrix(geometry, np.asarray(grid, dtype=float)))
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
    """Mask of the entries below both neighbors along the last axis, cyclic."""
    wrapped = np.concatenate((values[..., -1:], values, values[..., :1]), axis=-1)
    return (values < wrapped[..., :-2]) & (values < wrapped[..., 2:])


_STENCIL = np.array([-1.0, 0.0, 1.0])


def _refine_minima(adjoint, geometry, thetas, step, iterations) -> np.ndarray:
    """Sharpen (A, L) grid minima by repeated 3-point parabola fits, all at once.

    Fits the null power (smooth and locally quadratic at a path direction,
    unlike the sharply-peaked reciprocal spectrum) over a stencil that shrinks
    each round, so the grid-step bias that would otherwise swamp
    millimeter-scale displacement phases is eliminated. Each round evaluates
    the stencils of all A x L paths in one null-power call; a path stops for
    good where its parabola is not convex.
    """
    shape, h = thetas.shape, step
    thetas, active = thetas.ravel().tolist(), [True] * thetas.size
    for _ in range(iterations):
        stencil = np.reshape(thetas, shape)[..., None] + h * _STENCIL
        steering = steering_matrix(geometry, stencil.reshape(shape[0], -1))
        # A x L parabolas of three values each: plain floats cost less than array calls
        g = _null_power(adjoint, steering).reshape(-1, 3).tolist()
        for k, (lower, middle, upper) in enumerate(g):
            denom = lower - 2.0 * middle + upper
            active[k] = active[k] and denom > 0
            if active[k]:
                thetas[k] += min(max(0.5 * (lower - upper) / denom * h, -h), h)
        if not any(active):
            break
        h /= 4.0
    return np.reshape(thetas, shape)


def estimate_aods(windows, geometry: ArrayGeometry, config: AodConfig, covariance=None):
    """Sorted AoDs (A, L) and ``degenerate`` flags (A,) of A windows at once.

    ``windows`` is a sequence of :class:`PacketWindow`, one per AP. Per
    window, picks the L deepest cyclic local minima of the null power
    (equivalently, the L largest spectrum peaks) and refines each by
    quadratic interpolation. If the spectrum exposes fewer than L local
    minima -- typical for a stationary target, whose covariance degenerates
    to rank one -- the L smallest grid values are used instead and the
    window is flagged ``degenerate``. Each step runs once for the batch; no
    window's result depends on the others. ``covariance``: their (A, M, M)
    sample covariances where the caller keeps them; by default summed afresh."""
    lengths = [len(window) for window in windows]
    _require_packets(min(lengths), config.min_packets)
    if covariance is None:
        covariance = window_sums(windows) / np.array(lengths)[:, None, None]
    adjoint = _noise_subspaces(covariance, config.num_paths).conj().swapaxes(-1, -2)
    grid, grid_matrix = _build_grid_steering(geometry, config.grid_step)
    power = _null_power(adjoint, grid_matrix)
    minima = _cyclic_minima(power)
    degenerate = minima.sum(axis=-1) < config.num_paths
    minima[degenerate] = True  # rank among all grid values instead
    order = np.where(minima, power, np.inf).argsort(axis=-1)
    aods = _refine_minima(adjoint, geometry, grid[order[:, : config.num_paths]],
                          config.grid_step, config.refine_iterations)
    return np.sort(np.mod(aods, TWO_PI), axis=-1), degenerate


def estimate_paths(window, geometry: ArrayGeometry, config: AodConfig) -> PathSet:
    """Estimate the AoDs of ``config.num_paths`` paths from one AP's window.

    ``window`` is a :class:`PacketWindow` or a sequence of one AP's records;
    this is :func:`estimate_aods` for a batch of one.
    """
    if not isinstance(window, PacketWindow):
        window = PacketWindow.from_records(window, config.min_packets)
    aods, degenerate = estimate_aods([window], geometry, config)
    return PathSet(window.ap_id, aods[0], steering_matrix(geometry, aods[0]),
                   geometry.wavelength, bool(degenerate[0]))
