"""Multi-packet departure-angle estimation via MUSIC.

CSI vectors from a window of packets are concatenated column-wise; every
column is a linear combination of the same steering vectors, and motion makes
the combination weights diverse, so the sample covariance separates into a
path subspace and a noise subspace even though each packet alone is rank one.
No spatial smoothing is applied: with three antennas there is no room for
subarrays, and the packet diversity plays the decorrelation role instead.

The tracker estimates every AP due on a packet in one batch (:func:`estimate_aods`:
one ``eigh``, one grid scan that also gives the first refinement round, one
refinement loop) on the running sums of x x^H that each :class:`PacketWindow`
keeps, expiring packets when read; :func:`estimate_paths` sums X X^H afresh.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (ArrayGeometry, PathSet, TWO_PI, check_integer, check_positive, steering_matrix,
                   steering_vectors)
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
        check_integer("num_paths", self.num_paths, 1)
        check_positive("window_seconds", self.window_seconds)
        check_positive("grid_step", self.grid_step)
        check_integer("min_packets", self.min_packets, 1)
        check_integer("refine_iterations", self.refine_iterations, 0)


def angle_grid(step: float) -> np.ndarray:
    """Evaluation grid over [0, 2*pi); the grid is treated as cyclic."""
    return np.arange(0.0, TWO_PI, step)


def _require_packets(count: int, min_packets: int) -> None:
    if count < min_packets:
        raise WindowUnderfullError(f"window holds {count} packets, need {min_packets}")


def _fresh_sum(X: np.ndarray) -> np.ndarray:
    """X X^H of an M x P matrix X, summed afresh."""
    return X @ X.conj().T


class PacketWindow:
    """One AP's sliding window of packets, held in one contiguous array.

    Each row of the buffer is one packet's CSI, so :attr:`matrix` is a
    transposed, F-ordered M x P view, column per packet. Appending and
    expiring cost amortized O(1): when the buffer fills, the live rows move
    to a fresh buffer, twice as large only when they occupy more than half of
    the old one. A fresh buffer (rather than an in-place shift) leaves any
    view handed out earlier unchanged. Rows expire when the window is read and
    before that move (not on append), and stay in the buffer until the move,
    so :meth:`outer_sum` can subtract them.
    """

    def __init__(self, ap_id: str, num_antennas: int):
        self.ap_id = ap_id
        self._csi = np.empty((64, num_antennas), dtype=complex)
        self._timestamps = np.empty(64)
        self._start = 0
        self._end = 0
        self._sum = np.zeros((num_antennas, num_antennas), dtype=complex)  # x x^H
        self._summed = None  # the buffer rows (start, end) the sum covers
        self._taken = 0.0  # power subtracted since the sum was summed afresh
        self._horizon = -math.inf  # rows before it expire on the next read

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
        start, end = self._live()
        return end - start

    def append(self, csi: np.ndarray, timestamp: float, horizon: float = -math.inf) -> None:
        """Add a packet; those before ``horizon`` (never decreasing) expire on the next read."""
        if self._end == self._timestamps.size:
            self._move_live_rows()
        self._csi[self._end] = csi
        self._timestamps[self._end] = timestamp
        self._end += 1
        self._horizon = horizon

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
        self._summed = None

    def _live(self):
        """The window's buffer rows (start, end), once front rows before the horizon expire."""
        start, end = self._start, self._end
        while start < end and self._timestamps[start] < self._horizon:
            start += 1
        self._start = start
        return start, end

    def outer_sum(self) -> np.ndarray:
        """The (M, M) sum of x x^H over the window, kept running between calls.

        Adds the rows pushed and subtracts the rows expired since the last
        call. Sums afresh on a first call, after the live rows moved, when no
        fewer rows changed than are live, when the sum is not finite, and once
        the power subtracted since the last fresh sum exceeds its trace. The
        array returned is never modified afterwards. Powers are plain-float sums
        of real diagonals, ``trace().real`` bit for bit up to 3 antennas; from 4
        on numpy sums a trace pairwise, so a re-sum on a tie to the last bit may differ.
        """
        start, end = self._live()
        old, self._summed = self._summed, (start, end)
        if old is not None and start - old[0] + end - old[1] < end - start:
            pushed, expired = self._csi[old[1]:end], self._csi[old[0]:start]
            loss = expired.T @ expired.conj()
            self._sum = self._sum + (pushed.T @ pushed.conj() - loss)
            self._taken += sum(loss.real.diagonal().tolist())
            if self._taken <= sum(self._sum.real.diagonal().tolist()) < math.inf:
                return self._sum
        self._sum = _fresh_sum(self.matrix)
        self._taken = 0.0
        return self._sum

    def _view(self, buffer: np.ndarray) -> np.ndarray:
        start, end = self._live()
        view = buffer[start:end]
        view.flags.writeable = False
        return view

    @property
    def matrix(self) -> np.ndarray:
        """Read-only M x P view of the window, column per packet."""
        return self._view(self._csi).T

    @property
    def timestamps(self) -> np.ndarray:
        """Read-only view of the window's timestamps, oldest first."""
        return self._view(self._timestamps)


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


def _null_power(adjoint: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """||E_n^H a(theta)||^2 per steering column, for one noise subspace's
    adjoint E_n^H or an (A, M - L, M) stack; zero exactly on a path direction."""
    return (np.abs(adjoint @ steering) ** 2).sum(axis=-2)


def music_spectrum(X: np.ndarray, geometry: ArrayGeometry, grid,
                   num_paths: int) -> np.ndarray:
    """Pseudo-spectrum 1 / ||E_n^H a(theta)||^2 sampled on ``grid``."""
    X = np.asarray(X, dtype=complex)
    adjoint = _noise_subspaces((_fresh_sum(X) / X.shape[1])[None], num_paths)[0].conj().T
    power = _null_power(adjoint, steering_matrix(geometry, np.asarray(grid, dtype=float)))
    with np.errstate(divide="ignore"):
        return 1.0 / power


@functools.lru_cache(maxsize=16)
def _build_grid_steering(geometry: ArrayGeometry, step: float):
    """The K-point angle grid and the M x (K + 2) steering matrix of it and its stencil
    ends -step and K * step, built once per (geometry, step), shared read-only."""
    grid = angle_grid(step)
    steering = steering_matrix(geometry, np.arange(-1, grid.size + 1) * step)
    grid.flags.writeable = False
    steering.flags.writeable = False
    return grid, steering


def _cyclic_minima(values: np.ndarray) -> np.ndarray:
    """Mask of the entries below both neighbors along the last axis, cyclic."""
    wrapped = np.concatenate((values[..., -1:], values, values[..., :1]), axis=-1)
    return (values < wrapped[..., :-2]) & (values < wrapped[..., 2:])


_STENCIL = np.array([-1.0, 0.0, 1.0])


def _refine_minima(adjoint, geometry, thetas, first, step, iterations) -> np.ndarray:
    """Sharpen (A, L) grid minima by repeated 3-point parabola fits, all at once.

    Fits the null power (smooth and locally quadratic at a path direction,
    unlike the sharply-peaked reciprocal spectrum) over a stencil that shrinks
    each round, so the grid-step bias that would otherwise swamp
    millimeter-scale displacement phases is eliminated. Round 1 fits the (A, L, 3)
    grid-scan values ``first``; each later round evaluates all A x L stencils in
    one null-power call. A path stops for good where its parabola is not convex.
    """
    shape, h = thetas.shape, step
    thetas, active = thetas.ravel().tolist(), [True] * thetas.size
    g = first.reshape(-1, 3).tolist()  # plain floats cost less than array calls
    for iteration in range(iterations):
        if iteration:
            stencil = (np.array(thetas)[:, None] + h * _STENCIL).reshape(shape[0], -1)
            steering = steering_vectors(geometry, np.cos(stencil), np.sin(stencil))
            g = _null_power(adjoint, steering).reshape(-1, 3).tolist()
        for k, (lower, middle, upper) in enumerate(g):
            denom = lower - 2.0 * middle + upper
            active[k] = active[k] and denom > 0
            if active[k]:
                thetas[k] += min(max(0.5 * (lower - upper) / denom * h, -h), h)
        if not any(active):
            break
        h /= 4.0
    return np.array(thetas).reshape(shape)


def estimate_aods(windows, geometry: ArrayGeometry, config: AodConfig):
    """Sorted AoDs (A, L) and ``degenerate`` flags (A,) of A windows at once.

    ``windows`` is a sequence of :class:`PacketWindow`, one per AP, each
    estimated from its running :meth:`~PacketWindow.outer_sum`. Per window,
    picks the L deepest cyclic local minima of the null power (equivalently,
    the L largest spectrum peaks) and refines each by quadratic
    interpolation. If the spectrum exposes fewer than L local minima --
    typical for a stationary target, whose covariance degenerates to rank
    one -- the L smallest grid values are used instead and the window is
    flagged ``degenerate``. Each step runs once for the batch; no window's
    result depends on the others."""
    sums = np.array([window.outer_sum() for window in windows])
    return _music_aods(sums, [len(window) for window in windows], geometry, config)


def _music_aods(sums, lengths, geometry: ArrayGeometry, config: AodConfig):
    """:func:`estimate_aods` on (A, M, M) sums of x x^H over windows of ``lengths`` packets;
    minima come from the cyclic K-point grid, and grid k's first stencil is scan k..k+2."""
    _require_packets(min(lengths), config.min_packets)
    covariance = sums / np.array(lengths)[:, None, None]
    adjoint = _noise_subspaces(covariance, config.num_paths).conj().swapaxes(-1, -2)
    grid, grid_matrix = _build_grid_steering(geometry, config.grid_step)
    scan = _null_power(adjoint, grid_matrix)
    power = scan[:, 1:-1]  # grid k is scan k + 1
    minima = _cyclic_minima(power)
    degenerate = minima.sum(axis=-1) < config.num_paths
    minima[degenerate] = True  # rank among all grid values instead
    starts = np.where(minima, power, np.inf).argsort(axis=-1)[:, : config.num_paths]
    first = scan[np.arange(len(scan))[:, None, None], starts[..., None] + np.arange(3)]
    aods = _refine_minima(adjoint, geometry, grid[starts], first,
                          config.grid_step, config.refine_iterations)
    return np.sort(np.mod(aods, TWO_PI), axis=-1), degenerate


def estimate_paths(window, geometry: ArrayGeometry, config: AodConfig) -> PathSet:
    """Estimate the AoDs of ``config.num_paths`` paths from one AP's window.

    ``window`` is a :class:`PacketWindow` or a sequence of one AP's records;
    this is :func:`estimate_aods` for a batch of one, on X X^H summed afresh,
    so a window's running sum stays as it is.
    """
    if not isinstance(window, PacketWindow):
        window = PacketWindow.from_records(window, config.min_packets)
    aods, degenerate = _music_aods(_fresh_sum(window.matrix)[None], [len(window)], geometry, config)
    return PathSet(window.ap_id, aods[0], steering_matrix(geometry, aods[0]),
                   geometry.wavelength, bool(degenerate[0]))
