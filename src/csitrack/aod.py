"""Multi-packet departure-angle estimation via MUSIC.

CSI vectors from a window of packets are concatenated column-wise; every
column is a linear combination of the same steering vectors, and motion makes
the combination weights diverse, so the sample covariance separates into a
path subspace and a noise subspace even though each packet alone is rank one.
No spatial smoothing is applied: with three antennas there is no room for
subarrays, and the packet diversity plays the decorrelation role instead.

The tracker keeps every AP's window in one :class:`WindowBuffer`, which only
it writes, and only with a packet group that passed its checks: a packet's CSI
is one row of a (capacity, A, M) buffer, zeros where an AP missed it, and each
AP has its own front row, horizon and running sum of x x^H, expired when read.
It estimates every AP due on a packet in one batch (:func:`estimate_aods`). On
arrays: one stacked product that updates all their sums, one ``eigh``, one grid
scan that also gives the first refinement round, the choice of minima, and each
later round's stencil and null powers. On plain floats: the minima's angles and
first scan values, and every round's parabola fits. :func:`estimate_paths` takes
one AP's records and sums X X^H afresh.
"""

from __future__ import annotations

import functools
import math
from array import array
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
        bound = math.pi / self.num_paths  # so the cyclic grid holds more than 2 * num_paths points
        if not 0 < self.grid_step < bound:
            raise ValueError(f"grid_step must be in (0, pi / num_paths) = (0, {bound:.6g}), "
                             f"not {self.grid_step!r}")
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


class WindowBuffer:
    """Every AP's sliding window of packets in one buffer, one row per packet.

    Only the tracker writes it: each row it takes with :meth:`row` it fills
    with a packet group that already passed its checks, then pushes. Row r
    holds packet r's (A, M) CSI, zeros where an AP missed the packet, and its
    A timestamps, -inf there. Each AP keeps its own front row, live count,
    horizon (that of the last packet it was in) and running sum of x x^H; a
    packet's row is written once and serves every AP. Rows expire per AP,
    when the buffer is read and before it moves (not on push), and stay in
    the buffer until the move, so :meth:`outer_sums` can subtract them. The
    buffer starts at 64 rows. When it fills, the rows some AP still holds
    move to a fresh buffer, twice as large only when they occupy more than
    half of the old one; a fresh buffer (rather than an in-place shift)
    leaves any view handed out earlier unchanged, the packets' rows too.
    Timestamps and horizons are flat ``array('d')`` buffers: contiguous like
    an ndarray, and read a value at a time faster than one.
    """

    def __init__(self, ap_ids, num_antennas: int):
        self.ap_ids = tuple(ap_ids)
        num_aps = len(self.ap_ids)
        self._csi = np.zeros((64, num_aps, num_antennas), dtype=complex)
        self._stamps = array("d")  # A per row
        self._packet_horizons = array("d")  # one per row
        self._seen = 0  # rows taken into the per-AP lists below
        self._starts = [0] * num_aps
        self._counts = [0] * num_aps
        self._horizons = [-math.inf] * num_aps
        self._changed = [0] * num_aps  # rows pushed or expired since the last sum
        self._slots = list(range(num_aps))
        self._sums = np.zeros((num_aps, num_antennas, num_antennas), dtype=complex)
        self._summed = [None] * num_aps  # the buffer rows (start, end) each sum covers
        self._taken = [0.0] * num_aps  # power subtracted since the sum was summed afresh

    def row(self) -> np.ndarray:
        """The next packet's (A, M) CSI row, all zeros: write each present AP's CSI
        into it, then :meth:`push` the packet."""
        if len(self._packet_horizons) == len(self._csi):
            self._move_live_rows()
        return self._csi[len(self._packet_horizons)]

    def push(self, timestamps, horizon: float) -> None:
        """Add the packet written into :meth:`row`, its A ``timestamps`` (-inf where
        absent); an AP's rows before its last packet's ``horizon`` (never
        decreasing) expire on the next read."""
        self._stamps.extend(timestamps)
        self._packet_horizons.append(horizon)

    def _move_live_rows(self) -> None:
        """Move the rows some AP holds to a fresh buffer, dropping the rest."""
        self._sync()
        end = len(self._packet_horizons)
        starts = [start if count else end for start, count in zip(self._starts, self._counts)]
        stamps = np.array(self._stamps).reshape(end, len(starts))
        held = (stamps > -math.inf) & (np.arange(end)[:, None] >= starts)
        kept = np.flatnonzero(held.any(axis=1))
        count = kept.size
        capacity = len(self._csi)
        if 2 * count > capacity:
            capacity *= 2
        csi = np.zeros((capacity,) + self._csi.shape[1:], dtype=complex)
        csi[:count] = self._csi[kept]
        self._csi = csi
        self._stamps = array("d", stamps[kept].tobytes())
        self._packet_horizons = array("d", np.array(self._packet_horizons)[kept].tobytes())
        self._starts = kept.searchsorted(starts).tolist()
        self._seen = count
        self._summed = [None] * len(starts)

    def _sync(self) -> None:
        """Count the rows pushed since the last read per AP, take each AP's horizon
        from its last packet, and expire each AP's front rows before its horizon."""
        seen, end = self._seen, len(self._packet_horizons)
        if seen == end:
            return
        stamps, counts, horizons = self._stamps, self._counts, self._horizons
        changed = self._changed
        num_aps = len(counts)
        pushed = stamps[seen * num_aps:end * num_aps]
        for a in range(num_aps):
            column = pushed[a::num_aps]
            held = len(column) - column.count(-math.inf)
            if held:
                counts[a] += held
                changed[a] += held
                last = len(column) - 1
                while column[last] == -math.inf:
                    last -= 1
                horizons[a] = self._packet_horizons[seen + last]
        self._seen = end
        starts, stop = self._starts, end * num_aps
        for a, horizon in enumerate(horizons):
            first = index = starts[a] * num_aps + a  # into the flat timestamps
            expired = 0
            while index < stop and (stamp := stamps[index]) < horizon:
                expired += stamp > -math.inf
                index += num_aps
            if index != first:
                starts[a] = index // num_aps
                counts[a] -= expired
                changed[a] += expired

    def counts(self) -> list:
        """Each AP's live packet count, in ``ap_ids`` order."""
        self._sync()
        return list(self._counts)

    def _products(self, slots, firsts, lasts) -> np.ndarray:
        """(D, M, M) sums of x x^H over buffer rows [firsts[d], lasts[d]) of AP
        ``slots[d]``: one stacked product over the rows of them all, in which rows
        outside an AP's own range weigh zero, as do the rows it was absent from."""
        low, high = min(firsts), max(lasts)
        rows = self._csi[low:high]
        if slots != self._slots:
            rows = rows[:, slots]
        if min(lasts) < high or max(firsts) > low:
            index = np.arange(low, high)[:, None]
            rows = np.where(((index >= firsts) & (index < lasts))[..., None], rows, 0)
        return rows.transpose(1, 2, 0) @ rows.conj().transpose(1, 0, 2)

    def outer_sums(self, slots):
        """The (D, M, M) sums of x x^H over the windows of APs ``slots`` (indices into
        ``ap_ids``), kept running between calls, and their live counts.

        Adds the rows pushed and subtracts the rows expired since an AP's last
        sum, for all the APs at once. An AP sums afresh on its first read, after
        the rows moved, when no fewer rows changed than are live, when the sum is
        not finite, and once the power subtracted since its last fresh sum
        exceeds its trace; those fresh sums are one stacked product too. The
        array returned is never changed afterwards. Powers are plain-float sums
        of real diagonals, ``trace().real`` bit for bit up to 3 antennas; from 4
        on numpy sums a trace pairwise, so a re-sum on a tie to the last bit may
        differ.
        """
        self._sync()
        starts, end = self._starts, len(self._packet_horizons)
        summed, taken = self._summed, self._taken
        grown, fresh = [], []
        for a in slots:
            (grown if summed[a] is not None and self._changed[a] < self._counts[a]
             else fresh).append(a)
        sums = self._sums.copy()  # replaced, never changed in place, so callers may keep it
        if grown:
            pushed = self._products(grown, [summed[a][1] for a in grown], [end] * len(grown))
            loss = self._products(grown, [summed[a][0] for a in grown],
                                  [starts[a] for a in grown])
            at = slice(None) if grown == self._slots else grown  # all APs: a cheaper slice
            sums[at] += pushed - loss
            traces = sums.real.diagonal(0, 1, 2).tolist()
            for a, lost in zip(grown, loss.real.diagonal(0, 1, 2).tolist()):
                taken[a] += sum(lost)
                if not taken[a] <= sum(traces[a]) < math.inf:
                    fresh.append(a)
        if fresh:
            sums[fresh] = self._products(fresh, [starts[a] for a in fresh], [end] * len(fresh))
            for a in fresh:
                taken[a] = 0.0
        for a in slots:
            summed[a], self._changed[a] = (starts[a], end), 0
        self._sums = sums
        return sums if slots == self._slots else sums[slots], [self._counts[a] for a in slots]

    def window(self, ap_id: str):
        """One AP's window: its timestamps, oldest first, and a read-only M x P view of
        its CSI, a column per packet it was in (a copy if it missed some)."""
        self._sync()
        a, num_aps = self.ap_ids.index(ap_id), len(self.ap_ids)
        start, end = self._starts[a], len(self._packet_horizons)
        stamps = np.array(self._stamps[start * num_aps + a:end * num_aps:num_aps])
        rows = self._csi[start:end, a]
        if self._counts[a] < end - start:
            held = stamps > -math.inf
            stamps, rows = stamps[held], rows[held]
        rows.flags.writeable = False
        return stamps, rows.T


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


def _refine_minima(adjoint, geometry, thetas, first, step, iterations) -> list:
    """Sharpen the A x L grid minima ``thetas`` (a flat list, AP by AP) in place by repeated
    3-point parabola fits, all at once; returns the list.

    Fits the null power (smooth and locally quadratic at a path direction,
    unlike the sharply-peaked reciprocal spectrum) over a stencil that shrinks
    each round, so the grid-step bias that would otherwise swamp
    millimeter-scale displacement phases is eliminated. Round 1 fits the grid-scan
    values ``first`` (a (lower, middle, upper) list per path); each later round builds
    its A x 3L stencil once, from the plain-float thetas, and evaluates it in one
    null-power call. A path stops for good where its parabola is not convex.
    """
    active, g, h = [True] * len(thetas), first, step
    for iteration in range(iterations):
        if iteration:
            stencil = np.add.outer(thetas, (-h, 0.0, h)).reshape(len(adjoint), -1)
            steering = steering_vectors(geometry, np.cos(stencil), np.sin(stencil))
            g = _null_power(adjoint, steering).reshape(-1, 3).tolist()
        for k, (lower, middle, upper) in enumerate(g):
            denom = lower - 2.0 * middle + upper
            active[k] = active[k] and denom > 0
            if active[k]:  # the vertex's offset, clipped to [-h, h] as min(max(., -h), h)
                offset = 0.5 * (lower - upper) / denom * h
                thetas[k] += -h if offset < -h else h if offset > h else offset
        if not any(active):
            break
        h /= 4.0
    return thetas


def estimate_aods(window, slots, geometry: ArrayGeometry, config: AodConfig):
    """Sorted AoDs (D, L) and ``degenerate`` flags (D,) of the APs ``slots`` (indices
    into ``window.ap_ids``) of a :class:`WindowBuffer` at once.

    Each AP is estimated from its running sum (:meth:`~WindowBuffer.outer_sums`).
    Per AP, picks the L deepest cyclic local minima of the null power
    (equivalently, the L largest spectrum peaks) and refines each by quadratic
    interpolation. If the spectrum exposes fewer than L local minima --
    typical for a stationary target, whose covariance degenerates to rank
    one -- the L smallest grid values are used instead and the AP is
    flagged ``degenerate``. Each step runs once for the batch; no AP's
    result depends on the others."""
    sums, lengths = window.outer_sums(slots)
    return _music_aods(sums, lengths, geometry, config)


def _music_aods(sums, lengths, geometry: ArrayGeometry, config: AodConfig):
    """:func:`estimate_aods` on (A, M, M) sums of x x^H over windows of ``lengths`` packets;
    minima come from the cyclic K-point grid, and grid k's first stencil is scan k..k+2."""
    _require_packets(min(lengths), config.min_packets)
    covariance = sums / np.array(lengths)[:, None, None]
    adjoint = _noise_subspaces(covariance, config.num_paths).conj().swapaxes(-1, -2)
    grid, grid_matrix = _build_grid_steering(geometry, config.grid_step)
    scan = _null_power(adjoint, grid_matrix)
    power = scan[:, 1:-1]  # grid k is scan k + 1; a minimum is below both cyclic neighbors
    wrapped = np.concatenate((power[:, -1:], power, power[:, :1]), axis=-1)
    minima = (power < wrapped[:, :-2]) & (power < wrapped[:, 2:])
    degenerate = minima.sum(axis=-1) < config.num_paths
    minima[degenerate] = True  # rank among all grid values instead
    starts = np.where(minima, power, np.inf).argsort(axis=-1)[:, : config.num_paths].tolist()
    first = [scan[a, k:k + 3].tolist() for a, row in enumerate(starts) for k in row]
    aods = _refine_minima(adjoint, geometry, [grid.item(k) for row in starts for k in row],
                          first, config.grid_step, config.refine_iterations)
    return np.sort(np.mod(aods, TWO_PI).reshape(len(starts), -1), axis=-1), degenerate


def estimate_paths(records, geometry: ArrayGeometry, config: AodConfig) -> PathSet:
    """Estimate the AoDs of ``config.num_paths`` paths from a window of one AP's records.

    This is :func:`estimate_aods` for a batch of one, on X X^H summed afresh
    over the records' CSI, one column per record.
    """
    records = list(records)
    _require_packets(len(records), config.min_packets)
    ap_id = records[0].ap_id
    if any(r.ap_id != ap_id for r in records):
        raise ValueError("window mixes records from different APs")
    X = np.array([r.csi for r in records]).T
    aods, degenerate = _music_aods(_fresh_sum(X)[None], [len(records)], geometry, config)
    return PathSet(ap_id, aods[0], steering_matrix(geometry, aods[0]),
                   geometry.wavelength, bool(degenerate[0]))
