"""End-to-end motion tracking over synchronized CSI streams.

Maintains a sliding window of recent packets per AP (a
:class:`~csitrack.aod.PacketWindow`) with a running sum of x x^H over it,
re-estimates the paths of every AP that is due on a packet in one batch
(:func:`~csitrack.aod.estimate_aods` on those sums, then
:func:`continuity_order` and one stacked factorization), projects each packet
pair onto the same paths, fuses the per-AP offset-cancelled rows into one
displacement per packet (one array kernel for all APs, see
:mod:`csitrack.displacement`) and integrates it from the origin. Samples whose
displacement is unobservable carry the previous position forward with a
quality flag, so the trajectory keeps a uniform timebase for evaluation.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .aod import AodConfig, PacketWindow, estimate_aods, window_sums
from .core import ArrayGeometry, Displacement, PathSet, Trajectory, circular_distance, steering_matrix
from .displacement import (
    A_CONDITION_LIMIT,
    R_CONDITION_LIMIT,
    WEAK_PATH_RTOL,
    displacement_rows,
    factor_steering,
    project,
    solve_displacement,
)
from .errors import (
    DegenerateGeometryError,
    InsufficientPathsError,
    StreamOrderError,
    UnobservableDisplacementError,
)

MODES = ("full", "assume-same-clock")
#: A running window sum is summed afresh once the power taken out exceeds this times its trace.
RESUM_RATIO = 1.0


@dataclass(frozen=True)
class TrackerConfig:
    """Tracking parameters on top of the AoD window settings."""

    aod: AodConfig = field(default_factory=AodConfig)
    stride: int = 1
    origin: tuple[float, float] = (0.0, 0.0)
    mode: str = "full"
    steering_condition_limit: float = A_CONDITION_LIMIT
    stacked_condition_limit: float = R_CONDITION_LIMIT
    weak_path_rtol: float = WEAK_PATH_RTOL

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if len(self.origin) != 2 or not all(math.isfinite(v) for v in self.origin):
            raise ValueError("origin must be a finite 2-vector")
        for name in ("steering_condition_limit", "stacked_condition_limit"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not 0 <= self.weak_path_rtol < math.inf:
            raise ValueError("weak_path_rtol must be finite and >= 0")


def continuity_order(previous: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Per row of the (A, L) AoDs ``current``, the column order that keeps
    each path the identity it had in ``previous``: the permutation of least
    total circular distance, by exhaustive assignment (path counts are
    small); of equal costs the first wins, the identity first."""
    paths = np.arange(current.shape[-1])
    perms = np.array(list(itertools.permutations(paths)))  # the identity first
    distance = circular_distance(previous[:, :, None], current[:, None, :])
    return perms[distance[:, paths, perms].sum(axis=-1).argmin(axis=-1)]


def path_continuity(previous: PathSet, current: PathSet) -> PathSet:
    """Permute ``current`` so each path keeps the identity it had before
    (:func:`continuity_order` for one AP) and the attenuation-change diagonal
    stays aligned across windows; ``current`` itself when no reordering wins."""
    if previous.ap_id != current.ap_id:
        raise ValueError("path sets belong to different APs")
    if previous.num_paths != current.num_paths:
        raise ValueError("path sets have different path counts")
    order = continuity_order(previous.aods[None], current.aods[None])[0]
    if np.array_equal(order, np.arange(current.num_paths)):
        return current
    return PathSet(current.ap_id, current.aods[order], current.steering_matrix[:, order],
                   current.wavelength, current.degenerate)


class Tracker:
    """Integrates per-packet displacements into a trajectory.

    Feed one group of time-aligned records per packet through
    :meth:`ingest`. No point is emitted until every AP that appears in the
    stream has ``min_packets`` in its window; from then on one point is
    appended per packet, dead-reckoned (position carried, flagged) whenever
    the displacement cannot be solved. An AP that never transmits, or that
    misses individual packets, is simply excluded from the affected updates.
    Each window's sum of x x^H is kept running from estimate to estimate and
    summed afresh wherever that could drift (rules at :meth:`_update_sums`).
    """

    def __init__(self, geometry: ArrayGeometry, ap_ids, config: TrackerConfig = None):
        self.geometry = geometry
        self.ap_ids = tuple(ap_ids)
        if len(set(self.ap_ids)) != len(self.ap_ids):
            raise ValueError("duplicate AP ids")
        self.config = config if config is not None else TrackerConfig()
        aod = self.config.aod
        if not aod.num_paths <= geometry.num_antennas - 1:
            raise ValueError("num_paths must be <= num_antennas - 1")
        self._windows = {ap: PacketWindow(ap, geometry.num_antennas) for ap in self.ap_ids}
        # row a of each per-AP array below belongs to ap_ids[a]
        num_aps, num_paths, num_antennas = len(self.ap_ids), aod.num_paths, geometry.num_antennas
        self._slots = {ap: slot for slot, ap in enumerate(self.ap_ids)}
        self._fill = np.zeros(num_aps, dtype=int)  # packets in each window
        # pushes since the last estimate; stride before the first, so it is due once warm
        self._since_estimate = np.full(num_aps, self.config.stride)
        self._aods = np.zeros((num_aps, num_paths))
        self._degenerate = np.zeros(num_aps, dtype=bool)
        self._pinv = np.zeros((num_aps, num_paths, num_antennas), dtype=complex)
        self._directions = np.zeros((num_aps, num_paths, 2))  # [cos, sin] of each AoD
        self._has_paths = np.zeros(num_aps, dtype=bool)
        self._sums = np.zeros((num_aps, num_antennas, num_antennas), dtype=complex)  # x x^H
        self._spans = [None] * num_aps  # the window span each sum covers
        self._expired = np.zeros(num_aps)  # power taken out since summed afresh
        self._usable = np.zeros(num_aps, dtype=bool)  # steering condition gate passed
        self._previous_csi = np.zeros((num_aps, num_antennas), dtype=complex)
        self._previous_present = np.zeros(num_aps, dtype=bool)
        self._previous_index = None
        self._previous_time = None
        self._started = False
        self._position = np.asarray(self.config.origin, dtype=float)
        self._positions = []
        self._times = []
        self.flags = []
        self.exclusions = Counter()

    # -- per-packet update ----------------------------------------------------

    def _update_sums(self, slots, windows) -> None:
        """Bring each due AP's sum of x x^H to its window: add the rows pushed and
        subtract those expired since its span. Sum afresh on a first estimate, after a
        buffer move, when no fewer rows changed than are live, when not finite, and once
        the power taken out since the last fresh sum exceeds RESUM_RATIO times the trace."""
        for slot, window in zip(slots, windows):
            old = self._spans[slot]
            moves, start, end = self._spans[slot] = window.span
            if old is None or old[0] != moves or start - old[1] + end - old[2] >= end - start:
                self._expired[slot] = np.inf  # nothing to update: sum afresh
            elif end > old[2]:
                pushed, expired = window.rows(old[2], end), window.rows(old[1], start)
                loss = expired.T @ expired.conj()
                self._sums[slot] += pushed.T @ pushed.conj() - loss
                self._expired[slot] += loss.trace().real
        kept = np.isfinite(self._sums.sum(axis=(1, 2))) & (
            self._expired <= RESUM_RATIO * self._sums.trace(axis1=1, axis2=2).real)
        stale = [slot for slot in slots if not kept[slot]]
        if stale:
            self._sums[stale] = window_sums([self._windows[self.ap_ids[slot]] for slot in stale])
            self._expired[stale] = 0.0

    def _update_paths(self) -> None:
        """Re-estimate the paths of every AP that is due as one batch and factor
        their steering matrices as one stack."""
        due = self._since_estimate >= self.config.stride
        if np.count_nonzero(due):  # once warm, one packet in stride: the fills only then
            due &= self._fill >= self.config.aod.min_packets
        if not np.count_nonzero(due):
            return
        slots = due.nonzero()[0].tolist()
        at = slots if len(slots) < len(due) else slice(None)  # all APs: a cheaper slice
        windows = [self._windows[self.ap_ids[slot]] for slot in slots]
        self._update_sums(slots, windows)
        aods, degenerate = estimate_aods(windows, self.geometry, self.config.aod,
                                         self._sums[at] / self._fill[at, None, None])
        # a first estimate follows itself, which keeps the estimator's order
        previous = np.where(self._has_paths[at, None], self._aods[at], aods)
        aods = aods[np.arange(len(slots))[:, None], continuity_order(previous, aods)]
        self._pinv[at], cond = factor_steering(steering_matrix(self.geometry, aods))
        self._usable[at] = cond < self.config.steering_condition_limit
        self._aods[at], self._degenerate[at] = aods, degenerate
        self._directions[at] = np.array([np.cos(aods), np.sin(aods)]).transpose(1, 2, 0)
        self._has_paths[at] = True
        self._since_estimate[at] = 0

    def ingest(self, records) -> Displacement | None:
        """Push one packet's records (mapping ap_id -> CsiRecord).

        Each group must carry a higher packet index and a later timestamp
        (the latest of its records) than the group before it, else
        :class:`StreamOrderError`; nothing of a rejected group is kept.
        Returns the accepted displacement, or None during warm-up and on
        dead-reckoned samples.
        """
        if not records:
            raise ValueError("records must not be empty")
        present = np.zeros(len(self.ap_ids), dtype=bool)
        csi = np.zeros(self._previous_csi.shape, dtype=complex)
        pushes, indices, now = [], set(), -math.inf
        for ap_id, record in records.items():
            slot = self._slots.get(ap_id)
            if slot is None:
                raise ValueError(f"unknown AP id {ap_id!r}")
            if record.ap_id != ap_id:
                raise ValueError(f"record for {record.ap_id!r} filed under {ap_id!r}")
            if record.csi.size != self.geometry.num_antennas:
                raise ValueError(f"record for {ap_id!r} holds {record.csi.size} CSI entries, "
                                 f"the array has {self.geometry.num_antennas} antennas")
            present[slot] = True
            csi[slot] = record.csi
            pushes.append((slot, record))
            indices.add(record.packet_index)
            now = max(now, record.timestamp)
        if len(indices) != 1:
            raise StreamOrderError(f"group mixes packet indices {sorted(indices)}")
        packet_index = indices.pop()
        if self._previous_index is not None and packet_index <= self._previous_index:
            raise StreamOrderError(f"packet {packet_index} after {self._previous_index}")
        if self._previous_time is not None and now <= self._previous_time:
            raise StreamOrderError(
                f"packet {packet_index} at t={now!r} does not follow t={self._previous_time!r}"
            )

        horizon = now - self.config.aod.window_seconds
        for slot, record in pushes:
            window = self._windows[record.ap_id]
            window.append(record.csi, record.timestamp)
            window.expire(horizon)
            self._fill[slot] = len(window)
        self._since_estimate += present
        self._update_paths()

        displacement = None
        if not self._started:
            if not ((self._fill > 0) & (self._fill < self.config.aod.min_packets)).any():
                self._started = True
                self._emit(now, "ok")
        else:
            displacement = self._pair_update(present, csi, now)

        self._previous_csi = csi
        self._previous_present = present
        self._previous_index = packet_index
        self._previous_time = now
        return displacement

    def _pair_update(self, present, csi, now):
        """Project both packets of the pair onto each AP's current paths in one
        product and solve every AP's rows together."""
        first, second = project(self._pinv, np.array([self._previous_csi, csi]))
        pairs = present & self._previous_present & self._has_paths
        active = pairs & self._usable
        rows, phases, short = displacement_rows(
            first[active], second[active], self._directions[active],
            self.geometry.wavelength, self.config.weak_path_rtol,
            same_clock=self.config.mode == "assume-same-clock",
        )
        for error, mask in ((DegenerateGeometryError, pairs & ~self._usable),
                            (InsufficientPathsError, short)):
            count = np.count_nonzero(mask)
            if count:
                self.exclusions[error.__name__] += count
        try:
            displacement = Displacement(
                solve_displacement(rows, phases, self.config.stacked_condition_limit))
        except UnobservableDisplacementError:
            self._emit(now, "dead-reckoned")
            return None
        self._position = self._position + displacement.delta
        self._emit(now, "ok")
        return displacement

    def _emit(self, timestamp, flag):
        self._positions.append(self._position.copy())
        self._times.append(timestamp)
        self.flags.append(flag)

    # -- results ---------------------------------------------------------------

    def consume(self, groups) -> Trajectory:
        """Ingest a sequence of packet groups and return the trajectory."""
        for group in groups:
            records = getattr(group, "records", group)
            present = {ap: r for ap, r in records.items() if r is not None}
            if present:
                self.ingest(present)
        return self.trajectory()

    def trajectory(self) -> Trajectory:
        if not self._positions:
            raise ValueError("tracker has not emitted any points yet")
        return Trajectory(np.array(self._positions), np.array(self._times))

    def flag_summary(self) -> dict:
        summary = dict(Counter(self.flags))
        summary.update({f"excluded:{k}": v for k, v in self.exclusions.items()})
        return summary

    @property
    def position(self) -> np.ndarray:
        return self._position.copy()

    @property
    def path_sets(self) -> dict:
        """Current PathSet per AP (None until the AP's window is warm)."""
        return {
            ap: PathSet(ap, self._aods[slot].copy(), steering_matrix(self.geometry, self._aods[slot]),
                        self.geometry.wavelength, bool(self._degenerate[slot]))
            if self._has_paths[slot] else None
            for slot, ap in enumerate(self.ap_ids)
        }
