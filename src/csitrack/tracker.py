"""End-to-end motion tracking over synchronized CSI streams.

Maintains a sliding window of recent packets per AP (a
:class:`~csitrack.aod.PacketWindow`), re-estimates each AP's paths from its
window, projects consecutive packet pairs onto the same PathSet, fuses the
per-AP offset-cancelled rows into one displacement per packet and integrates
the result from the origin. Samples whose displacement is unobservable carry
the previous position forward with a quality flag, so the trajectory keeps a
uniform timebase for evaluation.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .aod import AodConfig, PacketWindow, estimate_paths
from .core import CsiRecord, ArrayGeometry, Displacement, PathSet, Trajectory, circular_distance
from .displacement import (
    A_CONDITION_LIMIT,
    R_CONDITION_LIMIT,
    WEAK_PATH_RTOL,
    displacement_rows,
    estimate_displacement,
    path_weights,
    same_clock_rows,
)
from .errors import (
    DegenerateGeometryError,
    InsufficientPathsError,
    StreamOrderError,
    UnobservableDisplacementError,
    WeakPathError,
)

MODES = ("full", "assume-same-clock")


@dataclass(frozen=True)
class TrackerConfig:
    """Tracking parameters on top of the AoD window settings."""

    aod: AodConfig = field(default_factory=AodConfig)
    stride: int = 1
    origin: tuple = (0.0, 0.0)
    mode: str = "full"
    steering_condition_limit: float = A_CONDITION_LIMIT
    stacked_condition_limit: float = R_CONDITION_LIMIT
    weak_path_rtol: float = WEAK_PATH_RTOL

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if len(self.origin) != 2:
            raise ValueError("origin must be a 2-vector")


def path_continuity(previous: PathSet, current: PathSet) -> PathSet:
    """Permute ``current`` so each path keeps the identity it had before.

    Minimizes the total circular angular distance to the previous AoDs by
    exhaustive assignment (path counts are small), so the attenuation-change
    diagonal stays aligned across re-estimated windows.
    """
    if previous.ap_id != current.ap_id:
        raise ValueError("path sets belong to different APs")
    if previous.num_paths != current.num_paths:
        raise ValueError("path sets have different path counts")
    best_perm = None
    best_cost = np.inf
    for perm in itertools.permutations(range(current.num_paths)):
        perm = np.array(perm)
        cost = np.sum(circular_distance(previous.aods, current.aods[perm]))
        if cost < best_cost:
            best_cost = cost
            best_perm = perm
    return PathSet(
        ap_id=current.ap_id,
        aods=current.aods[best_perm],
        steering_matrix=current.steering_matrix[:, best_perm],
        wavelength=current.wavelength,
        degenerate=current.degenerate,
    )


class Tracker:
    """Integrates per-packet displacements into a trajectory.

    Feed one group of time-aligned records per packet through
    :meth:`ingest`. No point is emitted until every AP that appears in the
    stream has ``min_packets`` in its window; from then on one point is
    appended per packet, dead-reckoned (position carried, flagged) whenever
    the displacement cannot be solved. An AP that never transmits, or that
    misses individual packets, is simply excluded from the affected updates.
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
        self._row_builder = (
            displacement_rows if self.config.mode == "full" else same_clock_rows
        )
        self._windows = {ap: PacketWindow(ap, geometry.num_antennas) for ap in self.ap_ids}
        self._paths = {ap: None for ap in self.ap_ids}
        self._since_estimate = {ap: 0 for ap in self.ap_ids}
        self._previous = {}
        self._previous_index = None
        self._previous_time = None
        self._started = False
        self._position = np.asarray(self.config.origin, dtype=float)
        self._positions = []
        self._times = []
        self.flags = []
        self.exclusions = Counter()

    # -- stream maintenance -------------------------------------------------

    def _push(self, ap_id, record, now):
        window = self._windows[ap_id]
        window.append(record.csi, record.timestamp)
        window.expire(now - self.config.aod.window_seconds)
        self._since_estimate[ap_id] += 1

    def _update_paths(self, ap_id):
        window = self._windows[ap_id]
        if len(window) < self.config.aod.min_packets:
            return
        stale = self._paths[ap_id] is None
        if not stale and self._since_estimate[ap_id] < self.config.stride:
            return
        estimated = estimate_paths(window, self.geometry, self.config.aod)
        previous = self._paths[ap_id]
        if previous is not None:
            estimated = path_continuity(previous, estimated)
        self._paths[ap_id] = estimated
        self._since_estimate[ap_id] = 0

    # -- per-packet update ----------------------------------------------------

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
        for ap_id, record in records.items():
            if ap_id not in self._windows:
                raise ValueError(f"unknown AP id {ap_id!r}")
            if record.ap_id != ap_id:
                raise ValueError(f"record for {record.ap_id!r} filed under {ap_id!r}")
            if record.csi.size != self.geometry.num_antennas:
                raise ValueError(
                    f"record for {ap_id!r} holds {record.csi.size} CSI entries, "
                    f"the array has {self.geometry.num_antennas} antennas"
                )
        indices = {r.packet_index for r in records.values()}
        if len(indices) != 1:
            raise StreamOrderError(f"group mixes packet indices {sorted(indices)}")
        packet_index = indices.pop()
        if self._previous_index is not None and packet_index <= self._previous_index:
            raise StreamOrderError(
                f"packet {packet_index} after {self._previous_index}"
            )
        now = max(r.timestamp for r in records.values())
        if self._previous_time is not None and now <= self._previous_time:
            raise StreamOrderError(
                f"packet {packet_index} at t={now!r} does not follow t={self._previous_time!r}"
            )

        for ap_id, record in records.items():
            self._push(ap_id, record, now)
        for ap_id in self.ap_ids:
            self._update_paths(ap_id)

        displacement = None
        if not self._started:
            active = [ap for ap in self.ap_ids if self._windows[ap]]
            if active and all(
                len(self._windows[ap]) >= self.config.aod.min_packets for ap in active
            ):
                self._started = True
                self._emit(now, "ok")
        else:
            displacement = self._pair_update(records, now)

        self._previous = dict(records)
        self._previous_index = packet_index
        self._previous_time = now
        return displacement

    def _pair_update(self, records, now):
        per_ap_rows = []
        for ap_id in self.ap_ids:
            previous = self._previous.get(ap_id)
            current = records.get(ap_id)
            paths = self._paths[ap_id]
            if previous is None or current is None or paths is None:
                continue
            try:
                w1 = path_weights(previous.csi, paths, previous.packet_index,
                                  self.config.steering_condition_limit)
                w2 = path_weights(current.csi, paths, current.packet_index,
                                  self.config.steering_condition_limit)
                per_ap_rows.append(
                    self._row_builder(paths, w1, w2, self.config.weak_path_rtol)
                )
            except (DegenerateGeometryError, WeakPathError, InsufficientPathsError) as exc:
                self.exclusions[type(exc).__name__] += 1
        try:
            displacement = estimate_displacement(
                per_ap_rows, self.config.stacked_condition_limit
            )
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
        return dict(self._paths)
