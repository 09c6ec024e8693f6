"""End-to-end motion tracking over synchronized CSI streams.

Maintains a sliding window of recent packets per AP (a
:class:`~csitrack.aod.PacketWindow`), re-estimates each AP's paths from its
window, projects consecutive packet pairs onto the same PathSet, fuses the
per-AP offset-cancelled rows into one displacement per packet (one array
kernel for all APs, see :mod:`csitrack.displacement`) and integrates
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
    factor_steering,
    project,
)
from .errors import (
    DegenerateGeometryError,
    InsufficientPathsError,
    StreamOrderError,
    UnobservableDisplacementError,
)

MODES = ("full", "assume-same-clock")


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
        if len(self.origin) != 2:
            raise ValueError("origin must be a 2-vector")


def path_continuity(previous: PathSet, current: PathSet) -> PathSet:
    """Permute ``current`` so each path keeps the identity it had before.

    Minimizes the total circular angular distance to the previous AoDs by
    exhaustive assignment over one L x L distance matrix (path counts are
    small), so the attenuation-change diagonal stays aligned across
    re-estimated windows. Returns ``current`` itself when no reordering wins.
    """
    if previous.ap_id != current.ap_id:
        raise ValueError("path sets belong to different APs")
    if previous.num_paths != current.num_paths:
        raise ValueError("path sets have different path counts")
    distance = circular_distance(previous.aods[:, None], current.aods[None, :])
    paths = list(range(current.num_paths))
    perms = list(itertools.permutations(paths))  # the identity first
    best = distance[paths, perms].sum(axis=1).argmin()  # the first of equal costs
    if best == 0:
        return current
    best_perm = list(perms[best])
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
        self._windows = {ap: PacketWindow(ap, geometry.num_antennas) for ap in self.ap_ids}
        self._paths = {ap: None for ap in self.ap_ids}
        self._since_estimate = {ap: 0 for ap in self.ap_ids}
        # row a of each per-AP array below belongs to ap_ids[a]
        num_aps, num_paths, num_antennas = len(self.ap_ids), aod.num_paths, geometry.num_antennas
        self._slots = {ap: slot for slot, ap in enumerate(self.ap_ids)}
        self._pinv = np.zeros((num_aps, num_paths, num_antennas), dtype=complex)
        self._directions = np.zeros((num_aps, num_paths, 2))  # [cos, sin] of each AoD
        self._has_paths = np.zeros(num_aps, dtype=bool)
        self._usable = np.zeros(num_aps, dtype=bool)  # steering condition gate passed
        self._previous_csi = np.zeros((num_aps, num_antennas), dtype=complex)
        self._previous_present = np.zeros(num_aps, dtype=bool)
        self._weights = np.zeros((num_aps, num_paths), dtype=complex)  # the previous packet's
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

    def _update_paths(self, ap_id) -> bool:
        """Re-estimate the AP's paths if due and factor their steering matrix;
        True when the path set changed."""
        window = self._windows[ap_id]
        if len(window) < self.config.aod.min_packets:
            return False
        stale = self._paths[ap_id] is None
        if not stale and self._since_estimate[ap_id] < self.config.stride:
            return False
        estimated = estimate_paths(window, self.geometry, self.config.aod)
        previous = self._paths[ap_id]
        if previous is not None:
            estimated = path_continuity(previous, estimated)
        self._paths[ap_id] = estimated
        self._since_estimate[ap_id] = 0
        slot = self._slots[ap_id]
        self._pinv[slot], cond = factor_steering(estimated.steering_matrix)
        self._usable[slot] = cond < self.config.steering_condition_limit
        self._directions[slot] = np.column_stack([np.cos(estimated.aods), np.sin(estimated.aods)])
        self._has_paths[slot] = True
        return True

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

        present = np.zeros(len(self.ap_ids), dtype=bool)
        csi = np.zeros(self._previous_csi.shape, dtype=complex)
        for ap_id, record in records.items():
            slot = self._slots[ap_id]
            present[slot] = True
            csi[slot] = record.csi
            self._push(ap_id, record, now)
        changed = np.array([self._update_paths(ap_id) for ap_id in self.ap_ids])
        # project this packet once; the next packet reuses these weights for
        # every AP whose paths do not change in between
        weights = project(self._pinv, csi)

        displacement = None
        if not self._started:
            active = [ap for ap in self.ap_ids if self._windows[ap]]
            if active and all(
                len(self._windows[ap]) >= self.config.aod.min_packets for ap in active
            ):
                self._started = True
                self._emit(now, "ok")
        else:
            displacement = self._pair_update(present, changed, weights, now)

        self._weights = weights
        self._previous_csi = csi
        self._previous_present = present
        self._previous_index = packet_index
        self._previous_time = now
        return displacement

    def _pair_update(self, present, changed, weights, now):
        """Solve every AP's rows together; the previous packet is re-projected
        only where the paths changed since it was projected."""
        if changed.any():
            self._weights[changed] = project(self._pinv[changed], self._previous_csi[changed])
        pairs = present & self._previous_present & self._has_paths
        active = pairs & self._usable
        rows, phases, short = displacement_rows(
            self._weights[active], weights[active], self._directions[active],
            self.geometry.wavelength, self.config.weak_path_rtol,
            same_clock=self.config.mode == "assume-same-clock",
        )
        for error, mask in ((DegenerateGeometryError, pairs & ~self._usable),
                            (InsufficientPathsError, short)):
            count = np.count_nonzero(mask)
            if count:
                self.exclusions[error.__name__] += count
        try:
            displacement = estimate_displacement(
                [(rows, phases)], self.config.stacked_condition_limit
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
