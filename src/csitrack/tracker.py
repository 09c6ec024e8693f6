"""End-to-end motion tracking over synchronized CSI streams.

Maintains a sliding window of recent packets per AP (a
:class:`~csitrack.aod.PacketWindow`, which keeps a running sum of x x^H over
its packets), re-estimates the paths of every AP that is due on a packet in
one batch (:func:`~csitrack.aod.estimate_aods` on those sums, then
:func:`continuity_order` and one stacked factorization), projects each packet
once onto the paths, fuses the per-AP offset-cancelled rows of each packet
pair into one displacement (one array kernel for all APs, see
:mod:`csitrack.displacement`) and integrates it from the origin. The last
packet is kept as one record (CSI, APs present, path strengths), re-projected
only if the paths change; each selection's rows and factors last until the
next estimate. Samples whose displacement is unobservable carry the previous
position forward with a quality flag, so the trajectory keeps a uniform
timebase for evaluation.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .aod import AodConfig, PacketWindow, estimate_aods
from .core import ArrayGeometry, Displacement, PathSet, Trajectory, circular_distance, steering_matrix
from .displacement import (
    A_CONDITION_LIMIT,
    R_CONDITION_LIMIT,
    WEAK_PATH_RTOL,
    factor_rows,
    factor_steering,
    path_strengths,
    project,
    row_geometry,
    select_paths,
    solve_factored,
)
from .errors import (
    DegenerateGeometryError,
    InsufficientPathsError,
    StreamOrderError,
    UnobservableDisplacementError,
    WindowUnderfullError,
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


class Tracker:
    """Integrates per-packet displacements into a trajectory.

    Feed one group of time-aligned records per packet through
    :meth:`ingest`. No point is emitted until every AP that appears in the
    stream has ``min_packets`` in its window; from then on one point is
    appended per packet, dead-reckoned (position carried, flagged) whenever
    the displacement cannot be solved. An AP absent from a packet pair is left
    out of its update; if it has paths, it counts in ``exclusions["absent"]``.
    A packet whose update raises stays in the windows but pairs with nothing,
    so the next point is dead-reckoned with each AP that has paths absent.
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
        # pushes since the last estimate; stride before the first, so it is due once warm
        self._since_estimate = np.full(num_aps, self.config.stride)
        self._aods = np.zeros((num_aps, num_paths))
        self._degenerate = np.zeros(num_aps, dtype=bool)
        self._pinv = np.zeros((num_aps, num_paths, num_antennas), dtype=complex)
        self._directions = np.zeros((num_aps, num_paths, 2))  # [cos, sin] of each AoD
        self._has_paths = np.zeros(num_aps, dtype=bool)
        self._usable = np.zeros(num_aps, dtype=bool)  # steering condition gate passed
        # (keep, ref) pattern -> row index and SVD factors, or the
        # UnobservableDisplacementError they raise; valid until the next estimate
        self._plans = {}
        # the last whole packet, or after a raise one that holds no AP and so pairs with nothing
        self._unpaired = self._last = self._packet(
            np.zeros((num_aps, num_antennas), dtype=complex), np.zeros(num_aps, dtype=bool))
        self._previous_index = self._previous_time = -math.inf
        self._position = np.asarray(self.config.origin, dtype=float)
        self._positions = []
        self._times = []
        self.flags = []
        self.exclusions = Counter()

    # -- per-packet update ----------------------------------------------------

    def _packet(self, csi, present):
        """A packet's record: its CSI, the APs it holds and its path_strengths on the paths."""
        return csi, present, path_strengths(project(self._pinv, csi), self.config.weak_path_rtol)

    def _update_paths(self, last):
        """Re-estimate every due AP's paths as one batch; factor their steering
        matrices as one. Returns the record ``last``, re-projected if the paths changed."""
        due = self._since_estimate >= self.config.stride
        due &= [len(window) >= self.config.aod.min_packets for window in self._windows.values()]
        if not np.count_nonzero(due):
            return last
        slots = due.nonzero()[0].tolist()
        at = slots if len(slots) < len(due) else slice(None)  # all APs: a cheaper slice
        windows = [self._windows[self.ap_ids[slot]] for slot in slots]
        aods, degenerate = estimate_aods(windows, self.geometry, self.config.aod)
        # a first estimate follows itself, which keeps the estimator's order
        previous = np.where(self._has_paths[at, None], self._aods[at], aods)
        aods = aods[np.arange(len(slots))[:, None], continuity_order(previous, aods)]
        self._pinv[at], cond = factor_steering(steering_matrix(self.geometry, aods))
        self._usable[at] = cond < self.config.steering_condition_limit
        self._aods[at], self._degenerate[at] = aods, degenerate
        self._directions[at] = np.array([np.cos(aods), np.sin(aods)]).transpose(1, 2, 0)
        self._has_paths[at] = True
        self._since_estimate[at] = 0
        self._plans.clear()
        return self._packet(*last[:2])

    def ingest(self, records) -> Displacement | None:
        """Push one packet's records (mapping ap_id -> CsiRecord).

        Each group must carry a higher packet index and a later timestamp
        (the latest of its records) than the group before it, else
        :class:`StreamOrderError`; nothing of a group rejected by these checks
        is kept. A packet whose update raises stays in the windows but pairs
        with nothing, and sending it again is a :class:`StreamOrderError`.
        Returns the accepted displacement, or None during warm-up and on
        dead-reckoned samples.
        """
        if not records:
            raise ValueError("records must not be empty")
        present = np.zeros(len(self.ap_ids), dtype=bool)
        csi = np.zeros(self._unpaired[0].shape, dtype=complex)
        indices, now = set(), -math.inf
        for ap_id, record in records.items():
            slot = self._slots.get(ap_id)
            if slot is None:
                raise ValueError(f"unknown AP id {ap_id!r}")
            if record.ap_id != ap_id:
                raise ValueError(f"record for {record.ap_id!r} filed under {ap_id!r}")
            if record.csi.size != csi.shape[1]:
                raise ValueError(f"record for {ap_id!r} holds {record.csi.size} CSI entries, "
                                 f"the array has {csi.shape[1]} antennas")
            present[slot] = True
            csi[slot] = record.csi
            indices.add(record.packet_index)
            now = max(now, record.timestamp)
        if len(indices) != 1:
            raise StreamOrderError(f"group mixes packet indices {sorted(indices)}")
        packet_index = indices.pop()
        if packet_index <= self._previous_index:
            raise StreamOrderError(f"packet {packet_index} after {self._previous_index}")
        if now <= self._previous_time:
            raise StreamOrderError(f"packet {packet_index} at t={now!r} does not follow "
                                   f"t={self._previous_time!r}")

        # the windows take the packet; it is the last whole packet only once it completes
        last, self._last = self._last, self._unpaired
        self._previous_index, self._previous_time = packet_index, now
        horizon = now - self.config.aod.window_seconds
        for record in records.values():
            window = self._windows[record.ap_id]
            window.append(record.csi, record.timestamp)
            window.expire(horizon)
        self._since_estimate += present
        if np.count_nonzero(self._since_estimate >= self.config.stride):  # once warm, 1 in stride
            last = self._update_paths(last)
        packet = self._packet(csi, present)

        displacement = None
        if self.flags:  # started: one point per packet from the first on
            displacement = self._pair_update(last, packet, now)
        elif not any(0 < len(w) < self.config.aod.min_packets for w in self._windows.values()):
            self._emit(now, "ok")
        self._last = packet
        return displacement

    def _pair_update(self, last, packet, now):
        """Select every AP's paths for the records ``last`` and ``packet`` and
        solve their rows together; count each AP with paths that gives no row."""
        (_, last_present, first), (_, present, second) = last, packet
        pairs = last_present & present & self._has_paths
        active = pairs & self._usable
        same_clock = self.config.mode == "assume-same-clock"
        keep, ref, short, change = select_paths(first, second, same_clock, active)
        num_pairs, num_active = np.count_nonzero(pairs), np.count_nonzero(active)
        for reason, count in (("absent", np.count_nonzero(self._has_paths) - num_pairs),
                              (DegenerateGeometryError.__name__, num_pairs - num_active),
                              (InsufficientPathsError.__name__, np.count_nonzero(short))):
            if count:
                self.exclusions[reason] += int(count)  # JSON-ready counts
        key = (keep.tobytes(), None if same_clock else ref.tobytes())
        plan = self._plans.get(key)
        if plan is None:
            rows, index = row_geometry(self._directions, keep, ref, self.geometry.wavelength)
            try:
                plan = index, factor_rows(rows, self.config.stacked_condition_limit)
            except UnobservableDisplacementError as error:
                plan = error.with_traceback(None)  # keeps no frame alive
            self._plans[key] = plan
        if isinstance(plan, UnobservableDisplacementError):
            self._emit(now, "dead-reckoned")
            return None
        index, factors = plan
        change = change[index]
        displacement = Displacement(solve_factored(factors, np.arctan2(change.imag, change.real)))
        self._position = self._position + displacement.delta
        self._emit(now, "ok")
        return displacement

    def _emit(self, timestamp, flag):
        self._positions.append(self._position)  # replaced, never changed in place
        self._times.append(timestamp)
        self.flags.append(flag)

    # -- results ---------------------------------------------------------------

    def consume(self, groups) -> Trajectory:
        """:meth:`ingest` each PacketGroup (or mapping ap_id -> CsiRecord) and return the
        trajectory; :class:`WindowUnderfullError` if they end before the first point."""
        seen = 0
        for seen, group in enumerate(groups, start=1):
            self.ingest(getattr(group, "records", group))
        if not self.flags:
            raise WindowUnderfullError(f"the stream ends after {seen} packets, before every AP "
                                       f"holds min_packets={self.config.aod.min_packets}")
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
