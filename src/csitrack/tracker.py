"""End-to-end motion tracking over synchronized CSI streams.

Keeps every AP's sliding window of recent packets in one :class:`~csitrack.aod.WindowBuffer`,
which only the tracker writes. One pass over a packet group checks it (APs, CSI sizes, packet
index, time) and collects its rows; only then is its CSI written once, into a buffer row that
is also the CSI it is projected from. A packet on which APs are due re-estimates their paths
in one batch (:func:`~csitrack.aod.estimate_aods`), orders them by :func:`continuity_order`,
factors their steering matrices in one SVD and projects the last packet and itself as one
(2, A, M) stack. Any other packet pays for its checks, its row write, one projection, one
selection pass over its pair's APs and one solve of their offset-cancelled rows (see
:mod:`csitrack.displacement`), integrated from the origin. Arrays: the window and its sums,
the estimator, the steering matrices, their pseudo-inverses and the projections. Plain
floats: each AP's AoDs once estimated, their continuity order, the path directions in the
form :func:`~csitrack.displacement.plan_rows` reads, the path strengths of the last packet
(one record: CSI, APs present, strengths), the selection and the position. A plan key's
least-squares matrix lasts until the next estimate, and until then or a presence change so do
the pair's active APs and exclusion counts. Samples whose displacement is unobservable carry
the previous position forward with a quality flag, so the trajectory keeps a uniform timebase.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .aod import AodConfig, WindowBuffer, estimate_aods
from .core import (TWO_PI, ArrayGeometry, Displacement, PathSet, Trajectory, check_ap_ids,
                   check_finite, check_integer, steering_matrix, steering_vectors)
from .displacement import (A_CONDITION_LIMIT, R_CONDITION_LIMIT, WEAK_PATH_RTOL, factor_rows,
                           factor_steering, path_strengths, plan_rows, project, select_rows)
from .errors import (DegenerateGeometryError, InsufficientPathsError, StreamOrderError,
                     UnobservableDisplacementError, WindowUnderfullError)

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
        check_integer("stride", self.stride, 1)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if len(self.origin) != 2 or not all(math.isfinite(v) for v in self.origin):
            raise ValueError("origin must be a finite 2-vector")
        for name in ("steering_condition_limit", "stacked_condition_limit"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        check_finite("weak_path_rtol", self.weak_path_rtol, 0.0)


@functools.cache
def _permutations(count: int) -> tuple:  # the identity first, built once per path count
    return tuple(itertools.permutations(range(count)))


def continuity_order(previous, current) -> list:
    """Per row of the A rows of L AoDs ``current`` (plain floats), the column order (a tuple)
    that keeps each path the identity it had in ``previous``: the permutation of least total
    circular distance, by exhaustive assignment (path counts are small); of equal costs the
    first wins, the identity first. A cost is a left fold, numpy's sum bit for bit for L < 8."""
    perms, orders = _permutations(len(current[0])), []
    for before, after in zip(previous, current):
        distance = []  # [i][j]: from path i of previous to column j of current
        for b in before:
            row = []
            for a in after:
                d = (b - a) % TWO_PI
                row.append(d if d < TWO_PI - d else TWO_PI - d)
            distance.append(row)
        best = None
        for perm in perms:
            cost = 0.0
            for row, k in zip(distance, perm):
                cost += row[k]
            if best is None or cost < best:
                best, order = cost, perm
        orders.append(order)
    return orders


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
    ``ap_ids`` that a trace's ``#aps`` cannot hold (see ``check_ap_ids``) raise ValueError.
    The track is kept as flat floats (the position two floats, the points two ``array('d')``
    buffers); :meth:`trajectory` and :attr:`position` return fresh copies.
    """

    def __init__(self, geometry: ArrayGeometry, ap_ids, config: TrackerConfig = None):
        self.geometry = geometry
        self.ap_ids = check_ap_ids(ap_ids)
        self.config = config if config is not None else TrackerConfig()
        aod = self.config.aod
        if not aod.num_paths <= geometry.num_antennas - 1:
            raise ValueError("num_paths must be <= num_antennas - 1")
        self._window = WindowBuffer(self.ap_ids, geometry.num_antennas)
        # row a of each per-AP array below belongs to ap_ids[a]
        num_aps, num_paths, num_antennas = len(self.ap_ids), aod.num_paths, geometry.num_antennas
        self._slots = {ap: slot for slot, ap in enumerate(self.ap_ids)}
        # pushes since the last estimate; stride before the first, so it is due once warm
        self._since_estimate = [self.config.stride] * num_aps
        self._aods = [[0.0] * num_paths for _ in range(num_aps)]
        self._degenerate = [False] * num_aps
        self._pinv = np.zeros((num_aps, num_paths, num_antennas), dtype=complex)
        self._directions = [[[1.0, 0.0]] * num_paths for _ in range(num_aps)]  # [cos, sin] per AoD
        self._has_paths = [False] * num_aps
        self._usable = [False] * num_aps  # steering condition gate passed
        # until the next estimate: plan key -> least-squares matrix (None if unobservable), and
        # the active APs and exclusion counts of one (previous presence, presence)
        self._plans, self._presence, self._active, self._excluded = {}, None, None, None
        self._same_clock = self.config.mode == "assume-same-clock"
        # the last whole packet, or after a raise one that holds no AP and so pairs with nothing
        self._unpaired = self._last = self._packet(
            np.zeros((num_aps, num_antennas), dtype=complex), [False] * num_aps)
        self._previous_index = self._previous_time = -math.inf
        self._x, self._y = map(float, self.config.origin)  # the position, as plain floats
        self._points, self._times = array("d"), array("d")  # x0 y0 x1 y1 ..., t0 t1 ...
        self.flags = []
        self.exclusions = Counter()

    # -- per-packet update ----------------------------------------------------

    def _packet(self, csi, present):
        """A packet's record: its CSI, the APs it holds (bools) and its path_strengths (lists)."""
        return csi, present, *path_strengths(project(self._pinv, csi), self.config.weak_path_rtol)

    def _packets(self, last, csi, present):
        """The record ``last`` and this packet's, on new paths: projected as one (2, A, M) stack."""
        strengths = path_strengths(project(self._pinv, np.array([last[0], csi])),
                                   self.config.weak_path_rtol)
        return [(row, held, *strength)
                for row, held, strength in zip((last[0], csi), (last[1], present), zip(*strengths))]

    def _update_paths(self) -> bool:
        """Re-estimate every due AP's paths as one batch and factor their steering matrices
        as one; whether any AP was due."""
        stride, min_packets = self.config.stride, self.config.aod.min_packets
        slots = [slot for slot, count in enumerate(self._window.counts())
                 if self._since_estimate[slot] >= stride and count >= min_packets]
        if not slots:
            return False
        aods, degenerate = estimate_aods(self._window, slots, self.geometry, self.config.aod)
        aods = aods.tolist()
        # a first estimate follows itself, which keeps the estimator's order
        previous = [self._aods[s] if self._has_paths[s] else row for s, row in zip(slots, aods)]
        aods = [[row[k] for k in order] for row, order in zip(aods, continuity_order(previous, aods))]
        cos, sin = np.cos(aods), np.sin(aods)
        at = slots if len(slots) < len(self.ap_ids) else slice(None)  # all APs: a cheaper slice
        self._pinv[at], cond = factor_steering(steering_vectors(self.geometry, cos, sin))
        directions = np.array([cos, sin]).transpose(1, 2, 0).tolist()
        usable = (cond < self.config.steering_condition_limit).tolist()
        for slot, row, flag, paths, ok in zip(slots, aods, degenerate.tolist(), directions, usable):
            self._aods[slot], self._degenerate[slot], self._directions[slot] = row, flag, paths
            self._usable[slot], self._has_paths[slot], self._since_estimate[slot] = ok, True, 0
        self._plans, self._presence = {}, None
        return True

    def ingest(self, records) -> Displacement | None:
        """Push one packet's records (mapping ap_id -> CsiRecord).

        Each group must carry a higher packet index and a later timestamp
        (the latest of its records) than the group before it, else
        :class:`StreamOrderError`. Every check (APs, CSI sizes, packet index,
        time) runs before the group touches the window, so nothing of a
        rejected group is kept. A packet whose update raises stays in the
        windows but pairs with nothing, and sending it again is a
        :class:`StreamOrderError`. Returns the accepted displacement, or None
        during warm-up and on dead-reckoned samples.
        """
        if not records:
            raise ValueError("records must not be empty")
        num_antennas, since = self.geometry.num_antennas, self._since_estimate
        present = [False] * len(self.ap_ids)
        stamps = [-math.inf] * len(self.ap_ids)
        rows, indices, now = [], set(), -math.inf
        for ap_id, record in records.items():  # every check, before the window is written
            slot = self._slots.get(ap_id)
            if slot is None:
                raise ValueError(f"unknown AP id {ap_id!r}")
            if record.ap_id != ap_id:
                raise ValueError(f"record for {record.ap_id!r} filed under {ap_id!r}")
            if record.csi.size != num_antennas:
                raise ValueError(f"record for {ap_id!r} holds {record.csi.size} CSI entries, "
                                 f"the array has {num_antennas} antennas")
            present[slot] = True
            stamps[slot] = timestamp = record.timestamp
            indices.add(record.packet_index)
            now = timestamp if timestamp > now else now  # the first of equal maxima, as max()
            rows.append((slot, record.csi))
        if len(indices) != 1:
            raise StreamOrderError(f"group mixes packet indices {sorted(indices)}")
        packet_index = indices.pop()
        if packet_index <= self._previous_index:
            raise StreamOrderError(f"packet {packet_index} after {self._previous_index}")
        if now <= self._previous_time:
            raise StreamOrderError(f"packet {packet_index} at t={now!r} does not follow "
                                   f"t={self._previous_time!r}")

        # the window takes the packet, its CSI written once into the row it is projected from;
        # it is the last whole packet only once it completes
        csi = self._window.row()
        for slot, record_csi in rows:
            csi[slot] = record_csi
            since[slot] += 1
        last, self._last = self._last, self._unpaired
        self._previous_index, self._previous_time = packet_index, now
        self._window.push(stamps, now - self.config.aod.window_seconds)
        if max(since) >= self.config.stride and self._update_paths():  # once warm, 1 in stride
            last, packet = self._packets(last, csi, present)
        else:
            packet = self._packet(csi, present)

        displacement = None
        if self.flags:  # started: one point per packet from the first on
            displacement = self._pair_update(last, packet, now)
        elif not any(0 < count < self.config.aod.min_packets for count in self._window.counts()):
            self._emit(now, "ok")
        self._last = packet
        return displacement

    def _pair_update(self, last, packet, now):
        """Select every AP's paths for the records ``last`` and ``packet`` and
        solve their rows together; count each AP with paths that gives no row."""
        (_, last_present, *first), (_, present, *second) = last, packet
        presence = last_present, present
        if presence != self._presence:  # a raise pairs the next packet with no AP: a change
            pairs = [p and q and h for p, q, h in zip(last_present, present, self._has_paths)]
            active = [p and usable for p, usable in zip(pairs, self._usable)]
            excluded = (("absent", sum(self._has_paths) - sum(pairs)),
                        (DegenerateGeometryError.__name__, sum(pairs) - sum(active)))
            self._presence, self._active = presence, active
            self._excluded = [(reason, count) for reason, count in excluded if count]
        key, short, turns = select_rows(first, second, self._same_clock, self._active)
        for reason, count in self._excluded:
            self.exclusions[reason] += count
        if short:
            self.exclusions[InsufficientPathsError.__name__] += short
        plan = self._plans.get(key, False)  # False: not planned yet
        if plan is False:
            rows = plan_rows(self._directions, key, self.geometry.wavelength)
            try:
                plan = factor_rows(rows, self.config.stacked_condition_limit)
            except UnobservableDisplacementError:
                plan = None
            self._plans[key] = plan
        if plan is None:
            self._emit(now, "dead-reckoned")
            return None
        delta = plan @ turns
        dx, dy = delta.tolist()  # a float add is numpy's float64 add
        if not (math.isfinite(dx) and math.isfinite(dy)):
            raise ValueError("delta must be finite")
        displacement = object.__new__(Displacement)  # what Displacement(delta) checks, checked
        object.__setattr__(displacement, "delta", delta)
        self._x, self._y = self._x + dx, self._y + dy
        self._emit(now, "ok")
        return displacement

    def _emit(self, timestamp, flag):
        self._points.extend((self._x, self._y))
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
        if not self._times:
            raise ValueError("tracker has not emitted any points yet")
        return Trajectory(np.array(self._points).reshape(-1, 2), np.array(self._times))

    def flag_summary(self) -> dict:
        summary = dict(Counter(self.flags))
        summary.update({f"excluded:{k}": v for k, v in self.exclusions.items()})
        return summary

    @property
    def position(self) -> np.ndarray:
        return np.array([self._x, self._y])

    @property
    def path_sets(self) -> dict:
        """Current PathSet per AP (None until the AP's window is warm)."""
        return {ap: PathSet(ap, np.array(self._aods[slot]),
                            steering_matrix(self.geometry, self._aods[slot]),
                            self.geometry.wavelength, self._degenerate[slot])
                if self._has_paths[slot] else None for slot, ap in enumerate(self.ap_ids)}
