"""Quality metrics: stationary jitter, aligned trajectory error, AoD error.

Estimated and ground-truth trajectories come from systems with unrelated
coordinate frames, so before differencing them both are translated to start
at the origin and the estimate is rotated (never scaled or mirrored) to
minimize the RMSE against the truth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .aod import AodConfig, estimate_paths
from .core import ArrayGeometry, Trajectory, circular_distance, resample_positions
from .errors import WindowUnderfullError


def jitter(trajectory: Trajectory) -> float:
    """Spread of positions about their centroid: sqrt(mean ||p_i - mean||^2).

    The precision metric for a stationary target.
    """
    if len(trajectory) < 2:
        raise ValueError("jitter needs at least 2 points")
    centered = trajectory.positions - trajectory.positions.mean(axis=0)
    return float(np.sqrt(np.mean(np.sum(centered**2, axis=1))))


@dataclass(frozen=True)
class AlignedError:
    """Per-point position errors after translate+rotate alignment, and the aligned estimate."""

    errors: np.ndarray
    rotation: float
    aligned: Trajectory | None = None

    def __post_init__(self):
        errors = np.asarray(self.errors, dtype=float)
        if np.any(errors < 0):
            raise ValueError("errors must be non-negative")
        object.__setattr__(self, "errors", errors)

    @property
    def median(self) -> float:
        return float(np.median(self.errors))


def rotation_matrix(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def fit_rotation(source: np.ndarray, target: np.ndarray) -> float:
    """Angle of the pure rotation minimizing ||R(angle) source - target||.

    Closed form of the 2D orthogonal Procrustes problem restricted to
    determinant +1 (rotation only, no reflection).
    """
    cross = np.sum(source[:, 0] * target[:, 1] - source[:, 1] * target[:, 0])
    dot = np.sum(source * target)
    return float(np.arctan2(cross, dot))


def align(estimate: Trajectory, truth: Trajectory) -> AlignedError:
    """Point-by-point error after shift-and-rotate (never scale) alignment.

    The truth is resampled onto the estimate's timestamps (on an equal
    timebase that returns its positions exactly), both are shifted to start
    at the origin, and the estimate is rotated by the RMSE-minimizing angle.
    An estimate that starts or ends more than 1e-9 s outside the truth's
    time range raises ValueError rather than being compared with a clamped truth.
    """
    if len(estimate) < 2 or len(truth) < 2:
        raise ValueError("alignment needs at least 2 points per trajectory")
    start, end = estimate.timestamps[[0, -1]]
    if start < truth.timestamps[0] - 1e-9 or end > truth.timestamps[-1] + 1e-9:
        raise ValueError(f"estimate spans {start:g}..{end:g} s, outside the truth's "
                         f"{truth.timestamps[0]:g}..{truth.timestamps[-1]:g} s")
    truth_positions = resample_positions(truth, estimate.timestamps)
    source = estimate.positions - estimate.positions[0]
    target = truth_positions - truth_positions[0]
    angle = fit_rotation(source, target)
    aligned = source @ rotation_matrix(angle).T
    residual = aligned - target
    return AlignedError(np.hypot(residual[:, 0], residual[:, 1]), angle,
                        Trajectory(aligned, estimate.timestamps))


@dataclass(frozen=True)
class ErrorCdf:
    """Empirical CDF over pooled per-point errors."""

    levels: np.ndarray
    fractions: np.ndarray
    median: float


def error_cdf(results) -> ErrorCdf:
    """Pool per-point errors from AlignedError results (or raw arrays)."""
    pools = [
        np.asarray(r.errors if isinstance(r, AlignedError) else r, dtype=float).ravel()
        for r in results
    ]
    if not pools or sum(p.size for p in pools) == 0:
        raise ValueError("error_cdf needs at least one error value")
    pooled = np.sort(np.concatenate(pools))
    fractions = np.arange(1, pooled.size + 1) / pooled.size
    return ErrorCdf(pooled, fractions, float(np.median(pooled)))


def aod_error_cdfs(streams, geometry: ArrayGeometry, config: AodConfig, truth_aods) -> dict:
    """AoD-error CDFs of paths estimated from a window of packets
    ("multi-packet") and from its last packet alone ("single-packet"). Each
    error is that of the estimated path nearest the AP's ``truth_aods``
    entry; each AP's windows end at about 20 of its records, from ``min_packets`` on;
    :class:`WindowUnderfullError` if no AP of ``truth_aods`` holds that many."""
    single = replace(config, min_packets=1)
    errors = {"multi-packet": [], "single-packet": []}
    for ap, records in streams.items():
        if ap not in truth_aods or len(records) < config.min_packets:
            continue
        stride = max(1, len(records) // 20)
        for end in range(config.min_packets, len(records) + 1, stride):
            window = [r for r in records[:end]
                      if r.timestamp >= records[end - 1].timestamp - config.window_seconds]
            for name, packets in zip(errors, (window, records[end - 1:end])):
                aods = estimate_paths(packets, geometry, single).aods
                errors[name].append(np.min(circular_distance(aods, truth_aods[ap])))
    if not errors["multi-packet"]:
        raise WindowUnderfullError(f"no AP holds min_packets={config.min_packets} records")
    return {name: error_cdf([np.array(values)]) for name, values in errors.items()}
