"""Per-packet-pair displacement recovery with clock-offset cancellation.

Projecting two consecutive CSI vectors onto the estimated steering matrix
gives per-path weights whose element-wise ratio carries, for path k, the
displacement phase -2*pi*(r_k . delta)/lambda plus a packet-wide clock term
common to all paths. Dividing each path's ratio by a reference path's ratio
cancels the clock term exactly; the remaining phases are linear in the
displacement and are solved by least squares, stacking rows from all APs.

The tracker factors each AP's steering matrix once per path-set estimate
(:func:`factor_steering`), projects each packet once (:func:`project`) and
builds the rows of every AP in one pass (:func:`displacement_rows`);
:func:`path_weights` and :func:`attenuation_change` are the same math for a
single packet pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Displacement, PathSet, TWO_PI
from .errors import DegenerateGeometryError, UnobservableDisplacementError, WeakPathError

#: Condition-number gate for the steering matrix (rejects near-collinear AoDs).
A_CONDITION_LIMIT = 1e6
#: Condition-number gate for the stacked geometry rows.
R_CONDITION_LIMIT = 1e4
#: Path weights below this fraction of the weight-vector norm are dropped.
WEAK_PATH_RTOL = 1e-9


@dataclass(frozen=True)
class PathWeights:
    """Least-squares weights of one packet's CSI over a PathSet's columns."""

    ap_id: str
    packet_index: int
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=complex))


@dataclass(frozen=True)
class AttenuationChange:
    """Diagonal of the per-path attenuation ratio between two packets.

    Entry k estimates exp(-2j*pi*(r_k . delta)/lambda + j*(nu_2 - nu_1)).
    """

    ap_id: str
    diagonal: np.ndarray


def factor_steering(matrix: np.ndarray):
    """Pseudo-inverse (..., L, M) and 2-norm condition number of one M x L
    steering matrix or a stack of them, both from one SVD."""
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    with np.errstate(divide="ignore"):
        cond = s[..., 0] / s[..., -1]
    inverse = np.divide(1.0, s, out=np.zeros_like(s), where=s > 0)
    pinv = (np.conj(np.swapaxes(vh, -1, -2)) * inverse[..., None, :]) @ np.conj(
        np.swapaxes(u, -1, -2))
    return pinv, cond


def project(pinv: np.ndarray, csi: np.ndarray) -> np.ndarray:
    """Weights (..., L) of CSI (..., M) over the paths whose pseudo-inverse is
    ``pinv``; one batched product, so equal inputs give bit-equal weights
    wherever they sit in a batch."""
    return (pinv @ csi[..., None])[..., 0]


def _ratio(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """D_k = w2_k * conj(w1_k) / |w1_k|^2, element-wise.

    Spelled out in real arithmetic: numpy's fused complex multiply leaves a
    rounding residue in Im(w * conj(w)), which must vanish exactly when the
    weights are identical (a stationary target must integrate to zero).
    """
    ratio = np.empty(second.shape, dtype=complex)
    ratio.real = second.real * first.real + second.imag * first.imag
    ratio.imag = second.imag * first.real - second.real * first.imag
    ratio /= np.abs(first) ** 2
    return ratio


def path_weights(csi: np.ndarray, paths: PathSet, packet_index: int = -1,
                 cond_limit: float = A_CONDITION_LIMIT) -> PathWeights:
    """Least-squares combination weights of ``csi`` over the steering matrix."""
    pinv, cond = factor_steering(paths.steering_matrix)
    if cond >= cond_limit:
        raise DegenerateGeometryError(
            f"steering matrix condition number exceeds {cond_limit:g}"
        )
    return PathWeights(paths.ap_id, packet_index, project(pinv, np.asarray(csi, dtype=complex)))


def attenuation_change(first: PathWeights, second: PathWeights,
                       weak_rtol: float = WEAK_PATH_RTOL) -> AttenuationChange:
    """Closed-form minimizer of ||w2 - D w1|| over diagonal D.

    The problem decouples per path: D_kk = w2_k * conj(w1_k) / |w1_k|^2.
    """
    w1 = first.weights
    w2 = second.weights
    if w1.shape != w2.shape:
        raise ValueError("weight vectors must have equal length")
    weak = np.abs(w1) <= weak_rtol * np.linalg.norm(w1)
    if np.any(weak):
        raise WeakPathError(f"vanishing weight for path(s) {np.nonzero(weak)[0].tolist()}")
    return AttenuationChange(first.ap_id, _ratio(w1, w2))


def displacement_rows(first: np.ndarray, second: np.ndarray, directions: np.ndarray,
                      wavelength: float, weak_rtol: float = WEAK_PATH_RTOL,
                      same_clock: bool = False):
    """Offset-cancelled rows (R, s) of A APs at once, and the APs left out.

    ``first`` and ``second`` are the (A, L) weights of two packets on each
    AP's paths; ``directions`` holds the (A, L, 2) unit vectors [cos(theta),
    sin(theta)] of the path AoDs. A path weaker than ``weak_rtol`` times the
    norm of its AP's first weights, in either packet, is dropped (a transient
    fade, not a fault). Each AP divides every kept path's attenuation ratio
    by that of its reference path, the kept path strongest in both packets,
    which cancels the clock phase and minimizes its noise amplification; row
    k is (-2*pi/lambda) * (direction_k - direction_ref). No unwrapping is
    applied: per-packet displacements stay well below lambda/2, so these
    differential phases cannot wrap.

    ``same_clock`` is the ablation that ignores the clock offset: each kept
    path contributes phase(D_kk) directly against (-2*pi/lambda) *
    direction_k, so any packet-to-packet clock phase leaks into every row.

    Returns R (N, 2) and s (N,) in AP-then-path order, and a boolean (A,)
    mask of the APs left with fewer usable paths than the rows need (two, or
    one with ``same_clock``), which contribute nothing.
    """
    magnitude = np.abs(first)
    strength = np.minimum(magnitude, np.abs(second))
    keep = strength > weak_rtol * np.hypot.reduce(magnitude, axis=-1, keepdims=True)
    short = keep.sum(axis=-1) < (1 if same_clock else 2)
    keep[short] = False
    change = np.ones(first.shape, dtype=complex)
    change[keep] = _ratio(first[keep], second[keep])
    scale = -TWO_PI / wavelength
    if same_clock:
        return scale * directions[keep], np.angle(change[keep]), short
    ref = (strength * keep).argmax(axis=-1)  # kept paths are all stronger than 0
    keep[np.arange(ref.size), ref] = False
    aps, paths = np.nonzero(keep)
    refs = ref[aps]
    rows = scale * (directions[aps, paths] - directions[aps, refs])
    return rows, np.angle(change[aps, paths] / change[aps, refs]), short


def estimate_displacement(per_ap_rows, cond_limit: float = R_CONDITION_LIMIT) -> Displacement:
    """Solve the stacked least-squares system for the 2D displacement.

    ``per_ap_rows`` is a sequence of (R, s) pairs, concatenated vertically
    across APs. Raises UnobservableDisplacementError when the stack has fewer
    than two rows or is too close to rank one to pin down both components.
    One SVD gives both the condition gate and the solution.
    """
    per_ap_rows = list(per_ap_rows)
    if not per_ap_rows:
        raise UnobservableDisplacementError("no contributing APs")
    stacked_rows = np.vstack([rows for rows, _ in per_ap_rows])
    stacked_phases = np.concatenate([np.atleast_1d(phases) for _, phases in per_ap_rows])
    if stacked_rows.shape[0] < 2:
        raise UnobservableDisplacementError(
            "one equation cannot determine a 2D displacement"
        )
    u, s, vh = np.linalg.svd(stacked_rows, full_matrices=False)
    if s[1] == 0 or s[0] / s[1] >= cond_limit:
        raise UnobservableDisplacementError(
            f"stacked geometry condition number exceeds {cond_limit:g}"
        )
    return Displacement(vh.T @ ((u.T @ stacked_phases) / s))
