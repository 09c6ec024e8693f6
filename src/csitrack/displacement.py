"""Per-packet-pair displacement recovery with clock-offset cancellation.

Projecting two consecutive CSI vectors onto the estimated steering matrix
gives per-path weights whose element-wise ratio carries, for path k, the
displacement phase -2*pi*(r_k . delta)/lambda plus a packet-wide clock term
common to all paths. Dividing each path's ratio by a reference path's ratio
cancels the clock term exactly; the remaining phases are linear in the
displacement and are solved by least squares, stacking rows from all APs.

The tracker factors each AP's steering matrix once per path-set estimate
(:func:`factor_steering`) and projects each packet once (:func:`project`):
its :func:`path_strengths` serve its pairs with both neighbours. One pass over
the full (A, L) arrays selects every AP's paths (:func:`select_paths`); the
rows of a selection (:func:`row_geometry`) and their factors
(:func:`factor_rows`) are made once per estimate, and :func:`solve_factored`
solves each pair's phases. :func:`path_weights` and :func:`attenuation_change`
are the same math for a single packet pair.
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
    inverse = np.divide(1.0, s, out=np.zeros(s.shape), where=s > 0)
    pinv = (vh.conj().swapaxes(-1, -2) * inverse[..., None, :]) @ u.conj().swapaxes(-1, -2)
    return pinv, cond


def project(pinv: np.ndarray, csi: np.ndarray) -> np.ndarray:
    """Weights (..., L) of CSI (..., M) over the paths whose pseudo-inverse is
    ``pinv``; one batched product, so equal inputs give bit-equal weights
    wherever they sit in a batch."""
    return (pinv @ csi[..., None])[..., 0]


def _ratio(first: np.ndarray, second: np.ndarray, magnitude: np.ndarray, where=True):
    """D_k = w2_k * conj(w1_k) / |w1_k|^2 where ``where`` holds, else undivided.

    Spelled out in real arithmetic: numpy's fused complex multiply leaves a
    rounding residue in Im(w * conj(w)), which must vanish exactly when the
    weights are identical (a stationary target must integrate to zero).
    """
    ratio = np.empty(second.shape, dtype=complex)
    ratio.real = second.real * first.real + second.imag * first.imag
    ratio.imag = second.imag * first.real - second.real * first.imag
    return np.divide(ratio, magnitude * magnitude, out=ratio, where=where)


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
    w1, w2 = first.weights, second.weights
    if w1.shape != w2.shape:
        raise ValueError("weight vectors must have equal length")
    weak = np.abs(w1) <= weak_rtol * np.linalg.norm(w1)
    if np.any(weak):
        raise WeakPathError(f"vanishing weight for path(s) {np.nonzero(weak)[0].tolist()}")
    return AttenuationChange(first.ap_id, _ratio(w1, w2, np.abs(w1)))


def path_strengths(weights: np.ndarray, weak_rtol: float = WEAK_PATH_RTOL):
    """(A, L) weights, their magnitudes and each AP's floor: ``weak_rtol`` times their norm."""
    magnitude = np.abs(weights)
    return weights, magnitude, weak_rtol * np.hypot.reduce(magnitude, axis=-1, keepdims=True)


def select_paths(first, second, weak_rtol: float = WEAK_PATH_RTOL, same_clock: bool = False,
                 active=None):
    """Path selection of A APs in one pass over the (A, L) weights of two
    packets on each AP's paths, or over their :func:`path_strengths`. Only
    the APs of the (A,) mask ``active`` (all by default) give rows. A path
    weaker than its AP's floor in either packet is dropped (a transient fade,
    not a fault), and no dropped path's weight divides anything. Dividing
    each kept path's attenuation ratio by that of the AP's reference path,
    its kept path strongest in both packets, cancels the clock phase with the
    least noise amplification; the ``same_clock`` ablation divides by nothing,
    so the clock phase leaks into every ratio.

    Returns the (A, L) mask of paths that give a row, each AP's reference
    path (None with ``same_clock``), the (A,) mask of active APs with fewer
    kept paths than the rows need (two, or one with ``same_clock``), which
    give none, and the (A, L) ratios, meaningful where a path gives a row."""
    (first, magnitude, floor), (second, magnitude2, _) = (
        w if isinstance(w, tuple) else path_strengths(w, weak_rtol) for w in (first, second))
    strength = np.minimum(magnitude, magnitude2)
    keep = strength > floor
    short = np.add.reduce(keep, axis=-1) < (1 if same_clock else 2)
    if active is not None:
        keep &= active[:, None]
        short &= active
    change = _ratio(first, second, magnitude, keep)
    if same_clock:
        return keep, None, short, change
    ref = (strength * keep).argmax(axis=-1)  # kept paths are > 0; a short AP's lone one is ref
    at_ref = np.arange(ref.size), ref
    np.divide(change, change[at_ref][:, None], out=change, where=keep)
    keep[at_ref] = False
    return keep, ref, short, change


def row_geometry(directions: np.ndarray, keep: np.ndarray, ref, wavelength: float):
    """Rows R (N, 2) of a :func:`select_paths` selection, in AP-then-path
    order, and the (AP, path) index of their ratios, whose angles are the
    phases s. ``directions`` holds the (A, L, 2) unit vectors [cos(theta),
    sin(theta)] of the path AoDs; row k is (-2*pi/lambda) * (direction_k -
    direction_ref), or (-2*pi/lambda) * direction_k with ``ref`` None. No
    unwrapping is applied: per-packet displacements stay well below lambda/2,
    so these differential phases cannot wrap. The rows change only with the
    path set or the selection."""
    aps, paths = index = np.nonzero(keep)
    rows = directions[index] if ref is None else directions[index] - directions[aps, ref[aps]]
    return (-TWO_PI / wavelength) * rows, index


def estimate_displacement(per_ap_rows, cond_limit: float = R_CONDITION_LIMIT) -> Displacement:
    """Least-squares displacement of the (R, s) pairs of ``per_ap_rows``,
    concatenated vertically across APs."""
    per_ap_rows = list(per_ap_rows)
    if not per_ap_rows:
        raise UnobservableDisplacementError("no contributing APs")
    rows = np.vstack([rows for rows, _ in per_ap_rows])
    phases = np.concatenate([np.atleast_1d(phases) for _, phases in per_ap_rows])
    return Displacement(solve_factored(factor_rows(rows, cond_limit), phases))


def factor_rows(rows: np.ndarray, cond_limit: float = R_CONDITION_LIMIT):
    """The SVD (u, s, vh) of stacked rows R (N, 2);
    UnobservableDisplacementError for fewer than two rows or a stack too close
    to rank one. One SVD gives both the condition gate and the solution."""
    if rows.shape[0] < 2:
        raise UnobservableDisplacementError("one equation cannot determine a 2D displacement")
    u, s, vh = np.linalg.svd(rows, full_matrices=False)
    if s[1] == 0 or s[0] / s[1] >= cond_limit:
        raise UnobservableDisplacementError(
            f"stacked geometry condition number exceeds {cond_limit:g}")
    return u, s, vh


def solve_factored(factors, phases: np.ndarray) -> np.ndarray:
    """Least-squares 2D displacement of phases s (N,) on rows factored by
    :func:`factor_rows`."""
    u, s, vh = factors
    return vh.T @ ((u.T @ phases) / s)
