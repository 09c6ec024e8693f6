"""Per-packet-pair displacement recovery with clock-offset cancellation.

Projecting two consecutive CSI vectors onto the estimated steering matrix
gives per-path weights whose angle change (the angle of their ratio) is, for
path k, the displacement phase -2*pi*(r_k . delta)/lambda plus a packet-wide
clock term common to all paths. Subtracting a reference path's angle change
cancels the clock term exactly; the remaining phases are linear in the
displacement and are solved by least squares, stacking rows from all APs.

The tracker factors each AP's steering matrix once per path-set estimate
(:func:`factor_steering`) and projects each packet once (:func:`project`):
its :func:`path_strengths` serve its pairs with both neighbours. One pass over
two packets' strengths selects every AP's paths (:func:`select_paths`); the
rows of a selection (:func:`row_geometry`) and their least-squares matrix
(:func:`factor_rows`, by Gram-Schmidt) are made once per estimate, and one
product with it solves each pair's phases. :func:`path_weights`,
:func:`attenuation_change` and :func:`estimate_displacement` are the same
math for a single packet pair, gated by the module's fixed limits.
"""

from __future__ import annotations

import math
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
    """Pseudo-inverse (..., L, M) and 2-norm condition number (inf if singular) of
    one M x L steering matrix or a stack of them, both from one SVD."""
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    positive = s > 0
    inverse = 1.0 / np.where(positive, s, np.inf)  # 1 / s, and 0 where s is 0
    cond = np.where(positive[..., -1], s[..., 0] * inverse[..., -1], np.inf)
    pinv = (vh.conj().swapaxes(-1, -2) * inverse[..., None, :]) @ u.conj().swapaxes(-1, -2)
    return pinv, cond


def project(pinv: np.ndarray, csi: np.ndarray) -> np.ndarray:
    """Weights (..., L) of CSI (..., M) over the paths whose pseudo-inverse is
    ``pinv``; one batched product, so equal inputs give bit-equal weights
    wherever they sit in a batch."""
    return (pinv @ csi[..., None])[..., 0]


def _ratio(first: np.ndarray, second: np.ndarray, magnitude: np.ndarray):
    """D_k = w2_k * conj(w1_k) / |w1_k|^2, whose angle is the path-angle change
    (the tracker takes it from :func:`path_strengths`, as |w1_k|^2 underflows
    near 1e-160), spelled out in real arithmetic: numpy's fused complex
    multiply leaves a rounding residue in Im(w * conj(w)), which must vanish
    exactly for identical weights (a stationary target must integrate to zero)."""
    ratio = np.empty(second.shape, dtype=complex)
    ratio.real = second.real * first.real + second.imag * first.imag
    ratio.imag = second.imag * first.real - second.real * first.imag
    return np.divide(ratio, magnitude * magnitude, out=ratio)


def path_weights(csi: np.ndarray, paths: PathSet, packet_index: int = -1) -> PathWeights:
    """Least-squares combination weights of ``csi`` over the steering matrix."""
    pinv, cond = factor_steering(paths.steering_matrix)
    if cond >= A_CONDITION_LIMIT:
        raise DegenerateGeometryError(
            f"steering matrix condition number exceeds {A_CONDITION_LIMIT:g}"
        )
    return PathWeights(paths.ap_id, packet_index, project(pinv, np.asarray(csi, dtype=complex)))


def attenuation_change(first: PathWeights, second: PathWeights) -> AttenuationChange:
    """Closed-form minimizer of ||w2 - D w1|| over diagonal D.

    The problem decouples per path: D_kk = w2_k * conj(w1_k) / |w1_k|^2.
    """
    w1, w2 = first.weights, second.weights
    if w1.shape != w2.shape:
        raise ValueError("weight vectors must have equal length")
    weak = np.abs(w1) <= WEAK_PATH_RTOL * np.linalg.norm(w1)
    if np.any(weak):
        raise WeakPathError(f"vanishing weight for path(s) {np.nonzero(weak)[0].tolist()}")
    return AttenuationChange(first.ap_id, _ratio(w1, w2, np.abs(w1)))


def path_strengths(weights: np.ndarray, weak_rtol: float):
    """(A, L) weights' angles, their magnitudes and each AP's floor: ``weak_rtol`` times their norm."""
    magnitude = np.abs(weights)
    return (np.arctan2(weights.imag, weights.real), magnitude,
            weak_rtol * np.hypot.reduce(magnitude, axis=-1, keepdims=True))


def select_paths(first, second, same_clock: bool, active: np.ndarray):
    """Path selection of A APs in one pass over two packets'
    :func:`path_strengths` on each AP's paths: (A, L) path angles, their
    magnitudes and each AP's weak-path floor. Only the APs of the (A,) mask
    ``active`` give rows. A path weaker than its AP's floor in either packet
    is dropped (a transient fade, not a fault). Subtracting the angle change
    (turn) of the AP's reference path, its kept path strongest in both
    packets, cancels the clock phase with the least noise amplification;
    ``same_clock`` subtracts nothing, leaving it in every turn.

    Returns the (A, L) mask of paths that give a row, each AP's reference
    path (None with ``same_clock``), the (A,) mask of active APs with fewer
    kept paths than the rows need (two, or one with ``same_clock``), which
    give none, and the (A, L) turns in [-pi, pi), meaningful where a path
    gives a row."""
    (angle, magnitude, floor), (angle2, magnitude2, _) = first, second
    strength = np.minimum(magnitude, magnitude2)
    keep = (strength > floor) & active[:, None]
    short = (np.add.reduce(keep, axis=-1) < (1 if same_clock else 2)) & active
    turn, ref = angle2 - angle, None
    if not same_clock:
        ref = (strength * keep).argmax(axis=-1)  # kept paths are > 0; a short AP's lone one is ref
        at_ref = np.arange(ref.size), ref
        turn -= turn[at_ref][:, None]
        keep[at_ref] = False
    return keep, ref, short, (turn + np.pi) % TWO_PI - np.pi


def row_geometry(directions: np.ndarray, keep: np.ndarray, ref, wavelength: float):
    """Rows R (N, 2) of a :func:`select_paths` selection, in AP-then-path
    order, and the (AP, path) index of their turns, the phases s. The (A, L,
    2) ``directions`` are the unit vectors [cos(theta), sin(theta)] of the
    path AoDs; row k is (-2*pi/lambda) * (direction_k - direction_ref), or
    (-2*pi/lambda) * direction_k with ``ref`` None. No unwrapping is applied:
    per-packet displacements stay well below lambda/2, so these differential
    phases cannot wrap. The rows change only with the path set or selection."""
    aps, paths = index = np.nonzero(keep)
    rows = directions[index] if ref is None else directions[index] - directions[aps, ref[aps]]
    return (-TWO_PI / wavelength) * rows, index


def estimate_displacement(per_ap_rows) -> Displacement:
    """Least-squares displacement of the (R, s) pairs of ``per_ap_rows``,
    concatenated vertically across APs."""
    per_ap_rows = list(per_ap_rows)
    if not per_ap_rows:
        raise UnobservableDisplacementError("no contributing APs")
    rows = np.vstack([rows for rows, _ in per_ap_rows])
    phases = np.concatenate([np.atleast_1d(phases) for _, phases in per_ap_rows])
    return Displacement(factor_rows(rows, R_CONDITION_LIMIT) @ phases)


def factor_rows(rows: np.ndarray, cond_limit: float) -> np.ndarray:
    """The (2, N) least-squares matrix T^-1 Q^T of stacked rows R = Q T (N, 2), which
    maps their phases to the displacement; UnobservableDisplacementError for fewer
    than two rows or a 2-norm condition number of at least ``cond_limit``. Gram-Schmidt
    gives Q = [q1 q2], T = [[r11, r12], [0, r22]], error eps * cond (normal equations:
    eps * cond^2), and R's singular values: product r11 r22, squares' sum ||T||_F^2."""
    if rows.shape[0] < 2:
        raise UnobservableDisplacementError("one equation cannot determine a 2D displacement")
    first, second = rows.T.tolist()  # a few rows: plain floats cost less than array calls
    r11 = math.hypot(*first)
    if r11 > 0:
        q1 = [x / r11 for x in first]
        r12 = sum([x * y for x, y in zip(q1, second)])
        q2 = [y - r12 * x for x, y in zip(q1, second)]  # r22 * q2
        r22 = math.hypot(*q2)
        a, b, c = r11 * r11, r22 * r22, r12 * r12  # 2 s_max^2 = a + b + c + sqrt(...)
        if a + b + c + math.sqrt((a - b) ** 2 + c * (c + 2 * (a + b))) < 2 * cond_limit * r11 * r22:
            row = [y / r22 / r22 for y in q2]  # the second row of T^-1 Q^T
            return np.array([[(x - r12 * y) / r11 for x, y in zip(q1, row)], row])
    raise UnobservableDisplacementError(
        f"stacked geometry condition number exceeds {cond_limit:g}")
