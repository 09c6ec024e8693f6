"""Per-packet-pair displacement recovery with clock-offset cancellation.

Projecting two consecutive CSI vectors onto the estimated steering matrix
gives per-path weights whose angle change (the angle of their ratio) is, for
path k, the displacement phase -2*pi*(r_k . delta)/lambda plus a packet-wide
clock term common to all paths. Subtracting a reference path's angle change
cancels the clock term exactly; the remaining phases are linear in the
displacement and are solved by least squares, stacking rows from all APs.

The tracker factors each AP's steering matrix once per path-set estimate
(:func:`factor_steering`) and projects each packet once (:func:`project`):
its :func:`path_strengths` serve its pairs with both neighbours. One pass on plain
floats over two packets' strengths gives every AP's turns and a plan key (:func:`select_rows`);
the rows of a key (:func:`plan_rows`) and their least-squares matrix (:func:`factor_rows`,
by Gram-Schmidt) are made once per key and estimate, and solve each pair's phases.
:func:`path_weights`, :func:`attenuation_change` and :func:`estimate_displacement`
are the same math for a single packet pair, gated by the module's fixed limits.
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
    vh = np.conjugate(vh, out=vh)  # V S^-1 U^H in place: no temporaries, the same layouts
    vh *= inverse[..., :, None]
    return vh.swapaxes(-1, -2) @ np.conjugate(u, out=u).swapaxes(-1, -2), cond


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
        raise DegenerateGeometryError(f"steering matrix condition number exceeds {A_CONDITION_LIMIT:g}")
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
    """(A, L) weights' angles and magnitudes, each AP's floor (``weak_rtol`` x norm): lists."""
    magnitude = np.abs(weights)
    return (np.arctan2(weights.imag, weights.real).tolist(), magnitude.tolist(),
            (weak_rtol * np.hypot.reduce(magnitude, axis=-1)).tolist())


def select_rows(first, second, same_clock: bool, active):
    """Every ``active`` AP's paths selected on plain floats in one pass over two packets'
    :func:`path_strengths`: a path below its AP's floor in either packet is dropped (a
    fade, not a fault); the turn (angle change) of the reference, the first kept path
    strongest in both, cancels the clock phase with the least noise, and ``same_clock``
    has none. Returns the plan key, per AP () or its reference and its rows' paths; the
    count of active APs with too few kept paths for a row (two, or one with
    ``same_clock``); and the rows' turns in [-pi, pi), in the key's order."""
    (angles, magnitudes, floors), (angles2, magnitudes2, _) = first, second
    key, turns, short = [], [], 0
    for a, is_active in enumerate(active):
        floor, kept, ref, best = floors[a], [], None, 0.0
        for k, (magnitude, magnitude2) in enumerate(zip(magnitudes[a], magnitudes2[a])):
            if is_active and magnitude > floor and magnitude2 > floor:
                kept.append(k)
                strength = magnitude if magnitude < magnitude2 else magnitude2
                if strength > best and not same_clock:
                    ref, best = k, strength
        if len(kept) < (1 if same_clock else 2):
            short += is_active
            key.append(())
            continue
        angle, angle2, base = angles[a], angles2[a], 0.0  # turn - 0.0 is turn, bit for bit
        if ref is not None:
            kept.remove(ref)
            base = angle2[ref] - angle[ref]
        key.append((ref, *kept))
        for k in kept:
            turns.append((angle2[k] - angle[k] - base + math.pi) % TWO_PI - math.pi)
    return tuple(key), short, turns


def plan_rows(directions, key, wavelength: float):
    """Rows R (N [x, y] lists) of a :func:`select_rows` plan ``key``, in its order: (-2*pi/lambda)
    * (direction_k - direction_ref), or * direction_k with no reference; ``directions[a][k]``
    is [cos, sin] of AP a's path k. A pair moves far below lambda/2, so no phase wraps."""
    scale, rows = -TWO_PI / wavelength, []
    for entry, vectors in zip(key, directions):
        if entry:
            ref, *paths = entry
            x0, y0 = (0.0, 0.0) if ref is None else vectors[ref]  # x - 0.0 is x, bit for bit
            rows += [[scale * (x - x0), scale * (y - y0)] for x, y in (vectors[k] for k in paths)]
    return rows


def estimate_displacement(per_ap_rows) -> Displacement:
    """Least-squares displacement of the (R, s) pairs of ``per_ap_rows``,
    concatenated vertically across APs."""
    per_ap_rows = list(per_ap_rows)
    if not per_ap_rows:
        raise UnobservableDisplacementError("no contributing APs")
    rows = np.vstack([rows for rows, _ in per_ap_rows])
    phases = np.concatenate([np.atleast_1d(phases) for _, phases in per_ap_rows])
    return Displacement(factor_rows(rows.tolist(), R_CONDITION_LIMIT) @ phases)


def factor_rows(rows, cond_limit: float) -> np.ndarray:
    """The (2, N) least-squares matrix T^-1 Q^T of stacked rows R = Q T (N [x, y] lists),
    which maps their phases to the displacement; UnobservableDisplacementError for fewer
    than two rows or a 2-norm condition number of at least ``cond_limit``. Gram-Schmidt
    gives Q = [q1 q2], T = [[r11, r12], [0, r22]], error eps * cond (normal equations:
    eps * cond^2), and R's singular values: product r11 r22, squares' sum ||T||_F^2."""
    if len(rows) < 2:
        raise UnobservableDisplacementError("one equation cannot determine a 2D displacement")
    first, second = zip(*rows)  # a few rows: plain floats cost less than array calls
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
