"""Displacement recovery: weights, attenuation ratios, the row kernel,
stacked least squares."""

import json
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import optimize

from conftest import AP_IDS, default_geometry, make_sim_config, random_offsets

from csitrack import tracker as tracker_module
from csitrack.core import (
    TWO_PI, ArrayGeometry, CsiRecord, Displacement, PathSet, circular_distance, steering_matrix,
)
from csitrack.displacement import (
    R_CONDITION_LIMIT,
    WEAK_PATH_RTOL,
    PathWeights,
    _ratio,
    attenuation_change,
    estimate_displacement,
    factor_rows,
    factor_steering,
    path_strengths,
    path_weights,
    plan_rows,
    project,
    select_rows,
)
from csitrack.errors import (
    DegenerateGeometryError,
    InsufficientPathsError,
    UnobservableDisplacementError,
    WeakPathError,
)
from csitrack.io import pair_streams
from csitrack.simulator import (
    ChannelSpec,
    PropagationPath,
    SimConfig,
    random_waypoints,
    simulate_trajectory,
    stationary_waypoints,
)
from csitrack.tracker import MODES, Tracker, TrackerConfig


def make_path_set(aods, geometry=None, ap_id="ap0"):
    geometry = geometry if geometry is not None else default_geometry()
    return PathSet(ap_id, np.sort(aods), steering_matrix(geometry, np.sort(aods)),
                   geometry.wavelength)


def pair_weights_for_displacement(path_set, gains, delta, nu=(0.0, 0.0)):
    """Ground-truth weight pair for a known displacement and clock phases."""
    aods = path_set.aods
    motion = np.exp(-2j * np.pi * (np.cos(aods) * delta[0] + np.sin(aods) * delta[1])
                    / path_set.wavelength)
    w1 = gains * np.exp(1j * nu[0])
    w2 = gains * motion * np.exp(1j * nu[1])
    return (PathWeights(path_set.ap_id, 0, w1), PathWeights(path_set.ap_id, 1, w2))


# -- the array reference of the tracker's float pair pass -------------------------


def array_strengths(weights, weak_rtol):
    """:func:`path_strengths` of (A, L) ``weights`` as arrays, the floor an (A, 1) column."""
    angle, magnitude, floor = path_strengths(weights, weak_rtol)
    return (np.reshape(angle, weights.shape), np.reshape(magnitude, weights.shape),
            np.reshape(floor, (-1, 1)))


def select_paths(first, second, same_clock: bool, active: np.ndarray):
    """Path selection of A APs in array calls over two packets'
    :func:`array_strengths`: the reference of :func:`select_rows`. Only the
    APs of the (A,) mask ``active`` give rows. A path weaker than its AP's
    floor in either packet is dropped. The reference path is the kept path
    strongest in both packets; ``same_clock`` subtracts no reference turn.

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
    order, and the (AP, path) index of their turns: the reference of
    :func:`plan_rows`. ``directions`` (A, L, 2) holds [cos, sin] of the AoDs."""
    aps, paths = index = np.nonzero(keep)
    rows = directions[index] if ref is None else directions[index] - directions[aps, ref[aps]]
    return (-TWO_PI / wavelength) * rows, index


def float_selection(first, second, same_clock, active):
    """:func:`select_rows` in :func:`select_paths` form: the (A, L) mask of
    row paths, each AP's reference path (0 where it gives no rows; None with
    ``same_clock``), the short count, the (A, L) turns (0 off the rows) and the key."""
    key, short, turns = select_rows(first, second, same_clock, active)
    keep = np.zeros(np.shape(first[1]), dtype=bool)
    for a, entry in enumerate(key):
        keep[a, list(entry[1:])] = True
    turn = np.zeros(keep.shape)
    turn[keep] = turns
    ref = None if same_clock else np.array([entry[0] if entry else 0 for entry in key], dtype=int)
    return keep, ref, short, turn, key


def select_every_ap(first, second, same_clock=False):
    """:func:`float_selection` of two packets' path strengths with every AP active."""
    return float_selection(first, second, same_clock, [True] * len(first[1]))[:4]


def kernel(triples, same_clock=False):
    """The tracker's row pass over (path_set, first, second) triples, one per
    AP: the rows R, the phases s and the number of APs left short."""
    aods = np.stack([path_set.aods for path_set, _, _ in triples])
    first = np.stack([np.asarray(getattr(w, "weights", w), complex) for _, w, _ in triples])
    second = np.stack([np.asarray(getattr(w, "weights", w), complex) for _, _, w in triples])
    directions = np.stack([np.cos(aods), np.sin(aods)], axis=-1)
    key, short, turns = select_rows(path_strengths(first, WEAK_PATH_RTOL),
                                    path_strengths(second, WEAK_PATH_RTOL), same_clock,
                                    [True] * len(triples))
    rows = plan_rows(directions.tolist(), key, triples[0][0].wavelength)
    return np.reshape(rows, (-1, 2)), np.array(turns), short


def ap_rows(path_set, first, second, same_clock=False):
    """One AP's (R, s) from the kernel; the AP must not be left out."""
    rows, phases, short = kernel([(path_set, first, second)], same_clock)
    assert not short
    return rows, phases


class TestPathWeights:
    def test_exact_recovery_in_span(self):
        path_set = make_path_set([0.8, 2.1])
        gains = np.array([1.0 + 0.4j, -0.5 + 0.2j])
        csi = path_set.steering_matrix @ gains
        weights = path_weights(csi, path_set, packet_index=3)
        np.testing.assert_allclose(weights.weights, gains, atol=1e-10)
        assert weights.packet_index == 3

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(0)
        path_set = make_path_set([0.8, 2.1])
        csi = rng.normal(size=3) + 1j * rng.normal(size=3)
        weights = path_weights(csi, path_set)
        residual = csi - path_set.steering_matrix @ weights.weights
        gram = path_set.steering_matrix.conj().T @ residual
        np.testing.assert_allclose(gram, 0.0, atol=1e-10)

    def test_simulated_pair_matches_offset_rotated_gains(self):
        config = make_sim_config(21)
        streams = simulate_trajectory(config, stationary_waypoints(0.1))
        ap = "ap0"
        paths = config.channel.paths[ap]
        path_set = make_path_set([p.aod for p in paths], config.geometry, ap)
        gains = np.array([p.gain for p in sorted(paths, key=lambda p: p.aod)])
        for record in streams[ap][:3]:
            estimated = path_weights(record.csi, path_set, record.packet_index)
            ratio = estimated.weights / gains
            # common unit-modulus rotation e^{j nu_p}: equal phases, unit size
            np.testing.assert_allclose(np.abs(ratio), 1.0, atol=1e-9)
            np.testing.assert_allclose(ratio[0], ratio[1], atol=1e-9)

    def test_collinear_aods_trip_condition_gate(self):
        path_set = make_path_set([1.0, 1.0 + 1e-9])
        with pytest.raises(DegenerateGeometryError):
            path_weights(np.ones(3, dtype=complex), path_set)

    def test_moving_sim_pair_ratio_carries_displacement_phases(self):
        # weights of two consecutive packets of a moving noiseless target:
        # w2/w1 is the per-path motion phase times one common clock factor
        from csitrack.core import Trajectory
        from csitrack.simulator import resample_waypoints

        config = make_sim_config(22)
        step = np.array([0.8e-3, -0.5e-3])
        waypoints = Trajectory(np.array([[0.0, 0.0], 20 * step]),
                               np.array([0.0, 20 * 0.006]))
        streams = simulate_trajectory(config, waypoints)
        assert len(resample_waypoints(waypoints, 0.006)) == 21
        ap = "ap2"
        ordered = sorted(config.channel.paths[ap], key=lambda p: p.aod)
        path_set = make_path_set([p.aod for p in ordered], config.geometry, ap)
        w1 = path_weights(streams[ap][4].csi, path_set, 4)
        w2 = path_weights(streams[ap][5].csi, path_set, 5)
        ratio = w2.weights / w1.weights
        aods = path_set.aods
        motion_phase = (-2 * np.pi / config.geometry.wavelength) * (
            np.cos(aods) * step[0] + np.sin(aods) * step[1]
        )
        np.testing.assert_allclose(np.abs(ratio), 1.0, atol=1e-9)
        differential = np.angle(ratio[1] / ratio[0])
        np.testing.assert_allclose(
            differential, motion_phase[1] - motion_phase[0], atol=1e-9
        )


class TestAttenuationChange:
    def test_identity_when_weights_unchanged(self):
        w = PathWeights("ap0", 0, np.array([1 + 1j, 2 - 1j]))
        change = attenuation_change(w, PathWeights("ap0", 1, w.weights.copy()))
        np.testing.assert_allclose(change.diagonal, 1.0, atol=1e-12)

    def test_common_phase_appears_on_all_entries(self):
        w1 = PathWeights("ap0", 0, np.array([1 + 1j, 2 - 1j, -0.3 + 0.4j]))
        w2 = PathWeights("ap0", 1, w1.weights * np.exp(1.234j))
        change = attenuation_change(w1, w2)
        np.testing.assert_allclose(np.angle(change.diagonal), 1.234, atol=1e-12)

    def test_matches_numeric_minimizer(self):
        # oracle: minimize ||w2 - D w1|| over diagonal D numerically
        rng = np.random.default_rng(1)
        for _ in range(25):
            w1 = rng.normal(size=2) + 1j * rng.normal(size=2)
            w2 = rng.normal(size=2) + 1j * rng.normal(size=2)
            closed = attenuation_change(
                PathWeights("ap0", 0, w1), PathWeights("ap0", 1, w2)
            ).diagonal

            def residuals(x):
                d = x[:2] + 1j * x[2:]
                r = w2 - d * w1
                return np.concatenate([r.real, r.imag])

            fit = optimize.least_squares(residuals, np.zeros(4), method="lm")
            numeric = fit.x[:2] + 1j * fit.x[2:]
            np.testing.assert_allclose(closed, numeric, atol=1e-6)

    def test_weak_first_weight_raises(self):
        w1 = PathWeights("ap0", 0, np.array([1.0 + 0j, 1e-15 + 0j]))
        w2 = PathWeights("ap0", 1, np.array([1.0 + 0j, 1.0 + 0j]))
        with pytest.raises(WeakPathError):
            attenuation_change(w1, w2)

    def test_weight_vectors_of_unequal_length_raise(self):
        w1 = PathWeights("ap0", 0, np.array([1.0 + 0j, 0.5j]))
        w2 = PathWeights("ap0", 1, np.array([1.0 + 0j, 0.5j, 0.2 + 0j]))
        with pytest.raises(ValueError, match="equal length"):
            attenuation_change(w1, w2)


class TestOffsetFreePhases:
    def test_pure_offset_change_cancels_to_zero(self):
        path_set = make_path_set([0.3, 1.4, 2.9])
        first = np.ones(3, dtype=complex)
        _, phases = ap_rows(path_set, first, 0.8 * np.exp(2.5j) * first)
        np.testing.assert_allclose(phases, 0.0, atol=1e-12)

    def test_common_phase_cancels_exactly(self):
        path_set = make_path_set([0.4, 2.0])
        for phi in (0.0, 1.0, -2.5, 3.1):
            diag = np.exp(1j * np.array([phi + 0.1, phi - 0.2]))
            first = np.array([2.0, 1.0])  # path 0 is the reference
            _, phases = ap_rows(path_set, first, diag * first)
            np.testing.assert_allclose(phases, [-0.3], atol=1e-12)

    def test_single_path_insufficient(self):
        path_set = make_path_set([0.4])
        rows, phases, short = kernel([(path_set, np.ones(1), np.ones(1))])
        assert short == 1 and rows.shape == (0, 2) and phases.shape == (0,)
        # the same-clock ablation needs only one path
        rows, phases, short = kernel([(path_set, np.ones(1), np.ones(1))], same_clock=True)
        assert short == 0 and rows.shape == (1, 2)

    def test_simulated_pair_matches_direction_difference(self):
        geometry = default_geometry()
        path_set = make_path_set([0.7, 2.9], geometry)
        gains = np.array([1.0, 0.8 * np.exp(0.5j)])
        delta = np.array([0.8e-3, -1.1e-3])
        w1, w2 = pair_weights_for_displacement(path_set, gains, delta, nu=(0.3, 4.1))
        _, phases = ap_rows(path_set, w1, w2)
        aods = path_set.aods
        expected = (-2 * np.pi / geometry.wavelength) * (
            (np.cos(aods[1]) - np.cos(aods[0])) * delta[0]
            + (np.sin(aods[1]) - np.sin(aods[0])) * delta[1]
        )
        np.testing.assert_allclose(phases, [expected], atol=1e-12)


class TestGeometryMatrix:
    def test_opposite_directions_row(self):
        path_set = make_path_set([0.0, np.pi])
        strong_first = np.array([2.0, 1.0])  # path 0 is the reference
        rows, _ = ap_rows(path_set, strong_first, strong_first)
        np.testing.assert_allclose(
            rows, [[(-2 * np.pi / 0.06) * -2.0, 0.0]], atol=1e-9
        )

    def test_equal_aods_give_zero_row(self):
        geometry = default_geometry()
        path_set = PathSet("ap0", [1.3, 1.3], steering_matrix(geometry, [1.3, 1.3]))
        rows, _ = ap_rows(path_set, np.ones(2), np.ones(2))
        np.testing.assert_allclose(rows, 0.0, atol=1e-12)

    def test_consistent_with_offset_free_phases_on_sim_pair(self):
        path_set = make_path_set([0.4, 2.0])
        gains = np.array([0.9, 1.1 * np.exp(1j)])
        delta = np.array([1.5e-3, 0.7e-3])
        w1, w2 = pair_weights_for_displacement(path_set, gains, delta, nu=(1.0, 2.0))
        rows, phases = ap_rows(path_set, w1, w2)
        np.testing.assert_allclose(rows @ delta, phases, atol=1e-12)


class TestEstimateDisplacement:
    def four_ap_rows(self, delta, nu_by_ap=None, seed=0):
        rng = np.random.default_rng(seed)
        pairs = []
        for i in range(4):
            aods = np.sort(rng.uniform(0, 2 * np.pi, 2))
            while abs(aods[1] - aods[0]) < 0.8:
                aods = np.sort(rng.uniform(0, 2 * np.pi, 2))
            path_set = make_path_set(aods, ap_id=f"ap{i}")
            gains = np.array([1.0, 0.8]) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
            nu = (rng.uniform(0, 700), rng.uniform(0, 700)) if nu_by_ap is None else nu_by_ap[i]
            w1, w2 = pair_weights_for_displacement(path_set, gains, delta, nu)
            pairs.append(ap_rows(path_set, w1, w2))
        return pairs

    def test_zero_phases_give_zero_displacement(self):
        pairs = [
            (np.array([[100.0, 0.0]]), np.zeros(1)),
            (np.array([[0.0, 100.0]]), np.zeros(1)),
        ]
        delta = estimate_displacement(pairs).delta
        np.testing.assert_array_equal(delta, [0.0, 0.0])

    def test_noiseless_four_ap_recovery_with_offsets(self):
        truth = np.array([1e-3, -2e-3])
        pairs = self.four_ap_rows(truth, seed=1)
        delta = estimate_displacement(pairs).delta
        np.testing.assert_allclose(delta, truth, atol=1e-6)

    def test_single_ap_two_paths_unobservable(self):
        truth = np.array([1e-3, -2e-3])
        pairs = self.four_ap_rows(truth, seed=2)[:1]
        with pytest.raises(UnobservableDisplacementError):
            estimate_displacement(pairs)

    def test_collinear_stacked_rows_unobservable(self):
        pairs = [
            (np.array([[100.0, 0.0]]), np.array([0.1])),
            (np.array([[100.0 + 1e-9, 0.0]]), np.array([0.1])),
        ]
        with pytest.raises(UnobservableDisplacementError):
            estimate_displacement(pairs)

    def test_no_rows_unobservable(self):
        with pytest.raises(UnobservableDisplacementError):
            estimate_displacement([])
        with pytest.raises(UnobservableDisplacementError):
            estimate_displacement([(np.zeros((0, 2)), np.zeros(0))])

    def test_matches_lstsq_on_random_stacks(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            rows = rng.normal(size=(rng.integers(2, 12), 2)) * 100
            phases = rng.normal(size=rows.shape[0])
            expected, *_ = np.linalg.lstsq(rows, phases, rcond=None)
            np.testing.assert_allclose(estimate_displacement([(rows, phases)]).delta,
                                       expected, rtol=1e-12, atol=1e-15)


class TestSameClockRows:
    def test_matches_full_method_without_offset(self):
        truth = np.array([0.9e-3, 1.4e-3])
        rng = np.random.default_rng(3)
        triples = []
        for i in range(4):
            aods = np.sort(rng.uniform(0, 2 * np.pi, 2))
            while abs(aods[1] - aods[0]) < 0.8:
                aods = np.sort(rng.uniform(0, 2 * np.pi, 2))
            path_set = make_path_set(aods, ap_id=f"ap{i}")
            gains = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
            w1, w2 = pair_weights_for_displacement(path_set, gains, truth, nu=(0.0, 0.0))
            triples.append((path_set, w1, w2))
        full_rows, full_phases, _ = kernel(triples)
        clock_rows, clock_phases, _ = kernel(triples, same_clock=True)
        assert full_rows.shape == (4, 2) and clock_rows.shape == (8, 2)
        full = estimate_displacement([(full_rows, full_phases)]).delta
        clock = estimate_displacement([(clock_rows, clock_phases)]).delta
        np.testing.assert_allclose(full, truth, atol=1e-9)
        np.testing.assert_allclose(clock, truth, atol=1e-9)

    def test_offset_leaks_into_stationary_estimate(self):
        rng = np.random.default_rng(4)
        triples = []
        for i in range(4):
            aods = np.sort(rng.uniform(0, 2 * np.pi, 2))
            while abs(aods[1] - aods[0]) < 0.8:
                aods = np.sort(rng.uniform(0, 2 * np.pi, 2))
            path_set = make_path_set(aods, ap_id=f"ap{i}")
            gains = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
            w1, w2 = pair_weights_for_displacement(
                path_set, gains, np.zeros(2), nu=(0.0, 1.1 + 0.2 * i)
            )
            triples.append((path_set, w1, w2))
        rows, phases, _ = kernel(triples, same_clock=True)
        spurious = estimate_displacement([(rows, phases)]).delta
        assert np.linalg.norm(spurious) > 1e-4


class TestInvariances:
    def test_global_phase_invariance_is_bitwise(self):
        path_set = make_path_set([0.5, 2.2])
        gains = np.array([1.0 + 0.2j, -0.6 + 0.9j])
        delta = np.array([0.5e-3, 0.2e-3])
        w1, w2 = pair_weights_for_displacement(path_set, gains, delta)
        _, base = ap_rows(path_set, w1, w2)
        for phi in (0.3, 2.9, -1.2):
            _, rotated = ap_rows(path_set, w1, w2.weights * np.exp(1j * phi))
            # the ratio D_k / D_ref removes the common factor exactly
            np.testing.assert_allclose(rotated, base, atol=1e-12)

    def test_reference_choice_does_not_change_solution(self):
        # the kernel references the path strongest in both packets; making
        # each path in turn the strongest must give the same displacement
        truth = np.array([1.2e-3, -0.4e-3])
        deltas = []
        for ref in (0, 1, 2):
            triples = []
            rng2 = np.random.default_rng(6)
            for i in range(3):
                aods = np.sort(rng2.uniform(0, 2 * np.pi, 3))
                while np.min(np.diff(aods)) < 0.6:
                    aods = np.sort(rng2.uniform(0, 2 * np.pi, 3))
                path_set = make_path_set(aods, ap_id=f"ap{i}")
                gains = np.exp(1j * rng2.uniform(0, 2 * np.pi, 3)) * np.where(
                    np.arange(3) == ref, 2.0, 1.0)
                w1, w2 = pair_weights_for_displacement(path_set, gains, truth, nu=(0.7, 5.3))
                triples.append((path_set, w1, w2))
            rows, phases, _ = kernel(triples)
            chosen = path_set.aods[ref]
            expected_last = (-2 * np.pi / 0.06) * np.column_stack(
                [np.cos(np.delete(path_set.aods, ref)) - np.cos(chosen),
                 np.sin(np.delete(path_set.aods, ref)) - np.sin(chosen)])
            np.testing.assert_allclose(rows[-2:], expected_last, atol=1e-9)
            deltas.append(estimate_displacement([(rows, phases)]).delta)
        np.testing.assert_allclose(deltas[0], deltas[1], atol=1e-9)
        np.testing.assert_allclose(deltas[0], deltas[2], atol=1e-9)

    def test_wavelength_scaling(self):
        # doubling lambda halves the rows; for fixed phases |delta| doubles
        geometry_1 = default_geometry()
        geometry_2 = ArrayGeometry(geometry_1.antenna_positions, wavelength=0.12)
        aods = np.array([0.3, 2.4])
        set_1 = PathSet("ap0", aods, steering_matrix(geometry_1, aods), 0.06)
        set_2 = PathSet("ap0", aods, steering_matrix(geometry_2, aods), 0.12)
        strong_first = np.array([2.0, 1.0])
        rows_1, _ = ap_rows(set_1, strong_first, strong_first)
        rows_2, _ = ap_rows(set_2, strong_first, strong_first)
        np.testing.assert_allclose(rows_2, rows_1 / 2, atol=1e-12)
        phases = np.array([0.05])
        extra = (np.array([[40.0, -70.0]]), np.array([0.02]))
        extra_half = (extra[0] / 2, extra[1])
        d1 = estimate_displacement([(rows_1, phases), extra]).delta
        d2 = estimate_displacement([(rows_2, phases), extra_half]).delta
        np.testing.assert_allclose(d2, 2 * d1, atol=1e-12)

    def test_select_reference_prefers_strong_path(self):
        path_set = make_path_set([0.5, 1.9, 4.0])
        rows, _ = ap_rows(path_set, np.array([0.1, 1.0, 0.7]), np.array([1.0, 0.9, 0.2]))
        aods = path_set.aods
        expected = (-2 * np.pi / 0.06) * np.column_stack(
            [np.cos(aods[[0, 2]]) - np.cos(aods[1]), np.sin(aods[[0, 2]]) - np.sin(aods[1])])
        np.testing.assert_allclose(rows, expected, atol=1e-12)

    def test_weak_path_dropped_not_fatal(self):
        path_set = make_path_set([0.4, 1.7, 3.9])
        gains = np.array([1.0, 1e-14, 0.8])
        delta = np.array([0.6e-3, -0.3e-3])
        w1, w2 = pair_weights_for_displacement(path_set, gains, delta, nu=(0.2, 0.9))
        rows, phases = ap_rows(path_set, w1, w2)
        assert rows.shape == (1, 2)  # two usable paths -> one differential row
        np.testing.assert_allclose(rows @ delta, phases, atol=1e-9)


class TestFactorization:
    def test_pseudo_inverse_and_condition_match_numpy(self):
        geometry = ArrayGeometry.circular(4)
        rng = np.random.default_rng(9)
        matrices = np.stack([steering_matrix(geometry, rng.uniform(0, 2 * np.pi, 3))
                             for _ in range(5)])
        pinv, cond = factor_steering(matrices)
        np.testing.assert_allclose(pinv, np.linalg.pinv(matrices), atol=1e-12)
        np.testing.assert_allclose(cond, np.linalg.cond(matrices), rtol=1e-12)

    def test_singular_matrix_has_infinite_condition(self):
        matrix = steering_matrix(default_geometry(), [1.0, 1.0])
        pinv, cond = factor_steering(matrix)
        assert cond == np.inf or cond > 1e15
        assert np.all(np.isfinite(pinv))

    def test_equal_csi_projects_to_bit_equal_weights_in_any_batch(self):
        geometry = default_geometry()
        rng = np.random.default_rng(10)
        pinv, _ = factor_steering(np.stack([
            steering_matrix(geometry, rng.uniform(0, 2 * np.pi, 2)) for _ in range(4)]))
        csi = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        together = project(pinv, csi)
        for a in range(4):
            np.testing.assert_array_equal(project(pinv[[a]], csi[[a]])[0], together[a])
            np.testing.assert_array_equal(project(pinv[a], csi[a]), together[a])


def conditioned_rows(num_rows, cond, seed):
    """An (N, 2) stack U diag(s) V^T with random orthonormal U and rotation V,
    unit-scale rows and s[0] / s[1] = ``cond``."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(num_rows, 2)))
    angle = rng.uniform(0, 2 * np.pi)
    v = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    return (u * (np.array([1.0, 1.0 / cond]) * rng.uniform(0.5, 200.0))) @ v.T


def svd_rows(rows):
    """The least-squares matrix and condition number of ``rows`` from numpy's SVD."""
    u, s, vh = np.linalg.svd(rows, full_matrices=False)
    return (vh.T / s) @ u.T, s[0] / s[1]


class TestFactorRows:
    @settings(max_examples=200, deadline=None)
    @given(num_rows=st.integers(2, 12), log_cond=st.floats(0.0, 8.0),
           seed=st.integers(0, 2**32 - 1))
    def test_least_squares_matrix_matches_the_svd(self, num_rows, log_cond, seed):
        rows = conditioned_rows(num_rows, 10.0**log_cond, seed)
        expected, cond = svd_rows(rows)
        solver = factor_rows(rows.tolist(), 1e9)
        error = np.linalg.norm(solver - expected) / np.linalg.norm(expected)
        assert error <= 1e-13 * cond

    # both condition numbers carry relative errors of about eps * cond, far
    # inside the 1e-9 band for limits up to 1e5 (the default is 1e4)
    @settings(max_examples=300, deadline=None)
    @given(num_rows=st.integers(2, 12), log_limit=st.floats(0.2, 5.0),
           offset=st.floats(-1e-5, 1e-5) | st.floats(-0.5, 0.5), seed=st.integers(0, 2**32 - 1))
    @example(num_rows=4, log_limit=4.0, offset=1e-8, seed=1)
    @example(num_rows=4, log_limit=4.0, offset=-1e-8, seed=1)
    def test_raises_where_the_svd_condition_number_reaches_the_limit(self, num_rows, log_limit,
                                                                     offset, seed):
        limit = 10.0**log_limit
        rows = conditioned_rows(num_rows, max(1.0, limit * (1.0 + offset)), seed)
        _, cond = svd_rows(rows)
        if abs(cond / limit - 1.0) <= 1e-9:
            return  # inside the band where rounding may decide either way
        if cond >= limit:
            with pytest.raises(UnobservableDisplacementError):
                factor_rows(rows.tolist(), limit)
        else:
            factor_rows(rows.tolist(), limit)

    @pytest.mark.parametrize("rows", [
        np.zeros((4, 2)),
        np.array([[0.0, 1.0], [0.0, -2.0], [0.0, 0.5]]),
        np.array([[1.0, 0.0], [-2.0, 0.0], [0.5, 0.0]]),
        np.outer([1.0, -3.0, 0.25, 2.0], [40.0, -70.0]),
        np.array([[3.0, 4.0]]),
    ], ids=["all-zero", "zero-first-column", "zero-second-column", "rank-one", "single-row"])
    def test_unobservable_stacks_raise(self, rows):
        with pytest.raises(UnobservableDisplacementError):
            factor_rows(rows.tolist(), R_CONDITION_LIMIT)


# -- the float pass on whole packets against the array reference on active rows --


def drawn_weights(rng, kinds):
    """Weights of the shape of ``kinds``: 0 strong, 1 zero, 2 faded, 3 as
    strong as path 0 of its AP (its parts swapped, so |w| is bit-equal)."""
    weights = rng.uniform(0.5, 1.5, kinds.shape) * np.exp(1j * rng.uniform(-np.pi, np.pi, kinds.shape))
    weights[kinds == 1] = 0
    weights[kinds == 2] *= 1e-13
    tied = kinds == 3
    weights[tied] = np.broadcast_to(weights[..., :1].imag + 1j * weights[..., :1].real,
                                    kinds.shape)[tied]
    return weights


@settings(max_examples=300, deadline=None)
@given(shape=st.tuples(st.integers(1, 5), st.integers(1, 3)), data=st.data(),
       seed=st.integers(0, 2**32 - 1), weak_rtol=st.sampled_from([0.0, 1e-9, 0.3]),
       same_clock=st.booleans(), spread=st.booleans())
def test_selection_on_full_arrays_equals_selection_on_active_rows(shape, data, seed, weak_rtol,
                                                                  same_clock, spread):
    """The float pass on whole packets with an ``active`` mask equals the
    array reference on the active APs' rows alone, bit for bit: the same
    kept paths, references, short count, turns and plan rows."""
    rng = np.random.default_rng(seed)
    if spread:
        first, second = spread_weights(rng, (2,) + shape)
    else:
        first, second = drawn_weights(rng, data.draw(hnp.arrays(int, (2,) + shape,
                                                                elements=st.integers(0, 3))))
    active = data.draw(hnp.arrays(bool, shape[:1]))
    keep, ref, short, turn, key = float_selection(path_strengths(first, weak_rtol),
                                                  path_strengths(second, weak_rtol), same_clock,
                                                  active.tolist())
    gathered = select_paths(array_strengths(first[active], weak_rtol),
                            array_strengths(second[active], weak_rtol), same_clock,
                            np.ones(np.count_nonzero(active), dtype=bool))
    assert not keep[~active].any() and all(key[a] == () for a in np.flatnonzero(~active))
    np.testing.assert_array_equal(keep[active], gathered[0])
    assert short == np.count_nonzero(gathered[2])
    rows = keep.any(axis=-1)
    if not same_clock:
        np.testing.assert_array_equal(ref[rows], gathered[1][rows[active]])
    assert [bool(entry) for entry in key] == rows.tolist()
    assert np.array_equal(turn[keep], gathered[3][gathered[0]])
    assert np.isfinite(turn[keep]).all()
    # the plan's rows from its key equal the reference's rows of the selection
    directions = rng.normal(size=shape + (2,))
    expected, _ = row_geometry(directions[active], *gathered[:2], 0.06)
    assert np.array_equal(np.reshape(plan_rows(directions.tolist(), key, 0.06), (-1, 2)), expected)


# -- turns from path angles against the attenuation ratios they replace ----------


def spread_weights(rng, shape):
    """Weights of random phase with magnitudes from 1e-150 to 1e150."""
    return 10.0 ** rng.uniform(-150, 150, shape) * np.exp(1j * rng.uniform(-np.pi, np.pi, shape))


def ratio_turns(first, second, ref):
    """np.angle of D_k, or of D_k / D_ref with ``ref``, in the ratio form,
    on weights scaled by powers of two so that no product leaves the float
    range; a power of two moves no angle."""
    first, second = (w * np.ldexp(1.0, -np.frexp(np.abs(w))[1]) for w in (first, second))
    ratio = _ratio(first, second, np.abs(first))
    if ref is not None:
        ratio = ratio / ratio[np.arange(ref.size), ref][:, None]
    return np.angle(ratio)


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(1, 5), st.integers(1, 3)), seed=st.integers(0, 2**32 - 1),
       weak_rtol=st.sampled_from([0.0, WEAK_PATH_RTOL]), same_clock=st.booleans())
def test_turns_are_the_angles_of_the_attenuation_ratios(shape, seed, weak_rtol, same_clock):
    first, second = spread_weights(np.random.default_rng(seed), (2,) + shape)
    strengths = path_strengths(first, weak_rtol), path_strengths(second, weak_rtol)
    keep, ref, _, turn = select_every_ap(*strengths, same_clock)
    assert np.all((-np.pi <= turn) & (turn < np.pi))
    expected = ratio_turns(first, second, ref)
    assert np.all(circular_distance(turn[keep], expected[keep]) <= 1e-12)
    # a packet paired with itself turns by exactly nothing
    for packet in strengths:
        assert not select_every_ap(packet, packet, same_clock)[3].any()


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(1, 5), st.integers(2, 3)), seed=st.integers(0, 2**32 - 1),
       weak_rtol=st.sampled_from([0.0, WEAK_PATH_RTOL]), data=st.data())
def test_a_clock_phase_at_one_ap_moves_no_full_mode_turn(shape, seed, weak_rtol, data):
    weights = spread_weights(np.random.default_rng(seed), (2,) + shape)
    keep, ref, _, turn = select_every_ap(*(path_strengths(w, weak_rtol) for w in weights))
    packet, ap = data.draw(st.integers(0, 1)), data.draw(st.integers(0, shape[0] - 1))
    weights[packet, ap] *= np.exp(1j * data.draw(st.floats(-1e3, 1e3)))
    keep2, ref2, _, turn2 = select_every_ap(*(path_strengths(w, weak_rtol) for w in weights))
    np.testing.assert_array_equal(keep2, keep)
    np.testing.assert_array_equal(ref2, ref)
    assert np.all(circular_distance(turn2[keep], turn[keep]) <= 1e-12)


# -- the tracker's kernel against the per-AP computation it replaced -------------


def reference_update(path_sets, previous, current, config):
    """One packet pair the way the tracker solved it before the kernel, AP by
    AP: lstsq projection, weak-path subset, reference path, rows, stack. An AP
    with paths but absent from either packet is excluded as "absent"."""
    same_clock = config.mode == "assume-same-clock"
    blocks, excluded = [], Counter()
    for ap, paths in path_sets.items():
        if paths is None:
            continue
        if ap not in previous or ap not in current:
            excluded["absent"] += 1
            continue
        matrix = paths.steering_matrix
        if np.linalg.cond(matrix) >= config.steering_condition_limit:
            excluded["DegenerateGeometryError"] += 1
            continue
        w1 = np.linalg.lstsq(matrix, previous[ap].csi, rcond=None)[0]
        w2 = np.linalg.lstsq(matrix, current[ap].csi, rcond=None)[0]
        keep = np.minimum(np.abs(w1), np.abs(w2)) > config.weak_path_rtol * np.linalg.norm(w1)
        if keep.sum() < (1 if same_clock else 2):
            excluded["InsufficientPathsError"] += 1
            continue
        w1, w2, aods = w1[keep], w2[keep], paths.aods[keep]
        change = w2 * np.conj(w1) / np.abs(w1) ** 2
        scale = -2 * np.pi / paths.wavelength
        if same_clock:
            blocks.append((scale * np.column_stack([np.cos(aods), np.sin(aods)]),
                           np.angle(change)))
            continue
        ref = int(np.argmax(np.minimum(np.abs(w1), np.abs(w2))))
        others = np.arange(aods.size) != ref
        blocks.append((scale * np.column_stack([np.cos(aods[others]) - np.cos(aods[ref]),
                                                np.sin(aods[others]) - np.sin(aods[ref])]),
                       np.angle(change[others] / change[ref])))
    if not blocks:
        return None, excluded
    rows = np.vstack([r for r, _ in blocks])
    phases = np.concatenate([p for _, p in blocks])
    if rows.shape[0] < 2 or np.linalg.cond(rows) >= config.stacked_condition_limit:
        return None, excluded
    return np.linalg.lstsq(rows, phases, rcond=None)[0], excluded


def kernel_case(name, seed=40):
    """Streams, geometry, the AoDs the patched estimator returns per AP, the
    APs whose estimates drift, and the exclusions the case must produce."""
    rng = np.random.default_rng(seed)
    if name == "faded-L3":
        geometry = ArrayGeometry.circular(4)
        aods = {ap: np.sort(rng.uniform(0, 2 * np.pi, 3)) for ap in AP_IDS}
        for ap in AP_IDS:
            while np.min(np.diff(aods[ap])) < 0.7:
                aods[ap] = np.sort(rng.uniform(0, 2 * np.pi, 3))
        fades = {"ap0": [1], "ap1": [0, 2]}  # ap1 keeps one path: too few
        snr_db = np.inf  # noise would lift the faded weights over the threshold
        expected = {"InsufficientPathsError", "absent"}
    else:  # "collinear": ap2's two AoDs trip the steering condition gate
        geometry = default_geometry()
        aods = {ap: np.sort(rng.uniform(0, 2 * np.pi, 2)) for ap in AP_IDS}
        for ap in AP_IDS:
            while abs(aods[ap][1] - aods[ap][0]) < 0.8:
                aods[ap] = np.sort(rng.uniform(0, 2 * np.pi, 2))
        aods["ap2"] = np.array([1.0, 1.0 + 1e-9])
        fades = {}
        snr_db = 30.0
        expected = {"DegenerateGeometryError", "absent"}
    paths = {}
    for ap in AP_IDS:
        gains = rng.uniform(0.6, 1.0, aods[ap].size) * np.exp(1j * rng.uniform(0, 2 * np.pi, aods[ap].size))
        gains[fades.get(ap, [])] *= 1e-14
        paths[ap] = tuple(PropagationPath(a, g) for a, g in zip(aods[ap], gains))
    config = SimConfig(geometry, ChannelSpec(paths), random_offsets(rng), snr_db=snr_db)
    streams = simulate_trajectory(config, random_waypoints(0.05, 0.6, seed=seed))
    # APs missing from some packets
    streams["ap2"] = [r for r in streams["ap2"] if r.packet_index % 5 != 1]
    streams["ap3"] = [r for r in streams["ap3"] if r.packet_index % 7 != 0]
    drifting = [ap for ap in AP_IDS if ap not in fades]  # a fade must stay exact
    return streams, geometry, aods, drifting, expected


@pytest.mark.parametrize("mode", ["full", "assume-same-clock"])
@pytest.mark.parametrize("case", ["faded-L3", "collinear"])
def test_kernel_matches_per_ap_reference(monkeypatch, case, mode):
    streams, geometry, aods, drifting, expected = kernel_case(case)
    estimates = Counter()

    def drifting_aods(window, slots, geometry, config):
        # the true AoDs, nudged on every estimate so that path sets change
        thetas = []
        for ap_id in (window.ap_ids[slot] for slot in slots):
            count = estimates[ap_id] = estimates[ap_id] + 1
            thetas.append(aods[ap_id] + 1e-3 * (count % 4) * (ap_id in drifting))
        return np.array(thetas), np.zeros(len(slots), dtype=bool)

    monkeypatch.setattr(tracker_module, "estimate_aods", drifting_aods)
    config = TrackerConfig(aod=tracker_module.AodConfig(num_paths=aods["ap0"].size),
                           stride=3, mode=mode)
    tracker = Tracker(geometry, AP_IDS, config)
    excluded = Counter()
    previous, compared = None, 0
    for group in pair_streams(streams):
        records = {ap: r for ap, r in group.records.items() if r is not None}
        started = bool(tracker.flags)
        delta = tracker.ingest(records)
        if started:
            ref, counts = reference_update(tracker.path_sets, previous, records, config)
            excluded.update(counts)
            assert (delta is None) == (ref is None)
            if ref is not None:
                assert np.max(np.abs(delta.delta - ref)) <= 1e-12
                compared += 1
        previous = records
    assert compared > 50
    assert tracker.exclusions == excluded
    if mode == "full" or case == "collinear":
        assert set(excluded) == expected


def test_flag_summary_counts_are_plain_ints(monkeypatch):
    streams, geometry, aods, _, _ = kernel_case("collinear")
    monkeypatch.setattr(tracker_module, "estimate_aods", lambda window, slots, geometry, config: (
        np.array([aods[window.ap_ids[slot]] for slot in slots]), np.zeros(len(slots), dtype=bool)))
    tracker = Tracker(geometry, AP_IDS, TrackerConfig(stride=3))
    tracker.consume(pair_streams(streams))
    summary = tracker.flag_summary()
    assert {"excluded:absent", "excluded:DegenerateGeometryError"} <= set(summary)
    assert all(type(count) is int for count in summary.values()), summary
    assert json.loads(json.dumps(summary)) == summary


# -- the tracker's reused row plans against rows built afresh on every packet ------


class FreshRowsTracker(Tracker):
    """The tracker with every packet's weights, selection and rows made
    afresh by the array reference, reusing nothing between packets."""

    def _pair_update(self, last, packet, now):
        (previous_csi, previous_present), (csi, present) = last[:2], packet[:2]
        first, second = project(self._pinv, np.array([previous_csi, csi]))
        has_paths = np.array(self._has_paths)
        pairs = np.array(present) & previous_present & has_paths
        active = pairs & self._usable
        weak_rtol = self.config.weak_path_rtol
        keep, ref, short, turn = select_paths(
            array_strengths(first[active], weak_rtol), array_strengths(second[active], weak_rtol),
            self.config.mode == "assume-same-clock", np.ones(np.count_nonzero(active), dtype=bool))
        rows, index = row_geometry(self._directions[active], keep, ref, self.geometry.wavelength)
        for reason, mask in (("absent", has_paths & ~pairs),
                             (DegenerateGeometryError.__name__, pairs & ~active),
                             (InsufficientPathsError.__name__, short)):
            if mask.any():
                self.exclusions[reason] += int(np.count_nonzero(mask))
        try:
            displacement = Displacement(
                factor_rows(rows.tolist(), self.config.stacked_condition_limit) @ turn[index])
        except UnobservableDisplacementError:
            self._emit(now, "dead-reckoned")
            return None
        dx, dy = displacement.delta.tolist()
        self._x, self._y = self._x + dx, self._y + dy
        self._emit(now, "ok")
        return displacement


def flipping_streams(seed, fade_ap, fade_path, fade_start, fade_length, drop, snr_db,
                     packets=120):
    """Three paths per AP on a 4-antenna array with drifting path gains; one
    AP's path fades to nothing over a span of packets, and records drop at
    random, so the kept paths and the reference path change between
    estimates."""
    rng = np.random.default_rng(seed)
    paths = {}
    for ap in AP_IDS:
        aods = np.sort(rng.uniform(0, 2 * np.pi, 3))
        while np.min(np.diff(np.append(aods, aods[0] + 2 * np.pi))) < 0.7:
            aods = np.sort(rng.uniform(0, 2 * np.pi, 3))
        gains = rng.uniform(0.7, 1.0, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        paths[ap] = tuple(PropagationPath(a, g) for a, g in zip(aods, gains))
    faded = dict(paths)
    faded[fade_ap] = tuple(PropagationPath(path.aod, path.gain * (1e-13 if k == fade_path else 1))
                           for k, path in enumerate(paths[fade_ap]))
    offsets = random_offsets(rng)
    waypoints = random_waypoints(0.05, 0.006 * (packets - 1), seed=seed)
    streams, fading = (
        simulate_trajectory(SimConfig(ArrayGeometry.circular(4), ChannelSpec(channel), offsets,
                                      snr_db=snr_db, rng_seed=seed, amplitude_drift_std=0.05),
                            waypoints)
        for channel in (paths, faded))
    fade = range(fade_start, fade_start + fade_length)
    streams[fade_ap] = [fading[fade_ap][r.packet_index] if r.packet_index in fade else r
                        for r in streams[fade_ap]]
    return {ap: [r for r in records if rng.random() >= drop] for ap, records in streams.items()}


@settings(max_examples=25, deadline=None)
# an estimate epoch in which one AP keeps the same row paths but changes its reference
@example(stride=9, mode="full", seed=49105, fade_ap="ap2", fade_path=2, fade_start=94,
         fade_length=12, drop=0.0, snr_db=np.inf, weak_rtol=0.3)
@given(stride=st.integers(1, 12), mode=st.sampled_from(MODES), seed=st.integers(0, 2**16),
       fade_ap=st.sampled_from(AP_IDS), fade_path=st.integers(0, 2),
       fade_start=st.integers(20, 100), fade_length=st.integers(1, 60),
       drop=st.sampled_from([0.0, 0.1, 0.3]), snr_db=st.sampled_from([np.inf, 25.0]),
       weak_rtol=st.sampled_from([1e-9, 0.3]))
def test_reused_row_plans_change_no_bit(stride, mode, seed, fade_ap, fade_path, fade_start,
                                        fade_length, drop, snr_db, weak_rtol):
    streams = flipping_streams(seed, fade_ap, fade_path, fade_start, fade_length, drop, snr_db)
    config = TrackerConfig(aod=tracker_module.AodConfig(num_paths=3, window_seconds=0.3),
                           stride=stride, mode=mode, weak_path_rtol=weak_rtol)
    tracker = Tracker(ArrayGeometry.circular(4), AP_IDS, config)
    fresh = FreshRowsTracker(ArrayGeometry.circular(4), AP_IDS, config)
    for group in pair_streams(streams):
        records = {ap: r for ap, r in group.records.items() if r is not None}
        delta, expected = tracker.ingest(records), fresh.ingest(records)
        assert (delta is None) == (expected is None)
        if delta is not None:
            assert np.array_equal(delta.delta, expected.delta)
    assert tracker.flags == fresh.flags
    assert tracker.exclusions == fresh.exclusions
    assert np.array_equal(tracker.trajectory().positions, fresh.trajectory().positions)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered",
                            "ignore:divide by zero encountered")
@settings(max_examples=15, deadline=None)
# no drops: only the estimates change which APs are usable, and only the raises which
# packets pair; masks kept across either fail this example
@example(stride=3, mode="full", seed=1, steering_limit=2.5, huge_at=40, drop=0.0)
@given(stride=st.integers(1, 12), mode=st.sampled_from(MODES), seed=st.integers(0, 2**16),
       steering_limit=st.floats(1.5, 8.0), huge_at=st.integers(25, 60),
       drop=st.sampled_from([0.0, 0.1]))
def test_reused_masks_follow_estimates_and_raises(stride, mode, seed, steering_limit, huge_at,
                                                   drop):
    # a steering limit among the estimates' condition numbers (about 1.3 to 8) turns
    # APs usable and unusable from one estimate to the next, and a packet of 1e200 CSI
    # makes each estimate raise while it is in the 50-packet window, after which the
    # tracker recovers: its pair masks, kept between estimates, must raise alike and
    # give every bit the masks made afresh on each packet give
    streams = flipping_streams(seed, "ap1", 1, 50, 20, drop, 25.0)
    config = TrackerConfig(aod=tracker_module.AodConfig(num_paths=3, window_seconds=0.3),
                           stride=stride, mode=mode, steering_condition_limit=steering_limit)
    tracker, fresh = (cls(ArrayGeometry.circular(4), AP_IDS, config)
                      for cls in (Tracker, FreshRowsTracker))
    raised = 0
    for group in pair_streams(streams):
        records = {ap: r for ap, r in group.records.items() if r is not None}
        if group.packet_index == huge_at:
            records = {ap: CsiRecord(ap, r.packet_index, r.timestamp, 1e200 * r.csi)
                       for ap, r in records.items()}
        outcomes = []
        for each in (tracker, fresh):
            try:
                delta = each.ingest(records)
                outcomes.append(None if delta is None else delta.delta.tobytes())
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        raised += isinstance(outcomes[0], str)
    assert raised
    assert tracker.flags == fresh.flags
    assert tracker.exclusions == fresh.exclusions
    assert np.array_equal(tracker.trajectory().positions, fresh.trajectory().positions)


def test_rows_are_factored_once_per_estimate_while_the_selection_holds():
    # seed 2 keeps each AP's two path strengths apart, so the reference path
    # holds and the selection changes only when the paths are re-estimated
    streams = simulate_trajectory(make_sim_config(2, snr_db=25.0, quantize=True),
                                  random_waypoints(0.5, 0.006 * 299, seed=2))
    tracker = Tracker(default_geometry(), AP_IDS, TrackerConfig(stride=10))
    with mock.patch.object(tracker_module, "factor_rows", wraps=factor_rows) as factor:
        tracker.consume(pair_streams(streams))
    estimates = (300 - 20) // 10 + 1  # from the 20th packet on, every 10th
    assert len(tracker.flags) == 281 and factor.call_count == estimates


# -- clock-phase invariance (criterion 1 generalised) ----------------------------


_ROTATION_PACKETS = 45


@pytest.fixture(scope="module")
def rotation_streams():
    config = make_sim_config(51, snr_db=30.0)
    streams = simulate_trajectory(
        config, random_waypoints(0.05, 0.006 * (_ROTATION_PACKETS - 1), seed=51))
    baseline = Tracker(default_geometry(), AP_IDS)
    deltas = [baseline.ingest(group.records) for group in pair_streams(streams)]
    return streams, deltas


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rotations=hnp.arrays(float, (len(AP_IDS), _ROTATION_PACKETS),
                            elements=st.floats(-1e3, 1e3)),
       rotated_aps=st.sets(st.sampled_from(AP_IDS), min_size=1))
def test_per_packet_phase_rotations_leave_displacements_unchanged(
        rotation_streams, rotations, rotated_aps):
    streams, baseline = rotation_streams
    rotated = {
        ap: [CsiRecord(r.ap_id, r.packet_index, r.timestamp,
                       r.csi * np.exp(1j * rotations[AP_IDS.index(ap), r.packet_index]))
             if ap in rotated_aps else r for r in records]
        for ap, records in streams.items()
    }
    tracker = Tracker(default_geometry(), AP_IDS)
    deltas = [tracker.ingest(group.records) for group in pair_streams(rotated)]
    assert sum(d is not None for d in baseline) > 20
    for base, delta in zip(baseline, deltas):
        assert (base is None) == (delta is None)
        if base is not None:
            assert np.max(np.abs(base.delta - delta.delta)) <= 1e-9
