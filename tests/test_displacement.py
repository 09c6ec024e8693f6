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
from csitrack.core import ArrayGeometry, CsiRecord, Displacement, PathSet, steering_matrix
from csitrack.displacement import (
    WEAK_PATH_RTOL,
    PathWeights,
    attenuation_change,
    estimate_displacement,
    factor_rows,
    factor_steering,
    path_strengths,
    path_weights,
    project,
    row_geometry,
    select_paths,
    solve_factored,
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


def kernel(triples, same_clock=False):
    """The row kernel over (path_set, first, second) triples, one per AP: the
    rows R, the phases s and the mask of APs left short."""
    aods = np.stack([path_set.aods for path_set, _, _ in triples])
    first = np.stack([np.asarray(getattr(w, "weights", w), complex) for _, w, _ in triples])
    second = np.stack([np.asarray(getattr(w, "weights", w), complex) for _, _, w in triples])
    directions = np.stack([np.cos(aods), np.sin(aods)], axis=-1)
    keep, ref, short, change = select_paths(path_strengths(first, WEAK_PATH_RTOL),
                                            path_strengths(second, WEAK_PATH_RTOL),
                                            same_clock=same_clock)
    rows, index = row_geometry(directions, keep, ref, triples[0][0].wavelength)
    return rows, np.angle(change[index]), short


def ap_rows(path_set, first, second, same_clock=False):
    """One AP's (R, s) from the kernel; the AP must not be left out."""
    rows, phases, short = kernel([(path_set, first, second)], same_clock)
    assert not short.any()
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
        assert short.tolist() == [True] and rows.shape == (0, 2) and phases.shape == (0,)
        # the same-clock ablation needs only one path
        rows, phases, short = kernel([(path_set, np.ones(1), np.ones(1))], same_clock=True)
        assert short.tolist() == [False] and rows.shape == (1, 2)

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


# -- one selection kernel on full arrays and on the gathered active rows ----------


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
       same_clock=st.booleans())
@pytest.mark.filterwarnings("error")
def test_selection_on_full_arrays_equals_selection_on_active_rows(shape, data, seed, weak_rtol,
                                                                  same_clock):
    kinds = data.draw(hnp.arrays(int, (2,) + shape, elements=st.integers(0, 3)))
    active = data.draw(hnp.arrays(bool, shape[:1]))
    first, second = drawn_weights(np.random.default_rng(seed), kinds)
    keep, ref, short, change = select_paths(path_strengths(first, weak_rtol),
                                            path_strengths(second, weak_rtol), same_clock, active)
    gathered = select_paths(path_strengths(first[active], weak_rtol),
                            path_strengths(second[active], weak_rtol), same_clock)
    assert not keep[~active | short].any() and not short[~active].any()
    np.testing.assert_array_equal(keep[active], gathered[0])
    np.testing.assert_array_equal(short[active], gathered[2])
    if not same_clock:
        rows = active & (keep.sum(axis=-1) > 0)
        np.testing.assert_array_equal(ref[rows], gathered[1][rows[active]])
    assert np.array_equal(change[keep].view(float), gathered[3][keep[active]].view(float))
    assert np.isfinite(change[keep]).all()


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

    def drifting_aods(windows, geometry, config):
        # the true AoDs, nudged on every estimate so that path sets change
        thetas = []
        for window in windows:
            count = estimates[window.ap_id] = estimates[window.ap_id] + 1
            thetas.append(aods[window.ap_id] + 1e-3 * (count % 4) * (window.ap_id in drifting))
        return np.array(thetas), np.zeros(len(windows), dtype=bool)

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
    monkeypatch.setattr(tracker_module, "estimate_aods", lambda windows, geometry, config: (
        np.array([aods[window.ap_id] for window in windows]), np.zeros(len(windows), dtype=bool)))
    tracker = Tracker(geometry, AP_IDS, TrackerConfig(stride=3))
    tracker.consume(pair_streams(streams))
    summary = tracker.flag_summary()
    assert {"excluded:absent", "excluded:DegenerateGeometryError"} <= set(summary)
    assert all(type(count) is int for count in summary.values()), summary
    assert json.loads(json.dumps(summary)) == summary


# -- the tracker's reused row plans against rows built afresh on every packet ------


class FreshRowsTracker(Tracker):
    """The tracker with every packet's rows built and factored afresh,
    reusing nothing between packets."""

    def _pair_update(self, last, packet, now):
        (previous_csi, previous_present, _), (csi, present, _) = last, packet
        first, second = project(self._pinv, np.array([previous_csi, csi]))
        pairs = present & previous_present & self._has_paths
        active = pairs & self._usable
        weak_rtol = self.config.weak_path_rtol
        keep, ref, short, change = select_paths(
            path_strengths(first[active], weak_rtol), path_strengths(second[active], weak_rtol),
            same_clock=self.config.mode == "assume-same-clock")
        rows, index = row_geometry(self._directions[active], keep, ref, self.geometry.wavelength)
        for reason, mask in (("absent", self._has_paths & ~pairs),
                             (DegenerateGeometryError.__name__, pairs & ~self._usable),
                             (InsufficientPathsError.__name__, short)):
            if mask.any():
                self.exclusions[reason] += np.count_nonzero(mask)
        try:
            displacement = Displacement(solve_factored(
                factor_rows(rows, self.config.stacked_condition_limit), np.angle(change[index])))
        except UnobservableDisplacementError:
            self._emit(now, "dead-reckoned")
            return None
        self._position = self._position + displacement.delta
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
